//! Intermediate representations flowing through the SecurityKG pipeline
//! (paper §2.1 "Unified knowledge representation" and §2.4).
//!
//! Three representations, in pipeline order:
//!
//! 1. [`RawReport`] — what a crawler fetches: one page of one report.
//! 2. [`IntermediateReport`] — what the *porter* produces: multi-page reports
//!    grouped, with metadata (id, source, title, original location,
//!    timestamps) attached.
//! 3. [`IntermediateCti`] — the *unified CTI schema*: structured fields parsed
//!    by source-dependent parsers plus entity/relation mentions filled in by
//!    source-independent extractors.
//!
//! All three are `serde`-serialisable; the pipeline ships them between stages
//! as bytes, which is what makes multi-host deployment possible (§2.1
//! "Scalability").

pub mod hash;
pub mod mention;
pub mod raw;
pub mod report;

pub use hash::{
    combine_hashes, fnv1a64, fnv1a64_extend, fnv1a64_pinned, fnv1a64_pinned_extend, splitmix64,
};
pub use mention::{EntityMention, MentionOrigin, RelationMention};
pub use raw::{FetchStatus, RawReport};
pub use report::{IntermediateCti, IntermediateReport, ReportId, ReportMeta, Section, SourceId};

#[cfg(test)]
mod tests {
    use super::*;
    use kg_ontology::{EntityKind, ReportCategory};

    fn sample_cti() -> IntermediateCti {
        let meta = ReportMeta {
            id: ReportId::new("securelist", "wannacry-2017"),
            source: SourceId(3),
            vendor: "securelist".into(),
            title: "WannaCry ransomware attack".into(),
            url: "https://securelist.example/wannacry-2017".into(),
            fetched_at_ms: 1_600_000_000_000,
            published_at_ms: Some(1_494_806_400_000),
        };
        let mut cti = IntermediateCti::new(meta, ReportCategory::Malware);
        cti.text = "wannacry drops tasksche.exe".into();
        let m0 = cti.push_mention(EntityMention::new(EntityKind::Malware, "wannacry", 0, 8));
        let m1 = cti.push_mention(EntityMention::new(
            EntityKind::FileName,
            "tasksche.exe",
            15,
            27,
        ));
        cti.relations.push(RelationMention::new(m0, m1, "drop"));
        cti
    }

    #[test]
    fn full_pipeline_representation_round_trips_as_bytes() {
        let cti = sample_cti();
        let bytes = cti.to_bytes().unwrap();
        let back = IntermediateCti::from_bytes(&bytes).unwrap();
        assert_eq!(back, cti);
    }

    #[test]
    fn mention_indices_stay_valid() {
        let cti = sample_cti();
        for rel in &cti.relations {
            assert!(rel.subject < cti.mentions.len());
            assert!(rel.object < cti.mentions.len());
        }
    }
}
