//! Golden digests for the CRF NER path.
//!
//! Both digests pin exact behaviour, not quality: any change to training
//! arithmetic, feature generation or decoding that moves one weight bit or
//! one label fails here. The expected values were recorded from the model
//! code before the shared scoring kernel and the Viterbi-only decode were
//! introduced, so they prove those refactors exact.
//!
//! - `crf_model_bytes_digest`: FNV-1a over `Crf::to_bytes()` of a model
//!   trained on a tiny world (60 articles, 4 epochs, 8 clusters).
//! - `ner_extract_output_digest`: FNV-1a over every sentence's spans and
//!   relations from `NerPipeline::extract` on held-out gold reports, at the
//!   default threshold (Viterbi only) and at 0.5 (marginals computed).

use kg_corpus::{standard_sources, SimulatedWeb, World, WorldConfig};
use kg_extract::{CrfConfig, NerPipeline};
use securitykg::{collect_gold, train_ner, TrainingConfig};
use std::fmt::Write as _;
use std::sync::OnceLock;

const MODEL_DIGEST: u64 = 0xb065572534d4b629;
const EXTRACT_DIGEST_AT_0: u64 = 0x907f2f7e9c6d32bd;
const EXTRACT_DIGEST_AT_HALF: u64 = 0xc381860b734f261f;

fn web() -> &'static SimulatedWeb {
    static WEB: OnceLock<SimulatedWeb> = OnceLock::new();
    WEB.get_or_init(|| {
        SimulatedWeb::new(
            World::generate(WorldConfig::tiny(5)),
            standard_sources(10),
            9,
        )
    })
}

fn pipeline() -> &'static NerPipeline {
    static PIPELINE: OnceLock<NerPipeline> = OnceLock::new();
    PIPELINE.get_or_init(|| {
        let config = TrainingConfig {
            articles: 60,
            crf: CrfConfig {
                epochs: 4,
                ..CrfConfig::default()
            },
            clusters: 8,
            ..TrainingConfig::default()
        };
        train_ner(web(), &config).into_pipeline()
    })
}

/// Canonical text of every report's extraction output, hashed.
fn extract_digest(pipeline: &NerPipeline) -> u64 {
    let mut text = String::new();
    for gold in collect_gold(web(), 40, |i| i % 2 == 1) {
        writeln!(text, "report {}", gold.key).unwrap();
        for se in pipeline.extract(&gold.text) {
            write!(text, "s{}:", se.sentence.tokens.len()).unwrap();
            for s in &se.spans {
                write!(text, " {}[{},{})", s.kind.label(), s.start, s.end).unwrap();
            }
            for r in &se.relations {
                write!(text, " {}-{:?}/{}->{}", r.subject, r.kind, r.verb, r.object).unwrap();
            }
            text.push('\n');
        }
    }
    kg_ir::fnv1a64(text.as_bytes())
}

#[test]
fn crf_model_bytes_digest() {
    let bytes = pipeline().crf.to_bytes().expect("model serialises");
    let digest = kg_ir::fnv1a64(&bytes);
    assert_eq!(digest, MODEL_DIGEST, "model digest {digest:#018x}");
}

#[test]
fn ner_extract_output_digest() {
    let p = pipeline();
    let digest = extract_digest(p);
    assert_eq!(digest, EXTRACT_DIGEST_AT_0, "extract digest {digest:#018x}");

    let mut gated = NerPipeline::new(p.crf.clone(), p.featurizer.clone());
    gated.min_confidence = 0.5;
    let digest = extract_digest(&gated);
    assert_eq!(
        digest, EXTRACT_DIGEST_AT_HALF,
        "extract digest at 0.5 {digest:#018x}"
    );
}
