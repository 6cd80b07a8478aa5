//! Ground-truth annotations for generated reports.
//!
//! The real OSCTI web offers no labels; the synthetic substrate produces them
//! as a by-product of generation, which is what lets experiment E3 measure
//! extraction F1 honestly. A [`GoldReport`] carries the canonical plain text
//! of the article plus exact entity spans and relations.

use kg_ontology::{EntityKind, RelationKind, ReportCategory};
use serde::{Deserialize, Serialize};

/// A labelled entity span in a report's canonical text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldMention {
    pub kind: EntityKind,
    /// Byte offset of span start in [`GoldReport::text`].
    pub start: usize,
    /// Byte offset one past span end.
    pub end: usize,
    /// The span text (redundant with offsets; kept for readability).
    pub text: String,
}

/// A labelled relation between two mentions of the same report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldRelation {
    /// Index into [`GoldReport::mentions`].
    pub subject: usize,
    /// Index into [`GoldReport::mentions`].
    pub object: usize,
    /// The verb lemma connecting them.
    pub verb: String,
    /// The ontology relation kind.
    pub kind: RelationKind,
}

/// Full ground truth for one generated report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GoldReport {
    /// Source-local report key (matches the crawled URL).
    pub key: String,
    pub category: ReportCategory,
    pub title: String,
    /// Canonical plain text: paragraphs joined by `\n`.
    pub text: String,
    pub mentions: Vec<GoldMention>,
    pub relations: Vec<GoldRelation>,
    /// Structured metadata fields (key, value, value's entity kind if any).
    pub structured: Vec<(String, String, Option<EntityKind>)>,
}

impl GoldReport {
    /// Check internal consistency: spans in bounds, span text matches,
    /// relation indices valid.
    pub fn is_consistent(&self) -> bool {
        self.mentions.iter().all(|m| {
            m.end <= self.text.len()
                && m.start < m.end
                && self.text.get(m.start..m.end) == Some(m.text.as_str())
        }) && self
            .relations
            .iter()
            .all(|r| r.subject < self.mentions.len() && r.object < self.mentions.len())
    }
}

/// Incremental builder that keeps text and annotations aligned.
///
/// Generators append literal text with [`TextBuilder::lit`] and entity names
/// with [`TextBuilder::entity`]; spans are computed at append time, so they
/// are correct by construction.
#[derive(Debug, Default)]
pub struct TextBuilder {
    text: String,
    mentions: Vec<GoldMention>,
    relations: Vec<GoldRelation>,
}

impl TextBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append literal text.
    pub fn lit(&mut self, s: &str) -> &mut Self {
        self.text.push_str(s);
        self
    }

    /// Append an entity name and record its span; returns the mention index.
    pub fn entity(&mut self, kind: EntityKind, name: &str) -> usize {
        let start = self.text.len();
        self.text.push_str(name);
        self.mentions.push(GoldMention {
            kind,
            start,
            end: self.text.len(),
            text: name.into(),
        });
        self.mentions.len() - 1
    }

    /// Record a relation between two previously appended mentions.
    pub fn relation(&mut self, subject: usize, verb: &str, object: usize, kind: RelationKind) {
        debug_assert!(subject < self.mentions.len() && object < self.mentions.len());
        self.relations.push(GoldRelation {
            subject,
            object,
            verb: verb.into(),
            kind,
        });
    }

    /// End the current paragraph (canonical separator is a single `\n`).
    pub fn end_paragraph(&mut self) {
        if !self.text.is_empty() && !self.text.ends_with('\n') {
            self.text.push('\n');
        }
    }

    /// Current text length (for span assertions in tests).
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// Whether nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Finish, producing the text and annotations.
    pub fn finish(mut self) -> (String, Vec<GoldMention>, Vec<GoldRelation>) {
        // Canonical text has no trailing newline.
        while self.text.ends_with('\n') {
            self.text.pop();
        }
        (self.text, self.mentions, self.relations)
    }
}

/// Render BIO tags for a tokenised sentence against gold mentions.
///
/// A token whose span lies inside a gold mention gets `B-<stem>` (first
/// token) or `I-<stem>`; all others get `"O"`. Tokens partially overlapping a
/// mention boundary count as outside — the tokenizer's IOC protection should
/// prevent that case, and the strictness surfaces misalignment bugs in tests.
pub fn bio_tags(mentions: &[GoldMention], token_spans: &[(usize, usize)]) -> Vec<String> {
    let mut tags = vec!["O".to_owned(); token_spans.len()];
    for mention in mentions {
        let mut first = true;
        for (i, &(start, end)) in token_spans.iter().enumerate() {
            if start >= mention.start && end <= mention.end {
                let stem = mention.kind.tag_stem();
                tags[i] = format!("{}-{}", if first { "B" } else { "I" }, stem);
                first = false;
            }
        }
    }
    tags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_spans() {
        let mut b = TextBuilder::new();
        b.lit("The ");
        let m = b.entity(EntityKind::Malware, "wannacry");
        b.lit(" ransomware dropped ");
        let f = b.entity(EntityKind::FileName, "tasksche.exe");
        b.lit(".");
        b.relation(m, "drop", f, RelationKind::Drop);
        b.end_paragraph();
        let (text, mentions, relations) = b.finish();
        assert_eq!(text, "The wannacry ransomware dropped tasksche.exe.");
        assert_eq!(&text[mentions[0].start..mentions[0].end], "wannacry");
        assert_eq!(&text[mentions[1].start..mentions[1].end], "tasksche.exe");
        assert_eq!(relations[0].kind, RelationKind::Drop);
    }

    #[test]
    fn gold_report_consistency() {
        let mut b = TextBuilder::new();
        b.lit("x ");
        b.entity(EntityKind::Tool, "mimikatz");
        let (text, mentions, relations) = b.finish();
        let report = GoldReport {
            key: "k".into(),
            category: ReportCategory::Attack,
            title: "t".into(),
            text,
            mentions,
            relations,
            structured: Vec::new(),
        };
        assert!(report.is_consistent());

        let mut broken = report.clone();
        broken.mentions[0].end += 5;
        assert!(!broken.is_consistent());
    }

    #[test]
    fn bio_tagging_marks_first_and_inside() {
        let mentions = vec![GoldMention {
            kind: EntityKind::ThreatActor,
            start: 0,
            end: 13,
            text: "lazarus group".into(),
        }];
        // Tokens: "lazarus" [0,7), "group" [8,13), "struck" [14,20)
        let spans = vec![(0, 7), (8, 13), (14, 20)];
        assert_eq!(bio_tags(&mentions, &spans), vec!["B-ACT", "I-ACT", "O"]);
    }

    #[test]
    fn bio_tagging_ignores_partial_overlap() {
        let mentions = vec![GoldMention {
            kind: EntityKind::Malware,
            start: 2,
            end: 8,
            text: "motet?".into(),
        }];
        let spans = vec![(0, 6), (7, 12)];
        assert_eq!(bio_tags(&mentions, &spans), vec!["O", "O"]);
    }
}
