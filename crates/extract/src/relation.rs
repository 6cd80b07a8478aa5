//! Relation extraction between recognised entities (paper §2.4).
//!
//! The paper extends a dependency-parsing-based IOC relation pipeline \[17\] to
//! extract "relation verbs between entities recognized by our CRF model".
//! With no treebank for this domain, we reproduce the same input/output
//! behaviour with a shallow syntactic analysis over the POS-tagged sentence
//! (see DESIGN.md's substitution table):
//!
//! - **active**: `E1 <verb> ... E2` → `(E1, verb, E2)`, with coordinated
//!   objects (`E1 used T1 and T2`) fanning out;
//! - **passive + by-agent**: `E2 was <verb> by E1` → `(E1, verb, E2)`;
//! - **passive + to**: `E1 has been <verb> to E2` → `(E1, verb, E2)`
//!   (attribution/linking);
//! - **subjectless**: `<verb> E1 to E2` → `(E1, verb, E2)` ("analysts have
//!   linked E1 to E2").
//!
//! The verb lemma is resolved against the ontology
//! ([`kg_ontology::Ontology::resolve_extracted`]); inadmissible pairs degrade
//! to `RELATED_TO` or are dropped.

use kg_nlp::{AnalyzedSentence, PosTag};
use kg_ontology::{EntityKind, Ontology, RelationKind};
use serde::{Deserialize, Serialize};

/// An entity span over sentence tokens, as produced by the NER layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntitySpan {
    pub kind: EntityKind,
    /// First token index.
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
}

/// One extracted relation between two entity spans of a sentence.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractedRelation {
    /// Index into the sentence's entity-span list.
    pub subject: usize,
    /// Index into the sentence's entity-span list.
    pub object: usize,
    /// The connecting verb lemma.
    pub verb: String,
    /// The resolved ontology relation kind.
    pub kind: RelationKind,
}

/// Extract relations from one analysed sentence given its entity spans.
///
/// `spans` must be sorted by `start` (the NER layer produces them sorted).
pub fn extract_relations(
    sentence: &AnalyzedSentence,
    spans: &[EntitySpan],
    ontology: &Ontology,
) -> Vec<ExtractedRelation> {
    let mut out: Vec<ExtractedRelation> = Vec::new();
    if spans.len() < 2 {
        return out;
    }
    let n = sentence.tokens.len();
    let in_span = |i: usize| spans.iter().any(|s| i >= s.start && i < s.end);

    // Verb positions outside entity spans.
    let verbs: Vec<usize> = (0..n)
        .filter(|&i| sentence.tags[i] == PosTag::Verb && !in_span(i))
        .collect();

    for (vi, &v) in verbs.iter().enumerate() {
        let lemma = sentence.lemmas[v].clone();
        let next_verb = verbs.get(vi + 1).copied().unwrap_or(n);

        // Passive: a "be" auxiliary within the two preceding tokens
        // (skipping adverbs).
        let mut passive = false;
        let mut k = v;
        let mut steps = 0;
        while k > 0 && steps < 3 {
            k -= 1;
            steps += 1;
            match sentence.tags[k] {
                PosTag::Adverb => continue,
                PosTag::Aux => {
                    if sentence.lemmas[k] == "be" {
                        passive = true;
                    } else {
                        // "has/have (been) V-ed": keep scanning for "been".
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }

        // Nearest entity ending at or before the verb.
        let left = spans.iter().rposition(|s| s.end <= v);
        // Entities starting after the verb, before the next verb.
        let rights: Vec<usize> = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.start > v && s.start < next_verb)
            .map(|(i, _)| i)
            .collect();

        // Locate function words after the verb (up to first right entity).
        let first_right_start = rights.first().map(|&i| spans[i].start).unwrap_or(n);
        let mut saw_by = false;
        let mut saw_to = false;
        for i in v + 1..first_right_start.min(n) {
            let w = sentence.tokens[i].text.to_lowercase();
            if w == "by" {
                saw_by = true;
            }
            if w == "to" {
                saw_to = true;
            }
        }

        let mut pairs: Vec<(usize, usize)> = Vec::new();
        if passive && saw_by {
            // "O was V by S"
            if let (Some(o), Some(&s)) = (left, rights.first()) {
                pairs.push((s, o));
            }
        } else if passive && saw_to {
            // "S has been V to O"
            if let (Some(s), Some(&o)) = (left, rights.first()) {
                pairs.push((s, o));
            }
        } else if let Some(s) = left {
            // Active with explicit subject; fan out over coordination.
            if let Some(&o) = rights.first() {
                pairs.push((s, o));
                for window in rights.windows(2) {
                    let (a, b) = (window[0], window[1]);
                    if is_coordination(sentence, spans[a].end, spans[b].start) {
                        pairs.push((s, b));
                    } else {
                        break;
                    }
                }
            }
        } else if rights.len() >= 2 {
            // Subjectless "V E1 to E2".
            let (e1, e2) = (rights[0], rights[1]);
            let to_between = (spans[e1].end..spans[e2].start)
                .any(|i| sentence.tokens[i].text.eq_ignore_ascii_case("to"));
            if to_between {
                pairs.push((e1, e2));
            }
        }

        for (s, o) in pairs {
            if s == o {
                continue;
            }
            let Some(kind) = ontology.resolve_extracted(spans[s].kind, &lemma, spans[o].kind)
            else {
                continue;
            };
            let rel = ExtractedRelation {
                subject: s,
                object: o,
                verb: lemma.clone(),
                kind,
            };
            if !out.contains(&rel) {
                out.push(rel);
            }
        }
    }
    out
}

/// Are the tokens strictly between two spans only coordination glue?
fn is_coordination(sentence: &AnalyzedSentence, from: usize, to: usize) -> bool {
    if from > to {
        return false;
    }
    let mut any = false;
    for i in from..to {
        let w = sentence.tokens[i].text.to_lowercase();
        if w == "and" || w == "," || w == "or" {
            any = true;
        } else {
            return false;
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_nlp::{analyze, IocMatcher, PosTagger};

    fn analysed(text: &str) -> AnalyzedSentence {
        analyze(text, &IocMatcher::standard(), &PosTagger::standard()).remove(0)
    }

    fn span(kind: EntityKind, start: usize, end: usize) -> EntitySpan {
        EntitySpan { kind, start, end }
    }

    fn ont() -> Ontology {
        Ontology::standard()
    }

    #[test]
    fn active_svo() {
        // tokens: wannacry drops tasksche.exe on the infected host .
        let s = analysed("wannacry drops tasksche.exe on the infected host.");
        let spans = vec![
            span(EntityKind::Malware, 0, 1),
            span(EntityKind::FileName, 2, 3),
        ];
        let rels = extract_relations(&s, &spans, &ont());
        assert_eq!(rels.len(), 1, "{rels:?}");
        assert_eq!(
            rels[0],
            ExtractedRelation {
                subject: 0,
                object: 1,
                verb: "drop".into(),
                kind: RelationKind::Drop
            }
        );
    }

    #[test]
    fn passive_by_inverts() {
        // tokens: tasksche.exe was dropped by wannacry today .
        let s = analysed("tasksche.exe was dropped by wannacry today.");
        let spans = vec![
            span(EntityKind::FileName, 0, 1),
            span(EntityKind::Malware, 4, 5),
        ];
        let rels = extract_relations(&s, &spans, &ont());
        assert_eq!(rels.len(), 1, "{rels:?}");
        assert_eq!(rels[0].subject, 1);
        assert_eq!(rels[0].object, 0);
        assert_eq!(rels[0].kind, RelationKind::Drop);
    }

    #[test]
    fn passive_to_stays_forward() {
        // tokens: emotet has been attributed to lazarus group .
        let s = analysed("emotet has been attributed to lazarus group.");
        let spans = vec![
            span(EntityKind::Malware, 0, 1),
            span(EntityKind::ThreatActor, 5, 7),
        ];
        let rels = extract_relations(&s, &spans, &ont());
        assert_eq!(rels.len(), 1, "{rels:?}");
        assert_eq!(rels[0].subject, 0);
        assert_eq!(rels[0].object, 1);
        assert_eq!(rels[0].kind, RelationKind::AttributedTo);
    }

    #[test]
    fn subjectless_link_to() {
        // tokens: analysts have linked emotet to lazarus group .
        let s = analysed("analysts have linked emotet to lazarus group.");
        let spans = vec![
            span(EntityKind::Malware, 3, 4),
            span(EntityKind::ThreatActor, 5, 7),
        ];
        let rels = extract_relations(&s, &spans, &ont());
        assert_eq!(rels.len(), 1, "{rels:?}");
        assert_eq!(rels[0].subject, 0);
        assert_eq!(rels[0].object, 1);
        assert_eq!(rels[0].kind, RelationKind::AttributedTo);
    }

    #[test]
    fn coordination_fans_out() {
        // tokens: cozyduke used mimikatz and credential dumping yesterday .
        let s = analysed("cozyduke used mimikatz and credential dumping yesterday.");
        let spans = vec![
            span(EntityKind::ThreatActor, 0, 1),
            span(EntityKind::Tool, 2, 3),
            span(EntityKind::Technique, 4, 6),
        ];
        let rels = extract_relations(&s, &spans, &ont());
        assert_eq!(rels.len(), 2, "{rels:?}");
        assert!(rels
            .iter()
            .all(|r| r.subject == 0 && r.kind == RelationKind::Uses));
        let objects: Vec<usize> = rels.iter().map(|r| r.object).collect();
        assert_eq!(objects, vec![1, 2]);
    }

    #[test]
    fn prepositional_object() {
        // tokens: wannacry connects to 10.0.0.1 for command and control .
        let s = analysed("wannacry connects to 10.0.0.1 for command and control.");
        let spans = vec![
            span(EntityKind::Malware, 0, 1),
            span(EntityKind::IpAddress, 3, 4),
        ];
        let rels = extract_relations(&s, &spans, &ont());
        assert_eq!(rels.len(), 1, "{rels:?}");
        assert_eq!(rels[0].kind, RelationKind::ConnectsTo);
    }

    #[test]
    fn inadmissible_pairs_degrade_to_related_to() {
        // "drop" from Malware to Domain is not schema-admissible as DROP.
        let s = analysed("wannacry drops evil.example.com here.");
        let spans = vec![
            span(EntityKind::Malware, 0, 1),
            span(EntityKind::Domain, 2, 3),
        ];
        let rels = extract_relations(&s, &spans, &ont());
        assert_eq!(rels.len(), 1);
        assert_eq!(rels[0].kind, RelationKind::RelatedTo);
    }

    #[test]
    fn fewer_than_two_entities_yields_nothing() {
        let s = analysed("wannacry spreads rapidly.");
        let spans = vec![span(EntityKind::Malware, 0, 1)];
        assert!(extract_relations(&s, &spans, &ont()).is_empty());
    }

    #[test]
    fn unknown_verb_degrades_not_crashes() {
        let s = analysed("wannacry mystifies tasksche.exe somehow.");
        let spans = vec![
            span(EntityKind::Malware, 0, 1),
            span(EntityKind::FileName, 2, 3),
        ];
        let rels = extract_relations(&s, &spans, &ont());
        // "mystify" is no known verb → RELATED_TO fallback (if tagged VERB at
        // all; if the tagger missed it, no relation, which is also fine).
        for r in rels {
            assert_eq!(r.kind, RelationKind::RelatedTo);
        }
    }
}
