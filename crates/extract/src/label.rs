//! The BIO label space for security NER.
//!
//! One `B-`/`I-` pair per taggable entity kind (report kinds are never
//! produced by the tagger) plus the outside label `O`. Labels are dense
//! `u16` ids; the `O` label is always id 0.

use kg_ontology::EntityKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Dense label id. `O` is always 0.
pub type LabelId = u16;

/// The label inventory and its BIO structure.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LabelSet {
    names: Vec<String>,
    index: HashMap<String, LabelId>,
    /// For each label: the kind it tags (None for `O`).
    kinds: Vec<Option<EntityKind>>,
    /// For each label: true if it is a `B-` label.
    begins: Vec<bool>,
    /// For each label: the labels that may precede it, ascending. Derived
    /// from `may_follow` on first use and never serialised.
    #[serde(skip)]
    predecessors: OnceLock<Vec<Vec<LabelId>>>,
}

impl LabelSet {
    /// The standard label set over every non-report entity kind.
    pub fn standard() -> Self {
        let mut names = vec!["O".to_owned()];
        let mut kinds = vec![None];
        let mut begins = vec![false];
        for kind in EntityKind::ALL {
            if kind.is_report() {
                continue;
            }
            for (prefix, is_b) in [("B", true), ("I", false)] {
                names.push(format!("{prefix}-{}", kind.tag_stem()));
                kinds.push(Some(kind));
                begins.push(is_b);
            }
        }
        let index = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as LabelId))
            .collect();
        LabelSet {
            names,
            index,
            kinds,
            begins,
            predecessors: OnceLock::new(),
        }
    }

    /// Number of labels (including `O`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the set is empty (never, for the standard set).
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The `O` label id.
    pub const O: LabelId = 0;

    /// Id of a label string.
    pub fn id(&self, name: &str) -> Option<LabelId> {
        self.index.get(name).copied()
    }

    /// Name of a label id.
    pub fn name(&self, id: LabelId) -> &str {
        &self.names[id as usize]
    }

    /// The `B-` label for a kind (None for report kinds, which the tagger
    /// never produces).
    pub fn begin(&self, kind: EntityKind) -> Option<LabelId> {
        if kind.is_report() {
            return None;
        }
        self.id(&format!("B-{}", kind.tag_stem()))
    }

    /// The `I-` label for a kind (None for report kinds).
    pub fn inside(&self, kind: EntityKind) -> Option<LabelId> {
        if kind.is_report() {
            return None;
        }
        self.id(&format!("I-{}", kind.tag_stem()))
    }

    /// The kind a label tags (None for `O`).
    pub fn kind_of(&self, id: LabelId) -> Option<EntityKind> {
        self.kinds[id as usize]
    }

    /// Whether `id` is a `B-` label.
    pub fn is_begin(&self, id: LabelId) -> bool {
        self.begins[id as usize]
    }

    /// Whether `id` is an `I-` label.
    pub fn is_inside(&self, id: LabelId) -> bool {
        id != Self::O && !self.begins[id as usize]
    }

    /// BIO validity: can label `next` follow label `prev`?
    ///
    /// `I-X` may only follow `B-X` or `I-X`; everything else is free. Decoders
    /// hard-enforce this so outputs always form well-formed spans.
    pub fn may_follow(&self, prev: LabelId, next: LabelId) -> bool {
        if !self.is_inside(next) {
            return true;
        }
        self.kind_of(prev) == self.kind_of(next) && prev != Self::O
    }

    /// The labels `prev` with `may_follow(prev, next)`, in ascending order
    /// (so a decoder scanning them keeps the first of equal scores). Built
    /// once per label set: an `I-X` label has two predecessors, every other
    /// label has all of them.
    pub(crate) fn predecessors(&self, next: LabelId) -> &[LabelId] {
        let lists = self.predecessors.get_or_init(|| {
            let n = self.len() as LabelId;
            (0..n)
                .map(|next| (0..n).filter(|&p| self.may_follow(p, next)).collect())
                .collect()
        });
        &lists[next as usize]
    }

    /// Convert a BIO label-id sequence into `(kind, start_token, end_token)`
    /// spans (`end` exclusive). Ill-formed `I-` openings are treated as `B-`.
    pub fn decode_spans(&self, labels: &[LabelId]) -> Vec<(EntityKind, usize, usize)> {
        let mut spans = Vec::new();
        let mut current: Option<(EntityKind, usize)> = None;
        for (i, &l) in labels.iter().enumerate() {
            match self.kind_of(l) {
                None => {
                    if let Some((k, s)) = current.take() {
                        spans.push((k, s, i));
                    }
                }
                Some(kind) => {
                    let continues = !self.is_begin(l) && current.is_some_and(|(k, _)| k == kind);
                    if !continues {
                        if let Some((k, s)) = current.take() {
                            spans.push((k, s, i));
                        }
                        current = Some((kind, i));
                    }
                }
            }
        }
        if let Some((k, s)) = current {
            spans.push((k, s, labels.len()));
        }
        spans
    }

    /// Encode `(kind, start, end)` token spans as a BIO label-id sequence of
    /// length `len`. Overlapping spans: the later one wins.
    pub fn encode_spans(&self, len: usize, spans: &[(EntityKind, usize, usize)]) -> Vec<LabelId> {
        let mut labels = vec![Self::O; len];
        for &(kind, start, end) in spans {
            let (Some(b), Some(i_label)) = (self.begin(kind), self.inside(kind)) else {
                continue;
            };
            for (offset, slot) in labels[start..end.min(len)].iter_mut().enumerate() {
                *slot = if offset == 0 { b } else { i_label };
            }
        }
        labels
    }
}

impl Default for LabelSet {
    fn default() -> Self {
        LabelSet::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_set_shape() {
        let ls = LabelSet::standard();
        // 19 non-report kinds × 2 + O = 39.
        assert_eq!(ls.len(), 39);
        assert_eq!(ls.name(LabelSet::O), "O");
        assert_eq!(ls.id("O"), Some(0));
        assert!(!ls.is_empty());
    }

    #[test]
    fn begin_inside_lookup() {
        let ls = LabelSet::standard();
        let b = ls.begin(EntityKind::Malware).unwrap();
        let i = ls.inside(EntityKind::Malware).unwrap();
        assert_eq!(ls.name(b), "B-MAL");
        assert_eq!(ls.name(i), "I-MAL");
        assert!(ls.is_begin(b));
        assert!(ls.is_inside(i));
        assert_eq!(ls.kind_of(b), Some(EntityKind::Malware));
    }

    #[test]
    fn bio_transition_constraints() {
        let ls = LabelSet::standard();
        let b_mal = ls.begin(EntityKind::Malware).unwrap();
        let i_mal = ls.inside(EntityKind::Malware).unwrap();
        let i_act = ls.inside(EntityKind::ThreatActor).unwrap();
        assert!(ls.may_follow(b_mal, i_mal));
        assert!(ls.may_follow(i_mal, i_mal));
        assert!(!ls.may_follow(LabelSet::O, i_mal));
        assert!(!ls.may_follow(b_mal, i_act));
        assert!(ls.may_follow(i_mal, LabelSet::O));
        assert!(ls.may_follow(LabelSet::O, b_mal));
        assert_eq!(ls.predecessors(i_mal), &[b_mal, i_mal]);
        assert_eq!(ls.predecessors(b_mal).len(), ls.len());
    }

    #[test]
    fn predecessor_lists_survive_serde() {
        let ls = LabelSet::standard();
        let json = serde_json::to_string(&ls).unwrap();
        let back: LabelSet = serde_json::from_str(&json).unwrap();
        for next in 0..ls.len() as LabelId {
            let expect: Vec<LabelId> = (0..ls.len() as LabelId)
                .filter(|&p| ls.may_follow(p, next))
                .collect();
            assert_eq!(back.predecessors(next), expect.as_slice());
        }
    }

    #[test]
    fn span_round_trip() {
        let ls = LabelSet::standard();
        let spans = vec![
            (EntityKind::ThreatActor, 0, 2),
            (EntityKind::Malware, 3, 4),
            (EntityKind::Technique, 5, 8),
        ];
        let labels = ls.encode_spans(9, &spans);
        assert_eq!(ls.decode_spans(&labels), spans);
    }

    #[test]
    fn adjacent_same_kind_spans_stay_separate() {
        let ls = LabelSet::standard();
        let spans = vec![(EntityKind::Malware, 0, 1), (EntityKind::Malware, 1, 2)];
        let labels = ls.encode_spans(2, &spans);
        // B-MAL B-MAL decodes back to two spans.
        assert_eq!(ls.decode_spans(&labels), spans);
    }

    #[test]
    fn dangling_inside_opens_span() {
        let ls = LabelSet::standard();
        let i_mal = ls.inside(EntityKind::Malware).unwrap();
        let spans = ls.decode_spans(&[LabelSet::O, i_mal, i_mal]);
        assert_eq!(spans, vec![(EntityKind::Malware, 1, 3)]);
    }

    #[test]
    fn report_kinds_have_no_labels() {
        let ls = LabelSet::standard();
        assert!(ls.begin(EntityKind::MalwareReport).is_none());
    }
}
