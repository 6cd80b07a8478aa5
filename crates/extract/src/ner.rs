//! The full NER pipeline and the regex/gazetteer baseline.
//!
//! [`NerPipeline`] = IOC protection + tokenization + CRF decoding, producing
//! [`kg_ir::EntityMention`]s with byte offsets into the original text. The
//! paper's claim that the CRF "can outperform a naive entity recognition
//! solution that relies on regex rules, and generalize to entities that are
//! not in the training set" is tested by comparing it against
//! [`RegexNerBaseline`] (IOC scanner + exact gazetteer matching, no
//! generalisation) in experiment E3.

use crate::crf::Crf;
use crate::features::{Featurizer, Gazetteer};
use crate::relation::{extract_relations, EntitySpan, ExtractedRelation};
use kg_ir::{EntityMention, MentionOrigin};
use kg_nlp::{analyze, AnalyzedSentence, IocMatcher, PosTagger, TokenKind};
use kg_ontology::{EntityKind, Ontology};

/// Per-sentence extraction output.
#[derive(Debug, Clone)]
pub struct SentenceExtraction {
    pub sentence: AnalyzedSentence,
    pub spans: Vec<EntitySpan>,
    pub relations: Vec<ExtractedRelation>,
}

/// The CRF-based NER + relation pipeline.
pub struct NerPipeline {
    pub matcher: IocMatcher,
    pub tagger: PosTagger,
    pub featurizer: Featurizer,
    pub crf: Crf,
    pub ontology: Ontology,
    /// Spans whose minimum token marginal falls below this are dropped
    /// (0.0 keeps everything; the paper's config file exposes "threshold
    /// values for entity recognition" — this is that knob). Forward–backward
    /// runs only when the threshold is above 0 (or NaN); otherwise decode is
    /// Viterbi alone.
    pub min_confidence: f64,
}

impl NerPipeline {
    /// Assemble a pipeline from a trained CRF and its featurizer.
    pub fn new(crf: Crf, featurizer: Featurizer) -> Self {
        NerPipeline {
            matcher: IocMatcher::standard(),
            tagger: PosTagger::standard(),
            featurizer,
            crf,
            ontology: Ontology::standard(),
            min_confidence: 0.0,
        }
    }

    /// Run NER + relation extraction over a whole text.
    pub fn extract(&self, text: &str) -> Vec<SentenceExtraction> {
        analyze(text, &self.matcher, &self.tagger)
            .into_iter()
            .map(|sentence| {
                let feats = self
                    .featurizer
                    .features_lookup(&sentence, self.crf.feature_map());
                // Marginals lie in [0, 1], so a threshold at or below 0 keeps
                // every span and plain Viterbi suffices. A NaN threshold still
                // takes the filter, which then drops every span.
                let gated = self.min_confidence > 0.0 || self.min_confidence.is_nan();
                let (ids, marginals) = if gated {
                    self.crf.decode_with_marginals(&feats)
                } else {
                    (self.crf.decode_features(&feats), Vec::new())
                };
                let mut spans: Vec<EntitySpan> = self
                    .crf
                    .labels()
                    .decode_spans(&ids)
                    .into_iter()
                    .filter(|&(_, start, end)| {
                        !gated
                            || marginals[start..end].iter().copied().fold(1.0f64, f64::min)
                                >= self.min_confidence
                    })
                    .map(|(kind, start, end)| EntitySpan { kind, start, end })
                    .collect();
                merge_ioc_spans(&sentence, &mut spans);
                let relations = extract_relations(&sentence, &spans, &self.ontology);
                SentenceExtraction {
                    sentence,
                    spans,
                    relations,
                }
            })
            .collect()
    }

    /// Flatten extraction output into [`EntityMention`]s with byte offsets.
    pub fn mentions(&self, text: &str) -> Vec<EntityMention> {
        self.extract(text)
            .into_iter()
            .flat_map(|se| sentence_mentions(&se))
            .collect()
    }
}

/// The IOC scanner is authoritative for protected tokens: if the model
/// missed one, add it; if the model mislabelled one, trust the scanner's
/// class. Leaves `spans` sorted by token range.
fn merge_ioc_spans(sentence: &AnalyzedSentence, spans: &mut Vec<EntitySpan>) {
    for (i, tok) in sentence.tokens.iter().enumerate() {
        if let TokenKind::Ioc(kind) = tok.kind {
            match spans.iter_mut().find(|s| i >= s.start && i < s.end) {
                Some(s) => {
                    if s.start == i && s.end == i + 1 {
                        s.kind = kind;
                    }
                }
                None => spans.push(EntitySpan {
                    kind,
                    start: i,
                    end: i + 1,
                }),
            }
        }
    }
    spans.sort_by_key(|s| (s.start, s.end));
}

/// Convert one sentence's spans into byte-offset mentions.
pub fn sentence_mentions(se: &SentenceExtraction) -> Vec<EntityMention> {
    se.spans
        .iter()
        .map(|s| {
            let start = se.sentence.tokens[s.start].start;
            let end = se.sentence.tokens[s.end - 1].end;
            let text: String = se.sentence.tokens[s.start..s.end]
                .iter()
                .map(|t| t.text.as_str())
                .collect::<Vec<_>>()
                .join(" ");
            let origin = if s.kind.is_ioc() || s.kind == EntityKind::Vulnerability {
                MentionOrigin::Regex
            } else {
                MentionOrigin::Ner
            };
            EntityMention::new(s.kind, text, start, end).with_origin(origin)
        })
        .collect()
}

/// The naive baseline: IOC scanner + exact gazetteer lookup. No model, no
/// generalisation to unlisted names.
pub struct RegexNerBaseline {
    pub matcher: IocMatcher,
    pub tagger: PosTagger,
    gazetteers: Vec<(EntityKind, Gazetteer)>,
    pub ontology: Ontology,
}

impl RegexNerBaseline {
    /// Build from `(kind, names)` gazetteer lists.
    pub fn new(lists: Vec<(EntityKind, Vec<String>)>) -> Self {
        let gazetteers = lists
            .into_iter()
            .map(|(kind, names)| (kind, Gazetteer::new(kind.label(), names)))
            .collect();
        RegexNerBaseline {
            matcher: IocMatcher::standard(),
            tagger: PosTagger::standard(),
            gazetteers,
            ontology: Ontology::standard(),
        }
    }

    /// Run baseline NER + the same relation extractor.
    pub fn extract(&self, text: &str) -> Vec<SentenceExtraction> {
        analyze(text, &self.matcher, &self.tagger)
            .into_iter()
            .map(|sentence| {
                let lower: Vec<String> = sentence
                    .tokens
                    .iter()
                    .map(|t| t.text.to_lowercase())
                    .collect();
                let mut covered = vec![false; sentence.tokens.len()];
                let mut spans: Vec<EntitySpan> = Vec::new();
                for (kind, gaz) in &self.gazetteers {
                    let flags = gaz.match_tokens(&lower);
                    let mut i = 0;
                    while i < flags.len() {
                        if flags[i].1 && !covered[i] {
                            let start = i;
                            let mut end = i + 1;
                            while end < flags.len() && flags[end].0 && !flags[end].1 {
                                end += 1;
                            }
                            if !covered[start..end].iter().any(|&c| c) {
                                spans.push(EntitySpan {
                                    kind: *kind,
                                    start,
                                    end,
                                });
                                covered[start..end].iter_mut().for_each(|c| *c = true);
                            }
                            i = end;
                        } else {
                            i += 1;
                        }
                    }
                }
                for (i, tok) in sentence.tokens.iter().enumerate() {
                    if let TokenKind::Ioc(kind) = tok.kind {
                        if !covered[i] {
                            spans.push(EntitySpan {
                                kind,
                                start: i,
                                end: i + 1,
                            });
                            covered[i] = true;
                        }
                    }
                }
                spans.sort_by_key(|s| (s.start, s.end));
                let relations = extract_relations(&sentence, &spans, &self.ontology);
                SentenceExtraction {
                    sentence,
                    spans,
                    relations,
                }
            })
            .collect()
    }

    /// Flatten into byte-offset mentions.
    pub fn mentions(&self, text: &str) -> Vec<EntityMention> {
        self.extract(text)
            .into_iter()
            .flat_map(|se| sentence_mentions(&se))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crf::{Crf, CrfConfig, Example};
    use crate::features::{FeatureConfig, FeatureMap};
    use crate::label::LabelSet;

    fn trained_pipeline() -> NerPipeline {
        let labels = LabelSet::standard();
        let featurizer = Featurizer::new(FeatureConfig::default());
        let mut map = FeatureMap::default();
        let matcher = IocMatcher::standard();
        let tagger = PosTagger::standard();
        let mut examples = Vec::new();
        type Row = (&'static str, Vec<(EntityKind, usize, usize)>);
        let data: Vec<Row> = vec![
            (
                "the zarbot ransomware spread fast.",
                vec![(EntityKind::Malware, 1, 2)],
            ),
            (
                "the vexbot ransomware returned today.",
                vec![(EntityKind::Malware, 1, 2)],
            ),
            ("nothing suspicious happened yesterday.", vec![]),
        ];
        for (text, spans) in data {
            let sent = analyze(text, &matcher, &tagger).remove(0);
            let feats = featurizer.features_interned(&sent, &mut map);
            let gold = labels.encode_spans(sent.tokens.len(), &spans);
            examples.push(Example {
                features: feats,
                labels: gold,
            });
        }
        let crf = Crf::train(labels, map, &examples, &CrfConfig::default());
        NerPipeline::new(crf, featurizer)
    }

    #[test]
    fn pipeline_emits_byte_offset_mentions() {
        let p = trained_pipeline();
        let text = "the krobot ransomware dropped stage2.exe yesterday.";
        let mentions = p.mentions(text);
        let mal = mentions
            .iter()
            .find(|m| m.kind == EntityKind::Malware)
            .expect("malware");
        assert_eq!(&text[mal.start..mal.end], "krobot");
        let file = mentions
            .iter()
            .find(|m| m.kind == EntityKind::FileName)
            .expect("file");
        assert_eq!(&text[file.start..file.end], "stage2.exe");
        assert_eq!(file.origin, MentionOrigin::Regex);
    }

    #[test]
    fn ioc_scanner_overrides_missed_tokens() {
        let p = trained_pipeline();
        // The CRF never saw registry keys in training; the scanner supplies
        // the span anyway.
        let text = "persistence used HKLM\\Software\\Run\\Evil throughout.";
        let mentions = p.mentions(text);
        assert!(
            mentions.iter().any(|m| m.kind == EntityKind::RegistryKey),
            "{mentions:?}"
        );
    }

    #[test]
    fn baseline_finds_listed_but_not_unlisted() {
        let baseline =
            RegexNerBaseline::new(vec![(EntityKind::Malware, vec!["zarbot".to_owned()])]);
        let listed = baseline.mentions("the zarbot ransomware spread.");
        assert!(listed
            .iter()
            .any(|m| m.kind == EntityKind::Malware && m.text == "zarbot"));
        // Unlisted name with identical context: baseline misses it.
        let unlisted = baseline.mentions("the krobot ransomware spread.");
        assert!(
            !unlisted.iter().any(|m| m.kind == EntityKind::Malware),
            "{unlisted:?}"
        );
        // But the IOC scanner still fires.
        let ioc = baseline.mentions("it dropped stage2.exe here.");
        assert!(ioc.iter().any(|m| m.kind == EntityKind::FileName));
    }

    #[test]
    fn marginals_are_probabilities_and_gate_spans() {
        let mut p = trained_pipeline();
        let text = "the zarbot ransomware spread fast.";
        let sentence = analyze(text, &p.matcher, &p.tagger).remove(0);
        let feats = p.featurizer.features_lookup(&sentence, p.crf.feature_map());
        let (path, marginals) = p.crf.decode_with_marginals(&feats);
        assert_eq!(path.len(), marginals.len());
        for &m in &marginals {
            assert!((0.0..=1.0).contains(&m), "{m}");
        }
        // A trained model is confident on its training pattern.
        let mal_pos = 1; // "zarbot"
        assert!(marginals[mal_pos] > 0.8, "{}", marginals[mal_pos]);
        // An impossible threshold suppresses every non-IOC span.
        p.min_confidence = 1.1;
        let out = p.extract(text);
        assert!(
            out[0].spans.iter().all(|s| s.kind.is_ioc()),
            "{:?}",
            out[0].spans
        );
    }

    /// Spans per sentence as `extract` computed them when every decode ran
    /// forward–backward and the filter always applied.
    fn always_gated_spans(p: &NerPipeline, text: &str) -> Vec<Vec<EntitySpan>> {
        analyze(text, &p.matcher, &p.tagger)
            .into_iter()
            .map(|sentence| {
                let feats = p.featurizer.features_lookup(&sentence, p.crf.feature_map());
                let (ids, marginals) = p.crf.decode_with_marginals(&feats);
                let mut spans: Vec<EntitySpan> = p
                    .crf
                    .labels()
                    .decode_spans(&ids)
                    .into_iter()
                    .filter(|&(_, start, end)| {
                        let confidence =
                            marginals[start..end].iter().copied().fold(1.0f64, f64::min);
                        confidence >= p.min_confidence
                    })
                    .map(|(kind, start, end)| EntitySpan { kind, start, end })
                    .collect();
                merge_ioc_spans(&sentence, &mut spans);
                spans
            })
            .collect()
    }

    #[test]
    fn threshold_filter_matches_always_gated_decode() {
        let mut p = trained_pipeline();
        let text = "the zarbot ransomware spread fast. the krobot ransomware dropped \
                    stage2.exe yesterday. nothing suspicious happened at 10.0.0.1 today. \
                    the vexbot group returned.";
        let mut dropped_somewhere = false;
        for threshold in [0.0, -0.0, -1.0, 0.5, 0.9, 0.999, 1.1, f64::NAN] {
            p.min_confidence = threshold;
            let got: Vec<Vec<EntitySpan>> =
                p.extract(text).into_iter().map(|se| se.spans).collect();
            assert_eq!(got, always_gated_spans(&p, text), "threshold {threshold}");
            p.min_confidence = 0.0;
            let all: usize = p.extract(text).iter().map(|se| se.spans.len()).sum();
            dropped_somewhere |= got.iter().map(Vec::len).sum::<usize>() < all;
        }
        assert!(dropped_somewhere, "some threshold must drop a span");
        // NaN keeps only scanner spans, as an impossible threshold does.
        p.min_confidence = f64::NAN;
        let out = p.extract(text);
        assert!(out.iter().flat_map(|se| &se.spans).all(|s| s.kind.is_ioc()));
    }

    #[test]
    fn pipeline_extracts_relations_end_to_end() {
        let p = trained_pipeline();
        let out = p.extract("the zarbot ransomware dropped stage2.exe quickly.");
        let rels: Vec<_> = out.iter().flat_map(|se| se.relations.clone()).collect();
        assert!(
            rels.iter()
                .any(|r| r.kind == kg_ontology::RelationKind::Drop),
            "{rels:?}"
        );
    }
}
