//! Averaged structured perceptron (Collins 2002) over the same features and
//! label space as the CRF — the training-objective ablation for E3.
//!
//! Each epoch Viterbi-decodes every sentence and applies `+1/-1` updates on
//! mismatching feature–label and transition pairs; final weights are the
//! average over all updates (implemented with the standard
//! timestamp-compensation trick, O(updates) rather than O(steps × weights)).

use crate::crf::{self, Example};
use crate::features::{FeatureMap, Featurizer};
use crate::label::{LabelId, LabelSet};
use kg_nlp::AnalyzedSentence;
use serde::{Deserialize, Serialize};

/// Perceptron training hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerceptronConfig {
    pub epochs: usize,
    pub seed: u64,
}

impl Default for PerceptronConfig {
    fn default() -> Self {
        PerceptronConfig {
            epochs: 8,
            seed: 0x9a7c,
        }
    }
}

/// A trained averaged structured perceptron tagger.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StructuredPerceptron {
    labels: LabelSet,
    features: FeatureMap,
    emit: Vec<f64>,
    trans: Vec<f64>,
}

/// Mutable training state for the averaging trick.
struct Averaged {
    w: Vec<f64>,
    acc: Vec<f64>,
    last: Vec<u64>,
}

impl Averaged {
    fn new(n: usize) -> Self {
        Averaged {
            w: vec![0.0; n],
            acc: vec![0.0; n],
            last: vec![0; n],
        }
    }

    fn update(&mut self, idx: usize, delta: f64, step: u64) {
        self.acc[idx] += self.w[idx] * (step - self.last[idx]) as f64;
        self.last[idx] = step;
        self.w[idx] += delta;
    }

    fn finalize(mut self, total_steps: u64) -> Vec<f64> {
        for i in 0..self.w.len() {
            self.acc[i] += self.w[i] * (total_steps - self.last[i]) as f64;
        }
        if total_steps == 0 {
            return self.w;
        }
        self.acc.iter().map(|a| a / total_steps as f64).collect()
    }
}

impl StructuredPerceptron {
    /// Train on examples.
    pub fn train(
        labels: LabelSet,
        map: FeatureMap,
        examples: &[Example],
        config: &PerceptronConfig,
    ) -> Self {
        let n = labels.len();
        let mut emit = Averaged::new(map.len() * n);
        let mut trans = Averaged::new(n * n);
        let mut step: u64 = 0;

        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut state = config.seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };

        for _ in 0..config.epochs {
            for i in (1..order.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            for &ei in &order {
                let ex = &examples[ei];
                if ex.features.is_empty() {
                    continue;
                }
                step += 1;
                let predicted = viterbi(&labels, &emit.w, &trans.w, &ex.features);
                if predicted == ex.labels {
                    continue;
                }
                for t in 0..ex.features.len() {
                    let (gold, pred) = (ex.labels[t] as usize, predicted[t] as usize);
                    if gold != pred {
                        for &f in &ex.features[t] {
                            let row = f as usize * n;
                            emit.update(row + gold, 1.0, step);
                            emit.update(row + pred, -1.0, step);
                        }
                    }
                    if t > 0 {
                        let (gp, pp) = (ex.labels[t - 1] as usize, predicted[t - 1] as usize);
                        if gp != pp || gold != pred {
                            trans.update(gp * n + gold, 1.0, step);
                            trans.update(pp * n + pred, -1.0, step);
                        }
                    }
                }
            }
        }

        StructuredPerceptron {
            labels,
            features: map,
            emit: emit.finalize(step),
            trans: trans.finalize(step),
        }
    }

    /// Decode a sentence into label ids.
    pub fn decode(&self, featurizer: &Featurizer, sentence: &AnalyzedSentence) -> Vec<LabelId> {
        let feats = featurizer.features_lookup(sentence, &self.features);
        viterbi(&self.labels, &self.emit, &self.trans, &feats)
    }

    /// The label set.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }
}

/// BIO-constrained Viterbi shared by trainer and decoder: the CRF's
/// scoring and Viterbi kernels over this model's weights.
fn viterbi(labels: &LabelSet, emit: &[f64], trans: &[f64], feats: &[Vec<u32>]) -> Vec<LabelId> {
    let mut scores = Vec::new();
    crf::emission_scores(emit, labels.len(), feats, &mut scores);
    crf::viterbi(labels, trans, &scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureConfig;
    use kg_nlp::{analyze, IocMatcher, PosTagger};
    use kg_ontology::EntityKind;

    fn toy() -> (LabelSet, FeatureMap, Vec<Example>, Featurizer) {
        let labels = LabelSet::standard();
        let featurizer = Featurizer::new(FeatureConfig::default());
        let mut map = FeatureMap::default();
        let matcher = IocMatcher::standard();
        let tagger = PosTagger::standard();
        let mut examples = Vec::new();
        type Row = (&'static str, Vec<(EntityKind, usize, usize)>);
        let data: Vec<Row> = vec![
            (
                "the zarbot family spread fast.",
                vec![(EntityKind::Malware, 1, 2)],
            ),
            (
                "the vexbot family returned today.",
                vec![(EntityKind::Malware, 1, 2)],
            ),
            (
                "analysts watched lazarus group closely.",
                vec![(EntityKind::ThreatActor, 2, 4)],
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
        (labels, map, examples, featurizer)
    }

    #[test]
    fn fits_and_generalises() {
        let (labels, map, examples, featurizer) = toy();
        let model =
            StructuredPerceptron::train(labels, map, &examples, &PerceptronConfig::default());
        let matcher = IocMatcher::standard();
        let tagger = PosTagger::standard();
        let sent = analyze("the krobot family spread fast.", &matcher, &tagger).remove(0);
        let spans = model
            .labels()
            .decode_spans(&model.decode(&featurizer, &sent));
        assert_eq!(spans, vec![(EntityKind::Malware, 1, 2)]);
    }

    #[test]
    fn averaging_smooths_but_stays_deterministic() {
        let (labels, map, examples, featurizer) = toy();
        let a = StructuredPerceptron::train(
            labels.clone(),
            map.clone(),
            &examples,
            &PerceptronConfig::default(),
        );
        let (l2, m2, e2, _) = toy();
        let b = StructuredPerceptron::train(l2, m2, &e2, &PerceptronConfig::default());
        let matcher = IocMatcher::standard();
        let tagger = PosTagger::standard();
        let sent = analyze("the zarbot family spread fast.", &matcher, &tagger).remove(0);
        assert_eq!(a.decode(&featurizer, &sent), b.decode(&featurizer, &sent));
    }

    #[test]
    fn empty_input() {
        let (labels, map, examples, _) = toy();
        let model =
            StructuredPerceptron::train(labels, map, &examples, &PerceptronConfig::default());
        let labels = LabelSet::standard();
        assert!(viterbi(&labels, &model.emit, &model.trans, &[]).is_empty());
    }
}
