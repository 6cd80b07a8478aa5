//! Linear-chain Conditional Random Field (Lafferty, McCallum, Pereira —
//! the paper's reference \[10\]).
//!
//! Score of a label sequence `y` for features `x`:
//! `Σ_t  W[x_t]·y_t  +  T[y_{t-1}, y_t]`.
//! Training maximises conditional log-likelihood by stochastic gradient
//! ascent with AdaGrad per-coordinate step sizes; the gradient's expected
//! feature counts come from forward–backward marginals. Forward–backward
//! runs in probability space with one normaliser per step, and hands its
//! messages on in log space. Decoding is Viterbi, hard-constrained to
//! well-formed BIO transitions.

use crate::features::{FeatureMap, Featurizer};
use crate::label::{LabelId, LabelSet};
use kg_nlp::AnalyzedSentence;
use serde::{Deserialize, Serialize};

/// CRF training hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrfConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Base learning rate (AdaGrad scales it per coordinate).
    pub lr: f64,
    /// L2 regularisation strength (applied as weight shrinkage per epoch).
    pub l2: f64,
    /// Shuffle seed for sentence order.
    pub seed: u64,
}

impl Default for CrfConfig {
    fn default() -> Self {
        CrfConfig {
            epochs: 8,
            lr: 0.25,
            l2: 1e-5,
            seed: 0x1234,
        }
    }
}

/// A trained linear-chain CRF.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Crf {
    labels: LabelSet,
    features: FeatureMap,
    /// Emission weights, row-major `n_features × n_labels`.
    emit: Vec<f64>,
    /// Transition weights, row-major `n_labels × n_labels`.
    trans: Vec<f64>,
    n_labels: usize,
}

/// One training example: interned features per token + gold labels.
#[derive(Debug, Clone)]
pub struct Example {
    pub features: Vec<Vec<u32>>,
    pub labels: Vec<LabelId>,
}

/// Reusable per-sentence buffers for the scoring kernels. Training keeps
/// one for the whole run, so after the longest sentence nothing is
/// reallocated; decode makes one per sentence.
#[derive(Default)]
struct Lattice {
    /// Emission scores, `t_len × n_labels`.
    scores: Vec<f64>,
    /// Forward log-messages `log α_t(l)`, `t_len × n_labels`. While
    /// forward–backward runs, the scaled messages `α̂_t(l)`.
    alpha: Vec<f64>,
    /// Backward log-messages `log β_t(l)`, `t_len × n_labels`. While
    /// forward–backward runs, the scaled messages `β̂_t(l)`.
    beta: Vec<f64>,
    /// One row of `n_labels` terms: the weighted backward message in
    /// forward–backward, a token's marginals in the gradient.
    buf: Vec<f64>,
    /// `exp(trans − max trans)`, `n_labels × n_labels` row-major, then its
    /// transpose: the transition factors of one sentence.
    exp_trans: Vec<f64>,
    /// `exp(scores − max of the token's row)`, `t_len × n_labels`.
    exp_scores: Vec<f64>,
    /// Per-step normaliser `c_t`: the sum of the unnormalised forward
    /// message at `t`, `t_len` entries.
    scale: Vec<f64>,
    /// `L_t`, the log of everything divided out of the forward messages
    /// through `t`, so `log α_t = ln α̂_t + L_t` and `log Z = L_{t_len−1}`;
    /// `t_len` entries.
    log_scale: Vec<f64>,
}

/// A log-probability whose `exp` is clearly below the 1e-8 gradient cut-off
/// (`ln 1e-8 ≈ -18.42`), so the update can be skipped without computing it.
const LOG_PROB_FLOOR: f64 = -18.5;

/// Emission scores `scores[t·n + l] = Σ_{f ∈ feats[t]} emit[f·n + l]`,
/// summed in feature order. The one scoring loop behind training, Viterbi
/// and forward–backward.
pub(crate) fn emission_scores(emit: &[f64], n: usize, feats: &[Vec<u32>], scores: &mut Vec<f64>) {
    scores.clear();
    scores.resize(feats.len() * n, 0.0);
    for (row_out, fs) in scores.chunks_exact_mut(n).zip(feats) {
        for &f in fs {
            let row = &emit[f as usize * n..][..n];
            for (s, &w) in row_out.iter_mut().zip(row) {
                *s += w;
            }
        }
    }
}

/// `out = Σ_i x[i] · rows[i]`, over the `out.len()`-wide rows of `rows`.
fn combine_rows(x: &[f64], rows: &[f64], out: &mut [f64]) {
    out.fill(0.0);
    for (&xi, row) in x.iter().zip(rows.chunks_exact(out.len())) {
        for (o, &r) in out.iter_mut().zip(row) {
            *o += xi * r;
        }
    }
}

/// Forward–backward over emission `scores` (`t_len ≥ 1` rows): fills
/// `alpha` and `beta` with log-messages and returns `log Z`.
///
/// The recursion runs in probability space with one normaliser per step
/// (Rabiner's scaling), so it needs no `exp` inside the `n²` loops. The
/// factors are exponentiated once, each shifted by its maximum so none
/// overflows: `E = exp(T − max T)` per sentence, `e_t = exp(s_t − max s_t)`
/// per token. The scaled messages are
///
/// - forward: `α̂_0 = e_0 / c_0` and `α̂_t = e_t ⊙ (α̂_{t−1} E) / c_t`, with
///   `c_t` making each row sum to one;
/// - backward: `β̂_{t_len−1} = 1` and `β̂_t = E (e_{t+1} ⊙ β̂_{t+1}) / c_{t+1}`,
///
/// so `α̂_t(l) · β̂_t(l)` is the marginal `P(y_t = l | x)`. With
/// `L_t = Σ_{s ≤ t} (ln c_s + max s_s) + t · max T`, the log-messages are
/// `log α_t = ln α̂_t + L_t` and `log β_t = ln β̂_t + log Z − L_t`, and
/// `log Z = L_{t_len−1}`. A message more than about `e^−745` below its
/// row's largest underflows to zero, a `-inf` log-message where the
/// log-space recursion gives a finite one of no weight.
fn forward_backward(trans: &[f64], n: usize, lattice: &mut Lattice) -> f64 {
    let Lattice {
        scores,
        alpha,
        beta,
        buf,
        exp_trans,
        exp_scores,
        scale,
        log_scale,
    } = lattice;
    let t_len = scores.len() / n;
    let trans_max = trans.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    exp_trans.clear();
    exp_trans.resize(2 * n * n, 0.0);
    let (e, e_t) = exp_trans.split_at_mut(n * n);
    for (p, row) in trans.chunks_exact(n).enumerate() {
        for (q, &w) in row.iter().enumerate() {
            let f = (w - trans_max).exp();
            e[p * n + q] = f;
            e_t[q * n + p] = f;
        }
    }
    exp_scores.clear();
    exp_scores.resize(t_len * n, 0.0);
    alpha.clear();
    alpha.resize(t_len * n, 0.0);
    beta.clear();
    beta.resize(t_len * n, 1.0);
    buf.clear();
    buf.resize(n, 0.0);
    scale.clear();
    log_scale.clear();

    let mut log_norm = 0.0;
    for t in 0..t_len {
        let s = &scores[t * n..][..n];
        let s_max = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let ex = &mut exp_scores[t * n..][..n];
        for (x, &v) in ex.iter_mut().zip(s) {
            *x = (v - s_max).exp();
        }
        let (done, rest) = alpha.split_at_mut(t * n);
        let cur = &mut rest[..n];
        if t == 0 {
            cur.copy_from_slice(ex);
        } else {
            combine_rows(&done[(t - 1) * n..], e, cur);
            for (a, &x) in cur.iter_mut().zip(ex.iter()) {
                *a *= x;
            }
            log_norm += trans_max;
        }
        let c: f64 = cur.iter().sum();
        for a in cur.iter_mut() {
            *a /= c;
        }
        log_norm += c.ln() + s_max;
        scale.push(c);
        log_scale.push(log_norm);
    }
    for t in (0..t_len - 1).rev() {
        let (cur, next) = beta.split_at_mut((t + 1) * n);
        for ((w, &b), &x) in buf
            .iter_mut()
            .zip(&next[..n])
            .zip(&exp_scores[(t + 1) * n..])
        {
            *w = x * b / scale[t + 1];
        }
        combine_rows(buf, e_t, &mut cur[t * n..]);
    }

    let log_z = log_norm;
    for ((a_row, b_row), &l_t) in alpha
        .chunks_exact_mut(n)
        .zip(beta.chunks_exact_mut(n))
        .zip(log_scale.iter())
    {
        for a in a_row {
            *a = a.ln() + l_t;
        }
        for b in b_row {
            *b = b.ln() + (log_z - l_t);
        }
    }
    log_z
}

/// BIO-constrained Viterbi over emission `scores` (`t_len × n` rows).
///
/// Only a label's allowed predecessors are scanned, in ascending order, and
/// a later predecessor wins only on a strictly greater score, so ties go to
/// the lowest id. At the last token the highest-id label wins a tie.
pub(crate) fn viterbi(labels: &LabelSet, trans: &[f64], scores: &[f64]) -> Vec<LabelId> {
    let n = labels.len();
    let t_len = scores.len() / n;
    if t_len == 0 {
        return Vec::new();
    }
    let mut delta = vec![f64::NEG_INFINITY; t_len * n];
    let mut back = vec![0 as LabelId; t_len * n];
    for l in 0..n {
        // At t=0 only non-inside labels are valid starts.
        if !labels.is_inside(l as LabelId) {
            delta[l] = scores[l];
        }
    }
    for t in 1..t_len {
        for l in 0..n {
            let mut best = f64::NEG_INFINITY;
            let mut arg: LabelId = 0;
            for &p in labels.predecessors(l as LabelId) {
                let v = delta[(t - 1) * n + p as usize] + trans[p as usize * n + l];
                if v > best {
                    best = v;
                    arg = p;
                }
            }
            delta[t * n + l] = best + scores[t * n + l];
            back[t * n + l] = arg;
        }
    }
    let mut last = (0..n)
        .max_by(|&a, &b| {
            delta[(t_len - 1) * n + a]
                .partial_cmp(&delta[(t_len - 1) * n + b])
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(0) as LabelId;
    let mut path = vec![0 as LabelId; t_len];
    for t in (0..t_len).rev() {
        path[t] = last;
        if t > 0 {
            last = back[t * n + last as usize];
        }
    }
    path
}

impl Crf {
    /// Train a CRF on examples produced by `featurizer` over `map`.
    ///
    /// `map` must contain every feature id referenced by `examples` (i.e. be
    /// the map used to intern them).
    pub fn train(
        labels: LabelSet,
        map: FeatureMap,
        examples: &[Example],
        config: &CrfConfig,
    ) -> Self {
        let n_labels = labels.len();
        let n_features = map.len();
        let mut emit = vec![0f64; n_features * n_labels];
        let mut trans = vec![0f64; n_labels * n_labels];
        let mut emit_g2 = vec![1e-8f64; n_features * n_labels];
        let mut trans_g2 = vec![1e-8f64; n_labels * n_labels];

        // Deterministic shuffle order via splitmix.
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut state = config.seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };

        let mut lattice = Lattice::default();
        for _epoch in 0..config.epochs {
            // Fisher–Yates with the deterministic stream.
            for i in (1..order.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            for &ei in &order {
                let ex = &examples[ei];
                if ex.features.is_empty() {
                    continue;
                }
                Self::sgd_step(
                    ex,
                    n_labels,
                    &mut emit,
                    &mut trans,
                    &mut emit_g2,
                    &mut trans_g2,
                    config.lr,
                    &mut lattice,
                );
            }
            if config.l2 > 0.0 {
                let shrink = 1.0 - config.l2;
                emit.iter_mut().for_each(|w| *w *= shrink);
                trans.iter_mut().for_each(|w| *w *= shrink);
            }
        }

        Crf {
            labels,
            features: map,
            emit,
            trans,
            n_labels,
        }
    }

    /// One AdaGrad step on one sentence.
    #[allow(clippy::too_many_arguments)]
    fn sgd_step(
        ex: &Example,
        n_labels: usize,
        emit: &mut [f64],
        trans: &mut [f64],
        emit_g2: &mut [f64],
        trans_g2: &mut [f64],
        lr: f64,
        lattice: &mut Lattice,
    ) {
        let t_len = ex.features.len();
        emission_scores(emit, n_labels, &ex.features, &mut lattice.scores);
        let log_z = forward_backward(trans, n_labels, lattice);
        let Lattice {
            scores,
            alpha,
            beta,
            buf: marginal,
            ..
        } = lattice;

        // Gradient = observed − expected; apply AdaGrad immediately.
        let upd_emit = |idx: usize, g: f64, emit: &mut [f64], g2: &mut [f64]| {
            g2[idx] += g * g;
            emit[idx] += lr * g / g2[idx].sqrt();
        };
        for t in 0..t_len {
            let gold = ex.labels[t] as usize;
            // Token marginals; the emission updates below cannot change them.
            for (l, p) in marginal.iter_mut().enumerate() {
                *p = (alpha[t * n_labels + l] + beta[t * n_labels + l] - log_z).exp();
            }
            for &f in &ex.features[t] {
                let row = f as usize * n_labels;
                // Observed.
                upd_emit(row + gold, 1.0, emit, emit_g2);
                // Expected.
                for (l, &p) in marginal.iter().enumerate() {
                    if p > 1e-8 {
                        upd_emit(row + l, -p, emit, emit_g2);
                    }
                }
            }
        }
        for t in 1..t_len {
            let gp = ex.labels[t - 1] as usize;
            let gc = ex.labels[t] as usize;
            let idx = gp * n_labels + gc;
            trans_g2[idx] += 1.0;
            trans[idx] += lr / trans_g2[idx].sqrt();
            for p in 0..n_labels {
                for q in 0..n_labels {
                    let lp = alpha[(t - 1) * n_labels + p]
                        + trans[p * n_labels + q]
                        + scores[t * n_labels + q]
                        + beta[t * n_labels + q]
                        - log_z;
                    // Below this, `exp` is under 1e-8 and the update is skipped
                    // anyway; most pairs are, so this saves most of the `exp`s.
                    if lp < LOG_PROB_FLOOR {
                        continue;
                    }
                    let prob = lp.exp();
                    if prob > 1e-8 {
                        let idx = p * n_labels + q;
                        trans_g2[idx] += prob * prob;
                        trans[idx] -= lr * prob / trans_g2[idx].sqrt();
                    }
                }
            }
        }
    }

    /// Viterbi-decode a sentence into label ids, enforcing BIO validity.
    pub fn decode(&self, featurizer: &Featurizer, sentence: &AnalyzedSentence) -> Vec<LabelId> {
        let feats = featurizer.features_lookup(sentence, &self.features);
        self.decode_features(&feats)
    }

    /// Viterbi over pre-extracted feature ids.
    pub fn decode_features(&self, feats: &[Vec<u32>]) -> Vec<LabelId> {
        let mut scores = Vec::new();
        emission_scores(&self.emit, self.n_labels, feats, &mut scores);
        viterbi(&self.labels, &self.trans, &scores)
    }

    /// Viterbi decode plus per-token posterior marginals of the decoded
    /// labels, `P(y_t = ŷ_t | x)`, from forward–backward. The marginal is
    /// the calibrated confidence the NER layer attaches to each mention.
    /// The emission scores are computed once and shared by both passes.
    pub fn decode_with_marginals(&self, feats: &[Vec<u32>]) -> (Vec<LabelId>, Vec<f64>) {
        let n = self.n_labels;
        let mut lattice = Lattice::default();
        emission_scores(&self.emit, n, feats, &mut lattice.scores);
        let path = viterbi(&self.labels, &self.trans, &lattice.scores);
        if path.is_empty() {
            return (path, Vec::new());
        }
        let log_z = forward_backward(&self.trans, n, &mut lattice);
        let Lattice { alpha, beta, .. } = &lattice;
        let marginals = path
            .iter()
            .enumerate()
            .map(|(t, &l)| {
                (alpha[t * n + l as usize] + beta[t * n + l as usize] - log_z)
                    .exp()
                    .clamp(0.0, 1.0)
            })
            .collect();
        (path, marginals)
    }

    /// The label set this model predicts over.
    pub fn labels(&self) -> &LabelSet {
        &self.labels
    }

    /// The feature map the model was trained with.
    pub fn feature_map(&self) -> &FeatureMap {
        &self.features
    }

    /// Serialise the model to JSON bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>, serde_json::Error> {
        serde_json::to_vec(self)
    }

    /// Load a model from JSON bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, serde_json::Error> {
        serde_json::from_slice(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureConfig;
    use kg_nlp::{analyze, IocMatcher, PosTagger};
    use kg_ontology::EntityKind;

    /// Tiny supervised task: learn that words after "the" ending in "-bot"
    /// are malware, and that "X group" bigrams are actors.
    fn toy_training() -> (LabelSet, FeatureMap, Vec<Example>, Featurizer) {
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
                "the krobot family evolved again.",
                vec![(EntityKind::Malware, 1, 2)],
            ),
            (
                "analysts watched lazarus group closely.",
                vec![(EntityKind::ThreatActor, 2, 4)],
            ),
            (
                "analysts watched sandworm group closely.",
                vec![(EntityKind::ThreatActor, 2, 4)],
            ),
            ("nothing suspicious happened yesterday.", vec![]),
            ("the campaign continued without pause.", vec![]),
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
    fn learns_training_data() {
        let (labels, map, examples, featurizer) = toy_training();
        let crf = Crf::train(labels, map, &examples, &CrfConfig::default());
        let matcher = IocMatcher::standard();
        let tagger = PosTagger::standard();
        let sent = analyze("the zarbot family spread fast.", &matcher, &tagger).remove(0);
        let decoded = crf.decode(&featurizer, &sent);
        let spans = crf.labels().decode_spans(&decoded);
        assert_eq!(spans, vec![(EntityKind::Malware, 1, 2)]);
    }

    #[test]
    fn generalises_to_unseen_names_via_context_and_affixes() {
        let (labels, map, examples, featurizer) = toy_training();
        let crf = Crf::train(labels, map, &examples, &CrfConfig::default());
        let matcher = IocMatcher::standard();
        let tagger = PosTagger::standard();
        // "lumbot" never appears in training; suffix + context should carry.
        let sent = analyze("the lumbot family spread fast.", &matcher, &tagger).remove(0);
        let spans = crf.labels().decode_spans(&crf.decode(&featurizer, &sent));
        assert_eq!(spans, vec![(EntityKind::Malware, 1, 2)]);
    }

    #[test]
    fn empty_sentence_decodes_empty() {
        let (labels, map, examples, _featurizer) = toy_training();
        let crf = Crf::train(labels, map, &examples, &CrfConfig::default());
        assert!(crf.decode_features(&[]).is_empty());
    }

    #[test]
    fn decode_never_starts_with_inside_label() {
        let (labels, map, examples, featurizer) = toy_training();
        let crf = Crf::train(labels, map, &examples, &CrfConfig::default());
        let matcher = IocMatcher::standard();
        let tagger = PosTagger::standard();
        for text in ["group group group.", "zarbot.", "the the the."] {
            let sent = analyze(text, &matcher, &tagger).remove(0);
            let path = crf.decode(&featurizer, &sent);
            assert!(!crf.labels().is_inside(path[0]), "{text}: {path:?}");
            for w in path.windows(2) {
                assert!(crf.labels().may_follow(w[0], w[1]), "{text}: {path:?}");
            }
        }
    }

    #[test]
    fn training_is_deterministic() {
        let (labels, map, examples, featurizer) = toy_training();
        let a = Crf::train(labels, map, &examples, &CrfConfig::default());
        let (labels2, map2, examples2, _) = toy_training();
        let b = Crf::train(labels2, map2, &examples2, &CrfConfig::default());
        let matcher = IocMatcher::standard();
        let tagger = PosTagger::standard();
        let sent = analyze("the vexbot family returned today.", &matcher, &tagger).remove(0);
        assert_eq!(a.decode(&featurizer, &sent), b.decode(&featurizer, &sent));
        assert_eq!(a.to_bytes().unwrap(), b.to_bytes().unwrap());
    }

    /// Viterbi as it was written before predecessor lists: every label
    /// pair, filtered by `may_follow`, back-pointers as `usize`.
    fn brute_force_viterbi(crf: &Crf, feats: &[Vec<u32>]) -> Vec<LabelId> {
        let t_len = feats.len();
        if t_len == 0 {
            return Vec::new();
        }
        let n = crf.n_labels;
        let mut scores = vec![0f64; t_len * n];
        for (t, fs) in feats.iter().enumerate() {
            for &f in fs {
                let row = f as usize * n;
                for l in 0..n {
                    scores[t * n + l] += crf.emit[row + l];
                }
            }
        }
        let mut delta = vec![f64::NEG_INFINITY; t_len * n];
        let mut back = vec![0usize; t_len * n];
        for l in 0..n {
            if !crf.labels.is_inside(l as LabelId) {
                delta[l] = scores[l];
            }
        }
        for t in 1..t_len {
            for l in 0..n {
                let mut best = f64::NEG_INFINITY;
                let mut arg = 0usize;
                for p in 0..n {
                    if !crf.labels.may_follow(p as LabelId, l as LabelId) {
                        continue;
                    }
                    let v = delta[(t - 1) * n + p] + crf.trans[p * n + l];
                    if v > best {
                        best = v;
                        arg = p;
                    }
                }
                delta[t * n + l] = best + scores[t * n + l];
                back[t * n + l] = arg;
            }
        }
        let mut last = (0..n)
            .max_by(|&a, &b| {
                delta[(t_len - 1) * n + a]
                    .partial_cmp(&delta[(t_len - 1) * n + b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        let mut path = vec![0 as LabelId; t_len];
        for t in (0..t_len).rev() {
            path[t] = last as LabelId;
            if t > 0 {
                last = back[t * n + last];
            }
        }
        path
    }

    /// One sentence's interned features, token by token.
    type Sentence = Vec<Vec<u32>>;

    /// Deterministic splitmix64 stream for the randomised tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A model with weights drawn from {-1, 0, 1}, so equal path scores are
    /// common, plus random sentences over its features.
    fn random_model_and_sentences(seed: u64) -> (Crf, Vec<Sentence>) {
        let mut state = seed;
        let labels = LabelSet::standard();
        let n = labels.len();
        let n_features = 12;
        let mut weight = || (splitmix(&mut state) % 3) as f64 - 1.0;
        let emit = (0..n_features * n).map(|_| weight()).collect();
        let trans = (0..n * n).map(|_| weight()).collect();
        let crf = Crf {
            labels,
            features: FeatureMap::default(),
            emit,
            trans,
            n_labels: n,
        };
        let sentences = (0..40)
            .map(|_| {
                let t_len = (splitmix(&mut state) % 9) as usize;
                (0..t_len)
                    .map(|_| {
                        let k = (splitmix(&mut state) % 4) as usize;
                        (0..k)
                            .map(|_| (splitmix(&mut state) % n_features as u64) as u32)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        (crf, sentences)
    }

    fn logsumexp(xs: &[f64]) -> f64 {
        let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if m.is_infinite() {
            return m;
        }
        m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
    }

    /// Forward–backward as it was written before the scaled recursion:
    /// every message a `logsumexp` over log-space terms. Returns
    /// `(alpha, beta, log Z)` over emission `scores` (`t_len ≥ 1` rows).
    fn log_space_forward_backward(
        trans: &[f64],
        n: usize,
        scores: &[f64],
    ) -> (Vec<f64>, Vec<f64>, f64) {
        let t_len = scores.len() / n;
        let mut alpha = vec![f64::NEG_INFINITY; t_len * n];
        let mut beta = vec![0.0; t_len * n];
        let mut buf = vec![0.0; n];
        alpha[..n].copy_from_slice(&scores[..n]);
        for t in 1..t_len {
            for l in 0..n {
                for (p, slot) in buf.iter_mut().enumerate() {
                    *slot = alpha[(t - 1) * n + p] + trans[p * n + l];
                }
                alpha[t * n + l] = logsumexp(&buf) + scores[t * n + l];
            }
        }
        for t in (0..t_len - 1).rev() {
            for l in 0..n {
                for (q, slot) in buf.iter_mut().enumerate() {
                    *slot = trans[l * n + q] + scores[(t + 1) * n + q] + beta[(t + 1) * n + q];
                }
                beta[t * n + l] = logsumexp(&buf);
            }
        }
        let log_z = logsumexp(&alpha[(t_len - 1) * n..]);
        (alpha, beta, log_z)
    }

    /// `|got − want|` relative to `max(|want|, 1)`: log-messages near zero
    /// are compared absolutely.
    fn rel_err(got: f64, want: f64) -> f64 {
        (got - want).abs() / want.abs().max(1.0)
    }

    /// Runs the production forward–backward and the log-space reference on
    /// one sentence and checks `log Z` and every message cell to 1e-9
    /// relative. A cell whose reference log-probability (`alpha + beta −
    /// log Z`) is below −700 may underflow to `-inf` on the scaled side.
    /// Returns the reference marginals `P(y_t = l | x)`.
    fn assert_matches_log_space(crf: &Crf, feats: &[Vec<u32>], what: &str) -> Vec<f64> {
        let n = crf.n_labels;
        let mut lattice = Lattice::default();
        emission_scores(&crf.emit, n, feats, &mut lattice.scores);
        let log_z = forward_backward(&crf.trans, n, &mut lattice);
        let (alpha, beta, want_z) = log_space_forward_backward(&crf.trans, n, &lattice.scores);
        assert!(
            rel_err(log_z, want_z) <= 1e-9,
            "{what}: log Z {log_z} vs {want_z}"
        );
        for (i, (&a, &b)) in alpha.iter().zip(&beta).enumerate() {
            let negligible = a + b - want_z < -700.0;
            for (side, got, want) in [("alpha", lattice.alpha[i], a), ("beta", lattice.beta[i], b)]
            {
                if got == f64::NEG_INFINITY && negligible {
                    continue;
                }
                assert!(
                    rel_err(got, want) <= 1e-9,
                    "{what}: {side}[{i}] {got} vs {want}"
                );
            }
        }
        alpha
            .iter()
            .zip(&beta)
            .map(|(&a, &b)| (a + b - want_z).exp())
            .collect()
    }

    /// A model with weights uniform in [−30, 30] over 12 features, plus
    /// sentences of 200–299 tokens with up to five features each, so the
    /// unscaled messages would overflow and underflow many times over.
    fn wide_model_and_long_sentences(seed: u64) -> (Crf, Vec<Sentence>) {
        let mut state = seed;
        let labels = LabelSet::standard();
        let n = labels.len();
        let n_features = 12;
        let mut weight = || (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 60.0 - 30.0;
        let emit = (0..n_features * n).map(|_| weight()).collect();
        let trans = (0..n * n).map(|_| weight()).collect();
        let crf = Crf {
            labels,
            features: FeatureMap::default(),
            emit,
            trans,
            n_labels: n,
        };
        let sentences = (0..3)
            .map(|_| {
                let t_len = 200 + (splitmix(&mut state) % 100) as usize;
                (0..t_len)
                    .map(|_| {
                        let k = (splitmix(&mut state) % 6) as usize;
                        (0..k)
                            .map(|_| (splitmix(&mut state) % n_features as u64) as u32)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        (crf, sentences)
    }

    #[test]
    fn scaled_forward_backward_matches_log_space_reference() {
        let mut models: Vec<(String, Crf, Vec<Sentence>)> = Vec::new();
        for seed in 0..25 {
            let (crf, sentences) = random_model_and_sentences(seed);
            models.push((format!("ternary seed {seed}"), crf, sentences));
        }
        for seed in 0..4 {
            let (crf, sentences) = wide_model_and_long_sentences(seed);
            models.push((format!("wide seed {seed}"), crf, sentences));
        }
        let (labels, map, examples, _) = toy_training();
        let trained = Crf::train(labels, map, &examples, &CrfConfig::default());
        let toy = examples.into_iter().map(|ex| ex.features).collect();
        models.push(("trained".to_string(), trained, toy));

        let n = LabelSet::standard().len();
        for (name, crf, sentences) in &models {
            for (i, feats) in sentences.iter().enumerate().filter(|(_, f)| !f.is_empty()) {
                let what = format!("{name} sentence {i} ({} tokens)", feats.len());
                let reference = assert_matches_log_space(crf, feats, &what);
                let (path, marginals) = crf.decode_with_marginals(feats);
                for (t, (&l, &got)) in path.iter().zip(&marginals).enumerate() {
                    let want = reference[t * n + l as usize].clamp(0.0, 1.0);
                    assert!(
                        (got - want).abs() <= 1e-9,
                        "{what}: marginal at {t} {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn predecessor_viterbi_equals_brute_force_under_ties() {
        for seed in 0..25 {
            let (crf, sentences) = random_model_and_sentences(seed);
            for feats in &sentences {
                assert_eq!(
                    crf.decode_features(feats),
                    brute_force_viterbi(&crf, feats),
                    "seed {seed}: {feats:?}"
                );
            }
        }
    }

    #[test]
    fn decode_features_equals_marginal_decode_path() {
        for seed in 0..25 {
            let (crf, sentences) = random_model_and_sentences(seed);
            for feats in &sentences {
                assert_eq!(
                    crf.decode_features(feats),
                    crf.decode_with_marginals(feats).0,
                    "seed {seed}: {feats:?}"
                );
            }
        }
        let (labels, map, examples, _) = toy_training();
        let crf = Crf::train(labels, map, &examples, &CrfConfig::default());
        for ex in &examples {
            let (path, marginals) = crf.decode_with_marginals(&ex.features);
            assert_eq!(crf.decode_features(&ex.features), path);
            assert_eq!(brute_force_viterbi(&crf, &ex.features), path);
            assert_eq!(marginals.len(), path.len());
        }
    }

    #[test]
    fn serde_round_trip_preserves_decisions() {
        let (labels, map, examples, featurizer) = toy_training();
        let crf = Crf::train(labels, map, &examples, &CrfConfig::default());
        let bytes = crf.to_bytes().unwrap();
        let back = Crf::from_bytes(&bytes).unwrap();
        let matcher = IocMatcher::standard();
        let tagger = PosTagger::standard();
        let sent = analyze("the krobot family evolved again.", &matcher, &tagger).remove(0);
        assert_eq!(
            crf.decode(&featurizer, &sent),
            back.decode(&featurizer, &sent)
        );
    }
}
