//! Word embeddings: skip-gram with negative sampling (SGNS), after Mikolov
//! et al. — the embedding features the paper's CRF consumes.
//!
//! The trainer is deliberately small-scale: the corpus is the crawled report
//! text, vocabularies are tens of thousands of types at most, and the CRF
//! only needs coarse distributional signal (it discretises the vectors via
//! k-means, see [`crate::cluster`]). Determinism: all randomness flows from
//! one `u64` seed through a local xorshift generator, so training is
//! reproducible across runs and platforms.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Training hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbeddingConfig {
    /// Vector dimensionality.
    pub dims: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate (decays linearly to 10%).
    pub lr: f32,
    /// Minimum token count for vocabulary inclusion.
    pub min_count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        EmbeddingConfig {
            dims: 32,
            window: 4,
            negatives: 5,
            epochs: 3,
            lr: 0.05,
            min_count: 2,
            seed: 0x5ec0_41f9,
        }
    }
}

/// Trained word embeddings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embeddings {
    dims: usize,
    vocab: HashMap<String, usize>,
    words: Vec<String>,
    /// Row-major `words.len() × dims` input vectors.
    vectors: Vec<f32>,
}

/// Minimal xorshift64* RNG — deterministic, dependency-free, fast.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn sigmoid(x: f32) -> f32 {
    if x > 8.0 {
        1.0
    } else if x < -8.0 {
        0.0
    } else {
        1.0 / (1.0 + (-x).exp())
    }
}

impl Embeddings {
    /// Train SGNS on a corpus of sentences (each a slice of lowercase
    /// tokens).
    pub fn train<S: AsRef<str>>(sentences: &[Vec<S>], config: &EmbeddingConfig) -> Self {
        // 1. Vocabulary.
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for sent in sentences {
            for tok in sent {
                *counts.entry(tok.as_ref()).or_insert(0) += 1;
            }
        }
        let mut words: Vec<(&str, usize)> = counts
            .iter()
            .filter(|(_, &c)| c >= config.min_count)
            .map(|(&w, &c)| (w, c))
            .collect();
        // Deterministic order: by count desc, then lexicographic.
        words.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let vocab: HashMap<String, usize> = words
            .iter()
            .enumerate()
            .map(|(i, (w, _))| ((*w).to_owned(), i))
            .collect();
        let v = words.len();
        let dims = config.dims;

        // 2. Negative-sampling table (unigram^0.75).
        let mut neg_table = Vec::with_capacity(1 << 16);
        if v > 0 {
            let total: f64 = words.iter().map(|(_, c)| (*c as f64).powf(0.75)).sum();
            for (i, (_, c)) in words.iter().enumerate() {
                let share = ((*c as f64).powf(0.75) / total * (1 << 16) as f64).ceil() as usize;
                neg_table.extend(std::iter::repeat_n(i, share.max(1)));
            }
        }

        // 3. Init.
        let mut rng = XorShift::new(config.seed);
        let mut input = vec![0f32; v * dims];
        for x in &mut input {
            *x = (rng.next_f32() - 0.5) / dims as f32;
        }
        let mut output = vec![0f32; v * dims];

        // 4. Encode corpus as ids once.
        let encoded: Vec<Vec<usize>> = sentences
            .iter()
            .map(|s| {
                s.iter()
                    .filter_map(|t| vocab.get(t.as_ref()).copied())
                    .collect()
            })
            .collect();
        let total_tokens: usize = encoded.iter().map(Vec::len).sum();
        let total_steps = (total_tokens * config.epochs).max(1);
        let mut step = 0usize;

        // 5. SGD.
        let mut grad = vec![0f32; dims];
        for _epoch in 0..config.epochs {
            for sent in &encoded {
                for (pos, &center) in sent.iter().enumerate() {
                    let lr = config.lr * (1.0 - 0.9 * step as f32 / total_steps as f32).max(0.1);
                    step += 1;
                    let window = 1 + rng.below(config.window);
                    let lo = pos.saturating_sub(window);
                    let hi = (pos + window + 1).min(sent.len());
                    #[allow(clippy::needless_range_loop)]
                    for ctx_pos in lo..hi {
                        if ctx_pos == pos {
                            continue;
                        }
                        let context = sent[ctx_pos];
                        grad.iter_mut().for_each(|g| *g = 0.0);
                        let in_row = &input[center * dims..(center + 1) * dims].to_vec();
                        // Positive pair + negatives.
                        for k in 0..=config.negatives {
                            let (target, label) = if k == 0 {
                                (context, 1.0f32)
                            } else {
                                (neg_table[rng.below(neg_table.len())], 0.0f32)
                            };
                            if k > 0 && target == context {
                                continue;
                            }
                            let out_row = &mut output[target * dims..(target + 1) * dims];
                            let dot: f32 =
                                in_row.iter().zip(out_row.iter()).map(|(a, b)| a * b).sum();
                            let g = (label - sigmoid(dot)) * lr;
                            for d in 0..dims {
                                grad[d] += g * out_row[d];
                                out_row[d] += g * in_row[d];
                            }
                        }
                        let in_row = &mut input[center * dims..(center + 1) * dims];
                        for d in 0..dims {
                            in_row[d] += grad[d];
                        }
                    }
                }
            }
        }

        Embeddings {
            dims,
            vocab,
            words: words.into_iter().map(|(w, _)| w.to_owned()).collect(),
            vectors: input,
        }
    }

    /// Vector dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.words.len()
    }

    /// The vector for `word`, if in vocabulary.
    pub fn vector(&self, word: &str) -> Option<&[f32]> {
        self.vocab
            .get(word)
            .map(|&i| &self.vectors[i * self.dims..(i + 1) * self.dims])
    }

    /// The word list, most frequent first.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Raw vector matrix, row-major.
    pub fn matrix(&self) -> (&[f32], usize) {
        (&self.vectors, self.dims)
    }

    /// Cosine similarity between two in-vocabulary words.
    pub fn cosine(&self, a: &str, b: &str) -> Option<f32> {
        let va = self.vector(a)?;
        let vb = self.vector(b)?;
        Some(cosine(va, vb))
    }

    /// The `k` nearest vocabulary words to `word` by cosine similarity.
    pub fn nearest(&self, word: &str, k: usize) -> Vec<(String, f32)> {
        let Some(target) = self.vector(word) else {
            return Vec::new();
        };
        let target = target.to_vec();
        let mut scored: Vec<(usize, f32)> = (0..self.words.len())
            .filter(|&i| self.words[i] != word)
            .map(|i| {
                let row = &self.vectors[i * self.dims..(i + 1) * self.dims];
                (i, cosine(&target, row))
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
            .into_iter()
            .map(|(i, s)| (self.words[i].clone(), s))
            .collect()
    }
}

/// Cosine similarity between equal-length vectors (0 when either is zero).
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let dot: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
    let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy corpus where "wannacry"/"emotet" share contexts and
    /// "berlin"/"paris" share different contexts.
    fn toy_corpus() -> Vec<Vec<String>> {
        let mut sents = Vec::new();
        for _ in 0..60 {
            for mal in ["wannacry", "emotet", "notpetya"] {
                sents.push(
                    format!("the {mal} malware encrypted files on the host")
                        .split(' ')
                        .map(str::to_owned)
                        .collect(),
                );
            }
            for city in ["berlin", "paris", "tokyo"] {
                sents.push(
                    format!("analysts met in {city} to compare notes today")
                        .split(' ')
                        .map(str::to_owned)
                        .collect(),
                );
            }
        }
        sents
    }

    fn small_config() -> EmbeddingConfig {
        EmbeddingConfig {
            dims: 16,
            epochs: 4,
            ..EmbeddingConfig::default()
        }
    }

    #[test]
    fn training_separates_context_classes() {
        let emb = Embeddings::train(&toy_corpus(), &small_config());
        let within = emb.cosine("wannacry", "emotet").unwrap();
        let across = emb.cosine("wannacry", "berlin").unwrap();
        assert!(
            within > across,
            "within-class {within} should exceed cross-class {across}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let a = Embeddings::train(&toy_corpus(), &small_config());
        let b = Embeddings::train(&toy_corpus(), &small_config());
        assert_eq!(a.vector("wannacry"), b.vector("wannacry"));
    }

    #[test]
    fn min_count_filters_rare_words() {
        let mut corpus = toy_corpus();
        corpus.push(vec!["hapaxlegomenon".to_owned()]);
        let emb = Embeddings::train(&corpus, &small_config());
        assert!(emb.vector("hapaxlegomenon").is_none());
        assert!(emb.vector("malware").is_some());
    }

    #[test]
    fn nearest_returns_k_sorted() {
        let emb = Embeddings::train(&toy_corpus(), &small_config());
        let near = emb.nearest("wannacry", 3);
        assert_eq!(near.len(), 3);
        assert!(near[0].1 >= near[1].1 && near[1].1 >= near[2].1);
    }

    #[test]
    fn empty_corpus_is_fine() {
        let emb = Embeddings::train(&Vec::<Vec<String>>::new(), &small_config());
        assert_eq!(emb.vocab_size(), 0);
        assert!(emb.vector("x").is_none());
        assert!(emb.nearest("x", 5).is_empty());
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }
}
