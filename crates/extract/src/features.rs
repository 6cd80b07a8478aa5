//! Feature templates for the sequence models.
//!
//! The paper trains its CRF with "features such as word lemmas, pos tags, and
//! word embeddings". The featurizer emits, per token:
//!
//! - lexical: lowercase word, lemma, prefixes/suffixes, word shape;
//! - syntactic: POS tag, previous/next word and POS (window ±2);
//! - security: the IOC class of protected tokens;
//! - distributional: the k-means cluster id of the word's embedding
//!   (the discrete stand-in for raw embedding vectors);
//! - knowledge: gazetteer membership flags from the curated lists.
//!
//! Features are interned into dense `u32` ids by [`FeatureMap`]; unseen
//! features at decode time are ignored (standard for linear models).

use kg_nlp::{AnalyzedSentence, KMeans, TokenKind};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Which feature families to emit (ablation switches for E3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureConfig {
    pub lexical: bool,
    pub affixes: bool,
    pub shape: bool,
    pub pos: bool,
    pub lemma: bool,
    pub context: bool,
    pub ioc_class: bool,
    pub clusters: bool,
    pub gazetteers: bool,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            lexical: true,
            affixes: true,
            shape: true,
            pos: true,
            lemma: true,
            context: true,
            ioc_class: true,
            clusters: true,
            gazetteers: true,
        }
    }
}

/// A gazetteer: a named set of (possibly multi-word) entries, matched over
/// lowercase token windows.
///
/// Matching is hash-probed: each entry's word sequence is fingerprinted once
/// at build time, and `match_tokens` extends a rolling window fingerprint by
/// one precomputed word hash per step — so the inner window loop does no
/// heap allocation and no per-character string hashing. A fingerprint hit is
/// verified against the real entry set before it counts, so hash collisions
/// cannot produce false matches.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Gazetteer {
    pub name: String,
    /// Entries, each pre-split into lowercase words.
    entries: HashSet<Vec<String>>,
    max_len: usize,
    /// Fingerprints of `entries` (combined per-word FNV hashes). Rebuilt on
    /// demand after deserialisation, which skips this field.
    #[serde(skip)]
    entry_hashes: HashSet<u64>,
}

/// Fingerprint of one word sequence: order-sensitive combination of the
/// per-word FNV-1a hashes.
fn words_fingerprint<'a>(words: impl IntoIterator<Item = &'a String>) -> u64 {
    kg_ir::combine_hashes(words.into_iter().map(|w| kg_ir::fnv1a64(w.as_bytes())))
}

impl Gazetteer {
    /// Build from entry strings.
    pub fn new(name: &str, entries: impl IntoIterator<Item = String>) -> Self {
        let entries: HashSet<Vec<String>> = entries
            .into_iter()
            .map(|e| {
                e.to_lowercase()
                    .split_whitespace()
                    .map(str::to_owned)
                    .collect()
            })
            .filter(|v: &Vec<String>| !v.is_empty())
            .collect();
        let max_len = entries.iter().map(Vec::len).max().unwrap_or(0);
        let entry_hashes = entries.iter().map(words_fingerprint).collect();
        Gazetteer {
            name: name.to_owned(),
            entries,
            max_len,
            entry_hashes,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the gazetteer has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mark tokens covered by any entry: returns per-token `(covered,
    /// begins)` flags. The longest entry starting at each token wins, as
    /// before; only the probing strategy changed.
    pub fn match_tokens(&self, lower_words: &[String]) -> Vec<(bool, bool)> {
        let mut flags = vec![(false, false); lower_words.len()];
        if self.is_empty() {
            return flags;
        }
        if self.entry_hashes.len() != self.entries.len() {
            // Deserialized without fingerprints: direct set probes.
            return self.match_tokens_direct(lower_words, flags);
        }
        let word_hashes: Vec<u64> = lower_words
            .iter()
            .map(|w| kg_ir::fnv1a64(w.as_bytes()))
            .collect();
        for start in 0..lower_words.len() {
            let upper = self.max_len.min(lower_words.len() - start);
            // `fnv1a64(&[])` is the FNV offset basis, so extending it per
            // word hash reproduces `words_fingerprint` incrementally.
            let mut h = kg_ir::fnv1a64(&[]);
            let mut best = None;
            for len in 1..=upper {
                h = kg_ir::fnv1a64_extend(h, &word_hashes[start + len - 1].to_le_bytes());
                if self.entry_hashes.contains(&h)
                    && self.entries.contains(&lower_words[start..start + len])
                {
                    best = Some(len);
                }
            }
            if let Some(len) = best {
                flags[start].1 = true;
                for f in &mut flags[start..start + len] {
                    f.0 = true;
                }
            }
        }
        flags
    }

    /// Fallback matcher probing the entry set with borrowed windows.
    fn match_tokens_direct(
        &self,
        lower_words: &[String],
        mut flags: Vec<(bool, bool)>,
    ) -> Vec<(bool, bool)> {
        for start in 0..lower_words.len() {
            for len in (1..=self.max_len.min(lower_words.len() - start)).rev() {
                let window = &lower_words[start..start + len];
                if self.entries.contains(window) {
                    flags[start].1 = true;
                    for f in &mut flags[start..start + len] {
                        f.0 = true;
                    }
                    break;
                }
            }
        }
        flags
    }

    /// Rebuild the entry fingerprints (after deserialisation, which skips
    /// them). Matching works without this, just slower.
    pub fn rebuild_fingerprints(&mut self) {
        self.entry_hashes = self.entries.iter().map(words_fingerprint).collect();
    }
}

/// Interns feature strings to dense ids. Growable during training, frozen at
/// decode (lookups only).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FeatureMap {
    index: HashMap<String, u32>,
}

impl FeatureMap {
    /// Intern a feature, allocating an id if new.
    pub fn intern(&mut self, feature: &str) -> u32 {
        if let Some(&id) = self.index.get(feature) {
            return id;
        }
        let id = self.index.len() as u32;
        self.index.insert(feature.to_owned(), id);
        id
    }

    /// Look up without allocating.
    pub fn get(&self, feature: &str) -> Option<u32> {
        self.index.get(feature).copied()
    }

    /// Number of interned features.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no features are interned.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// The featurizer: config + optional cluster model + gazetteers.
#[derive(Debug, Clone, Default)]
pub struct Featurizer {
    pub config: FeatureConfig,
    pub clusters: Option<KMeans>,
    pub gazetteers: Vec<Gazetteer>,
}

impl Featurizer {
    /// A featurizer with the default config and no external resources.
    pub fn new(config: FeatureConfig) -> Self {
        Featurizer {
            config,
            clusters: None,
            gazetteers: Vec::new(),
        }
    }

    /// Generate every feature of a sentence, token by token, as
    /// `sink(position, feature)`. Each feature string is written into one
    /// reused buffer, so generation allocates nothing per feature. Training
    /// ([`Self::features_interned`]), decode ([`Self::features_lookup`]) and
    /// [`Self::features`] all go through here, so they cannot drift apart.
    pub(crate) fn emit(&self, sentence: &AnalyzedSentence, mut sink: impl FnMut(usize, &str)) {
        let n = sentence.tokens.len();
        let lower: Vec<String> = sentence
            .tokens
            .iter()
            .map(|t| t.text.to_lowercase())
            .collect();
        let gaz_flags: Vec<(&str, Vec<(bool, bool)>)> = if self.config.gazetteers {
            self.gazetteers
                .iter()
                .map(|g| (g.name.as_str(), g.match_tokens(&lower)))
                .collect()
        } else {
            Vec::new()
        };

        let mut buf = String::with_capacity(64);
        for i in 0..n {
            // Clear the buffer, format one feature of token `i` into it and
            // hand it to the sink. Writing into a `String` cannot fail.
            macro_rules! feature {
                ($($arg:tt)*) => {{
                    buf.clear();
                    let _ = write!(buf, $($arg)*);
                    sink(i, &buf);
                }};
            }
            let token = &sentence.tokens[i];
            let word = lower[i].as_str();
            sink(i, "bias");

            if self.config.lexical {
                feature!("w={word}");
            }
            if self.config.lemma {
                feature!("lem={}", sentence.lemmas[i]);
            }
            if self.config.pos {
                feature!("pos={}", sentence.tags[i].as_str());
            }
            if self.config.shape {
                buf.clear();
                buf.push_str("shape=");
                push_shape(&mut buf, &token.text);
                sink(i, &buf);
                if i == 0 {
                    sink(i, "bos");
                }
                if i + 1 == n {
                    sink(i, "eos");
                }
            }
            if self.config.affixes && token.kind == TokenKind::Word {
                for l in 2..=3 {
                    // Byte offsets of the first `l` and the last `l` chars;
                    // both exist exactly when the word has more than `l`.
                    let pre = word.char_indices().nth(l).map(|(b, _)| b);
                    let suf = word.char_indices().nth_back(l - 1).map(|(b, _)| b);
                    if let (Some(pre), Some(suf)) = (pre, suf) {
                        feature!("pre{l}={}", &word[..pre]);
                        feature!("suf{l}={}", &word[suf..]);
                    }
                }
            }
            if self.config.ioc_class {
                if let TokenKind::Ioc(kind) = token.kind {
                    feature!("ioc={}", kind.tag_stem());
                }
            }
            if self.config.context {
                for (name, j) in [
                    ("p1", i.checked_sub(1)),
                    ("p2", i.checked_sub(2)),
                    ("n1", (i + 1 < n).then_some(i + 1)),
                    ("n2", (i + 2 < n).then_some(i + 2)),
                ] {
                    match j {
                        Some(j) => {
                            feature!("{name}w={}", lower[j]);
                            feature!("{name}pos={}", sentence.tags[j].as_str());
                        }
                        None => feature!("{name}=∅"),
                    }
                }
            }
            if self.config.clusters {
                if let Some(km) = &self.clusters {
                    if let Some(c) = km.cluster_of(word) {
                        feature!("clu={c}");
                    }
                }
            }
            for (name, flags) in &gaz_flags {
                if flags[i].0 {
                    feature!("gaz={name}");
                    if flags[i].1 {
                        feature!("gazB={name}");
                    }
                }
            }
            // POS tag bigram (cheap syntax signal).
            if self.config.pos && i > 0 {
                feature!(
                    "posbi={}|{}",
                    sentence.tags[i - 1].as_str(),
                    sentence.tags[i].as_str()
                );
            }
        }
    }

    /// Feature strings for every position of a sentence.
    pub fn features(&self, sentence: &AnalyzedSentence) -> Vec<Vec<String>> {
        let mut out = vec![Vec::new(); sentence.tokens.len()];
        self.emit(sentence, |i, f| out[i].push(f.to_owned()));
        out
    }

    /// Emit and intern features; used during training.
    pub fn features_interned(
        &self,
        sentence: &AnalyzedSentence,
        map: &mut FeatureMap,
    ) -> Vec<Vec<u32>> {
        self.feature_ids(sentence, |f| Some(map.intern(f)))
    }

    /// Emit and look up features; used at decode time (unknown → dropped).
    pub fn features_lookup(&self, sentence: &AnalyzedSentence, map: &FeatureMap) -> Vec<Vec<u32>> {
        self.feature_ids(sentence, |f| map.get(f))
    }

    /// Per-token feature ids from `id`, each token's list allocated once at
    /// its exact length (training keeps them for the whole run).
    fn feature_ids(
        &self,
        sentence: &AnalyzedSentence,
        mut id: impl FnMut(&str) -> Option<u32>,
    ) -> Vec<Vec<u32>> {
        let n = sentence.tokens.len();
        let mut out = Vec::with_capacity(n);
        let mut row = Vec::new();
        self.emit(sentence, |i, f| {
            // Positions arrive in order: close the rows before `i`.
            while out.len() < i {
                out.push(row.clone());
                row.clear();
            }
            row.extend(id(f));
        });
        while out.len() < n {
            out.push(row.clone());
            row.clear();
        }
        out
    }
}

/// Word shape: letters → `x`/`X`, digits → `d`, runs collapsed.
/// "WannaCry" → "Xx", "CVE-2017-0144" → "X-d-d", "10.0.0.1" → "d.d.d.d".
pub fn shape(word: &str) -> String {
    let mut out = String::new();
    push_shape(&mut out, word);
    out
}

/// Append the [`shape`] of `word` to `out`.
fn push_shape(out: &mut String, word: &str) {
    let mut last = '\0';
    for c in word.chars() {
        let s = if c.is_ascii_digit() {
            'd'
        } else if c.is_uppercase() {
            'X'
        } else if c.is_alphabetic() {
            'x'
        } else {
            c
        };
        if s != last || !(s == 'x' || s == 'X' || s == 'd') {
            out.push(s);
            last = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_nlp::{analyze, IocMatcher, PosTagger};

    fn sentence(text: &str) -> AnalyzedSentence {
        analyze(text, &IocMatcher::standard(), &PosTagger::standard())
            .into_iter()
            .next()
            .unwrap()
    }

    #[test]
    fn shapes() {
        assert_eq!(shape("WannaCry"), "XxXx");
        assert_eq!(shape("CVE-2017-0144"), "X-d-d");
        assert_eq!(shape("10.0.0.1"), "d.d.d.d");
        assert_eq!(shape("emotet"), "x");
    }

    #[test]
    fn features_cover_families() {
        let f = Featurizer::new(FeatureConfig::default());
        let s = sentence("wannacry dropped tasksche.exe quickly.");
        let feats = f.features(&s);
        assert_eq!(feats.len(), s.tokens.len());
        let first = &feats[0];
        assert!(first.iter().any(|x| x == "w=wannacry"));
        assert!(first.iter().any(|x| x == "bos"));
        assert!(first.iter().any(|x| x.starts_with("suf3=")));
        // The IOC token carries its class feature.
        let ioc_pos = s.tokens.iter().position(|t| t.is_ioc()).unwrap();
        assert!(feats[ioc_pos].iter().any(|x| x == "ioc=FIL"));
    }

    #[test]
    fn ablation_switches_remove_families() {
        let cfg = FeatureConfig {
            context: false,
            affixes: false,
            ..FeatureConfig::default()
        };
        let f = Featurizer::new(cfg);
        let feats = f.features(&sentence("emotet spreads fast."));
        for fs in &feats {
            assert!(!fs.iter().any(|x| x.starts_with("p1w=")));
            assert!(!fs.iter().any(|x| x.starts_with("suf")));
        }
    }

    #[test]
    fn gazetteer_multiword_match() {
        let g = Gazetteer::new("actor", ["Lazarus Group".to_owned(), "turla".to_owned()]);
        let lower = ["the", "lazarus", "group", "struck"].map(str::to_owned);
        let flags = g.match_tokens(&lower);
        assert_eq!(flags[0], (false, false));
        assert_eq!(flags[1], (true, true));
        assert_eq!(flags[2], (true, false));
        assert_eq!(flags[3], (false, false));
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn gazetteer_hash_probe_matches_direct_probe() {
        let g = Gazetteer::new(
            "mixed",
            [
                "Lazarus Group".to_owned(),
                "lazarus group bd".to_owned(),
                "turla".to_owned(),
                "cozy bear".to_owned(),
            ],
        );
        // A deserialized gazetteer loses its fingerprints and takes the
        // direct-probe path; both paths must agree flag-for-flag (including
        // preferring the longest match at a start position).
        let json = serde_json::to_string(&g).unwrap();
        let stripped: Gazetteer = serde_json::from_str(&json).unwrap();
        let sentences: &[&[&str]] = &[
            &["the", "lazarus", "group", "bd", "struck"],
            &["lazarus", "group"],
            &["cozy", "bear", "and", "turla"],
            &["nothing", "here"],
            &[],
        ];
        for words in sentences {
            let lower: Vec<String> = words.iter().map(|w| (*w).to_owned()).collect();
            assert_eq!(
                g.match_tokens(&lower),
                stripped.match_tokens(&lower),
                "{words:?}"
            );
        }
        // Rebuilding fingerprints restores the fast path with equal results.
        let mut rebuilt = stripped.clone();
        rebuilt.rebuild_fingerprints();
        let lower: Vec<String> = ["lazarus", "group", "bd"].map(str::to_owned).into();
        assert_eq!(g.match_tokens(&lower), rebuilt.match_tokens(&lower));
    }

    #[test]
    fn feature_map_interns_stably() {
        let mut m = FeatureMap::default();
        let a = m.intern("w=x");
        let b = m.intern("w=y");
        assert_ne!(a, b);
        assert_eq!(m.intern("w=x"), a);
        assert_eq!(m.get("w=x"), Some(a));
        assert_eq!(m.get("w=z"), None);
        assert_eq!(m.len(), 2);
    }

    /// Every analysed sentence of a small generated corpus, and a featurizer
    /// with every family on, including gazetteers and embedding clusters.
    fn corpus_and_featurizer() -> (Vec<AnalyzedSentence>, Featurizer) {
        use kg_corpus::{standard_sources, SimulatedWeb, World, WorldConfig};
        use kg_nlp::{EmbeddingConfig, Embeddings, KMeans};
        let web = SimulatedWeb::new(
            World::generate(WorldConfig::tiny(3)),
            standard_sources(4),
            7,
        );
        let (matcher, tagger) = (IocMatcher::standard(), PosTagger::standard());
        let mut sentences = Vec::new();
        for source in web.sources() {
            for index in 0..source.article_count {
                if let Some(gold) = web.gold(&source.name, index) {
                    sentences.extend(analyze(&gold.text, &matcher, &tagger));
                }
            }
        }
        let tokens: Vec<Vec<String>> = sentences
            .iter()
            .map(|s| s.tokens.iter().map(|t| t.text.to_lowercase()).collect())
            .collect();
        let embeddings = Embeddings::train(
            &tokens,
            &EmbeddingConfig {
                epochs: 1,
                ..EmbeddingConfig::default()
            },
        );
        let lists = web.world().curated_lists(0.8, 1);
        let mut f = Featurizer::new(FeatureConfig::default());
        f.clusters = Some(KMeans::fit(&embeddings, 8, 5, 1));
        f.gazetteers = vec![
            Gazetteer::new("malware", lists.malware),
            Gazetteer::new("actor", lists.actors),
        ];
        (sentences, f)
    }

    #[test]
    fn lookup_and_interning_agree_with_feature_strings() {
        let (sentences, f) = corpus_and_featurizer();
        assert!(sentences.len() > 50, "{}", sentences.len());
        // Intern the even sentences only, so lookups on the odd ones miss.
        let mut map = FeatureMap::default();
        for s in sentences.iter().step_by(2) {
            let ids = f.features_interned(s, &mut map);
            let expect: Vec<Vec<u32>> = f
                .features(s)
                .iter()
                .map(|fs| fs.iter().map(|x| map.get(x).unwrap()).collect())
                .collect();
            assert_eq!(ids, expect);
        }
        let mut misses = 0;
        for s in &sentences {
            let strings = f.features(s);
            let expect: Vec<Vec<u32>> = strings
                .iter()
                .map(|fs| fs.iter().filter_map(|x| map.get(x)).collect())
                .collect();
            misses += strings
                .iter()
                .flatten()
                .filter(|x| map.get(x).is_none())
                .count();
            assert_eq!(f.features_lookup(s, &map), expect);
        }
        assert!(
            misses > 0,
            "the odd sentences must exercise unknown features"
        );
    }

    #[test]
    fn affixes_slice_whole_chars() {
        let f = Featurizer::new(FeatureConfig::default());
        let feats = f.features(&sentence("the émotèt ab abc spread."));
        let has = |i: usize, x: &str| feats[i].iter().any(|y| y == x);
        assert!(
            has(1, "pre2=ém") && has(1, "suf3=tèt") && has(1, "pre3=émo"),
            "{feats:?}"
        );
        // Two chars: no affixes; three chars: only the length-2 pair.
        assert!(!feats[2].iter().any(|y| y.starts_with("pre")));
        assert!(has(3, "pre2=ab") && has(3, "suf2=bc"));
        assert!(!feats[3].iter().any(|y| y.starts_with("pre3")));
    }

    #[test]
    fn gazetteer_features_appear() {
        let mut f = Featurizer::new(FeatureConfig::default());
        f.gazetteers
            .push(Gazetteer::new("mal", ["emotet".to_owned()]));
        let feats = f.features(&sentence("the emotet malware returned."));
        let pos = 1; // "emotet"
        assert!(feats[pos].iter().any(|x| x == "gaz=mal"));
        assert!(feats[pos].iter().any(|x| x == "gazB=mal"));
    }
}
