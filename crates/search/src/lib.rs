//! Full-text keyword search over the knowledge graph (paper §2.6: "the user
//! can search information using keywords (through Elasticsearch)").
//!
//! A BM25-ranked inverted index, replacing Elasticsearch per DESIGN.md. The
//! tokenizer is the IOC-protected tokenizer from `kg-nlp`, so indicator
//! strings ("tasksche.exe", "10.0.0.1") are single searchable terms exactly
//! as a CTI analyst expects.
//!
//! One scoring kernel serves the whole index ([`SearchIndex::search`], with
//! its own corpus statistics) and each partition of a sharded index
//! ([`SearchIndex::search_terms_with_stats`], with the merged statistics of
//! every partition), so partitioned scores are bit-identical to the
//! unpartitioned ones.

use kg_nlp::{tokenize_protected, IocMatcher};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

/// Term shards the index splits into for incremental persistence: a term
/// belongs to shard `fnv1a64(term) % PERSIST_SHARDS`, and a checkpoint
/// rewrites only shards whose postings changed.
pub const PERSIST_SHARDS: usize = 64;

/// Documents per persisted doc-table segment. Docs are append-only, so the
/// dirty doc segments are exactly those covering slots past the last
/// checkpoint's watermark.
pub const DOC_SEG: usize = 256;

/// One persisted term shard, as [`SearchIndex::shard_terms`] returns it:
/// sorted `(term, [(doc, tf), ...])` pairs.
pub type ShardTerms = Vec<(String, Vec<(u32, u32)>)>;

fn shard_of(term: &str) -> usize {
    (kg_ir::fnv1a64_pinned(term.as_bytes()) % PERSIST_SHARDS as u64) as usize
}

/// BM25 parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Bm25Params {
    pub k1: f64,
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// A scored hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit<D> {
    pub doc: D,
    pub score: f64,
}

/// One posting: document slot + term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Posting {
    doc: u32,
    tf: u32,
}

/// Global corpus statistics injected into per-partition BM25 scoring
/// (DFS-query-then-fetch): with the same document count, average length and
/// per-term document frequencies on every partition, a document scores
/// bit-identically to the unpartitioned index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CorpusStats {
    /// Total documents across all partitions.
    pub docs: u64,
    /// Total tokens across all partitions.
    pub total_tokens: u64,
    /// Document frequency of each *query* term (not the whole vocabulary),
    /// by the term's position in the query's term list.
    pub doc_freq: Vec<u64>,
}

/// The IOC matcher query tokenization uses, built once per process.
fn standard_matcher() -> &'static IocMatcher {
    static MATCHER: OnceLock<IocMatcher> = OnceLock::new();
    MATCHER.get_or_init(IocMatcher::standard)
}

/// An inverted index over documents identified by an arbitrary key type
/// (the knowledge graph uses node ids; the pipeline uses report ids).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchIndex<D> {
    params: Bm25Params,
    /// term → postings (document slots ascending). Each list is `Arc`'d so
    /// cloning the index for a serving snapshot bumps refcounts instead of
    /// deep-copying every posting; the writer's next append to a shared list
    /// copies just that list (`Arc::make_mut`). `Arc` serialises
    /// transparently, so the JSON shape is unchanged.
    postings: HashMap<String, Arc<Vec<Posting>>>,
    /// slot → (external doc key, token count).
    docs: Vec<(D, u32)>,
    /// Total tokens across all documents (the BM25 average-length term).
    total_tokens: u64,
    /// Term shards touched since the last [`SearchIndex::clear_persist_dirty`].
    /// Not serialised — an index that did not come through
    /// [`SearchIndex::from_persist_parts`] must be persisted in full once
    /// before incremental dirty tracking means anything.
    #[serde(skip)]
    dirty_shards: BTreeSet<usize>,
    /// Docs below this watermark are already persisted (docs are append-only).
    #[serde(skip)]
    clean_docs: usize,
}

impl<D: Clone + PartialEq> Default for SearchIndex<D> {
    fn default() -> Self {
        Self::new(Bm25Params::default())
    }
}

impl<D: Clone + PartialEq> SearchIndex<D> {
    /// An empty index.
    pub fn new(params: Bm25Params) -> Self {
        SearchIndex {
            params,
            postings: HashMap::new(),
            docs: Vec::new(),
            total_tokens: 0,
            dirty_shards: BTreeSet::new(),
            clean_docs: 0,
        }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Tokenize text into lowercase index terms (IOC-protected).
    pub fn terms(text: &str) -> Vec<String> {
        Self::terms_with(standard_matcher(), text)
    }

    /// [`SearchIndex::terms`] with a caller-supplied matcher, so hot loops
    /// (the pipeline's resolve workers) build the IOC matcher once instead
    /// of once per document.
    pub fn terms_with(matcher: &IocMatcher, text: &str) -> Vec<String> {
        tokenize_protected(text, matcher)
            .into_iter()
            .filter(|t| t.kind != kg_nlp::TokenKind::Punct)
            .map(|t| {
                // ASCII lowercases in place; anything else needs Unicode
                // case mapping, which may change the byte length.
                let mut text = t.text;
                if text.is_ascii() {
                    text.make_ascii_lowercase();
                    text
                } else {
                    text.to_lowercase()
                }
            })
            .collect()
    }

    /// Tokenize and aggregate into sorted `(term, frequency)` pairs plus the
    /// total token count — the precomputed shape [`SearchIndex::add_pretokenized`]
    /// ingests. Sorting makes downstream posting insertion order (and thus
    /// index layout) deterministic regardless of hash-map iteration order.
    pub fn term_counts_with(matcher: &IocMatcher, text: &str) -> (Vec<(String, u32)>, u32) {
        let terms = Self::terms_with(matcher, text);
        let token_len = terms.len() as u32;
        let mut counts: HashMap<String, u32> = HashMap::new();
        for term in terms {
            *counts.entry(term).or_insert(0) += 1;
        }
        let mut counts: Vec<(String, u32)> = counts.into_iter().collect();
        counts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        (counts, token_len)
    }

    /// The slot of the document indexed under `key` — the *newest* slot
    /// when the key was re-added. This is the lookup re-indexing flows use
    /// to find a document's current version.
    pub fn slot_of(&self, key: &D) -> Option<u32> {
        self.docs
            .iter()
            .rposition(|(k, _)| k == key)
            .map(|slot| slot as u32)
    }

    /// The external key indexed at `slot`.
    pub fn key_at(&self, slot: u32) -> Option<&D> {
        self.docs.get(slot as usize).map(|(k, _)| k)
    }

    /// Index one document. Re-adding the same key indexes a new version
    /// alongside the old one; prefer one `add` per key.
    pub fn add(&mut self, key: D, text: &str) {
        let (counts, token_len) = Self::term_counts_with(&IocMatcher::standard(), text);
        self.add_pretokenized(key, counts, token_len);
    }

    /// Bulk-ingest a document whose terms were tokenized and counted
    /// elsewhere (the pipeline's resolve workers): pure hash-map pushes, no
    /// tokenization under the writer. `counts` must hold each distinct term
    /// once; pass them sorted (as [`SearchIndex::term_counts_with`] returns
    /// them) for a deterministic index layout.
    pub fn add_pretokenized(&mut self, key: D, counts: Vec<(String, u32)>, token_len: u32) {
        let slot = self.docs.len() as u32;
        self.docs.push((key, token_len));
        self.total_tokens += token_len as u64;
        for (term, tf) in counts {
            self.dirty_shards.insert(shard_of(&term));
            Arc::make_mut(self.postings.entry(term).or_default()).push(Posting { doc: slot, tf });
        }
    }

    /// BM25 top-k search. Multi-term queries score documents matching any
    /// term (OR semantics, like a default Elasticsearch match query).
    pub fn search(&self, query: &str, k: usize) -> Vec<Hit<D>> {
        let terms = Self::terms(query);
        self.rank(
            &terms,
            k,
            self.docs.len() as u64,
            self.total_tokens,
            |postings, _| postings.len() as u64,
        )
    }

    /// The one BM25 kernel: score every document posting any of `terms`
    /// (accumulating in `terms` order, duplicates included) against a
    /// corpus of `docs` documents and `total_tokens` tokens, with each
    /// term's document frequency from `doc_freq(postings, position of the
    /// term in terms)`; top `k` by score descending, ties by ascending slot.
    fn rank(
        &self,
        terms: &[String],
        k: usize,
        docs: u64,
        total_tokens: u64,
        doc_freq: impl Fn(&[Posting], usize) -> u64,
    ) -> Vec<Hit<D>> {
        if self.docs.is_empty() || docs == 0 {
            return Vec::new();
        }
        let n = docs as f64;
        let avg_len = total_tokens as f64 / n;
        // Sized once for every posting the terms could add, so the score
        // table never regrows.
        let postings_total: usize = terms
            .iter()
            .filter_map(|term| self.postings.get(term))
            .map(|postings| postings.len())
            .sum();
        let mut scores: HashMap<u32, f64> = HashMap::with_capacity(postings_total);
        for (i, term) in terms.iter().enumerate() {
            let Some(postings) = self.postings.get(term) else {
                continue;
            };
            let df = doc_freq(postings, i) as f64;
            let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
            for p in postings.iter() {
                let doc_len = self.docs[p.doc as usize].1 as f64;
                let tf = p.tf as f64;
                let denom = tf
                    + self.params.k1
                        * (1.0 - self.params.b + self.params.b * doc_len / avg_len.max(1e-9));
                *scores.entry(p.doc).or_insert(0.0) += idf * (tf * (self.params.k1 + 1.0)) / denom;
            }
        }
        let mut hits: Vec<(u32, f64)> = scores.into_iter().collect();
        hits.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        hits.truncate(k);
        hits.into_iter()
            .map(|(slot, score)| Hit {
                doc: self.docs[slot as usize].0.clone(),
                score,
            })
            .collect()
    }

    // ---- sharded scatter-gather support ------------------------------------

    /// Add this index's contribution to [`CorpusStats`] for `terms` — local
    /// doc count, token total and per-term document frequencies — into
    /// `stats` (every field sums). Adding the contributions of disjoint
    /// partitions yields the global statistics; no term is copied.
    pub fn add_corpus_stats(&self, terms: &[String], stats: &mut CorpusStats) {
        stats.docs += self.docs.len() as u64;
        stats.total_tokens += self.total_tokens;
        stats.doc_freq.resize(terms.len(), 0);
        for (df, term) in stats.doc_freq.iter_mut().zip(terms) {
            *df += self.postings.get(term).map_or(0, |p| p.len() as u64);
        }
    }

    /// Route the documents appended at or past `watermark` into disjoint
    /// partitions keyed by `(global slot, key)`: document `d` goes to
    /// `parts[owner(&d.key)]`. New docs take their partition's next local
    /// slot in global slot order; each term's posting tail is then walked
    /// once and split by owner, so every partition ends up exactly as if
    /// each doc had been [`SearchIndex::add_pretokenized`] into it in slot
    /// order — same docs, `total_tokens`, slot-ascending postings and dirty
    /// shards — without rebuilding per-document term lists. Docs are
    /// append-only and postings slot-ascending, so each tail starts at a
    /// binary-searched cut.
    pub fn route_appended(
        &self,
        watermark: usize,
        mut owner: impl FnMut(&D) -> usize,
        parts: &mut [&mut SearchIndex<(u32, D)>],
    ) {
        if watermark >= self.docs.len() {
            return;
        }
        let fresh = &self.docs[watermark..];
        // (owner, local slot) of every new doc, assigned in global order.
        let mut routes: Vec<(usize, u32)> = Vec::with_capacity(fresh.len());
        for (i, (key, token_len)) in fresh.iter().enumerate() {
            let part = owner(key);
            let index = &mut *parts[part];
            routes.push((part, index.docs.len() as u32));
            index
                .docs
                .push((((watermark + i) as u32, key.clone()), *token_len));
            index.total_tokens += *token_len as u64;
        }
        // One reusable bucket per partition; each term's lists are copied
        // out at their exact length.
        let mut buckets: Vec<Vec<Posting>> = vec![Vec::new(); parts.len()];
        for (term, postings) in &self.postings {
            let start = postings.partition_point(|p| (p.doc as usize) < watermark);
            if start == postings.len() {
                continue;
            }
            for p in &postings[start..] {
                let (part, local) = routes[p.doc as usize - watermark];
                buckets[part].push(Posting {
                    doc: local,
                    tf: p.tf,
                });
            }
            for (index, bucket) in parts.iter_mut().zip(&mut buckets) {
                if bucket.is_empty() {
                    continue;
                }
                index.dirty_shards.insert(shard_of(term));
                let list = Arc::make_mut(index.postings.entry(term.clone()).or_default());
                list.reserve_exact(bucket.len());
                list.extend_from_slice(bucket);
                bucket.clear();
            }
        }
    }

    /// BM25 top-k over *pre-tokenized* query terms with externally supplied
    /// global statistics — the [`SearchIndex::search`] kernel with the
    /// corpus size, token total and document frequencies swapped for
    /// `stats`, so a partition scoring with the merged stats of all
    /// partitions reproduces the unpartitioned scores bit for bit. Ties
    /// break by ascending slot, which for an append-ordered partition is
    /// ascending global slot.
    pub fn search_terms_with_stats(
        &self,
        terms: &[String],
        k: usize,
        stats: &CorpusStats,
    ) -> Vec<Hit<D>> {
        self.rank(terms, k, stats.docs, stats.total_tokens, |_, i| {
            stats.doc_freq.get(i).copied().unwrap_or(0)
        })
    }

    // ---- shard persistence (kg-persist) -----------------------------------

    /// The BM25 parameters (persisted in checkpoint metadata).
    pub fn persist_params(&self) -> Bm25Params {
        self.params
    }

    /// Number of persisted doc-table segments ([`DOC_SEG`] docs each).
    pub fn doc_segment_count(&self) -> usize {
        self.docs.len().div_ceil(DOC_SEG)
    }

    /// One doc-table segment as raw `(key, token_len)` slots — what
    /// `kg-codec` packs into a `KGBIN001` binary payload.
    pub fn doc_segment_slots(&self, index: usize) -> Option<&[(D, u32)]> {
        let a = index.checked_mul(DOC_SEG)?;
        if a >= self.docs.len() {
            return None;
        }
        let b = (a + DOC_SEG).min(self.docs.len());
        Some(&self.docs[a..b])
    }

    /// One term shard as sorted owned `(term, [(doc, tf), ...])` rows.
    /// Empty shards come back as `[]` — a full checkpoint writes all
    /// [`PERSIST_SHARDS`] shards so the carried set is always complete.
    pub fn shard_terms(&self, shard: usize) -> ShardTerms {
        let mut terms: ShardTerms = self
            .postings
            .iter()
            .filter(|(term, _)| shard_of(term) == shard)
            .map(|(term, postings)| {
                (
                    term.clone(),
                    postings.iter().map(|p| (p.doc, p.tf)).collect(),
                )
            })
            .collect();
        terms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        terms
    }

    /// Term shards touched since the last [`SearchIndex::clear_persist_dirty`].
    pub fn dirty_persist_shards(&self) -> Vec<usize> {
        self.dirty_shards.iter().copied().collect()
    }

    /// Doc-table segments holding docs added since the last
    /// [`SearchIndex::clear_persist_dirty`] (docs are append-only, so that
    /// is every segment covering a slot at or past the watermark).
    pub fn dirty_doc_segments(&self) -> Vec<usize> {
        if self.clean_docs >= self.docs.len() {
            return Vec::new();
        }
        (self.clean_docs / DOC_SEG..self.doc_segment_count()).collect()
    }

    /// Forget persist dirtiness. Call only once a checkpoint containing the
    /// dirty shards/segments is durably committed.
    pub fn clear_persist_dirty(&mut self) {
        self.dirty_shards.clear();
        self.clean_docs = self.docs.len();
    }

    /// Reassemble an index from persisted parts (the inverse of reading
    /// every [`SearchIndex::doc_segment_slots`] and all [`PERSIST_SHARDS`]
    /// [`SearchIndex::shard_terms`]).
    /// Validates shard assignment and posting bounds; the result is clean —
    /// it matches what is on disk.
    pub fn from_persist_parts(
        params: Bm25Params,
        doc_parts: Vec<Vec<(D, u32)>>,
        shard_parts: Vec<ShardTerms>,
    ) -> Result<Self, String> {
        if shard_parts.len() != PERSIST_SHARDS {
            return Err(format!(
                "{} shards on disk, want {PERSIST_SHARDS}",
                shard_parts.len()
            ));
        }
        let mut docs: Vec<(D, u32)> = Vec::new();
        let seg_count = doc_parts.len();
        for (i, part) in doc_parts.into_iter().enumerate() {
            if part.is_empty() || part.len() > DOC_SEG {
                return Err(format!(
                    "doc segment {i}: {} slots out of range 1..={DOC_SEG}",
                    part.len()
                ));
            }
            if i + 1 != seg_count && part.len() != DOC_SEG {
                return Err(format!(
                    "doc segment {i}: {} slots, every segment but the last must hold {DOC_SEG}",
                    part.len()
                ));
            }
            docs.extend(part);
        }
        let total_tokens: u64 = docs.iter().map(|(_, len)| *len as u64).sum();
        let mut postings: HashMap<String, Arc<Vec<Posting>>> = HashMap::new();
        for (shard, part) in shard_parts.into_iter().enumerate() {
            for (term, list) in part {
                if shard_of(&term) != shard {
                    return Err(format!("term {term:?} stored in wrong shard {shard}"));
                }
                let mut converted = Vec::with_capacity(list.len());
                let mut prev: Option<u32> = None;
                for (doc, tf) in list {
                    if doc as usize >= docs.len() {
                        return Err(format!(
                            "term {term:?}: posting references doc {doc} of {}",
                            docs.len()
                        ));
                    }
                    if prev.is_some_and(|p| p >= doc) {
                        return Err(format!("term {term:?}: postings not ascending"));
                    }
                    prev = Some(doc);
                    converted.push(Posting { doc, tf });
                }
                if postings.insert(term.clone(), Arc::new(converted)).is_some() {
                    return Err(format!("term {term:?} appears twice"));
                }
            }
        }
        let clean_docs = docs.len();
        Ok(SearchIndex {
            params,
            postings,
            docs,
            total_tokens,
            dirty_shards: BTreeSet::new(),
            clean_docs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> SearchIndex<u32> {
        let mut idx = SearchIndex::default();
        idx.add(
            1,
            "wannacry ransomware encrypts files and drops tasksche.exe",
        );
        idx.add(
            2,
            "emotet banking trojan spreads via phishing email campaigns",
        );
        idx.add(
            3,
            "analysis of wannacry kill switch domain and smb exploitation",
        );
        idx.add(4, "cozyduke threat actor targets government networks");
        idx
    }

    #[test]
    fn keyword_search_ranks_matching_docs() {
        let idx = index();
        let hits = idx.search("wannacry", 10);
        assert_eq!(hits.len(), 2);
        let docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        assert!(docs.contains(&1) && docs.contains(&3));
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn ioc_terms_are_single_tokens() {
        let idx = index();
        let hits = idx.search("tasksche.exe", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 1);
        // The fragment "tasksche" alone also misses (the IOC is one term).
        assert!(idx.search("exe", 10).is_empty());
    }

    #[test]
    fn multi_term_or_semantics_prefers_doc_matching_both() {
        let idx = index();
        let hits = idx.search("wannacry smb", 10);
        assert_eq!(hits[0].doc, 3, "{hits:?}");
    }

    #[test]
    fn rare_terms_outweigh_common_ones() {
        let mut idx = SearchIndex::default();
        for i in 0..20u32 {
            idx.add(i, "malware report about campaigns");
        }
        idx.add(100, "malware report mentioning quuxbot");
        let hits = idx.search("quuxbot malware", 3);
        assert_eq!(hits[0].doc, 100);
    }

    #[test]
    fn case_insensitive() {
        let idx = index();
        assert_eq!(idx.search("WannaCry", 10).len(), 2);
        assert_eq!(idx.search("COZYDUKE", 10).len(), 1);
    }

    #[test]
    fn empty_and_missing_queries() {
        let idx = index();
        assert!(idx.search("zebra unicorn", 10).is_empty());
        assert!(idx.search("", 10).is_empty());
        let empty: SearchIndex<u32> = SearchIndex::default();
        assert!(empty.search("anything", 10).is_empty());
        assert!(empty.is_empty());
    }

    #[test]
    fn top_k_truncates() {
        let mut idx = SearchIndex::default();
        for i in 0..50u32 {
            idx.add(i, "repeated malware text");
        }
        assert_eq!(idx.search("malware", 5).len(), 5);
        assert_eq!(idx.len(), 50);
        assert!(idx.term_count() >= 3);
    }

    #[test]
    fn key_to_slot_lookup_resolves_latest_version() {
        let mut idx = index();
        assert_eq!(idx.slot_of(&1), Some(0));
        assert_eq!(idx.slot_of(&4), Some(3));
        assert_eq!(idx.slot_of(&99), None);
        assert_eq!(idx.key_at(0), Some(&1));
        assert_eq!(idx.key_at(100), None);
        // Re-adding a key indexes a new version; the lookup must resolve to
        // the newest slot (what a re-indexing flow needs).
        idx.add(1, "updated wannacry analysis with new kill switch details");
        assert_eq!(idx.slot_of(&1), Some(4));
        assert_eq!(idx.key_at(4), Some(&1));
        // Both versions remain searchable under the same external key.
        let hits = idx.search("wannacry", 10);
        assert!(hits.iter().filter(|h| h.doc == 1).count() >= 2);
    }

    #[test]
    fn pretokenized_add_matches_plain_add() {
        let text = "wannacry ransomware encrypts files and drops tasksche.exe wannacry";
        let mut plain: SearchIndex<u32> = SearchIndex::default();
        plain.add(1, text);
        let matcher = IocMatcher::standard();
        let (counts, token_len) = SearchIndex::<u32>::term_counts_with(&matcher, text);
        assert_eq!(counts.iter().find(|(t, _)| t == "wannacry").unwrap().1, 2);
        let mut bulk: SearchIndex<u32> = SearchIndex::default();
        bulk.add_pretokenized(1, counts, token_len);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&bulk).unwrap()
        );
        for q in ["wannacry", "tasksche.exe", "files"] {
            let a = plain.search(q, 5);
            let b = bulk.search(q, 5);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.doc, y.doc);
                assert!((x.score - y.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn shard_persistence_round_trips_and_tracks_dirt() {
        let mut idx = index();
        // Full dump: every shard (including empty ones) + every doc segment.
        let shards: Vec<ShardTerms> = (0..PERSIST_SHARDS)
            .map(|s| {
                serde_json::from_str(&serde_json::to_string(&idx.shard_terms(s)).unwrap()).unwrap()
            })
            .collect();
        let docs: Vec<Vec<(u32, u32)>> = (0..idx.doc_segment_count())
            .map(|i| {
                let slots = idx.doc_segment_slots(i).unwrap();
                serde_json::from_str(&serde_json::to_string(slots).unwrap()).unwrap()
            })
            .collect();
        let back =
            SearchIndex::<u32>::from_persist_parts(idx.persist_params(), docs, shards.clone())
                .unwrap();
        for q in ["wannacry", "tasksche.exe", "cozyduke"] {
            let a = idx.search(q, 10);
            let b = back.search(q, 10);
            assert_eq!(a.len(), b.len(), "{q}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.doc, y.doc);
                assert!((x.score - y.score).abs() < 1e-12);
            }
        }
        // A reassembled index is clean; new adds dirty only their shards.
        assert!(back.dirty_persist_shards().is_empty());
        assert!(back.dirty_doc_segments().is_empty());
        idx.clear_persist_dirty();
        idx.add(9, "quuxbot dropper");
        let dirty = idx.dirty_persist_shards();
        assert!(!dirty.is_empty() && dirty.len() <= 2, "{dirty:?}");
        assert_eq!(idx.dirty_doc_segments(), vec![0]);

        // Corrupt parts are clean errors, not panics.
        let mut wrong = shards.clone();
        let donor = wrong.iter().position(|s| !s.is_empty()).unwrap();
        let entry = wrong[donor].remove(0);
        let target = (donor + 1) % PERSIST_SHARDS;
        wrong[target].push(entry);
        assert!(
            SearchIndex::<u32>::from_persist_parts(Bm25Params::default(), vec![], wrong).is_err()
        );
        let mut short = shards;
        short.pop();
        assert!(
            SearchIndex::<u32>::from_persist_parts(Bm25Params::default(), vec![], short).is_err()
        );
    }

    #[test]
    fn stats_injected_search_matches_plain_search() {
        let idx = index();
        // Repeated query terms are double-counted by plain search; the
        // stats-injected path must reproduce that exactly.
        let query = "wannacry smb exploitation wannacry";
        let terms = SearchIndex::<u32>::terms(query);
        let mut stats = CorpusStats::default();
        idx.add_corpus_stats(&terms, &mut stats);
        let a = idx.search(query, 10);
        let b = idx.search_terms_with_stats(&terms, 10, &stats);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.doc, y.doc);
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{query}");
        }
    }

    #[test]
    fn partitioned_scoring_with_merged_stats_is_bit_identical() {
        let idx = index();
        let query = "wannacry ransomware government";
        let terms = SearchIndex::<u32>::terms(query);
        // Split docs across two partitions by parity of their key.
        let mut parts: Vec<SearchIndex<(u32, u32)>> =
            vec![SearchIndex::default(), SearchIndex::default()];
        idx.route_appended(0, |key| *key as usize % 2, &mut part_refs(&mut parts));
        let mut stats = CorpusStats::default();
        for p in &parts {
            p.add_corpus_stats(&terms, &mut stats);
        }
        let global = idx.search(query, 10);
        let mut merged: Vec<Hit<(u32, u32)>> = parts
            .iter()
            .flat_map(|p| p.search_terms_with_stats(&terms, 10, &stats))
            .collect();
        merged.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.doc.0.cmp(&b.doc.0))
        });
        assert_eq!(global.len(), merged.len());
        for (x, y) in global.iter().zip(&merged) {
            assert_eq!(x.doc, y.doc.1);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn routing_into_one_part_reproduces_the_layout() {
        let idx = index();
        let mut one: Vec<SearchIndex<(u32, u32)>> = vec![SearchIndex::default()];
        idx.route_appended(0, |_| 0, &mut part_refs(&mut one));
        let part = &one[0];
        let keyed: Vec<(u32, u32)> = idx
            .docs
            .iter()
            .map(|(k, _)| *k)
            .enumerate()
            .map(|(s, k)| (s as u32, k))
            .collect();
        assert_eq!(part.docs.iter().map(|(k, _)| *k).collect::<Vec<_>>(), keyed);
        assert_eq!(part.total_tokens, idx.total_tokens);
        assert_eq!(part.postings, idx.postings);
        // Past the end there is nothing to route.
        idx.route_appended(4, |_| 0, &mut part_refs(&mut one));
        idx.route_appended(100, |_| 0, &mut part_refs(&mut one));
        assert_eq!(one[0].len(), 4);
    }

    // ---- route_appended against the per-document reference --------------

    /// The routing `route_appended` replaced: rebuild every appended doc's
    /// sorted term counts from the postings tails, then re-index each doc
    /// into its owner with `add_pretokenized`, in slot order.
    fn reference_route<D: Clone + PartialEq>(
        source: &SearchIndex<D>,
        watermark: usize,
        mut owner: impl FnMut(&D) -> usize,
        parts: &mut [SearchIndex<(u32, D)>],
    ) {
        if watermark >= source.docs.len() {
            return;
        }
        let mut counts: Vec<Vec<(String, u32)>> = vec![Vec::new(); source.docs.len() - watermark];
        for (term, postings) in &source.postings {
            let start = postings.partition_point(|p| (p.doc as usize) < watermark);
            for p in &postings[start..] {
                counts[p.doc as usize - watermark].push((term.clone(), p.tf));
            }
        }
        for (i, mut c) in counts.into_iter().enumerate() {
            c.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let slot = watermark + i;
            let (key, token_len) = source.docs[slot].clone();
            let part = owner(&key);
            parts[part].add_pretokenized((slot as u32, key), c, token_len);
        }
    }

    fn part_refs<D>(parts: &mut [SearchIndex<D>]) -> Vec<&mut SearchIndex<D>> {
        parts.iter_mut().collect()
    }

    /// Structural equality of two indexes (capacity aside).
    fn assert_same_index(a: &SearchIndex<(u32, u32)>, b: &SearchIndex<(u32, u32)>, what: &str) {
        assert_eq!(a.docs, b.docs, "{what}: docs");
        assert_eq!(a.total_tokens, b.total_tokens, "{what}: total_tokens");
        assert_eq!(a.postings, b.postings, "{what}: postings");
        assert_eq!(a.dirty_shards, b.dirty_shards, "{what}: dirty_shards");
        assert_eq!(a.clean_docs, b.clean_docs, "{what}: clean_docs");
    }

    /// splitmix64 stream: the corpora below need no statistical quality.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n.max(1) as u64) as usize
        }
    }

    /// One pre-counted document: key, sorted term counts, token length.
    type CountedDoc = (u32, Vec<(String, u32)>, u32);

    /// A random corpus of pre-counted documents over a small vocabulary:
    /// empty docs, repeated keys and shared terms all occur.
    fn random_docs(rng: &mut Mix) -> Vec<CountedDoc> {
        let vocab = 4 + rng.below(40);
        (0..rng.below(90))
            .map(|_| {
                let key = rng.below(30) as u32;
                let mut terms: Vec<(String, u32)> = (0..rng.below(9))
                    .map(|_| (format!("t{}", rng.below(vocab)), 1 + rng.below(4) as u32))
                    .collect();
                terms.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                terms.dedup_by(|a, b| a.0 == b.0);
                let token_len = terms.iter().map(|(_, tf)| tf).sum::<u32>() + rng.below(3) as u32;
                (key, terms, token_len)
            })
            .collect()
    }

    fn build(docs: &[CountedDoc]) -> SearchIndex<u32> {
        let mut idx = SearchIndex::default();
        for (key, terms, token_len) in docs {
            idx.add_pretokenized(*key, terms.clone(), *token_len);
        }
        idx
    }

    #[test]
    fn route_appended_equals_per_document_reindexing() {
        let mut rng = Mix(0x5eed_0001);
        for case in 0..200 {
            let docs = random_docs(&mut rng);
            let source = build(&docs);
            let n = source.len();
            let shards = 1 + rng.below(4);
            // A random owner function: a per-key table over the key space.
            let table: Vec<usize> = (0..30).map(|_| rng.below(shards)).collect();
            let owner = |key: &u32| table[*key as usize];
            for watermark in [0, n / 2, n] {
                // Both sides start from the same partitions holding every
                // doc below the watermark, published (shared) and cleaned
                // the way a shard set's partitions are.
                let seeded = || {
                    let mut parts: Vec<SearchIndex<(u32, u32)>> =
                        (0..shards).map(|_| SearchIndex::default()).collect();
                    reference_route(&build(&docs[..watermark]), 0, owner, &mut parts);
                    for part in &mut parts {
                        part.clear_persist_dirty();
                    }
                    parts
                };
                let mut expected = seeded();
                reference_route(&source, watermark, owner, &mut expected);
                let mut got = seeded();
                let published = got.clone();
                source.route_appended(watermark, owner, &mut part_refs(&mut got));
                for (shard, (a, b)) in got.iter().zip(&expected).enumerate() {
                    let what = format!("case {case} wm {watermark} shard {shard}");
                    assert_same_index(a, b, &what);
                }
                // Lists shared with a published clone are copied on write.
                for (a, b) in published.iter().zip(&seeded()) {
                    assert_same_index(a, b, &format!("case {case} published"));
                }
                let queries = ["t0", "t1 t2", "t3 t3 t0", "t7 missing"];
                for query in queries {
                    let terms: Vec<String> = query.split(' ').map(str::to_owned).collect();
                    let mut stats = CorpusStats::default();
                    for part in &got {
                        part.add_corpus_stats(&terms, &mut stats);
                    }
                    for (a, b) in got.iter().zip(&expected) {
                        let x = a.search_terms_with_stats(&terms, 10, &stats);
                        let y = b.search_terms_with_stats(&terms, 10, &stats);
                        assert_eq!(x.len(), y.len(), "case {case} {query}");
                        for (h, k) in x.iter().zip(&y) {
                            assert_eq!(h.doc, k.doc);
                            assert_eq!(h.score.to_bits(), k.score.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn routing_in_two_steps_equals_routing_in_one() {
        let mut rng = Mix(0x5eed_0002);
        for case in 0..200 {
            let docs = random_docs(&mut rng);
            let full = build(&docs);
            let mid = rng.below(docs.len() + 1);
            let shards = 1 + rng.below(4);
            let salt = rng.below(1 << 20) as u32;
            let owner = |key: &u32| (key.wrapping_mul(2_654_435_761) ^ salt) as usize % shards;
            let mut once: Vec<SearchIndex<(u32, u32)>> =
                (0..shards).map(|_| SearchIndex::default()).collect();
            full.route_appended(0, owner, &mut part_refs(&mut once));
            let mut twice: Vec<SearchIndex<(u32, u32)>> =
                (0..shards).map(|_| SearchIndex::default()).collect();
            build(&docs[..mid]).route_appended(0, owner, &mut part_refs(&mut twice));
            full.route_appended(mid, owner, &mut part_refs(&mut twice));
            for (shard, (a, b)) in once.iter().zip(&twice).enumerate() {
                assert_same_index(a, b, &format!("case {case} mid {mid} shard {shard}"));
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let idx = index();
        let json = serde_json::to_string(&idx).unwrap();
        let back: SearchIndex<u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(back.search("wannacry", 10).len(), 2);
    }
}
