//! The serving layer's bounded caches, both built on one [`ShardedFifo`].
//!
//! The answer cache ([`QueryCache`]) is keyed by `(snapshot digest, query
//! key)`. Because the digest is part of the key, publishing a new snapshot
//! invalidates nothing explicitly: entries for the old digest simply stop
//! being looked up and age out of the FIFO. The plan cache
//! ([`crate::PlanCache`]) keys by query text alone. Shards keep the lock a
//! reader takes on a hit uncontended under concurrency (a single global lock
//! would serialise the whole read path).

use crate::snapshot::Answer;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independently locked shards.
const SHARDS: usize = 16;

struct Shard<K, V> {
    map: HashMap<K, V>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<K>,
}

/// A bounded map split into [`SHARDS`] independently locked shards, each
/// evicting its oldest entry at capacity, with hit/miss/eviction counters.
/// The caller picks the shard by passing a hash of the key.
pub(crate) struct ShardedFifo<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Max entries per shard (total capacity / SHARDS, at least 1 when
    /// caching is enabled at all); 0 disables caching.
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedFifo<K, V> {
    /// Holds at most ~`capacity` entries; 0 disables caching.
    pub(crate) fn new(capacity: usize) -> Self {
        ShardedFifo {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            per_shard: capacity.div_ceil(SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Whether caching is on at all (capacity above 0).
    pub(crate) fn enabled(&self) -> bool {
        self.per_shard > 0
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard<K, V>> {
        &self.shards[(hash as usize) % SHARDS]
    }

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The cached value for `key`, counting a hit or a miss.
    pub(crate) fn get(&self, hash: u64, key: &K) -> Option<V> {
        let found = self.shard(hash).lock().map.get(key).cloned();
        self.count(found.is_some());
        found
    }

    /// Insert or replace `key`'s value.
    pub(crate) fn insert(&self, hash: u64, key: K, value: V) {
        let mut shard = self.shard(hash).lock();
        match shard.map.get_mut(&key) {
            Some(existing) => *existing = value,
            None => self.push(&mut shard, key, value),
        }
    }

    /// `key`'s value, or on a miss the `Ok` value of `fill`, which runs and
    /// is cached under the shard's lock: concurrent misses on one key wait
    /// for the first fill instead of racing it. An `Err` is not cached.
    pub(crate) fn get_or_try_fill<E>(
        &self,
        hash: u64,
        key: K,
        fill: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        let mut shard = self.shard(hash).lock();
        let found = shard.map.get(&key).cloned();
        self.count(found.is_some());
        if let Some(value) = found {
            return Ok(value);
        }
        let value = fill()?;
        self.push(&mut shard, key, value.clone());
        Ok(value)
    }

    /// Add a new entry, evicting the shard's oldest at capacity.
    fn push(&self, shard: &mut Shard<K, V>, key: K, value: V) {
        if shard.map.len() >= self.per_shard {
            if let Some(oldest) = shard.order.pop_front() {
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.order.push_back(key.clone());
        shard.map.insert(key, value);
    }

    /// Entries currently cached (across shards).
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Drop every entry (counters keep accumulating).
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            shard.map.clear();
            shard.order.clear();
        }
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub entries: usize,
}

/// The bounded per-snapshot query cache.
pub struct QueryCache {
    fifo: ShardedFifo<(u64, String), Answer>,
}

/// An answer-cache key, built once per query: `(snapshot digest, query
/// key)` plus its shard hash. A lookup borrows it and a miss moves it into
/// the insert, so a query allocates its key string exactly once.
pub(crate) struct AnswerKey {
    hash: u64,
    key: (u64, String),
}

impl AnswerKey {
    pub(crate) fn new(digest: u64, query_key: String) -> Self {
        AnswerKey {
            hash: kg_ir::fnv1a64(query_key.as_bytes()) ^ digest,
            key: (digest, query_key),
        }
    }
}

impl QueryCache {
    /// Cache holding at most ~`capacity` answers; 0 disables caching.
    pub fn new(capacity: usize) -> Self {
        QueryCache {
            fifo: ShardedFifo::new(capacity),
        }
    }

    /// Look up the cached answer for `key`. A disabled cache (capacity 0)
    /// answers `None` without touching any counter — a lookup that was
    /// never attempted is not a miss, and counting it would skew every
    /// derived hit-rate to 0% instead of "no data".
    pub(crate) fn lookup(&self, key: &AnswerKey) -> Option<Answer> {
        if !self.fifo.enabled() {
            return None;
        }
        self.fifo.get(key.hash, &key.key)
    }

    /// Insert an answer under `key`, evicting the shard's oldest entry at
    /// capacity.
    pub(crate) fn store(&self, key: AnswerKey, answer: Answer) {
        if self.fifo.enabled() {
            self.fifo.insert(key.hash, key.key, answer);
        }
    }

    /// Look up the cached answer for a `(digest, query key)` pair. A
    /// disabled cache answers `None` without counting a miss.
    pub fn get(&self, digest: u64, query_key: &str) -> Option<Answer> {
        self.lookup(&AnswerKey::new(digest, query_key.to_owned()))
    }

    /// Insert an answer under a `(digest, query key)` pair, evicting the
    /// shard's oldest entry at capacity.
    pub fn insert(&self, digest: u64, query_key: &str, answer: Answer) {
        self.store(AnswerKey::new(digest, query_key.to_owned()), answer);
    }

    /// Entries currently cached (across shards).
    pub fn len(&self) -> usize {
        self.fifo.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every entry (counters keep accumulating).
    pub fn clear(&self) {
        self.fifo.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.fifo.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_graph::NodeId;

    fn nodes(id: u64) -> Answer {
        Answer::Nodes(vec![NodeId(id)])
    }

    #[test]
    fn hit_miss_and_digest_keying() {
        let cache = QueryCache::new(64);
        assert_eq!(cache.get(1, "s:5:x"), None);
        cache.insert(1, "s:5:x", nodes(7));
        assert_eq!(cache.get(1, "s:5:x"), Some(nodes(7)));
        // Same query under a different snapshot digest is a different entry.
        assert_eq!(cache.get(2, "s:5:x"), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 1));
    }

    #[test]
    fn capacity_bounds_and_evictions_counted() {
        let cache = QueryCache::new(16); // 1 per shard
        for i in 0..200u64 {
            cache.insert(i, "q", nodes(i));
        }
        assert!(cache.len() <= 16, "{}", cache.len());
        assert_eq!(cache.stats().evictions, 200 - cache.len() as u64);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = QueryCache::new(0);
        cache.insert(1, "q", nodes(1));
        assert_eq!(cache.get(1, "q"), None);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn disabled_cache_counts_nothing() {
        let cache = QueryCache::new(0);
        for i in 0..10u64 {
            cache.insert(i, "q", nodes(i));
            assert_eq!(cache.get(i, "q"), None);
        }
        // Lookups that never reached a shard are not misses: all counters
        // stay zero, so hit-rate reads "no data" rather than 0%.
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = QueryCache::new(64);
        cache.insert(1, "a", nodes(1));
        assert!(cache.get(1, "a").is_some());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().hits, 1);
    }
}
