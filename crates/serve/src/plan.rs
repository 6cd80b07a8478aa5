//! The epoch-surviving compiled-plan cache.
//!
//! Compiling a Cypher read (parse + plan lowering) costs far more than
//! binding an already-compiled [`CompiledPlan`] to a snapshot, and — unlike
//! *answers* — a plan depends only on the query text, never on graph
//! content. So where the answer cache ([`crate::QueryCache`]) keys by
//! `(snapshot digest, normalized query)` and starts cold every epoch, this
//! cache keys by the normalized query text **alone**: publishing a new
//! snapshot invalidates nothing, and a serving fleet re-binds the same
//! `Arc`'d plan across every epoch it ever sees. The two caches share
//! [`crate::normalize`], so any pair of queries that agree on an answer-cache
//! key agree on a plan-cache key too.
//!
//! Only successful compilations are cached; a query that fails to parse or
//! plan is re-diagnosed on every miss (failures are cheap — they never reach
//! execution — and caching them would let a bounded cache be flushed by
//! garbage queries... which FIFO eviction permits anyway, so the real reason
//! is simpler: an `Err` entry has nothing reusable in it).

use crate::cache::{CacheStats, ShardedFifo};
use kg_graph::cypher::CypherError;
use kg_graph::{parse, CompiledPlan};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Point-in-time plan-cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Successful compilations (a miss that failed to compile increments
    /// `misses` but not `compiles`).
    pub compiles: u64,
    pub evictions: u64,
    pub entries: usize,
}

/// Bounded, sharded cache of compiled query plans keyed by normalized query
/// text. Shared across epochs by construction — nothing snapshot-dependent
/// enters the key or the value.
pub struct PlanCache {
    /// Hash of the normalized text → the normalized text and its plan. 0
    /// capacity disables caching (every lookup compiles).
    fifo: ShardedFifo<u64, (Arc<str>, Arc<CompiledPlan>)>,
    compiles: AtomicU64,
}

impl PlanCache {
    /// Cache holding at most ~`capacity` plans; 0 disables caching.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            fifo: ShardedFifo::new(capacity),
            compiles: AtomicU64::new(0),
        }
    }

    fn compile(&self, text: &str) -> Result<Arc<CompiledPlan>, CypherError> {
        let plan = Arc::new(CompiledPlan::compile(&parse(text)?)?);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        Ok(plan)
    }

    /// Fetch the compiled plan for `text`, compiling (and caching) on a
    /// miss. The key is `normalize(text)` — the same normalizer the answer
    /// cache's Cypher keys use — so whitespace-variant spellings of one
    /// query share one plan. A lookup hashes and compares the normalized
    /// words in place, so a hit allocates nothing; on a hash collision the
    /// cached plan stays and `text` compiles uncached. The compile runs
    /// under the shard lock, so concurrent misses on one query wait for the
    /// first compile instead of racing it, and each distinct plan compiles
    /// exactly once.
    pub fn plan(&self, text: &str) -> Result<Arc<CompiledPlan>, CypherError> {
        if !self.fifo.enabled() {
            return self.compile(text);
        }
        let hash = crate::snapshot::normalized_hash(text);
        let (_, plan) = self.fifo.get_or_try_fill(
            hash,
            hash,
            |(key, _)| crate::snapshot::same_normalized(key, text),
            || Ok((crate::normalize(text).into(), self.compile(text)?)),
        )?;
        Ok(plan)
    }

    /// Plans currently cached (across shards).
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
    pub fn stats(&self) -> PlanCacheStats {
        let CacheStats {
            hits,
            misses,
            evictions,
            entries,
        } = self.fifo.stats();
        PlanCacheStats {
            hits,
            misses,
            compiles: self.compiles.load(Ordering::Relaxed),
            evictions,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Query;

    #[test]
    fn whitespace_variants_share_one_plan() {
        let cache = PlanCache::new(64);
        let a = cache.plan("MATCH (n)   RETURN n").unwrap();
        let b = cache.plan("MATCH (n) RETURN n").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.compiles), (1, 1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn plan_keys_agree_with_the_answer_cache_normalizer() {
        // Regression: the two caches must agree on query equivalence. Any
        // pair of texts the answer cache unifies under one Cypher key must
        // hit one plan, and vice versa.
        let pairs = [
            ("MATCH (n)  RETURN n", "MATCH (n) RETURN n"),
            ("  MATCH (n) RETURN n  ", "MATCH (n) RETURN n"),
            ("MATCH\t(n)\nRETURN n", "MATCH (n) RETURN n"),
        ];
        let cache = PlanCache::new(64);
        for (left, right) in pairs {
            let answer_keys_equal = Query::Cypher { q: left.into() }.cache_key()
                == Query::Cypher { q: right.into() }.cache_key();
            let l = cache.plan(left).unwrap();
            let r = cache.plan(right).unwrap();
            assert_eq!(
                answer_keys_equal,
                Arc::ptr_eq(&l, &r),
                "{left:?} vs {right:?}"
            );
            assert!(answer_keys_equal);
        }
        // Case differences in string literals are distinct under both.
        let l = cache.plan("MATCH (n {name: 'A'}) RETURN n").unwrap();
        let r = cache.plan("MATCH (n {name: 'a'}) RETURN n").unwrap();
        assert!(!Arc::ptr_eq(&l, &r));
        assert_ne!(
            Query::Cypher {
                q: "MATCH (n {name: 'A'}) RETURN n".into()
            }
            .cache_key(),
            Query::Cypher {
                q: "MATCH (n {name: 'a'}) RETURN n".into()
            }
            .cache_key()
        );
    }

    #[test]
    fn streamed_keys_agree_with_the_normalizer() {
        for text in [
            "",
            "   ",
            "MATCH (n) RETURN n",
            "\tMATCH  (n)\nRETURN n  ",
            "a",
            " a b ",
        ] {
            let normalized = crate::normalize(text);
            assert_eq!(
                crate::snapshot::normalized_hash(text),
                kg_ir::fnv1a64(normalized.as_bytes()),
                "{text:?}"
            );
            assert!(crate::snapshot::same_normalized(text, &normalized));
        }
        assert!(!crate::snapshot::same_normalized("a b", "ab"));
        assert!(!crate::snapshot::same_normalized("a b", "a b c"));
    }

    #[test]
    fn failures_are_not_cached_and_count_as_misses() {
        let cache = PlanCache::new(64);
        assert!(cache.plan("not cypher").is_err());
        assert!(cache.plan("CREATE (n:Malware)").is_err());
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.compiles), (2, 0));
    }

    #[test]
    fn capacity_bounds_and_evictions_counted() {
        let cache = PlanCache::new(16); // 1 per shard
        for i in 0..100 {
            cache.plan(&format!("MATCH (n:L{i}) RETURN n")).unwrap();
        }
        assert!(cache.len() <= 16, "{}", cache.len());
        assert_eq!(cache.stats().evictions, 100 - cache.len() as u64);
    }

    #[test]
    fn zero_capacity_compiles_every_time() {
        let cache = PlanCache::new(0);
        let a = cache.plan("MATCH (n) RETURN n").unwrap();
        let b = cache.plan("MATCH (n) RETURN n").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().compiles, 2);
    }
}
