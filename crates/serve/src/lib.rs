//! kg-serve — the knowledge-consumption layer (paper §2.6; ThreatKG's
//! explicit serving split): many concurrent readers over a store that
//! ingestion keeps writing to.
//!
//! The concurrency model is **epoch-style snapshot publication**: the ingest
//! writer periodically freezes the knowledge base into an immutable
//! [`KgSnapshot`] (graph + BM25 index + expansion adjacency + canonical
//! digest) and publishes it with one atomic `Arc` swap. Readers *pin* the
//! current snapshot (an `Arc` clone) and run keyword search, Cypher and
//! k-hop expansion against it for as long as they like:
//!
//! - readers never block the writer (the swap waits only for concurrent
//!   `Arc` clones, never for in-flight queries);
//! - readers never observe a torn graph — every answer is consistent with
//!   exactly one published digest, which the response carries;
//! - superseded snapshots are freed when the last pinned reader drops them.
//!
//! On top sits a bounded [`QueryCache`] keyed by `(snapshot digest,
//! normalized query)`: publishing a new snapshot invalidates nothing and
//! races nothing, because old-digest entries can never be returned for
//! new-digest lookups — they just age out. Publishes and cache counters are
//! surfaced as [`TraceEvent`]s on the serving [`TraceLog`].
//!
//! Freezing a snapshot comes in two flavours: [`KgSnapshot::build`] is the
//! O(graph) full rebuild (the correctness oracle), and [`EpochBuilder`] is
//! the O(delta) incremental path — it carries the digest and adjacency table
//! forward across epochs and shares the `Arc`'d parts of the graph and the
//! index (arena segments, the property index, posting lists) with the
//! frozen clones; the other graph indexes are still copied per freeze.
//!
//! Push alerts ride the same delta stream: a [`SubscriptionHub`] holds
//! standing queries (node predicates compiled to the Cypher `WHERE` form,
//! edge-touching-entity watches) and evaluates them **incrementally** against
//! each epoch's delta at publish time — O(delta × subscriptions), never a
//! rescan — delivering into per-subscriber bounded mailboxes with exact
//! overflow accounting. See [`KgServe::publish_watched`].

mod cache;
mod epoch;
mod plan;
mod read;
mod shard;
mod snapshot;
mod subscribe;

pub use cache::{CacheStats, QueryCache};
pub use epoch::EpochBuilder;
pub use plan::{PlanCache, PlanCacheStats};
pub use read::keyword_search;
pub use shard::{
    combined_digest, ShardDoc, ShardSet, ShardSnapshot, ShardStamp, ShardedResponse, ShardedServe,
    ShardedStats,
};
pub use snapshot::{normalize, Answer, KgSnapshot, Query, SnapshotMode};
pub use subscribe::{
    rescan_matches, CompiledPredicate, DeliveryReport, MatchEvent, MatchKind, Subscription,
    SubscriptionHub, SubscriptionId, SubscriptionStats, WatchSpec, PREDICATE_VAR,
};

use kg_pipeline::{TraceEvent, TraceLog};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One answered query, stamped with the snapshot it was answered from.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Digest of the snapshot that produced `answer`.
    pub digest: u64,
    /// Publish version of that snapshot.
    pub version: u64,
    /// Whether the answer came from the cache.
    pub cached: bool,
    pub answer: Answer,
}

/// Aggregate serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Snapshots published (including the initial one).
    pub publishes: u64,
    /// Queries executed.
    pub queries: u64,
    pub cache: CacheStats,
    /// Compiled-plan cache counters (keyed by query text alone, so these
    /// survive publishes — `compiles` flat across epochs is the invariant).
    pub plans: PlanCacheStats,
}

/// Default capacity of the compiled-plan caches ([`KgServe`] and
/// [`ShardedServe`]). Plans are small (an AST-sized artifact, no graph
/// data), so the bound exists to cap adversarial churn, not memory.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 1024;

/// The serving layer: one writer publishing snapshots, N readers querying.
pub struct KgServe {
    current: RwLock<Arc<KgSnapshot>>,
    cache: QueryCache,
    /// Compiled Cypher plans keyed by normalized query text — deliberately
    /// *not* digest-keyed like `cache`: a plan depends only on the text, so
    /// publishes invalidate nothing and compiled artifacts live for the
    /// process lifetime.
    plans: PlanCache,
    publishes: AtomicU64,
    queries: AtomicU64,
    trace: TraceLog,
}

impl KgServe {
    /// Start serving `first` (published as version 1) with a query cache of
    /// ~`cache_capacity` entries (0 disables caching).
    pub fn new(first: KgSnapshot, cache_capacity: usize) -> Self {
        let serve = KgServe {
            current: RwLock::new(Arc::new(KgSnapshot::build_placeholder())),
            cache: QueryCache::new(cache_capacity),
            plans: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
            publishes: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            trace: TraceLog::new(),
        };
        serve.publish(first);
        serve
    }

    /// Atomically swap in a new snapshot; returns its assigned version.
    /// The write lock is held only for the pointer swap — readers holding
    /// pinned `Arc`s are untouched and finish on their old epoch.
    pub fn publish(&self, mut snapshot: KgSnapshot) -> u64 {
        let version = self.publishes.fetch_add(1, Ordering::SeqCst) + 1;
        snapshot.set_version(version);
        let event = TraceEvent::SnapshotPublished {
            version,
            kg_digest: snapshot.digest(),
            nodes: snapshot.node_count(),
            edges: snapshot.edge_count(),
            build_us: snapshot.build_us(),
            mode: snapshot.mode().label(),
        };
        *self.current.write() = Arc::new(snapshot);
        self.trace.record(event);
        version
    }

    /// Publish with standing-query evaluation: diff the delta sealed by
    /// `snapshot`'s freeze against every subscription in `hub` (previous
    /// published snapshot as the baseline), record `SubscriptionMatched` /
    /// `MailboxOverflow` on the serving trace, then swap the snapshot in.
    /// Returns the assigned version and the delivery report.
    pub fn publish_watched(
        &self,
        hub: &SubscriptionHub,
        graph: &mut kg_graph::GraphStore,
        snapshot: KgSnapshot,
    ) -> (u64, DeliveryReport) {
        let prev = self.pin();
        let report = hub.evaluate(graph, &prev, &snapshot, Some(&self.trace));
        let version = self.publish(snapshot);
        (version, report)
    }

    /// Pin the current snapshot: an `Arc` clone readers hold for the
    /// duration of one query (or an entire session — epochs don't expire).
    pub fn pin(&self) -> Arc<KgSnapshot> {
        Arc::clone(&self.current.read())
    }

    /// Execute against the *current* snapshot (pin + [`Self::execute_on`]).
    pub fn execute(&self, query: &Query) -> QueryResponse {
        let snapshot = self.pin();
        self.execute_on(&snapshot, query)
    }

    /// Execute against an explicitly pinned snapshot, going through the
    /// digest-keyed cache. The response's digest always equals
    /// `snapshot.digest()` — answers can never leak across epochs.
    pub fn execute_on(&self, snapshot: &KgSnapshot, query: &Query) -> QueryResponse {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let key = cache::AnswerKey::new(snapshot.digest(), query.cache_key());
        if let Some(answer) = self.cache.lookup(&key) {
            return QueryResponse {
                digest: snapshot.digest(),
                version: snapshot.version(),
                cached: true,
                answer,
            };
        }
        // Cypher binds a cached compiled plan to the pinned snapshot — plan
        // reuse across epochs, answer isolation per epoch (the answer still
        // enters the digest-keyed cache).
        let answer = read::answer(snapshot, |q| self.plans.plan(q), query);
        self.cache.store(key, answer.clone());
        QueryResponse {
            digest: snapshot.digest(),
            version: snapshot.version(),
            cached: false,
            answer,
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            publishes: self.publishes.load(Ordering::SeqCst),
            queries: self.queries.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            plans: self.plans.stats(),
        }
    }

    /// The query cache (for clearing between bench phases).
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The compiled-plan cache (epoch-independent; never needs clearing on
    /// publish).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }

    /// The serving trace (snapshot publishes, cache reports).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Record a point-in-time [`TraceEvent::CacheReport`] on the trace.
    pub fn record_cache_report(&self) {
        let stats = self.cache.stats();
        self.trace.record(TraceEvent::CacheReport {
            hits: stats.hits,
            misses: stats.misses,
            evictions: stats.evictions,
            entries: stats.entries,
        });
    }

    /// Record a point-in-time [`TraceEvent::PlanCacheReport`] on the trace.
    pub fn record_plan_cache_report(&self) {
        let stats = self.plans.stats();
        self.trace.record(TraceEvent::PlanCacheReport {
            hits: stats.hits,
            misses: stats.misses,
            compiles: stats.compiles,
            evictions: stats.evictions,
            entries: stats.entries,
        });
    }
}

impl KgSnapshot {
    /// Empty snapshot used only to initialise the publication cell before
    /// the first real publish (never observable: `KgServe::new` publishes
    /// over it before returning).
    fn build_placeholder() -> KgSnapshot {
        KgSnapshot::build(
            kg_graph::GraphStore::new(),
            kg_search::SearchIndex::default(),
        )
    }
}

/// `p`-th percentile (0.0–1.0) of an unsorted sample set, in the sample's
/// unit; 0 for empty samples. Sorts in place.
///
/// Uses linear interpolation between closest ranks (the "C = 1" /
/// `numpy.percentile` definition): the fractional rank `(n - 1) · p` is
/// split into its floor and ceiling neighbours and the result interpolates
/// between them. Rounding the rank instead (the previous behaviour)
/// collapses high quantiles on small samples — with n = 100, p999 rounded
/// to the p100 sample and p99 to... whatever `round` landed on — which
/// makes tail latencies in E16's open-loop sweeps unreportable.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (samples.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = rank.floor() as usize;
    let hi = (rank.ceil() as usize).min(samples.len() - 1);
    if lo == hi {
        return samples[lo];
    }
    let frac = rank - lo as f64;
    let (a, b) = (samples[lo] as f64, samples[hi] as f64);
    (a + (b - a) * frac).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_graph::{GraphStore, Value};
    use kg_search::SearchIndex;

    fn small_snapshot(extra: usize) -> KgSnapshot {
        let mut graph = GraphStore::new();
        let m = graph.create_node("Malware", [("name", Value::from("wannacry"))]);
        let f = graph.create_node("FileName", [("name", Value::from("tasksche.exe"))]);
        graph
            .create_edge(m, "DROP", f, [] as [(&str, Value); 0])
            .unwrap();
        for i in 0..extra {
            graph.create_node("Malware", [("name", Value::from(format!("mal-{i}")))]);
        }
        let mut search = SearchIndex::default();
        search.add(m, "wannacry ransomware drops tasksche.exe");
        KgSnapshot::build(graph, search)
    }

    #[test]
    fn publish_assigns_versions_and_traces() {
        let serve = KgServe::new(small_snapshot(0), 64);
        assert_eq!(serve.pin().version(), 1);
        let v2 = serve.publish(small_snapshot(3));
        assert_eq!(v2, 2);
        assert_eq!(serve.pin().version(), 2);
        assert_eq!(serve.stats().publishes, 2);
        let events: Vec<_> = serve
            .trace()
            .snapshot()
            .into_iter()
            .map(|r| r.event)
            .collect();
        assert!(matches!(
            events[0],
            TraceEvent::SnapshotPublished { version: 1, .. }
        ));
        assert!(matches!(
            events[1],
            TraceEvent::SnapshotPublished { version: 2, nodes, .. } if nodes == 5
        ));
    }

    #[test]
    fn pinned_readers_keep_their_epoch_across_publishes() {
        let serve = KgServe::new(small_snapshot(0), 64);
        let pinned = serve.pin();
        let d1 = pinned.digest();
        serve.publish(small_snapshot(5));
        // The pinned epoch is unchanged and still fully queryable...
        assert_eq!(pinned.digest(), d1);
        assert_eq!(pinned.node_count(), 2);
        let old = serve.execute_on(
            &pinned,
            &Query::Search {
                q: "wannacry".into(),
                k: 5,
            },
        );
        assert_eq!(old.digest, d1);
        // ...while fresh pins see the new epoch.
        let new = serve.execute(&Query::Search {
            q: "wannacry".into(),
            k: 5,
        });
        assert_ne!(new.digest, d1);
        assert_eq!(new.version, 2);
    }

    #[test]
    fn cache_hits_within_an_epoch_and_resets_across_epochs() {
        let serve = KgServe::new(small_snapshot(0), 64);
        let q = Query::Search {
            q: "wannacry".into(),
            k: 5,
        };
        let first = serve.execute(&q);
        assert!(!first.cached);
        let second = serve.execute(&q);
        assert!(second.cached);
        assert_eq!(first.answer, second.answer);
        // New epoch: same query misses (digest differs), then hits again.
        serve.publish(small_snapshot(1));
        let third = serve.execute(&q);
        assert!(!third.cached);
        assert!(serve.execute(&q).cached);
        let stats = serve.stats();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.cache.hits, 2);
        assert_eq!(stats.cache.misses, 2);
    }

    #[test]
    fn cache_report_lands_on_the_trace() {
        let serve = KgServe::new(small_snapshot(0), 64);
        serve.execute(&Query::Cypher {
            q: "MATCH (n:Malware) RETURN count(*)".into(),
        });
        serve.record_cache_report();
        assert!(serve.trace().snapshot().iter().any(|r| matches!(
            r.event,
            TraceEvent::CacheReport {
                misses: 1,
                entries: 1,
                ..
            }
        )));
    }

    #[test]
    fn expand_and_cypher_answers_reference_only_snapshot_nodes() {
        let serve = KgServe::new(small_snapshot(4), 64);
        let snap = serve.pin();
        for query in [
            Query::Expand {
                name: "wannacry".into(),
                hops: 2,
                cap: 50,
            },
            Query::Cypher {
                q: "MATCH (m:Malware)-[:DROP]->(f) RETURN m, f".into(),
            },
        ] {
            let response = serve.execute_on(&snap, &query);
            assert_eq!(response.digest, snap.digest());
            let ids = response.answer.node_ids();
            assert!(!ids.is_empty());
            for id in ids {
                assert!(snap.graph().node(id).is_some());
            }
        }
    }

    #[test]
    fn percentile_bounds() {
        let mut samples = vec![50, 10, 30, 20, 40];
        assert_eq!(percentile(&mut samples, 0.0), 10);
        assert_eq!(percentile(&mut samples, 0.5), 30);
        assert_eq!(percentile(&mut samples, 1.0), 50);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let mut samples = vec![10, 20, 30, 40, 50];
        assert_eq!(percentile(&mut samples, 0.1), 14);
        assert_eq!(percentile(&mut samples, 0.9), 46);
        assert_eq!(percentile(&mut samples, 0.999), 50);
        // Out-of-range p clamps to the extremes.
        assert_eq!(percentile(&mut samples, -1.0), 10);
        assert_eq!(percentile(&mut samples, 2.0), 50);
    }

    #[test]
    fn percentile_degenerate_and_small_sample_counts() {
        assert_eq!(percentile(&mut [], 0.999), 0);
        // Single sample: every quantile is that sample.
        assert_eq!(percentile(&mut [42], 0.0), 42);
        assert_eq!(percentile(&mut [42], 0.999), 42);
        assert_eq!(percentile(&mut [42], 1.0), 42);
        // Two samples: p999 interpolates just below the max instead of
        // collapsing onto a rounded rank.
        assert_eq!(percentile(&mut [0, 1000], 0.5), 500);
        assert_eq!(percentile(&mut [0, 1000], 0.999), 999);
        // n < 1000: p999 lands between the top two samples.
        let mut samples: Vec<u64> = (0..100).map(|i| i * 10).collect();
        assert_eq!(percentile(&mut samples, 0.999), 989);
    }

    #[test]
    fn unknown_expand_target_is_an_empty_answer() {
        let serve = KgServe::new(small_snapshot(0), 64);
        let response = serve.execute(&Query::Expand {
            name: "no-such-entity".into(),
            hops: 3,
            cap: 10,
        });
        assert_eq!(response.answer, Answer::Nodes(Vec::new()));
    }
}
