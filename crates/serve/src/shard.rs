//! Sharded scale-out serving: canon-key partitioning + scatter-gather.
//!
//! The single-shard serving layer ([`crate::KgServe`]) publishes one
//! [`KgSnapshot`] per epoch; every query runs against the whole graph and
//! the whole BM25 index. This module partitions the serving state across N
//! shards and reassembles exact answers:
//!
//! - **Routing** is by hashed entity canon key
//!   ([`kg_graph::node_shard`]): a node is owned by
//!   `hash(label + NUL + name) % N` (id hash for unnamed nodes), an edge by
//!   the owner of its `from` node, and a search document by the owner of
//!   its subject node at first sync (sticky thereafter). Canon-key routing
//!   means the entities the §2.5 merge rule would unify always land
//!   together, and a `(label, name)` query touches exactly one shard.
//! - **Per-shard epochs from one builder**: a [`ShardSet`] is the single
//!   incremental [`crate::EpochBuilder`] built with N owner slices (one
//!   delta-log cursor, one absorb), plus one posting partition per shard.
//!   Freezing a shard absorbs the pending delta for all slices and reads
//!   that shard's slice — its owned adjacency and partial digest — so
//!   shards still publish independently, O(delta) each.
//! - **Scatter-gather** ([`ShardedServe`]): a pinned shard vector answers
//!   through the same read routines as a whole [`crate::KgSnapshot`] — one
//!   keyword composition, one BFS, one compiled Cypher pipeline — and only
//!   the lookups under them are per-shard. Keyword search computes global
//!   BM25 statistics from the partitions, scores shard-locally with those
//!   stats injected and merges per-shard top-k by `(score desc, global
//!   slot asc)` — bit-identical to the unsharded scores. Cypher scatters
//!   the plan to every shard with that shard's ownership test as the
//!   anchor filter (each shard carries a full replica, so joins and
//!   property lookups resolve locally) and gathers the rows in
//!   `(anchor, seq)` order, or, for an aggregate, merges each group's
//!   per-shard partial counts — the unsharded call is the same scatter
//!   owning every anchor. BFS expansion fetches each node's neighbours from
//!   the shard owning it.
//! - **Auditability**: every [`ShardedResponse`] carries a `(shard,
//!   version, digest)` vector. Shard digests are *partial* digests — the
//!   seedless sum of owned element terms — chosen so that
//!   `DIGEST_SEED + Σ partial digests == GraphStore::digest()` holds for
//!   any consistent cut: cross-shard consistency is one wrapping sum away
//!   from the canonical whole-graph digest.
//!
//! The differential oracle battery lives in `tests/shard_props.rs`:
//! sharded answers must be byte-identical to the N=1 answers for arbitrary
//! mutate/publish interleavings and shard counts.

use crate::epoch::EpochBuilder;
use crate::plan::PlanCache;
use crate::snapshot::{Answer, Query};
use kg_graph::store::{Edge, Node};
use kg_graph::{id_shard, EdgeId, GraphSnapshot, GraphStore, NodeId, Value, DIGEST_SEED};
use kg_search::SearchIndex;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A search-partition document key: `(global slot, subject node)`. The
/// global slot makes the cross-shard tie-break identical to the unsharded
/// index's ascending-slot tie-break.
pub type ShardDoc = (u32, NodeId);

/// One shard's immutable published state: a full graph replica (the
/// ghost/halo layer), the shard's posting partition, its owned adjacency
/// entries, and its partial digest. The replicas frozen at one cut share
/// their arena segments and their property index (seeded once, by the
/// first read that needs it, for all of them); each holds its own copy of
/// the label, name and edge indexes.
pub struct ShardSnapshot {
    shard: usize,
    version: u64,
    /// Seedless wrapping sum of owned element digest terms. Summing all
    /// shards' partials and adding [`DIGEST_SEED`] yields the canonical
    /// whole-graph digest.
    partial_digest: u64,
    /// Full replica at freeze time; anchored match/filter and property
    /// lookups resolve locally against it.
    graph: GraphStore,
    /// Posting partition over owned documents, keyed by global slot.
    search: SearchIndex<ShardDoc>,
    /// Owned live nodes → expansion neighbours. Presence in this table IS
    /// the shard's ownership test.
    adjacency: HashMap<NodeId, Arc<Vec<NodeId>>>,
    build_us: u64,
}

impl ShardSnapshot {
    /// Which shard of how many this is.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Publish sequence number (0 until published).
    pub fn version(&self) -> u64 {
        self.version
    }

    pub(crate) fn set_version(&mut self, version: u64) {
        self.version = version;
    }

    /// The seedless partial digest over owned elements.
    pub fn partial_digest(&self) -> u64 {
        self.partial_digest
    }

    /// Wall time spent freezing this shard snapshot, microseconds.
    pub fn build_us(&self) -> u64 {
        self.build_us
    }

    /// Whether this shard owns `id` (and the node is live).
    pub fn owns(&self, id: NodeId) -> bool {
        self.adjacency.contains_key(&id)
    }

    /// Owned live nodes.
    pub fn owned_count(&self) -> usize {
        self.adjacency.len()
    }

    /// The expansion neighbours of an owned node (empty when not owned).
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        self.adjacency.get(&id).map_or(&[][..], |v| v.as_slice())
    }

    /// The full graph replica frozen with this shard.
    pub fn graph(&self) -> &GraphStore {
        &self.graph
    }

    /// The shard's posting partition.
    pub fn search_partition(&self) -> &SearchIndex<ShardDoc> {
        &self.search
    }
}

/// Compiled plans scatter directly against a shard snapshot. Graph reads
/// delegate to the full replica; [`GraphSnapshot::khop_adjacency`] serves
/// the frozen table only for *owned* nodes (the shard's adjacency partition
/// is partial — an unowned node's entry is absent, not empty, so plans must
/// fall back to the replica's edge walk there).
impl GraphSnapshot for ShardSnapshot {
    fn node(&self, id: NodeId) -> Option<&Node> {
        self.graph.node(id)
    }

    fn edge(&self, id: EdgeId) -> Option<&Edge> {
        self.graph.edge(id)
    }

    fn out_edge_ids(&self, id: NodeId) -> &[EdgeId] {
        self.graph.out_edge_ids(id)
    }

    fn in_edge_ids(&self, id: NodeId) -> &[EdgeId] {
        self.graph.in_edge_ids(id)
    }

    fn nodes_with_label(&self, label: &str) -> Vec<NodeId> {
        self.graph.nodes_with_label(label)
    }

    fn node_by_name(&self, label: &str, name: &str) -> Option<NodeId> {
        self.graph.node_by_name(label, name)
    }

    fn all_node_ids(&self) -> Vec<NodeId> {
        self.graph.all_nodes().map(|n| n.id).collect()
    }

    fn nodes_with_prop_eq(&self, key: &str, value: &Value) -> Option<Vec<NodeId>> {
        self.graph.nodes_with_prop_eq(key, value)
    }

    fn khop_adjacency(&self, id: NodeId) -> Option<&[NodeId]> {
        self.adjacency.get(&id).map(|a| a.as_slice())
    }
}

/// Writer-side partition state: the one incremental [`EpochBuilder`],
/// split into one owner slice per shard, plus each shard's posting
/// partition and the shared document watermark. Documents are routed
/// exactly once, globally, in slot order — per-shard freeze skew can
/// therefore never duplicate or drop a document, and within each partition
/// local slot order equals global slot order (the tie-break invariant).
pub struct ShardSet {
    epoch: EpochBuilder,
    /// Each shard's posting partition (append-only, like its source).
    partitions: Vec<SearchIndex<ShardDoc>>,
    /// Docs below this watermark have been routed into a partition.
    docs_seen: usize,
}

impl ShardSet {
    /// Seed the builder's `shards` slices from one scan of the live graph
    /// and route every already-indexed document. The one O(graph) moment
    /// of a shard set.
    pub fn new(graph: &mut GraphStore, search: &SearchIndex<NodeId>, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut set = ShardSet {
            epoch: EpochBuilder::sharded(graph, shards),
            partitions: (0..shards).map(|_| SearchIndex::default()).collect(),
            docs_seen: 0,
        };
        set.sync_docs(search);
        set
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.partitions.len()
    }

    /// Route newly appended documents into their partitions: owner of the
    /// subject node at routing time (as of the builder's last absorb),
    /// sticky forever after (BM25 scoring uses merged global stats, so
    /// *any* sticky assignment reproduces the unsharded scores — routing
    /// only decides locality). Postings are split by owner straight from
    /// the writer index's tails.
    fn sync_docs(&mut self, search: &SearchIndex<NodeId>) {
        let shards = self.partitions.len();
        let epoch = &self.epoch;
        let owner = |key: &NodeId| epoch.owner(*key).unwrap_or_else(|| id_shard(key.0, shards));
        let mut parts: Vec<&mut SearchIndex<ShardDoc>> = self.partitions.iter_mut().collect();
        search.route_appended(self.docs_seen, owner, &mut parts);
        self.docs_seen = search.len();
    }

    /// Freeze one shard's current state (absorbing unseen deltas and any
    /// unrouted documents) into a publishable [`ShardSnapshot`].
    pub fn freeze_shard(
        &mut self,
        shard: usize,
        graph: &mut GraphStore,
        search: &SearchIndex<NodeId>,
    ) -> ShardSnapshot {
        let start = Instant::now();
        self.epoch.absorb(graph);
        self.sync_docs(search);
        let slice = self.epoch.slice(shard);
        ShardSnapshot {
            shard,
            version: 0,
            partial_digest: slice.partial,
            graph: graph.clone(),
            search: self.partitions[shard].clone(),
            adjacency: slice.adjacency.clone(),
            build_us: start.elapsed().as_micros() as u64,
        }
    }

    /// Freeze every shard at the same cut.
    pub fn freeze_all(
        &mut self,
        graph: &mut GraphStore,
        search: &SearchIndex<NodeId>,
    ) -> Vec<ShardSnapshot> {
        (0..self.shards())
            .map(|shard| self.freeze_shard(shard, graph, search))
            .collect()
    }
}

/// One shard's stamp on a response: which epoch of which shard the answer
/// was assembled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStamp {
    pub shard: usize,
    /// The shard snapshot's publish version.
    pub version: u64,
    /// The shard's partial digest.
    pub digest: u64,
}

/// A scatter-gather answer plus the per-shard `(shard, version, digest)`
/// consistency vector it was assembled from.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedResponse {
    pub vector: Vec<ShardStamp>,
    pub answer: Answer,
}

impl ShardedResponse {
    /// The whole-graph digest this vector claims:
    /// `DIGEST_SEED + Σ partial digests`. For a consistent cut this equals
    /// `GraphStore::digest()` of the underlying graph.
    pub fn combined_digest(&self) -> u64 {
        self.vector
            .iter()
            .fold(DIGEST_SEED, |acc, s| acc.wrapping_add(s.digest))
    }
}

/// Combine pinned shard snapshots into the whole-graph digest they imply.
pub fn combined_digest(pins: &[Arc<ShardSnapshot>]) -> u64 {
    pins.iter()
        .fold(DIGEST_SEED, |acc, p| acc.wrapping_add(p.partial_digest()))
}

/// Aggregate counters for a [`ShardedServe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedStats {
    /// Per-shard publishes (including the initial ones).
    pub publishes: u64,
    /// Scatter-gather queries executed.
    pub queries: u64,
}

/// The scatter-gather serving layer: N independently-published shard
/// cells, each an atomic `Arc` swap exactly like [`crate::KgServe`].
/// Readers pin all N cells (`pin_all`), fan a [`Query`] out and merge.
pub struct ShardedServe {
    cells: Vec<RwLock<Arc<ShardSnapshot>>>,
    /// Compiled Cypher plans, shared by every shard and every epoch: one
    /// compile serves the whole fleet for the lifetime of the process.
    plans: PlanCache,
    publishes: AtomicU64,
    queries: AtomicU64,
}

impl ShardedServe {
    /// Start serving an initial set of shard snapshots (one per shard, in
    /// shard order), each published with its own version.
    pub fn new(initial: Vec<ShardSnapshot>) -> Self {
        assert!(!initial.is_empty(), "at least one shard");
        let serve = ShardedServe {
            cells: initial
                .iter()
                .map(|_| {
                    RwLock::new(Arc::new(ShardSnapshot {
                        shard: 0,
                        version: 0,
                        partial_digest: 0,
                        graph: GraphStore::new(),
                        search: SearchIndex::default(),
                        adjacency: HashMap::new(),
                        build_us: 0,
                    }))
                })
                .collect(),
            plans: PlanCache::new(crate::DEFAULT_PLAN_CACHE_CAPACITY),
            publishes: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        };
        for snapshot in initial {
            serve.publish_shard(snapshot);
        }
        serve
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.cells.len()
    }

    /// Atomically swap one shard's snapshot in; other shards' readers and
    /// cells are untouched. Returns the assigned (globally monotonic)
    /// version.
    pub fn publish_shard(&self, mut snapshot: ShardSnapshot) -> u64 {
        let version = self.publishes.fetch_add(1, Ordering::SeqCst) + 1;
        snapshot.set_version(version);
        let shard = snapshot.shard();
        *self.cells[shard].write() = Arc::new(snapshot);
        version
    }

    /// Pin every shard's current snapshot. The vector is the read epoch: a
    /// reader holds it for one query or a whole session, and concurrent
    /// publishes never tear an individual cell (each stamp in the response
    /// names exactly the epoch combination answered from).
    pub fn pin_all(&self) -> Vec<Arc<ShardSnapshot>> {
        self.cells.iter().map(|c| Arc::clone(&c.read())).collect()
    }

    /// Pin and execute ([`Self::pin_all`] + [`Self::execute_on`]).
    pub fn execute(&self, query: &Query) -> ShardedResponse {
        let pins = self.pin_all();
        self.execute_on(&pins, query)
    }

    /// Scatter `query` over the pinned shard set and gather the exact
    /// merged answer.
    pub fn execute_on(&self, pins: &[Arc<ShardSnapshot>], query: &Query) -> ShardedResponse {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let answer = crate::read::answer(pins, |q| self.plans.plan(q), query);
        ShardedResponse {
            vector: pins
                .iter()
                .map(|p| ShardStamp {
                    shard: p.shard(),
                    version: p.version(),
                    digest: p.partial_digest(),
                })
                .collect(),
            answer,
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats {
            publishes: self.publishes.load(Ordering::SeqCst),
            queries: self.queries.load(Ordering::Relaxed),
        }
    }

    /// The shared compiled-plan cache (counters prove plans survive both
    /// shard republication and epoch turnover).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::KgSnapshot;
    use kg_graph::Value;

    /// A small KG with cross-shard edges at any shard count: malware →
    /// files/domains/techniques plus free-text search docs.
    fn demo() -> (GraphStore, SearchIndex<NodeId>) {
        let mut graph = GraphStore::new();
        let m1 = graph.merge_node("Malware", "wannacry", [] as [(&str, Value); 0]);
        let m2 = graph.merge_node("Malware", "emotet", [] as [(&str, Value); 0]);
        let f = graph.merge_node("FileName", "tasksche.exe", [] as [(&str, Value); 0]);
        let d = graph.merge_node("Domain", "kill.switch.test", [] as [(&str, Value); 0]);
        let t = graph.merge_node("Technique", "smb exploitation", [] as [(&str, Value); 0]);
        let a = graph.merge_node("ThreatActor", "lazarus group", [] as [(&str, Value); 0]);
        graph.merge_edge(m1, "DROP", f).unwrap();
        graph.merge_edge(m1, "CONNECTS_TO", d).unwrap();
        graph.merge_edge(m1, "ATTRIBUTED_TO", a).unwrap();
        graph.merge_edge(a, "USES", t).unwrap();
        graph.merge_edge(m2, "USES", t).unwrap();
        let mut search = SearchIndex::default();
        search.add(
            m1,
            "wannacry ransomware encrypts files and drops tasksche.exe",
        );
        search.add(m2, "emotet banking trojan spreads via phishing");
        search.add(f, "tasksche.exe dropped by wannacry smb exploit");
        search.add(a, "lazarus group threat actor north korea");
        (graph, search)
    }

    fn queries() -> Vec<Query> {
        vec![
            Query::Search {
                q: "wannacry".into(),
                k: 5,
            },
            Query::Search {
                q: "wannacry smb banking".into(),
                k: 3,
            },
            Query::Cypher {
                q: "MATCH (m:Malware)-[:ATTRIBUTED_TO]->(a)-[:USES]->(t) RETURN t.name".into(),
            },
            Query::Cypher {
                q: "MATCH (x)-[:USES]->(t) RETURN t.name, count(x) AS n ORDER BY count(x) DESC"
                    .into(),
            },
            Query::Cypher {
                q: "not cypher at all".into(),
            },
            Query::Expand {
                name: "WannaCry".into(),
                hops: 2,
                cap: 10,
            },
            Query::Expand {
                name: "nobody".into(),
                hops: 2,
                cap: 10,
            },
        ]
    }

    #[test]
    fn one_cursor_serves_every_shard() {
        let (mut graph, search) = demo();
        let mut set = ShardSet::new(&mut graph, &search, 3);
        let m1 = graph.node_by_name("Malware", "wannacry").unwrap();
        graph
            .set_node_prop(m1, "name", Value::from("wcry"))
            .unwrap();
        graph.merge_node("Tool", "mimikatz", [] as [(&str, Value); 0]);
        // Freezing any one shard absorbs the delta for all of them, so no
        // other shard's unread batches pin the log.
        set.freeze_shard(1, &mut graph, &search);
        assert_eq!(graph.delta_backlog(), 0);
        let snapshots = set.freeze_all(&mut graph, &search);
        let partials = snapshots
            .iter()
            .fold(DIGEST_SEED, |acc, s| acc.wrapping_add(s.partial_digest()));
        assert_eq!(partials, graph.digest());
    }

    #[test]
    fn sharded_answers_match_single_snapshot_at_every_shard_count() {
        for shards in [1usize, 2, 3, 5] {
            let (mut graph, search) = demo();
            let oracle = KgSnapshot::build(graph.clone(), search.clone());
            let mut set = ShardSet::new(&mut graph, &search, shards);
            let serve = ShardedServe::new(set.freeze_all(&mut graph, &search));
            for query in queries() {
                let response = serve.execute(&query);
                assert_eq!(
                    response.answer,
                    oracle.answer(&query),
                    "{query:?} at {shards} shards"
                );
                assert_eq!(response.vector.len(), shards);
                assert_eq!(response.combined_digest(), graph.digest());
            }
        }
    }

    #[test]
    fn partial_digests_sum_to_the_whole_graph_digest_across_epochs() {
        let (mut graph, mut search) = demo();
        let mut set = ShardSet::new(&mut graph, &search, 4);
        let serve = ShardedServe::new(set.freeze_all(&mut graph, &search));
        assert_eq!(combined_digest(&serve.pin_all()), graph.digest());

        // Mutate: rename (ownership migration incl. outgoing edges),
        // delete, create, new doc — then republish shard by shard.
        let m2 = graph.node_by_name("Malware", "emotet").unwrap();
        graph
            .set_node_prop(m2, "name", Value::from("heodo"))
            .unwrap();
        let f = graph.node_by_name("FileName", "tasksche.exe").unwrap();
        graph.delete_node(f).unwrap();
        let new = graph.merge_node("Tool", "mimikatz", [] as [(&str, Value); 0]);
        graph.merge_edge(m2, "USES", new).unwrap();
        search.add(new, "mimikatz credential dumping tool");

        for shard in 0..set.shards() {
            serve.publish_shard(set.freeze_shard(shard, &mut graph, &search));
        }
        let pins = serve.pin_all();
        assert_eq!(combined_digest(&pins), graph.digest());

        // And the answers still match a fresh full rebuild.
        let oracle = KgSnapshot::build(graph.clone(), search.clone());
        for query in queries() {
            assert_eq!(
                serve.execute_on(&pins, &query).answer,
                oracle.answer(&query),
                "{query:?}"
            );
        }
    }

    #[test]
    fn per_shard_publishes_are_independent_and_stamped() {
        let (mut graph, search) = demo();
        let mut set = ShardSet::new(&mut graph, &search, 2);
        let serve = ShardedServe::new(set.freeze_all(&mut graph, &search));
        let before = serve.pin_all();

        graph.merge_node("Malware", "qbot", [] as [(&str, Value); 0]);
        let v = serve.publish_shard(set.freeze_shard(0, &mut graph, &search));
        assert!(v > 2);
        let after = serve.pin_all();
        // Shard 0 moved, shard 1 is the very same Arc'd epoch.
        assert_eq!(after[0].version(), v);
        assert!(Arc::ptr_eq(&before[1], &after[1]));
        // The response vector names the mixed epoch combination.
        let response = serve.execute(&Query::Search {
            q: "wannacry".into(),
            k: 3,
        });
        assert_eq!(response.vector[0].version, v);
        assert_eq!(response.vector[1].version, before[1].version());
        assert_eq!(serve.stats().queries, 1);
        assert_eq!(serve.stats().publishes, 3);
    }
}
