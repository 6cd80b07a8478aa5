//! O(delta) snapshot freezing: the incremental epoch builder.
//!
//! [`KgSnapshot::build`] is O(entire graph) per publish — it hashes every
//! element for the digest and walks every adjacency list. As the KG grows,
//! each publish stalls the ingest writer for time proportional to everything
//! ever ingested, not to what changed since the previous epoch. An
//! [`EpochBuilder`] sits beside the writer and carries the digest and
//! adjacency table forward across epochs:
//!
//! - the **digest** is the commutative per-element sum from
//!   [`kg_graph::GraphStore::digest`] — patching it for a touched element is
//!   `wrapping_sub(old term)` + `wrapping_add(new term)`;
//! - the **adjacency table** re-freezes only the nodes whose edge sets the
//!   delta touched (each list individually `Arc`'d, untouched entries are
//!   shared with every previous epoch);
//! - the **graph and index clones** share what is `Arc`'d and copy the
//!   rest. Shared: the `GraphStore` node/edge arena segments (the writer
//!   copies a segment when it next touches it), the graph's property index
//!   (one per graph version; the writer's next node mutation detaches to a
//!   fresh one) and each `SearchIndex` posting list. Copied on every clone, at a
//!   cost that grows with the graph (ROADMAP item 3): the graph's label and
//!   name indexes, its `out_edges`/`in_edges` maps, its touched sets and
//!   delta log, and the search index's term map.
//!
//! The same builder serves the sharded path ([`crate::ShardSet`]): built
//! with a shard count N, it keeps its terms and adjacency in N owner
//! slices, routed by canon key ([`kg_graph::node_shard`]; an edge goes with
//! its `from` node), so each slice's seedless term sum is that shard's
//! partial digest and its adjacency is that shard's owned partition. A
//! rename that changes a node's owner moves the node and its outgoing
//! edges to the new slice; nothing else ever moves. At N = 1 everything is
//! slice 0 and no canon key is hashed.
//!
//! Seeding ([`EpochBuilder::new`], `ShardSet::new`) is the builder's one
//! O(graph) moment: it routes every element and takes its digest term. A
//! graph recovery reassembled ([`kg_graph::GraphStore::from_hashed_segments`])
//! carries the terms its decode workers hashed, so seeding a restarted
//! server reads them ([`kg_graph::GraphStore::node_terms`]) instead of
//! writing each element's JSON again. Any element mutation drops the
//! carried terms, so a builder seeded after one hashes what it needs and
//! never reads a stale term; clones taken earlier keep theirs.
//!
//! The builder does not re-apply `GraphDelta`s itself — apply is not
//! delta-pure (canon commit re-resolves against the live table), so the
//! builder instead *observes* the writer's graph through the store's delta
//! log: it registers one [`kg_graph::DeltaCursor`] at seeding time and each
//! absorb collects the sealed batches that cursor has not seen yet
//! ([`kg_graph::GraphStore::collect_changes`]) — whatever the writer did,
//! the batches name every element whose digest term or adjacency entry may
//! have moved. The log is multi-consumer: standing-query subscriptions
//! (`crate::subscribe`) read the same batches through their own cursor
//! without racing the builder. The full-rebuild path stays as the
//! correctness oracle (see `tests/epoch_props.rs` at the workspace root).

use crate::snapshot::KgSnapshot;
use kg_graph::store::Node;
use kg_graph::{
    edge_digest, node_digest, node_shard, DeltaBatch, DeltaCursor, EdgeId, GraphStore, NodeId,
    DIGEST_SEED,
};
use kg_search::SearchIndex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// One shard's share of the builder: the digest terms and adjacency of
/// the live elements it owns.
#[derive(Default)]
#[cfg_attr(test, derive(Debug, PartialEq))]
pub(crate) struct Slice {
    node_terms: HashMap<NodeId, u64>,
    edge_terms: HashMap<EdgeId, u64>,
    /// Seedless wrapping sum of the owned terms: the shard's partial digest.
    pub(crate) partial: u64,
    /// Owned live nodes → neighbours, individually `Arc`'d.
    pub(crate) adjacency: HashMap<NodeId, Arc<Vec<NodeId>>>,
}

impl Slice {
    fn add_node(&mut self, id: NodeId, term: u64) {
        self.node_terms.insert(id, term);
        self.partial = self.partial.wrapping_add(term);
    }

    fn add_edge(&mut self, id: EdgeId, term: u64) {
        self.edge_terms.insert(id, term);
        self.partial = self.partial.wrapping_add(term);
    }

    /// Drop `id`'s node term; whether this slice held it.
    fn remove_node(&mut self, id: NodeId) -> bool {
        let Some(term) = self.node_terms.remove(&id) else {
            return false;
        };
        self.partial = self.partial.wrapping_sub(term);
        true
    }

    /// Drop `id`'s edge term; whether this slice held it.
    fn remove_edge(&mut self, id: EdgeId) -> bool {
        let Some(term) = self.edge_terms.remove(&id) else {
            return false;
        };
        self.partial = self.partial.wrapping_sub(term);
        true
    }
}

/// Maintains digest + adjacency across epochs so freezing a snapshot costs
/// O(elements touched since the last freeze) instead of O(graph).
pub struct EpochBuilder {
    /// One slice per shard; exactly one for an unsharded builder.
    slices: Vec<Slice>,
    /// This builder's cursor on the writer's delta log (reader #1).
    cursor: DeltaCursor,
}

impl EpochBuilder {
    /// Seed an unsharded builder from the writer's live graph with one full
    /// scan — the only O(graph) moment in the builder's lifetime.
    pub fn new(graph: &mut GraphStore) -> Self {
        Self::sharded(graph, 1)
    }

    /// Seed a builder split into `shards` owner slices with one scan: each
    /// element's owner is computed once, and its digest term is read from
    /// the graph ([`GraphStore::node_terms`]) — the term recovery hashed
    /// when the store was reassembled and has not changed since, else
    /// hashed here. Registering the cursor positions it after any changes
    /// the store had already tracked, so they are skipped (the scan sees
    /// them).
    pub(crate) fn sharded(graph: &mut GraphStore, shards: usize) -> Self {
        let mut builder = EpochBuilder {
            slices: (0..shards.max(1)).map(|_| Slice::default()).collect(),
            cursor: graph.register_delta_consumer(),
        };
        // Node ids are slot indexes, so a dense table hands each edge its
        // `from` node's owner; unsharded, every owner is 0 and it stays empty.
        let slots = if shards > 1 {
            graph.node_slot_count()
        } else {
            0
        };
        let mut owner_of_slot = vec![0usize; slots];
        for (node, term) in graph.node_terms() {
            let shard = builder.route(node);
            if let Some(owner) = owner_of_slot.get_mut(node.id.0 as usize) {
                *owner = shard;
            }
            let slice = &mut builder.slices[shard];
            slice.add_node(node.id, term);
            slice
                .adjacency
                .insert(node.id, Arc::new(graph.neighbors(node.id)));
        }
        for (edge, term) in graph.edge_terms() {
            let shard = owner_of_slot
                .get(edge.from.0 as usize)
                .copied()
                .unwrap_or(0);
            builder.slices[shard].add_edge(edge.id, term);
        }
        builder
    }

    /// The shard a live node belongs to by canon key; no hashing unsharded.
    fn route(&self, node: &Node) -> usize {
        match self.slices.len() {
            1 => 0,
            shards => node_shard(node, shards),
        }
    }

    /// The slice holding `id`'s term — its owner as of the last absorb —
    /// or `None` for a node that is not live.
    pub(crate) fn owner(&self, id: NodeId) -> Option<usize> {
        self.slices
            .iter()
            .position(|slice| slice.node_terms.contains_key(&id))
    }

    /// Collect the delta batches this builder's cursor has not seen yet and
    /// patch digest + adjacency: O(delta).
    pub fn absorb(&mut self, graph: &mut GraphStore) {
        for batch in graph.collect_changes(self.cursor) {
            self.apply_batch(graph, &batch);
        }
    }

    /// Drop an edge's tracked term and re-add it to its `from` node's slice
    /// iff the edge is live — the one routine every edge path (edge delta,
    /// owner-changing rename) funnels through.
    fn reroute_edge(&mut self, graph: &GraphStore, id: EdgeId) {
        self.slices.iter_mut().any(|slice| slice.remove_edge(id));
        if let Some(edge) = graph.edge(id) {
            // A live edge's `from` node is live (deletes cascade), so the
            // fallback never fires.
            let shard = match self.slices.len() {
                1 => 0,
                _ => self.owner(edge.from).unwrap_or(0),
            };
            self.slices[shard].add_edge(id, edge_digest(edge));
        }
    }

    /// Patch terms + adjacency for one sealed batch. Terms and owners are
    /// re-read from the *live* graph, so applying consecutive batches that
    /// touch the same element converges on the same state as one merged
    /// batch.
    fn apply_batch(&mut self, graph: &GraphStore, batch: &DeltaBatch) {
        // Nodes whose adjacency entry must be re-frozen.
        let mut dirty: BTreeSet<NodeId> = BTreeSet::new();
        // Nodes first: an edge is routed by its `from` node's slice.
        for &id in &batch.changes.nodes {
            let old = self
                .slices
                .iter_mut()
                .position(|slice| slice.remove_node(id));
            let new = graph.node(id).map(|node| {
                let shard = self.route(node);
                self.slices[shard].add_node(id, node_digest(node));
                shard
            });
            if let Some(old) = old.filter(|&old| Some(old) != new) {
                self.slices[old].adjacency.remove(&id);
                // A rename that changes the owner takes the node's outgoing
                // edges along, with no edge delta to say so.
                if new.is_some() {
                    for edge in graph.outgoing_iter(id) {
                        self.reroute_edge(graph, edge.id);
                    }
                }
            }
            dirty.insert(id);
        }
        for &(id, from, to) in &batch.changes.edges {
            self.reroute_edge(graph, id);
            dirty.insert(from);
            dirty.insert(to);
        }
        for id in dirty {
            if let Some(shard) = self.owner(id) {
                self.slices[shard]
                    .adjacency
                    .insert(id, Arc::new(graph.neighbors(id)));
            }
        }
    }

    /// The digest the next frozen snapshot will carry (before any pending
    /// un-absorbed changes): the seed plus every slice's partial.
    pub fn digest(&self) -> u64 {
        self.slices
            .iter()
            .fold(DIGEST_SEED, |acc, slice| acc.wrapping_add(slice.partial))
    }

    /// One shard's slice, as of the last absorb.
    pub(crate) fn slice(&self, shard: usize) -> &Slice {
        &self.slices[shard]
    }

    /// Absorb pending changes and freeze the current graph + index state
    /// into a publishable snapshot. The clones share the `Arc`'d parts
    /// (arena segments, property index, posting lists) and copy the rest
    /// (see the module docs). Sharded builders freeze per shard through
    /// [`crate::ShardSet`] instead.
    pub fn freeze(&mut self, graph: &mut GraphStore, search: &SearchIndex<NodeId>) -> KgSnapshot {
        debug_assert_eq!(
            self.slices.len(),
            1,
            "whole-graph freeze of a sharded builder"
        );
        let start = Instant::now();
        self.absorb(graph);
        KgSnapshot::from_parts(
            graph.clone(),
            search.clone(),
            self.slices[0].adjacency.clone(),
            self.digest(),
            start.elapsed().as_micros() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotMode;
    use kg_graph::{SegmentTerms, Value};

    /// A history the slices must see through: tombstoned slots, cascaded
    /// edges, renames (owner migration, outgoing edges included) and
    /// unnamed nodes. `step` runs after every round.
    fn history(graph: &mut GraphStore, mut step: impl FnMut(&mut GraphStore)) {
        let m = graph.merge_node("Malware", "emotet", [] as [(&str, Value); 0]);
        let t = graph.merge_node("Technique", "smb exploitation", [] as [(&str, Value); 0]);
        let anon = graph.create_node("Indicator", [("score", Value::Int(3))]);
        graph.merge_edge(anon, "INDICATES", t).unwrap();
        graph.merge_edge(t, "RELATED", m).unwrap();
        for i in 0..40 {
            let n = graph.merge_node("Tool", &format!("tool{i}"), [] as [(&str, Value); 0]);
            graph.merge_edge(m, "USES", n).unwrap();
            graph.merge_edge(n, "RELATED", t).unwrap();
            if i % 3 == 0 {
                graph
                    .set_node_prop(n, "name", Value::from(format!("renamed{i}")))
                    .unwrap();
            }
            if i % 5 == 0 {
                graph
                    .set_node_prop(m, "name", Value::from(format!("heodo{i}")))
                    .unwrap();
            }
            if i % 7 == 0 {
                graph.delete_node(n).unwrap();
            }
            step(graph);
        }
    }

    /// The per-shard reference partition: every shard walks the whole
    /// graph and keeps what it owns by the live canon key.
    fn reference_slice(graph: &GraphStore, shard: usize, shards: usize) -> Slice {
        let mut slice = Slice::default();
        for node in graph.all_nodes() {
            if node_shard(node, shards) == shard {
                slice.add_node(node.id, node_digest(node));
                slice
                    .adjacency
                    .insert(node.id, Arc::new(graph.neighbors(node.id)));
            }
        }
        for edge in graph.all_edges() {
            if node_shard(graph.node(edge.from).unwrap(), shards) == shard {
                slice.add_edge(edge.id, edge_digest(edge));
            }
        }
        slice
    }

    #[test]
    fn seeded_and_absorbed_slices_equal_the_per_shard_scan() {
        for shards in [1usize, 2, 3, 4, 7] {
            let mut graph = GraphStore::new();
            graph.merge_node("Malware", "wannacry", [] as [(&str, Value); 0]);
            // One builder absorbs every round, one absorbs the whole history
            // at the end (one batch per round, the live graph far ahead),
            // one is seeded afterwards.
            let mut stepped = EpochBuilder::sharded(&mut graph, shards);
            let mut late = EpochBuilder::sharded(&mut graph, shards);
            history(&mut graph, |graph| {
                stepped.absorb(graph);
                graph.seal_changes();
            });
            late.absorb(&mut graph);
            let seeded = EpochBuilder::sharded(&mut graph, shards);
            for shard in 0..shards {
                let want = reference_slice(&graph, shard, shards);
                assert_eq!(seeded.slice(shard), &want, "{shards} shards, shard {shard}");
                assert_eq!(
                    stepped.slice(shard),
                    &want,
                    "{shards} shards, shard {shard}"
                );
                assert_eq!(late.slice(shard), &want, "{shards} shards, shard {shard}");
            }
            assert_eq!(seeded.digest(), graph.digest());
        }
    }

    /// What recovery hands the serving layer: `graph` cut into its arena
    /// segments, each hashed as a decode worker hashes it, and reassembled.
    fn recovered(graph: &GraphStore) -> GraphStore {
        let nodes = (0..graph.node_segment_count())
            .map(|i| {
                let slots = graph.node_segment_slots(i).unwrap().to_vec();
                let terms = SegmentTerms::of_nodes(&slots);
                (slots, terms)
            })
            .collect();
        let edges = (0..graph.edge_segment_count())
            .map(|i| {
                let slots = graph.edge_segment_slots(i).unwrap().to_vec();
                let terms = SegmentTerms::of_edges(&slots);
                (slots, terms)
            })
            .collect();
        GraphStore::from_hashed_segments(nodes, edges).unwrap()
    }

    /// The digest hashed term by term from the live elements.
    fn rehashed_digest(graph: &GraphStore) -> u64 {
        let nodes = graph.all_nodes().map(node_digest);
        let edges = graph.all_edges().map(edge_digest);
        nodes
            .chain(edges)
            .fold(DIGEST_SEED, |digest, term| digest.wrapping_add(term))
    }

    /// Element terms seeding a builder from `graph` hashes: none while
    /// `graph` carries the terms it was reassembled with.
    fn seeding_hashes(graph: &GraphStore) -> u64 {
        let before = kg_graph::terms_hashed_on_this_thread();
        EpochBuilder::new(&mut graph.clone());
        kg_graph::terms_hashed_on_this_thread() - before
    }

    /// Every seeding of `graph` — `EpochBuilder::new`, the builder
    /// `ShardSet::new` seeds at N = 1–4, and the shard snapshots it
    /// freezes — equals the fresh per-shard scan, and the graph's digest
    /// equals the term-by-term recomputation.
    fn assert_seeds_like_a_fresh_scan(graph: &GraphStore, what: &str) {
        assert_eq!(graph.digest(), rehashed_digest(graph), "{what}");
        let mut graph = graph.clone();
        let unsharded = EpochBuilder::new(&mut graph);
        assert_eq!(unsharded.slice(0), &reference_slice(&graph, 0, 1), "{what}");
        let search: SearchIndex<NodeId> = SearchIndex::default();
        for shards in 1..=4 {
            let seeded = EpochBuilder::sharded(&mut graph, shards);
            let frozen =
                crate::ShardSet::new(&mut graph, &search, shards).freeze_all(&mut graph, &search);
            for (shard, snapshot) in frozen.iter().enumerate() {
                let want = reference_slice(&graph, shard, shards);
                assert_eq!(seeded.slice(shard), &want, "{what}, {shards} shards");
                assert_eq!(snapshot.partial_digest(), want.partial, "{what}");
                assert_eq!(snapshot.owned_count(), want.adjacency.len(), "{what}");
            }
        }
    }

    #[test]
    fn recovered_terms_are_dropped_by_every_mutation_and_never_read_stale() {
        let mut source = GraphStore::new();
        history(&mut source, |_| {});
        let tool = source.node_by_name("Tool", "tool1").unwrap();
        let technique = source
            .node_by_name("Technique", "smb exploitation")
            .unwrap();
        let edge = source.outgoing_iter(tool).next().unwrap().id;
        type Mutation = fn(&mut GraphStore, NodeId, NodeId, EdgeId);
        let mutations: [(&str, Mutation); 10] = [
            ("create_node", |g, _, _, _| {
                g.create_node("Tool", [("name", Value::from("fresh"))]);
            }),
            ("merge_node, new", |g, _, _, _| {
                g.merge_node("Tool", "fresh", [] as [(&str, Value); 0]);
            }),
            ("merge_node, new property", |g, _, _, _| {
                g.merge_node("Technique", "smb exploitation", [("tactic", "lateral")]);
            }),
            ("node_mut", |g, n, _, _| {
                g.node_mut(n)
                    .unwrap()
                    .props
                    .insert("score".into(), Value::Int(9));
            }),
            ("set_node_prop", |g, n, _, _| {
                g.set_node_prop(n, "name", Value::from("renamed")).unwrap();
            }),
            ("delete_node", |g, n, _, _| g.delete_node(n).unwrap()),
            ("create_edge", |g, n, t, _| {
                g.create_edge(n, "USES", t, [("weight", Value::Int(2))])
                    .unwrap();
            }),
            ("merge_edge, new", |g, n, t, _| {
                g.merge_edge(t, "TARGETS", n).unwrap();
            }),
            ("edge_mut", |g, _, _, e| {
                g.edge_mut(e)
                    .unwrap()
                    .props
                    .insert("weight".into(), Value::Int(5));
            }),
            ("delete_edge", |g, _, _, e| g.delete_edge(e).unwrap()),
        ];
        for (what, mutate) in mutations {
            let before = recovered(&source);
            assert_eq!(seeding_hashes(&before), 0);
            assert_seeds_like_a_fresh_scan(&before, what);
            let mut after = before.clone();
            mutate(&mut after, tool, technique, edge);
            assert!(seeding_hashes(&after) > 0, "{what} kept the terms");
            assert_ne!(after.digest(), before.digest(), "{what} changed nothing");
            assert_seeds_like_a_fresh_scan(&after, what);
            // The clone taken before the mutation keeps its valid terms.
            assert_eq!(seeding_hashes(&before), 0, "{what}");
            assert_seeds_like_a_fresh_scan(&before, what);
        }
        // Calls that change no element keep the terms.
        let mut graph = recovered(&source);
        graph.merge_node("Technique", "smb exploitation", [] as [(&str, Value); 0]);
        graph.merge_edge(tool, "RELATED", technique).unwrap();
        graph.seal_changes();
        assert_eq!(seeding_hashes(&graph), 0);
        assert_seeds_like_a_fresh_scan(&graph, "no-op merges");
    }

    fn assert_equivalent(snap: &KgSnapshot, oracle: &KgSnapshot) {
        assert_eq!(snap.digest(), oracle.digest());
        assert_eq!(snap.node_count(), oracle.node_count());
        assert_eq!(snap.edge_count(), oracle.edge_count());
        assert_eq!(snap.adjacency_len(), oracle.adjacency_len());
        for node in oracle.graph().all_nodes() {
            assert_eq!(snap.neighbors(node.id), oracle.neighbors(node.id));
        }
    }

    #[test]
    fn incremental_freeze_matches_full_build_across_mutations() {
        let mut graph = GraphStore::new();
        let search: SearchIndex<NodeId> = SearchIndex::default();
        let m = graph.create_node("Malware", [("name", Value::from("wannacry"))]);
        let mut epoch = EpochBuilder::new(&mut graph);

        // Epoch 1: add nodes and edges.
        let f = graph.create_node("FileName", [("name", Value::from("tasksche.exe"))]);
        let d = graph.create_node("Domain", [("name", Value::from("kill.switch"))]);
        graph
            .create_edge(m, "DROP", f, [] as [(&str, Value); 0])
            .unwrap();
        let e2 = graph
            .create_edge(m, "CONNECTS_TO", d, [] as [(&str, Value); 0])
            .unwrap();
        let snap = epoch.freeze(&mut graph, &search);
        assert_eq!(snap.mode(), SnapshotMode::Incremental);
        assert_equivalent(&snap, &KgSnapshot::build(graph.clone(), search.clone()));

        // Epoch 2: mutate a node, delete an edge.
        graph
            .set_node_prop(m, "vendor", Value::from("talos"))
            .unwrap();
        graph.delete_edge(e2).unwrap();
        let snap = epoch.freeze(&mut graph, &search);
        assert_equivalent(&snap, &KgSnapshot::build(graph.clone(), search.clone()));

        // Epoch 3: delete a node (cascades through its edges).
        graph.delete_node(f).unwrap();
        let snap = epoch.freeze(&mut graph, &search);
        assert_equivalent(&snap, &KgSnapshot::build(graph.clone(), search.clone()));

        // Epoch 4: nothing changed — freeze is a near-no-op and still right.
        let snap = epoch.freeze(&mut graph, &search);
        assert_equivalent(&snap, &KgSnapshot::build(graph.clone(), search.clone()));
        assert_eq!(snap.digest(), graph.digest());
    }

    #[test]
    fn seeding_discards_previously_tracked_changes() {
        let mut graph = GraphStore::new();
        graph.create_node("Malware", [("name", Value::from("a"))]);
        // The create above is pending in the touched-set; seeding must not
        // double-count it (the full scan already sees the node).
        let mut epoch = EpochBuilder::new(&mut graph);
        assert_eq!(epoch.digest(), graph.digest());
        let search: SearchIndex<NodeId> = SearchIndex::default();
        let snap = epoch.freeze(&mut graph, &search);
        assert_eq!(snap.digest(), graph.digest());
    }

    #[test]
    fn old_epochs_stay_intact_while_writer_mutates() {
        let mut graph = GraphStore::new();
        let search: SearchIndex<NodeId> = SearchIndex::default();
        let m = graph.create_node("Malware", [("name", Value::from("x"))]);
        let f = graph.create_node("FileName", [("name", Value::from("y.exe"))]);
        graph
            .create_edge(m, "DROP", f, [] as [(&str, Value); 0])
            .unwrap();
        let mut epoch = EpochBuilder::new(&mut graph);
        let old = epoch.freeze(&mut graph, &search);
        let old_digest = old.digest();
        // Writer keeps going after the freeze.
        graph.delete_node(f).unwrap();
        graph.create_node("Tool", [("name", Value::from("t"))]);
        let new = epoch.freeze(&mut graph, &search);
        // The frozen epoch still answers from its own state.
        assert_eq!(old.digest(), old_digest);
        assert_eq!(old.node_count(), 2);
        assert_eq!(old.edge_count(), 1);
        assert_eq!(old.neighbors(m), &[f]);
        assert!(old.graph().node(f).is_some());
        // And the new epoch reflects the mutations.
        assert_ne!(new.digest(), old_digest);
        assert_eq!(new.node_count(), 2);
        assert_eq!(new.edge_count(), 0);
        assert!(new.neighbors(m).is_empty());
    }
}
