//! Property tests for the sharded scatter-gather serving path: a
//! [`ShardSet`] partitioned over any shard count, driven by arbitrary
//! mutate/publish interleavings, must stay **indistinguishable** from the
//! unsharded full-rebuild oracle `KgSnapshot::build` — same search ranking
//! (bit-identical scores, so identical orderings), same Cypher rows, same
//! BFS frontiers, same error strings — and its per-shard partial digests
//! must reassemble the live graph's canonical digest at every all-shard
//! publish barrier.
//!
//! The op set deliberately includes deletes, renames (which migrate a
//! node's canon-key ownership — and its outgoing edges — across shards) and
//! arbitrary-endpoint edges (cross-shard by construction once hashing
//! spreads the nodes).

use proptest::prelude::*;
use securitykg::graph::{edge_digest, node_digest, GraphStore, NodeId, Value};
use securitykg::search::SearchIndex;
use securitykg::serve::{KgSnapshot, Query, ShardSet, ShardedServe};

const LABELS: [&str; 3] = ["Malware", "Tool", "FileName"];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Apply one encoded mutation to the live graph/index (same op alphabet as
/// `epoch_props`). Operands index into the *current* live sets, so every op
/// is valid by construction.
fn apply_op(graph: &mut GraphStore, search: &mut SearchIndex<NodeId>, op: u8, a: u8, b: u8) {
    let live_nodes: Vec<NodeId> = graph.all_nodes().map(|n| n.id).collect();
    let pick = |sel: u8| {
        live_nodes
            .get(sel as usize % live_nodes.len().max(1))
            .copied()
    };
    match op % 8 {
        0 => {
            let label = LABELS[a as usize % LABELS.len()];
            graph.merge_node(
                label,
                &format!("entity-{}", b % 12),
                [("seen", Value::from(1i64))],
            );
        }
        1 => {
            let label = LABELS[a as usize % LABELS.len()];
            graph.create_node(label, [("name", Value::from(format!("dup-{}", b % 6)))]);
        }
        2 => {
            if let Some(id) = pick(a) {
                let _ = graph.set_node_prop(id, "weight", Value::from(b as i64));
            }
        }
        3 => {
            // Rename: moves the node's canon key, so its shard ownership —
            // and that of every edge hanging off it — migrates.
            if let Some(id) = pick(a) {
                let _ = graph.set_node_prop(id, "name", Value::from(format!("renamed-{}", b % 10)));
            }
        }
        4 => {
            if let Some(id) = pick(a) {
                let _ = graph.delete_node(id);
            }
        }
        5 => {
            if let (Some(from), Some(to)) = (pick(a), pick(b.wrapping_add(1))) {
                let _ = graph.merge_edge(from, "RELATED_TO", to);
            }
        }
        6 => {
            let live_edges: Vec<_> = graph.all_edges().map(|e| e.id).collect();
            if !live_edges.is_empty() {
                let _ = graph.delete_edge(live_edges[a as usize % live_edges.len()]);
            }
        }
        _ => {
            if let Some(id) = pick(a) {
                search.add(id, &format!("report about entity-{} campaign", b % 12));
            }
        }
    }
}

/// Every query class the serving layer answers, including duplicate search
/// terms (the BM25 accumulation-order trap), aggregates, DISTINCT/SKIP/
/// LIMIT, multi-hop patterns, a write rejection and a parse error.
fn probe_queries() -> Vec<Query> {
    vec![
        Query::Search {
            q: "entity-3 entity-3 campaign".into(),
            k: 8,
        },
        Query::Search {
            q: "renamed-4 report".into(),
            k: 5,
        },
        Query::Cypher {
            q: "MATCH (n:Malware) RETURN count(*)".into(),
        },
        Query::Cypher {
            q: "MATCH (a)-[:RELATED_TO]->(b) RETURN a, b".into(),
        },
        Query::Cypher {
            q: "MATCH (n) RETURN DISTINCT n.name ORDER BY n.name SKIP 1 LIMIT 6".into(),
        },
        Query::Cypher {
            q: "MATCH (a)-[:RELATED_TO]->(b) RETURN a.name, count(b) ORDER BY count(b) DESC LIMIT 4"
                .into(),
        },
        Query::Cypher {
            q: "CREATE (n:Intruder {name: 'nope'})".into(),
        },
        Query::Cypher {
            q: "MATCH (((".into(),
        },
        Query::Expand {
            name: "entity-3".into(),
            hops: 2,
            cap: 20,
        },
        Query::Expand {
            name: "no-such-entity".into(),
            hops: 1,
            cap: 10,
        },
    ]
}

/// The differential oracle: at an all-shard barrier the scatter-gather
/// answer must byte-match the unsharded snapshot on every probe, the
/// response's stamp vector must reassemble the live graph digest, and the
/// partition itself must be exact — the shards' owned node sets are
/// disjoint and cover every live node, each owned node's adjacency slice
/// equals the oracle's, and each shard's partial digest sums exactly the
/// terms of its owned nodes and of the edges leaving them.
fn assert_matches_oracle(
    serve: &ShardedServe,
    oracle: &KgSnapshot,
    live_digest: u64,
) -> Result<(), TestCaseError> {
    let pins = serve.pin_all();
    for node in oracle.graph().all_nodes() {
        let owners: Vec<usize> = pins
            .iter()
            .filter(|pin| pin.owns(node.id))
            .map(|pin| pin.shard())
            .collect();
        prop_assert_eq!(
            owners.len(),
            1,
            "node {:?} owned by shards {:?}",
            node.id,
            owners
        );
        prop_assert_eq!(
            pins[owners[0]].neighbors(node.id),
            oracle.neighbors(node.id),
            "adjacency slice of {:?} diverged at {} shard(s)",
            node.id,
            serve.shards()
        );
    }
    let owned: usize = pins.iter().map(|pin| pin.owned_count()).sum();
    prop_assert_eq!(owned, oracle.node_count(), "a shard owns a dead node");
    for pin in &pins {
        let graph = oracle.graph();
        let nodes = graph
            .all_nodes()
            .filter(|n| pin.owns(n.id))
            .map(node_digest);
        let edges = graph
            .all_edges()
            .filter(|e| pin.owns(e.from))
            .map(edge_digest);
        let partial = nodes.chain(edges).fold(0u64, u64::wrapping_add);
        prop_assert_eq!(
            pin.partial_digest(),
            partial,
            "partial digest of shard {} holds another shard's terms",
            pin.shard()
        );
    }
    for query in probe_queries() {
        let response = serve.execute(&query);
        prop_assert_eq!(
            &response.answer,
            &oracle.answer(&query),
            "answer diverged at {} shard(s) for {:?}",
            serve.shards(),
            query
        );
        prop_assert_eq!(response.vector.len(), serve.shards());
        prop_assert_eq!(
            response.combined_digest(),
            live_digest,
            "stamp vector does not reassemble the live digest at {} shard(s)",
            serve.shards()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random mutation sequences with all-shard publish barriers sprinkled
    /// between them: at every barrier, every shard count answers byte-
    /// identically to the N=1 rebuild oracle.
    #[test]
    fn sharded_answers_equal_the_unsharded_oracle(
        ops in prop::collection::vec((0u8..16, 0u8..32, 0u8..32), 1..45),
        freeze_every in 1usize..7
    ) {
        for shards in SHARD_COUNTS {
            let mut graph = GraphStore::new();
            let mut search: SearchIndex<NodeId> = SearchIndex::default();
            graph.merge_node("Malware", "entity-3", [("seen", Value::from(1i64))]);
            let mut set = ShardSet::new(&mut graph, &search, shards);
            let serve = ShardedServe::new(set.freeze_all(&mut graph, &search));
            for (i, (op, a, b)) in ops.iter().enumerate() {
                apply_op(&mut graph, &mut search, *op, *a, *b);
                if i % freeze_every == 0 {
                    for snapshot in set.freeze_all(&mut graph, &search) {
                        serve.publish_shard(snapshot);
                    }
                    let oracle = KgSnapshot::build(graph.clone(), search.clone());
                    assert_matches_oracle(&serve, &oracle, graph.digest())?;
                }
            }
            for snapshot in set.freeze_all(&mut graph, &search) {
                serve.publish_shard(snapshot);
            }
            let oracle = KgSnapshot::build(graph.clone(), search.clone());
            assert_matches_oracle(&serve, &oracle, graph.digest())?;
        }
    }

    /// Single-shard publishes interleaved with mutations: between barriers
    /// the cells intentionally hold mixed epochs (responses stay well-formed
    /// and stamped), and the next all-shard barrier snaps everything back to
    /// oracle equality — per-shard builders never miss deltas addressed to
    /// shards that published late.
    #[test]
    fn staggered_per_shard_publishes_converge_at_barriers(
        ops in prop::collection::vec((0u8..16, 0u8..32, 0u8..32), 1..40),
    ) {
        for shards in [2usize, 4, 7] {
            let mut graph = GraphStore::new();
            let mut search: SearchIndex<NodeId> = SearchIndex::default();
            graph.merge_node("Malware", "entity-3", [("seen", Value::from(1i64))]);
            let mut set = ShardSet::new(&mut graph, &search, shards);
            let serve = ShardedServe::new(set.freeze_all(&mut graph, &search));
            let mut versions = vec![0u64; shards];
            for (i, (op, a, b)) in ops.iter().enumerate() {
                apply_op(&mut graph, &mut search, *op, *a, *b);
                // Publish exactly one (rotating) shard: the others keep
                // serving stale epochs.
                let lone = i % shards;
                serve.publish_shard(set.freeze_shard(lone, &mut graph, &search));
                let response = serve.execute(&Query::Cypher {
                    q: "MATCH (n) RETURN count(*)".into(),
                });
                prop_assert_eq!(response.vector.len(), shards);
                for stamp in &response.vector {
                    // Versions are per-shard monotonic across the global
                    // publish counter.
                    prop_assert!(stamp.version >= versions[stamp.shard]);
                    versions[stamp.shard] = stamp.version;
                }
            }
            for snapshot in set.freeze_all(&mut graph, &search) {
                serve.publish_shard(snapshot);
            }
            let oracle = KgSnapshot::build(graph.clone(), search.clone());
            assert_matches_oracle(&serve, &oracle, graph.digest())?;
        }
    }

    /// Seeding the shard set at an arbitrary mid-history point (the
    /// recovery path) changes nothing: the first freeze already matches the
    /// oracle and reassembles the digest.
    #[test]
    fn late_seeded_shard_set_matches_oracle(
        pre in prop::collection::vec((0u8..16, 0u8..32, 0u8..32), 1..20),
        post in prop::collection::vec((0u8..16, 0u8..32, 0u8..32), 1..20)
    ) {
        let mut graph = GraphStore::new();
        let mut search: SearchIndex<NodeId> = SearchIndex::default();
        graph.merge_node("Malware", "entity-3", [("seen", Value::from(1i64))]);
        for (op, a, b) in pre {
            apply_op(&mut graph, &mut search, op, a, b);
        }
        let mut set = ShardSet::new(&mut graph, &search, 4);
        for (op, a, b) in post {
            apply_op(&mut graph, &mut search, op, a, b);
        }
        let serve = ShardedServe::new(set.freeze_all(&mut graph, &search));
        let oracle = KgSnapshot::build(graph.clone(), search.clone());
        assert_matches_oracle(&serve, &oracle, graph.digest())?;
    }
}
