//! Differential property tests for the compiled Cypher planner: a
//! [`CompiledPlan`] bound to any snapshot must be **indistinguishable** from
//! the interpreted reference executor (`cypher::execute_read_with_params`) —
//! same columns, same rows, same error strings — over arbitrary
//! mutate/publish interleavings that include deletes, renames (which churn
//! the lazy property index) and duplicate names.
//!
//! Four angles:
//! - plan-vs-interpreter equality on the live [`GraphStore`] for every scan
//!   shape the planner can choose (full, label, name-index, prop-index from
//!   a map literal, prop-index lifted from WHERE, `$param`-lifted);
//! - var-length patterns on a frozen [`KgSnapshot`] (k-hop adjacency fast
//!   path) vs the same plan on the raw store (edge-walk fallback) vs the
//!   interpreter;
//! - scatter/gather at shard counts 1 and 4 reassembling to the
//!   interpreter's answer;
//! - plan-cache coherence: a plan cached before a publish, re-bound to the
//!   new epoch, answers exactly like a fresh compile (zero recompiles).

use proptest::prelude::*;
use securitykg::graph::cypher::execute_read_with_params;
use securitykg::graph::{parse, CompiledPlan, GraphSnapshot, GraphStore, NodeId, Params, Value};
use securitykg::search::SearchIndex;
use securitykg::serve::{KgSnapshot, PlanCache};

const LABELS: [&str; 3] = ["Malware", "Tool", "FileName"];

/// Same mutation alphabet as `shard_props`/`epoch_props`: merges, duplicate
/// names, prop writes, renames, node/edge deletes, edge merges.
fn apply_op(graph: &mut GraphStore, op: u8, a: u8, b: u8) {
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
            // Rename: mutates the indexed "name" key, so the lazy property
            // index must shed the old posting and pick up the new one.
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
                let _ = graph.set_node_prop(id, "seen", Value::from((b as i64) + 1));
            }
        }
    }
}

fn seeded_graph(ops: &[(u8, u8, u8)]) -> GraphStore {
    let mut graph = GraphStore::new();
    graph.merge_node("Malware", "entity-3", [("seen", Value::from(1i64))]);
    for (op, a, b) in ops {
        apply_op(&mut graph, *op, *a, *b);
    }
    graph
}

/// One probe per scan shape the planner can pick, plus every projection
/// feature (aggregates, DISTINCT/SKIP/LIMIT, ORDER BY), parameter binding,
/// a missing-parameter error and a write rejection.
fn probes() -> Vec<(&'static str, Params)> {
    let mut with_who = Params::new();
    with_who.insert("who".into(), Value::from("entity-5"));
    let mut with_w = Params::new();
    with_w.insert("w".into(), Value::from(2i64));
    vec![
        ("MATCH (n) RETURN n.name ORDER BY n.name", Params::new()),
        ("MATCH (n:Malware) RETURN n", Params::new()),
        ("MATCH (n:Tool {name: 'entity-3'}) RETURN n", Params::new()),
        ("MATCH (n {name: 'dup-2'}) RETURN n", Params::new()),
        (
            "MATCH (n) WHERE n.name = 'renamed-4' RETURN n",
            Params::new(),
        ),
        (
            "MATCH (n) WHERE n.name = $who RETURN n.name, n.seen",
            with_who,
        ),
        ("MATCH (n) WHERE n.name = $who RETURN n", Params::new()),
        (
            "MATCH (n) WHERE n.name = 'dup-1' AND n.weight = $w RETURN n",
            with_w,
        ),
        ("MATCH (n) WHERE n.weight > 3 RETURN n.name", Params::new()),
        (
            "MATCH (a)-[:RELATED_TO]->(b) RETURN a.name, b.name",
            Params::new(),
        ),
        ("MATCH (a)-[*1..3]->(b) RETURN a, b", Params::new()),
        ("MATCH (a)-[*1..2]-(b) RETURN count(*)", Params::new()),
        (
            "MATCH (a)-[:RELATED_TO]->(b) RETURN a.name, count(b) ORDER BY count(b) DESC LIMIT 3",
            Params::new(),
        ),
        (
            "MATCH (n) RETURN DISTINCT n.name ORDER BY n.name SKIP 1 LIMIT 5",
            Params::new(),
        ),
        ("CREATE (n:Intruder {name: 'nope'})", Params::new()),
    ]
}

/// Compiled result ≡ interpreted result: Ok sides byte-match on columns and
/// rows, Err sides render the same diagnostic.
fn assert_plan_matches_oracle<S>(
    snap: &S,
    graph: &GraphStore,
    text: &str,
    params: &Params,
) -> Result<(), TestCaseError>
where
    S: GraphSnapshot,
{
    let query = parse(text).expect("probe parses");
    let oracle = execute_read_with_params(graph, &query, params);
    let compiled = CompiledPlan::compile(&query).and_then(|plan| plan.execute_on(snap, params));
    match (oracle, compiled) {
        (Ok(want), Ok(got)) => {
            prop_assert_eq!(&want.columns, &got.columns, "columns diverged for {}", text);
            prop_assert_eq!(&want.rows, &got.rows, "rows diverged for {}", text);
        }
        (Err(want), Err(got)) => {
            prop_assert_eq!(
                want.to_string(),
                got.to_string(),
                "errors diverged for {}",
                text
            );
        }
        (want, got) => {
            return Err(TestCaseError::fail(format!(
                "oracle/compiled disagree on success for {text}: {want:?} vs {got:?}"
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Compiled ≡ interpreted directly on the mutable store, for every probe,
    /// after an arbitrary mutation history. This is the index-vs-full-scan
    /// row-set equality check: whichever access path the planner chose (and
    /// however stale the lazy prop index got through renames and deletes),
    /// the visible rows must match the interpreter's scan.
    #[test]
    fn compiled_equals_interpreted_on_the_live_store(
        ops in prop::collection::vec((0u8..16, 0u8..32, 0u8..32), 1..50),
    ) {
        let graph = seeded_graph(&ops);
        for (text, params) in probes() {
            assert_plan_matches_oracle(&graph, &graph, text, &params)?;
        }
    }

    /// Var-length patterns through the frozen snapshot's k-hop adjacency
    /// take a different code path than the edge-walk fallback on the raw
    /// store; both must equal the interpreter.
    #[test]
    fn khop_fast_path_equals_edge_walk_and_oracle(
        ops in prop::collection::vec((0u8..16, 0u8..32, 0u8..32), 1..40),
    ) {
        let graph = seeded_graph(&ops);
        let snapshot = KgSnapshot::build(graph.clone(), SearchIndex::default());
        for hops in ["*1..1", "*1..2", "*2..3", "*1..4"] {
            let text = format!("MATCH (a)-[{hops}]-(b) RETURN a, b ORDER BY b.name");
            // Fast path: KgSnapshot carries precomputed adjacency.
            assert_plan_matches_oracle(&snapshot, &graph, &text, &Params::new())?;
            // Fallback: the bare store walks edges level by level.
            assert_plan_matches_oracle(&graph, &graph, &text, &Params::new())?;
            // Directed/typed variants never use the adjacency table.
            let text = format!("MATCH (a)-[{hops}]->(b) RETURN count(*)");
            assert_plan_matches_oracle(&snapshot, &graph, &text, &Params::new())?;
        }
    }

    /// Scatter/gather over synthetic ownership partitions (1 and 4 shards)
    /// reassembles exactly the interpreter's answer — rows, or the rendered
    /// error — for every probe the planner accepts, including aggregates,
    /// ORDER/SKIP/LIMIT and var-length paths.
    #[test]
    fn scatter_gather_reassembles_the_unsharded_answer(
        ops in prop::collection::vec((0u8..16, 0u8..32, 0u8..32), 1..40),
    ) {
        let graph = seeded_graph(&ops);
        let snapshot = KgSnapshot::build(graph.clone(), SearchIndex::default());
        for shards in [1usize, 4] {
            for (text, params) in probes() {
                let query = parse(text).expect("probe parses");
                let Ok(plan) = CompiledPlan::compile(&query) else {
                    continue; // write rejection: no plan to scatter
                };
                let whole = execute_read_with_params(&graph, &query, &params);
                let mut rows = Vec::new();
                let mut failed = None;
                for shard in 0..shards {
                    let owns = |id: NodeId| id.0 as usize % shards == shard;
                    match plan.scatter_on(&snapshot, &params, &owns) {
                        Ok(part) => rows.extend(part),
                        Err(e) => failed = failed.or(Some(e)),
                    }
                }
                match (whole, failed) {
                    (Ok(want), None) => {
                        let got = plan.gather(rows);
                        prop_assert_eq!(&want.columns, &got.columns, "{} columns @{} shards", text, shards);
                        prop_assert_eq!(&want.rows, &got.rows, "{} rows @{} shards", text, shards);
                    }
                    (Err(want), Some(got)) => {
                        prop_assert_eq!(want.to_string(), got.to_string(), "{} @{} shards", text, shards);
                    }
                    (want, got) => {
                        return Err(TestCaseError::fail(format!(
                            "oracle/scatter disagree on success for {text}: {want:?} vs {got:?}"
                        )));
                    }
                }
            }
        }
    }

    /// Plan-cache coherence across epochs: compile once through the cache,
    /// then after every publish the *same* `Arc`'d plan — never recompiled —
    /// answers each new snapshot exactly like a fresh compile and the
    /// interpreter.
    #[test]
    fn cached_plans_stay_coherent_across_publishes(
        rounds in prop::collection::vec(
            prop::collection::vec((0u8..16, 0u8..32, 0u8..32), 1..10),
            1..5
        ),
    ) {
        let cache = PlanCache::new(64);
        let texts: Vec<&str> = probes()
            .iter()
            .map(|(t, _)| *t)
            .filter(|t| !t.starts_with("CREATE"))
            .collect();
        let originals: Vec<_> = texts.iter().map(|t| cache.plan(t).unwrap()).collect();
        let mut graph = GraphStore::new();
        graph.merge_node("Malware", "entity-3", [("seen", Value::from(1i64))]);
        for ops in rounds {
            for (op, a, b) in ops {
                apply_op(&mut graph, op, a, b);
            }
            // Publish a fresh epoch; the cache must not recompile anything.
            let snapshot = KgSnapshot::build(graph.clone(), SearchIndex::default());
            for ((text, params), original) in probes()
                .into_iter()
                .filter(|(t, _)| !t.starts_with("CREATE"))
                .zip(&originals)
            {
                let cached = cache.plan(text).unwrap();
                prop_assert!(
                    std::sync::Arc::ptr_eq(&cached, original),
                    "plan for {} was recompiled after a publish",
                    text
                );
                let fresh = CompiledPlan::compile(&parse(text).unwrap()).unwrap();
                let from_cache = cached.execute_on(&snapshot, &params);
                let from_fresh = fresh.execute_on(&snapshot, &params);
                match (&from_cache, &from_fresh) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(&a.columns, &b.columns);
                        prop_assert_eq!(&a.rows, &b.rows);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                    _ => return Err(TestCaseError::fail(format!(
                        "cached/fresh disagree on success for {text}"
                    ))),
                }
                assert_plan_matches_oracle(&snapshot, &graph, text, &params)?;
            }
        }
        prop_assert_eq!(cache.stats().compiles, texts.len() as u64);
    }
}
