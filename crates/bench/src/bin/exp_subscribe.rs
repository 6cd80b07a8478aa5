//! Experiment E14 — standing queries over the epoch delta stream.
//!
//! Subscriptions turn the paper's "continuously gathered" KG into push
//! alerts. The naive evaluation rescans every element of both snapshots per
//! subscription per publish — O(graph × subscriptions). The hub instead
//! evaluates each subscription against the *touched* elements only, read
//! from the delta log — O(delta × subscriptions) — so its cost must track
//! the delta, not the graph.
//!
//! This bench sweeps subscription count × delta size on a fixed mid-size
//! graph. For every cell it mutates `delta` elements, freezes an epoch,
//! evaluates all subscriptions incrementally, then runs the O(graph)
//! full-rescan oracle ([`rescan_matches`]) over the same snapshot pair —
//! asserting the match sets are identical and the mailbox accounting exact
//! (`matched == delivered + dropped`) before timing anything is trusted.
//! Machine-readable results land in `BENCH_e14.json`.
//!
//! Run: `cargo run -p kg-bench --bin exp_subscribe --release`
//! Smoke: `cargo run -p kg-bench --bin exp_subscribe --release -- --smoke`
//! (one small cell, oracle-equality check only — the CI cell).

use kg_bench::{apply_delta, median, Table};
use kg_graph::{GraphStore, NodeId, Value};
use kg_search::SearchIndex;
use kg_serve::{
    rescan_matches, CompiledPredicate, EpochBuilder, MatchEvent, Subscription, SubscriptionHub,
    WatchSpec,
};
use std::time::Instant;

/// Deterministic synthetic graph, same shape as E13's: `n` nodes over a
/// handful of labels, ~2 edges per node.
fn build_graph(n: usize) -> (GraphStore, SearchIndex<NodeId>) {
    const LABELS: [&str; 4] = ["Malware", "ThreatActor", "Tool", "FileName"];
    let mut graph = GraphStore::new();
    let search: SearchIndex<NodeId> = SearchIndex::default();
    let mut ids: Vec<NodeId> = Vec::with_capacity(n);
    for i in 0..n {
        let label = LABELS[i % LABELS.len()];
        let id = graph.create_node(
            label,
            [
                ("name", Value::from(format!("{}-{i}", label.to_lowercase()))),
                ("first_seen", Value::from(i as i64)),
            ],
        );
        if i > 0 {
            let a = ids[(i * 7 + 3) % ids.len()];
            graph.merge_edge(a, "RELATED_TO", id).expect("node exists");
            if i % 3 == 0 {
                let b = ids[(i * 13 + 5) % ids.len()];
                let _ = graph.merge_edge(id, "USE", b);
            }
        }
        ids.push(id);
    }
    (graph, search)
}

/// A varied pool of `count` watch specs: label watches, compiled
/// predicates over names/props, and edge watches spread over the graph.
fn make_specs(count: usize, graph: &GraphStore) -> Vec<WatchSpec> {
    const LABELS: [&str; 4] = ["Malware", "ThreatActor", "Tool", "FileName"];
    let ids: Vec<NodeId> = graph.all_nodes().map(|n| n.id).collect();
    let fresh_pred = CompiledPredicate::compile("n.name STARTS WITH 'fresh'").unwrap();
    let seen_pred = CompiledPredicate::compile("n.last_seen >= 0").unwrap();
    (0..count)
        .map(|i| match i % 4 {
            0 => WatchSpec::Node {
                label: Some(LABELS[(i / 4) % LABELS.len()].to_owned()),
                predicate: Some(fresh_pred.clone()),
            },
            1 => WatchSpec::Node {
                label: None,
                predicate: Some(seen_pred.clone()),
            },
            2 => WatchSpec::Node {
                label: Some(LABELS[(i / 4) % LABELS.len()].to_owned()),
                predicate: None,
            },
            _ => WatchSpec::EdgeTouching(ids[(i * 31 + 17) % ids.len()]),
        })
        .collect()
}

struct CellResult {
    subscriptions: usize,
    delta: usize,
    incremental_us: u64,
    rescan_us: u64,
    matched: u64,
    accounting_ok: bool,
    oracle_ok: bool,
}

/// One sweep cell: register `subs` subscriptions over an `n`-node graph,
/// then repeat (mutate `delta` elements, publish, evaluate incrementally,
/// run the rescan oracle) and report median costs of both paths.
fn run_cell(n: usize, subs: usize, delta: usize, rounds: usize) -> CellResult {
    let (mut graph, search) = build_graph(n);
    let hub = SubscriptionHub::new(&mut graph);
    let mut epoch = EpochBuilder::new(&mut graph);
    let specs = make_specs(subs, &graph);
    let handles: Vec<Subscription> = specs
        .iter()
        .map(|spec| hub.subscribe(spec.clone(), 4))
        .collect();
    let mut prev = epoch.freeze(&mut graph, &search);

    let mut inc_us = Vec::with_capacity(rounds);
    let mut rescan_us = Vec::with_capacity(rounds);
    let mut matched = 0u64;
    let mut accounting_ok = true;
    let mut oracle_ok = true;
    for round in 0..rounds {
        apply_delta(&mut graph, round, delta);
        let next = epoch.freeze(&mut graph, &search);

        let t = Instant::now();
        let report = hub.evaluate(&mut graph, &prev, &next, None);
        inc_us.push(t.elapsed().as_micros() as u64);

        let t = Instant::now();
        let mut oracle: Vec<MatchEvent> = Vec::new();
        for (spec, sub) in specs.iter().zip(&handles) {
            oracle.extend(rescan_matches(spec, sub.id(), &prev, &next));
        }
        rescan_us.push(t.elapsed().as_micros() as u64);

        // Both paths emit per-subscription in registration order, sorted by
        // element id within a subscription — directly comparable.
        let mut got = report.matches.clone();
        got.sort_by_key(|e| e.subscription);
        oracle_ok &= got == oracle;
        accounting_ok &= report.matched == report.delivered + report.dropped;
        matched += report.matched;
        prev = next;
    }
    accounting_ok &= handles.iter().all(|s| {
        let st = s.stats();
        st.matched == st.delivered + st.dropped && st.queued <= 4
    });
    CellResult {
        subscriptions: subs,
        delta,
        incremental_us: median(inc_us),
        rescan_us: median(rescan_us),
        matched,
        accounting_ok,
        oracle_ok,
    }
}

fn smoke() {
    let cell = run_cell(400, 50, 8, 3);
    println!(
        "E14 smoke: 400-node graph, 50 subscriptions, delta 8 — incremental {} µs, rescan {} µs, {} match(es)",
        cell.incremental_us, cell.rescan_us, cell.matched
    );
    assert!(
        cell.oracle_ok,
        "E14 smoke: incremental match set diverged from the full-rescan oracle"
    );
    assert!(
        cell.accounting_ok,
        "E14 smoke: mailbox accounting lost a match"
    );
    assert!(cell.matched > 0, "E14 smoke: nothing matched — dead cell");
    println!("E14 smoke: incremental evaluation oracle-identical with exact accounting — ok");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    const GRAPH_NODES: usize = 2_000;
    const SUBSCRIPTIONS: [usize; 5] = [1, 10, 100, 1_000, 10_000];
    const DELTAS: [usize; 3] = [1, 16, 256];
    const ROUNDS: usize = 3;

    println!(
        "E14: standing-query evaluation, incremental (delta log) vs full rescan \
         ({GRAPH_NODES}-node graph, medians of {ROUNDS} rounds)"
    );
    println!();

    let mut cells = Vec::new();
    for &subs in &SUBSCRIPTIONS {
        for &delta in &DELTAS {
            cells.push(run_cell(GRAPH_NODES, subs, delta, ROUNDS));
        }
    }

    let mut table = Table::new(&[
        "subscriptions",
        "delta",
        "incremental µs",
        "rescan µs",
        "speedup",
        "matches",
        "oracle ok",
    ]);
    for cell in &cells {
        table.row(vec![
            cell.subscriptions.to_string(),
            cell.delta.to_string(),
            cell.incremental_us.to_string(),
            cell.rescan_us.to_string(),
            format!(
                "{:.1}x",
                cell.rescan_us as f64 / cell.incremental_us.max(1) as f64
            ),
            cell.matched.to_string(),
            (cell.oracle_ok && cell.accounting_ok).to_string(),
        ]);
    }
    table.print();

    let rows: Vec<serde_json::Value> = cells
        .iter()
        .map(|cell| {
            serde_json::json!({
                "graph_nodes": GRAPH_NODES,
                "subscriptions": cell.subscriptions,
                "delta": cell.delta,
                "incremental_eval_us": cell.incremental_us,
                "rescan_eval_us": cell.rescan_us,
                "speedup": cell.rescan_us as f64 / cell.incremental_us.max(1) as f64,
                "matches": cell.matched,
                "oracle_ok": cell.oracle_ok,
                "accounting_ok": cell.accounting_ok,
            })
        })
        .collect();
    let payload = serde_json::json!({
        "experiment": "E14",
        "rounds_per_cell": ROUNDS,
        "rows": rows,
    });
    std::fs::write(
        "BENCH_e14.json",
        serde_json::to_string_pretty(&payload).expect("results serialise"),
    )
    .expect("write BENCH_e14.json");
    println!();
    println!("wrote BENCH_e14.json");

    assert!(
        cells.iter().all(|c| c.oracle_ok),
        "incremental match set diverged from the full-rescan oracle"
    );
    assert!(
        cells.iter().all(|c| c.accounting_ok),
        "mailbox accounting lost a match"
    );
    // The headline claim: at the largest subscription count and small
    // deltas, incremental evaluation must be at least 5× cheaper than
    // rescanning — push alerts scale with what changed, not with the KG.
    for cell in cells
        .iter()
        .filter(|c| c.subscriptions == *SUBSCRIPTIONS.last().unwrap() && c.delta <= 16)
    {
        let speedup = cell.rescan_us as f64 / cell.incremental_us.max(1) as f64;
        println!(
            "headline: {} subscriptions, delta {} — incremental {speedup:.1}x faster than rescan",
            cell.subscriptions, cell.delta
        );
        assert!(
            speedup >= 5.0,
            "subscription evaluation not O(delta): only {speedup:.1}x at {} subscriptions, delta {}",
            cell.subscriptions,
            cell.delta
        );
    }
    println!(
        "claim: standing queries ride the delta log — alert latency per publish \
         tracks the delta, so thousands of watches stay affordable on every epoch."
    );
}
