//! Experiment E13 — O(delta) snapshot publication.
//!
//! The serving layer publishes immutable epochs; the question is what one
//! publish costs as the graph grows. The full rebuild (`KgSnapshot::build`)
//! re-hashes every element and re-walks every adjacency list — O(graph) — so
//! its cost scales with everything ever ingested. The incremental path
//! (`EpochBuilder::freeze`) patches the carried-forward digest and adjacency
//! with just the touched elements and clones by bumping `Arc` refcounts — so
//! its cost should scale with the *delta*, not the graph.
//!
//! This bench sweeps graph size × delta size. For every cell it mutates
//! `delta` elements of an N-node graph, freezes the epoch both ways,
//! verifies the two snapshots are digest-identical, and reports both costs
//! plus the speedup. Machine-readable results land in `BENCH_e13.json`.
//!
//! Run: `cargo run -p kg-bench --bin exp_publish --release`
//! Smoke: `cargo run -p kg-bench --bin exp_publish --release -- --smoke`
//! (one small cell, equivalence check only — the CI cell).

use kg_bench::{apply_delta, build_graph, median, Table};
use kg_serve::{EpochBuilder, KgSnapshot};
use std::time::Instant;

struct CellResult {
    nodes: usize,
    delta: usize,
    full_us: u64,
    incremental_us: u64,
    digest_ok: bool,
}

/// One sweep cell: on an n-node graph, repeat (mutate `delta` elements,
/// freeze incrementally, rebuild fully) and report median costs.
fn run_cell(n: usize, delta: usize, rounds: usize) -> CellResult {
    let (mut graph, search) = build_graph(n);
    let mut epoch = EpochBuilder::new(&mut graph);
    let mut inc_us = Vec::with_capacity(rounds);
    let mut full_us = Vec::with_capacity(rounds);
    let mut digest_ok = true;
    for round in 0..rounds {
        apply_delta(&mut graph, round, delta);

        let t = Instant::now();
        let inc = epoch.freeze(&mut graph, &search);
        inc_us.push(t.elapsed().as_micros() as u64);

        let t = Instant::now();
        let full = KgSnapshot::build(graph.clone(), search.clone());
        full_us.push(t.elapsed().as_micros() as u64);

        digest_ok &= inc.digest() == full.digest() && inc.digest() == graph.digest();
    }
    CellResult {
        nodes: n,
        delta,
        full_us: median(full_us),
        incremental_us: median(inc_us),
        digest_ok,
    }
}

fn smoke() {
    let cell = run_cell(500, 8, 3);
    println!(
        "E13 smoke: 500-node graph, delta 8 — full {} µs, incremental {} µs, digests {}",
        cell.full_us,
        cell.incremental_us,
        if cell.digest_ok {
            "identical"
        } else {
            "DIVERGED"
        }
    );
    assert!(
        cell.digest_ok,
        "E13 smoke: incremental digest diverged from full rebuild"
    );
    println!("E13 smoke: incremental publish digest-identical to full rebuild — ok");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    const GRAPH_SIZES: [usize; 3] = [2_000, 8_000, 32_000];
    const DELTAS: [usize; 3] = [1, 16, 256];
    const ROUNDS: usize = 5;

    println!("E13: publish cost, full rebuild vs incremental epoch (medians of {ROUNDS} rounds)");
    println!();

    let mut cells = Vec::new();
    for &n in &GRAPH_SIZES {
        for &delta in &DELTAS {
            cells.push(run_cell(n, delta, ROUNDS));
        }
    }

    let mut table = Table::new(&[
        "graph nodes",
        "delta",
        "full µs",
        "incremental µs",
        "speedup",
        "digest ok",
    ]);
    for cell in &cells {
        table.row(vec![
            cell.nodes.to_string(),
            cell.delta.to_string(),
            cell.full_us.to_string(),
            cell.incremental_us.to_string(),
            format!(
                "{:.1}x",
                cell.full_us as f64 / cell.incremental_us.max(1) as f64
            ),
            cell.digest_ok.to_string(),
        ]);
    }
    table.print();

    let rows: Vec<serde_json::Value> = cells
        .iter()
        .map(|cell| {
            serde_json::json!({
                "graph_nodes": cell.nodes,
                "delta": cell.delta,
                "full_publish_us": cell.full_us,
                "incremental_publish_us": cell.incremental_us,
                "speedup": cell.full_us as f64 / cell.incremental_us.max(1) as f64,
                "digest_ok": cell.digest_ok,
            })
        })
        .collect();
    let payload = serde_json::json!({
        "experiment": "E13",
        "rounds_per_cell": ROUNDS,
        "rows": rows,
    });
    std::fs::write(
        "BENCH_e13.json",
        serde_json::to_string_pretty(&payload).expect("results serialise"),
    )
    .expect("write BENCH_e13.json");
    println!();
    println!("wrote BENCH_e13.json");

    assert!(
        cells.iter().all(|c| c.digest_ok),
        "incremental digest diverged from full rebuild"
    );
    // The headline claim: on the largest graph at the smallest delta the
    // incremental path must be at least 5× cheaper than the full rebuild.
    let headline = cells
        .iter()
        .find(|c| c.nodes == *GRAPH_SIZES.last().unwrap() && c.delta == DELTAS[0])
        .expect("headline cell swept");
    let speedup = headline.full_us as f64 / headline.incremental_us.max(1) as f64;
    println!(
        "headline: {}-node graph, delta {} — incremental {speedup:.1}x faster than full rebuild",
        headline.nodes, headline.delta
    );
    assert!(
        speedup >= 5.0,
        "incremental publish not O(delta): only {speedup:.1}x on the largest graph"
    );
    println!(
        "claim (ThreatKG 'continuously updated KG'): publish cost tracks the delta, \
         not the graph — the ingest writer no longer stalls on epoch freezes."
    );
}
