//! Experiment E15 — segmented binary checkpoints vs JSON full snapshots.
//!
//! The durable ingest driver used to persist recovery state as a monolithic
//! JSON sidecar: every snapshot re-serialized the entire knowledge base —
//! O(graph) per checkpoint, no matter how little changed. The segment store
//! (`kg-persist`) checkpoints incrementally: only arena segments and search
//! shards dirtied since the previous checkpoint are rewritten as
//! checksummed binary frames; everything else is carried forward by
//! manifest reference — O(delta).
//!
//! This bench sweeps graph size × delta size. For every cell it mutates
//! `delta` elements, then persists the state both ways — JSON full snapshot
//! (serialize + write + fsync + rename + dir fsync, the old `write_snapshot`
//! discipline) and an incremental segment-store checkpoint (with the same
//! prune/compact maintenance the durable driver runs) — and then recovers
//! from both, verifying all digests agree. Machine-readable results land in
//! `BENCH_e15.json`.
//!
//! Run: `cargo run -p kg-bench --bin exp_persist --release`
//! Smoke: `cargo run -p kg-bench --bin exp_persist --release -- --smoke`
//! (one small cell, digest-equality check only — the CI cell).

use kg_bench::{apply_delta, build_graph, median, Table};
use kg_graph::{Edge, GraphStore, Node, NodeId};
use kg_persist::{SegmentStore, StoreOptions};
use kg_search::{Bm25Params, SearchIndex, ShardTerms, PERSIST_SHARDS};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The segment counts recovery needs to know which blobs to read back —
/// the bench-local equivalent of the durable driver's checkpoint meta.
#[derive(Serialize, Deserialize)]
struct BenchMeta {
    node_segments: usize,
    edge_segments: usize,
    doc_segments: usize,
    params: Bm25Params,
}

/// The JSON-sidecar baseline's document: the whole knowledge base as one
/// serde_json value, the monolithic shape the segment store replaced.
#[derive(Serialize, Deserialize)]
struct JsonSidecar {
    graph: GraphStore,
    search: SearchIndex<NodeId>,
}

/// The old durability discipline for the JSON baseline: tmp + fsync +
/// rename + parent-dir fsync. (The seed code skipped the fsyncs — one of
/// the bugs this PR fixes — but the baseline should not win by cheating.)
fn write_json_snapshot(path: &Path, bytes: &[u8]) {
    use std::io::Write;
    let tmp = path.with_extension("json.tmp");
    let mut file = std::fs::File::create(&tmp).expect("create snapshot tmp");
    file.write_all(bytes).expect("write snapshot");
    file.sync_data().expect("fsync snapshot");
    std::fs::rename(&tmp, path).expect("rename snapshot");
    let dir = std::fs::File::open(path.parent().expect("parent")).expect("open dir");
    dir.sync_all().expect("fsync dir");
}

/// One incremental segment-store checkpoint: meta always, plus every dirty
/// graph segment — or the full set when the store has no baseline — then
/// the same retention/compaction maintenance the durable driver runs.
///
/// The digest is an input, not recomputed here: the driver computes it once
/// per cycle whichever persistence backend is in play, so neither timed path
/// should carry its O(graph) cost.
fn segment_checkpoint(
    store: &mut SegmentStore,
    seq: u64,
    digest: u64,
    graph: &mut GraphStore,
    search: &mut SearchIndex<NodeId>,
) {
    let full = store.baseline_seq().is_none();
    let meta = BenchMeta {
        node_segments: graph.node_segment_count(),
        edge_segments: graph.edge_segment_count(),
        doc_segments: search.doc_segment_count(),
        params: search.persist_params(),
    };
    let mut blobs: Vec<(String, Vec<u8>)> = Vec::new();
    blobs.push(("meta".to_owned(), serde_json::to_vec(&meta).expect("meta")));
    let node_set: Vec<usize> = if full {
        (0..meta.node_segments).collect()
    } else {
        graph.dirty_node_segments()
    };
    for i in node_set {
        let slots = graph.node_segment_slots(i).unwrap();
        blobs.push((format!("n{i}"), serde_json::to_vec(slots).unwrap()));
    }
    let edge_set: Vec<usize> = if full {
        (0..meta.edge_segments).collect()
    } else {
        graph.dirty_edge_segments()
    };
    for i in edge_set {
        let slots = graph.edge_segment_slots(i).unwrap();
        blobs.push((format!("e{i}"), serde_json::to_vec(slots).unwrap()));
    }
    let doc_set: Vec<usize> = if full {
        (0..meta.doc_segments).collect()
    } else {
        search.dirty_doc_segments()
    };
    for i in doc_set {
        let slots = search.doc_segment_slots(i).unwrap();
        blobs.push((format!("d{i}"), serde_json::to_vec(slots).unwrap()));
    }
    let shard_set: Vec<usize> = if full {
        (0..PERSIST_SHARDS).collect()
    } else {
        search.dirty_persist_shards()
    };
    for s in shard_set {
        let terms = search.shard_terms(s);
        blobs.push((format!("s{s}"), serde_json::to_vec(&terms).unwrap()));
    }
    store
        .checkpoint(seq, seq, digest, blobs)
        .expect("checkpoint");
    graph.clear_segment_dirty();
    search.clear_persist_dirty();
    store.prune().expect("prune");
    if store.should_compact() {
        store.compact().expect("compact");
    }
}

/// Recover a knowledge base from the segment store, verifying the digest.
fn segment_recover(store: &mut SegmentStore) -> (GraphStore, SearchIndex<NodeId>) {
    store
        .recover_with(|record, blobs| {
            let meta: BenchMeta = serde_json::from_slice(blobs.get("meta").ok_or("no meta")?)
                .map_err(|e| e.to_string())?;
            let get = |k: String| blobs.get(&k).ok_or(format!("missing {k}"));
            let mut node_parts: Vec<Vec<Option<Node>>> = Vec::new();
            for i in 0..meta.node_segments {
                node_parts.push(
                    serde_json::from_slice(get(format!("n{i}"))?).map_err(|e| e.to_string())?,
                );
            }
            let mut edge_parts: Vec<Vec<Option<Edge>>> = Vec::new();
            for i in 0..meta.edge_segments {
                edge_parts.push(
                    serde_json::from_slice(get(format!("e{i}"))?).map_err(|e| e.to_string())?,
                );
            }
            let graph = GraphStore::from_segments(node_parts, edge_parts)?;
            if graph.digest() != record.kg_digest {
                return Err("digest mismatch".to_owned());
            }
            let mut doc_parts: Vec<Vec<(NodeId, u32)>> = Vec::new();
            for i in 0..meta.doc_segments {
                doc_parts.push(
                    serde_json::from_slice(get(format!("d{i}"))?).map_err(|e| e.to_string())?,
                );
            }
            let mut shard_parts: Vec<ShardTerms> = Vec::new();
            for s in 0..PERSIST_SHARDS {
                shard_parts.push(
                    serde_json::from_slice(get(format!("s{s}"))?).map_err(|e| e.to_string())?,
                );
            }
            let search = SearchIndex::from_persist_parts(meta.params, doc_parts, shard_parts)?;
            Ok((graph, search))
        })
        .expect("recover")
        .expect("a checkpoint survives")
}

struct CellResult {
    nodes: usize,
    delta: usize,
    json_ckpt_us: u64,
    seg_ckpt_us: u64,
    json_recover_us: u64,
    seg_recover_us: u64,
    digest_ok: bool,
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kg-e15-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");
    dir
}

/// One sweep cell: seed both persistence paths with the full n-node state,
/// then repeat (mutate `delta` elements, checkpoint both ways, recover both
/// ways) and report median costs.
fn run_cell(n: usize, delta: usize, rounds: usize) -> CellResult {
    let (mut graph, mut search) = build_graph(n);
    let dir = bench_dir(&format!("{n}-{delta}"));
    let json_path = dir.join("snapshot.json");
    let mut store = SegmentStore::open(&dir, StoreOptions::default()).expect("open store");

    // Seed checkpoint: both sides pay the full O(graph) cost once, outside
    // the measured rounds — steady state is what the sweep compares.
    let seed_digest = graph.digest();
    segment_checkpoint(&mut store, 0, seed_digest, &mut graph, &mut search);

    let mut json_ckpt = Vec::with_capacity(rounds);
    let mut seg_ckpt = Vec::with_capacity(rounds);
    let mut json_rec = Vec::with_capacity(rounds);
    let mut seg_rec = Vec::with_capacity(rounds);
    let mut digest_ok = true;
    for round in 0..rounds {
        apply_delta(&mut graph, round, delta);
        let live_digest = graph.digest();

        let t = Instant::now();
        let kb = JsonSidecar {
            graph: graph.clone(),
            search: search.clone(),
        };
        let bytes = serde_json::to_vec(&kb).expect("serialize kb");
        write_json_snapshot(&json_path, &bytes);
        drop(kb);
        json_ckpt.push(t.elapsed().as_micros() as u64);

        let t = Instant::now();
        segment_checkpoint(
            &mut store,
            round as u64 + 1,
            live_digest,
            &mut graph,
            &mut search,
        );
        seg_ckpt.push(t.elapsed().as_micros() as u64);

        let t = Instant::now();
        let mut loaded: JsonSidecar =
            serde_json::from_slice(&std::fs::read(&json_path).expect("read snapshot"))
                .expect("parse snapshot");
        // The graph's secondary indexes are not serialised; rebuild them.
        loaded.graph.rebuild_after_load();
        json_rec.push(t.elapsed().as_micros() as u64);

        let t = Instant::now();
        let mut reopened = SegmentStore::open(&dir, StoreOptions::default()).expect("reopen");
        let (rec_graph, rec_search) = segment_recover(&mut reopened);
        seg_rec.push(t.elapsed().as_micros() as u64);

        digest_ok &= loaded.graph.digest() == live_digest
            && rec_graph.digest() == live_digest
            && rec_search.len() == search.len();
    }
    let _ = std::fs::remove_dir_all(&dir);
    CellResult {
        nodes: n,
        delta,
        json_ckpt_us: median(json_ckpt),
        seg_ckpt_us: median(seg_ckpt),
        json_recover_us: median(json_rec),
        seg_recover_us: median(seg_rec),
        digest_ok,
    }
}

fn smoke() {
    let cell = run_cell(500, 8, 3);
    println!(
        "E15 smoke: 500-node graph, delta 8 — JSON checkpoint {} µs, segment checkpoint {} µs, digests {}",
        cell.json_ckpt_us,
        cell.seg_ckpt_us,
        if cell.digest_ok { "identical" } else { "DIVERGED" }
    );
    assert!(
        cell.digest_ok,
        "E15 smoke: recovered digests diverged from the live graph"
    );
    println!("E15 smoke: both persistence paths recover digest-identical state — ok");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    const GRAPH_SIZES: [usize; 3] = [2_000, 8_000, 32_000];
    const DELTAS: [usize; 3] = [1, 16, 256];
    const ROUNDS: usize = 5;

    println!(
        "E15: checkpoint + recovery cost, JSON full snapshot vs incremental binary segments \
         (medians of {ROUNDS} rounds)"
    );
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
        "json ckpt µs",
        "seg ckpt µs",
        "ckpt speedup",
        "json recover µs",
        "seg recover µs",
        "digest ok",
    ]);
    for cell in &cells {
        table.row(vec![
            cell.nodes.to_string(),
            cell.delta.to_string(),
            cell.json_ckpt_us.to_string(),
            cell.seg_ckpt_us.to_string(),
            format!(
                "{:.1}x",
                cell.json_ckpt_us as f64 / cell.seg_ckpt_us.max(1) as f64
            ),
            cell.json_recover_us.to_string(),
            cell.seg_recover_us.to_string(),
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
                "json_checkpoint_us": cell.json_ckpt_us,
                "segment_checkpoint_us": cell.seg_ckpt_us,
                "checkpoint_speedup": cell.json_ckpt_us as f64 / cell.seg_ckpt_us.max(1) as f64,
                "json_recover_us": cell.json_recover_us,
                "segment_recover_us": cell.seg_recover_us,
                "digest_ok": cell.digest_ok,
            })
        })
        .collect();
    let payload = serde_json::json!({
        "experiment": "E15",
        "rounds_per_cell": ROUNDS,
        "rows": rows,
    });
    std::fs::write(
        "BENCH_e15.json",
        serde_json::to_string_pretty(&payload).expect("results serialise"),
    )
    .expect("write BENCH_e15.json");
    println!();
    println!("wrote BENCH_e15.json");

    assert!(
        cells.iter().all(|c| c.digest_ok),
        "a recovered digest diverged from the live graph"
    );
    // The headline claim: on the largest graph at the smallest delta the
    // incremental binary checkpoint must be at least 5× cheaper than the
    // JSON full snapshot.
    let headline = cells
        .iter()
        .find(|c| c.nodes == *GRAPH_SIZES.last().unwrap() && c.delta == DELTAS[0])
        .expect("headline cell swept");
    let speedup = headline.json_ckpt_us as f64 / headline.seg_ckpt_us.max(1) as f64;
    println!(
        "headline: {}-node graph, delta {} — segment checkpoint {speedup:.1}x faster than JSON",
        headline.nodes, headline.delta
    );
    assert!(
        speedup >= 5.0,
        "incremental checkpoint not O(delta): only {speedup:.1}x on the largest graph"
    );
    println!(
        "claim: checkpoint cost tracks the delta, not the graph — the durable ingest \
         driver can checkpoint every cycle without stalling on O(graph) serialization."
    );
}
