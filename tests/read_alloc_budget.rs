//! Allocation budget of the read path. A counting global allocator tallies
//! the heap allocations each of the six query shapes of the `restart_serve`
//! benchmark pool makes on a freshly started 2-shard server (cold plan
//! cache, unseeded property index), averaged over one query per named
//! entity of a small built graph. Each shape has a ceiling a little above
//! its current mean, so a change that brings back per-row or per-token
//! copies fails here instead of only showing in a traced benchmark run.
//!
//! Run with `--nocapture` to see the measured means.

use securitykg::corpus::WorldConfig;
use securitykg::graph::NodeId;
use securitykg::search::SearchIndex;
use securitykg::serve::{Answer, Query, ShardSet, ShardedServe};
use securitykg::{SecurityKg, SystemConfig, TrainingConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread allocation counter.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every call is passed unchanged to the system allocator, so its
// contract holds as is; counting only touches a const-initialised
// thread-local cell, which never allocates or unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The pool's shapes, in pool order, with each one's ceiling on the mean
/// allocations per query: the measured mean (13.2, 53.3, 50.7, 64.6, 58.6
/// and 18.0) plus about 15%.
const SHAPES: [(&str, f64); 6] = [
    ("search", 15.0),
    ("cypher where-name", 61.0),
    ("cypher out-edges", 58.0),
    ("cypher in-edges", 74.0),
    ("cypher var-length count", 67.0),
    ("expand", 21.0),
];

/// The benchmark pool's six queries for one named entity, in `SHAPES`
/// order.
fn shapes(label: &str, name: &str) -> [Query; 6] {
    let cypher = |q: String| Query::Cypher { q };
    [
        Query::Search {
            q: name.to_owned(),
            k: 10,
        },
        cypher(format!(
            "MATCH (n:{label}) WHERE n.name = '{name}' RETURN n.name"
        )),
        cypher(format!(
            "MATCH (n:{label} {{name: '{name}'}})-[r]->(m) RETURN m.name"
        )),
        cypher(format!(
            "MATCH (n:{label} {{name: '{name}'}})<-[r]-(m) RETURN m.name"
        )),
        cypher(format!(
            "MATCH (n:{label} {{name: '{name}'}})-[*1..2]-(m) RETURN count(*)"
        )),
        Query::Expand {
            name: name.to_owned(),
            hops: 2,
            cap: 50,
        },
    ]
}

fn built() -> (securitykg::graph::GraphStore, SearchIndex<NodeId>) {
    let config = SystemConfig {
        world: WorldConfig::tiny(7),
        articles_per_source: 4,
        training: TrainingConfig {
            articles: 40,
            ..TrainingConfig::default()
        },
        ..SystemConfig::default()
    };
    let mut kg = SecurityKg::bootstrap_without_ner(&config);
    kg.crawl_and_ingest();
    (kg.graph().clone(), kg.search_index().clone())
}

#[test]
fn each_read_shape_stays_under_its_allocation_ceiling() {
    let (mut graph, search) = built();
    let mut pool: Vec<[Query; 6]> = Vec::new();
    for node in graph.all_nodes() {
        if node.label.ends_with("Report") || node.label == "CtiVendor" {
            continue;
        }
        let Some(name) = node.name() else { continue };
        if name.contains('\'') || name.contains('\\') {
            continue;
        }
        pool.push(shapes(&node.label, name));
    }
    assert!(pool.len() >= 20, "demo graph too small: {}", pool.len());
    let snapshots = ShardSet::new(&mut graph, &search, 2).freeze_all(&mut graph, &search);
    let serve = ShardedServe::new(snapshots);
    drop(graph);

    let mut totals = [0u64; 6];
    for queries in &pool {
        for (total, query) in totals.iter_mut().zip(queries) {
            let before = allocs();
            let response = serve.execute(query);
            *total += allocs() - before;
            assert!(
                !matches!(response.answer, Answer::Error(_)),
                "{query:?}: {:?}",
                response.answer
            );
        }
    }
    let mut over = Vec::new();
    for ((shape, ceiling), total) in SHAPES.iter().zip(totals) {
        let mean = total as f64 / pool.len() as f64;
        println!("{shape:<24} {mean:6.1} allocations/query (ceiling {ceiling})");
        if mean > *ceiling {
            over.push(format!("{shape}: {mean:.1} > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}
