//! Experiment E4 — backend scalability (paper §2.1, Figure 1).
//!
//! Claims to reproduce: "we parallelize the processing procedure ... We
//! further pipeline the processing steps ... to improve the throughput",
//! and the serialisable intermediate representations that make "multi-host
//! deployment and load balancing possible".
//!
//! Measures end-to-end processing throughput (porter → checker → parser →
//! extractor → resolver → connector) over a freshly crawled corpus:
//! sequential vs pipelined, extract-worker sweep, connect(resolve)-worker
//! sweep, serialised transport on/off. Every pipelined cell's graph digest
//! is checked against the sequential baseline — the split connector's
//! determinism contract — and the machine-readable results (including the
//! writer's busy share, the Amdahl serial fraction of the split design) are
//! written to `BENCH_e4.json`.
//!
//! Run: `cargo run -p kg-bench --bin exp_pipeline --release`
//! Smoke: `cargo run -p kg-bench --bin exp_pipeline --release -- --smoke`
//! (small corpus, gazetteer extractor, digest check only on the direct and
//! the wire transport — the CI cells).

use kg_bench::{small_web, standard_web, Table, FOREVER};
use kg_corpus::SimulatedWeb;
use kg_crawler::{crawl_all, CrawlState, CrawlerConfig};
use kg_extract::RegexNerBaseline;
use kg_fusion::ResolverConfig;
use kg_ir::RawReport;
use kg_ontology::EntityKind;
use kg_pipeline::{
    run_pipelined, run_sequential, Extractor, GraphConnector, IocOnlyExtractor, NerExtractor,
    ParserRegistry, PipelineConfig, PipelineMetrics,
};
use securitykg::{train_ner, TrainingConfig};
use std::sync::Arc;

fn digest(connector: &GraphConnector) -> u64 {
    connector.graph.digest()
}

/// Share of total wall-clock the single-threaded apply phase kept the
/// writer busy — the serial fraction that caps the split design's speedup.
fn writer_busy_share(metrics: &PipelineMetrics) -> f64 {
    if metrics.wall_ms == 0 {
        return 0.0;
    }
    let busy = metrics.stage_busy_ms.get("connect").copied().unwrap_or(0);
    busy as f64 / metrics.wall_ms as f64
}

/// The gazetteer extractor over the world's curated lists — model-free but
/// mention-rich, so the resolve stage has real fusion work.
fn gazetteer(web: &SimulatedWeb) -> IocOnlyExtractor {
    let curated = web.world().curated_lists(1.0, 0xE4);
    IocOnlyExtractor {
        baseline: Arc::new(RegexNerBaseline::new(vec![
            (EntityKind::Malware, curated.malware),
            (EntityKind::ThreatActor, curated.actors),
            (EntityKind::Technique, curated.techniques),
            (EntityKind::Tool, curated.tools),
            (EntityKind::Software, curated.software),
        ])),
    }
}

struct Cell {
    name: String,
    metrics: PipelineMetrics,
    digest: u64,
    extract_workers: usize,
    connect_workers: usize,
    serialized: bool,
}

fn run_cell<E: Extractor>(
    name: &str,
    reports: &[RawReport],
    registry: &ParserRegistry,
    extractor: &E,
    extract_workers: usize,
    connect_workers: usize,
    serialized: bool,
) -> Cell {
    let mut config = PipelineConfig {
        serialize_transport: serialized,
        ..Default::default()
    };
    config.workers.parse = 2;
    config.workers.extract = extract_workers;
    config.workers.connect = connect_workers;
    let out = run_pipelined(
        reports.to_vec(),
        registry,
        extractor,
        GraphConnector::with_resolver(ResolverConfig::standard()),
        &config,
    );
    Cell {
        name: name.to_owned(),
        digest: digest(&out.connector),
        metrics: out.metrics,
        extract_workers,
        connect_workers,
        serialized,
    }
}

fn smoke() {
    let web = small_web(0xE4);
    let mut state = CrawlState::new();
    let (reports, _) = crawl_all(&web, &mut state, &CrawlerConfig::default(), FOREVER);
    let registry = ParserRegistry::new();
    let extractor = gazetteer(&web);

    let seq = run_sequential(
        reports.clone(),
        &registry,
        &extractor,
        GraphConnector::with_resolver(ResolverConfig::standard()),
        &PipelineConfig::default(),
    );
    let reference = digest(&seq.connector);
    assert!(seq.metrics.connected > 0, "smoke corpus connected nothing");
    for (name, serialized) in [
        ("smoke: 4 connect workers, direct transport", false),
        ("smoke: 4 connect workers, wire transport", true),
    ] {
        let cell = run_cell(name, &reports, &registry, &extractor, 4, 4, serialized);
        println!(
            "E4 {name}: {} pages, sequential connected {} (digest {reference:016x}), \
             pipelined connected {} (digest {:016x})",
            reports.len(),
            seq.metrics.connected,
            cell.metrics.connected,
            cell.digest,
        );
        assert_eq!(
            cell.metrics.connected, seq.metrics.connected,
            "E4 {name}: connected count diverged from sequential"
        );
        assert_eq!(
            cell.digest, reference,
            "E4 {name}: pipelined graph digest diverged from sequential"
        );
    }
    println!("E4 smoke: digest byte-identical on both transports — ok");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let web = standard_web(60, 0xE4);
    let mut state = CrawlState::new();
    let (reports, _) = crawl_all(&web, &mut state, &CrawlerConfig::default(), FOREVER);
    println!(
        "E4: pipeline throughput — {} raw pages crawled",
        reports.len()
    );

    // The real extractor (trained CRF) so the extract stage has CPU weight,
    // as in the paper's deployment.
    let trained = train_ner(
        &web,
        &TrainingConfig {
            articles: 200,
            ..TrainingConfig::default()
        },
    );
    let ner = Arc::new(trained.into_pipeline());
    let registry = ParserRegistry::new();
    println!();

    let extractor = NerExtractor {
        pipeline: Arc::clone(&ner),
    };
    let seq = run_sequential(
        reports.clone(),
        &registry,
        &extractor,
        GraphConnector::with_resolver(ResolverConfig::standard()),
        &PipelineConfig::default(),
    );
    let seq_rate = seq.metrics.reports_per_second();
    let reference = digest(&seq.connector);

    let cells: Vec<Cell> = [
        ("pipelined, 1 extract + 1 connect", 1usize, 1usize, false),
        ("pipelined, 2 extract + 1 connect", 2, 1, false),
        ("pipelined, 4 extract + 1 connect", 4, 1, false),
        ("pipelined, 4 extract + 2 connect", 4, 2, false),
        ("pipelined, 4 extract + 4 connect", 4, 4, false),
        ("pipelined, 8 extract + 4 connect", 8, 4, false),
        ("pipelined, 4+4 serialized transport", 4, 4, true),
    ]
    .iter()
    .map(|&(name, extract, connect, ser)| {
        run_cell(name, &reports, &registry, &extractor, extract, connect, ser)
    })
    .collect();

    let mut table = Table::new(&[
        "configuration",
        "connected",
        "wall ms",
        "reports/s",
        "speedup",
        "writer busy",
        "digest ok",
    ]);
    table.row(vec![
        "sequential (1 thread)".into(),
        seq.metrics.connected.to_string(),
        seq.metrics.wall_ms.to_string(),
        format!("{seq_rate:.1}"),
        "1.00x".into(),
        format!("{:.0}%", writer_busy_share(&seq.metrics) * 100.0),
        "ref".into(),
    ]);
    for cell in &cells {
        let rate = cell.metrics.reports_per_second();
        table.row(vec![
            cell.name.clone(),
            cell.metrics.connected.to_string(),
            cell.metrics.wall_ms.to_string(),
            format!("{rate:.1}"),
            format!("{:.2}x", rate / seq_rate.max(1e-9)),
            format!("{:.0}%", writer_busy_share(&cell.metrics) * 100.0),
            (cell.digest == reference).to_string(),
        ]);
        if cell.extract_workers == 8 && cell.connect_workers == 4 {
            println!("-- per-stage breakdown (8 extract + 4 connect workers) --");
            print!("{}", cell.metrics.stage_report());
            println!();
        }
    }
    table.print();

    let rows: Vec<serde_json::Value> = std::iter::once(serde_json::json!({
        "name": "sequential",
        "extract_workers": 1,
        "connect_workers": 0,
        "serialized": false,
        "connected": seq.metrics.connected,
        "wall_ms": seq.metrics.wall_ms,
        "reports_per_s": seq_rate,
        "speedup": 1.0,
        "writer_busy_share": writer_busy_share(&seq.metrics),
        "canon_conflicts": seq.metrics.canon_conflicts,
        "digest_ok": true,
    }))
    .chain(cells.iter().map(|cell| {
        serde_json::json!({
            "name": cell.name,
            "extract_workers": cell.extract_workers,
            "connect_workers": cell.connect_workers,
            "serialized": cell.serialized,
            "connected": cell.metrics.connected,
            "wall_ms": cell.metrics.wall_ms,
            "reports_per_s": cell.metrics.reports_per_second(),
            "speedup": cell.metrics.reports_per_second() / seq_rate.max(1e-9),
            "writer_busy_share": writer_busy_share(&cell.metrics),
            "canon_conflicts": cell.metrics.canon_conflicts,
            "digest_ok": cell.digest == reference,
        })
    }))
    .collect();
    let payload = serde_json::json!({
        "experiment": "E4",
        "pages": reports.len(),
        "reference_digest": format!("{reference:016x}"),
        "rows": rows,
    });
    std::fs::write(
        "BENCH_e4.json",
        serde_json::to_string_pretty(&payload).expect("results serialise"),
    )
    .expect("write BENCH_e4.json");
    println!();
    println!("wrote BENCH_e4.json");

    let all_ok = cells.iter().all(|c| c.digest == reference);
    println!(
        "digest check: {} (every pipelined configuration vs sequential)",
        if all_ok { "byte-identical" } else { "DIVERGED" }
    );
    println!(
        "paper claim (qualitative): pipelining + per-stage parallelism improves throughput; \
         serialised hand-off (multi-host mode) costs a modest constant factor."
    );
    assert!(all_ok, "graph digest diverged from the sequential baseline");
}
