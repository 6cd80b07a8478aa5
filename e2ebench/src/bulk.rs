//! `bulk_ingest`: a backfill. Set-up is `SecurityKg::bootstrap` (world,
//! web, CRF training); each measured pass carries the whole corpus through
//! the production pipelined engine and publishes one serving epoch.

use crate::common::{
    global_allocs, median, ms, peak_rss_mb, percentile, set_alloc_counting, timed_setup,
    write_spans, Profile, Report, Tracer,
};
use crate::Args;
use securitykg::crawler::{crawl_all, CrawlState};
use securitykg::ir::RawReport;
use securitykg::pipeline::{
    run_pipelined, run_sequential, Checker, Connector, DefaultChecker, DefaultPorter, Extractor,
    GraphConnector, NerExtractor, ParserRegistry, PipelineMetrics, Porter,
};
use securitykg::serve::{EpochBuilder, KgServe};
use securitykg::{SecurityKg, SystemConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Articles per source (42 sources, ±50% each): about 2.7k articles.
const ARTICLES_PER_SOURCE: usize = 64;
/// Bootstraps per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Simulated time far past the last article: the backfill sees everything.
const HORIZON_MS: u64 = u64::MAX / 4;

pub fn run(args: &Args, report: &mut Report) {
    let config = crate::system_config(args.seed, ARTICLES_PER_SOURCE);
    report.meta_num("articles_per_source", ARTICLES_PER_SOURCE as f64);
    report.meta_str(
        "engine",
        "run_pipelined with PipelineConfig::default() (CRF NER extractor)",
    );
    if args.trace {
        traced(&config, args.seed, report);
    } else {
        untraced(args.seconds, &config, report);
    }
}

/// One pass's outcome: wall time, the published epoch's digest and size,
/// pipeline counters.
struct Pass {
    wall: Duration,
    digest: u64,
    nodes: usize,
    edges: usize,
    metrics: PipelineMetrics,
}

impl Pass {
    fn new(wall: Duration, serve: &KgServe, metrics: PipelineMetrics) -> Pass {
        let epoch = serve.pin();
        Pass {
            wall,
            digest: epoch.digest(),
            nodes: epoch.node_count(),
            edges: epoch.edge_count(),
            metrics,
        }
    }
}

/// `crawl_and_ingest` plus one publish on a freshly bootstrapped system.
fn product_pass(kg: &mut SecurityKg) -> Pass {
    let start = Instant::now();
    let ingest = kg.crawl_and_ingest();
    let serve = KgServe::new(kg.serving_snapshot_incremental(), 0);
    Pass::new(start.elapsed(), &serve, ingest.pipeline)
}

/// The same steps `crawl_and_ingest` takes, on fresh crawl state and an
/// empty graph, for passes beyond the bootstrapped systems. With
/// `keep_input` the crawled pages are copied, outside the timed span, for
/// the sequential oracle.
fn fresh_pass(
    kg: &SecurityKg,
    config: &SystemConfig,
    extractor: &NerExtractor,
    keep_input: bool,
) -> (Pass, Option<Vec<RawReport>>) {
    let start = Instant::now();
    let mut state = CrawlState::new();
    let (reports, _) = crawl_all(kg.web(), &mut state, &config.crawler, HORIZON_MS);
    let crawled = start.elapsed();
    let input = keep_input.then(|| reports.clone());
    let start = Instant::now();
    let out = run_pipelined(
        reports,
        &ParserRegistry::new(),
        extractor,
        GraphConnector::new(),
        &config.pipeline,
    );
    let mut connector = out.connector;
    let snapshot =
        EpochBuilder::new(&mut connector.graph).freeze(&mut connector.graph, &connector.search);
    let serve = KgServe::new(snapshot, 0);
    (
        Pass::new(crawled + start.elapsed(), &serve, out.metrics),
        input,
    )
}

fn untraced(seconds: Duration, config: &SystemConfig, report: &mut Report) {
    let (mut setups, mut walls, mut systems) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let (kg, cpu, wall) = timed_setup(|| SecurityKg::bootstrap(config));
        systems.push(kg);
        setups.push(cpu);
        walls.push(wall);
    }
    let mut base = systems.remove(0);
    let extractor = NerExtractor {
        pipeline: Arc::clone(base.ner().expect("bootstrap trains the CRF")),
    };

    let mut passes = Vec::new();
    let start = Instant::now();
    for mut kg in systems {
        passes.push(product_pass(&mut kg));
    }
    passes.push(product_pass(&mut base));
    let (checked, input) = fresh_pass(&base, config, &extractor, true);
    passes.push(checked);
    while start.elapsed() < seconds {
        passes.push(fresh_pass(&base, config, &extractor, false).0);
    }

    // Oracle, outside the timed passes: the sequential engine over the
    // pages one pass crawled must build that pass's graph exactly. The
    // crawler's worker threads emit pages in a racy order, which decides
    // node ids, so every other pass is held to the order-free part: the
    // same node and edge counts.
    let reference = run_sequential(
        input.expect("pages kept"),
        &ParserRegistry::new(),
        &extractor,
        GraphConnector::new(),
        &config.pipeline,
    );
    let graph = &reference.connector.graph;
    let checked = &passes[SETUPS];
    report.check(
        checked.digest == graph.digest(),
        "pipelined digest differs from run_sequential over the same pages",
    );

    let (mut rates, mut walls_ms) = (Vec::new(), Vec::new());
    for (i, pass) in passes.iter().enumerate() {
        let m = &pass.metrics;
        report.attempted += m.ported as u64;
        report.failed += m.quarantined as u64;
        report.check(
            (pass.nodes, pass.edges) == (graph.node_count(), graph.edge_count()),
            &format!("pass {i} graph size differs from the sequential reference"),
        );
        report.check(
            m.accounting_balanced(),
            &format!("pass {i} accounting {m:?}"),
        );
        rates.push(m.connected as f64 / pass.wall.as_secs_f64());
        walls_ms.push(ms(pass.wall));
    }
    let first = &passes[0].metrics;
    report.meta_num("reports_per_pass", first.connected as f64);
    report.meta_num("pages_per_pass", first.input_pages as f64);
    report.meta_num("passes", passes.len() as f64);
    report.meta_num("setup_wall_s", median(&walls));

    // Every report of a backfill arrives when the pass starts and becomes
    // visible when its epoch is published: visibility is the pass's wall.
    report.metric("setup_s", median(&setups), "s");
    report.metric("visible_p50_ms", percentile(walls_ms.clone(), 0.5), "ms");
    report.metric("visible_p90_ms", percentile(walls_ms, 0.9), "ms");
    report.metric("ops_per_s", median(&rates), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// The processing stages `run_sequential` runs, called one public call at a
/// time so each call can sit inside its own span.
pub(crate) struct Stages {
    pub checker: DefaultChecker,
    pub registry: ParserRegistry,
    pub extractor: NerExtractor,
}

impl Stages {
    /// Port, check, parse, extract, resolve and apply `pages` into
    /// `connector` in `run_sequential`'s order, each call a span under
    /// `parent`. Spans carry `request`, or else the page (port) and report
    /// (later stages) index. Returns (reports ported, reports connected).
    pub fn replay(
        &self,
        tracer: &mut Tracer,
        parent: usize,
        request: Option<u64>,
        pages: Vec<RawReport>,
        connector: &mut GraphConnector,
    ) -> (usize, usize) {
        let id = |index: usize| request.unwrap_or(index as u64);
        let parent = Some(parent);
        let mut porter = DefaultPorter::new();
        let mut completed = Vec::new();
        for (page, raw) in pages.into_iter().enumerate() {
            if let Some(done) = tracer.time("pipeline.port", parent, id(page), || porter.feed(raw))
            {
                completed.push(done);
            }
        }
        let flushed = tracer.time("pipeline.port", parent, id(usize::MAX), || porter.flush());
        completed.extend(flushed);
        let resolver = connector
            .resolver()
            .expect("the graph connector splits resolve from apply");
        let mut connected = 0;
        for (index, item) in completed.iter().enumerate() {
            let rq = id(index);
            if !tracer.time("pipeline.check", parent, rq, || self.checker.check(item)) {
                continue;
            }
            let Ok(mut cti) =
                tracer.time("pipeline.parse", parent, rq, || self.registry.parse(item))
            else {
                continue;
            };
            tracer.time("extract.extract", parent, rq, || {
                self.extractor.extract(&mut cti)
            });
            let mut delta = tracer.time("fusion.resolve", parent, rq, || resolver.resolve(&cti));
            delta.seq = connected as u64;
            tracer.time("graph.apply", parent, rq, || connector.apply_delta(delta));
            connected += 1;
        }
        (completed.len(), connected)
    }
}

/// Stage names of the replay, in pipeline order.
const STAGES: [&str; 6] = [
    "pipeline.port",
    "pipeline.check",
    "pipeline.parse",
    "extract.extract",
    "fusion.resolve",
    "graph.apply",
];

fn traced(config: &SystemConfig, seed: u64, report: &mut Report) {
    let kg = SecurityKg::bootstrap(config);
    let extractor = NerExtractor {
        pipeline: Arc::clone(kg.ner().expect("bootstrap trains the CRF")),
    };
    let registry = ParserRegistry::new();
    let mut tracer = Tracer::new(Instant::now(), "main");
    let mut state = CrawlState::new();
    let (reports, crawl) = tracer.time("crawler.crawl_all", None, 0, || {
        crawl_all(kg.web(), &mut state, &config.crawler, HORIZON_MS)
    });

    // The production engine, untraced but allocation-counted: the
    // denominator of `pipeline.overlap` and the source of `alloc.*`.
    set_alloc_counting(true);
    let before = global_allocs();
    let start = Instant::now();
    let piped = run_pipelined(
        reports.clone(),
        &registry,
        &extractor,
        GraphConnector::new(),
        &config.pipeline,
    );
    let piped_wall = start.elapsed();
    let piped_alloc = global_allocs().since(before);
    set_alloc_counting(false);

    // The sequential engine, untraced: the baseline for tracing overhead.
    let start = Instant::now();
    let sequential = run_sequential(
        reports.clone(),
        &registry,
        &extractor,
        GraphConnector::new(),
        &config.pipeline,
    );
    let sequential_wall = start.elapsed();

    // The traced replay: the stages `run_sequential` runs, one public call
    // at a time, each inside a span.
    let start = Instant::now();
    let root = tracer.begin("ingest.replay", None, 0);
    let mut connector = GraphConnector::new();
    let stages = Stages {
        checker: DefaultChecker {
            min_text_len: config.pipeline.checker_min_text_len,
        },
        registry,
        extractor,
    };
    let (ported, connected) = stages.replay(&mut tracer, root, None, reports, &mut connector);
    tracer.end(root);
    let replay_wall = start.elapsed();

    let digest = piped.connector.graph.digest();
    report.attempted += ported as u64;
    report.failed += piped.metrics.quarantined as u64;
    report.check(
        connector.graph.digest() == digest,
        "traced replay digest differs from the pipelined run",
    );
    report.check(
        sequential.connector.graph.digest() == digest,
        "sequential digest differs from the pipelined run",
    );

    let profile = Profile::new(&[&tracer]);
    let per_call = |name: &str| profile.self_us(name) / profile.count(name).max(1) as f64;
    let stage_self: f64 = STAGES.iter().map(|s| profile.self_us(s)).sum();
    let replay_us = profile.total_us("ingest.replay");
    report.metric(
        "crawler.pages_per_report",
        crawl.pages_fetched as f64 / crawl.new_reports.max(1) as f64,
        "pages/report",
    );
    report.metric(
        "pipeline.port_us_per_report",
        profile.self_us("pipeline.port") / ported.max(1) as f64,
        "us",
    );
    report.metric(
        "pipeline.check_us_per_report",
        per_call("pipeline.check"),
        "us",
    );
    report.metric(
        "pipeline.parse_us_per_report",
        per_call("pipeline.parse"),
        "us",
    );
    report.metric(
        "pipeline.connected_ratio",
        piped.metrics.connected as f64 / piped.metrics.ported.max(1) as f64,
        "ratio",
    );
    report.metric(
        "pipeline.overlap",
        stage_self / (piped_wall.as_secs_f64() * 1e6),
        "ratio",
    );
    report.metric(
        "pipeline.unattributed_share",
        profile.self_us("ingest.replay") / replay_us.max(1.0),
        "ratio",
    );
    report.metric("extract.us_per_report", per_call("extract.extract"), "us");
    report.metric(
        "fusion.resolve_us_per_report",
        per_call("fusion.resolve"),
        "us",
    );
    // Usually zero, so metadata: a metric must never read 0.
    report.meta_num(
        "fusion_canon_conflicts",
        piped.metrics.canon_conflicts as f64,
    );
    report.metric("graph.apply_us_per_report", per_call("graph.apply"), "us");
    report.metric(
        "alloc.bytes_per_report",
        piped_alloc.bytes as f64 / piped.metrics.connected.max(1) as f64,
        "bytes",
    );
    report.metric(
        "trace.overhead_pct",
        (replay_wall.as_secs_f64() / sequential_wall.as_secs_f64() - 1.0) * 100.0,
        "%",
    );
    report.meta_num("replay_wall_ms", replay_wall.as_secs_f64() * 1e3);
    report.meta_num("sequential_wall_ms", sequential_wall.as_secs_f64() * 1e3);
    report.meta_num("pipelined_wall_ms", piped_wall.as_secs_f64() * 1e3);
    report.meta_num("reports", connected as f64);
    report.meta_num("spans", tracer.len() as f64);
    let path = format!("{}/spans-bulk_ingest-{seed}.jsonl", crate::OUT_DIR);
    if let Err(e) = write_spans(&path, &[&tracer]) {
        eprintln!("cannot write {path}: {e}");
    }
}
