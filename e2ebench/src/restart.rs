//! `restart_serve`: cold restart plus ad-hoc reads. Set-up crawls the
//! corpus into a segment store with `run_durable` under the production
//! flush policy. The measured phase alternates a cold restart of the
//! completed store — `run_durable`, a 2-shard `ShardSet` partition,
//! `ShardedServe`, first answer — with a slice of one closed-loop client
//! querying the recovered graph from a pool of distinct queries larger than
//! the plan cache.

use crate::common::{
    median, mix, ms, peak_rss_mb, percentile, set_alloc_counting, thread_allocs, timed_setup, us,
    write_spans, Profile, Report, Rng, Tracer,
};
use crate::Args;
use securitykg::crawler::SchedulerConfig;
use securitykg::graph::{parse, CompiledPlan};
use securitykg::journal::replay;
use securitykg::persist::{FaultHook, IoOp};
use securitykg::serve::{
    Answer, KgSnapshot, Query, ShardSet, ShardedServe, DEFAULT_PLAN_CACHE_CAPACITY,
};
use securitykg::{
    run_durable, verify_dir, DurableOptions, DurableReport, SystemConfig, DEFAULT_START_MS,
};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Articles per source: about 650 reports. The store build is bound by
/// synchronous writes, so the corpus is smaller than the other workloads'.
const ARTICLES_PER_SOURCE: usize = 16;
/// Simulated days the durable crawl runs: past the last article.
const HORIZON_DAYS: u64 = 3;
/// Re-crawl cadence per source. Every cycle commits the journal, so the
/// cadence sets the number of synchronous writes per report.
const CRAWL_INTERVAL_MS: u64 = 24 * 3_600_000;
/// Store builds per run; `setup_s` is the median of their CPU time.
/// Building is bound by synchronous writes, so its wall time and rate are
/// recorded as metadata, not as metrics: they measure the disk more than
/// the program.
const SETUPS: usize = 5;
const SHARDS: usize = 2;
/// Closed-loop query time after each restart of the measured phase.
const QUERY_SLICE: Duration = Duration::from_millis(20);
/// Every query is timed; one in this many latencies is kept for the
/// percentiles, so the sample buffer stays small beside the system's own
/// memory (peak RSS is a metric).
const KEEP_EVERY: u64 = 8;
const MIN_RESTARTS: usize = 15;
const WARMUP_RESTARTS: usize = 3;
/// Restarts of the traced run, and its query rounds (each round runs the
/// same draws untraced and traced).
const TRACED_RESTARTS: usize = 12;
const TRACED_ROUNDS: usize = 4;
const TRACED_QUERIES: usize = 40_000;

struct Setup {
    config: SystemConfig,
    sched: SchedulerConfig,
    until: u64,
    opts: DurableOptions,
}

impl Setup {
    fn build(&self, dir: &Path, opts: &DurableOptions) -> DurableReport {
        run_durable(&self.config, &self.sched, dir, self.until, opts).expect("durable run")
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let setup = Setup {
        config: crate::system_config(args.seed, ARTICLES_PER_SOURCE),
        sched: SchedulerConfig {
            interval_ms: CRAWL_INTERVAL_MS,
            ..SchedulerConfig::default()
        },
        until: DEFAULT_START_MS + HORIZON_DAYS * 86_400_000,
        opts: DurableOptions::default(),
    };
    let root = PathBuf::from(format!("{}/restart-{}", crate::OUT_DIR, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    report.meta_num("articles_per_source", ARTICLES_PER_SOURCE as f64);
    report.meta_str("store_dir", &root.display().to_string());
    report.meta_str(
        "tmpfs",
        "none: the store lives inside the checkout, on whatever file system holds it",
    );
    report.meta_str(
        "flush_policy",
        &format!(
            "group commit per cycle; checkpoint every {} cycles; retention {}",
            setup.opts.snapshot_every_cycles, setup.opts.retention
        ),
    );
    report.meta_num("crawl_interval_h", CRAWL_INTERVAL_MS as f64 / 3.6e6);
    report.meta_num("shards", SHARDS as f64);
    if args.trace {
        traced(args, &setup, &root, report);
    } else {
        untraced(args, &setup, &root, report);
    }
    let _ = std::fs::remove_dir_all(&root);
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// One search, four Cypher shapes and one expansion per named entity of
/// the recovered graph: more distinct Cypher texts than the plan cache
/// holds, so most compiled plans are evicted before they are reused.
fn query_pool(oracle: &KgSnapshot) -> Vec<Query> {
    let mut pool = Vec::new();
    for node in oracle.graph().all_nodes() {
        if node.label.ends_with("Report") || node.label == "CtiVendor" {
            continue;
        }
        let Some(name) = node.name() else { continue };
        if name.contains('\'') || name.contains('\\') {
            continue;
        }
        pool.push(Query::Search {
            q: name.to_owned(),
            k: 10,
        });
        let label = &node.label;
        for q in [
            format!("MATCH (n:{label}) WHERE n.name = '{name}' RETURN n.name"),
            format!("MATCH (n:{label} {{name: '{name}'}})-[r]->(m) RETURN m.name"),
            format!("MATCH (n:{label} {{name: '{name}'}})<-[r]-(m) RETURN m.name"),
            format!("MATCH (n:{label} {{name: '{name}'}})-[*1..2]-(m) RETURN count(*)"),
        ] {
            pool.push(Query::Cypher { q });
        }
        pool.push(Query::Expand {
            name: name.to_owned(),
            hops: 2,
            cap: 50,
        });
    }
    pool
}

/// What one restart produced.
struct Restart {
    digest: u64,
    serve: ShardedServe,
    first: u64,
    owned: Vec<usize>,
}

/// `run_durable` on the completed store, partition, serve, first answer.
fn restart(
    setup: &Setup,
    dir: &Path,
    first: &Query,
    tracer: Option<(&mut Tracer, u64)>,
) -> Restart {
    let mut off = Tracer::disabled();
    let (tracer, rq) = match tracer {
        Some((t, r)) => (t, r),
        None => (&mut off, 0),
    };
    let root = tracer.begin("durable.restart", None, rq);
    let rep = tracer.time("durable.run_durable", Some(root), rq, || {
        setup.build(dir, &setup.opts)
    });
    let (mut graph, search) = (rep.graph, rep.search);
    let shards = tracer.time("shard.partition", Some(root), rq, || {
        ShardSet::new(&mut graph, &search, SHARDS).freeze_all(&mut graph, &search)
    });
    let owned = shards.iter().map(|s| s.owned_count()).collect();
    let serve = tracer.time("shard.serve_new", Some(root), rq, || {
        ShardedServe::new(shards)
    });
    let answer = tracer.time("shard.first_query", Some(root), rq, || serve.execute(first));
    tracer.end(root);
    Restart {
        digest: rep.kg_digest,
        first: answer.combined_digest(),
        serve,
        owned,
    }
}

fn check_restart(report: &mut Report, r: &Restart, digest: u64) {
    report.check(
        r.digest == digest,
        "restart digest differs from the ingest's kg_digest",
    );
    report.check(
        r.first == digest,
        "first sharded answer's combined digest differs from the ingest's",
    );
}

/// Every pool query, answered by the sharded server, must equal the
/// unsharded snapshot's answer.
fn check_pool(report: &mut Report, serve: &ShardedServe, oracle: &KgSnapshot, pool: &[Query]) {
    for query in pool {
        report.check(
            serve.execute(query).answer == oracle.answer(query),
            &format!("sharded answer differs from KgSnapshot::answer for {query:?}"),
        );
    }
}

fn class(query: &Query) -> &'static str {
    match query {
        Query::Search { .. } => "shard.search",
        Query::Cypher { .. } => "shard.cypher",
        Query::Expand { .. } => "shard.expand",
    }
}

fn untraced(args: &Args, setup: &Setup, root: &Path, report: &mut Report) {
    let (mut setups, mut walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut built: Option<(PathBuf, DurableReport)> = None;
    for i in 0..SETUPS {
        let dir = root.join(format!("store-{i}"));
        let (rep, cpu, wall) = timed_setup(|| setup.build(&dir, &setup.opts));
        setups.push(cpu);
        walls.push(wall);
        rates.push(rep.reports_ingested as f64 / wall);
        report.attempted += rep.metrics.ported as u64;
        report.failed += rep.metrics.quarantined as u64;
        match &built {
            None => built = Some((dir, rep)),
            Some((_, first)) => {
                report.check(
                    rep.kg_digest == first.kg_digest,
                    "store builds disagree on the digest",
                );
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    let (dir, ingest) = built.expect("at least one store build");
    let digest = ingest.kg_digest;
    let reports = ingest.reports_ingested;
    let disk = dir_bytes(&dir);
    let oracle = KgSnapshot::build(ingest.graph, ingest.search);
    let pool = query_pool(&oracle);
    report.meta_num("reports", reports as f64);
    report.meta_num("pool_queries", pool.len() as f64);
    report.meta_num("plan_cache_capacity", DEFAULT_PLAN_CACHE_CAPACITY as f64);

    // Warm-up restarts, untimed: the first restarts after the build pay
    // one-off costs that would otherwise sit in the tail.
    for i in 0..WARMUP_RESTARTS {
        let r = restart(setup, &dir, &pool[i % pool.len()], None);
        check_restart(report, &r, digest);
    }

    // Measured: rounds of one cold restart followed by a slice of the
    // closed-loop client on the recovered server, so restarts and queries
    // both sample the whole window.
    let start = Instant::now();
    let end = start + args.seconds;
    let mut rng = Rng::new(mix(args.seed, 6));
    let mut restart_ms = Vec::new();
    let mut latency_us = Vec::new();
    let mut slice_qps = Vec::new();
    let (mut queries, mut errors) = (0u64, 0u64);
    let mut serve = None;
    while restart_ms.len() < MIN_RESTARTS || Instant::now() < end {
        let began = Instant::now();
        let r = restart(setup, &dir, &pool[restart_ms.len() % pool.len()], None);
        restart_ms.push(ms(began.elapsed()));
        check_restart(report, &r, digest);
        let sharded = serve.insert(r.serve);
        let slice = Instant::now();
        let mut answered = 0u32;
        while slice.elapsed() < QUERY_SLICE {
            let query = &pool[rng.below(pool.len())];
            let began = Instant::now();
            let response = sharded.execute(query);
            let took = began.elapsed();
            if queries % KEEP_EVERY == 0 {
                latency_us.push(us(took));
            }
            queries += 1;
            answered += 1;
            if matches!(response.answer, Answer::Error(_)) {
                errors += 1;
            }
        }
        slice_qps.push(f64::from(answered) / slice.elapsed().as_secs_f64());
    }
    let serve = serve.expect("at least one restart");
    report.attempted += queries;
    report.failed += errors;
    check_pool(report, &serve, &oracle, &pool);
    report.meta_num("store_build_reports_per_s", median(&rates));
    report.meta_num("setup_wall_s", median(&walls));
    report.meta_num("restarts", restart_ms.len() as f64);
    report.meta_num("queries", queries as f64);
    report.meta_num("latency_samples", latency_us.len() as f64);

    report.meta_num("disk_bytes_per_report", disk as f64 / reports.max(1) as f64);
    report.meta_num("query_p50_us", percentile(latency_us.clone(), 0.5));
    report.meta_num("query_p99_us", percentile(latency_us, 0.99));

    // After a cold restart the stored reports become visible again when
    // the recovered server answers its first query. Throughput is the
    // closed-loop client's queries per second.
    report.metric("setup_s", median(&setups), "s");
    report.metric("visible_p50_ms", percentile(restart_ms.clone(), 0.5), "ms");
    report.metric("visible_p90_ms", percentile(restart_ms.clone(), 0.9), "ms");
    report.meta_num("restart_p99_ms", percentile(restart_ms, 0.99));
    report.metric("ops_per_s", median(&slice_qps), "1/s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

fn traced(args: &Args, setup: &Setup, root: &Path, report: &mut Report) {
    // Store build with an unarmed fault hook: it only records the I/O ops.
    let dir = root.join("store-0");
    let hook = FaultHook::new();
    let opts = DurableOptions {
        fault_hook: Some(hook.clone()),
        ..setup.opts.clone()
    };
    let ingest = setup.build(&dir, &opts);
    report.attempted += ingest.metrics.ported as u64;
    report.failed += ingest.metrics.quarantined as u64;
    let reports = ingest.reports_ingested.max(1) as f64;
    let (mut fsyncs, mut write_bytes) = (0u64, 0u64);
    for op in hook.log() {
        match op {
            IoOp::SyncFile { .. } | IoOp::SyncDir { .. } => fsyncs += 1,
            IoOp::Write { bytes, .. } => write_bytes += bytes as u64,
            _ => {}
        }
    }
    let digest = ingest.kg_digest;
    let oracle = KgSnapshot::build(ingest.graph, ingest.search);
    let pool = query_pool(&oracle);
    let summary = verify_dir(&dir, true).expect("store verifies");

    let mut tracer = Tracer::new(Instant::now(), "main");
    let mut last = None;
    for r in 0..TRACED_RESTARTS as u64 {
        let journal = dir.join("journal.log");
        tracer
            .time("journal.replay", None, r, || replay(&journal))
            .expect("journal replays");
        tracer
            .time("persist.recover", None, r, || verify_dir(&dir, true))
            .expect("store verifies");
        let restarted = restart(
            setup,
            &dir,
            &pool[r as usize % pool.len()],
            Some((&mut tracer, r)),
        );
        check_restart(report, &restarted, digest);
        last = Some(restarted);
    }
    let restarted = last.expect("at least one restart");
    let serve = restarted.serve;

    // The same draws in alternating untraced and traced rounds (after a
    // warm-up), then once more allocation-counted.
    let mut rng = Rng::new(mix(args.seed, 6));
    let draws: Vec<usize> = (0..TRACED_QUERIES).map(|_| rng.below(pool.len())).collect();
    let untraced_round = || {
        let start = Instant::now();
        for &qi in &draws {
            std::hint::black_box(serve.execute(&pool[qi]));
        }
        ms(start.elapsed())
    };
    untraced_round();
    let (mut untraced_ms, mut traced_ms) = (Vec::new(), Vec::new());
    for round in 0..TRACED_ROUNDS {
        untraced_ms.push(untraced_round());
        let start = Instant::now();
        for (i, &qi) in draws.iter().enumerate() {
            let query = &pool[qi];
            let request = (round * TRACED_QUERIES + i) as u64;
            let response = tracer.time(class(query), None, request, || serve.execute(query));
            report.attempted += 1;
            if matches!(response.answer, Answer::Error(_)) {
                report.failed += 1;
            }
        }
        traced_ms.push(ms(start.elapsed()));
    }
    set_alloc_counting(true);
    let before = thread_allocs();
    untraced_round();
    let allocs = thread_allocs().since(before);
    set_alloc_counting(false);
    let plans = serve.plan_cache().stats();
    check_pool(report, &serve, &oracle, &pool);

    // Single-layer timings outside the query loops.
    let mut compile = Vec::new();
    let mut bm25 = Vec::new();
    for query in &pool {
        match query {
            Query::Cypher { q } if compile.len() < 500 => {
                let began = Instant::now();
                let plan = parse(q).and_then(|ast| CompiledPlan::compile(&ast));
                compile.push(us(began.elapsed()));
                report.check(plan.is_ok(), &format!("pool query does not compile: {q}"));
            }
            Query::Search { q, k } if bm25.len() < 2000 => {
                let began = Instant::now();
                std::hint::black_box(oracle.search_index().search(q, *k));
                bm25.push(us(began.elapsed()));
            }
            _ => {}
        }
    }

    let profile = Profile::new(&[&tracer]);
    let p50_ms = |name: &str| profile.self_us_pct(name, 0.5) / 1e3;
    let restart_mean_ms = profile.total_us("durable.restart") / 1e3 / TRACED_RESTARTS as f64;
    let owned = &restarted.owned;
    let max_owned = owned.iter().copied().max().unwrap_or(0) as f64;
    let min_owned = owned.iter().copied().min().unwrap_or(0).max(1) as f64;
    let replay_ms = p50_ms("journal.replay");
    let recover_ms = p50_ms("persist.recover");
    report.metric("journal.replay_ms", replay_ms, "ms");
    report.metric("persist.recover_ms", recover_ms, "ms");
    report.metric(
        "durable.restart_other_ms",
        restart_mean_ms - replay_ms - recover_ms,
        "ms",
    );
    report.metric(
        "persist.fsyncs_per_report",
        fsyncs as f64 / reports,
        "count",
    );
    report.metric(
        "persist.write_bytes_per_report",
        write_bytes as f64 / reports,
        "bytes",
    );
    report.metric(
        "persist.space_amp",
        summary.stats.data_bytes as f64 / summary.stats.live_bytes.max(1) as f64,
        "ratio",
    );
    report.metric("shard.partition_ms", p50_ms("shard.partition"), "ms");
    report.metric(
        "shard.search_us_p50",
        profile.self_us_pct("shard.search", 0.5),
        "us",
    );
    report.metric(
        "shard.cypher_us_p50",
        profile.self_us_pct("shard.cypher", 0.5),
        "us",
    );
    report.metric(
        "shard.expand_us_p50",
        profile.self_us_pct("shard.expand", 0.5),
        "us",
    );
    report.metric("shard.owned_skew", max_owned / min_owned, "ratio");
    report.metric(
        "shard.plan_cache_hit_ratio",
        plans.hits as f64 / (plans.hits + plans.misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "graph.cypher_compile_us_p50",
        percentile(compile, 0.5),
        "us",
    );
    report.metric("search.bm25_us_p50", percentile(bm25.clone(), 0.5), "us");
    report.metric("search.bm25_us_p99", percentile(bm25, 0.99), "us");
    report.metric(
        "alloc.allocs_per_query",
        allocs.allocs as f64 / TRACED_QUERIES as f64,
        "count",
    );
    report.metric(
        "trace.overhead_query_pct",
        (median(&traced_ms) / median(&untraced_ms) - 1.0) * 100.0,
        "%",
    );
    report.meta_num("reports", reports);
    report.meta_num("pool_queries", pool.len() as f64);
    report.meta_num("peak_rss_mb", peak_rss_mb());
    let path = format!("{}/spans-restart_serve-{}.jsonl", crate::OUT_DIR, args.seed);
    if let Err(e) = write_spans(&path, &[&tracer]) {
        eprintln!("cannot write {path}: {e}");
    }
}
