//! `live_serve`: writes beside reads. Set-up bootstraps the system,
//! pre-loads the first part of the corpus and registers standing queries.
//! Then the remaining articles arrive on the simulated web at a fixed
//! simulated-to-wall rate while a writer thread ingests and publishes on a
//! fixed wall-clock tick and one reader thread sends an open-loop query
//! stream against `KgServe` with the answer cache on.

use crate::bulk::Stages;
use crate::common::{
    median, mix, ms, peak_rss_mb, percentile, precise_timers, set_alloc_counting, thread_allocs,
    timed_setup, us, wait_until, write_spans, Profile, Report, Rng, Tracer,
};
use crate::Args;
use securitykg::corpus::SimulatedWeb;
use securitykg::crawler::{crawl_all, CrawlState, CrawlerConfig};
use securitykg::graph::Params;
use securitykg::pipeline::{
    run_pipelined, DefaultChecker, GraphConnector, NerExtractor, ParserRegistry,
};
use securitykg::serve::{
    rescan_matches, Answer, CompiledPredicate, EpochBuilder, KgServe, KgSnapshot, MatchEvent,
    Query, Subscription, SubscriptionHub, WatchSpec,
};
use securitykg::{SecurityKg, SystemConfig, DEFAULT_START_MS};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Enough articles that most sources keep publishing through the window.
const ARTICLES_PER_SOURCE: usize = 128;
/// Bootstraps (with pre-load) per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Simulated hours pre-loaded before the measured window. The arrival
/// schedule is the same for every seed (the seed changes the articles, not
/// when they appear), so freshness compares like with like across seeds.
const PRELOAD_HOURS: u64 = 30;
/// Simulated milliseconds per wall millisecond: each wall second covers
/// 3.6 simulated hours, about 90 arrivals, far below ingest capacity.
/// Articles are published on a 10-simulated-minute grid; one grid step is
/// 46.3 wall ms, just short of a tick, so successive arrivals land on
/// phases of the writer's tick that sweep evenly through it. Many arrival
/// instants per run keep the freshness percentiles steady.
const SIM_PER_WALL: f64 = 12_960.0;
/// The writer's wall-clock tick.
const TICK: Duration = Duration::from_millis(50);
/// The reader's offered rate: about 100 queries per epoch, so most are
/// answered from the cache.
const READ_QPS: f64 = 2000.0;
/// Answer-cache capacity of the server.
const CACHE_CAPACITY: usize = 4096;
/// Every this-many-th response is re-checked against `KgSnapshot::answer`
/// on its pinned epoch.
const SAMPLE_EVERY: u64 = 47;
/// The writer keeps up when its wake-up lateness over the last fifth of
/// the ticks stays below one tick.
const KEEPUP_TAIL: f64 = 0.2;

pub fn run(args: &Args, report: &mut Report) {
    let config = crate::system_config(args.seed, ARTICLES_PER_SOURCE);
    let sim0 = DEFAULT_START_MS + PRELOAD_HOURS * 3_600_000;
    report.meta_num("articles_per_source", ARTICLES_PER_SOURCE as f64);
    report.meta_num(
        "preload_sim_hours",
        (sim0 - DEFAULT_START_MS) as f64 / 3.6e6,
    );
    report.meta_num("sim_per_wall", SIM_PER_WALL);
    report.meta_num("tick_ms", ms(TICK));
    report.meta_num("offered_qps", READ_QPS);
    report.meta_num("answer_cache_capacity", CACHE_CAPACITY as f64);
    if args.trace {
        traced(args, &config, sim0, report);
    } else {
        untraced(args, &config, sim0, report);
    }
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

/// What one tick produced: pipeline counters plus the epochs it published
/// between and the standing-query matches delivered for it.
struct Tick {
    ported: usize,
    connected: usize,
    quarantined: usize,
    prev: Arc<KgSnapshot>,
    next: Arc<KgSnapshot>,
    matches: Vec<MatchEvent>,
}

trait LiveWriter {
    /// Ingest everything visible on the web at simulated `now_ms`, freeze,
    /// evaluate standing queries and publish.
    fn tick(&mut self, now_ms: u64, serve: &KgServe, hub: &SubscriptionHub) -> Tick;
    /// A full rebuild of the writer's current graph (the freshness oracle).
    fn rebuild(&self) -> KgSnapshot;
}

/// The product path: `crawl_and_ingest`, `serving_snapshot_incremental`,
/// `publish_watched`.
struct ProductWriter<'a> {
    kg: &'a mut SecurityKg,
}

impl LiveWriter for ProductWriter<'_> {
    fn tick(&mut self, now_ms: u64, serve: &KgServe, hub: &SubscriptionHub) -> Tick {
        self.kg.now_ms = now_ms;
        let ingest = self.kg.crawl_and_ingest();
        let snapshot = self.kg.serving_snapshot_incremental();
        let prev = serve.pin();
        let (_, delivery) = serve.publish_watched(hub, self.kg.graph_mut(), snapshot);
        Tick {
            ported: ingest.pipeline.ported,
            connected: ingest.pipeline.connected,
            quarantined: ingest.pipeline.quarantined,
            prev,
            next: serve.pin(),
            matches: delivery.matches,
        }
    }

    fn rebuild(&self) -> KgSnapshot {
        self.kg.serving_snapshot()
    }
}

/// The traced path: the same steps, one public layer call at a time, each
/// inside a span on the writer's recorder.
struct TracedWriter<'a> {
    web: &'a SimulatedWeb,
    crawler: CrawlerConfig,
    state: CrawlState,
    stages: Stages,
    connector: GraphConnector,
    epoch: EpochBuilder,
    tracer: Tracer,
    ticks: u64,
    /// Bytes the writer thread allocated in freeze + evaluate + publish.
    publish_bytes: Vec<f64>,
}

impl TracedWriter<'_> {
    fn ingest(&mut self, parent: usize, now_ms: u64) -> (usize, usize) {
        let tick = self.ticks;
        let (web, crawler, state) = (self.web, &self.crawler, &mut self.state);
        let (pages, _) = self
            .tracer
            .time("crawler.crawl_all", Some(parent), tick, || {
                crawl_all(web, state, crawler, now_ms)
            });
        self.stages.replay(
            &mut self.tracer,
            parent,
            Some(tick),
            pages,
            &mut self.connector,
        )
    }
}

impl LiveWriter for TracedWriter<'_> {
    fn tick(&mut self, now_ms: u64, serve: &KgServe, hub: &SubscriptionHub) -> Tick {
        self.ticks += 1;
        let tick = self.ticks;
        let root = self.tracer.begin("live.tick", None, tick);
        let (ported, connected) = self.ingest(root, now_ms);
        let before = thread_allocs();
        let (epoch, connector) = (&mut self.epoch, &mut self.connector);
        let snapshot = self.tracer.time("serve.freeze", Some(root), tick, || {
            epoch.freeze(&mut connector.graph, &connector.search)
        });
        let prev = serve.pin();
        let delivery = self.tracer.time("serve.subscribe", Some(root), tick, || {
            hub.evaluate(&mut connector.graph, &prev, &snapshot, None)
        });
        self.tracer.time("serve.publish", Some(root), tick, || {
            serve.publish(snapshot)
        });
        self.publish_bytes
            .push(thread_allocs().since(before).bytes as f64);
        self.tracer.end(root);
        Tick {
            ported,
            connected,
            quarantined: 0,
            prev,
            next: serve.pin(),
            matches: delivery.matches,
        }
    }

    fn rebuild(&self) -> KgSnapshot {
        KgSnapshot::build(self.connector.graph.clone(), self.connector.search.clone())
    }
}

// ---------------------------------------------------------------------------
// Set-up: standing queries and the query pool
// ---------------------------------------------------------------------------

/// Standing queries over the pre-loaded graph.
fn subscribe(hub: &SubscriptionHub, first: &KgSnapshot) -> Vec<(WatchSpec, Subscription)> {
    let mut specs = vec![
        WatchSpec::Node {
            label: Some("Malware".into()),
            predicate: None,
        },
        WatchSpec::Node {
            label: Some("ThreatActor".into()),
            predicate: Some(CompiledPredicate::compile("n.name CONTAINS 'a'").expect("predicate")),
        },
    ];
    if let Some(&vendor) = first.graph().nodes_with_label("CtiVendor").first() {
        specs.push(WatchSpec::EdgeTouching(vendor));
    }
    specs
        .into_iter()
        .map(|spec| {
            let sub = hub.subscribe(spec.clone(), usize::MAX);
            (spec, sub)
        })
        .collect()
}

/// The analyst pool: entity searches, phrase searches, Cypher and
/// expansions over entities of the pre-loaded graph. The first entries are
/// drawn most often; the order of query shapes is the same for every seed.
fn query_pool(first: &KgSnapshot) -> Vec<Query> {
    let graph = first.graph();
    let mut names = Vec::new();
    for label in ["Malware", "ThreatActor", "Campaign"] {
        for id in graph.nodes_with_label(label).into_iter().take(6) {
            if let Some(name) = graph.node(id).and_then(|n| n.name()) {
                if !name.contains('\'') {
                    names.push(name.to_owned());
                }
            }
        }
    }
    let mut pool: Vec<Query> = names
        .iter()
        .map(|name| Query::Search {
            q: name.clone(),
            k: 10,
        })
        .collect();
    for phrase in [
        "ransomware encrypts files",
        "phishing campaign government",
        "command and control domain",
        "lateral movement credential",
    ] {
        pool.push(Query::Search {
            q: phrase.into(),
            k: 10,
        });
    }
    pool.push(Query::Cypher {
        q: "MATCH (m:Malware) RETURN m.name ORDER BY m.name LIMIT 10".into(),
    });
    pool.push(Query::Cypher {
        q: "MATCH (v:CtiVendor)-[:PUBLISHES]->(r) RETURN count(*)".into(),
    });
    for name in names.iter().step_by(3) {
        pool.push(Query::Cypher {
            q: format!("MATCH (n) WHERE n.name = '{name}' RETURN n"),
        });
    }
    for name in names.iter().step_by(2) {
        pool.push(Query::Expand {
            name: name.clone(),
            hops: 2,
            cap: 50,
        });
    }
    pool
}

/// Cumulative Zipf(1.0) weights over pool ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The measured window
// ---------------------------------------------------------------------------

struct ReaderOut {
    /// Latency from the scheduled send time, µs.
    latency_us: Vec<f64>,
    /// How late the generator sent, µs.
    late_us: Vec<f64>,
    errors: u64,
    /// Sampled responses re-checked against `KgSnapshot::answer`.
    sampled: u64,
    sample_mismatches: u64,
    elapsed: Duration,
}

/// Everything the writer and the reader of one window share.
struct Scene<'a> {
    serve: &'a KgServe,
    hub: &'a SubscriptionHub,
    subs: &'a [(WatchSpec, Subscription)],
    /// Publish times of the articles still to arrive, sorted.
    arrivals: &'a [u64],
    /// Simulated time at the window's start.
    sim0: u64,
    pool: &'a [Query],
    seed: u64,
}

/// Open-loop reader: query `i` is due at `i / READ_QPS` after `t0`. A
/// sampled response is re-checked against its pinned epoch after its
/// latency is taken, in the slack before the next send.
fn reader(scene: &Scene, t0: Instant, end: Instant, mut tracer: Option<&mut Tracer>) -> ReaderOut {
    precise_timers();
    let (serve, pool) = (scene.serve, scene.pool);
    let cdf = zipf_cdf(pool.len());
    let mut rng = Rng::new(mix(scene.seed, 5));
    let mut out = ReaderOut {
        latency_us: Vec::new(),
        late_us: Vec::new(),
        errors: 0,
        sampled: 0,
        sample_mismatches: 0,
        elapsed: Duration::ZERO,
    };
    for i in 0u64.. {
        let due = t0 + Duration::from_secs_f64(i as f64 / READ_QPS);
        if due >= end {
            break;
        }
        let draw = rng.unit();
        let qi = cdf.partition_point(|&c| c < draw).min(pool.len() - 1);
        wait_until(due);
        let sent = Instant::now();
        let pin = serve.pin();
        let response = match tracer.as_deref_mut() {
            Some(t) => t.time("serve.execute", None, i, || {
                serve.execute_on(&pin, &pool[qi])
            }),
            None => serve.execute_on(&pin, &pool[qi]),
        };
        let done = Instant::now();
        out.latency_us.push(us(done - due));
        out.late_us.push(us(sent - due));
        if matches!(response.answer, Answer::Error(_)) {
            out.errors += 1;
        }
        if i % SAMPLE_EVERY == 0 {
            out.sampled += 1;
            if pin.answer(&pool[qi]) != response.answer {
                out.sample_mismatches += 1;
            }
        }
    }
    out.elapsed = t0.elapsed();
    out
}

struct WriterOut {
    freshness_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    /// Wall time from tick wake-up to `publish` returning.
    busy_ms: Vec<f64>,
    ticks: usize,
    ported: usize,
    connected: usize,
    quarantined: usize,
    /// Ticks whose standing-query deliveries differed from the rescan.
    delivery_mismatches: usize,
    arrivals: usize,
    backlog: usize,
}

/// Standing-query deliveries of one tick must equal the O(graph) rescan
/// between the two epochs it published between.
fn deliveries_match(tick: &Tick, subs: &[(WatchSpec, Subscription)]) -> bool {
    let expected: Vec<MatchEvent> = subs
        .iter()
        .flat_map(|(spec, sub)| rescan_matches(spec, sub.id(), &tick.prev, &tick.next))
        .collect();
    for (_, sub) in subs {
        let _ = sub.drain();
    }
    expected == tick.matches
}

/// Publish times of the non-ad articles that appear after `sim0`, sorted.
fn arrivals_after(web: &SimulatedWeb, sim0: u64) -> Vec<u64> {
    let mut times = Vec::new();
    for spec in web.sources() {
        for index in 0..spec.article_count {
            let at = spec.publish_time_ms(index);
            if at > sim0 && !web.is_ad(spec, index) {
                times.push(at);
            }
        }
    }
    times.sort_unstable();
    times
}

/// Writer loop on a fixed wall-clock tick. The simulated clock follows the
/// wall clock from `t0`, so a report's scheduled arrival is the wall instant
/// its publish time maps to; freshness runs from there until `publish`
/// returns with the epoch that contains it. Each tick's deliveries are
/// checked after its freshness is taken, in the slack before the next tick.
fn writer(w: &mut dyn LiveWriter, scene: &Scene, t0: Instant, end: Instant) -> WriterOut {
    let (arrivals, sim0) = (scene.arrivals, scene.sim0);
    let sim_at = |at: Instant| sim0 + (ms(at - t0) * SIM_PER_WALL) as u64;
    let mut out = WriterOut {
        freshness_ms: Vec::new(),
        lateness_ms: Vec::new(),
        busy_ms: Vec::new(),
        ticks: 0,
        ported: 0,
        connected: 0,
        quarantined: 0,
        delivery_mismatches: 0,
        arrivals: 0,
        backlog: 0,
    };
    let mut next_arrival = 0;
    for n in 1u32.. {
        let due = t0 + TICK * n;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let woke = Instant::now();
        out.lateness_ms.push(ms(woke - due));
        let sim_now = sim_at(woke);
        let tick = w.tick(sim_now, scene.serve, scene.hub);
        let published = ms(t0.elapsed());
        out.busy_ms.push(ms(woke.elapsed()));
        while next_arrival < arrivals.len() && arrivals[next_arrival] <= sim_now {
            let arrived = (arrivals[next_arrival] - sim0) as f64 / SIM_PER_WALL;
            out.freshness_ms.push(published - arrived);
            next_arrival += 1;
        }
        out.ticks += 1;
        out.ported += tick.ported;
        out.connected += tick.connected;
        out.quarantined += tick.quarantined;
        if !deliveries_match(&tick, scene.subs) {
            out.delivery_mismatches += 1;
        }
    }
    let sim_end = sim_at(Instant::now());
    out.arrivals = next_arrival;
    out.backlog = arrivals[next_arrival..]
        .iter()
        .take_while(|&&at| at <= sim_end)
        .count();
    out
}

/// Run writer and reader side by side for `seconds`.
fn window(
    w: &mut dyn LiveWriter,
    scene: &Scene,
    seconds: Duration,
    reader_tracer: Option<&mut Tracer>,
) -> (WriterOut, ReaderOut) {
    let t0 = Instant::now() + Duration::from_millis(5);
    let end = t0 + seconds;
    std::thread::scope(|scope| {
        let reads = scope.spawn(|| reader(scene, t0, end, reader_tracer));
        let writes = writer(w, scene, t0, end);
        (writes, reads.join().expect("reader thread"))
    })
}

/// Fold the window's checks into the report and compare the final epoch
/// with a full rebuild of the writer's graph.
fn verify(
    report: &mut Report,
    w: &dyn LiveWriter,
    serve: &KgServe,
    writes: &WriterOut,
    reads: &ReaderOut,
) {
    report.attempted += writes.ported as u64 + reads.latency_us.len() as u64;
    report.failed += writes.quarantined as u64 + reads.errors;
    report.checks(
        writes.ticks as u64,
        writes.delivery_mismatches as u64,
        "standing-query deliveries differ from rescan_matches",
    );
    report.checks(
        reads.sampled,
        reads.sample_mismatches,
        "served answer differs from KgSnapshot::answer on its pinned epoch",
    );
    report.check(
        w.rebuild().digest() == serve.pin().digest(),
        "final epoch digest differs from a full rebuild",
    );
}

/// Record open-loop honesty figures: offered and achieved rates, generator
/// lateness, and whether the writer kept up with the arrivals.
fn honesty(report: &mut Report, writes: &WriterOut, reads: &ReaderOut) {
    let tail = ((writes.lateness_ms.len() as f64 * KEEPUP_TAIL).ceil() as usize).max(1);
    let tail_late = writes.lateness_ms[writes.lateness_ms.len().saturating_sub(tail)..]
        .iter()
        .copied()
        .fold(0.0, f64::max);
    let keeping_up = tail_late < ms(TICK) && writes.backlog <= writes.arrivals / 10 + 5;
    report.meta_num(
        "achieved_qps",
        reads.latency_us.len() as f64 / reads.elapsed.as_secs_f64(),
    );
    report.meta_num(
        "reader_late_p99_us",
        percentile(reads.late_us.clone(), 0.99),
    );
    report.meta_num("writer_tail_late_ms", tail_late);
    report.meta_num(
        "writer_busy_p50_ms",
        percentile(writes.busy_ms.clone(), 0.5),
    );
    report.meta_num(
        "writer_busy_p99_ms",
        percentile(writes.busy_ms.clone(), 0.99),
    );
    report.meta_num(
        "writer_reports_per_busy_s",
        writes.connected as f64 / (writes.busy_ms.iter().sum::<f64>() / 1e3),
    );
    report.meta_num("writer_backlog_reports", writes.backlog as f64);
    report.meta_num("ticks", writes.ticks as f64);
    report.meta_num("arrivals", writes.arrivals as f64);
    report.meta_num("connected", writes.connected as f64);
    report.meta_num("queries", reads.latency_us.len() as f64);
    report.meta_num("freshness_samples", writes.freshness_ms.len() as f64);
    report.meta_bool("keeping_up", keeping_up);
    if !keeping_up {
        // Freshness under a growing backlog measures the queue, not the
        // system: flag the run instead of reporting it as steady.
        report.attempted += 1;
        report.failed += 1;
        eprintln!("live_serve: the writer did not keep up with the arrival rate");
    }
}

/// Bootstrap and pre-load through the product path.
fn product_setup(config: &SystemConfig, sim0: u64) -> SecurityKg {
    let mut kg = SecurityKg::bootstrap(config);
    kg.now_ms = sim0;
    kg.crawl_and_ingest();
    kg
}

fn untraced(args: &Args, config: &SystemConfig, sim0: u64, report: &mut Report) {
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut kg = None;
    for _ in 0..SETUPS {
        let (system, cpu, wall) = timed_setup(|| {
            let mut system = product_setup(config, sim0);
            let hub = system.subscription_hub();
            let first = system.serving_snapshot_incremental();
            (system, hub, first)
        });
        setups.push(cpu);
        walls.push(wall);
        kg = Some(system);
    }
    let (mut kg, hub, first) = kg.expect("at least one set-up");
    report.meta_num("preload_nodes", first.node_count() as f64);
    let subs = subscribe(&hub, &first);
    let pool = query_pool(&first);
    let arrivals = arrivals_after(kg.web(), sim0);
    let serve = KgServe::new(first, CACHE_CAPACITY);
    let scene = Scene {
        serve: &serve,
        hub: &hub,
        subs: &subs,
        arrivals: &arrivals,
        sim0,
        pool: &pool,
        seed: args.seed,
    };
    let mut w = ProductWriter { kg: &mut kg };
    let (writes, reads) = window(&mut w, &scene, args.seconds, None);
    verify(report, &w, &serve, &writes, &reads);
    honesty(report, &writes, &reads);
    report.meta_num("pool_queries", pool.len() as f64);
    report.meta_num("setup_wall_s", median(&walls));

    // Visibility is freshness: from a report's scheduled arrival until the
    // epoch holding it is published. Throughput is the reader's achieved
    // rate, which falls below the offered rate once serving cannot keep
    // up. The writer's own rate (reports per busy second) is metadata: it
    // is set by how the writer's threads get the cores and moved by about
    // 10% between runs on a 2-vCPU host.
    report.metric("setup_s", median(&setups), "s");
    report.metric(
        "visible_p50_ms",
        percentile(writes.freshness_ms.clone(), 0.5),
        "ms",
    );
    report.metric(
        "visible_p90_ms",
        percentile(writes.freshness_ms.clone(), 0.9),
        "ms",
    );
    report.meta_num(
        "freshness_p99_ms",
        percentile(writes.freshness_ms.clone(), 0.99),
    );
    report.metric(
        "ops_per_s",
        reads.latency_us.len() as f64 / reads.elapsed.as_secs_f64(),
        "1/s",
    );
    // Read latency here is set by how the writer's threads and the reader
    // share the cores, and moves by more than any useful bound from run to
    // run, so it is reported beside the metrics, not as one.
    report.meta_num("query_p50_us", percentile(reads.latency_us.clone(), 0.5));
    report.meta_num("query_p99_us", percentile(reads.latency_us.clone(), 0.99));
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Per-call latency of `f`, µs, median over `reps` calls.
fn micro(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            us(start.elapsed())
        })
        .collect();
    percentile(samples, 0.5)
}

fn traced(args: &Args, config: &SystemConfig, sim0: u64, report: &mut Report) {
    let half = args.seconds / 2;
    let mut kg = product_setup(config, sim0);

    // First half: the product writer, untraced — the baseline the traced
    // half's freshness is compared with.
    let arrivals = arrivals_after(kg.web(), sim0);
    let (pool, untraced_freshness) = {
        let hub = kg.subscription_hub();
        let first = kg.serving_snapshot_incremental();
        let subs = subscribe(&hub, &first);
        let pool = query_pool(&first);
        let serve = KgServe::new(first, CACHE_CAPACITY);
        let scene = Scene {
            serve: &serve,
            hub: &hub,
            subs: &subs,
            arrivals: &arrivals,
            sim0,
            pool: &pool,
            seed: args.seed,
        };
        let mut w = ProductWriter { kg: &mut kg };
        let (writes, reads) = window(&mut w, &scene, half, None);
        verify(report, &w, &serve, &writes, &reads);
        (pool, percentile(writes.freshness_ms, 0.5))
    };

    // Second half: the same arrivals replayed into fresh state through the
    // layers' public calls, each inside a span, allocation-counted.
    let origin = Instant::now();
    let extractor = NerExtractor {
        pipeline: Arc::clone(kg.ner().expect("bootstrap trains the CRF")),
    };
    let mut state = CrawlState::new();
    let (pages, _) = crawl_all(kg.web(), &mut state, &config.crawler, sim0);
    let registry = ParserRegistry::new();
    let mut connector = run_pipelined(
        pages,
        &registry,
        &extractor,
        GraphConnector::new(),
        &config.pipeline,
    )
    .connector;
    let hub = SubscriptionHub::new(&mut connector.graph);
    let mut epoch = EpochBuilder::new(&mut connector.graph);
    let first = epoch.freeze(&mut connector.graph, &connector.search);
    let subs = subscribe(&hub, &first);
    let serve = KgServe::new(first, CACHE_CAPACITY);
    let mut w = TracedWriter {
        web: kg.web(),
        crawler: config.crawler.clone(),
        state,
        stages: Stages {
            checker: DefaultChecker {
                min_text_len: config.pipeline.checker_min_text_len,
            },
            registry,
            extractor,
        },
        connector,
        epoch,
        tracer: Tracer::new(origin, "writer"),
        ticks: 0,
        publish_bytes: Vec::new(),
    };
    let mut reader_tracer = Tracer::new(origin, "reader");
    let scene = Scene {
        serve: &serve,
        hub: &hub,
        subs: &subs,
        arrivals: &arrivals,
        sim0,
        pool: &pool,
        seed: args.seed,
    };
    set_alloc_counting(true);
    let (writes, reads) = window(&mut w, &scene, half, Some(&mut reader_tracer));
    set_alloc_counting(false);
    verify(report, &w, &serve, &writes, &reads);
    honesty(report, &writes, &reads);
    let traced_freshness = percentile(writes.freshness_ms.clone(), 0.5);

    // Layer micro-timings on the final epoch, outside the window.
    let snapshot = serve.pin();
    let params = Params::new();
    let mut expand = Vec::new();
    let mut cypher = Vec::new();
    for query in &pool {
        match query {
            Query::Expand { .. } => expand.push(micro(20, || {
                std::hint::black_box(snapshot.answer(query));
            })),
            Query::Cypher { q } => {
                let plan = serve.plan_cache().plan(q).expect("pool queries compile");
                cypher.push(micro(20, || {
                    std::hint::black_box(plan.execute_on(&*snapshot, &params).ok());
                }));
            }
            Query::Search { .. } => {}
        }
    }

    let stats = serve.stats();
    let profile = Profile::new(&[&w.tracer]);
    let per_call = |name: &str| profile.self_us(name) / profile.count(name).max(1) as f64;
    report.metric("crawler.us_per_tick", per_call("crawler.crawl_all"), "us");
    report.meta_num("extract_us_per_report", per_call("extract.extract"));
    report.metric(
        "serve.freeze_ms_p50",
        profile.self_us_pct("serve.freeze", 0.5) / 1e3,
        "ms",
    );
    report.metric(
        "serve.freeze_ms_p99",
        profile.self_us_pct("serve.freeze", 0.99) / 1e3,
        "ms",
    );
    report.metric(
        "serve.subscribe_ms_p50",
        profile.self_us_pct("serve.subscribe", 0.5) / 1e3,
        "ms",
    );
    report.metric(
        "serve.publish_us_p50",
        profile.self_us_pct("serve.publish", 0.5),
        "us",
    );
    report.metric(
        "serve.answer_cache_hit_ratio",
        stats.cache.hits as f64 / (stats.cache.hits + stats.cache.misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "serve.plan_cache_hit_ratio",
        stats.plans.hits as f64 / (stats.plans.hits + stats.plans.misses).max(1) as f64,
        "ratio",
    );
    report.metric("serve.expand_us_p50", median(&expand), "us");
    report.metric(
        "serve.query_p50_us",
        percentile(reads.latency_us.clone(), 0.5),
        "us",
    );
    report.metric(
        "serve.reader_late_us_p99",
        percentile(reads.late_us.clone(), 0.99),
        "us",
    );
    report.metric("graph.cypher_exec_us_p50", median(&cypher), "us");
    report.metric("alloc.bytes_per_publish", median(&w.publish_bytes), "bytes");
    report.metric(
        "trace.overhead_live_pct",
        (traced_freshness / untraced_freshness - 1.0) * 100.0,
        "%",
    );
    report.meta_num("untraced_freshness_p50_ms", untraced_freshness);
    report.meta_num("traced_freshness_p50_ms", traced_freshness);
    let path = format!("{}/spans-live_serve-{}.jsonl", crate::OUT_DIR, args.seed);
    if let Err(e) = write_spans(&path, &[&w.tracer, &reader_tracer]) {
        eprintln!("cannot write {path}: {e}");
    }
}
