//! End-to-end determinism suite for the split connector (ISSUE: parallel
//! shard-and-merge graph construction with deterministic deltas).
//!
//! The contract: the final knowledge graph is **byte-identical** — same
//! serialised bytes, hence same fnv1a64 digest — no matter how the work was
//! scheduled. Sequential baseline, pipelined runs with 1/4/8 resolve
//! workers, byte-serialised transport, and a crash-interrupted durable
//! build that replays its journal must all converge on one digest — and so
//! must the whole crawl-then-ingest front end at any crawler thread count.

use securitykg::corpus::{standard_sources, SimulatedWeb, World, WorldConfig};
use securitykg::crawler::{crawl_all, CrawlState, CrawlerConfig, SchedulerConfig};
use securitykg::extract::RegexNerBaseline;
use securitykg::fusion::ResolverConfig;
use securitykg::ir::RawReport;
use securitykg::ontology::EntityKind;
use securitykg::pipeline::{
    run_pipelined, run_sequential, GraphConnector, IocOnlyExtractor, ParserRegistry, PipelineConfig,
};
use securitykg::{
    run_durable, DurableOptions, JournalError, SecurityKg, SystemConfig, DEFAULT_START_MS,
};
use std::path::PathBuf;
use std::sync::Arc;

const FOREVER: u64 = u64::MAX / 4;

fn corpus(seed: u64) -> (SimulatedWeb, Vec<RawReport>) {
    let web = SimulatedWeb::new(
        World::generate(WorldConfig::tiny(seed)),
        standard_sources(8),
        seed,
    );
    let mut state = CrawlState::new();
    let (reports, _) = crawl_all(&web, &mut state, &CrawlerConfig::default(), FOREVER);
    (web, reports)
}

/// Gazetteer extractor over the world's curated lists, so the corpus yields
/// real entity mentions (and therefore real fusion work) without CRF
/// training cost.
fn extractor(web: &SimulatedWeb) -> IocOnlyExtractor {
    let curated = web.world().curated_lists(1.0, 0xD1);
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

/// The schedule-independence digest: the canonical per-element graph digest
/// *and* (strictly stronger) the fnv1a64 of the serialised bytes, asserted
/// mutually consistent so the byte-identity contract survives the digest's
/// move to a commutative per-element scheme.
fn digest(connector: &GraphConnector) -> (u64, u64) {
    let bytes = serde_json::to_vec(&connector.graph).expect("graph serialises");
    (connector.graph.digest(), securitykg::ir::fnv1a64(&bytes))
}

#[test]
fn graph_digest_is_schedule_independent() {
    let (web, reports) = corpus(0xD47);
    let extractor = extractor(&web);
    let registry = ParserRegistry::new();

    let seq = run_sequential(
        reports.clone(),
        &registry,
        &extractor,
        GraphConnector::with_resolver(ResolverConfig::standard()),
        &PipelineConfig::default(),
    );
    let reference = digest(&seq.connector);
    assert!(seq.metrics.connected > 0, "corpus produced no reports");

    for (connect_workers, serialize_transport) in [(1, false), (4, false), (8, false), (4, true)] {
        let mut config = PipelineConfig::default();
        config.workers.connect = connect_workers;
        config.serialize_transport = serialize_transport;
        let out = run_pipelined(
            reports.clone(),
            &registry,
            &extractor,
            GraphConnector::with_resolver(ResolverConfig::standard()),
            &config,
        );
        assert_eq!(
            out.metrics.connected, seq.metrics.connected,
            "connected count diverged at connect={connect_workers} ser={serialize_transport}"
        );
        assert_eq!(
            digest(&out.connector),
            reference,
            "graph digest diverged at connect={connect_workers} ser={serialize_transport}"
        );
        assert_eq!(
            out.connector.canon().len(),
            seq.connector.canon().len(),
            "canon table diverged at connect={connect_workers} ser={serialize_transport}"
        );
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kg-determinism-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable build that crashes mid-journal and replays must land on the
/// same digest as an uninterrupted build — recovery goes through
/// `GraphConnector::with_state`, which re-seeds the canon table from the
/// restored graph before the delta path resumes.
#[test]
fn durable_replay_matches_uninterrupted_build() {
    let system = SystemConfig {
        world: WorldConfig::tiny(0xD48),
        articles_per_source: 5,
        seed: 0xD48,
        ..SystemConfig::default()
    };
    let sched = SchedulerConfig::default();
    let until = DEFAULT_START_MS + 2 * 24 * 3_600_000;
    let opts = DurableOptions::default();

    let ref_dir = tmp_dir("ref");
    let reference = run_durable(&system, &sched, &ref_dir, until, &opts).expect("reference run");
    let _ = std::fs::remove_dir_all(&ref_dir);
    assert!(reference.reports_ingested > 0, "reference ingested nothing");

    let dir = tmp_dir("crash");
    let crash = DurableOptions {
        crash_after_records: Some(reference.records_appended / 2),
        crash_torn_tail: true,
        ..DurableOptions::default()
    };
    match run_durable(&system, &sched, &dir, until, &crash) {
        Err(JournalError::InjectedCrash) => {}
        other => panic!("expected injected crash, got {other:?}"),
    }
    let resumed = run_durable(&system, &sched, &dir, until, &opts).expect("resume");
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(resumed.kg_digest, reference.kg_digest);
}

/// Crawl plus pipelined ingest is a pure function of the seed: three runs
/// each at 1 and 8 crawler threads land on one digest. Report order decides
/// node ids, so the crawler's thread scheduling must not leak into it.
#[test]
fn crawl_and_ingest_is_crawler_thread_count_independent() {
    let mut runs = Vec::new();
    for threads in [1usize, 8] {
        for _ in 0..3 {
            let mut config = SystemConfig {
                world: WorldConfig::tiny(0xD49),
                articles_per_source: 8,
                seed: 0xD49,
                ..SystemConfig::default()
            };
            config.crawler.threads = threads;
            let mut kg = SecurityKg::bootstrap_without_ner(&config);
            let ingest = kg.crawl_and_ingest();
            assert!(ingest.reports_ingested > 0, "threads={threads}");
            runs.push((threads, kg.graph().digest()));
        }
    }
    assert!(
        runs.iter().all(|&(_, digest)| digest == runs[0].1),
        "digests (threads, digest): {runs:x?}"
    );
}
