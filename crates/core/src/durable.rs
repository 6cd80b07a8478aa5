//! Crash-safe ingestion: the durable run driver.
//!
//! `run_durable` drives the crawl scheduler cycle-by-cycle through the
//! *sequential* pipeline, journaling every cycle and every ingested report
//! (see [`crate::journal`]) and periodically persisting an **incremental
//! binary checkpoint** into a [`kg_persist::SegmentStore`] living alongside
//! the journal: run metadata (scheduler control state + ingested hashes) as
//! one JSON blob, the graph's copy-on-write arena segments and the search
//! index's term shards as one `kg_codec` `KGBIN001` binary blob each
//! (fixed-layout, validated in place — recovery is checksum + bounds-check +
//! index rebuild, no per-field parse). Only blobs dirtied since the previous
//! checkpoint are rewritten — the rest are carried forward by manifest
//! reference — so a steady-state checkpoint costs O(delta), not O(graph).
//! Recovery decodes segment blobs in parallel (they are independent by
//! construction). `KGBIN001` is the only payload format: a blob without the
//! magic fails its checkpoint with an attributed decode error, and recovery
//! falls back past it as it does for any other corruption.
//!
//! The segment store is the only on-disk form of a knowledge graph.
//! [`write_store`] writes a finished in-memory graph as one full checkpoint
//! through the same blob builder, and [`open_store`] reads any store back —
//! a durable run's or `write_store`'s — through the same verification a
//! resume performs, so every load is checksummed and digest-verified.
//!
//! The recovery model is **snapshot + deterministic redo**: the checkpoint
//! is the durable truth, and everything after it is recomputed rather than
//! replayed from the journal. Because the simulated web is a pure function
//! of `(seed, url, time)` and the scheduler's heap order is total, resuming
//! from the newest checkpoint that verifies (frame checksums, then a full
//! digest recomputation) and re-stepping to the same horizon reproduces the
//! uninterrupted run byte-for-byte — the property the chaos harness
//! (`tests/chaos.rs`, `tests/persist_chaos.rs`, `scripts/chaos.sh`) asserts
//! via [`graph_digest`]. A corrupt checkpoint is quarantined with
//! attribution and recovery falls back to the next older one; journal
//! records after the restored checkpoint are an audit trail (and the chaos
//! harness's kill-point counter), not replay instructions; content-hash
//! dedup keeps any re-ingestion idempotent.
//!
//! Disk growth is bounded: after each verified checkpoint the store prunes
//! checkpoints beyond [`DurableOptions::retention`] and the journal is
//! truncated below the oldest retained checkpoint's marker; accumulated
//! dead frames trigger crash-safe compaction.

use crate::journal::{self, Journal, JournalError, JournalRecord};
use crate::SystemConfig;
use kg_corpus::{standard_sources, SimulatedWeb, World};
use kg_crawler::{Scheduler, SchedulerCheckpoint, SchedulerConfig, SchedulerStats};
use kg_graph::{Edge, GraphStore, Node, NodeId, SegmentTerms, DIGEST_SEED};
use kg_ir::{combine_hashes, RawReport};
use kg_persist::{FaultHook, SegmentStore, StoreOptions};
use kg_pipeline::{
    run_sequential, GraphConnector, ParserRegistry, PipelineMetrics, TraceEvent, TraceLog,
};
use kg_search::{Bm25Params, SearchIndex, ShardTerms, PERSIST_SHARDS};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Default simulated start: the publication epoch of the synthetic corpus.
pub const DEFAULT_START_MS: u64 = 1_500_000_000_000;

/// Deterministic fingerprint of a knowledge graph — a thin alias for
/// [`GraphStore::digest`]: the commutative sum of per-element hashes over the
/// elements' canonical JSON (properties in BTreeMap order; the serde-skipped
/// hash indexes never leak in). The same scheme serves all digest consumers —
/// durable checkpoints, the determinism suite, and serving epochs
/// (`kg_serve::KgSnapshot::digest`) — so their fingerprints stay mutually
/// comparable, and recovery can verify a reassembled graph against the
/// manifest's stored digest.
pub fn graph_digest(graph: &GraphStore) -> u64 {
    graph.digest()
}

/// Checkpoint metadata blob (`meta`): everything outside the graph arenas
/// and search shards, plus the counts recovery needs to know which segment
/// blobs to read back.
#[derive(Serialize, Deserialize)]
struct CheckpointMeta {
    seq: u64,
    cycles_done: u64,
    kg_digest: u64,
    /// Sorted content hashes of every report ingested so far.
    ingested: Vec<u64>,
    /// Crawl scheduler control state. `None` in a store written by
    /// [`write_store`]: it holds a finished graph, not a crawl to resume.
    scheduler: Option<SchedulerCheckpoint>,
    node_segments: usize,
    edge_segments: usize,
    search_params: Bm25Params,
    search_doc_segments: usize,
}

/// Knobs of a durable run.
#[derive(Debug, Clone)]
pub struct DurableOptions {
    /// Persist a checkpoint every this many scheduler cycles (plus one at
    /// the end of every run that made progress). `0` means only the final one.
    pub snapshot_every_cycles: u64,
    /// Checkpoints retained on disk after each new one (min 1). Older
    /// checkpoints are pruned and the journal truncated below the oldest
    /// retained marker, bounding disk to O(live graph + retention).
    pub retention: usize,
    /// Chaos harness: fail with [`JournalError::InjectedCrash`] instead of
    /// appending journal record number N (counted from this run's start).
    pub crash_after_records: Option<u64>,
    /// Make the injected crash leave a torn half-written frame behind.
    pub crash_torn_tail: bool,
    /// Chaos harness: kill before global durable I/O operation N. Journal
    /// and segment store share one op counter, so sweeping N crosses every
    /// syscall boundary of the checkpoint/compaction/truncation paths.
    pub io_kill_after: Option<u64>,
    /// Make the doomed I/O op a torn half-write.
    pub io_kill_torn: bool,
    /// Externally supplied fault hook (op-order audits). When set,
    /// `io_kill_after` arms *this* hook.
    pub fault_hook: Option<FaultHook>,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            snapshot_every_cycles: 8,
            retention: 2,
            crash_after_records: None,
            crash_torn_tail: false,
            io_kill_after: None,
            io_kill_torn: false,
            fault_hook: None,
        }
    }
}

/// What one `run_durable` call did.
#[derive(Debug)]
pub struct DurableReport {
    /// Scheduler cycles fired by this call.
    pub cycles_run: u64,
    /// Reports connected into the graph by this call.
    pub reports_ingested: usize,
    /// Journal records appended by this call.
    pub records_appended: u64,
    /// Report groups skipped because their content hash was already ingested.
    pub skipped_duplicates: usize,
    /// [`graph_digest`] of the final graph.
    pub kg_digest: u64,
    /// Checkpoint sequence number recovery started from, if resuming.
    pub resumed_from_snapshot: Option<u64>,
    /// Intact journal records found on startup.
    pub replayed_records: usize,
    /// Whether startup had to discard a torn journal tail.
    pub torn_tail: bool,
    /// Attributed quarantine events from recovery: checkpoints (or single
    /// blobs) that failed verification and were skipped. Empty on a clean
    /// resume.
    pub recovery_events: Vec<String>,
    /// Scheduler stats over the whole journal directory's lifetime.
    pub stats: SchedulerStats,
    /// Accumulated pipeline accounting across this call's cycles.
    pub metrics: PipelineMetrics,
    /// The final graph, moved out of the run — lets callers run post-build
    /// checks (e.g. shard-partition digest verification) or serve it
    /// without re-reading the durable dir.
    pub graph: GraphStore,
    /// The final keyword index, moved out likewise.
    pub search: SearchIndex<NodeId>,
    /// Structured events: replay, snapshots, reboots, breaker transitions.
    pub trace: TraceLog,
}

/// Group a cycle's raw pages into whole reports (pages of one report arrive
/// contiguously, in page order) with an order-sensitive combined body hash.
fn group_reports(reports: Vec<RawReport>) -> Vec<(String, String, u64, Vec<RawReport>)> {
    let mut groups: Vec<(String, String, Vec<RawReport>)> = Vec::new();
    for report in reports {
        match groups.last_mut() {
            Some((_, key, pages)) if *key == report.report_key => pages.push(report),
            _ => groups.push((
                report.source_name.clone(),
                report.report_key.clone(),
                vec![report],
            )),
        }
    }
    groups
        .into_iter()
        .map(|(source, key, pages)| {
            let hash = combine_hashes(pages.iter().map(|p| p.content_hash()));
            (source, key, hash, pages)
        })
        .collect()
}

fn absorb_metrics(total: &mut PipelineMetrics, part: &PipelineMetrics) {
    total.input_pages += part.input_pages;
    total.ported += part.ported;
    total.screened_out += part.screened_out;
    total.parsed += part.parsed;
    total.parse_errors += part.parse_errors;
    total.extracted += part.extracted;
    total.connected += part.connected;
    total.quarantined += part.quarantined;
    total.wall_us += part.wall_us;
    total.wall_ms = total.wall_us / 1000;
}

struct DurableState<'w> {
    scheduler: Scheduler<'w>,
    connector: GraphConnector,
    ingested: BTreeSet<u64>,
    cycles_done: u64,
    snapshot_seq: u64,
}

/// One verified, reassembled checkpoint.
struct Recovered {
    meta: CheckpointMeta,
    graph: GraphStore,
    search: SearchIndex<NodeId>,
}

/// One decoded segment blob, produced by the parallel decode pool. Graph
/// segments carry their live elements' digest terms, hashed by the worker
/// that decoded them.
enum DecodedPart {
    Node(Vec<Option<Node>>, SegmentTerms),
    Edge(Vec<Option<Edge>>, SegmentTerms),
    Doc(Vec<(NodeId, u32)>),
    Shard(ShardTerms),
}

/// Decode one `KGBIN001` segment blob; a payload that is not one is an
/// attributed error. Graph segments are hashed here too, so neither the
/// digest check nor the serving layer's seeding costs a serial pass.
fn decode_part(kind: char, index: usize, bytes: &[u8]) -> Result<DecodedPart, String> {
    match kind {
        'n' => kg_codec::decode_node_segment(bytes)
            .map(|slots| {
                let terms = SegmentTerms::of_nodes(&slots);
                DecodedPart::Node(slots, terms)
            })
            .map_err(|e| format!("node segment {index}: {e}")),
        'e' => kg_codec::decode_edge_segment(bytes)
            .map(|slots| {
                let terms = SegmentTerms::of_edges(&slots);
                DecodedPart::Edge(slots, terms)
            })
            .map_err(|e| format!("edge segment {index}: {e}")),
        'd' => kg_codec::decode_doc_segment(bytes)
            .map(DecodedPart::Doc)
            .map_err(|e| format!("doc segment {index}: {e}")),
        's' => kg_codec::decode_posting_shard(bytes)
            .map(DecodedPart::Shard)
            .map_err(|e| format!("search shard {index}: {e}")),
        other => Err(format!("unknown blob kind {other:?}")),
    }
}

/// Reassemble a checkpoint from its verified blobs. Every structural or
/// semantic mismatch is a clean `Err(reason)` — the store quarantines the
/// checkpoint and falls back to an older one.
fn reassemble(
    record: &kg_persist::CheckpointRecord,
    blobs: &BTreeMap<String, Vec<u8>>,
) -> Result<Recovered, String> {
    let meta_bytes = blobs.get("meta").ok_or("missing meta blob")?;
    let meta: CheckpointMeta =
        serde_json::from_slice(meta_bytes).map_err(|e| format!("meta blob: {e}"))?;
    if meta.seq != record.seq || meta.kg_digest != record.kg_digest {
        return Err(format!(
            "meta blob identifies checkpoint {} (digest {:016x}), manifest says {} ({:016x})",
            meta.seq, meta.kg_digest, record.seq, record.kg_digest
        ));
    }
    // One flat job list over every segment blob, decoded in parallel.
    let mut jobs: Vec<(char, usize, &[u8])> = Vec::new();
    let sets: [(char, usize); 4] = [
        ('n', meta.node_segments),
        ('e', meta.edge_segments),
        ('d', meta.search_doc_segments),
        ('s', PERSIST_SHARDS),
    ];
    for (kind, count) in sets {
        for i in 0..count {
            let name = format!("{kind}{i}");
            let bytes = blobs
                .get(&name)
                .ok_or_else(|| format!("missing blob {name}"))?;
            jobs.push((kind, i, bytes.as_slice()));
        }
    }
    // Segments are independent by construction, so they decode across
    // cores through the store's work-stealing map.
    let mut decoded = kg_persist::par_map(&jobs, |&(kind, index, bytes)| {
        decode_part(kind, index, bytes)
    })
    .into_iter();
    let mut node_parts = Vec::with_capacity(meta.node_segments);
    let mut edge_parts = Vec::with_capacity(meta.edge_segments);
    let mut doc_parts: Vec<Vec<(NodeId, u32)>> = Vec::with_capacity(meta.search_doc_segments);
    let mut shard_parts: Vec<ShardTerms> = Vec::with_capacity(PERSIST_SHARDS);
    let mut digest = DIGEST_SEED;
    for _ in 0..jobs.len() {
        match decoded.next().expect("one result per job")? {
            DecodedPart::Node(part, terms) => {
                digest = digest.wrapping_add(terms.sum());
                node_parts.push((part, terms));
            }
            DecodedPart::Edge(part, terms) => {
                digest = digest.wrapping_add(terms.sum());
                edge_parts.push((part, terms));
            }
            DecodedPart::Doc(part) => doc_parts.push(part),
            DecodedPart::Shard(part) => shard_parts.push(part),
        }
    }
    // The graph keeps the workers' terms: seeding a serving epoch from it
    // (`kg_serve::EpochBuilder`, `ShardSet`) reads them instead of hashing.
    let graph = GraphStore::from_hashed_segments(node_parts, edge_parts)?;
    // The decisive check: the reassembled graph must reproduce the digest
    // the manifest recorded at checkpoint time, byte-identical semantics.
    // The sum of the workers' segment partials covers exactly the
    // reassembled graph's live elements, so no serial re-hash is needed.
    if digest != record.kg_digest {
        return Err(format!(
            "reassembled graph digest {digest:016x} != recorded {:016x}",
            record.kg_digest
        ));
    }
    let search = SearchIndex::from_persist_parts(meta.search_params, doc_parts, shard_parts)?;
    Ok(Recovered {
        meta,
        graph,
        search,
    })
}

/// What `verify_dir` found in a durable directory's segment store.
#[derive(Debug)]
pub struct RecoverSummary {
    /// Every manifest checkpoint record, oldest first: `(seq, cycles_done,
    /// kg_digest)`. Includes records that would fail verification.
    pub checkpoints: Vec<(u64, u64, u64)>,
    /// The newest checkpoint that passed verification, if any.
    pub restored: Option<(u64, u64, u64)>,
    /// Attributed quarantine events for checkpoints/blobs that failed.
    pub events: Vec<String>,
    /// Whether the manifest had a torn tail (tolerated, truncated on open).
    pub manifest_torn: bool,
    pub stats: kg_persist::StoreStats,
}

/// Open the segment store of an existing directory. A directory without a
/// manifest is not a store: it is refused rather than initialised.
fn open_existing(dir: &Path) -> Result<SegmentStore, JournalError> {
    if !dir.join("manifest.log").exists() {
        return Err(JournalError::Persist(
            kg_persist::PersistError::ManifestUnusable {
                reason: format!("no manifest.log in {}", dir.display()),
            },
        ));
    }
    Ok(SegmentStore::open(dir, StoreOptions::default())?)
}

/// The store's attributed quarantine events from its last recovery.
fn quarantine_events(store: &SegmentStore) -> Vec<String> {
    store
        .quarantine_log()
        .iter()
        .map(|event| event.to_string())
        .collect()
}

/// Inspect (read-only) the segment store in `dir`: replay the manifest,
/// then walk checkpoints newest-first until one verifies. With
/// `deep = false` each candidate's blobs are checksum-verified and its meta
/// parsed; with `deep = true` the full graph and search index are
/// reassembled and the graph digest recomputed against the manifest — the
/// same verification a resume performs.
pub fn verify_dir(dir: &Path, deep: bool) -> Result<RecoverSummary, JournalError> {
    let mut store = open_existing(dir)?;
    let checkpoints: Vec<(u64, u64, u64)> = store
        .checkpoints()
        .iter()
        .map(|r| (r.seq, r.cycles_done, r.kg_digest))
        .collect();
    let restored = if deep {
        store
            .recover_with(reassemble)?
            .map(|r| (r.meta.seq, r.meta.cycles_done, r.meta.kg_digest))
    } else {
        store.recover_with(|record, blobs| {
            let meta_bytes = blobs.get("meta").ok_or("missing meta blob")?;
            let meta: CheckpointMeta =
                serde_json::from_slice(meta_bytes).map_err(|e| format!("meta blob: {e}"))?;
            if meta.seq != record.seq || meta.kg_digest != record.kg_digest {
                return Err("meta blob does not match its manifest record".to_owned());
            }
            Ok((meta.seq, meta.cycles_done, meta.kg_digest))
        })?
    };
    Ok(RecoverSummary {
        checkpoints,
        restored,
        events: quarantine_events(&store),
        manifest_torn: store.manifest_torn(),
        stats: store.stats(),
    })
}

/// A knowledge graph read back from a segment store by [`open_store`].
pub struct StoredKg {
    pub graph: GraphStore,
    pub search: SearchIndex<NodeId>,
    /// The restored checkpoint: `(seq, cycles_done, kg_digest)`. The digest
    /// was recomputed from the reassembled graph and matched the manifest.
    pub checkpoint: (u64, u64, u64),
    /// Attributed quarantine events for newer checkpoints that failed
    /// verification and were skipped. Empty for an intact store.
    pub events: Vec<String>,
}

/// Open the knowledge graph held in the segment store `dir` — written by a
/// durable run or by [`write_store`] — through the manifest check and the
/// full reassembly [`verify_dir`] performs: blob checksums, `KGBIN001`
/// decode and the recomputed graph digest. Corrupt newer checkpoints are
/// skipped with attribution; a store where none verifies is an error.
pub fn open_store(dir: &Path) -> Result<StoredKg, JournalError> {
    let mut store = open_existing(dir)?;
    let recovered = store.recover_with(reassemble)?;
    let events = quarantine_events(&store);
    let Some(Recovered {
        meta,
        graph,
        search,
    }) = recovered
    else {
        return Err(JournalError::NoCheckpoint { events });
    };
    Ok(StoredKg {
        graph,
        search,
        checkpoint: (meta.seq, meta.cycles_done, meta.kg_digest),
        events,
    })
}

/// Write a finished knowledge graph to a new segment store in `dir` as one
/// full checkpoint: the meta and `KGBIN001` blobs a durable run writes, with
/// no scheduler state. A `dir` that exists and is not empty is refused, so
/// an existing store is never written into. Returns the recorded digest.
pub fn write_store(
    dir: &Path,
    graph: &GraphStore,
    search: &SearchIndex<NodeId>,
) -> Result<u64, JournalError> {
    if std::fs::read_dir(dir).is_ok_and(|mut entries| entries.next().is_some()) {
        return Err(JournalError::NotEmpty(dir.to_owned()));
    }
    let digest = graph_digest(graph);
    let meta = CheckpointMeta {
        seq: 1,
        cycles_done: 0,
        kg_digest: digest,
        ingested: Vec::new(),
        scheduler: None,
        node_segments: graph.node_segment_count(),
        edge_segments: graph.edge_segment_count(),
        search_params: search.persist_params(),
        search_doc_segments: search.doc_segment_count(),
    };
    let blobs = checkpoint_blobs(&meta, graph, search, true)?;
    let mut store = SegmentStore::open(dir, StoreOptions::default())?;
    store.checkpoint(meta.seq, meta.cycles_done, digest, blobs)?;
    Ok(digest)
}

/// The blobs of one checkpoint: `meta`, then the `KGBIN001` segment and
/// shard blobs — every one when `full`, else only those dirtied since the
/// last committed checkpoint (the rest are carried forward by reference).
fn checkpoint_blobs(
    meta: &CheckpointMeta,
    graph: &GraphStore,
    search: &SearchIndex<NodeId>,
    full: bool,
) -> Result<Vec<(String, Vec<u8>)>, JournalError> {
    let mut blobs: Vec<(String, Vec<u8>)> = vec![("meta".to_owned(), serde_json::to_vec(meta)?)];
    let node_set: Vec<usize> = if full {
        (0..meta.node_segments).collect()
    } else {
        graph.dirty_node_segments()
    };
    for i in node_set {
        let slots = graph.node_segment_slots(i).expect("dirty segment exists");
        blobs.push((format!("n{i}"), kg_codec::encode_node_segment(slots)));
    }
    let edge_set: Vec<usize> = if full {
        (0..meta.edge_segments).collect()
    } else {
        graph.dirty_edge_segments()
    };
    for i in edge_set {
        let slots = graph.edge_segment_slots(i).expect("dirty segment exists");
        blobs.push((format!("e{i}"), kg_codec::encode_edge_segment(slots)));
    }
    let doc_set: Vec<usize> = if full {
        (0..meta.search_doc_segments).collect()
    } else {
        search.dirty_doc_segments()
    };
    for i in doc_set {
        let slots = search.doc_segment_slots(i).expect("dirty segment exists");
        blobs.push((format!("d{i}"), kg_codec::encode_doc_segment(slots)));
    }
    // Every shard is written on a full checkpoint — including empty ones —
    // so the carried entry set always holds all PERSIST_SHARDS shards.
    let shard_set: Vec<usize> = if full {
        (0..PERSIST_SHARDS).collect()
    } else {
        search.dirty_persist_shards()
    };
    for s in shard_set {
        blobs.push((
            format!("s{s}"),
            kg_codec::encode_posting_shard(&search.shard_terms(s)),
        ));
    }
    Ok(blobs)
}

/// Persist one incremental checkpoint, commit its journal marker, then
/// enforce retention (prune + journal truncation) and compaction.
fn write_checkpoint(
    store: &mut SegmentStore,
    state: &mut DurableState<'_>,
    journal: &mut Journal,
    trace: &TraceLog,
) -> Result<u64, JournalError> {
    let seq = state.snapshot_seq;
    let graph = &state.connector.graph;
    let search = &state.connector.search;
    let digest = graph_digest(graph);
    let meta = CheckpointMeta {
        seq,
        cycles_done: state.cycles_done,
        kg_digest: digest,
        ingested: state.ingested.iter().copied().collect(),
        scheduler: Some(state.scheduler.checkpoint()),
        node_segments: graph.node_segment_count(),
        edge_segments: graph.edge_segment_count(),
        search_params: search.persist_params(),
        search_doc_segments: search.doc_segment_count(),
    };
    // With no baseline (fresh store, or nothing survived recovery) the
    // carry set is empty, so every blob must be written.
    let full = store.baseline_seq().is_none();
    let blobs = checkpoint_blobs(&meta, graph, search, full)?;
    store.checkpoint(seq, state.cycles_done, digest, blobs)?;
    // The journal marker is audit only (the manifest committed above), but
    // commit buffered cycle records alongside it so the audit trail is
    // never behind the checkpoint it describes.
    journal.append(&JournalRecord::Snapshot {
        seq,
        cycles_done: state.cycles_done,
        kg_digest: digest,
    })?;
    journal.commit()?;
    // Only now — checkpoint durably committed — may dirtiness be forgotten.
    state.connector.graph.clear_segment_dirty();
    state.connector.search.clear_persist_dirty();
    trace.record(TraceEvent::SnapshotTaken {
        seq,
        cycles_done: state.cycles_done,
        kg_digest: digest,
    });
    // Bound disk: retention pruning, journal truncation below the oldest
    // retained checkpoint, and compaction once garbage dominates.
    store.prune()?;
    if let Some(horizon) = store.oldest_retained_seq() {
        journal.truncate_before_snapshot(horizon)?;
    }
    if store.should_compact() {
        store.compact()?;
    }
    Ok(digest)
}

/// Run (or resume) a durable ingestion in `dir` up to simulated `until_ms`.
///
/// Fresh directories start every source at [`DEFAULT_START_MS`]. Existing
/// directories are recovered: the journal is replayed (tolerating a torn
/// tail), the newest segment-store checkpoint that verifies in full —
/// frame checksums, then a recomputed graph digest — is restored (corrupt
/// ones are quarantined with attribution and older ones tried), and the
/// scheduler re-runs deterministically from that frontier. Calling this
/// again over a completed directory with the same horizon is a no-op that
/// returns the same digest. A store it cannot continue is refused before
/// anything is written: [`JournalError::NoSchedulerState`] for one written
/// by [`write_store`], [`JournalError::NoJournal`] for checkpoints whose
/// journal is missing.
pub fn run_durable(
    system: &SystemConfig,
    sched_config: &SchedulerConfig,
    dir: &Path,
    until_ms: u64,
    opts: &DurableOptions,
) -> Result<DurableReport, JournalError> {
    std::fs::create_dir_all(dir)?;
    let world = World::generate(system.world.clone());
    let web = SimulatedWeb::with_faults(
        world,
        standard_sources(system.articles_per_source),
        system.seed,
        system.faults,
    );
    let trace = TraceLog::new();
    let journal_path = dir.join("journal.log");

    // One hook shared by journal and segment store: op indices form a single
    // global sequence, so an io_kill_after sweep crosses every boundary.
    let hook = match (&opts.fault_hook, opts.io_kill_after) {
        (Some(hook), kill) => {
            if let Some(at) = kill {
                hook.arm_kill_after(at, opts.io_kill_torn);
            }
            Some(hook.clone())
        }
        (None, Some(at)) => {
            let hook = FaultHook::new();
            hook.arm_kill_after(at, opts.io_kill_torn);
            Some(hook)
        }
        (None, None) => None,
    };
    let mut store = SegmentStore::open(
        dir,
        StoreOptions {
            retention: opts.retention.max(1),
            hook: hook.clone(),
            ..StoreOptions::default()
        },
    )?;

    // A journal shorter than its magic is a torn *creation* — the very
    // first write of a fresh run died mid-magic, so nothing was ever
    // committed. Start over instead of refusing with BadHeader.
    let journal_usable = std::fs::metadata(&journal_path)
        .map(|m| m.len() >= journal::JOURNAL_MAGIC.len() as u64)
        .unwrap_or(false);
    let checkpoints = store.checkpoints().len();
    let recovered = if journal_usable || checkpoints > 0 {
        store.recover_with(reassemble)?
    } else {
        None
    };
    // Refuse, before anything is written, a store this driver cannot
    // continue: one that holds no crawl state (written by `write_store`),
    // or one whose checkpoints have lost their journal.
    let resume = match recovered {
        Some(Recovered {
            mut meta,
            graph,
            search,
        }) => {
            let scheduler = meta
                .scheduler
                .take()
                .ok_or(JournalError::NoSchedulerState { seq: meta.seq })?;
            Some((meta, scheduler, graph, search))
        }
        None => None,
    };
    if !journal_usable && checkpoints > 0 {
        return Err(JournalError::NoJournal { checkpoints });
    }
    let recovery_events = quarantine_events(&store);
    let resumed_from = resume.as_ref().map(|(meta, ..)| meta.seq);
    let resumed_digest = resume.as_ref().map(|(meta, ..)| meta.kg_digest);
    let mut state = match resume {
        Some((meta, scheduler, graph, search)) => DurableState {
            snapshot_seq: meta.seq,
            cycles_done: meta.cycles_done,
            ingested: meta.ingested.into_iter().collect(),
            scheduler: Scheduler::restore(&web, scheduler),
            connector: GraphConnector::with_state(graph, search),
        },
        // Fresh, or nothing survived: deterministic redo from the epoch
        // start reproduces the exact same state (and the same digest).
        None => DurableState {
            scheduler: Scheduler::new(&web, sched_config.clone(), DEFAULT_START_MS),
            connector: GraphConnector::new(),
            ingested: BTreeSet::new(),
            cycles_done: 0,
            snapshot_seq: 0,
        },
    };
    let (mut replayed_records, mut torn_tail) = (0, false);
    let mut journal = if journal_usable {
        let replayed = journal::replay(&journal_path)?;
        replayed_records = replayed.records.len();
        torn_tail = replayed.torn_tail;
        trace.record(TraceEvent::JournalReplayed {
            records: replayed_records,
            torn_tail,
            resumed_from_snapshot: resumed_from,
        });
        Journal::open_after_replay_with(&journal_path, &replayed, hook.clone())?
    } else {
        Journal::create_with(&journal_path, hook.clone())?
    };

    let records_at_start = journal.records_written();
    if let Some(after) = opts.crash_after_records {
        journal.set_crash_after(records_at_start + after, opts.crash_torn_tail);
    }

    let registry = ParserRegistry::new();
    let extractor = crate::gazetteer_extractor(&web, &system.training);
    let mut metrics = PipelineMetrics::default();
    let mut cycles_run = 0u64;
    let mut reports_ingested = 0usize;
    let mut skipped_duplicates = 0usize;
    let mut seen_reboots = state.scheduler.stats.reboot_events.len();
    let mut seen_breaker_events = state.scheduler.stats.breaker_events.len();

    while let Some(fired) = state.scheduler.step_due(until_ms) {
        // Surface new scheduler events in the structured trace.
        for event in &state.scheduler.stats.breaker_events[seen_breaker_events..] {
            trace.record(TraceEvent::BreakerTransition {
                source: event.source.clone(),
                at_ms: event.at_ms,
                from: event.from.to_string(),
                to: event.to.to_string(),
                reason: event.reason.clone(),
            });
        }
        seen_breaker_events = state.scheduler.stats.breaker_events.len();
        for event in &state.scheduler.stats.reboot_events[seen_reboots..] {
            trace.record(TraceEvent::SchedulerReboot {
                source: event.source.clone(),
                due_ms: event.due_ms,
                error: event.error.clone(),
            });
        }
        seen_reboots = state.scheduler.stats.reboot_events.len();

        // Dedup whole reports by combined content hash, then ingest the
        // batch through the deterministic sequential pipeline.
        let mut batch = Vec::new();
        let mut newly_ingested = Vec::new();
        for (source, key, hash, pages) in group_reports(fired.reports) {
            if !state.ingested.insert(hash) {
                skipped_duplicates += 1;
                continue;
            }
            newly_ingested.push((hash, source, key));
            batch.extend(pages);
        }
        if !batch.is_empty() {
            let out = run_sequential(
                batch,
                &registry,
                &extractor,
                std::mem::take(&mut state.connector),
                &system.pipeline,
            );
            state.connector = out.connector;
            absorb_metrics(&mut metrics, &out.metrics);
            reports_ingested += out.metrics.connected;
        }

        for (content_hash, source, report_key) in newly_ingested {
            journal.append(&JournalRecord::Ingested {
                content_hash,
                source,
                report_key,
            })?;
        }
        journal.append(&JournalRecord::Cycle {
            source: fired.source,
            due_ms: fired.due_ms,
            new_reports: fired.new_reports,
            pages_fetched: fired.pages_fetched,
            error: fired.error,
        })?;
        // Group commit: one barrier per cycle, not per record.
        journal.commit()?;

        state.cycles_done += 1;
        cycles_run += 1;
        if opts.snapshot_every_cycles > 0 && state.cycles_done % opts.snapshot_every_cycles == 0 {
            state.snapshot_seq += 1;
            write_checkpoint(&mut store, &mut state, &mut journal, &trace)?;
        }
    }

    // Seal the run with a final checkpoint (unless this call was a pure
    // no-op resume of an already-complete directory, whose graph is the
    // recovered one and whose digest recovery has just verified).
    let kg_digest = if cycles_run > 0 || state.snapshot_seq == 0 {
        state.snapshot_seq += 1;
        write_checkpoint(&mut store, &mut state, &mut journal, &trace)?
    } else {
        resumed_digest.expect("a checkpoint sequence above 0 was restored by recovery")
    };
    debug_assert_eq!(kg_digest, graph_digest(&state.connector.graph));

    Ok(DurableReport {
        cycles_run,
        reports_ingested,
        records_appended: journal.records_written() - records_at_start,
        skipped_duplicates,
        kg_digest,
        resumed_from_snapshot: resumed_from,
        replayed_records,
        torn_tail,
        recovery_events,
        stats: state.scheduler.stats.clone(),
        metrics,
        trace,
        graph: state.connector.graph,
        search: state.connector.search,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_corpus::{FaultProfile, WorldConfig};
    use std::path::PathBuf;

    fn system() -> SystemConfig {
        SystemConfig {
            world: WorldConfig::tiny(29),
            articles_per_source: 2,
            seed: 29,
            faults: FaultProfile::default(),
            ..SystemConfig::default()
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kg-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn run(dir: &Path, until_ms: u64) -> DurableReport {
        run_durable(
            &system(),
            &SchedulerConfig::default(),
            dir,
            until_ms,
            &DurableOptions::default(),
        )
        .expect("durable run")
    }

    /// Every file of `dir` by name, with its bytes.
    fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| {
                let entry = entry.unwrap();
                let name = entry.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(entry.path()).unwrap())
            })
            .collect()
    }

    #[test]
    fn written_store_opens_to_the_same_graph_answers_and_histogram() {
        let config = SystemConfig {
            training: crate::TrainingConfig {
                articles: 30,
                ..crate::TrainingConfig::default()
            },
            ..system()
        };
        let mut kg = crate::SecurityKg::bootstrap_without_ner(&config);
        kg.crawl_and_ingest();
        let dir = tmp_dir("store-round-trip");
        let digest = write_store(&dir, kg.graph(), kg.search_index()).unwrap();
        assert_eq!(digest, graph_digest(kg.graph()));

        let stored = open_store(&dir).unwrap();
        assert_eq!(stored.checkpoint, (1, 0, digest));
        assert!(stored.events.is_empty());
        assert_eq!(graph_digest(&stored.graph), digest);
        assert_eq!(stored.graph.label_histogram(), kg.graph().label_histogram());
        let cypher = "MATCH (m:Malware)-->(n) RETURN m.name, n.name";
        let rows = stored.graph.query_readonly(cypher).unwrap().rows;
        assert!(!rows.is_empty());
        assert_eq!(rows, kg.graph().query_readonly(cypher).unwrap().rows);
        let names: Vec<&str> = kg.graph().all_nodes().filter_map(Node::name).collect();
        assert!(!names.is_empty());
        for name in names {
            assert_eq!(
                stored.search.search(name, 5),
                kg.search_index().search(name, 5),
                "{name}"
            );
        }

        // A second write never goes into the existing store.
        let before = files(&dir);
        assert!(matches!(
            write_store(&dir, kg.graph(), kg.search_index()),
            Err(JournalError::NotEmpty(_))
        ));
        assert_eq!(files(&dir), before);
        // A path that holds no store is refused, not initialised.
        let absent = dir.join("absent");
        assert!(open_store(&absent).is_err());
        assert!(!absent.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_run_refuses_a_store_without_scheduler_state() {
        let src = tmp_dir("no-scheduler-src");
        let built = run(&src, DEFAULT_START_MS + 3 * 3_600_000);
        let _ = std::fs::remove_dir_all(&src);
        let dir = tmp_dir("no-scheduler");
        write_store(&dir, &built.graph, &built.search).unwrap();
        let before = files(&dir);
        let err = run_durable(
            &system(),
            &SchedulerConfig::default(),
            &dir,
            DEFAULT_START_MS + 6 * 3_600_000,
            &DurableOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, JournalError::NoSchedulerState { seq: 1 }),
            "{err}"
        );
        assert_eq!(files(&dir), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_run_refuses_checkpoints_without_a_journal() {
        let dir = tmp_dir("no-journal");
        let first = run(&dir, DEFAULT_START_MS + 3 * 3_600_000);
        assert!(first.cycles_run > 0);
        std::fs::remove_file(dir.join("journal.log")).unwrap();
        let before = files(&dir);
        let err = run_durable(
            &system(),
            &SchedulerConfig::default(),
            &dir,
            DEFAULT_START_MS + 6 * 3_600_000,
            &DurableOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, JournalError::NoJournal { .. }), "{err}");
        assert_eq!(files(&dir), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Seeding a serving epoch from a recovered graph reads the digest
    /// terms recovery's decode workers hashed: after `open_store` and after
    /// a no-op `run_durable` resume, neither the builder (N = 1 and N
    /// shards) nor the graph digest hashes a single element again.
    #[test]
    fn seeding_a_recovered_graph_hashes_no_element() {
        use kg_graph::terms_hashed_on_this_thread as hashed;
        use kg_serve::{EpochBuilder, ShardSet};
        let horizon = DEFAULT_START_MS + 6 * 3_600_000;
        let dir = tmp_dir("seed-terms");
        let built = run(&dir, horizon);
        assert!(built.cycles_run > 0 && built.graph.node_count() > 0);
        let resumed = run(&dir, horizon);
        assert_eq!(resumed.cycles_run, 0, "a no-op resume");
        let opened = open_store(&dir).unwrap();
        for (what, mut graph, search) in [
            ("no-op resume", resumed.graph, resumed.search),
            ("open_store", opened.graph, opened.search),
        ] {
            let before = hashed();
            assert_eq!(graph.digest(), built.kg_digest, "{what}");
            let epoch = EpochBuilder::new(&mut graph);
            assert_eq!(epoch.digest(), built.kg_digest, "{what}");
            for shards in [2, 3] {
                let snapshots =
                    ShardSet::new(&mut graph, &search, shards).freeze_all(&mut graph, &search);
                let combined = kg_serve::combined_digest(
                    &snapshots
                        .into_iter()
                        .map(std::sync::Arc::new)
                        .collect::<Vec<_>>(),
                );
                assert_eq!(combined, built.kg_digest, "{what}, {shards} shards");
            }
            assert_eq!(hashed(), before, "{what}: seeding re-hashed elements");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpoint whose every blob is intact and checksum-valid, and whose
    /// meta agrees with its manifest record, but whose recorded digest is
    /// off by one: only the decisive digest comparison can reject it.
    #[test]
    fn recorded_digest_mismatch_alone_quarantines_the_checkpoint() {
        let horizon = DEFAULT_START_MS + 12 * 3_600_000;
        let ref_dir = tmp_dir("digest-ref");
        let reference = run(&ref_dir, horizon);
        let _ = std::fs::remove_dir_all(&ref_dir);

        let dir = tmp_dir("digest-off-by-one");
        let first = run(&dir, DEFAULT_START_MS + 3 * 3_600_000);
        assert!(first.cycles_run > 0);
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        let good = store
            .recover_with(reassemble)
            .unwrap()
            .expect("a checkpoint");
        let good_seq = good.meta.seq;
        assert_eq!(good.meta.kg_digest, first.kg_digest);
        let wrong = first.kg_digest.wrapping_add(1);
        let meta = CheckpointMeta {
            seq: good_seq + 1,
            kg_digest: wrong,
            ..good.meta
        };
        // Only the meta blob is rewritten; every segment blob is carried
        // forward by reference, checksums intact.
        store
            .checkpoint(
                meta.seq,
                meta.cycles_done,
                wrong,
                vec![("meta".to_owned(), serde_json::to_vec(&meta).unwrap())],
            )
            .unwrap();
        drop(store);

        let attribution = format!(
            "checkpoint {}: quarantined -: reassembled graph digest {:016x} != recorded {wrong:016x}",
            good_seq + 1,
            first.kg_digest
        );
        let summary = verify_dir(&dir, true).unwrap();
        assert_eq!(
            summary.restored,
            Some((good_seq, good.meta.cycles_done, first.kg_digest))
        );
        assert_eq!(summary.events, vec![attribution.clone()]);

        // The run falls back to the previous checkpoint and resumes to the
        // uninterrupted run's digest.
        let resumed = run(&dir, horizon);
        assert_eq!(resumed.resumed_from_snapshot, Some(good_seq));
        assert_eq!(resumed.recovery_events, vec![attribution]);
        assert!(resumed.cycles_run > 0);
        assert_eq!(resumed.kg_digest, reference.kg_digest);
        assert_eq!(resumed.kg_digest, graph_digest(&resumed.graph));
        // A no-op resume reports the recovered checkpoint's digest.
        let noop = run(&dir, horizon);
        assert_eq!(noop.cycles_run, 0);
        assert_eq!(noop.kg_digest, reference.kg_digest);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
