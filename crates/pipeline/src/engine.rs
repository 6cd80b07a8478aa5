//! Pipelined execution (paper §2.1, "Scalability").
//!
//! "To make the system scalable, we parallelize the processing procedure of
//! OSCTI reports. We further pipeline the processing steps ... Between
//! different steps in the pipeline, we specify the formats of intermediate
//! representations and make them serializable."
//!
//! Six stages — port → check → parse → extract → resolve → connect — joined
//! by bounded crossbeam channels. Check/parse/extract/resolve run
//! configurable worker counts; port (stateful page grouping) and connect
//! (single-writer storage) are sequential by construction.
//!
//! The stage graph is written once, generic over a `Transport` that decides
//! how a message crosses a boundary: `Direct` moves the value through the
//! channel (the default), `Wire` encodes it to JSON bytes at the sender and
//! decodes it at the receiver (`serialize_transport`), measuring the real
//! cost of the multi-host deployment mode.
//!
//! Hardening: a message that cannot cross a boundary (corrupt wire payload,
//! dead downstream stage, panicking connector) is *quarantined* — counted,
//! captured with its stage and error, and skipped — instead of panicking the
//! run or silently vanishing. The run always completes and the accounting
//! invariant `ported == screened_out + parsed + parse_errors + quarantined`
//! holds in both transport modes.

use crate::config::PipelineConfig;
use crate::delta::{CtiResolver, Resolved};
use crate::stages::{
    Checker, Connector, DefaultChecker, DefaultPorter, Extractor, ParserRegistry, Porter,
};
use crate::trace::{TraceEvent, TraceLog};
use crossbeam::channel::{bounded, Receiver, SendError, Sender};
use kg_ir::{IntermediateCti, IntermediateReport, RawReport};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Stage names, in pipeline order. `resolve` and `connect` are the two
/// halves of the split connector: N resolve workers produce self-contained
/// graph deltas; the single connect writer applies them in sequence order.
const STAGE_NAMES: [&str; 6] = ["port", "check", "parse", "extract", "resolve", "connect"];

/// Channel-boundary names, in pipeline order.
const BOUNDARY_NAMES: [&str; 5] = [
    "port->check",
    "check->parse",
    "parse->extract",
    "extract->resolve",
    "resolve->connect",
];

/// The sequencing envelope every message travels in. The porter stamps each
/// report with a monotone sequence number; a stage that terminates a report
/// (screened out, parse error, quarantined) forwards a `Gone` marker in its
/// place, so the connect writer can apply items in exact port order without
/// waiting forever on sequence numbers that will never arrive.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Tagged<T> {
    Item { seq: u64, item: T },
    Gone { seq: u64 },
}

/// At most this many quarantined messages keep their full details; the
/// counter keeps counting past it.
const QUARANTINE_CAPTURE: usize = 32;

/// A send blocking longer than this emits a backpressure-stall trace event.
const STALL_TRACE_US: u64 = 1_000;

/// Queue-depth sampling cadence.
const SAMPLE_INTERVAL: Duration = Duration::from_micros(500);

/// A message that left the normal flow: where it died, which report it
/// carried (best effort for undecodable payloads), and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedMessage {
    /// Stage that detected the failure.
    pub stage: &'static str,
    /// Report id, or a description when the payload could not be decoded.
    pub source: String,
    pub error: String,
}

/// Queue-depth samples for one stage boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueDepthStats {
    pub samples: u64,
    /// Sum of sampled depths (for the mean).
    pub sum: u64,
    pub max: u64,
}

impl QueueDepthStats {
    /// Mean sampled depth.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        self.sum as f64 / self.samples as f64
    }
}

/// Counters for one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineMetrics {
    pub input_pages: usize,
    /// Whole reports assembled by the porter.
    pub ported: usize,
    /// Reports dropped by the checker (ads, empty pages).
    pub screened_out: usize,
    pub parsed: usize,
    pub parse_errors: usize,
    pub extracted: usize,
    pub connected: usize,
    /// Messages that left the normal flow (corrupt wire payloads, dead
    /// stages, connector panics). A report quarantined after parsing is
    /// moved out of `parsed`/`extracted`, so each ported report has exactly
    /// one terminal fate and the accounting invariant holds.
    pub quarantined: usize,
    /// Details of the first 32 (`QUARANTINE_CAPTURE`) quarantined messages.
    pub quarantine: Vec<QuarantinedMessage>,
    /// Worker-side canon resolutions invalidated by entries the writer
    /// appended after the worker's snapshot, re-resolved at apply time.
    pub canon_conflicts: usize,
    pub wall_ms: u64,
    /// Wall-clock in microseconds (`wall_ms` rounds this down).
    pub wall_us: u64,
    /// Milliseconds each stage spent actively processing items, summed over
    /// its workers. Time blocked on an empty input or a full output channel
    /// is *not* busy — see `stage_blocked_ms`.
    pub stage_busy_ms: BTreeMap<&'static str, u64>,
    /// Milliseconds each stage spent waiting on channels, summed over its
    /// workers.
    pub stage_blocked_ms: BTreeMap<&'static str, u64>,
    /// Items each stage completed.
    pub stage_items: BTreeMap<&'static str, u64>,
    /// Queue-depth samples per stage boundary (pipelined runs only).
    pub queue_depths: BTreeMap<&'static str, QueueDepthStats>,
}

impl PipelineMetrics {
    /// Reports connected per second of wall-clock. Uses microsecond
    /// resolution so sub-millisecond runs do not truncate to zero.
    pub fn reports_per_second(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.connected as f64 * 1_000_000.0 / self.wall_us as f64
    }

    /// Items per wall-clock second for one stage.
    pub fn stage_throughput(&self, stage: &str) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        let items = self.stage_items.get(stage).copied().unwrap_or(0);
        items as f64 * 1_000_000.0 / self.wall_us as f64
    }

    /// The quarantine accounting invariant: every ported report has exactly
    /// one terminal fate.
    pub fn accounting_balanced(&self) -> bool {
        self.ported == self.screened_out + self.parsed + self.parse_errors + self.quarantined
    }

    /// Human-readable per-stage breakdown (busy/blocked/throughput, queue
    /// depths, quarantine) for the CLI and the E4 bench.
    pub fn stage_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "pipeline: {} pages -> {} reports -> {} connected in {} ms ({:.1} reports/s)\n",
            self.input_pages,
            self.ported,
            self.connected,
            self.wall_ms,
            self.reports_per_second()
        ));
        out.push_str(&format!(
            "{:<10} {:>8} {:>10} {:>12} {:>10}\n",
            "stage", "items", "busy ms", "blocked ms", "items/s"
        ));
        for stage in STAGE_NAMES {
            out.push_str(&format!(
                "{:<10} {:>8} {:>10} {:>12} {:>10.1}\n",
                stage,
                self.stage_items.get(stage).copied().unwrap_or(0),
                self.stage_busy_ms.get(stage).copied().unwrap_or(0),
                self.stage_blocked_ms.get(stage).copied().unwrap_or(0),
                self.stage_throughput(stage),
            ));
        }
        if !self.queue_depths.is_empty() {
            out.push_str("queue depth (mean/max):");
            for boundary in BOUNDARY_NAMES {
                let stats = self.queue_depths.get(boundary).copied().unwrap_or_default();
                out.push_str(&format!(" {boundary} {:.1}/{}", stats.mean(), stats.max));
            }
            out.push('\n');
        }
        if self.canon_conflicts > 0 {
            out.push_str(&format!(
                "canon conflicts re-resolved: {}\n",
                self.canon_conflicts
            ));
        }
        if self.quarantined > 0 {
            out.push_str(&format!(
                "quarantined: {} (showing {})\n",
                self.quarantined,
                self.quarantine.len()
            ));
            for q in &self.quarantine {
                out.push_str(&format!("  [{}] {}: {}\n", q.stage, q.source, q.error));
            }
        }
        out
    }
}

/// Result of a run that owns its connector.
pub struct PipelineOutput<C> {
    pub connector: C,
    pub metrics: PipelineMetrics,
    /// Structured event log of the run.
    pub trace: TraceLog,
}

// ---------------------------------------------------------------------------
// Shared run state
// ---------------------------------------------------------------------------

#[derive(Default)]
struct StageCounters {
    busy_us: AtomicU64,
    blocked_us: AtomicU64,
    items: AtomicU64,
}

#[derive(Default)]
struct DepthCounters {
    samples: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl DepthCounters {
    fn sample(&self, depth: usize) {
        self.samples.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(depth as u64, Ordering::Relaxed);
        self.max.fetch_max(depth as u64, Ordering::Relaxed);
    }

    fn stats(&self) -> QueueDepthStats {
        QueueDepthStats {
            samples: self.samples.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Counters and the dead-letter buffer, shared by every worker of a run.
#[derive(Default)]
struct Shared {
    ported: AtomicUsize,
    screened: AtomicUsize,
    parsed: AtomicUsize,
    parse_errors: AtomicUsize,
    extracted: AtomicUsize,
    quarantined: AtomicUsize,
    canon_conflicts: AtomicUsize,
    quarantine: parking_lot::Mutex<Vec<QuarantinedMessage>>,
    port: StageCounters,
    check: StageCounters,
    parse: StageCounters,
    extract: StageCounters,
    resolve: StageCounters,
    connect: StageCounters,
    depths: [DepthCounters; 5],
}

/// The success counters a report has already bumped when it leaves the
/// flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Passed {
    Nothing,
    /// Counted in `parsed`.
    Parse,
    /// Counted in `parsed` and `extracted`.
    Extract,
}

impl Shared {
    /// Dead-letter a message, rolling back the success counters it had
    /// `passed` — that keeps every report at exactly one terminal fate, so
    /// the accounting invariant survives late failures.
    fn quarantine(
        &self,
        trace: &TraceLog,
        stage: &'static str,
        source: String,
        error: String,
        passed: Passed,
    ) {
        if passed >= Passed::Parse {
            self.parsed.fetch_sub(1, Ordering::Relaxed);
        }
        if passed >= Passed::Extract {
            self.extracted.fetch_sub(1, Ordering::Relaxed);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        {
            let mut captured = self.quarantine.lock();
            if captured.len() < QUARANTINE_CAPTURE {
                captured.push(QuarantinedMessage {
                    stage,
                    source: source.clone(),
                    error: error.clone(),
                });
            }
        }
        trace.record(TraceEvent::Quarantined {
            stage,
            source,
            error,
        });
    }

    fn fill_metrics(&self, metrics: &mut PipelineMetrics) {
        metrics.ported = self.ported.load(Ordering::Relaxed);
        metrics.screened_out = self.screened.load(Ordering::Relaxed);
        metrics.parsed = self.parsed.load(Ordering::Relaxed);
        metrics.parse_errors = self.parse_errors.load(Ordering::Relaxed);
        metrics.extracted = self.extracted.load(Ordering::Relaxed);
        metrics.quarantined = self.quarantined.load(Ordering::Relaxed);
        metrics.canon_conflicts = self.canon_conflicts.load(Ordering::Relaxed);
        metrics.quarantine = std::mem::take(&mut *self.quarantine.lock());
        for (name, counters) in STAGE_NAMES.iter().zip([
            &self.port,
            &self.check,
            &self.parse,
            &self.extract,
            &self.resolve,
            &self.connect,
        ]) {
            metrics
                .stage_busy_ms
                .insert(name, counters.busy_us.load(Ordering::Relaxed) / 1000);
            metrics
                .stage_blocked_ms
                .insert(name, counters.blocked_us.load(Ordering::Relaxed) / 1000);
            metrics
                .stage_items
                .insert(name, counters.items.load(Ordering::Relaxed));
        }
        for (name, depth) in BOUNDARY_NAMES.iter().zip(&self.depths) {
            metrics.queue_depths.insert(name, depth.stats());
        }
    }
}

// ---------------------------------------------------------------------------
// Per-worker instrumentation
// ---------------------------------------------------------------------------

/// Separates a worker's busy time (processing an item) from its blocked time
/// (waiting on an empty input or a full output channel), per item, and emits
/// the stage start/finish trace events.
struct WorkerClock<'a> {
    stage: &'static str,
    worker: usize,
    counters: &'a StageCounters,
    trace: &'a TraceLog,
    busy_us: u64,
    blocked_us: u64,
    items: u64,
}

impl<'a> WorkerClock<'a> {
    fn start(
        stage: &'static str,
        worker: usize,
        counters: &'a StageCounters,
        trace: &'a TraceLog,
    ) -> Self {
        trace.record(TraceEvent::StageStarted { stage, worker });
        WorkerClock {
            stage,
            worker,
            counters,
            trace,
            busy_us: 0,
            blocked_us: 0,
            items: 0,
        }
    }

    fn busy<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let value = f();
        self.busy_us += t.elapsed().as_micros() as u64;
        value
    }

    fn blocked<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let value = f();
        self.blocked_us += t.elapsed().as_micros() as u64;
        value
    }

    /// Timed send; waiting on a full channel is blocked time, and long waits
    /// emit a backpressure-stall event.
    fn send<T>(&mut self, tx: &Sender<T>, value: T) -> Result<(), SendError<T>> {
        let t = Instant::now();
        let result = tx.send(value);
        let waited = t.elapsed().as_micros() as u64;
        self.blocked_us += waited;
        if waited >= STALL_TRACE_US {
            self.trace.record(TraceEvent::BackpressureStall {
                stage: self.stage,
                worker: self.worker,
                waited_us: waited,
            });
        }
        result
    }

    fn item_done(&mut self) {
        self.items += 1;
    }

    fn finish(self) {
        self.counters
            .busy_us
            .fetch_add(self.busy_us, Ordering::Relaxed);
        self.counters
            .blocked_us
            .fetch_add(self.blocked_us, Ordering::Relaxed);
        self.counters.items.fetch_add(self.items, Ordering::Relaxed);
        self.trace.record(TraceEvent::StageFinished {
            stage: self.stage,
            worker: self.worker,
            items: self.items,
            busy_us: self.busy_us,
            blocked_us: self.blocked_us,
        });
    }
}

/// Human-readable panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "stage panicked".to_owned()
    }
}

const STAGE_GONE: &str = "downstream stage disconnected";

/// Run the connector on one CTI, quarantining a panic instead of tearing the
/// run down. Returns whether the item connected.
fn connect_one<C: Connector>(
    connector: &mut C,
    cti: &IntermediateCti,
    shared: &Shared,
    trace: &TraceLog,
) -> bool {
    match catch_unwind(AssertUnwindSafe(|| connector.connect(cti))) {
        Ok(()) => true,
        Err(payload) => {
            shared.quarantine(
                trace,
                "connect",
                cti.meta.id.as_str().to_owned(),
                panic_message(payload),
                Passed::Extract,
            );
            false
        }
    }
}

/// The connect writer's reorder buffer: resolve workers race, so resolved
/// items arrive out of order; the writer applies them in exact port order.
/// `None` entries are Gone markers (terminated upstream). On channel close,
/// whatever is still buffered (items stranded behind a sequence number lost
/// to an undecodable payload) is drained in key order, so nothing is lost
/// and the apply order stays deterministic.
struct SeqWriter<T> {
    next_seq: u64,
    buffer: BTreeMap<u64, Option<T>>,
}

impl<T> SeqWriter<T> {
    fn new() -> Self {
        SeqWriter {
            next_seq: 0,
            buffer: BTreeMap::new(),
        }
    }

    fn insert(&mut self, seq: u64, item: Option<T>) {
        self.buffer.insert(seq, item);
    }

    /// Pop the next contiguous entry, if it has arrived.
    fn pop_ready(&mut self) -> Option<Option<T>> {
        let entry = self.buffer.remove(&self.next_seq)?;
        self.next_seq += 1;
        Some(entry)
    }

    /// End of stream: everything still buffered, in sequence order.
    fn drain(&mut self) -> impl Iterator<Item = Option<T>> + '_ {
        std::mem::take(&mut self.buffer).into_values()
    }
}

/// Apply one resolved item on the writer: precomputed deltas go through
/// `apply_delta`, passthrough CTIs through the classic `connect`. Panics are
/// quarantined either way. Returns 1 if the item connected.
fn apply_one<C: Connector>(
    connector: &mut C,
    resolved: Resolved,
    shared: &Shared,
    trace: &TraceLog,
    clock: &mut WorkerClock<'_>,
) -> usize {
    let applied = match resolved {
        Resolved::Cti(cti) => clock.busy(|| connect_one(connector, &cti, shared, trace)),
        Resolved::Delta(delta) => {
            let source = delta.report_id.clone();
            match clock.busy(|| catch_unwind(AssertUnwindSafe(|| connector.apply_delta(delta)))) {
                Ok(outcome) => {
                    if outcome.conflicts > 0 {
                        shared
                            .canon_conflicts
                            .fetch_add(outcome.conflicts, Ordering::Relaxed);
                        trace.record(TraceEvent::CanonConflictResolved {
                            source,
                            conflicts: outcome.conflicts,
                        });
                    }
                    if let Some(entries) = outcome.canon_published {
                        trace.record(TraceEvent::CanonSnapshotPublished { entries });
                    }
                    true
                }
                Err(payload) => {
                    shared.quarantine(
                        trace,
                        "connect",
                        source,
                        panic_message(payload),
                        Passed::Extract,
                    );
                    false
                }
            }
        }
    };
    clock.item_done();
    usize::from(applied)
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// How a [`Tagged`] message crosses a stage boundary. The stage graph is
/// generic over it, so each transport compiles to its own copy of the graph.
trait Transport {
    /// What travels on a channel that carries `Tagged<T>`.
    type Msg<T: Send>: Send;

    /// Send one message. On failure the message comes back with the error
    /// text, so the sender can name the report it quarantines. `poison`
    /// swaps the payload for undecodable bytes where the payload is bytes
    /// ([`crate::config::FaultInjection::corrupt_port_message`]).
    fn send<T: Serialize + Send>(
        clock: &mut WorkerClock<'_>,
        tx: &Sender<Self::Msg<T>>,
        msg: Tagged<T>,
        poison: bool,
    ) -> Result<(), (Tagged<T>, String)>;

    /// Open one received message: `Err((source, error))` when it cannot be
    /// decoded.
    fn recv<T: Deserialize + Send>(
        clock: &mut WorkerClock<'_>,
        msg: Self::Msg<T>,
    ) -> Result<Tagged<T>, (String, String)>;
}

/// In-process: the value moves through the channel unchanged.
struct Direct;

impl Transport for Direct {
    type Msg<T: Send> = Tagged<T>;

    fn send<T: Serialize + Send>(
        clock: &mut WorkerClock<'_>,
        tx: &Sender<Tagged<T>>,
        msg: Tagged<T>,
        _poison: bool,
    ) -> Result<(), (Tagged<T>, String)> {
        clock
            .send(tx, msg)
            .map_err(|SendError(lost)| (lost, STAGE_GONE.to_owned()))
    }

    fn recv<T: Deserialize + Send>(
        _clock: &mut WorkerClock<'_>,
        msg: Tagged<T>,
    ) -> Result<Tagged<T>, (String, String)> {
        Ok(msg)
    }
}

/// Multi-host: JSON bytes, encoded by the sender and decoded by the
/// receiver, as stages on separate hosts would exchange them.
struct Wire;

impl Transport for Wire {
    type Msg<T: Send> = Vec<u8>;

    fn send<T: Serialize + Send>(
        clock: &mut WorkerClock<'_>,
        tx: &Sender<Vec<u8>>,
        msg: Tagged<T>,
        poison: bool,
    ) -> Result<(), (Tagged<T>, String)> {
        let mut bytes = match clock.busy(|| serde_json::to_vec(&msg)) {
            Ok(bytes) => bytes,
            Err(e) => return Err((msg, e.to_string())),
        };
        if poison {
            bytes.clear();
            bytes.extend_from_slice(b"\xffpoison");
        }
        match clock.send(tx, bytes) {
            Ok(()) => Ok(()),
            Err(_) => Err((msg, STAGE_GONE.to_owned())),
        }
    }

    fn recv<T: Deserialize + Send>(
        clock: &mut WorkerClock<'_>,
        bytes: Vec<u8>,
    ) -> Result<Tagged<T>, (String, String)> {
        clock.busy(|| serde_json::from_slice(&bytes)).map_err(|e| {
            (
                format!("<wire message, {} bytes>", bytes.len()),
                e.to_string(),
            )
        })
    }
}

// ---------------------------------------------------------------------------
// Pipelined runner
// ---------------------------------------------------------------------------

/// Run the full pipeline over raw pages, pipelined and parallel.
pub fn run_pipelined<C: Connector>(
    reports: Vec<RawReport>,
    registry: &ParserRegistry,
    extractor: &dyn Extractor,
    mut connector: C,
    config: &PipelineConfig,
) -> PipelineOutput<C> {
    let start = Instant::now();
    let input_pages = reports.len();
    let trace = TraceLog::new();
    let shared = Shared::default();
    let run = if config.serialize_transport {
        run_graph::<Wire, C>
    } else {
        run_graph::<Direct, C>
    };
    let connected = run(
        reports,
        registry,
        extractor,
        &mut connector,
        config,
        &shared,
        &trace,
    );

    let mut metrics = PipelineMetrics {
        input_pages,
        connected,
        ..Default::default()
    };
    shared.fill_metrics(&mut metrics);
    let wall = start.elapsed();
    metrics.wall_us = wall.as_micros() as u64;
    metrics.wall_ms = wall.as_millis() as u64;
    debug_assert!(
        metrics.accounting_balanced(),
        "unbalanced accounting: {metrics:?}"
    );
    PipelineOutput {
        connector,
        metrics,
        trace,
    }
}

/// Spawn the queue-depth sampler: polls each boundary's backlog until the
/// run sets `done`, sampling at least once.
fn spawn_sampler<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    probes: Vec<Box<dyn Fn() -> usize + Send + 'scope>>,
    shared: &'scope Shared,
    done: &'scope AtomicBool,
) {
    scope.spawn(move || loop {
        for (depth, probe) in shared.depths.iter().zip(&probes) {
            depth.sample(probe());
        }
        if done.load(Ordering::Relaxed) {
            break;
        }
        std::thread::sleep(SAMPLE_INTERVAL);
    });
}

/// Boxed closure sampling one receiver's backlog.
fn probe<'a, T>(rx: &Receiver<T>) -> Box<dyn Fn() -> usize + Send + 'a>
where
    T: Send + 'a,
{
    let rx = rx.clone();
    Box::new(move || rx.len())
}

/// One parallel stage: its place in the accounting and its worker count.
struct Stage<'a, O> {
    name: &'static str,
    workers: usize,
    counters: &'a StageCounters,
    /// Success counters a report has bumped when it arrives here...
    arrives: Passed,
    /// ...and when it leaves.
    leaves: Passed,
    /// The report an output item carries, for quarantine records.
    id: fn(&O) -> &str,
}

/// Spawn one parallel stage's workers. Each opens what arrives on `rx`,
/// runs `step` on every item and forwards its result, or a Gone marker
/// where `step` ended the report; Gone markers pass straight through.
fn spawn_stage<'scope, X, I, O, F>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    shared: &'scope Shared,
    trace: &'scope TraceLog,
    stage: Stage<'scope, O>,
    rx: Receiver<X::Msg<I>>,
    tx: Sender<X::Msg<O>>,
    step: F,
) where
    X: Transport,
    I: Deserialize + Send,
    O: Serialize + Send + 'scope,
    X::Msg<I>: 'scope,
    X::Msg<O>: 'scope,
    F: Fn(u64, I, &mut WorkerClock<'scope>) -> Option<O> + Copy + Send + 'scope,
{
    let Stage {
        name,
        workers,
        counters,
        arrives,
        leaves,
        id,
    } = stage;
    for worker in 0..workers.max(1) {
        let (rx, tx) = (rx.clone(), tx.clone());
        scope.spawn(move || {
            let mut clock = WorkerClock::start(name, worker, counters, trace);
            while let Ok(msg) = clock.blocked(|| rx.recv()) {
                match X::recv(&mut clock, msg) {
                    Ok(Tagged::Item { seq, item }) => {
                        let out = match step(seq, item, &mut clock) {
                            Some(item) => Tagged::Item { seq, item },
                            None => Tagged::Gone { seq },
                        };
                        if let Err((Tagged::Item { item, .. }, error)) =
                            X::send(&mut clock, &tx, out, false)
                        {
                            shared.quarantine(trace, name, id(&item).to_owned(), error, leaves);
                        }
                        clock.item_done();
                    }
                    Ok(Tagged::Gone { seq }) => {
                        let _ = X::send(&mut clock, &tx, Tagged::Gone { seq }, false);
                    }
                    Err((source, error)) => shared.quarantine(trace, name, source, error, arrives),
                }
            }
            clock.finish();
        });
    }
}

fn report_id(report: &IntermediateReport) -> &str {
    report.id.as_str()
}

fn cti_id(cti: &IntermediateCti) -> &str {
    cti.meta.id.as_str()
}

/// The stage graph, written once for both transports: port → check →
/// parse → extract → resolve → connect. Returns how many reports connected.
fn run_graph<X: Transport, C: Connector>(
    reports: Vec<RawReport>,
    registry: &ParserRegistry,
    extractor: &dyn Extractor,
    connector: &mut C,
    config: &PipelineConfig,
    shared: &Shared,
    trace: &TraceLog,
) -> usize {
    let checker = DefaultChecker {
        min_text_len: config.checker_min_text_len,
    };
    let resolver = connector.resolver();
    let (checker, resolver) = (&checker, &resolver);
    let workers = config.workers;
    let poison_at = config.fault.corrupt_port_message;
    let cap = config.channel_capacity.max(1);
    let (tx_report, rx_report) = bounded::<X::Msg<IntermediateReport>>(cap);
    let (tx_checked, rx_checked) = bounded::<X::Msg<IntermediateReport>>(cap);
    let (tx_cti, rx_cti) = bounded::<X::Msg<IntermediateCti>>(cap);
    let (tx_extracted, rx_extracted) = bounded::<X::Msg<IntermediateCti>>(cap);
    let (tx_final, rx_final) = bounded::<X::Msg<Resolved>>(cap);
    let sampler_done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let probes = vec![
            probe(&rx_report),
            probe(&rx_checked),
            probe(&rx_cti),
            probe(&rx_extracted),
            probe(&rx_final),
        ];
        spawn_sampler(scope, probes, shared, &sampler_done);

        // Port: groups pages into reports and stamps each with its sequence
        // number.
        scope.spawn(move || {
            let mut clock = WorkerClock::start("port", 0, &shared.port, trace);
            let mut porter = DefaultPorter::new();
            let mut seq = 0u64;
            let mut emit = |report: IntermediateReport, clock: &mut WorkerClock<'_>| {
                shared.ported.fetch_add(1, Ordering::Relaxed);
                let poison = poison_at == Some(seq as usize);
                let msg = Tagged::Item { seq, item: report };
                if let Err((Tagged::Item { item, .. }, error)) =
                    X::send(clock, &tx_report, msg, poison)
                {
                    let source = item.id.as_str().to_owned();
                    shared.quarantine(trace, "port", source, error, Passed::Nothing);
                }
                seq += 1;
                clock.item_done();
            };
            for raw in reports {
                if let Some(report) = clock.busy(|| porter.feed(raw)) {
                    emit(report, &mut clock);
                }
            }
            for report in clock.busy(|| porter.flush()) {
                emit(report, &mut clock);
            }
            clock.finish();
        });

        let check = Stage {
            name: "check",
            workers: workers.check,
            counters: &shared.check,
            arrives: Passed::Nothing,
            leaves: Passed::Nothing,
            id: report_id,
        };
        spawn_stage::<X, _, _, _>(
            scope,
            shared,
            trace,
            check,
            rx_report,
            tx_checked,
            |_, report, clock| {
                if clock.busy(|| checker.check(&report)) {
                    Some(report)
                } else {
                    shared.screened.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
        );

        let parse = Stage {
            name: "parse",
            workers: workers.parse,
            counters: &shared.parse,
            arrives: Passed::Nothing,
            leaves: Passed::Parse,
            id: cti_id,
        };
        spawn_stage::<X, IntermediateReport, _, _>(
            scope,
            shared,
            trace,
            parse,
            rx_checked,
            tx_cti,
            |_, report, clock| match clock.busy(|| registry.parse(&report)) {
                Ok(cti) => {
                    shared.parsed.fetch_add(1, Ordering::Relaxed);
                    Some(cti)
                }
                Err(_) => {
                    shared.parse_errors.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
        );

        let extract = Stage {
            name: "extract",
            workers: workers.extract,
            counters: &shared.extract,
            arrives: Passed::Parse,
            leaves: Passed::Extract,
            id: cti_id,
        };
        spawn_stage::<X, IntermediateCti, _, _>(
            scope,
            shared,
            trace,
            extract,
            rx_cti,
            tx_extracted,
            |_, mut cti, clock| {
                clock.busy(|| extractor.extract(&mut cti));
                shared.extracted.fetch_add(1, Ordering::Relaxed);
                Some(cti)
            },
        );

        // Resolve: the parallel half of the split connector. With a
        // resolver, each worker turns a CTI into a self-contained delta;
        // without one, items pass through for the writer's classic path.
        let resolve = Stage {
            name: "resolve",
            workers: workers.connect,
            counters: &shared.resolve,
            arrives: Passed::Extract,
            leaves: Passed::Extract,
            id: Resolved::report_id,
        };
        spawn_stage::<X, IntermediateCti, _, _>(
            scope,
            shared,
            trace,
            resolve,
            rx_extracted,
            tx_final,
            |seq, cti, clock| resolve_item(resolver, seq, cti, shared, trace, clock),
        );

        // Connect: the single writer, applying in sequence order.
        let mut clock = WorkerClock::start("connect", 0, &shared.connect, trace);
        let mut writer = SeqWriter::<Resolved>::new();
        let mut connected = 0usize;
        while let Ok(msg) = clock.blocked(|| rx_final.recv()) {
            match X::recv(&mut clock, msg) {
                Ok(Tagged::Item { seq, item }) => writer.insert(seq, Some(item)),
                Ok(Tagged::Gone { seq }) => writer.insert(seq, None),
                Err((source, error)) => {
                    shared.quarantine(trace, "connect", source, error, Passed::Extract);
                    continue;
                }
            }
            while let Some(entry) = writer.pop_ready() {
                if let Some(resolved) = entry {
                    connected += apply_one(connector, resolved, shared, trace, &mut clock);
                }
            }
        }
        for resolved in writer.drain().flatten() {
            connected += apply_one(connector, resolved, shared, trace, &mut clock);
        }
        clock.finish();
        sampler_done.store(true, Ordering::Relaxed);
        connected
    })
}

/// Run the resolve half on one CTI: `Some(resolved)` to forward, `None` when
/// a resolver panic quarantined the item (a Gone marker must flow instead).
fn resolve_item(
    resolver: &Option<Arc<dyn CtiResolver>>,
    seq: u64,
    cti: IntermediateCti,
    shared: &Shared,
    trace: &TraceLog,
    clock: &mut WorkerClock<'_>,
) -> Option<Resolved> {
    match resolver {
        Some(r) => match clock.busy(|| catch_unwind(AssertUnwindSafe(|| r.resolve(&cti)))) {
            Ok(mut delta) => {
                delta.seq = seq;
                Some(Resolved::Delta(delta))
            }
            Err(payload) => {
                shared.quarantine(
                    trace,
                    "resolve",
                    cti.meta.id.as_str().to_owned(),
                    panic_message(payload),
                    Passed::Extract,
                );
                None
            }
        },
        None => Some(Resolved::Cti(cti)),
    }
}

// ---------------------------------------------------------------------------
// Sequential baseline
// ---------------------------------------------------------------------------

/// The sequential baseline: same stages, one thread, no channels (E4's
/// comparison point). Per-stage busy time and item counts are recorded with
/// the same per-item discipline as the pipelined runner (there is no blocked
/// time — nothing to wait on).
pub fn run_sequential<C: Connector>(
    reports: Vec<RawReport>,
    registry: &ParserRegistry,
    extractor: &dyn Extractor,
    mut connector: C,
    config: &PipelineConfig,
) -> PipelineOutput<C> {
    let start = Instant::now();
    let mut metrics = PipelineMetrics {
        input_pages: reports.len(),
        ..Default::default()
    };
    let checker = DefaultChecker {
        min_text_len: config.checker_min_text_len,
    };
    let trace = TraceLog::new();
    let shared = Shared::default();

    let mut port_clock = WorkerClock::start("port", 0, &shared.port, &trace);
    let mut porter = DefaultPorter::new();
    let mut completed = Vec::new();
    for raw in reports {
        if let Some(report) = port_clock.busy(|| porter.feed(raw)) {
            completed.push(report);
            port_clock.item_done();
        }
    }
    for report in port_clock.busy(|| porter.flush()) {
        completed.push(report);
        port_clock.item_done();
    }
    port_clock.finish();
    metrics.ported = completed.len();

    let resolver = connector.resolver();
    let mut check_clock = WorkerClock::start("check", 0, &shared.check, &trace);
    let mut parse_clock = WorkerClock::start("parse", 0, &shared.parse, &trace);
    let mut extract_clock = WorkerClock::start("extract", 0, &shared.extract, &trace);
    let mut resolve_clock = WorkerClock::start("resolve", 0, &shared.resolve, &trace);
    let mut connect_clock = WorkerClock::start("connect", 0, &shared.connect, &trace);
    let mut seq = 0u64;
    for report in completed {
        let kept = check_clock.busy(|| checker.check(&report));
        check_clock.item_done();
        if !kept {
            metrics.screened_out += 1;
            continue;
        }
        let outcome = parse_clock.busy(|| registry.parse(&report));
        parse_clock.item_done();
        let mut cti = match outcome {
            Ok(cti) => {
                metrics.parsed += 1;
                cti
            }
            Err(_) => {
                metrics.parse_errors += 1;
                continue;
            }
        };
        extract_clock.busy(|| extractor.extract(&mut cti));
        extract_clock.item_done();
        metrics.extracted += 1;
        match &resolver {
            Some(r) => {
                // Same resolve/apply split as the pipelined runner, on one
                // thread, so E4's baseline attributes time to the same six
                // stages — and so both modes run literally the same code.
                let mut delta = resolve_clock.busy(|| r.resolve(&cti));
                delta.seq = seq;
                resolve_clock.item_done();
                let source = delta.report_id.clone();
                let outcome = connect_clock.busy(|| connector.apply_delta(delta));
                if outcome.conflicts > 0 {
                    metrics.canon_conflicts += outcome.conflicts;
                    trace.record(TraceEvent::CanonConflictResolved {
                        source,
                        conflicts: outcome.conflicts,
                    });
                }
                if let Some(entries) = outcome.canon_published {
                    trace.record(TraceEvent::CanonSnapshotPublished { entries });
                }
            }
            None => {
                connect_clock.busy(|| connector.connect(&cti));
            }
        }
        seq += 1;
        connect_clock.item_done();
        metrics.connected += 1;
    }
    check_clock.finish();
    parse_clock.finish();
    extract_clock.finish();
    resolve_clock.finish();
    connect_clock.finish();

    for (name, counters) in STAGE_NAMES.iter().zip([
        &shared.port,
        &shared.check,
        &shared.parse,
        &shared.extract,
        &shared.resolve,
        &shared.connect,
    ]) {
        metrics
            .stage_busy_ms
            .insert(name, counters.busy_us.load(Ordering::Relaxed) / 1000);
        metrics.stage_blocked_ms.insert(name, 0);
        metrics
            .stage_items
            .insert(name, counters.items.load(Ordering::Relaxed));
    }
    let wall = start.elapsed();
    metrics.wall_us = wall.as_micros() as u64;
    metrics.wall_ms = wall.as_millis() as u64;
    PipelineOutput {
        connector,
        metrics,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultInjection, PipelineConfig, StageWorkers};
    use crate::stages::{GraphConnector, IocOnlyExtractor, TabularConnector};
    use kg_crawler::{crawl_all, CrawlState, CrawlerConfig};
    use std::sync::Arc;

    fn crawled_reports() -> Vec<RawReport> {
        let web = kg_corpus::SimulatedWeb::new(
            kg_corpus::World::generate(kg_corpus::WorldConfig::tiny(3)),
            kg_corpus::standard_sources(6),
            11,
        );
        let mut state = CrawlState::new();
        let (reports, _) = crawl_all(&web, &mut state, &CrawlerConfig::default(), u64::MAX / 4);
        reports
    }

    fn ioc_extractor() -> IocOnlyExtractor {
        IocOnlyExtractor {
            baseline: Arc::new(kg_extract::RegexNerBaseline::new(vec![])),
        }
    }

    #[test]
    fn pipelined_processes_crawled_corpus() {
        let reports = crawled_reports();
        let registry = ParserRegistry::new();
        let extractor = ioc_extractor();
        let out = run_pipelined(
            reports.clone(),
            &registry,
            &extractor,
            GraphConnector::new(),
            &PipelineConfig::default(),
        );
        let m = &out.metrics;
        assert_eq!(m.input_pages, reports.len());
        assert!(m.ported > 0);
        assert!(m.screened_out > 0, "ads must be screened: {m:?}");
        assert_eq!(m.parsed, m.extracted);
        assert_eq!(m.extracted, m.connected);
        assert_eq!(m.quarantined, 0);
        assert!(m.accounting_balanced(), "{m:?}");
        assert!(out.connector.graph.node_count() > 0);
        assert!(out.connector.graph.edge_count() > 0);
    }

    /// Byte-identical graphs, not merely equal counts: fnv1a64 over the
    /// canonical JSON serialisation, paired with the per-element
    /// `GraphStore::digest` so the two schemes are checked against each
    /// other on every equivalence assertion.
    fn graph_digest(connector: &GraphConnector) -> (u64, u64) {
        let bytes = serde_json::to_vec(&connector.graph).expect("graph serialises");
        (kg_ir::fnv1a64(&bytes), connector.graph.digest())
    }

    #[test]
    fn sequential_and_pipelined_agree() {
        let reports = crawled_reports();
        let registry = ParserRegistry::new();
        let extractor = ioc_extractor();
        let seq = run_sequential(
            reports.clone(),
            &registry,
            &extractor,
            GraphConnector::new(),
            &PipelineConfig::default(),
        );
        let pip = run_pipelined(
            reports,
            &registry,
            &extractor,
            GraphConnector::new(),
            &PipelineConfig::default(),
        );
        assert_eq!(seq.metrics.connected, pip.metrics.connected);
        assert_eq!(
            seq.connector.graph.node_count(),
            pip.connector.graph.node_count()
        );
        assert_eq!(
            seq.connector.graph.edge_count(),
            pip.connector.graph.edge_count()
        );
        assert_eq!(graph_digest(&seq.connector), graph_digest(&pip.connector));
    }

    #[test]
    fn parallel_resolver_is_byte_identical_to_sequential() {
        use kg_fusion::ResolverConfig;
        let reports = crawled_reports();
        let registry = ParserRegistry::new();
        let extractor = ioc_extractor();
        let seq = run_sequential(
            reports.clone(),
            &registry,
            &extractor,
            GraphConnector::with_resolver(ResolverConfig::standard()),
            &PipelineConfig::default(),
        );
        let seq_digest = graph_digest(&seq.connector);
        for (connect_workers, serialize_transport) in [(1usize, false), (4, false), (4, true)] {
            let config = PipelineConfig {
                workers: StageWorkers {
                    connect: connect_workers,
                    ..StageWorkers::default()
                },
                serialize_transport,
                ..PipelineConfig::default()
            };
            let pip = run_pipelined(
                reports.clone(),
                &registry,
                &extractor,
                GraphConnector::with_resolver(ResolverConfig::standard()),
                &config,
            );
            assert_eq!(
                seq.metrics.connected, pip.metrics.connected,
                "workers={connect_workers} serialized={serialize_transport}"
            );
            assert_eq!(
                seq_digest,
                graph_digest(&pip.connector),
                "workers={connect_workers} serialized={serialize_transport}"
            );
            assert_eq!(
                seq.connector.canon().len(),
                pip.connector.canon().len(),
                "workers={connect_workers} serialized={serialize_transport}"
            );
        }
    }

    #[test]
    fn metrics_agree_across_worker_counts() {
        let reports = crawled_reports();
        let registry = ParserRegistry::new();
        let extractor = ioc_extractor();
        let seq = run_sequential(
            reports.clone(),
            &registry,
            &extractor,
            GraphConnector::new(),
            &PipelineConfig::default(),
        );
        for workers in [1usize, 4, 8] {
            let config = PipelineConfig {
                workers: StageWorkers {
                    check: workers,
                    parse: workers,
                    extract: workers,
                    connect: workers,
                },
                ..PipelineConfig::default()
            };
            let pip = run_pipelined(
                reports.clone(),
                &registry,
                &extractor,
                GraphConnector::new(),
                &config,
            );
            let (s, p) = (&seq.metrics, &pip.metrics);
            assert_eq!(s.ported, p.ported, "workers={workers}");
            assert_eq!(s.screened_out, p.screened_out, "workers={workers}");
            assert_eq!(s.parsed, p.parsed, "workers={workers}");
            assert_eq!(s.parse_errors, p.parse_errors, "workers={workers}");
            assert_eq!(s.connected, p.connected, "workers={workers}");
            assert!(p.accounting_balanced(), "workers={workers}: {p:?}");
        }
    }

    /// The two transports run one stage graph, so every counter, every
    /// stage's item count and the graph itself must agree — with and
    /// without a resolver (delta vs passthrough messages on the wire).
    #[test]
    fn serialized_transport_agrees_with_direct() {
        use kg_fusion::ResolverConfig;
        let reports = crawled_reports();
        let registry = ParserRegistry::new();
        let extractor = ioc_extractor();
        let connector = |fused: bool| {
            if fused {
                GraphConnector::with_resolver(ResolverConfig::standard())
            } else {
                GraphConnector::new()
            }
        };
        for fused in [false, true] {
            for connect_workers in [1usize, 4] {
                let run = |serialize_transport: bool| {
                    let config = PipelineConfig {
                        workers: StageWorkers {
                            connect: connect_workers,
                            ..StageWorkers::default()
                        },
                        serialize_transport,
                        ..PipelineConfig::default()
                    };
                    run_pipelined(
                        reports.clone(),
                        &registry,
                        &extractor,
                        connector(fused),
                        &config,
                    )
                };
                let (direct, wire) = (run(false), run(true));
                let ctx = format!("fused={fused} connect={connect_workers}");
                let counters = |m: &PipelineMetrics| {
                    [
                        m.ported,
                        m.screened_out,
                        m.parsed,
                        m.parse_errors,
                        m.extracted,
                        m.connected,
                        m.quarantined,
                        m.canon_conflicts,
                    ]
                };
                assert_eq!(counters(&direct.metrics), counters(&wire.metrics), "{ctx}");
                assert_eq!(
                    direct.metrics.stage_items, wire.metrics.stage_items,
                    "{ctx}"
                );
                assert_eq!(wire.metrics.quarantined, 0, "{ctx}");
                assert!(wire.metrics.accounting_balanced(), "{ctx}");
                assert_eq!(
                    graph_digest(&direct.connector),
                    graph_digest(&wire.connector),
                    "{ctx}"
                );
            }
        }
    }

    #[test]
    fn poison_wire_message_is_quarantined_not_fatal() {
        let reports = crawled_reports();
        let registry = ParserRegistry::new();
        let extractor = ioc_extractor();
        let config = PipelineConfig {
            serialize_transport: true,
            fault: FaultInjection {
                corrupt_port_message: Some(0),
            },
            ..PipelineConfig::default()
        };
        let out = run_pipelined(
            reports,
            &registry,
            &extractor,
            GraphConnector::new(),
            &config,
        );
        let m = &out.metrics;
        assert_eq!(m.quarantined, 1, "{m:?}");
        assert_eq!(m.quarantine.len(), 1);
        assert_eq!(m.quarantine[0].stage, "check");
        assert!(
            m.quarantine[0].source.contains("wire message"),
            "{:?}",
            m.quarantine[0]
        );
        assert!(!m.quarantine[0].error.is_empty());
        // The run completed: everything else flowed through and the
        // accounting invariant holds despite the loss.
        assert!(m.connected > 0);
        assert_eq!(m.parsed, m.connected);
        assert!(m.accounting_balanced(), "{m:?}");
        assert!(out
            .trace
            .snapshot()
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Quarantined { .. })));
    }

    /// Connector that panics on its Nth item, then recovers.
    struct PanickyConnector {
        inner: TabularConnector,
        connects: usize,
        panic_at: usize,
    }

    impl Connector for PanickyConnector {
        fn connect(&mut self, cti: &IntermediateCti) {
            let n = self.connects;
            self.connects += 1;
            if n == self.panic_at {
                panic!("injected connector failure");
            }
            self.inner.connect(cti);
        }
    }

    #[test]
    fn panicking_connector_keeps_invariant() {
        let reports = crawled_reports();
        let registry = ParserRegistry::new();
        let extractor = ioc_extractor();
        // Quiet the default panic hook for the injected panic.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = run_pipelined(
            reports,
            &registry,
            &extractor,
            PanickyConnector {
                inner: TabularConnector::new(),
                connects: 0,
                panic_at: 1,
            },
            &PipelineConfig::default(),
        );
        std::panic::set_hook(hook);
        let m = &out.metrics;
        assert_eq!(m.quarantined, 1, "{m:?}");
        assert_eq!(m.quarantine[0].stage, "connect");
        assert!(
            m.quarantine[0].error.contains("injected"),
            "{:?}",
            m.quarantine[0]
        );
        assert!(m.accounting_balanced(), "{m:?}");
        // The failed item was rolled out of parsed/extracted; the rest
        // connected normally.
        assert_eq!(m.parsed, m.connected);
        assert_eq!(m.extracted, m.connected);
        assert!(m.connected > 0);
    }

    #[test]
    fn tabular_connector_swaps_in() {
        let reports = crawled_reports();
        let registry = ParserRegistry::new();
        let extractor = ioc_extractor();
        let out = run_pipelined(
            reports,
            &registry,
            &extractor,
            TabularConnector::new(),
            &PipelineConfig::default(),
        );
        assert!(out.metrics.connected > 0);
        assert!(!out.connector.entities.is_empty());
        assert!(!out.connector.mentions.is_empty());
    }

    #[test]
    fn metrics_track_stages() {
        let reports = crawled_reports();
        let registry = ParserRegistry::new();
        let extractor = ioc_extractor();
        let out = run_pipelined(
            reports,
            &registry,
            &extractor,
            GraphConnector::new(),
            &PipelineConfig::default(),
        );
        let m = &out.metrics;
        assert_eq!(m.stage_busy_ms.len(), 6);
        assert_eq!(m.stage_blocked_ms.len(), 6);
        assert_eq!(m.stage_items.len(), 6);
        assert_eq!(m.queue_depths.len(), 5);
        assert!(
            m.queue_depths.values().all(|d| d.samples >= 1),
            "{:?}",
            m.queue_depths
        );
        assert!(m.reports_per_second() >= 0.0);
        assert_eq!(
            m.stage_items["connect"],
            m.connected as u64 + m.quarantined as u64
        );
        // Every stage announced itself in the trace.
        let records = out.trace.snapshot();
        for stage in STAGE_NAMES {
            assert!(
                records.iter().any(
                    |r| matches!(r.event, TraceEvent::StageStarted { stage: s, .. } if s == stage)
                ),
                "missing StageStarted for {stage}"
            );
            assert!(
                records.iter().any(
                    |r| matches!(r.event, TraceEvent::StageFinished { stage: s, .. } if s == stage)
                ),
                "missing StageFinished for {stage}"
            );
        }
        // The report renders every stage row.
        let report = m.stage_report();
        for stage in STAGE_NAMES {
            assert!(report.contains(stage), "{report}");
        }
    }

    /// Connector that sleeps per item: upstream stages starve on the full
    /// channel, so their honest busy time must stay far below wall time.
    struct SlowConnector {
        inner: TabularConnector,
    }

    impl Connector for SlowConnector {
        fn connect(&mut self, cti: &IntermediateCti) {
            std::thread::sleep(Duration::from_millis(2));
            self.inner.connect(cti);
        }
    }

    #[test]
    fn busy_time_excludes_channel_waits_when_starved() {
        let reports = crawled_reports();
        let registry = ParserRegistry::new();
        let extractor = ioc_extractor();
        let config = PipelineConfig {
            channel_capacity: 1,
            ..PipelineConfig::default()
        };
        let out = run_pipelined(
            reports,
            &registry,
            &extractor,
            SlowConnector {
                inner: TabularConnector::new(),
            },
            &config,
        );
        let m = &out.metrics;
        assert!(m.connected > 0);
        // The connector serialises everything at 2ms/item, so wall time is
        // at least that long...
        assert!(m.wall_ms >= 2 * m.connected as u64 / 2, "{m:?}");
        // ...and the mostly-idle check stage must NOT report the whole run
        // as busy (the old accounting counted blocked-on-recv as busy).
        assert!(
            m.stage_busy_ms["check"] < m.wall_ms,
            "check busy {} >= wall {}",
            m.stage_busy_ms["check"],
            m.wall_ms
        );
        // Time waiting on channels is visible as blocked time upstream.
        let upstream_blocked: u64 = ["port", "check", "parse", "extract"]
            .iter()
            .map(|s| m.stage_blocked_ms[*s])
            .sum();
        assert!(upstream_blocked > 0, "{m:?}");
    }

    #[test]
    fn reports_per_second_survives_sub_millisecond_runs() {
        let m = PipelineMetrics {
            connected: 4,
            wall_ms: 0,
            wall_us: 500,
            ..PipelineMetrics::default()
        };
        assert_eq!(m.reports_per_second(), 8000.0);
        let empty = PipelineMetrics::default();
        assert_eq!(empty.reports_per_second(), 0.0);
    }

    #[test]
    fn sequential_records_stage_metrics() {
        let reports = crawled_reports();
        let registry = ParserRegistry::new();
        let extractor = ioc_extractor();
        let out = run_sequential(
            reports,
            &registry,
            &extractor,
            GraphConnector::new(),
            &PipelineConfig::default(),
        );
        let m = &out.metrics;
        assert_eq!(m.stage_items.len(), 6);
        assert_eq!(m.stage_items["resolve"], m.extracted as u64);
        assert_eq!(m.stage_items["connect"], m.connected as u64);
        assert_eq!(m.quarantined, 0);
        assert!(m.accounting_balanced());
        assert!(m.wall_us >= m.wall_ms * 1000);
    }
}
