//! Structured event log for pipeline observability.
//!
//! A bounded, thread-safe ring buffer of typed events. Stage workers, the
//! quarantine path, extractor training and the ingest driver record what
//! happened and when; the CLI (`build --stats`) and the E4 bench render it
//! afterwards. When the
//! buffer overflows, the oldest records are evicted (and counted) so tracing
//! can stay always-on without unbounded memory.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::Instant;

/// Default record capacity of a [`TraceLog`].
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// One structured observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A stage worker started.
    StageStarted { stage: &'static str, worker: usize },
    /// A stage worker drained its input and exited.
    StageFinished {
        stage: &'static str,
        worker: usize,
        items: u64,
        busy_us: u64,
        blocked_us: u64,
    },
    /// A message left the normal flow and was captured (dead-letter path).
    Quarantined {
        stage: &'static str,
        source: String,
        error: String,
    },
    /// A send blocked on a full channel longer than the stall threshold.
    BackpressureStall {
        stage: &'static str,
        worker: usize,
        waited_us: u64,
    },
    /// The crawl scheduler rebooted an aborted source crawler.
    SchedulerReboot {
        source: String,
        due_ms: u64,
        error: String,
    },
    /// A source's circuit breaker changed position (states rendered as
    /// strings so the pipeline crate stays independent of the crawler).
    BreakerTransition {
        source: String,
        at_ms: u64,
        from: String,
        to: String,
        reason: String,
    },
    /// The durable ingest driver persisted a KG snapshot.
    SnapshotTaken {
        seq: u64,
        cycles_done: u64,
        kg_digest: u64,
    },
    /// The serving layer published a new read snapshot (epoch swap).
    SnapshotPublished {
        version: u64,
        kg_digest: u64,
        nodes: usize,
        edges: usize,
        /// Wall time spent freezing the snapshot, microseconds.
        build_us: u64,
        /// How it was frozen: "full" rebuild or "incremental" epoch patch.
        mode: &'static str,
    },
    /// A standing-query subscription matched against one epoch's delta
    /// (recorded once per subscription per publish, only when it matched).
    SubscriptionMatched {
        subscription: u64,
        /// Digest of the snapshot the matches were evaluated against.
        kg_digest: u64,
        matched: usize,
        appeared: usize,
        updated: usize,
        removed: usize,
    },
    /// A subscriber's bounded mailbox overflowed during delivery; the
    /// events were dropped but exactly counted (never silent loss).
    MailboxOverflow {
        subscription: u64,
        kg_digest: u64,
        dropped: u64,
    },
    /// Point-in-time query-cache counters from the serving layer.
    CacheReport {
        hits: u64,
        misses: u64,
        evictions: u64,
        entries: usize,
    },
    /// Point-in-time compiled-plan-cache counters from the serving layer.
    /// Plans are keyed by normalized query text alone (no snapshot digest),
    /// so `compiles` staying flat across publishes is the observable proof
    /// that cached plans survive epochs.
    PlanCacheReport {
        hits: u64,
        misses: u64,
        compiles: u64,
        evictions: u64,
        entries: usize,
    },
    /// A durable run replayed its journal on startup.
    JournalReplayed {
        records: usize,
        torn_tail: bool,
        resumed_from_snapshot: Option<u64>,
    },
    /// The connect writer republished the canon-table snapshot handed to
    /// resolve workers.
    CanonSnapshotPublished { entries: usize },
    /// A worker resolution was invalidated by canon entries appended after
    /// its snapshot and re-resolved at apply time.
    CanonConflictResolved { source: String, conflicts: usize },
    /// The extractor was trained at bootstrap: wall time of each training
    /// phase, in microseconds.
    NerTrained {
        analyze_us: u64,
        label_model_us: u64,
        embeddings_us: u64,
        featurize_us: u64,
        train_us: u64,
    },
    /// A crawl-and-ingest round began.
    IngestStarted { pages: usize },
    /// A crawl-and-ingest round finished.
    IngestFinished {
        connected: usize,
        quarantined: usize,
        wall_us: u64,
    },
}

/// An event plus its position and capture time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotone sequence number (keeps counting across ring eviction).
    pub seq: u64,
    /// Microseconds since the log was created.
    pub at_us: u64,
    pub event: TraceEvent,
}

#[derive(Debug, Default)]
struct Ring {
    records: VecDeque<TraceRecord>,
    next_seq: u64,
    dropped: u64,
}

/// Bounded ring buffer of [`TraceRecord`]s; safe to share across workers.
#[derive(Debug)]
pub struct TraceLog {
    started: Instant,
    capacity: usize,
    inner: Mutex<Ring>,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceLog {
    /// Log with the default capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Log retaining at most `capacity` records (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            started: Instant::now(),
            capacity: capacity.max(1),
            inner: Mutex::new(Ring::default()),
        }
    }

    /// Append an event, evicting the oldest record when full.
    pub fn record(&self, event: TraceEvent) {
        let at_us = self.started.elapsed().as_micros() as u64;
        let mut ring = self.inner.lock();
        let seq = ring.next_seq;
        ring.next_seq += 1;
        if ring.records.len() == self.capacity {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        ring.records.push_back(TraceRecord { seq, at_us, event });
    }

    /// Copy out the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.inner.lock().records.iter().cloned().collect()
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events recorded over the log's lifetime, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// Records evicted by ring overflow.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Re-record every retained record of `other` into `self`, in order.
    /// Sequence numbers and timestamps are re-assigned relative to `self`.
    pub fn absorb(&self, other: &TraceLog) {
        for record in other.snapshot() {
            self.record(record.event);
        }
    }

    /// Render the newest `limit` records, one per line (oldest of the tail
    /// first), for CLI/bench output.
    pub fn render_tail(&self, limit: usize) -> String {
        let records = self.snapshot();
        let skip = records.len().saturating_sub(limit);
        let mut out = String::new();
        for record in &records[skip..] {
            out.push_str(&format!(
                "  [{:>6}us #{:<4}] {:?}\n",
                record.at_us, record.seq, record.event
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_newest_and_counts_evictions() {
        let log = TraceLog::with_capacity(3);
        for worker in 0..5 {
            log.record(TraceEvent::StageStarted {
                stage: "check",
                worker,
            });
        }
        let records = log.snapshot();
        assert_eq!(records.len(), 3);
        assert_eq!(log.dropped(), 2);
        assert_eq!(log.total_recorded(), 5);
        // Newest three survive, sequence numbers intact.
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert!(records.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn absorb_re_records_in_order() {
        let inner = TraceLog::new();
        inner.record(TraceEvent::IngestStarted { pages: 7 });
        inner.record(TraceEvent::IngestFinished {
            connected: 5,
            quarantined: 0,
            wall_us: 10,
        });
        let outer = TraceLog::new();
        outer.record(TraceEvent::StageStarted {
            stage: "port",
            worker: 0,
        });
        outer.absorb(&inner);
        let events: Vec<TraceEvent> = outer.snapshot().into_iter().map(|r| r.event).collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1], TraceEvent::IngestStarted { pages: 7 });
    }

    #[test]
    fn render_tail_limits_output() {
        let log = TraceLog::new();
        for worker in 0..10 {
            log.record(TraceEvent::StageStarted {
                stage: "parse",
                worker,
            });
        }
        let tail = log.render_tail(2);
        assert_eq!(tail.lines().count(), 2);
        assert!(tail.contains("worker: 9"));
    }
}
