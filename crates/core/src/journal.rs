//! Durable, append-only ingest journal with torn-tail tolerance.
//!
//! The journal is the audit trail of a durable ingestion run (see
//! [`crate::durable`]): one record per crawl cycle, one per ingested report
//! (keyed by content hash), and a marker per persisted KG snapshot. The
//! format is length-prefixed and checksummed so a reader can always tell a
//! complete record from the torn tail a crash leaves behind:
//!
//! ```text
//! [8-byte magic "KGJOURN1"]
//! repeat:
//!   [u32 LE payload length][u64 LE FNV-1a of payload][payload: JSON record]
//! ```
//!
//! The frame is `kg_persist`'s ([`encode_frame_into`] / [`decode_frame_at`]),
//! the same one its segment data files and manifest log use.
//!
//! Replay stops at the first frame whose length, checksum or JSON does not
//! check out and reports how many clean bytes precede it; re-opening for
//! append truncates the torn tail away. Records are *facts about the past*,
//! never instructions: recovery correctness comes from the segment-store
//! checkpoints the `Snapshot` markers point at (see DESIGN.md "Failure model
//! & recovery").

use kg_persist::format::{decode_frame_at, encode_frame_into};
use kg_persist::{FaultHook, PersistError, Vfs, FRAME_HEADER};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// First bytes of every journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"KGJOURN1";

/// One journal record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A scheduler cycle fired for a source.
    Cycle {
        source: String,
        /// When the job fired (simulated ms).
        due_ms: u64,
        new_reports: usize,
        pages_fetched: usize,
        /// Abort cause, if the cycle aborted.
        error: Option<String>,
    },
    /// One whole report entered the knowledge graph.
    Ingested {
        /// Order-sensitive combined hash of all page bodies.
        content_hash: u64,
        source: String,
        report_key: String,
    },
    /// A segment-store checkpoint was durably committed (its manifest
    /// record fsynced) *before* this marker was appended — the marker is
    /// an audit record and the journal-truncation horizon, not the commit
    /// point itself.
    Snapshot {
        seq: u64,
        /// Scheduler cycles completed at snapshot time.
        cycles_done: u64,
        /// FNV-1a digest of the serialized graph at snapshot time.
        kg_digest: u64,
    },
}

/// Failure modes of the journal and of the durable store beside it.
#[derive(Debug)]
pub enum JournalError {
    Io(std::io::Error),
    Serde(serde_json::Error),
    /// The file exists but does not start with [`JOURNAL_MAGIC`].
    BadHeader,
    /// A test-configured crash point fired (see [`Journal::set_crash_after`]
    /// and [`kg_persist::FaultHook`]).
    InjectedCrash,
    /// The segment store underneath the snapshots failed.
    Persist(PersistError),
    /// The restored checkpoint holds no crawl scheduler state (a store
    /// written by `durable::write_store`), so a durable run cannot resume it.
    NoSchedulerState {
        seq: u64,
    },
    /// The directory holds checkpoints but no usable journal; a durable run
    /// refuses to start fresh over them.
    NoJournal {
        checkpoints: usize,
    },
    /// No checkpoint of the store verifies; the attributed quarantine events.
    NoCheckpoint {
        events: Vec<String>,
    },
    /// A new store must go into an absent or empty directory.
    NotEmpty(std::path::PathBuf),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Serde(e) => write!(f, "journal encoding error: {e}"),
            JournalError::BadHeader => write!(f, "journal header is not {JOURNAL_MAGIC:?}"),
            JournalError::InjectedCrash => write!(f, "injected crash point reached"),
            JournalError::Persist(e) => write!(f, "{e}"),
            JournalError::NoSchedulerState { seq } => write!(
                f,
                "checkpoint {seq} holds no crawl scheduler state (a store written by \
                 `build --out`); a durable run cannot resume it"
            ),
            JournalError::NoJournal { checkpoints } => write!(
                f,
                "{checkpoints} checkpoint(s) but no usable journal.log; \
                 refusing to start a fresh run over them"
            ),
            JournalError::NoCheckpoint { events } => {
                write!(f, "no checkpoint verifies ({} quarantined)", events.len())
            }
            JournalError::NotEmpty(dir) => write!(
                f,
                "{} exists and is not empty; a new store is never written into it",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<serde_json::Error> for JournalError {
    fn from(e: serde_json::Error) -> Self {
        JournalError::Serde(e)
    }
}

impl From<PersistError> for JournalError {
    fn from(e: PersistError) -> Self {
        match e {
            // A hook-injected kill is the same failure mode wherever it
            // fires; collapse so callers (and the CLI's exit code) need one
            // check.
            PersistError::InjectedCrash { .. } => JournalError::InjectedCrash,
            other => JournalError::Persist(other),
        }
    }
}

/// Outcome of replaying a journal file.
#[derive(Debug)]
pub struct Replay {
    /// Every intact record, in append order.
    pub records: Vec<JournalRecord>,
    /// Whether trailing bytes had to be discarded (torn tail).
    pub torn_tail: bool,
    /// Clean prefix length in bytes (header + intact frames); re-opening for
    /// append truncates the file to this length.
    pub clean_len: u64,
}

impl Replay {
    /// The last snapshot marker in the clean prefix, if any.
    pub fn last_snapshot(&self) -> Option<(u64, u64, u64)> {
        self.records.iter().rev().find_map(|r| match r {
            JournalRecord::Snapshot {
                seq,
                cycles_done,
                kg_digest,
            } => Some((*seq, *cycles_done, *kg_digest)),
            _ => None,
        })
    }

    /// All snapshot markers in the clean prefix, oldest first.
    pub fn snapshots(&self) -> Vec<(u64, u64, u64)> {
        self.records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Snapshot {
                    seq,
                    cycles_done,
                    kg_digest,
                } => Some((*seq, *cycles_done, *kg_digest)),
                _ => None,
            })
            .collect()
    }
}

/// Replay a journal from disk, tolerating a torn tail.
pub fn replay(path: &Path) -> Result<Replay, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(JournalError::BadHeader);
    }
    let mut records = Vec::new();
    let mut offset = JOURNAL_MAGIC.len();
    let mut torn_tail = false;
    while offset < bytes.len() {
        // A short, oversized or checksum-failing frame, or one whose JSON
        // does not parse, is the torn tail.
        let Ok((payload, next)) = decode_frame_at(&bytes, offset) else {
            torn_tail = true;
            break;
        };
        match serde_json::from_slice::<JournalRecord>(payload) {
            Ok(record) => records.push(record),
            Err(_) => {
                torn_tail = true;
                break;
            }
        }
        offset = next;
    }
    Ok(Replay {
        records,
        torn_tail,
        clean_len: offset as u64,
    })
}

/// An open journal, ready to append.
pub struct Journal {
    file: File,
    path: PathBuf,
    vfs: Vfs,
    records_written: u64,
    /// Bytes appended since the last [`Journal::commit`].
    uncommitted: u64,
    crash_after: Option<u64>,
    crash_torn: bool,
}

impl Journal {
    /// Create a fresh journal (truncating anything at `path`).
    pub fn create(path: &Path) -> Result<Self, JournalError> {
        Journal::create_with(path, None)
    }

    /// [`Journal::create`] with a fault hook interposing every I/O op. The
    /// magic is made durable immediately (file + parent directory fsync) —
    /// an empty journal that exists must replay as an empty journal, not as
    /// a missing file.
    pub fn create_with(path: &Path, hook: Option<FaultHook>) -> Result<Self, JournalError> {
        let vfs = Vfs::new(hook);
        let mut file = vfs.create(path)?;
        vfs.append(&mut file, path, JOURNAL_MAGIC)?;
        vfs.sync_file(&file, path)?;
        if let Some(parent) = path.parent() {
            vfs.sync_dir(parent)?;
        }
        Ok(Journal {
            file,
            path: path.to_owned(),
            vfs,
            records_written: 0,
            uncommitted: 0,
            crash_after: None,
            crash_torn: false,
        })
    }

    /// Re-open an existing journal for append after [`replay`]: the torn
    /// tail (if any) is truncated away so new frames extend the clean prefix.
    pub fn open_after_replay(path: &Path, replay: &Replay) -> Result<Self, JournalError> {
        Journal::open_after_replay_with(path, replay, None)
    }

    /// [`Journal::open_after_replay`] with a fault hook.
    pub fn open_after_replay_with(
        path: &Path,
        replay: &Replay,
        hook: Option<FaultHook>,
    ) -> Result<Self, JournalError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(replay.clean_len)?;
        let mut file = file;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(Journal {
            file,
            path: path.to_owned(),
            vfs: Vfs::new(hook),
            records_written: replay.records.len() as u64,
            uncommitted: 0,
            crash_after: None,
            crash_torn: false,
        })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended over this journal's lifetime (including replayed
    /// ones when opened after replay).
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Arm an injected crash: the append that would write record number
    /// `record_count + 1` (1-based over the file's lifetime) fails with
    /// [`JournalError::InjectedCrash`] instead. With `torn`, the doomed
    /// append first writes a partial frame — the torn tail a real mid-write
    /// crash leaves.
    pub fn set_crash_after(&mut self, record_count: u64, torn: bool) {
        self.crash_after = Some(record_count);
        self.crash_torn = torn;
    }

    /// Append one record: length-prefixed, checksummed, buffered. Records
    /// are *facts*, not instructions — a record lost to a crash before
    /// [`Journal::commit`] is re-derived by deterministic redo, so appends
    /// need no per-record fsync (group commit).
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let payload = serde_json::to_vec(record)?;
        let mut frame = Vec::new();
        encode_frame_into(&payload, &mut frame);
        if let Some(limit) = self.crash_after {
            if self.records_written >= limit {
                if self.crash_torn {
                    // Die mid-write: a frame header promising more payload
                    // than ever arrives.
                    self.file
                        .write_all(&frame[..FRAME_HEADER + payload.len() / 2])?;
                    self.file.flush()?;
                }
                return Err(JournalError::InjectedCrash);
            }
        }
        self.vfs.append(&mut self.file, &self.path, &frame)?;
        self.uncommitted += frame.len() as u64;
        self.records_written += 1;
        Ok(())
    }

    /// Group-commit barrier: fsync everything appended since the last
    /// commit. The durable loop calls this once per cycle (and before each
    /// checkpoint's manifest write), not once per record.
    pub fn commit(&mut self) -> Result<(), JournalError> {
        if self.uncommitted == 0 {
            return Ok(());
        }
        self.vfs.sync_file(&self.file, &self.path)?;
        self.uncommitted = 0;
        Ok(())
    }

    /// Drop every record below the `Snapshot { seq: horizon }` marker: the
    /// retained suffix (marker included) is rewritten to a tmp file which is
    /// atomically renamed over the journal (fsync'd both sides). Records
    /// below a verified checkpoint are dead weight — recovery never replays
    /// across a checkpoint — so this is what bounds journal growth.
    ///
    /// Returns whether anything was truncated. [`Journal::records_written`]
    /// is *not* rewound: it counts appends over the journal's lifetime (so
    /// armed [`Journal::set_crash_after`] points still fire), not frames
    /// currently on disk.
    pub fn truncate_before_snapshot(&mut self, horizon: u64) -> Result<bool, JournalError> {
        self.commit()?;
        let mut bytes = Vec::new();
        File::open(&self.path)?.read_to_end(&mut bytes)?;
        if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(JournalError::BadHeader);
        }
        // Find the byte offset of the horizon snapshot's frame.
        let mut offset = JOURNAL_MAGIC.len();
        let mut cut: Option<usize> = None;
        while let Ok((payload, next)) = decode_frame_at(&bytes, offset) {
            if let Ok(JournalRecord::Snapshot { seq, .. }) =
                serde_json::from_slice::<JournalRecord>(payload)
            {
                if seq == horizon {
                    cut = Some(offset);
                    break;
                }
            }
            offset = next;
        }
        let Some(cut) = cut else {
            return Ok(false); // horizon not found: keep everything
        };
        if cut == JOURNAL_MAGIC.len() {
            return Ok(false); // nothing below the horizon
        }
        let tmp_path = self.path.with_extension("log.tmp");
        let mut tmp = self.vfs.create(&tmp_path)?;
        self.vfs.append(&mut tmp, &tmp_path, JOURNAL_MAGIC)?;
        self.vfs.append(&mut tmp, &tmp_path, &bytes[cut..])?;
        self.vfs.sync_file(&tmp, &tmp_path)?;
        self.vfs.rename(&tmp_path, &self.path)?;
        if let Some(parent) = self.path.parent() {
            self.vfs.sync_dir(parent)?;
        }
        // Swap the append handle to the new file.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        self.file = file;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kg-journal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("journal.log")
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Cycle {
                source: "securelist".into(),
                due_ms: 1_500_000_000_000,
                new_reports: 3,
                pages_fetched: 7,
                error: None,
            },
            JournalRecord::Ingested {
                content_hash: 0xDEAD_BEEF,
                source: "securelist".into(),
                report_key: "r0".into(),
            },
            JournalRecord::Snapshot {
                seq: 1,
                cycles_done: 1,
                kg_digest: 42,
            },
            JournalRecord::Cycle {
                source: "talos-intel".into(),
                due_ms: 1_500_000_100_000,
                new_reports: 0,
                pages_fetched: 1,
                error: Some("aborted after 10 hard fetch failures".into()),
            },
        ]
    }

    #[test]
    fn round_trip_all_record_kinds() {
        let path = tmp("roundtrip");
        let mut journal = Journal::create(&path).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        let replay = replay(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records, sample_records());
        assert_eq!(replay.last_snapshot(), Some((1, 1, 42)));
        assert_eq!(replay.snapshots(), vec![(1, 1, 42)]);
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated_on_reopen() {
        let path = tmp("torn");
        let mut journal = Journal::create(&path).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        // Simulate a crash mid-write: append half a frame of garbage.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0x77, 0x02, 0x00, 0x00, 0xAB, 0xCD])
            .unwrap();
        drop(file);

        let first = replay(&path).unwrap();
        assert!(first.torn_tail);
        assert_eq!(first.records, sample_records());
        assert_eq!(first.clean_len, clean_len);

        // Re-open, truncating the tail, and keep appending.
        let mut journal = Journal::open_after_replay(&path, &first).unwrap();
        assert_eq!(journal.records_written(), 4);
        journal
            .append(&JournalRecord::Snapshot {
                seq: 2,
                cycles_done: 2,
                kg_digest: 43,
            })
            .unwrap();
        let second = replay(&path).unwrap();
        assert!(!second.torn_tail);
        assert_eq!(second.records.len(), 5);
        assert_eq!(second.last_snapshot(), Some((2, 2, 43)));
    }

    #[test]
    fn corrupt_checksum_stops_replay_at_the_bad_frame() {
        let path = tmp("checksum");
        let mut journal = Journal::create(&path).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        drop(journal);
        // Flip a byte inside the last frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let replay = replay(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), 3);
    }

    #[test]
    fn bad_header_is_an_error() {
        let path = tmp("header");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        assert!(matches!(replay(&path), Err(JournalError::BadHeader)));
        assert!(matches!(
            replay(&path.with_extension("missing")),
            Err(JournalError::Io(_))
        ));
    }

    #[test]
    fn truncation_drops_records_below_the_snapshot_horizon() {
        let path = tmp("truncate");
        let mut journal = Journal::create(&path).unwrap();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        journal
            .append(&JournalRecord::Snapshot {
                seq: 2,
                cycles_done: 2,
                kg_digest: 43,
            })
            .unwrap();
        let before = std::fs::metadata(&path).unwrap().len();

        // Unknown horizon: keep everything.
        assert!(!journal.truncate_before_snapshot(99).unwrap());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before);

        // Truncate below snapshot seq 2: the marker and later records stay.
        assert!(journal.truncate_before_snapshot(2).unwrap());
        assert!(std::fs::metadata(&path).unwrap().len() < before);
        let after = replay(&path).unwrap();
        assert!(!after.torn_tail);
        assert_eq!(
            after.records,
            vec![JournalRecord::Snapshot {
                seq: 2,
                cycles_done: 2,
                kg_digest: 43
            }]
        );
        // Lifetime record count is monotone — truncation never rewinds it.
        assert_eq!(journal.records_written(), 5);

        // The swapped handle keeps appending to the new file.
        journal
            .append(&JournalRecord::Ingested {
                content_hash: 7,
                source: "s".into(),
                report_key: "r9".into(),
            })
            .unwrap();
        journal.commit().unwrap();
        assert_eq!(replay(&path).unwrap().records.len(), 2);
    }

    #[test]
    fn barriers_are_issued_in_order() {
        // The sync-counting audit: create → (write+sync+dirsync), appends
        // buffer, commit syncs exactly once.
        let dir = std::env::temp_dir().join(format!("kg-journal-{}-barrier", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.log");
        let hook = kg_persist::FaultHook::new();
        let mut journal = Journal::create_with(&path, Some(hook.clone())).unwrap();
        use kg_persist::IoOp;
        assert_eq!(
            hook.log(),
            vec![
                IoOp::Create {
                    file: "journal.log".into()
                },
                IoOp::Write {
                    file: "journal.log".into(),
                    bytes: JOURNAL_MAGIC.len()
                },
                IoOp::SyncFile {
                    file: "journal.log".into()
                },
                IoOp::SyncDir {
                    dir: dir.file_name().unwrap().to_string_lossy().into_owned()
                },
            ]
        );
        hook.clear_log();
        for record in sample_records() {
            journal.append(&record).unwrap();
        }
        // No sync yet: appends are group-committed.
        assert!(hook.log().iter().all(|op| matches!(op, IoOp::Write { .. })));
        journal.commit().unwrap();
        let log = hook.log();
        assert!(matches!(log.last(), Some(IoOp::SyncFile { .. })));
        assert_eq!(
            log.iter()
                .filter(|op| matches!(op, IoOp::SyncFile { .. }))
                .count(),
            1
        );
        // Idempotent: nothing new to commit, no extra sync.
        journal.commit().unwrap();
        assert_eq!(hook.log().len(), log.len());
    }

    #[test]
    fn injected_crash_fires_on_the_chosen_append() {
        let path = tmp("crash");
        let mut journal = Journal::create(&path).unwrap();
        journal.set_crash_after(2, true);
        let records = sample_records();
        journal.append(&records[0]).unwrap();
        journal.append(&records[1]).unwrap();
        let err = journal.append(&records[2]).unwrap_err();
        assert!(matches!(err, JournalError::InjectedCrash));
        drop(journal);
        // The file holds two clean records plus a torn half-frame.
        let after = replay(&path).unwrap();
        assert!(after.torn_tail);
        assert_eq!(after.records, records[..2].to_vec());
    }
}
