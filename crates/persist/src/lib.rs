//! Log-structured checkpoint persistence: checksummed binary segment files
//! plus an append-only manifest, with retention pruning and crash-safe
//! compaction.
//!
//! This crate is the on-disk twin of `kg-graph`'s copy-on-write arenas: a
//! checkpoint persists a set of named *blobs* (graph arena segments, search
//! shards, run metadata), and only the blobs the caller re-submits are
//! written — everything else is carried forward by reference from the
//! previous checkpoint. The framing generalizes the `KGJOURN1` journal
//! format: every blob is a length-prefixed, FNV-1a-checksummed frame inside
//! an append-only data file, and the manifest that maps logical blob names
//! to `(file, offset, len, checksum)` is itself an append-only checksummed
//! log.
//!
//! Failure modes are first-class citizens:
//!
//! - a torn tail on the manifest (or a half-appended data frame) is
//!   truncated away on replay, exactly like the journal;
//! - a corrupt frame (bit flip, short read, garbage length prefix) fails
//!   verification with an attributed [`RecoveryEvent`] and recovery falls
//!   back to the newest older checkpoint that verifies in full;
//! - a kill at *any* syscall boundary during checkpointing or compaction
//!   leaves either the old or the new generation fully readable, which the
//!   [`FaultHook`] makes provable: it interposes every write/sync/rename/
//!   remove, logs the order barriers were issued in, and can inject a crash
//!   before any single operation.
//!
//! The store never panics on hostile bytes: every reader path returns an
//! attributed error instead.

pub mod fault;
pub mod format;
pub mod manifest;
pub mod par;
pub mod store;

pub use fault::{FaultHook, IoOp, Vfs};
pub use format::{PersistError, DATA_MAGIC, FRAME_HEADER, MANIFEST_MAGIC, MAX_PAYLOAD};
pub use manifest::{BlobEntry, CheckpointRecord, ManifestReplay};
pub use par::par_map;
pub use store::{RecoveryEvent, SegmentStore, StoreOptions, StoreStats};
