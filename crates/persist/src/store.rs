//! The segment store: incremental blob checkpoints over append-only data
//! files, with quarantine-and-fall-back recovery, retention pruning and
//! crash-safe compaction.
//!
//! Write path of one checkpoint (barrier order is load-bearing and audited
//! by the [`crate::FaultHook`] log):
//!
//! 1. append every submitted blob as a frame to the active data file
//!    (rolling to a new file past [`StoreOptions::roll_bytes`]);
//! 2. fsync every data file written this checkpoint, then fsync the
//!    directory if files were created;
//! 3. append the [`CheckpointRecord`] — new entries plus everything carried
//!    forward from the baseline — to the manifest and fsync it.
//!
//! A crash before step 3 leaves unreferenced frames (garbage, reclaimed by
//! compaction) and the previous checkpoint intact; after step 3 the new
//! checkpoint is durable. Recovery walks records newest→oldest and restores
//! the first whose every frame verifies (magic, length, checksum, and the
//! caller's own semantic check); failures are attributed, never fatal —
//! unless the manifest itself is unusable, in which case a clean
//! [`PersistError::ManifestUnusable`] is returned instead of silently
//! starting fresh over data that might still matter.

use crate::fault::{FaultHook, Vfs};
use crate::format::{self, PersistError, DATA_MAGIC, FRAME_HEADER, MANIFEST_MAGIC};
use crate::manifest::{self, BlobEntry, CheckpointRecord, ManifestLog};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs::File;
use std::path::{Path, PathBuf};

/// Knobs of a [`SegmentStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Checkpoints retained by [`SegmentStore::prune`] (min 1).
    pub retention: usize,
    /// Roll the active data file once it exceeds this many bytes.
    pub roll_bytes: u64,
    /// Compact when the manifest log outgrows this many bytes.
    pub compact_manifest_bytes: u64,
    /// Compact when dead bytes exceed live bytes and total data exceeds this.
    pub compact_min_bytes: u64,
    /// Fault hook shared with the chaos harness.
    pub hook: Option<FaultHook>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            retention: 2,
            roll_bytes: 4 * 1024 * 1024,
            compact_manifest_bytes: 256 * 1024,
            compact_min_bytes: 64 * 1024,
            hook: None,
        }
    }
}

/// One attributed recovery failure: which checkpoint, which file, which
/// blob, and why it was rejected (quarantined).
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    pub checkpoint_seq: u64,
    pub file: String,
    pub logical: Option<String>,
    pub reason: String,
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint {}: quarantined {}{}: {}",
            self.checkpoint_seq,
            self.file,
            self.logical
                .as_deref()
                .map(|l| format!(" (blob {l})"))
                .unwrap_or_default(),
            self.reason
        )
    }
}

/// Disk accounting for a store.
#[derive(Debug, Clone, Default)]
pub struct StoreStats {
    /// Checkpoint records retained in memory (post-prune view).
    pub checkpoints: usize,
    /// `data-*.log` files on disk.
    pub data_files: usize,
    /// Total bytes across data files.
    pub data_bytes: u64,
    /// Bytes referenced by retained checkpoints (frames, deduplicated).
    pub live_bytes: u64,
    /// Manifest log bytes.
    pub manifest_bytes: u64,
}

struct ActiveFile {
    file: File,
    name: String,
    len: u64,
}

/// The log-structured segment store. One per durable directory, alongside
/// the crawl journal.
pub struct SegmentStore {
    dir: PathBuf,
    vfs: Vfs,
    manifest: ManifestLog,
    /// Checkpoint records in manifest append order (pruned view).
    records: Vec<CheckpointRecord>,
    /// Index into `records` of the carry-forward baseline: the checkpoint
    /// whose entries the next checkpoint inherits. `None` until the first
    /// checkpoint or successful recovery — then every blob must be written.
    baseline: Option<usize>,
    active: Option<ActiveFile>,
    next_file: u64,
    /// Data files created/removed since the last directory fsync.
    dir_dirty: bool,
    opts: StoreOptions,
    /// Attributed quarantine events from the last recovery.
    quarantine: Vec<RecoveryEvent>,
    /// Whether the manifest had a torn tail on open.
    manifest_torn: bool,
}

fn data_file_name(n: u64) -> String {
    format!("data-{n:06}.log")
}

fn parse_data_file_name(name: &str) -> Option<u64> {
    name.strip_prefix("data-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

impl SegmentStore {
    /// Open (or initialise) the store in `dir`.
    pub fn open(dir: &Path, opts: StoreOptions) -> Result<Self, PersistError> {
        std::fs::create_dir_all(dir)?;
        let vfs = Vfs::new(opts.hook.clone());
        let manifest_path = dir.join("manifest.log");
        // A manifest shorter than its magic is a torn *creation*: the magic
        // write never completed, so no checkpoint can ever have committed
        // through it. Recreate rather than refusing to open.
        let manifest_usable = std::fs::metadata(&manifest_path)
            .map(|m| m.len() >= MANIFEST_MAGIC.len() as u64)
            .unwrap_or(false);
        let (manifest, records, manifest_torn) = if manifest_usable {
            let replay = manifest::replay_manifest(&manifest_path)?;
            let torn = replay.torn_tail;
            let records = replay.records.clone();
            let log = ManifestLog::open_after_replay(&manifest_path, &replay, vfs.clone())?;
            (log, records, torn)
        } else {
            (
                ManifestLog::create(&manifest_path, vfs.clone())?,
                Vec::new(),
                false,
            )
        };
        // Never reuse a data file name: a crashed run may have left a
        // partially written file under any existing number.
        let mut next_file = 1;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if let Some(n) = parse_data_file_name(&name) {
                next_file = next_file.max(n + 1);
            }
        }
        Ok(SegmentStore {
            dir: dir.to_owned(),
            vfs,
            manifest,
            records,
            baseline: None,
            active: None,
            next_file,
            dir_dirty: false,
            opts,
            quarantine: Vec::new(),
            manifest_torn,
        })
    }

    /// Whether the manifest had a torn tail on open (truncated away).
    pub fn manifest_torn(&self) -> bool {
        self.manifest_torn
    }

    /// Sequence number of the current carry-forward baseline, if any.
    pub fn baseline_seq(&self) -> Option<u64> {
        self.baseline.map(|i| self.records[i].seq)
    }

    /// Retained checkpoint records, oldest first.
    pub fn checkpoints(&self) -> &[CheckpointRecord] {
        &self.records
    }

    /// Oldest retained checkpoint sequence number, if any.
    pub fn oldest_retained_seq(&self) -> Option<u64> {
        self.records.first().map(|r| r.seq)
    }

    /// Attributed quarantine events from the last [`SegmentStore::recover_with`].
    pub fn quarantine_log(&self) -> &[RecoveryEvent] {
        &self.quarantine
    }

    fn ensure_active(&mut self) -> Result<(), PersistError> {
        let roll = match &self.active {
            None => true,
            Some(active) => active.len >= self.opts.roll_bytes,
        };
        if roll {
            if let Some(old) = self.active.take() {
                // The rolled-out file may carry frames of the checkpoint in
                // progress; sync before letting go of the handle.
                self.vfs.sync_file(&old.file, &self.dir.join(&old.name))?;
            }
            let name = data_file_name(self.next_file);
            self.next_file += 1;
            let path = self.dir.join(&name);
            let mut file = self.vfs.create(&path)?;
            self.vfs.append(&mut file, &path, DATA_MAGIC)?;
            self.dir_dirty = true;
            self.active = Some(ActiveFile {
                file,
                name,
                len: DATA_MAGIC.len() as u64,
            });
        }
        Ok(())
    }

    /// Persist one checkpoint. `blobs` are the logical blobs (re)written
    /// since the baseline; every baseline blob not in `blobs` is carried
    /// forward by reference. With no baseline (fresh store, or recovery
    /// never succeeded) the caller must submit the complete blob set.
    pub fn checkpoint(
        &mut self,
        seq: u64,
        cycles_done: u64,
        kg_digest: u64,
        blobs: Vec<(String, Vec<u8>)>,
    ) -> Result<(), PersistError> {
        // Start from the carried entry set, then overwrite with new blobs.
        let mut entries: BTreeMap<String, BlobEntry> = match self.baseline {
            Some(idx) => self.records[idx]
                .entries
                .iter()
                .map(|e| (e.logical.clone(), e.clone()))
                .collect(),
            None => BTreeMap::new(),
        };
        // 1. Append frames to the active data file. One frame buffer is
        // reused across the cycle's blobs (cleared, not reallocated).
        let mut frame = Vec::new();
        for (logical, payload) in &blobs {
            self.ensure_active()?;
            let active = self.active.as_mut().expect("active file exists");
            frame.clear();
            let checksum = format::encode_frame_into(payload, &mut frame);
            let offset = active.len;
            let path = self.dir.join(&active.name);
            self.vfs.append(&mut active.file, &path, &frame)?;
            active.len += frame.len() as u64;
            entries.insert(
                logical.clone(),
                BlobEntry {
                    logical: logical.clone(),
                    file: active.name.clone(),
                    offset,
                    len: payload.len() as u32,
                    checksum,
                },
            );
        }
        // 2. Data barrier: frames down before the manifest references them.
        if let Some(active) = &self.active {
            self.vfs
                .sync_file(&active.file, &self.dir.join(&active.name))?;
        }
        if self.dir_dirty {
            self.vfs.sync_dir(&self.dir)?;
            self.dir_dirty = false;
        }
        // 3. Commit point: the manifest record (append + fsync).
        let record = CheckpointRecord {
            seq,
            cycles_done,
            kg_digest,
            compacted: false,
            entries: entries.into_values().collect(),
        };
        self.manifest.append(&record)?;
        self.records.push(record);
        self.baseline = Some(self.records.len() - 1);
        Ok(())
    }

    /// Walk checkpoints newest→oldest; for the first whose every blob
    /// verifies (frame intact, checksum matches the manifest) *and* whose
    /// semantic reassembly `f` succeeds, return `f`'s value and set the
    /// carry-forward baseline there. Rejected checkpoints are quarantined
    /// with attribution and **dropped from the retained set** — they must
    /// not be carried forward, compacted, or protected from pruning (their
    /// corrupt frames would poison all three). `Ok(None)` means no
    /// checkpoint survived.
    pub fn recover_with<T>(
        &mut self,
        mut f: impl FnMut(&CheckpointRecord, &BTreeMap<String, Vec<u8>>) -> Result<T, String>,
    ) -> Result<Option<T>, PersistError> {
        self.quarantine.clear();
        let mut files = DataFiles::default();
        for idx in (0..self.records.len()).rev() {
            let record = &self.records[idx];
            match load_checkpoint(&self.dir, record, &mut files) {
                Err(event) => self.quarantine.push(event),
                Ok(blobs) => match f(record, &blobs) {
                    Ok(value) => {
                        self.records.truncate(idx + 1);
                        self.baseline = Some(idx);
                        return Ok(Some(value));
                    }
                    Err(reason) => self.quarantine.push(RecoveryEvent {
                        checkpoint_seq: record.seq,
                        file: "-".into(),
                        logical: None,
                        reason,
                    }),
                },
            }
        }
        self.records.clear();
        self.baseline = None;
        Ok(None)
    }

    /// Drop retained records beyond the retention count and delete data
    /// files no retained record references. Returns deleted file names.
    pub fn prune(&mut self) -> Result<Vec<String>, PersistError> {
        let keep = self.opts.retention.max(1);
        if self.records.len() > keep {
            let drop_n = self.records.len() - keep;
            self.records.drain(..drop_n);
            self.baseline = match self.baseline {
                Some(idx) if idx >= drop_n => Some(idx - drop_n),
                _ => None,
            };
        }
        let live: BTreeSet<&str> = self
            .records
            .iter()
            .flat_map(|r| r.entries.iter().map(|e| e.file.as_str()))
            .collect();
        let mut deleted = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if parse_data_file_name(&name).is_none() || live.contains(name.as_str()) {
                continue;
            }
            if self.active.as_ref().is_some_and(|a| a.name == name) {
                continue; // never unlink the open append target
            }
            self.vfs.remove(&self.dir.join(&name))?;
            self.dir_dirty = true;
            deleted.push(name);
        }
        Ok(deleted)
    }

    /// Whether accumulated garbage warrants a [`SegmentStore::compact`].
    pub fn should_compact(&self) -> bool {
        if self.manifest.len_bytes() > self.opts.compact_manifest_bytes {
            return true;
        }
        let stats = self.stats();
        stats.data_bytes > self.opts.compact_min_bytes
            && stats.data_bytes.saturating_sub(stats.live_bytes) > stats.live_bytes
    }

    /// Rewrite every live frame of the retained checkpoints into a fresh
    /// data generation, atomically swap the manifest to the relocated
    /// records, and delete the old generation. Crash-safe at every syscall
    /// boundary: until the manifest rename lands, recovery reads the old
    /// generation; after it, the new one (already synced).
    pub fn compact(&mut self) -> Result<(), PersistError> {
        if self.records.is_empty() {
            return Ok(());
        }
        // Detach from the current active file: compaction writes a fresh
        // generation so old files become wholly deletable.
        if let Some(old) = self.active.take() {
            self.vfs.sync_file(&old.file, &self.dir.join(&old.name))?;
        }
        let name = data_file_name(self.next_file);
        self.next_file += 1;
        let path = self.dir.join(&name);
        let mut file = self.vfs.create(&path)?;
        self.vfs.append(&mut file, &path, DATA_MAGIC)?;
        let mut len = DATA_MAGIC.len() as u64;

        // 1. Copy live frames (deduplicated across records) into the new file.
        let mut relocated: HashMap<(String, u64), u64> = HashMap::new();
        let mut files = DataFiles::default();
        let mut new_records = self.records.clone();
        let mut frame = Vec::new();
        for record in &mut new_records {
            for entry in &mut record.entries {
                let key = (entry.file.clone(), entry.offset);
                let new_offset = match relocated.get(&key) {
                    Some(&o) => o,
                    None => {
                        let data = files.open(&self.dir, &entry.file);
                        let payload = read_frame(data, entry).map_err(|event| {
                            // A corrupt live frame makes this checkpoint
                            // unrecoverable either way; surface it rather
                            // than silently dropping data.
                            PersistError::CorruptFrame {
                                file: event.file,
                                offset: entry.offset,
                                reason: event.reason,
                            }
                        })?;
                        // Verified against `entry.checksum`: reuse it.
                        frame.clear();
                        format::frame_into(&payload, entry.checksum, &mut frame);
                        let offset = len;
                        self.vfs.append(&mut file, &path, &frame)?;
                        len += frame.len() as u64;
                        relocated.insert(key, offset);
                        offset
                    }
                };
                entry.file = name.clone();
                entry.offset = new_offset;
            }
            record.compacted = true;
        }
        // 2. Barrier: the new generation is durable before any reference.
        self.vfs.sync_file(&file, &path)?;
        self.vfs.sync_dir(&self.dir)?;
        // 3. Commit point: swap the manifest to the relocated records.
        self.manifest.replace_with(&new_records)?;
        self.records = new_records;
        self.baseline = Some(self.records.len() - 1);
        self.active = Some(ActiveFile { file, name, len });
        // 4. The old generation is garbage now.
        self.dir_dirty = false;
        self.prune()?;
        Ok(())
    }

    /// Disk accounting.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            checkpoints: self.records.len(),
            manifest_bytes: self.manifest.len_bytes(),
            ..StoreStats::default()
        };
        if let Ok(dir) = std::fs::read_dir(&self.dir) {
            for entry in dir.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if parse_data_file_name(&name).is_some() {
                    stats.data_files += 1;
                    stats.data_bytes += entry.metadata().map(|m| m.len()).unwrap_or(0);
                }
            }
        }
        let mut seen: BTreeSet<(&str, u64)> = BTreeSet::new();
        for record in &self.records {
            for e in &record.entries {
                if seen.insert((e.file.as_str(), e.offset)) {
                    stats.live_bytes += FRAME_HEADER as u64 + e.len as u64;
                }
            }
        }
        stats
    }
}

/// A referenced data file, opened once per recovery or compaction: its
/// handle and length once its magic has checked out, else the reason every
/// frame in it fails.
type DataFile = Result<(File, u64), &'static str>;

/// The data files one recovery or compaction has opened, by name.
#[derive(Default)]
struct DataFiles(HashMap<String, DataFile>);

impl DataFiles {
    /// `name`, opened and its magic checked on first use.
    fn open(&mut self, dir: &Path, name: &str) -> &DataFile {
        if !self.0.contains_key(name) {
            self.0
                .insert(name.to_owned(), open_data_file(&dir.join(name)));
        }
        &self.0[name]
    }
}

fn open_data_file(path: &Path) -> DataFile {
    let file = File::open(path).map_err(|_| "cannot read file")?;
    let len = file.metadata().map_err(|_| "cannot read file")?.len();
    if len < DATA_MAGIC.len() as u64 {
        return Err("bad magic header");
    }
    let mut magic = [0u8; DATA_MAGIC.len()];
    read_at(&file, &mut magic, 0).map_err(|_| "cannot read file")?;
    if &magic != DATA_MAGIC {
        return Err("bad magic header");
    }
    Ok((file, len))
}

fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

/// Read and verify one referenced frame: only its own bytes are read, at
/// the manifest's offset, and its payload is hashed once and compared
/// with the frame header (`checksum mismatch`), then with the manifest
/// (`checksum differs from manifest`). Every failure is attributed.
fn read_frame(data: &DataFile, entry: &BlobEntry) -> Result<Vec<u8>, RecoveryEvent> {
    let fail = |reason: String| RecoveryEvent {
        checkpoint_seq: 0, // stamped by the caller
        file: entry.file.clone(),
        logical: Some(entry.logical.clone()),
        reason,
    };
    let unreadable = |_| fail("cannot read file".into());
    let (file, file_len) = data.as_ref().map_err(|reason| fail((*reason).into()))?;
    let available = usize::try_from(file_len.saturating_sub(entry.offset)).unwrap_or(usize::MAX);
    let mut header = [0u8; FRAME_HEADER];
    if available >= FRAME_HEADER {
        read_at(file, &mut header, entry.offset).map_err(unreadable)?;
    }
    let (len, sum) = format::frame_header(&header, available).map_err(&fail)?;
    let mut payload = vec![0u8; len];
    read_at(file, &mut payload, entry.offset + FRAME_HEADER as u64).map_err(unreadable)?;
    let actual = format::checksum(&payload);
    if actual != sum {
        return Err(fail("checksum mismatch".into()));
    }
    if payload.len() != entry.len as usize {
        return Err(fail(format!(
            "length mismatch: frame {} vs manifest {}",
            payload.len(),
            entry.len
        )));
    }
    if actual != entry.checksum {
        return Err(fail("checksum differs from manifest".into()));
    }
    Ok(payload)
}

/// Load every blob of one checkpoint, verified: each referenced file is
/// opened once, then the frames are read and checked across cores. The
/// first failing entry in record order is the one attributed, as a serial
/// walk would report it.
fn load_checkpoint(
    dir: &Path,
    record: &CheckpointRecord,
    files: &mut DataFiles,
) -> Result<BTreeMap<String, Vec<u8>>, RecoveryEvent> {
    for entry in &record.entries {
        files.open(dir, &entry.file);
    }
    let files = &files.0;
    let payloads = crate::par_map(&record.entries, |entry| {
        read_frame(&files[&entry.file], entry)
    });
    let mut blobs = BTreeMap::new();
    for (entry, payload) in record.entries.iter().zip(payloads) {
        let payload = payload.map_err(|mut event| {
            event.checkpoint_seq = record.seq;
            event
        })?;
        blobs.insert(entry.logical.clone(), payload);
    }
    Ok(blobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kg-persist-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn blob(tag: &str, n: usize) -> (String, Vec<u8>) {
        (tag.to_owned(), format!("payload-{tag}-{n}").into_bytes())
    }

    fn recover_all(store: &mut SegmentStore) -> Option<(u64, BTreeMap<String, Vec<u8>>)> {
        store
            .recover_with(|record, blobs| Ok((record.seq, blobs.clone())))
            .unwrap()
    }

    #[test]
    fn incremental_checkpoints_carry_unwritten_blobs_forward() {
        let dir = tmp("carry");
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        store
            .checkpoint(1, 10, 0xD1, vec![blob("a", 1), blob("b", 1)])
            .unwrap();
        // Second checkpoint rewrites only "a"; "b" must be carried.
        store.checkpoint(2, 20, 0xD2, vec![blob("a", 2)]).unwrap();
        drop(store);

        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        let (seq, blobs) = recover_all(&mut store).unwrap();
        assert_eq!(seq, 2);
        assert_eq!(blobs["a"], b"payload-a-2");
        assert_eq!(blobs["b"], b"payload-b-1");
        assert!(store.quarantine_log().is_empty());
        assert_eq!(store.baseline_seq(), Some(2));
    }

    #[test]
    fn corrupt_newest_falls_back_to_older_checkpoint_with_attribution() {
        let dir = tmp("fallback");
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        store.checkpoint(1, 10, 0xD1, vec![blob("a", 1)]).unwrap();
        store.checkpoint(2, 20, 0xD2, vec![blob("a", 2)]).unwrap();
        let newest = store.checkpoints().last().unwrap().entries[0].clone();
        drop(store);

        // Flip one byte inside the newest checkpoint's payload.
        let path = dir.join(&newest.file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(newest.offset as usize) + FRAME_HEADER] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        let (seq, blobs) = recover_all(&mut store).unwrap();
        assert_eq!(seq, 1, "must fall back to the older checkpoint");
        assert_eq!(blobs["a"], b"payload-a-1");
        let events = store.quarantine_log();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].checkpoint_seq, 2);
        assert_eq!(events[0].logical.as_deref(), Some("a"));
        assert!(events[0].reason.contains("checksum"));
        // The baseline moved to the surviving checkpoint: the next
        // checkpoint carries from it, not from the corrupt one.
        assert_eq!(store.baseline_seq(), Some(1));
        store.checkpoint(3, 30, 0xD3, vec![blob("b", 3)]).unwrap();
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        let (seq, blobs) = recover_all(&mut store).unwrap();
        assert_eq!(seq, 3);
        assert_eq!(blobs["a"], b"payload-a-1");
        assert_eq!(blobs["b"], b"payload-b-3");
    }

    #[test]
    fn semantic_rejection_also_falls_back() {
        let dir = tmp("semantic");
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        store.checkpoint(1, 10, 0xD1, vec![blob("a", 1)]).unwrap();
        store.checkpoint(2, 20, 0xD2, vec![blob("a", 2)]).unwrap();
        let got = store
            .recover_with(|record, _| {
                if record.seq == 2 {
                    Err("digest mismatch after reassembly".into())
                } else {
                    Ok(record.seq)
                }
            })
            .unwrap();
        assert_eq!(got, Some(1));
        assert_eq!(store.quarantine_log().len(), 1);
        assert!(store.quarantine_log()[0].reason.contains("digest"));
    }

    #[test]
    fn every_byte_flip_recovers_or_quarantines_cleanly() {
        let dir = tmp("bitflip");
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        store
            .checkpoint(1, 10, 0xAA, vec![blob("a", 1), blob("b", 1)])
            .unwrap();
        store.checkpoint(2, 20, 0xBB, vec![blob("a", 2)]).unwrap();
        drop(store);

        let mut files: Vec<PathBuf> = vec![dir.join("manifest.log")];
        for entry in std::fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            if parse_data_file_name(&p.file_name().unwrap().to_string_lossy()).is_some() {
                files.push(p);
            }
        }
        assert!(files.len() >= 2);
        for path in files {
            let pristine = std::fs::read(&path).unwrap();
            for offset in 0..pristine.len() {
                let mut mutated = pristine.clone();
                mutated[offset] ^= 0xFF;
                std::fs::write(&path, &mutated).unwrap();
                // Outcome must be: newest intact (flip in dead bytes), an
                // older checkpoint (quarantine fallback), nothing at all, or
                // a clean manifest-unusable error. Never a panic.
                match SegmentStore::open(&dir, StoreOptions::default()) {
                    Ok(mut store) => match recover_all(&mut store) {
                        Some((2, blobs)) => {
                            assert_eq!(blobs["a"], b"payload-a-2");
                            assert_eq!(blobs["b"], b"payload-b-1");
                        }
                        Some((1, blobs)) => {
                            assert_eq!(blobs["a"], b"payload-a-1");
                            // Falling back must be attributed: a quarantined
                            // frame, or the newest record lost to a manifest
                            // torn tail.
                            assert!(!store.quarantine_log().is_empty() || store.manifest_torn());
                        }
                        Some((seq, _)) => panic!("unexpected checkpoint {seq}"),
                        // No survivor is clean only when attributed: either
                        // quarantine events, or the manifest lost records to
                        // a (simulated) torn tail.
                        None => assert!(
                            !store.quarantine_log().is_empty()
                                || store.manifest_torn()
                                || store.checkpoints().is_empty()
                        ),
                    },
                    Err(PersistError::ManifestUnusable { .. }) => {}
                    Err(other) => panic!("flip at {path:?}+{offset}: unclean error {other}"),
                }
            }
            std::fs::write(&path, &pristine).unwrap();
        }
    }

    #[test]
    fn prune_bounds_disk_and_keeps_retention() {
        let dir = tmp("prune");
        let opts = StoreOptions {
            retention: 2,
            roll_bytes: 256, // roll aggressively so pruning has files to drop
            ..StoreOptions::default()
        };
        let mut store = SegmentStore::open(&dir, opts).unwrap();
        for seq in 1..=20 {
            store
                .checkpoint(seq, seq * 10, seq, vec![blob("a", seq as usize)])
                .unwrap();
            store.prune().unwrap();
        }
        assert_eq!(store.checkpoints().len(), 2);
        assert_eq!(store.oldest_retained_seq(), Some(19));
        let stats = store.stats();
        assert!(
            stats.data_files <= 4,
            "pruning must delete dead generations: {stats:?}"
        );
        // Both retained checkpoints still recover.
        let (seq, blobs) = recover_all(&mut store).unwrap();
        assert_eq!(seq, 20);
        assert_eq!(blobs["a"], b"payload-a-20");
    }

    #[test]
    fn compaction_drops_shadowed_frames_and_survives_reopen() {
        let dir = tmp("compact");
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        for seq in 1..=10 {
            store
                .checkpoint(
                    seq,
                    seq * 10,
                    seq,
                    vec![blob("a", seq as usize), blob("b", seq as usize)],
                )
                .unwrap();
            store.prune().unwrap();
        }
        let before = store.stats();
        store.compact().unwrap();
        let after = store.stats();
        assert!(after.data_bytes < before.data_bytes);
        assert!(after.manifest_bytes < before.manifest_bytes);
        assert_eq!(after.checkpoints, 2);
        // Shadowed frames are gone: bytes ≈ live.
        assert!(after.data_bytes <= after.live_bytes + 64);

        drop(store);
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        let (seq, blobs) = recover_all(&mut store).unwrap();
        assert_eq!(seq, 10);
        assert_eq!(blobs["a"], b"payload-a-10");
        assert_eq!(blobs["b"], b"payload-b-10");
        // Post-compaction checkpoints keep carrying forward correctly.
        store.checkpoint(11, 110, 11, vec![blob("a", 11)]).unwrap();
        let (seq, blobs) = recover_all(&mut store).unwrap();
        assert_eq!(seq, 11);
        assert_eq!(blobs["b"], b"payload-b-10");
    }

    #[test]
    fn kill_at_every_syscall_boundary_leaves_a_readable_generation() {
        // Dry-run a checkpoint+compact workload to count I/O ops, then kill
        // before each op in turn and verify recovery sees either the old or
        // the new state — with all carried blobs intact.
        let seed = |dir: &Path| {
            let mut store = SegmentStore::open(dir, StoreOptions::default()).unwrap();
            store
                .checkpoint(1, 10, 1, vec![blob("a", 1), blob("b", 1)])
                .unwrap();
            store.checkpoint(2, 20, 2, vec![blob("a", 2)]).unwrap();
            // recover to set the baseline as a resumed run would
            recover_all(&mut store).unwrap();
            store
        };

        // Dry run: count the workload's I/O ops with a hook attached but no
        // kill armed.
        let count_dir = tmp("kill-count");
        {
            let s = seed(&count_dir);
            drop(s);
        }
        let count_hook = FaultHook::new();
        {
            let opts = StoreOptions {
                retention: 2,
                hook: Some(count_hook.clone()),
                ..StoreOptions::default()
            };
            let mut s = SegmentStore::open(&count_dir, opts).unwrap();
            recover_all(&mut s).unwrap();
            s.checkpoint(3, 30, 3, vec![blob("a", 3)]).unwrap();
            s.prune().unwrap();
            s.compact().unwrap();
            s.checkpoint(4, 40, 4, vec![blob("b", 4)]).unwrap();
            s.prune().unwrap();
        }
        let total_ops = count_hook.ops_done();
        assert!(total_ops > 10, "workload too small: {total_ops} ops");

        for kill_at in 0..total_ops {
            let dir = tmp(&format!("kill-{kill_at}"));
            {
                let mut s = seed(&dir);
                recover_all(&mut s).unwrap();
            }
            let hook = FaultHook::new();
            {
                let opts = StoreOptions {
                    retention: 2,
                    hook: Some(hook.clone()),
                    ..StoreOptions::default()
                };
                let mut s = SegmentStore::open(&dir, opts).unwrap();
                recover_all(&mut s).unwrap();
                hook.arm_kill_after(hook.ops_done() + kill_at, kill_at % 2 == 0);
                let result = (|| -> Result<(), PersistError> {
                    s.checkpoint(3, 30, 3, vec![blob("a", 3)])?;
                    s.prune()?;
                    s.compact()?;
                    s.checkpoint(4, 40, 4, vec![blob("b", 4)])?;
                    s.prune()?;
                    Ok(())
                })();
                match result {
                    Err(PersistError::InjectedCrash { .. }) => {}
                    Ok(()) => panic!("kill at op {kill_at} never fired"),
                    Err(other) => panic!("kill at op {kill_at}: unclean error {other}"),
                }
            }
            // Recovery after the kill: some prefix of the checkpoint
            // sequence must be fully readable, carried blobs included.
            let mut s = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
            let (seq, blobs) = recover_all(&mut s)
                .unwrap_or_else(|| panic!("kill at op {kill_at}: no checkpoint recovered"));
            let expect_a: &[u8] = match seq {
                2 => b"payload-a-2",
                3 | 4 => b"payload-a-3",
                other => panic!("kill at op {kill_at}: unexpected checkpoint {other}"),
            };
            assert_eq!(blobs["a"], expect_a, "kill at op {kill_at}, seq {seq}");
            let expect_b: &[u8] = if seq == 4 {
                b"payload-b-4"
            } else {
                b"payload-b-1"
            };
            assert_eq!(blobs["b"], expect_b, "kill at op {kill_at}, seq {seq}");
            let _ = std::fs::remove_dir_all(&dir);
        }
        let _ = std::fs::remove_dir_all(&count_dir);
    }

    /// The reference verification: read the whole file and decode the
    /// frame out of it, checking magic, frame, length and manifest
    /// checksum in that order.
    fn whole_file_read(dir: &Path, entry: &BlobEntry) -> Result<Vec<u8>, String> {
        let bytes = std::fs::read(dir.join(&entry.file)).map_err(|_| "cannot read file")?;
        if bytes.len() < DATA_MAGIC.len() || &bytes[..DATA_MAGIC.len()] != DATA_MAGIC {
            return Err("bad magic header".into());
        }
        let (payload, _) = format::decode_frame_at(&bytes, entry.offset as usize)?;
        if payload.len() != entry.len as usize {
            return Err(format!(
                "length mismatch: frame {} vs manifest {}",
                payload.len(),
                entry.len
            ));
        }
        if kg_ir::fnv1a64(payload) != entry.checksum {
            return Err("checksum differs from manifest".into());
        }
        Ok(payload.to_vec())
    }

    fn positional_read(dir: &Path, entry: &BlobEntry) -> Result<Vec<u8>, String> {
        read_frame(&open_data_file(&dir.join(&entry.file)), entry).map_err(|e| e.reason)
    }

    /// A store of two checkpoints whose blobs no other test writes.
    fn attribution_store(name: &str) -> (PathBuf, Vec<BlobEntry>) {
        let dir = tmp(name);
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        let tag = format!("{name}-{}", std::process::id());
        store
            .checkpoint(1, 10, 1, vec![blob(&tag, 1), blob("b", 7)])
            .unwrap();
        store.checkpoint(2, 20, 2, vec![blob(&tag, 2)]).unwrap();
        let entries = store.checkpoints().last().unwrap().entries.clone();
        (dir, entries)
    }

    /// The reasons recovery quarantines with, newest checkpoint first.
    fn reasons(store: &mut SegmentStore) -> Vec<String> {
        recover_all(store);
        store
            .quarantine_log()
            .iter()
            .map(|e| e.reason.clone())
            .collect()
    }

    #[test]
    fn positional_reads_attribute_every_flip_and_cut_like_whole_file_reads() {
        let (dir, entries) = attribution_store("attr-diff");
        let path = dir.join(&entries[0].file);
        let pristine = std::fs::read(&path).unwrap();
        let check = |what: &str| {
            for entry in &entries {
                assert_eq!(
                    positional_read(&dir, entry),
                    whole_file_read(&dir, entry),
                    "{what}, blob {}",
                    entry.logical
                );
            }
        };
        for offset in 0..pristine.len() {
            let mut bytes = pristine.clone();
            bytes[offset] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            check(&format!("flip at {offset}"));
        }
        for len in 0..pristine.len() {
            std::fs::write(&path, &pristine[..len]).unwrap();
            check(&format!("cut to {len}"));
        }
        std::fs::remove_file(&path).unwrap();
        check("missing file");
        // Offsets past the end and on no frame boundary.
        std::fs::write(&path, &pristine).unwrap();
        for shift in [1u64, 5, 4096] {
            for entry in &entries {
                let moved = BlobEntry {
                    offset: entry.offset + shift,
                    ..entry.clone()
                };
                assert_eq!(positional_read(&dir, &moved), whole_file_read(&dir, &moved));
            }
        }
        let past = BlobEntry {
            offset: pristine.len() as u64 + 9,
            ..entries[0].clone()
        };
        assert_eq!(
            positional_read(&dir, &past).unwrap_err(),
            "short frame header: 0 of 12 bytes"
        );
    }

    #[test]
    fn corrupt_frames_keep_their_attributed_reasons() {
        let (dir, entries) = attribution_store("attr-reasons");
        let newest = &entries[0];
        let path = dir.join(&newest.file);
        let pristine = std::fs::read(&path).unwrap();
        let payload_at = newest.offset as usize + FRAME_HEADER;
        let mutate = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = pristine.clone();
            f(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
            reasons(&mut store)
        };
        // A flipped payload byte, or a flipped header checksum byte: the
        // frame disagrees with itself.
        assert_eq!(mutate(&|b| b[payload_at] ^= 0x40), ["checksum mismatch"]);
        assert_eq!(
            mutate(&|b| b[newest.offset as usize + 4] ^= 0x01),
            ["checksum mismatch"]
        );
        // A torn file: the newest frame lost its last byte, or its header.
        assert_eq!(
            mutate(&|b| b.truncate(payload_at + newest.len as usize - 1)),
            [format!(
                "short payload: {} of {} bytes",
                newest.len - 1,
                newest.len
            )]
        );
        assert_eq!(
            mutate(&|b| b.truncate(newest.offset as usize + 5)),
            ["short frame header: 5 of 12 bytes"]
        );
        // A bad magic fails every checkpoint in the file.
        assert_eq!(
            mutate(&|b| b[0] ^= 0xFF),
            ["bad magic header", "bad magic header"]
        );
        std::fs::write(&path, &pristine).unwrap();

        // An intact frame whose manifest entry disagrees with it.
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        let last = store.records.len() - 1;
        store.records[last].entries[0].checksum ^= 1;
        assert_eq!(reasons(&mut store), ["checksum differs from manifest"]);
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        let last = store.records.len() - 1;
        store.records[last].entries[0].offset = pristine.len() as u64 + 100;
        assert_eq!(reasons(&mut store), ["short frame header: 0 of 12 bytes"]);
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        let last = store.records.len() - 1;
        store.records[last].entries[0].len += 1;
        assert_eq!(
            reasons(&mut store),
            [format!(
                "length mismatch: frame {} vs manifest {}",
                newest.len,
                newest.len + 1
            )]
        );

        // A missing file fails every checkpoint that references it.
        std::fs::remove_file(&path).unwrap();
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(
            reasons(&mut store),
            ["cannot read file", "cannot read file"]
        );
    }

    #[test]
    fn checkpoint_and_recovery_each_hash_a_blob_once() {
        let dir = tmp("hash-once");
        let tag = format!("hash-once-{}-{:?}", std::process::id(), dir);
        let blobs: Vec<(String, Vec<u8>)> = (0..5)
            .map(|i| {
                (
                    format!("b{i}"),
                    format!("{tag}-payload-{i}").repeat(i + 1).into_bytes(),
                )
            })
            .collect();
        let sums: Vec<(u64, u64)> = blobs
            .iter()
            .map(|(_, p)| (kg_ir::fnv1a64(p), p.len() as u64))
            .collect();
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        store.checkpoint(1, 1, 1, blobs).unwrap();
        for &(sum, len) in &sums {
            assert_eq!(format::hash_tally::bytes(sum), len, "checkpoint");
        }
        drop(store);
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        let (seq, _) = recover_all(&mut store).unwrap();
        assert_eq!(seq, 1);
        for &(sum, len) in &sums {
            assert_eq!(format::hash_tally::bytes(sum), 2 * len, "recovery");
        }
        // Compaction verifies each live frame once and relocates it as is.
        store.compact().unwrap();
        for &(sum, len) in &sums {
            assert_eq!(format::hash_tally::bytes(sum), 3 * len, "compaction");
        }
    }

    #[test]
    fn recover_with_no_manifest_is_a_fresh_store() {
        let dir = tmp("fresh");
        let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(recover_all(&mut store).is_none());
        assert!(store.baseline_seq().is_none());
    }
}
