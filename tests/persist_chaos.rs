//! Chaos harness for the segmented persistence layer, driven through the
//! durable ingest driver (`run_durable`) — the level at which journal,
//! segment store, retention and compaction all interact.
//!
//! Three batteries:
//!
//! 1. **Kill-at-every-I/O-boundary**: arm the shared [`FaultHook`] to die
//!    before global durable I/O op N and sweep N across a whole run —
//!    every syscall boundary of the checkpoint, prune, journal-truncation
//!    and compaction paths gets a kill (half of them torn). Resuming must
//!    always reproduce the uninterrupted run's digest.
//! 2. **Bit flips**: corrupt single bytes across every persistent file of a
//!    completed run. `recover --verify` semantics must never panic, and a
//!    resume must either reproduce the reference digest exactly (falling
//!    back past quarantined checkpoints, redoing from scratch if need be)
//!    or fail *cleanly* — only for a destroyed file header.
//! 3. **Disk bound**: a long run checkpointing every cycle must keep data
//!    bytes within a small multiple of live bytes (compaction), the
//!    manifest bounded (rewrite), and the journal truncated below the
//!    retention horizon.
//!
//! Plus a barrier-order audit: the recorded I/O log must show every data
//! frame fsynced before the manifest record referencing it, and every
//! manifest append fsynced immediately (the commit point), and a foreign
//! payload check: a checkpoint whose blob holds serde_json bytes under a
//! valid frame is quarantined like any other corruption.

use securitykg::corpus::{FaultProfile, WorldConfig};
use securitykg::crawler::SchedulerConfig;
use securitykg::persist::{FaultHook, IoOp, SegmentStore, StoreOptions};
use securitykg::{
    run_durable, verify_dir, DurableOptions, DurableReport, JournalError, SystemConfig,
};
use std::path::{Path, PathBuf};

fn system(seed: u64) -> SystemConfig {
    SystemConfig {
        world: WorldConfig::tiny(seed),
        articles_per_source: 2,
        seed,
        faults: FaultProfile::default(),
        ..SystemConfig::default()
    }
}

fn sched_config() -> SchedulerConfig {
    SchedulerConfig {
        breaker_threshold: 2,
        breaker_cooldown_ms: 2 * 3_600_000,
        ..SchedulerConfig::default()
    }
}

fn tmp_dir(name: &str, k: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kg-pchaos-{}-{name}-{k}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run(dir: &Path, system: &SystemConfig, until_ms: u64, opts: &DurableOptions) -> DurableReport {
    run_durable(system, &sched_config(), dir, until_ms, opts).expect("durable run")
}

const START: u64 = securitykg::DEFAULT_START_MS;

#[test]
fn kill_at_every_io_boundary_recovers_to_identical_digest() {
    let system = system(23);
    let opts = DurableOptions {
        snapshot_every_cycles: 3,
        retention: 2,
        ..DurableOptions::default()
    };

    // Reference run with a passive hook: same digest as an unhooked run,
    // plus the total I/O op count to sweep over.
    let dir = tmp_dir("io-ref", 0);
    let hook = FaultHook::new();
    let counted = run(
        &dir,
        &system,
        START,
        &DurableOptions {
            fault_hook: Some(hook.clone()),
            ..opts.clone()
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
    let total_ops = hook.ops_done();
    assert!(
        total_ops > 60,
        "want a run worth killing, got {total_ops} I/O ops"
    );

    // Exhaustive over the run's opening (journal + manifest creation, first
    // full checkpoint), then strided through the steady state.
    let mut kill_points: Vec<u64> = (0..24.min(total_ops)).collect();
    kill_points.extend((24..total_ops).step_by(13));
    for k in kill_points {
        let dir = tmp_dir("io-kill", k);
        let crash = DurableOptions {
            io_kill_after: Some(k),
            io_kill_torn: k % 2 == 1,
            ..opts.clone()
        };
        match run_durable(&system, &sched_config(), &dir, START, &crash) {
            Err(JournalError::InjectedCrash) => {}
            other => panic!("kill at I/O op {k}: expected injected crash, got {other:?}"),
        }
        let resumed = run(&dir, &system, START, &opts);
        assert_eq!(
            resumed.kg_digest, counted.kg_digest,
            "kill at I/O op {k}: recovered digest diverged \
             (quarantine: {:?})",
            resumed.recovery_events
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

#[test]
fn bit_flips_never_panic_and_resume_reproduces_the_reference() {
    let system = system(29);
    let opts = DurableOptions {
        snapshot_every_cycles: 4,
        ..DurableOptions::default()
    };
    let src = tmp_dir("flip-src", 0);
    let reference = run(&src, &system, START, &opts);

    let mut files: Vec<String> = std::fs::read_dir(&src)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert!(files.iter().any(|f| f.starts_with("data-")));
    assert!(files.contains(&"manifest.log".to_owned()));

    let mut case = 0u64;
    for name in &files {
        let bytes = std::fs::read(src.join(name)).unwrap();
        // Dense over the header, strided through the body.
        let mut offsets: Vec<usize> = (0..bytes.len().min(12)).collect();
        offsets.extend((12..bytes.len()).step_by((bytes.len() / 32).max(1)));
        for off in offsets {
            let dir = tmp_dir("flip", case);
            case += 1;
            copy_dir(&src, &dir);
            let mut corrupt = bytes.clone();
            corrupt[off] ^= 0xFF;
            std::fs::write(dir.join(name), &corrupt).unwrap();

            // Inspection must never panic, whatever it concludes.
            let _ = verify_dir(&dir, true);

            match run_durable(&system, &sched_config(), &dir, START, &opts) {
                Ok(resumed) => assert_eq!(
                    resumed.kg_digest, reference.kg_digest,
                    "flip {name}[{off}]: resumed digest diverged \
                     (quarantine: {:?})",
                    resumed.recovery_events
                ),
                // A clean failure is allowed only for a destroyed file
                // header (manifest/journal magic) — anything deeper must
                // degrade gracefully.
                Err(e) => assert!(
                    off < 8 && (name == "manifest.log" || name == "journal.log"),
                    "flip {name}[{off}]: hard failure {e} for a non-header flip"
                ),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn bit_flips_inside_binary_payloads_degrade_gracefully() {
    let system = system(41);
    let opts = DurableOptions {
        snapshot_every_cycles: 3,
        ..DurableOptions::default()
    };
    let src = tmp_dir("binflip-src", 0);
    let reference = run(&src, &system, START, &opts);

    // Target the flips at the KGBIN001 payload regions specifically: the
    // newest checkpoint's blob entries give us exact (file, offset, len)
    // coordinates of every binary segment inside the data files.
    let replay = securitykg::persist::manifest::replay_manifest(&src.join("manifest.log"))
        .expect("manifest replays");
    let record = replay.records.last().expect("at least one checkpoint");
    let blobs: Vec<_> = record
        .entries
        .iter()
        .filter(|e| e.logical != "meta")
        .collect();
    assert!(
        blobs.len() > 8,
        "want many binary blobs, got {}",
        blobs.len()
    );

    let mut case = 0u64;
    let mut magic_seen = 0usize;
    for entry in blobs.iter().step_by((blobs.len() / 6).max(1)) {
        let bytes = std::fs::read(src.join(&entry.file)).unwrap();
        let payload_at = entry.offset as usize + securitykg::persist::FRAME_HEADER;
        if bytes[payload_at..].starts_with(kg_codec::BIN_MAGIC) {
            magic_seen += 1;
        }
        let len = entry.len as usize;
        for rel in [0, len / 4, len / 2, len - 1] {
            let dir = tmp_dir("binflip", case);
            case += 1;
            copy_dir(&src, &dir);
            let mut corrupt = bytes.clone();
            corrupt[payload_at + rel] ^= 0xFF;
            std::fs::write(dir.join(&entry.file), &corrupt).unwrap();

            // Inspection must never panic.
            let _ = verify_dir(&dir, true);

            // The frame checksum quarantines the flipped blob's checkpoint;
            // resume falls back (redoing from scratch if need be) and must
            // reproduce the reference digest — payload flips are never fatal.
            let resumed = run(&dir, &system, START, &opts);
            assert_eq!(
                resumed.kg_digest, reference.kg_digest,
                "flip {}[{rel}] in {}: resumed digest diverged (quarantine: {:?})",
                entry.logical, entry.file, resumed.recovery_events
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(
        magic_seen > 0,
        "sweep never touched a KGBIN001 payload — wrong coordinates?"
    );
    let _ = std::fs::remove_dir_all(&src);
}

#[test]
fn json_segment_payload_is_quarantined_and_resume_reproduces_the_reference() {
    let system = system(43);
    let opts = DurableOptions {
        snapshot_every_cycles: 3,
        ..DurableOptions::default()
    };
    let horizon = START + 24 * 3_600_000;
    let ref_dir = tmp_dir("jsonblob-ref", 0);
    let reference = run(&ref_dir, &system, horizon, &opts);
    let _ = std::fs::remove_dir_all(&ref_dir);

    let dir = tmp_dir("jsonblob", 0);
    let first = run(&dir, &system, START, &opts);
    assert!(first.cycles_run > 0);

    // Commit a checkpoint that differs from the newest only in blob n0: the
    // same slots as serde_json bytes, under a valid frame and checksum. Its
    // meta is the newest one's, renumbered (`seq` is the first field).
    let mut store = SegmentStore::open(&dir, StoreOptions::default()).unwrap();
    let (newest, blobs) = store
        .recover_with(|record, blobs| Ok((record.clone(), blobs.clone())))
        .unwrap()
        .expect("a checkpoint");
    let seq = newest.seq + 1;
    let meta = String::from_utf8(blobs["meta"].clone()).unwrap();
    let old_prefix = format!("{{\"seq\":{},", newest.seq);
    assert!(meta.starts_with(&old_prefix), "{meta}");
    let meta = meta.replacen(&old_prefix, &format!("{{\"seq\":{seq},"), 1);
    let slots = kg_codec::decode_node_segment(&blobs["n0"]).unwrap();
    let json = serde_json::to_vec(&slots).unwrap();
    store
        .checkpoint(
            seq,
            newest.cycles_done,
            newest.kg_digest,
            vec![
                ("meta".to_owned(), meta.into_bytes()),
                ("n0".to_owned(), json),
            ],
        )
        .unwrap();
    drop(store);

    let attribution = format!(
        "checkpoint {seq}: quarantined -: node segment 0: byte 0: bad magic (not a KGBIN001 payload)"
    );
    let summary = verify_dir(&dir, true).expect("store verifies");
    assert_eq!(
        summary.restored,
        Some((newest.seq, newest.cycles_done, newest.kg_digest))
    );
    assert_eq!(summary.events, vec![attribution.clone()]);

    let resumed = run(&dir, &system, horizon, &opts);
    assert_eq!(resumed.resumed_from_snapshot, Some(newest.seq));
    assert_eq!(resumed.recovery_events, vec![attribution]);
    assert_eq!(resumed.kg_digest, reference.kg_digest);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_footprint_stays_bounded_by_retention_and_compaction() {
    let system = system(31);
    let opts = DurableOptions {
        snapshot_every_cycles: 1,
        retention: 2,
        ..DurableOptions::default()
    };
    let dir = tmp_dir("bound", 0);
    let horizon = START + 3 * 24 * 3_600_000;
    let report = run(&dir, &system, horizon, &opts);
    assert!(
        report.cycles_run > 30,
        "want many checkpoints, got {} cycles",
        report.cycles_run
    );

    let summary = verify_dir(&dir, true).expect("store verifies");
    assert!(summary.restored.is_some(), "{summary:?}");
    let stats = &summary.stats;
    assert!(stats.live_bytes > 0);
    // Compaction keeps dead frames from dominating: total data stays within
    // a small multiple of the live set, independent of how many checkpoints
    // the run wrote.
    assert!(
        stats.data_bytes <= 2 * stats.live_bytes + 512 * 1024,
        "data {} bytes vs live {} bytes — compaction fell behind",
        stats.data_bytes,
        stats.live_bytes
    );
    // The manifest is rewritten once it outgrows its bound.
    assert!(
        stats.manifest_bytes <= 320 * 1024,
        "manifest grew to {} bytes",
        stats.manifest_bytes
    );
    // The journal is truncated below the oldest retained checkpoint, so it
    // holds a bounded suffix, not the whole run.
    let journal_len = std::fs::metadata(dir.join("journal.log")).unwrap().len();
    assert!(
        journal_len <= 64 * 1024,
        "journal grew to {journal_len} bytes despite truncation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_barriers_are_ordered() {
    let system = system(37);
    let hook = FaultHook::new();
    let opts = DurableOptions {
        snapshot_every_cycles: 2,
        fault_hook: Some(hook.clone()),
        ..DurableOptions::default()
    };
    let dir = tmp_dir("barrier", 0);
    let report = run(&dir, &system, START, &opts);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.cycles_run >= 4);

    let log = hook.log();
    let mut commits = 0;
    // (a) Every manifest append is fsynced immediately — the commit point
    // is never left sitting in the page cache.
    for (i, op) in log.iter().enumerate() {
        if let IoOp::Write { file, .. } = op {
            if file == "manifest.log" {
                commits += 1;
                assert!(
                    matches!(&log[i + 1], IoOp::SyncFile { file } if file == "manifest.log"),
                    "manifest write at op {i} not immediately fsynced: {:?}",
                    &log[i..(i + 2).min(log.len())]
                );
            }
        }
    }
    assert!(commits >= 3, "expected several commits, saw {commits}");

    // (b) No file has unsynced writes outstanding at any manifest commit:
    // data frames (and the journal's group commit) are durable before the
    // manifest record that depends on them.
    let mut unsynced: std::collections::BTreeSet<String> = Default::default();
    for (i, op) in log.iter().enumerate() {
        match op {
            IoOp::Write { file, .. } if file != "manifest.log" => {
                unsynced.insert(file.clone());
            }
            IoOp::SyncFile { file } => {
                unsynced.remove(file);
            }
            IoOp::Write { .. } => {
                // file == manifest.log: the commit point.
                assert!(
                    unsynced.is_empty(),
                    "manifest commit at op {i} with unsynced writes to {unsynced:?}"
                );
            }
            _ => {}
        }
    }
}
