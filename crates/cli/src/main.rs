//! `securitykg` — the command-line interface.
//!
//! ```text
//! securitykg build   --out kg/ [--articles N] [--seed S] [--ner] [--fuse] [--stats]
//! securitykg build   --journal kg/ [--days N] ...
//! securitykg stats   --kg kg/
//! securitykg search  --kg kg/ <keywords...>
//! securitykg cypher  --kg kg/ <query>
//! securitykg export-stix --kg kg/ --out bundle.json
//! securitykg hunt    --kg kg/ [--implant <malware>] [--events N]
//! ```
//!
//! `build` constructs the knowledge base end-to-end (simulated web → crawl →
//! pipeline → graph) and writes it to a segment store: `--out` as one full
//! checkpoint of the finished graph, `--journal` as a crash-safe durable
//! run. Every other subcommand opens either kind of store with `--kg`
//! (blob checksums, `KGBIN001` decode, recomputed digest), needing none of
//! the build machinery — the separation the paper's storage/application
//! split implies.

use securitykg::corpus::{FaultProfile, WorldConfig};
use securitykg::crawler::SchedulerConfig;
use securitykg::hunting::AuditGenerator;
use securitykg::pipeline::TraceEvent;
use securitykg::{
    open_store, run_durable, write_store, DurableOptions, JournalError, SecurityKg, StoredKg,
    SystemConfig, TrainingConfig, DEFAULT_START_MS,
};
use std::path::Path;
use std::process::ExitCode;

/// Print one line of output to stdout, like `println!`. A reader that
/// closed the pipe early (`securitykg stats --kg kg/ | head -4`) has all it
/// wanted, so a broken pipe ends the process with success instead of a
/// panic; any other write failure ends it with failure.
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// The one writer behind [`out!`].
fn emit(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut stdout = std::io::stdout().lock();
    let written = stdout
        .write_fmt(line)
        .and_then(|()| stdout.write_all(b"\n"))
        .and_then(|()| stdout.flush());
    if let Err(e) = written {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write output: {e}");
        std::process::exit(1);
    }
}

/// Exit code of a `--crash-after-records` run that hit its injected crash —
/// distinct from ordinary failure so `scripts/chaos.sh` can tell "killed as
/// planned" from "actually broken".
const EXIT_INJECTED_CRASH: u8 = 9;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "build" => cmd_build(&args[1..]),
        "recover" => cmd_recover(&args[1..]),
        "stats" => cmd_stats(&args[1..]).map(|()| ExitCode::SUCCESS),
        "search" => cmd_search(&args[1..]).map(|()| ExitCode::SUCCESS),
        "cypher" => cmd_cypher(&args[1..]).map(|()| ExitCode::SUCCESS),
        "export-stix" => cmd_export_stix(&args[1..]).map(|()| ExitCode::SUCCESS),
        "hunt" => cmd_hunt(&args[1..]).map(|()| ExitCode::SUCCESS),
        "serve" => cmd_serve(&args[1..]).map(|()| ExitCode::SUCCESS),
        "help" | "--help" | "-h" => {
            out!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
securitykg — automated OSCTI gathering and management

USAGE:
  securitykg build  --out <dir> [--articles <n>] [--seed <s>] [--ner] [--fuse] [--stats]
                    [--shards <n>]
  securitykg build  --journal <dir> [--days <n>] [--snapshot-every <n>] [--retention <n>]
                    [--chaos] [--crash-after-records <n>] [--kill-at-io <n>]
                    [--articles <n>] [--seed <s>] [--shards <n>]
  securitykg build  --resume <dir>  [--days <n>] ... (like --journal, but the dir must exist)
  securitykg recover --dir <dir> [--verify]
  securitykg stats  --kg <dir>
  securitykg search --kg <dir> <keywords...>
  securitykg cypher --kg <dir> <query>
  securitykg export-stix --kg <dir> --out <bundle.json>
  securitykg hunt   --kg <dir> [--implant <malware>] [--events <n>]
  securitykg serve  --kg <dir> --queries <file> [--readers <n>] [--rounds <n>]
                    [--cache <entries>] [--publishes <n>] [--watch <file>] [--stats]
                    [--shards <n>]

A knowledge graph on disk is a checksummed segment store of fixed-layout
KGBIN001 blobs. build --out writes the finished graph into a new (absent or
empty) dir as one checkpoint. Durable builds journal every crawl cycle into
<dir> and periodically commit incremental checkpoints to the same kind of
store (--persist-dir is an alias for --journal); re-running over the same
dir resumes from the newest checkpoint that verifies, quarantining corrupt
ones. A run killed by --crash-after-records or --kill-at-io (a kill before
global durable I/O op <n>) exits with code 9 and leaves a resumable dir.
Recover inspects a dir without resuming: it lists checkpoints, verifies blob
checksums (plus a full digest recomputation under --verify), and exits 0 iff
one is restorable. --kg opens either kind of store with that full check;
stats prints the verified kg-digest.

Serve publishes the knowledge base as an immutable snapshot and replays the
query file from <n> concurrent reader threads through the digest-keyed query
cache. With --publishes, a concurrent writer also freezes and republishes
<n> incremental epochs while the readers run, reporting freeze latency.
Query file lines (one per query; '#' comments):
  search <keywords...>
  cypher <read-only query>
  expand <entity name> [hops] [cap]

--watch registers standing queries evaluated incrementally against each
published epoch's delta (requires --publishes). Watch file lines:
  node <label|*> [where-expr over n]     e.g.  node Technique n.name CONTAINS 'T1486'
  edge <entity name>                     fires on edges touching that entity

serve --shards <n> partitions the knowledge base across <n> scatter-gather
cells by hashed entity canon key and answers every query by fan-out + merge;
with --publishes the writer republishes one shard per epoch, so readers see
mixed per-shard versions (each response carries its shard stamp vector).
build --shards <n> partitions the finished graph the same way and fails the
run unless the per-shard partial digests reassemble the printed kg-digest.";

/// Pull `--name value` out of an argument list; returns remaining positionals.
fn parse_flags(args: &[String]) -> (std::collections::HashMap<String, String>, Vec<String>) {
    let mut flags = std::collections::HashMap::new();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            // Boolean flags take no value when followed by another flag/end.
            let takes_value = i + 1 < args.len() && !args[i + 1].starts_with("--");
            if takes_value
                && !matches!(
                    name,
                    "ner" | "fuse" | "stats" | "chaos" | "verify" | "explain"
                )
            {
                flags.insert(name.to_owned(), args[i + 1].clone());
                i += 2;
            } else {
                flags.insert(name.to_owned(), "true".to_owned());
                i += 1;
            }
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    (flags, positional)
}

/// Parse an optional `--shards <n>` flag (0/absent → None).
fn parse_shards(
    flags: &std::collections::HashMap<String, String>,
) -> Result<Option<usize>, String> {
    match flags.get("shards") {
        None => Ok(None),
        Some(raw) => {
            let n: usize = raw.parse().map_err(|e| format!("--shards: {e}"))?;
            Ok((n > 0).then_some(n))
        }
    }
}

/// Partition the finished graph + index across `shards` scatter-gather cells
/// and check the cross-shard invariant: the per-shard partial digests (plus
/// the digest seed) must reassemble the canonical graph digest — the same
/// fingerprint `build` prints as `kg-digest:`. Errors (→ nonzero exit) on
/// mismatch, so chaos runs can prove post-crash resumes still partition
/// cleanly.
fn verify_shard_partition(
    graph: &securitykg::graph::GraphStore,
    search: &securitykg::search::SearchIndex<securitykg::graph::NodeId>,
    shards: usize,
) -> Result<(), String> {
    use securitykg::serve::{combined_digest, ShardSet};
    let expect = securitykg::graph_digest(graph);
    // The partitioner registers a delta cursor, so it works on a (cheap,
    // Arc-segment) clone rather than the caller's graph.
    let mut writer = graph.clone();
    let mut set = ShardSet::new(&mut writer, search, shards);
    let pins: Vec<_> = set
        .freeze_all(&mut writer, search)
        .into_iter()
        .map(std::sync::Arc::new)
        .collect();
    for pin in &pins {
        eprintln!(
            "shard {}/{}: {} node(s), partial digest {:016x}",
            pin.shard(),
            shards,
            pin.owned_count(),
            pin.partial_digest(),
        );
    }
    let combined = combined_digest(&pins);
    if combined != expect {
        return Err(format!(
            "shard partition digest {combined:016x} != kg-digest {expect:016x}"
        ));
    }
    eprintln!("shard partition verified: {shards} partial(s) reassemble kg-digest {combined:016x}");
    Ok(())
}

/// Open the store named by `--kg`, reporting any checkpoint it had to skip.
fn load_kg(flags: &std::collections::HashMap<String, String>) -> Result<StoredKg, String> {
    let dir = flags.get("kg").ok_or("missing --kg <dir>")?;
    let kg = open_store(Path::new(dir)).map_err(|e| format!("open {dir}: {e}"))?;
    for event in &kg.events {
        eprintln!("quarantined: {event}");
    }
    Ok(kg)
}

fn build_config(flags: &std::collections::HashMap<String, String>) -> Result<SystemConfig, String> {
    let articles: usize = flags
        .get("articles")
        .map(|a| a.parse().map_err(|e| format!("--articles: {e}")))
        .transpose()?
        .unwrap_or(20);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("--seed: {e}")))
        .transpose()?
        .unwrap_or(0xC11);
    let faults = if flags.contains_key("chaos") {
        FaultProfile::chaos()
    } else {
        FaultProfile::default()
    };
    Ok(SystemConfig {
        world: WorldConfig {
            seed,
            ..WorldConfig::default()
        },
        articles_per_source: articles,
        seed,
        faults,
        training: TrainingConfig {
            articles: 200,
            ..TrainingConfig::default()
        },
        ..SystemConfig::default()
    })
}

/// A crash-safe `build`: journal every cycle into `dir`, snapshot
/// periodically, resume from the last intact snapshot when `dir` already
/// holds a journal. Prints the graph digest so callers can compare runs.
fn cmd_build_durable(
    flags: &std::collections::HashMap<String, String>,
    dir: &str,
) -> Result<ExitCode, String> {
    if flags.contains_key("out") {
        return Err(format!(
            "--out does not combine with a durable build: {dir} is itself the store (--kg {dir})"
        ));
    }
    let journal = Path::new(dir).join("journal.log");
    if flags.contains_key("resume") && !journal.exists() {
        return Err(format!(
            "--resume {dir}: no journal at {}",
            journal.display()
        ));
    }
    let config = build_config(flags)?;
    let days: u64 = flags
        .get("days")
        .map(|d| d.parse().map_err(|e| format!("--days: {e}")))
        .transpose()?
        .unwrap_or(1);
    let snapshot_every: u64 = flags
        .get("snapshot-every")
        .map(|s| s.parse().map_err(|e| format!("--snapshot-every: {e}")))
        .transpose()?
        .unwrap_or(8);
    let crash_after: Option<u64> = flags
        .get("crash-after-records")
        .map(|c| c.parse().map_err(|e| format!("--crash-after-records: {e}")))
        .transpose()?;
    let kill_at_io: Option<u64> = flags
        .get("kill-at-io")
        .map(|c| c.parse().map_err(|e| format!("--kill-at-io: {e}")))
        .transpose()?;
    let retention: usize = flags
        .get("retention")
        .map(|r| r.parse().map_err(|e| format!("--retention: {e}")))
        .transpose()?
        .unwrap_or(2);
    let opts = DurableOptions {
        snapshot_every_cycles: snapshot_every,
        retention,
        crash_after_records: crash_after,
        crash_torn_tail: false,
        io_kill_after: kill_at_io,
        io_kill_torn: kill_at_io.is_some_and(|n| n % 2 == 1),
        fault_hook: None,
    };
    let until_ms = DEFAULT_START_MS + days * 24 * 3_600_000;
    let report = match run_durable(
        &config,
        &SchedulerConfig::default(),
        Path::new(dir),
        until_ms,
        &opts,
    ) {
        Ok(report) => report,
        Err(JournalError::InjectedCrash) => {
            if let Some(at) = kill_at_io {
                eprintln!("injected crash at I/O op {at}; {dir} is resumable");
            } else {
                eprintln!(
                    "injected crash after {} record(s); {dir} is resumable",
                    crash_after.unwrap_or(0)
                );
            }
            return Ok(ExitCode::from(EXIT_INJECTED_CRASH));
        }
        Err(e) => return Err(format!("durable build in {dir}: {e}")),
    };
    for event in &report.recovery_events {
        eprintln!("quarantined: {event}");
    }
    if let Some(seq) = report.resumed_from_snapshot {
        eprintln!(
            "resumed from checkpoint {seq} ({} journal record(s) replayed{})",
            report.replayed_records,
            if report.torn_tail {
                ", torn tail discarded"
            } else {
                ""
            },
        );
    }
    eprintln!(
        "{} cycle(s), {} report(s) ingested, {} duplicate(s) skipped, {} record(s) appended",
        report.cycles_run,
        report.reports_ingested,
        report.skipped_duplicates,
        report.records_appended
    );
    if report.stats.breaker_opens > 0 || report.stats.reboots > 0 {
        eprintln!(
            "scheduler weathered {} reboot(s), {} breaker open(s), {} close(s)",
            report.stats.reboots, report.stats.breaker_opens, report.stats.breaker_closes
        );
    }
    if flags.contains_key("stats") {
        eprintln!("trace (newest 20 events):");
        eprint!("{}", report.trace.render_tail(20));
    }
    out!("kg-digest: {:016x}", report.kg_digest);
    if let Some(shards) = parse_shards(flags)? {
        verify_shard_partition(&report.graph, &report.search, shards)?;
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_build(args: &[String]) -> Result<ExitCode, String> {
    let (flags, _) = parse_flags(args);
    if let Some(dir) = flags
        .get("journal")
        .or_else(|| flags.get("persist-dir"))
        .or_else(|| flags.get("resume"))
    {
        return cmd_build_durable(&flags, &dir.clone());
    }
    let out = flags.get("out").ok_or("missing --out <path>")?;
    let config = build_config(&flags)?;
    let articles = config.articles_per_source;
    let seed = config.seed;
    eprintln!(
        "bootstrapping ({} articles/source, seed {seed:#x}, ner={})...",
        articles,
        flags.contains_key("ner")
    );
    let mut kg = if flags.contains_key("ner") {
        SecurityKg::bootstrap(&config)
    } else {
        SecurityKg::bootstrap_without_ner(&config)
    };
    let report = kg.crawl_and_ingest();
    eprintln!(
        "ingested {} reports → {} nodes, {} edges",
        report.reports_ingested,
        kg.graph().node_count(),
        kg.graph().edge_count()
    );
    if report.pipeline.quarantined > 0 {
        eprintln!(
            "warning: {} message(s) quarantined — see build --stats",
            report.pipeline.quarantined
        );
    }
    if flags.contains_key("stats") {
        let trace = kg.trace().snapshot();
        if let Some(trained) = trace
            .iter()
            .find(|r| matches!(r.event, TraceEvent::NerTrained { .. }))
        {
            eprintln!("bootstrap: {:?}", trained.event);
        }
        eprint!("{}", report.pipeline.stage_report());
        eprintln!("trace (newest 20 events):");
        eprint!("{}", kg.trace().render_tail(20));
    }
    if flags.contains_key("fuse") {
        let fusion = kg.fuse();
        eprintln!(
            "fused {} alias clusters ({} nodes removed)",
            fusion.clusters_merged, fusion.nodes_removed
        );
    }
    if let Some(shards) = parse_shards(&flags)? {
        verify_shard_partition(kg.graph(), kg.search_index(), shards)?;
    }
    let digest = write_store(Path::new(out), kg.graph(), kg.search_index())
        .map_err(|e| format!("write {out}: {e}"))?;
    eprintln!("wrote store {out}");
    out!("kg-digest: {digest:016x}");
    Ok(ExitCode::SUCCESS)
}

/// Inspect a durable directory's segment store: list its checkpoints, walk
/// them newest-first until one verifies (blob checksums always; a full
/// graph reassembly + digest recomputation under `--verify`), and report
/// anything quarantined along the way. Exits 0 when a usable checkpoint
/// exists — even if recovery had to fall back past corrupt ones.
fn cmd_recover(args: &[String]) -> Result<ExitCode, String> {
    let (flags, positional) = parse_flags(args);
    let dir = flags
        .get("dir")
        .cloned()
        .or_else(|| positional.first().cloned())
        .ok_or("missing --dir <dir>")?;
    let deep = flags.contains_key("verify");
    let summary =
        securitykg::verify_dir(Path::new(&dir), deep).map_err(|e| format!("recover {dir}: {e}"))?;
    eprintln!(
        "manifest: {} checkpoint record(s){}, {} bytes",
        summary.checkpoints.len(),
        if summary.manifest_torn {
            " (torn tail truncated)"
        } else {
            ""
        },
        summary.stats.manifest_bytes,
    );
    for (seq, cycles, digest) in &summary.checkpoints {
        out!("checkpoint {seq}: {cycles} cycle(s), digest {digest:016x}");
    }
    eprintln!(
        "data: {} file(s), {} bytes on disk, {} bytes live",
        summary.stats.data_files, summary.stats.data_bytes, summary.stats.live_bytes
    );
    for event in &summary.events {
        eprintln!("quarantined: {event}");
    }
    match summary.restored {
        Some((seq, cycles, digest)) => {
            eprintln!(
                "restorable: checkpoint {seq} at {cycles} cycle(s){}",
                if deep {
                    " (digest recomputed and verified)"
                } else {
                    " (checksums verified)"
                }
            );
            out!("kg-digest: {digest:016x}");
            Ok(ExitCode::SUCCESS)
        }
        None => {
            eprintln!("no checkpoint verifies; a resume would redo from the epoch start");
            Ok(ExitCode::FAILURE)
        }
    }
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args);
    let kb = load_kg(&flags)?;
    out!("kg-digest: {:016x}", kb.checkpoint.2);
    out!("nodes: {}", kb.graph.node_count());
    out!("edges: {}", kb.graph.edge_count());
    out!("indexed documents: {}", kb.search.len());
    out!("\nnodes by label:");
    for (label, count) in kb.graph.label_histogram() {
        out!("  {label:<22} {count}");
    }
    Ok(())
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args);
    let kb = load_kg(&flags)?;
    if positional.is_empty() {
        return Err("missing search keywords".into());
    }
    let query = positional.join(" ");
    let snapshot = securitykg::serve::KgSnapshot::build(kb.graph, kb.search);
    let hits = snapshot.keyword_search(&query, 10);
    if hits.is_empty() {
        out!("no results for {query:?}");
        return Ok(());
    }
    let graph = snapshot.graph();
    for id in hits {
        let node = graph.node(id).unwrap();
        out!(
            "[{}] {} (degree {})",
            node.label,
            node.name().unwrap_or("?"),
            graph.degree(id)
        );
    }
    Ok(())
}

fn cmd_cypher(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args);
    let kb = load_kg(&flags)?;
    if positional.is_empty() {
        return Err("missing cypher query".into());
    }
    let query = positional.join(" ");
    let result = kb.graph.query_readonly(&query).map_err(|e| e.to_string())?;
    out!("{}", result.columns.join(" | "));
    for row in &result.rows {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                securitykg::graph::Value::Node(id) => {
                    let node = kb.graph.node(*id);
                    format!(
                        "({}:{})",
                        node.and_then(|n| n.name()).unwrap_or("?"),
                        node.map(|n| n.label.as_str()).unwrap_or("?")
                    )
                }
                other => other.to_string(),
            })
            .collect();
        out!("{}", cells.join(" | "));
    }
    eprintln!("-- {} row(s)", result.rows.len());
    Ok(())
}

fn cmd_export_stix(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args);
    let kb = load_kg(&flags)?;
    let out = flags.get("out").ok_or("missing --out <path>")?;
    let bundle = securitykg::export_bundle(&kb.graph);
    let text = serde_json::to_string_pretty(&bundle).map_err(|e| e.to_string())?;
    std::fs::write(out, text).map_err(|e| format!("write {out}: {e}"))?;
    let count = bundle["objects"].as_array().map(Vec::len).unwrap_or(0);
    eprintln!("wrote {count} STIX objects to {out}");
    Ok(())
}

/// Parse one line of a serve query file; `None` for blanks and comments.
fn parse_query_line(line: &str) -> Result<Option<securitykg::serve::Query>, String> {
    use securitykg::serve::Query;
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let rest = rest.trim();
    match verb {
        "search" if !rest.is_empty() => Ok(Some(Query::Search {
            q: rest.to_owned(),
            k: 10,
        })),
        "cypher" if !rest.is_empty() => Ok(Some(Query::Cypher { q: rest.to_owned() })),
        "expand" if !rest.is_empty() => {
            let mut words: Vec<&str> = rest.split_whitespace().collect();
            let mut hops = 1usize;
            let mut cap = 50usize;
            // Trailing numeric words are [hops] then [cap].
            if words.len() > 2 && words[words.len() - 1].parse::<usize>().is_ok() {
                if words[words.len() - 2].parse::<usize>().is_ok() {
                    cap = words.pop().unwrap().parse().unwrap();
                    hops = words.pop().unwrap().parse().unwrap();
                } else {
                    hops = words.pop().unwrap().parse().unwrap();
                }
            } else if words.len() == 2 && words[1].parse::<usize>().is_ok() {
                hops = words.pop().unwrap().parse().unwrap();
            }
            if words.is_empty() {
                return Err(format!("expand needs an entity name: {line:?}"));
            }
            Ok(Some(Query::Expand {
                name: words.join(" "),
                hops,
                cap,
            }))
        }
        _ => Err(format!(
            "bad query line {line:?} (want: search/cypher/expand ...)"
        )),
    }
}

/// Parse one line of a `--watch` file into a standing-query spec; `None`
/// for blanks and comments. `edge` targets are resolved against the writer
/// graph by entity name (case-insensitive).
fn parse_watch_line(
    line: &str,
    graph: &securitykg::graph::GraphStore,
) -> Result<Option<(String, securitykg::serve::WatchSpec)>, String> {
    use securitykg::serve::{CompiledPredicate, WatchSpec};
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let (verb, rest) = trimmed
        .split_once(char::is_whitespace)
        .unwrap_or((trimmed, ""));
    let rest = rest.trim();
    match verb {
        "node" if !rest.is_empty() => {
            let (label, expr) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
            let label = (label != "*").then(|| label.to_owned());
            let expr = expr.trim();
            let predicate = if expr.is_empty() {
                None
            } else {
                Some(
                    CompiledPredicate::compile(expr)
                        .map_err(|e| format!("watch line {trimmed:?}: {e}"))?,
                )
            };
            Ok(Some((
                trimmed.to_owned(),
                WatchSpec::Node { label, predicate },
            )))
        }
        "edge" if !rest.is_empty() => {
            let want = rest.to_lowercase();
            let id = graph
                .all_nodes()
                .find(|n| {
                    n.name()
                        .is_some_and(|name| name.eq_ignore_ascii_case(&want))
                })
                .map(|n| n.id)
                .ok_or_else(|| format!("watch line {trimmed:?}: no entity named {rest:?}"))?;
            Ok(Some((trimmed.to_owned(), WatchSpec::EdgeTouching(id))))
        }
        _ => Err(format!(
            "bad watch line {trimmed:?} (want: node <label|*> [expr] | edge <entity>)"
        )),
    }
}

/// Serve the knowledge base to N concurrent readers replaying a query file.
/// With `--publishes N`, a concurrent writer also republishes the snapshot
/// N times through the incremental epoch path while the readers run.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use securitykg::serve::{percentile, EpochBuilder, KgServe, Query, SubscriptionHub};

    let (flags, _) = parse_flags(args);
    let kb = load_kg(&flags)?;
    let queries_path = flags.get("queries").ok_or("missing --queries <file>")?;
    let text =
        std::fs::read_to_string(queries_path).map_err(|e| format!("read {queries_path}: {e}"))?;
    let queries: Vec<Query> = text
        .lines()
        .map(parse_query_line)
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .flatten()
        .collect();
    if queries.is_empty() {
        return Err(format!("{queries_path}: no queries"));
    }

    // `--explain`: print the compiled plan for every Cypher query in the
    // file (chosen scan, index use, hop bounds) and exit without serving.
    // Plans depend only on query text, never on graph content.
    if flags.contains_key("explain") {
        for query in &queries {
            let Query::Cypher { q } = query else { continue };
            out!("{q}");
            match securitykg::graph::parse(q)
                .and_then(|ast| securitykg::graph::CompiledPlan::compile(&ast))
            {
                Ok(plan) => {
                    for line in plan.explain().lines() {
                        out!("  {line}");
                    }
                }
                Err(e) => out!("  error: {e}"),
            }
            out!("");
        }
        return Ok(());
    }
    let readers: usize = flags
        .get("readers")
        .map(|n| n.parse().map_err(|e| format!("--readers: {e}")))
        .transpose()?
        .unwrap_or(4)
        .max(1);
    let rounds: usize = flags
        .get("rounds")
        .map(|n| n.parse().map_err(|e| format!("--rounds: {e}")))
        .transpose()?
        .unwrap_or(3)
        .max(1);
    let cache_entries: usize = flags
        .get("cache")
        .map(|n| n.parse().map_err(|e| format!("--cache: {e}")))
        .transpose()?
        .unwrap_or(1024);

    let publishes: usize = flags
        .get("publishes")
        .map(|n| n.parse().map_err(|e| format!("--publishes: {e}")))
        .transpose()?
        .unwrap_or(0);

    if let Some(shards) = parse_shards(&flags)? {
        if flags.contains_key("watch") {
            return Err(
                "--watch is not supported with --shards (standing queries ride the \
                 single-snapshot epoch path)"
                    .into(),
            );
        }
        return serve_sharded(kb, &queries, readers, rounds, publishes, shards);
    }

    // Keep a writer-side copy of the KB when a concurrent writer is asked
    // for (the serving snapshot consumes the original).
    let mut writer_state = (publishes > 0).then(|| (kb.graph.clone(), kb.search.clone()));

    // Standing queries ride the writer's delta log, so they only make sense
    // when epochs are actually being published.
    let mut hub = None;
    let mut watches: Vec<(String, securitykg::serve::Subscription)> = Vec::new();
    if let Some(path) = flags.get("watch") {
        let Some((graph, _)) = writer_state.as_mut() else {
            return Err(
                "--watch requires --publishes > 0 (standing queries fire at epoch publishes)"
                    .into(),
            );
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let registry = SubscriptionHub::new(graph);
        for line in text.lines() {
            if let Some((label, spec)) = parse_watch_line(line, graph)? {
                let sub = registry.subscribe(spec, 1024);
                watches.push((label, sub));
            }
        }
        if watches.is_empty() {
            return Err(format!("{path}: no watch lines"));
        }
        eprintln!(
            "{} standing quer(ies) registered from {path}",
            watches.len()
        );
        hub = Some(registry);
    }
    let snapshot = securitykg::serve::KgSnapshot::build(kb.graph, kb.search);
    eprintln!(
        "serving snapshot {:016x}: {} nodes, {} edges, {} indexed docs ({} build, {} µs) — {} reader(s) × {} round(s) × {} queries",
        snapshot.digest(),
        snapshot.node_count(),
        snapshot.edge_count(),
        snapshot.search_index().len(),
        snapshot.mode().label(),
        snapshot.build_us(),
        readers,
        rounds,
        queries.len()
    );
    let serve = KgServe::new(snapshot, cache_entries);

    let writer = writer_state.map(|(mut graph, search)| {
        let serve = &serve;
        let hub = hub.as_ref();
        move || {
            let mut epoch = EpochBuilder::new(&mut graph);
            let target = graph.all_nodes().next().map(|n| n.id);
            let mut us = Vec::with_capacity(publishes);
            for i in 0..publishes {
                if let Some(id) = target {
                    let _ = graph.set_node_prop(
                        id,
                        "serve_epoch",
                        securitykg::graph::Value::from(i as i64),
                    );
                }
                let snap = epoch.freeze(&mut graph, &search);
                us.push(snap.build_us());
                match hub {
                    Some(hub) => {
                        serve.publish_watched(hub, &mut graph, snap);
                    }
                    None => {
                        serve.publish(snap);
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            us
        }
    });
    let load = run_readers(
        &queries,
        readers,
        rounds,
        |query| serve.execute(query),
        writer,
    );
    let mut all = load.latencies_us;
    let mut publish_us = load.writer_us;
    let wall_us = load.wall_us;
    let total = all.len() as u64;
    let stats = serve.stats();
    serve.record_cache_report();
    serve.record_plan_cache_report();
    out!(
        "{} queries in {:.1} ms — {:.0} queries/s across {readers} reader(s)",
        total,
        wall_us as f64 / 1000.0,
        total as f64 / (wall_us as f64 / 1e6),
    );
    out!(
        "latency p50 {} µs, p99 {} µs, max {} µs",
        percentile(&mut all, 0.50),
        percentile(&mut all, 0.99),
        percentile(&mut all, 1.0)
    );
    out!(
        "cache: {} hits, {} misses, {} evictions, {} entries ({:.0}% hit rate)",
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions,
        stats.cache.entries,
        100.0 * stats.cache.hits as f64 / (stats.cache.hits + stats.cache.misses).max(1) as f64
    );
    out!(
        "plan cache: {} hits, {} compiles, {} entries (plans survive epoch publishes)",
        stats.plans.hits,
        stats.plans.compiles,
        stats.plans.entries
    );
    if !publish_us.is_empty() {
        out!(
            "incremental publishes: {} × (freeze p50 {} µs, p99 {} µs) concurrent with readers",
            publish_us.len(),
            percentile(&mut publish_us, 0.50),
            percentile(&mut publish_us, 0.99),
        );
    }
    if !watches.is_empty() {
        out!("standing queries ({} subscriptions):", watches.len());
        for (label, sub) in &watches {
            let s = sub.stats();
            out!(
                "  {label:<48} matched {:>5}, delivered {:>5}, dropped {:>3}, queued {:>4}",
                s.matched,
                s.delivered,
                s.dropped,
                s.queued
            );
        }
    }
    if flags.contains_key("stats") {
        eprintln!("serving trace:");
        eprint!("{}", serve.trace().render_tail(20));
    }
    Ok(())
}

/// The scale-out read path behind `serve --shards <n>`: partition the KB
/// across `shards` scatter-gather cells, answer every query by fan-out +
/// merge, and (with `--publishes`) republish one shard per epoch while the
/// readers run — so readers observe mixed per-shard versions, stamped on
/// every response.
fn serve_sharded(
    kb: StoredKg,
    queries: &[securitykg::serve::Query],
    readers: usize,
    rounds: usize,
    publishes: usize,
    shards: usize,
) -> Result<(), String> {
    use securitykg::serve::{combined_digest, percentile, ShardSet, ShardedServe};
    use std::time::Instant;

    let mut graph = kb.graph;
    let search = kb.search;
    let expect = securitykg::graph_digest(&graph);
    let partition = Instant::now();
    let mut set = ShardSet::new(&mut graph, &search, shards);
    let initial = set.freeze_all(&mut graph, &search);
    eprintln!(
        "sharded serving: {} cell(s) over {} node(s) ({} µs to partition), owned per shard: [{}]",
        shards,
        graph.node_count(),
        partition.elapsed().as_micros(),
        initial
            .iter()
            .map(|s| s.owned_count().to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    let serve = ShardedServe::new(initial);
    let combined = combined_digest(&serve.pin_all());
    if combined != expect {
        return Err(format!(
            "shard partition digest {combined:016x} != kg-digest {expect:016x}"
        ));
    }

    let writer = (publishes > 0).then(|| {
        let serve = &serve;
        let search = &search;
        move || {
            let mut graph = graph;
            let mut set = set;
            let target = graph.all_nodes().next().map(|n| n.id);
            let mut us = Vec::with_capacity(publishes);
            for i in 0..publishes {
                if let Some(id) = target {
                    let _ = graph.set_node_prop(
                        id,
                        "serve_epoch",
                        securitykg::graph::Value::from(i as i64),
                    );
                }
                let snap = set.freeze_shard(i % shards, &mut graph, search);
                us.push(snap.build_us());
                serve.publish_shard(snap);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            us
        }
    });
    let execute = |query: &securitykg::serve::Query| {
        let response = serve.execute(query);
        debug_assert_eq!(response.vector.len(), shards);
        response
    };
    let load = run_readers(queries, readers, rounds, execute, writer);
    let mut all = load.latencies_us;
    let mut publish_us = load.writer_us;
    let wall_us = load.wall_us;
    let total = all.len() as u64;
    let stats = serve.stats();
    out!(
        "{} scatter-gather queries in {:.1} ms — {:.0} queries/s across {readers} reader(s) × {shards} shard(s)",
        total,
        wall_us as f64 / 1000.0,
        total as f64 / (wall_us as f64 / 1e6),
    );
    out!(
        "latency p50 {} µs, p99 {} µs, p999 {} µs, max {} µs",
        percentile(&mut all, 0.50),
        percentile(&mut all, 0.99),
        percentile(&mut all, 0.999),
        percentile(&mut all, 1.0)
    );
    out!(
        "shard publishes {} (incl. {} initial), scatter-gather queries {}",
        stats.publishes,
        shards,
        stats.queries
    );
    if !publish_us.is_empty() {
        out!(
            "per-shard publishes: {} × (freeze p50 {} µs, p99 {} µs) concurrent with readers",
            publish_us.len(),
            percentile(&mut publish_us, 0.50),
            percentile(&mut publish_us, 0.99),
        );
        let stamps: Vec<String> = serve
            .pin_all()
            .iter()
            .map(|p| format!("{}@v{}", p.shard(), p.version()))
            .collect();
        out!("final shard stamps: [{}]", stamps.join(", "));
    }
    Ok(())
}

/// What [`run_readers`] measured.
struct ReaderLoad {
    /// Every query's latency, µs, reader by reader.
    latencies_us: Vec<u64>,
    /// Wall time from the first reader's start to the last join, µs.
    wall_us: u64,
    /// What the concurrent writer returned (empty without one).
    writer_us: Vec<u64>,
}

/// Run `readers` threads, each answering `queries` `rounds` times through
/// `execute` from a start offset staggered by reader and round (so readers
/// don't walk in lockstep), beside an optional `writer` thread.
fn run_readers<R>(
    queries: &[securitykg::serve::Query],
    readers: usize,
    rounds: usize,
    execute: impl Fn(&securitykg::serve::Query) -> R + Sync,
    writer: Option<impl FnOnce() -> Vec<u64> + Send>,
) -> ReaderLoad {
    let wall = std::time::Instant::now();
    let (latencies, writer_us) = std::thread::scope(|scope| {
        let execute = &execute;
        let handles: Vec<_> = (0..readers)
            .map(|reader| {
                scope.spawn(move || {
                    let mut lat = Vec::with_capacity(rounds * queries.len());
                    for round in 0..rounds {
                        let offset = (reader + round) % queries.len();
                        for i in 0..queries.len() {
                            let query = &queries[(offset + i) % queries.len()];
                            let t = std::time::Instant::now();
                            let response = execute(query);
                            lat.push(t.elapsed().as_micros() as u64);
                            std::hint::black_box(&response);
                        }
                    }
                    lat
                })
            })
            .collect();
        let writer = writer.map(|w| scope.spawn(w));
        let latencies: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("reader thread"))
            .collect();
        let writer_us = writer.map_or_else(Vec::new, |w| w.join().expect("writer thread"));
        (latencies, writer_us)
    });
    ReaderLoad {
        latencies_us: latencies,
        wall_us: wall.elapsed().as_micros().max(1) as u64,
        writer_us,
    }
}

fn cmd_hunt(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args);
    let kb = load_kg(&flags)?;
    let events: usize = flags
        .get("events")
        .map(|e| e.parse().map_err(|x| format!("--events: {x}")))
        .transpose()?
        .unwrap_or(5000);

    let behaviors = securitykg::hunting::behavior::behaviors_with_label(&kb.graph, "Malware", 3);
    eprintln!("{} threat behaviour graphs extracted", behaviors.len());

    let mut generator = AuditGenerator::new(0xCA11);
    let mut log = generator.benign_log(events, 0);
    if let Some(name) = flags.get("implant") {
        let behavior = behaviors
            .iter()
            .find(|b| b.name == name.to_lowercase())
            .ok_or_else(|| format!("no behaviour graph for {name:?}"))?;
        generator.implant(
            &mut log,
            &behavior.as_audit_steps(),
            "implant.exe",
            "host-victim",
        );
        eprintln!(
            "implanted a {} trace into {} benign events",
            behavior.name, events
        );
    }

    let hunter = securitykg::hunting::Hunter::new(behaviors);
    let reports = hunter.scan(&log);
    if reports.is_empty() {
        out!("no threats above the noise floor");
        return Ok(());
    }
    out!(
        "{:<22} {:>6} {:>10} {:>14}",
        "threat",
        "score",
        "coverage",
        "focus host"
    );
    for r in reports.iter().take(10) {
        out!(
            "{:<22} {:>5.2} {:>7}/{:<3} {:>14}",
            r.threat_name,
            r.score,
            r.coverage.0,
            r.coverage.1,
            r.focus_host.as_deref().unwrap_or("-")
        );
    }
    Ok(())
}
