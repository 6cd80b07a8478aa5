//! End-to-end benchmark of the SecurityKG system.
//!
//! One seeded command runs one workload through the product's public entry
//! points, checks its outputs against oracles outside the timed windows and
//! prints one JSON result line:
//!
//! ```text
//! kg-e2ebench --workload <bulk_ingest|live_serve|restart_serve> \
//!             --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics, which every
//! workload defines: `setup_s`, `visible_p50_ms`/`visible_p90_ms` (how long
//! until reports answer queries), `ops_per_s` (the workload's throughput)
//! and `peak_rss_mb`. With `--trace 1` it drives the layers of all three
//! workloads call by call, whichever one is named, wraps a span around each
//! call it makes into a layer, counts allocations, and reports the
//! per-layer metrics instead; spans are written to `.bench_out/` at exit.

mod bulk;
mod common;
mod live;
mod restart;

use common::{mix, CountingAlloc, Report};
use securitykg::corpus::WorldConfig;
use securitykg::SystemConfig;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Where traces and the durable store live, relative to the checkout root.
pub const OUT_DIR: &str = ".bench_out";

/// Production defaults except the corpus size; the seed picks the world
/// and the web, so the program sees only the generated inputs.
pub fn system_config(seed: u64, articles_per_source: usize) -> SystemConfig {
    SystemConfig {
        world: WorldConfig {
            seed: mix(seed, 1),
            ..WorldConfig::default()
        },
        articles_per_source,
        seed: mix(seed, 2),
        ..SystemConfig::default()
    }
}

/// A workload's name and the function that runs it.
type Workload = (&'static str, fn(&Args, &mut Report));

const WORKLOADS: [Workload; 3] = [
    ("bulk_ingest", bulk::run),
    ("live_serve", live::run),
    ("restart_serve", restart::run),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// The checkout's commit, or `unknown` outside a git checkout. Git is
/// pointed at `./.git` so it never searches the parent directories.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("kg-e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("kg-e2ebench: cannot create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let mut report = Report::default();
    report.meta_str("workload", &args.workload);
    report.meta_num("seed", args.seed as f64);
    report.meta_num("seconds", args.seconds.as_secs_f64());
    report.meta_bool("trace", args.trace);
    report.meta_num(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    report.meta_str("commit", &commit());
    let Some(&(_, run)) = WORKLOADS.iter().find(|(name, _)| *name == args.workload) else {
        eprintln!("kg-e2ebench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    if args.trace {
        // The traced run covers every layer, so it drives each workload's
        // layers in turn, whichever workload was named.
        for (name, run) in WORKLOADS {
            report.section(name);
            run(&args, &mut report);
        }
    } else {
        run(&args, &mut report);
    }
    let (meta, result) = report.render();
    println!("{meta}");
    println!("{result}");
}
