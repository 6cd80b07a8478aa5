//! Shared pieces of the benchmark: the counting allocator, the span
//! recorder, percentile helpers and the result line.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

/// The system allocator plus allocation counters. Counting is off unless a
/// traced run switches it on, so untraced runs pay one relaxed load per
/// allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static GLOBAL_BYTES: AtomicU64 = AtomicU64::new(0);
static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        GLOBAL_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_BYTES.try_with(|b| b.set(b.get() + size as u64));
        let _ = THREAD_ALLOCS.try_with(|a| a.set(a.get() + 1));
    }
}

// SAFETY: every call is passed unchanged to the system allocator, so its
// contract holds as is; counting only touches atomics and const-initialised
// thread-local cells, which never allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation counters at one instant: bytes requested and calls made.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocCount {
    pub bytes: u64,
    pub allocs: u64,
}

impl AllocCount {
    /// Counts since `earlier`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            bytes: self.bytes - earlier.bytes,
            allocs: self.allocs - earlier.allocs,
        }
    }
}

pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Process-wide counters (every thread).
pub fn global_allocs() -> AllocCount {
    AllocCount {
        bytes: GLOBAL_BYTES.load(Ordering::Relaxed),
        allocs: GLOBAL_ALLOCS.load(Ordering::Relaxed),
    }
}

/// Counters of the calling thread only.
pub fn thread_allocs() -> AllocCount {
    AllocCount {
        bytes: THREAD_BYTES.with(Cell::get),
        allocs: THREAD_ALLOCS.with(Cell::get),
    }
}

/// The C `struct rusage` on 64-bit Linux: two `timeval`s, then longs.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

/// Resource usage of this process (`getrusage(RUSAGE_SELF)`).
fn rusage() -> RUsage {
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` matches the C `struct rusage` layout on 64-bit Linux
    // and outlives the call; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// Peak resident set size of this process in MB (`ru_maxrss`, the same
/// high-water mark the kernel reports as `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

/// User-mode CPU seconds (all threads) this process has used.
pub fn user_cpu_seconds() -> f64 {
    let usage = rusage();
    usage.utime[0] as f64 + usage.utime[1] as f64 / 1e6
}

/// Time one set-up: returns its result, the user-mode CPU seconds the
/// process spent in it and its wall seconds. `setup_s` reports the CPU
/// seconds — the program's own work before the measured phase — because a
/// set-up's wall time, and the kernel time of its writes and syncs, also
/// hold waits on a shared disk (the durable store build is fsync-bound)
/// that move from run to run by more than any useful bound.
pub fn timed_setup<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let (cpu, wall) = (user_cpu_seconds(), Instant::now());
    let out = f();
    (out, user_cpu_seconds() - cpu, wall.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Spans of one request (a report, a tick, a query) share this id.
    pub request: u64,
}

/// Per-thread span recorder. Spans are held in memory and written out when
/// the run ends.
pub struct Tracer {
    origin: Instant,
    thread: &'static str,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: &'static str) -> Self {
        Tracer {
            origin,
            thread,
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing, for untraced callers of code that
    /// takes one.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now(), "off")
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Time one leaf call.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover (children of one span never overlap: one thread).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }
}

/// Per-name aggregates over one or more recorders.
#[derive(Default)]
pub struct Profile {
    by_name: BTreeMap<&'static str, NameStats>,
}

#[derive(Default)]
struct NameStats {
    total_ns: Vec<u64>,
    self_ns: Vec<u64>,
}

impl Profile {
    pub fn new(tracers: &[&Tracer]) -> Self {
        let mut profile = Profile::default();
        for tracer in tracers {
            for (span, own) in tracer.spans.iter().zip(tracer.self_ns()) {
                let stats = profile.by_name.entry(span.name).or_default();
                stats.total_ns.push(span.end_ns - span.start_ns);
                stats.self_ns.push(own);
            }
        }
        profile
    }

    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, |s| s.self_ns.len())
    }

    /// Summed self time of every span called `name`, in µs.
    pub fn self_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |s| s.self_ns.iter().sum::<u64>() as f64 / 1e3)
    }

    /// Summed duration of every span called `name`, in µs.
    pub fn total_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |s| s.total_ns.iter().sum::<u64>() as f64 / 1e3)
    }

    /// Percentile of the self times of spans called `name`, in µs.
    pub fn self_us_pct(&self, name: &str, p: f64) -> f64 {
        let samples: Vec<f64> = self.by_name.get(name).map_or_else(Vec::new, |s| {
            s.self_ns.iter().map(|&n| n as f64 / 1e3).collect()
        });
        percentile(samples, p)
    }
}

/// Write every span as one JSON line to `path` (relative to the checkout).
pub fn write_spans(path: &str, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut out = String::new();
    for tracer in tracers {
        for span in &tracer.spans {
            let _ = writeln!(
                out,
                "{{\"thread\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                tracer.thread,
                span.name,
                span.start_ns,
                span.end_ns,
                span.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                span.request,
            );
        }
    }
    std::fs::write(path, out)
}

// ---------------------------------------------------------------------------
// Statistics and pacing
// ---------------------------------------------------------------------------

/// Linear-interpolation percentile (`p` in 0..=1); 0 for no samples.
pub fn percentile(mut samples: Vec<f64>, p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (samples.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples.to_vec(), 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Make the calling thread's sleeps end on time: Linux lets a sleep overrun
/// by the thread's timer slack, 50 µs by default; this sets it to 1 ns.
pub fn precise_timers() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and only
    // changes the calling thread's timer slack; no memory is passed.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1u64) };
    if rc != 0 {
        eprintln!("prctl(PR_SET_TIMERSLACK) failed; open-loop sends may run late");
    }
}

/// Wait until `deadline`: sleep while it is far, spin for the last stretch
/// so a paced generator wakes within microseconds of its schedule. Call
/// [`precise_timers`] on the thread first, or sleeps overrun the spin.
pub fn wait_until(deadline: Instant) {
    const SPIN: Duration = Duration::from_micros(25);
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let gap = deadline - now;
        if gap > SPIN {
            std::thread::sleep(gap - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Small deterministic generator for query draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

/// What one run reports: operation counts, metrics and run metadata.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Oracle or digest disagreements (also counted in `failed`).
    pub mismatches: u64,
    metrics: Vec<(String, f64, &'static str)>,
    meta: Vec<(String, String)>,
    /// Prepended to metadata keys, so the phases of a traced run that
    /// covers every workload keep their metadata apart.
    meta_prefix: String,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Prefix the keys of the metadata recorded from now on with
    /// `section.`.
    pub fn section(&mut self, section: &str) {
        self.meta_prefix = format!("{section}.");
    }

    /// Record one oracle comparison; a disagreement is a failed operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches += 1;
            eprintln!("mismatch: {what}");
        }
    }

    /// Record `total` oracle comparisons of which `mismatches` disagreed.
    pub fn checks(&mut self, total: u64, mismatches: u64, what: &str) {
        self.attempted += total;
        self.failed += mismatches;
        self.mismatches += mismatches;
        if mismatches > 0 {
            eprintln!("mismatch ({mismatches} of {total}): {what}");
        }
    }

    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta
            .push((format!("{}{key}", self.meta_prefix), json_num(value)));
    }

    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta
            .push((format!("{}{key}", self.meta_prefix), json_str(value)));
    }

    pub fn meta_bool(&mut self, key: &str, value: bool) {
        self.meta
            .push((format!("{}{key}", self.meta_prefix), value.to_string()));
    }

    /// The metadata object (one line) and the result object (the last line).
    pub fn render(&self) -> (String, String) {
        let meta = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",");
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        (
            format!("{{\"meta\":{{{meta}}}}}"),
            format!(
                "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
                self.mismatches == 0,
                self.attempted.max(1),
                self.failed
            ),
        )
    }
}

fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn json_str(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
