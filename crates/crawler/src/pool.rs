//! Multi-threaded crawling: a worker pool draining per-source jobs.
//!
//! Sources are independent, so the natural parallel unit is one source's
//! crawl cycle. Workers pull source indexes from a shared atomic counter and
//! each fills that source's slot; the slots are concatenated in source
//! order, so the output order never depends on thread scheduling. With
//! `time_dilation = 0` everything is virtual-time and the pool measures pure
//! software overhead; with a positive dilation the simulated latencies
//! stretch into real sleeps and the measured reports/minute reproduce the
//! paper's single-host throughput claim (E1).

use crate::fetch::{crawl_source, SourceOutcome};
use crate::state::CrawlState;
use crate::CrawlerConfig;
use kg_corpus::SimulatedWeb;
use kg_ir::RawReport;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Aggregate metrics of one multi-source crawl.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrawlMetrics {
    pub sources_crawled: usize,
    pub sources_aborted: usize,
    pub new_reports: usize,
    pub pages_fetched: usize,
    pub retries: usize,
    pub hard_failures: usize,
    /// Sum of simulated latency over all fetches (virtual ms).
    pub virtual_ms_total: u64,
    /// Largest per-source virtual time — the virtual wall-clock of the crawl
    /// when there are at least as many workers as sources.
    pub virtual_ms_critical_path: u64,
    /// Real wall-clock of the crawl.
    pub wall_ms: u64,
}

impl CrawlMetrics {
    fn absorb(&mut self, outcome: &SourceOutcome) {
        self.sources_crawled += 1;
        if outcome.error.is_some() {
            self.sources_aborted += 1;
        }
        self.new_reports += outcome.new_reports;
        self.pages_fetched += outcome.pages_fetched;
        self.retries += outcome.retries;
        self.hard_failures += outcome.hard_failures;
        self.virtual_ms_total += outcome.virtual_ms;
        self.virtual_ms_critical_path = self.virtual_ms_critical_path.max(outcome.virtual_ms);
    }

    /// Reports per virtual minute for an `n_workers` pool: virtual elapsed
    /// time is total fetch latency divided across workers, floored by the
    /// slowest single source (the critical path).
    pub fn reports_per_virtual_minute(&self, n_workers: usize) -> f64 {
        let elapsed = (self.virtual_ms_total as f64 / n_workers.max(1) as f64)
            .max(self.virtual_ms_critical_path as f64);
        if elapsed <= 0.0 {
            return 0.0;
        }
        self.new_reports as f64 * 60_000.0 / elapsed
    }
}

/// Crawl every source once with `config.threads` workers, starting at
/// simulated time `now_ms`. Returns all new raw reports, in source order
/// (and fetch order within a source) whatever the thread count, plus
/// metrics; `state` is updated in place.
pub fn crawl_all(
    web: &SimulatedWeb,
    state: &mut CrawlState,
    config: &CrawlerConfig,
    now_ms: u64,
) -> (Vec<RawReport>, CrawlMetrics) {
    let start = Instant::now();
    let sources = web.sources().to_vec();
    let next_job = AtomicUsize::new(0);

    // Hand each worker its own view into the shared state: extract the
    // per-source states up-front, hand them out by index, and put them back
    // afterwards (sources are disjoint, so there is no contention). Each
    // source's outcome lands in its own slot.
    let mut source_states: Vec<crate::state::SourceState> = sources
        .iter()
        .map(|s| std::mem::take(state.source_mut(&s.name)))
        .collect();
    let outcomes: Vec<Mutex<Option<SourceOutcome>>> =
        sources.iter().map(|_| Mutex::new(None)).collect();
    {
        let state_slots: Vec<Mutex<&mut crate::state::SourceState>> =
            source_states.iter_mut().map(Mutex::new).collect();
        std::thread::scope(|scope| {
            for _ in 0..config.threads.max(1) {
                let next_job = &next_job;
                let sources = &sources;
                let state_slots = &state_slots;
                let outcomes = &outcomes;
                scope.spawn(move || loop {
                    let i = next_job.fetch_add(1, Ordering::Relaxed);
                    if i >= sources.len() {
                        break;
                    }
                    let mut slot = state_slots[i].lock();
                    let outcome = crawl_source(web, &sources[i], &mut slot, config, now_ms);
                    *outcomes[i].lock() = Some(outcome);
                });
            }
        });
    }
    for (spec, s) in sources.iter().zip(source_states) {
        *state.source_mut(&spec.name) = s;
    }

    let mut metrics = CrawlMetrics::default();
    let mut reports = Vec::new();
    for outcome in outcomes.into_iter().filter_map(Mutex::into_inner) {
        // absorb only reads the counters, so the reports move out un-cloned.
        metrics.absorb(&outcome);
        reports.extend(outcome.reports);
    }
    metrics.wall_ms = start.elapsed().as_millis() as u64;
    (reports, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kg_corpus::{standard_sources, SimulatedWeb, World, WorldConfig};

    const FOREVER: u64 = u64::MAX / 4;

    fn web(articles: usize) -> SimulatedWeb {
        SimulatedWeb::new(
            World::generate(WorldConfig::tiny(3)),
            standard_sources(articles),
            11,
        )
    }

    #[test]
    fn parallel_crawl_covers_all_sources() {
        let web = web(8);
        let mut state = CrawlState::new();
        let (reports, metrics) = crawl_all(&web, &mut state, &CrawlerConfig::default(), FOREVER);
        assert_eq!(metrics.sources_crawled, 42);
        assert!(metrics.new_reports > 0);
        assert_eq!(
            reports.iter().filter(|r| r.page == 1).count(),
            metrics.new_reports,
            "one page-1 raw report per new article"
        );
        assert_eq!(state.total_seen(), metrics.new_reports);
    }

    #[test]
    fn parallel_equals_sequential_coverage() {
        let web = web(6);
        let mut s1 = CrawlState::new();
        let mut s8 = CrawlState::new();
        let c1 = CrawlerConfig {
            threads: 1,
            ..CrawlerConfig::default()
        };
        let c8 = CrawlerConfig {
            threads: 8,
            ..CrawlerConfig::default()
        };
        let (_, m1) = crawl_all(&web, &mut s1, &c1, FOREVER);
        let (_, m8) = crawl_all(&web, &mut s8, &c8, FOREVER);
        assert_eq!(m1.new_reports, m8.new_reports);
        assert_eq!(s1.total_seen(), s8.total_seen());
    }

    /// The output order is source order, then fetch order, at any thread
    /// count: node ids downstream follow it.
    #[test]
    fn output_is_in_source_order_at_any_thread_count() {
        let web = web(6);
        let source_index = |r: &RawReport| {
            web.sources()
                .iter()
                .position(|s| s.name == r.source_name)
                .expect("known source")
        };
        let mut outputs = Vec::new();
        for threads in [1usize, 8] {
            let config = CrawlerConfig {
                threads,
                ..CrawlerConfig::default()
            };
            let (reports, _) = crawl_all(&web, &mut CrawlState::new(), &config, FOREVER);
            let order: Vec<usize> = reports.iter().map(source_index).collect();
            assert!(order.windows(2).all(|w| w[0] <= w[1]), "threads={threads}");
            outputs.push(reports);
        }
        assert!(!outputs[0].is_empty());
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn virtual_throughput_scales_with_workers() {
        let web = web(10);
        let mut state = CrawlState::new();
        let (_, metrics) = crawl_all(&web, &mut state, &CrawlerConfig::default(), FOREVER);
        let t1 = metrics.reports_per_virtual_minute(1);
        let t8 = metrics.reports_per_virtual_minute(8);
        assert!(t8 > t1 * 2.0, "t1={t1:.0} t8={t8:.0}");
    }

    #[test]
    fn second_cycle_is_incremental() {
        let web = web(5);
        let mut state = CrawlState::new();
        let config = CrawlerConfig::default();
        let (_, m1) = crawl_all(&web, &mut state, &config, FOREVER);
        let (reports2, m2) = crawl_all(&web, &mut state, &config, FOREVER);
        assert!(m1.new_reports > 0);
        assert_eq!(m2.new_reports, 0);
        assert!(reports2.is_empty());
        // At minimum one index page per source is refetched; flaky sources
        // may re-attempt articles that hard-failed in cycle 1, but the second
        // cycle is still far cheaper than the first.
        assert!(m2.pages_fetched >= 42, "{}", m2.pages_fetched);
        assert!(
            m2.pages_fetched <= m1.pages_fetched / 2,
            "{} vs {}",
            m2.pages_fetched,
            m1.pages_fetched
        );
    }
}
