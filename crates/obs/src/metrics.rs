//! The process-global metric registry: counters, gauges, stage timing
//! aggregates, and histograms, one cell per [`crate::catalog`] row.
//!
//! Every cell is a fixed array slot of relaxed atomics indexed by its
//! row, so recording takes no lock, hashes nothing and allocates
//! nothing, and every row exists (at zero) from construction. Counters
//! and gauges always record, on the convention that **hot loops keep
//! local tallies and flush once per call** — e.g. the DFS counts
//! expansions in a local `u64` and calls [`add`] once per enumeration.
//! Stage *timing* is gated on the [`enabled`] flag (set by the CLI's
//! `--metrics` flags) so that an uninstrumented run never calls
//! `Instant::now`. Stages come from the closed [`Stage`] catalog.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::catalog::{Counter, Gauge, Hist};
use crate::hist::{HistSnapshot, Histogram};
use crate::span::Stage;

/// One stage's accumulated wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Completed span count.
    pub count: u64,
    /// Total nanoseconds across spans.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

impl StageStat {
    /// Mean nanoseconds per span.
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// One stage's aggregates, updated with relaxed atomics.
#[derive(Debug, Default)]
struct StageCell {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// A registry of the catalog's counters, gauges and histograms. The
/// pipeline uses the process-global one (via the free functions in this
/// module); tests can make their own.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    counters: [AtomicU64; Counter::CELLS],
    gauges: [AtomicU64; Gauge::CELLS],
    stages: [StageCell; Stage::NAMES.len()],
    hists: [Histogram; Hist::CELLS],
}

/// A point-in-time copy of a registry.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Counter values, by [`Counter::cell`].
    pub counters: Vec<u64>,
    /// Gauge values, by [`Gauge::cell`].
    pub gauges: Vec<u64>,
    /// Timing aggregates of the stages that ran, by name.
    pub stages: BTreeMap<String, StageStat>,
    /// Histogram states, by [`Hist::cell`].
    pub hists: Vec<HistSnapshot>,
}

impl Snapshot {
    /// Value of a counter.
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.cell(0)]
    }

    /// Value of a gauge.
    #[must_use]
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.cell(0)]
    }

    /// State of a histogram; `label` picks a family's cell (0 for a
    /// plain row).
    #[must_use]
    pub fn histogram(&self, hist: Hist, label: usize) -> &HistSnapshot {
        &self.hists[hist.cell(label)]
    }

    /// Timing aggregate of a stage, if any span completed.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<StageStat> {
        self.stages.get(name).copied()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            counters: [const { AtomicU64::new(0) }; Counter::CELLS],
            gauges: [const { AtomicU64::new(0) }; Gauge::CELLS],
            stages: std::array::from_fn(|_| StageCell::default()),
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

impl Registry {
    /// An all-zero, disabled registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Turns span timing on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether span timing is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Adds `delta` to a counter.
    pub fn add(&self, counter: Counter, delta: u64) {
        self.counters[counter.cell(0)].fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn gauge_set(&self, gauge: Gauge, value: u64) {
        self.gauge_set_at(gauge, 0, value);
    }

    /// Sets the cell of a gauge family's `label`-th value.
    pub fn gauge_set_at(&self, gauge: Gauge, label: usize, value: u64) {
        self.gauges[gauge.cell(label)].store(value, Ordering::Relaxed);
    }

    /// A histogram's cell; `label` picks a family's cell (0 for a plain
    /// row).
    #[must_use]
    pub fn histogram(&self, hist: Hist, label: usize) -> &Histogram {
        &self.hists[hist.cell(label)]
    }

    /// Folds one completed span into its stage's aggregate.
    pub(crate) fn record_span(&self, stage: Stage, ns: u64) {
        let cell = &self.stages[stage.index()];
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.total_ns.fetch_add(ns, Ordering::Relaxed);
        cell.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Copies out everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let load = |cells: &[AtomicU64]| cells.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let mut stages = BTreeMap::new();
        for (cell, name) in self.stages.iter().zip(Stage::NAMES) {
            let count = cell.count.load(Ordering::Relaxed);
            if count > 0 {
                let stat = StageStat {
                    count,
                    total_ns: cell.total_ns.load(Ordering::Relaxed),
                    max_ns: cell.max_ns.load(Ordering::Relaxed),
                };
                stages.insert(name.to_owned(), stat);
            }
        }
        Snapshot {
            counters: load(&self.counters),
            gauges: load(&self.gauges),
            stages,
            hists: self.hists.iter().map(Histogram::snapshot).collect(),
        }
    }
}

/// The process-global registry the pipeline records into.
#[must_use]
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Turns span timing on or off globally.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether span timing is on globally.
#[must_use]
pub fn enabled() -> bool {
    global().enabled()
}

/// Adds `delta` to a global counter.
pub fn add(counter: Counter, delta: u64) {
    global().add(counter, delta);
}

/// Sets a global gauge.
pub fn gauge_set(gauge: Gauge, value: u64) {
    global().gauge_set(gauge, value);
}

/// A global histogram's cell (`label` 0 for a plain row).
#[must_use]
pub fn histogram(hist: Hist, label: usize) -> &'static Histogram {
    global().histogram(hist, label)
}

/// Snapshots the global registry.
#[must_use]
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_exists_at_zero_and_counters_accumulate() {
        let r = Registry::new();
        let s = r.snapshot();
        assert_eq!((s.counters.len(), s.gauges.len(), s.hists.len()), (Counter::CELLS, Gauge::CELLS, Hist::CELLS));
        assert_eq!(s.counter(Counter::MineExamples), 0);
        r.add(Counter::MineExamples, 2);
        r.add(Counter::MineExamples, 1);
        r.add(Counter::SynthSnippets, 1);
        let s = r.snapshot();
        assert_eq!(s.counter(Counter::MineExamples), 3);
        assert_eq!(s.counter(Counter::SynthSnippets), 1);
    }

    #[test]
    fn gauges_take_last_write_and_families_keep_a_cell_per_label() {
        let r = Registry::new();
        r.gauge_set(Gauge::GraphNodes, 10);
        r.gauge_set(Gauge::GraphNodes, 4);
        r.gauge_set_at(Gauge::StoreSectionBytes, 2, 7);
        let s = r.snapshot();
        assert_eq!(s.gauge(Gauge::GraphNodes), 4);
        let sections: Vec<_> = crate::catalog::cells(Gauge::ROWS)
            .zip(&s.gauges)
            .filter(|((row, _), _)| row.name.starts_with("store.section."))
            .map(|((row, label), &v)| (row.series(label), v))
            .collect();
        assert_eq!(sections.len(), 7);
        assert_eq!(sections[2], ("store.section.members.bytes".to_owned(), 7));
    }

    #[test]
    fn stage_aggregates_fold() {
        let r = Registry::new();
        r.record_span(Stage::Search, 10);
        r.record_span(Stage::Search, 30);
        let snap = r.snapshot();
        let st = snap.stage("search").unwrap();
        assert_eq!(st.count, 2);
        assert_eq!(st.total_ns, 40);
        assert_eq!(st.max_ns, 30);
        assert_eq!(st.mean_ns(), 20);
        assert_eq!(snap.stages.len(), 1, "stages that never ran are not listed");
    }

    #[test]
    fn concurrent_adds_lose_nothing() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = &r;
                scope.spawn(move || {
                    for _ in 0..25_000 {
                        r.add(Counter::RankComparisons, 1);
                    }
                    r.histogram(Hist::QueryStageNs, Stage::Rank.index()).record(5);
                });
            }
        });
        let s = r.snapshot();
        assert_eq!(s.counter(Counter::RankComparisons), 200_000);
        assert_eq!(s.histogram(Hist::QueryStageNs, Stage::Rank.index()).count, 8);
    }
}
