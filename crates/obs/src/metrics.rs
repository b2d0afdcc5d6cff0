//! The process-global metric registry: counters, gauges and histograms,
//! one cell per [`crate::catalog`] row.
//!
//! Every cell is a fixed array slot of relaxed atomics indexed by its
//! row, so recording takes no lock, hashes nothing and allocates
//! nothing, and every row exists (at zero) from construction. Counters
//! and gauges always record, on the convention that **hot loops keep
//! local tallies and flush once per call** — e.g. the DFS counts
//! expansions in a local `u64` and calls [`add`] once per enumeration.
//! Each [`crate::span::Stage`]'s time is one histogram,
//! `stage.latency_ns.<stage>`; a span outside a recording query times
//! only when the [`enabled`] flag is on (set by the CLI's `--metrics`
//! flags), so an uninstrumented run never calls `Instant::now`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::catalog::{Counter, Gauge, Hist};
use crate::hist::{HistSnapshot, Histogram};

/// A registry of the catalog's counters, gauges and histograms. The
/// pipeline uses the process-global one (via the free functions in this
/// module); tests can make their own.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    counters: [AtomicU64; Counter::CELLS],
    gauges: [AtomicU64; Gauge::CELLS],
    hists: [Histogram; Hist::CELLS],
}

/// A point-in-time copy of a registry.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Counter values, by [`Counter::cell`].
    pub counters: Vec<u64>,
    /// Gauge values, by [`Gauge::cell`].
    pub gauges: Vec<u64>,
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
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            enabled: AtomicBool::new(false),
            counters: [const { AtomicU64::new(0) }; Counter::CELLS],
            gauges: [const { AtomicU64::new(0) }; Gauge::CELLS],
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

    /// Copies out everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let load = |cells: &[AtomicU64]| cells.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        Snapshot {
            counters: load(&self.counters),
            gauges: load(&self.gauges),
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
    use crate::span::Stage;

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
    fn concurrent_adds_lose_nothing() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = &r;
                scope.spawn(move || {
                    for _ in 0..25_000 {
                        r.add(Counter::RankComparisons, 1);
                    }
                    r.histogram(Hist::StageLatencyNs, Stage::Rank.index()).record(5);
                });
            }
        });
        let s = r.snapshot();
        assert_eq!(s.counter(Counter::RankComparisons), 200_000);
        assert_eq!(s.histogram(Hist::StageLatencyNs, Stage::Rank.index()).count, 8);
    }
}
