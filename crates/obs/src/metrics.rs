//! The process-global metric registry: named counters, gauges, stage
//! timing aggregates, and histograms.
//!
//! Counters and gauges always record (one short mutex-protected map
//! operation), on the convention that **hot loops keep local tallies and
//! flush once per call** — e.g. the DFS counts expansions in a local
//! `u64` and calls [`add`] once per enumeration. Stage *timing* is gated
//! on the [`enabled`] flag (set by the CLI's `--metrics` flags) so that
//! an uninstrumented run never calls `Instant::now`. Stages come from the
//! closed [`Stage`] catalog, so their cells are a fixed array of relaxed
//! atomics: recording one takes no lock and allocates nothing.
//!
//! Metric names are dotted lowercase paths, `<area>.<what>` — see the
//! README's metric schema table for the full list.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

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

/// A registry of named metrics. The pipeline uses the process-global one
/// (via the free functions in this module); tests can make their own.
#[derive(Debug, Default)]
pub struct Registry {
    enabled: AtomicBool,
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<HashMap<String, u64>>,
    stages: [StageCell; Stage::NAMES.len()],
    hists: Mutex<HashMap<String, Arc<Histogram>>>,
}

/// A point-in-time copy of a registry, with deterministic ordering.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Stage timing aggregates by name.
    pub stages: BTreeMap<String, StageStat>,
    /// Histogram states by name.
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// Value of a counter, if it was ever touched.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Value of a gauge, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// Timing aggregate of a stage, if any span completed.
    #[must_use]
    pub fn stage(&self, name: &str) -> Option<StageStat> {
        self.stages.get(name).copied()
    }
}

impl Registry {
    /// An empty, disabled registry.
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

    /// A shared handle to a named counter, creating it at zero.
    ///
    /// # Panics
    ///
    /// Panics only if the registry mutex is poisoned.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock().unwrap();
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(AtomicU64::new(0));
        map.insert(name.to_owned(), Arc::clone(&c));
        c
    }

    /// Adds `delta` to a named counter.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one to a named counter.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets a named gauge to `value` (last write wins). Only the first
    /// write to a name allocates.
    ///
    /// # Panics
    ///
    /// Panics only if the registry mutex is poisoned.
    pub fn gauge_set(&self, name: &str, value: u64) {
        let mut map = self.gauges.lock().unwrap();
        match map.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                map.insert(name.to_owned(), value);
            }
        }
    }

    /// A shared handle to a named histogram, creating it empty.
    ///
    /// # Panics
    ///
    /// Panics only if the registry mutex is poisoned.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.hists.lock().unwrap();
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_owned(), Arc::clone(&h));
        h
    }

    /// Folds one completed span into its stage's aggregate.
    pub(crate) fn record_span(&self, stage: Stage, ns: u64) {
        let cell = &self.stages[stage.index()];
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.total_ns.fetch_add(ns, Ordering::Relaxed);
        cell.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Copies out everything recorded so far.
    ///
    /// # Panics
    ///
    /// Panics only if a registry mutex is poisoned.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot {
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: self.gauges.lock().unwrap().iter().map(|(k, &v)| (k.clone(), v)).collect(),
            stages: BTreeMap::new(),
            hists: self
                .hists
                .lock()
                .unwrap()
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        };
        for (cell, name) in self.stages.iter().zip(Stage::NAMES) {
            let count = cell.count.load(Ordering::Relaxed);
            if count > 0 {
                let stat = StageStat {
                    count,
                    total_ns: cell.total_ns.load(Ordering::Relaxed),
                    max_ns: cell.max_ns.load(Ordering::Relaxed),
                };
                snap.stages.insert(name.to_owned(), stat);
            }
        }
        snap
    }

    /// Clears every metric (the enabled flag is left alone). Handles
    /// taken before — [`Registry::counter`], [`Registry::histogram`], the
    /// per-stage query histograms — keep recording, unlisted.
    ///
    /// # Panics
    ///
    /// Panics only if a registry mutex is poisoned.
    pub fn reset(&self) {
        self.counters.lock().unwrap().clear();
        self.gauges.lock().unwrap().clear();
        for cell in &self.stages {
            cell.count.store(0, Ordering::Relaxed);
            cell.total_ns.store(0, Ordering::Relaxed);
            cell.max_ns.store(0, Ordering::Relaxed);
        }
        self.hists.lock().unwrap().clear();
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
pub fn add(name: &str, delta: u64) {
    global().add(name, delta);
}

/// Adds one to a global counter.
pub fn inc(name: &str) {
    global().inc(name);
}

/// Sets a global gauge.
pub fn gauge_set(name: &str, value: u64) {
    global().gauge_set(name, value);
}

/// A shared handle to a global histogram.
#[must_use]
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().histogram(name)
}

/// Snapshots the global registry.
#[must_use]
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Clears the global registry.
pub fn reset() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = Registry::new();
        r.add("a.b", 2);
        r.inc("a.b");
        r.inc("c");
        let s = r.snapshot();
        assert_eq!(s.counter("a.b"), Some(3));
        assert_eq!(s.counter("c"), Some(1));
        assert_eq!(s.counter("missing"), None);
    }

    #[test]
    fn gauges_take_last_write() {
        let r = Registry::new();
        r.gauge_set("x", 10);
        r.gauge_set("x", 4);
        assert_eq!(r.snapshot().gauge("x"), Some(4));
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
    fn concurrent_increments_lose_nothing() {
        let r = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let r = &r;
                scope.spawn(move || {
                    let local = r.counter("hot");
                    for _ in 0..25_000 {
                        local.fetch_add(1, Ordering::Relaxed);
                    }
                    r.add("cold", 25_000);
                });
            }
        });
        let s = r.snapshot();
        assert_eq!(s.counter("hot"), Some(200_000));
        assert_eq!(s.counter("cold"), Some(200_000));
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let r = Registry::new();
        r.set_enabled(true);
        r.add("a", 1);
        r.gauge_set("g", 1);
        r.record_span(Stage::Store, 1);
        r.reset();
        let s = r.snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty() && s.stages.is_empty());
        assert!(r.enabled());
    }
}
