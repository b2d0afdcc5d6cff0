//! Rolling-window histograms: lock-light rings of per-slot deltas.
//!
//! The metric registry's histograms ([`crate::hist`]) are cumulative
//! since boot — they can say "10M requests so far" but not "p99 degraded
//! in the last minute", which is the question an SLO dashboard actually
//! asks. This module layers a **ring of per-second delta histograms** on
//! top of the same log2 buckets: recording lands one observation in the
//! slot owned by the current second, and a *view* merges every slot
//! younger than the requested window into one [`HistSnapshot`], from
//! which p50/p90/p99 and a request rate fall out.
//!
//! Deltas, not cumulative snapshots, back the ring on purpose: a slot
//! that ages out of every window simply stops being merged — there is no
//! subtraction, no pairing of "snapshot at T" with "snapshot at T−60",
//! and a reader never needs two coordinated reads to be correct. The
//! first recorder of a new second claims its slot in three steps: one
//! CAS moves the slot's stamp to a marker, it resets the slot's buckets,
//! and it publishes the new second. A recorder that finds the marker waits for
//! the publication, and no recorder reclaims a slot that holds a later
//! second, so no observation is lost; every recorder after the claim
//! does plain relaxed fetch-adds. The record path takes **no locks and
//! no allocation**.
//!
//! Two ring flavors:
//!
//! * [`WindowRing`] — full log2 histogram per slot, for latency
//!   distributions (quantiles + rate per window);
//! * [`CounterRing`] — one counter per slot, for windowed event rates
//!   (requests, errors) where a distribution is not needed.
//!
//! A ring is a plain value owned by the code that records into it (the
//! serve layer's request table, each registry tenant), which files it
//! into `/metrics` with [`crate::prom::Exposition::window`].
//! [`STANDARD_WINDOWS`] fixes the two views every consumer shares: 1m
//! and 5m.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::hist::{HistSnapshot, Histogram};

/// Ring capacity in one-second slots. Sized to hold the largest standard
/// window (5m = 300 slots) plus slack for the slot currently filling and
/// boundary skew, so a 5m view never merges a slot that has wrapped.
pub const SLOTS: usize = 330;

/// The window views every consumer renders: `(label, seconds)`.
pub const STANDARD_WINDOWS: [(&str, u64); 2] = [("1m", 60), ("5m", 300)];

/// The stamp of a slot whose claimer is resetting it. Views skip it: it
/// is above every second they ask for.
const CLAIMING: u64 = u64::MAX;

/// Makes a slot's `stamp` read `second` before the caller records into
/// the slot. A slot holding an earlier second is claimed: its stamp
/// becomes [`CLAIMING`], `reset` zeroes the slot, then the second is
/// published. A slot being claimed is waited for, and a slot holding
/// `second` or a later one is left as it is.
fn claim(stamp: &AtomicU64, second: u64, reset: impl FnOnce()) {
    loop {
        let seen = stamp.load(Ordering::Acquire);
        if seen == CLAIMING {
            std::thread::yield_now();
        } else if seen >= second {
            return;
        } else if stamp
            .compare_exchange_weak(seen, CLAIMING, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            reset();
            // Release pairs with the Acquire loads above: a recorder that
            // reads the second also sees the reset.
            stamp.store(second, Ordering::Release);
            return;
        }
    }
}

/// One slot: the second it belongs to (`0` = never used; stored as
/// `second + 1`) and that second's delta histogram.
#[derive(Debug)]
struct Slot {
    stamp: AtomicU64,
    hist: Histogram,
}

/// Aggregated statistics over one window of a ring.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WindowStats {
    /// Observations inside the window.
    pub count: u64,
    /// Sum of observed values inside the window (wrapping).
    pub sum: u64,
    /// Bucket-resolution p50 of the window (0 when empty).
    pub p50: u64,
    /// Bucket-resolution p90 of the window (0 when empty).
    pub p90: u64,
    /// Bucket-resolution p99 of the window (0 when empty).
    pub p99: u64,
    /// Observations per second over the window. Always finite: an empty
    /// window is rate 0, never NaN.
    pub rate: f64,
}

/// A rolling ring of per-second histogram deltas.
#[derive(Debug)]
pub struct WindowRing {
    epoch: Instant,
    slots: Vec<Slot>,
}

impl Default for WindowRing {
    fn default() -> Self {
        WindowRing::new()
    }
}

impl WindowRing {
    /// An empty ring of [`SLOTS`] one-second slots.
    #[must_use]
    pub fn new() -> Self {
        WindowRing {
            epoch: Instant::now(),
            slots: (0..SLOTS)
                .map(|_| Slot { stamp: AtomicU64::new(0), hist: Histogram::new() })
                .collect(),
        }
    }

    /// Seconds since this ring was created, offset by 1 so that slot
    /// stamp 0 can mean "never used".
    fn now_second(&self) -> u64 {
        self.epoch.elapsed().as_secs() + 1
    }

    /// Records one observation into the current second's slot. No locks,
    /// no allocation: one `Instant` read, one stamp load (plus the claim
    /// on the first record of a new second), then relaxed fetch-adds.
    pub fn record(&self, value: u64) {
        self.record_at(value, self.now_second());
    }

    /// [`record`](Self::record) with an explicit second, for tests and
    /// benches that need deterministic slot placement.
    pub fn record_at(&self, value: u64, second: u64) {
        let slot = &self.slots[(second % self.slots.len() as u64) as usize];
        claim(&slot.stamp, second, || slot.hist.reset());
        slot.hist.record(value);
    }

    /// Merges every slot younger than `window_secs` into one snapshot.
    /// The slot currently filling is included, so a view lags reality by
    /// at most nothing and leads it by at most one partial second.
    #[must_use]
    pub fn view(&self, window_secs: u64) -> WindowStats {
        self.view_at(window_secs, self.now_second())
    }

    /// [`view`](Self::view) with an explicit current second.
    #[must_use]
    pub fn view_at(&self, window_secs: u64, now_second: u64) -> WindowStats {
        let mut agg = HistSnapshot { buckets: Vec::new(), count: 0, sum: 0 };
        for slot in &self.slots {
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp != 0 && stamp <= now_second && now_second - stamp < window_secs {
                agg.merge(&slot.hist.snapshot());
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let rate = if window_secs == 0 { 0.0 } else { agg.count as f64 / window_secs as f64 };
        WindowStats {
            count: agg.count,
            sum: agg.sum,
            p50: agg.quantile(0.5),
            p90: agg.quantile(0.9),
            p99: agg.quantile(0.99),
            rate,
        }
    }
}

/// A rolling ring of per-second counters — [`WindowRing`] without the
/// per-slot distribution, for windowed request/error rates.
#[derive(Debug)]
pub struct CounterRing {
    epoch: Instant,
    stamps: Vec<AtomicU64>,
    counts: Vec<AtomicU64>,
}

impl Default for CounterRing {
    fn default() -> Self {
        CounterRing::new()
    }
}

impl CounterRing {
    /// An empty ring of [`SLOTS`] one-second slots.
    #[must_use]
    pub fn new() -> Self {
        CounterRing {
            epoch: Instant::now(),
            stamps: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
            counts: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn now_second(&self) -> u64 {
        self.epoch.elapsed().as_secs() + 1
    }

    /// Adds `n` to the current second's slot.
    pub fn add(&self, n: u64) {
        self.add_at(n, self.now_second());
    }

    /// [`add`](Self::add) with an explicit second.
    pub fn add_at(&self, n: u64, second: u64) {
        let i = (second % self.stamps.len() as u64) as usize;
        claim(&self.stamps[i], second, || self.counts[i].store(0, Ordering::Relaxed));
        self.counts[i].fetch_add(n, Ordering::Relaxed);
    }

    /// Total count over the trailing `window_secs` seconds.
    #[must_use]
    pub fn sum(&self, window_secs: u64) -> u64 {
        self.sum_at(window_secs, self.now_second())
    }

    /// [`sum`](Self::sum) with an explicit current second.
    #[must_use]
    pub fn sum_at(&self, window_secs: u64, now_second: u64) -> u64 {
        let mut total = 0u64;
        for (stamp, count) in self.stamps.iter().zip(&self.counts) {
            let stamp = stamp.load(Ordering::Acquire);
            if stamp != 0 && stamp <= now_second && now_second - stamp < window_secs {
                total += count.load(Ordering::Relaxed);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_views_are_zero_and_finite() {
        let ring = WindowRing::new();
        let v = ring.view(60);
        assert_eq!(v, WindowStats::default());
        assert!(v.rate.is_finite());
        assert_eq!(v.p99, 0);
    }

    #[test]
    fn values_inside_the_window_aggregate_and_outside_expire() {
        let ring = WindowRing::new();
        // Seconds 100..160: one sample of 1000ns each.
        for s in 100..160 {
            ring.record_at(1000, s);
        }
        let v = ring.view_at(60, 159);
        assert_eq!(v.count, 60);
        assert_eq!(v.sum, 60_000);
        assert!((v.rate - 1.0).abs() < 1e-9);
        assert!(v.p50 >= 1000 && v.p50 < 2048, "log2 bucket bound: {}", v.p50);
        // 30 seconds later, half the samples have aged out of a 1m view.
        let later = ring.view_at(60, 189);
        assert_eq!(later.count, 30);
        // A 5m view still sees everything.
        assert_eq!(ring.view_at(300, 189).count, 60);
    }

    #[test]
    fn slot_reuse_after_wrap_drops_the_stale_delta() {
        let ring = WindowRing::new();
        ring.record_at(5, 7);
        // The same slot index, SLOTS seconds later: the old delta must
        // not leak into the new second.
        ring.record_at(9, 7 + SLOTS as u64);
        let v = ring.view_at(60, 7 + SLOTS as u64);
        assert_eq!(v.count, 1);
        assert_eq!(v.sum, 9);
        // A straggler still on the old second counts into the newer one
        // instead of reclaiming (and resetting) the slot.
        ring.record_at(3, 7);
        assert_eq!(ring.view_at(60, 7 + SLOTS as u64).count, 2);
    }

    #[test]
    fn quantiles_track_the_window_not_the_lifetime() {
        let ring = WindowRing::new();
        // An old second full of slow samples, then a fresh second of
        // fast ones: the 1m view at the later time sees only the fast.
        for _ in 0..100 {
            ring.record_at(1_000_000, 10);
        }
        for _ in 0..100 {
            ring.record_at(100, 500);
        }
        let v = ring.view_at(60, 500);
        assert_eq!(v.count, 100);
        assert!(v.p99 < 1000, "old slow samples leaked into the window: {}", v.p99);
    }

    #[test]
    fn counter_ring_sums_and_expires() {
        let ring = CounterRing::new();
        ring.add_at(2, 100);
        ring.add_at(3, 130);
        assert_eq!(ring.sum_at(60, 130), 5);
        assert_eq!(ring.sum_at(60, 185), 3, "second 100 aged out");
        assert_eq!(ring.sum_at(60, 300), 0);
        // Wrap reuse resets the slot.
        ring.add_at(7, 100 + SLOTS as u64);
        assert_eq!(ring.sum_at(60, 100 + SLOTS as u64), 7);
    }

    #[test]
    fn concurrent_recording_within_one_second_loses_nothing() {
        let ring = WindowRing::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        ring.record_at(i, 42);
                    }
                });
            }
        });
        assert_eq!(ring.view_at(60, 42).count, 80_000);
    }

    #[test]
    fn concurrent_adds_within_one_second_lose_nothing() {
        let ring = CounterRing::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let ring = &ring;
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        ring.add_at(1, 42);
                    }
                });
            }
        });
        assert_eq!(ring.sum_at(60, 42), 80_000);
    }
}
