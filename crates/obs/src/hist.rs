//! Lock-free log2-bucket histograms.
//!
//! A [`Histogram`] is 64 atomic buckets; a recorded value lands in bucket
//! `⌊log2(v)⌋ + 1` (zero in bucket 0), and the top bucket holds every
//! value from 2^62 up, so every `u64` has a bucket. Recording is one
//! relaxed fetch-add, so the type is safe to share across mining threads
//! without coordination. Count and sum are tracked exactly; quantiles are
//! bucket-resolution approximations, which is plenty for the latency
//! distributions of §5.

use std::sync::atomic::{AtomicU64, Ordering};

const BUCKETS: usize = 64;

/// A concurrent log2-bucket histogram.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// An immutable copy of a histogram's state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (`buckets[i]` holds values in
    /// `[2^(i-1), 2^i)`; bucket 0 holds zeros, and the last bucket every
    /// value from 2^62 up).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of all observed values (wrapping).
    pub sum: u64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Index of the bucket a value lands in.
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of a bucket (`u64::MAX` for the last).
    #[must_use]
    pub fn bucket_limit(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Copies out the current state.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl HistSnapshot {
    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// `[0, 1]`); 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Histogram::bucket_limit(i);
            }
        }
        Histogram::bucket_limit(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of((1 << 62) - 1), 62);
        assert_eq!(Histogram::bucket_of(1 << 62), 63);
        assert_eq!(Histogram::bucket_of(u64::MAX), 63);
        assert_eq!(Histogram::bucket_limit(62), (1 << 62) - 1);
        assert_eq!(Histogram::bucket_limit(63), u64::MAX);
    }

    #[test]
    fn records_count_sum_and_quantiles() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.quantile(0.0), 0);
        // Median lands in the bucket of 2..=3.
        assert_eq!(s.quantile(0.5), 3);
        assert!(s.quantile(1.0) >= 1000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 80_000);
    }
}
