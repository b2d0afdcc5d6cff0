//! A dependency-free stand-in for the slice of the Criterion API the
//! `benches/` harnesses use: `Criterion::default().configure_from_args()`,
//! `benchmark_group`, `sample_size`, `bench_function`, `Bencher::iter`,
//! `finish`, `final_summary`, and the `criterion_group!` macro.
//!
//! Each `bench_function` runs one untimed warm-up iteration, then
//! `sample_size` timed iterations, and prints min / mean / max wall time.
//! Statistical machinery (outlier rejection, regression detection) is
//! intentionally absent — the benches here are reproduction reports, not
//! CI gates.

#![deny(unsafe_code)]

use std::time::{Duration, Instant};

/// Top-level handle, mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Accepts (and ignores) Criterion's CLI arguments so harness `main`
    /// functions keep their shape.
    #[must_use]
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Prints nothing; per-bench lines are emitted as they complete.
    pub fn final_summary(self) {}

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        BenchmarkGroup { name: name.to_owned(), sample_size: 10 }
    }
}

/// A named collection of benchmarks sharing a sample size.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup {
    /// Sets how many timed iterations each benchmark runs.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark and prints its timing line.
    pub fn bench_function<I, F>(&mut self, id: I, mut f: F) -> &mut Self
    where
        I: std::fmt::Display,
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher { iters: self.sample_size, samples: Vec::new() };
        f(&mut bencher);
        let samples = bencher.samples;
        if samples.is_empty() {
            println!("{}/{id}: no samples (Bencher::iter never called)", self.name);
            return self;
        }
        let min = samples.iter().min().copied().unwrap_or_default();
        let max = samples.iter().max().copied().unwrap_or_default();
        let mean = samples.iter().sum::<Duration>() / u32::try_from(samples.len()).expect("fits");
        println!(
            "{}/{id}: time [{} {} {}] ({} samples)",
            self.name,
            fmt_duration(min),
            fmt_duration(mean),
            fmt_duration(max),
            samples.len()
        );
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; times the hot loop.
#[derive(Debug)]
pub struct Bencher {
    iters: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Runs `f` once untimed (warm-up), then `sample_size` timed times.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        std::hint::black_box(f());
        for _ in 0..self.iters {
            let start = Instant::now();
            std::hint::black_box(f());
            self.samples.push(start.elapsed());
        }
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", d.as_secs_f64() * 1e3)
    } else if nanos >= 1_000 {
        format!("{:.3} µs", d.as_secs_f64() * 1e6)
    } else {
        format!("{nanos} ns")
    }
}

/// Mirrors `criterion_group!`: defines a function running each benchmark
/// function against a fresh [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:ident),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_collects_requested_samples() {
        let mut c = Criterion::default().configure_from_args();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut calls = 0usize;
        group.bench_function("counts", |b| {
            b.iter(|| {
                calls += 1;
                calls
            });
        });
        group.finish();
        // 1 warm-up + 3 timed.
        assert_eq!(calls, 4);
    }

    #[test]
    fn sample_size_never_zero() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(0);
        let mut calls = 0usize;
        group.bench_function("still_runs", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 2);
    }

    #[test]
    fn durations_format_with_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.000 µs");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.000 ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.000 s");
    }

    criterion_group!(example_group, noop_bench);

    fn noop_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("macro");
        group.sample_size(1);
        group.bench_function("noop", |b| b.iter(|| 1 + 1));
        group.finish();
    }

    #[test]
    fn macro_defines_runnable_group() {
        example_group();
    }
}
