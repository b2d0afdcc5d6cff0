//! The observability substrate for the Prospector reproduction.
//!
//! Everything in this crate is dependency-free by design: the pipeline
//! crates sit below the corpora and CLI layers, so the instrumentation
//! layer must sit below *them* and bring nothing with it.
//!
//! Four pieces:
//!
//! * [`metrics`] — a process-global registry of named atomic counters and
//!   gauges. Hot loops keep local tallies and flush once per call;
//!   recording is a single relaxed atomic add.
//! * [`hist`] — fixed-size log2-bucket histograms (no allocation after
//!   registration, no locks on the record path).
//! * [`span`] — an RAII stage timer. Timing is gated on the global
//!   [`metrics::enabled`] flag so a disabled build pays one relaxed load
//!   per stage, not two `Instant::now()` calls.
//! * [`json`] — a small strict JSON value type, writer, and parser, used
//!   for the `--metrics-json` report and the `index build --json` dump.
//! * [`trace`] — the per-query flight recorder: seeded [`trace::TraceId`]
//!   allocation, an RAII [`trace::QuerySpan`] that buffers a query's
//!   timestamped events and flushes them into a bounded lock-sharded
//!   ring at finish, a slow-query log, and Chrome-trace / text exporters.
//! * [`prom`] — Prometheus text exposition rendering of a metric
//!   snapshot (counters, gauges, stages, and histograms as cumulative
//!   `_bucket{le=...}` series), backing the `serve` mode's `/metrics`.
//! * [`window`] — rolling-window histograms: lock-light rings of
//!   per-second delta histograms aggregated into 1m/5m views
//!   (p50/p90/p99 + rate), so the serve layer can answer "what was p99
//!   in the last minute", not just "since boot".
//! * [`log`] — the structured access log: one strict-JSON line per
//!   served request (trace id, endpoint, code, queue wait, handle time)
//!   to stderr or a file, plus a bounded in-memory tail for `GET /logs`.
//! * [`sketch`] — mergeable frequency sketches (count-min + space-saving
//!   top-K), allocation-free on record, for workload analytics: which
//!   query keys dominate, which miss, which truncate.
//! * [`profile`] — a cooperative sampling profiler: spans publish the
//!   thread's stage stack into a per-thread atomic word; a sampler folds
//!   all stacks at ~100 Hz into flamegraph.pl-compatible folded counts.
//!
//! [`rng`] is a bonus tenant: a tiny deterministic PRNG
//! ([`rng::SmallRng`]) for the seeded generators and simulations, living
//! here because this is the one crate every other crate can depend on.
//!
//! # Example
//!
//! ```
//! prospector_obs::metrics::set_enabled(true);
//! {
//!     let _span = prospector_obs::span::stage("search");
//!     prospector_obs::metrics::add("search.dfs_expansions", 42);
//! }
//! let snap = prospector_obs::metrics::snapshot();
//! assert_eq!(snap.counter("search.dfs_expansions"), Some(42));
//! assert!(snap.stage("search").is_some());
//! ```

#![deny(unsafe_code)]

pub mod hist;
pub mod json;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod prom;
pub mod report;
pub mod rng;
pub mod sketch;
pub mod span;
pub mod trace;
pub mod window;

pub use json::Json;
pub use metrics::{add, gauge_set, set_enabled, snapshot, Snapshot};
pub use rng::SmallRng;
pub use sketch::{CountMinSketch, SpaceSaving};
pub use span::stage;
pub use trace::{QuerySpan, TraceId};
