//! The observability substrate for the Prospector reproduction.
//!
//! Everything in this crate is dependency-free by design: the pipeline
//! crates sit below the corpora and CLI layers, so the instrumentation
//! layer must sit below *them* and bring nothing with it.
//!
//! The pieces:
//!
//! * [`catalog`] — every metric series the process exposes, declared
//!   once: name, kind and help text. Recording sites name a row.
//! * [`metrics`] — the process-global registry: a fixed array of relaxed
//!   atomic cells per catalog row. Hot loops keep local tallies and flush
//!   once per call; recording is a single relaxed atomic add.
//! * [`hist`] — fixed-size log2-bucket histograms (no allocation after
//!   registration, no locks on the record path). Every latency the
//!   server records and every stage's time is one of these, cumulative
//!   since boot; a scraper takes windows over its `_bucket` series with
//!   `rate()`.
//! * [`span`] — the closed [`Stage`] catalog and its one RAII span. A
//!   span reads the clock once at each end when metrics are on or its
//!   query records, and records the interval in its stage's histogram
//!   and, on a recording query, as that query's lap; with both off it
//!   reads no clock.
//! * [`json`] — a small strict JSON value type, writer, and parser, used
//!   for the `--metrics-json` report and the `index build --json` dump.
//! * [`trace`] — the per-query flight recorder: seeded [`trace::TraceId`]
//!   allocation, an RAII [`trace::QuerySpan`] that buffers a query's
//!   timestamped events and flushes them into a bounded lock-sharded
//!   ring at finish, a slow-query log, and Chrome-trace / text exporters.
//!   An event is a [`Stage`] lap or a [`Counter`] count
//!   ([`trace::QuerySpan::add`], which also adds to the registry), and
//!   the `query` envelope closes each timeline.
//! * [`prom`] — Prometheus text exposition: each family's HELP and TYPE
//!   lines once, from its catalog row, then its samples (histograms as
//!   cumulative `_bucket{le=...}` series); backs `serve`'s `/metrics`.
//! * [`log`] — the structured access log: one strict-JSON line per
//!   served request (trace id, endpoint, code, queue wait, handle time)
//!   to stderr or a file, plus a bounded in-memory tail for `GET /logs`.
//!
//! [`rng`] is a bonus tenant: a tiny deterministic PRNG
//! ([`rng::SmallRng`]) for the seeded generators and simulations, living
//! here because this is the one crate every other crate can depend on.
//!
//! # Example
//!
//! ```
//! use prospector_obs::{Counter, Hist, Stage};
//!
//! prospector_obs::metrics::set_enabled(true);
//! {
//!     let _span = prospector_obs::stage(Stage::Search);
//!     prospector_obs::add(Counter::SearchDfsExpansions, 42);
//! }
//! let snap = prospector_obs::metrics::snapshot();
//! assert_eq!(snap.counter(Counter::SearchDfsExpansions), 42);
//! assert_eq!(snap.histogram(Hist::StageLatencyNs, Stage::Search.index()).count, 1);
//! ```

#![deny(unsafe_code)]

pub mod catalog;
pub mod hist;
pub mod json;
pub mod log;
pub mod metrics;
pub mod prom;
pub mod report;
pub mod rng;
pub mod span;
pub mod trace;

pub use catalog::{Counter, Gauge, Hist, Labeled};
pub use json::Json;
pub use metrics::{add, gauge_set, set_enabled, snapshot, Snapshot};
pub use rng::SmallRng;
pub use span::{stage, Stage};
pub use trace::{QuerySpan, TraceId};
