//! The stage catalog and its one RAII span.
//!
//! A [`Span`] times one interval of a [`Stage`] with one clock read at
//! each end, and reads the clock only when metrics are on or the span
//! was opened on a recording query ([`crate::trace::QuerySpan::stage`]).
//! On drop it records the interval in the stage's
//! `stage.latency_ns.<stage>` histogram, the one store of a stage's
//! time, and on a recording query it also appends the query's lap
//! event. Spans nest freely, and the record path takes no lock and
//! allocates nothing.

use std::time::{Duration, Instant};

use crate::catalog::Hist;
use crate::metrics;
use crate::trace::{EventKind, TraceEvent};

/// A pipeline stage. The six pipeline stages come first, in the order
/// reports list them; a stage's discriminant is its [`Stage::index`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Assembling the jungloid graph from an API.
    Build,
    /// Mining example jungloids from the client corpus (§4).
    Mine,
    /// Generalizing mined examples before they are spliced (§4.2).
    Generalize,
    /// Distance field and path enumeration (§3.1).
    Search,
    /// Ranking the suggestions (§3.2).
    Rank,
    /// Synthesizing and deduplicating code for every path.
    Synth,
    /// A content-assist query (§5).
    Assist,
    /// A query batch fan-out.
    Batch,
    /// A snapshot save or load.
    Store,
}

impl Stage {
    /// Every stage's name, in discriminant order: the name a stage has in
    /// query timelines and histogram names.
    pub const NAMES: [&'static str; 9] = [
        "build", "mine", "generalize", "search", "rank", "synth",
        "assist", "batch", "store",
    ];

    /// The stage's name (see [`Stage::NAMES`]).
    #[must_use]
    pub const fn name(self) -> &'static str {
        Stage::NAMES[self.index()]
    }

    /// The stage's slot in per-stage arrays (and its label value in the
    /// `stage.latency_ns.<stage>` family): its discriminant.
    #[must_use]
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Whole nanoseconds in `d`, saturating.
pub(crate) fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The timeline a query stage span appends its event to.
#[derive(Debug)]
pub(crate) struct QuerySink<'q> {
    pub(crate) events: &'q mut Vec<TraceEvent>,
    pub(crate) trace_id: u64,
    /// The recorder's epoch, which event timestamps count from.
    pub(crate) epoch: Instant,
}

/// A live stage interval; drop it to record.
#[derive(Debug)]
pub struct Span<'q> {
    stage: Stage,
    /// The clock read at open; `None` when metrics were off and no
    /// query records.
    start: Option<Instant>,
    /// The owning query's timeline, when that query records.
    query: Option<QuerySink<'q>>,
}

/// Opens a span on `stage`, writing to `query`'s timeline when given.
pub(crate) fn open(stage: Stage, query: Option<QuerySink<'_>>) -> Span<'_> {
    let start = (metrics::enabled() || query.is_some()).then(Instant::now);
    Span { stage, start, query }
}

/// Opens a process-level span for `stage`: it records the stage's
/// histogram when metrics are on, and belongs to no query timeline.
#[must_use]
pub fn stage(stage: Stage) -> Span<'static> {
    open(stage, None)
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = nanos(start.elapsed());
        metrics::histogram(Hist::StageLatencyNs, self.stage.index()).record(ns);
        if let Some(q) = &mut self.query {
            q.events.push(TraceEvent {
                trace_id: q.trace_id,
                kind: EventKind::Lap(self.stage),
                value: ns,
                t_ns: nanos(start.duration_since(q.epoch)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_stage_has_its_name_and_its_index() {
        let catalog = [
            (Stage::Build, "build"),
            (Stage::Mine, "mine"),
            (Stage::Generalize, "generalize"),
            (Stage::Search, "search"),
            (Stage::Rank, "rank"),
            (Stage::Synth, "synth"),
            (Stage::Assist, "assist"),
            (Stage::Batch, "batch"),
            (Stage::Store, "store"),
        ];
        assert_eq!(catalog.len(), Stage::NAMES.len());
        for (i, (stage, name)) in catalog.into_iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(stage.name(), name);
        }
    }

    /// The registry is process-global and the flag is shared, so the
    /// disabled and enabled halves run as one body. No other test in this
    /// crate times `build` or `mine` in it, so their counts are exact.
    #[test]
    fn spans_record_nested_durations_only_when_enabled() {
        let hist = |stage: Stage| metrics::snapshot().histogram(Hist::StageLatencyNs, stage.index()).clone();
        metrics::set_enabled(false);
        let before = hist(Stage::Mine);
        drop(stage(Stage::Mine));
        assert_eq!(hist(Stage::Mine), before, "a disabled span records nothing");

        metrics::set_enabled(true);
        let (outer_before, inner_before) = (hist(Stage::Build), hist(Stage::Mine));
        {
            let _outer = stage(Stage::Build);
            let inner = stage(Stage::Mine);
            std::thread::sleep(Duration::from_millis(2));
            drop(inner);
        }
        metrics::set_enabled(false);
        let (outer, inner) = (hist(Stage::Build), hist(Stage::Mine));
        assert_eq!(outer.count, outer_before.count + 1);
        assert_eq!(inner.count, inner_before.count + 1);
        let inner_ns = inner.sum - inner_before.sum;
        assert!(inner_ns >= 2_000_000, "slept 2ms, recorded {inner_ns}ns");
        assert!(outer.sum - outer_before.sum >= inner_ns, "outer contains inner");
    }
}
