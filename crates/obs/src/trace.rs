//! The per-query flight recorder.
//!
//! The metric registry ([`crate::metrics`]) answers *"what has the
//! process done so far"*; it cannot say which of two concurrent queries
//! burned the DFS budget or missed the distance cache. This module adds
//! the Dapper-style per-request layer: every query gets a [`TraceId`],
//! an RAII [`QuerySpan`] buffers that query's timestamped events
//! privately (no locks, no atomics on the record path), and the whole
//! timeline is flushed into a bounded, lock-sharded ring buffer in one
//! shard-lock acquisition when the span finishes. Attribution therefore
//! happens *at flush time*: a query that never finishes publishes
//! nothing, and concurrent queries never interleave their events inside
//! a shard.
//!
//! On top of the ring:
//!
//! * a **slow-query log** — when a finished span's end-to-end latency
//!   meets the configured threshold, its full timeline is copied into a
//!   separate bounded log that ring eviction never touches;
//! * a **Chrome-trace exporter** ([`to_chrome_json`]) emitting the
//!   catapult `[{"ph":"X",...}]` array that `chrome://tracing` and
//!   Perfetto open directly;
//! * a **text timeline** ([`format_timeline`]) for the CLI's `explain`
//!   replay and the slow-query dump.
//!
//! A timeline holds two kinds of event, each named by the catalog: a
//! [`Stage`] lap from the one stage span ([`QuerySpan::stage`], see
//! [`crate::span`]), which also feeds the stage table, and a [`Counter`]
//! count from [`QuerySpan::add`], which also adds to the global counter.
//! The `query` envelope closes it: its end-to-end latency, which also
//! lands in the `query.latency_ns` histogram.
//!
//! Recording is off by default. A disabled recorder costs one relaxed
//! atomic load per [`QuerySpan`] (checked once when it opens, cached as
//! a plain bool for every event site), and [`event_count`] stays zero.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::catalog::{Counter, Hist};
use crate::json::Json;
use crate::metrics;
use crate::rng::SmallRng;
use crate::span::{self, nanos, QuerySink, Span, Stage};

/// Ring shards. Spans flush under exactly one shard lock (chosen by
/// trace id), so concurrent flushes on different queries rarely contend.
const RING_SHARDS: usize = 8;

/// Events retained per shard before the oldest are overwritten.
const RING_SHARD_CAP: usize = 1024;

/// Slow queries retained; older entries are dropped first.
const SLOW_LOG_CAP: usize = 32;

/// What one [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// One interval of a stage: `value` is its duration in nanoseconds
    /// and `t_ns` its start.
    Lap(Stage),
    /// A counter charged to the query: `value` is the count and `t_ns`
    /// the moment it was charged.
    Count(Counter),
    /// The query's end-to-end interval: `value` is its latency in
    /// nanoseconds and `t_ns` its start.
    Query,
}

impl EventKind {
    /// Stable lower-case label for reports: `lap`, `count` or `query`.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Lap(_) => "lap",
            EventKind::Count(_) => "count",
            EventKind::Query => "query",
        }
    }

    /// The event's name in Chrome traces and `/slow`, from the catalog:
    /// `<stage>.total` for a lap, the counter's series name for a count
    /// (`search.dfs_expansions`), and `query` for the envelope.
    #[must_use]
    pub fn name(self) -> String {
        match self {
            EventKind::Lap(stage) => format!("{}.total", stage.name()),
            EventKind::Count(counter) => counter.row().series(None),
            EventKind::Query => "query".to_owned(),
        }
    }
}

/// One timestamped event of a query's timeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// The owning query.
    pub trace_id: u64,
    /// What the event records.
    pub kind: EventKind,
    /// A duration in nanoseconds (a lap or the envelope) or a count.
    pub value: u64,
    /// Nanoseconds since the recorder's epoch.
    pub t_ns: u64,
}

/// A per-query trace identifier.
///
/// Ids are a pure function of the recorder seed and an atomic allocation
/// counter: bit 48 is always set (so an id is never 0), bits 32..48
/// derive from the seed via one splitmix64 draw, and bits 0..32 are the
/// allocation index. Two runs with the same seed therefore allocate
/// identical id sequences, the first 2^32 allocations are unique and
/// increasing, and every id stays below 2^49 — exactly representable in
/// the f64 JSON number type, so ids survive serialization unmangled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The next id from the global recorder.
    #[must_use]
    pub fn next() -> TraceId {
        global().next_id()
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

/// One retained slow query: its id, end-to-end latency, and timeline.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The query's trace id.
    pub trace_id: u64,
    /// End-to-end latency in nanoseconds.
    pub total_ns: u64,
    /// The full event timeline, in record order.
    pub events: Vec<TraceEvent>,
}

#[derive(Debug, Default)]
struct RingShard {
    buf: Vec<TraceEvent>,
    /// Next write position once `buf` reaches capacity.
    next: usize,
}

impl RingShard {
    fn push(&mut self, e: TraceEvent) {
        if self.buf.len() < RING_SHARD_CAP {
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
            self.next = (self.next + 1) % RING_SHARD_CAP;
        }
    }

    /// Oldest-first copy of the shard.
    fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

/// A flight recorder: ring buffer, slow-query log, and id allocator.
///
/// The pipeline records into the process-global one (via the free
/// functions in this module); tests can make their own.
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    /// Seed-derived 16-bit id prefix (see [`TraceId`]).
    id_base: AtomicU64,
    /// Allocation counter for the low 32 id bits.
    next_id: AtomicU64,
    /// Total events ever recorded (monotonic; eviction never decreases it).
    recorded: AtomicU64,
    /// Slow-query latency threshold in nanoseconds; 0 disables the log.
    slow_threshold_ns: AtomicU64,
    epoch: Instant,
    shards: Vec<Mutex<RingShard>>,
    slow: Mutex<Vec<SlowQuery>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty, disabled recorder seeded with 0.
    #[must_use]
    pub fn new() -> Self {
        let r = Recorder {
            enabled: AtomicBool::new(false),
            id_base: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            slow_threshold_ns: AtomicU64::new(0),
            epoch: Instant::now(),
            shards: (0..RING_SHARDS).map(|_| Mutex::new(RingShard::default())).collect(),
            slow: Mutex::new(Vec::new()),
        };
        r.set_seed(0);
        r
    }

    /// Turns event recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether event recording is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Re-seeds the id allocator: the id prefix becomes a pure function
    /// of `seed` and the allocation counter restarts at 0.
    pub fn set_seed(&self, seed: u64) {
        let base = SmallRng::seed_from_u64(seed).next_u64() >> 48;
        self.id_base.store(base, Ordering::Relaxed);
        self.next_id.store(0, Ordering::Relaxed);
    }

    /// Sets the slow-query latency threshold (0 disables the log).
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// The slow-query latency threshold in nanoseconds (0 = off).
    #[must_use]
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Drops every retained slow query (the ring and threshold are left
    /// alone). Returns how many entries were dropped.
    pub fn clear_slow(&self) -> usize {
        let mut slow = self.slow.lock().expect("slow log poisoned");
        let dropped = slow.len();
        slow.clear();
        dropped
    }

    /// Allocates the next trace id (see [`TraceId`] for the layout).
    #[must_use]
    pub fn next_id(&self) -> TraceId {
        let n = self.next_id.fetch_add(1, Ordering::Relaxed);
        let base = self.id_base.load(Ordering::Relaxed);
        TraceId((1 << 48) | (base << 32) | (n & 0xffff_ffff))
    }

    /// Nanoseconds since this recorder was created (saturating).
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        nanos(self.epoch.elapsed())
    }

    /// Opens a query span. When recording is disabled this costs one
    /// relaxed atomic load, and every event call on the returned span is
    /// a plain branch.
    #[must_use]
    pub fn span(&self, id: TraceId) -> QuerySpan<'_> {
        let started = self.enabled().then(Instant::now);
        QuerySpan { recorder: self, id, started, events: Vec::new() }
    }

    /// Publishes a finished timeline into the ring under one shard lock.
    fn flush(&self, trace_id: u64, events: &[TraceEvent]) {
        if events.is_empty() {
            return;
        }
        self.recorded.fetch_add(events.len() as u64, Ordering::Relaxed);
        let shard = &self.shards[(trace_id % RING_SHARDS as u64) as usize];
        let mut shard = shard.lock().expect("trace ring shard poisoned");
        for &e in events {
            shard.push(e);
        }
    }

    fn retain_slow(&self, entry: SlowQuery) {
        let mut slow = self.slow.lock().expect("slow log poisoned");
        while slow.len() >= SLOW_LOG_CAP {
            slow.remove(0);
        }
        slow.push(entry);
    }

    /// Total events ever recorded (eviction does not decrease this).
    #[must_use]
    pub fn event_count(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Every retained event: per shard oldest-first, then stably sorted
    /// by trace id, so one query's timeline is contiguous and batch
    /// exports are deterministic under any worker interleaving.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().expect("trace ring shard poisoned").snapshot());
        }
        out.sort_by_key(|e| e.trace_id);
        out
    }

    /// The retained timeline of one query, in record order.
    #[must_use]
    pub fn events_for(&self, id: TraceId) -> Vec<TraceEvent> {
        let shard = &self.shards[(id.0 % RING_SHARDS as u64) as usize];
        let shard = shard.lock().expect("trace ring shard poisoned");
        shard.snapshot().into_iter().filter(|e| e.trace_id == id.0).collect()
    }

    /// The retained slow queries, oldest first.
    #[must_use]
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.lock().expect("slow log poisoned").clone()
    }

    /// Drops every retained event and slow query (the enabled flag, the
    /// seed, and [`event_count`](Recorder::event_count) are left alone).
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.lock().expect("trace ring shard poisoned") = RingShard::default();
        }
        self.slow.lock().expect("slow log poisoned").clear();
    }
}

/// A live per-query recording session.
///
/// Events accumulate in a private buffer — recording an event touches no
/// lock and no atomic — and publish to the recorder's ring in one shard
/// lock when the span finishes (or is dropped). A span opened while
/// recording is disabled ignores every event call.
#[derive(Debug)]
pub struct QuerySpan<'a> {
    recorder: &'a Recorder,
    id: TraceId,
    /// `Some` iff recording was enabled when the span opened.
    started: Option<Instant>,
    events: Vec<TraceEvent>,
}

impl QuerySpan<'_> {
    /// The query's trace id.
    #[must_use]
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Whether this span is recording.
    #[must_use]
    pub fn recording(&self) -> bool {
        self.started.is_some()
    }

    /// Opens a stage span on this query. Besides the stage table, it
    /// records the query's lap event and its `query.stage_ns.<stage>`
    /// histogram when this span records.
    pub fn stage(&mut self, stage: Stage) -> Span<'_> {
        let sink = self.started.is_some().then_some(QuerySink {
            events: &mut self.events,
            trace_id: self.id.0,
            epoch: self.recorder.epoch,
        });
        span::open(stage, sink)
    }

    /// Adds `n` to `counter` and, when this span records, charges it to
    /// the query's timeline: one call records the quantity in both
    /// places.
    pub fn add(&mut self, counter: Counter, n: u64) {
        metrics::add(counter, n);
        if self.started.is_none() {
            return;
        }
        self.events.push(TraceEvent {
            trace_id: self.id.0,
            kind: EventKind::Count(counter),
            value: n,
            t_ns: self.recorder.now_ns(),
        });
    }

    /// Ends the query: records the end-to-end `query` envelope and
    /// the `query.latency_ns` histogram, copies the timeline into the
    /// slow-query log if it met the threshold, and publishes everything
    /// to the ring. Returns the end-to-end latency in nanoseconds (0 when
    /// the span was not recording).
    pub fn finish(mut self) -> u64 {
        self.close()
    }

    fn close(&mut self) -> u64 {
        let Some(started) = self.started.take() else { return 0 };
        let total = nanos(started.elapsed());
        metrics::histogram(Hist::QueryLatencyNs, 0).record(total);
        self.events.push(TraceEvent {
            trace_id: self.id.0,
            kind: EventKind::Query,
            value: total,
            t_ns: nanos(started.duration_since(self.recorder.epoch)),
        });
        let threshold = self.recorder.slow_threshold_ns();
        if threshold > 0 && total >= threshold {
            self.recorder.retain_slow(SlowQuery {
                trace_id: self.id.0,
                total_ns: total,
                events: self.events.clone(),
            });
        }
        self.recorder.flush(self.id.0, &self.events);
        self.events.clear();
        total
    }
}

impl Drop for QuerySpan<'_> {
    fn drop(&mut self) {
        // A span abandoned by an early return still publishes.
        let _ = self.close();
    }
}

/// The process-global flight recorder.
#[must_use]
pub fn global() -> &'static Recorder {
    static GLOBAL: OnceLock<Recorder> = OnceLock::new();
    GLOBAL.get_or_init(Recorder::new)
}

/// Turns global event recording on or off.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether global event recording is on.
#[must_use]
pub fn enabled() -> bool {
    global().enabled()
}

/// Re-seeds the global id allocator (see [`Recorder::set_seed`]).
pub fn set_seed(seed: u64) {
    global().set_seed(seed);
}

/// Drops every globally retained slow query; returns how many were
/// dropped.
pub fn clear_slow() -> usize {
    global().clear_slow()
}

/// Opens a query span on the global recorder.
#[must_use]
pub fn span(id: TraceId) -> QuerySpan<'static> {
    global().span(id)
}

/// Total events ever recorded globally.
#[must_use]
pub fn event_count() -> u64 {
    global().event_count()
}

/// Every globally retained event (see [`Recorder::events`]).
#[must_use]
pub fn events() -> Vec<TraceEvent> {
    global().events()
}

/// The globally retained timeline of one query.
#[must_use]
pub fn events_for(id: TraceId) -> Vec<TraceEvent> {
    global().events_for(id)
}

/// The globally retained slow queries, oldest first.
#[must_use]
pub fn slow_queries() -> Vec<SlowQuery> {
    global().slow_queries()
}

/// Converts nanoseconds to catapult microseconds (fractional).
#[allow(clippy::cast_precision_loss)]
fn us(ns: u64) -> Json {
    Json::Num(ns as f64 / 1_000.0)
}

/// Renders events as a Chrome-trace (catapult) JSON array: laps and
/// envelopes become `"ph":"X"` complete events and counts become
/// `"ph":"C"` counter events, each under its [`EventKind::name`], with
/// the trace id as the `tid` so each query gets its own track. The
/// output opens directly in `chrome://tracing` / Perfetto.
#[must_use]
pub fn to_chrome_json(events: &[TraceEvent]) -> Json {
    let mut out = Vec::with_capacity(events.len());
    for e in events {
        let name = Json::Str(e.kind.name());
        let mut pairs: Vec<(&str, Json)> = Vec::new();
        match e.kind {
            EventKind::Lap(_) | EventKind::Query => {
                let cat = match e.kind {
                    EventKind::Lap(stage) => stage.name(),
                    _ => "query",
                };
                pairs.push(("ph", Json::Str("X".to_owned())));
                pairs.push(("name", name));
                pairs.push(("cat", Json::Str(cat.to_owned())));
                pairs.push(("ts", us(e.t_ns)));
                pairs.push(("dur", us(e.value)));
            }
            EventKind::Count(_) => {
                pairs.push(("ph", Json::Str("C".to_owned())));
                pairs.push(("name", name));
                pairs.push(("ts", us(e.t_ns)));
                pairs.push(("args", Json::obj(vec![("value", Json::num_u(e.value))])));
            }
        }
        pairs.push(("pid", Json::num_u(1)));
        pairs.push(("tid", Json::num_u(e.trace_id)));
        out.push(Json::obj(pairs));
    }
    Json::Arr(out)
}

/// Renders one query's timeline as aligned text, e.g. for the CLI's
/// `explain` replay and the slow-query dump. Events go by their
/// [`EventKind::name`], except that the envelope reads `query.total`.
#[must_use]
pub fn format_timeline(events: &[TraceEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let t0 = events.iter().map(|e| e.t_ns).min().unwrap_or(0);
    for e in events {
        let at_us = (e.t_ns - t0) / 1_000;
        let name = match e.kind {
            EventKind::Query => "query.total".to_owned(),
            kind => kind.name(),
        };
        if let EventKind::Count(_) = e.kind {
            let _ = writeln!(out, "  +{at_us:>7}µs  {name:<30} {:>12}", e.value);
        } else {
            #[allow(clippy::cast_precision_loss)]
            let ms = e.value as f64 / 1e6;
            let _ = writeln!(out, "  +{at_us:>7}µs  {name:<30} {ms:>10.3}ms");
        }
    }
    out
}

/// Renders the slow-query log as text: one header plus timeline per
/// retained query.
#[must_use]
pub fn format_slow_log(slow: &[SlowQuery]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for q in slow {
        #[allow(clippy::cast_precision_loss)]
        let ms = q.total_ns as f64 / 1e6;
        let _ = writeln!(out, "slow query {:x}: {ms:.3}ms", q.trace_id);
        out.push_str(&format_timeline(&q.events));
    }
    out
}

/// Renders the slow-query log as a JSON array.
#[must_use]
pub fn slow_to_json(slow: &[SlowQuery]) -> Json {
    Json::Arr(
        slow.iter()
            .map(|q| {
                Json::obj(vec![
                    ("trace_id", Json::num_u(q.trace_id)),
                    ("total_ns", Json::num_u(q.total_ns)),
                    (
                        "events",
                        Json::Arr(
                            q.events
                                .iter()
                                .map(|e| {
                                    Json::obj(vec![
                                        ("name", Json::Str(e.kind.name())),
                                        ("kind", Json::Str(e.kind.label().to_owned())),
                                        ("value", Json::num_u(e.value)),
                                        ("t_ns", Json::num_u(e.t_ns)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing_and_count_zero() {
        let r = Recorder::new();
        let mut span = r.span(r.next_id());
        drop(span.stage(Stage::Search));
        span.add(Counter::SearchDfsExpansions, 42);
        assert_eq!(span.finish(), 0);
        assert_eq!(r.event_count(), 0);
        assert!(r.events().is_empty());
    }

    #[test]
    fn enabled_spans_publish_at_finish_only() {
        let r = Recorder::new();
        r.set_enabled(true);
        let id = r.next_id();
        let mut span = r.span(id);
        span.add(Counter::SearchDfsExpansions, 7);
        drop(span.stage(Stage::Search));
        // Nothing visible until the flush.
        assert_eq!(r.event_count(), 0);
        let total = span.finish();
        let events = r.events_for(id);
        // count + lap + the query envelope.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, EventKind::Count(Counter::SearchDfsExpansions));
        assert_eq!(events[0].value, 7);
        assert_eq!(events[1].kind, EventKind::Lap(Stage::Search));
        assert!(events[1].value <= total, "the stage lies inside the query");
        assert!(events[1].t_ns >= events[2].t_ns, "the stage starts after the query");
        assert_eq!(events[2].kind, EventKind::Query);
        assert_eq!(events[2].value, total);
        assert_eq!(r.event_count(), 3);
    }

    #[test]
    fn dropped_span_still_publishes() {
        let r = Recorder::new();
        r.set_enabled(true);
        let id = r.next_id();
        {
            let mut span = r.span(id);
            span.add(Counter::SearchPathsEnumerated, 1);
        }
        assert_eq!(r.events_for(id).len(), 2, "count + query envelope");
    }

    #[test]
    fn events_are_named_by_the_catalog() {
        let names: Vec<(String, &str)> = [
            EventKind::Lap(Stage::ServeRequest),
            EventKind::Count(Counter::EngineDistCacheHits),
            EventKind::Query,
        ]
        .into_iter()
        .map(|k| (k.name(), k.label()))
        .collect();
        let expected = [
            ("serve.request.total", "lap"),
            ("engine.dist_cache.hits", "count"),
            ("query", "query"),
        ];
        assert_eq!(names.iter().map(|(n, l)| (n.as_str(), *l)).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn ids_are_deterministic_in_seed_and_unique() {
        let r = Recorder::new();
        r.set_seed(7);
        let a: Vec<u64> = (0..100).map(|_| r.next_id().0).collect();
        r.set_seed(7);
        let b: Vec<u64> = (0..100).map(|_| r.next_id().0).collect();
        assert_eq!(a, b);
        r.set_seed(8);
        let c: Vec<u64> = (0..100).map(|_| r.next_id().0).collect();
        assert_ne!(a, c);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "ids are unique");
        for &id in &a {
            assert_ne!(id, 0, "0 is reserved for process events");
            assert!(id < (1 << 49), "ids stay f64-exact");
        }
    }

    /// A 24-bit allocation index named two requests with one id after
    /// 2^24 allocations; the 32-bit index keeps going.
    #[test]
    fn ids_stay_unique_past_two_to_the_24_allocations() {
        let r = Recorder::new();
        r.set_seed(3);
        let first = r.next_id();
        let mut last = first;
        for _ in 1..(1u64 << 24) {
            last = r.next_id();
        }
        let next = r.next_id();
        assert_ne!(next, first, "the 2^24+1-th id repeats none before it");
        assert!(next > last, "ids keep increasing");
        assert!(next.0 < (1 << 49));
    }

    #[test]
    fn ring_overwrites_oldest_but_event_count_is_monotonic() {
        let r = Recorder::new();
        r.set_enabled(true);
        // One query in shard 0 (trace id 8) overflows it: counts valued
        // 0, 1, .. and then the envelope.
        let mut span = r.span(TraceId(8));
        for i in 0..(RING_SHARD_CAP as u64 + 9) {
            span.add(Counter::SynthSnippets, i);
        }
        span.finish();
        let events = r.events();
        assert_eq!(events.len(), RING_SHARD_CAP);
        assert_eq!(events[0].value, 10, "oldest 10 overwritten");
        assert_eq!(events[RING_SHARD_CAP - 2].value, RING_SHARD_CAP as u64 + 8);
        assert_eq!(events.last().unwrap().kind, EventKind::Query, "the newest is retained");
        assert_eq!(r.event_count(), RING_SHARD_CAP as u64 + 10);
    }

    #[test]
    fn slow_queries_survive_ring_eviction() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.set_slow_threshold_ns(1); // everything is slow
        let id = r.next_id();
        let mut span = r.span(id);
        span.add(Counter::SearchDfsExpansions, 5);
        let total = span.finish();
        // Threshold 0 disables retention; then flood the ring with
        // queries until the slow query's events are evicted.
        r.set_slow_threshold_ns(0);
        for _ in 0..(RING_SHARDS * RING_SHARD_CAP + 64) {
            r.span(r.next_id()).add(Counter::SynthSnippets, 0);
        }
        assert!(r.events_for(id).is_empty(), "the ring evicted the slow query");
        let slow = r.slow_queries();
        assert_eq!(slow.len(), 1, "no flood query was retained");
        assert_eq!(slow[0].trace_id, id.0);
        assert_eq!(slow[0].total_ns, total);
        assert_eq!(slow[0].events.len(), 2);
    }

    #[test]
    fn slow_log_is_bounded() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.set_slow_threshold_ns(1);
        let first = r.next_id();
        r.span(first).finish();
        for _ in 0..SLOW_LOG_CAP {
            r.span(r.next_id()).finish();
        }
        let slow = r.slow_queries();
        assert_eq!(slow.len(), SLOW_LOG_CAP);
        assert!(slow.iter().all(|q| q.trace_id != first.0), "oldest dropped");
    }

    #[test]
    fn slow_log_is_clearable() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.set_slow_threshold_ns(1);
        for _ in 0..SLOW_LOG_CAP + 2 {
            r.span(r.next_id()).finish();
        }
        // clear_slow drops the capped log but keeps the threshold.
        assert_eq!(r.clear_slow(), SLOW_LOG_CAP);
        assert!(r.slow_queries().is_empty());
        r.span(r.next_id()).finish();
        assert_eq!(r.slow_queries().len(), 1, "retention continues after clear");
    }

    #[test]
    fn chrome_export_shapes_spans_and_counters() {
        let r = Recorder::new();
        r.set_enabled(true);
        let id = r.next_id();
        let mut span = r.span(id);
        span.add(Counter::SearchDfsExpansions, 3);
        drop(span.stage(Stage::Search));
        span.finish();
        let doc = to_chrome_json(&r.events());
        let text = doc.to_text();
        let parsed = Json::parse(&text).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        let counter = &arr[0];
        assert_eq!(counter.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(counter.get("name").unwrap().as_str(), Some("search.dfs_expansions"));
        assert_eq!(counter.get("args").unwrap().get("value").unwrap().as_u64(), Some(3));
        let span_ev = &arr[1];
        assert_eq!(span_ev.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span_ev.get("name").unwrap().as_str(), Some("search.total"));
        assert!(span_ev.get("dur").unwrap().as_f64().is_some());
        assert_eq!(span_ev.get("tid").unwrap().as_u64(), Some(id.0));
        let envelope = &arr[2];
        assert_eq!(envelope.get("name").unwrap().as_str(), Some("query"));
    }

    #[test]
    fn timeline_and_slow_log_render() {
        let r = Recorder::new();
        r.set_enabled(true);
        r.set_slow_threshold_ns(1);
        let id = r.next_id();
        let mut span = r.span(id);
        span.add(Counter::SearchPathsEnumerated, 12);
        drop(span.stage(Stage::Search));
        span.finish();
        let text = format_timeline(&r.events_for(id));
        assert!(text.contains("search.paths_enumerated"), "{text}");
        assert!(text.contains("search.total"), "{text}");
        assert!(text.contains("12"), "{text}");
        assert!(text.contains("query.total"), "{text}");
        let slow_text = format_slow_log(&r.slow_queries());
        assert!(slow_text.contains("slow query"), "{slow_text}");
        let slow_json = slow_to_json(&r.slow_queries()).to_text();
        let parsed = Json::parse(&slow_json).unwrap();
        assert_eq!(parsed.as_arr().unwrap().len(), 1);
        let events = parsed.as_arr().unwrap()[0].get("events").unwrap().as_arr().unwrap();
        let names: Vec<_> = events.iter().map(|e| e.get("name").unwrap().as_str().unwrap()).collect();
        assert_eq!(names, ["search.paths_enumerated", "search.total", "query"], "the Chrome names");
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("count"));
        assert_eq!(events[0].get("value").unwrap().as_u64(), Some(12));
        assert!(events[2].get("t_ns").unwrap().as_u64().is_some());
    }

    #[test]
    fn events_sorted_by_trace_id_keep_per_query_order() {
        let r = Recorder::new();
        r.set_enabled(true);
        let a = r.next_id();
        let b = r.next_id();
        // Interleave: open b's span first, finish a's first.
        let mut sb = r.span(b);
        let mut sa = r.span(a);
        sa.add(Counter::SearchPathsEnumerated, 1);
        sa.add(Counter::RankComparisons, 2);
        sa.finish();
        sb.add(Counter::SearchPathsEnumerated, 3);
        sb.finish();
        let events = r.events();
        let a_events: Vec<_> = events.iter().filter(|e| e.trace_id == a.0).collect();
        assert_eq!(a_events[0].kind, EventKind::Count(Counter::SearchPathsEnumerated));
        assert_eq!(a_events[1].kind, EventKind::Count(Counter::RankComparisons));
        // Sorted by id: all of a's events precede all of b's.
        let first_b = events.iter().position(|e| e.trace_id == b.0).unwrap();
        let last_a = events.iter().rposition(|e| e.trace_id == a.0).unwrap();
        assert!(last_a < first_b);
    }
}
