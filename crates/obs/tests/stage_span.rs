//! One stage span feeds every sink that is on: the stage table, the
//! query's timeline and `query.stage_ns` histogram, and the profiler —
//! all from the one clock pair the span read.
//!
//! One test in its own binary, because every sink is process-global.

use prospector_obs::trace::{self, EventKind, TraceId};
use prospector_obs::{metrics, profile, Hist, Stage};

#[test]
fn one_span_feeds_the_stage_table_the_timeline_and_the_profiler() {
    metrics::set_enabled(true);
    profile::set_enabled(true);
    trace::set_enabled(true);

    // A stage span on a recording query feeds all three sinks.
    let id = TraceId::next();
    let mut query = trace::span(id);
    {
        let _span = query.stage(Stage::Synth);
        profile::sample_all();
    }
    query.count("synth", "snippets", 3);
    let total = query.finish();
    let snap = metrics::snapshot();
    let synth = snap.stage("synth").expect("the stage table saw the span");
    assert_eq!(synth.count, 1);
    let stage_hist = |snap: &metrics::Snapshot, stage: Stage| snap.histogram(Hist::QueryStageNs, stage.index()).clone();
    assert_eq!(stage_hist(&snap, Stage::Synth).count, 1);
    assert_eq!(stage_hist(&snap, Stage::Synth).sum, synth.total_ns);
    assert_eq!(snap.histogram(Hist::QueryLatencyNs, 0).sum, total, "finish records the latency");
    let events = trace::events_for(id);
    let shape: Vec<_> = events.iter().map(|e| (e.stage, e.kind, e.key)).collect();
    assert_eq!(
        shape,
        [
            ("synth", EventKind::Span, "total"),
            ("synth", EventKind::Count, "snippets"),
            ("query", EventKind::Span, "total"),
        ]
    );
    assert_eq!(events[0].value, synth.total_ns, "one interval feeds the table and the timeline");
    assert!(events[0].value <= total);
    let sampled = |stack: &str| profile::folded().iter().any(|(s, c)| s == stack && *c == 1);
    assert!(sampled("synth"), "{:?}", profile::folded());

    // A process-level span feeds the table and the profiler only.
    {
        let _span = prospector_obs::stage(Stage::Store);
        profile::sample_all();
    }
    let snap = metrics::snapshot();
    assert_eq!(snap.stage("store").map(|s| s.count), Some(1));
    assert_eq!(stage_hist(&snap, Stage::Store).count, 0);
    assert!(sampled("store"), "{:?}", profile::folded());

    // With every sink off, a query stage span records nothing.
    metrics::set_enabled(false);
    profile::set_enabled(false);
    trace::set_enabled(false);
    let recorded = trace::event_count();
    let mut quiet = trace::span(TraceId::next());
    drop(quiet.stage(Stage::Rank));
    assert_eq!(quiet.finish(), 0);
    let snap = metrics::snapshot();
    assert!(snap.stage("rank").is_none());
    assert_eq!(stage_hist(&snap, Stage::Rank).count, 0);
    assert_eq!(trace::event_count(), recorded);
}
