//! One stage span feeds every sink that is on: the stage table, and the
//! query's timeline and `query.stage_ns` histogram — all from the one
//! clock pair the span read.
//!
//! One test in its own binary, because every sink is process-global.

use prospector_obs::trace::{self, EventKind, TraceId};
use prospector_obs::{metrics, Counter, Hist, Stage};

#[test]
fn one_span_feeds_the_stage_table_and_the_timeline() {
    metrics::set_enabled(true);
    trace::set_enabled(true);

    // A stage span on a recording query feeds both sinks, and one `add`
    // charges the query and the global counter.
    let id = TraceId::next();
    let mut query = trace::span(id);
    drop(query.stage(Stage::Synth));
    query.add(Counter::SynthSnippets, 3);
    let total = query.finish();
    let snap = metrics::snapshot();
    let synth = snap.stage("synth").expect("the stage table saw the span");
    assert_eq!(synth.count, 1);
    assert_eq!(snap.counter(Counter::SynthSnippets), 3);
    let stage_hist = |snap: &metrics::Snapshot, stage: Stage| snap.histogram(Hist::QueryStageNs, stage.index()).clone();
    assert_eq!(stage_hist(&snap, Stage::Synth).count, 1);
    assert_eq!(stage_hist(&snap, Stage::Synth).sum, synth.total_ns);
    assert_eq!(snap.histogram(Hist::QueryLatencyNs, 0).sum, total, "finish records the latency");
    let events = trace::events_for(id);
    let shape: Vec<_> = events.iter().map(|e| e.kind).collect();
    assert_eq!(
        shape,
        [EventKind::Lap(Stage::Synth), EventKind::Count(Counter::SynthSnippets), EventKind::Query]
    );
    let names: Vec<_> = shape.iter().map(|k| k.name()).collect();
    assert_eq!(names, ["synth.total", "synth.snippets", "query"]);
    assert_eq!(events[0].value, synth.total_ns, "one interval feeds the table and the timeline");
    assert!(events[0].value <= total);
    assert_eq!(events[1].value, 3);
    assert_eq!(events[2].value, total);

    // A process-level span feeds the stage table only: no timeline
    // event, no query histogram.
    let recorded = trace::event_count();
    drop(prospector_obs::stage(Stage::Store));
    let snap = metrics::snapshot();
    assert_eq!(snap.stage("store").map(|s| s.count), Some(1));
    assert_eq!(stage_hist(&snap, Stage::Store).count, 0);
    assert_eq!(trace::event_count(), recorded);

    // With every sink off, a query stage span records nothing, while
    // `add` still counts.
    metrics::set_enabled(false);
    trace::set_enabled(false);
    let mut quiet = trace::span(TraceId::next());
    drop(quiet.stage(Stage::Rank));
    quiet.add(Counter::SynthSnippets, 2);
    assert_eq!(quiet.finish(), 0);
    let snap = metrics::snapshot();
    assert!(snap.stage("rank").is_none());
    assert_eq!(stage_hist(&snap, Stage::Rank).count, 0);
    assert_eq!(snap.counter(Counter::SynthSnippets), 5, "the counter records without tracing");
    assert_eq!(trace::event_count(), recorded);
}
