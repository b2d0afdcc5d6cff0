//! One stage span records its interval once, in its stage's
//! `stage.latency_ns.<stage>` histogram, whenever metrics are on or its
//! query records, and a recording query's lap is that same interval —
//! all from the one clock pair the span read.
//!
//! One test in its own binary, because every sink is process-global.

use prospector_obs::hist::HistSnapshot;
use prospector_obs::trace::{self, EventKind, TraceId};
use prospector_obs::{metrics, Counter, Hist, Stage};

fn stage_hist(stage: Stage) -> HistSnapshot {
    metrics::snapshot().histogram(Hist::StageLatencyNs, stage.index()).clone()
}

#[test]
fn one_span_records_one_observation_and_the_lap_is_that_observation() {
    metrics::set_enabled(true);
    trace::set_enabled(true);

    // A stage span on a recording query records one observation and one
    // lap of the same value, and one `add` charges the query and the
    // global counter.
    let id = TraceId::next();
    let mut query = trace::span(id);
    drop(query.stage(Stage::Synth));
    query.add(Counter::SynthSnippets, 3);
    let total = query.finish();
    let snap = metrics::snapshot();
    let synth = snap.histogram(Hist::StageLatencyNs, Stage::Synth.index());
    assert_eq!(synth.count, 1);
    assert_eq!(snap.counter(Counter::SynthSnippets), 3);
    assert_eq!(snap.histogram(Hist::QueryLatencyNs, 0).sum, total, "finish records the latency");
    let events = trace::events_for(id);
    let shape: Vec<_> = events.iter().map(|e| e.kind).collect();
    assert_eq!(
        shape,
        [EventKind::Lap(Stage::Synth), EventKind::Count(Counter::SynthSnippets), EventKind::Query]
    );
    let names: Vec<_> = shape.iter().map(|k| k.name()).collect();
    assert_eq!(names, ["synth.total", "synth.snippets", "query"]);
    assert_eq!(events[0].value, synth.sum, "the lap is the histogram's one observation");
    assert!(events[0].value <= total);
    assert_eq!(events[1].value, 3);
    assert_eq!(events[2].value, total);

    // A process-level span records its stage's histogram only: no
    // timeline event.
    let recorded = trace::event_count();
    drop(prospector_obs::stage(Stage::Store));
    assert_eq!(stage_hist(Stage::Store).count, 1);
    assert_eq!(trace::event_count(), recorded);

    // A recording query times its span with metrics off, too: one
    // observation, equal to the lap.
    metrics::set_enabled(false);
    let id = TraceId::next();
    let mut query = trace::span(id);
    drop(query.stage(Stage::Rank));
    query.finish();
    let rank = stage_hist(Stage::Rank);
    assert_eq!(rank.count, 1);
    let events = trace::events_for(id);
    assert_eq!(events[0].kind, EventKind::Lap(Stage::Rank));
    assert_eq!(events[0].value, rank.sum);
    assert_eq!(trace::event_count(), recorded + 2, "the lap and the query envelope");

    // With metrics off and the query not recording, neither a query
    // stage span nor a process-level span records, while `add` still
    // counts.
    trace::set_enabled(false);
    let mut quiet = trace::span(TraceId::next());
    drop(quiet.stage(Stage::Rank));
    quiet.add(Counter::SynthSnippets, 2);
    assert_eq!(quiet.finish(), 0);
    drop(prospector_obs::stage(Stage::Store));
    assert_eq!(stage_hist(Stage::Rank), rank);
    assert_eq!(stage_hist(Stage::Store).count, 1);
    assert_eq!(metrics::snapshot().counter(Counter::SynthSnippets), 5, "the counter records without tracing");
    assert_eq!(trace::event_count(), recorded + 2);
}
