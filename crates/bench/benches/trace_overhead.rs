//! Flight-recorder overhead — per-query latency for the Table 1 mix
//! with the trace ring disabled (the default: one relaxed atomic load
//! per query span, plain branches at every event site) versus enabled
//! (events buffered per query and flushed under one shard lock at
//! finish).
//!
//! The contract this guards: tracing OFF must be free enough that it is
//! never worth compiling out, and tracing ON must stay cheap enough to
//! leave on in a serving process. The two arms alternate over
//! [`ROUNDS`] rounds, swapping which goes first each round, so host
//! drift lands on both; the reported overhead is the median of the
//! per-round differences, with their quartiles and range as its spread.
//!
//! The `stage_span` case prices the one stage span with metrics on: a
//! process-level span (the stage table) and a span on a recording query
//! (also its lap event and `query.stage_ns` histogram). Next to it, the
//! metric record path: a counter `add`, a `gauge_set` and a histogram
//! `record` on catalog rows, each timed on one thread and with two
//! threads recording the same cell at once. The histogram record is the
//! one every served latency takes (endpoint, queue wait, tenant). The
//! process-level span and every record must make zero allocations; a
//! counting global allocator checks each hot loop.
//!
//! The `access_log_record` case prices the access log the serve layer
//! writes once per request: a `/query`-shaped record into an
//! [`AccessLog`] with a file sink, after [`TAIL_CAP`] warm-up records so
//! the tail no longer grows. Each record is one `write(2)` of a line
//! rendered into a reused buffer, and must make zero allocations.
//!
//! Results land in `BENCH_obs_window.json` at the repository root
//! (override with `BENCH_OBS_WINDOW_OUT`).
//!
//! Run with `cargo bench -p bench --bench trace_overhead`; set
//! `PROSPECTOR_BENCH_QUICK=1` (or pass `--quick`) for a CI-sized smoke
//! run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use jungloid_typesys::TyId;
use prospector_core::Prospector;
use prospector_corpora::{build, problems, BuildOptions};
use prospector_obs::log::{AccessLog, AccessRecord, TAIL_CAP};
use prospector_obs::trace::Recorder;
use prospector_obs::{Counter, Gauge, Hist, Json, Stage};

/// Counts every heap allocation so the record loops can prove they make
/// none. Deallocation is uncounted — the contract is "no new memory on
/// the record path".
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every operation; only adds a relaxed
// counter bump on the allocation paths.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn quick_mode() -> bool {
    std::env::var_os("PROSPECTOR_BENCH_QUICK").is_some()
        || std::env::args().any(|a| a == "--quick")
}

fn query_mix(engine: &Prospector) -> Vec<(TyId, TyId)> {
    let api = engine.api();
    problems::table1()
        .iter()
        .map(|p| {
            (
                api.types().resolve(p.tin).expect("table1 tin resolves"),
                api.types().resolve(p.tout).expect("table1 tout resolves"),
            )
        })
        .collect()
}

/// Off/on rounds of the tracing comparison.
const ROUNDS: usize = 7;

/// Mean ns/query over `passes` passes of the mix (first pass warms the
/// distance cache for both arms, so the two measure the same work).
fn measure(engine: &Prospector, queries: &[(TyId, TyId)], passes: usize) -> f64 {
    for &(tin, tout) in queries {
        let _ = engine.query(tin, tout);
    }
    let started = Instant::now();
    for _ in 0..passes {
        for &(tin, tout) in queries {
            let _ = engine.query(tin, tout);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let per_query = started.elapsed().as_nanos() as f64 / (passes * queries.len()) as f64;
    per_query
}

/// One arm of the tracing comparison: ns/query with tracing `on`, and
/// the events it published.
fn arm(engine: &Prospector, queries: &[(TyId, TyId)], passes: usize, on: bool) -> (f64, u64) {
    prospector_obs::trace::set_enabled(on);
    let before = prospector_obs::trace::event_count();
    let ns = measure(engine, queries, passes);
    prospector_obs::trace::set_enabled(false);
    (ns, prospector_obs::trace::event_count() - before)
}

/// The `q`-quantile (nearest rank) of `xs`, sorted in place.
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_precision_loss)]
    let rank = ((xs.len() - 1) as f64 * q).round() as usize;
    xs[rank]
}

/// What the `stage_span` case measured.
struct StageSpanCost {
    process_ns: f64,
    process_allocs: u64,
    query_ns: f64,
    query_allocs_per_span: f64,
}

/// Stage spans with metrics on. The first span runs outside the timed
/// loop. Query spans open in batches of [`QUERY_BATCH`] on one recording
/// query, whose publish is not timed; their allocations are the query's
/// growing event buffer.
fn measure_stage_span(iters: u64) -> StageSpanCost {
    const QUERY_BATCH: u64 = 64;
    prospector_obs::set_enabled(true);
    drop(prospector_obs::stage(Stage::Store));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let started = Instant::now();
    for _ in 0..iters {
        drop(prospector_obs::stage(black_box(Stage::Store)));
    }
    #[allow(clippy::cast_precision_loss)]
    let process_ns = started.elapsed().as_nanos() as f64 / iters as f64;
    let process_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;

    let recorder = Recorder::new();
    recorder.set_enabled(true);
    let batches = (iters / QUERY_BATCH).max(1);
    let (mut query_elapsed, mut query_allocs) = (0u128, 0u64);
    for _ in 0..batches {
        let mut query = recorder.span(recorder.next_id());
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let started = Instant::now();
        for _ in 0..QUERY_BATCH {
            drop(query.stage(black_box(Stage::Search)));
        }
        query_elapsed += started.elapsed().as_nanos();
        query_allocs += ALLOCATIONS.load(Ordering::Relaxed) - before;
        query.finish();
    }
    #[allow(clippy::cast_precision_loss)]
    let (query_ns, query_allocs_per_span) = {
        let spans = (batches * QUERY_BATCH) as f64;
        (query_elapsed as f64 / spans, query_allocs as f64 / spans)
    };

    prospector_obs::set_enabled(false);
    StageSpanCost { process_ns, process_allocs, query_ns, query_allocs_per_span }
}

/// What one metric record costs: ns per record on one thread, ns per
/// record of each of two threads recording the same cell at once, and
/// the allocations both runs made.
struct RecordCost {
    one_thread_ns: f64,
    two_threads_ns: f64,
    allocs: u64,
}

/// Times `iters` calls of `record` on this thread, then on two threads
/// released together by a barrier (their spawns fall outside the
/// counted and timed window).
fn measure_record(iters: u64, record: &(dyn Fn(u64) + Sync)) -> RecordCost {
    record(0);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let started = Instant::now();
    for i in 0..iters {
        record(black_box(i));
    }
    let one_thread = started.elapsed();
    let mut allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let gate = Barrier::new(3);
    let two_threads = std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                gate.wait();
                for i in 0..iters {
                    record(black_box(i));
                }
                gate.wait();
            });
        }
        gate.wait();
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let started = Instant::now();
        gate.wait();
        allocs += ALLOCATIONS.load(Ordering::Relaxed) - before;
        started.elapsed()
    });
    #[allow(clippy::cast_precision_loss)]
    let per = |d: std::time::Duration| d.as_nanos() as f64 / iters as f64;
    RecordCost { one_thread_ns: per(one_thread), two_threads_ns: per(two_threads), allocs }
}

/// `(ns_per_record, allocations)` over `iters` access-log records, each
/// a `/query` answer's record, into a log whose tail is already full.
fn measure_access_log(iters: u64) -> (f64, u64) {
    let log = AccessLog::new();
    log.set_enabled(true);
    let path = std::env::temp_dir()
        .join(format!("prospector_bench_access_log_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    log.set_file(path.to_str().expect("UTF-8 temp path")).expect("log file opens");
    let tenant: Arc<str> = Arc::from("default");
    let record = |i: u64| AccessRecord {
        ts_ms: 1_760_000_000_000 + i,
        trace_id: (1 << 48) | (3 << 32) | i,
        endpoint: "query",
        tenant: Arc::clone(&tenant),
        code: 200,
        bytes: 512 + i % 1_024,
        queue_wait_us: 12,
        handle_us: 9,
        cached: true,
        truncation: "none",
    };
    for i in 0..TAIL_CAP as u64 {
        log.record(record(i));
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let started = Instant::now();
    for i in 0..iters {
        log.record(record(black_box(i)));
    }
    let elapsed = started.elapsed();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let _ = std::fs::remove_file(&path);
    #[allow(clippy::cast_precision_loss)]
    (elapsed.as_nanos() as f64 / iters as f64, allocs)
}

fn main() {
    let quick = quick_mode();
    let passes = if quick { 5 } else { 50 };

    println!("\n=== flight-recorder overhead (Table 1 mix) ===\n");
    let mut engine = build(&BuildOptions::default()).expect("assembles").prospector;
    // Measure the pipeline, not the result cache: repeated identical
    // queries would otherwise be O(1) lookups in both arms.
    engine.cache_results = false;
    let queries = query_mix(&engine);

    let (mut offs, mut ons, mut deltas) = (Vec::new(), Vec::new(), Vec::new());
    let mut recorded = 0;
    for round in 0..ROUNDS {
        let first_on = round % 2 == 1;
        let (a, a_events) = arm(&engine, &queries, passes, first_on);
        let (b, b_events) = arm(&engine, &queries, passes, !first_on);
        let ((off, off_events), (on, on_events)) =
            if first_on { ((b, b_events), (a, a_events)) } else { ((a, a_events), (b, b_events)) };
        assert_eq!(off_events, 0, "disabled tracing must publish no events");
        assert!(on_events > 0, "enabled tracing must publish events");
        recorded += on_events;
        println!("round {round}: off {off:>9.0}  on {on:>9.0}  delta {:>+8.0} ns/query", on - off);
        offs.push(off);
        ons.push(on);
        deltas.push(on - off);
    }
    let off = quantile(&mut offs, 0.5);
    let on = quantile(&mut ons, 0.5);
    let delta = quantile(&mut deltas, 0.5);
    let (q1, q3) = (quantile(&mut deltas, 0.25), quantile(&mut deltas, 0.75));
    let (lo, hi) = (deltas[0], deltas[ROUNDS - 1]);
    println!("tracing off: {off:>12.0} ns/query (median of {ROUNDS} rounds)");
    println!("tracing on:  {on:>12.0} ns/query  ({recorded} events recorded)");
    println!(
        "overhead:    {delta:>12.0} ns/query  ({:+.1}%; median pair difference, quartiles {q1:+.0} / {q3:+.0}, range {lo:+.0} .. {hi:+.0})",
        delta / off * 100.0
    );

    println!("\n=== stage span (metrics on) ===\n");
    let span_iters: u64 = if quick { 200_000 } else { 2_000_000 };
    let cost = measure_stage_span(span_iters);
    println!(
        "process span: {:>10.1} ns/span  ({} allocations)",
        cost.process_ns, cost.process_allocs
    );
    println!(
        "query span:   {:>10.1} ns/span  ({:.3} allocations/span, event buffer growth)",
        cost.query_ns, cost.query_allocs_per_span
    );
    assert_eq!(cost.process_allocs, 0, "a process-level stage span must not allocate");
    let records = [
        ("counter_add", measure_record(span_iters, &|v| prospector_obs::add(Counter::SearchDfsExpansions, v))),
        ("gauge_set", measure_record(span_iters, &|v| prospector_obs::gauge_set(Gauge::GraphNodes, v))),
        (
            "hist_record",
            measure_record(span_iters, &|v| prospector_obs::metrics::histogram(Hist::QueryLatencyNs, 0).record(v)),
        ),
    ];
    for (name, r) in &records {
        println!(
            "{name:<13} {:>10.1} ns/record  (two threads at once: {:.1} ns/record each; {} allocations)",
            r.one_thread_ns, r.two_threads_ns, r.allocs
        );
        assert_eq!(r.allocs, 0, "{name} on a catalog row must not allocate");
    }

    println!("\n=== access-log record (file sink, full tail) ===\n");
    let log_iters: u64 = if quick { 20_000 } else { 200_000 };
    let (log_ns, log_allocs) = measure_access_log(log_iters);
    println!("access log:    {log_ns:>10.1} ns/record  ({log_iters} records, {log_allocs} allocations)");
    assert_eq!(log_allocs, 0, "an access-log record must not allocate once the tail is full");

    let round1 = |x: f64| Json::Num((x * 10.0).round() / 10.0);
    let mut stage_span = vec![
        ("iters".to_owned(), Json::num_u(span_iters)),
        ("process_ns_per_span".to_owned(), round1(cost.process_ns)),
        ("process_allocations".to_owned(), Json::num_u(cost.process_allocs)),
        ("query_ns_per_span".to_owned(), round1(cost.query_ns)),
        (
            "query_allocations_per_span".to_owned(),
            Json::Num((cost.query_allocs_per_span * 1000.0).round() / 1000.0),
        ),
    ];
    for (name, r) in &records {
        stage_span.push((format!("{name}_ns"), round1(r.one_thread_ns)));
        stage_span.push((format!("{name}_2threads_ns"), round1(r.two_threads_ns)));
        stage_span.push((format!("{name}_allocations"), Json::num_u(r.allocs)));
    }
    let doc = Json::obj(vec![
        ("stage_span", Json::Obj(stage_span)),
        (
            "access_log_record",
            Json::obj(vec![
                ("iters", Json::num_u(log_iters)),
                ("ns_per_record", round1(log_ns)),
                ("allocations", Json::num_u(log_allocs)),
            ]),
        ),
        (
            "trace_overhead",
            Json::obj(vec![
                ("rounds", Json::num_u(ROUNDS as u64)),
                ("passes_per_arm", Json::num_u(passes as u64)),
                ("off_ns_per_query", Json::Num(off.round())),
                ("on_ns_per_query", Json::Num(on.round())),
                ("delta_ns_per_query", Json::Num(delta.round())),
                ("delta_q1_ns", Json::Num(q1.round())),
                ("delta_q3_ns", Json::Num(q3.round())),
                ("delta_min_ns", Json::Num(lo.round())),
                ("delta_max_ns", Json::Num(hi.round())),
            ]),
        ),
        ("quick", Json::Bool(quick)),
    ]);
    let out = std::env::var("BENCH_OBS_WINDOW_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs_window.json").to_owned()
    });
    std::fs::write(&out, doc.to_text()).expect("baseline file writes");
    println!("wrote {out}");

    if quick {
        println!("\n(quick mode: {passes} passes per arm; timings are smoke-level only)");
    }
}
