//! Workload-analytics overhead — the cost of graph heat accounting, the
//! query sketches, and the cooperative profiler, measured two ways:
//!
//! * **Allocation pins.** The hot paths that run inside queries or at
//!   ~100 Hz in the sampler thread — sketch `record` at capacity, the
//!   heat table merge ([`heat::merge_raw`] / [`heat::record_field`]),
//!   and profiler `push`/`pop`/[`profile::sample_all`] — must make zero
//!   heap allocations after warm-up. A counting global allocator asserts
//!   exactly that.
//! * **End-to-end throughput.** The Table 1 mix replayed with the result
//!   cache off (so every query runs the full pipeline), heat accounting
//!   disabled versus enabled. The acceptance bar is a < 5% qps
//!   regression; the measured delta lands in `BENCH_heat.json` at the
//!   repository root (override with `BENCH_HEAT_OUT`) so CI and future
//!   sessions can diff it, but timing is asserted only loosely here —
//!   shared runners are too noisy for a hard gate.
//!
//! Run with `cargo bench -p bench --bench heat_overhead`; set
//! `PROSPECTOR_BENCH_QUICK=1` (or pass `--quick`) for a CI-sized smoke
//! run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use jungloid_typesys::TyId;
use prospector_core::heat;
use prospector_core::Prospector;
use prospector_corpora::{build, problems, BuildOptions};
use prospector_obs::sketch::{CountMinSketch, SpaceSaving};
use prospector_obs::{profile, Json, Stage};

/// Counts every heap allocation so the pinned loops can prove they make
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

fn allocs() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Sketch record paths at capacity: count-min `record` (pure arithmetic
/// over preallocated rows) and space-saving `record` against a full
/// tracker (linear scan + in-place evict). Returns
/// `(cm_ns, ss_ns, allocations)`.
fn measure_sketch(iters: u64) -> (f64, f64, u64) {
    let mut cm = CountMinSketch::new(1024, 4, 0x5eed);
    let mut ss = SpaceSaving::new(64);
    // Fill the tracker so the timed loop exercises the evict path too.
    for key in 0..64u64 {
        ss.record(key, 1);
    }
    let before = allocs();
    let started = Instant::now();
    for i in 0..iters {
        cm.record(black_box(i % 257), 1);
    }
    #[allow(clippy::cast_precision_loss)]
    let cm_ns = started.elapsed().as_nanos() as f64 / iters as f64;
    let started = Instant::now();
    for i in 0..iters {
        // Mix of resident keys (i % 64) and strangers forcing eviction.
        ss.record(black_box(i % 97), 1);
    }
    #[allow(clippy::cast_precision_loss)]
    let ss_ns = started.elapsed().as_nanos() as f64 / iters as f64;
    let spent = allocs() - before;
    black_box(cm.estimate(0));
    black_box(ss.len());
    (cm_ns, ss_ns, spent)
}

/// The finite slots of a dense distance array: the reached set a complete
/// field reports.
fn reached(dist: &[u32]) -> impl Iterator<Item = u32> + '_ {
    dist.iter().enumerate().filter(|&(_, &d)| d != u32::MAX).map(|(i, _)| i as u32)
}

/// The per-query heat merge: `merge_raw` over a touched set sized like a
/// real DFS (a few hundred nodes/edges out of thousands), plus
/// `record_field` over a complete field's dense distance array. The
/// table is seeded once outside the timed loop so the loop measures
/// steady-state merging into already-sized vectors. Returns `(merge_ns, field_ns, allocations)`.
fn measure_heat_merge(iters: u64) -> (f64, f64, u64) {
    const NODES: usize = 4096;
    const EDGES: usize = 16384;
    let touched_nodes: Vec<u32> = (0..256u32).map(|i| i * 16).collect();
    let node_heat: Vec<u32> = {
        let mut v = vec![0u32; NODES];
        for &i in &touched_nodes {
            v[i as usize] = 3;
        }
        v
    };
    let touched_edges: Vec<u32> = (0..512u32).map(|i| i * 32).collect();
    let edge_heat: Vec<u32> = {
        let mut v = vec![0u32; EDGES];
        for &i in &touched_edges {
            v[i as usize] = 2;
        }
        v
    };
    let dist: Vec<u32> = (0..NODES as u32)
        .map(|i| if i % 3 == 0 { i } else { u32::MAX })
        .collect();
    // First merge sizes the global table; not part of the pin.
    heat::merge_raw(1, NODES, EDGES, &touched_nodes, &node_heat, &touched_edges, &edge_heat);
    heat::record_field(1, NODES, EDGES, reached(&dist));
    let before = allocs();
    let started = Instant::now();
    for _ in 0..iters {
        heat::merge_raw(
            1,
            NODES,
            EDGES,
            black_box(&touched_nodes),
            black_box(&node_heat),
            black_box(&touched_edges),
            black_box(&edge_heat),
        );
    }
    #[allow(clippy::cast_precision_loss)]
    let merge_ns = started.elapsed().as_nanos() as f64 / iters as f64;
    let started = Instant::now();
    for _ in 0..iters {
        heat::record_field(1, NODES, EDGES, reached(black_box(&dist)));
    }
    #[allow(clippy::cast_precision_loss)]
    let field_ns = started.elapsed().as_nanos() as f64 / iters as f64;
    let spent = allocs() - before;
    heat::reset();
    (merge_ns, field_ns, spent)
}

/// Profiler paths: span `push`/`pop` pairs on the worker side and
/// `sample_all` on the sampler side. The first push registers this
/// thread's slot and the first samples claim fold-table entries — both
/// outside the timed region. Returns
/// `(push_pop_ns, sample_ns, allocations)`.
fn measure_profile(iters: u64) -> (f64, f64, u64) {
    profile::set_enabled(true);
    // Warm-up: register the thread slot and claim the fold-table slots
    // the timed loop will hit.
    if profile::push(Stage::Batch) {
        profile::sample_all();
        if profile::push(Stage::Search) {
            profile::sample_all();
            profile::pop();
        }
        profile::pop();
    }
    profile::sample_all();
    let before = allocs();
    let started = Instant::now();
    for _ in 0..iters {
        let owed = profile::push(black_box(Stage::Batch));
        let inner = profile::push(black_box(Stage::Search));
        if inner {
            profile::pop();
        }
        if owed {
            profile::pop();
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let push_pop_ns = started.elapsed().as_nanos() as f64 / iters as f64;
    let samples = iters / 10;
    let started = Instant::now();
    for _ in 0..samples {
        profile::sample_all();
    }
    #[allow(clippy::cast_precision_loss)]
    let sample_ns = started.elapsed().as_nanos() as f64 / samples as f64;
    let spent = allocs() - before;
    profile::set_enabled(false);
    black_box(profile::samples());
    (push_pop_ns, sample_ns, spent)
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

/// Mean ns/query over `rounds` passes of the mix (first pass warms the
/// distance cache for both arms, so the two measure the same work).
fn measure_queries(engine: &Prospector, queries: &[(TyId, TyId)], rounds: usize) -> f64 {
    for &(tin, tout) in queries {
        let _ = engine.query(tin, tout);
    }
    let started = Instant::now();
    for _ in 0..rounds {
        for &(tin, tout) in queries {
            let _ = engine.query(tin, tout);
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let per_query = started.elapsed().as_nanos() as f64 / (rounds * queries.len()) as f64;
    per_query
}

fn main() {
    let quick = quick_mode();
    let iters: u64 = if quick { 100_000 } else { 2_000_000 };
    let merge_iters: u64 = if quick { 5_000 } else { 100_000 };
    let rounds = if quick { 5 } else { 50 };

    println!("\n=== sketch record (at capacity) ===\n");
    let (cm_ns, ss_ns, sketch_allocs) = measure_sketch(iters);
    println!("count-min record:     {cm_ns:>8.1} ns");
    println!("space-saving record:  {ss_ns:>8.1} ns  ({sketch_allocs} allocations)");
    assert_eq!(sketch_allocs, 0, "sketch record paths must not allocate");

    println!("\n=== heat table merge (per query / per field build) ===\n");
    let (merge_ns, field_ns, merge_allocs) = measure_heat_merge(merge_iters);
    println!("merge_raw:     {merge_ns:>10.0} ns  (256 nodes + 512 edges touched)");
    println!("record_field:  {field_ns:>10.0} ns  (4096-node distance array, {merge_allocs} allocations)");
    assert_eq!(merge_allocs, 0, "steady-state heat merges must not allocate");

    println!("\n=== profiler (worker push/pop, sampler sweep) ===\n");
    let (push_pop_ns, sample_ns, prof_allocs) = measure_profile(iters);
    println!("push+pop x2:   {push_pop_ns:>10.1} ns  (two-frame stack)");
    println!("sample_all:    {sample_ns:>10.1} ns  ({prof_allocs} allocations)");
    assert_eq!(
        prof_allocs, 0,
        "profiler record and sample paths must not allocate after warm-up"
    );

    println!("\n=== heat accounting overhead (Table 1 mix) ===\n");
    let mut engine = build(&BuildOptions::default()).expect("assembles").prospector;
    // Measure the pipeline, not the result cache: repeated identical
    // queries would otherwise be O(1) lookups in both arms.
    engine.cache_results = false;
    let queries = query_mix(&engine);

    heat::set_enabled(false);
    heat::reset();
    let off = measure_queries(&engine, &queries, rounds);

    heat::set_enabled(true);
    let on = measure_queries(&engine, &queries, rounds);
    let snap = engine.heat_snapshot(5);
    heat::set_enabled(false);
    heat::reset();
    assert!(snap.queries > 0, "enabled heat must merge query tallies");

    let delta = on - off;
    let pct = delta / off * 100.0;
    println!("heat off: {off:>12.0} ns/query");
    println!("heat on:  {on:>12.0} ns/query  ({} queries merged)", snap.queries);
    println!("overhead: {delta:>12.0} ns/query  ({pct:+.1}%)");

    let doc = Json::obj(vec![
        (
            "sketch_record",
            Json::obj(vec![
                ("iters", Json::num_u(iters)),
                ("count_min_ns", Json::Num((cm_ns * 10.0).round() / 10.0)),
                ("space_saving_ns", Json::Num((ss_ns * 10.0).round() / 10.0)),
                ("allocations", Json::num_u(sketch_allocs)),
            ]),
        ),
        (
            "heat_merge",
            Json::obj(vec![
                ("iters", Json::num_u(merge_iters)),
                ("merge_raw_ns", Json::Num(merge_ns.round())),
                ("record_field_ns", Json::Num(field_ns.round())),
                ("allocations", Json::num_u(merge_allocs)),
            ]),
        ),
        (
            "profile",
            Json::obj(vec![
                ("push_pop_ns", Json::Num((push_pop_ns * 10.0).round() / 10.0)),
                ("sample_all_ns", Json::Num((sample_ns * 10.0).round() / 10.0)),
                ("allocations", Json::num_u(prof_allocs)),
            ]),
        ),
        (
            "heat_overhead",
            Json::obj(vec![
                ("off_ns_per_query", Json::Num(off.round())),
                ("on_ns_per_query", Json::Num(on.round())),
                ("delta_ns_per_query", Json::Num(delta.round())),
                ("delta_pct", Json::Num((pct * 10.0).round() / 10.0)),
            ]),
        ),
        ("quick", Json::Bool(quick)),
    ]);
    let out = std::env::var("BENCH_HEAT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_heat.json").to_owned()
    });
    std::fs::write(&out, doc.to_text()).expect("baseline file writes");
    println!("wrote {out}");

    if quick {
        println!("\n(quick mode: timings are smoke-level only)");
    }
}
