//! Result-cache effectiveness — per-query latency for the Table 1 mix
//! answered **cold** (a freshly built engine: distance fields, DFS
//! enumeration, synthesis, rank keys, and dedup all paid on first
//! contact) versus **warm** (every query answered from the result
//! cache's sharded LRU as an `Arc<QueryResult>` hit).
//!
//! The contract this guards: a warm result-cache hit must be at least an
//! order of magnitude faster than a cold query, and the hit must return
//! byte-identical suggestions (codes, order, truncation) to a
//! cache-disabled engine — the cache is a pure memoization, never an
//! approximation.
//!
//! Besides the human-readable report, the run writes a machine-readable
//! baseline to `BENCH_result_cache.json` at the repository root
//! (override the path with `BENCH_RESULT_CACHE_OUT`), recording cold,
//! repeat-pipeline, and warm ns/query, the cold/warm speedup, hit/miss
//! counters, and the identity check.
//!
//! The `dist_field` row prices one entry of the distance cache on a
//! seeded `synth` jungle (10^5 bulk types; 10^4 in quick mode): the heap
//! bytes of a complete field, its build time and one assist-shaped
//! multi-source walk over it (medians over random targets), the largest
//! finite distance seen, and the host CPU count. To compare two builds,
//! run the bench on the baseline build with `BENCH_RESULT_CACHE_OUT=<file>`,
//! then on the candidate with `BENCH_RESULT_CACHE_BASELINE=<file>`: the
//! output then carries the baseline's row as `dist_field_baseline`.
//!
//! Run with `cargo bench -p bench --bench query_cache`; set
//! `PROSPECTOR_BENCH_QUICK=1` (or pass `--quick`) for a CI-sized smoke
//! run.

use std::hint::black_box;
use std::time::Instant;

use jungloid_typesys::TyId;
use prospector_core::search::enumerate_with;
use prospector_core::{DistanceField, Prospector, SearchConfig, SearchScratch};
use prospector_corpora::synth::{grow_synth, SynthSpec};
use prospector_corpora::{build, problems, BuildOptions};
use prospector_obs::{Json, SmallRng};

fn quick_mode() -> bool {
    std::env::var_os("PROSPECTOR_BENCH_QUICK").is_some()
        || std::env::args().any(|a| a == "--quick")
}

/// The paper-scale fixture: the evaluation corpus plus the procedural
/// distractor jungle, so cold queries pay a realistic distance-field
/// and enumeration cost (the small stub corpus alone answers queries in
/// tens of microseconds, which understates what a cache hit saves).
fn jungle_options() -> BuildOptions {
    BuildOptions {
        jungle: Some(prospector_corpora::jungle::JungleSpec::default()),
        ..BuildOptions::default()
    }
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

/// Ranked codes + truncation per query — the comparable fingerprint.
fn fingerprint(engine: &Prospector, queries: &[(TyId, TyId)]) -> Vec<(Vec<String>, String)> {
    queries
        .iter()
        .map(|&(tin, tout)| {
            let r = engine.query(tin, tout).expect("table1 queries succeed");
            (
                r.suggestions.iter().map(|s| s.code.clone()).collect(),
                r.truncation.label().to_owned(),
            )
        })
        .collect()
}

/// Mean ns/query over `rounds` passes of the mix.
fn measure(engine: &Prospector, queries: &[(TyId, TyId)], rounds: usize) -> f64 {
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

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The `dist_field` row: one complete distance field per random bulk
/// target of the seed-3 jungle, each walked from four random bulk types
/// plus `void`, as `assist` walks a scope.
fn dist_field_row(quick: bool) -> Json {
    let types = if quick { 10_000 } else { 100_000 };
    let targets = if quick { 16 } else { 40 };
    let walks = 5;
    let mut api = jungloid_apidef::ApiLoader::with_prelude().finish().expect("prelude loads");
    grow_synth(&mut api, &SynthSpec { seed: 3, types, ..SynthSpec::default() });
    let engine = Prospector::new(api);
    let (api, graph) = (engine.api(), engine.graph());
    let mut rng = SmallRng::seed_from_u64(3);
    let mut bulk = || {
        let name = format!("Syn{}", rng.gen_range(0..types));
        api.types().resolve(&name).expect("bulk class resolves")
    };
    let mut scratch = SearchScratch::new();
    let (mut bytes, mut build_us, mut walk_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut farthest = 0;
    for _ in 0..targets {
        let tout = bulk();
        let started = Instant::now();
        let field = DistanceField::towards(graph, tout);
        build_us.push(started.elapsed().as_secs_f64() * 1e6);
        #[allow(clippy::cast_precision_loss)]
        bytes.push(field.heap_bytes() as f64);
        let far = field.reached().map(|v| field.from(graph, graph.node_at(v as usize))).max();
        farthest = farthest.max(far.unwrap_or(0));
        let mut sources: Vec<TyId> = (0..4).map(|_| bulk()).collect();
        sources.push(api.types().void());
        for _ in 0..walks {
            let started = Instant::now();
            let outcome = enumerate_with(
                graph,
                &sources,
                tout,
                &field,
                &SearchConfig::default(),
                &mut scratch,
            );
            walk_us.push(started.elapsed().as_secs_f64() * 1e6);
            black_box(outcome);
        }
    }
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let round1 = |x: f64| (x * 10.0).round() / 10.0;
    let row = Json::obj(vec![
        ("types", Json::num_u(types as u64)),
        ("nodes", Json::num_u(graph.node_count() as u64)),
        ("targets", Json::num_u(targets as u64)),
        ("field_bytes", Json::num_u(median(bytes) as u64)),
        ("build_us", Json::Num(round1(median(build_us)))),
        ("walk_us", Json::Num(round1(median(walk_us)))),
        ("max_distance", Json::num_u(u64::from(farthest))),
        ("cpus", Json::num_u(cpus as u64)),
    ]);
    println!("dist_field ({types} types): {}", row.to_text());
    row
}

fn main() {
    let quick = quick_mode();
    let warm_rounds = if quick { 10 } else { 100 };
    let cold_rounds = if quick { 1 } else { 3 };

    println!("\n=== result cache: cold queries vs warm hits (Table 1 mix) ===\n");

    // Reference fingerprint from a cache-disabled engine: what the raw
    // pipeline answers, byte for byte.
    let mut raw = build(&jungle_options()).expect("assembles").prospector;
    raw.cache_results = false;
    let raw_queries = query_mix(&raw);
    let reference = fingerprint(&raw, &raw_queries);
    // The repeat-pipeline cost (distance cache warm, result cache off) —
    // what every repeated query paid before the result cache existed.
    let repeat_pipeline = measure(&raw, &raw_queries, warm_rounds);

    // Cold arm: a freshly built engine per round; the first pass over
    // the mix pays distance-field construction and the full pipeline —
    // the latency of a query nobody has asked before.
    let mut cold = f64::INFINITY;
    let mut engine = raw; // placeholder; replaced by the last cold engine
    let mut queries = raw_queries;
    for _ in 0..cold_rounds {
        let fresh = build(&jungle_options()).expect("assembles").prospector;
        let mix = query_mix(&fresh);
        let t = Instant::now();
        for &(tin, tout) in &mix {
            let _ = fresh.query(tin, tout).expect("table1 queries succeed");
        }
        #[allow(clippy::cast_precision_loss)]
        let per_query = t.elapsed().as_nanos() as f64 / mix.len() as f64;
        cold = cold.min(per_query);
        engine = fresh;
        queries = mix;
    }

    // Warm arm: the cold pass primed the result cache, so every query
    // below is a hit.
    let warm = measure(&engine, &queries, warm_rounds);

    // Byte-identity: warm hits return exactly what the pipeline would.
    let cached = fingerprint(&engine, &queries);
    let identical = cached == reference;
    assert!(identical, "cached results diverged from the raw pipeline");

    let snap = prospector_obs::snapshot();
    let hits = snap.counter(prospector_obs::Counter::EngineResultCacheHits);
    let misses = snap.counter(prospector_obs::Counter::EngineResultCacheMisses);

    let speedup = cold / warm;
    println!("cold (fresh engine):   {cold:>12.0} ns/query");
    println!("repeat pipeline:       {repeat_pipeline:>12.0} ns/query  (dist cache warm, result cache off)");
    println!("warm (cache hit):      {warm:>12.0} ns/query");
    println!("cold/warm speedup:     {speedup:>12.1}x  (hits {hits}, misses {misses})");
    println!("identical:             {identical}");
    if quick {
        println!("\n(quick mode: {warm_rounds} warm rounds; timings are smoke-level only)");
    }
    assert!(
        speedup >= 10.0,
        "a warm result-cache hit must be >= 10x faster than a cold query ({speedup:.1}x)"
    );

    let doc = Json::obj(vec![
        ("bench", Json::Str("query_cache".to_owned())),
        ("queries", Json::num_u(queries.len() as u64)),
        ("warm_rounds", Json::num_u(warm_rounds as u64)),
        ("cold_rounds", Json::num_u(cold_rounds as u64)),
        ("cold_ns_per_query", Json::num_u(cold.round() as u64)),
        ("repeat_pipeline_ns_per_query", Json::num_u(repeat_pipeline.round() as u64)),
        ("warm_ns_per_query", Json::num_u(warm.round() as u64)),
        ("speedup", Json::Num((speedup * 10.0).round() / 10.0)),
        ("hits", Json::num_u(hits)),
        ("misses", Json::num_u(misses)),
        ("identical", Json::Bool(identical)),
        ("dist_field", dist_field_row(quick)),
        ("quick", Json::Bool(quick)),
    ]);
    let doc = match std::env::var("BENCH_RESULT_CACHE_BASELINE") {
        Ok(path) => {
            let text = std::fs::read_to_string(&path).expect("baseline file reads");
            let baseline = Json::parse(&text).expect("baseline is JSON");
            let row = baseline.get("dist_field").cloned().expect("baseline has a dist_field row");
            let Json::Obj(mut pairs) = doc else { unreachable!("built as an object") };
            pairs.push(("dist_field_baseline".to_owned(), row));
            Json::Obj(pairs)
        }
        Err(_) => doc,
    };
    let out = std::env::var("BENCH_RESULT_CACHE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_result_cache.json").to_owned()
    });
    std::fs::write(&out, doc.to_text()).expect("baseline file writes");
    println!("wrote {out}");
}
