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
//! Run with `cargo bench -p bench --bench query_cache`; set
//! `PROSPECTOR_BENCH_QUICK=1` (or pass `--quick`) for a CI-sized smoke
//! run.

use std::time::Instant;

use jungloid_typesys::TyId;
use prospector_core::Prospector;
use prospector_corpora::{build, problems, BuildOptions};
use prospector_obs::Json;

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
        ("quick", Json::Bool(quick)),
    ]);
    let out = std::env::var("BENCH_RESULT_CACHE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_result_cache.json").to_owned()
    });
    std::fs::write(&out, doc.to_text()).expect("baseline file writes");
    println!("wrote {out}");
}
