//! Concurrency stress tests for the query engine: many threads hammering
//! the same immutable engine — same-target queries (shared distance
//! field, cache hits), different-target queries (different cache shards),
//! and the batched fan-out — must all agree with the serial path exactly
//! and leave no lock poisoned.

use jungloid_apidef::{Api, ApiLoader};
use jungloid_typesys::TyId;
use prospector_core::Prospector;

/// A diamond-shaped API with enough distinct targets to spread across
/// cache shards and enough path multiplicity to make ranking non-trivial.
fn api() -> Api {
    let mut loader = ApiLoader::with_prelude();
    loader
        .add_source(
            "c.api",
            r"
            package c;
            public class A { B toB(); C toC(); }
            public class B { C toC(); D toD(); E toE(); }
            public class C { D toD(); }
            public class D { E toE(); }
            public class E {}
            public class F extends E {}
            public class Maker {
                static B makeB(A a);
                static F makeF(D d);
            }
            ",
        )
        .unwrap();
    loader.finish().unwrap()
}

fn ty(api: &Api, name: &str) -> TyId {
    api.types().resolve(name).unwrap()
}

/// The comparable fingerprint of a query result: ranked codes in order.
fn codes(engine: &Prospector, tin: TyId, tout: TyId) -> Vec<String> {
    engine
        .query(tin, tout)
        .unwrap()
        .suggestions
        .iter()
        .map(|s| s.code.clone())
        .collect()
}

#[test]
fn eight_threads_same_and_different_queries_match_serial() {
    let api = api();
    let a = ty(&api, "c.A");
    let b = ty(&api, "c.B");
    let c = ty(&api, "c.C");
    let d = ty(&api, "c.D");
    let e = ty(&api, "c.E");
    let engine = Prospector::new(api);

    // Serial reference answers, computed up front.
    let queries = [(a, e), (a, d), (b, e), (c, d), (a, c), (b, d)];
    let expected: Vec<Vec<String>> =
        queries.iter().map(|&(tin, tout)| codes(&engine, tin, tout)).collect();

    std::thread::scope(|scope| {
        for t in 0..8usize {
            let engine = &engine;
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..20 {
                    // Half the threads hammer one shared query (same
                    // target -> same shard, cache-hit heavy); the rest
                    // rotate through different targets.
                    let qi = if t % 2 == 0 { 0 } else { (t + round) % queries.len() };
                    let (tin, tout) = queries[qi];
                    let got = codes(engine, tin, tout);
                    assert_eq!(got, expected[qi], "thread {t} round {round} diverged");
                }
            });
        }
    });

    // No lock was poisoned: the engine still answers afterwards.
    for (i, &(tin, tout)) in queries.iter().enumerate() {
        assert_eq!(codes(&engine, tin, tout), expected[i]);
    }
}

#[test]
fn query_batch_is_byte_identical_to_serial_loop() {
    let api = api();
    let a = ty(&api, "c.A");
    let b = ty(&api, "c.B");
    let c = ty(&api, "c.C");
    let d = ty(&api, "c.D");
    let e = ty(&api, "c.E");
    let engine = Prospector::new(api);

    // Repeat pairs so the batch exceeds any worker count and reuses
    // cached fields mid-flight.
    let mut queries = Vec::new();
    for _ in 0..5 {
        queries.extend_from_slice(&[(a, e), (b, d), (c, d), (a, b), (d, e), (a, d)]);
    }

    let serial: Vec<Vec<String>> =
        queries.iter().map(|&(tin, tout)| codes(&engine, tin, tout)).collect();

    for threads in [1, 2, 8] {
        let batch = engine.query_batch_threads(&queries, threads);
        assert_eq!(batch.len(), queries.len());
        for (i, entry) in batch.iter().enumerate() {
            assert_eq!((entry.tin, entry.tout), queries[i], "slot order preserved");
            let result = entry.result.as_ref().unwrap();
            let got: Vec<String> = result.suggestions.iter().map(|s| s.code.clone()).collect();
            assert_eq!(got, serial[i], "threads={threads} slot={i}");
        }
    }
}

/// Eight threads racing on one cold key of a fresh engine: each either
/// runs the pipeline (a miss) or is served the entry a finished run
/// inserted (a hit), racing misses insert equal answers, and the cache
/// ends up with that one key.
///
/// The fixture is a chain of binary diamonds (`D0 → … → D13`, two
/// methods per hop), so a run enumerates 2^13 paths and lasts
/// milliseconds: long enough for several threads to miss at once.
#[test]
fn eight_threads_racing_on_one_cold_key_get_one_answer() {
    const DEPTH: usize = 13;
    let mut src = String::from("package w;\n");
    for i in 0..DEPTH {
        let next = i + 1;
        src.push_str(&format!("public class D{i} {{ D{next} a(); D{next} b(); }}\n"));
    }
    src.push_str(&format!("public class D{DEPTH} {{}}\n"));
    let mut loader = ApiLoader::with_prelude();
    loader.add_source("w.api", &src).unwrap();
    let api = loader.finish().unwrap();
    let first = ty(&api, "w.D0");
    let last = ty(&api, &format!("w.D{DEPTH}"));
    let engine = Prospector::new(api);
    assert_eq!(engine.status().result_cache_entries, 0);

    let barrier = std::sync::Barrier::new(8);
    let results: Vec<prospector_core::QueryResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (engine, barrier) = (&engine, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    engine.query(first, last).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let reference: Vec<&str> = results[0].suggestions.iter().map(|s| s.code.as_str()).collect();
    assert_eq!(reference.len(), 1 << DEPTH, "all diamond combinations enumerated");
    for r in &results {
        assert_eq!(r.stats.result_cache_hits + r.stats.result_cache_misses, 1);
        let got: Vec<&str> = r.suggestions.iter().map(|s| s.code.as_str()).collect();
        assert_eq!(got, reference, "all threads receive identical suggestion codes");
        assert_eq!(r.truncation, results[0].truncation);
        assert_eq!(r.shortest, results[0].shortest);
    }
    assert_eq!(engine.status().result_cache_entries, 1, "one key, one entry");
}

#[test]
fn query_batch_propagates_per_query_errors() {
    let api = api();
    let a = ty(&api, "c.A");
    let e = ty(&api, "c.E");
    let void = api.types().void();
    let engine = Prospector::new(api);

    // void as *output* is invalid; the slot fails, the batch survives.
    let batch = engine.query_batch_threads(&[(a, e), (a, void), (a, e)], 2);
    assert!(batch[0].result.is_ok());
    assert!(batch[1].result.is_err());
    assert!(batch[2].result.is_ok());
}
