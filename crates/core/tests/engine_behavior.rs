//! Behavioral tests of the engine's configuration surface: the search
//! window, result caps, ranking knobs, and cache consistency across graph
//! mutation.

use jungloid_apidef::{Api, ApiLoader, ElemJungloid};
use prospector_core::{Prospector, RankOptions, SearchConfig, TruncationReason};

fn api() -> Api {
    let mut loader = ApiLoader::with_prelude();
    loader
        .add_source(
            "t.api",
            r"
            package t;
            public class A { B toB(); C toC(); }
            public class B { C toC(); D toD(); }
            public class C { D toD(); }
            public class D {}
            public class DSub extends D {}
            ",
        )
        .unwrap();
    loader.finish().unwrap()
}

#[test]
fn extra_steps_widens_the_result_set() {
    let api = api();
    let a = api.types().resolve("t.A").unwrap();
    let d = api.types().resolve("t.D").unwrap();
    let mut engine = Prospector::new(api);

    engine.search = SearchConfig { extra_steps: 0, ..SearchConfig::default() };
    let tight = engine.query(a, d).unwrap().suggestions.len();
    engine.search = SearchConfig { extra_steps: 1, ..SearchConfig::default() };
    let paper = engine.query(a, d).unwrap().suggestions.len();
    engine.search = SearchConfig { extra_steps: 2, ..SearchConfig::default() };
    let wide = engine.query(a, d).unwrap().suggestions.len();
    assert!(tight <= paper && paper <= wide);
    assert!(tight < wide, "window must matter: {tight} vs {wide}");
}

#[test]
fn max_results_truncates_and_reports() {
    let api = api();
    let a = api.types().resolve("t.A").unwrap();
    let d = api.types().resolve("t.D").unwrap();
    let mut engine = Prospector::new(api);
    engine.search = SearchConfig { max_results: 1, ..SearchConfig::default() };
    let result = engine.query(a, d).unwrap();
    assert_eq!(result.truncation, TruncationReason::PathCap);
    assert!(result.truncation.truncated());
    assert_eq!(result.suggestions.len(), 1);

    engine.search = SearchConfig { max_expansions: 1, ..SearchConfig::default() };
    let result = engine.query(a, d).unwrap();
    assert_eq!(result.truncation, TruncationReason::ExpansionCap);
}

#[test]
fn distance_cache_invalidated_by_new_examples() {
    let api = api();
    let b = api.types().resolve("t.B").unwrap();
    let d = api.types().resolve("t.D").unwrap();
    let dsub = api.types().resolve("DSub").unwrap();
    let to_d = api.lookup_instance_method(b, "toD", 0)[0];
    let mut engine = Prospector::new(api);

    // Warm the cache on the (B, DSub) target.
    assert!(engine.query(b, dsub).unwrap().suggestions.is_empty());

    // Splice an example; the cached distance field must be rebuilt, or the
    // new path would be invisible.
    engine
        .add_examples(
            &[vec![
                ElemJungloid::Call {
                    method: to_d,
                    input: Some(jungloid_apidef::InputSlot::Receiver),
                },
                ElemJungloid::Downcast { from: d, to: dsub },
            ]],
            false,
        )
        .unwrap();
    let after = engine.query(b, dsub).unwrap();
    assert_eq!(after.suggestions.len(), 1);
    assert!(after.suggestions[0].code.contains("(DSub)"));
}

/// A splice empties both caches: an answer cached before it is not
/// served afterwards, and the fresh answer is cached in turn.
#[test]
fn splice_clears_both_caches() {
    let api = api();
    let b = api.types().resolve("t.B").unwrap();
    let d = api.types().resolve("t.D").unwrap();
    let dsub = api.types().resolve("DSub").unwrap();
    let to_d = api.lookup_instance_method(b, "toD", 0)[0];
    let mut engine = Prospector::new(api);

    // Prime the result cache: empty answer, then a verified hit on it.
    assert!(engine.query(b, dsub).unwrap().suggestions.is_empty());
    let hit = engine.query(b, dsub).unwrap();
    assert_eq!(hit.stats.result_cache_hits, 1, "identical repeat must be cached");
    assert!(hit.suggestions.is_empty());
    assert_eq!(engine.status().result_cache_entries, 1);
    assert_eq!(engine.status().dist_cache_entries, 1);

    let epoch_before = engine.graph().epoch();
    engine
        .add_examples(
            &[vec![
                ElemJungloid::Call {
                    method: to_d,
                    input: Some(jungloid_apidef::InputSlot::Receiver),
                },
                ElemJungloid::Downcast { from: d, to: dsub },
            ]],
            false,
        )
        .unwrap();
    assert_ne!(engine.graph().epoch(), epoch_before, "splice advances the epoch");
    assert_eq!(engine.status().result_cache_entries, 0, "splice empties the result cache");
    assert_eq!(engine.status().dist_cache_entries, 0, "splice empties the distance cache");

    // Same key: the stale empty answer must not come back.
    let after = engine.query(b, dsub).unwrap();
    assert_eq!(after.stats.result_cache_misses, 1, "stale entry must not be served");
    assert_eq!(after.suggestions.len(), 1);
    assert!(after.suggestions[0].code.contains("(DSub)"));

    // And the fresh answer is cached in turn.
    let rehit = engine.query(b, dsub).unwrap();
    assert_eq!(rehit.stats.result_cache_hits, 1);
    assert_eq!(rehit.suggestions[0].code, after.suggestions[0].code);
}

#[test]
fn ranking_knobs_change_order_not_set() {
    let api = api();
    let a = api.types().resolve("t.A").unwrap();
    let d = api.types().resolve("t.D").unwrap();
    let mut engine = Prospector::new(api);
    let full: Vec<String> =
        engine.query(a, d).unwrap().suggestions.iter().map(|s| s.code.clone()).collect();
    engine.ranking = RankOptions {
        free_ref_cost: 0,
        free_prim_cost: 0,
        use_crossings: false,
        use_generality: false,
    };
    let bare: Vec<String> =
        engine.query(a, d).unwrap().suggestions.iter().map(|s| s.code.clone()).collect();
    let mut full_sorted = full.clone();
    let mut bare_sorted = bare.clone();
    full_sorted.sort();
    bare_sorted.sort();
    assert_eq!(full_sorted, bare_sorted, "ranking must not add/remove candidates");
}

#[test]
fn assist_prefers_named_variables_and_void_sources_coexist() {
    let mut loader = ApiLoader::with_prelude();
    loader
        .add_source(
            "v.api",
            r"
            package v;
            public class Target {}
            public class Maker { Target make(); static Maker instance(); }
            ",
        )
        .unwrap();
    let api = loader.finish().unwrap();
    let maker = api.types().resolve("Maker").unwrap();
    let target = api.types().resolve("Target").unwrap();
    let engine = Prospector::new(api);
    let result = engine.assist(&[("m", maker)], target).unwrap();
    // Both the variable route and the void route are present.
    assert!(result.suggestions.iter().any(|s| s.code == "m.make()"));
    assert!(result
        .suggestions
        .iter()
        .any(|s| s.code == "Maker.instance().make()" && s.input_var.is_none()));
    // The variable route ranks first (shorter).
    assert_eq!(result.suggestions[0].code, "m.make()");
    assert_eq!(result.suggestions[0].input_var.as_deref(), Some("m"));
}

#[test]
fn duplicate_visible_variables_take_first_name() {
    let api = api();
    let a = api.types().resolve("t.A").unwrap();
    let d = api.types().resolve("t.D").unwrap();
    let engine = Prospector::new(api);
    let result = engine.assist(&[("first", a), ("second", a)], d).unwrap();
    for s in result.suggestions.iter() {
        if s.jungloid.source == a {
            assert_eq!(s.input_var.as_deref(), Some("first"));
        }
    }
}

/// A splice batch with an ill-typed example changes nothing: not the
/// epoch, the mined nodes or the examples, and no cached distance field
/// goes stale, so the engine answers as a fresh one on the same graph.
#[test]
fn failed_splice_batch_leaves_the_engine_as_it_was() {
    let api = api();
    let a = api.types().resolve("t.A").unwrap();
    let b = api.types().resolve("t.B").unwrap();
    let d = api.types().resolve("t.D").unwrap();
    let dsub = api.types().resolve("DSub").unwrap();
    let to_d = api.lookup_instance_method(b, "toD", 0)[0];
    let call = ElemJungloid::Call { method: to_d, input: Some(jungloid_apidef::InputSlot::Receiver) };
    let good = vec![call, ElemJungloid::Downcast { from: d, to: dsub }];
    let ill_typed = vec![call, ElemJungloid::Downcast { from: dsub, to: d }];
    let mut engine = Prospector::new(api);

    // Warm the distance cache on both targets.
    let codes = |r: prospector_core::QueryResult| -> Vec<String> {
        r.suggestions.iter().map(|s| s.code.clone()).collect()
    };
    let assist = |e: &Prospector| codes(e.assist(&[("a", a)], d).unwrap());
    let query = |e: &Prospector| codes(e.query(b, dsub).unwrap());
    assist(&engine);
    assert!(query(&engine).is_empty());

    let epoch = engine.graph().epoch();
    let mined = engine.graph().mined_node_count();
    let examples = engine.graph().examples().to_vec();
    assert!(engine.add_examples(&[good, ill_typed], false).is_err());
    assert_eq!(engine.graph().epoch(), epoch);
    assert_eq!(engine.graph().mined_node_count(), mined);
    assert_eq!(engine.graph().examples(), examples.as_slice());

    let fresh = Prospector::from_parts(engine.api().clone(), engine.graph().clone());
    assert_eq!(assist(&engine), assist(&fresh));
    assert_eq!(query(&engine), query(&fresh));
}
