//! A query's timeline and the process-global counters tell one story:
//! the engine records each per-query quantity with one
//! `QuerySpan::add`, which charges the query's timeline and adds to the
//! global counter, so every count in a timeline matches the query's
//! `QueryStats` and the counters move by exactly the timelines' sum.
//!
//! One test in its own binary, because the counters are process-global.

use std::collections::BTreeSet;

use jungloid_apidef::{Api, ApiLoader};
use prospector_core::{Prospector, QueryResult};
use prospector_obs::trace::{self, EventKind, TraceEvent, TraceId};
use prospector_obs::{Counter, Stage};

/// Every counter a query's timeline may carry.
const PER_QUERY: [Counter; 11] = [
    Counter::EngineDistCacheHits,
    Counter::EngineDistCacheMisses,
    Counter::SearchBfsRelaxations,
    Counter::SearchDfsExpansions,
    Counter::SearchPathsEnumerated,
    Counter::SearchTruncatedPathCap,
    Counter::SearchTruncatedExpansionCap,
    Counter::SynthSnippets,
    Counter::EngineDedupDrops,
    Counter::RankComparisons,
    Counter::EngineResultCacheHits,
];

/// The paper's running example (§1), with a second way from a
/// compilation unit to an AST so the query ranks more than one answer.
fn eclipse_mini() -> Api {
    let mut loader = ApiLoader::with_prelude();
    loader
        .add_source(
            "jdt.api",
            r"
            package org.eclipse.core.resources;
            public interface IFile { String getName(); }
            package org.eclipse.jdt.core;
            public interface ICompilationUnit { org.eclipse.jdt.core.dom.CompilationUnit reconcile(); }
            public class JavaCore {
                static ICompilationUnit createCompilationUnitFrom(org.eclipse.core.resources.IFile file);
            }
            package org.eclipse.jdt.core.dom;
            public class ASTNode {}
            public class CompilationUnit extends ASTNode {}
            public class AST {
                static CompilationUnit parseCompilationUnit(org.eclipse.jdt.core.ICompilationUnit cu, boolean resolve);
            }
            ",
        )
        .unwrap();
    loader.finish().unwrap()
}

fn timeline(result: &QueryResult) -> Vec<TraceEvent> {
    trace::events_for(TraceId(result.stats.trace_id))
}

fn counts(events: &[TraceEvent]) -> Vec<(Counter, u64)> {
    events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Count(counter) => Some((counter, e.value)),
            _ => None,
        })
        .collect()
}

/// The `QueryStats` field a counter's count must equal, if it has one.
fn stats_field(result: &QueryResult, counter: Counter) -> Option<u64> {
    let stats = &result.stats;
    match counter {
        Counter::EngineDistCacheHits => Some(stats.dist_cache_hits),
        Counter::EngineDistCacheMisses => Some(stats.dist_cache_misses),
        Counter::SearchBfsRelaxations => Some(stats.bfs_relaxations),
        Counter::SearchDfsExpansions => Some(stats.dfs_expansions),
        Counter::EngineResultCacheHits => Some(stats.result_cache_hits),
        _ => None,
    }
}

fn global(counter: Counter) -> u64 {
    prospector_obs::snapshot().counter(counter)
}

#[test]
fn each_per_query_quantity_is_recorded_once() {
    trace::set_enabled(true);
    let api = eclipse_mini();
    let ifile = api.types().resolve("IFile").unwrap();
    let ast = api.types().resolve("ASTNode").unwrap();
    let mut engine = Prospector::new(api);
    engine.cache_results = false;

    let before: Vec<u64> = PER_QUERY.iter().map(|&c| global(c)).collect();
    let cold = engine.query(ifile, ast).unwrap();
    let warm = engine.query(ifile, ast).unwrap();
    let assist = engine.assist(&[("file", ifile)], ast).unwrap();
    assert_eq!((cold.stats.dist_cache_misses, warm.stats.dist_cache_hits), (1, 1));
    assert_eq!(assist.stats.dist_cache_misses, 1, "assist upgrades the bounded field");
    assert!(cold.suggestions.len() > 1, "the fixture ranks more than one answer");

    let timelines: Vec<(&QueryResult, Vec<TraceEvent>)> =
        [&cold, &warm, &assist].into_iter().map(|r| (r, timeline(r))).collect();
    for (result, events) in &timelines {
        let counts = counts(events);
        let mut seen = BTreeSet::new();
        for &(counter, value) in &counts {
            assert!(PER_QUERY.contains(&counter), "{counter:?} is not a per-query counter");
            assert!(seen.insert(counter as usize), "{counter:?} recorded twice: {events:?}");
            if let Some(field) = stats_field(result, counter) {
                assert_eq!(value, field, "{counter:?} disagrees with QueryStats");
            }
        }
        // A stats field that counted something has its count event.
        for counter in PER_QUERY {
            if stats_field(result, counter).is_some_and(|v| v > 0) {
                assert!(seen.contains(&(counter as usize)), "{counter:?} missing: {events:?}");
            }
        }
        let count = |counter| counts.iter().find(|(c, _)| *c == counter).map(|&(_, v)| v);
        assert_eq!(count(Counter::SynthSnippets), count(Counter::SearchPathsEnumerated));
        let kept = count(Counter::SynthSnippets).unwrap() - count(Counter::EngineDedupDrops).unwrap();
        assert_eq!(kept, result.suggestions.len() as u64, "snippets minus drops are the answers");
        assert_eq!(events.last().map(|e| e.kind), Some(EventKind::Query));
    }

    // The cold query's whole timeline: each stage's lap, then what that
    // stage counted, then the envelope.
    let shape: Vec<EventKind> = timelines[0].1.iter().map(|e| e.kind).collect();
    assert_eq!(
        shape,
        [
            EventKind::Lap(Stage::Search),
            EventKind::Count(Counter::EngineDistCacheMisses),
            EventKind::Count(Counter::SearchBfsRelaxations),
            EventKind::Count(Counter::SearchDfsExpansions),
            EventKind::Count(Counter::SearchPathsEnumerated),
            EventKind::Lap(Stage::Synth),
            EventKind::Count(Counter::SynthSnippets),
            EventKind::Count(Counter::EngineDedupDrops),
            EventKind::Lap(Stage::Rank),
            EventKind::Count(Counter::RankComparisons),
            EventKind::Query,
        ]
    );
    // A distance-cache hit built no field, so it charges no relaxations.
    let warm_counts = counts(&timelines[1].1);
    assert!(warm_counts.iter().all(|(c, _)| *c != Counter::SearchBfsRelaxations));

    // Nothing recorded twice, nothing dropped: each global counter moved
    // by the sum of its counts over the three timelines.
    for (&counter, &was) in PER_QUERY.iter().zip(&before) {
        let summed: u64 = timelines
            .iter()
            .flat_map(|(_, events)| counts(events))
            .filter(|&(c, _)| c == counter)
            .map(|(_, v)| v)
            .sum();
        assert_eq!(global(counter) - was, summed, "{counter:?}");
    }

    // With the result cache on, a hit's timeline is the hit and the
    // envelope, and nothing else.
    let engine = Prospector::new(eclipse_mini());
    let (ifile, ast) = (
        engine.api().types().resolve("IFile").unwrap(),
        engine.api().types().resolve("ASTNode").unwrap(),
    );
    engine.query(ifile, ast).unwrap();
    let hits = global(Counter::EngineResultCacheHits);
    let hit = engine.query(ifile, ast).unwrap();
    let shape: Vec<(EventKind, u64)> = timeline(&hit).iter().map(|e| (e.kind, e.value)).collect();
    assert_eq!(shape.len(), 2, "{shape:?}");
    assert_eq!(shape[0], (EventKind::Count(Counter::EngineResultCacheHits), 1));
    assert_eq!(shape[1].0, EventKind::Query);
    assert_eq!(global(Counter::EngineResultCacheHits) - hits, 1);
    trace::set_enabled(false);
}
