//! `Prospector::assist` looks the distance cache up once per call, so the
//! process-global `engine.dist_cache.*` counters (and the `/status` hit
//! ratio built on them) count one lookup per query.
//!
//! One test in its own binary, because the counters are process-global.

use jungloid_apidef::ApiLoader;
use prospector_core::Prospector;
use prospector_obs::Counter;

fn lookups() -> (u64, u64) {
    let snap = prospector_obs::snapshot();
    (snap.counter(Counter::EngineDistCacheHits), snap.counter(Counter::EngineDistCacheMisses))
}

#[test]
fn one_distance_cache_lookup_per_call() {
    let mut loader = ApiLoader::with_prelude();
    loader
        .add_source(
            "ui.api",
            r"
            package ui;
            public interface IEditorInput {}
            public interface IEditorPart { IEditorInput getEditorInput(); }
            public interface IDocumentProvider {}
            public class Registry {
                static Registry getDefault();
                IDocumentProvider getDocumentProvider(IEditorInput input);
            }
            ",
        )
        .unwrap();
    let api = loader.finish().unwrap();
    let part = api.types().resolve("IEditorPart").unwrap();
    let input = api.types().resolve("IEditorInput").unwrap();
    let provider = api.types().resolve("IDocumentProvider").unwrap();
    let engine = Prospector::new(api);

    let (hits, misses) = lookups();
    for _ in 0..3 {
        engine.assist(&[("ep", part), ("in", input)], provider).unwrap();
    }
    let (h, m) = lookups();
    assert_eq!((h - hits, m - misses), (2, 1), "3 assist calls: one miss, then hits");

    // An explicit query on the same target adds exactly one more lookup.
    engine.query(part, provider).unwrap();
    let (h2, m2) = lookups();
    assert_eq!((h2 - hits) + (m2 - misses), 4);
}
