//! The tentpole guarantee: a mined + generalized engine snapshotted to
//! `.pspk` and reloaded answers queries *byte-identically* to the live
//! engine it was saved from — same suggestion code, same ranking, same
//! `TraceId`-attributed query statistics — because the loader restores
//! the graph's CSR arrays verbatim instead of rebuilding anything. The
//! loaded engine's JSON rendering equals the live one's: every mined
//! node and its base type, every example, every out-edge per node.

use prospector_core::Prospector;
use prospector_corpora::{build, BuildOptions};
use prospector_obs::trace::TraceId;

fn mined_engine() -> (Prospector, Vec<Vec<jungloid_apidef::ElemJungloid>>) {
    let built = build(&BuildOptions::default()).expect("bundled corpora assemble");
    let mined = built.mine_report.map(|r| r.examples).unwrap_or_default();
    (built.prospector, mined)
}

/// The loaded API and graph render to the same JSON as the live ones.
fn assert_same_json(live: &Prospector, snap: &prospector_store::Snapshot) {
    assert!(snap.api.to_json() == live.api().to_json(), "API JSON differs");
    assert!(snap.graph.to_json() == live.graph().to_json(), "graph JSON differs");
}

#[test]
fn reloaded_engine_answers_byte_identically() {
    let (live, mined) = mined_engine();
    assert!(live.graph().mined_node_count() > 0, "engine must actually be mined");
    assert!(!mined.is_empty());

    let bytes = prospector_store::to_bytes(live.api(), live.graph(), &mined);
    let snap = prospector_store::from_bytes(&bytes).expect("snapshot loads");
    assert_eq!(snap.graph.examples(), live.graph().examples());
    assert_eq!(snap.mined_examples, mined);
    assert_same_json(&live, &snap);
    let warm = Prospector::from_parts(snap.api, snap.graph);

    // A restored graph is a new graph state: the loader gives it a fresh
    // epoch, so a server's provenance tells the reloaded engine from the
    // live one, even inside one process.
    assert_ne!(
        warm.graph().epoch(),
        live.graph().epoch(),
        "a reloaded snapshot must take a fresh graph epoch"
    );

    // Table 1's flagship queries plus a mined-path-dependent one.
    let queries = [
        ("IFile", "ASTNode"),
        ("InputStream", "BufferedReader"),
        ("IWorkbench", "IEditorPart"),
        ("IWorkbenchPage", "IStructuredSelection"),
    ];
    for (tin_name, tout_name) in queries {
        let tin = live.api().types().resolve(tin_name).expect("type resolves");
        let tout = live.api().types().resolve(tout_name).expect("type resolves");
        // A fixed trace id on both sides makes the full QueryStats —
        // including its trace attribution — directly comparable.
        let id = TraceId(0x5EED_0001);
        let a = live.query_with_trace(tin, tout, id).expect("live query");
        let b = warm.query_with_trace(tin, tout, id).expect("warm query");

        let live_codes: Vec<&str> = a.suggestions.iter().map(|s| s.code.as_str()).collect();
        let warm_codes: Vec<&str> = b.suggestions.iter().map(|s| s.code.as_str()).collect();
        assert_eq!(live_codes, warm_codes, "{tin_name} -> {tout_name}: suggestions diverge");
        assert_eq!(a.stats, b.stats, "{tin_name} -> {tout_name}: query stats diverge");
        assert_eq!(a.shortest, b.shortest);
        assert_eq!(
            a.truncation.label(),
            b.truncation.label(),
            "{tin_name} -> {tout_name}: truncation diverges"
        );
    }
}

#[test]
fn save_and_load_round_trip_through_a_file() {
    let (live, mined) = mined_engine();
    let dir = std::env::temp_dir().join("prospector-store-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("roundtrip.pspk");

    let saved = prospector_store::save_file(&path, live.api(), live.graph(), &mined)
        .expect("snapshot saves");
    let (snap, loaded) = prospector_store::load_file(&path).expect("snapshot loads");
    assert_eq!(saved, loaded, "save and load must agree on the manifest");
    assert_eq!(snap.graph.node_count(), live.graph().node_count());
    assert_eq!(snap.graph.edge_count(), live.graph().edge_count());
    assert_eq!(snap.graph.csr().out_to(), live.graph().csr().out_to());
    assert_eq!(snap.graph.csr().in_from(), live.graph().csr().in_from());
    assert_same_json(&live, &snap);
    std::fs::remove_file(&path).ok();
}
