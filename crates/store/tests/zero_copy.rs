//! The zero-copy guarantee: an engine whose string pool, type and member
//! tables and CSR arrays are *borrowed views* into one snapshot buffer
//! (owned read or mmap) answers queries byte-identically to the
//! fully-owned live engine it was saved from — same suggestion code, same
//! ranking, same trace-attributed statistics.

use std::sync::Arc;

use jungloid_typesys::SnapshotBuf;
use prospector_core::Prospector;
use prospector_corpora::{build, BuildOptions};
use prospector_obs::trace::TraceId;

fn mined_engine() -> (Prospector, Vec<Vec<jungloid_apidef::ElemJungloid>>) {
    let built = build(&BuildOptions::default()).expect("bundled corpora assemble");
    let mined = built.mine_report.map(|r| r.examples).unwrap_or_default();
    (built.prospector, mined)
}

/// Table 1's flagship queries plus a mined-path-dependent one.
const QUERIES: [(&str, &str); 4] = [
    ("IFile", "ASTNode"),
    ("InputStream", "BufferedReader"),
    ("IWorkbench", "IEditorPart"),
    ("IWorkbenchPage", "IStructuredSelection"),
];

/// One full answer sheet for [`QUERIES`] — every observable a query
/// exposes, including the trace-attributed statistics. Each engine is
/// asked each query exactly once so cache counters are comparable.
fn answer_sheet(engine: &Prospector) -> Vec<impl PartialEq + std::fmt::Debug> {
    QUERIES
        .iter()
        .map(|&(tin_name, tout_name)| {
            let tin = engine.api().types().resolve(tin_name).expect("type resolves");
            let tout = engine.api().types().resolve(tout_name).expect("type resolves");
            let r = engine
                .query_with_trace(tin, tout, TraceId(0x5EED_0002))
                .expect("query");
            let codes: Vec<String> = r.suggestions.iter().map(|s| s.code.clone()).collect();
            (codes, r.stats, r.shortest, r.truncation.label())
        })
        .collect()
}

#[test]
fn borrowed_engine_answers_byte_identically_to_owned() {
    let (live, mined) = mined_engine();
    assert!(live.graph().mined_node_count() > 0, "engine must actually be mined");

    // Owned: the live engine built its tables and CSR in memory.
    assert!(!live.graph().csr().is_borrowed(), "a built engine is fully owned");
    assert!(!live.api().is_borrowed(), "a built API owns its tables");

    // Borrowed: the loader hands out views into the snapshot buffer.
    let bytes = prospector_store::to_bytes(live.api(), live.graph(), &mined);
    let buf = Arc::new(SnapshotBuf::from_bytes(&bytes));
    let (zero_copy, m) = prospector_store::from_buf(&buf).expect("snapshot loads");
    assert_eq!(m.version, prospector_store::FORMAT_VERSION);
    if cfg!(target_endian = "little") {
        assert!(
            zero_copy.graph.csr().is_borrowed(),
            "the decode must borrow the CSR from the buffer on little-endian hosts"
        );
        assert!(
            zero_copy.api.is_borrowed(),
            "the decode must borrow the type and member tables on little-endian hosts"
        );
    }

    let owned = live.graph();
    assert_eq!(owned.csr().out_to(), zero_copy.graph.csr().out_to());
    assert_eq!(owned.csr().out_elem(), zero_copy.graph.csr().out_elem());
    assert_eq!(owned.csr().in_from(), zero_copy.graph.csr().in_from());
    assert_eq!(owned.examples(), zero_copy.graph.examples());
    assert_eq!(mined, zero_copy.mined_examples);

    let borrowed_engine = Prospector::from_parts(zero_copy.api, zero_copy.graph);
    let owned_sheet = answer_sheet(&live);
    let borrowed_sheet = answer_sheet(&borrowed_engine);
    assert_eq!(owned_sheet, borrowed_sheet, "owned vs borrowed: answers diverge");
}

#[test]
fn mmap_load_matches_owned_read() {
    let (live, mined) = mined_engine();
    let dir = std::env::temp_dir().join("prospector-store-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("zero-copy.pspk");
    prospector_store::save_file(&path, live.api(), live.graph(), &mined).expect("snapshot saves");

    let (read_snap, read_manifest) = prospector_store::load_file(&path).expect("read loads");
    let (map_snap, map_manifest, mapped) = prospector_store::map_file(&path).expect("map loads");
    assert_eq!(read_manifest, map_manifest);
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        assert!(mapped, "a snapshot on linux must actually serve from the mapping");
    }
    if cfg!(target_endian = "little") {
        assert!(read_snap.api.is_borrowed(), "an owned read borrows the API tables");
        assert!(map_snap.api.is_borrowed(), "a mapping borrows the API tables");
        assert!(map_snap.graph.csr().is_borrowed());
    }

    assert_eq!(read_snap.graph.csr().out_to(), map_snap.graph.csr().out_to());
    assert_eq!(read_snap.graph.csr().out_elem(), map_snap.graph.csr().out_elem());

    // The staged path — validate once, thaw later — must agree too.
    let staged = prospector_store::MappedSnapshot::map(&path).expect("staged map validates");
    assert_eq!(staged.manifest(), &read_manifest);
    assert_eq!(staged.is_mapped(), mapped);
    let staged_snap = staged.thaw().expect("staged thaw decodes");
    assert_eq!(staged_snap.mined_examples, read_snap.mined_examples);

    let read_engine = Prospector::from_parts(read_snap.api, read_snap.graph);
    let map_engine = Prospector::from_parts(map_snap.api, map_snap.graph);
    let staged_engine = Prospector::from_parts(staged_snap.api, staged_snap.graph);
    let read_sheet = answer_sheet(&read_engine);
    let map_sheet = answer_sheet(&map_engine);
    let staged_sheet = answer_sheet(&staged_engine);
    assert_eq!(read_sheet, map_sheet, "read vs mmap: answers diverge");
    assert_eq!(map_sheet, staged_sheet, "mmap vs staged thaw: answers diverge");
    std::fs::remove_file(&path).ok();
}

#[test]
fn v2_sections_all_start_8_byte_aligned() {
    let (live, mined) = mined_engine();
    let bytes = prospector_store::to_bytes(live.api(), live.graph(), &mined);
    let m = prospector_store::manifest(&bytes).expect("pristine snapshot validates");
    for s in &m.sections {
        assert_eq!(
            s.offset % 8,
            0,
            "section `{}` payload starts at {} — not 8-byte aligned",
            s.name,
            s.offset
        );
        assert_eq!((s.bytes + u64::from(s.pad_bytes)) % 8, 0, "section `{}` pad", s.name);
    }
}

#[test]
fn first_mutation_copies_a_loaded_table_and_reads_stay_equal() {
    let (live, mined) = mined_engine();
    let bytes = prospector_store::to_bytes(live.api(), live.graph(), &mined);
    let buf = Arc::new(SnapshotBuf::from_bytes(&bytes));
    let (snap, _) = prospector_store::from_buf(&buf).expect("snapshot loads");
    let mut api = snap.api;
    assert_eq!(api.is_borrowed(), cfg!(target_endian = "little"));

    let fresh = api.declare_class("zz.fresh", "Fresh").expect("new name");
    assert!(!api.types().is_borrowed(), "a declaration copies the type table");
    assert_eq!(api.types().resolve("Fresh").expect("resolves"), fresh);
    for m in live.api().method_ids() {
        assert_eq!(api.method(m), live.api().method(m));
    }
    for t in live.api().types().ids() {
        assert_eq!(api.types().decl(t), live.api().types().decl(t));
    }
}

#[test]
fn splicing_a_loaded_graph_matches_splicing_the_built_one() {
    let (live, mined) = mined_engine();
    let bytes = prospector_store::to_bytes(live.api(), live.graph(), &mined);
    let buf = Arc::new(SnapshotBuf::from_bytes(&bytes));
    let (snap, _) = prospector_store::from_buf(&buf).expect("snapshot loads");
    let mut loaded = snap.graph;
    assert_eq!(loaded.csr().is_borrowed(), cfg!(target_endian = "little"));

    // The raw mined examples, ungeneralized: most are new paths.
    let mut built = live.graph().clone();
    let added = built.add_examples(live.api(), &mined).expect("mined examples splice");
    assert!(added > 0, "the raw examples must add paths the suffixes do not");
    assert_eq!(loaded.add_examples(&snap.api, &mined).expect("splices"), added);
    assert!(!loaded.csr().is_borrowed(), "a splice assembles owned arrays");
    assert_eq!(buf.as_slice(), bytes.as_slice(), "the snapshot buffer is never written");
    assert_eq!(
        prospector_store::to_bytes(&snap.api, &loaded, &mined),
        prospector_store::to_bytes(live.api(), &built, &mined),
        "a loaded graph splices like the built graph it was saved from"
    );
}
