//! Experiment E3 — the §5 performance numbers, at paper scale.
//!
//! The paper reports, on a 2.26 GHz Pentium 4 with 1 GB RAM, over
//! J2SE (≈21,000 methods) + Eclipse:
//!
//! * graph representation: 8 MB on disk, 24 MB in memory;
//! * load time: 1.5 s;
//! * all queries answered in under 1.1 s, 85% under 0.5 s.
//!
//! We grow the hand-modeled APIs with the procedural jungle to the same
//! method count, save the engine as a `.pspk` snapshot (the one format an
//! engine is loaded from), and reproduce each measurement. The claims to
//! preserve are the *bounds*: everything answers far inside the paper's
//! envelope.
//!
//! Run with `cargo bench -p bench --bench perf_section5`.

use std::time::Instant;

use bench::{criterion_group, Criterion};
use prospector_corpora::{build, jungle::JungleSpec, problems, BuildOptions};

/// Where the report and the load bench write the paper-scale snapshot.
fn snapshot_path() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("prospector-perf-section5-{}.pspk", std::process::id()))
}

fn paper_scale_options() -> BuildOptions {
    BuildOptions { jungle: Some(JungleSpec::default()), ..BuildOptions::default() }
}

fn print_report() {
    println!("\n=== §5 performance (paper-scale graph) ===\n");
    let t0 = Instant::now();
    let built = build(&paper_scale_options()).expect("assembles");
    let engine = built.prospector;
    println!("graph build: {:.2} s", t0.elapsed().as_secs_f64());
    println!(
        "scale: {} types, {} methods (paper: ~21,000 J2SE methods), {} edges, {} nodes",
        engine.api().types().len(),
        engine.api().method_count(),
        engine.graph().edge_count(),
        engine.graph().node_count(),
    );

    // On-disk size (paper: 8 MB) and load time (paper: 1.5 s).
    let mined = built.mine_report.map(|r| r.examples).unwrap_or_default();
    let path = snapshot_path();
    let manifest = prospector_store::save_file(&path, engine.api(), engine.graph(), &mined)
        .expect("snapshot saves");
    let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    println!("snapshot size: {:.1} MB (paper: 8 MB)", mb(manifest.total_bytes));
    let t1 = Instant::now();
    let loaded = prospector_store::load(&path, false).expect("snapshot loads").snapshot;
    let load_s = t1.elapsed().as_secs_f64();
    std::fs::remove_file(&path).ok();
    println!("load time: {:.3} s (paper: 1.5 s)", load_s);
    println!(
        "in-memory adjacency estimate: {:.1} MB (paper: 24 MB total process)",
        loaded.graph.approx_bytes() as f64 / (1024.0 * 1024.0)
    );
    assert_eq!(loaded.graph.edge_count(), engine.graph().edge_count());
    assert!(mb(manifest.total_bytes) < 8.0, "snapshot exceeds the paper's 8 MB");
    assert!(load_s < 1.5, "load exceeds the paper's 1.5 s");

    // Query latency distribution over the Table 1 mix (paper: all < 1.1 s,
    // 85% < 0.5 s).
    let api = engine.api();
    let mut latencies = Vec::new();
    for problem in problems::table1() {
        let tin = api.types().resolve(problem.tin).unwrap();
        let tout = api.types().resolve(problem.tout).unwrap();
        // Cold: includes the reverse-BFS distance field for this target.
        let t = Instant::now();
        let _ = engine.query(tin, tout).unwrap();
        latencies.push((problem.id, t.elapsed().as_secs_f64()));
    }
    latencies.sort_by(|a, b| a.1.total_cmp(&b.1));
    let under_half = latencies.iter().filter(|(_, t)| *t < 0.5).count();
    let under_paper = latencies.iter().filter(|(_, t)| *t < 1.1).count();
    println!("\nquery latencies over the paper-scale graph (cold, per problem):");
    for (id, t) in &latencies {
        println!("  P{id:02}: {:8.2} ms", t * 1000.0);
    }
    println!(
        "\n< 0.5 s: {under_half}/20 (paper: 85%);  < 1.1 s: {under_paper}/20 (paper: 100%)\n"
    );
    assert_eq!(under_paper, 20, "a query exceeded the paper's 1.1 s bound");
}

fn bench_load_and_query(c: &mut Criterion) {
    let built = build(&paper_scale_options()).expect("assembles");
    let mut engine = built.prospector;
    // This bench reproduces the paper's *pipeline* latency; with the
    // result cache on, every iteration after the first would measure a
    // cache hit instead.
    engine.cache_results = false;
    let path = snapshot_path();
    prospector_store::save_file(&path, engine.api(), engine.graph(), &[]).expect("snapshot saves");

    let mut group = c.benchmark_group("perf_section5");
    group.sample_size(10);
    group.bench_function("load_snapshot", |b| {
        b.iter(|| {
            let loaded = prospector_store::load(&path, false).unwrap();
            std::hint::black_box(loaded.snapshot.graph.edge_count())
        });
    });
    std::fs::remove_file(&path).ok();
    let api = engine.api();
    let ifile = api.types().resolve("IFile").unwrap();
    let ast = api.types().resolve("ASTNode").unwrap();
    group.bench_function("query_ifile_astnode_paper_scale", |b| {
        b.iter(|| std::hint::black_box(engine.query(ifile, ast).unwrap().suggestions.len()));
    });
    group.finish();
}

criterion_group!(benches, bench_load_and_query);

fn main() {
    print_report();
    benches();
    Criterion::default().configure_from_args().final_summary();
}
