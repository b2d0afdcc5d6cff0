//! Snapshot I/O — how fast the engine's on-disk formats save and load,
//! and what warm-starting buys over rebuilding.
//!
//! Columns: the JSON debug format, the v1 `.pspk` (decode-everything)
//! baseline, the v2 `.pspk` zero-copy load (owned read and mmap), and
//! the first query answered after each warm start; plus the cold-build
//! baseline every load replaces. The run writes a machine-readable
//! baseline to `BENCH_snapshot.json` at the repository root (override
//! with `BENCH_SNAPSHOT_OUT`), including `zero_copy_speedup` — v1 load
//! time over v2 load time.
//!
//! The `synth` row warm-starts a seeded synthetic jungle (10^5 bulk
//! types; 10^4 in quick mode) the way a server does — mmap, validate,
//! decode — each round in a fresh child process so the RSS delta counts
//! only the load. It records the time of each load phase, the first
//! `resolve` after the load, the RSS delta next to the registry's
//! `engine_bytes` estimate, and how long dropping the engine takes
//! (medians over the rounds).
//!
//! Run with `cargo bench -p bench --bench snapshot_io`; set
//! `PROSPECTOR_BENCH_QUICK=1` (or pass `--quick`) for a CI-sized smoke
//! run. To compare two builds, run the bench on the baseline build with
//! `BENCH_SNAPSHOT_OUT=<file>`, then on the candidate with
//! `BENCH_SNAPSHOT_BASELINE=<file>`: the output then carries the
//! baseline's row as `synth_baseline` next to its own `synth` row.

use std::path::Path;
use std::time::Instant;

use prospector_core::Prospector;
use prospector_corpora::synth::{grow_synth, SynthSpec};
use prospector_corpora::{build, BuildOptions};
use prospector_obs::Json;
use prospector_registry::{Provenance, Registry};

/// Set in a child process: the snapshot path to warm-start from.
const SYNTH_CHILD_ENV: &str = "PROSPECTOR_SNAPSHOT_IO_CHILD";

fn quick_mode() -> bool {
    std::env::var_os("PROSPECTOR_BENCH_QUICK").is_some()
        || std::env::args().any(|a| a == "--quick")
}

/// Best-of-`rounds` wall time for `f`, in microseconds.
fn best_us<T>(rounds: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..rounds {
        let t = Instant::now();
        let value = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
        last = Some(value);
    }
    (best, last.expect("rounds >= 1"))
}

/// Warm-start an engine from a just-loaded snapshot and answer one
/// flagship query (`IFile -> ASTNode`). Returns the suggestion count so
/// the work cannot be optimized away.
fn first_query(snap: prospector_store::Snapshot) -> usize {
    let engine = Prospector::from_parts(snap.api, snap.graph);
    let tin = engine.api().types().resolve("IFile").expect("IFile resolves");
    let tout = engine.api().types().resolve("ASTNode").expect("ASTNode resolves");
    engine.query(tin, tout).expect("query answers").suggestions.len()
}

/// Resident set size of this process in bytes, from `/proc/self/status`
/// (`None` off Linux).
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// One synth warm start, run in a child process: prints one JSON line.
fn synth_child(path: &str) {
    let rss_before = rss_bytes();
    let start = Instant::now();
    let mapped = prospector_store::MappedSnapshot::map(Path::new(path)).expect("snapshot maps");
    let (snap, phases) = mapped.thaw_timed().expect("snapshot thaws");
    let engine = Prospector::from_parts(snap.api, snap.graph);
    let load_us = start.elapsed().as_micros() as u64;
    let rss_after = rss_bytes();

    let t = Instant::now();
    let resolved = engine.api().types().resolve("Plant0Step0").expect("planted head resolves");
    let first_resolve_us = t.elapsed().as_secs_f64() * 1e6;
    assert!(engine.api().types().decl(resolved).is_some());

    let registry = Registry::with_default(engine, Provenance::built());
    let engine_bytes = registry.engine_bytes_total();
    drop(mapped);
    let t = Instant::now();
    drop(registry);
    let drop_us = t.elapsed().as_micros() as u64;

    let rss_delta_mb = match (rss_before, rss_after) {
        (Some(a), Some(b)) => Json::Num(((b.saturating_sub(a)) as f64 / 1e6 * 10.0).round() / 10.0),
        _ => Json::Null,
    };
    let doc = Json::obj(vec![
        ("validate_ms", Json::Num(ms(phases.validate_us))),
        ("types_ms", Json::Num(ms(phases.types_us))),
        ("members_ms", Json::Num(ms(phases.members_us))),
        ("csr_ms", Json::Num(ms(phases.csr_us))),
        ("finish_ms", Json::Num(ms(phases.finish_us))),
        ("load_ms", Json::Num(ms(load_us))),
        ("first_resolve_us", Json::Num(first_resolve_us)),
        ("rss_delta_mb", rss_delta_mb),
        ("engine_bytes", Json::num_u(engine_bytes)),
        ("drop_ms", Json::Num(ms(drop_us))),
    ]);
    println!("{}", doc.to_text());
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The `synth` row: generates and saves the jungle, then warm-starts it
/// `rounds` times in child processes and takes per-metric medians.
fn synth_row(dir: &Path, quick: bool, rounds: usize) -> Json {
    let types = if quick { 10_000 } else { 100_000 };
    let path = dir.join("synth.pspk");
    {
        let mut api = jungloid_apidef::ApiLoader::with_prelude().finish().expect("prelude");
        grow_synth(&mut api, &SynthSpec { seed: 1, types, ..SynthSpec::default() });
        let engine = Prospector::new(api);
        prospector_store::save_file(&path, engine.api(), engine.graph(), &[])
            .expect("synth snapshot saves");
    }
    let bytes = std::fs::metadata(&path).expect("saved").len();
    let exe = std::env::current_exe().expect("bench executable path");
    let runs: Vec<Json> = (0..rounds)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .env(SYNTH_CHILD_ENV, &path)
                .output()
                .expect("child bench runs");
            assert!(out.status.success(), "synth child failed: {}", String::from_utf8_lossy(&out.stderr));
            let text = String::from_utf8(out.stdout).expect("UTF-8 child output");
            let line = text.lines().last().expect("child prints one line");
            Json::parse(line).expect("child prints JSON")
        })
        .collect();
    let med = |key: &str| {
        let xs: Vec<f64> = runs.iter().filter_map(|r| r.get(key).and_then(Json::as_f64)).collect();
        if xs.is_empty() {
            Json::Null
        } else {
            Json::Num((median(xs) * 1000.0).round() / 1000.0)
        }
    };
    std::fs::remove_file(&path).ok();
    let row = Json::obj(vec![
        ("types", Json::num_u(types as u64)),
        ("bytes", Json::num_u(bytes)),
        (
            "load_ms",
            Json::obj(vec![
                ("validate", med("validate_ms")),
                ("types", med("types_ms")),
                ("members", med("members_ms")),
                ("csr", med("csr_ms")),
                ("finish", med("finish_ms")),
                ("total", med("load_ms")),
            ]),
        ),
        ("first_resolve_us", med("first_resolve_us")),
        ("rss_delta_mb", med("rss_delta_mb")),
        ("engine_bytes", med("engine_bytes")),
        ("drop_ms", med("drop_ms")),
    ]);
    println!("synth ({types} types, {bytes} bytes): {}", row.to_text());
    row
}

fn main() {
    if let Ok(path) = std::env::var(SYNTH_CHILD_ENV) {
        synth_child(&path);
        return;
    }
    let quick = quick_mode();
    let rounds = if quick { 2 } else { 5 };

    println!("\n=== snapshot I/O (JSON debug vs .pspk binary) ===\n");

    // Cold-build baseline: what a server pays when it has no index.
    let (build_us, built) =
        best_us(1, || build(&BuildOptions::default()).expect("assembles"));
    let mined = built.mine_report.map(|r| r.examples).unwrap_or_default();
    let engine = built.prospector;
    println!("cold build + mine + generalize: {build_us:10.0} us");

    let dir = std::env::temp_dir().join("prospector-bench-snapshot");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("engine.json");
    let bin_path = dir.join("engine.pspk");
    let v1_path = dir.join("engine-v1.pspk");

    let (json_save_us, ()) = best_us(rounds, || {
        prospector_core::persist::save_file(&json_path, engine.api(), engine.graph())
            .expect("JSON saves");
    });
    let json_bytes = std::fs::metadata(&json_path).expect("saved").len();
    let (json_load_us, json_loaded) = best_us(rounds, || {
        prospector_core::persist::load_file(&json_path).expect("JSON loads")
    });
    println!(
        "JSON debug:  save {json_save_us:10.0} us   load {json_load_us:10.0} us   {json_bytes:>9} bytes"
    );

    // v1: the decode-everything baseline the zero-copy loader replaces.
    std::fs::write(&v1_path, prospector_store::to_bytes_v1(engine.api(), engine.graph(), &mined))
        .expect("v1 snapshot writes");
    let v1_bytes = std::fs::metadata(&v1_path).expect("saved").len();
    let (v1_load_us, v1_loaded) = best_us(rounds, || {
        prospector_store::load_file(&v1_path).expect("v1 loads").0
    });
    println!(
        "binary v1:   {:>16} load {v1_load_us:10.0} us   {v1_bytes:>9} bytes", ""
    );

    let (bin_save_us, _) = best_us(rounds, || {
        prospector_store::save_file(&bin_path, engine.api(), engine.graph(), &mined)
            .expect("binary saves")
    });
    let bin_bytes = std::fs::metadata(&bin_path).expect("saved").len();
    let (bin_load_us, bin_loaded) = best_us(rounds, || {
        prospector_store::load_file(&bin_path).expect("binary loads").0
    });
    println!(
        "binary v2:   save {bin_save_us:10.0} us   load {bin_load_us:10.0} us   {bin_bytes:>9} bytes"
    );

    // The zero-copy load: validate header + section CRCs once and hand
    // out borrowed views — O(sections checksummed), no per-element work.
    let (map_us, mapped) = best_us(rounds, || {
        let m = prospector_store::MappedSnapshot::map(&bin_path).expect("binary maps");
        assert_eq!(m.manifest().sections.len(), 7);
        m.is_mapped()
    });
    println!(
        "binary v2 zero-copy (validate + mmap): {map_us:7.0} us   (mapped: {mapped})"
    );

    // Warm start to first answer: load + engine assembly + one query.
    let (first_query_v1_us, n1) = best_us(rounds, || {
        first_query(prospector_store::load_file(&v1_path).expect("v1 loads").0)
    });
    let (first_query_v2_us, n2) = best_us(rounds, || {
        let m = prospector_store::MappedSnapshot::map(&bin_path).expect("binary maps");
        first_query(m.thaw().expect("binary thaws"))
    });
    assert_eq!(n1, n2, "warm-started engines must answer identically");
    println!(
        "first query:  v1 {first_query_v1_us:9.0} us   v2+mmap {first_query_v2_us:7.0} us"
    );

    // Every loader must agree with the live engine before its time
    // means anything.
    assert_eq!(json_loaded.graph.edge_count(), engine.graph().edge_count());
    assert_eq!(v1_loaded.graph.csr().out_to(), engine.graph().csr().out_to());
    assert_eq!(bin_loaded.graph.edge_count(), engine.graph().edge_count());
    assert_eq!(bin_loaded.graph.csr().out_to(), engine.graph().csr().out_to());

    let load_speedup = json_load_us / bin_load_us;
    let vs_build = build_us / bin_load_us;
    // The headline number: the v2 zero-copy (validate-only) load against
    // the v1 decode-everything load it replaces. The deferred owned-API
    // cost is not hidden — it shows up in `first_query.v2_mmap_us`.
    let zero_copy_speedup = v1_load_us / map_us;
    println!(
        "\nv2 full load: {load_speedup:.2}x faster than JSON load, {vs_build:.2}x faster than a cold build"
    );
    println!(
        "v2 zero-copy (validate-only) load: {zero_copy_speedup:.2}x faster than the v1 decode\n"
    );
    assert!(
        bin_load_us < json_load_us,
        "binary load must beat the JSON debug path ({bin_load_us:.0} us vs {json_load_us:.0} us)"
    );
    assert!(
        map_us < v1_load_us,
        "zero-copy v2 load must beat the v1 decode ({map_us:.0} us vs {v1_load_us:.0} us)"
    );
    if !quick {
        assert!(
            zero_copy_speedup >= 5.0,
            "zero-copy v2 load must be >= 5x the v1 decode (got {zero_copy_speedup:.2}x)"
        );
    }

    let synth = synth_row(&dir, quick, if quick { 3 } else { 7 });

    let round1 = |x: f64| (x * 10.0).round() / 10.0;
    let doc = Json::obj(vec![
        ("bench", Json::Str("snapshot_io".to_owned())),
        ("rounds", Json::num_u(rounds as u64)),
        ("build_us", Json::Num(round1(build_us))),
        (
            "json",
            Json::obj(vec![
                ("save_us", Json::Num(round1(json_save_us))),
                ("load_us", Json::Num(round1(json_load_us))),
                ("bytes", Json::num_u(json_bytes)),
            ]),
        ),
        (
            "binary_v1",
            Json::obj(vec![
                ("load_us", Json::Num(round1(v1_load_us))),
                ("bytes", Json::num_u(v1_bytes)),
            ]),
        ),
        (
            "binary",
            Json::obj(vec![
                ("save_us", Json::Num(round1(bin_save_us))),
                ("load_us", Json::Num(round1(bin_load_us))),
                ("bytes", Json::num_u(bin_bytes)),
            ]),
        ),
        (
            "zero_copy",
            Json::obj(vec![
                ("map_us", Json::Num(round1(map_us))),
                ("mapped", Json::Bool(mapped)),
            ]),
        ),
        (
            "first_query",
            Json::obj(vec![
                ("v1_us", Json::Num(round1(first_query_v1_us))),
                ("v2_mmap_us", Json::Num(round1(first_query_v2_us))),
            ]),
        ),
        ("load_speedup", Json::Num((load_speedup * 100.0).round() / 100.0)),
        ("zero_copy_speedup", Json::Num((zero_copy_speedup * 100.0).round() / 100.0)),
        ("load_vs_build", Json::Num((vs_build * 100.0).round() / 100.0)),
        ("synth", synth),
        ("quick", Json::Bool(quick)),
    ]);
    let doc = match std::env::var("BENCH_SNAPSHOT_BASELINE") {
        Ok(path) => {
            let text = std::fs::read_to_string(&path).expect("baseline file reads");
            let baseline = Json::parse(&text).expect("baseline is JSON");
            let row = baseline.get("synth").cloned().expect("baseline has a synth row");
            let Json::Obj(mut pairs) = doc else { unreachable!("built as an object") };
            pairs.push(("synth_baseline".to_owned(), row));
            Json::Obj(pairs)
        }
        Err(_) => doc,
    };
    let out = std::env::var("BENCH_SNAPSHOT_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_snapshot.json").to_owned()
    });
    std::fs::write(&out, doc.to_text()).expect("baseline file writes");
    println!("wrote {out}");

    std::fs::remove_file(&json_path).ok();
    std::fs::remove_file(&bin_path).ok();
    std::fs::remove_file(&v1_path).ok();
}
