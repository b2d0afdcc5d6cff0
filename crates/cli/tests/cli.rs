//! End-to-end tests of the `prospector` binary.

use std::process::Command;

fn prospector(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_prospector"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_args_prints_usage() {
    let (stdout, _, ok) = prospector(&[]);
    assert!(ok);
    assert!(stdout.contains("usage:"));
}

#[test]
fn query_intro_example() {
    let (stdout, _, ok) = prospector(&["query", "IFile", "ASTNode"]);
    assert!(ok);
    assert!(stdout.contains("1. AST.parseCompilationUnit(JavaCore.createCompilationUnitFrom("));
}

#[test]
fn query_unknown_type_fails_cleanly() {
    let (_, stderr, ok) = prospector(&["query", "NoSuchType", "ASTNode"]);
    assert!(!ok);
    assert!(stderr.contains("unknown type"));
}

#[test]
fn assist_reports_void_route() {
    let (stdout, _, ok) =
        prospector(&["assist", "DocumentProviderRegistry", "--var", "ep:IEditorPart"]);
    assert!(ok);
    assert!(stdout.contains("DocumentProviderRegistry.getDefault()"));
}

#[test]
fn protected_failure_and_fix() {
    let (stdout, _, ok) = prospector(&["query", "AbstractGraphicalEditPart", "ConnectionLayer"]);
    assert!(ok);
    assert!(stdout.contains("no jungloids found"));

    let (stdout, _, ok) = prospector(&[
        "--include-protected",
        "query",
        "AbstractGraphicalEditPart",
        "ConnectionLayer",
    ]);
    assert!(ok);
    assert!(stdout.contains("(ConnectionLayer)"));
    assert!(stdout.contains(".getLayer("));
}

#[test]
fn mine_lists_generalized_examples() {
    let (stdout, _, ok) = prospector(&["mine"]);
    assert!(ok);
    assert!(stdout.contains("generalized paths spliced into the graph"));
    assert!(stdout.contains("(IStructuredSelection)"));
}

#[test]
fn stats_reports_scale() {
    let (stdout, _, ok) = prospector(&["stats"]);
    assert!(ok);
    assert!(stdout.contains("graph edges:"));
    assert!(stdout.contains("methods:"));
    // stats always carries the pipeline timing block.
    assert!(stdout.contains("--- metrics ---"));
    assert!(stdout.contains("build"));
}

#[test]
fn metrics_flag_prints_registry() {
    let (stdout, _, ok) = prospector(&["--metrics", "query", "IFile", "ASTNode"]);
    assert!(ok);
    assert!(stdout.contains("--- metrics ---"));
    assert!(stdout.contains("search.dfs_expansions"));
    assert!(stdout.contains("graph.nodes"));
}

#[test]
fn metrics_json_reports_pipeline() {
    let dir = std::env::temp_dir().join("prospector-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    let path_str = path.to_str().unwrap();
    let (_, stderr, ok) =
        prospector(&["--metrics-json", path_str, "query", "IFile", "ASTNode"]);
    assert!(ok, "stderr: {stderr}");

    let text = std::fs::read_to_string(&path).unwrap();
    let doc = prospector_obs::Json::parse(&text).expect("valid JSON");

    // All six canonical stages are present (zeroed or not), and the ones
    // a mining query actually exercises carry nonzero wall time.
    let stages = doc.get("stages").unwrap();
    for name in prospector_obs::report::PIPELINE_STAGES {
        let stage = stages.get(name).unwrap_or_else(|| panic!("stage `{name}` missing"));
        assert!(stage.get("total_ns").unwrap().as_u64().is_some());
    }
    for name in ["build", "mine", "generalize", "search"] {
        let total = stages.get(name).unwrap().get("total_ns").unwrap().as_u64().unwrap();
        assert!(total > 0, "stage `{name}` should have recorded time");
    }

    let counters = doc.get("counters").unwrap();
    for name in [
        "search.dfs_expansions",
        "search.paths_enumerated",
        "graph.examples_spliced",
        "mine.cast_sites",
        "engine.dist_cache.misses",
        "rank.comparisons",
        "synth.snippets",
    ] {
        let v = counters.get(name).unwrap_or_else(|| panic!("counter `{name}` missing"));
        assert!(v.as_u64().unwrap() > 0, "counter `{name}` should be nonzero");
    }

    let gauges = doc.get("gauges").unwrap();
    assert!(gauges.get("graph.nodes").unwrap().as_u64().unwrap() > 0);
    assert!(gauges.get("graph.edges").unwrap().as_u64().unwrap() > 0);
    assert!(gauges.get("engine.dist_cache.entries").unwrap().as_u64().unwrap() > 0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn query_reports_truncation_reason() {
    // --jungle inflates the graph enough that the default caps trip.
    let (stdout, _, ok) =
        prospector(&["--jungle", "--max", "1", "query", "IWorkbench", "IEditorPart"]);
    assert!(ok);
    if stdout.contains("note: enumeration truncated") {
        assert!(stdout.contains("path_cap") || stdout.contains("expansion_cap"), "{stdout}");
    }
}

#[test]
fn query_batch_emits_json_lines_and_aggregate() {
    let dir = std::env::temp_dir().join("prospector-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("batch.txt");
    std::fs::write(
        &path,
        "# explicit queries, one pair per line\n\
         IFile ASTNode\n\
         \n\
         InputStream BufferedReader\n\
         IWorkbench IEditorPart\n",
    )
    .unwrap();
    let (stdout, stderr, ok) =
        prospector(&["--max", "2", "query", "--batch", path.to_str().unwrap(), "--threads", "2"]);
    assert!(ok, "stderr: {stderr}");

    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "3 queries + 1 aggregate:\n{stdout}");

    // Per-query lines are valid JSON, in input order, with the paper's
    // first example ranked on top and every truncation field populated.
    let first = prospector_obs::Json::parse(lines[0]).expect("valid JSON");
    assert_eq!(first.get("tin").unwrap().as_str(), Some("IFile"));
    assert_eq!(first.get("tout").unwrap().as_str(), Some("ASTNode"));
    assert_eq!(
        (lines[1].contains("\"tin\":\"InputStream\""), lines[2].contains("\"tin\":\"IWorkbench\"")),
        (true, true),
        "input order preserved:\n{stdout}"
    );
    assert_eq!(first.get("ok").unwrap().as_bool(), Some(true));
    let top = first.get("suggestions").unwrap().as_arr().unwrap()[0].as_str().unwrap();
    assert!(top.starts_with("AST.parseCompilationUnit("), "{top}");
    let mut trace_ids = Vec::new();
    for line in &lines[..3] {
        let q = prospector_obs::Json::parse(line).expect("valid JSON");
        let label = q.get("truncation").unwrap().as_str().unwrap();
        assert!(["none", "path_cap", "expansion_cap"].contains(&label), "{label}");
        assert!(q.get("time_us").unwrap().as_u64().is_some());
        // Every line carries its flight-recorder id and the per-query
        // cache split (correlatable with the global engine.dist_cache.*).
        trace_ids.push(q.get("trace_id").unwrap().as_u64().unwrap());
        let hits = q.get("dist_cache_hits").unwrap().as_u64().unwrap();
        let misses = q.get("dist_cache_misses").unwrap().as_u64().unwrap();
        assert_eq!(hits + misses, 1, "each query does exactly one distance lookup");
        assert!(q.get("dfs_expansions").unwrap().as_u64().is_some());
    }
    assert!(trace_ids.windows(2).all(|w| w[0] < w[1]), "input-ordered ids: {trace_ids:?}");

    let agg = prospector_obs::Json::parse(lines[3]).expect("valid JSON");
    let batch = agg.get("batch").unwrap();
    assert_eq!(batch.get("queries").unwrap().as_u64(), Some(3));
    assert_eq!(batch.get("errors").unwrap().as_u64(), Some(0));
    assert_eq!(batch.get("threads").unwrap().as_u64(), Some(2));
    assert!(batch.get("qps").unwrap().as_f64().unwrap() > 0.0);
    std::fs::remove_file(&path).ok();
}

#[test]
fn query_batch_reports_bad_lines_with_numbers() {
    let dir = std::env::temp_dir().join("prospector-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("batch-bad.txt");
    std::fs::write(&path, "IFile ASTNode\nNoSuchType ASTNode\n").unwrap();
    let (_, stderr, ok) = prospector(&["query", "--batch", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains(":2:"), "line number in error: {stderr}");
    assert!(stderr.contains("unknown type"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

/// Rebuilds a Chrome-trace document with its wall-clock fields (`ts`,
/// `dur`) zeroed, leaving names, phases, counter args, pids, and trace
/// ids — everything that must be deterministic — intact.
fn zero_chrome_clocks(doc: &prospector_obs::Json) -> prospector_obs::Json {
    use prospector_obs::Json;
    let events = doc.as_arr().expect("chrome trace is a JSON array");
    Json::Arr(
        events
            .iter()
            .map(|event| {
                let pairs = event.as_obj().expect("chrome event is an object");
                Json::obj(
                    pairs
                        .iter()
                        .map(|(key, value)| {
                            if key == "ts" || key == "dur" {
                                (key.as_str(), Json::num_u(0))
                            } else {
                                (key.as_str(), value.clone())
                            }
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

#[test]
fn same_seed_batch_runs_are_trace_deterministic() {
    let dir = std::env::temp_dir().join("prospector-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let batch = dir.join("batch-determinism.txt");
    std::fs::write(&batch, "IFile ASTNode\nInputStream BufferedReader\nIFile ASTNode\n").unwrap();

    let run = |trace_path: &std::path::Path| -> (Vec<u64>, String) {
        let (stdout, stderr, ok) = prospector(&[
            "--seed",
            "42",
            "--trace-json",
            trace_path.to_str().unwrap(),
            "query",
            "--batch",
            batch.to_str().unwrap(),
            "--threads",
            "2",
        ]);
        assert!(ok, "stderr: {stderr}");
        let ids: Vec<u64> = stdout
            .lines()
            .filter(|l| l.contains("\"trace_id\""))
            .map(|l| {
                let q = prospector_obs::Json::parse(l).expect("valid JSON");
                q.get("trace_id").unwrap().as_u64().unwrap()
            })
            .collect();
        let chrome = std::fs::read_to_string(trace_path).unwrap();
        let doc = prospector_obs::Json::parse(&chrome).expect("valid chrome trace");
        (ids, zero_chrome_clocks(&doc).to_text())
    };

    let first_path = dir.join("trace-a.json");
    let second_path = dir.join("trace-b.json");
    let (ids_a, chrome_a) = run(&first_path);
    let (ids_b, chrome_b) = run(&second_path);

    assert_eq!(ids_a.len(), 3);
    assert_eq!(ids_a, ids_b, "same seed must allocate the same trace ids");
    assert!(!chrome_a.is_empty() && chrome_a != "[]", "trace captured events");
    assert_eq!(chrome_a, chrome_b, "chrome traces identical modulo ts/dur");

    std::fs::remove_file(&batch).ok();
    std::fs::remove_file(&first_path).ok();
    std::fs::remove_file(&second_path).ok();
}

#[test]
fn explain_replays_recorded_timeline() {
    let (stdout, stderr, ok) = prospector(&["explain", "IFile", "ASTNode"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("recorded timeline (trace "), "{stdout}");
    assert!(stdout.contains("search.dfs_expansions"), "{stdout}");
    assert!(stdout.contains("query.total"), "{stdout}");
}

#[test]
fn complete_infers_context_from_file() {
    let dir = std::env::temp_dir().join("prospector-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("user.mj");
    std::fs::write(
        &path,
        r"
        package myplugin;
        class Action {
            void run(IWorkbench workbench, IFile selectedFile) {
                ASTNode ast;
            }
        }
        ",
    )
    .unwrap();
    let (stdout, stderr, ok) =
        prospector(&["complete", path.to_str().unwrap(), "run", "ast"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("createCompilationUnitFrom(selectedFile)"), "{stdout}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn index_round_trip() {
    let dir = std::env::temp_dir().join("prospector-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.idx");
    let path_str = path.to_str().unwrap();
    let (stdout, _, ok) = prospector(&["index", path_str]);
    assert!(ok);
    assert!(stdout.contains("wrote"));
    // Loading the index answers identically to a fresh build.
    let (loaded, _, ok) = prospector(&["--index", path_str, "query", "IFile", "ASTNode"]);
    assert!(ok);
    let (fresh, _, _) = prospector(&["query", "IFile", "ASTNode"]);
    assert_eq!(loaded, fresh);
    std::fs::remove_file(&path).ok();
}

#[test]
fn binary_index_build_inspect_and_query() {
    let dir = std::env::temp_dir().join("prospector-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.pspk");
    let path_str = path.to_str().unwrap();

    let (stdout, stderr, ok) = prospector(&["index", "build", "-o", path_str]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("wrote"), "{stdout}");
    assert!(stdout.contains("snapshot format v3"), "{stdout}");
    assert!(stdout.contains("padding overhead:"), "{stdout}");
    for section in ["strings", "types", "members", "graph", "csr", "examples", "suffixes"] {
        assert!(stdout.contains(section), "section `{section}` missing from:\n{stdout}");
    }
    // The file is the binary format, not JSON.
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..4], b"PSPK");

    let (stdout, stderr, ok) = prospector(&["index", "inspect", path_str]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("prospector snapshot, format v3"), "{stdout}");
    assert!(stdout.contains("crc32"), "{stdout}");
    assert!(stdout.contains("mined examples:"), "{stdout}");
    // Every payload is 8-byte aligned, so nothing is flagged.
    assert!(!stdout.contains("UNALIGNED"), "{stdout}");

    let (stdout, stderr, ok) = prospector(&["index", "inspect", path_str, "--layout"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("layout:"), "{stdout}");
    assert!(stdout.contains("csr payload"), "{stdout}");

    // Warm-started answers are identical to a fresh build's.
    let (loaded, stderr, ok) = prospector(&["--index", path_str, "query", "IFile", "ASTNode"]);
    assert!(ok, "stderr: {stderr}");
    let (fresh, _, _) = prospector(&["query", "IFile", "ASTNode"]);
    assert_eq!(loaded, fresh);
    std::fs::remove_file(&path).ok();
}

#[test]
fn json_debug_dump_is_written_but_never_loaded() {
    let dir = std::env::temp_dir().join("prospector-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine-debug.json");
    let path_str = path.to_str().unwrap();
    let (stdout, stderr, ok) = prospector(&["index", "build", "--json", "-o", path_str]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("JSON debug format"), "{stdout}");
    assert!(std::fs::read_to_string(&path).unwrap().starts_with('{'));

    // Only `.pspk` snapshots load: the dump is refused, by name, both as
    // an engine and by `index inspect`.
    let (_, stderr, ok) = prospector(&["--index", path_str, "query", "IFile", "ASTNode"]);
    assert!(!ok, "a JSON dump must not load as an index");
    assert!(stderr.contains("not a prospector snapshot"), "{stderr}");
    let (_, stderr, ok) = prospector(&["index", "inspect", path_str]);
    assert!(!ok, "a JSON dump must not inspect as a snapshot");
    assert!(stderr.contains("not a prospector snapshot"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_binary_index_fails_with_a_typed_message() {
    let dir = std::env::temp_dir().join("prospector-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine-corrupt.pspk");
    let path_str = path.to_str().unwrap();
    let (_, stderr, ok) = prospector(&["index", "build", "-o", path_str]);
    assert!(ok, "stderr: {stderr}");

    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();

    let (_, stderr, ok) = prospector(&["--index", path_str, "query", "IFile", "ASTNode"]);
    assert!(!ok);
    assert!(stderr.contains("corrupt"), "typed corruption message expected: {stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn serve_warm_start_records_store_stage_and_no_build_stages() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = std::env::temp_dir().join("prospector-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine-warm.pspk");
    let path_str = path.to_str().unwrap();
    let (_, stderr, ok) = prospector(&["index", "build", "-o", path_str]);
    assert!(ok, "stderr: {stderr}");

    let mut child = Command::new(env!("CARGO_BIN_EXE_prospector"))
        .args(["--index", path_str, "serve", "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("serve prints its address").expect("readable");
        if let Some(rest) = line.strip_prefix("serving on http://") {
            break rest.trim().to_owned();
        }
    };

    let get = |path: &str| -> String {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response.split_once("\r\n\r\n").expect("body").1.to_owned()
    };

    assert_eq!(get("/healthz"), "ok\n");
    let body = get("/query?tin=IFile&tout=ASTNode");
    assert!(body.contains("AST.parseCompilationUnit("), "{body}");

    // The acceptance bar for warm starting: the pipeline record shows the
    // snapshot load and *zero* graph-build or mining work at startup.
    let metrics = get("/metrics");
    assert!(metrics.contains("stage=\"store\""), "store stage missing:\n{metrics}");
    for cold_stage in ["stage=\"build\"", "stage=\"mine\"", "stage=\"generalize\""] {
        assert!(
            !metrics.contains(cold_stage),
            "warm start must not run {cold_stage}:\n{metrics}"
        );
    }
    assert!(metrics.contains("prospector_store_loads_total"), "{metrics}");

    child.kill().expect("stop server");
    child.wait().expect("reap server");
    std::fs::remove_file(&path).ok();
}

#[test]
fn serve_core_flag_is_an_unknown_argument() {
    let (_, stderr, ok) = prospector(&["serve", "--serve-core", "pool"]);
    assert!(!ok);
    assert!(stderr.contains("unknown argument `--serve-core`"), "{stderr}");
}

#[test]
fn missing_index_fails_cleanly() {
    let (_, stderr, ok) = prospector(&["--index", "/nonexistent/engine.idx", "query", "IFile", "ASTNode"]);
    assert!(!ok);
    assert!(stderr.contains("/nonexistent/engine.idx"));
}

#[test]
fn unknown_command_fails() {
    let (_, stderr, ok) = prospector(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}
