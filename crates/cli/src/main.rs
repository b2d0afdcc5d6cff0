//! `prospector` — the command-line analog of the paper's Eclipse plugin.
//!
//! Subcommands:
//!
//! * `query <TIN> <TOUT>` — an explicit jungloid query (§2.1);
//! * `assist <TOUT> [--var name:Type]...` — a content-assist query from a
//!   set of visible variables (§5);
//! * `complete <file.mj> <method> <var>` — the full content-assist flow:
//!   parse a MiniJava file, find the uninitialized local `var` in
//!   `method`, infer the query from the surrounding context, and print
//!   insertable code;
//! * `table1` — regenerate Table 1;
//! * `study [--seed N]` — run the simulated user study (Figure 8);
//! * `compose <TIN> <TOUT>` — answer a query and automatically bind its
//!   free variables with follow-up queries (§2.2's composition);
//! * `explain <TIN> <TOUT> [RANK]` — annotate one suggestion step by
//!   step (kind, types, free variables);
//! * `graph <TYPE>...` — render the neighborhood of the given types as
//!   Graphviz DOT (the paper's figure style);
//! * `mine` — show the mined + generalized example jungloids;
//! * `index build [<stub.api>...] [--corpus <dir>] [-o <path>]` — build
//!   the engine and snapshot it as a versioned binary `.pspk` (§5's
//!   on-disk graph; `--json` writes the human-readable debug format
//!   instead); `index inspect <path>` prints the validated section
//!   breakdown; `index <path>` is shorthand for `index build -o <path>`;
//!   `--index <path>` on any command warm-starts from a v3 binary
//!   snapshot instead of rebuilding (a `--json` dump or an older format
//!   version is refused);
//! * `stats` — graph statistics (§5's size numbers).
//!
//! Engine flags (before the subcommand arguments): `--no-mining`,
//! `--no-generalize`, `--include-protected`, `--jungle` (grow the
//! paper-scale distractor jungle), `--max N` (suggestions to print).
//!
//! Observability flags (any subcommand): `--metrics` prints the metric
//! registry — per-stage pipeline timings, counters, gauges — after the
//! command runs; `--metrics-json <path>` writes the same snapshot as a
//! machine-readable JSON document (see the README's metric schema);
//! `--slow-ms <N>` turns the flight recorder on and retains the full
//! timeline of any query slower than `N` ms (dumped to stderr at exit);
//! `--slow-log-cap <N>` bounds how many slow-query timelines are
//! retained (default 32); `--trace-json <path>` turns the flight
//! recorder on and writes the recorded ring as Chrome-trace JSON after
//! the command.
//!
//! `serve [--addr host:port] [--workers N] [--access-log <path>]
//! [--tenant name=path.pspk]... [--tenants-dir <dir>]` runs the std-only
//! observability HTTP server (`/metrics`, `/healthz`, `/readyz`,
//! `/status`, `/query`, `/assist`, `/slow`, `/trace.json`, `/logs`,
//! `/tenants`, `/reload`) on `--workers` serve threads (default:
//! available parallelism) sharing the epoll core, so serving is
//! Linux/x86_64-only — see the `serve` module in the library half of
//! this crate. The structured access log goes to stderr unless
//! `--access-log` redirects it to a file. The server is multi-tenant: `--index` (or an
//! in-process build) becomes the `default` tenant, each `--tenant
//! name=path.pspk` adds a named tenant, `--tenants-dir` registers one
//! tenant per `.pspk` in a directory (named by file stem), and `POST
//! /reload?tenant=` hot-swaps a tenant's engine with zero downtime.

use std::process::ExitCode;

use jungloid_minijava::ast::{Stmt, TypeName};
use jungloid_typesys::TyId;
use prospector_core::synth::synthesize_statements;
use prospector_core::Prospector;
use prospector_corpora::{build, jungle::JungleSpec, report, BuildOptions};
use prospector_obs::Gauge;
use prospector_study::{simulate, StudyConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("prospector: {message}");
            ExitCode::FAILURE
        }
    }
}

struct Flags {
    options: BuildOptions,
    max: usize,
    seed: u64,
    index: Option<String>,
    metrics: bool,
    metrics_json: Option<String>,
    slow_ms: Option<u64>,
    slow_log_cap: Option<usize>,
    trace_json: Option<String>,
    rest: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut options = BuildOptions::default();
    let mut max = 5usize;
    let mut seed = StudyConfig::default().seed;
    let mut index = None;
    let mut metrics = false;
    let mut metrics_json = None;
    let mut slow_ms = None;
    let mut slow_log_cap = None;
    let mut trace_json = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--no-mining" => options.mining = false,
            "--no-generalize" => options.generalize = false,
            "--include-protected" => options.include_protected = true,
            "--mine-params" => options.param_mining = true,
            "--extended" => options.extended = true,
            "--jungle" => options.jungle = Some(JungleSpec::default()),
            "--max" => {
                max = it
                    .next()
                    .ok_or("--max needs a number")?
                    .parse()
                    .map_err(|_| "--max needs a number".to_owned())?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a number")?
                    .parse()
                    .map_err(|_| "--seed needs a number".to_owned())?;
            }
            "--index" => {
                index = Some(it.next().ok_or("--index needs a path")?.clone());
            }
            "--metrics" => metrics = true,
            "--metrics-json" => {
                metrics_json = Some(it.next().ok_or("--metrics-json needs a path")?.clone());
            }
            "--slow-ms" => {
                slow_ms = Some(
                    it.next()
                        .ok_or("--slow-ms needs a number")?
                        .parse()
                        .map_err(|_| "--slow-ms needs a number".to_owned())?,
                );
            }
            "--slow-log-cap" => {
                slow_log_cap = Some(
                    it.next()
                        .ok_or("--slow-log-cap needs a number")?
                        .parse()
                        .map_err(|_| "--slow-log-cap needs a number".to_owned())?,
                );
            }
            "--trace-json" => {
                trace_json = Some(it.next().ok_or("--trace-json needs a path")?.clone());
            }
            other => rest.push(other.to_owned()),
        }
    }
    Ok(Flags {
        options,
        max,
        seed,
        index,
        metrics,
        metrics_json,
        slow_ms,
        slow_log_cap,
        trace_json,
        rest,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    if flags.metrics || flags.metrics_json.is_some() {
        prospector_obs::set_enabled(true);
    }
    // Trace ids are deterministic in the seed, so a re-run with the same
    // `--seed` and batch file reproduces the same id sequence (and thus
    // a byte-comparable Chrome trace). Flag precedence mirrors
    // `--metrics`: tracing is off unless a flag that needs it is present
    // (`--slow-ms`, `--trace-json`, or the `serve`/`explain` commands);
    // there is no environment-variable override.
    prospector_obs::trace::set_seed(flags.seed);
    if let Some(ms) = flags.slow_ms {
        // The recorder treats threshold 0 as "slow log off"; passing the
        // flag is already the opt-in, so `--slow-ms 0` clamps to 1 ns and
        // retains every query's timeline.
        prospector_obs::trace::global()
            .set_slow_threshold_ns(ms.saturating_mul(1_000_000).max(1));
        prospector_obs::trace::set_enabled(true);
    }
    if flags.trace_json.is_some() {
        prospector_obs::trace::set_enabled(true);
    }
    if let Some(cap) = flags.slow_log_cap {
        prospector_obs::trace::set_slow_log_cap(cap);
    }
    let result = run_command(&flags);
    // Emit metrics even when the command failed — the partial pipeline
    // record is exactly what a failure investigation wants.
    let emitted = emit_metrics(&flags);
    let traced = emit_traces(&flags);
    result.and(emitted).and(traced)
}

/// Writes the Chrome-trace export and prints the slow-query log after
/// the command finishes, when the corresponding flags asked for them.
fn emit_traces(flags: &Flags) -> Result<(), String> {
    if let Some(path) = &flags.trace_json {
        let doc = prospector_obs::trace::to_chrome_json(&prospector_obs::trace::events());
        std::fs::write(path, doc.to_text()).map_err(|e| format!("{path}: {e}"))?;
    }
    if flags.slow_ms.is_some() {
        let slow = prospector_obs::trace::slow_queries();
        if !slow.is_empty() {
            eprint!("{}", prospector_obs::trace::format_slow_log(&slow));
        }
    }
    Ok(())
}

fn emit_metrics(flags: &Flags) -> Result<(), String> {
    if !flags.metrics && flags.metrics_json.is_none() {
        return Ok(());
    }
    let snap = prospector_obs::snapshot();
    if let Some(path) = &flags.metrics_json {
        let doc = prospector_obs::report::to_json(&snap);
        std::fs::write(path, doc.to_text()).map_err(|e| format!("{path}: {e}"))?;
    }
    if flags.metrics {
        print!("{}", prospector_obs::report::to_text(&snap));
    }
    Ok(())
}

fn run_command(flags: &Flags) -> Result<(), String> {
    let Some(command) = flags.rest.first() else {
        print_usage();
        return Ok(());
    };
    match command.as_str() {
        "query" => {
            let mut batch: Option<String> = None;
            let mut threads: Option<usize> = None;
            let mut positional: Vec<String> = Vec::new();
            let mut it = flags.rest[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--batch" => {
                        batch = Some(it.next().ok_or("--batch needs a path")?.clone());
                    }
                    "--threads" => {
                        threads = Some(
                            it.next()
                                .ok_or("--threads needs a number")?
                                .parse()
                                .map_err(|_| "--threads needs a number".to_owned())?,
                        );
                    }
                    other => positional.push(other.to_owned()),
                }
            }
            if let Some(path) = batch {
                if !positional.is_empty() {
                    return Err("query --batch takes no positional types".to_owned());
                }
                return query_batch(flags, &path, threads);
            }
            let [tin, tout] = positional.as_slice() else {
                return Err(
                    "usage: prospector query <TIN> <TOUT> | query --batch <file> [--threads N]"
                        .to_owned(),
                );
            };
            let engine = engine(flags)?;
            let tin = resolve(&engine, tin)?;
            let tout = resolve(&engine, tout)?;
            let result = engine.query(tin, tout).map_err(|e| e.to_string())?;
            print_suggestions(&engine, &result.suggestions, flags.max);
            if result.truncation.truncated() {
                println!(
                    "note: enumeration truncated ({}); some jungloids were not explored",
                    result.truncation
                );
            }
            Ok(())
        }
        "assist" => {
            let mut visible: Vec<(String, String)> = Vec::new();
            let mut tout = None;
            let mut it = flags.rest[1..].iter();
            while let Some(a) = it.next() {
                if a == "--var" {
                    let spec = it.next().ok_or("--var needs name:Type")?;
                    let (name, ty) =
                        spec.split_once(':').ok_or("--var needs name:Type")?;
                    visible.push((name.to_owned(), ty.to_owned()));
                } else {
                    tout = Some(a.clone());
                }
            }
            let tout = tout.ok_or("usage: prospector assist <TOUT> [--var name:Type]...")?;
            let engine = engine(flags)?;
            let tout = resolve(&engine, &tout)?;
            let vars: Vec<(&str, TyId)> = visible
                .iter()
                .map(|(n, t)| Ok((n.as_str(), resolve(&engine, t)?)))
                .collect::<Result<_, String>>()?;
            let result = engine.assist(&vars, tout).map_err(|e| e.to_string())?;
            for name in &result.already_available {
                println!("note: variable `{name}` already has the requested type");
            }
            print_suggestions(&engine, &result.suggestions, flags.max);
            if result.truncation.truncated() {
                println!(
                    "note: enumeration truncated ({}); some jungloids were not explored",
                    result.truncation
                );
            }
            Ok(())
        }
        "complete" => {
            let [_, file, method, var] = flags.rest.as_slice() else {
                return Err("usage: prospector complete <file.mj> <method> <var>".to_owned());
            };
            complete(flags, file, method, var)
        }
        "table1" => {
            let engine = engine(flags)?;
            let rows = report::run_table1(&engine);
            println!("{}", report::format_table1(&rows));
            Ok(())
        }
        "study" => {
            let engine = engine(flags)?;
            let config = StudyConfig { seed: flags.seed, ..StudyConfig::default() };
            let studied = simulate(&engine, &config);
            println!("{}", studied.format_figure8());
            Ok(())
        }
        "mine" => {
            let built = build(&flags.options).map_err(|e| e.to_string())?;
            let engine = built.prospector;
            if let Some(mined) = &built.mine_report {
                println!(
                    "{} cast sites, {} raw examples ({} capped sites)",
                    mined.cast_sites,
                    mined.examples.len(),
                    mined.capped_casts
                );
            }
            println!("{} generalized paths spliced into the graph:", engine.graph().examples().len());
            for e in engine.graph().examples() {
                let labels: Vec<String> = e.iter().map(|s| s.label(engine.api())).collect();
                println!("  {}", labels.join(" . "));
            }
            Ok(())
        }
        "explain" => {
            if flags.rest.len() < 3 {
                return Err("usage: prospector explain <TIN> <TOUT> [RANK]".to_owned());
            }
            let engine = engine(flags)?;
            let tin = resolve(&engine, &flags.rest[1])?;
            let tout = resolve(&engine, &flags.rest[2])?;
            let rank: usize = flags
                .rest
                .get(3)
                .map_or(Ok(1), |r| r.parse().map_err(|_| "RANK must be a number".to_owned()))?;
            // `explain` replays the flight recorder's timeline for the
            // query it just ran instead of re-deriving a narrative, so
            // what it prints is exactly what the trace captured.
            prospector_obs::trace::set_enabled(true);
            let result = engine.query(tin, tout).map_err(|e| e.to_string())?;
            let Some(s) = result.suggestions.get(rank.saturating_sub(1)) else {
                return Err(format!("only {} suggestions", result.suggestions.len()));
            };
            println!("{}", s.code);
            print!("{}", prospector_core::explain::format_explanation(engine.api(), &s.jungloid));
            let id = prospector_obs::trace::TraceId(result.stats.trace_id);
            let timeline = prospector_obs::trace::events_for(id);
            if !timeline.is_empty() {
                println!("\nrecorded timeline (trace {id}):");
                print!("{}", prospector_obs::trace::format_timeline(&timeline));
            }
            Ok(())
        }
        "compose" => {
            let [_, tin, tout] = flags.rest.as_slice() else {
                return Err("usage: prospector compose <TIN> <TOUT>".to_owned());
            };
            let engine = engine(flags)?;
            let tin_ty = resolve(&engine, tin)?;
            let tout_ty = resolve(&engine, tout)?;
            let result = engine.query(tin_ty, tout_ty).map_err(|e| e.to_string())?;
            let Some(best) = result.suggestions.first() else {
                println!("no jungloids found");
                return Ok(());
            };
            let input_name = {
                // `IEditorPart` -> `editorPart`, `Shell` -> `shell`.
                let stripped = match tin.as_bytes() {
                    [b'I', second, ..] if second.is_ascii_uppercase() && tin.len() > 2 => &tin[1..],
                    _ => tin.as_str(),
                };
                let mut c = stripped.chars();
                let first = c.next().map(|f| f.to_lowercase().to_string()).unwrap_or_default();
                format!("{first}{}", c.as_str())
            };
            let composed = prospector_core::compose(
                &engine,
                &best.jungloid,
                Some(&input_name),
                &[(&input_name, tin_ty)],
                &prospector_core::ComposeConfig::default(),
            )
            .ok_or("empty jungloid")?;
            println!("{}", composed.render());
            if !composed.is_complete() {
                for (name, ty) in &composed.unresolved {
                    println!(
                        "// `{name}` ({}) could not be bound by any follow-up query",
                        engine.api().types().display(*ty)
                    );
                }
            }
            Ok(())
        }
        "graph" => {
            if flags.rest.len() < 2 {
                return Err("usage: prospector graph <TYPE>...".to_owned());
            }
            let engine = engine(flags)?;
            let roots = flags.rest[1..]
                .iter()
                .map(|n| Ok(prospector_core::NodeId::Ty(resolve(&engine, n)?)))
                .collect::<Result<Vec<_>, String>>()?;
            let dot = prospector_core::dot::neighborhood(
                engine.api(),
                engine.graph(),
                &roots,
                &prospector_core::dot::DotOptions::default(),
            );
            println!("{dot}");
            Ok(())
        }
        "index" => match flags.rest.get(1).map(String::as_str) {
            Some("build") => index_build(flags, &flags.rest[2..]),
            Some("inspect") => {
                let mut layout = false;
                let mut path: Option<&str> = None;
                for a in &flags.rest[2..] {
                    match a.as_str() {
                        "--layout" => layout = true,
                        p if path.is_none() => path = Some(p),
                        _ => return Err(
                            "usage: prospector index inspect <path> [--layout]".to_owned()
                        ),
                    }
                }
                let Some(path) = path else {
                    return Err("usage: prospector index inspect <path> [--layout]".to_owned());
                };
                index_inspect(path, layout)
            }
            Some(path) if flags.rest.len() == 2 => {
                index_build(flags, &["-o".to_owned(), path.to_owned()])
            }
            _ => Err(
                "usage: prospector index build [<stub.api>...] [--corpus <dir>] [-o <path>] \
                 | index inspect <path> [--layout] | index <path>"
                    .to_owned(),
            ),
        },
        "serve" => {
            let mut addr = "127.0.0.1:7878".to_owned();
            let mut workers: Option<usize> = None;
            let mut access_log: Option<String> = None;
            let mut mmap = false;
            let mut tenants: Vec<(String, String)> = Vec::new();
            let mut tenants_dir: Option<String> = None;
            let mut opts = prospector_cli::serve::ServeOptions::default();
            let mut it = flags.rest[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => addr = it.next().ok_or("--addr needs host:port")?.clone(),
                    "--workers" => {
                        workers = Some(
                            it.next()
                                .ok_or("--workers needs a number")?
                                .parse()
                                .map_err(|_| "--workers needs a number".to_owned())?,
                        );
                    }
                    "--access-log" => {
                        access_log =
                            Some(it.next().ok_or("--access-log needs a path")?.clone());
                    }
                    "--mmap" => mmap = true,
                    "--keepalive-max" => {
                        opts.keepalive_max = it
                            .next()
                            .ok_or("--keepalive-max needs a number")?
                            .parse()
                            .map_err(|_| "--keepalive-max needs a number".to_owned())?;
                    }
                    "--idle-timeout" => {
                        let secs: u64 = it
                            .next()
                            .ok_or("--idle-timeout needs seconds")?
                            .parse()
                            .map_err(|_| "--idle-timeout needs seconds".to_owned())?;
                        opts.idle_timeout = std::time::Duration::from_secs(secs);
                    }
                    "--max-inflight" => {
                        opts.max_inflight = it
                            .next()
                            .ok_or("--max-inflight needs a number")?
                            .parse()
                            .map_err(|_| "--max-inflight needs a number".to_owned())?;
                    }
                    "--tenant" => {
                        let spec = it.next().ok_or("--tenant needs name=path.pspk")?;
                        let (name, path) = spec
                            .split_once('=')
                            .ok_or("--tenant needs name=path.pspk")?;
                        tenants.push((name.to_owned(), path.to_owned()));
                    }
                    "--tenants-dir" => {
                        tenants_dir =
                            Some(it.next().ok_or("--tenants-dir needs a directory")?.clone());
                    }
                    other => return Err(format!("serve: unknown argument `{other}`")),
                }
            }
            if mmap && flags.index.is_none() && tenants.is_empty() && tenants_dir.is_none() {
                return Err("serve: --mmap requires --index <snapshot.pspk>".to_owned());
            }
            // Bind before constructing the engines: binding enables the
            // metric registry, flight recorder, and access log, so the
            // very first scrape shows how this process started — a
            // `store` span for a warm start, the build/mine pipeline for
            // a cold one.
            let mut server = prospector_cli::serve::Server::bind(&addr)?;
            if let Some(n) = workers {
                server.set_workers(n);
            }
            if let Some(path) = &access_log {
                prospector_obs::log::set_file(path)?;
            }
            // The default tenant preserves every single-tenant URL: it is
            // warm-started from `--index` when given, built in-process
            // otherwise. Further tenants load from their own snapshots.
            let registry = if let Some(path) = &flags.index {
                let (engine, provenance) = prospector_registry::load_engine(path, mmap)?;
                prospector_registry::Registry::with_default(engine, provenance)
            } else {
                let engine = build(&flags.options).map_err(|e| e.to_string())?.prospector;
                prospector_registry::Registry::with_default(
                    engine,
                    prospector_registry::Provenance::built(),
                )
            };
            for (name, path) in &tenants {
                registry
                    .add_from_path(name, path, mmap)
                    .map_err(|e| e.to_string())?;
            }
            if let Some(dir) = &tenants_dir {
                prospector_registry::add_tenants_dir(&registry, dir, mmap)?;
            }
            let bound = server.local_addr()?;
            // Keep the address line bare: tooling (and the warm-start
            // test) parses everything after the scheme as the address.
            println!("serving on http://{bound}");
            println!("  {} tenant(s): {}", registry.len(), registry.names().join(", "));
            println!("  GET /healthz     liveness");
            println!("  GET /readyz      readiness + warm-start provenance (JSON)");
            println!("  GET /metrics     Prometheus text exposition (per-tenant labeled series)");
            println!("  GET /status      SLO introspection: windowed latency, rates, pool, RSS, tenants (JSON)");
            println!("  GET /query?tin=..&tout=..[&tenant=]  ranked jungloids + trace_id");
            println!("  GET /assist?var=n:T&tout=..[&tenant=]  content-assist fan-out (JSON)");
            println!("  GET /slow        retained slow-query timelines (JSON; ?clear=1 resets)");
            println!("  GET /trace.json  flight-recorder ring as Chrome trace");
            println!("  GET /logs?n=     newest structured access-log records (JSON)");
            println!("  GET /tenants     tenant manifest: state, provenance, epoch, sizes (JSON)");
            println!("  POST /tenants?name=&path=  register a tenant from a snapshot");
            println!("  POST /reload?tenant=  hot-reload a tenant's engine (zero downtime)");
            // The CLI has no signal handling (std-only), so the flag is
            // never flipped here: the process serves until killed. Tests
            // drive `Server::run` in-process and flip it for a clean join.
            let shutdown = std::sync::atomic::AtomicBool::new(false);
            opts.max = flags.max;
            opts.mmap = mmap;
            server.run(&registry, &opts, &shutdown)
        }
        "stats" => {
            // `stats` always times the pipeline so the §5 size report
            // carries per-stage build timings alongside the graph counts.
            prospector_obs::set_enabled(true);
            if let Some(other) = flags.rest.get(1) {
                return Err(format!("stats: unknown argument `{other}`"));
            }
            let engine = engine(flags)?;
            let g = engine.graph();
            let stats = g.stats(engine.api());
            println!("types:        {}", engine.api().types().len());
            println!("methods:      {}", engine.api().method_count());
            println!("fields:       {}", engine.api().field_count());
            println!("graph nodes:  {} ({} mined)", stats.nodes, stats.mined_nodes);
            println!("graph edges:  {}", stats.total_edges());
            println!("  field:       {}", stats.field_edges);
            println!("  instance:    {}", stats.instance_edges);
            println!("  static:      {}", stats.static_edges);
            println!("  constructor: {}", stats.constructor_edges);
            println!("  widening:    {}", stats.widening_edges);
            println!("  downcast:    {} (mined examples: {})", stats.downcast_edges, stats.examples);
            println!("approx bytes: {}", g.approx_bytes());
            if let Some(path) = &flags.index {
                if let Ok(bytes) = std::fs::read(path) {
                    if let Ok(m) = prospector_store::manifest(&bytes) {
                        println!(
                            "snapshot sections (format v{}, {} bytes total):",
                            m.version, m.total_bytes
                        );
                        for s in &m.sections {
                            println!("  {:<9} {:>9} bytes", s.name, s.bytes);
                        }
                    }
                }
            }
            // `--metrics` prints the same block once the command returns.
            if !flags.metrics {
                print!("{}", prospector_obs::report::to_text(&prospector_obs::snapshot()));
            }
            Ok(())
        }
        "synth" => {
            let mut spec = prospector_corpora::synth::SynthSpec {
                seed: flags.seed,
                ..prospector_corpora::synth::SynthSpec::default()
            };
            let mut out: Option<String> = None;
            let mut queries: Option<String> = None;
            let mut it = flags.rest[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--types" => {
                        spec.types = it
                            .next()
                            .ok_or("--types needs a number")?
                            .parse()
                            .map_err(|_| "--types needs a number".to_owned())?;
                    }
                    "--alpha" => {
                        spec.alpha = it
                            .next()
                            .ok_or("--alpha needs a number")?
                            .parse()
                            .map_err(|_| "--alpha needs a number".to_owned())?;
                    }
                    "--planted" => {
                        spec.planted = it
                            .next()
                            .ok_or("--planted needs a number")?
                            .parse()
                            .map_err(|_| "--planted needs a number".to_owned())?;
                    }
                    "--plant-len" => {
                        spec.plant_len = it
                            .next()
                            .ok_or("--plant-len needs a number")?
                            .parse()
                            .map_err(|_| "--plant-len needs a number".to_owned())?;
                    }
                    "-o" | "--out" => {
                        out = Some(it.next().ok_or("-o needs a path")?.clone());
                    }
                    "--queries" => {
                        queries = Some(it.next().ok_or("--queries needs a path")?.clone());
                    }
                    other => return Err(format!("synth: unknown argument `{other}`")),
                }
            }
            let mut api = jungloid_apidef::ApiLoader::with_prelude()
                .finish()
                .map_err(|e| e.to_string())?;
            let report = prospector_corpora::synth::grow_synth(&mut api, &spec);
            let engine = Prospector::new(api);
            println!(
                "synth jungle: {} classes, {} methods, {} planted paths of {} hops (seed {})",
                report.classes,
                report.methods,
                report.planted.len(),
                spec.plant_len,
                spec.seed
            );
            println!(
                "graph: {} nodes, {} edges",
                engine.graph().node_count(),
                engine.graph().edge_count()
            );
            if let Some(path) = &queries {
                // Planted ground-truth pairs in `query --batch` format:
                // one `TIN TOUT` pair per line.
                let mut lines = String::new();
                for p in &report.planted {
                    lines.push_str(&p.tin);
                    lines.push(' ');
                    lines.push_str(&p.tout);
                    lines.push('\n');
                }
                std::fs::write(path, lines).map_err(|e| format!("{path}: {e}"))?;
                println!("wrote {path}: {} planted query pairs", report.planted.len());
            }
            if let Some(path) = &out {
                let manifest = prospector_store::save_file(
                    std::path::Path::new(path),
                    engine.api(),
                    engine.graph(),
                    &[],
                )
                .map_err(|e| e.to_string())?;
                println!(
                    "wrote {path}: {:.1} MB, snapshot format v{}",
                    manifest.total_bytes as f64 / (1024.0 * 1024.0),
                    manifest.version
                );
            }
            Ok(())
        }
        other => {
            print_usage();
            Err(format!("unknown command `{other}`"))
        }
    }
}

fn engine(flags: &Flags) -> Result<CommandEngine, String> {
    let engine = match &flags.index {
        Some(path) => prospector_registry::load_engine(path, false)?.0,
        None => build(&flags.options).map_err(|e| e.to_string())?.prospector,
    };
    Ok(CommandEngine(engine))
}

/// The engine a one-shot command runs on. Dropping it — when the command
/// returns, failed or not — sets the `engine.{dist,result}_cache.entries`
/// gauges to its cache sizes, so `--metrics` and `--metrics-json` report
/// this engine's caches as the command left them.
struct CommandEngine(Prospector);

impl std::ops::Deref for CommandEngine {
    type Target = Prospector;

    fn deref(&self) -> &Prospector {
        &self.0
    }
}

impl Drop for CommandEngine {
    fn drop(&mut self) {
        // A panic may have poisoned a cache shard, and reading it would
        // panic again inside this drop.
        if std::thread::panicking() {
            return;
        }
        let status = self.0.status();
        prospector_obs::gauge_set(Gauge::EngineDistCacheEntries, status.dist_cache_entries);
        prospector_obs::gauge_set(Gauge::EngineResultCacheEntries, status.result_cache_entries);
    }
}

/// `index build [<stub.api>...] [--corpus <dir>] [-o <path>] [--json]`.
///
/// With no stubs and no corpus this snapshots the bundled evaluation
/// engine (honoring the engine flags); with stubs, a custom API is
/// loaded and an optional `--corpus` directory of `.mj` files is mined.
/// `--json` writes a human-readable debug dump instead of a snapshot;
/// the dump cannot be loaded back.
fn index_build(flags: &Flags, args: &[String]) -> Result<(), String> {
    let mut stubs: Vec<String> = Vec::new();
    let mut corpus: Option<String> = None;
    let mut out = "idx.pspk".to_owned();
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--corpus" => corpus = Some(it.next().ok_or("--corpus needs a directory")?.clone()),
            "-o" | "--out" => out = it.next().ok_or("-o needs a path")?.clone(),
            "--json" => json = true,
            other => stubs.push(other.to_owned()),
        }
    }
    let (engine, mined) = if stubs.is_empty() && corpus.is_none() {
        let built = build(&flags.options).map_err(|e| e.to_string())?;
        let mined = built.mine_report.map(|r| r.examples).unwrap_or_default();
        (built.prospector, mined)
    } else {
        build_custom(flags, &stubs, corpus.as_deref())?
    };
    let path = std::path::Path::new(&out);
    if json {
        let doc = prospector_obs::Json::obj(vec![
            ("api", engine.api().to_json()),
            ("graph", engine.graph().to_json()),
        ])
        .to_text();
        std::fs::write(path, &doc).map_err(|e| format!("{out}: {e}"))?;
        let bytes = doc.len();
        println!(
            "wrote {out} (JSON debug format): {:.1} MB, {} nodes, {} edges",
            bytes as f64 / (1024.0 * 1024.0),
            engine.graph().node_count(),
            engine.graph().edge_count()
        );
        return Ok(());
    }
    let manifest = prospector_store::save_file(path, engine.api(), engine.graph(), &mined)
        .map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {:.1} MB, snapshot format v{}, {} nodes, {} edges",
        manifest.total_bytes as f64 / (1024.0 * 1024.0),
        manifest.version,
        engine.graph().node_count(),
        engine.graph().edge_count()
    );
    let mut pad_total: u64 = 0;
    for s in &manifest.sections {
        pad_total += u64::from(s.pad_bytes);
        println!(
            "  {:<9} {:>9} bytes  pad {}  crc32 {:#010x}",
            s.name, s.bytes, s.pad_bytes, s.crc32
        );
    }
    println!(
        "  padding overhead: {pad_total} bytes ({:.3}% of file)",
        pad_total as f64 * 100.0 / manifest.total_bytes as f64
    );
    Ok(())
}

fn build_custom(
    flags: &Flags,
    stubs: &[String],
    corpus: Option<&str>,
) -> Result<(Prospector, Vec<Vec<jungloid_apidef::ElemJungloid>>), String> {
    let mut loader = jungloid_apidef::ApiLoader::with_prelude();
    for path in stubs {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        loader.add_source(path, &text).map_err(|e| e.to_string())?;
    }
    let mut api = loader.finish().map_err(|e| e.to_string())?;
    let mut report = None;
    if let Some(dir) = corpus {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{dir}: {e}"))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "mj"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("{dir}: no .mj corpus files"));
        }
        let mut units = Vec::new();
        for f in &files {
            let name = f.display().to_string();
            let text = std::fs::read_to_string(f).map_err(|e| format!("{name}: {e}"))?;
            units.push(
                jungloid_minijava::parse::parse_unit(&name, &text).map_err(|e| e.to_string())?,
            );
        }
        let lowered = jungloid_dataflow::LoweredCorpus::lower(&mut api, &units)
            .map_err(|e| e.to_string())?;
        let mut miner = jungloid_dataflow::Miner::new(&api, &lowered);
        miner.config = flags.options.miner;
        report = Some(miner.mine());
    }
    let mut engine = Prospector::with_config(
        api,
        prospector_core::GraphConfig {
            include_protected: flags.options.include_protected,
            restrict_weak_params: flags.options.param_mining,
        },
    );
    let mut mined = Vec::new();
    if let Some(r) = report {
        if flags.options.mining {
            engine
                .add_examples(&r.examples, flags.options.generalize)
                .map_err(|e| e.to_string())?;
            mined = r.examples;
        }
    }
    Ok((engine, mined))
}

/// `index inspect <path> [--layout]`: the validated manifest plus
/// decoded counts; `--layout` adds the per-section byte map (frame and
/// payload offsets, padding) that documents where the zero-copy loader
/// borrows its views from.
fn index_inspect(path: &str, layout: bool) -> Result<(), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let m = prospector_store::manifest(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let snap = prospector_store::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: prospector snapshot, format v{}, {} bytes", m.version, m.total_bytes);
    // The mode a loader would achieve: borrowing (mmap or zero-copy
    // buffer views) needs every section 8-aligned.
    let mappable = m.sections.iter().all(|s| s.offset % 8 == 0);
    println!("  graph epoch:   {}", snap.graph.epoch());
    println!(
        "  snapshot mode: {}",
        if mappable { "mmap-capable (8-aligned sections)" } else { "owned-only" }
    );
    for s in &m.sections {
        // The framing check makes every payload 8-aligned; the flag is
        // the outside check of that rule.
        let aligned = if s.offset % 8 == 0 { "" } else { "  UNALIGNED" };
        println!(
            "  section {:<9} {:>9} bytes  offset {:>9}  pad {}  crc32 {:#010x}{aligned}",
            s.name, s.bytes, s.offset, s.pad_bytes, s.crc32
        );
    }
    if layout {
        let (header, frame) = (16u64, 24u64);
        println!("  layout:");
        println!("    {:>9}  {:>9}  region", "offset", "size");
        println!("    {:>9}  {:>9}  header", 0, header);
        for s in &m.sections {
            println!("    {:>9}  {:>9}  {} frame", s.offset - frame, frame, s.name);
            println!("    {:>9}  {:>9}  {} payload", s.offset, s.bytes, s.name);
            if s.pad_bytes > 0 {
                println!("    {:>9}  {:>9}  {} padding", s.offset + s.bytes, s.pad_bytes, s.name);
            }
        }
    }
    println!("  types:   {}", snap.api.types().len());
    println!("  methods: {}", snap.api.method_count());
    println!("  fields:  {}", snap.api.field_count());
    println!(
        "  nodes:   {} ({} mined)",
        snap.graph.node_count(),
        snap.graph.mined_node_count()
    );
    println!("  edges:   {}", snap.graph.edge_count());
    println!(
        "  mined examples: {}, generalized paths: {}",
        snap.mined_examples.len(),
        snap.graph.examples().len()
    );
    Ok(())
}

fn resolve(engine: &Prospector, name: &str) -> Result<TyId, String> {
    engine.api().types().resolve(name).map_err(|e| e.to_string())
}

fn print_suggestions(
    engine: &Prospector,
    suggestions: &[prospector_core::Suggestion],
    max: usize,
) {
    if suggestions.is_empty() {
        println!("no jungloids found");
        return;
    }
    for (i, s) in suggestions.iter().take(max).enumerate() {
        println!("{}. {}", i + 1, s.code);
        for line in s.snippet(engine.api()).free_var_decls(engine.api()) {
            println!("     {line}");
        }
    }
    if suggestions.len() > max {
        println!("... and {} more (use --max to see them)", suggestions.len() - max);
    }
}

/// The content-assist flow of §5: the declared type of the uninitialized
/// local is `tout`; the types of variables declared before it (plus the
/// method's parameters, plus `void`) are the `tin` set.
fn complete(flags: &Flags, file: &str, method_name: &str, var: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let unit = jungloid_minijava::parse::parse_unit(file, &text).map_err(|e| e.to_string())?;
    let method = unit
        .classes
        .iter()
        .flat_map(|c| &c.methods)
        .find(|m| m.name == method_name)
        .ok_or_else(|| format!("no method `{method_name}` in {file}"))?;

    let engine = engine(flags)?;
    let resolve_tn = |t: &TypeName| -> Result<TyId, String> {
        engine.api().types().resolve(&t.parts.join(".")).map_err(|e| e.to_string())
    };
    let mut visible: Vec<(String, TyId)> = Vec::new();
    for (ty, name) in &method.params {
        visible.push((name.clone(), resolve_tn(ty)?));
    }
    let mut target: Option<TyId> = None;
    for stmt in &method.body {
        if let Stmt::Local { ty, name, init } = stmt {
            if name == var && init.is_none() {
                target = Some(resolve_tn(ty)?);
                break;
            }
            visible.push((name.clone(), resolve_tn(ty)?));
        }
    }
    let tout =
        target.ok_or_else(|| format!("no uninitialized local `{var}` in `{method_name}`"))?;
    let vars: Vec<(&str, TyId)> = visible.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let result = engine.assist(&vars, tout).map_err(|e| e.to_string())?;
    println!(
        "completing `{}` in `{}` ({} candidates):",
        var,
        method_name,
        result.suggestions.len()
    );
    for (i, s) in result.suggestions.iter().take(flags.max).enumerate() {
        // Render the full §2.2-style statement sequence for the top pick.
        println!("{}. {}", i + 1, s.code);
        if i == 0 {
            let (stmts, _) =
                synthesize_statements(engine.api(), &s.jungloid, s.input_var.as_deref());
            for stmt in stmts {
                println!("     {}", jungloid_minijava::print::stmt_to_string(&stmt));
            }
        }
    }
    Ok(())
}

/// `query --batch <file>`: one `TIN TOUT` pair per line (blank lines and
/// `#` comments skipped), answered concurrently over the shared engine
/// and reported as JSON lines — one object per query in input order,
/// then one aggregate object.
fn query_batch(flags: &Flags, path: &str, threads: Option<usize>) -> Result<(), String> {
    use prospector_obs::Json;

    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let engine = engine(flags)?;
    let mut queries: Vec<(TyId, TyId)> = Vec::new();
    let mut names: Vec<(String, String)> = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(tin), Some(tout), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!("{path}:{}: expected `TIN TOUT`, got `{line}`", lineno + 1));
        };
        let tin_ty = resolve(&engine, tin).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let tout_ty = resolve(&engine, tout).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        queries.push((tin_ty, tout_ty));
        names.push((tin.to_owned(), tout.to_owned()));
    }
    if queries.is_empty() {
        return Err(format!("{path}: no queries (one `TIN TOUT` pair per line)"));
    }

    let started = std::time::Instant::now();
    let batch = match threads {
        Some(n) => engine.query_batch_threads(&queries, n),
        None => engine.query_batch(&queries),
    };
    let total = started.elapsed();

    let mut errors = 0usize;
    for (entry, (tin, tout)) in batch.iter().zip(&names) {
        // `trace_id` is preallocated in input order (before the worker
        // fan-out), so it is present — and deterministic under `--seed` —
        // even for queries that failed.
        let mut pairs = vec![
            ("tin", Json::Str(tin.clone())),
            ("tout", Json::Str(tout.clone())),
            ("trace_id", Json::num_u(entry.trace_id.0)),
        ];
        match &entry.result {
            Ok(result) => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push((
                    "shortest",
                    result.shortest.map_or(Json::Null, |m| Json::num_u(u64::from(m))),
                ));
                pairs.push(("truncation", Json::Str(result.truncation.label().to_owned())));
                pairs.push(("cached", Json::Bool(result.stats.result_cache_hits > 0)));
                pairs.push(("found", Json::num_u(result.suggestions.len() as u64)));
                pairs.push(("dist_cache_hits", Json::num_u(result.stats.dist_cache_hits)));
                pairs.push((
                    "dist_cache_misses",
                    Json::num_u(result.stats.dist_cache_misses),
                ));
                pairs.push(("dfs_expansions", Json::num_u(result.stats.dfs_expansions)));
                pairs.push((
                    "suggestions",
                    Json::Arr(
                        result
                            .suggestions
                            .iter()
                            .take(flags.max)
                            .map(|s| Json::Str(s.code.clone()))
                            .collect(),
                    ),
                ));
            }
            Err(e) => {
                errors += 1;
                pairs.push(("ok", Json::Bool(false)));
                pairs.push(("error", Json::Str(e.to_string())));
            }
        }
        pairs.push(("time_us", Json::num_u(entry.time.as_micros() as u64)));
        println!("{}", Json::obj(pairs).to_text());
    }

    let total_us = total.as_micros().max(1) as u64;
    let qps = queries.len() as f64 / (total_us as f64 / 1_000_000.0);
    let aggregate = Json::obj(vec![(
        "batch",
        Json::obj(vec![
            ("queries", Json::num_u(queries.len() as u64)),
            ("errors", Json::num_u(errors as u64)),
            (
                "threads",
                Json::num_u(threads.map_or_else(
                    || {
                        std::thread::available_parallelism()
                            .map_or(1, std::num::NonZeroUsize::get)
                            .min(queries.len()) as u64
                    },
                    |n| n.clamp(1, queries.len()) as u64,
                )),
            ),
            ("total_us", Json::num_u(total_us)),
            ("qps", Json::Num((qps * 10.0).round() / 10.0)),
        ]),
    )]);
    println!("{}", aggregate.to_text());
    Ok(())
}

fn print_usage() {
    println!(
        "prospector — jungloid synthesis over the modeled Eclipse/J2SE APIs

usage:
  prospector [flags] query <TIN> <TOUT>
  prospector [flags] query --batch <file> [--threads N]
  prospector [flags] assist <TOUT> [--var name:Type]...
  prospector [flags] complete <file.mj> <method> <var>
  prospector [flags] table1
  prospector [flags] study [--seed N]
  prospector [flags] mine
  prospector [flags] stats
  prospector [flags] index build [<stub.api>...] [--corpus <dir>] [-o <path>] [--json]
  prospector [flags] index inspect <path> [--layout]
  prospector [flags] serve [--addr host:port] [--workers N] [--access-log <path>] [--mmap]
                           [--tenant name=path.pspk]... [--tenants-dir <dir>]
                           [--keepalive-max N] [--idle-timeout SECS] [--max-inflight N]
  prospector [flags] synth --types N [--alpha F] [--planted N] [--plant-len N]
                           [-o <path.pspk>] [--queries <batch-file>]

flags: --no-mining --no-generalize --include-protected --mine-params --extended --jungle
       --max N --seed N --index <path> --metrics --metrics-json <path>
       --slow-ms N --slow-log-cap N --trace-json <path>"
    );
}
