//! `servebench` — the closed-loop serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload hot_repeat --seed 1 --seconds 10 --trace 0 [--types 100000]
//! ```
//!
//! Run from the repository root. One run:
//!
//! 1. a child process generates a seeded synthetic jungle
//!    (`grow_synth`, planted chains included) and saves it as a v2
//!    `.pspk` under `.bench_build/servebench/`;
//! 2. [`SETUP_CHILDREN`] fresh child processes each time one bring-up of
//!    the server from that snapshot (`load_engine` → `Registry::with_default`
//!    → `Server::bind`/`run` → first `200` from `/readyz`), half of them
//!    before the workload and half after it, and this process times one
//!    more before serving the workload, so `setup_s` is a median over
//!    processes that never generated the jungle, spread over the run;
//! 3. the workload is driven over keep-alive sockets as a closed loop of
//!    [`CONNECTIONS`] clients for `--seconds`, after an untimed warm-up;
//! 4. served answers are compared with a reference engine loaded from
//!    the same snapshot, and the planted chains are checked for
//!    precision@1;
//! 5. with `--trace 1`, a second engine replays the stream through the
//!    layers' public calls for the per-layer breakdown (see
//!    [`replay`]), and the spans are written to `trace.jsonl`.
//!
//! Every metric is printed as `metric <name> <value> <unit>`; the last
//! line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}` carrying the end-to-end metrics (`--trace 0`) or the
//! per-layer ones (`--trace 1`).

mod check;
mod client;
mod plan;
mod replay;
mod server;

use std::collections::HashMap;
use std::net::SocketAddr;
use std::process::Command;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use jungloid_apidef::ApiLoader;
use prospector_core::engine::EngineStatus;
use prospector_core::Prospector;
use prospector_corpora::synth::{grow_synth, SynthSpec};
use prospector_obs::Json;
use prospector_registry::{Registry, DEFAULT_TENANT};

use check::Reference;
use client::ConnOut;
use plan::{Plan, Planted, Req, Workload};
use server::Setup;

/// Bulk types in the jungle (`--types` overrides it for toy runs).
const DEFAULT_TYPES: usize = 100_000;
/// Closed-loop client connections: the CPU count of the 2-vCPU machine
/// the README's figures come from (every run prints its own `nproc`).
const CONNECTIONS: usize = 2;
/// Set-up samples taken in fresh child processes, half before the
/// workload and half after it; the serving process adds one more, and
/// `setup_s` is the median. One bring-up varies by ±15% from process to
/// process on a shared host, and the host's speed drifts over seconds.
const SETUP_CHILDREN: usize = 16;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    types: usize,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        None => default.ok_or_else(|| format!("missing {name}")),
    }
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let trace: u8 = parsed(args, "--trace", Some(0))?;
        let opts = Opts {
            workload: Workload::parse(flag(args, "--workload").ok_or("missing --workload")?)?,
            seed: parsed(args, "--seed", None)?,
            seconds: parsed(args, "--seconds", None)?,
            trace: trace == 1,
            types: parsed(args, "--types", Some(DEFAULT_TYPES))?,
        };
        if trace > 1 || opts.seconds == 0 || opts.types < 2 * plan::HOT_KEYS {
            return Err("--trace is 0 or 1, --seconds at least 1, --types at least 128".to_owned());
        }
        Ok(opts)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen(&args[1..]),
        Some("setup") => setup(&args[1..]),
        _ => run(&args),
    };
    if let Err(e) = result {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

/// `servebench gen --seed N --types T --out PATH`: generates the jungle,
/// saves it (v2, synced to disk), and prints its shape and planted
/// chains as one JSON line.
fn gen(args: &[String]) -> Result<(), String> {
    let out = flag(args, "--out").ok_or("missing --out")?;
    let spec = SynthSpec {
        seed: parsed(args, "--seed", None)?,
        types: parsed(args, "--types", None)?,
        ..SynthSpec::default()
    };
    let mut api = ApiLoader::with_prelude()
        .finish()
        .map_err(|e| e.to_string())?;
    let report = grow_synth(&mut api, &spec);
    let engine = Prospector::new(api);
    let manifest = prospector_store::save_file(out.as_ref(), engine.api(), engine.graph(), &[])
        .map_err(|e| e.to_string())?;
    // Synced so that write-back of the fresh file cannot overlap the
    // set-up timings that follow.
    std::fs::File::open(out)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("{out}: {e}"))?;
    let planted = report
        .planted
        .iter()
        .map(|p| {
            Json::obj(vec![
                ("tin", Json::Str(p.tin.clone())),
                ("tout", Json::Str(p.tout.clone())),
                (
                    "hops",
                    Json::Arr(p.hops.iter().cloned().map(Json::Str).collect()),
                ),
            ])
        })
        .collect();
    let line = Json::obj(vec![
        ("classes", Json::num_u(report.classes as u64)),
        ("methods", Json::num_u(report.methods as u64)),
        ("nodes", Json::num_u(engine.graph().node_count() as u64)),
        ("edges", Json::num_u(engine.graph().edge_count() as u64)),
        ("bytes", Json::num_u(manifest.total_bytes)),
        ("planted", Json::Arr(planted)),
    ]);
    println!("{}", line.to_text());
    Ok(())
}

fn setup_json(s: &Setup) -> Json {
    Json::obj(vec![
        ("load_s", Json::Num(s.load_s)),
        ("ready_s", Json::Num(s.ready_s)),
        ("total_s", Json::Num(s.total_s)),
    ])
}

/// `servebench setup --snapshot PATH --log PATH`: one timed bring-up in
/// a fresh process, printed as one JSON line.
fn setup(args: &[String]) -> Result<(), String> {
    let snapshot = flag(args, "--snapshot").ok_or("missing --snapshot")?;
    prospector_obs::log::set_file(flag(args, "--log").ok_or("missing --log")?)?;
    let s = server::serve_snapshot(snapshot, |_, _, s| Ok(s))?;
    println!("{}", setup_json(&s).to_text());
    Ok(())
}

/// Runs this executable with `args` and parses its last stdout line.
fn child(args: &[&str]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!(
            "`{}` failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(text.lines().last().unwrap_or_default()).map_err(|e| format!("{args:?}: {e:?}"))
}

fn num(json: &Json, key: &str) -> Result<f64, String> {
    json.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("child output without `{key}`"))
}

/// Times `n` bring-ups from `snapshot`, each in a fresh child process.
fn setup_children(n: usize, snapshot: &str, log: &str) -> Result<Vec<Setup>, String> {
    (0..n)
        .map(|_| {
            let s = child(&["setup", "--snapshot", snapshot, "--log", log])?;
            Ok(Setup {
                load_s: num(&s, "load_s")?,
                ready_s: num(&s, "ready_s")?,
                total_s: num(&s, "total_s")?,
            })
        })
        .collect()
}

/// What the served process measured and kept for checking.
struct Served {
    setup: Setup,
    config: server::Config,
    warm: (u64, u64),
    conns: Vec<ConnOut>,
    phase_start: Instant,
    elapsed_s: f64,
    rss_mb: f64,
    status: EngineStatus,
    /// Byte range of the timed phase's lines in the access log.
    log_window: (u64, u64),
    planted_pass: (u64, u64),
    planted_bodies: Vec<(Req, Vec<u8>)>,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// timed phase.
    steal_pct: f64,
}

fn file_len(path: &str) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{path}: {e}"))
}

/// Warm-up, timed closed loop, then the planted-chain pass.
fn drive(
    registry: &Registry,
    addr: SocketAddr,
    setup: Setup,
    plan: &Plan,
    opts: &Opts,
    log: &str,
) -> Result<Served, String> {
    let io = |e: std::io::Error| format!("client: {e}");
    let config = server::config(addr)?;
    let warm = client::send_all(addr, &plan.warmup(), |_, _| {}).map_err(io)?;
    let log_from = file_len(log)?;
    let next = AtomicU64::new(0);
    let seconds = Duration::from_secs(opts.seconds);
    let jiffies_before = server::cpu_jiffies()?;
    let phase_start = Instant::now();
    let conns = std::thread::scope(|scope| {
        let loops: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                scope.spawn(|| {
                    client::closed_loop(addr, plan, &next, phase_start, seconds, opts.trace)
                })
            })
            .collect();
        loops
            .into_iter()
            .map(|h| h.join().expect("client thread panicked").map_err(io))
            .collect::<Result<Vec<_>, _>>()
    })?;
    let elapsed_s = conns.iter().map(|c| c.end_ns).max().unwrap_or(0) as f64 / 1e9;
    let jiffies_after = server::cpu_jiffies()?;
    let steal_pct = 100.0 * (jiffies_after.1 - jiffies_before.1) as f64
        / (jiffies_after.0 - jiffies_before.0).max(1) as f64;
    let rss_mb = server::rss_mb()?;
    let status = registry
        .get(DEFAULT_TENANT)
        .ok_or("no default tenant")?
        .engine()
        .status();
    let log_window = (log_from, file_len(log)?);
    let mut planted_bodies = Vec::new();
    let planted_pass = client::send_all(addr, &plan.planted_queries(), |req, body| {
        planted_bodies.push((req.clone(), body.to_vec()));
    })
    .map_err(io)?;
    Ok(Served {
        setup,
        config,
        warm,
        conns,
        phase_start,
        elapsed_s,
        rss_mb,
        status,
        log_window,
        planted_pass,
        planted_bodies,
        steal_pct,
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted, non-empty `v`.
fn percentile(v: &[u64], q: f64) -> u64 {
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The correctness gate's tallies.
#[derive(Default)]
struct Gate {
    checked: u64,
    mismatched: u64,
    planted: u64,
    precise: u64,
}

impl Gate {
    fn compare(&mut self, reference: &Reference, req: &Req, body: &[u8], weight: u64) {
        self.checked += weight;
        if let Err(e) = reference.compare(req, body) {
            if self.mismatched == 0 {
                eprintln!("servebench: wrong answer: {e}");
            }
            self.mismatched += weight;
        }
    }

    fn planted(&mut self, planted: &Planted, body: &[u8], weight: u64) {
        self.planted += weight;
        if check::precise(planted, body) {
            self.precise += weight;
        }
    }
}

/// Compares every kept answer with the reference engine.
fn gate(plan: &Plan, served: &Served, snapshot: &str) -> Result<Gate, String> {
    let reference = Reference::load(snapshot)?;
    let mut g = Gate::default();
    for conn in &served.conns {
        for (i, body) in &conn.samples {
            let req = plan.timed(*i).ok_or("sampled request past the stream")?;
            g.compare(&reference, &req, body, 1);
        }
    }
    // `hot_repeat`: every response, through its key's distinct answers.
    let mut variants: Vec<Vec<(&[u8], u64)>> = vec![Vec::new(); plan::HOT_KEYS];
    for conn in &served.conns {
        for (k, vs) in conn.variants.iter().enumerate() {
            for (part, n) in vs {
                match variants[k].iter_mut().find(|(v, _)| *v == part.as_slice()) {
                    Some((_, total)) => *total += n,
                    None => variants[k].push((part, *n)),
                }
            }
        }
    }
    for (k, vs) in variants.iter().enumerate() {
        for &(part, n) in vs {
            let req = plan.key(k);
            g.compare(&reference, req, part, n);
            if let Some(p) = req.planted {
                g.planted(&plan.planted[p], part, n);
            }
        }
    }
    for (req, body) in &served.planted_bodies {
        g.compare(&reference, req, body, 1);
        let p = req.planted.expect("the planted pass sends planted queries");
        g.planted(&plan.planted[p], body, 1);
    }
    Ok(g)
}

/// One metric line's worth: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn run(args: &[String]) -> Result<(), String> {
    let opts = Opts::parse(args)?;
    let run_start = Instant::now();
    let dir = format!(
        ".bench_build/servebench/{}-{}",
        opts.workload.name(),
        opts.types
    );
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let snapshot = format!("{dir}/snapshot.pspk");
    let log = format!("{dir}/access.log");
    let setup_log = format!("{dir}/setup-access.log");
    for stale in [&log, &setup_log] {
        let _ = std::fs::remove_file(stale);
    }

    let seed = opts.seed.to_string();
    let types = opts.types.to_string();
    let jungle = child(&[
        "gen", "--seed", &seed, "--types", &types, "--out", &snapshot,
    ])?;
    let planted = jungle
        .get("planted")
        .and_then(Json::as_arr)
        .ok_or("gen output without `planted`")?
        .iter()
        .map(|p| Planted::from_json(p).ok_or("malformed planted chain"))
        .collect::<Result<Vec<_>, _>>()?;
    let mut setups = setup_children(SETUP_CHILDREN / 2, &snapshot, &setup_log)?;

    // Pinned: the access log goes to a file, not to the unbuffered
    // stderr sink whose cost depends on who reads the pipe.
    prospector_obs::log::set_file(&log)?;
    let plan = Plan::new(opts.workload, opts.seed, opts.types, planted);
    let served = server::serve_snapshot(&snapshot, |registry, addr, setup| {
        drive(registry, addr, setup, &plan, &opts, &log)
    })?;
    setups.push(served.setup);
    let g = gate(&plan, &served, &snapshot)?;
    setups.extend(setup_children(
        SETUP_CHILDREN - SETUP_CHILDREN / 2,
        &snapshot,
        &setup_log,
    )?);

    let timed_sent: u64 = served.conns.iter().map(|c| c.sent).sum();
    let timed_failed: u64 = served.conns.iter().map(|c| c.failed).sum();
    let reconnects: u64 = served.conns.iter().map(|c| c.reconnects).sum();
    if timed_sent == 0 {
        return Err("the timed phase completed no request".to_owned());
    }
    let mut lat: Vec<u64> = served
        .conns
        .iter()
        .flat_map(|c| c.lat_ns.iter().copied())
        .collect();
    lat.sort_unstable();
    let attempted = served.warm.0 + timed_sent + served.planted_pass.0;
    let failed = served.warm.1 + timed_failed + served.planted_pass.1 + g.mismatched;
    let precision = g.precise as f64 / g.planted.max(1) as f64;
    let rtt_us = lat.iter().sum::<u64>() as f64 / timed_sent as f64 / 1e3;

    let end_to_end: Vec<Metric> = vec![
        ("p50_ms", percentile(&lat, 0.50) as f64 / 1e6, "ms"),
        (
            "setup_s",
            median(setups.iter().map(|s| s.total_s).collect()),
            "s",
        ),
        ("rss_mb", served.rss_mb, "MB"),
    ];
    // Throughput and the tail are reported without a bound: on a shared
    // host they follow the hypervisor's steal more than the program
    // (see README).
    let mut per_layer: Vec<Metric> = vec![
        ("qps", timed_sent as f64 / served.elapsed_s, "1/s"),
        ("p99_ms", percentile(&lat, 0.99) as f64 / 1e6, "ms"),
        ("precision_at_1", precision, "ratio"),
        ("reconnects", reconnects as f64, "count"),
        (
            "store.load_s",
            median(setups.iter().map(|s| s.load_s).collect()),
            "s",
        ),
        (
            "serve.ready_s",
            median(setups.iter().map(|s| s.ready_s).collect()),
            "s",
        ),
        (
            "cache.result_entries",
            served.status.result_cache_entries as f64,
            "count",
        ),
        (
            "cache.dist_entries",
            served.status.dist_cache_entries as f64,
            "count",
        ),
    ];
    let consistent = if opts.trace {
        let traced = Traced {
            opts: &opts,
            plan: &plan,
            served: &served,
            snapshot: &snapshot,
            log: &log,
        };
        traced.layers(&dir, run_start, rtt_us, &mut per_layer)?
    } else {
        true
    };
    let _ = std::fs::remove_file(&snapshot);

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let config = &served.config;
    println!(
        "info workload={} seed={} seconds={} trace={} nproc={nproc} server_workers={} serve_core={} keepalive_max={} connections={CONNECTIONS} loop=closed",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        config.workers,
        config.serve_core,
        config.keepalive_max,
    );
    println!(
        "info host steal_pct={:.2} during the timed phase",
        served.steal_pct
    );
    println!(
        "info jungle types={} classes={} methods={} nodes={} edges={} snapshot_bytes={}",
        opts.types,
        num(&jungle, "classes")?,
        num(&jungle, "methods")?,
        num(&jungle, "nodes")?,
        num(&jungle, "edges")?,
        num(&jungle, "bytes")?,
    );
    println!(
        "info requests warmup={} timed={timed_sent} planted_pass={} reference_checked={} access_log={log}",
        served.warm.0,
        served.planted_pass.0,
        g.checked,
    );
    let mut totals: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    totals.sort_by(f64::total_cmp);
    println!(
        "info setup samples={} min_s={:.4} max_s={:.4}",
        totals.len(),
        totals[0],
        totals[totals.len() - 1],
    );
    for (name, value, unit) in end_to_end.iter().chain(&per_layer) {
        println!("metric {name} {value} {unit}");
    }
    let reported = if opts.trace { &per_layer } else { &end_to_end };
    let metrics = reported
        .iter()
        .map(|&(name, value, unit)| {
            (
                name,
                Json::obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_owned())),
                ]),
            )
        })
        .collect();
    let correct = failed == 0 && precision == 1.0 && consistent;
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num_u(attempted)),
        ("failed", Json::num_u(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.to_text());
    Ok(())
}

/// What the traced breakdown reads from the run.
struct Traced<'a> {
    opts: &'a Opts,
    plan: &'a Plan,
    served: &'a Served,
    snapshot: &'a str,
    log: &'a str,
}

impl Traced<'_> {
    /// Adds the per-layer metrics of a traced run to `per_layer` and
    /// writes the spans; returns whether the access log holds one line
    /// per timed request.
    fn layers(
        &self,
        dir: &str,
        run_start: Instant,
        rtt_us: f64,
        per_layer: &mut Vec<Metric>,
    ) -> Result<bool, String> {
        let timed_sent: u64 = self.served.conns.iter().map(|c| c.sent).sum();
        let mut tracer = replay::Tracer::new(run_start);
        for conn in &self.served.conns {
            tracer.add_client(self.served.phase_start, &conn.spans);
        }
        let log = replay::access_log(self.log, self.served.log_window.0, self.served.log_window.1)?;
        let lines = log.len() as u64;
        let consistent = lines == timed_sent;
        if !consistent {
            eprintln!("servebench: {lines} access-log lines for {timed_sent} timed requests");
        }
        let mean = |f: fn(&replay::LogLine) -> u64| {
            log.iter().map(f).sum::<u64>() as f64 / lines.max(1) as f64
        };
        let queue_us = mean(|l| l.queue_wait_us);
        let handle_us = mean(|l| l.handle_us);
        self.split_check(&log);
        let budget = Duration::from_secs(self.opts.seconds).div_f64(2.0);
        let l = replay::replay(self.snapshot, self.plan, timed_sent, budget, &mut tracer)?;
        if l.mismatches > 0 {
            eprintln!(
                "servebench: {} replayed pipelines rank differently from the engine; the per-layer breakdown is invalid",
                l.mismatches
            );
        }
        let n = l.requests.max(1) as f64;
        let us = |total_ns: u64| total_ns as f64 / n / 1e3;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let engine_other = us(l.call_ns)
            - us(l.fanout_ns)
            - us(l.bfs_ns)
            - us(l.dfs_ns)
            - us(l.synth_ns)
            - us(l.rank_ns);
        let times: [(&'static str, &'static str, f64); 13] = [
            (
                "poller.wire_us",
                "poller.wire_share",
                rtt_us - queue_us - handle_us,
            ),
            ("poller.queue_wait_us", "poller.queue_wait_share", queue_us),
            ("serve.handle_us", "serve.handle_share", handle_us),
            ("http.frame_us", "http.frame_share", us(l.frame_ns)),
            (
                "registry.resolve_us",
                "registry.resolve_share",
                us(l.registry_ns),
            ),
            (
                "typesys.resolve_us",
                "typesys.resolve_share",
                us(l.typesys_ns),
            ),
            ("engine.call_us", "engine.call_share", us(l.call_ns)),
            ("engine.fanout_us", "engine.fanout_share", us(l.fanout_ns)),
            ("search.bfs_us", "search.bfs_share", us(l.bfs_ns)),
            ("search.dfs_us", "search.dfs_share", us(l.dfs_ns)),
            ("synth.snippet_us", "synth.snippet_share", us(l.synth_ns)),
            ("rank.key_sort_us", "rank.key_sort_share", us(l.rank_ns)),
            ("engine.other_us", "engine.other_share", engine_other),
        ];
        per_layer.push(("client.rtt_us", rtt_us, "us"));
        for (name, share, value) in times {
            per_layer.push((name, value, "us"));
            per_layer.push((share, value / rtt_us, "ratio"));
        }
        // Traced and untraced slices alternate through the timed phase.
        let traced_s = client::traced_seconds(self.served.elapsed_s);
        let traced: u64 = self.served.conns.iter().map(|c| c.traced).sum();
        let qps_traced = traced as f64 / traced_s;
        let qps_untraced = (timed_sent - traced) as f64 / (self.served.elapsed_s - traced_s);
        // A toy run can end (its stream used up) inside the first slice.
        let overhead_pct = if traced == timed_sent {
            0.0
        } else {
            (qps_untraced - qps_traced) / qps_untraced * 100.0
        };
        per_layer.extend([
            (
                "search.bfs_relaxations",
                ratio(l.bfs_relaxations, l.requests),
                "count",
            ),
            (
                "search.dfs_expansions",
                ratio(l.dfs_expansions, l.requests),
                "count",
            ),
            ("search.yield", ratio(l.paths, l.dfs_expansions), "ratio"),
            (
                "search.truncated_share",
                ratio(l.truncated, l.dfs_runs),
                "ratio",
            ),
            (
                "synth.unique_ratio",
                ratio(l.unique_codes, l.snippets),
                "ratio",
            ),
            (
                "cache.result_hit_ratio",
                ratio(l.result_hits, l.requests),
                "ratio",
            ),
            (
                "cache.dist_hit_ratio",
                ratio(l.dist_hits, l.dist_hits + l.dist_misses),
                "ratio",
            ),
            ("trace.overhead_pct", overhead_pct, "%"),
            ("replay.requests", l.requests as f64, "count"),
            ("replay.mismatches", l.mismatches as f64, "count"),
        ]);
        let trace_path = format!("{dir}/trace.jsonl");
        tracer.write(&trace_path)?;
        println!("info trace spans written to {trace_path}");
        Ok(consistent)
    }

    /// Joins each traced client span to its access-log line by
    /// `trace_id` and counts the requests whose server-side queue wait
    /// plus handling time exceed their client round trip. Only `/query`
    /// answers carry a `trace_id`, so `/assist` spans join none.
    fn split_check(&self, log: &[replay::LogLine]) {
        let by_id: HashMap<u64, &replay::LogLine> = log
            .iter()
            .filter(|l| l.trace_id != 0)
            .map(|l| (l.trace_id, l))
            .collect();
        let spans = self.served.conns.iter().flat_map(|c| &c.spans);
        let (mut traced, mut joined, mut over) = (0u64, 0u64, 0u64);
        for span in spans {
            traced += 1;
            let Some(line) = span.trace_id.and_then(|id| by_id.get(&id)) else {
                continue;
            };
            joined += 1;
            // Both server times are truncated to whole µs.
            if (line.queue_wait_us + line.handle_us) * 1_000 > span.end_ns - span.start_ns {
                over += 1;
            }
        }
        if over > 0 {
            eprintln!(
                "servebench: {over} requests logged more queue + handle time than their round trip"
            );
        }
        println!("info split spans={traced} joined={joined} over_rtt={over}");
    }
}
