//! Serve-layer scale harness: a synthetic power-law jungle at 10^4 /
//! 10^5 (and with `PROSPECTOR_BENCH_FULL=1`, 10^6) types, served by the
//! epoll readiness core and replayed over real sockets by keep-alive
//! client herds of increasing size.
//!
//! Two passes per graph size:
//!
//! 1. **Precision** — every planted ground-truth pair is queried once
//!    and the top suggestion must use the planted hop chain in order;
//!    the harness reports precision@1 (the acceptance bar is 1.0).
//! 2. **Load** — per connection count, a herd of keep-alive clients
//!    replays a mixed workload (planted queries, no-path bulk pairs,
//!    `/healthz`) and the harness reports qps and p50/p99 latency; every
//!    answer must be a `200`. Each herd runs [`ROUNDS`] times, the herds
//!    taking turns, and a cell reports the median of its rounds with the
//!    quartiles beside it: one pass of a cell moves by 20–40% between
//!    runs of one build.
//!
//! Besides the human-readable report, the run writes a machine-readable
//! baseline to `BENCH_scale.json` at the repository root (override the
//! path with `BENCH_SCALE_OUT`). `BENCH_SCALE_BASELINE=<file>` files a
//! run of another build (its own `BENCH_scale.json`) beside this one as
//! `baseline`. The server's access log goes to a file in the bench's
//! scratch directory, so the latencies measure the server, not
//! whatever stderr is. Run with
//! `cargo bench -p bench --bench scale_serve`; set
//! `PROSPECTOR_BENCH_QUICK=1` (or pass `--quick`) for a CI-sized 10^4
//! smoke run.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use jungloid_apidef::ApiLoader;
use prospector_cli::serve::{ServeOptions, Server};
use prospector_core::Prospector;
use prospector_corpora::synth::{grow_synth, PlantedPath, SynthSpec};
use prospector_obs::Json;
use prospector_registry::{Provenance, Registry};

/// Load passes per herd and graph size; a cell is their median.
const ROUNDS: usize = 5;

fn quick_mode() -> bool {
    std::env::var_os("PROSPECTOR_BENCH_QUICK").is_some()
        || std::env::args().any(|a| a == "--quick")
}

fn full_mode() -> bool {
    std::env::var_os("PROSPECTOR_BENCH_FULL").is_some()
}

/// Reads one `Content-Length`-framed response off a keep-alive stream:
/// `(status_code, body)`.
fn read_one_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed mid-response");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end - 4]).into_owned();
    let code: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .expect("status code in status line");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    while buf.len() < head_end + length {
        let n = stream.read(&mut chunk).expect("read response body");
        assert!(n > 0, "connection closed mid-response body");
        buf.extend_from_slice(&chunk[..n]);
    }
    (code, String::from_utf8_lossy(&buf[head_end..head_end + length]).into_owned())
}

/// One keep-alive `GET`, returning `(status_code, body, latency_ns)`.
fn keepalive_get(stream: &mut TcpStream, path: &str) -> (u16, String, u64) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    let started = Instant::now();
    stream.write_all(raw.as_bytes()).expect("send request");
    let (code, body) = read_one_response(stream);
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (code, body, ns)
}

/// Precision@1 over the planted ground truth: the top suggestion must
/// contain every hop of the planted chain, in order.
fn precision_pass(addr: SocketAddr, planted: &[PlantedPath]) -> f64 {
    let mut stream = TcpStream::connect(addr).expect("connect precision client");
    let mut exact = 0usize;
    for p in planted {
        let (code, body, _) =
            keepalive_get(&mut stream, &format!("/query?tin={}&tout={}", p.tin, p.tout));
        assert_eq!(code, 200, "planted query must answer: {body}");
        let json = Json::parse(&body).expect("valid query JSON");
        let suggestions = json.get("suggestions").unwrap().as_arr().unwrap();
        let top = suggestions.first().and_then(Json::as_str).unwrap_or_default();
        let in_order = p
            .hops
            .iter()
            .try_fold(0usize, |from, hop| {
                top[from..].find(hop).map(|at| from + at + hop.len())
            })
            .is_some();
        exact += usize::from(in_order);
    }
    exact as f64 / planted.len().max(1) as f64
}

struct LoadCell {
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

/// First quartile, median and third quartile of `xs` (nearest rank, so
/// five rounds give their 2nd, 3rd and 4th values).
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    let at = |k: usize| xs[(xs.len() - 1) * k / 4];
    [at(1), at(2), at(3)]
}

/// Replays the mixed workload from `conns` keep-alive clients and
/// aggregates latency statistics.
fn load_pass(
    addr: SocketAddr,
    planted: &[PlantedPath],
    bulk_types: usize,
    conns: usize,
    requests_per_conn: usize,
) -> LoadCell {
    let latencies: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = TcpStream::connect(addr).expect("connect load client");
                    let mut lat = Vec::with_capacity(requests_per_conn);
                    for i in 0..requests_per_conn {
                        // Mixed workload: planted chains (real search
                        // work), bulk pairs (mostly no-path answers over
                        // the big graph), and the liveness endpoint.
                        let path = match i % 4 {
                            0 | 1 => {
                                let p = &planted[(c + i) % planted.len()];
                                format!("/query?tin={}&tout={}", p.tin, p.tout)
                            }
                            2 => {
                                let a = (c * 131 + i * 7919) % bulk_types;
                                let b = (c * 17 + i * 104_729) % bulk_types;
                                format!("/query?tin=Syn{a}&tout=Syn{b}")
                            }
                            _ => "/healthz".to_owned(),
                        };
                        let (code, body, ns) = keepalive_get(&mut stream, &path);
                        assert_eq!(code, 200, "unexpected status: {body}");
                        lat.push(ns);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load client")).collect()
    });
    let summed_ns: u64 = latencies.iter().flatten().sum();
    let mut all: Vec<u64> = latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let total = all.len();
    // Clients are serial over keep-alive sockets, so the herd's
    // aggregate rate is total requests over the mean per-connection
    // busy time.
    let per_conn_s = summed_ns as f64 / 1e9 / conns as f64;
    let qps = total as f64 / per_conn_s.max(1e-9);
    let pct = |q: f64| all[((total - 1) as f64 * q) as usize] as f64 / 1_000.0;
    LoadCell { qps, p50_us: pct(0.50), p99_us: pct(0.99) }
}

/// One herd's cell: the median of its rounds, printed with the
/// quartiles, which the JSON carries beside it.
fn cell_json(conns: usize, requests_per_conn: usize, rounds: &[LoadCell]) -> Json {
    let stat = |f: fn(&LoadCell) -> f64| quartiles(rounds.iter().map(f).collect());
    let [qps, p50, p99] = [stat(|c| c.qps), stat(|c| c.p50_us), stat(|c| c.p99_us)];
    println!(
        "  {conns:>3} conns: {:>9.0} qps ({:.0}-{:.0})  p50 {:>6.0}us ({:.0}-{:.0})  \
         p99 {:>6.0}us ({:.0}-{:.0})",
        qps[1], qps[0], qps[2], p50[1], p50[0], p50[2], p99[1], p99[0], p99[2]
    );
    let spread = |q: [f64; 3]| Json::Arr(vec![Json::Num(q[0]), Json::Num(q[2])]);
    Json::obj(vec![
        ("conns", Json::num_u(conns as u64)),
        ("requests_per_conn", Json::num_u(requests_per_conn as u64)),
        ("rounds", Json::num_u(rounds.len() as u64)),
        ("qps", Json::Num(qps[1])),
        ("p50_us", Json::Num(p50[1])),
        ("p99_us", Json::Num(p99[1])),
        (
            "quartiles",
            Json::obj(vec![("qps", spread(qps)), ("p50_us", spread(p50)), ("p99_us", spread(p99))]),
        ),
    ])
}

fn main() {
    let quick = quick_mode();
    let sizes: Vec<usize> = if quick {
        vec![10_000]
    } else if full_mode() {
        vec![10_000, 100_000, 1_000_000]
    } else {
        vec![10_000, 100_000]
    };
    let herds: &[usize] = if quick { &[2, 8] } else { &[4, 16, 64] };
    let requests_per_conn = if quick { 40 } else { 150 };
    let nproc = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
    let workers = nproc.min(8);
    let baseline = std::env::var("BENCH_SCALE_BASELINE").ok().map(|path| {
        let text = std::fs::read_to_string(&path).expect("read the baseline run");
        Json::parse(&text).expect("the baseline is a scale_serve JSON document")
    });
    // One access-log line per request, as servebench does: to a file,
    // so no terminal or pipe sits inside the measured latencies.
    let scratch = std::env::temp_dir().join("prospector-bench-scale");
    std::fs::create_dir_all(&scratch).expect("create the bench scratch directory");
    let log = scratch.join(format!("access-{}.log", std::process::id()));
    prospector_obs::log::set_file(log.to_str().expect("UTF-8 scratch path"))
        .expect("open the access log");

    println!("\n=== serve-layer scale: synthetic jungle over the epoll core ===\n");
    let mut size_cells = Vec::new();
    for &types in &sizes {
        let spec = SynthSpec { types, ..SynthSpec::default() };
        let grow_started = Instant::now();
        let mut api = ApiLoader::with_prelude().finish().expect("prelude loads");
        let report = grow_synth(&mut api, &spec);
        let engine = Prospector::new(api);
        let build_s = grow_started.elapsed().as_secs_f64();
        println!(
            "types 10^{:.0}: {} classes / {} methods, graph built in {build_s:.2}s",
            (types as f64).log10(),
            report.classes,
            report.methods,
        );

        let registry = Registry::with_default(engine, Provenance::built());
        let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
        server.set_workers(workers);
        let addr = server.local_addr().expect("bound address");
        let shutdown = AtomicBool::new(false);
        let opts = ServeOptions::default();

        let (precision, loads) = std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.run(&registry, &opts, &shutdown));
            let precision = precision_pass(addr, &report.planted);
            println!("  precision@1 on {} planted paths: {precision:.3}", report.planted.len());
            let mut loads: Vec<Vec<LoadCell>> = herds.iter().map(|_| Vec::new()).collect();
            for _ in 0..ROUNDS {
                for (&conns, rounds) in herds.iter().zip(&mut loads) {
                    rounds.push(load_pass(addr, &report.planted, types, conns, requests_per_conn));
                }
            }
            shutdown.store(true, Ordering::SeqCst);
            serving.join().expect("serve thread").expect("serve loop exits cleanly");
            (precision, loads)
        });
        assert!(
            (precision - 1.0).abs() < f64::EPSILON,
            "planted ground truth must be recovered exactly (got {precision})"
        );

        size_cells.push(Json::obj(vec![
            ("types", Json::num_u(types as u64)),
            ("classes", Json::num_u(report.classes as u64)),
            ("methods", Json::num_u(report.methods as u64)),
            ("build_s", Json::Num(build_s)),
            ("planted_paths", Json::num_u(report.planted.len() as u64)),
            ("precision_at_1", Json::Num(precision)),
            (
                "load",
                Json::Arr(
                    herds
                        .iter()
                        .zip(&loads)
                        .map(|(&conns, rounds)| cell_json(conns, requests_per_conn, rounds))
                        .collect(),
                ),
            ),
        ]));
    }

    let mut fields = vec![
        ("bench", Json::Str("scale_serve".to_owned())),
        ("quick", Json::Bool(quick)),
        ("serve_core", Json::Str("epoll".to_owned())),
        ("nproc", Json::num_u(nproc as u64)),
        ("workers", Json::num_u(workers as u64)),
        ("sizes", Json::Arr(size_cells)),
    ];
    fields.extend(baseline.map(|run| ("baseline", run)));
    let doc = Json::obj(fields);
    std::fs::remove_file(&log).expect("remove the access log");
    let out = std::env::var("BENCH_SCALE_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json").to_owned()
    });
    std::fs::write(&out, doc.to_text()).expect("write scale baseline");
    println!("\nwrote {out}");
}
