//! `prospector serve` — a zero-dependency HTTP/1.1 observability server.
//!
//! Everything here is `std`-only, and [`Server::run`] has one serve
//! core, the **epoll readiness core** ([`crate::poller`]): one poller
//! thread owns the listener and every parked socket, frames requests
//! nonblockingly, and hands *parsed* requests to the worker pool.
//! Keep-alive connections wait in the poller between requests instead
//! of occupying workers, so 10k idle connections cost file descriptors,
//! not threads. The poller also runs admission control: past the
//! in-flight ceiling it sheds with `429` + `Retry-After` straight off
//! the poller thread. Serving is Linux/x86_64-only (DESIGN §15); on
//! other platforms [`Server::run`] returns an error.
//!
//! The threads live inside one [`std::thread::scope`], so shutting down
//! is "set the flag, wait for the scope": accepting stops, in-flight
//! requests drain, and the scope joins everything before
//! [`Server::run`] returns — no thread outlives it.
//!
//! Connections are HTTP/1.1 **keep-alive** by default: the server
//! answers requests off one socket until the client sends
//! `Connection: close`, goes idle past the timeout, or hits the
//! per-connection request cap (`--keepalive-max`). This pairs with the
//! engine's result cache: a dashboard or latency probe reissuing the
//! same `/query` over one connection pays one TCP handshake and (after
//! the first request) zero pipeline runs.
//!
//! Endpoints:
//!
//! | path                      | returns                                     |
//! |---------------------------|---------------------------------------------|
//! | `GET /healthz`            | `ok` (liveness)                             |
//! | `GET /readyz`             | readiness JSON (warm-start provenance)      |
//! | `GET /metrics`            | Prometheus text exposition of the registry  |
//! | `GET /status`             | SLO introspection JSON (windowed latency, rates, pool, RSS, tenants) |
//! | `GET /query?tin=..&tout=..` | ranked-jungloid JSON + the query's `trace_id` |
//! | `GET /assist?var=n:T&tout=..` | assist fan-out JSON: suggestions from every visible variable |
//! | `GET /slow`               | the retained slow-query timelines as JSON (`?clear=1` resets) |
//! | `GET /trace.json`         | the flight-recorder ring as Chrome trace (+ profiler counters) |
//! | `GET /logs?n=`            | the newest access-log records as JSON       |
//! | `GET /heat?k=`            | top-K hot types/members/edges from the graph heat table |
//! | `GET /analytics?k=`       | workload sketches: popular / miss-heavy / truncation-heavy query keys |
//! | `GET /profile.folded`     | sampled stage stacks, flamegraph.pl folded format |
//! | `GET /tenants`            | the tenant manifest (state, provenance, epoch, sizes) |
//! | `POST /tenants?name=&path=` | registers a new tenant from a snapshot path |
//! | `POST /reload?tenant=`    | rebuilds a tenant's engine off-lock and atomically swaps it in |
//!
//! The server is **multi-tenant**: every engine endpoint (`/query`,
//! `/assist`, `/heat`, `/analytics`) accepts a `?tenant=` key routed
//! through the [`prospector_registry::Registry`]. Without the key a
//! request goes to the [`DEFAULT_TENANT`], so every single-tenant URL
//! keeps working unchanged; an unknown key is a strict-JSON 400, never
//! a silent fallback. `POST /reload` swaps a tenant's engine with zero
//! downtime — in-flight queries finish on the `Arc` they cloned.
//!
//! Every finished request is accounted three ways, whatever the
//! endpoint: a `serve.http.requests{endpoint,code}` counter, a
//! per-endpoint latency observation (cumulative histogram *and* the
//! rolling 1m/5m window rings of [`prospector_obs::window`]), and one
//! strict-JSON access-log line ([`prospector_obs::log`]) carrying the
//! same `trace_id` the flight recorder assigned — so `/metrics`,
//! `/status`, `/logs`, and `/trace.json` tell one joinable story.
//!
//! The server enables the metric registry, the flight recorder, and the
//! access log at bind time (it exists to expose them), and pre-registers
//! the core metric families at zero so a scrape taken before the first
//! query still shows every series a dashboard will ever chart.

// Off Linux/x86_64 the poller is compiled out, so nothing calls the
// request path below; `Server::run` returns the poller stub's error.
#![cfg_attr(not(all(target_os = "linux", target_arch = "x86_64")), allow(dead_code))]

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use prospector_core::{heat, Prospector};
use prospector_obs::hist::Histogram;
use prospector_registry::{Registry, Tenant, TenantInfo, TenantState, DEFAULT_TENANT};
use prospector_obs::log::{self as alog, AccessRecord};
use prospector_obs::profile;
use prospector_obs::trace::{self, TraceId};
use prospector_obs::window::{self, CounterRing, WindowRing, STANDARD_WINDOWS};
use prospector_obs::Json;

use crate::http::{FrameError, Request};

/// Default cap on requests served over one keep-alive connection before
/// the server closes it (`--keepalive-max`) — a backstop so one chatty
/// client cannot hold a worker or a parked slot forever.
pub(crate) const DEFAULT_KEEPALIVE_MAX: usize = 1000;

/// Default parked-connection idle timeout (`--idle-timeout`).
pub(crate) const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// In-flight request slots granted per worker when `--max-inflight` is
/// left at auto (`0`) — deep enough that bursts queue, shallow enough
/// that a stalled pool sheds instead of buffering unboundedly.
const INFLIGHT_SLOTS_PER_WORKER: usize = 64;

/// The sampler thread's tick: each tick takes one cooperative profiler
/// sample of every worker's stage stack, so 10ms ≈ 100 Hz profiling.
const PROFILE_TICK: Duration = Duration::from_millis(10);

/// Profiler ticks between process self-stat refreshes: 100 ×
/// [`PROFILE_TICK`] ≈ one second between `/proc/self/status` reads.
const SAMPLE_EVERY_TICKS: u32 = 100;

/// Access-log records returned by `GET /logs` when `n` is not given.
const DEFAULT_LOG_TAIL: usize = 100;

/// Cap on `GET /logs?n=` — larger requests clamp here rather than asking
/// the log ring for more than it could ever hold.
const MAX_LOG_TAIL: usize = 10_000;

/// Endpoint labels, in routing order. `other` absorbs every unknown
/// path so scans and typos still show up in the request counters
/// without minting unbounded label values.
const ENDPOINTS: [&str; 15] = [
    "healthz",
    "readyz",
    "metrics",
    "status",
    "query",
    "assist",
    "slow",
    "trace",
    "logs",
    "heat",
    "analytics",
    "profile",
    "tenants",
    "reload",
    "other",
];

/// Status codes the server can emit, one counter column each.
const CODES: [u16; 8] = [200, 400, 404, 405, 413, 429, 431, 500];

/// Truncation-reason labels, one per-endpoint counter column each
/// (mirrors `TruncationReason::label`).
const TRUNCATIONS: [&str; 3] = ["none", "path_cap", "expansion_cap"];

/// Everything [`Server::run`] needs beyond the registry itself.
/// Provenance (snapshot source/mode, graph epoch) now lives on each
/// tenant in the registry; `/readyz` and `/status` report the default
/// tenant's.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Suggestions returned per `/query` (the CLI's `--max`).
    pub max: usize,
    /// Serve snapshots mmap'd when tenants are added at runtime
    /// (`POST /tenants` without an explicit `mmap` parameter inherits
    /// this, mirroring the CLI's `--mmap`).
    pub mmap: bool,
    /// Requests served over one keep-alive connection before the server
    /// closes it (`--keepalive-max`).
    pub keepalive_max: usize,
    /// How long a parked connection may sit idle before the poller's
    /// timer wheel reaps it (`--idle-timeout`).
    pub idle_timeout: Duration,
    /// Admission-control ceiling on requests dispatched and not yet
    /// answered; `0` resolves to `workers × 64`. Past the ceiling the
    /// poller sheds with `429` + `Retry-After`.
    pub max_inflight: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            max: 5,
            mmap: false,
            keepalive_max: DEFAULT_KEEPALIVE_MAX,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            max_inflight: 0,
        }
    }
}

/// Per-endpoint × status-code request counters — the label support the
/// metric registry does not have, kept serve-local and rendered into
/// `/metrics` as `prospector_serve_http_requests_total{endpoint,code}`.
struct HttpStats {
    counts: Vec<[AtomicU64; CODES.len()]>,
    /// Per-endpoint truncation-reason counts (queries only in practice;
    /// the data rides on every response's `truncation` label).
    truncations: Vec<[AtomicU64; TRUNCATIONS.len()]>,
}

impl HttpStats {
    fn new() -> HttpStats {
        HttpStats {
            counts: (0..ENDPOINTS.len())
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            truncations: (0..ENDPOINTS.len())
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
        }
    }

    fn record(&self, endpoint: usize, code: u16) {
        let ci = CODES.iter().position(|&c| c == code).unwrap_or(CODES.len() - 1);
        self.counts[endpoint][ci].fetch_add(1, Ordering::Relaxed);
    }

    fn record_truncation(&self, endpoint: usize, label: &str) {
        if let Some(ti) = TRUNCATIONS.iter().position(|&t| t == label) {
            self.truncations[endpoint][ti].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(requests, errors)` totals for one endpoint row.
    fn totals(&self, endpoint: usize) -> (u64, u64) {
        let mut requests = 0;
        let mut errors = 0;
        for (ci, &code) in CODES.iter().enumerate() {
            let v = self.counts[endpoint][ci].load(Ordering::Relaxed);
            requests += v;
            if code >= 400 {
                errors += v;
            }
        }
        (requests, errors)
    }
}

fn http_stats() -> &'static HttpStats {
    static GLOBAL: OnceLock<HttpStats> = OnceLock::new();
    GLOBAL.get_or_init(HttpStats::new)
}

/// The serve layer's pre-resolved metric handles: per-endpoint latency
/// (window ring + cumulative histogram), per-endpoint windowed error
/// counters, and the queue-wait pair. Resolved once so the per-request
/// path never touches the registry locks.
struct ServeRings {
    latency: Vec<Arc<WindowRing>>,
    latency_hist: Vec<Arc<Histogram>>,
    errors: Vec<Arc<CounterRing>>,
    queue_wait: Arc<WindowRing>,
    queue_wait_hist: Arc<Histogram>,
}

fn serve_rings() -> &'static ServeRings {
    static GLOBAL: OnceLock<ServeRings> = OnceLock::new();
    GLOBAL.get_or_init(|| ServeRings {
        latency: ENDPOINTS
            .iter()
            .map(|e| window::ring(&format!("serve.http.latency_ns.{e}")))
            .collect(),
        latency_hist: ENDPOINTS
            .iter()
            .map(|e| prospector_obs::metrics::histogram(&format!("serve.http.latency_ns.{e}")))
            .collect(),
        errors: ENDPOINTS
            .iter()
            .map(|e| window::counter_ring(&format!("serve.http.errors.{e}")))
            .collect(),
        queue_wait: window::ring("serve.queue.wait_ns"),
        queue_wait_hist: prospector_obs::metrics::histogram("serve.queue.wait_ns"),
    })
}

/// Shared per-run state: the tenant registry, the resolved options, and
/// the live gauges the poller and workers update and `/status` reads.
pub(crate) struct Ctx<'a> {
    pub(crate) registry: &'a Registry,
    pub(crate) max: usize,
    pub(crate) mmap: bool,
    pub(crate) workers: usize,
    pub(crate) started: Instant,
    /// Per-connection keep-alive request cap (`--keepalive-max`).
    pub(crate) keepalive_max: usize,
    /// Parked-connection idle timeout (`--idle-timeout`).
    pub(crate) idle_timeout: Duration,
    /// Resolved admission ceiling (never zero; see [`ServeOptions`]).
    pub(crate) max_inflight: usize,
    /// Workers currently handling a request.
    pub(crate) busy: AtomicU64,
    /// Connections accepted and not yet closed (parked + in-flight).
    pub(crate) conns: AtomicU64,
    /// Parsed requests waiting in the poller → worker queue.
    pub(crate) depth: AtomicU64,
    /// Requests dispatched to a worker and not yet answered.
    pub(crate) inflight: AtomicU64,
    /// Requests shed with `429` at the admission ceiling.
    pub(crate) shed: AtomicU64,
    /// Connections currently parked in the poller between requests.
    pub(crate) parked: AtomicU64,
    /// Idle connections reaped by the poller's timer wheel.
    pub(crate) reaped: AtomicU64,
}

impl<'a> Ctx<'a> {
    fn new(registry: &'a Registry, opts: &ServeOptions, workers: usize) -> Ctx<'a> {
        let max_inflight = if opts.max_inflight == 0 {
            workers * INFLIGHT_SLOTS_PER_WORKER
        } else {
            opts.max_inflight
        };
        Ctx {
            registry,
            max: opts.max,
            mmap: opts.mmap,
            workers,
            started: Instant::now(),
            keepalive_max: opts.keepalive_max.max(1),
            idle_timeout: opts.idle_timeout.max(Duration::from_millis(100)),
            max_inflight: max_inflight.max(1),
            busy: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            depth: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            reaped: AtomicU64::new(0),
        }
    }
}

/// A bound listener, separated from [`Server::run`] so callers (the CLI,
/// the smoke test) can learn the real address before serving — binding
/// port 0 and reading it back is how the test avoids port collisions.
pub struct Server {
    listener: TcpListener,
    workers: usize,
}

impl Server {
    /// Binds `addr`, turns the metric registry, flight recorder, and
    /// access log on, and pre-registers the core metric families at
    /// zero. The worker pool defaults to the machine's available
    /// parallelism.
    ///
    /// # Errors
    ///
    /// Returns the bind failure as a displayable message.
    pub fn bind(addr: &str) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        prospector_obs::set_enabled(true);
        trace::set_enabled(true);
        alog::set_enabled(true);
        // Workload analytics: graph heat + query sketches feed `/heat`
        // and `/analytics`; the cooperative profiler feeds
        // `/profile.folded` off the sampler thread.
        heat::set_enabled(true);
        profile::set_enabled(true);
        warm_registry();
        let workers = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        Ok(Server { listener, workers })
    }

    /// Overrides the worker-pool size (`--workers N`); zero is clamped
    /// to one.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The actual bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Returns the OS error as a displayable message.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// Serves until `shutdown` is set, on the epoll readiness core
    /// ([`crate::poller`]). A sampler thread refreshes the `process.*`
    /// and `serve.*` gauges about once a second, and when the flag
    /// flips everything drains and joins before this returns.
    ///
    /// # Errors
    ///
    /// Returns poller failures as displayable messages — including, on
    /// any platform but Linux/x86_64, that serving is unavailable there.
    pub fn run(
        self,
        registry: &Registry,
        opts: &ServeOptions,
        shutdown: &AtomicBool,
    ) -> Result<(), String> {
        let ctx = Ctx::new(registry, opts, self.workers);
        crate::poller::serve_epoll(self.listener, &ctx, shutdown)
    }
}

/// The background sampler: ticks at [`PROFILE_TICK`] (~100 Hz), taking
/// one cooperative profiler sample of every worker's published stage
/// stack per tick, and about once a second publishes pool gauges plus
/// `/proc/self/status` derived `process.*` gauges into the metric
/// registry. The stop flags are re-checked every tick, so shutdown
/// latency is bounded by one tick.
pub(crate) fn sampler_loop(ctx: &Ctx<'_>, shutdown: &AtomicBool, stopping: &AtomicBool) {
    let mut ticks = 0u32;
    loop {
        if shutdown.load(Ordering::Relaxed) || stopping.load(Ordering::Relaxed) {
            return;
        }
        profile::sample_all();
        if ticks.is_multiple_of(SAMPLE_EVERY_TICKS) {
            sample_self_stats(ctx);
        }
        ticks = ticks.wrapping_add(1);
        std::thread::sleep(PROFILE_TICK);
    }
}

/// One sampler tick: pool gauges from [`Ctx`], process gauges from
/// `/proc/self/status` (skipped when it is unreadable — the `serve.*`
/// gauges still publish).
fn sample_self_stats(ctx: &Ctx<'_>) {
    prospector_obs::gauge_set("serve.queue.depth", ctx.depth.load(Ordering::Relaxed));
    prospector_obs::gauge_set("serve.workers.busy", ctx.busy.load(Ordering::Relaxed));
    prospector_obs::gauge_set("serve.conns.active", ctx.conns.load(Ordering::Relaxed));
    prospector_obs::gauge_set("serve.poller.parked", ctx.parked.load(Ordering::Relaxed));
    prospector_obs::gauge_set("serve.poller.inflight", ctx.inflight.load(Ordering::Relaxed));
    prospector_obs::gauge_set("profile.samples", profile::samples());
    prospector_obs::gauge_set("profile.dropped", profile::dropped());
    if let Some((rss, threads)) = read_proc_self_status() {
        prospector_obs::gauge_set("process.rss_bytes", rss);
        prospector_obs::gauge_set("process.threads", threads);
    }
}

/// Parses `VmRSS:` (kB → bytes) and `Threads:` out of
/// `/proc/self/status`. `None` when the file is unreadable.
fn read_proc_self_status() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let mut rss = None;
    let mut threads = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            rss = Some(kb.saturating_mul(1024));
        } else if let Some(rest) = line.strip_prefix("Threads:") {
            threads = Some(rest.trim().parse().ok()?);
        }
    }
    Some((rss?, threads?))
}

/// Creates the metric families the core pipeline and the serve layer
/// report into, so the very first `/metrics` scrape already exposes them
/// at zero. (Prometheus guidance: export a series before its first
/// event, so `rate()` sees the 0 → 1 transition.)
fn warm_registry() {
    const COUNTERS: &[&str] = &[
        "search.dfs_expansions",
        "search.bfs_relaxations",
        "search.paths_enumerated",
        "search.truncated.path_cap",
        "search.truncated.expansion_cap",
        "engine.dist_cache.hits",
        "engine.dist_cache.misses",
        "engine.dist_cache.evictions",
        "engine.result_cache.hits",
        "engine.result_cache.misses",
        "engine.result_cache.collapsed",
        "engine.result_cache.evictions",
        "engine.result_cache.invalidations",
        "engine.batch.calls",
        "engine.batch.queries",
        "engine.batch.errors",
        "engine.assist.calls",
        "engine.assist.sources",
        "engine.assist.reachable",
        "engine.assist.unreachable",
        "engine.assist.already_available",
        "engine.dedup_drops",
        "rank.comparisons",
        "synth.snippets",
        "registry.reloads",
        "registry.reload_failures",
        "serve.shed.total",
        "serve.poller.accepts",
        "serve.poller.reaped",
        "serve.poller.frame_errors",
    ];
    for name in COUNTERS {
        prospector_obs::add(name, 0);
    }
    prospector_obs::gauge_set("engine.result_cache.entries", 0);
    for name in [
        "query.latency_ns",
        "query.stage_ns.search",
        "query.stage_ns.synth",
        "query.stage_ns.rank",
    ] {
        let _ = prospector_obs::metrics::histogram(name);
    }
    prospector_obs::gauge_set("serve.queue.depth", 0);
    prospector_obs::gauge_set("serve.workers.busy", 0);
    prospector_obs::gauge_set("serve.conns.active", 0);
    prospector_obs::gauge_set("serve.poller.parked", 0);
    prospector_obs::gauge_set("serve.poller.inflight", 0);
    prospector_obs::gauge_set("registry.tenants", 0);
    prospector_obs::gauge_set("registry.engine_bytes", 0);
    prospector_obs::gauge_set("profile.samples", 0);
    prospector_obs::gauge_set("profile.dropped", 0);
    // Resolving the serve ring handles registers every per-endpoint
    // window series and histogram, so they render from the first scrape.
    let _ = serve_rings();
}

/// One response, carrying everything the per-request accounting needs
/// alongside the wire fields.
pub(crate) struct Response {
    code: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
    /// `Allow:` header value for 405 responses; empty sends no header.
    allow: &'static str,
    /// `Retry-After:` seconds for 429 shed responses; 0 sends no header.
    retry_after: u64,
    /// The flight-recorder id for `/query`; 0 elsewhere.
    trace_id: u64,
    /// Whether a `/query` answer came from the result cache.
    cached: bool,
    /// The query's truncation label; empty for non-query endpoints.
    truncation: String,
    /// The tenant the request resolved to; empty for endpoints that
    /// touch no engine. Feeds the access log and per-tenant latency
    /// rings.
    tenant: String,
}

impl Response {
    fn new(code: u16, reason: &'static str, content_type: &'static str, body: String) -> Response {
        Response {
            code,
            reason,
            content_type,
            body,
            allow: "",
            retry_after: 0,
            trace_id: 0,
            cached: false,
            truncation: String::new(),
            tenant: String::new(),
        }
    }

    fn ok_json(body: String) -> Response {
        Response::new(200, "OK", "application/json", body)
    }

    /// Attributes the response to `tenant` — the only place `tenant` is
    /// set, so the access log and the per-tenant latency rings only ever
    /// see a registered (and therefore validated) name.
    fn for_tenant(mut self, tenant: &Tenant) -> Response {
        self.tenant = tenant.name().to_owned();
        self
    }

    /// A strict-JSON 400 — the shape every engine endpoint returns for
    /// bad parameters, including an unknown `?tenant=` key.
    fn bad_request(message: String) -> Response {
        let body = Json::obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str(message)),
        ])
        .to_text();
        Response::new(400, "Bad Request", "application/json", body)
    }
}

/// Routes one parsed request to its handler. Returns the endpoint row
/// (for accounting) alongside the response.
pub(crate) fn answer(ctx: &Ctx<'_>, request: &Request) -> (usize, Response) {
    let (route, query) = match request.path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (request.path.as_str(), ""),
    };
    let endpoint = endpoint_index(route);
    let response = match request.method.as_str() {
        "GET" => route_get(ctx, endpoint, query),
        "POST" => route_post(ctx, endpoint, query),
        _ => method_not_allowed(endpoint),
    };
    (endpoint, response)
}

/// The strict-JSON response for a stream the framer rejected, carrying
/// the frame error's own status code (`400`/`431`/`413`).
pub(crate) fn frame_error_response(error: &FrameError) -> Response {
    let body = Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(error.message())),
    ])
    .to_text();
    let (code, reason) = match error {
        FrameError::BadRequestLine(_) => (400, "Bad Request"),
        FrameError::HeadersTooLarge(_) => (431, "Request Header Fields Too Large"),
        FrameError::BodyTooLarge(_) => (413, "Payload Too Large"),
    };
    Response::new(code, reason, "application/json", body)
}

/// The `429` the poller sheds with at the admission ceiling: strict
/// JSON, `Retry-After: 1`, built without touching a worker.
pub(crate) fn shed_response() -> Response {
    let body = Json::obj(vec![
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::Str("overloaded: in-flight request ceiling reached".to_owned()),
        ),
        ("shed", Json::Bool(true)),
    ])
    .to_text();
    let mut r = Response::new(429, "Too Many Requests", "application/json", body);
    r.retry_after = 1;
    r
}

/// Maps a request target (route + optional query string) to its
/// [`ENDPOINTS`] row — the shape the poller has in hand when it sheds.
pub(crate) fn endpoint_of(path: &str) -> usize {
    endpoint_index(path.split('?').next().unwrap_or(path))
}

/// Maps a route to its [`ENDPOINTS`] row; unknown paths land on `other`.
fn endpoint_index(route: &str) -> usize {
    let label = match route {
        "/healthz" => "healthz",
        "/readyz" => "readyz",
        "/metrics" => "metrics",
        "/status" => "status",
        "/query" => "query",
        "/assist" => "assist",
        "/slow" => "slow",
        "/trace.json" => "trace",
        "/logs" => "logs",
        "/heat" => "heat",
        "/analytics" => "analytics",
        "/profile.folded" => "profile",
        "/tenants" => "tenants",
        "/reload" => "reload",
        _ => "other",
    };
    ENDPOINTS.iter().position(|&e| e == label).expect("label is in ENDPOINTS")
}

/// The methods an endpoint accepts, the 405 `Allow:` header value.
fn allowed_methods(endpoint: usize) -> &'static str {
    match ENDPOINTS[endpoint] {
        "tenants" => "GET, POST",
        "reload" => "POST",
        _ => "GET",
    }
}

/// A 405 naming what the endpoint does accept.
fn method_not_allowed(endpoint: usize) -> Response {
    let allow = allowed_methods(endpoint);
    let mut r = Response::new(
        405,
        "Method Not Allowed",
        "text/plain",
        format!("method not allowed; allowed: {allow}\n"),
    );
    r.allow = allow;
    r
}

/// Resolves a request's optional `?tenant=` key against the registry
/// and answers with `handler` on that tenant. An unknown (or malformed)
/// key is a strict-JSON 400 attributed to no tenant — never a silent
/// fallback to the default tenant.
fn on_tenant(ctx: &Ctx<'_>, query: &str, handler: impl FnOnce(&Tenant) -> Response) -> Response {
    let name = query_param(query, "tenant");
    match ctx.registry.resolve(name.as_deref()) {
        Ok(tenant) => handler(&tenant).for_tenant(&tenant),
        Err(e) => Response::bad_request(e.to_string()),
    }
}

/// Routes one GET to its handler.
fn route_get(ctx: &Ctx<'_>, endpoint: usize, query: &str) -> Response {
    match ENDPOINTS[endpoint] {
        "healthz" => Response::new(200, "OK", "text/plain", "ok\n".to_owned()),
        "readyz" => Response::ok_json(readyz_json(ctx).to_text()),
        "metrics" => {
            let mut body = prospector_obs::prom::render(&prospector_obs::snapshot());
            body.push_str(&prospector_obs::prom::render_windows(&window::views(
                &STANDARD_WINDOWS,
            )));
            body.push_str(&render_http_requests());
            body.push_str(&render_tenant_metrics(ctx.registry));
            Response::new(200, "OK", "text/plain; version=0.0.4", body)
        }
        "status" => Response::ok_json(status_json(ctx).to_text()),
        "query" => on_tenant(ctx, query, |tenant| {
            tenant.record_query();
            match run_query(&tenant.engine(), ctx.max, query) {
                Ok(outcome) => {
                    let mut r = Response::ok_json(outcome.body);
                    r.trace_id = outcome.trace_id;
                    r.cached = outcome.cached;
                    r.truncation = outcome.truncation;
                    r
                }
                Err(message) => Response::bad_request(message),
            }
        }),
        "assist" => on_tenant(ctx, query, |tenant| {
            tenant.record_query();
            match run_assist(&tenant.engine(), ctx.max, query) {
                Ok(body) => Response::ok_json(body),
                Err(message) => Response::bad_request(message),
            }
        }),
        "slow" => {
            if query_param(query, "clear").is_some_and(|v| v == "1") {
                let cleared = trace::clear_slow();
                let body =
                    Json::obj(vec![("cleared", Json::num_u(cleared as u64))]).to_text();
                Response::ok_json(body)
            } else {
                Response::ok_json(trace::slow_to_json(&trace::slow_queries()).to_text())
            }
        }
        "trace" => {
            let mut events = trace::to_chrome_json(&trace::events());
            // Fold the profiler's counter events into the same document,
            // so one Chrome-trace load shows spans and sampled stacks.
            if let Json::Arr(arr) = &mut events {
                arr.extend(profile::chrome_events());
            }
            Response::ok_json(events.to_text())
        }
        "logs" => match query_param(query, "n") {
            None => Response::ok_json(alog::to_json_array(&alog::tail(DEFAULT_LOG_TAIL)).to_text()),
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) => {
                    let n = n.min(MAX_LOG_TAIL);
                    Response::ok_json(alog::to_json_array(&alog::tail(n)).to_text())
                }
                Err(_) => {
                    let body = Json::obj(vec![
                        ("ok", Json::Bool(false)),
                        ("error", Json::Str(format!("invalid `n` parameter: {raw:?}"))),
                    ])
                    .to_text();
                    Response::new(400, "Bad Request", "application/json", body)
                }
            },
        },
        "heat" => on_tenant(ctx, query, |tenant| {
            Response::ok_json(heat_json(&tenant.engine(), top_k_param(query)).to_text())
        }),
        "analytics" => on_tenant(ctx, query, |tenant| {
            Response::ok_json(analytics_json(&tenant.engine(), top_k_param(query)).to_text())
        }),
        "profile" => Response::new(200, "OK", "text/plain", profile::render_folded()),
        "tenants" => Response::ok_json(tenants_json(ctx.registry).to_text()),
        "reload" => method_not_allowed(endpoint),
        _ => Response::new(404, "Not Found", "text/plain", "no such endpoint\n".to_owned()),
    }
}

/// Routes one POST: the two admin endpoints. Everything else is a 405
/// naming its `Allow:` set.
fn route_post(ctx: &Ctx<'_>, endpoint: usize, query: &str) -> Response {
    match ENDPOINTS[endpoint] {
        "reload" => on_tenant(ctx, query, |tenant| {
            match ctx.registry.reload(tenant.name()) {
                Ok(info) => Response::ok_json(
                    Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("tenant", tenant_info_json(&info)),
                    ])
                    .to_text(),
                ),
                Err(e) => Response::bad_request(e.to_string()),
            }
        }),
        "tenants" => {
            let Some(name) = query_param(query, "name") else {
                return Response::bad_request("missing query parameter `name`".to_owned());
            };
            let Some(path) = query_param(query, "path") else {
                return Response::bad_request("missing query parameter `path`".to_owned());
            };
            let mmap = query_param(query, "mmap")
                .map_or(ctx.mmap, |v| v == "1" || v == "true");
            match ctx.registry.add_from_path(&name, &path, mmap) {
                Ok(tenant) => Response::ok_json(
                    Json::obj(vec![
                        ("ok", Json::Bool(true)),
                        ("tenant", tenant_info_json(&tenant.info())),
                    ])
                    .to_text(),
                )
                .for_tenant(&tenant),
                Err(e) => Response::bad_request(e.to_string()),
            }
        }
        _ => method_not_allowed(endpoint),
    }
}

/// One tenant's manifest row as strict JSON (shared by `GET /tenants`
/// and the admin responses).
fn tenant_info_json(info: &TenantInfo) -> Json {
    let state_error = match &info.state {
        TenantState::Failed { error } => Json::Str(error.clone()),
        _ => Json::Null,
    };
    Json::obj(vec![
        ("name", Json::Str(info.name.clone())),
        ("state", Json::Str(info.state.label().to_owned())),
        ("state_error", state_error),
        (
            "snapshot_path",
            info.snapshot_path.clone().map_or(Json::Null, Json::Str),
        ),
        (
            "format_version",
            info.format_version.map_or(Json::Null, |v| Json::num_u(u64::from(v))),
        ),
        ("mode", Json::Str(info.mode.label().to_owned())),
        ("graph_epoch", Json::num_u(info.graph_epoch)),
        ("engine_bytes", Json::num_u(info.engine_bytes)),
        ("loaded_at_ms", Json::num_u(info.loaded_at_ms)),
        ("load_us", Json::num_u(info.load_us)),
        ("reloads", Json::num_u(info.reloads)),
        ("reload_failures", Json::num_u(info.reload_failures)),
        ("queries", Json::num_u(info.queries)),
    ])
}

/// `GET /tenants`: the full manifest plus registry-level totals.
fn tenants_json(registry: &Registry) -> Json {
    let manifest = registry.manifest();
    Json::obj(vec![
        ("count", Json::num_u(manifest.len() as u64)),
        ("engine_bytes_total", Json::num_u(registry.engine_bytes_total())),
        (
            "tenants",
            Json::Arr(manifest.iter().map(tenant_info_json).collect()),
        ),
    ])
}

/// `?k=` with a sane default and cap for the top-K report endpoints.
fn top_k_param(query: &str) -> usize {
    query_param(query, "k").and_then(|v| v.parse().ok()).unwrap_or(10).clamp(1, 100)
}

/// The value of one query-string parameter, percent-decoded.
fn query_param(query: &str, name: &str) -> Option<String> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| percent_decode(v))
}

/// Every value of a repeatable query-string parameter (`/assist`'s
/// `var=`), percent-decoded, in request order.
fn query_params_all(query: &str, name: &str) -> Vec<String> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .filter(|(k, _)| *k == name)
        .map(|(_, v)| percent_decode(v))
        .collect()
}

/// Records one answered request: the endpoint/code counter, the
/// endpoint's latency (window ring + cumulative histogram), the windowed
/// error counter for non-2xx codes, the queue wait, and exactly one
/// access-log record. Handle time runs from parsed request to serialized
/// response, so keep-alive idle gaps are never counted as latency.
/// Queue wait is the measured poller → worker hand-off; responses the
/// poller writes itself (sheds, frame errors) record zero.
pub(crate) fn record_request(
    endpoint: usize,
    response: &Response,
    queue_wait_ns: u64,
    handle_ns: u64,
) {
    http_stats().record(endpoint, response.code);
    if !response.truncation.is_empty() {
        http_stats().record_truncation(endpoint, &response.truncation);
    }
    let rings = serve_rings();
    rings.queue_wait.record(queue_wait_ns);
    rings.queue_wait_hist.record(queue_wait_ns);
    rings.latency[endpoint].record(handle_ns);
    rings.latency_hist[endpoint].record(handle_ns);
    if response.code >= 400 {
        rings.errors[endpoint].add(1);
    }
    // Per-tenant latency: one window ring per tenant the process has
    // served, named into the global ring registry so `/metrics` and
    // `/status` render them without a label-aware backend.
    if !response.tenant.is_empty() {
        window::ring(&format!("serve.tenant.latency_ns.{}", response.tenant)).record(handle_ns);
    }
    alog::record(AccessRecord {
        ts_ms: alog::now_ms(),
        trace_id: response.trace_id,
        endpoint: ENDPOINTS[endpoint],
        tenant: response.tenant.clone(),
        code: response.code,
        bytes: response.body.len() as u64,
        queue_wait_us: queue_wait_ns / 1_000,
        handle_us: handle_ns / 1_000,
        cached: response.cached,
        truncation: response.truncation.clone(),
    });
}

/// The labeled request counters as a Prometheus exposition block. Every
/// endpoint × code cell is emitted (zeros included) so dashboards see
/// each series before its first event.
fn render_http_requests() -> String {
    use std::fmt::Write as _;
    let stats = http_stats();
    let mut out = String::new();
    out.push_str(
        "# HELP prospector_serve_http_requests_total HTTP requests served, by endpoint and status code.\n",
    );
    out.push_str("# TYPE prospector_serve_http_requests_total counter\n");
    for (ei, endpoint) in ENDPOINTS.iter().enumerate() {
        for (ci, code) in CODES.iter().enumerate() {
            let v = stats.counts[ei][ci].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "prospector_serve_http_requests_total{{endpoint=\"{endpoint}\",code=\"{code}\"}} {v}"
            );
        }
    }
    out
}

/// The per-tenant labeled series as a Prometheus exposition block —
/// epoch, resident size, query and reload counters, and the lifecycle
/// state as a one-hot gauge, one series per tenant.
fn render_tenant_metrics(registry: &Registry) -> String {
    use std::fmt::Write as _;
    let manifest = registry.manifest();
    let mut out = String::new();
    let mut block = |name: &str, help: &str, kind: &str, value: &dyn Fn(&TenantInfo) -> u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        for t in &manifest {
            let _ = writeln!(out, "{name}{{tenant=\"{}\"}} {}", t.name, value(t));
        }
    };
    block(
        "prospector_engine_graph_epoch",
        "Graph epoch of the tenant's installed engine.",
        "gauge",
        &|t| t.graph_epoch,
    );
    block(
        "prospector_engine_bytes",
        "Approximate resident bytes of the tenant's engine.",
        "gauge",
        &|t| t.engine_bytes,
    );
    block(
        "prospector_engine_queries_total",
        "Queries routed to the tenant.",
        "counter",
        &|t| t.queries,
    );
    block(
        "prospector_registry_reloads_total",
        "Successful hot reloads of the tenant's engine.",
        "counter",
        &|t| t.reloads,
    );
    block(
        "prospector_registry_reload_failures_total",
        "Failed reload attempts (old engine retained each time).",
        "counter",
        &|t| t.reload_failures,
    );
    let _ = writeln!(
        out,
        "# HELP prospector_tenant_state Tenant lifecycle state (1 for the current state's series)."
    );
    let _ = writeln!(out, "# TYPE prospector_tenant_state gauge");
    for t in &manifest {
        for state in ["loading", "ready", "draining", "failed"] {
            let v = u64::from(t.state.label() == state);
            let _ = writeln!(
                out,
                "prospector_tenant_state{{tenant=\"{}\",state=\"{state}\"}} {v}",
                t.name
            );
        }
    }
    out
}

/// `GET /readyz`: strict JSON distinguishing *ready to answer queries*
/// from bare liveness (`/healthz`). The worker pool only runs once the
/// engine is constructed, so a served `/readyz` is always `ready`; the
/// value of the endpoint is the provenance — whether this process
/// warm-started from a snapshot and which graph epoch it serves.
fn readyz_json(ctx: &Ctx<'_>) -> Json {
    let (source, mode, epoch) = default_provenance(ctx.registry);
    Json::obj(vec![
        ("ready", Json::Bool(true)),
        ("warm_start", Json::Bool(!matches!(source, Json::Null))),
        ("snapshot_source", source),
        ("snapshot_mode", mode),
        ("graph_epoch", Json::num_u(epoch)),
        ("tenants", Json::num_u(ctx.registry.len() as u64)),
    ])
}

/// The default tenant's provenance in the shape the single-tenant
/// `/readyz` and `/status` always reported: `snapshot_source` /
/// `snapshot_mode` are `null` for an in-process build, and the mode
/// label is `"owned"` or `"mmap"` for warm starts.
fn default_provenance(registry: &Registry) -> (Json, Json, u64) {
    let Some(tenant) = registry.get(DEFAULT_TENANT) else {
        return (Json::Null, Json::Null, 0);
    };
    let info = tenant.info();
    let source = info.snapshot_path.clone().map_or(Json::Null, Json::Str);
    let mode = if info.snapshot_path.is_some() {
        Json::Str(info.mode.label().to_owned())
    } else {
        Json::Null
    };
    (source, mode, info.graph_epoch)
}

/// `hits / (hits + misses)`, 0 when nothing has been counted.
fn hit_ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// One window's stats as the `/status` JSON shape.
fn window_stats_json(v: window::WindowStats, errors_in_window: u64) -> Json {
    let error_rate =
        if v.count == 0 { 0.0 } else { errors_in_window as f64 / v.count as f64 };
    Json::obj(vec![
        ("count", Json::num_u(v.count)),
        ("rate", Json::Num(if v.rate.is_finite() { v.rate } else { 0.0 })),
        ("error_rate", Json::Num(error_rate)),
        ("p50_ns", Json::num_u(v.p50)),
        ("p90_ns", Json::num_u(v.p90)),
        ("p99_ns", Json::num_u(v.p99)),
    ])
}

/// `GET /status`: the SLO dashboard in one strict-JSON document —
/// uptime, provenance, per-endpoint windowed latency/rate/error-rate,
/// pool and process gauges, and engine cache hit ratios.
fn status_json(ctx: &Ctx<'_>) -> Json {
    let snap = prospector_obs::snapshot();
    let default_engine = ctx.registry.get(DEFAULT_TENANT).map(|t| t.engine());
    let engine_status = default_engine.as_ref().map(|e| e.status()).unwrap_or_default();
    let (source, mode, epoch) = default_provenance(ctx.registry);
    let rings = serve_rings();

    let mut endpoints: Vec<(String, Json)> = Vec::new();
    for (ei, name) in ENDPOINTS.iter().enumerate() {
        let (requests, errors) = http_stats().totals(ei);
        let mut fields = vec![
            ("requests_total".to_owned(), Json::num_u(requests)),
            ("errors_total".to_owned(), Json::num_u(errors)),
            (
                "truncation".to_owned(),
                Json::Obj(
                    TRUNCATIONS
                        .iter()
                        .enumerate()
                        .map(|(ti, &label)| {
                            let v = http_stats().truncations[ei][ti].load(Ordering::Relaxed);
                            (label.to_owned(), Json::num_u(v))
                        })
                        .collect(),
                ),
            ),
        ];
        for &(label, secs) in &STANDARD_WINDOWS {
            let view = rings.latency[ei].view(secs);
            let errs = rings.errors[ei].sum(secs);
            fields.push((label.to_owned(), window_stats_json(view, errs)));
        }
        endpoints.push(((*name).to_owned(), Json::Obj(fields)));
    }

    let queue_wait: Vec<(String, Json)> = STANDARD_WINDOWS
        .iter()
        .map(|&(label, secs)| {
            (label.to_owned(), window_stats_json(rings.queue_wait.view(secs), 0))
        })
        .collect();

    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let result_hits = counter("engine.result_cache.hits");
    let result_misses = counter("engine.result_cache.misses");
    let dist_hits = counter("engine.dist_cache.hits");
    let dist_misses = counter("engine.dist_cache.misses");

    Json::obj(vec![
        ("uptime_s", Json::Num(ctx.started.elapsed().as_secs_f64())),
        ("ready", Json::Bool(true)),
        ("warm_start", Json::Bool(!matches!(source, Json::Null))),
        ("snapshot_source", source),
        ("snapshot_mode", mode),
        ("graph_epoch", Json::num_u(epoch)),
        (
            "tenants",
            Json::Arr(
                ctx.registry.manifest().iter().map(tenant_info_json).collect(),
            ),
        ),
        (
            "config",
            Json::obj(vec![
                ("serve_core", Json::Str("epoll".to_owned())),
                ("keepalive_max", Json::num_u(ctx.keepalive_max as u64)),
                ("idle_timeout_s", Json::num_u(ctx.idle_timeout.as_secs())),
                ("max_inflight", Json::num_u(ctx.max_inflight as u64)),
            ]),
        ),
        (
            "pool",
            Json::obj(vec![
                ("workers", Json::num_u(ctx.workers as u64)),
                ("busy", Json::num_u(ctx.busy.load(Ordering::Relaxed))),
                ("queue_depth", Json::num_u(ctx.depth.load(Ordering::Relaxed))),
                ("conns_active", Json::num_u(ctx.conns.load(Ordering::Relaxed))),
            ]),
        ),
        (
            "poller",
            Json::obj(vec![
                ("parked", Json::num_u(ctx.parked.load(Ordering::Relaxed))),
                ("inflight", Json::num_u(ctx.inflight.load(Ordering::Relaxed))),
                ("shed_total", Json::num_u(ctx.shed.load(Ordering::Relaxed))),
                ("reaped_total", Json::num_u(ctx.reaped.load(Ordering::Relaxed))),
            ]),
        ),
        (
            "process",
            Json::obj(vec![
                ("rss_bytes", Json::num_u(snap.gauge("process.rss_bytes").unwrap_or(0))),
                ("threads", Json::num_u(snap.gauge("process.threads").unwrap_or(0))),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![
                (
                    "result",
                    Json::obj(vec![
                        ("hits", Json::num_u(result_hits)),
                        ("misses", Json::num_u(result_misses)),
                        ("hit_ratio", Json::Num(hit_ratio(result_hits, result_misses))),
                        ("entries", Json::num_u(engine_status.result_cache_entries)),
                    ]),
                ),
                (
                    "dist",
                    Json::obj(vec![
                        ("hits", Json::num_u(dist_hits)),
                        ("misses", Json::num_u(dist_misses)),
                        ("hit_ratio", Json::Num(hit_ratio(dist_hits, dist_misses))),
                        ("entries", Json::num_u(engine_status.dist_cache_entries)),
                    ]),
                ),
            ]),
        ),
        ("queue_wait", Json::Obj(queue_wait)),
        ("endpoints", Json::Obj(endpoints)),
    ])
}

/// `GET /heat`: the graph heat table's top-K hot types, members, and
/// edges with resolved names, plus the table's provenance (epoch, merged
/// queries and field builds, coverage totals). Resolution runs against
/// the routed tenant's engine.
fn heat_json(engine: &Prospector, k: usize) -> Json {
    let snap = engine.heat_snapshot(k);
    let entries = |items: &[prospector_core::HeatEntry]| {
        Json::Arr(
            items
                .iter()
                .map(|e| {
                    Json::obj(vec![
                        ("name", Json::Str(e.label.clone())),
                        ("count", Json::num_u(e.count)),
                    ])
                })
                .collect(),
        )
    };
    Json::obj(vec![
        ("epoch", Json::num_u(snap.epoch)),
        ("queries", Json::num_u(snap.queries)),
        ("fields", Json::num_u(snap.fields)),
        ("nodes_touched", Json::num_u(snap.nodes_touched as u64)),
        ("edges_touched", Json::num_u(snap.edges_touched as u64)),
        ("node_total", Json::num_u(snap.node_total)),
        ("edge_total", Json::num_u(snap.edge_total)),
        ("top_types", entries(&snap.top_types)),
        ("top_members", entries(&snap.top_members)),
        (
            "top_edges",
            Json::Arr(
                snap.top_edges
                    .iter()
                    .map(|e| {
                        Json::obj(vec![
                            ("from", Json::Str(e.from.clone())),
                            ("elem", Json::Str(e.elem.clone())),
                            ("to", Json::Str(e.to.clone())),
                            ("count", Json::num_u(e.count)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `GET /analytics`: the workload sketches — top-K popular, miss-heavy,
/// and truncation-heavy `(tin, tout)` keys with resolved names — plus
/// profiler sample totals. Resolution runs against the routed tenant's
/// engine.
fn analytics_json(engine: &Prospector, k: usize) -> Json {
    let snap = engine.workload_snapshot(k);
    let entries = |items: &[prospector_core::WorkloadEntry]| {
        Json::Arr(
            items
                .iter()
                .map(|e| {
                    Json::obj(vec![
                        ("tin", Json::Str(e.tin.clone())),
                        ("tout", Json::Str(e.tout.clone())),
                        ("count", Json::num_u(e.count)),
                        ("err", Json::num_u(e.err)),
                        ("estimate", Json::num_u(e.estimate)),
                    ])
                })
                .collect(),
        )
    };
    Json::obj(vec![
        ("queries", Json::num_u(snap.queries)),
        ("cache_misses", Json::num_u(snap.cache_misses)),
        ("truncations", Json::num_u(snap.truncations)),
        (
            "sketch",
            Json::obj(vec![
                ("width", Json::num_u(snap.sketch_width as u64)),
                ("depth", Json::num_u(snap.sketch_depth as u64)),
            ]),
        ),
        ("popularity", entries(&snap.popularity)),
        ("misses", entries(&snap.misses)),
        ("truncated", entries(&snap.truncated)),
        (
            "profiler",
            Json::obj(vec![
                ("samples", Json::num_u(profile::samples())),
                ("dropped", Json::num_u(profile::dropped())),
            ]),
        ),
    ])
}

/// Serializes one response to its wire bytes — header block plus body —
/// for the poller's outbound buffers. `Allow:` rides on 405s,
/// `Retry-After:` on shed 429s.
pub(crate) fn serialize_response(response: &Response, close: bool) -> Vec<u8> {
    let connection = if close { "close" } else { "keep-alive" };
    let allow = if response.allow.is_empty() {
        String::new()
    } else {
        format!("Allow: {}\r\n", response.allow)
    };
    let retry = if response.retry_after == 0 {
        String::new()
    } else {
        format!("Retry-After: {}\r\n", response.retry_after)
    };
    let header = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{allow}{retry}Connection: {connection}\r\n\r\n",
        response.code,
        response.reason,
        response.content_type,
        response.body.len()
    );
    let mut out = Vec::with_capacity(header.len() + response.body.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(response.body.as_bytes());
    out
}

/// A successful `/query` answer plus the accounting fields the access
/// log wants alongside the body.
struct QueryOutcome {
    body: String,
    trace_id: u64,
    cached: bool,
    truncation: String,
}

/// Answers `GET /query?tin=..&tout=..` with ranked-jungloid JSON.
///
/// Routed through the one-element batch path on purpose: the server's
/// queries then share the exact accounting (`engine.batch.*`, preallocated
/// trace ids) that `query --batch` lines get, so a dashboard scraping
/// `/metrics` sees one coherent story regardless of how queries arrived.
fn run_query(engine: &Prospector, max: usize, query: &str) -> Result<QueryOutcome, String> {
    let tin = query_param(query, "tin").ok_or("missing query parameter `tin`")?;
    let tout = query_param(query, "tout").ok_or("missing query parameter `tout`")?;
    let tin_ty = engine.api().types().resolve(&tin).map_err(|e| e.to_string())?;
    let tout_ty = engine.api().types().resolve(&tout).map_err(|e| e.to_string())?;

    let batch = engine.query_batch(&[(tin_ty, tout_ty)]);
    let entry = batch.into_iter().next().ok_or("empty batch result")?;
    let trace_id = entry.trace_id.0;
    let result = entry.result.map_err(|e| e.to_string())?;
    let cached = result.stats.result_cache_hits > 0;
    let truncation = result.truncation.label().to_owned();

    let mut pairs = vec![
        ("ok", Json::Bool(true)),
        ("tin", Json::Str(tin)),
        ("tout", Json::Str(tout)),
        ("trace_id", Json::num_u(trace_id)),
        ("trace_id_hex", Json::Str(TraceId(trace_id).to_string())),
        (
            "shortest",
            result.shortest.map_or(Json::Null, |m| Json::num_u(u64::from(m))),
        ),
        ("truncation", Json::Str(truncation.clone())),
        ("cached", Json::Bool(cached)),
        ("found", Json::num_u(result.suggestions.len() as u64)),
        (
            "suggestions",
            Json::Arr(
                result
                    .suggestions
                    .iter()
                    .take(max)
                    .map(|s| Json::Str(s.code.clone()))
                    .collect(),
            ),
        ),
        (
            "stats",
            Json::obj(vec![
                ("result_cache_hits", Json::num_u(result.stats.result_cache_hits)),
                ("result_cache_misses", Json::num_u(result.stats.result_cache_misses)),
                ("dist_cache_hits", Json::num_u(result.stats.dist_cache_hits)),
                ("dist_cache_misses", Json::num_u(result.stats.dist_cache_misses)),
                ("bfs_relaxations", Json::num_u(result.stats.bfs_relaxations)),
                ("dfs_expansions", Json::num_u(result.stats.dfs_expansions)),
            ]),
        ),
    ];
    pairs.push(("time_us", Json::num_u(entry.time.as_micros() as u64)));
    Ok(QueryOutcome { body: Json::obj(pairs).to_text(), trace_id, cached, truncation })
}

/// Answers `GET /assist?var=name:Type&var=..&tout=Type` — the editor
/// content-assist fan-out: every visible variable is a source and one
/// fused search ranks jungloids from all of them, plus the variables
/// whose type already widens to `tout`.
fn run_assist(engine: &Prospector, max: usize, query: &str) -> Result<String, String> {
    let tout = query_param(query, "tout").ok_or("missing query parameter `tout`")?;
    let tout_ty = engine.api().types().resolve(&tout).map_err(|e| e.to_string())?;
    let vars = query_params_all(query, "var");
    if vars.is_empty() {
        return Err("missing query parameter `var` (repeatable, `name:Type`)".to_owned());
    }
    let mut parsed: Vec<(String, String)> = Vec::with_capacity(vars.len());
    for raw in &vars {
        let (name, ty) = raw
            .split_once(':')
            .ok_or_else(|| format!("malformed `var` value {raw:?} (expected `name:Type`)"))?;
        if name.is_empty() || ty.is_empty() {
            return Err(format!("malformed `var` value {raw:?} (expected `name:Type`)"));
        }
        parsed.push((name.to_owned(), ty.to_owned()));
    }
    let mut visible = Vec::with_capacity(parsed.len());
    for (name, ty) in &parsed {
        let ty_id = engine.api().types().resolve(ty).map_err(|e| e.to_string())?;
        visible.push((name.as_str(), ty_id));
    }
    let result = engine.assist(&visible, tout_ty).map_err(|e| e.to_string())?;
    Ok(Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("tout", Json::Str(tout)),
        (
            "vars",
            Json::Arr(
                parsed
                    .iter()
                    .map(|(name, ty)| {
                        Json::obj(vec![
                            ("name", Json::Str(name.clone())),
                            ("type", Json::Str(ty.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "already_available",
            Json::Arr(result.already_available.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "shortest",
            result.shortest.map_or(Json::Null, |m| Json::num_u(u64::from(m))),
        ),
        ("truncation", Json::Str(result.truncation.label().to_owned())),
        ("found", Json::num_u(result.suggestions.len() as u64)),
        (
            "suggestions",
            Json::Arr(
                result
                    .suggestions
                    .iter()
                    .take(max)
                    .map(|s| Json::Str(s.code.clone()))
                    .collect(),
            ),
        ),
    ])
    .to_text())
}

/// Minimal percent-decoding for query values (`%2E`, `+` → space). Type
/// names are dot-separated identifiers, so this is already generous.
fn percent_decode(value: &str) -> String {
    let bytes = value.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                // Only `%` plus two ASCII hex digits is an escape; a
                // sign (`%+A`) or anything else passes through.
                let digit = |b: u8| char::from(b).to_digit(16);
                let hex = match bytes.get(i + 1..i + 3) {
                    Some(&[hi, lo]) => digit(hi).zip(digit(lo)).map(|(h, l)| (h << 4 | l) as u8),
                    _ => None,
                };
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

#[cfg(test)]
mod tests {
    use super::{endpoint_index, percent_decode, query_param, ENDPOINTS};

    #[test]
    fn percent_decode_handles_escapes_and_passthrough() {
        assert_eq!(percent_decode("IFile"), "IFile");
        assert_eq!(percent_decode("a%2Eb"), "a.b");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%2"), "trail%2");
        // A sign is not a hex digit: `%+A` is not a newline, `%+0` not NUL.
        assert_eq!(percent_decode("%+A"), "% A");
        assert_eq!(percent_decode("%+0"), "% 0");
        assert_eq!(percent_decode("%-1"), "%-1");
    }

    #[test]
    fn query_param_finds_decodes_and_misses() {
        assert_eq!(query_param("tin=IFile&tout=a%2Eb", "tout").as_deref(), Some("a.b"));
        assert_eq!(query_param("tin=IFile", "tout"), None);
        assert_eq!(query_param("", "n"), None);
        assert_eq!(query_param("clear=1", "clear").as_deref(), Some("1"));
    }

    #[test]
    fn every_route_maps_into_the_endpoint_table() {
        for route in [
            "/healthz",
            "/readyz",
            "/metrics",
            "/status",
            "/query",
            "/assist",
            "/slow",
            "/trace.json",
            "/logs",
            "/heat",
            "/analytics",
            "/profile.folded",
            "/tenants",
            "/reload",
        ] {
            let ei = endpoint_index(route);
            assert_ne!(ENDPOINTS[ei], "other", "{route} should have its own label");
        }
        assert_eq!(ENDPOINTS[endpoint_index("/nope")], "other");
        assert_eq!(ENDPOINTS[endpoint_index("/")], "other");
    }

    #[test]
    fn admin_endpoints_advertise_their_methods() {
        use super::allowed_methods;
        assert_eq!(allowed_methods(endpoint_index("/tenants")), "GET, POST");
        assert_eq!(allowed_methods(endpoint_index("/reload")), "POST");
        assert_eq!(allowed_methods(endpoint_index("/query")), "GET");
    }

    #[test]
    fn repeatable_params_come_back_in_order() {
        use super::query_params_all;
        assert_eq!(
            query_params_all("var=r%3AReader&tout=T&var=s:String", "var"),
            vec!["r:Reader".to_owned(), "s:String".to_owned()]
        );
        assert!(query_params_all("tout=T", "var").is_empty());
    }

    #[test]
    fn top_k_param_defaults_clamps_and_parses() {
        use super::top_k_param;
        assert_eq!(top_k_param(""), 10);
        assert_eq!(top_k_param("k=5"), 5);
        assert_eq!(top_k_param("k=0"), 1);
        assert_eq!(top_k_param("k=9999"), 100);
        assert_eq!(top_k_param("k=abc"), 10);
    }
}
