//! `prospector serve` — a zero-dependency HTTP/1.1 observability server.
//!
//! Everything here is `std`-only, and [`Server::run`] has one serve
//! core, the **epoll readiness core** ([`crate::poller`]): `--workers`
//! threads wait on one shared epoll set, and the thread an event wakes
//! takes that connection, frames its requests nonblockingly, answers
//! them and writes the answers. Keep-alive connections wait in the
//! epoll set between requests instead of occupying threads, so 10k idle
//! connections cost file descriptors, not threads. Admission control
//! runs per request: past the in-flight ceiling a thread sheds with
//! `429` + `Retry-After` without calling the engine. Serving is
//! Linux/x86_64-only (DESIGN §15); on other platforms [`Server::run`]
//! returns an error.
//!
//! The threads live inside one [`std::thread::scope`], so shutting down
//! is "set the flag, wait for the scope": accepting and answering stop,
//! outbound buffers drain, and the scope joins everything before
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
//! | `GET /assist?var=n:T&tout=..` | assist fan-out JSON: suggestions from every visible variable + its `trace_id` |
//! | `GET /slow`               | the retained slow-query timelines as JSON (`?clear=1` resets) |
//! | `GET /trace.json`         | the flight-recorder ring as Chrome trace    |
//! | `GET /logs?n=`            | the newest access-log records as JSON       |
//! | `GET /tenants`            | the tenant manifest (state, provenance, epoch, sizes) |
//! | `POST /tenants?name=&path=` | registers a new tenant from a snapshot path |
//! | `POST /reload?tenant=`    | rebuilds a tenant's engine off-lock and atomically swaps it in |
//!
//! The server is **multi-tenant**: every engine endpoint (`/query`,
//! `/assist`) accepts a `?tenant=` key routed through the
//! [`prospector_registry::Registry`]. Without the key a
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
//! access log at bind time (it exists to expose them). Every catalog row
//! ([`prospector_obs::catalog`]) exists from process start, so a scrape
//! taken before the first query already shows every series at zero.
//! `/metrics` and `/status` read the live server when scraped: the pool
//! and poller gauges from the server's own counters, the tenant series
//! and rings from the registry, and the process gauges from
//! `/proc/self/status`.

// Off Linux/x86_64 the poller is compiled out, so nothing calls the
// request path below; `Server::run` returns the poller stub's error.
#![cfg_attr(not(all(target_os = "linux", target_arch = "x86_64")), allow(dead_code))]

use std::borrow::Cow;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use prospector_core::{Prospector, Suggestion, TruncationReason};
use prospector_obs::hist::Histogram;
use prospector_obs::json::JsonWriter;
use prospector_obs::log::{self as alog, AccessRecord};
use prospector_obs::prom::Exposition;
use prospector_obs::trace::{self, TraceId};
use prospector_obs::window::{CounterRing, WindowRing, WindowStats, STANDARD_WINDOWS};
use prospector_obs::{Counter, Gauge, Hist, Json, Labeled, Window};
use prospector_registry::{Registry, Tenant, TenantInfo, TenantState, DEFAULT_TENANT};

use crate::http::{FrameError, Request};

/// Default cap on requests served over one keep-alive connection before
/// the server closes it (`--keepalive-max`) — a backstop so one chatty
/// client cannot hold a connection slot forever.
pub(crate) const DEFAULT_KEEPALIVE_MAX: usize = 1000;

/// Default parked-connection idle timeout (`--idle-timeout`).
pub(crate) const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// In-flight request slots granted per serve thread when
/// `--max-inflight` is left at auto (`0`). A thread answers one request
/// at a time, so the thread count bounds the requests in flight and this
/// ceiling never binds; a lower explicit `--max-inflight` does.
const INFLIGHT_SLOTS_PER_WORKER: usize = 64;

/// Access-log records returned by `GET /logs` when `n` is not given.
const DEFAULT_LOG_TAIL: usize = 100;

/// Cap on `GET /logs?n=` — larger requests clamp here rather than asking
/// the log ring for more than it could ever hold.
const MAX_LOG_TAIL: usize = 10_000;

/// Endpoint labels, in routing order. `other` absorbs every unknown
/// path so scans and typos still show up in the request counters
/// without minting unbounded label values.
const ENDPOINTS: [&str; 12] = [
    "healthz",
    "readyz",
    "metrics",
    "status",
    "query",
    "assist",
    "slow",
    "trace",
    "logs",
    "tenants",
    "reload",
    "other",
];

/// Status codes the server can emit, one counter column each.
const CODES: [u16; 8] = [200, 400, 404, 405, 413, 429, 431, 500];

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
    /// How long a parked connection may sit idle before the serve
    /// core's timer wheel reaps it (`--idle-timeout`).
    pub idle_timeout: Duration,
    /// Admission-control ceiling on requests being answered at once;
    /// `0` resolves to `workers × 64`, which the thread count never
    /// reaches. Past the ceiling a request is shed with `429` +
    /// `Retry-After`.
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

/// One [`ENDPOINTS`] row of request accounting.
struct EndpointStats {
    /// Requests by status code, one cell per [`CODES`] entry.
    codes: [AtomicU64; CODES.len()],
    /// Requests by truncation reason (queries only in practice; the data
    /// rides on every response's `truncation` label).
    truncations: [AtomicU64; TruncationReason::ALL.len()],
    /// Handle time since boot (`serve.http.latency_ns.<endpoint>`).
    latency_hist: Histogram,
    /// Handle time over the rolling windows.
    latency: WindowRing,
    /// Non-2xx answers over the rolling windows, for `/status`.
    errors: CounterRing,
}

impl EndpointStats {
    /// `(requests, errors)` totals.
    fn totals(&self) -> (u64, u64) {
        let mut requests = 0;
        let mut errors = 0;
        for (cell, &code) in self.codes.iter().zip(&CODES) {
            let v = cell.load(Ordering::Relaxed);
            requests += v;
            if code >= 400 {
                errors += v;
            }
        }
        (requests, errors)
    }
}

/// Serve's request table: one row per [`ENDPOINTS`] entry plus the
/// queue-wait ring. [`record_request`] writes it; `/metrics` and
/// `/status` read it. It is the label support the metric registry does
/// not have, kept here because serve owns [`ENDPOINTS`].
struct RequestTable {
    endpoints: [EndpointStats; ENDPOINTS.len()],
    queue_wait: WindowRing,
}

fn requests() -> &'static RequestTable {
    static TABLE: OnceLock<RequestTable> = OnceLock::new();
    TABLE.get_or_init(|| RequestTable {
        endpoints: std::array::from_fn(|_| EndpointStats {
            codes: std::array::from_fn(|_| AtomicU64::new(0)),
            truncations: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_hist: Histogram::new(),
            latency: WindowRing::new(),
            errors: CounterRing::new(),
        }),
        queue_wait: WindowRing::new(),
    })
}

/// Shared per-run state: the tenant registry, the resolved options, and
/// the live gauges the serve threads update and `/metrics` and
/// `/status` read when scraped.
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
    /// Serve threads holding a connection: reading, answering or
    /// writing it.
    pub(crate) busy: AtomicU64,
    /// Connections accepted and not yet closed (parked + being answered).
    pub(crate) conns: AtomicU64,
    /// Requests being answered: admitted and not yet logged.
    pub(crate) inflight: AtomicU64,
    /// Connections not being answered: waiting for a request or writing
    /// answers already logged.
    pub(crate) parked: AtomicU64,
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
            inflight: AtomicU64::new(0),
            parked: AtomicU64::new(0),
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
    /// Binds `addr` and turns the metric registry, flight recorder, and
    /// access log on. The serve thread count defaults to the machine's
    /// available parallelism.
    ///
    /// # Errors
    ///
    /// Returns the bind failure as a displayable message.
    pub fn bind(addr: &str) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        prospector_obs::set_enabled(true);
        trace::set_enabled(true);
        alog::set_enabled(true);
        let workers = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
        Ok(Server { listener, workers })
    }

    /// Overrides the serve thread count (`--workers N`: `serve` runs N
    /// threads, the calling one among them); zero is clamped to one.
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
    /// ([`crate::poller`]): the calling thread is one of the serve
    /// threads, each of which answers the requests it reads. When the
    /// flag flips everything drains and joins before this returns.
    ///
    /// # Errors
    ///
    /// Returns serve-core failures as displayable messages — including,
    /// on any platform but Linux/x86_64, that serving is unavailable
    /// there.
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
    /// The flight-recorder id for `/query` and `/assist`; 0 elsewhere.
    trace_id: u64,
    /// Whether a `/query` answer came from the result cache.
    cached: bool,
    /// The query's truncation reason; `None` for non-query endpoints.
    truncation: Option<TruncationReason>,
    /// The tenant the request resolved to; `None` for endpoints that
    /// touch no engine. Feeds the access log and the tenant's latency
    /// ring.
    tenant: Option<Arc<Tenant>>,
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
            truncation: None,
            tenant: None,
        }
    }

    fn ok_json(body: String) -> Response {
        Response::new(200, "OK", "application/json", body)
    }

    /// Attributes the response to `tenant` — the only place `tenant` is
    /// set, so the access log and the per-tenant latency rings only ever
    /// see a registered (and therefore validated) name.
    fn for_tenant(mut self, tenant: &Arc<Tenant>) -> Response {
        self.tenant = Some(Arc::clone(tenant));
        self
    }

    /// A strict-JSON 400 — the shape every engine endpoint returns for
    /// bad parameters, including an unknown `?tenant=` key.
    fn bad_request(message: &str) -> Response {
        Response::new(400, "Bad Request", "application/json", error_body(message))
    }
}

/// `{"ok":false,"error":..}`, the body of every JSON error.
fn error_body(message: &str) -> String {
    let mut body = String::with_capacity(32 + message.len());
    let mut w = JsonWriter::new(&mut body);
    w.begin_obj();
    w.key("ok").bool(false);
    w.key("error").str(message);
    w.end_obj();
    body
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
    let body = error_body(&error.message());
    let (code, reason) = match error {
        FrameError::BadRequestLine(_) => (400, "Bad Request"),
        FrameError::HeadersTooLarge(_) => (431, "Request Header Fields Too Large"),
        FrameError::BodyTooLarge(_) => (413, "Payload Too Large"),
    };
    Response::new(code, reason, "application/json", body)
}

/// The `429` a request is shed with at the admission ceiling: strict
/// JSON, `Retry-After: 1`, built without calling the engine.
pub(crate) fn shed_response() -> Response {
    let body = r#"{"ok":false,"error":"overloaded: in-flight request ceiling reached","shed":true}"#;
    let mut r = Response::new(429, "Too Many Requests", "application/json", body.to_owned());
    r.retry_after = 1;
    r
}

/// Maps a request target (route + optional query string) to its
/// [`ENDPOINTS`] row — the shape a serve thread has in hand when it
/// sheds.
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
        Err(e) => Response::bad_request(&e.to_string()),
    }
}

/// Routes one GET to its handler.
fn route_get(ctx: &Ctx<'_>, endpoint: usize, query: &str) -> Response {
    match ENDPOINTS[endpoint] {
        "healthz" => Response::new(200, "OK", "text/plain", "ok\n".to_owned()),
        "readyz" => Response::ok_json(readyz_json(ctx).to_text()),
        "metrics" => Response::new(200, "OK", "text/plain; version=0.0.4", render_metrics(ctx)),
        "status" => Response::ok_json(status_json(ctx).to_text()),
        "query" => on_tenant(ctx, query, |tenant| {
            tenant.record_query();
            query_response(run_query(&tenant.engine(), ctx.max, query))
        }),
        "assist" => on_tenant(ctx, query, |tenant| {
            tenant.record_query();
            query_response(run_assist(&tenant.engine(), ctx.max, query))
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
        "trace" => Response::ok_json(trace::to_chrome_json(&trace::events()).to_text()),
        "logs" => match query_param(query, "n") {
            None => Response::ok_json(alog::to_json_array(&alog::tail(DEFAULT_LOG_TAIL))),
            Some(raw) => match raw.parse::<usize>() {
                Ok(n) => Response::ok_json(alog::to_json_array(&alog::tail(n.min(MAX_LOG_TAIL)))),
                Err(_) => Response::bad_request(&format!("invalid `n` parameter: {raw:?}")),
            },
        },
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
                Err(e) => Response::bad_request(&e.to_string()),
            }
        }),
        "tenants" => {
            let Some(name) = query_param(query, "name") else {
                return Response::bad_request("missing query parameter `name`");
            };
            let Some(path) = query_param(query, "path") else {
                return Response::bad_request("missing query parameter `path`");
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
                Err(e) => Response::bad_request(&e.to_string()),
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

/// The value of one query-string parameter, percent-decoded.
fn query_param<'q>(query: &'q str, name: &str) -> Option<Cow<'q, str>> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == name)
        .map(|(_, v)| percent_decode(v))
}

/// Every value of a repeatable query-string parameter (`/assist`'s
/// `var=`), percent-decoded, in request order.
fn query_params_all<'q>(query: &'q str, name: &str) -> Vec<Cow<'q, str>> {
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
/// Queue wait runs from the serve thread's pickup of the connection to
/// the start of this answer: the read, the framing, and the answers to
/// the requests pipelined before it.
pub(crate) fn record_request(
    endpoint: usize,
    response: &Response,
    queue_wait_ns: u64,
    handle_ns: u64,
) {
    let table = requests();
    let row = &table.endpoints[endpoint];
    let ci = CODES.iter().position(|&c| c == response.code).unwrap_or(CODES.len() - 1);
    row.codes[ci].fetch_add(1, Ordering::Relaxed);
    if let Some(reason) = response.truncation {
        row.truncations[reason as usize].fetch_add(1, Ordering::Relaxed);
    }
    table.queue_wait.record(queue_wait_ns);
    prospector_obs::metrics::histogram(Hist::ServeQueueWaitNs, 0).record(queue_wait_ns);
    row.latency.record(handle_ns);
    row.latency_hist.record(handle_ns);
    if response.code >= 400 {
        row.errors.add(1);
    }
    if let Some(tenant) = &response.tenant {
        tenant.latency().record(handle_ns);
    }
    alog::record(AccessRecord {
        ts_ms: alog::now_ms(),
        trace_id: response.trace_id,
        endpoint: ENDPOINTS[endpoint],
        tenant: response.tenant.as_ref().map_or_else(Arc::default, |t| Arc::clone(t.shared_name())),
        code: response.code,
        bytes: response.body.len() as u64,
        queue_wait_us: queue_wait_ns / 1_000,
        handle_us: handle_ns / 1_000,
        cached: response.cached,
        truncation: response.truncation.map_or("", TruncationReason::label),
    });
}

/// `GET /metrics`: the registry snapshot, the request table (labeled
/// request counters, endpoint latency cells and window rings), and the
/// per-tenant series and rings (the lifecycle state as a one-hot gauge).
/// Every endpoint × code cell is emitted, zeros included, so dashboards
/// see each series before its first event. The pool, poller, process,
/// registry and cache-entry gauges are read here, from this server.
fn render_metrics(ctx: &Ctx<'_>) -> String {
    let registry = ctx.registry;
    let tenants: Vec<Arc<Tenant>> =
        registry.names().iter().filter_map(|name| registry.get(name)).collect();
    let (mut dist, mut result) = (0, 0);
    for tenant in &tenants {
        let status = tenant.engine().status();
        dist += status.dist_cache_entries;
        result += status.result_cache_entries;
    }
    let (rss, threads) = read_proc_self_status().unwrap_or_default();
    let read = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
    // Into this scrape's copy, not the registry: these values belong to
    // this server, and a second server in the process has its own.
    let mut snap = prospector_obs::snapshot();
    for (gauge, v) in [
        (Gauge::EngineDistCacheEntries, dist),
        (Gauge::EngineResultCacheEntries, result),
        (Gauge::RegistryTenants, registry.len() as u64),
        (Gauge::RegistryEngineBytes, registry.engine_bytes_total()),
        (Gauge::ServeWorkersBusy, read(&ctx.busy)),
        (Gauge::ServeConnsActive, read(&ctx.conns)),
        (Gauge::ServePollerParked, read(&ctx.parked)),
        (Gauge::ServePollerInflight, read(&ctx.inflight)),
        (Gauge::ProcessRssBytes, rss),
        (Gauge::ProcessThreads, threads),
    ] {
        snap.gauges[gauge.cell(0)] = v;
    }
    let table = requests();
    let mut e = Exposition::default();
    e.snapshot(&snap);
    for (row, endpoint) in table.endpoints.iter().zip(ENDPOINTS) {
        for (cell, code) in row.codes.iter().zip(CODES) {
            let labels = [("endpoint", endpoint), ("code", &code.to_string())];
            e.value(Labeled::ServeHttpRequests.row(), None, &labels, cell.load(Ordering::Relaxed));
        }
        e.histogram(Labeled::ServeHttpLatencyNs.row(), Some(endpoint), &row.latency_hist.snapshot());
        e.window(Window::HttpLatency.row(), Some(endpoint), &row.latency);
    }
    e.window(Window::QueueWait.row(), None, &table.queue_wait);
    for tenant in &tenants {
        let t = tenant.info();
        let name = [("tenant", t.name.as_str())];
        e.value(Labeled::EngineGraphEpoch.row(), None, &name, t.graph_epoch);
        e.value(Labeled::EngineBytes.row(), None, &name, t.engine_bytes);
        e.value(Labeled::EngineQueries.row(), None, &name, t.queries);
        e.value(Counter::RegistryReloads.row(), None, &name, t.reloads);
        e.value(Counter::RegistryReloadFailures.row(), None, &name, t.reload_failures);
        for state in ["loading", "ready", "draining", "failed"] {
            let labels = [("tenant", t.name.as_str()), ("state", state)];
            e.value(Labeled::TenantState.row(), None, &labels, u64::from(t.state.label() == state));
        }
        e.window(Window::TenantLatency.row(), Some(tenant.name()), tenant.latency());
    }
    e.finish()
}

/// `GET /readyz`: strict JSON distinguishing *ready to answer queries*
/// from bare liveness (`/healthz`). The serve threads only run once the
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
fn window_stats_json(v: WindowStats, errors_in_window: u64) -> Json {
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
    let (rss, threads) = read_proc_self_status().unwrap_or_default();
    let table = requests();

    let mut endpoints: Vec<(String, Json)> = Vec::new();
    for (row, name) in table.endpoints.iter().zip(ENDPOINTS) {
        let (requests, errors) = row.totals();
        let mut fields = vec![
            ("requests_total".to_owned(), Json::num_u(requests)),
            ("errors_total".to_owned(), Json::num_u(errors)),
            (
                "truncation".to_owned(),
                Json::Obj(
                    TruncationReason::ALL
                        .iter()
                        .zip(&row.truncations)
                        .map(|(reason, v)| {
                            (reason.label().to_owned(), Json::num_u(v.load(Ordering::Relaxed)))
                        })
                        .collect(),
                ),
            ),
        ];
        for (label, secs) in STANDARD_WINDOWS {
            let errs = row.errors.sum(secs);
            fields.push((label.to_owned(), window_stats_json(row.latency.view(secs), errs)));
        }
        endpoints.push((name.to_owned(), Json::Obj(fields)));
    }

    let queue_wait: Vec<(String, Json)> = STANDARD_WINDOWS
        .iter()
        .map(|&(label, secs)| {
            (label.to_owned(), window_stats_json(table.queue_wait.view(secs), 0))
        })
        .collect();

    let result_hits = snap.counter(Counter::EngineResultCacheHits);
    let result_misses = snap.counter(Counter::EngineResultCacheMisses);
    let dist_hits = snap.counter(Counter::EngineDistCacheHits);
    let dist_misses = snap.counter(Counter::EngineDistCacheMisses);

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
                ("conns_active", Json::num_u(ctx.conns.load(Ordering::Relaxed))),
            ]),
        ),
        (
            "poller",
            Json::obj(vec![
                ("parked", Json::num_u(ctx.parked.load(Ordering::Relaxed))),
                ("inflight", Json::num_u(ctx.inflight.load(Ordering::Relaxed))),
                ("shed_total", Json::num_u(snap.counter(Counter::ServeShedTotal))),
                ("reaped_total", Json::num_u(snap.counter(Counter::ServePollerReaped))),
            ]),
        ),
        (
            "process",
            Json::obj(vec![
                ("rss_bytes", Json::num_u(rss)),
                ("threads", Json::num_u(threads)),
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

/// Serializes one response to its wire bytes — header block plus body —
/// for a connection's outbound buffer, in one buffer of exactly their
/// size. `Allow:` rides on 405s, `Retry-After:` on shed 429s.
pub(crate) fn serialize_response(response: &Response, close: bool) -> Vec<u8> {
    use std::fmt::Write;
    /// Decimal digits in `n`.
    fn digits(n: u64) -> usize {
        n.checked_ilog10().map_or(1, |d| d as usize + 1)
    }
    let connection = if close { "close" } else { "keep-alive" };
    let body_len = response.body.len();
    let mut len = "HTTP/1.1  \r\nContent-Type: \r\nContent-Length: \r\nConnection: \r\n\r\n".len()
        + digits(u64::from(response.code))
        + response.reason.len()
        + response.content_type.len()
        + digits(body_len as u64)
        + connection.len()
        + body_len;
    if !response.allow.is_empty() {
        len += "Allow: \r\n".len() + response.allow.len();
    }
    if response.retry_after != 0 {
        len += "Retry-After: \r\n".len() + digits(response.retry_after);
    }
    let mut out = String::with_capacity(len);
    // Writing into a `String` cannot fail, and the capacity is exact,
    // so nothing here reallocates.
    let _ = write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {body_len}\r\n",
        response.code, response.reason, response.content_type
    );
    if !response.allow.is_empty() {
        let _ = write!(out, "Allow: {}\r\n", response.allow);
    }
    if response.retry_after != 0 {
        let _ = write!(out, "Retry-After: {}\r\n", response.retry_after);
    }
    let _ = write!(out, "Connection: {connection}\r\n\r\n");
    out.push_str(&response.body);
    debug_assert_eq!(out.len(), len, "the head's size is computed exactly");
    out.into_bytes()
}

/// A successful `/query` or `/assist` answer plus the accounting fields
/// the access log wants alongside the body.
struct QueryOutcome {
    body: String,
    trace_id: u64,
    cached: bool,
    truncation: TruncationReason,
}

/// The response to a `/query` or `/assist`: the answer with its
/// accounting fields set, or a 400 with the message.
fn query_response(outcome: Result<QueryOutcome, String>) -> Response {
    match outcome {
        Ok(outcome) => {
            let mut r = Response::ok_json(outcome.body);
            r.trace_id = outcome.trace_id;
            r.cached = outcome.cached;
            r.truncation = Some(outcome.truncation);
            r
        }
        Err(message) => Response::bad_request(&message),
    }
}

/// A body buffer for a `/query` or `/assist` answer, sized so that
/// writing it does not reallocate: 512 bytes for the keys, numbers and
/// punctuation, twice the query string for the values it echoes, and
/// the shown code with an eighth more for escapes.
fn body_buffer(query: &str, shown: &[Suggestion]) -> String {
    let code: usize = shown.iter().map(|s| s.code.len() + 3).sum();
    String::with_capacity(512 + 2 * query.len() + code + code / 8)
}

/// Writes `"suggestions":[..]`, each suggestion's code.
fn write_suggestions(w: &mut JsonWriter<'_>, shown: &[Suggestion]) {
    w.key("suggestions").begin_arr();
    for s in shown {
        w.str(&s.code);
    }
    w.end_arr();
}

/// Answers `GET /query?tin=..&tout=..` with ranked-jungloid JSON,
/// written straight into the body buffer.
fn run_query(engine: &Prospector, max: usize, query: &str) -> Result<QueryOutcome, String> {
    let tin = query_param(query, "tin").ok_or("missing query parameter `tin`")?;
    let tout = query_param(query, "tout").ok_or("missing query parameter `tout`")?;
    let tin_ty = engine.api().types().resolve(&tin).map_err(|e| e.to_string())?;
    let tout_ty = engine.api().types().resolve(&tout).map_err(|e| e.to_string())?;

    let id = TraceId::next();
    let started = Instant::now();
    let result = engine.query_with_trace(tin_ty, tout_ty, id);
    let time = started.elapsed();
    let trace_id = id.0;
    let result = result.map_err(|e| e.to_string())?;
    let cached = result.stats.result_cache_hits > 0;
    let truncation = result.truncation;
    let stats = &result.stats;

    let shown = &result.suggestions[..result.suggestions.len().min(max)];
    let mut body = body_buffer(query, shown);
    let mut w = JsonWriter::new(&mut body);
    w.begin_obj();
    w.key("ok").bool(true);
    w.key("tin").str(&tin);
    w.key("tout").str(&tout);
    w.key("trace_id").u64(trace_id);
    w.key("trace_id_hex").hex(trace_id);
    match result.shortest {
        Some(m) => w.key("shortest").u64(u64::from(m)),
        None => w.key("shortest").null(),
    };
    w.key("truncation").str(truncation.label());
    w.key("cached").bool(cached);
    w.key("found").u64(result.suggestions.len() as u64);
    write_suggestions(&mut w, shown);
    w.key("stats").begin_obj();
    w.key("result_cache_hits").u64(stats.result_cache_hits);
    w.key("result_cache_misses").u64(stats.result_cache_misses);
    w.key("dist_cache_hits").u64(stats.dist_cache_hits);
    w.key("dist_cache_misses").u64(stats.dist_cache_misses);
    w.key("bfs_relaxations").u64(stats.bfs_relaxations);
    w.key("dfs_expansions").u64(stats.dfs_expansions);
    w.end_obj();
    w.key("time_us").u64(time.as_micros() as u64);
    w.end_obj();
    Ok(QueryOutcome { body, trace_id, cached, truncation })
}

/// Answers `GET /assist?var=name:Type&var=..&tout=Type` — the editor
/// content-assist fan-out: every visible variable is a source and one
/// fused search ranks jungloids from all of them, plus the variables
/// whose type already widens to `tout`. Never cached: `assist` bypasses
/// the result cache.
fn run_assist(engine: &Prospector, max: usize, query: &str) -> Result<QueryOutcome, String> {
    let tout = query_param(query, "tout").ok_or("missing query parameter `tout`")?;
    let tout_ty = engine.api().types().resolve(&tout).map_err(|e| e.to_string())?;
    let vars = query_params_all(query, "var");
    if vars.is_empty() {
        return Err("missing query parameter `var` (repeatable, `name:Type`)".to_owned());
    }
    let mut parsed: Vec<(&str, &str)> = Vec::with_capacity(vars.len());
    for raw in &vars {
        match raw.split_once(':') {
            Some((name, ty)) if !name.is_empty() && !ty.is_empty() => parsed.push((name, ty)),
            _ => return Err(format!("malformed `var` value {raw:?} (expected `name:Type`)")),
        }
    }
    let mut visible = Vec::with_capacity(parsed.len());
    for &(name, ty) in &parsed {
        let ty_id = engine.api().types().resolve(ty).map_err(|e| e.to_string())?;
        visible.push((name, ty_id));
    }
    let result = engine.assist(&visible, tout_ty).map_err(|e| e.to_string())?;
    let trace_id = result.stats.trace_id;

    let shown = &result.suggestions[..result.suggestions.len().min(max)];
    let mut body = body_buffer(query, shown);
    let mut w = JsonWriter::new(&mut body);
    w.begin_obj();
    w.key("ok").bool(true);
    w.key("tout").str(&tout);
    w.key("trace_id").u64(trace_id);
    w.key("trace_id_hex").hex(trace_id);
    w.key("vars").begin_arr();
    for &(name, ty) in &parsed {
        w.begin_obj().key("name").str(name).key("type").str(ty).end_obj();
    }
    w.end_arr();
    w.key("already_available").begin_arr();
    for name in &result.already_available {
        w.str(name);
    }
    w.end_arr();
    match result.shortest {
        Some(m) => w.key("shortest").u64(u64::from(m)),
        None => w.key("shortest").null(),
    };
    w.key("truncation").str(result.truncation.label());
    w.key("found").u64(result.suggestions.len() as u64);
    write_suggestions(&mut w, shown);
    w.end_obj();
    Ok(QueryOutcome { body, trace_id, cached: false, truncation: result.truncation })
}

/// Minimal percent-decoding for query values (`%2E`, `+` → space). Type
/// names are dot-separated identifiers, so this is already generous. A
/// value with neither `%` nor `+` decodes to itself and is not copied.
fn percent_decode(value: &str) -> Cow<'_, str> {
    if !value.bytes().any(|b| b == b'%' || b == b'+') {
        return Cow::Borrowed(value);
    }
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
    Cow::Owned(String::from_utf8_lossy(&out).into_owned())
}

#[cfg(test)]
mod tests {
    use super::{endpoint_index, percent_decode, query_param, Json, ENDPOINTS};

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
            "/tenants",
            "/reload",
        ] {
            let ei = endpoint_index(route);
            assert_ne!(ENDPOINTS[ei], "other", "{route} should have its own label");
        }
        assert_eq!(ENDPOINTS[endpoint_index("/nope")], "other");
        assert_eq!(ENDPOINTS[endpoint_index("/profile.folded")], "other", "the profiler is gone");
        assert_eq!(ENDPOINTS[endpoint_index("/")], "other");
    }

    #[test]
    fn admin_endpoints_advertise_their_methods() {
        use super::allowed_methods;
        assert_eq!(allowed_methods(endpoint_index("/tenants")), "GET, POST");
        assert_eq!(allowed_methods(endpoint_index("/reload")), "POST");
        assert_eq!(allowed_methods(endpoint_index("/query")), "GET");
    }

    /// The serve query boundary: seeded requests, each a well-formed
    /// query for its route put through up to three mutations drawn from
    /// parameter names, separators, broken and valid escapes, known and
    /// unknown type names, multibyte text and empty strings. Every answer
    /// is a typed 200, 400, 404 or 405 — never a panic — and every JSON
    /// body parses as strict JSON.
    #[test]
    fn seeded_requests_get_typed_answers() {
        use std::collections::BTreeMap;

        use prospector_corpora::{build, BuildOptions};
        use prospector_obs::SmallRng;
        use prospector_registry::{Provenance, Registry};

        use super::{answer, Ctx, ServeOptions};
        use crate::http::Request;

        // `(method, route, the route's own parameters)`. POST /tenants is
        // left out: it opens the files it is named.
        const ROUTES: [(&str, &str, &[&str]); 7] = [
            ("GET", "/query", &["tin", "tout"]),
            ("GET", "/assist", &["var", "var", "tout"]),
            ("GET", "/logs", &["n"]),
            ("GET", "/slow", &["clear"]),
            ("GET", "/status", &[]),
            ("GET", "/nope", &[]),
            ("POST", "/reload", &["tenant"]),
        ];
        const TYPES: [&str; 6] =
            ["IFile", "ASTNode", "InputStream", "BufferedReader", "java.io.Reader", "NoSuchType"];
        const KEYS: [&str; 9] = ["tin", "tout", "var", "tenant", "n", "clear", "name", "x", ""];
        const PIECES: [&str; 22] = [
            "=", "&", "%", "%2", "%zz", "%+A", "%FF%FE", "%3A", "%2E", "+", ":", "é", "日本",
            "🦀", "", "0", "-1", "99999999999999999999", "default", "ghost", "IFile", "Nope",
        ];

        let engine = build(&BuildOptions::default()).expect("corpus builds").prospector;
        let registry = Registry::with_default(engine, Provenance::built());
        let ctx = Ctx::new(&registry, &ServeOptions::default(), 1);
        let mut rng = SmallRng::seed_from_u64(28);
        let pick = |rng: &mut SmallRng, from: &[&'static str]| from[rng.gen_range(0..from.len())];
        let mut codes: BTreeMap<u16, usize> = BTreeMap::new();
        for _ in 0..20_000 {
            let (mut method, route, own) = ROUTES[rng.gen_range(0..ROUTES.len())];
            if rng.gen_bool(0.25) {
                method = if method == "GET" { "POST" } else { "GET" };
            }
            let mut pairs: Vec<String> = own
                .iter()
                .map(|&key| {
                    let value = match key {
                        "tin" | "tout" => pick(&mut rng, &TYPES).to_owned(),
                        "var" => format!("v:{}", pick(&mut rng, &TYPES)),
                        "tenant" => pick(&mut rng, &["default", "ghost"]).to_owned(),
                        _ => "1".to_owned(),
                    };
                    format!("{key}={value}")
                })
                .collect();
            for _ in 0..rng.gen_range(0..=3) {
                match rng.gen_range(0..3) {
                    0 => {
                        let pair = format!("{}={}", pick(&mut rng, &KEYS), pick(&mut rng, &PIECES));
                        pairs.push(pair);
                    }
                    1 if !pairs.is_empty() => {
                        let i = rng.gen_range(0..pairs.len());
                        let at = pairs[i].char_indices().map(|(at, _)| at).collect::<Vec<_>>();
                        let at = at[rng.gen_range(0..at.len())];
                        pairs[i].insert_str(at, pick(&mut rng, &PIECES));
                    }
                    _ if !pairs.is_empty() => {
                        pairs.remove(rng.gen_range(0..pairs.len()));
                    }
                    _ => {}
                }
            }
            let path = match pairs.join("&") {
                query if query.is_empty() && rng.gen_bool(0.5) => route.to_owned(),
                query => format!("{route}?{query}"),
            };
            let request = Request { method: method.to_owned(), path, close: false };
            let response = std::panic::catch_unwind(|| answer(&ctx, &request).1)
                .unwrap_or_else(|_| panic!("{} {} panicked", request.method, request.path));
            assert!(
                [200, 400, 404, 405].contains(&response.code),
                "{} {} answered {}: {}",
                request.method,
                request.path,
                response.code,
                response.body
            );
            if response.content_type == "application/json" {
                if let Err(e) = Json::parse(&response.body) {
                    panic!("{} {}: {e}: {}", request.method, request.path, response.body);
                }
            }
            *codes.entry(response.code).or_default() += 1;
        }
        assert_eq!(codes.keys().copied().collect::<Vec<_>>(), [200, 400, 404, 405], "{codes:?}");

        // Valid UTF-8 without `%` or `+` decodes to itself.
        const CHARS: [char; 12] = ['a', 'Z', '0', '.', ':', '=', '&', ' ', 'é', '日', '🦀', '\u{0}'];
        for _ in 0..2_000 {
            let text: String = (0..rng.gen_range(0..12)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect();
            assert_eq!(percent_decode(&text), text);
        }
    }

    /// Counts the allocations (and reallocations) each thread makes, so
    /// the pin below is not disturbed by tests running beside it.
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        struct CountingAlloc;

        thread_local! {
            static ALLOCS: Cell<u64> = const { Cell::new(0) };
        }

        fn count() {
            // `try_with`: the allocator can run while this thread's
            // locals are being torn down.
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }

        // SAFETY: defers to `System` for every operation; only adds a
        // thread-local counter bump on the allocation paths.
        #[allow(unsafe_code)]
        unsafe impl GlobalAlloc for CountingAlloc {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                count();
                System.alloc(layout)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout);
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                count();
                System.realloc(ptr, layout, new_size)
            }
        }

        #[global_allocator]
        static ALLOC: CountingAlloc = CountingAlloc;

        /// Allocations this thread has made so far.
        pub(super) fn allocations() -> u64 {
            ALLOCS.with(Cell::get)
        }
    }

    /// Turns the process-global access log on, writing to one temp file
    /// that this test binary owns, and returns the file.
    fn global_log_file() -> &'static std::path::Path {
        static PATH: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
        PATH.get_or_init(|| {
            let path = std::env::temp_dir().join("prospector-serve-unit-access.jsonl");
            let _ = std::fs::remove_file(&path);
            prospector_obs::log::set_file(path.to_str().unwrap()).expect("log file opens");
            prospector_obs::log::set_enabled(true);
            path
        })
    }

    fn default_registry() -> prospector_registry::Registry {
        use prospector_corpora::{build, BuildOptions};
        let engine = build(&BuildOptions::default()).expect("corpus builds").prospector;
        prospector_registry::Registry::with_default(engine, prospector_registry::Provenance::built())
    }

    fn get(path: &str) -> crate::http::Request {
        crate::http::Request { method: "GET".to_owned(), path: path.to_owned(), close: false }
    }

    /// `/query` and `/assist` bodies and the access-log line, written
    /// once into byte buffers, are the bytes the `Json` tree printed for
    /// the same answers. The reference trees are built here from a
    /// second engine asked the same questions in the same order, so its
    /// cache state and counters match; trace ids and `time_us` are the
    /// served ones.
    #[test]
    fn served_bytes_match_the_reference_tree() {
        use prospector_core::QueryResult;
        use prospector_obs::trace::TraceId;
        use prospector_obs::Json;

        use super::{answer, record_request, Ctx, ServeOptions};

        fn suggestions(result: &QueryResult, max: usize) -> Json {
            Json::Arr(result.suggestions.iter().take(max).map(|s| Json::Str(s.code.clone())).collect())
        }
        fn shortest(result: &QueryResult) -> Json {
            result.shortest.map_or(Json::Null, |m| Json::num_u(u64::from(m)))
        }
        fn query_tree(tin: &str, tout: &str, r: &QueryResult, max: usize, time_us: u64) -> Json {
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("tin", Json::Str(tin.to_owned())),
                ("tout", Json::Str(tout.to_owned())),
                ("trace_id", Json::num_u(r.stats.trace_id)),
                ("trace_id_hex", Json::Str(TraceId(r.stats.trace_id).to_string())),
                ("shortest", shortest(r)),
                ("truncation", Json::Str(r.truncation.label().to_owned())),
                ("cached", Json::Bool(r.stats.result_cache_hits > 0)),
                ("found", Json::num_u(r.suggestions.len() as u64)),
                ("suggestions", suggestions(r, max)),
                (
                    "stats",
                    Json::obj(vec![
                        ("result_cache_hits", Json::num_u(r.stats.result_cache_hits)),
                        ("result_cache_misses", Json::num_u(r.stats.result_cache_misses)),
                        ("dist_cache_hits", Json::num_u(r.stats.dist_cache_hits)),
                        ("dist_cache_misses", Json::num_u(r.stats.dist_cache_misses)),
                        ("bfs_relaxations", Json::num_u(r.stats.bfs_relaxations)),
                        ("dfs_expansions", Json::num_u(r.stats.dfs_expansions)),
                    ]),
                ),
                ("time_us", Json::num_u(time_us)),
            ])
        }
        fn assist_tree(tout: &str, vars: &[(&str, &str)], r: &QueryResult, max: usize, id: u64) -> Json {
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("tout", Json::Str(tout.to_owned())),
                ("trace_id", Json::num_u(id)),
                ("trace_id_hex", Json::Str(TraceId(id).to_string())),
                (
                    "vars",
                    Json::Arr(
                        vars.iter()
                            .map(|(name, ty)| {
                                Json::obj(vec![
                                    ("name", Json::Str((*name).to_owned())),
                                    ("type", Json::Str((*ty).to_owned())),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "already_available",
                    Json::Arr(r.already_available.iter().cloned().map(Json::Str).collect()),
                ),
                ("shortest", shortest(r)),
                ("truncation", Json::Str(r.truncation.label().to_owned())),
                ("found", Json::num_u(r.suggestions.len() as u64)),
                ("suggestions", suggestions(r, max)),
            ])
        }
        let num = |body: &str, key: &str| {
            Json::parse(body).expect("strict JSON").get(key).and_then(Json::as_u64).expect(key)
        };

        let served = default_registry();
        let reference = default_registry().get("default").expect("default tenant").engine();
        let ctx = Ctx::new(&served, &ServeOptions::default(), 1);
        let types = reference.api().types();
        let log = global_log_file();

        // A miss, its hit, a percent-encoded spelling of the same key (a
        // hit), and a second key.
        for (path, tin, tout) in [
            ("/query?tin=IFile&tout=ASTNode", "IFile", "ASTNode"),
            ("/query?tin=IFile&tout=ASTNode", "IFile", "ASTNode"),
            ("/query?tin=I%46ile&tout=AST%4Eode", "IFile", "ASTNode"),
            ("/query?tin=InputStream&tout=BufferedReader", "InputStream", "BufferedReader"),
        ] {
            let (endpoint, response) = answer(&ctx, &get(path));
            let body = &response.body;
            let id = num(body, "trace_id");
            let r = reference
                .query_with_trace(types.resolve(tin).unwrap(), types.resolve(tout).unwrap(), TraceId(id))
                .expect("reference answers");
            let tree = query_tree(tin, tout, &r, ctx.max, num(body, "time_us"));
            assert_eq!(*body, tree.to_text(), "{path}");

            // Its access-log line, found in the shared file by trace id.
            record_request(endpoint, &response, 7_999, 123_456);
            let text = std::fs::read_to_string(log).expect("log file reads");
            let line = text
                .lines()
                .find(|l| l.contains(&format!("\"trace_id\":{id},")))
                .expect("the request's line");
            let line_tree = Json::obj(vec![
                ("ts_ms", Json::num_u(num(line, "ts_ms"))),
                ("trace_id", Json::num_u(id)),
                ("endpoint", Json::Str("query".to_owned())),
                ("tenant", Json::Str("default".to_owned())),
                ("code", Json::num_u(200)),
                ("bytes", Json::num_u(body.len() as u64)),
                ("queue_wait_us", Json::num_u(7)),
                ("handle_us", Json::num_u(123)),
                ("cached", Json::Bool(r.stats.result_cache_hits > 0)),
                ("truncation", Json::Str(r.truncation.label().to_owned())),
            ]);
            assert_eq!(line, line_tree.to_text(), "{path}");
        }

        let (_, response) =
            answer(&ctx, &get("/assist?var=file:IFile&var=name%3AString&var=root:ASTNode&tout=ASTNode"));
        let vars = [("file", "IFile"), ("name", "String"), ("root", "ASTNode")];
        let visible: Vec<_> = vars.iter().map(|&(n, t)| (n, types.resolve(t).unwrap())).collect();
        let r = reference.assist(&visible, types.resolve("ASTNode").unwrap()).expect("assist");
        let tree = assist_tree("ASTNode", &vars, &r, ctx.max, num(&response.body, "trace_id"));
        assert_eq!(response.body, tree.to_text());

        // A 400 keeps its shape.
        let (_, response) = answer(&ctx, &get("/query?tin=IFile"));
        let tree = Json::obj(vec![
            ("ok", Json::Bool(false)),
            ("error", Json::Str("missing query parameter `tout`".to_owned())),
        ]);
        assert_eq!((response.code, response.body), (400, tree.to_text()));
    }

    /// The allocation pin: a warm cached `/query`, from `answer` through
    /// `serialize_response` and `record_request`, with the metric
    /// registry, the flight recorder and the access log on (as a bound
    /// server has them) and the log's tail full. The engine's cache hit
    /// buffers its trace events (1), the body is one buffer (1) and the
    /// wire bytes another (1); the log line reuses this thread's buffer.
    #[test]
    fn a_warm_cached_query_makes_at_most_four_allocations() {
        use super::{answer, record_request, serialize_response, Ctx, ServeOptions};

        global_log_file();
        prospector_obs::set_enabled(true);
        prospector_obs::trace::set_enabled(true);
        let registry = default_registry();
        let ctx = Ctx::new(&registry, &ServeOptions::default(), 1);
        let request = get("/query?tin=IFile&tout=ASTNode");
        let serve_one = || {
            let (endpoint, response) = answer(&ctx, &request);
            let bytes = serialize_response(&response, false);
            record_request(endpoint, &response, 10_000, 20_000);
            bytes
        };
        for _ in 0..prospector_obs::log::TAIL_CAP + 8 {
            serve_one();
        }
        let mut most = 0;
        for _ in 0..200 {
            let before = counting::allocations();
            let bytes = serve_one();
            most = most.max(counting::allocations() - before);
            assert!(String::from_utf8_lossy(&bytes).contains("\"cached\":true"));
        }
        assert!(most <= 4, "a warm cached /query made {most} allocations");
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
}
