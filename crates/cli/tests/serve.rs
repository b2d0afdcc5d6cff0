//! End-to-end smoke test of `prospector serve`: bind port 0, issue real
//! `TcpStream` requests, validate the Prometheus exposition strictly,
//! and shut the loop down via the atomic flag (the scope joins every
//! handler, so a clean return proves no thread leaked). Serving is
//! Linux/x86_64-only, so these tests are too.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

use prospector_cli::serve::{ServeOptions, Server};
use prospector_corpora::{build, BuildOptions};
use prospector_obs::Json;
use prospector_registry::{Provenance, Registry};

/// The default in-process options every test serves with.
fn opts() -> ServeOptions {
    ServeOptions { max: 5, mmap: false, ..ServeOptions::default() }
}

/// A single-tenant registry around an in-process build — the engine the
/// pre-registry tests served directly.
fn default_registry() -> Registry {
    let engine = build(&BuildOptions::default()).expect("corpus builds").prospector;
    Registry::with_default(engine, Provenance::built())
}

/// Issues one `GET` and returns `(status_line, body)`.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    http_request(addr, &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"))
}

fn http_request(addr: std::net::SocketAddr, raw: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let status = head.lines().next().expect("status line").to_owned();
    (status, body.to_owned())
}

fn is_metric_char(c: char, first: bool) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':' || (!first && c.is_ascii_digit())
}

/// Strict exposition-format check: every line is `# HELP`, `# TYPE`, or
/// `name{labels} value` with a well-formed metric name and numeric value.
/// Each family has exactly one `# HELP` and one `# TYPE`, both before its
/// first sample, and its samples form one group. Every HELP text is a
/// catalog row's help, never a generic fallback. No `name{labels}`
/// series appears twice.
fn validate_prometheus(body: &str) {
    use std::collections::{BTreeMap, BTreeSet};
    let catalog_helps: BTreeSet<&str> = prospector_obs::catalog::rows().map(|r| r.help).collect();
    let mut helped = BTreeSet::new();
    let mut types: BTreeMap<&str, &str> = BTreeMap::new();
    let mut finished: BTreeSet<&str> = BTreeSet::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut current = "";
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').unwrap_or_else(|| panic!("HELP without text: {line}"));
            assert!(helped.insert(name), "second # HELP for `{name}`");
            for generic in ["Registry counter", "Registry gauge", "Log2-bucket histogram from the metric registry"] {
                assert!(!help.contains(generic), "generic help for `{name}`: {help}");
            }
            assert!(catalog_helps.contains(help), "`{name}`'s help is no catalog row's: {help}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').unwrap_or_else(|| panic!("TYPE without kind: {line}"));
            assert!(types.insert(name, kind).is_none(), "second # TYPE for `{name}`");
            continue;
        }
        assert!(!line.starts_with('#'), "comment line is neither HELP nor TYPE: {line}");
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("no value: {line}"));
        assert!(seen.insert(series), "series `{series}` appears twice");
        let name = series.split('{').next().unwrap();
        assert!(!name.is_empty(), "empty metric name: {line}");
        for (i, c) in name.chars().enumerate() {
            assert!(is_metric_char(c, i == 0), "bad metric name `{name}` in: {line}");
        }
        let family = if types.contains_key(name) {
            name
        } else {
            ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| name.strip_suffix(suffix).filter(|base| types.get(base) == Some(&"histogram")))
                .unwrap_or_else(|| panic!("sample before its family's # TYPE: {line}"))
        };
        assert!(helped.contains(family), "sample before its family's # HELP: {line}");
        if family != current {
            assert!(finished.insert(current), "family `{current}` split into two groups");
            assert!(!finished.contains(family), "family `{family}` split into two groups: {line}");
            current = family;
        }
        if let Some(open) = series.find('{') {
            assert!(series.ends_with('}'), "unclosed label set: {line}");
            let labels = &series[open + 1..series.len() - 1];
            for pair in labels.split(',') {
                let (key, val) = pair.split_once('=').unwrap_or_else(|| panic!("bad label `{pair}`: {line}"));
                assert!(key.chars().enumerate().all(|(i, c)| is_metric_char(c, i == 0)), "bad label name: {line}");
                assert!(val.starts_with('"') && val.ends_with('"') && val.len() >= 2, "unquoted label value: {line}");
            }
        }
        assert!(value.parse::<f64>().is_ok(), "non-numeric value `{value}`: {line}");
    }
}

/// For every histogram, keyed by its family plus its labels other than
/// `le`: bucket counts are cumulative (nondecreasing in file order), the
/// last bucket is `le="+Inf"`, and it equals `_count`.
fn validate_histogram_buckets(body: &str) {
    use std::collections::BTreeMap;
    let mut buckets: BTreeMap<String, Vec<(String, u64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap();
        let (name, labels) = series.split_once('{').map_or((series, ""), |(n, l)| (n, l.trim_end_matches('}')));
        let mut le = None;
        let others: Vec<&str> = labels
            .split(',')
            .filter(|pair| !pair.is_empty())
            .filter(|pair| match pair.strip_prefix("le=") {
                Some(bound) => {
                    le = Some(bound.trim_matches('"').to_owned());
                    false
                }
                None => true,
            })
            .collect();
        let key = |family: &str| {
            if others.is_empty() { family.to_owned() } else { format!("{family}{{{}}}", others.join(",")) }
        };
        if let Some(family) = name.strip_suffix("_bucket") {
            let le = le.unwrap_or_else(|| panic!("bucket without le label: {line}"));
            buckets.entry(key(family)).or_default().push((le, value.parse().unwrap()));
        } else if let Some(family) = name.strip_suffix("_count") {
            counts.insert(key(family), value.parse().unwrap());
        }
    }
    assert!(!buckets.is_empty(), "no histogram families rendered");
    for (family, series) in &buckets {
        for window in series.windows(2) {
            assert!(
                window[0].1 <= window[1].1,
                "{family}: buckets not cumulative: {series:?}"
            );
        }
        let (last_le, last_count) = series.last().unwrap();
        assert_eq!(last_le, "+Inf", "{family}: final bucket must be +Inf");
        let total = counts
            .get(family)
            .unwrap_or_else(|| panic!("{family}: _bucket without _count"));
        assert_eq!(last_count, total, "{family}: +Inf bucket != _count");
    }
}

#[test]
fn serve_smoke() {
    let registry = default_registry();
    let server = Server::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let worker = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        let (status, body) = http_get(addr, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");

        // Two identical queries: the first runs the pipeline (a result-
        // cache miss), the second is answered from the result cache —
        // `cached` flips to true and every pipeline cost counter is 0.
        let (status, body) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}: {body}");
        let first = Json::parse(&body).expect("valid query JSON");
        assert_eq!(first.get("ok").unwrap().as_bool(), Some(true));
        assert!(first.get("trace_id").unwrap().as_u64().unwrap() > 0);
        let top = first.get("suggestions").unwrap().as_arr().unwrap()[0].as_str().unwrap();
        assert!(top.starts_with("AST.parseCompilationUnit("), "{top}");
        assert_eq!(first.get("cached").unwrap().as_bool(), Some(false));
        assert_eq!(
            first.get("stats").unwrap().get("dist_cache_misses").unwrap().as_u64(),
            Some(1)
        );
        let (_, body) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
        let second = Json::parse(&body).expect("valid query JSON");
        assert_eq!(second.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            second.get("stats").unwrap().get("result_cache_hits").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            second.get("stats").unwrap().get("dist_cache_misses").unwrap().as_u64(),
            Some(0),
            "a result-cache hit pays no pipeline cost"
        );
        assert_eq!(
            second.get("suggestions").unwrap().as_arr().unwrap().len(),
            first.get("suggestions").unwrap().as_arr().unwrap().len()
        );
        assert_ne!(
            first.get("trace_id").unwrap().as_u64(),
            second.get("trace_id").unwrap().as_u64()
        );

        let (status, body) = http_get(addr, "/query?tin=NoSuchType&tout=ASTNode");
        assert!(status.contains("400"), "{status}");
        assert_eq!(Json::parse(&body).unwrap().get("ok").unwrap().as_bool(), Some(false));

        let (status, body) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        validate_prometheus(&body);
        validate_histogram_buckets(&body);
        for family in [
            "prospector_search_dfs_expansions_total",
            "prospector_search_bfs_relaxations_total",
            "prospector_engine_dist_cache_hits_total",
            "prospector_engine_dist_cache_misses_total",
            "prospector_engine_result_cache_hits_total",
            "prospector_engine_result_cache_misses_total",
            "prospector_engine_batch_calls_total",
            "prospector_engine_batch_queries_total",
            "prospector_query_latency_ns_bucket",
            "prospector_stage_latency_ns_search_bucket",
        ] {
            assert!(body.contains(family), "missing family `{family}` in:\n{body}");
        }
        // The repeated /query above was served from the result cache, so
        // the scrape shows a nonzero hit counter.
        let hits_line = body
            .lines()
            .find(|l| l.starts_with("prospector_engine_result_cache_hits_total"))
            .expect("result-cache hit series rendered");
        let hits: f64 = hits_line.rsplit_once(' ').unwrap().1.parse().unwrap();
        assert!(hits >= 1.0, "repeated /query must register a cache hit: {hits_line}");

        let (status, body) = http_get(addr, "/trace.json");
        assert!(status.contains("200"), "{status}");
        let chrome = Json::parse(&body).expect("valid chrome trace");
        let events = chrome.as_arr().expect("chrome trace is an array");
        assert!(!events.is_empty(), "the two /query calls recorded events");
        assert!(events.iter().any(|e| e.get("ph").unwrap().as_str() == Some("X")));

        let (status, body) = http_get(addr, "/slow");
        assert!(status.contains("200"), "{status}");
        Json::parse(&body).expect("valid slow-query JSON");

        let (status, _) = http_get(addr, "/nonexistent");
        assert!(status.contains("404"), "{status}");
        let (status, _) = http_request(
            addr,
            "POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        );
        assert!(status.contains("405"), "{status}");

        }));

        // Graceful shutdown: flip the flag, the accept loop exits, the
        // scope joins every handler, and run() returns Ok.
        shutdown.store(true, Ordering::Relaxed);
        let outcome = worker.join().expect("serve thread joins");
        assert_eq!(outcome, Ok(()));
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Reads one keep-alive response off the stream: parses the head up to
/// `\r\n\r\n`, then exactly `Content-Length` body bytes — without
/// closing the connection.
fn read_response(stream: &mut TcpStream) -> (String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("read header byte");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf8 head");
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length").then(|| value.trim().parse().ok())?
        })
        .expect("Content-Length header");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    (head, String::from_utf8(body).expect("utf8 body"))
}

/// The worker pool under an explicit `--workers 4`-style configuration:
/// concurrent clients on distinct connections are all answered, one
/// connection can carry several requests (HTTP/1.1 keep-alive), and the
/// pool still drains and joins cleanly on shutdown.
#[test]
fn serve_worker_pool_keepalive_and_concurrent_clients() {
    let registry = default_registry();
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(4);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        // Keep-alive: three requests over ONE connection. The first two
        // responses advertise keep-alive; the last asks to close.
        let mut stream = TcpStream::connect(addr).expect("connect");
        for _ in 0..2 {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
                .expect("send keep-alive request");
            let (head, body) = read_response(&mut stream);
            assert!(head.contains("200"), "{head}");
            assert!(
                head.to_ascii_lowercase().contains("connection: keep-alive"),
                "server must hold the connection open: {head}"
            );
            assert_eq!(body, "ok\n");
        }
        stream
            .write_all(b"GET /query?tin=IFile&tout=ASTNode HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
            .expect("send final request");
        let (head, body) = read_response(&mut stream);
        assert!(head.contains("200"), "{head}");
        assert!(head.to_ascii_lowercase().contains("connection: close"), "{head}");
        let parsed = Json::parse(&body).expect("valid query JSON");
        assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(true));
        drop(stream);

        // Concurrency: 8 clients (more than the 4 workers) firing the
        // same query at once; every one must get the full answer.
        std::thread::scope(|clients| {
            for _ in 0..8 {
                clients.spawn(|| {
                    let (status, body) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
                    assert!(status.contains("200"), "{status}");
                    let parsed = Json::parse(&body).expect("valid query JSON");
                    assert_eq!(parsed.get("ok").unwrap().as_bool(), Some(true));
                    assert!(parsed.get("found").unwrap().as_u64().unwrap() > 0);
                });
            }
        });

        }));

        shutdown.store(true, Ordering::Relaxed);
        let outcome = serving.join().expect("serve thread joins");
        assert_eq!(outcome, Ok(()));
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Issues one `GET` and returns the full response head plus body, so
/// callers can assert on headers beyond the status line.
fn http_get_full(addr: std::net::SocketAddr, raw: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    (head.to_owned(), body.to_owned())
}

/// The value of one flat series in a Prometheus exposition body.
fn prom_value(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(series) && l[series.len()..].starts_with(' '))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

/// The SLO observability surface end to end: generated `/query` load
/// moves the latency histograms, `/status` reports it as strict JSON,
/// `/metrics` grows labeled request counters and histograms, every
/// request leaves exactly one access-log line whose `trace_id` joins
/// against `/trace.json`, `/readyz` reports provenance, `/slow?clear=1`
/// resets the slow log, 404s land on `endpoint="other"`, and 405s carry
/// `Allow: GET`.
#[test]
fn serve_status_logs_and_introspection() {
    let registry = default_registry();
    let server = Server::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        // Generated load: 60+ queries (the first per pair runs the
        // pipeline, repeats hit the result cache — both count).
        let pairs = ["IFile&tout=ASTNode", "IWorkspace&tout=IFile", "Shell&tout=Button"];
        for i in 0..63 {
            let (status, body) =
                http_get(addr, &format!("/query?tin={}", pairs[i % pairs.len()]));
            assert!(status.contains("200"), "{status}: {body}");
        }

        // One more query whose trace_id we follow through /logs and
        // /trace.json.
        let (_, body) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
        let followed = Json::parse(&body).expect("valid query JSON");
        let trace_id = followed.get("trace_id").unwrap().as_u64().expect("trace id");
        // And one /assist, whose answer carries its trace id the same way.
        let (status, body) = http_get(addr, "/assist?var=file:IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}: {body}");
        let assisted = Json::parse(&body).expect("valid assist JSON");
        let assist_id = assisted.get("trace_id").unwrap().as_u64().expect("assist trace id");
        assert_ne!(assist_id, 0);
        assert_eq!(
            assisted.get("trace_id_hex").unwrap().as_str(),
            Some(format!("{assist_id:x}").as_str())
        );

        // An unknown path and a non-GET, for the counter assertions.
        let (status, _) = http_get(addr, "/definitely-not-an-endpoint");
        assert!(status.contains("404"), "{status}");
        let (head, _) = http_get_full(
            addr,
            "POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        );
        assert!(head.contains("405"), "{head}");
        assert!(
            head.lines().any(|l| l.eq_ignore_ascii_case("allow: GET")),
            "405 must name the allowed method: {head}"
        );

        // /readyz: strict JSON, built in-process (no snapshot).
        let (status, body) = http_get(addr, "/readyz");
        assert!(status.contains("200"), "{status}");
        let ready = Json::parse(&body).expect("readyz is strict JSON");
        assert_eq!(ready.get("ready").unwrap().as_bool(), Some(true));
        assert_eq!(ready.get("warm_start").unwrap().as_bool(), Some(false));
        assert!(
            matches!(ready.get("snapshot_mode"), Some(Json::Null)),
            "in-process build has no snapshot mode: {body}"
        );
        assert!(ready.get("graph_epoch").unwrap().as_u64().is_some());

        // /status: the latency histograms saw the load — a count and a
        // nonzero p99 for the query endpoint, queue waits recorded, pool
        // and cache sections populated.
        let (status, body) = http_get(addr, "/status");
        assert!(status.contains("200"), "{status}");
        let doc = Json::parse(&body).expect("status is strict JSON");
        assert_eq!(doc.get("ready").unwrap().as_bool(), Some(true));
        assert!(doc.get("uptime_s").unwrap().as_f64().unwrap() >= 0.0);
        let query_ep = doc.get("endpoints").unwrap().get("query").expect("query endpoint");
        assert!(query_ep.get("requests_total").unwrap().as_u64().unwrap() >= 64);
        let latency = query_ep.get("latency").expect("query latency since boot");
        let keys: Vec<&str> = latency.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["count", "p50_ns", "p90_ns", "p99_ns"], "{body}");
        assert!(
            latency.get("count").unwrap().as_u64().unwrap() >= 64,
            "the generated load is counted: {body}"
        );
        let quantile = |q: &str| latency.get(q).unwrap().as_u64().unwrap();
        assert!(quantile("p99_ns") > 0, "p99 must be nonzero after 60+ queries");
        assert!(quantile("p50_ns") <= quantile("p90_ns") && quantile("p90_ns") <= quantile("p99_ns"));
        let other_ep = doc.get("endpoints").unwrap().get("other").expect("other endpoint");
        assert!(other_ep.get("errors_total").unwrap().as_u64().unwrap() >= 1, "the 404 counted");
        let queue_wait = doc.get("queue_wait").expect("queue wait since boot");
        assert!(
            queue_wait.get("count").unwrap().as_u64().unwrap() >= 60,
            "every answered request records its queue wait: {body}"
        );
        let pool = doc.get("pool").unwrap();
        assert!(pool.get("workers").unwrap().as_u64().unwrap() >= 1);
        let cache = doc.get("cache").unwrap().get("result").unwrap();
        assert!(cache.get("hits").unwrap().as_u64().unwrap() >= 1, "repeat queries hit");
        let ratio = cache.get("hit_ratio").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&ratio), "hit ratio in [0,1]: {ratio}");
        assert!(doc.get("process").unwrap().get("rss_bytes").unwrap().as_u64().is_some());

        // /metrics: still strictly valid with the labeled request block
        // and the latency histograms present; the query row saw our load.
        let (status, body) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        validate_prometheus(&body);
        validate_histogram_buckets(&body);
        let query_200 = prom_value(
            &body,
            "prospector_serve_http_requests_total{endpoint=\"query\",code=\"200\"}",
        )
        .expect("labeled query counter rendered");
        assert!(query_200 >= 64.0, "query counter saw the load: {query_200}");
        let other_404 = prom_value(
            &body,
            "prospector_serve_http_requests_total{endpoint=\"other\",code=\"404\"}",
        )
        .expect("labeled other counter rendered");
        assert!(other_404 >= 1.0, "unknown paths count under other: {other_404}");
        for (series, least) in [
            ("prospector_serve_http_latency_ns_query_count", 64.0),
            ("prospector_serve_queue_wait_ns_count", 64.0),
            ("prospector_serve_tenant_latency_ns_count{tenant=\"default\"}", 64.0),
        ] {
            let count = prom_value(&body, series).unwrap_or_else(|| panic!("{series} rendered"));
            assert!(count >= least, "{series} saw the load: {count}");
        }
        assert!(!body.contains("_window"), "no rolling-window series is left");

        // /logs: exactly one strict-JSON record per request; the followed
        // query's record carries its flight-recorder trace_id, which
        // joins against a /trace.json event on the same tid.
        let (status, body) = http_get(addr, "/logs?n=500");
        assert!(status.contains("200"), "{status}");
        let logs = Json::parse(&body).expect("logs are strict JSON");
        let records = logs.as_arr().expect("logs is an array");
        assert!(records.len() >= 60, "the load left records: {}", records.len());
        for rec in records {
            for key in
                ["ts_ms", "trace_id", "endpoint", "tenant", "code", "bytes", "queue_wait_us", "handle_us", "cached", "truncation"]
            {
                assert!(rec.get(key).is_some(), "access record missing {key}");
            }
        }
        let matching: Vec<_> = records
            .iter()
            .filter(|r| r.get("trace_id").unwrap().as_u64() == Some(trace_id))
            .collect();
        assert_eq!(matching.len(), 1, "exactly one access-log line per request");
        assert_eq!(matching[0].get("endpoint").unwrap().as_str(), Some("query"));
        assert_eq!(matching[0].get("code").unwrap().as_u64(), Some(200));
        let assist_lines: Vec<_> = records
            .iter()
            .filter(|r| r.get("trace_id").unwrap().as_u64() == Some(assist_id))
            .collect();
        assert_eq!(assist_lines.len(), 1, "the /assist logs its trace id once");
        assert_eq!(assist_lines[0].get("endpoint").unwrap().as_str(), Some("assist"));
        assert_eq!(
            assist_lines[0].get("truncation").unwrap().as_str(),
            Some("none"),
            "the /assist logs the truncation reason its body carries"
        );
        let (_, body) = http_get(addr, "/trace.json");
        let chrome = Json::parse(&body).expect("valid chrome trace");
        for (id, what) in [(trace_id, "/query"), (assist_id, "/assist")] {
            assert!(
                chrome
                    .as_arr()
                    .unwrap()
                    .iter()
                    .any(|e| e.get("tid").unwrap().as_u64() == Some(id)),
                "the {what} access-log trace_id joins against a flight-recorder track"
            );
        }

        // /slow?clear=1 resets the slow log and reports what it dropped.
        let (status, body) = http_get(addr, "/slow?clear=1");
        assert!(status.contains("200"), "{status}");
        let cleared = Json::parse(&body).expect("clear response is strict JSON");
        assert!(cleared.get("cleared").unwrap().as_u64().is_some());
        let (_, body) = http_get(addr, "/slow");
        assert_eq!(
            Json::parse(&body).unwrap().as_arr().map(<[Json]>::len),
            Some(0),
            "the slow log is empty after clearing"
        );

        }));

        shutdown.store(true, Ordering::Relaxed);
        let outcome = serving.join().expect("serve thread joins");
        assert_eq!(outcome, Ok(()));
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// The introspection surface: `/status` carries per-endpoint
/// truncation-reason counts, and `/logs?n=` validates its parameter (400
/// on garbage, clamp on giants).
#[test]
fn serve_status_truncation_and_log_tail() {
    let registry = default_registry();
    let server = Server::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        for pair in ["IFile&tout=ASTNode", "IWorkspace&tout=IFile", "Shell&tout=Button"] {
            let (status, body) = http_get(addr, &format!("/query?tin={pair}"));
            assert!(status.contains("200"), "{status}: {body}");
        }
        let (status, body) = http_get(addr, "/assist?var=file:IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}: {body}");

        // /status: per-endpoint truncation-reason counts, all three
        // labels always present.
        let (status, body) = http_get(addr, "/status");
        assert!(status.contains("200"), "{status}");
        let doc = Json::parse(&body).expect("status is strict JSON");
        let query_ep = doc.get("endpoints").unwrap().get("query").expect("query endpoint");
        let trunc = query_ep.get("truncation").expect("per-endpoint truncation counts");
        for reason in ["none", "path_cap", "expansion_cap"] {
            assert!(
                trunc.get(reason).unwrap().as_u64().is_some(),
                "missing truncation label {reason}: {body}"
            );
        }
        assert!(
            trunc.get("none").unwrap().as_u64().unwrap() >= 3,
            "our untruncated queries counted: {body}"
        );
        let assist_ep = doc.get("endpoints").unwrap().get("assist").expect("assist endpoint");
        assert!(
            assist_ep.get("truncation").unwrap().get("none").unwrap().as_u64().unwrap() >= 1,
            "our untruncated /assist counted: {body}"
        );

        // /logs?n=: garbage is a 400 with a JSON error, not a silent
        // default; valid small n bounds the tail.
        let (status, body) = http_get(addr, "/logs?n=abc");
        assert!(status.contains("400"), "garbage n must 400: {status}");
        let err = Json::parse(&body).expect("400 body is strict JSON");
        assert_eq!(err.get("ok").unwrap().as_bool(), Some(false));
        assert!(err.get("error").unwrap().as_str().unwrap().contains('n'));
        let (status, body) = http_get(addr, "/logs?n=2");
        assert!(status.contains("200"), "{status}");
        let records = Json::parse(&body).unwrap();
        assert!(records.as_arr().unwrap().len() <= 2, "n=2 bounds the tail");
        let (status, _) = http_get(addr, "/logs?n=99999999");
        assert!(status.contains("200"), "huge n clamps, not errors: {status}");

        }));

        shutdown.store(true, Ordering::Relaxed);
        let outcome = serving.join().expect("serve thread joins");
        assert_eq!(outcome, Ok(()));
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// A four-class engine: cheap enough to build one per tenant.
fn tiny_engine() -> prospector_core::Prospector {
    let mut loader = jungloid_apidef::ApiLoader::with_prelude();
    loader
        .add_source(
            "io.api",
            r"
            package java.io;
            public class InputStream {}
            public class Reader {}
            public class InputStreamReader extends Reader {
                InputStreamReader(InputStream in);
            }
            public class BufferedReader extends Reader {
                BufferedReader(Reader in);
            }
            ",
        )
        .expect("stub parses");
    prospector_core::Prospector::new(loader.finish().expect("api finishes"))
}

/// Serves `registry` while `body` runs against its address, then shuts
/// the server down and joins it.
fn serve(registry: &Registry, body: impl FnOnce(std::net::SocketAddr)) {
    let server = Server::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(registry, &opts(), &shutdown));
        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr)));
        shutdown.store(true, Ordering::Relaxed);
        assert_eq!(serving.join().expect("serve thread joins"), Ok(()));
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Tenants whose names differ only in a `.` or `_` keep their own
/// latency series: the tenant is a label value, not part of the family
/// name, so `beta.1` and `beta_1` cannot share one.
#[test]
fn tenants_that_mangle_alike_keep_their_own_latency_series() {
    let registry = Registry::with_default(tiny_engine(), Provenance::built());
    for name in ["beta.1", "beta_1"] {
        registry.insert(name, tiny_engine(), Provenance::built()).expect("tenant registers");
    }
    serve(&registry, |addr| {
        for tenant in ["beta.1", "beta_1", "beta_1"] {
            let path = format!("/query?tenant={tenant}&tin=InputStream&tout=BufferedReader");
            let (status, body) = http_get(addr, &path);
            assert!(status.contains("200"), "{tenant}: {status}: {body}");
        }
        let (status, body) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        validate_prometheus(&body);
        validate_histogram_buckets(&body);
        for (tenant, served) in [("default", 0.0), ("beta.1", 1.0), ("beta_1", 2.0)] {
            let series = format!("prospector_serve_tenant_latency_ns_count{{tenant=\"{tenant}\"}}");
            assert_eq!(prom_value(&body, &series), Some(served), "{series} in:\n{body}");
        }
    });
}

/// `/status` counts cache entries over every served tenant, as
/// `/metrics` does: a query to a non-default tenant shows in both.
#[test]
fn status_cache_entries_sum_over_every_tenant() {
    let registry = Registry::with_default(tiny_engine(), Provenance::built());
    registry.insert("beta", tiny_engine(), Provenance::built()).expect("beta registers");
    serve(&registry, |addr| {
        let (status, body) = http_get(addr, "/query?tenant=beta&tin=InputStream&tout=BufferedReader");
        assert!(status.contains("200"), "{status}: {body}");
        let (_, body) = http_get(addr, "/status");
        let doc = Json::parse(&body).expect("status is strict JSON");
        let (_, metrics) = http_get(addr, "/metrics");
        for cache in ["result", "dist"] {
            let entries = doc.get("cache").unwrap().get(cache).unwrap().get("entries").unwrap();
            let entries = entries.as_u64().unwrap();
            assert!(entries >= 1, "beta's {cache} cache entry is counted: {body}");
            let gauge = prom_value(&metrics, &format!("prospector_engine_{cache}_cache_entries"));
            assert_eq!(gauge, Some(entries as f64), "/status and /metrics agree on {cache} entries");
        }
    });
}
