//! Per-stage time of a served request is read from the stage
//! histograms, and the flight recorder names every event from the
//! catalog: on `/metrics` the `search`, `synth` and `rank` spans lie
//! inside the `query` and `assist` endpoints' handle time, each request
//! once in its endpoint's histogram, `/trace.json` names each event
//! `query`, `<stage>.total` or a counter's series name, and the retired
//! `/profile.folded` is a 404 counted under `other`.
//!
//! One test in its own binary, because the stage histograms are
//! process-global. Serving is Linux/x86_64-only, so this test is too.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use prospector_cli::serve::{ServeOptions, Server};
use prospector_corpora::{build, BuildOptions};
use prospector_obs::{Counter, Json, Stage};
use prospector_registry::{Provenance, Registry};

/// Issues one `GET` and returns `(status_line, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let raw = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    (head.lines().next().expect("status line").to_owned(), body.to_owned())
}

/// The value of one flat series in a Prometheus exposition body.
fn prom_value(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(series) && l[series.len()..].starts_with(' '))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

#[test]
fn stage_histograms_lie_inside_request_time_and_the_recorder_names_events_from_the_catalog() {
    let engine = build(&BuildOptions::default()).expect("corpus builds").prospector;
    let registry = Registry::with_default(engine, Provenance::built());
    let server = Server::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);
    let opts = ServeOptions { max: 5, mmap: false, ..ServeOptions::default() };

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &opts, &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        // Each pair twice (a pipeline run, then a result-cache hit),
        // plus two /assist calls.
        let mut requests = Vec::new();
        for pair in ["IFile&tout=ASTNode", "IWorkspace&tout=IFile", "Shell&tout=Button"] {
            requests.push(format!("/query?tin={pair}"));
            requests.push(format!("/query?tin={pair}"));
        }
        requests.push("/assist?var=file:IFile&tout=ASTNode".to_owned());
        requests.push("/assist?var=ws:IWorkspace&tout=IFile".to_owned());
        for path in &requests {
            let (status, body) = http_get(addr, path);
            assert!(status.contains("200"), "{path}: {status}: {body}");
        }

        // A serve thread records a request's handle time before the
        // answer's first byte leaves, so one scrape sees every request.
        let (status, metrics) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        let series = |name: String| {
            prom_value(&metrics, &name).unwrap_or_else(|| panic!("no {name} in:\n{metrics}"))
        };
        for endpoint in ["query", "assist"] {
            let sent = requests.iter().filter(|path| path.starts_with(&format!("/{endpoint}?"))).count();
            let count = series(format!("prospector_serve_http_latency_ns_{endpoint}_count"));
            assert_eq!(count, sent as f64, "one {endpoint} observation per request");
        }
        // The spans nest: every request's laps lie inside its handle time.
        let handled: f64 = ["query", "assist"]
            .map(|endpoint| series(format!("prospector_serve_http_latency_ns_{endpoint}_sum")))
            .iter()
            .sum();
        let inner: f64 = ["search", "synth", "rank"]
            .map(|stage| series(format!("prospector_stage_latency_ns_{stage}_sum")))
            .iter()
            .sum();
        assert!(inner > 0.0, "the pipeline ran under the requests:\n{metrics}");
        assert!(handled >= inner, "query + assist handle time {handled} < search + synth + rank {inner}");
        assert!(!metrics.contains("prospector_profile_"), "no profiler series");
        assert!(!metrics.contains("endpoint=\"profile\""), "no profiler endpoint label");

        // Every recorded event is named by the catalog.
        let mut names: BTreeSet<String> =
            Counter::ROWS.iter().map(|row| row.series(None)).collect();
        names.extend(Stage::NAMES.iter().map(|stage| format!("{stage}.total")));
        names.insert("query".to_owned());
        let (status, body) = http_get(addr, "/trace.json");
        assert!(status.contains("200"), "{status}");
        let chrome = Json::parse(&body).expect("valid chrome trace");
        let events = chrome.as_arr().expect("chrome trace is an array");
        let seen: BTreeSet<&str> =
            events.iter().map(|e| e.get("name").unwrap().as_str().unwrap()).collect();
        for name in &seen {
            assert!(names.contains(*name), "{name} is not a catalog name");
        }
        for name in ["query", "search.total", "search.dfs_expansions", "engine.result_cache.hits"] {
            assert!(seen.contains(name), "no {name} event in {seen:?}");
        }

        // The profiler's endpoint is gone: a 404 under `other`.
        let other_404 = r#"prospector_serve_http_requests_total{endpoint="other",code="404"}"#;
        let (_, body) = http_get(addr, "/metrics");
        let before = prom_value(&body, other_404).expect("labeled other counter rendered");
        let (status, _) = http_get(addr, "/profile.folded");
        assert!(status.contains("404"), "{status}");
        let (_, body) = http_get(addr, "/metrics");
        assert_eq!(prom_value(&body, other_404), Some(before + 1.0));

        }));

        shutdown.store(true, Ordering::Relaxed);
        let outcome = serving.join().expect("serve thread joins");
        assert_eq!(outcome, Ok(()));
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}
