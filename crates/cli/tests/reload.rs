//! Multi-tenant registry behaviour over live HTTP: strict-JSON 400 for
//! an unknown `?tenant=`, the admin endpoints (`GET /tenants`,
//! `POST /tenants`, `POST /reload`), per-tenant metric labels, and the
//! reload-under-fire guarantee — clients hammering `/query` across
//! repeated hot reloads never see a non-200 and always get the same
//! suggestions, while every retired engine is actually dropped.
//! Serving is Linux/x86_64-only, so these tests are too.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use prospector_cli::serve::{ServeOptions, Server};
use prospector_corpora::{build, BuildOptions};
use prospector_obs::Json;
use prospector_registry::{load_engine, Provenance, Registry, DEFAULT_TENANT};

fn opts() -> ServeOptions {
    ServeOptions { max: 5, mmap: false, ..ServeOptions::default() }
}

/// Issues one `GET` on a fresh connection and returns `(status_line, body)`.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    http_request(addr, &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"))
}

/// Issues one body-less `POST` and returns `(status_line, body)`.
fn http_post(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    http_request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        ),
    )
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

/// Builds the bundled corpus once and saves it as a `.pspk` under the
/// temp dir, returning the path (unique per test to allow parallelism).
fn save_snapshot(tag: &str) -> std::path::PathBuf {
    let built = build(&BuildOptions::default()).expect("corpus builds");
    let mined = built.mine_report.map(|r| r.examples).unwrap_or_default();
    let path = std::env::temp_dir()
        .join(format!("prospector_reload_{tag}_{}.pspk", std::process::id()));
    prospector_store::save_file(&path, built.prospector.api(), built.prospector.graph(), &mined)
        .expect("snapshot saves");
    path
}

#[test]
fn unknown_tenant_is_a_strict_json_400() {
    let engine = build(&BuildOptions::default()).expect("corpus builds").prospector;
    let registry = Registry::with_default(engine, Provenance::built());
    let server = Server::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let worker = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        // Every engine endpoint rejects an unknown tenant the same way:
        // HTTP 400 with a strict-JSON `{ok:false, error}` body — never a
        // silent fallback to the default tenant.
        for path in [
            "/query?tenant=nope&tin=IFile&tout=ASTNode",
            "/assist?tenant=nope&tout=ASTNode",
        ] {
            let (status, body) = http_get(addr, path);
            assert!(status.contains("400"), "{path}: {status}");
            let doc = Json::parse(&body).unwrap_or_else(|e| panic!("{path}: not strict JSON ({e}): {body}"));
            assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false), "{path}");
            let error = doc.get("error").unwrap().as_str().unwrap();
            assert!(error.contains("unknown tenant `nope`"), "{path}: {error}");
        }

        // A malformed name can never have been registered (insertion
        // validates `[A-Za-z0-9_.-]`), so it resolves as unknown: 400.
        let (status, body) = http_get(addr, "/query?tenant=bad/name&tin=IFile&tout=ASTNode");
        assert!(status.contains("400"), "{status}");
        let doc = Json::parse(&body).expect("strict JSON");
        assert!(doc.get("error").unwrap().as_str().unwrap().contains("unknown tenant `bad/name`"));

        // Reloading the built-in-process default is a 400 (no snapshot),
        // not a 500 — and the tenant keeps serving afterwards.
        let (status, body) = http_post(addr, "/reload");
        assert!(status.contains("400"), "{status}: {body}");
        let doc = Json::parse(&body).expect("strict JSON");
        assert!(doc.get("error").unwrap().as_str().unwrap().contains("no snapshot to reload"));
        let (status, _) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
        assert!(status.contains("200"), "default tenant still serves: {status}");

        }));

        shutdown.store(true, Ordering::SeqCst);
        let outcome = worker.join().expect("server thread exits cleanly");
        assert_eq!(outcome, Ok(()));
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// A reload naming no registered tenant is attributed to no tenant: it
/// renders nothing into `/metrics` (where a name carrying a newline
/// would inject exposition lines), and logs an empty `tenant`. A
/// registered tenant whose reload fails still logs its own name.
#[test]
fn reload_of_an_unregistered_name_mints_no_series() {
    let engine = build(&BuildOptions::default()).expect("corpus builds").prospector;
    let registry = Registry::with_default(engine, Provenance::built());
    let server = Server::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);
    // Valid-looking and malformed names, and one that decodes to
    // "x`\nghost_injected_metric 1\n".
    let bogus = ["ghost-0", "ghost-1", "ghost/2", "x%60%0Aghost_injected_metric%201%0A"];

    std::thread::scope(|scope| {
        let worker = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        for name in bogus {
            let (status, body) = http_post(addr, &format!("/reload?tenant={name}"));
            assert!(status.contains("400"), "{name}: {status}");
            let doc = Json::parse(&body).unwrap_or_else(|e| panic!("{name}: {e}: {body}"));
            assert!(doc.get("error").unwrap().as_str().unwrap().contains("unknown tenant"));
        }
        // The default tenant has no snapshot, so its reload fails too.
        let (status, _) = http_post(addr, "/reload");
        assert!(status.contains("400"), "{status}");

        let (_, metrics) = http_get(addr, "/metrics");
        let leaked: Vec<&str> = metrics.lines().filter(|l| l.contains("ghost")).collect();
        assert!(leaked.is_empty(), "bogus names reached /metrics: {leaked:?}");

        let (_, body) = http_get(addr, "/logs?n=10000");
        let records = Json::parse(&body).expect("strict JSON").as_arr().unwrap().to_vec();
        let failed_reloads: Vec<&str> = records
            .iter()
            .filter(|r| {
                r.get("endpoint").unwrap().as_str() == Some("reload")
                    && r.get("code").unwrap().as_u64() == Some(400)
            })
            .map(|r| r.get("tenant").unwrap().as_str().unwrap())
            .collect();
        assert!(
            failed_reloads.iter().all(|t| !t.contains("ghost")),
            "a bogus name reached the access log: {failed_reloads:?}"
        );
        assert!(
            failed_reloads.iter().filter(|t| t.is_empty()).count() >= bogus.len(),
            "bogus reloads log an empty tenant: {failed_reloads:?}"
        );
        assert!(failed_reloads.contains(&DEFAULT_TENANT), "{failed_reloads:?}");

        }));

        shutdown.store(true, Ordering::SeqCst);
        let outcome = worker.join().expect("server thread exits cleanly");
        assert_eq!(outcome, Ok(()));
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

#[test]
fn tenants_admin_endpoints_and_labeled_metrics() {
    let snapshot = save_snapshot("admin");
    let engine = build(&BuildOptions::default()).expect("corpus builds").prospector;
    let registry = Registry::with_default(engine, Provenance::built());
    let server = Server::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let worker = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        // Attach a second tenant at runtime from the snapshot.
        let (status, body) =
            http_post(addr, &format!("/tenants?name=alt&path={}", snapshot.display()));
        assert!(status.contains("200"), "{status}: {body}");
        let doc = Json::parse(&body).expect("strict JSON");
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        let info = doc.get("tenant").unwrap();
        assert_eq!(info.get("name").unwrap().as_str(), Some("alt"));
        assert_eq!(info.get("state").unwrap().as_str(), Some("ready"));
        let version = u64::from(prospector_store::FORMAT_VERSION);
        assert_eq!(info.get("format_version").unwrap().as_u64(), Some(version));
        assert_eq!(info.get("mode").unwrap().as_str(), Some("owned"));

        // Adding the same name twice is a 400, not a replace.
        let (status, body) =
            http_post(addr, &format!("/tenants?name=alt&path={}", snapshot.display()));
        assert!(status.contains("400"), "{status}");
        let doc = Json::parse(&body).expect("strict JSON");
        assert!(doc.get("error").unwrap().as_str().unwrap().contains("already exists"));

        // The manifest lists both tenants with their provenance.
        let (status, body) = http_get(addr, "/tenants");
        assert!(status.contains("200"), "{status}");
        let doc = Json::parse(&body).expect("strict JSON");
        assert_eq!(doc.get("count").unwrap().as_u64(), Some(2));
        assert!(doc.get("engine_bytes_total").unwrap().as_u64().unwrap() > 0);
        let rows = doc.get("tenants").unwrap().as_arr().unwrap();
        let names: Vec<&str> =
            rows.iter().map(|r| r.get("name").unwrap().as_str().unwrap()).collect();
        assert_eq!(names, vec!["alt", DEFAULT_TENANT], "sorted by name");
        for row in rows {
            for key in [
                "name", "state", "snapshot_path", "format_version", "mode", "graph_epoch",
                "engine_bytes", "loaded_at_ms", "load_us", "reloads", "reload_failures",
                "queries",
            ] {
                assert!(row.get(key).is_some(), "manifest row missing {key}");
            }
        }

        // Same question to both tenants: same corpus, same suggestions —
        // and the default-tenant URL needs no `?tenant=` at all.
        let (status, base) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}");
        let (status, alt) = http_get(addr, "/query?tenant=alt&tin=IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}: {alt}");
        let base = Json::parse(&base).expect("strict JSON");
        let alt = Json::parse(&alt).expect("strict JSON");
        assert_eq!(
            base.get("suggestions").unwrap().to_text(),
            alt.get("suggestions").unwrap().to_text(),
            "both tenants answer from the same corpus"
        );

        // A hot reload succeeds, bumps the reload counter, and installs a
        // fresh graph epoch (epochs are distinct per construction).
        let (_, before) = http_get(addr, "/tenants");
        let before = Json::parse(&before).expect("strict JSON");
        let old_epoch = before.get("tenants").unwrap().as_arr().unwrap()[0]
            .get("graph_epoch")
            .unwrap()
            .as_u64()
            .unwrap();
        let (status, body) = http_post(addr, "/reload?tenant=alt");
        assert!(status.contains("200"), "{status}: {body}");
        let doc = Json::parse(&body).expect("strict JSON");
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        let info = doc.get("tenant").unwrap();
        assert_eq!(info.get("reloads").unwrap().as_u64(), Some(1));
        assert_eq!(info.get("state").unwrap().as_str(), Some("ready"));
        let new_epoch = info.get("graph_epoch").unwrap().as_u64().unwrap();
        assert_ne!(new_epoch, old_epoch, "reload installs a fresh graph state");
        let (status, after) = http_get(addr, "/query?tenant=alt&tin=IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}");
        let after = Json::parse(&after).expect("strict JSON");
        assert_eq!(
            base.get("suggestions").unwrap().to_text(),
            after.get("suggestions").unwrap().to_text(),
            "a reload from the same snapshot changes nothing observable"
        );

        // The exposition includes per-tenant labeled series for both.
        let (status, metrics) = http_get(addr, "/metrics");
        assert!(status.contains("200"), "{status}");
        for series in [
            "prospector_engine_queries_total{tenant=\"alt\"}",
            "prospector_engine_queries_total{tenant=\"default\"}",
            "prospector_engine_graph_epoch{tenant=\"alt\"}",
            "prospector_registry_reloads_total{tenant=\"alt\"} 1",
            "prospector_tenant_state{tenant=\"alt\",state=\"ready\"} 1",
        ] {
            assert!(metrics.contains(series), "missing series: {series}");
        }

        // The access log carries the tenant each request routed to.
        let (_, body) = http_get(addr, "/logs?n=50");
        let records = Json::parse(&body).expect("strict JSON").as_arr().unwrap().to_vec();
        assert!(
            records.iter().any(|r| r.get("tenant").unwrap().as_str() == Some("alt")),
            "an access record carries tenant=alt"
        );

        }));

        shutdown.store(true, Ordering::SeqCst);
        let outcome = worker.join().expect("server thread exits cleanly");
        assert_eq!(outcome, Ok(()));
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
    let _ = std::fs::remove_file(&snapshot);
}

/// `/metrics` reads the cache-entry gauges at scrape time, summed over
/// every tenant: three entries in each of the default tenant's caches
/// plus one in each of `beta`'s show as 4 and 4, while `/status` keeps
/// reporting the default tenant's 3 and 3.
#[test]
fn cache_entry_gauges_sum_every_tenant() {
    let snapshot = save_snapshot("caches");
    let engine = build(&BuildOptions::default()).expect("corpus builds").prospector;
    let registry = Registry::with_default(engine, Provenance::built());
    registry
        .add_from_path("beta", snapshot.to_str().expect("utf8 temp path"), false)
        .expect("beta loads");
    let server = Server::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let worker = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        let pairs = [("IFile", "ASTNode"), ("InputStream", "BufferedReader"), ("IWorkspace", "IFile")];
        for (tin, tout) in pairs {
            let (status, body) = http_get(addr, &format!("/query?tin={tin}&tout={tout}"));
            assert!(status.contains("200"), "{status}: {body}");
        }
        let (status, body) = http_get(addr, "/query?tenant=beta&tin=IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}: {body}");

        let (_, body) = http_get(addr, "/status");
        let status = Json::parse(&body).expect("strict JSON");
        let cache = status.get("cache").unwrap();
        for kind in ["dist", "result"] {
            let entries = cache.get(kind).unwrap().get("entries").unwrap().as_u64();
            assert_eq!(entries, Some(3), "/status reports the default tenant's {kind} cache");
        }
        let (_, metrics) = http_get(addr, "/metrics");
        for series in [
            "prospector_engine_dist_cache_entries 4",
            "prospector_engine_result_cache_entries 4",
        ] {
            assert!(metrics.lines().any(|l| l == series), "missing `{series}`");
        }

        }));

        shutdown.store(true, Ordering::SeqCst);
        let outcome = worker.join().expect("server thread exits cleanly");
        assert_eq!(outcome, Ok(()));
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
    let _ = std::fs::remove_file(&snapshot);
}

#[test]
fn reload_under_fire_drops_no_query_and_no_engine() {
    let snapshot = save_snapshot("fire");
    // The default tenant itself comes from the snapshot, so `/reload`
    // (no `?tenant=`) exercises the hot path on the tenant under load.
    let (engine, provenance) =
        load_engine(snapshot.to_str().expect("utf-8 temp path"), false).expect("snapshot loads");
    let registry = Registry::with_default(engine, provenance);
    let server = Server::bind("127.0.0.1:0").expect("bind port 0");
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    // A weak handle onto the engine serving right now: after the reloads
    // below retire it and every in-flight query finishes, the only thing
    // keeping it alive would be a leak.
    let first_engine = registry.get(DEFAULT_TENANT).expect("default exists").engine();
    let weak_first = Arc::downgrade(&first_engine);
    drop(first_engine);

    const CLIENTS: usize = 4;
    const QUERIES_PER_CLIENT: usize = 25;
    const RELOADS: usize = 6;

    std::thread::scope(|scope| {
        let worker = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        let (status, baseline) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}");
        let baseline = Json::parse(&baseline).expect("strict JSON");
        let expected = baseline.get("suggestions").unwrap().to_text();

        // N clients hammer `/query` while the main thread reloads the
        // tenant repeatedly. Every response must be a 200 with exactly
        // the baseline suggestions: a reload from the same snapshot is
        // invisible to readers, and an in-flight query finishes on the
        // engine it started with.
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let expected = expected.clone();
                scope.spawn(move || {
                    for _ in 0..QUERIES_PER_CLIENT {
                        let (status, body) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
                        assert!(status.contains("200"), "under reload: {status}: {body}");
                        let doc = Json::parse(&body).expect("strict JSON under reload");
                        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
                        assert_eq!(
                            doc.get("suggestions").unwrap().to_text(),
                            expected,
                            "suggestions drifted across a reload"
                        );
                    }
                })
            })
            .collect();

        for _ in 0..RELOADS {
            let (status, body) = http_post(addr, "/reload");
            assert!(status.contains("200"), "reload under fire: {status}: {body}");
            let doc = Json::parse(&body).expect("strict JSON");
            assert_eq!(doc.get("ok").unwrap().as_bool(), Some(true));
        }

        for client in clients {
            client.join().expect("client saw only 200s");
        }

        let (_, body) = http_get(addr, "/tenants");
        let doc = Json::parse(&body).expect("strict JSON");
        let row = &doc.get("tenants").unwrap().as_arr().unwrap()[0];
        assert_eq!(row.get("reloads").unwrap().as_u64(), Some(RELOADS as u64));
        assert_eq!(row.get("reload_failures").unwrap().as_u64(), Some(0));
        assert_eq!(row.get("state").unwrap().as_str(), Some("ready"));

        }));

        shutdown.store(true, Ordering::SeqCst);
        let outcome = worker.join().expect("server thread exits cleanly");
        assert_eq!(outcome, Ok(()));
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });

    // All clients joined and the server loop exited: nothing in-flight.
    // The engine the test started with must be gone — the swap retires
    // old engines instead of accumulating them.
    assert!(
        weak_first.upgrade().is_none(),
        "the pre-reload engine is still alive: a reload leaked an Arc"
    );
    let _ = std::fs::remove_file(&snapshot);
}
