//! `/metrics` reads the live server when it is scraped: the registry
//! gauges and tenant series come from the registry being served, so
//! another registry in the process writes nothing into the scrape, and
//! the poller gauges are current, not a sample taken up to a second
//! ago. Serving is Linux/x86_64-only, so these tests are too.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use jungloid_apidef::ApiLoader;
use prospector_cli::serve::{ServeOptions, Server};
use prospector_core::Prospector;
use prospector_registry::{Provenance, Registry};

/// A four-class engine: cheap enough to build one per tenant.
fn tiny_engine() -> Prospector {
    let mut loader = ApiLoader::with_prelude();
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
    Prospector::new(loader.finish().expect("api finishes"))
}

/// Serves `registry` on `workers` workers while `body` runs against its
/// address, then shuts the server down and joins it.
fn serve(registry: &Registry, workers: usize, body: impl FnOnce(SocketAddr)) {
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(workers);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(registry, &ServeOptions::default(), &shutdown));
        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(addr)));
        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    stream
}

/// Sends one `GET` on `stream` and reads its response: `(status line,
/// body)`. The head is read a byte at a time and the body by its
/// length, so the connection stays usable.
fn get_on(stream: &mut TcpStream, path: &str) -> (String, String) {
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).expect("read response head"), 1, "closed mid-head");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("ascii head");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read response body");
    let status = head.lines().next().expect("status line").to_owned();
    (status, String::from_utf8(body).expect("utf8 body"))
}

/// Scrapes `/metrics` on a fresh connection.
fn scrape(addr: SocketAddr) -> String {
    let (status, body) = get_on(&mut connect(addr), "/metrics");
    assert!(status.contains("200"), "{status}");
    body
}

/// The value of the unlabeled sample `name`.
fn sample(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {name} sample:\n{metrics}"))
        .parse()
        .expect("integer sample")
}

/// The scrape's tenant series are the served registry's: each tenant's
/// latency histogram carries its name in a `tenant` label, and a second
/// registry in the process moves no gauge and files no series.
#[test]
fn the_scrape_reads_the_served_registry() {
    let a = Registry::with_default(tiny_engine(), Provenance::built());
    a.insert("alt", tiny_engine(), Provenance::built()).expect("alt registers");
    serve(&a, 1, |addr| {
        let count = "prospector_serve_tenant_latency_ns_count{tenant=\"alt\"}";
        let (status, body) =
            get_on(&mut connect(addr), "/query?tenant=alt&tin=InputStream&tout=BufferedReader");
        assert!(status.contains("200"), "{status}: {body}");
        let metrics = scrape(addr);
        assert_eq!(sample(&metrics, "prospector_registry_tenants"), 2);
        assert_eq!(sample(&metrics, count), 1);
        assert_eq!(sample(&metrics, "prospector_serve_tenant_latency_ns_count{tenant=\"default\"}"), 0);

        let b = Registry::new();
        for name in ["b1", "b2", "b3"] {
            b.insert(name, tiny_engine(), Provenance::built()).expect("b tenant registers");
        }
        let metrics = scrape(addr);
        assert_eq!(sample(&metrics, "prospector_registry_tenants"), 2, "A serves two tenants");
        assert_eq!(sample(&metrics, count), 1);
        let foreign: Vec<&str> = metrics.lines().filter(|l| l.contains("tenant=\"b")).collect();
        assert!(foreign.is_empty(), "another registry's tenants are scraped: {foreign:?}");
    });
}

/// The poller gauges are read when scraped: connections parked just
/// before the scrape are counted in it, with no wait for a sample. A
/// connection counts as parked before the first byte of its answer
/// leaves, so one scrape right after the last answer sees all of them.
#[test]
fn the_scrape_reads_the_live_poller() {
    let registry = Registry::with_default(tiny_engine(), Provenance::built());
    serve(&registry, 2, |addr| {
        let herd: Vec<TcpStream> = (0..8)
            .map(|i| {
                let mut stream = connect(addr);
                let (status, body) = get_on(&mut stream, "/healthz");
                assert!(status.contains("200") && body == "ok\n", "herd {i}: {status}");
                stream
            })
            .collect();
        let parked = sample(&scrape(addr), "prospector_serve_poller_parked");
        assert!(parked >= 8, "{parked} parked, 8 expected");
        drop(herd);
    });
}
