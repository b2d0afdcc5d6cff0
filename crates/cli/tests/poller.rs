//! End-to-end tests of the epoll readiness serve core: a parked herd of
//! keep-alive connections on a tiny worker pool, admission-control
//! shedding under saturation, and the framer's strict rejections over a
//! real socket. Serving is Linux/x86_64-only, like every serve test.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::fs::OpenOptionsExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use prospector_cli::serve::{ServeOptions, Server};
use prospector_corpora::{build, BuildOptions};
use prospector_obs::Json;
use prospector_registry::{Provenance, Registry};

fn opts() -> ServeOptions {
    ServeOptions { max: 5, mmap: false, ..ServeOptions::default() }
}

fn default_registry() -> Registry {
    let engine = build(&BuildOptions::default()).expect("corpus builds").prospector;
    Registry::with_default(engine, Provenance::built())
}

/// Reads exactly one framed response off a keep-alive stream:
/// `(status_line, headers, body)`. Relies on the server always sending
/// `Content-Length` (it does — the serializer emits it on every path).
fn read_one_response(stream: &mut TcpStream) -> (String, String, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed mid-response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end - 4].to_vec()).expect("ascii head");
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
    let body = String::from_utf8(buf[head_end..head_end + length].to_vec()).expect("utf8 body");
    let status = head.lines().next().expect("status line").to_owned();
    (status, head, body)
}

/// Sends one keep-alive `GET` on an already-open stream and reads the
/// response.
fn keepalive_get(stream: &mut TcpStream, path: &str) -> (String, String, String) {
    let raw = format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n");
    stream.write_all(raw.as_bytes()).expect("send request");
    read_one_response(stream)
}

/// Splits the first response off `wire`: `(head, body, rest)`.
fn split_response(wire: &str) -> (&str, &str, &str) {
    let (head, after) =
        wire.split_once("\r\n\r\n").unwrap_or_else(|| panic!("no response head: {wire:?}"));
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    let (body, rest) = after.split_at(length);
    (head, body, rest)
}

/// Reads to EOF and expects exactly a `200`, then a strict-JSON `400`
/// with `Connection: close` — the answer to a good request followed by
/// a malformed one. The two often arrive in one read, so the stream is
/// read whole rather than one response at a time.
fn expect_ok_then_400_then_eof(stream: &mut TcpStream) {
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    let mut wire = String::new();
    stream.read_to_string(&mut wire).expect("server closes after the 400");
    let (head, _, rest) = split_response(&wire);
    assert!(head.starts_with("HTTP/1.1 200"), "the earlier request is answered first: {wire:?}");
    let (head, body, rest) = split_response(rest);
    assert!(head.starts_with("HTTP/1.1 400"), "{wire:?}");
    assert!(head.contains("Connection: close"), "{head}");
    let json = Json::parse(body).expect("400 body is strict JSON");
    assert_eq!(json.get("ok").unwrap().as_bool(), Some(false));
    assert!(rest.is_empty(), "no bytes after the 400: {rest:?}");
}

/// Opens the write end of a FIFO without blocking. Linux refuses that
/// (`ENXIO`) until some process holds the read end, so a successful
/// open proves the server's worker is inside its read of the FIFO.
fn open_fifo_writer(fifo: &Path) -> File {
    const O_NONBLOCK: i32 = 0o4000;
    const ENXIO: i32 = 6;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match OpenOptions::new().write(true).custom_flags(O_NONBLOCK).open(fifo) {
            Ok(file) => return file,
            Err(e) if e.raw_os_error() == Some(ENXIO) && Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("the worker never opened {}: {e}", fifo.display()),
        }
    }
}

/// One-shot `GET` on a fresh `Connection: close` stream.
fn http_get(addr: SocketAddr, path: &str) -> (String, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let raw = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    stream.write_all(raw.as_bytes()).expect("send request");
    read_one_response(&mut stream)
}

/// The headline scenario: 64 keep-alive connections park in the poller
/// while only 2 workers exist, and both parked and fresh traffic keep
/// making progress. The thread-per-connection model would have wedged at
/// connection 3.
#[test]
fn parked_keepalive_herd_on_two_workers() {
    let registry = default_registry();
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(2);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // Park a herd: every connection serves one request, then sits
        // idle in the poller holding its socket open.
        let mut herd: Vec<TcpStream> = (0..64)
            .map(|i| {
                let mut stream = TcpStream::connect(addr).expect("connect herd member");
                let (status, head, body) = keepalive_get(&mut stream, "/healthz");
                assert!(status.contains("200"), "herd {i}: {status}");
                assert!(head.contains("Connection: keep-alive"), "herd {i} parked: {head}");
                assert_eq!(body, "ok\n");
                stream
            })
            .collect();

        // A 65th, fresh connection still gets a real query answered —
        // the herd occupies zero workers while idle.
        let (status, _, body) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}: {body}");
        let json = Json::parse(&body).expect("valid query JSON");
        assert_eq!(json.get("ok").unwrap().as_bool(), Some(true));
        let top = json.get("suggestions").unwrap().as_arr().unwrap()[0].as_str().unwrap();
        assert!(top.starts_with("AST.parseCompilationUnit("), "{top}");

        // /status introspects the readiness core: the herd shows up as
        // parked connections and the keep-alive budget is surfaced.
        let (status, _, body) = http_get(addr, "/status");
        assert!(status.contains("200"), "{status}");
        let json = Json::parse(&body).expect("valid status JSON");
        let config = json.get("config").expect("config section");
        assert_eq!(config.get("serve_core").unwrap().as_str(), Some("epoll"));
        assert_eq!(config.get("keepalive_max").unwrap().as_u64(), Some(1000));
        let poller = json.get("poller").expect("poller section");
        assert!(
            poller.get("parked").unwrap().as_u64().unwrap() >= 64,
            "herd should be parked: {body}"
        );

        // Parked connections are still live: re-use ones that already
        // served a request, interleaved, and they answer again.
        for i in [0usize, 31, 63] {
            let (status, _, body) = keepalive_get(&mut herd[i], "/query?tin=IFile&tout=ASTNode");
            assert!(status.contains("200"), "parked conn {i} revived: {status}");
            let json = Json::parse(&body).expect("valid query JSON");
            assert_eq!(json.get("ok").unwrap().as_bool(), Some(true));
        }

        // Clean shutdown with 64 sockets still parked: the poller drops
        // them and every thread joins.
        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        drop(herd);
    });
}

/// Admission control: with a 1-slot in-flight ceiling and one worker,
/// concurrent clients are shed with `429` + `Retry-After`, the shed
/// counter advances, and every accepted answer is unaffected by the
/// overload (same suggestions as an unloaded reference).
#[test]
fn saturation_sheds_with_retry_after() {
    let registry = default_registry();
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(1);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);
    let options = ServeOptions { max_inflight: 1, ..opts() };

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &options, &shutdown));

        // Unloaded reference answer, captured before any saturation.
        let (status, _, body) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}: {body}");
        let reference = Json::parse(&body).expect("valid query JSON");
        let reference_suggestions = format!("{:?}", reference.get("suggestions").unwrap());

        let shed = AtomicUsize::new(0);
        let served = AtomicUsize::new(0);
        // Rounds of 16 concurrent clients against the 1-slot ceiling
        // until shedding is observed (in practice: the first round).
        for _round in 0..50 {
            std::thread::scope(|clients| {
                for _ in 0..16 {
                    clients.spawn(|| {
                        let (status, head, body) =
                            http_get(addr, "/query?tin=IFile&tout=ASTNode");
                        if status.contains("429") {
                            assert!(
                                head.lines().any(|l| l.starts_with("Retry-After: ")),
                                "429 without Retry-After: {head}"
                            );
                            let json = Json::parse(&body).expect("shed body is strict JSON");
                            assert_eq!(json.get("ok").unwrap().as_bool(), Some(false));
                            assert_eq!(json.get("shed").unwrap().as_bool(), Some(true));
                            shed.fetch_add(1, Ordering::SeqCst);
                        } else {
                            assert!(status.contains("200"), "{status}: {body}");
                            let json = Json::parse(&body).expect("valid query JSON");
                            assert_eq!(
                                format!("{:?}", json.get("suggestions").unwrap()),
                                reference_suggestions,
                                "overload must not change accepted answers"
                            );
                            served.fetch_add(1, Ordering::SeqCst);
                        }
                    });
                }
            });
            if shed.load(Ordering::SeqCst) > 0 {
                break;
            }
        }
        let shed = shed.load(Ordering::SeqCst);
        let served = served.load(Ordering::SeqCst);
        assert!(shed > 0, "16-way concurrency never tripped a 1-slot ceiling");
        assert!(served > 0, "saturation must not starve every client");

        // Wait for the poller's counters to drain, then check the
        // telemetry agrees with what the clients observed.
        std::thread::sleep(Duration::from_millis(100));
        let (status, _, body) = http_get(addr, "/status");
        assert!(status.contains("200"), "{status}");
        let json = Json::parse(&body).expect("valid status JSON");
        let poller = json.get("poller").expect("poller section");
        assert!(
            poller.get("shed_total").unwrap().as_u64().unwrap() >= shed as u64,
            "shed counter below client-observed sheds: {body}"
        );
        assert_eq!(json.get("config").unwrap().get("max_inflight").unwrap().as_u64(), Some(1));

        // Counter `serve.shed.total` mangles to `..._shed_total` plus
        // the exposition's `_total` counter suffix.
        let (_, _, body) = http_get(addr, "/metrics");
        let shed_line = body
            .lines()
            .find(|l| l.starts_with("prospector_serve_shed_total_total "))
            .expect("shed counter exported");
        let exported: f64 = shed_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(exported >= shed as f64, "{shed_line}");

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
    });
}

/// The framer's strictness holds over a real socket: a malformed request
/// line gets a strict-JSON `400` and the connection is closed (never
/// resynchronized), and oversized headers get `431`. A malformed request
/// pipelined behind good ones is answered only after them.
#[test]
fn framer_rejections_over_the_wire() {
    let registry = default_registry();
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(1);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        // Garbage request line → 400, strict JSON, connection closed.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"NOT_HTTP garbage here\r\n\r\n").expect("send garbage");
        let (status, head, body) = read_one_response(&mut stream);
        assert!(status.contains("400"), "{status}");
        assert!(head.contains("Connection: close"), "{head}");
        let json = Json::parse(&body).expect("400 body is strict JSON");
        assert_eq!(json.get("ok").unwrap().as_bool(), Some(false));
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("drain to EOF");
        assert!(rest.is_empty(), "no bytes after a poisoned connection's 400");

        // Oversized head (> 8 KiB of header bytes) → 431, closed.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let huge = format!(
            "GET /healthz HTTP/1.1\r\nHost: test\r\nX-Padding: {}\r\n\r\n",
            "x".repeat(9 * 1024)
        );
        stream.write_all(huge.as_bytes()).expect("send oversized head");
        let (status, head, body) = read_one_response(&mut stream);
        assert!(status.contains("431"), "{status}");
        assert!(head.contains("Connection: close"), "{head}");
        let json = Json::parse(&body).expect("431 body is strict JSON");
        assert_eq!(json.get("ok").unwrap().as_bool(), Some(false));

        // A well-formed pipelined burst on one connection still works:
        // both responses come back in order on the same socket.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nGET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            .expect("send pipelined pair");
        let (status, _, body) = read_one_response(&mut stream);
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
        let (status, head, body) = read_one_response(&mut stream);
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");
        assert!(head.contains("Connection: close"), "{head}");

        // Garbage pipelined behind a good request in one write: the good
        // request is answered, then the 400, then the connection closes.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nNOT_HTTP garbage\r\n\r\n")
            .expect("send request then garbage");
        expect_ok_then_400_then_eof(&mut stream);

        // Garbage arriving while a `/query` is in flight. The only worker
        // is first parked in a tenant load from a FIFO whose write end the
        // test holds open with no data, so the query cannot finish until
        // the writer is dropped.
        let fifo = std::env::temp_dir()
            .join(format!("prospector_poller_fifo_{}", std::process::id()));
        let _ = std::fs::remove_file(&fifo);
        let made = std::process::Command::new("mkfifo").arg(&fifo).status().expect("run mkfifo");
        assert!(made.success(), "mkfifo {}", fifo.display());
        let mut blocker = TcpStream::connect(addr).expect("connect");
        let load = format!(
            "POST /tenants?name=blocked&path={} HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
            fifo.display()
        );
        blocker.write_all(load.as_bytes()).expect("send blocking load");
        let writer = open_fifo_writer(&fifo);
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /query?tin=IFile&tout=ASTNode HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send query");
        stream.write_all(b"NOT_HTTP garbage\r\n\r\n").expect("send garbage");
        // While the query is in flight nothing may reach the client.
        stream.set_read_timeout(Some(Duration::from_millis(300))).expect("set timeout");
        let early = stream.read(&mut [0u8; 1]);
        assert!(early.is_err(), "bytes before the in-flight query was answered: {early:?}");
        // EOF on the FIFO fails the load and frees the worker.
        drop(writer);
        let (status, _, body) = read_one_response(&mut blocker);
        assert!(status.contains("400"), "an empty FIFO is no snapshot: {status}: {body}");
        expect_ok_then_400_then_eof(&mut stream);
        std::fs::remove_file(&fifo).expect("remove FIFO");

        }));

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// `--keepalive-max`: the Nth request on one connection is answered with
/// `Connection: close` and the socket drops.
#[test]
fn keepalive_budget_closes_the_connection() {
    let registry = default_registry();
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(1);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);
    let options = ServeOptions { keepalive_max: 3, ..opts() };

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &options, &shutdown));

        let mut stream = TcpStream::connect(addr).expect("connect");
        for i in 0..2 {
            let (status, head, _) = keepalive_get(&mut stream, "/healthz");
            assert!(status.contains("200"), "request {i}: {status}");
            assert!(head.contains("Connection: keep-alive"), "request {i}: {head}");
        }
        let (status, head, _) = keepalive_get(&mut stream, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert!(head.contains("Connection: close"), "budget exhausted: {head}");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).expect("drain to EOF");
        assert!(rest.is_empty(), "server closes after the budgeted request");

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
    });
}
