//! End-to-end tests of the epoll readiness serve core: a parked herd of
//! keep-alive connections on two serve threads, a burst of clients beyond
//! the thread count, the framer's strict rejections over a
//! real socket, and the wire contract of connections shared by every
//! serve thread (request order, no Nagle stalls, slow readers, vanished
//! peers, log before bytes, one thread in a slow answer). Serving is
//! Linux/x86_64-only, like every serve test.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::fs::OpenOptionsExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
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
/// The head is read a byte at a time and the body by its length, so a
/// pipelined response that arrived in the same segment stays unread.
fn read_one_response(stream: &mut TcpStream) -> (String, String, String) {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert!(n > 0, "connection closed mid-response head");
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf[..buf.len() - 4].to_vec()).expect("ascii head");
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read response body");
    let body = String::from_utf8(body).expect("utf8 body");
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
    let mut stream = connect(addr);
    let raw = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    stream.write_all(raw.as_bytes()).expect("send request");
    read_one_response(&mut stream)
}

/// A connection whose reads time out after 10 s, so a stalled server
/// fails the test instead of hanging it.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set timeout");
    stream
}

/// The server closes the connection with nothing after the last response.
fn expect_eof(stream: &mut TcpStream) {
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("read to EOF");
    assert!(rest.is_empty(), "bytes after the last response: {rest:?}");
}

/// Parks a worker in a tenant load from a FIFO whose write end the
/// returned `File` holds open with no data. The load, and with it the
/// worker, ends only when that `File` is dropped; the returned stream
/// then reads the load's `400`.
fn park_a_worker(addr: SocketAddr, tag: &str) -> (TcpStream, File) {
    let fifo = std::env::temp_dir()
        .join(format!("prospector_poller_{tag}_fifo_{}", std::process::id()));
    let _ = std::fs::remove_file(&fifo);
    let made = std::process::Command::new("mkfifo").arg(&fifo).status().expect("run mkfifo");
    assert!(made.success(), "mkfifo {}", fifo.display());
    let mut blocker = connect(addr);
    let load = format!(
        "POST /tenants?name=blocked&path={} HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        fifo.display()
    );
    blocker.write_all(load.as_bytes()).expect("send blocking load");
    let writer = open_fifo_writer(&fifo);
    // Both ends are open now; the name is no longer needed.
    std::fs::remove_file(&fifo).expect("remove FIFO");
    (blocker, writer)
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

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

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
        herd
        }));

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        match verdict {
            Ok(herd) => drop(herd),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });
}

/// A burst larger than the thread count waits in its sockets: rounds of
/// 16 concurrent clients on two serve threads are all answered `200`,
/// each with the suggestions of an unloaded reference answer.
#[test]
fn a_burst_beyond_the_threads_is_answered_unchanged() {
    let registry = default_registry();
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(2);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        // Unloaded reference answer, captured before the burst.
        let (status, _, body) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}: {body}");
        let reference = Json::parse(&body).expect("valid query JSON");
        let reference_suggestions = format!("{:?}", reference.get("suggestions").unwrap());

        for _round in 0..4 {
            std::thread::scope(|clients| {
                for _ in 0..16 {
                    clients.spawn(|| {
                        let (status, _, body) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
                        assert!(status.contains("200"), "{status}: {body}");
                        let json = Json::parse(&body).expect("valid query JSON");
                        assert_eq!(
                            format!("{:?}", json.get("suggestions").unwrap()),
                            reference_suggestions,
                            "a burst must not change the answers"
                        );
                    });
                }
            });
        }

        }));

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
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

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

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

        }));

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Query pairs the bundled corpus answers, for tests that tell responses
/// apart by their `tin` and `tout`.
const PAIRS: [(&str, &str); 4] = [
    ("IFile", "ASTNode"),
    ("InputStream", "BufferedReader"),
    ("IWorkspace", "IFile"),
    ("Shell", "Button"),
];

/// Pipelined bursts of 20 requests on one keep-alive connection: the
/// responses leave in request order, and a burst takes far less than
/// the 40 ms delayed-ACK timer. Without `TCP_NODELAY`, Nagle's algorithm
/// holds a response written right behind another until the client's
/// delayed ACK (a fresh connection's first segments are ACKed at once,
/// so the connection is warmed up first), and a lost completion wake-up
/// costs a 50 ms poll slice per request. A last request with
/// `Connection: close` is answered, then the connection closes.
#[test]
fn pipelined_burst_keeps_order_and_pays_no_delayed_ack() {
    let registry = default_registry();
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(2);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        let paths: Vec<String> = (0..20)
            .map(|i| match i % 2 {
                0 => "/healthz".to_owned(),
                _ => {
                    let (tin, tout) = PAIRS[i / 2 % PAIRS.len()];
                    format!("/query?tin={tin}&tout={tout}")
                }
            })
            .collect();
        let burst: String =
            paths.iter().map(|path| format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n")).collect();
        let mut conn = connect(addr);
        // Warm-up, one request at a time: fills the result cache, so the
        // bursts time the serve path, and spends the connection's
        // quick-ACK allowance.
        for path in paths.iter().cycle().take(60) {
            let (status, _, body) = keepalive_get(&mut conn, path);
            assert!(status.contains("200"), "{path}: {status}: {body}");
        }
        // The best of five bursts, so one scheduling hiccup on a busy
        // test host cannot fail the bound.
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let started = Instant::now();
            conn.write_all(burst.as_bytes()).expect("send burst");
            for (i, path) in paths.iter().enumerate() {
                let (_, head, body) = read_one_response(&mut conn);
                assert!(head.starts_with("HTTP/1.1 200"), "response {i}: {head}");
                if path == "/healthz" {
                    assert_eq!(body, "ok\n", "response {i} answers {path}");
                } else {
                    let json = Json::parse(&body).expect("query JSON");
                    let (tin, tout) = PAIRS[i / 2 % PAIRS.len()];
                    assert_eq!(json.get("tin").unwrap().as_str(), Some(tin), "response {i}");
                    assert_eq!(json.get("tout").unwrap().as_str(), Some(tout), "response {i}");
                }
            }
            best = best.min(started.elapsed());
        }
        assert!(best < Duration::from_millis(20), "the fastest burst of 20 took {best:?}");
        let close = b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n";
        conn.write_all(close).expect("send last request");
        let (_, head, body) = read_one_response(&mut conn);
        assert!(head.contains("Connection: close"), "{head}");
        assert_eq!(body, "ok\n");
        expect_eof(&mut conn);

        }));

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// A client that stops reading holds no worker. The only worker writes
/// what the socket takes and hands the rest to the poller, which flushes
/// it under `EPOLLOUT` while other connections are served. The burst is
/// sized past the loopback socket buffers (the receive window of a
/// client that reads nothing stays at its initial size), so a worker
/// that waited for the reader would stall every other request; instead
/// the whole burst is answered while the client reads nothing, and
/// afterwards every response arrives whole and in order.
#[test]
fn slow_reader_holds_no_worker() {
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

        // `/metrics` answers counted so far, by every test in this binary.
        let answered = || {
            let (_, head, body) = http_get(addr, "/status");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            let json = Json::parse(&body).expect("status JSON");
            let endpoint = json.get("endpoints").unwrap().get("metrics").unwrap();
            endpoint.get("requests_total").unwrap().as_u64().unwrap()
        };
        let (_, _, sample) = http_get(addr, "/metrics");
        let count = (8 << 20) / sample.len() + 1;
        let mut burst = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n".repeat(count);
        burst.push_str("GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        let before = answered();
        let mut slow = connect(addr);
        slow.write_all(burst.as_bytes()).expect("send burst");

        // The slow client reads nothing, yet its burst is answered and
        // other clients are served.
        let deadline = Instant::now() + Duration::from_secs(30);
        while answered() < before + count as u64 {
            assert!(Instant::now() < deadline, "the burst stalled behind its reader");
            std::thread::sleep(Duration::from_millis(10));
        }
        for _ in 0..3 {
            let (_, head, body) = http_get(addr, "/healthz");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert_eq!(body, "ok\n");
        }
        let (_, head, body) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}: {body}");

        for i in 0..count {
            let (_, head, body) = read_one_response(&mut slow);
            assert!(head.starts_with("HTTP/1.1 200"), "response {i}: {head}");
            assert!(body.starts_with("# HELP "), "response {i} is an exposition");
            assert!(body.ends_with('\n'), "response {i} arrived whole");
        }
        let (_, head, body) = read_one_response(&mut slow);
        assert!(head.contains("Connection: close"), "{head}");
        assert_eq!(body, "ok\n", "the last response comes last");
        expect_eof(&mut slow);

        }));

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// A peer that disconnects while its request is in flight leaves the
/// connection gauges where they were, and a peer that shuts down its
/// write side behind a request still gets the whole response, then the
/// close. The only worker is first parked in a tenant load from a FIFO,
/// so both requests are in flight when their peers go.
#[test]
fn vanished_peers_leave_the_gauges_at_baseline() {
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

        // `/status` as this one request sees it: the gauges it reads
        // count its own connection.
        let gauges = || {
            let (_, head, body) = http_get(addr, "/status");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            let json = Json::parse(&body).expect("status JSON");
            let pool = json.get("pool").expect("pool section");
            let poller = json.get("poller").expect("poller section");
            [
                pool.get("conns_active").unwrap().as_u64().unwrap(),
                poller.get("parked").unwrap().as_u64().unwrap(),
            ]
        };
        let baseline = gauges();

        let (mut blocker, writer) = park_a_worker(addr, "gone");
        let query = b"GET /query?tin=IFile&tout=ASTNode HTTP/1.1\r\nHost: t\r\n\r\n";
        let mut gone = connect(addr);
        gone.write_all(query).expect("send query");
        let mut half = connect(addr);
        half.write_all(query).expect("send query");
        // Let the poller dispatch both before their peers go.
        std::thread::sleep(Duration::from_millis(50));
        drop(gone);
        half.shutdown(Shutdown::Write).expect("shut down the write side");
        std::thread::sleep(Duration::from_millis(50));

        // EOF on the FIFO fails the load and frees the worker.
        drop(writer);
        let (status, _, _) = read_one_response(&mut blocker);
        assert!(status.contains("400"), "an empty FIFO is no snapshot: {status}");
        let (status, _, body) = read_one_response(&mut half);
        assert!(status.contains("200"), "{status}");
        let json = Json::parse(&body).expect("query JSON");
        assert_eq!(json.get("ok").unwrap().as_bool(), Some(true));
        expect_eof(&mut half);

        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let now = gauges();
            if now == baseline {
                break;
            }
            assert!(Instant::now() < deadline, "gauges {now:?} never returned to {baseline:?}");
            std::thread::sleep(Duration::from_millis(10));
        }

        }));

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// The calling thread's id, as `/proc/self/task` names it.
fn current_tid() -> String {
    let link = std::fs::read_link("/proc/thread-self").expect("read /proc/thread-self");
    link.file_name().expect("tid").to_string_lossy().into_owned()
}

/// CPU seconds (user + system) one thread of this process has used,
/// from `/proc/self/task/<tid>/stat`.
fn thread_cpu_seconds(tid: &str) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/self/task/{tid}/stat")).expect("thread stat");
    // Fields after the parenthesized name start at field 3 (state);
    // utime and stime are fields 14 and 15, in clock ticks (USER_HZ,
    // 100 on Linux).
    let fields: Vec<&str> = stat[stat.rfind(')').expect("name end") + 2..].split(' ').collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    ticks as f64 / 100.0
}

/// A half-closed peer whose answers back up costs its serve thread no
/// CPU: the peer's EOF drops the read bits from the connection's
/// registration, which, level-triggered, would otherwise report the EOF
/// on every wait until the backlog drains. The client pipelines more
/// `/metrics` answers than the socket buffers hold, shuts down its write
/// side and stops reading; afterwards it reads every answer in order,
/// then EOF.
#[test]
fn half_closed_connection_does_not_spin_the_poller() {
    let registry = default_registry();
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(1);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);
    // With one serve thread, `Server::run` serves on the thread that
    // calls it.
    let serve_tid = std::sync::OnceLock::new();

    std::thread::scope(|scope| {
        let serving = std::thread::Builder::new()
            .name("serve".to_owned())
            .spawn_scoped(scope, || {
                serve_tid.set(current_tid()).expect("set once");
                server.run(&registry, &opts(), &shutdown)
            })
            .expect("spawn the serving thread");

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        // `/metrics` answers counted so far, by every test in this binary.
        let answered = || {
            let (_, head, body) = http_get(addr, "/status");
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            let json = Json::parse(&body).expect("status JSON");
            let endpoint = json.get("endpoints").unwrap().get("metrics").unwrap();
            endpoint.get("requests_total").unwrap().as_u64().unwrap()
        };
        let (_, _, sample) = http_get(addr, "/metrics");
        let count = (24 << 20) / sample.len() + 1;
        let mut burst = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n".repeat(count);
        burst.push_str("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
        let before = answered();
        let mut half = connect(addr);
        half.write_all(burst.as_bytes()).expect("send burst");
        half.shutdown(Shutdown::Write).expect("shut down the write side");

        // Every answer is written or waiting to be, and the thread has
        // seen the EOF behind the burst.
        let deadline = Instant::now() + Duration::from_secs(60);
        while answered() < before + count as u64 {
            assert!(Instant::now() < deadline, "the burst was never answered");
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(50));

        let tid = serve_tid.get().expect("the serving thread started");
        let before = thread_cpu_seconds(tid);
        std::thread::sleep(Duration::from_millis(500));
        let spent = thread_cpu_seconds(tid) - before;
        assert!(spent < 0.1, "the serve thread spent {spent:.2} CPU-s in 0.5 s behind a half-closed peer");

        for i in 0..count {
            let (_, head, body) = read_one_response(&mut half);
            assert!(head.starts_with("HTTP/1.1 200"), "response {i}: {head}");
            assert!(body.starts_with("# HELP "), "response {i} is an exposition");
        }
        let (_, head, body) = read_one_response(&mut half);
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n", "the last response comes last");
        expect_eof(&mut half);

        }));

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// A request that arrives while the one before it is in flight wakes the
/// poller as soon as that one completes, instead of waiting out a 50 ms
/// poll slice, and the keep-alive cap counts the in-flight request once.
/// The only worker is first parked in a tenant load from a FIFO, so the
/// first request is still in flight when the second arrives, and the
/// first is an uncached query, so its completion comes after the poller
/// has gone back to sleep.
#[test]
fn late_request_behind_an_in_flight_one() {
    let registry = default_registry();
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(1);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);
    let options = ServeOptions { keepalive_max: 3, ..opts() };

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &options, &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        let (mut blocker, writer) = park_a_worker(addr, "late");
        let mut conn = connect(addr);
        let query = b"GET /query?tin=IFile&tout=ASTNode HTTP/1.1\r\nHost: t\r\n\r\n";
        conn.write_all(query).expect("send query");
        std::thread::sleep(Duration::from_millis(50));
        conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("send healthz");
        std::thread::sleep(Duration::from_millis(50));
        drop(writer);
        let (status, _, _) = read_one_response(&mut blocker);
        assert!(status.contains("400"), "an empty FIFO is no snapshot: {status}");

        let (_, head, body) = read_one_response(&mut conn);
        let first = Instant::now();
        assert!(head.contains("Connection: keep-alive"), "request 1 of 3: {head}");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}: {body}");
        let (_, head, body) = read_one_response(&mut conn);
        let gap = first.elapsed();
        assert!(head.contains("Connection: keep-alive"), "request 2 of 3: {head}");
        assert_eq!(body, "ok\n");
        assert!(gap < Duration::from_millis(25), "the second response trailed by {gap:?}");
        let (_, head, _) = keepalive_get(&mut conn, "/healthz");
        assert!(head.contains("Connection: close"), "request 3 of 3: {head}");
        expect_eof(&mut conn);

        }));

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// A request's access-log line is recorded before its response bytes
/// leave: a `/logs` read right after the response already holds it.
#[test]
fn access_log_line_precedes_the_response() {
    let registry = default_registry();
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(2);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        let mut queries = connect(addr);
        let mut logs = connect(addr);
        for i in 0..30 {
            let (tin, tout) = PAIRS[i % PAIRS.len()];
            let query = format!("/query?tin={tin}&tout={tout}");
            let (status, _, body) = keepalive_get(&mut queries, &query);
            assert!(status.contains("200"), "{status}: {body}");
            let json = Json::parse(&body).expect("query JSON");
            let trace_id = json.get("trace_id").unwrap().as_u64().expect("trace id");
            // Every test in this binary logs into the same tail, so read
            // all of it.
            let (_, _, body) = keepalive_get(&mut logs, "/logs?n=10000");
            let records = Json::parse(&body).expect("logs JSON");
            let logged = records
                .as_arr()
                .unwrap()
                .iter()
                .any(|r| r.get("trace_id").unwrap().as_u64() == Some(trace_id));
            assert!(logged, "request {i}: trace {trace_id} was not logged before its response");
        }

        }));

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Kills and reaps a `prospector serve` child when dropped, so a failed
/// assertion cannot orphan it.
struct KillOnDrop(std::process::Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `/assist` scopes the bundled corpus answers: `(var, tout)`.
const ASSISTS: [(&str, &str); 2] = [("file:IFile", "ASTNode"), ("in:InputStream", "BufferedReader")];

/// One request of a shared-ownership burst and what its answer must say.
enum Asked {
    Query(&'static str, &'static str),
    Assist(&'static str, &'static str),
    Healthz,
}

impl Asked {
    /// The `i`-th request of a burst on connection `c`: queries, assist
    /// fan-outs and health checks, rotated so neighbours differ.
    fn nth(c: usize, i: usize) -> Asked {
        match (c + i) % 3 {
            0 => {
                let (tin, tout) = PAIRS[(c + i) % PAIRS.len()];
                Asked::Query(tin, tout)
            }
            1 => {
                let (var, tout) = ASSISTS[(c + i) % ASSISTS.len()];
                Asked::Assist(var, tout)
            }
            _ => Asked::Healthz,
        }
    }

    fn path(&self) -> String {
        match self {
            Asked::Query(tin, tout) => format!("/query?tin={tin}&tout={tout}"),
            Asked::Assist(var, tout) => format!("/assist?var={var}&tout={tout}"),
            Asked::Healthz => "/healthz".to_owned(),
        }
    }

    /// Checks the answer to this request; returns its trace id, if the
    /// endpoint assigns one.
    fn check(&self, head: &str, body: &str) -> Option<u64> {
        assert!(head.starts_with("HTTP/1.1 200"), "{}: {head}: {body}", self.path());
        if let Asked::Healthz = self {
            assert_eq!(body, "ok\n");
            return None;
        }
        let json = Json::parse(body).expect("engine answer JSON");
        let field = |key: &str| json.get(key).and_then(Json::as_str).map(str::to_owned);
        match self {
            Asked::Query(tin, tout) => {
                assert_eq!(field("tin").as_deref(), Some(*tin), "{body}");
                assert_eq!(field("tout").as_deref(), Some(*tout), "{body}");
            }
            Asked::Assist(var, tout) => {
                assert_eq!(field("tout").as_deref(), Some(*tout), "{body}");
                let name = json.get("vars").unwrap().as_arr().unwrap()[0].get("name").unwrap();
                assert_eq!(name.as_str(), var.split(':').next(), "{body}");
            }
            Asked::Healthz => unreachable!(),
        }
        json.get("trace_id").and_then(Json::as_u64)
    }
}

/// Connections share every serve thread: 32 keep-alive connections on
/// a four-thread server (its own process, so `/logs` holds only this
/// test's lines) send pipelined bursts of `/query`, `/assist` and
/// `/healthz`, and every fourth connection's last burst ends in a
/// malformed request. Whichever threads pick the connections up, each
/// reads its answers in request order, then its `400` and EOF; `/logs`
/// holds one line per answered request; and the connection and request
/// gauges return to their baseline.
#[test]
fn shared_connections_answer_in_order_on_every_thread() {
    use std::io::{BufRead, BufReader};
    use std::process::{Command, Stdio};

    const CONNS: usize = 32;
    const BURSTS: usize = 2;
    const BURST: usize = 6;

    let mut child = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_prospector"))
            .args(["serve", "--addr", "127.0.0.1:0", "--workers", "4"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve spawns"),
    );
    let stdout = child.0.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr: SocketAddr = loop {
        let line = lines.next().expect("serve prints its address").expect("readable");
        if let Some(rest) = line.strip_prefix("serving on http://") {
            break rest.trim().parse().expect("socket address");
        }
    };

    // `/status` as its own request sees it: its connection is active
    // and being answered, on the one thread that holds it.
    let gauges = || {
        let (_, head, body) = http_get(addr, "/status");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let json = Json::parse(&body).expect("status JSON");
        let read = |section: &str, key: &str| {
            json.get(section).and_then(|s| s.get(key)).and_then(Json::as_u64).expect(key)
        };
        assert_eq!(read("pool", "workers"), 4);
        [read("pool", "conns_active"), read("poller", "parked"), read("pool", "busy")]
    };
    let baseline = gauges();
    assert_eq!(baseline, [1, 0, 1], "conns_active, parked, busy");

    let answered: Vec<(Vec<u64>, usize, usize)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || {
                    let mut stream = connect(addr);
                    let mut trace_ids = Vec::new();
                    let (mut healthz, mut malformed) = (0, 0);
                    for burst in 0..BURSTS {
                        let asked: Vec<Asked> =
                            (0..BURST).map(|i| Asked::nth(c, burst * BURST + i)).collect();
                        let mut wire: String = asked
                            .iter()
                            .map(|a| format!("GET {} HTTP/1.1\r\nHost: t\r\n\r\n", a.path()))
                            .collect();
                        let bad = burst + 1 == BURSTS && c % 4 == 0;
                        if bad {
                            wire.push_str("NOT_HTTP garbage\r\n\r\n");
                        }
                        stream.write_all(wire.as_bytes()).expect("send burst");
                        for a in &asked {
                            let (_, head, body) = read_one_response(&mut stream);
                            trace_ids.extend(a.check(&head, &body));
                            healthz += usize::from(matches!(a, Asked::Healthz));
                        }
                        if bad {
                            let (status, head, body) = read_one_response(&mut stream);
                            assert!(status.contains("400"), "conn {c}: {status}: {body}");
                            assert!(head.contains("Connection: close"), "{head}");
                            expect_eof(&mut stream);
                            malformed += 1;
                        }
                    }
                    (trace_ids, healthz, malformed)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client")).collect()
    });

    // One access-log line per answered request: the baseline `/status`,
    // every burst's answers and every `400`.
    let (_, _, body) = http_get(addr, "/logs?n=10000");
    let records = Json::parse(&body).expect("logs JSON");
    let records = records.as_arr().expect("logs array");
    let count = |endpoint: &str, code: u64| {
        records
            .iter()
            .filter(|r| {
                r.get("endpoint").unwrap().as_str() == Some(endpoint)
                    && r.get("code").unwrap().as_u64() == Some(code)
            })
            .count()
    };
    let traced: Vec<u64> = answered.iter().flat_map(|(ids, _, _)| ids.iter().copied()).collect();
    let healthz: usize = answered.iter().map(|(_, h, _)| h).sum();
    let malformed: usize = answered.iter().map(|(_, _, m)| m).sum();
    assert_eq!(traced.len() + healthz, CONNS * BURSTS * BURST);
    assert_eq!(malformed, CONNS / 4);
    assert_eq!(records.len(), 1 + traced.len() + healthz + malformed, "{body}");
    assert_eq!(count("status", 200), 1);
    assert_eq!(count("healthz", 200), healthz);
    assert_eq!(count("query", 200) + count("assist", 200), traced.len());
    assert_eq!(count("other", 400), malformed);
    for id in &traced {
        let lines = records.iter().filter(|r| r.get("trace_id").unwrap().as_u64() == Some(*id));
        assert_eq!(lines.count(), 1, "trace {id} is logged once");
    }

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = gauges();
        if now == baseline {
            break;
        }
        assert!(Instant::now() < deadline, "gauges {now:?} never returned to {baseline:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One thread in a slow answer leaves the other serving: with two serve
/// threads and one parked in a FIFO tenant load, a fresh connection's
/// `/query` and a parked keep-alive connection's `/healthz` are still
/// answered.
#[test]
fn a_slow_answer_holds_one_thread_only() {
    let registry = default_registry();
    let mut server = Server::bind("127.0.0.1:0").expect("bind port 0");
    server.set_workers(2);
    let addr = server.local_addr().expect("bound address");
    let shutdown = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &opts(), &shutdown));

        // A failed assertion must still flip the shutdown flag, or the
        // scope would join the serving thread forever.
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {

        let mut parked = connect(addr);
        let (_, head, body) = keepalive_get(&mut parked, "/healthz");
        assert!(head.contains("Connection: keep-alive"), "{head}: {body}");

        let (mut blocker, writer) = park_a_worker(addr, "onethread");
        let (status, _, body) = http_get(addr, "/query?tin=IFile&tout=ASTNode");
        assert!(status.contains("200"), "{status}: {body}");
        let json = Json::parse(&body).expect("query JSON");
        let top = json.get("suggestions").unwrap().as_arr().unwrap()[0].as_str().unwrap();
        assert!(top.starts_with("AST.parseCompilationUnit("), "{top}");
        let (status, _, body) = keepalive_get(&mut parked, "/healthz");
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, "ok\n");

        // EOF on the FIFO fails the load and frees the thread.
        drop(writer);
        let (status, _, _) = read_one_response(&mut blocker);
        assert!(status.contains("400"), "an empty FIFO is no snapshot: {status}");

        }));

        shutdown.store(true, Ordering::SeqCst);
        serving.join().expect("serve thread").expect("serve loop exits cleanly");
        if let Err(panic) = verdict {
            std::panic::resume_unwind(panic);
        }
    });
}
