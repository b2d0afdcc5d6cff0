//! A keep-alive HTTP/1.1 client and the closed loop that drives it.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::plan::{Plan, Req, HOT_KEYS};

/// One keep-alive connection. Honours `Connection: close`: the caller
/// reconnects with [`Conn::reconnect_if_closed`] after reading the body.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    body: (usize, usize),
    closed: bool,
    reconnects: u64,
}

fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(stream)
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            addr,
            stream: open(addr)?,
            buf: Vec::with_capacity(64 * 1024),
            body: (0, 0),
            closed: false,
            reconnects: 0,
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        let len = self.buf.len();
        self.buf.resize(len + 16 * 1024, 0);
        let n = self.stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + *n.as_ref().unwrap_or(&0));
        match n? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )),
            _ => Ok(()),
        }
    }

    /// Sends one request and reads its response; returns the status code.
    /// A dropped connection is an error, after which the connection is
    /// marked for reconnecting.
    pub fn send(&mut self, raw: &[u8]) -> io::Result<u16> {
        let result = self.exchange(raw);
        if result.is_err() {
            self.closed = true;
        }
        result
    }

    fn exchange(&mut self, raw: &[u8]) -> io::Result<u16> {
        self.buf.clear();
        self.stream.write_all(raw)?;
        let mut scanned = 0;
        let head_end = loop {
            if let Some(at) = find(&self.buf[scanned..], b"\r\n\r\n") {
                break scanned + at + 4;
            }
            scanned = self.buf.len().saturating_sub(3);
            self.fill()?;
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let code: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let mut length = None;
        for line in head.lines() {
            if let Some(v) = line.strip_prefix("Content-Length: ") {
                length = v.trim().parse::<usize>().ok();
            } else if line.eq_ignore_ascii_case("Connection: close") {
                self.closed = true;
            }
        }
        let length = length.ok_or_else(|| bad("no Content-Length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        self.body = (head_end, head_end + length);
        Ok(code)
    }

    /// The body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.0..self.body.1]
    }

    /// Opens a fresh connection if the server closed the last one.
    pub fn reconnect_if_closed(&mut self) -> io::Result<()> {
        if self.closed {
            self.stream = open(self.addr)?;
            self.closed = false;
            self.reconnects += 1;
        }
        Ok(())
    }
}

/// Sends `reqs` in order over one connection, handing each 200 body to
/// `check`. Returns `(sent, failed)`; a non-200 or dropped connection
/// counts as a failure.
pub fn send_all(
    addr: SocketAddr,
    reqs: &[Req],
    mut check: impl FnMut(&Req, &[u8]),
) -> io::Result<(u64, u64)> {
    let mut conn = Conn::connect(addr)?;
    let mut failed = 0;
    for req in reqs {
        match conn.send(&req.raw()) {
            Ok(200) => check(req, conn.body()),
            _ => failed += 1,
        }
        conn.reconnect_if_closed()?;
    }
    Ok((reqs.len() as u64, failed))
}

/// One client span of the traced run: request `req` of the timed
/// stream, `start`..`end` in ns since the phase began, and the
/// `trace_id` its answer carried (`/query` answers carry one, `/assist`
/// answers do not), which joins it to its access-log line.
pub struct ClientSpan {
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub trace_id: Option<u64>,
}

/// The `"trace_id"` of a served body.
fn trace_id(body: &[u8]) -> Option<u64> {
    let key = b"\"trace_id\":";
    let at = find(body, key)? + key.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// The `"shortest"` … `"suggestions"` part of a `/query` body: every
/// field the reference comparison reads, without the per-request
/// `trace_id`, `stats` and `time_us`.
fn answer_part(body: &[u8]) -> &[u8] {
    match (find(body, b"\"shortest\":"), find(body, b",\"stats\":")) {
        (Some(a), Some(b)) if a < b => &body[a..b],
        _ => body,
    }
}

/// Distinct answers seen for one `hot_repeat` key, with their counts.
pub type Variants = Vec<(Vec<u8>, u64)>;

/// What one closed-loop connection saw in the timed phase.
#[derive(Default)]
pub struct ConnOut {
    pub sent: u64,
    pub failed: u64,
    pub reconnects: u64,
    /// Round trip of every request, in ns.
    pub lat_ns: Vec<u64>,
    /// End of this connection's last response, ns since phase start.
    pub end_ns: u64,
    /// `(stream index, body)` of sampled responses.
    pub samples: Vec<(u64, Vec<u8>)>,
    /// Per hot key: its distinct answers.
    pub variants: Vec<Variants>,
    pub spans: Vec<ClientSpan>,
    /// Requests sent in traced slices (trace mode alternates slices).
    pub traced: u64,
}

/// Length of one traced/untraced slice in trace mode.
pub const TRACE_SLICE: Duration = Duration::from_millis(250);

/// Whether a request sent `at` into the phase falls in a traced slice.
/// The phase opens with one, so even a toy run that uses up its stream
/// within the first slice leaves traced spans.
fn in_traced_slice(at: Duration) -> bool {
    (at.as_nanos() / TRACE_SLICE.as_nanos()).is_multiple_of(2)
}

/// Seconds of a phase lasting `elapsed_s` that fell in traced slices.
pub fn traced_seconds(elapsed_s: f64) -> f64 {
    let slice = TRACE_SLICE.as_secs_f64();
    (0..)
        .map(|k| f64::from(k) * slice)
        .take_while(|&start| start < elapsed_s)
        .step_by(2)
        .map(|start| (elapsed_s - start).min(slice))
        .sum()
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// One closed-loop client: takes the next stream index from `next`,
/// sends it, waits for the answer, repeats until `seconds` have passed
/// since `start` (or the stream runs out).
pub fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    next: &AtomicU64,
    start: Instant,
    seconds: Duration,
    trace: bool,
) -> io::Result<ConnOut> {
    let mut conn = Conn::connect(addr)?;
    let mut out = ConnOut {
        lat_ns: Vec::with_capacity(1 << 17),
        variants: vec![Vec::new(); HOT_KEYS],
        ..ConnOut::default()
    };
    loop {
        let now = start.elapsed();
        if now >= seconds {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(req) = plan.timed(i) else { break };
        let raw = req.raw();
        let traced = trace && in_traced_slice(now);
        let sent_at = Instant::now();
        let result = conn.send(&raw);
        let done = Instant::now();
        out.sent += 1;
        out.end_ns = ns(done - start);
        out.lat_ns.push(ns(done - sent_at));
        if traced {
            out.traced += 1;
            out.spans.push(ClientSpan {
                req: i,
                start_ns: ns(sent_at - start),
                end_ns: out.end_ns,
                trace_id: match result {
                    Ok(200) => trace_id(conn.body()),
                    _ => None,
                },
            });
        }
        match result {
            Ok(200) => {
                let body = conn.body();
                if let Some(k) = req.key {
                    let part = answer_part(body);
                    let variants = &mut out.variants[k];
                    match variants.iter_mut().find(|(v, _)| v.as_slice() == part) {
                        Some((_, n)) => *n += 1,
                        None => variants.push((part.to_vec(), 1)),
                    }
                } else if plan.sampled(i) {
                    out.samples.push((i, body.to_vec()));
                } else if !body.starts_with(b"{\"ok\":true") {
                    out.failed += 1;
                }
            }
            _ => out.failed += 1,
        }
        conn.reconnect_if_closed()?;
    }
    out.reconnects = conn.reconnects;
    Ok(out)
}
