//! Incremental HTTP/1.1 request framing for the epoll serve core.
//!
//! The framer is a push-parser over a growing byte buffer: callers feed
//! whatever the socket produced (a torn fragment, one exact request, a
//! pipelined burst) and pull complete requests out one at a time. It is
//! deliberately independent of any stream type so the poller can drive
//! it from nonblocking reads — and so a unit test can drive it from
//! plain byte slices.
//!
//! Malformed input is a *typed* error, not a silent drop: a garbage
//! request line maps to `400`, and so does a `Content-Length` that is
//! not `1*DIGIT` or disagrees with another one (RFC 9112 §6.3, §8.6),
//! any `Transfer-Encoding` (there is no chunked decoder, so the body's
//! end would be unknown) and whitespace between a header name and its
//! colon (§5.1); a head that never terminates within
//! [`MAX_HEAD_BYTES`] maps to `431`, and a declared body over
//! [`MAX_BODY_BYTES`] to `413`. The serve layer turns each into a
//! strict-JSON response — after answering every request framed before
//! it — and then closes the connection, so misbehaving clients get told
//! what happened instead of watching the socket vanish.

/// Cap on one request head (request line + headers + blank line). A head
/// still unterminated past this is a `431 Request Header Fields Too
/// Large`.
pub const MAX_HEAD_BYTES: usize = 8192;

/// Cap on a declared `Content-Length` body. Handlers take parameters
/// from the query string, so bodies are drained and discarded — but an
/// unbounded declared length would let one client buffer arbitrary
/// memory. Over the cap is a `413 Payload Too Large`.
pub const MAX_BODY_BYTES: u64 = 65_536;

/// One parsed request head. The admin endpoints take their parameters
/// in the query string, so no handler reads a body — the framer consumes
/// and discards any declared `Content-Length` bytes to keep the
/// keep-alive stream framed.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request method verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The request target (path + optional query string).
    pub path: String,
    /// The connection should close after this request (`Connection:
    /// close`, or an HTTP/1.0 client that did not opt into keep-alive).
    pub close: bool,
}

/// Why a byte stream stopped being framable. Each maps to one status
/// code; after any of these the connection is unframable and must close
/// (the bytes that follow cannot be trusted to start a request).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The request line is not `METHOD /target HTTP/x.y` → `400`.
    BadRequestLine(String),
    /// A header this framer cannot trust: a malformed or conflicting
    /// `Content-Length`, a `Transfer-Encoding`, or whitespace before a
    /// colon → `400`.
    BadHeader(String),
    /// No end-of-head within [`MAX_HEAD_BYTES`] → `431`.
    HeadersTooLarge(usize),
    /// Declared `Content-Length` over [`MAX_BODY_BYTES`] → `413`.
    BodyTooLarge(u64),
}

impl FrameError {
    /// The HTTP status code this error maps to.
    #[must_use]
    pub fn code(&self) -> u16 {
        match self {
            FrameError::BadRequestLine(_) | FrameError::BadHeader(_) => 400,
            FrameError::HeadersTooLarge(_) => 431,
            FrameError::BodyTooLarge(_) => 413,
        }
    }

    /// The human half of the strict-JSON error body.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            FrameError::BadRequestLine(line) => {
                format!("malformed request line: {line:?}")
            }
            FrameError::BadHeader(detail) => format!("unframable request head: {detail}"),
            FrameError::HeadersTooLarge(bytes) => format!(
                "request head exceeds {MAX_HEAD_BYTES} bytes ({bytes} buffered without end-of-headers)"
            ),
            FrameError::BodyTooLarge(len) => {
                format!("declared body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte cap")
            }
        }
    }
}

/// One [`RequestFramer::next`] outcome.
#[derive(Debug)]
pub enum Framed {
    /// A complete request was consumed from the buffer.
    Request(Request),
    /// More bytes are needed (or the framer is poisoned — see
    /// [`RequestFramer::poisoned`]).
    Incomplete,
    /// The stream is unframable; respond with [`FrameError::code`] and
    /// close. Returned exactly once, then the framer reports
    /// `Incomplete` forever.
    Error(FrameError),
}

/// The incremental request parser. Feed bytes with [`push`], pull
/// requests with [`next`] until it reports [`Framed::Incomplete`].
///
/// [`push`]: RequestFramer::push
/// [`next`]: RequestFramer::next
#[derive(Debug, Default)]
pub struct RequestFramer {
    buf: Vec<u8>,
    /// Prefix of `buf` already scanned for the end-of-head marker, so
    /// repeated `next` calls over a slow-trickling head stay linear.
    scanned: usize,
    poisoned: bool,
}

impl RequestFramer {
    /// A fresh framer for one connection.
    #[must_use]
    pub fn new() -> RequestFramer {
        RequestFramer::default()
    }

    /// Appends socket bytes to the frame buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        if !self.poisoned {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Bytes buffered but not yet consumed as a request.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether a frame error was returned; the connection must close.
    #[must_use]
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Pops the next complete request, reports an error once, or asks
    /// for more bytes. Deliberately not an `Iterator`: the tri-state
    /// result (request / incomplete / error) has no clean `Option`
    /// mapping.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Framed {
        if self.poisoned {
            return Framed::Incomplete;
        }
        let Some(head_end) = self.find_head_end() else {
            // Past this length a terminator still to come would start
            // beyond the cap; before it, one may be half buffered.
            if self.buf.len() >= MAX_HEAD_BYTES + 4 {
                self.poisoned = true;
                return Framed::Error(FrameError::HeadersTooLarge(self.buf.len()));
            }
            return Framed::Incomplete;
        };
        if head_end > MAX_HEAD_BYTES {
            // The cap holds even when the whole head arrives in one
            // read: an oversized head is oversized whether or not its
            // terminator is already buffered.
            self.poisoned = true;
            return Framed::Error(FrameError::HeadersTooLarge(head_end));
        }
        let head = &self.buf[..head_end];
        let parsed = match parse_head(head) {
            Ok(p) => p,
            Err(e) => {
                self.poisoned = true;
                return Framed::Error(e);
            }
        };
        if parsed.content_length > MAX_BODY_BYTES {
            self.poisoned = true;
            return Framed::Error(FrameError::BodyTooLarge(parsed.content_length));
        }
        let total = head_end
            + 4
            + usize::try_from(parsed.content_length).expect("bounded by MAX_BODY_BYTES");
        if self.buf.len() < total {
            // Head parsed but the declared body has not fully arrived;
            // keep everything buffered and re-parse when it has (heads
            // are tiny, so the re-parse is cheaper than caching state).
            return Framed::Incomplete;
        }
        // Consume head + body; the body is discarded by construction.
        self.buf.drain(..total);
        self.scanned = 0;
        Framed::Request(parsed.request)
    }

    /// Index of the `\r\n\r\n` terminator, resuming where the last scan
    /// stopped.
    fn find_head_end(&mut self) -> Option<usize> {
        let start = self.scanned;
        if self.buf.len() < 4 {
            return None;
        }
        for i in start..=self.buf.len() - 4 {
            if &self.buf[i..i + 4] == b"\r\n\r\n" {
                return Some(i);
            }
        }
        self.scanned = self.buf.len() - 3;
        None
    }
}

struct ParsedHead {
    request: Request,
    content_length: u64,
}

/// Parses one complete head (`head` excludes the `\r\n\r\n` marker).
fn parse_head(head: &[u8]) -> Result<ParsedHead, FrameError> {
    let text = String::from_utf8_lossy(head);
    let mut lines = text.lines();
    let line = lines.next().unwrap_or_default();
    let bad = || FrameError::BadRequestLine(truncate_for_error(line));
    let mut parts = line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(bad());
    };
    if method.is_empty()
        || !method.bytes().all(|b| b.is_ascii_uppercase())
        || !target.starts_with('/')
        || !version.starts_with("HTTP/")
    {
        return Err(bad());
    }
    let http10 = version == "HTTP/1.0";
    let mut close = http10;
    let mut content_length: Option<u64> = None;
    for (name, value) in lines.filter_map(|l| l.split_once(':')) {
        let value = value.trim();
        if name.ends_with([' ', '\t']) {
            // RFC 9112 §5.1: `Transfer-Encoding : chunked` must not slip
            // past the name checks below.
            return Err(FrameError::BadHeader(format!("whitespace before the colon in {name:?}")));
        }
        if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if http10 && value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        } else if name.eq_ignore_ascii_case("content-length") {
            // `1*DIGIT`: `u64::from_str` alone would take a `+` sign.
            let length = Some(value)
                .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|v| v.parse().ok())
                .filter(|&n| content_length.is_none_or(|seen| seen == n))
                .ok_or_else(|| FrameError::BadHeader(format!("content-length: {value:?}")))?;
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(FrameError::BadHeader(format!("transfer-encoding: {value:?}")));
        }
    }
    Ok(ParsedHead {
        request: Request { method: method.to_owned(), path: target.to_owned(), close },
        content_length: content_length.unwrap_or(0),
    })
}

/// First 80 chars of a bad request line, so the strict-JSON error body
/// stays bounded no matter what arrived.
fn truncate_for_error(line: &str) -> String {
    let mut s: String = line.chars().take(80).collect();
    if s.len() < line.len() {
        s.push('…');
    }
    s
}

/// Frames every request out of one contiguous byte stream — the shape
/// the unit tests drive.
pub fn frame_all(bytes: &[u8]) -> (Vec<Request>, Option<FrameError>) {
    let mut framer = RequestFramer::new();
    framer.push(bytes);
    let mut out = Vec::new();
    loop {
        match framer.next() {
            Framed::Request(r) => out.push(r),
            Framed::Incomplete => return (out, None),
            Framed::Error(e) => return (out, Some(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_exact_request_frames() {
        let (reqs, err) = frame_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(err.is_none());
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].method, "GET");
        assert_eq!(reqs[0].path, "/healthz");
        assert!(!reqs[0].close);
    }

    #[test]
    fn torn_stream_frames_once_complete() {
        // The same request delivered one byte at a time: every prefix is
        // Incomplete, the final byte completes it.
        let wire = b"GET /status HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut framer = RequestFramer::new();
        for (i, b) in wire.iter().enumerate() {
            framer.push(std::slice::from_ref(b));
            match framer.next() {
                Framed::Incomplete => assert!(i + 1 < wire.len(), "must frame at the end"),
                Framed::Request(r) => {
                    assert_eq!(i + 1, wire.len(), "framed early at byte {i}");
                    assert_eq!(r.path, "/status");
                    assert!(r.close);
                }
                Framed::Error(e) => panic!("unexpected frame error: {e:?}"),
            }
        }
        assert_eq!(framer.buffered(), 0);
    }

    #[test]
    fn pipelined_burst_frames_in_order() {
        let wire = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nPOST /c?x=1 HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /d HTTP/1.1\r\n\r\n";
        let (reqs, err) = frame_all(wire);
        assert!(err.is_none());
        let paths: Vec<&str> = reqs.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, ["/a", "/b", "/c?x=1", "/d"]);
        assert_eq!(reqs[2].method, "POST");
    }

    #[test]
    fn body_split_across_pushes_keeps_framing() {
        let mut framer = RequestFramer::new();
        framer.push(b"POST /reload HTTP/1.1\r\nContent-Length: 5\r\n\r\nab");
        assert!(matches!(framer.next(), Framed::Incomplete));
        framer.push(b"cde");
        assert!(matches!(framer.next(), Framed::Request(r) if r.path == "/reload"));
        framer.push(b"GET /next HTTP/1.1\r\n\r\n");
        assert!(matches!(framer.next(), Framed::Request(r) if r.path == "/next"));
    }

    #[test]
    fn garbage_request_line_is_a_400() {
        let (reqs, err) = frame_all(b"NOT A REQUEST AT ALL\r\n\r\n");
        assert!(reqs.is_empty());
        let err = err.expect("garbage must error");
        assert_eq!(err.code(), 400);
        assert!(err.message().contains("malformed request line"));
    }

    #[test]
    fn binary_junk_is_a_400_not_a_hang() {
        let (reqs, err) = frame_all(b"\x16\x03\x01\x02\x00\x01\r\n\r\n");
        assert!(reqs.is_empty());
        assert_eq!(err.expect("TLS hello is not HTTP").code(), 400);
    }

    #[test]
    fn oversized_head_is_a_431() {
        let mut wire = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        wire.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        let (reqs, err) = frame_all(&wire);
        assert!(reqs.is_empty());
        assert_eq!(err.expect("unterminated head must error").code(), 431);
    }

    #[test]
    fn oversized_head_with_terminator_is_still_a_431() {
        // The whole head — terminator included — lands in one push, so
        // the "waiting for the marker" cap never fires; the post-scan
        // cap must.
        let mut wire = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        wire.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        wire.extend_from_slice(b"\r\n\r\n");
        let (reqs, err) = frame_all(&wire);
        assert!(reqs.is_empty());
        assert_eq!(err.expect("terminated oversized head must error").code(), 431);
    }

    #[test]
    fn oversized_declared_body_is_a_413() {
        let wire = format!(
            "POST /tenants HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let (reqs, err) = frame_all(wire.as_bytes());
        assert!(reqs.is_empty());
        assert_eq!(err.expect("huge body must error").code(), 413);
    }

    #[test]
    fn poisoned_framer_stays_incomplete() {
        let mut framer = RequestFramer::new();
        framer.push(b"garbage\r\n\r\nGET /after HTTP/1.1\r\n\r\n");
        assert!(matches!(framer.next(), Framed::Error(_)));
        assert!(framer.poisoned());
        // Later bytes can never resurrect a poisoned stream.
        framer.push(b"GET /more HTTP/1.1\r\n\r\n");
        assert!(matches!(framer.next(), Framed::Incomplete));
    }

    #[test]
    fn http10_defaults_to_close_unless_keepalive() {
        let (reqs, _) = frame_all(b"GET /a HTTP/1.0\r\n\r\n");
        assert!(reqs[0].close);
        let (reqs, _) = frame_all(b"GET /a HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!reqs[0].close);
        let (reqs, _) = frame_all(b"GET /a HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(reqs[0].close);
    }

    #[test]
    fn bad_content_length_is_a_400() {
        let (_, err) = frame_all(b"POST /x HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
        assert_eq!(err.expect("non-numeric length must error").code(), 400);
    }

    #[test]
    fn content_length_is_digits_only_and_agrees_with_itself() {
        for wire in [
            "POST /x HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
            "POST /x HTTP/1.1\r\nContent-Length: -0\r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: \r\n\r\n",
            "POST /x HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
        ] {
            let (reqs, err) = frame_all(wire.as_bytes());
            assert!(reqs.is_empty(), "{wire:?} framed {reqs:?}");
            assert_eq!(err.map(|e| e.code()), Some(400), "{wire:?}");
        }
        // Repeats that agree are one length.
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabcGET /y HTTP/1.1\r\n\r\n";
        let (reqs, err) = frame_all(wire);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(reqs.iter().map(|r| r.path.as_str()).collect::<Vec<_>>(), ["/x", "/y"]);
    }

    #[test]
    fn transfer_encoding_is_a_400_before_the_request_is_answered() {
        let wire = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let (reqs, err) = frame_all(wire);
        assert!(reqs.is_empty(), "a chunked request was answered: {reqs:?}");
        let err = err.expect("a chunked body cannot be framed");
        assert_eq!(err.code(), 400);
        assert!(err.message().contains("transfer-encoding"), "{}", err.message());
        // Nor does whitespace before the colon hide the header.
        let wire = b"POST /x HTTP/1.1\r\nTransfer-Encoding : chunked\r\n\r\n0\r\n\r\n";
        let (reqs, err) = frame_all(wire);
        assert!(reqs.is_empty(), "a chunked request was answered: {reqs:?}");
        assert_eq!(err.map(|e| e.code()), Some(400));
    }

    /// A head whose terminator straddles the head cap frames the same
    /// whether it arrives whole or torn just past the cap.
    #[test]
    fn a_head_ending_at_the_cap_frames_torn_or_whole() {
        let mut wire = b"GET /x HTTP/1.1\r\nX-Pad: ".to_vec();
        wire.resize(MAX_HEAD_BYTES, b'a');
        wire.extend_from_slice(b"\r\n\r\n");
        let mut framer = RequestFramer::new();
        framer.push(&wire[..MAX_HEAD_BYTES + 2]);
        assert!(matches!(framer.next(), Framed::Incomplete));
        framer.push(&wire[MAX_HEAD_BYTES + 2..]);
        assert!(matches!(framer.next(), Framed::Request(r) if r.path == "/x"));
        assert_eq!(frame_all(&wire).0.len(), 1);
    }

    /// One seeded stream: requests whose heads carry random framing
    /// headers (valid, signed, empty, huge and repeated lengths,
    /// `Transfer-Encoding`, padding up to the head cap) with their
    /// bodies, junk bytes, CRLF fragments and invalid UTF-8.
    fn seeded_stream(rng: &mut prospector_obs::SmallRng) -> Vec<u8> {
        const HEADS: [&str; 5] = [
            "GET /a HTTP/1.1",
            "POST /r?x=1 HTTP/1.1",
            "GET /b HTTP/1.0",
            "DELETE /c HTTP/1.1",
            "GET /%FF?q=日本 HTTP/1.1",
        ];
        const LENGTHS: [&str; 12] = [
            "0",
            "3",
            "17",
            "+3",
            "-1",
            "",
            "3 3",
            "0x10",
            "65536",
            "65537",
            "18446744073709551615",
            "99999999999999999999999",
        ];
        const JUNK: [&[u8]; 9] =
            [b"\r", b"\n", b"\r\n", b"\r\n\r\n", b" ", b":", b"\xff\xfe", b"\xc3\x28", b"\x00"];
        let mut out = Vec::new();
        for _ in 0..rng.gen_range(1..=5) {
            if rng.gen_bool(0.2) {
                for _ in 0..rng.gen_range(1..=8) {
                    if rng.gen_bool(0.5) {
                        out.extend_from_slice(JUNK[rng.gen_range(0..JUNK.len())]);
                    } else {
                        out.push(rng.gen_range(0..256) as u8);
                    }
                }
                continue;
            }
            out.extend_from_slice(HEADS[rng.gen_range(0..HEADS.len())].as_bytes());
            out.extend_from_slice(b"\r\n");
            let mut body: u64 = 0;
            for _ in 0..rng.gen_range(0..=3) {
                let line = match rng.gen_range(0..10) {
                    0..=4 => {
                        let value = LENGTHS[rng.gen_range(0..LENGTHS.len())];
                        body = value.parse().unwrap_or(body);
                        format!("Content-Length: {value}")
                    }
                    5 => "Transfer-Encoding: chunked".to_owned(),
                    6 => "Connection: close".to_owned(),
                    7 => format!("X-Pad: {}", "a".repeat(rng.gen_range(8_000..=8_200))),
                    8 => ["X-Bytes: \u{fffd}🦀", "Content-Length : 3", "Transfer-Encoding: gzip"]
                        [rng.gen_range(0..3)]
                    .to_owned(),
                    _ => "Host: t".to_owned(),
                };
                out.extend_from_slice(line.as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"\r\n");
            let body = if body <= 64 { body as usize } else { rng.gen_range(0..64) };
            out.extend((0..body).map(|i| b'a' + (i % 26) as u8));
        }
        out
    }

    /// Seeded streams frame alike pushed whole and in random chunks: the
    /// same requests, the same error code. Nothing panics, and after an
    /// error the framer reports `Incomplete` and buffers nothing more.
    #[test]
    fn seeded_streams_frame_alike_whole_and_chunked() {
        let summary = |r: &Request| (r.method.clone(), r.path.clone(), r.close);
        let mut rng = prospector_obs::SmallRng::seed_from_u64(31);
        let mut codes = std::collections::BTreeMap::<Option<u16>, usize>::new();
        for case in 0..20_000 {
            let stream = seeded_stream(&mut rng);
            let (whole, whole_error) = frame_all(&stream);
            let whole: Vec<_> = whole.iter().map(summary).collect();
            let whole_code = whole_error.map(|e| e.code());

            let mut framer = RequestFramer::new();
            let (mut chunked, mut chunked_code, mut frozen) = (Vec::new(), None, None);
            let mut rest = &stream[..];
            while !rest.is_empty() {
                let cap = match rng.gen_range(0..3) {
                    0 => 1,
                    1 => 32,
                    _ => 4096,
                };
                let (chunk, tail) = rest.split_at(rng.gen_range(1..=cap).min(rest.len()));
                rest = tail;
                framer.push(chunk);
                if let Some(len) = frozen {
                    assert_eq!(
                        framer.buffered(),
                        len,
                        "case {case}: a poisoned framer buffered more"
                    );
                }
                loop {
                    match framer.next() {
                        Framed::Request(r) => {
                            assert!(frozen.is_none(), "case {case}: a request after the error");
                            chunked.push(summary(&r));
                        }
                        Framed::Error(e) => {
                            assert!(frozen.is_none(), "case {case}: a second error");
                            chunked_code = Some(e.code());
                            frozen = Some(framer.buffered());
                        }
                        Framed::Incomplete => break,
                    }
                }
            }
            assert_eq!(chunked, whole, "case {case}: {:?}", String::from_utf8_lossy(&stream));
            assert_eq!(
                chunked_code,
                whole_code,
                "case {case}: {:?}",
                String::from_utf8_lossy(&stream)
            );
            *codes.entry(whole_code).or_default() += 1;
        }
        let seen: Vec<_> = codes.keys().copied().collect();
        assert_eq!(seen, [None, Some(400), Some(413), Some(431)], "{codes:?}");
    }
}
