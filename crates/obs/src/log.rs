//! The structured access log: one strict-JSON line per served request.
//!
//! The flight recorder ([`crate::trace`]) answers "what happened inside
//! query X"; the metric registry answers "what has the process done".
//! Neither answers the operational question "which requests arrived, in
//! order, with what outcome" — that is an access log. Every request the
//! serve layer finishes becomes one [`AccessRecord`], rendered as one
//! strict-JSON line (machine-parseable, no embedded newlines) carrying
//! the same `trace_id` the flight recorder assigned, so a log line can
//! be joined against `/trace.json` timelines directly.
//!
//! Records go two places:
//!
//! * a **sink** — stderr by default, or a file (`--access-log <path>`),
//!   written line-at-a-time under one mutex;
//! * a **bounded in-memory tail** ([`TAIL_CAP`] newest records, oldest
//!   dropped first) served back over `GET /logs?n=` without touching
//!   disk.
//!
//! The log is off by default and costs nothing when off: a disabled
//! [`record`] is one relaxed atomic load. The serve layer turns it on at
//! bind time; CLI one-shot commands never do. When on, a record costs no
//! heap allocation once the tail is full: the line is written with
//! [`JsonWriter`] into a buffer each thread reuses, and the tenant name
//! is shared with the registry, not copied.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::JsonWriter;

/// Records retained in the in-memory tail.
pub const TAIL_CAP: usize = 512;

/// One served request, ready to render as a strict-JSON log line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessRecord {
    /// Wall-clock milliseconds since the Unix epoch.
    pub ts_ms: u64,
    /// The flight-recorder trace id for `/query` and `/assist`
    /// requests; 0 for endpoints that run no query pipeline.
    pub trace_id: u64,
    /// Endpoint label (`"query"`, `"metrics"`, ..., `"other"`).
    pub endpoint: &'static str,
    /// The tenant the request was routed to (`"default"` for bare
    /// single-tenant URLs); empty for endpoints that touch no engine and
    /// for a `?tenant=` key that names no registered tenant. Shared with
    /// the registry's tenant, so a record copies no name
    /// (`Arc::default()` is the empty name and allocates nothing).
    pub tenant: Arc<str>,
    /// HTTP status code sent.
    pub code: u16,
    /// Response body bytes sent.
    pub bytes: u64,
    /// Microseconds from the serve thread's pickup of the connection to
    /// the start of this request's answer: the read, the framing, and
    /// the answers to the requests pipelined before it.
    pub queue_wait_us: u64,
    /// Microseconds from parsed request to serialized response.
    pub handle_us: u64,
    /// Whether a `/query` answer came from the result cache.
    pub cached: bool,
    /// The query's truncation reason (`"none"` when complete; empty for
    /// non-query endpoints).
    pub truncation: &'static str,
}

impl AccessRecord {
    /// Writes the record as one strict-JSON object. This is the one
    /// field list: the sink's lines and `GET /logs` both render through
    /// it.
    pub fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_obj();
        w.key("ts_ms").u64(self.ts_ms);
        w.key("trace_id").u64(self.trace_id);
        w.key("endpoint").str(self.endpoint);
        w.key("tenant").str(&self.tenant);
        w.key("code").u64(u64::from(self.code));
        w.key("bytes").u64(self.bytes);
        w.key("queue_wait_us").u64(self.queue_wait_us);
        w.key("handle_us").u64(self.handle_us);
        w.key("cached").bool(self.cached);
        w.key("truncation").str(self.truncation);
        w.end_obj();
    }
}

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is
/// before it).
#[must_use]
pub fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

/// Where rendered log lines are written.
enum Sink {
    Stderr,
    File(std::fs::File),
}

/// An access log: enabled flag, line sink, bounded tail.
///
/// The serve layer uses the process-global one (via the free functions);
/// tests can make their own.
pub struct AccessLog {
    enabled: AtomicBool,
    sink: Mutex<Sink>,
    tail: Mutex<VecDeque<AccessRecord>>,
}

impl Default for AccessLog {
    fn default() -> Self {
        AccessLog::new()
    }
}

impl AccessLog {
    /// A disabled log writing to stderr.
    #[must_use]
    pub fn new() -> Self {
        AccessLog {
            enabled: AtomicBool::new(false),
            sink: Mutex::new(Sink::Stderr),
            tail: Mutex::new(VecDeque::new()),
        }
    }

    /// Turns the log on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether the log is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Redirects lines from stderr to `path` (append, create).
    ///
    /// # Errors
    ///
    /// Returns the open failure as a displayable message.
    pub fn set_file(&self, path: &str) -> Result<(), String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        *self.sink.lock().expect("access-log sink poisoned") = Sink::File(file);
        Ok(())
    }

    /// Appends one record: renders the JSON line to the sink and pushes
    /// the record onto the tail (dropping the oldest past [`TAIL_CAP`]).
    /// One relaxed load when disabled.
    pub fn record(&self, rec: AccessRecord) {
        thread_local! {
            static LINE: RefCell<String> = const { RefCell::new(String::new()) };
        }
        if !self.enabled() {
            return;
        }
        LINE.with_borrow_mut(|line| {
            line.clear();
            rec.write_json(&mut JsonWriter::new(line));
            // The newline is rendered into the line so each record is
            // one `write(2)` on the unbuffered sink, not two.
            line.push('\n');
            let mut sink = self.sink.lock().expect("access-log sink poisoned");
            let _ = match &mut *sink {
                Sink::Stderr => std::io::stderr().lock().write_all(line.as_bytes()),
                Sink::File(f) => f.write_all(line.as_bytes()),
            };
        });
        let mut tail = self.tail.lock().expect("access-log tail poisoned");
        if tail.len() >= TAIL_CAP {
            tail.pop_front();
        }
        tail.push_back(rec);
    }

    /// The newest `n` retained records, oldest first.
    ///
    /// # Panics
    ///
    /// Panics only if the tail mutex is poisoned.
    #[must_use]
    pub fn tail(&self, n: usize) -> Vec<AccessRecord> {
        let tail = self.tail.lock().expect("access-log tail poisoned");
        tail.iter().skip(tail.len().saturating_sub(n)).cloned().collect()
    }
}

/// The process-global access log.
#[must_use]
pub fn global() -> &'static AccessLog {
    static GLOBAL: OnceLock<AccessLog> = OnceLock::new();
    GLOBAL.get_or_init(AccessLog::new)
}

/// Turns the global access log on or off.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Redirects the global log's lines to a file.
///
/// # Errors
///
/// Returns the open failure as a displayable message.
pub fn set_file(path: &str) -> Result<(), String> {
    global().set_file(path)
}

/// Appends one record to the global log.
pub fn record(rec: AccessRecord) {
    global().record(rec);
}

/// The newest `n` globally retained records, oldest first.
#[must_use]
pub fn tail(n: usize) -> Vec<AccessRecord> {
    global().tail(n)
}

/// Renders records as a strict-JSON array (for `GET /logs`), each
/// element the object its sink line holds.
#[must_use]
pub fn to_json_array(records: &[AccessRecord]) -> String {
    let mut out = String::new();
    let mut w = JsonWriter::new(&mut out);
    w.begin_arr();
    for rec in records {
        rec.write_json(&mut w);
    }
    w.end_arr();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn rec(ts: u64, endpoint: &'static str) -> AccessRecord {
        AccessRecord {
            ts_ms: ts,
            trace_id: 0x1_0000_0000_0001,
            endpoint,
            tenant: Arc::from("default"),
            code: 200,
            bytes: 42,
            queue_wait_us: 7,
            handle_us: 123,
            cached: false,
            truncation: "none",
        }
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = AccessLog::new();
        log.record(rec(1, "query"));
        assert!(log.tail(10).is_empty());
    }

    #[test]
    fn lines_are_strict_json_with_required_keys() {
        let mut line = String::new();
        rec(5, "query").write_json(&mut JsonWriter::new(&mut line));
        assert!(!line.contains('\n'), "one line per record");
        let parsed = Json::parse(&line).expect("strict JSON");
        let keys: Vec<&str> =
            parsed.as_obj().expect("an object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "ts_ms",
                "trace_id",
                "endpoint",
                "tenant",
                "code",
                "bytes",
                "queue_wait_us",
                "handle_us",
                "cached",
                "truncation",
            ],
            "{line}"
        );
        assert_eq!(parsed.get("endpoint").unwrap().as_str(), Some("query"));
        assert_eq!(parsed.get("code").unwrap().as_u64(), Some(200));
        let none = AccessRecord { tenant: Arc::default(), truncation: "", ..rec(5, "healthz") };
        let mut line = String::new();
        none.write_json(&mut JsonWriter::new(&mut line));
        assert!(line.contains(r#""tenant":"","#) && line.ends_with(r#""truncation":""}"#), "{line}");
    }

    #[test]
    fn tail_is_bounded_and_ordered() {
        let log = AccessLog::new();
        log.set_enabled(true);
        let path = std::env::temp_dir().join("prospector_access_log_test.jsonl");
        let _ = std::fs::remove_file(&path);
        log.set_file(path.to_str().unwrap()).expect("open log file");
        for i in 0..(TAIL_CAP as u64 + 10) {
            log.record(rec(i, "healthz"));
        }
        let tail = log.tail(usize::MAX);
        assert_eq!(tail.len(), TAIL_CAP);
        assert_eq!(tail[0].ts_ms, 10, "oldest 10 dropped");
        assert_eq!(tail.last().unwrap().ts_ms, TAIL_CAP as u64 + 9);
        let last3 = log.tail(3);
        assert_eq!(last3.len(), 3);
        assert_eq!(last3[0].ts_ms, TAIL_CAP as u64 + 7);
        // Every sink line parses as strict JSON.
        let text = std::fs::read_to_string(&path).expect("read log file");
        assert!(text.lines().count() >= TAIL_CAP);
        for line in text.lines() {
            Json::parse(line).expect("sink line is strict JSON");
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Write syscalls this thread has made, where the kernel reports it.
    fn thread_write_calls() -> Option<u64> {
        let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
        io.lines().find_map(|l| l.strip_prefix("syscw:"))?.trim().parse().ok()
    }

    #[test]
    fn each_record_is_one_write_call() {
        let log = AccessLog::new();
        log.set_enabled(true);
        let path = std::env::temp_dir().join("prospector_access_log_writes.jsonl");
        let _ = std::fs::remove_file(&path);
        log.set_file(path.to_str().unwrap()).expect("open log file");
        let Some(before) = thread_write_calls() else { return };
        for i in 0..10 {
            log.record(rec(i, "query"));
        }
        let writes = thread_write_calls().expect("counter readable") - before;
        let text = std::fs::read_to_string(&path).expect("read log file");
        let _ = std::fs::remove_file(&path);
        assert_eq!(writes, 10, "one write(2) per record");
        assert_eq!(text.lines().count(), 10);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn json_array_holds_the_sink_lines() {
        let log = AccessLog::new();
        log.set_enabled(true);
        let path = std::env::temp_dir().join("prospector_access_log_array.jsonl");
        let _ = std::fs::remove_file(&path);
        log.set_file(path.to_str().unwrap()).expect("open log file");
        log.record(rec(1, "query"));
        log.record(rec(2, "metrics"));
        let text = std::fs::read_to_string(&path).expect("read log file");
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(to_json_array(&log.tail(2)), format!("[{}]", lines.join(",")));
        assert_eq!(to_json_array(&[]), "[]");
    }
}
