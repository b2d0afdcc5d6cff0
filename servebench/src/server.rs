//! Brings the server up from a snapshot exactly as
//! `prospector serve --index <pspk> --mmap` does, and times it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use prospector_cli::serve::{ServeOptions, Server};
use prospector_obs::Json;
use prospector_registry::Registry;

use crate::client::Conn;

/// Set-up timings of one bring-up, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// `load_engine` alone.
    pub load_s: f64,
    /// `Server::bind` to the first `200` from `/readyz`.
    pub ready_s: f64,
    /// Snapshot on disk to the first `200` from `/readyz`.
    pub total_s: f64,
}

/// Sets the shutdown flag when dropped, so a panicking body cannot
/// leave the serve thread (and the scope joining it) running forever.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

fn wait_ready(addr: SocketAddr) -> Result<(), String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let code = conn
        .send(b"GET /readyz HTTP/1.1\r\nHost: bench\r\n\r\n")
        .map_err(|e| format!("/readyz: {e}"))?;
    if code != 200 || !conn.body().starts_with(b"{\"ready\":true") {
        return Err(format!(
            "/readyz answered {code}: {}",
            String::from_utf8_lossy(conn.body())
        ));
    }
    Ok(())
}

/// What the running server reports about itself in `/status`.
pub struct Config {
    pub workers: u64,
    pub serve_core: String,
    pub keepalive_max: u64,
}

/// Reads the server's worker count and core from `GET /status`.
pub fn config(addr: SocketAddr) -> Result<Config, String> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let code = conn
        .send(b"GET /status HTTP/1.1\r\nHost: bench\r\n\r\n")
        .map_err(|e| format!("/status: {e}"))?;
    let text = String::from_utf8_lossy(conn.body());
    let status = Json::parse(&text)
        .ok()
        .filter(|_| code == 200)
        .ok_or_else(|| format!("/status answered {code}: {text}"))?;
    let field = |section: &str, key: &str| {
        status
            .get(section)
            .and_then(|s| s.get(key))
            .ok_or_else(|| format!("/status without {section}.{key}"))
    };
    Ok(Config {
        workers: field("pool", "workers")?
            .as_u64()
            .ok_or("non-integer pool.workers")?,
        serve_core: field("config", "serve_core")?
            .as_str()
            .ok_or("non-string config.serve_core")?
            .to_owned(),
        keepalive_max: field("config", "keepalive_max")?
            .as_u64()
            .ok_or("non-integer config.keepalive_max")?,
    })
}

/// Loads `snapshot` (mmap'd), registers it as the default tenant, binds
/// port 0 with the default worker count and options, waits for the first
/// `200` from `/readyz`, runs `body`, then stops the server and joins it.
pub fn serve_snapshot<R>(
    snapshot: &str,
    body: impl FnOnce(&Registry, SocketAddr, Setup) -> Result<R, String>,
) -> Result<R, String> {
    let started = Instant::now();
    let (engine, provenance) = prospector_registry::load_engine(snapshot, true)?;
    let load_s = started.elapsed().as_secs_f64();
    let registry = Registry::with_default(engine, provenance);
    let bind_at = Instant::now();
    let server = Server::bind("127.0.0.1:0")?;
    let addr = server.local_addr()?;
    let opts = ServeOptions {
        mmap: true,
        ..ServeOptions::default()
    };
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.run(&registry, &opts, &shutdown));
        let out = {
            let _stop = StopOnDrop(&shutdown);
            wait_ready(addr).and_then(|()| {
                let setup = Setup {
                    load_s,
                    ready_s: bind_at.elapsed().as_secs_f64(),
                    total_s: started.elapsed().as_secs_f64(),
                };
                body(&registry, addr, setup)
            })
        };
        serving
            .join()
            .map_err(|_| "serve thread panicked".to_owned())??;
        out
    })
}

/// Resident set size of this process, in MB.
pub fn rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmRSS in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Aggregate CPU jiffies of the machine: `(all, stolen)`. Stolen time is
/// time the hypervisor ran something else on this machine's CPUs.
pub fn cpu_jiffies() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("no cpu line in /proc/stat")?
        .split_whitespace()
        .map(|f| f.parse().map_err(|_| format!("bad /proc/stat field {f:?}")))
        .collect::<Result<_, _>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let all = fields.iter().take(8).sum();
    Ok((all, fields.get(7).copied().unwrap_or(0)))
}
