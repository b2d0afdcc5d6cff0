//! `prospector-registry`: a named map of tenants, each serving one API
//! universe from its own engine, with zero-downtime hot reload.
//!
//! The serve layer historically held exactly one [`Prospector`] for the
//! life of the process. Production means many universes at once — one
//! process serving N stub sets or SDK versions, each backed by its own
//! `.pspk` snapshot — and means replacing a tenant's graph **under live
//! traffic** when its snapshot is rebuilt. This crate is that state:
//!
//! * a [`Registry`] — `RwLock<BTreeMap<name, Arc<Tenant>>>` — routes a
//!   `?tenant=` key to a tenant (the [`DEFAULT_TENANT`] preserves every
//!   single-tenant URL unchanged);
//! * each [`Tenant`] holds its engine behind an **atomic-swap slot**
//!   (`RwLock<Arc<Prospector>>`): readers clone the `Arc` in a few
//!   nanoseconds and run their query entirely outside the lock, so a
//!   swap never blocks on query latency and an in-flight query simply
//!   finishes on the engine it started with — the old engine is freed
//!   when its last in-flight reader drops;
//! * [`Registry::reload`] builds the replacement engine **off-lock**
//!   (snapshot read, CRC validation, decode — the expensive part), then
//!   takes the write lock only for the pointer swap. A failed load
//!   leaves the old engine serving and parks the error in
//!   [`TenantState::Failed`], so a bad snapshot push degrades to "stale
//!   but correct", never to an outage;
//! * per-tenant provenance ([`TenantInfo`]) — snapshot path, format
//!   version, owned/mmap mode, graph epoch, load time, RSS estimate,
//!   reload and query counts — feeds `GET /tenants`, `/status`, and the
//!   per-tenant metric labels.
//!
//! Cache correctness across a swap needs no extra machinery: both
//! caches live *inside* each [`Prospector`], so a freshly loaded engine
//! starts with empty ones, and old cached results die with the old
//! engine's `Arc`. The new engine's graph epoch is fresh (epochs are
//! process-globally monotone), so its provenance shows the swap.

#![deny(unsafe_code)]

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use prospector_core::Prospector;
use prospector_obs::hist::Histogram;
use prospector_obs::Counter;

/// The tenant every single-tenant URL and CLI flag routes to when no
/// `?tenant=` key is given.
pub const DEFAULT_TENANT: &str = "default";

/// Longest accepted tenant name. Names become metric label values and
/// URL parameters, so they are also restricted to `[A-Za-z0-9_.-]` (see
/// [`validate_name`]).
pub const MAX_NAME_LEN: usize = 64;

/// Where a tenant's engine came from and how it is held in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// Built in-process (graph construction + mining), no snapshot.
    Built,
    /// Borrowing from one owned read of a snapshot (also what an mmap
    /// request the platform could not honor gets).
    Owned,
    /// Serving borrowed views out of an mmap'd snapshot.
    Mapped,
}

impl EngineMode {
    /// The label `/readyz`, `/status`, and `/tenants` report.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Built => "built",
            EngineMode::Owned => "owned",
            EngineMode::Mapped => "mmap",
        }
    }
}

/// A tenant's lifecycle. The state is *advisory* — queries always run
/// against whatever engine the slot holds — but it tells operators what
/// the registry last did for (or to) this tenant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TenantState {
    /// A load or reload is in progress; the previous engine (if any)
    /// keeps serving.
    Loading,
    /// The slot holds the engine the tenant's source most recently
    /// loaded successfully.
    Ready,
    /// The last reload failed; the slot still holds (and serves) the
    /// previous engine. The error names what went wrong.
    Failed {
        /// The displayable reason the reload failed.
        error: String,
    },
}

impl TenantState {
    /// The state's label in JSON manifests and metrics.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TenantState::Loading => "loading",
            TenantState::Ready => "ready",
            TenantState::Failed { .. } => "failed",
        }
    }
}

/// How a tenant's engine was obtained — recorded at load time, reported
/// forever after.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Path of the snapshot the engine was loaded from; `None` for an
    /// in-process build.
    pub snapshot_path: Option<String>,
    /// Snapshot format version (`None` for in-process builds).
    pub format_version: Option<u32>,
    /// How the engine is held in memory.
    pub mode: EngineMode,
    /// Microseconds the load took (validate + decode; 0 for engines
    /// handed in pre-built).
    pub load_us: u64,
}

impl Provenance {
    /// Provenance for an engine built in-process (no snapshot).
    #[must_use]
    pub fn built() -> Provenance {
        Provenance { snapshot_path: None, format_version: None, mode: EngineMode::Built, load_us: 0 }
    }
}

/// Everything the slot swaps atomically: the engine and the facts about
/// where it came from.
struct Slot {
    engine: Arc<Prospector>,
    provenance: Provenance,
    state: TenantState,
    /// Graph epoch at load time (also readable off the engine, but
    /// snapshotted here so `info()` needs no engine lock).
    graph_epoch: u64,
    /// The engine's approximate resident size (graph plus API tables:
    /// types, members, names, and their indexes), the per-tenant RSS
    /// estimate `/tenants` reports.
    engine_bytes: u64,
    /// Wall-clock ms when this engine was installed.
    loaded_at_ms: u64,
    /// Successful loads into this slot (1 after the first).
    reloads: u64,
}

/// One named tenant: an atomic-swap engine slot plus counters that
/// survive swaps.
pub struct Tenant {
    /// Shared, so an access-log record can carry it without a copy.
    name: Arc<str>,
    slot: RwLock<Slot>,
    /// Serializes reloads of this tenant; queries never take it.
    reload_gate: Mutex<()>,
    /// Queries routed to this tenant (the serve layer bumps it).
    queries: AtomicU64,
    /// Failed reload attempts (the old engine kept serving each time).
    reload_failures: AtomicU64,
    /// Handle time of the requests it served since it was registered
    /// (`serve.tenant.latency_ns{tenant}`).
    latency: Histogram,
}

impl Tenant {
    fn new(name: &str, engine: Prospector, provenance: Provenance) -> Tenant {
        Tenant {
            name: Arc::from(name),
            slot: RwLock::new(Slot::install(Arc::new(engine), provenance)),
            reload_gate: Mutex::new(()),
            queries: AtomicU64::new(0),
            reload_failures: AtomicU64::new(0),
            latency: Histogram::new(),
        }
    }

    /// The handle time of the requests this tenant served.
    #[must_use]
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// The tenant's name (the routing key).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's name as a shared string: cloning it bumps a count
    /// and copies nothing.
    #[must_use]
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// Clones the current engine `Arc` out of the slot — a read lock
    /// held for one refcount bump. The caller runs its query entirely
    /// outside the lock, so a concurrent swap never waits on it and the
    /// query finishes on the engine it started with.
    ///
    /// # Panics
    ///
    /// Panics only if the slot lock is poisoned.
    #[must_use]
    pub fn engine(&self) -> Arc<Prospector> {
        Arc::clone(&self.slot.read().expect("tenant slot poisoned").engine)
    }

    /// Counts one query routed to this tenant.
    pub fn record_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the tenant's manifest row.
    ///
    /// # Panics
    ///
    /// Panics only if the slot lock is poisoned.
    #[must_use]
    pub fn info(&self) -> TenantInfo {
        let slot = self.slot.read().expect("tenant slot poisoned");
        TenantInfo {
            name: self.name.to_string(),
            state: slot.state.clone(),
            snapshot_path: slot.provenance.snapshot_path.clone(),
            format_version: slot.provenance.format_version,
            mode: slot.provenance.mode,
            graph_epoch: slot.graph_epoch,
            engine_bytes: slot.engine_bytes,
            loaded_at_ms: slot.loaded_at_ms,
            load_us: slot.provenance.load_us,
            reloads: slot.reloads,
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
        }
    }
}

impl Slot {
    fn install(engine: Arc<Prospector>, provenance: Provenance) -> Slot {
        let graph_epoch = engine.graph().epoch();
        let engine_bytes = (engine.graph().approx_bytes() + engine.api().approx_bytes()) as u64;
        Slot {
            engine,
            provenance,
            state: TenantState::Ready,
            graph_epoch,
            engine_bytes,
            loaded_at_ms: now_ms(),
            reloads: 0,
        }
    }
}

/// One row of the `GET /tenants` manifest.
#[derive(Clone, Debug)]
pub struct TenantInfo {
    /// The routing key.
    pub name: String,
    /// Lifecycle state (plus the last error when `Failed`).
    pub state: TenantState,
    /// Snapshot path, if any.
    pub snapshot_path: Option<String>,
    /// Snapshot format version, if any.
    pub format_version: Option<u32>,
    /// built / owned / mmap.
    pub mode: EngineMode,
    /// Graph epoch of the installed engine.
    pub graph_epoch: u64,
    /// Approximate resident bytes of the installed engine.
    pub engine_bytes: u64,
    /// Wall-clock ms when the installed engine landed.
    pub loaded_at_ms: u64,
    /// Microseconds the installing load took.
    pub load_us: u64,
    /// Successful reloads since the tenant was added.
    pub reloads: u64,
    /// Failed reload attempts (old engine retained each time).
    pub reload_failures: u64,
    /// Queries routed here so far.
    pub queries: u64,
}

/// Why a registry operation failed, displayable as the admin-endpoint
/// error body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The `?tenant=` key (or admin `name`) names no registered tenant.
    UnknownTenant {
        /// The name that failed to resolve.
        name: String,
    },
    /// `POST /tenants` with a name that already exists.
    DuplicateTenant {
        /// The conflicting name.
        name: String,
    },
    /// The tenant name is empty, too long, or has characters that would
    /// corrupt metric labels.
    InvalidName {
        /// The rejected name.
        name: String,
    },
    /// The tenant was built in-process, so there is no snapshot to
    /// reload from.
    NoSnapshot {
        /// The tenant asked to reload.
        name: String,
    },
    /// The snapshot load failed (the old engine, if any, keeps serving).
    LoadFailed {
        /// The tenant whose load failed.
        name: String,
        /// The displayable load error.
        error: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownTenant { name } => write!(f, "unknown tenant `{name}`"),
            RegistryError::DuplicateTenant { name } => {
                write!(f, "tenant `{name}` already exists")
            }
            RegistryError::InvalidName { name } => write!(
                f,
                "invalid tenant name `{name}` (1-{MAX_NAME_LEN} chars of [A-Za-z0-9_.-])"
            ),
            RegistryError::NoSnapshot { name } => {
                write!(f, "tenant `{name}` was built in-process; no snapshot to reload")
            }
            RegistryError::LoadFailed { name, error } => {
                write!(f, "tenant `{name}`: load failed: {error}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Rejects names that would corrupt metric labels or URLs: empty,
/// longer than [`MAX_NAME_LEN`], or containing anything outside
/// `[A-Za-z0-9_.-]`.
///
/// # Errors
///
/// Returns [`RegistryError::InvalidName`] with the offending name.
pub fn validate_name(name: &str) -> Result<(), RegistryError> {
    let ok = !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(RegistryError::InvalidName { name: name.to_owned() })
    }
}

/// The registry: tenant names to swap slots. All mutation goes through
/// `&self`; the serve layer shares one registry across its workers.
#[derive(Default)]
pub struct Registry {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// A registry whose [`DEFAULT_TENANT`] serves `engine` with the
    /// given provenance — the single-tenant setup every existing CLI
    /// flag and test reduces to.
    #[must_use]
    pub fn with_default(engine: Prospector, provenance: Provenance) -> Registry {
        let registry = Registry::new();
        registry
            .insert(DEFAULT_TENANT, engine, provenance)
            .expect("the default tenant name is valid and the registry is empty");
        registry
    }

    /// Registers a pre-built engine under `name`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::InvalidName`] or [`RegistryError::DuplicateTenant`].
    ///
    /// # Panics
    ///
    /// Panics only if the tenant-map lock is poisoned.
    pub fn insert(
        &self,
        name: &str,
        engine: Prospector,
        provenance: Provenance,
    ) -> Result<Arc<Tenant>, RegistryError> {
        validate_name(name)?;
        let tenant = Arc::new(Tenant::new(name, engine, provenance));
        {
            let mut map = self.tenants.write().expect("tenant map poisoned");
            if map.contains_key(name) {
                return Err(RegistryError::DuplicateTenant { name: name.to_owned() });
            }
            map.insert(name.to_owned(), Arc::clone(&tenant));
        }
        Ok(tenant)
    }

    /// Adds a tenant by loading its engine from a snapshot. The load
    /// runs before the tenant becomes routable — `POST /tenants` either
    /// installs a working engine or changes nothing.
    ///
    /// # Errors
    ///
    /// Name/duplicate errors as [`Registry::insert`];
    /// [`RegistryError::LoadFailed`] if the snapshot does not load.
    ///
    /// # Panics
    ///
    /// Panics only if the tenant-map lock is poisoned.
    pub fn add_from_path(
        &self,
        name: &str,
        path: &str,
        mmap: bool,
    ) -> Result<Arc<Tenant>, RegistryError> {
        validate_name(name)?;
        if self.get(name).is_some() {
            return Err(RegistryError::DuplicateTenant { name: name.to_owned() });
        }
        // Load outside the map lock: another tenant's traffic (and
        // even concurrent adds of *other* names) proceed during the
        // decode. The duplicate re-check inside `insert` closes the
        // add/add race on the same name.
        let (engine, provenance) = load_engine(path, mmap)
            .map_err(|error| RegistryError::LoadFailed { name: name.to_owned(), error })?;
        self.insert(name, engine, provenance)
    }

    /// Rebuilds a tenant's engine from its recorded snapshot path and
    /// atomically swaps it in. The expensive part (read, CRC validation,
    /// decode) runs **off-lock** against a private engine; the write
    /// lock is held only for the pointer swap, so queries keep flowing
    /// on the old engine throughout and in-flight ones finish on the
    /// `Arc` they cloned. On failure the old engine keeps serving and
    /// the tenant parks in [`TenantState::Failed`] with the error.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`], [`RegistryError::NoSnapshot`],
    /// or [`RegistryError::LoadFailed`].
    ///
    /// # Panics
    ///
    /// Panics only if a registry lock is poisoned.
    pub fn reload(&self, name: &str) -> Result<TenantInfo, RegistryError> {
        let tenant = self.get(name).ok_or_else(|| RegistryError::UnknownTenant {
            name: name.to_owned(),
        })?;
        // One reload at a time per tenant; queries never touch this.
        let _gate = tenant.reload_gate.lock().expect("reload gate poisoned");
        let (path, mmap) = {
            let slot = tenant.slot.read().expect("tenant slot poisoned");
            let Some(path) = slot.provenance.snapshot_path.clone() else {
                return Err(RegistryError::NoSnapshot { name: name.to_owned() });
            };
            (path, slot.provenance.mode == EngineMode::Mapped)
        };
        {
            let mut slot = tenant.slot.write().expect("tenant slot poisoned");
            slot.state = TenantState::Loading;
        }
        match load_engine(&path, mmap) {
            Ok((engine, provenance)) => {
                let fresh = Slot::install(Arc::new(engine), provenance);
                let old = {
                    let mut slot = tenant.slot.write().expect("tenant slot poisoned");
                    let reloads = slot.reloads + 1;
                    let old = std::mem::replace(&mut *slot, fresh);
                    slot.reloads = reloads;
                    old
                };
                // The retired engine drops here, after the write lock is
                // released, so its teardown never blocks `engine()`
                // callers (or it drops later, when the last in-flight
                // query releases its clone).
                drop(old);
                prospector_obs::add(Counter::RegistryReloads, 1);
                Ok(tenant.info())
            }
            Err(error) => {
                {
                    let mut slot = tenant.slot.write().expect("tenant slot poisoned");
                    slot.state = TenantState::Failed { error: error.clone() };
                }
                tenant.reload_failures.fetch_add(1, Ordering::Relaxed);
                prospector_obs::add(Counter::RegistryReloadFailures, 1);
                Err(RegistryError::LoadFailed { name: name.to_owned(), error })
            }
        }
    }

    /// The tenant registered under `name`, if any.
    ///
    /// # Panics
    ///
    /// Panics only if the tenant-map lock is poisoned.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.read().expect("tenant map poisoned").get(name).cloned()
    }

    /// Routes a request's optional `?tenant=` key: `None` (or the
    /// explicit default name) resolves to [`DEFAULT_TENANT`].
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownTenant`] naming the unresolved key —
    /// the serve layer renders it as a strict-JSON 400, never a silent
    /// fallback to the default tenant.
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<Tenant>, RegistryError> {
        let key = name.unwrap_or(DEFAULT_TENANT);
        self.get(key).ok_or_else(|| RegistryError::UnknownTenant { name: key.to_owned() })
    }

    /// Manifest rows for every tenant, name-ordered.
    ///
    /// # Panics
    ///
    /// Panics only if the tenant-map lock is poisoned.
    #[must_use]
    pub fn manifest(&self) -> Vec<TenantInfo> {
        let map = self.tenants.read().expect("tenant map poisoned");
        map.values().map(|t| t.info()).collect()
    }

    /// Registered tenant names, ordered.
    ///
    /// # Panics
    ///
    /// Panics only if the tenant-map lock is poisoned.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.tenants.read().expect("tenant map poisoned").keys().cloned().collect()
    }

    /// How many tenants are registered.
    ///
    /// # Panics
    ///
    /// Panics only if the tenant-map lock is poisoned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.read().expect("tenant map poisoned").len()
    }

    /// Whether no tenants are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of every registered engine's RSS estimate. The reload test
    /// pins that this returns to baseline after a swap — the old engine
    /// was freed, not leaked.
    #[must_use]
    pub fn engine_bytes_total(&self) -> u64 {
        self.manifest().iter().map(|t| t.engine_bytes).sum()
    }
}

/// Loads an engine from a `.pspk` snapshot through the binary store —
/// mmap'd when `mmap` and the platform allow — and returns it with the
/// provenance actually achieved. Every engine load goes through here:
/// `--index`, `serve`, tenant add and reload.
///
/// # Errors
///
/// Any read, validation, or decode failure as a displayable message
/// (a file that is not a snapshot says so; a retired format version is
/// named).
pub fn load_engine(path: &str, mmap: bool) -> Result<(Prospector, Provenance), String> {
    let started = Instant::now();
    let loaded = prospector_store::load(Path::new(path), mmap).map_err(|e| e.to_string())?;
    let provenance = Provenance {
        snapshot_path: Some(path.to_owned()),
        format_version: Some(loaded.manifest.version),
        mode: if loaded.mapped { EngineMode::Mapped } else { EngineMode::Owned },
        load_us: elapsed_us(started),
    };
    let snap = loaded.snapshot;
    Ok((Prospector::from_parts(snap.api, snap.graph), provenance))
}

/// Scans `dir` for `*.pspk` files and registers one tenant per file,
/// named after the file stem (`eclipse-3.1.pspk` → tenant
/// `eclipse-3.1`). Returns the names added, sorted.
///
/// # Errors
///
/// Directory read failures, invalid stems, duplicates (including a
/// stem colliding with an already-registered tenant), and load
/// failures, all as displayable messages naming the file.
pub fn add_tenants_dir(
    registry: &Registry,
    dir: &str,
    mmap: bool,
) -> Result<Vec<String>, String> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pspk"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("{dir}: no .pspk snapshots"));
    }
    let mut names = Vec::new();
    for path in &paths {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("{}: unusable file stem", path.display()))?
            .to_owned();
        let path_str = path.display().to_string();
        registry
            .add_from_path(&name, &path_str, mmap)
            .map_err(|e| format!("{path_str}: {e}"))?;
        names.push(name);
    }
    Ok(names)
}

/// Wall-clock milliseconds since the Unix epoch (0 if the clock is
/// before it).
fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

fn elapsed_us(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_engine() -> Prospector {
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
        Prospector::new(loader.finish().expect("api finishes"))
    }

    fn save_snapshot(engine: &Prospector, name: &str) -> String {
        let path = std::env::temp_dir().join(name);
        prospector_store::save_file(&path, engine.api(), engine.graph(), &[])
            .expect("snapshot saves");
        path.display().to_string()
    }

    #[test]
    fn default_tenant_resolves_with_and_without_a_key() {
        let registry = Registry::with_default(tiny_engine(), Provenance::built());
        assert_eq!(registry.resolve(None).unwrap().name(), DEFAULT_TENANT);
        assert_eq!(registry.resolve(Some("default")).unwrap().name(), DEFAULT_TENANT);
        assert_eq!(
            registry.resolve(Some("nope")).err(),
            Some(RegistryError::UnknownTenant { name: "nope".to_owned() })
        );
    }

    #[test]
    fn name_validation_rejects_label_hostile_names() {
        for bad in ["", "a b", "a\"b", "a{b}", &"x".repeat(MAX_NAME_LEN + 1)] {
            assert!(validate_name(bad).is_err(), "{bad:?} must be rejected");
        }
        for good in ["default", "eclipse-3.1", "team_a", "V2"] {
            assert!(validate_name(good).is_ok(), "{good:?} must be accepted");
        }
    }

    #[test]
    fn duplicate_and_unknown_tenants_are_typed_errors() {
        let registry = Registry::with_default(tiny_engine(), Provenance::built());
        assert_eq!(
            registry
                .insert(DEFAULT_TENANT, tiny_engine(), Provenance::built())
                .err(),
            Some(RegistryError::DuplicateTenant { name: DEFAULT_TENANT.to_owned() })
        );
        assert!(matches!(
            registry.reload("ghost"),
            Err(RegistryError::UnknownTenant { .. })
        ));
        assert_eq!(
            registry.reload(DEFAULT_TENANT).err(),
            Some(RegistryError::NoSnapshot { name: DEFAULT_TENANT.to_owned() })
        );
    }

    #[test]
    fn add_from_path_loads_and_reload_swaps_to_a_fresh_epoch() {
        let engine = tiny_engine();
        let path = save_snapshot(&engine, "prospector_registry_reload.pspk");
        let registry = Registry::with_default(tiny_engine(), Provenance::built());
        let tenant = registry.add_from_path("alt", &path, false).expect("tenant loads");
        let before = tenant.info();
        assert_eq!(before.state, TenantState::Ready);
        assert_eq!(before.mode, EngineMode::Owned);
        assert_eq!(before.snapshot_path.as_deref(), Some(path.as_str()));
        assert!(before.format_version.is_some());
        assert!(before.engine_bytes > 0);

        let old = tenant.engine();
        let old_weak = Arc::downgrade(&old);
        let old_epoch = old.graph().epoch();
        drop(old);

        let after = registry.reload("alt").expect("reload succeeds");
        assert_eq!(after.state, TenantState::Ready);
        assert_eq!(after.reloads, 1);
        assert!(after.graph_epoch > old_epoch, "a reloaded graph takes a fresh epoch");
        assert!(
            old_weak.upgrade().is_none(),
            "no reader in flight, so the swap freed the old engine"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_reload_keeps_the_old_engine_serving() {
        let engine = tiny_engine();
        let path = save_snapshot(&engine, "prospector_registry_failed_reload.pspk");
        let registry = Registry::new();
        let tenant = registry.add_from_path("t", &path, false).expect("tenant loads");
        let old = tenant.engine();

        // Corrupt the snapshot: flip a payload byte so the CRC check
        // fails during the off-lock load.
        let mut bytes = std::fs::read(&path).expect("snapshot readable");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("corruption written");

        let err = registry.reload("t").expect_err("corrupt snapshot fails to load");
        assert!(matches!(err, RegistryError::LoadFailed { .. }), "{err:?}");
        let info = tenant.info();
        assert!(matches!(info.state, TenantState::Failed { .. }), "{:?}", info.state);
        assert_eq!(info.reload_failures, 1);
        assert!(
            Arc::ptr_eq(&old, &tenant.engine()),
            "the slot still holds the pre-reload engine"
        );

        // Restore the snapshot: the next reload recovers to Ready.
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("snapshot restored");
        let info = registry.reload("t").expect("restored snapshot reloads");
        assert_eq!(info.state, TenantState::Ready);
        assert_eq!(info.reloads, 1);
        assert!(!Arc::ptr_eq(&old, &tenant.engine()), "the slot swapped");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn queries_keep_answering_during_concurrent_reloads() {
        let engine = tiny_engine();
        let path = save_snapshot(&engine, "prospector_registry_under_fire.pspk");
        let registry = Registry::new();
        registry.add_from_path("hot", &path, false).expect("tenant loads");
        let tin = engine.api().types().resolve("InputStream").expect("tin");
        let tout = engine.api().types().resolve("BufferedReader").expect("tout");
        let expected: Vec<String> = {
            let e = registry.get("hot").unwrap().engine();
            let r = e.query(tin, tout).expect("baseline query");
            r.suggestions.iter().map(|s| s.code.clone()).collect()
        };
        assert!(!expected.is_empty());

        std::thread::scope(|scope| {
            let registry = &registry;
            let expected = &expected;
            let mut clients = Vec::new();
            for _ in 0..4 {
                clients.push(scope.spawn(move || {
                    for _ in 0..50 {
                        let engine = registry.get("hot").expect("always routable").engine();
                        let r = engine.query(tin, tout).expect("query succeeds mid-reload");
                        let codes: Vec<String> =
                            r.suggestions.iter().map(|s| s.code.clone()).collect();
                        assert_eq!(&codes, expected, "answers are identical across swaps");
                    }
                }));
            }
            for _ in 0..5 {
                registry.reload("hot").expect("reload under fire succeeds");
            }
            for c in clients {
                c.join().expect("client thread");
            }
        });
        let info = registry.get("hot").unwrap().info();
        assert_eq!(info.reloads, 5);
        assert_eq!(info.state, TenantState::Ready);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tenants_dir_registers_one_tenant_per_snapshot() {
        let engine = tiny_engine();
        let dir = std::env::temp_dir().join("prospector_registry_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        for name in ["alpha.pspk", "beta.pspk"] {
            prospector_store::save_file(&dir.join(name), engine.api(), engine.graph(), &[])
                .expect("snapshot saves");
        }
        std::fs::write(dir.join("notes.txt"), "ignored").expect("write");
        let registry = Registry::new();
        let names = add_tenants_dir(&registry, &dir.display().to_string(), false)
            .expect("directory registers");
        assert_eq!(names, ["alpha", "beta"]);
        assert_eq!(registry.names(), ["alpha", "beta"]);
        assert!(registry.engine_bytes_total() > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
