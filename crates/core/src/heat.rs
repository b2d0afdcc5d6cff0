//! Workload analytics: the process-global graph heat table and query
//! sketches.
//!
//! Two aggregates, both gated on one [`enabled`] flag (off by default, so
//! the search hot loop pays a single relaxed load per query when nobody
//! is watching):
//!
//! * **Graph heat** — per-edge and per-node traversal counters. The DFS
//!   tallies into dense per-thread arrays on
//!   [`SearchScratch`](crate::search::SearchScratch)
//!   (branch-light, allocation-free; pinned by the `heat_overhead`
//!   bench) and [`crate::search::enumerate_with`] folds them into the
//!   global table once per query via [`merge_raw`]. A distance field
//!   contributes its reached set once per *build* (cache misses only) via
//!   [`record_field`] — one pass over the nodes the field stores,
//!   keeping the relaxation loops themselves untouched.
//! * **Workload sketches** — a count-min sketch plus space-saving top-K
//!   trackers over `(tin, tout)` query keys: overall popularity,
//!   result-cache misses, and truncated queries. Recorded once per
//!   explicit query by the engine.
//!
//! Both are epoch-stamped: a merge or snapshot against a different graph
//! epoch resets the heat table (heat counts are meaningless across graph
//! mutations), exactly like the engine's cache invalidation.
//! [`snapshot`] resolves dense indices back to display names — types via
//! the graph's node table, members and edges via
//! [`ElemJungloid::label`] — only at report time, so the record path
//! never touches a string.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use jungloid_apidef::{Api, ElemJungloid};
use jungloid_typesys::TyId;
use prospector_obs::sketch::{CountMinSketch, SpaceSaving};

use crate::graph::{JungloidGraph, NodeId};

/// Tracked keys per space-saving tracker (popularity / misses /
/// truncated). Real traffic is heavily skewed; 64 slots comfortably hold
/// the head of the distribution.
const TOPK_CAP: usize = 64;

/// Count-min shape: 1024 × 4 bounds the overestimate by `N / 1024` per
/// row with four independent chances to dodge a heavy collision.
const CM_WIDTH: usize = 1024;
const CM_DEPTH: usize = 4;

/// Fixed hash seed: sketches must be deterministic for a fixed replay
/// (the heat-replay test pins top-K output) and mergeable across
/// processes that agree on the constant.
const CM_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn heat accounting and workload sketching on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether traversal heat and query sketches are being recorded.
#[must_use]
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The global heat table: dense per-node and per-edge traversal counts,
/// epoch-stamped against graph mutation.
struct HeatInner {
    /// Graph epoch these counts belong to (`u64::MAX` = unset).
    epoch: u64,
    nodes: Vec<u64>,
    edges: Vec<u64>,
    /// Queries whose DFS tallies were merged.
    queries: u64,
    /// Distance-field builds whose reached sets were merged.
    fields: u64,
}

fn heat() -> &'static Mutex<HeatInner> {
    static HEAT: OnceLock<Mutex<HeatInner>> = OnceLock::new();
    HEAT.get_or_init(|| {
        Mutex::new(HeatInner {
            epoch: u64::MAX,
            nodes: Vec::new(),
            edges: Vec::new(),
            queries: 0,
            fields: 0,
        })
    })
}

/// Re-point the table at `epoch`, resizing and zeroing as needed.
fn ensure(inner: &mut HeatInner, epoch: u64, node_count: usize, edge_count: usize) {
    if inner.epoch != epoch || inner.nodes.len() != node_count || inner.edges.len() != edge_count {
        inner.epoch = epoch;
        inner.nodes.clear();
        inner.nodes.resize(node_count, 0);
        inner.edges.clear();
        inner.edges.resize(edge_count, 0);
        inner.queries = 0;
        inner.fields = 0;
    }
}

/// Fold one query's DFS tallies into the global table: `touched_*` lists
/// the indices with nonzero counts in the dense `*_heat` arrays. The
/// caller zeroes its tallies afterwards. Allocation-free except when the
/// epoch changes (table resize).
pub fn merge_raw(
    epoch: u64,
    node_count: usize,
    edge_count: usize,
    touched_nodes: &[u32],
    node_heat: &[u32],
    touched_edges: &[u32],
    edge_heat: &[u32],
) {
    let mut inner = heat().lock().unwrap();
    ensure(&mut inner, epoch, node_count, edge_count);
    for &i in touched_nodes {
        let i = i as usize;
        inner.nodes[i] = inner.nodes[i].saturating_add(u64::from(node_heat[i]));
    }
    for &i in touched_edges {
        let i = i as usize;
        inner.edges[i] = inner.edges[i].saturating_add(u64::from(edge_heat[i]));
    }
    inner.queries += 1;
}

/// Fold a freshly built distance field's reached set into the node
/// counts: `reached` lists the dense indices the field stores a finite
/// distance for (every settled node of a complete field; a bounded
/// field's window). Called once per field *build* (i.e. per
/// distance-cache miss), so the pass never sits on the per-query path.
pub fn record_field(
    epoch: u64,
    node_count: usize,
    edge_count: usize,
    reached: impl IntoIterator<Item = u32>,
) {
    let mut inner = heat().lock().unwrap();
    ensure(&mut inner, epoch, node_count, edge_count);
    for i in reached {
        let i = i as usize;
        inner.nodes[i] = inner.nodes[i].saturating_add(1);
    }
    inner.fields += 1;
}

/// Workload sketches over `(tin, tout)` query keys.
struct WorkloadInner {
    freq: CountMinSketch,
    popularity: SpaceSaving,
    misses: SpaceSaving,
    truncated: SpaceSaving,
    queries: u64,
    cache_misses: u64,
    truncations: u64,
}

fn workload() -> &'static Mutex<WorkloadInner> {
    static WORKLOAD: OnceLock<Mutex<WorkloadInner>> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        Mutex::new(WorkloadInner {
            freq: CountMinSketch::new(CM_WIDTH, CM_DEPTH, CM_SEED),
            popularity: SpaceSaving::new(TOPK_CAP),
            misses: SpaceSaving::new(TOPK_CAP),
            truncated: SpaceSaving::new(TOPK_CAP),
            queries: 0,
            cache_misses: 0,
            truncations: 0,
        })
    })
}

/// Pack a query key: type-arena indices fit u32 by construction.
fn query_key(tin: TyId, tout: TyId) -> u64 {
    ((tin.index() as u64) << 32) | tout.index() as u64
}

/// Record one explicit query into the workload sketches. `miss` means the
/// full pipeline ran (result-cache miss or caching disabled); `truncated`
/// means the search hit a cap. No-op unless [`enabled`]. Allocation-free.
pub fn record_query(tin: TyId, tout: TyId, miss: bool, truncated: bool) {
    if !enabled() {
        return;
    }
    let key = query_key(tin, tout);
    let mut w = workload().lock().unwrap();
    w.freq.record(key, 1);
    w.popularity.record(key, 1);
    w.queries += 1;
    if miss {
        w.misses.record(key, 1);
        w.cache_misses += 1;
    }
    if truncated {
        w.truncated.record(key, 1);
        w.truncations += 1;
    }
}

/// Forget all heat counts and workload sketches (tests and benches).
pub fn reset() {
    let mut inner = heat().lock().unwrap();
    inner.epoch = u64::MAX;
    inner.nodes.clear();
    inner.edges.clear();
    inner.queries = 0;
    inner.fields = 0;
    drop(inner);
    let mut w = workload().lock().unwrap();
    w.freq.reset();
    w.popularity.reset();
    w.misses.reset();
    w.truncated.reset();
    w.queries = 0;
    w.cache_misses = 0;
    w.truncations = 0;
}

/// One hot type or member with its traversal count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeatEntry {
    /// Resolved display name.
    pub label: String,
    /// Accumulated traversal count.
    pub count: u64,
}

/// One hot edge: an elementary jungloid between two resolved nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeatEdge {
    /// Source node's display name.
    pub from: String,
    /// The elementary jungloid's label.
    pub elem: String,
    /// Destination node's display name.
    pub to: String,
    /// Times the DFS examined this edge.
    pub count: u64,
}

/// Top-K view of the heat table with names resolved against the API.
#[derive(Clone, Debug, Default)]
pub struct HeatSnapshot {
    /// Graph epoch the counts belong to.
    pub epoch: u64,
    /// Queries merged into the table.
    pub queries: u64,
    /// Distance-field builds merged into the table.
    pub fields: u64,
    /// Nodes with a nonzero count.
    pub nodes_touched: usize,
    /// Edges with a nonzero count.
    pub edges_touched: usize,
    /// Sum of all node counts.
    pub node_total: u64,
    /// Sum of all edge counts.
    pub edge_total: u64,
    /// Hottest types (node visits + BFS reached sets).
    pub top_types: Vec<HeatEntry>,
    /// Hottest members (edge counts aggregated per field/method).
    pub top_members: Vec<HeatEntry>,
    /// Hottest individual edges.
    pub top_edges: Vec<HeatEdge>,
}

/// Display name for a dense node index.
fn node_label(graph: &JungloidGraph, api: &Api, index: usize) -> String {
    match graph.node_at(index) {
        NodeId::Ty(t) => api.types().display_simple(t),
        NodeId::Mined(i) => {
            let base = api.types().display_simple(graph.base_ty(NodeId::Mined(i)));
            format!("{base}#mined{i}")
        }
    }
}

/// Sort `(count, label)` pairs hottest-first with a total, deterministic
/// order (ties break on the label) and keep the top `k`.
fn top_k_entries(mut entries: Vec<HeatEntry>, k: usize) -> Vec<HeatEntry> {
    entries.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.label.cmp(&b.label)));
    entries.truncate(k);
    entries
}

/// Build a top-K heat report for `graph`. Counts recorded against a
/// different epoch (or a differently sized graph) report as empty rather
/// than lying about a graph that no longer exists.
#[must_use]
pub fn snapshot(graph: &JungloidGraph, api: &Api, k: usize) -> HeatSnapshot {
    let inner = heat().lock().unwrap();
    let mut snap = HeatSnapshot { epoch: graph.epoch(), ..HeatSnapshot::default() };
    if inner.epoch != graph.epoch()
        || inner.nodes.len() != graph.node_count()
        || inner.edges.len() != graph.edge_count()
    {
        return snap;
    }
    snap.queries = inner.queries;
    snap.fields = inner.fields;

    let mut types = Vec::new();
    for (i, &count) in inner.nodes.iter().enumerate() {
        if count == 0 {
            continue;
        }
        snap.nodes_touched += 1;
        snap.node_total += count;
        types.push(HeatEntry { label: node_label(graph, api, i), count });
    }

    let csr = graph.csr();
    let out_to = csr.out_to();
    let out_elem = csr.out_elem();
    let mut members: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut edges = Vec::new();
    for n in 0..graph.node_count() {
        for ei in csr.out_range(n) {
            let count = inner.edges[ei];
            if count == 0 {
                continue;
            }
            snap.edges_touched += 1;
            snap.edge_total += count;
            let elem = out_elem.get(ei);
            let label = elem.label(api);
            if matches!(elem, ElemJungloid::FieldAccess { .. } | ElemJungloid::Call { .. }) {
                *members.entry(label.clone()).or_insert(0) += count;
            }
            edges.push(HeatEdge {
                from: node_label(graph, api, n),
                elem: label,
                to: node_label(graph, api, out_to[ei] as usize),
                count,
            });
        }
    }
    drop(inner);

    snap.top_types = top_k_entries(types, k);
    snap.top_members = top_k_entries(
        members.into_iter().map(|(label, count)| HeatEntry { label, count }).collect(),
        k,
    );
    edges.sort_by(|a, b| {
        b.count
            .cmp(&a.count)
            .then_with(|| a.from.cmp(&b.from))
            .then_with(|| a.elem.cmp(&b.elem))
            .then_with(|| a.to.cmp(&b.to))
    });
    edges.truncate(k);
    snap.top_edges = edges;
    snap
}

/// One tracked `(tin, tout)` key with resolved names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadEntry {
    /// Resolved input type name.
    pub tin: String,
    /// Resolved output type name.
    pub tout: String,
    /// Space-saving count (upper bound on true frequency).
    pub count: u64,
    /// Error inherited from evictions (`count - err` is a lower bound).
    pub err: u64,
    /// Count-min estimate for the same key (independent confirmation).
    pub estimate: u64,
}

/// Top-K view of the workload sketches with names resolved.
#[derive(Clone, Debug, Default)]
pub struct WorkloadSnapshot {
    /// Explicit queries recorded.
    pub queries: u64,
    /// Queries that ran the full pipeline (cache miss or caching off).
    pub cache_misses: u64,
    /// Queries whose search hit a cap.
    pub truncations: u64,
    /// Count-min sketch shape, for the report.
    pub sketch_width: usize,
    /// Count-min rows.
    pub sketch_depth: usize,
    /// Most popular query keys.
    pub popularity: Vec<WorkloadEntry>,
    /// Keys that miss the result cache most.
    pub misses: Vec<WorkloadEntry>,
    /// Keys whose searches truncate most.
    pub truncated: Vec<WorkloadEntry>,
}

/// Resolve a space-saving tracker's top `k` against the API, attaching
/// count-min estimates from `freq`.
fn resolve_top(
    tracker: &SpaceSaving,
    freq: &CountMinSketch,
    api: &Api,
    k: usize,
) -> Vec<WorkloadEntry> {
    tracker
        .top()
        .into_iter()
        .take(k)
        .map(|e| WorkloadEntry {
            tin: api.types().display_simple(TyId::from_index((e.key >> 32) as usize)),
            tout: api.types().display_simple(TyId::from_index((e.key & 0xffff_ffff) as usize)),
            count: e.count,
            err: e.err,
            estimate: freq.estimate(e.key),
        })
        .collect()
}

/// Build a top-K workload report.
#[must_use]
pub fn workload_snapshot(api: &Api, k: usize) -> WorkloadSnapshot {
    let w = workload().lock().unwrap();
    WorkloadSnapshot {
        queries: w.queries,
        cache_misses: w.cache_misses,
        truncations: w.truncations,
        sketch_width: w.freq.width(),
        sketch_depth: w.freq.depth(),
        popularity: resolve_top(&w.popularity, &w.freq, api, k),
        misses: resolve_top(&w.misses, &w.freq, api, k),
        truncated: resolve_top(&w.truncated, &w.freq, api, k),
    }
}
