//! Bounded acyclic path enumeration over the jungloid graph.
//!
//! §3.1: "solution jungloids can be enumerated by standard graph search
//! algorithms … all the desired solution jungloids we have observed so far
//! are acyclic, so we limit our search to acyclic paths."
//!
//! §5: "we configured the graph search library to construct all paths of
//! length less than or equal to *m + 1* where *m* is the length of the
//! shortest path for the query" — length counts non-widening steps
//! (widenings are free, §3.2). We implement that as a 0/1-weighted
//! shortest-path pass (0-1 BFS) that builds a [`DistanceField`], followed
//! by a depth-first enumeration pruned with exact distance-to-target
//! lower bounds, so the enumeration only ever walks prefixes that can
//! still finish within the bound. The field is either complete (a
//! reverse BFS over everything that reaches the target, one byte per node
//! unless some node lies 255 or more steps out) or bounded to one
//! source's window (a meet-in-the-middle search that settles only the
//! nodes such a path can cross); the walk prunes identically over both.

use std::collections::VecDeque;

use jungloid_apidef::ElemJungloid;
use jungloid_typesys::TyId;

use crate::graph::{CsrAdjacency, JungloidGraph, NodeId};
use crate::path::Jungloid;

/// Enumeration limits and the `m + extra` window.
///
/// `Hash` because the engine's result cache keys on the full search
/// configuration: two queries differing in any limit may legitimately
/// produce different (truncated) result sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SearchConfig {
    /// Paths up to `m + extra_steps` non-widening steps are produced
    /// (paper: 1).
    pub extra_steps: u32,
    /// Hard cap on produced paths.
    pub max_results: usize,
    /// Hard cap on DFS edge expansions (safety valve for pathological
    /// graphs). This budget covers the depth-first enumeration *only*:
    /// edge relaxations spent building the distance field
    /// ([`DistanceField::towards`], [`DistanceField::bounded`]) are
    /// accounted separately (the `search.bfs_relaxations` counter) and
    /// never eat into it.
    pub max_expansions: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig { extra_steps: 1, max_results: 10_000, max_expansions: 5_000_000 }
    }
}

/// Which cap (if any) stopped an enumeration early.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TruncationReason {
    /// The enumeration ran to completion.
    #[default]
    None,
    /// [`SearchConfig::max_results`] paths were produced.
    PathCap,
    /// [`SearchConfig::max_expansions`] DFS edge expansions were spent.
    ExpansionCap,
}

impl TruncationReason {
    /// Every reason, in declaration order, so `reason as usize` indexes
    /// a table with one slot per reason.
    pub const ALL: [TruncationReason; 3] =
        [TruncationReason::None, TruncationReason::PathCap, TruncationReason::ExpansionCap];

    /// Whether any cap fired.
    #[must_use]
    pub fn truncated(self) -> bool {
        self != TruncationReason::None
    }

    /// Stable lower-case label (`"none"`, `"path_cap"`,
    /// `"expansion_cap"`) for reports and metrics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TruncationReason::None => "none",
            TruncationReason::PathCap => "path_cap",
            TruncationReason::ExpansionCap => "expansion_cap",
        }
    }
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The result of one enumeration.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// All solution jungloids found, unranked (enumeration order).
    pub jungloids: Vec<Jungloid>,
    /// Shortest length `m` (non-widening steps), if any path exists.
    pub shortest: Option<u32>,
    /// Which cap (if any) stopped the enumeration early.
    pub truncation: TruncationReason,
    /// DFS edge expansions spent, the quantity
    /// [`SearchConfig::max_expansions`] bounds. Excludes the 0-1 BFS
    /// pre-pass, whose relaxations have their own budget-free counter.
    pub expansions: usize,
}

/// Distances *to* a fixed target, in non-widening steps.
///
/// Reusable across queries with the same target; the engine caches these.
/// A field comes in one of two kinds (DESIGN §16):
///
/// * **complete** ([`DistanceField::towards`]): one dense slot per node,
///   so it serves any source set and any window. A slot is one byte
///   unless some finite distance is 255 or more, and then a `u32`;
/// * **bounded** ([`DistanceField::bounded`]): exact distances for the
///   nodes on some path of length ≤ `m + extra_steps` from one source
///   (and the few others the builder cannot rule out); every other node
///   reads as unreachable. The walk prunes every edge the complete field
///   would prune, so it serves that source with any window up to its
///   own.
#[derive(Clone, Debug)]
pub struct DistanceField {
    target: TyId,
    dist: Dist,
    /// Edge relaxations spent building this field. Kept on the field so
    /// the engine can attribute the build cost to the one query that
    /// missed the cache (cache hits charge 0).
    relaxations: u64,
}

#[derive(Clone, Debug)]
enum Dist {
    /// Complete, dense-indexed, every finite distance below 255:
    /// `u8::MAX` where the target is unreachable.
    Bytes(Vec<u8>),
    /// Complete, dense-indexed, some node 255 or more steps out:
    /// `u32::MAX` where the target is unreachable.
    Wide(Vec<u32>),
    /// Sorted `(dense index, distance)` entries covering every node on a
    /// path of length ≤ `m + extra_steps` from `source`.
    Bounded { source: TyId, extra_steps: u32, entries: Vec<(u32, u32)> },
}

impl DistanceField {
    /// Runs a reverse 0-1 BFS from `target` over the CSR reverse arrays,
    /// building the complete field.
    ///
    /// The build stores one byte per node. A target with a node 255 or
    /// more steps out is built again with `u32` slots, and only that
    /// build's relaxations count: both builds make the same queue
    /// operations, so the count is that of one reverse BFS.
    ///
    /// Relaxations performed here are kept on the field
    /// ([`DistanceField::relaxations`]; the engine adds them to the
    /// `search.bfs_relaxations` counter) and are *not* charged against
    /// [`SearchConfig::max_expansions`], which budgets the DFS alone.
    #[must_use]
    pub fn towards(graph: &JungloidGraph, target: TyId) -> Self {
        let csr = graph.csr();
        let ti = dense(graph, target);
        let (dist, relaxations) = match reverse_bfs::<u8>(csr, ti) {
            Some((bytes, relaxations)) => (Dist::Bytes(bytes), relaxations),
            None => {
                let (wide, relaxations) =
                    reverse_bfs::<u32>(csr, ti).expect("every distance fits a u32");
                (Dist::Wide(wide), relaxations)
            }
        };
        DistanceField { target, dist, relaxations }
    }

    /// Builds the bounded field for one `source` and the window
    /// `m + extra_steps`, meeting in the middle instead of settling every
    /// node that reaches `target`.
    ///
    /// A level-synchronous 0-1 BFS grows a ball forward from `source` and
    /// one backward from `target`, always expanding the side with fewer
    /// frontier edges, until it has proven `m` and the radii `a`, `b`
    /// satisfy `a + b ≥ m + extra_steps − 1`. Every node on a path within
    /// the window then lies in one of the balls. A bucketed reverse pass,
    /// restricted to the forward ball and seeded from the backward one,
    /// fills in the exact distances the backward ball lacks. The buffers
    /// live in `scratch` and are left clean, so a build does no work
    /// proportional to the graph size. Relaxations count every edge the
    /// three passes scan, kept on the field as [`DistanceField::towards`]
    /// keeps them.
    #[must_use]
    pub fn bounded(
        graph: &JungloidGraph,
        source: TyId,
        target: TyId,
        extra_steps: u32,
        scratch: &mut SearchScratch,
    ) -> Self {
        let csr = graph.csr();
        let n = csr.node_count();
        let (out_off, out_to, out_cost) = (csr.out_offsets(), csr.out_to(), csr.out_cost());
        let (in_off, in_from, in_cost) = (csr.in_offsets(), csr.in_from(), csr.in_cost());
        let SearchScratch { fwd, bwd, buckets, .. } = scratch;
        let (si, ti) = (dense(graph, source), dense(graph, target));
        fwd.start(n, si);
        bwd.start(n, ti);
        // The cheapest source-to-target cost through a node both balls
        // hold: an upper bound on `m`, and equal to it once proven.
        let mut meet = if si == ti { 0 } else { u32::MAX };
        let mut relaxations: u64 = 0;
        let window = loop {
            // `reach` is a + b + 2. An exhausted ball holds everything it
            // can reach, so its radius is unbounded.
            let exhausted = fwd.exhausted() || bwd.exhausted();
            let reach = fwd.done + bwd.done;
            if meet == u32::MAX && exhausted {
                break None;
            }
            // If m ≤ a + b, a shortest path crosses a node both balls
            // hold, so meet = m; otherwise m > a + b. Either way,
            // meet ≤ a + b + 1 proves meet = m.
            if meet != u32::MAX && (exhausted || meet < reach) {
                let window = meet.saturating_add(extra_steps);
                if exhausted || reach > window {
                    break Some(window);
                }
            }
            relaxations += if fwd.frontier_edges(out_off) <= bwd.frontier_edges(in_off) {
                fwd.expand(out_off, out_to, out_cost, &bwd.dist, &mut meet)
            } else {
                bwd.expand(in_off, in_from, in_cost, &fwd.dist, &mut meet)
            };
        };
        let mut entries: Vec<(u32, u32)> = Vec::new();
        if let Some(window) = window {
            // Lower bounds on the distances of nodes outside each ball.
            let beyond_fwd = if fwd.exhausted() { u32::MAX } else { fwd.done };
            let beyond_bwd = if bwd.exhausted() { u32::MAX } else { bwd.done };
            if beyond_bwd != u32::MAX {
                relaxations += fill_forward_ball(fwd, bwd, buckets, window, beyond_bwd, csr);
            }
            entries.extend(bwd.touched.iter().filter_map(|&v| {
                let to_go = bwd.dist[v as usize];
                let so_far = match fwd.dist[v as usize] {
                    u32::MAX => beyond_fwd,
                    d => d,
                };
                (so_far.saturating_add(to_go) <= window).then_some((v, to_go))
            }));
            entries.sort_unstable();
        }
        fwd.clear();
        bwd.clear();
        DistanceField {
            target,
            dist: Dist::Bounded { source, extra_steps, entries },
            relaxations,
        }
    }

    /// Edge relaxations spent building this field.
    #[must_use]
    pub fn relaxations(&self) -> u64 {
        self.relaxations
    }

    /// The target this field points at.
    #[must_use]
    pub fn target(&self) -> TyId {
        self.target
    }

    /// Whether this is a complete field, serving every source and window.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        !matches!(self.dist, Dist::Bounded { .. })
    }

    /// Whether this field prunes a walk from `source` with window
    /// `m + extra_steps` exactly as the complete field would.
    #[must_use]
    pub fn covers(&self, source: TyId, extra_steps: u32) -> bool {
        match self.dist {
            Dist::Bytes(_) | Dist::Wide(_) => true,
            Dist::Bounded { source: s, extra_steps: e, .. } => s == source && extra_steps <= e,
        }
    }

    /// Distance from `node` to the target (`u32::MAX` if unreachable, or
    /// outside a bounded field's window).
    #[must_use]
    pub fn from(&self, graph: &JungloidGraph, node: NodeId) -> u32 {
        let i = graph.index_of(node);
        match &self.dist {
            Dist::Bytes(dist) => dist[i].get(),
            Dist::Wide(dist) => dist[i].get(),
            Dist::Bounded { entries, .. } => entries
                .binary_search_by_key(&i, |&(v, _)| v as usize)
                .map_or(u32::MAX, |k| entries[k].1),
        }
    }

    /// Dense indices of the nodes with a finite stored distance.
    pub fn reached(&self) -> impl Iterator<Item = u32> + '_ {
        let (bytes, wide, sparse): (&[u8], &[u32], &[(u32, u32)]) = match &self.dist {
            Dist::Bytes(dist) => (dist, &[], &[]),
            Dist::Wide(dist) => (&[], dist, &[]),
            Dist::Bounded { entries, .. } => (&[], &[], entries),
        };
        reached_slots(bytes).chain(reached_slots(wide)).chain(sparse.iter().map(|&(v, _)| v))
    }

    /// Heap bytes the stored distances take: one per node for a complete
    /// field whose distances fit a byte, four per node for a wide one,
    /// eight per bounded entry.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        match &self.dist {
            Dist::Bytes(dist) => dist.capacity(),
            Dist::Wide(dist) => dist.capacity() * std::mem::size_of::<u32>(),
            Dist::Bounded { entries, .. } => {
                entries.capacity() * std::mem::size_of::<(u32, u32)>()
            }
        }
    }
}

/// A complete field's per-node distance: `u8` or `u32`. The walk reads
/// either, and the bounded field's `u32` scatter buffer, through this
/// one bound.
trait Slot: Copy + Eq + Into<u32> + TryFrom<u32> {
    /// Marks a node that cannot reach the target; never a distance.
    const UNREACHED: Self;

    /// The stored distance, or `u32::MAX` for [`Slot::UNREACHED`].
    fn get(self) -> u32 {
        if self == Self::UNREACHED {
            u32::MAX
        } else {
            self.into()
        }
    }

    /// `d` as a slot, or `None` if it does not fit below
    /// [`Slot::UNREACHED`].
    fn store(d: u32) -> Option<Self> {
        Self::try_from(d).ok().filter(|&s| s != Self::UNREACHED)
    }
}

impl Slot for u8 {
    const UNREACHED: u8 = u8::MAX;
}

impl Slot for u32 {
    const UNREACHED: u32 = u32::MAX;
}

fn reached_slots<S: Slot>(dist: &[S]) -> impl Iterator<Item = u32> + '_ {
    dist.iter().enumerate().filter(|&(_, &d)| d != S::UNREACHED).map(|(i, _)| i as u32)
}

/// The complete field's reverse 0-1 BFS from dense node `ti`, in slots of
/// type `S`: the distances and the edges relaxed, or `None` if some node
/// lies farther out than `S` holds. Queue operations depend only on the
/// distances, never on the slot width, so a build that fits makes
/// exactly the relaxations of a `u32` build.
fn reverse_bfs<S: Slot>(csr: &CsrAdjacency, ti: u32) -> Option<(Vec<S>, u64)> {
    let n = csr.node_count();
    let (rev_from, rev_cost) = (csr.in_from(), csr.in_cost());
    let mut dist = vec![S::UNREACHED; n];
    // Queued nodes whose tentative distance `S` cannot hold. A zero-cost
    // edge may still pull one back in range; if one is popped first, its
    // distance is final and the build does not fit.
    let mut beyond: Vec<bool> = Vec::new();
    let mut queue: VecDeque<u32> = VecDeque::new();
    dist[ti as usize] = S::store(0)?;
    queue.push_back(ti);
    let mut relaxations: u64 = 0;
    while let Some(i) = queue.pop_front() {
        let d = dist[i as usize].get();
        if d == u32::MAX {
            return None;
        }
        let range = csr.in_range(i as usize);
        relaxations += range.len() as u64;
        for (&from, &cost) in rev_from[range.clone()].iter().zip(&rev_cost[range]) {
            let nd = d + u32::from(cost);
            if nd >= dist[from as usize].get() {
                continue;
            }
            if let Some(slot) = S::store(nd) {
                dist[from as usize] = slot;
            } else {
                if beyond.is_empty() {
                    beyond.resize(n, false);
                }
                if std::mem::replace(&mut beyond[from as usize], true) {
                    continue;
                }
            }
            if cost == 0 {
                queue.push_front(from);
            } else {
                queue.push_back(from);
            }
        }
    }
    Some((dist, relaxations))
}

/// Dense index of a type node.
fn dense(graph: &JungloidGraph, ty: TyId) -> u32 {
    u32::try_from(graph.index_of(NodeId::Ty(ty))).expect("node fits u32")
}

/// The bounded builder's reverse pass: exact distances to the target for
/// the forward-ball nodes on a path within `window`, written into
/// `bwd.dist`. Such a node outside the backward ball is at least
/// `beyond_bwd` from the target, and its shortest path stays inside the
/// window, so a Dial bucket queue seeded from its edges into the backward
/// ball and relaxing only into the forward ball settles it exactly.
/// Returns the edges scanned.
fn fill_forward_ball(
    fwd: &Ball,
    bwd: &mut Ball,
    buckets: &mut Vec<Vec<u32>>,
    window: u32,
    beyond_bwd: u32,
    csr: &CsrAdjacency,
) -> u64 {
    // A bucket holds nodes at one distance, which is at most `window`
    // and below the node count: a huge `extra_steps` keeps it small.
    let top = window.min(u32::try_from(csr.node_count()).expect("node count fits u32"));
    if buckets.len() <= top as usize {
        buckets.resize_with(top as usize + 1, Vec::new);
    }
    let mut scanned: u64 = 0;
    for &v in &fwd.touched {
        let so_far = fwd.dist[v as usize];
        if bwd.dist[v as usize] != u32::MAX || so_far.saturating_add(beyond_bwd) > window {
            continue;
        }
        let range = csr.out_range(v as usize);
        scanned += range.len() as u64;
        let best = csr.out_to()[range.clone()]
            .iter()
            .zip(&csr.out_cost()[range])
            .map(|(&x, &cost)| bwd.dist[x as usize].saturating_add(u32::from(cost)))
            .min()
            .unwrap_or(u32::MAX);
        if so_far.saturating_add(best) <= window {
            bwd.set(v, best);
            buckets[best as usize].push(v);
        }
    }
    for d in 0..=top {
        while let Some(v) = buckets[d as usize].pop() {
            if bwd.dist[v as usize] != d {
                continue;
            }
            let range = csr.in_range(v as usize);
            scanned += range.len() as u64;
            for (&u, &cost) in csr.in_from()[range.clone()].iter().zip(&csr.in_cost()[range]) {
                let nd = d + u32::from(cost);
                let so_far = fwd.dist[u as usize];
                if nd < bwd.dist[u as usize] && so_far.saturating_add(nd) <= window {
                    bwd.set(u, nd);
                    buckets[nd as usize].push(u);
                }
            }
        }
    }
    scanned
}

/// One side of [`DistanceField::bounded`]'s meet-in-the-middle search: a
/// ball grown one 0-1 BFS level at a time around its root.
#[derive(Debug, Default)]
struct Ball {
    /// Distance from (forward) or to (backward) the root, dense-indexed;
    /// `u32::MAX` outside the ball and everywhere between builds.
    dist: Vec<u32>,
    /// Every node with a finite `dist`, so a reset costs the ball, not
    /// the graph.
    touched: Vec<u32>,
    /// Seeds of level `done`. An entry is stale once a zero-cost edge has
    /// pulled its node one level lower.
    level: Vec<u32>,
    /// Seeds of level `done + 1`, collected while expanding.
    next: Vec<u32>,
    /// Levels fully expanded: every node within `done − 1` of the root is
    /// in the ball, and every finite `dist` is exact.
    done: u32,
}

impl Ball {
    fn start(&mut self, nodes: usize, root: u32) {
        debug_assert!(self.touched.is_empty(), "ball left dirty");
        if self.dist.len() != nodes {
            self.dist.clear();
            self.dist.resize(nodes, u32::MAX);
        }
        self.set(root, 0);
        self.level.push(root);
        self.done = 0;
    }

    fn set(&mut self, v: u32, d: u32) {
        if self.dist[v as usize] == u32::MAX {
            self.touched.push(v);
        }
        self.dist[v as usize] = d;
    }

    fn clear(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = u32::MAX;
        }
        self.touched.clear();
        self.level.clear();
        self.next.clear();
    }

    /// Whether the ball already holds every node it can reach.
    fn exhausted(&self) -> bool {
        self.level.is_empty()
    }

    /// Edges the next [`Ball::expand`] will scan from its seeds.
    fn frontier_edges(&self, off: &[u32]) -> u64 {
        self.level.iter().map(|&v| u64::from(off[v as usize + 1] - off[v as usize])).sum()
    }

    /// Expands level `done`: scans every edge of the level, closing it
    /// under zero-cost edges and seeding the next level. `other` is the
    /// opposite ball, and `meet` keeps the cheapest cost through a node
    /// both hold. Returns the edges scanned.
    fn expand(
        &mut self,
        off: &[u32],
        adj: &[u32],
        cost: &[u8],
        other: &[u32],
        meet: &mut u32,
    ) -> u64 {
        let d = self.done;
        let mut scanned: u64 = 0;
        let mut i = 0;
        while let Some(&v) = self.level.get(i) {
            i += 1;
            if self.dist[v as usize] != d {
                continue;
            }
            let range = off[v as usize] as usize..off[v as usize + 1] as usize;
            scanned += range.len() as u64;
            for (&x, &c) in adj[range.clone()].iter().zip(&cost[range]) {
                let nd = d + u32::from(c);
                if nd < self.dist[x as usize] {
                    self.set(x, nd);
                    if other[x as usize] != u32::MAX {
                        *meet = (*meet).min(nd + other[x as usize]);
                    }
                    if c == 0 {
                        self.level.push(x);
                    } else {
                        self.next.push(x);
                    }
                }
            }
        }
        self.level.clear();
        std::mem::swap(&mut self.level, &mut self.next);
        self.done += 1;
        scanned
    }
}

/// Reusable per-query search state: the DFS stack, the on-path marks, and
/// the element buffer. One instance per worker thread, reset (cheaply)
/// between queries, so the hot path allocates only for produced paths.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Acyclicity marks, dense-indexed; all `false` between queries.
    on_path: Vec<bool>,
    /// Explicit DFS stack (replaces recursion).
    stack: Vec<Frame>,
    /// Elements of the path currently being walked.
    elems: Vec<ElemJungloid>,
    /// [`DistanceField::bounded`]'s forward ball.
    fwd: Ball,
    /// Its backward ball. The walk borrows `bwd.dist` as the dense view
    /// of a bounded field; both leave it all-`u32::MAX`.
    bwd: Ball,
    /// The reverse pass's Dial buckets, one per distance; empty between
    /// builds.
    buckets: Vec<Vec<u32>>,
}

impl SearchScratch {
    /// A fresh scratch; buffers grow to fit the graph on first use.
    #[must_use]
    pub fn new() -> Self {
        SearchScratch::default()
    }

    fn reset(&mut self, nodes: usize) {
        debug_assert!(self.on_path.iter().all(|&b| !b), "scratch left dirty");
        if self.on_path.len() != nodes {
            self.on_path.clear();
            self.on_path.resize(nodes, false);
        }
        self.stack.clear();
        self.elems.clear();
    }
}

/// One explicit-stack DFS frame: a node and a cursor over its CSR edge
/// range.
#[derive(Clone, Copy, Debug)]
struct Frame {
    /// Dense node index this frame walks from.
    at: u32,
    /// Next edge to try (flat index into the CSR forward arrays).
    cursor: u32,
    /// One past the last edge of `at`.
    end: u32,
    /// Non-widening steps spent reaching `at`.
    cost: u32,
}

/// Enumerates all acyclic solution jungloids for sources → `target`
/// within `m + extra_steps`, where `m` is the global shortest length over
/// all sources (the paper's multi-starting-point search, §5).
///
/// Sources that cannot reach the target contribute nothing. The empty
/// jungloid (`source == target`) is never produced.
#[must_use]
pub fn enumerate(
    graph: &JungloidGraph,
    sources: &[TyId],
    target: TyId,
    field: &DistanceField,
    config: &SearchConfig,
) -> SearchOutcome {
    enumerate_with(graph, sources, target, field, config, &mut SearchScratch::new())
}

/// [`enumerate`] with caller-owned scratch buffers, the form the engine's
/// batch workers use: one [`SearchScratch`] per thread amortizes the
/// `O(nodes)` mark array and the stack across queries.
///
/// # Panics
///
/// Panics if `field` points at another target, or is a bounded field
/// that does not [cover](DistanceField::covers) every source and the
/// configured window.
#[must_use]
pub fn enumerate_with(
    graph: &JungloidGraph,
    sources: &[TyId],
    target: TyId,
    field: &DistanceField,
    config: &SearchConfig,
    scratch: &mut SearchScratch,
) -> SearchOutcome {
    assert_eq!(field.target(), target, "distance field target mismatch");
    let entries = match &field.dist {
        Dist::Bytes(dist) => return enumerate_dense(graph, sources, target, dist, config, scratch),
        Dist::Wide(dist) => return enumerate_dense(graph, sources, target, dist, config, scratch),
        Dist::Bounded { entries, .. } => entries,
    };
    assert!(
        sources.iter().all(|&s| field.covers(s, config.extra_steps)),
        "bounded distance field does not cover this query"
    );
    // Scatter the stored entries into the per-thread dense buffer for the
    // walk, then restore it: O(entries), not O(nodes).
    let mut dist = std::mem::take(&mut scratch.bwd.dist);
    let n = graph.csr().node_count();
    if dist.len() != n {
        dist.clear();
        dist.resize(n, u32::MAX);
    }
    for &(v, d) in entries {
        dist[v as usize] = d;
    }
    let outcome = enumerate_dense(graph, sources, target, &dist, config, scratch);
    for &(v, _) in entries {
        dist[v as usize] = u32::MAX;
    }
    scratch.bwd.dist = dist;
    outcome
}

/// The walk over a dense distance array (`dist[i]` for dense index `i`).
fn enumerate_dense<S: Slot>(
    graph: &JungloidGraph,
    sources: &[TyId],
    target: TyId,
    dist: &[S],
    config: &SearchConfig,
    scratch: &mut SearchScratch,
) -> SearchOutcome {
    let csr = graph.csr();
    scratch.reset(csr.node_count());
    // Dedup sources in first-occurrence order (enumeration order is part
    // of the engine's contract) by borrowing the on-path mark array: mark,
    // collect, unmark — O(sources) instead of the quadratic
    // `Vec::contains` scan, which matters for assist queries over scopes
    // with many same-typed variables.
    let mut uniq_sources: Vec<TyId> = Vec::with_capacity(sources.len().min(csr.node_count()));
    for &s in sources {
        let idx = graph.index_of(NodeId::Ty(s));
        if !scratch.on_path[idx] {
            scratch.on_path[idx] = true;
            uniq_sources.push(s);
        }
    }
    for &s in &uniq_sources {
        scratch.on_path[graph.index_of(NodeId::Ty(s))] = false;
    }
    let m = uniq_sources
        .iter()
        .map(|&s| dist[graph.index_of(NodeId::Ty(s))].get())
        .filter(|&d| d != u32::MAX)
        .min();
    let Some(m) = m else {
        return SearchOutcome {
            jungloids: Vec::new(),
            shortest: None,
            truncation: TruncationReason::None,
            expansions: 0,
        };
    };
    let bound = m + config.extra_steps;
    // Preallocate the walk buffers so the enumeration loop itself never
    // grows a Vec: a path holds at most `bound` costed steps (plus a few
    // interleaved zero-cost widenings), and the produced-path buffer is
    // bounded by `max_results` but rarely approaches it — the immediate
    // fan-out of the reachable sources is the cheaper first estimate.
    scratch.elems.reserve(bound as usize + 8);
    scratch.stack.reserve(bound as usize + 9);
    let fanout: usize = uniq_sources
        .iter()
        .filter(|&&s| dist[graph.index_of(NodeId::Ty(s))] != S::UNREACHED)
        .map(|&s| csr.out_range(graph.index_of(NodeId::Ty(s))).len())
        .sum();
    let mut dfs = Dfs {
        csr,
        dist,
        target_idx: dense(graph, target),
        bound,
        config,
        scratch,
        out: Vec::with_capacity(config.max_results.min(fanout)),
        expansions: 0,
        truncation: TruncationReason::None,
    };
    for &s in &uniq_sources {
        if dist[graph.index_of(NodeId::Ty(s))] == S::UNREACHED {
            continue;
        }
        let si = dense(graph, s);
        dfs.walk(s, si);
        if dfs.truncation.truncated() {
            break;
        }
    }
    let Dfs { out, expansions, truncation, .. } = dfs;
    // `m` could be 0 when a source widens straight into the target; in that
    // case the shortest *produced* path still reports 0.
    SearchOutcome { jungloids: out, shortest: Some(m), truncation, expansions }
}

struct Dfs<'a, S> {
    csr: &'a CsrAdjacency,
    dist: &'a [S],
    target_idx: u32,
    bound: u32,
    config: &'a SearchConfig,
    scratch: &'a mut SearchScratch,
    out: Vec<Jungloid>,
    expansions: usize,
    truncation: TruncationReason,
}

impl<S: Slot> Dfs<'_, S> {
    /// Walks all bounded acyclic paths from one source with an explicit
    /// stack, visiting edges in exactly the order the recursive
    /// formulation did (result order is part of the engine's contract).
    fn walk(&mut self, source: TyId, si: u32) {
        let fwd_to = self.csr.out_to();
        let fwd_cost = self.csr.out_cost();
        let fwd_elem = self.csr.out_elem();
        let range = self.csr.out_range(si as usize);
        self.scratch.on_path[si as usize] = true;
        self.scratch.stack.push(Frame {
            at: si,
            cursor: range.start as u32,
            end: range.end as u32,
            cost: 0,
        });
        while let Some(frame) = self.scratch.stack.last_mut() {
            if frame.cursor == frame.end {
                // Every edge of this node tried: unwind one level.
                let at = frame.at;
                self.scratch.stack.pop();
                self.scratch.on_path[at as usize] = false;
                if !self.scratch.stack.is_empty() {
                    self.scratch.elems.pop();
                }
                continue;
            }
            let ei = frame.cursor as usize;
            frame.cursor += 1;
            let cost = frame.cost;
            self.expansions += 1;
            if self.expansions > self.config.max_expansions {
                self.truncation = TruncationReason::ExpansionCap;
                break;
            }
            let to = fwd_to[ei];
            if self.scratch.on_path[to as usize] {
                continue;
            }
            let new_cost = cost + u32::from(fwd_cost[ei]);
            let to_go = self.dist[to as usize];
            if to_go == S::UNREACHED || new_cost + to_go.into() > self.bound {
                continue;
            }
            if to == self.target_idx {
                // Pure-widening paths contain no code ("you already have a
                // tout"); the engine reports those separately.
                self.scratch.elems.push(fwd_elem.get(ei));
                if self.scratch.elems.iter().any(|e| !e.is_widen()) {
                    self.out.push(Jungloid { source, elems: self.scratch.elems.clone() });
                    if self.out.len() >= self.config.max_results {
                        self.truncation = TruncationReason::PathCap;
                        self.scratch.elems.pop();
                        break;
                    }
                }
                self.scratch.elems.pop();
            } else {
                self.scratch.elems.push(fwd_elem.get(ei));
                self.scratch.on_path[to as usize] = true;
                let range = self.csr.out_range(to as usize);
                self.scratch.stack.push(Frame {
                    at: to,
                    cursor: range.start as u32,
                    end: range.end as u32,
                    cost: new_cost,
                });
            }
        }
        // Leave the scratch clean even when a cap fired mid-walk.
        for f in self.scratch.stack.drain(..) {
            self.scratch.on_path[f.at as usize] = false;
        }
        self.scratch.elems.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphConfig;
    use jungloid_apidef::{Api, ApiLoader};

    fn api() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "t.api",
                r"
                package t;
                public class A { B toB(); C toC(); }
                public class B { C toC(); D toD(); }
                public class C { D toD(); }
                public class D {}
                public class Sub extends D {}
                public class Maker { static Sub makeSub(); }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    fn ty(api: &Api, name: &str) -> TyId {
        api.types().resolve(name).unwrap()
    }

    fn run(graph: &JungloidGraph, from: &[TyId], to: TyId) -> SearchOutcome {
        let field = DistanceField::towards(graph, to);
        enumerate(graph, from, to, &field, &SearchConfig::default())
    }

    #[test]
    fn finds_shortest_and_m_plus_one() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let d = ty(&api, "t.D");
        let outcome = run(&g, &[a], d);
        assert_eq!(outcome.shortest, Some(2)); // a.toB().toD() or a.toC().toD()
        let lengths: Vec<u32> = outcome.jungloids.iter().map(Jungloid::steps).collect();
        assert!(lengths.iter().all(|&l| l <= 3));
        assert!(lengths.contains(&2));
        // The length-3 chain a.toB().toC().toD() is within m+1 and present.
        assert!(lengths.contains(&3));
        // Every produced path is well-typed.
        for j in &outcome.jungloids {
            j.validate(&api).unwrap();
        }
    }

    #[test]
    fn widening_is_free_and_reaches_supertype_targets() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let void = api.types().void();
        let d = ty(&api, "t.D");
        // Maker.makeSub(): void -> Sub, widen Sub -> D costs 0.
        let outcome = run(&g, &[void], d);
        assert_eq!(outcome.shortest, Some(1));
        assert!(outcome
            .jungloids
            .iter()
            .any(|j| j.steps() == 1 && j.concrete_output_ty(&api) == ty(&api, "t.Sub")));
    }

    #[test]
    fn unreachable_yields_empty() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let d = ty(&api, "t.D");
        let a = ty(&api, "t.A");
        let outcome = run(&g, &[d], a);
        assert!(outcome.jungloids.is_empty());
        assert_eq!(outcome.shortest, None);
    }

    #[test]
    fn multi_source_uses_global_minimum() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let c = ty(&api, "t.C");
        let d = ty(&api, "t.D");
        // From C the distance is 1; from A it is 2. Global m = 1, so paths
        // from A of length 2 (= m+1) still appear, length-3 ones do not.
        let outcome = run(&g, &[a, c], d);
        assert_eq!(outcome.shortest, Some(1));
        let from_a: Vec<u32> = outcome
            .jungloids
            .iter()
            .filter(|j| j.source == a)
            .map(Jungloid::steps)
            .collect();
        assert!(!from_a.is_empty());
        assert!(from_a.iter().all(|&l| l == 2));
    }

    #[test]
    fn paths_are_acyclic() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let d = ty(&api, "t.D");
        let outcome = run(&g, &[a], d);
        for j in &outcome.jungloids {
            let mut seen = vec![j.source];
            for e in &j.elems {
                let current = e.output_ty(&api);
                // Types may repeat only through distinct mined nodes; in a
                // pure signature graph they must not repeat at all.
                assert!(!seen.contains(&current), "cycle in {}", j.describe(&api));
                seen.push(current);
            }
        }
    }

    #[test]
    fn max_results_truncates() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let d = ty(&api, "t.D");
        let field = DistanceField::towards(&g, d);
        let cfg = SearchConfig { max_results: 1, ..SearchConfig::default() };
        let outcome = enumerate(&g, &[a], d, &field, &cfg);
        assert_eq!(outcome.jungloids.len(), 1);
        assert_eq!(outcome.truncation, TruncationReason::PathCap);
        assert!(outcome.truncation.truncated());

        let cfg = SearchConfig { max_expansions: 2, ..SearchConfig::default() };
        let outcome = enumerate(&g, &[a], d, &field, &cfg);
        assert_eq!(outcome.truncation, TruncationReason::ExpansionCap);
        assert_eq!(outcome.truncation.label(), "expansion_cap");
    }

    #[test]
    fn truncation_reasons_index_their_table() {
        for (i, reason) in TruncationReason::ALL.into_iter().enumerate() {
            assert_eq!(reason as usize, i);
        }
        let labels = TruncationReason::ALL.map(TruncationReason::label);
        assert_eq!(labels, ["none", "path_cap", "expansion_cap"]);
    }

    /// Audit pin for the `max_expansions` accounting. On the fixture
    /// graph the query A -> D deterministically spends exactly this many
    /// DFS edge expansions; the 0-1 BFS pre-pass (which relaxes every
    /// in-edge of every reached node) must not be charged against the
    /// same budget. If this number drifts, the budget's meaning changed.
    #[test]
    fn expansion_accounting_is_dfs_only_and_pinned() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let d = ty(&api, "t.D");
        let field = DistanceField::towards(&g, d);
        let outcome = enumerate(&g, &[a], d, &field, &SearchConfig::default());
        assert!(!outcome.truncation.truncated());
        let spent = outcome.expansions;
        // The pinned count: A's 2 signature out-edges are both expanded,
        // and so on down the bounded frontier — 10 edge expansions total
        // for this fixture, independent of BFS work.
        assert_eq!(spent, 10);

        // Pin: an identical repeat query (distance field reused, fresh or
        // reused scratch) spends the identical budget.
        let again = enumerate(&g, &[a], d, &field, &SearchConfig::default());
        assert_eq!(again.expansions, spent);
        let mut scratch = SearchScratch::new();
        let with_scratch =
            enumerate_with(&g, &[a], d, &field, &SearchConfig::default(), &mut scratch);
        assert_eq!(with_scratch.expansions, spent);
        // Scratch reuse across queries changes nothing either.
        let reused = enumerate_with(&g, &[a], d, &field, &SearchConfig::default(), &mut scratch);
        assert_eq!(reused.expansions, spent);
        assert_eq!(reused.jungloids.len(), outcome.jungloids.len());

        // The regression this guards against: were BFS relaxations
        // double-counted into the DFS budget, a budget of exactly `spent`
        // would truncate (the fixture BFS performs >0 relaxations). It
        // must complete instead.
        let cfg = SearchConfig { max_expansions: spent, ..SearchConfig::default() };
        let exact = enumerate(&g, &[a], d, &field, &cfg);
        assert_eq!(exact.truncation, TruncationReason::None);
        assert_eq!(exact.jungloids.len(), outcome.jungloids.len());
        assert_eq!(exact.expansions, spent);

        // One short of the real cost does truncate — the budget is tight.
        let cfg = SearchConfig { max_expansions: spent - 1, ..SearchConfig::default() };
        let short = enumerate(&g, &[a], d, &field, &cfg);
        assert_eq!(short.truncation, TruncationReason::ExpansionCap);
    }

    #[test]
    fn scratch_reuse_survives_truncated_queries() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let d = ty(&api, "t.D");
        let field = DistanceField::towards(&g, d);
        let mut scratch = SearchScratch::new();
        // A truncated walk must leave the scratch clean...
        let cfg = SearchConfig { max_expansions: 2, ..SearchConfig::default() };
        let truncated = enumerate_with(&g, &[a], d, &field, &cfg, &mut scratch);
        assert_eq!(truncated.truncation, TruncationReason::ExpansionCap);
        // ...so a follow-up full query over the same scratch is unaffected.
        let full = enumerate_with(&g, &[a], d, &field, &SearchConfig::default(), &mut scratch);
        assert_eq!(full.truncation, TruncationReason::None);
        let fresh = enumerate(&g, &[a], d, &field, &SearchConfig::default());
        assert_eq!(full.jungloids.len(), fresh.jungloids.len());
        for (x, y) in full.jungloids.iter().zip(&fresh.jungloids) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.elems, y.elems);
        }
    }

    #[test]
    fn duplicate_sources_deduped() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let d = ty(&api, "t.D");
        let once = run(&g, &[a], d).jungloids.len();
        let twice = run(&g, &[a, a], d).jungloids.len();
        assert_eq!(once, twice);
    }

    /// The mark-array dedup must behave exactly like the old linear-scan
    /// one: first-occurrence order, duplicates dropped — even when the
    /// source list is pathologically repetitive (the case the O(n²) scan
    /// choked on).
    #[test]
    fn many_duplicate_sources_dedup_in_first_occurrence_order() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let c = ty(&api, "t.C");
        let d = ty(&api, "t.D");

        // 30k sources, 3 distinct, interleaved so order matters.
        let mut noisy: Vec<TyId> = Vec::new();
        for _ in 0..10_000 {
            noisy.extend_from_slice(&[a, c, b, a, c]);
        }
        let deduped = run(&g, &[a, c, b], d);
        let from_noisy = run(&g, &noisy, d);
        assert_eq!(deduped.shortest, from_noisy.shortest);
        assert_eq!(deduped.jungloids.len(), from_noisy.jungloids.len());
        for (x, y) in deduped.jungloids.iter().zip(&from_noisy.jungloids) {
            assert_eq!(x.source, y.source, "enumeration order must be preserved");
            assert_eq!(x.elems, y.elems);
        }
        // Scratch is left clean for the next query on the same buffers.
        let mut scratch = SearchScratch::new();
        let field = DistanceField::towards(&g, d);
        let first =
            enumerate_with(&g, &noisy, d, &field, &SearchConfig::default(), &mut scratch);
        let second =
            enumerate_with(&g, &[a, c, b], d, &field, &SearchConfig::default(), &mut scratch);
        assert_eq!(first.jungloids.len(), second.jungloids.len());
    }

    #[test]
    fn mined_paths_are_searchable() {
        use jungloid_apidef::{ElemJungloid, InputSlot};
        let api = api();
        let mut g = JungloidGraph::from_api(&api, GraphConfig::default());
        let b = ty(&api, "t.B");
        let d = ty(&api, "t.D");
        let sub = ty(&api, "t.Sub");
        let to_d = api.lookup_instance_method(b, "toD", 0)[0];
        g.add_example(
            &api,
            &[
                ElemJungloid::Call { method: to_d, input: Some(InputSlot::Receiver) },
                ElemJungloid::Downcast { from: d, to: sub },
            ],
        )
        .unwrap();
        let outcome = run(&g, &[b], sub);
        assert_eq!(outcome.shortest, Some(2));
        assert!(outcome.jungloids.iter().any(Jungloid::contains_downcast));
        for j in &outcome.jungloids {
            j.validate(&api).unwrap();
        }
    }
}
