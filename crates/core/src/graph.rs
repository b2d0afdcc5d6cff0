//! The signature graph (§3.1) and its refinement with mined examples, the
//! jungloid graph (§4.2).
//!
//! Nodes are reference types (plus `void`); edges are non-downcast
//! elementary jungloids derived from the API's signatures. Every jungloid
//! supported by the API is a path in this graph, so synthesis is graph
//! search.
//!
//! Downcast edges are deliberately absent from the signature graph: adding
//! `(T) x : Object → T` for every `T` would represent mostly inviable
//! jungloids and, being short, they would crowd the top ranks (§4.1,
//! Figure 3). Instead, [`JungloidGraph::add_example`] splices in a path per
//! *mined* example jungloid, introducing a fresh node for every
//! intermediate object. Those fresh "typestate" nodes (the paper cites
//! Strom & Yemini) ensure the example lends viability only to jungloids
//! that reproduce its call sequence — Figure 6's `Object-1` node.

use std::sync::atomic::{AtomicU64, Ordering};

use jungloid_apidef::elem::{elem_of_field, elems_of_method};
use jungloid_apidef::{Api, ElemJungloid, Visibility};
use jungloid_typesys::{Slab, TyId};
use prospector_obs::json::Json;

use crate::elems::ElemSeq;

/// Process-global epoch source. Every graph *state* — a freshly built
/// graph, a loaded snapshot, or the state after any mutation — gets a
/// distinct epoch, so an epoch-stamped cache entry from one state can
/// never match another. Monotone and process-wide: two different graphs
/// never share an epoch either, which keeps stamps valid even if an
/// engine is rebuilt in place.
static GRAPH_EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    GRAPH_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// A node: an API type or a fresh mined (typestate) node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The node for an interned type.
    Ty(TyId),
    /// The `i`-th fresh node introduced by mined examples.
    Mined(u32),
}

/// An out-edge: an elementary jungloid and its destination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The elementary jungloid this edge represents.
    pub elem: ElemJungloid,
    /// Destination node.
    pub to: NodeId,
}

/// Construction options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[derive(Default)]
pub struct GraphConfig {
    /// Include `protected` members. The paper's implementation supports
    /// public members only and loses one Table 1 query to that (§7); this
    /// switch implements the fix it proposes.
    pub include_protected: bool,
    /// The §4.3 extension: exclude signature edges that consume an
    /// `Object`- or `String`-typed *parameter* slot — the call sites the
    /// paper observes are "usually not any Object or String" — so that
    /// only parameter-mined examples
    /// ([`Prospector::add_param_examples`](crate::Prospector::add_param_examples))
    /// drive values into such parameters. Off by default (the paper left
    /// this untested).
    pub restrict_weak_params: bool,
}


/// Per-kind composition of a jungloid graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Total nodes.
    pub nodes: usize,
    /// Mined typestate nodes.
    pub mined_nodes: usize,
    /// Spliced example paths.
    pub examples: usize,
    /// Field-access edges.
    pub field_edges: usize,
    /// Instance-call edges.
    pub instance_edges: usize,
    /// Static-call edges.
    pub static_edges: usize,
    /// Constructor edges.
    pub constructor_edges: usize,
    /// Widening edges.
    pub widening_edges: usize,
    /// Downcast edges (only from mined paths, unless naive downcasts were
    /// added).
    pub downcast_edges: usize,
}

impl GraphStats {
    /// Total edges.
    #[must_use]
    pub fn total_edges(&self) -> usize {
        self.field_edges
            + self.instance_edges
            + self.static_edges
            + self.constructor_edges
            + self.widening_edges
            + self.downcast_edges
    }
}

/// Frozen compressed-sparse-row (CSR) mirror of the adjacency — the
/// query hot path's view of the graph.
///
/// The `Vec<Vec<_>>` adjacency on [`JungloidGraph`] is the *builder*
/// representation: cheap to append to while signatures and mined examples
/// are spliced in, but every node hop during search costs a pointer chase
/// into a separately allocated edge list. The CSR mirror packs all edges
/// into contiguous arrays indexed by dense node index — `off[n]..off[n+1]`
/// spans node `n`'s edges — in structure-of-arrays form so the 0-1 BFS
/// touches only `(from, cost)` and the DFS touches only
/// `(to, cost, elem)`.
///
/// Invariant: the CSR is rebuilt at the end of every mutating operation
/// ([`JungloidGraph::from_api`], [`JungloidGraph::add_example`],
/// [`JungloidGraph::with_naive_downcasts`]), so it always reflects the
/// list adjacency, with per-node edge order preserved. The engine relies
/// on this when `add_examples` / `add_param_examples` grow the graph.
///
/// Each array is a [`Slab`]: either owned (built in memory) or borrowed
/// straight out of a format-v2 snapshot buffer
/// ([`SnapshotBuf`](jungloid_typesys::SnapshotBuf)), in which case loading
/// the graph copies no edge data at all. The
/// elementary jungloids are an [`ElemSeq`]: owned structs when built,
/// or the snapshot's packed 4×`u32` quads decoded on access.
#[derive(Clone, Debug, Default)]
pub struct CsrAdjacency {
    /// Forward offsets; `len = node_count + 1`.
    fwd_off: Slab<u32>,
    /// Destination dense index per forward edge.
    fwd_to: Slab<u32>,
    /// Elementary jungloid per forward edge.
    fwd_elem: ElemSeq,
    /// Step cost per forward edge (0 for widening).
    fwd_cost: Slab<u8>,
    /// Reverse offsets; `len = node_count + 1`.
    rev_off: Slab<u32>,
    /// Source dense index per reverse edge.
    rev_from: Slab<u32>,
    /// Step cost per reverse edge.
    rev_cost: Slab<u8>,
}

impl CsrAdjacency {
    fn build(graph: &JungloidGraph) -> Self {
        let n = graph.node_count();
        let edges = u32::try_from(graph.edge_count).expect("edge arena fits u32");
        let mut fwd_off = Vec::with_capacity(n + 1);
        let mut fwd_to = Vec::with_capacity(edges as usize);
        let mut fwd_elem = Vec::with_capacity(edges as usize);
        let mut fwd_cost = Vec::with_capacity(edges as usize);
        let mut rev_off = Vec::with_capacity(n + 1);
        let mut rev_from = Vec::with_capacity(edges as usize);
        let mut rev_cost = Vec::with_capacity(edges as usize);
        fwd_off.push(0);
        for row in &graph.out {
            for e in row {
                fwd_to.push(u32::try_from(graph.index_of(e.to)).expect("node fits u32"));
                fwd_elem.push(e.elem);
                fwd_cost.push(u8::from(!e.elem.is_widen()));
            }
            fwd_off.push(u32::try_from(fwd_to.len()).expect("edge arena fits u32"));
        }
        rev_off.push(0);
        for row in &graph.rev {
            for &(from, cost) in row {
                rev_from.push(u32::try_from(graph.index_of(from)).expect("node fits u32"));
                rev_cost.push(cost);
            }
            rev_off.push(u32::try_from(rev_from.len()).expect("edge arena fits u32"));
        }
        CsrAdjacency {
            fwd_off: Slab::from_vec(fwd_off),
            fwd_to: Slab::from_vec(fwd_to),
            fwd_elem: ElemSeq::Owned(fwd_elem),
            fwd_cost: Slab::from_vec(fwd_cost),
            rev_off: Slab::from_vec(rev_off),
            rev_from: Slab::from_vec(rev_from),
            rev_cost: Slab::from_vec(rev_cost),
        }
    }

    /// Node count covered by this layout.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.fwd_off.len().saturating_sub(1)
    }

    /// Edge count (forward == reverse).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.fwd_to.len()
    }

    /// Index range of `node`'s forward edges within the flat arrays.
    #[must_use]
    pub fn out_range(&self, node: usize) -> std::ops::Range<usize> {
        self.fwd_off[node] as usize..self.fwd_off[node + 1] as usize
    }

    /// Forward offset array (`len = node_count + 1`); `off[n]..off[n+1]`
    /// spans node `n`'s edges in the flat forward arrays.
    #[must_use]
    pub fn out_offsets(&self) -> &[u32] {
        &self.fwd_off
    }

    /// Reverse offset array (`len = node_count + 1`), mirroring
    /// [`CsrAdjacency::out_offsets`] for the in-edge arrays.
    #[must_use]
    pub fn in_offsets(&self) -> &[u32] {
        &self.rev_off
    }

    /// Reassembles a CSR from stored flat arrays (the `prospector-store`
    /// snapshot loader), validating structure so a corrupt file can never
    /// produce an index-out-of-bounds panic on the query hot path:
    /// offsets must start at zero, grow monotonically, and end at the
    /// edge count; forward and reverse edge counts must agree; every
    /// dense index must be in range; and each stored cost must equal the
    /// cost `CsrAdjacency::build` derives from its elementary jungloid.
    ///
    /// The arrays may borrow directly from a snapshot buffer (the
    /// zero-copy load) or be owned, and the same validation runs either
    /// way. Elementary jungloids are consulted through the [`ElemSeq`]
    /// accessor, so packed quads are decoded exactly once here and then
    /// again lazily on the hot path.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] naming the violated invariant.
    #[allow(clippy::too_many_arguments)]
    pub fn from_slabs(
        fwd_off: Slab<u32>,
        fwd_to: Slab<u32>,
        fwd_elem: ElemSeq,
        fwd_cost: Slab<u8>,
        rev_off: Slab<u32>,
        rev_from: Slab<u32>,
        rev_cost: Slab<u8>,
    ) -> Result<CsrAdjacency, SnapshotError> {
        let fail = |detail: String| Err(SnapshotError { detail });
        if fwd_off.is_empty() || rev_off.len() != fwd_off.len() {
            return fail(format!(
                "offset arrays must be non-empty and equal-length (fwd {}, rev {})",
                fwd_off.len(),
                rev_off.len()
            ));
        }
        let node_count = fwd_off.len() - 1;
        let edge_count = fwd_to.len();
        if fwd_elem.len() != edge_count || fwd_cost.len() != edge_count {
            return fail(format!(
                "forward arrays disagree on edge count ({edge_count} to, {} elem, {} cost)",
                fwd_elem.len(),
                fwd_cost.len()
            ));
        }
        if rev_from.len() != edge_count || rev_cost.len() != edge_count {
            return fail(format!(
                "reverse arrays hold {} edges, forward {edge_count}",
                rev_from.len()
            ));
        }
        for (name, off, flat_len) in
            [("forward", &fwd_off, fwd_to.len()), ("reverse", &rev_off, rev_from.len())]
        {
            if off[0] != 0 {
                return fail(format!("{name} offsets must start at 0"));
            }
            if off.windows(2).any(|w| w[0] > w[1]) {
                return fail(format!("{name} offsets must be monotone"));
            }
            if off[node_count] as usize != flat_len {
                return fail(format!(
                    "{name} offsets end at {} but {flat_len} edges are stored",
                    off[node_count]
                ));
            }
        }
        let bound = u32::try_from(node_count)
            .map_err(|_| SnapshotError { detail: "node count exceeds u32".to_owned() })?;
        if let Some(&bad) = fwd_to.iter().chain(rev_from.iter()).find(|&&n| n >= bound) {
            return fail(format!("edge endpoint {bad} out of range ({node_count} nodes)"));
        }
        for (i, elem) in fwd_elem.iter().enumerate() {
            if fwd_cost[i] != u8::from(!elem.is_widen()) {
                return fail(format!("forward edge {i} cost disagrees with its jungloid kind"));
            }
        }
        if let Some(&bad) = rev_cost.iter().find(|&&c| c > 1) {
            return fail(format!("reverse edge cost {bad} out of range (0-1 BFS costs)"));
        }
        Ok(CsrAdjacency { fwd_off, fwd_to, fwd_elem, fwd_cost, rev_off, rev_from, rev_cost })
    }

    /// Destination dense indices, all nodes' edges concatenated.
    #[must_use]
    pub fn out_to(&self) -> &[u32] {
        &self.fwd_to
    }

    /// Elementary jungloids, parallel to [`CsrAdjacency::out_to`]. An
    /// [`ElemSeq`]: owned structs or packed snapshot quads decoded per
    /// access — index with [`ElemSeq::get`].
    #[must_use]
    pub fn out_elem(&self) -> &ElemSeq {
        &self.fwd_elem
    }

    /// True if any array borrows from a snapshot buffer rather than
    /// owning its storage (the format-v2 zero-copy load path).
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        self.fwd_off.is_borrowed()
            || self.fwd_to.is_borrowed()
            || self.fwd_cost.is_borrowed()
            || self.rev_off.is_borrowed()
            || self.rev_from.is_borrowed()
            || self.rev_cost.is_borrowed()
            || self.fwd_elem.is_packed()
    }

    /// Step costs, parallel to [`CsrAdjacency::out_to`].
    #[must_use]
    pub fn out_cost(&self) -> &[u8] {
        &self.fwd_cost
    }

    /// Index range of `node`'s reverse edges within the flat arrays.
    #[must_use]
    pub fn in_range(&self, node: usize) -> std::ops::Range<usize> {
        self.rev_off[node] as usize..self.rev_off[node + 1] as usize
    }

    /// Source dense indices, all nodes' in-edges concatenated.
    #[must_use]
    pub fn in_from(&self) -> &[u32] {
        &self.rev_from
    }

    /// Step costs, parallel to [`CsrAdjacency::in_from`].
    #[must_use]
    pub fn in_cost(&self) -> &[u8] {
        &self.rev_cost
    }

    /// In-memory footprint of the flat arrays in bytes. Packed jungloid
    /// quads occupy 16 bytes each in the snapshot buffer; owned ones the
    /// in-memory struct size.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let elem = if self.fwd_elem.is_packed() { 16 } else { std::mem::size_of::<ElemJungloid>() };
        (self.fwd_off.len() + self.rev_off.len()) * 4
            + self.fwd_to.len() * (4 + 1)
            + self.fwd_elem.len() * elem
            + self.rev_from.len() * (4 + 1)
    }
}

/// A structurally invalid stored graph snapshot (binary `.pspk` sections
/// that decoded cleanly but describe an impossible graph).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotError {
    /// Explanation of the violated invariant.
    pub detail: String,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid graph snapshot: {}", self.detail)
    }
}

impl std::error::Error for SnapshotError {}

/// An invalid mined example.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExampleError {
    /// Explanation.
    pub detail: String,
}

impl std::fmt::Display for ExampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid example jungloid: {}", self.detail)
    }
}

impl std::error::Error for ExampleError {}

/// The jungloid graph: signature edges plus mined example paths.
#[derive(Clone, Debug)]
pub struct JungloidGraph {
    config: GraphConfig,
    /// Number of type-backed nodes (= type-table size at build time).
    ty_count: u32,
    /// Base type of each mined node (the static type at that program
    /// point; used for display and ranking).
    mined_base: Vec<TyId>,
    /// Out-edges, indexed by dense node index (types first, then mined).
    /// Empty while the graph is *frozen* (snapshot-loaded and unmutated);
    /// see [`JungloidGraph::thaw`].
    out: Vec<Vec<Edge>>,
    /// Reverse adjacency for distance-to-target pruning:
    /// `(from, step_cost)` per in-edge. Empty while frozen.
    rev: Vec<Vec<(NodeId, u8)>>,
    /// Whether `out`/`rev` are materialized. Construction from an API or
    /// JSON builds them eagerly; a snapshot load leaves the graph frozen
    /// on the CSR alone and [`JungloidGraph::thaw`] materializes them on
    /// the first mutation.
    lists_ready: bool,
    /// Example step-sequences already added (dedup).
    examples: Vec<Vec<ElemJungloid>>,
    edge_count: usize,
    /// Frozen CSR mirror of `out`/`rev`; rebuilt after every mutation.
    csr: CsrAdjacency,
    /// This graph state's epoch (see [`JungloidGraph::epoch`]). Advanced
    /// on every mutation, fresh on every construction path.
    epoch: u64,
}

impl JungloidGraph {
    /// Builds the signature graph of an API (§3.1): field, call, and
    /// widening edges; no downcasts.
    #[must_use]
    pub fn from_api(api: &Api, config: GraphConfig) -> Self {
        let ty_count = u32::try_from(api.types().len()).expect("type arena fits u32");
        let mut graph = JungloidGraph {
            config,
            ty_count,
            mined_base: Vec::new(),
            out: vec![Vec::new(); ty_count as usize],
            rev: vec![Vec::new(); ty_count as usize],
            lists_ready: true,
            examples: Vec::new(),
            edge_count: 0,
            csr: CsrAdjacency::default(),
            epoch: next_epoch(),
        };
        let visible = |v: Visibility| match v {
            Visibility::Public => true,
            Visibility::Protected => config.include_protected,
            Visibility::Private => false,
        };
        for f in api.field_ids() {
            // Definition 2: the output must be a class type, so
            // primitive-typed fields induce no elementary jungloid.
            if visible(api.field(f).visibility()) && api.types().is_reference(api.field(f).ty()) {
                let elem = elem_of_field(f);
                graph.push_edge(NodeId::Ty(elem.input_ty(api)), elem, NodeId::Ty(elem.output_ty(api)));
            }
        }
        let weak_tys: Vec<TyId> = if config.restrict_weak_params {
            [api.types().object(), api.types().resolve("java.lang.String").ok()]
                .into_iter()
                .flatten()
                .collect()
        } else {
            Vec::new()
        };
        for m in api.method_ids() {
            if visible(api.method(m).visibility()) {
                for elem in elems_of_method(api, m) {
                    // §4.3 restriction: drop edges that feed a weakly
                    // typed parameter slot.
                    if let ElemJungloid::Call { method, input: Some(jungloid_apidef::InputSlot::Arg(i)) } =
                        elem
                    {
                        if weak_tys.contains(&api.method(method).params()[i]) {
                            continue;
                        }
                    }
                    graph.push_edge(
                        NodeId::Ty(elem.input_ty(api)),
                        elem,
                        NodeId::Ty(elem.output_ty(api)),
                    );
                }
            }
        }
        // Widening edges along direct supertype links (transitive widening
        // arises by composing them, at zero cost).
        for t in api.types().ids() {
            for sup in api.types().direct_supertypes(t) {
                let elem = ElemJungloid::Widen { from: t, to: sup };
                graph.push_edge(NodeId::Ty(t), elem, NodeId::Ty(sup));
            }
        }
        graph.rebuild_csr();
        prospector_obs::gauge_set("graph.nodes", graph.node_count() as u64);
        prospector_obs::gauge_set("graph.edges", graph.edge_count as u64);
        graph
    }

    /// Restores a graph from a stored snapshot: the CSR arrays verbatim
    /// (already validated by [`CsrAdjacency::from_slabs`]) plus the mined
    /// node bases and example step-sequences. The graph comes back
    /// *frozen*: queries run on the CSR alone (which may borrow directly
    /// from the snapshot buffer) and the builder list adjacency stays
    /// empty until the first mutation thaws it (`JungloidGraph::thaw`).
    /// No rebuild happens, so a warm start records no
    /// `graph.csr.rebuilds`.
    ///
    /// # Errors
    ///
    /// Fails if the CSR's node count disagrees with
    /// `api.types().len() + mined_base.len()` or a mined base type is out
    /// of range. Elementary jungloids inside `csr` and `examples` must
    /// already be validated against `api` (the store's section decoder
    /// does this).
    pub fn from_snapshot(
        api: &Api,
        config: GraphConfig,
        mined_base: Vec<TyId>,
        examples: Vec<Vec<ElemJungloid>>,
        csr: CsrAdjacency,
    ) -> Result<JungloidGraph, SnapshotError> {
        let ty_count = u32::try_from(api.types().len())
            .map_err(|_| SnapshotError { detail: "type arena exceeds u32".to_owned() })?;
        let node_count = ty_count as usize + mined_base.len();
        if csr.node_count() != node_count {
            return Err(SnapshotError {
                detail: format!(
                    "CSR covers {} nodes but the API and mined bases imply {node_count}",
                    csr.node_count()
                ),
            });
        }
        if let Some(bad) = mined_base.iter().find(|t| t.index() >= ty_count as usize) {
            return Err(SnapshotError {
                detail: format!("mined base type {bad:?} out of range ({ty_count} types)"),
            });
        }
        // The reverse side must be the transpose of the forward side; the
        // cheap certificate is matching per-node in-degrees.
        let mut indegree = vec![0u32; node_count];
        for &to in csr.out_to() {
            indegree[to as usize] += 1;
        }
        for (node, &expected) in indegree.iter().enumerate() {
            if csr.in_range(node).len() != expected as usize {
                return Err(SnapshotError {
                    detail: format!("node {node} in-degree disagrees between CSR sides"),
                });
            }
        }
        let graph = JungloidGraph {
            config,
            ty_count,
            mined_base,
            out: Vec::new(),
            rev: Vec::new(),
            lists_ready: false,
            examples,
            edge_count: csr.edge_count(),
            csr,
            epoch: next_epoch(),
        };
        prospector_obs::gauge_set("graph.nodes", graph.node_count() as u64);
        prospector_obs::gauge_set("graph.edges", graph.edge_count as u64);
        prospector_obs::gauge_set("graph.csr.edges", graph.csr.edge_count() as u64);
        prospector_obs::gauge_set("graph.csr.bytes", graph.csr.approx_bytes() as u64);
        Ok(graph)
    }

    /// The frozen CSR view of the adjacency (always in sync; see
    /// [`CsrAdjacency`]).
    #[must_use]
    pub fn csr(&self) -> &CsrAdjacency {
        &self.csr
    }

    fn rebuild_csr(&mut self) {
        self.csr = CsrAdjacency::build(self);
        prospector_obs::add("graph.csr.rebuilds", 1);
        prospector_obs::gauge_set("graph.csr.edges", self.csr.edge_count() as u64);
        prospector_obs::gauge_set("graph.csr.bytes", self.csr.approx_bytes() as u64);
        // Flight-recorder hook: rebuilds invalidate every cached distance
        // field, so a rebuild mid-trace explains a burst of cache misses.
        prospector_obs::trace::process_event("graph", "csr_rebuild", self.csr.edge_count() as u64);
    }

    /// The configuration the graph was built with.
    #[must_use]
    pub fn config(&self) -> GraphConfig {
        self.config
    }

    /// The epoch of this graph state. Distinct for every construction
    /// (built, deserialized, snapshot-loaded) and advanced by every
    /// mutation ([`JungloidGraph::add_example`],
    /// [`JungloidGraph::with_naive_downcasts`]), so anything derived from
    /// the graph — cached query results in particular — can stamp itself
    /// with the epoch and detect staleness by comparison alone.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total node count (type nodes + mined nodes).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.ty_count as usize + self.mined_base.len()
    }

    /// Number of mined (typestate) nodes.
    #[must_use]
    pub fn mined_node_count(&self) -> usize {
        self.mined_base.len()
    }

    /// Total edge count.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The mined example step-sequences spliced into this graph.
    #[must_use]
    pub fn examples(&self) -> &[Vec<ElemJungloid>] {
        &self.examples
    }

    /// Dense index of a node.
    #[must_use]
    pub fn index_of(&self, node: NodeId) -> usize {
        match node {
            NodeId::Ty(t) => t.index(),
            NodeId::Mined(i) => self.ty_count as usize + i as usize,
        }
    }

    /// The node at a dense index.
    #[must_use]
    pub fn node_at(&self, index: usize) -> NodeId {
        if index < self.ty_count as usize {
            NodeId::Ty(TyId::from_index(index))
        } else {
            NodeId::Mined(u32::try_from(index - self.ty_count as usize).expect("mined fits u32"))
        }
    }

    /// The underlying type of a node: the type itself, or a mined node's
    /// static ("base") type.
    #[must_use]
    pub fn base_ty(&self, node: NodeId) -> TyId {
        match node {
            NodeId::Ty(t) => t,
            NodeId::Mined(i) => self.mined_base[i as usize],
        }
    }

    /// Out-edges of a node, derived from the CSR (which is always in sync
    /// with the graph state — rebuilt after every mutation, verbatim after
    /// a snapshot load). Returned by value so frozen (zero-copy loaded)
    /// and thawed graphs answer identically.
    #[must_use]
    pub fn out_edges(&self, node: NodeId) -> Vec<Edge> {
        let idx = self.index_of(node);
        self.csr
            .out_range(idx)
            .map(|flat| Edge {
                elem: self.csr.out_elem().get(flat),
                to: self.node_at(self.csr.out_to()[flat] as usize),
            })
            .collect()
    }

    /// In-edges of a node as `(from, step_cost)` pairs, derived from the
    /// CSR like [`JungloidGraph::out_edges`].
    #[must_use]
    pub fn in_edges(&self, node: NodeId) -> Vec<(NodeId, u8)> {
        let idx = self.index_of(node);
        self.csr
            .in_range(idx)
            .map(|flat| (self.node_at(self.csr.in_from()[flat] as usize), self.csr.in_cost()[flat]))
            .collect()
    }

    /// Materializes the builder list adjacency from the CSR if the graph
    /// is frozen (snapshot-loaded). Mutation paths call this before
    /// appending edges; queries never need it. Idempotent; does not
    /// advance the epoch (the graph state is unchanged).
    fn thaw(&mut self) {
        if self.lists_ready {
            return;
        }
        let node_count = self.node_count();
        let mut out = vec![Vec::new(); node_count];
        let mut rev = vec![Vec::new(); node_count];
        for (node, row) in out.iter_mut().enumerate() {
            for flat in self.csr.out_range(node) {
                row.push(Edge {
                    elem: self.csr.out_elem().get(flat),
                    to: self.node_at(self.csr.out_to()[flat] as usize),
                });
            }
        }
        for (node, row) in rev.iter_mut().enumerate() {
            for flat in self.csr.in_range(node) {
                row.push((
                    self.node_at(self.csr.in_from()[flat] as usize),
                    self.csr.in_cost()[flat],
                ));
            }
        }
        self.out = out;
        self.rev = rev;
        self.lists_ready = true;
    }

    fn push_edge(&mut self, from: NodeId, elem: ElemJungloid, to: NodeId) {
        debug_assert!(self.lists_ready, "push_edge on a frozen graph; thaw first");
        let cost = u8::from(!elem.is_widen());
        let fi = self.index_of(from);
        self.out[fi].push(Edge { elem, to });
        let ti = self.index_of(to);
        self.rev[ti].push((from, cost));
        self.edge_count += 1;
    }

    fn fresh_mined(&mut self, base: TyId) -> NodeId {
        debug_assert!(self.lists_ready, "fresh_mined on a frozen graph; thaw first");
        let id = u32::try_from(self.mined_base.len()).expect("mined arena fits u32");
        self.mined_base.push(base);
        self.out.push(Vec::new());
        self.rev.push(Vec::new());
        NodeId::Mined(id)
    }

    /// Splices a mined example jungloid into the graph (§4.2, Figure 6).
    ///
    /// The path starts at the existing node for the example's input type,
    /// runs through fresh mined nodes for every intermediate object, and
    /// its final step lands on the existing node for the final output type
    /// (for a downcast-terminated example, the cast's target).
    ///
    /// Returns `false` (and adds nothing) if an identical step sequence was
    /// already spliced in.
    ///
    /// # Errors
    ///
    /// The steps must be non-empty and well-typed (each step's input type
    /// equal to its predecessor's output type).
    pub fn add_example(&mut self, api: &Api, steps: &[ElemJungloid]) -> Result<bool, ExampleError> {
        if steps.is_empty() {
            return Err(ExampleError { detail: "empty step sequence".to_owned() });
        }
        for pair in steps.windows(2) {
            let out_ty = pair[0].output_ty(api);
            let in_ty = pair[1].input_ty(api);
            if out_ty != in_ty {
                return Err(ExampleError {
                    detail: format!(
                        "ill-typed composition: {} outputs {} but {} expects {}",
                        pair[0].label(api),
                        api.types().display(out_ty),
                        pair[1].label(api),
                        api.types().display(in_ty)
                    ),
                });
            }
        }
        for step in steps {
            match *step {
                ElemJungloid::Widen { from, to }
                    if from == to || !api.types().is_subtype(from, to) =>
                {
                    return Err(ExampleError {
                        detail: format!(
                            "invalid widening {} -> {}",
                            api.types().display(from),
                            api.types().display(to)
                        ),
                    })
                }
                ElemJungloid::Downcast { from, to }
                    if from == to || !api.types().is_subtype(to, from) =>
                {
                    return Err(ExampleError {
                        detail: format!(
                            "invalid downcast {} -> {}",
                            api.types().display(from),
                            api.types().display(to)
                        ),
                    })
                }
                _ => {}
            }
        }
        if self.examples.iter().any(|e| e == steps) {
            return Ok(false);
        }
        self.thaw();
        let mut from = NodeId::Ty(steps[0].input_ty(api));
        for (i, &elem) in steps.iter().enumerate() {
            let to = if i + 1 == steps.len() {
                NodeId::Ty(elem.output_ty(api))
            } else {
                self.fresh_mined(elem.output_ty(api))
            };
            self.push_edge(from, elem, to);
            from = to;
        }
        self.examples.push(steps.to_vec());
        self.rebuild_csr();
        self.epoch = next_epoch();
        prospector_obs::add("graph.examples_spliced", 1);
        Ok(true)
    }

    /// Adds *all downcast elementary jungloids* to a copy of this graph:
    /// `(U) x : T → U` for every declared `U <: T`. This is the naive
    /// strategy of §4.1 / Figure 3, reproduced for the mining-ablation
    /// experiment; it is intentionally terrible.
    #[must_use]
    pub fn with_naive_downcasts(&self, api: &Api) -> JungloidGraph {
        let mut g = self.clone();
        g.thaw();
        for t in api.types().ids() {
            if !api.types().is_reference(t) || t == api.types().null() {
                continue;
            }
            for sub in api.types().strict_subtypes(t) {
                let elem = ElemJungloid::Downcast { from: t, to: sub };
                g.push_edge(NodeId::Ty(t), elem, NodeId::Ty(sub));
            }
        }
        g.rebuild_csr();
        g.epoch = next_epoch();
        g
    }

    /// Per-kind edge statistics (the §3.1/§4.2 composition of the graph).
    #[must_use]
    pub fn stats(&self, api: &Api) -> GraphStats {
        let mut stats = GraphStats {
            nodes: self.node_count(),
            mined_nodes: self.mined_node_count(),
            examples: self.examples.len(),
            ..GraphStats::default()
        };
        for idx in 0..self.node_count() {
            for e in self.out_edges(self.node_at(idx)) {
                match e.elem {
                    ElemJungloid::FieldAccess { .. } => stats.field_edges += 1,
                    ElemJungloid::Call { method, .. } => {
                        let def = api.method(method);
                        if def.is_constructor() {
                            stats.constructor_edges += 1;
                        } else if def.is_static() {
                            stats.static_edges += 1;
                        } else {
                            stats.instance_edges += 1;
                        }
                    }
                    ElemJungloid::Widen { .. } => stats.widening_edges += 1,
                    ElemJungloid::Downcast { .. } => stats.downcast_edges += 1,
                }
            }
        }
        stats
    }

    /// Rough in-memory footprint in bytes (list adjacency, when
    /// materialized, plus the CSR mirror), for the §5 size report. A
    /// frozen graph carries no list adjacency at all.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let lists = if self.lists_ready {
            let edge = std::mem::size_of::<Edge>();
            let rev = std::mem::size_of::<(NodeId, u8)>();
            let node = 2 * std::mem::size_of::<Vec<Edge>>();
            self.edge_count * (edge + rev) + self.node_count() * node
        } else {
            0
        };
        lists + self.mined_base.len() * 4 + self.csr.approx_bytes()
    }

    /// Renders the graph — config, mined nodes, examples, and the full
    /// out-adjacency — as a JSON debug dump (never loaded back; the
    /// `.pspk` snapshot is the stored form). Nodes are encoded by
    /// dense index (type nodes first, then mined nodes), matching
    /// [`JungloidGraph::index_of`]; the reverse adjacency is implied.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let adjacency: Vec<Json> = (0..self.node_count())
            .map(|node| {
                Json::Arr(
                    self.csr
                        .out_range(node)
                        .map(|flat| {
                            Json::obj(vec![
                                ("e", self.csr.out_elem().get(flat).to_json()),
                                ("to", Json::num_u(u64::from(self.csr.out_to()[flat]))),
                            ])
                        })
                        .collect(),
                )
            })
            .collect();
        Json::obj(vec![
            (
                "config",
                Json::obj(vec![
                    ("include_protected", Json::Bool(self.config.include_protected)),
                    ("restrict_weak_params", Json::Bool(self.config.restrict_weak_params)),
                ]),
            ),
            ("ty_count", Json::num_u(u64::from(self.ty_count))),
            (
                "mined_base",
                Json::Arr(self.mined_base.iter().map(|t| Json::num_u(t.index() as u64)).collect()),
            ),
            (
                "examples",
                Json::Arr(
                    self.examples
                        .iter()
                        .map(|steps| Json::Arr(steps.iter().map(ElemJungloid::to_json).collect()))
                        .collect(),
                ),
            ),
            ("adjacency", Json::Arr(adjacency)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::{ApiLoader, InputSlot};

    fn api() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "t.api",
                r"
                package t;
                public class A { B toB(); }
                public class B extends A {}
                public class C {
                    C(A a);
                    static B make(A a, B b);
                    protected B prot();
                    private B priv();
                    static C instance();
                }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    fn ty(api: &Api, name: &str) -> TyId {
        api.types().resolve(name).unwrap()
    }

    #[test]
    fn signature_edges_present() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let c = ty(&api, "t.C");

        // a.toB(): A -> B
        let out_a = g.out_edges(NodeId::Ty(a));
        assert!(out_a.iter().any(|e| e.to == NodeId::Ty(b) && !e.elem.is_widen()));
        // new C(a): A -> C
        assert!(out_a.iter().any(|e| e.to == NodeId::Ty(c)));
        // C.make consumes either A or B.
        assert!(g.out_edges(NodeId::Ty(b)).iter().any(|e| e.to == NodeId::Ty(b)));
        // static C.instance(): void -> C
        let void = api.types().void();
        assert!(g.out_edges(NodeId::Ty(void)).iter().any(|e| e.to == NodeId::Ty(c)));
    }

    #[test]
    fn widening_edges_follow_hierarchy() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let obj = api.types().object().unwrap();
        let widens: Vec<_> =
            g.out_edges(NodeId::Ty(b)).into_iter().filter(|e| e.elem.is_widen()).collect();
        assert_eq!(widens.len(), 1);
        assert_eq!(widens[0].to, NodeId::Ty(a));
        assert!(g.out_edges(NodeId::Ty(a)).iter().any(|e| e.elem.is_widen() && e.to == NodeId::Ty(obj)));
    }

    #[test]
    fn no_downcast_edges_in_signature_graph() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        for idx in 0..g.node_count() {
            for e in g.out_edges(g.node_at(idx)) {
                assert!(!e.elem.is_downcast());
            }
        }
    }

    #[test]
    fn visibility_filtering() {
        let api = api();
        let c = ty(&api, "t.C");
        let count_from_c = |g: &JungloidGraph| {
            g.out_edges(NodeId::Ty(c)).iter().filter(|e| !e.elem.is_widen()).count()
        };
        let public_only = JungloidGraph::from_api(&api, GraphConfig::default());
        let with_protected = JungloidGraph::from_api(
            &api,
            GraphConfig { include_protected: true, ..GraphConfig::default() },
        );
        // `prot()` appears only with include_protected; `priv()` never.
        assert_eq!(count_from_c(&public_only) + 1, count_from_c(&with_protected));
    }

    #[test]
    fn reverse_edges_mirror_forward() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let mut fwd = 0;
        let mut rev = 0;
        for idx in 0..g.node_count() {
            let n = g.node_at(idx);
            fwd += g.out_edges(n).len();
            rev += g.in_edges(n).len();
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd, g.edge_count());
    }

    #[test]
    fn add_example_creates_typestate_path() {
        let api = api();
        let mut g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let obj = api.types().object().unwrap();
        let m = api.lookup_instance_method(a, "toB", 0)[0];
        // a.toB() widened to Object, then cast back down to B:
        let steps = vec![
            ElemJungloid::Call { method: m, input: Some(InputSlot::Receiver) },
            ElemJungloid::Widen { from: b, to: obj },
            ElemJungloid::Downcast { from: obj, to: b },
        ];
        assert!(g.add_example(&api, &steps).unwrap());
        assert_eq!(g.mined_node_count(), 2);
        // Duplicate insert is a no-op.
        assert!(!g.add_example(&api, &steps).unwrap());
        assert_eq!(g.mined_node_count(), 2);

        // The path enters at A and its last edge lands on the real B node.
        let first: Vec<_> = g
            .out_edges(NodeId::Ty(a))
            .into_iter()
            .filter(|e| matches!(e.to, NodeId::Mined(_)))
            .collect();
        assert_eq!(first.len(), 1);
        let mid = first[0].to;
        assert_eq!(g.base_ty(mid), b);
        let second = g.out_edges(mid)[0];
        assert!(second.elem.is_widen());
        let last = g.out_edges(second.to)[0];
        assert!(last.elem.is_downcast());
        assert_eq!(last.to, NodeId::Ty(b));
    }

    #[test]
    fn ill_typed_example_rejected() {
        let api = api();
        let mut g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let c = ty(&api, "t.C");
        let m = api.lookup_instance_method(a, "toB", 0)[0];
        let steps = vec![
            ElemJungloid::Call { method: m, input: Some(InputSlot::Receiver) },
            // B is not C: composition is ill-typed.
            ElemJungloid::Downcast { from: c, to: c },
        ];
        assert!(g.add_example(&api, &steps).is_err());
        assert!(g.add_example(&api, &[]).is_err());
    }

    #[test]
    fn naive_downcasts_explode() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        let naive = g.with_naive_downcasts(&api);
        // Every declared type gains a downcast edge from Object (and more).
        assert!(naive.edge_count() > g.edge_count() + 4);
        let obj = api.types().object().unwrap();
        let b = ty(&api, "t.B");
        assert!(naive
            .out_edges(NodeId::Ty(obj))
            .iter()
            .any(|e| e.elem.is_downcast() && e.to == NodeId::Ty(b)));
    }

    #[test]
    fn stats_count_per_kind() {
        let api = api();
        let mut g = JungloidGraph::from_api(&api, GraphConfig::default());
        let stats = g.stats(&api);
        assert_eq!(stats.total_edges(), g.edge_count());
        assert_eq!(stats.downcast_edges, 0);
        assert!(stats.widening_edges > 0);
        assert!(stats.instance_edges > 0);
        assert!(stats.constructor_edges > 0);
        assert!(stats.static_edges > 0);

        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let m = api.lookup_instance_method(a, "toB", 0)[0];
        g.add_example(
            &api,
            &[
                ElemJungloid::Call { method: m, input: Some(InputSlot::Receiver) },
                ElemJungloid::Downcast { from: b, to: b }, // placeholder replaced below
            ],
        )
        .err(); // invalid (b -> b); ensure stats unaffected by failed add
        let before = g.stats(&api);
        assert_eq!(before.downcast_edges, 0);
    }

    /// The CSR mirror must agree with the list adjacency edge-for-edge,
    /// in the same per-node order (search result order depends on it).
    fn assert_csr_mirrors_lists(g: &JungloidGraph) {
        let csr = g.csr();
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        for idx in 0..g.node_count() {
            let node = g.node_at(idx);
            let out = g.out_edges(node);
            let range = csr.out_range(idx);
            assert_eq!(range.len(), out.len());
            for (k, e) in out.iter().enumerate() {
                let flat = range.start + k;
                assert_eq!(csr.out_to()[flat] as usize, g.index_of(e.to));
                assert_eq!(csr.out_elem().get(flat), e.elem);
                assert_eq!(csr.out_cost()[flat], u8::from(!e.elem.is_widen()));
            }
            let ins = g.in_edges(node);
            let range = csr.in_range(idx);
            assert_eq!(range.len(), ins.len());
            for (k, &(from, cost)) in ins.iter().enumerate() {
                let flat = range.start + k;
                assert_eq!(csr.in_from()[flat] as usize, g.index_of(from));
                assert_eq!(csr.in_cost()[flat], cost);
            }
        }
    }

    #[test]
    fn csr_mirrors_signature_graph() {
        let api = api();
        let g = JungloidGraph::from_api(&api, GraphConfig::default());
        assert_csr_mirrors_lists(&g);
        assert!(g.csr().approx_bytes() > 0);
    }

    #[test]
    fn csr_rebuilt_on_add_example_and_naive_downcasts() {
        let api = api();
        let mut g = JungloidGraph::from_api(&api, GraphConfig::default());
        let edges_before = g.csr().edge_count();
        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let obj = api.types().object().unwrap();
        let m = api.lookup_instance_method(a, "toB", 0)[0];
        g.add_example(
            &api,
            &[
                ElemJungloid::Call { method: m, input: Some(InputSlot::Receiver) },
                ElemJungloid::Widen { from: b, to: obj },
                ElemJungloid::Downcast { from: obj, to: b },
            ],
        )
        .unwrap();
        // The mined path's three edges and two fresh nodes are visible in
        // the rebuilt CSR.
        assert_eq!(g.csr().edge_count(), edges_before + 3);
        assert_eq!(g.csr().node_count(), g.node_count());
        assert_csr_mirrors_lists(&g);

        let naive = g.with_naive_downcasts(&api);
        assert_csr_mirrors_lists(&naive);
        assert!(naive.csr().edge_count() > g.csr().edge_count());
    }

    #[test]
    fn epochs_are_distinct_per_state_and_advance_on_mutation() {
        let api = api();
        let g1 = JungloidGraph::from_api(&api, GraphConfig::default());
        let g2 = JungloidGraph::from_api(&api, GraphConfig::default());
        assert_ne!(g1.epoch(), g2.epoch(), "independent builds get distinct epochs");

        let mut g = g1;
        let before = g.epoch();
        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let m = api.lookup_instance_method(a, "toB", 0)[0];
        let steps = vec![
            ElemJungloid::Call { method: m, input: Some(InputSlot::Receiver) },
            ElemJungloid::Downcast { from: b, to: b },
        ];
        // A rejected example mutates nothing, so the epoch must not move.
        assert!(g.add_example(&api, &steps).is_err());
        assert_eq!(g.epoch(), before);
        let obj = api.types().object().unwrap();
        let steps = vec![
            ElemJungloid::Call { method: m, input: Some(InputSlot::Receiver) },
            ElemJungloid::Widen { from: b, to: obj },
            ElemJungloid::Downcast { from: obj, to: b },
        ];
        assert!(g.add_example(&api, &steps).unwrap());
        assert_ne!(g.epoch(), before, "splicing an example advances the epoch");
        let spliced = g.epoch();
        // A duplicate splice is a no-op and must not advance it again.
        assert!(!g.add_example(&api, &steps).unwrap());
        assert_eq!(g.epoch(), spliced);

        // Restoring from snapshot parts is a fresh state.
        let mined_base = (0..g.mined_node_count())
            .map(|i| g.base_ty(NodeId::Mined(u32::try_from(i).unwrap())))
            .collect();
        let back = JungloidGraph::from_snapshot(
            &api,
            g.config(),
            mined_base,
            g.examples().to_vec(),
            g.csr().clone(),
        )
        .unwrap();
        assert_ne!(back.epoch(), g.epoch());
        // The naive-downcast copy is a different graph too.
        assert_ne!(g.with_naive_downcasts(&api).epoch(), g.epoch());
    }

    #[test]
    fn frozen_snapshot_graph_answers_like_the_original_and_thaws_on_mutation() {
        let api = api();
        let mut g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let b = ty(&api, "t.B");
        let obj = api.types().object().unwrap();
        let m = api.lookup_instance_method(a, "toB", 0)[0];
        let steps = vec![
            ElemJungloid::Call { method: m, input: Some(InputSlot::Receiver) },
            ElemJungloid::Widen { from: b, to: obj },
            ElemJungloid::Downcast { from: obj, to: b },
        ];
        g.add_example(&api, &steps).unwrap();

        let mined_base: Vec<TyId> = (0..g.mined_node_count())
            .map(|i| g.base_ty(NodeId::Mined(u32::try_from(i).unwrap())))
            .collect();
        let mut frozen = JungloidGraph::from_snapshot(
            &api,
            g.config(),
            mined_base,
            g.examples().to_vec(),
            g.csr().clone(),
        )
        .unwrap();
        assert!(!frozen.lists_ready, "snapshot loads stay frozen");
        for idx in 0..g.node_count() {
            let n = g.node_at(idx);
            assert_eq!(frozen.out_edges(n), g.out_edges(n));
            assert_eq!(frozen.in_edges(n), g.in_edges(n));
        }
        // Dedup consults the stored sequences; no thaw needed.
        assert!(!frozen.add_example(&api, &steps).unwrap());
        assert!(!frozen.lists_ready);
        // A genuinely new example thaws the lists and splices as usual.
        let more = vec![ElemJungloid::Widen { from: b, to: a }];
        assert!(frozen.add_example(&api, &more).unwrap());
        assert!(frozen.lists_ready);
        assert_eq!(frozen.edge_count(), g.edge_count() + 1);
        assert_csr_mirrors_lists(&frozen);
    }

    #[test]
    fn node_index_round_trip() {
        let api = api();
        let mut g = JungloidGraph::from_api(&api, GraphConfig::default());
        let a = ty(&api, "t.A");
        let m = api.lookup_instance_method(a, "toB", 0)[0];
        let b = ty(&api, "t.B");
        let obj = api.types().object().unwrap();
        g.add_example(
            &api,
            &[
                ElemJungloid::Call { method: m, input: Some(InputSlot::Receiver) },
                ElemJungloid::Widen { from: b, to: obj },
                ElemJungloid::Downcast { from: obj, to: b },
            ],
        )
        .unwrap();
        for idx in 0..g.node_count() {
            assert_eq!(g.index_of(g.node_at(idx)), idx);
        }
    }
}
