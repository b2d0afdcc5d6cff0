//! The Prospector query engine: the paper's tool pipeline (§5) minus the
//! Eclipse GUI.
//!
//! * explicit queries `(tin, tout)` (§2.1);
//! * content-assist queries: only `tout` is known, and the types of the
//!   lexically visible variables plus `void` form the `tin` set, all
//!   searched at once with multiple starting points (§1, §5);
//! * results are ranked (§3.2), rendered as insertable code, and
//!   deduplicated by rendered code.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use jungloid_apidef::{Api, ElemJungloid};
use jungloid_typesys::{Ty, TyId};
use prospector_obs::trace::{self, TraceId};
use prospector_obs::{Counter, Gauge, Stage};

use crate::cache::ShardedLru;
use crate::generalize::{generalize, generalize_terminal};
use crate::graph::{ExampleError, GraphConfig, JungloidGraph, NodeId};
use crate::path::Jungloid;
use crate::rank::{rank_key, RankKey, RankOptions};
use crate::search::{
    enumerate_with, DistanceField, SearchConfig, SearchOutcome, SearchScratch, TruncationReason,
};
use crate::synth::{default_name, render_code, synthesize, Snippet};

/// Cap on cached distance fields. Every distinct query target costs one
/// `O(nodes + edges)` field; without a cap a long-lived engine serving
/// many targets grows without bound. When full, the per-shard
/// least-recently-used target is evicted (real workloads re-query few
/// targets, so the hot set survives).
const DIST_CACHE_CAP: usize = 256;

/// Shard count for the distance-field cache. Concurrent queries on
/// different targets take different shard locks, so batch workers never
/// contend on the cache unless their targets collide.
const DIST_CACHE_SHARDS: usize = 16;

/// Cap on cached query results. A full result (suggestions, codes, rank
/// keys) is heavier than a distance field, but real traffic is
/// heavily skewed toward a small set of popular `(tin, tout)` intents —
/// 512 entries comfortably covers the hot set while per-shard LRU
/// eviction ages out one-off queries.
const RESULT_CACHE_CAP: usize = 512;

/// Shard count for the query-result cache (same contention argument as
/// [`DIST_CACHE_SHARDS`]).
const RESULT_CACHE_SHARDS: usize = 16;

/// The result cache's key: everything a query's answer depends on besides
/// the graph itself, which changes only in [`Prospector::splice_examples`]
/// and that empties the cache. Both config structs are `Copy` bit-bags,
/// so the key is a cheap `Copy + Hash` value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct QueryKey {
    tin: TyId,
    tout: TyId,
    search: SearchConfig,
    ranking: RankOptions,
}

thread_local! {
    /// Per-thread search scratch: each serial caller and each batch
    /// worker reuses one set of DFS buffers across its queries.
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::new());
}

/// A query failure.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// Queries are over reference types only (§2.1 footnote 4); `void` is
    /// additionally allowed as an *input*.
    NotAReferenceType {
        /// Rendering of the offending type.
        ty: String,
        /// Whether it appeared as the query input or output.
        position: &'static str,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NotAReferenceType { ty, position } => {
                write!(f, "query {position} type `{ty}` is not a reference type")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// One ranked suggestion. Ranking renders text: the engine writes each
/// candidate's [`Suggestion::code`] in one pass and holds no syntax
/// tree. Insertion builds the tree, on demand, with
/// [`Suggestion::snippet`].
#[derive(Clone, Debug)]
pub struct Suggestion {
    /// The underlying jungloid.
    pub jungloid: Jungloid,
    /// Rendered nested-expression code.
    pub code: String,
    /// The in-scope variable used as input, if any.
    pub input_var: Option<String>,
    /// The rank key this suggestion was ordered by.
    pub key: RankKey,
}

impl Suggestion {
    /// The synthesized snippet (expression, free variables, result
    /// type), built from the jungloid: its expression prints as
    /// [`Suggestion::code`].
    #[must_use]
    pub fn snippet(&self, api: &Api) -> Snippet {
        synthesize(api, &self.jungloid, self.input_var.as_deref())
    }
}

/// Per-query attribution: the hot-path tallies this one query spent,
/// regardless of whether the flight recorder is on. The process-global
/// counters (`engine.dist_cache.*`, `search.*`) aggregate the same
/// quantities across all queries; this is the per-request split that
/// lets a batch line say *which* query missed the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// The query's flight-recorder trace id.
    pub trace_id: u64,
    /// Distance-field cache hits this query scored (0 or 1).
    pub dist_cache_hits: u64,
    /// Distance-field cache misses this query paid for (0 or 1).
    pub dist_cache_misses: u64,
    /// DFS edge expansions charged against `max_expansions`.
    pub dfs_expansions: u64,
    /// 0-1 BFS edge relaxations this query paid to build its distance
    /// field (0 on a cache hit — the field was already built).
    pub bfs_relaxations: u64,
    /// 1 if this result was served from the query-result cache. A served
    /// hit pays none of the pipeline costs, so every other counter in
    /// these stats is 0 alongside it.
    pub result_cache_hits: u64,
    /// 1 if this query ran the full pipeline and populated the result
    /// cache. 0 for hits, for [`Prospector::assist`] (uncached), and when
    /// [`Prospector::cache_results`] is off.
    pub result_cache_misses: u64,
}

/// The outcome of one query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// Ranked suggestions, best first, deduplicated by code. Shared
    /// behind an `Arc` so a result-cache hit (and any other clone) is a
    /// reference-count bump, not a deep copy of every suggestion —
    /// read access is unchanged via deref.
    pub suggestions: Arc<Vec<Suggestion>>,
    /// Shortest path length `m` found (non-widening steps).
    pub shortest: Option<u32>,
    /// Which cap (if any) stopped the enumeration early.
    pub truncation: TruncationReason,
    /// Visible variables that already satisfy `tout` without any code
    /// (their type widens to it). Only populated by
    /// [`Prospector::assist`].
    pub already_available: Vec<String>,
    /// Per-query attribution (trace id, cache split, search budgets).
    pub stats: QueryStats,
}

impl QueryResult {
    /// 1-based rank of the first suggestion satisfying `pred`, if any.
    pub fn rank_where<F: FnMut(&Suggestion) -> bool>(&self, pred: F) -> Option<usize> {
        self.suggestions.iter().position(pred).map(|i| i + 1)
    }
}

/// Point-in-time engine introspection for the serve layer's `/status`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStatus {
    /// The epoch of the graph state the engine serves: fresh on every
    /// build and load (so a reload reports a new one) and advanced by
    /// every splice that adds an example. Reported, not used for cache
    /// validity: a splice empties both caches.
    pub graph_epoch: u64,
    /// Entries currently held by the full-result cache.
    pub result_cache_entries: u64,
    /// Entries currently held by the distance-field cache.
    pub dist_cache_entries: u64,
}

/// One slot of a [`Prospector::query_batch`] result.
#[derive(Clone, Debug)]
pub struct BatchEntry {
    /// The query's input type.
    pub tin: TyId,
    /// The query's output type.
    pub tout: TyId,
    /// The query's flight-recorder trace id. Ids are preallocated in
    /// input order *before* the fan-out, so the id sequence of a batch
    /// is deterministic under any worker interleaving (and identical
    /// across same-seed runs). Present even when the query errored.
    pub trace_id: TraceId,
    /// The query's outcome, exactly as [`Prospector::query`] would have
    /// returned it.
    pub result: Result<QueryResult, QueryError>,
    /// Wall-clock time this query spent inside its worker.
    pub time: Duration,
}

/// The Prospector engine: an API, its jungloid graph, and cached search
/// state.
#[derive(Debug)]
pub struct Prospector {
    api: Api,
    graph: JungloidGraph,
    /// Path-enumeration limits.
    pub search: SearchConfig,
    /// Ranking heuristic knobs.
    pub ranking: RankOptions,
    /// Whether explicit queries go through the result cache (on by
    /// default). Benches that want to measure the raw pipeline turn this
    /// off; correctness is unaffected either way — a cached hit is pinned
    /// byte-identical to the pipeline's output.
    pub cache_results: bool,
    dist_cache: ShardedLru<TyId, Arc<DistanceField>>,
    /// Full-result cache for explicit `(tin, tout)` queries, used like
    /// `dist_cache`: both are emptied by every splice.
    result_cache: ShardedLru<QueryKey, Arc<QueryResult>>,
}

impl Prospector {
    /// Builds an engine over the signature graph of `api` (public members
    /// only, no mined examples).
    #[must_use]
    pub fn new(api: Api) -> Self {
        Prospector::with_config(api, GraphConfig::default())
    }

    /// Builds with explicit graph options.
    #[must_use]
    pub fn with_config(api: Api, config: GraphConfig) -> Self {
        let graph = JungloidGraph::from_api(&api, config);
        Prospector::from_parts(api, graph)
    }

    /// Wraps an engine around a pre-built graph (e.g. one loaded from
    /// disk).
    #[must_use]
    pub fn from_parts(api: Api, graph: JungloidGraph) -> Self {
        Prospector {
            api,
            graph,
            search: SearchConfig::default(),
            ranking: RankOptions::default(),
            cache_results: true,
            dist_cache: ShardedLru::new(DIST_CACHE_SHARDS, DIST_CACHE_CAP),
            result_cache: ShardedLru::new(RESULT_CACHE_SHARDS, RESULT_CACHE_CAP),
        }
    }

    /// The API under query.
    #[must_use]
    pub fn api(&self) -> &Api {
        &self.api
    }

    /// The jungloid graph under query.
    #[must_use]
    pub fn graph(&self) -> &JungloidGraph {
        &self.graph
    }

    /// Point-in-time engine facts for serving introspection (`/status`):
    /// the graph epoch and current cache occupancy. Hit/miss *counters*
    /// live in the global metric registry (`engine.result_cache.hits`
    /// etc.); this surfaces the state only the engine can see.
    #[must_use]
    pub fn status(&self) -> EngineStatus {
        EngineStatus {
            graph_epoch: self.graph.epoch(),
            result_cache_entries: self.result_cache.len() as u64,
            dist_cache_entries: self.dist_cache.len() as u64,
        }
    }

    /// Splices mined example jungloids into the graph, optionally
    /// generalizing them first (§4.2). Returns how many distinct paths
    /// were added.
    ///
    /// Examples that call members the synthesizer may not suggest
    /// (protected members unless `include_protected`, private members
    /// always) are skipped: the corpus could legally call them from its own
    /// package, but the suggestion would not compile in the user's code.
    /// This reproduces the paper's Table 1 failure on
    /// `(AbstractGraphicalEditPart, ConnectionLayer)` — and flipping
    /// [`GraphConfig::include_protected`] implements the fix §7 proposes.
    ///
    /// The batch is spliced all or nothing, in one CSR rebuild
    /// ([`JungloidGraph::add_examples`]).
    ///
    /// # Errors
    ///
    /// Propagates [`ExampleError`] for ill-typed examples; the graph, its
    /// epoch and the caches are then unchanged.
    pub fn add_examples(
        &mut self,
        examples: &[Vec<ElemJungloid>],
        generalize_first: bool,
    ) -> Result<usize, ExampleError> {
        self.splice_examples(examples, generalize_first, generalize)
    }

    /// The §4.3 extension: splices *parameter-mined* examples — chains
    /// ending in a call whose `Object`/`String` parameter the example
    /// feeds. With [`GraphConfig::restrict_weak_params`] set, these are
    /// the only way to synthesize code that passes values into such
    /// parameters, which removes the "any Object will do" inviable
    /// jungloids §4.3 describes.
    ///
    /// # Errors
    ///
    /// Propagates [`ExampleError`] for ill-typed examples.
    pub fn add_param_examples(
        &mut self,
        examples: &[Vec<ElemJungloid>],
        generalize_first: bool,
    ) -> Result<usize, ExampleError> {
        self.splice_examples(examples, generalize_first, generalize_terminal)
    }

    /// The body of [`Prospector::add_examples`] and
    /// [`Prospector::add_param_examples`]: keeps the visible examples,
    /// runs `generalizer` over them if `generalize_first`, and splices
    /// the result. A successful splice empties both caches.
    fn splice_examples(
        &mut self,
        examples: &[Vec<ElemJungloid>],
        generalize_first: bool,
        generalizer: impl FnOnce(&[Vec<ElemJungloid>]) -> Vec<Vec<ElemJungloid>>,
    ) -> Result<usize, ExampleError> {
        let config = self.graph.config();
        let visible: Vec<Vec<ElemJungloid>> = examples
            .iter()
            .filter(|e| e.iter().all(|elem| self.elem_visible(elem, config)))
            .cloned()
            .collect();
        let prepared: Vec<Vec<ElemJungloid>> = if generalize_first {
            let _span = prospector_obs::stage(Stage::Generalize);
            generalizer(&visible)
        } else {
            visible
        };
        // All or nothing: an ill-typed example fails the batch before the
        // graph changes, so the caches stay valid on `Err`.
        let added = self.graph.add_examples(&self.api, &prepared)?;
        // The graph changed shape under `&mut self`, so no query is in
        // flight: every cached field and answer is stale.
        self.dist_cache.clear();
        self.result_cache.clear();
        Ok(added)
    }

    fn elem_visible(&self, elem: &ElemJungloid, config: crate::graph::GraphConfig) -> bool {
        use jungloid_apidef::Visibility;
        let vis = match *elem {
            ElemJungloid::Call { method, .. } => self.api.method(method).visibility(),
            ElemJungloid::FieldAccess { field } => self.api.field(field).visibility(),
            _ => return true,
        };
        match vis {
            Visibility::Public => true,
            Visibility::Protected => config.include_protected,
            Visibility::Private => false,
        }
    }

    /// The distance field for a search towards `target`, plus whether
    /// this lookup hit the cache (the caller counts which). `source` is
    /// an explicit query's input, which a bounded field may serve; `None`
    /// (assist's multi-source scope) needs a complete field.
    ///
    /// A cached field that covers the query is a hit: a complete one, or
    /// a bounded one for the same source whose window is at least as
    /// wide. On a miss, an explicit query with nothing cached builds the
    /// bounded field; anything else builds the complete field, which
    /// replaces the entry. A complete entry is never replaced by a
    /// bounded one, even by a racing build.
    fn distances(
        &self,
        source: Option<TyId>,
        target: TyId,
        scratch: &mut SearchScratch,
    ) -> (Arc<DistanceField>, bool) {
        let extra = self.search.extra_steps;
        let cached = self.dist_cache.get(&target);
        let covers = |field: &DistanceField| match source {
            Some(s) => field.covers(s, extra),
            None => field.is_complete(),
        };
        if let Some(field) = cached.as_ref().filter(|f| covers(f)) {
            return (Arc::clone(field), true);
        }
        let field = match (source, cached) {
            (Some(s), None) => DistanceField::bounded(&self.graph, s, target, extra, scratch),
            _ => DistanceField::towards(&self.graph, target),
        };
        let field = Arc::new(field);
        let evicted =
            self.dist_cache.insert_unless(target, Arc::clone(&field), |old| old.is_complete());
        if evicted > 0 {
            prospector_obs::add(Counter::EngineDistCacheEvictions, evicted as u64);
        }
        (field, false)
    }

    /// Answers an explicit query `(tin, tout)` (§2.1). `tin` may be
    /// `void`.
    ///
    /// # Errors
    ///
    /// Rejects primitive/`void` outputs and primitive inputs.
    pub fn query(&self, tin: TyId, tout: TyId) -> Result<QueryResult, QueryError> {
        self.query_with_trace(tin, tout, TraceId::next())
    }

    /// [`Prospector::query`] under a caller-allocated trace id — the
    /// form the batch fan-out uses so ids follow input order, and the
    /// form a server uses to report the id it logged.
    ///
    /// # Errors
    ///
    /// Rejects primitive/`void` outputs and primitive inputs.
    pub fn query_with_trace(
        &self,
        tin: TyId,
        tout: TyId,
        id: TraceId,
    ) -> Result<QueryResult, QueryError> {
        self.check_out(tout)?;
        if tin != self.api.types().void() && !self.api.types().is_reference(tin) {
            return Err(QueryError::NotAReferenceType {
                ty: self.api.types().display(tin),
                position: "input",
            });
        }
        if !self.cache_results {
            return Ok(self.run(&[(None, tin)], Some(tin), tout, id).0);
        }
        // As in `distances`: look up under the shard lock, run the
        // pipeline outside it, insert. Racing misses on one key each run
        // the deterministic pipeline and insert equal answers.
        let key = QueryKey { tin, tout, search: self.search, ranking: self.ranking };
        if let Some(cached) = self.result_cache.get(&key) {
            return Ok(self.replay_cached(&cached, id));
        }
        prospector_obs::add(Counter::EngineResultCacheMisses, 1);
        let (mut result, _) = self.run(&[(None, tin)], Some(tin), tout, id);
        result.stats.result_cache_misses = 1;
        let evicted = self.result_cache.insert(key, Arc::new(result.clone()));
        if evicted > 0 {
            prospector_obs::add(Counter::EngineResultCacheEvictions, evicted as u64);
        }
        Ok(result)
    }

    /// Clones a cached result for one more caller: same suggestions, rank
    /// keys, and truncation byte-for-byte, but fresh per-query stats —
    /// the hit paid for none of the pipeline, so every cost counter is 0
    /// and only the hit marker (and the caller's own trace id) is set.
    fn replay_cached(&self, cached: &QueryResult, id: TraceId) -> QueryResult {
        let mut qspan = trace::span(id);
        qspan.add(Counter::EngineResultCacheHits, 1);
        let mut result = cached.clone();
        result.stats =
            QueryStats { trace_id: id.0, result_cache_hits: 1, ..QueryStats::default() };
        qspan.finish();
        result
    }

    /// Answers a batch of explicit queries concurrently, fanning out
    /// across `std::thread::scope` workers that share the immutable CSR
    /// graph and the sharded distance cache. Worker count defaults to the
    /// machine's available parallelism (capped at the batch size); a
    /// one-query batch skips that lookup, which reads `/proc` and cgroup
    /// files and would cost more than a cached answer.
    ///
    /// Results come back in input order, and each slot is exactly what
    /// [`Prospector::query`] would have produced for that pair — ranking
    /// runs per-query inside the workers, so serial and batched runs are
    /// byte-identical.
    #[must_use]
    pub fn query_batch(&self, queries: &[(TyId, TyId)]) -> Vec<BatchEntry> {
        let threads = if queries.len() > 1 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            1
        };
        self.query_batch_threads(queries, threads)
    }

    /// [`Prospector::query_batch`] with an explicit worker count
    /// (clamped to `1..=queries.len()`). One worker runs on the caller's
    /// thread, so a server's one-query batch spawns nothing and keeps its
    /// thread's search scratch across requests.
    #[must_use]
    pub fn query_batch_threads(&self, queries: &[(TyId, TyId)], threads: usize) -> Vec<BatchEntry> {
        let _span = prospector_obs::stage(Stage::Batch);
        let threads = threads.clamp(1, queries.len().max(1));
        prospector_obs::add(Counter::EngineBatchCalls, 1);
        prospector_obs::add(Counter::EngineBatchQueries, queries.len() as u64);
        prospector_obs::gauge_set(Gauge::EngineBatchThreads, threads as u64);
        // Trace ids are allocated here, in input order, not inside the
        // workers: the id sequence of a batch is then a pure function of
        // the recorder seed, whatever the thread interleaving does.
        let ids: Vec<TraceId> = queries.iter().map(|_| TraceId::next()).collect();
        let one = |i: usize| {
            let (tin, tout) = queries[i];
            let start = Instant::now();
            let result = self.query_with_trace(tin, tout, ids[i]);
            BatchEntry { tin, tout, trace_id: ids[i], result, time: start.elapsed() }
        };
        let entries: Vec<BatchEntry> = if threads == 1 {
            (0..queries.len()).map(one).collect()
        } else {
            let mut slots: Vec<Option<BatchEntry>> = Vec::new();
            slots.resize_with(queries.len(), || None);
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut done: Vec<(usize, BatchEntry)> = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= queries.len() {
                                    break;
                                }
                                done.push((i, one(i)));
                            }
                            done
                        })
                    })
                    .collect();
                for handle in handles {
                    for (i, entry) in handle.join().expect("batch worker panicked") {
                        slots[i] = Some(entry);
                    }
                }
            });
            slots.into_iter().map(|s| s.expect("every batch slot filled")).collect()
        };
        let errors = entries.iter().filter(|e| e.result.is_err()).count();
        if errors > 0 {
            prospector_obs::add(Counter::EngineBatchErrors, errors as u64);
        }
        entries
    }

    /// Content-assist query (§5): find code producing `tout` from any
    /// lexically visible variable, or from nothing (`void`).
    ///
    /// # Errors
    ///
    /// Rejects primitive/`void` outputs.
    pub fn assist(&self, visible: &[(&str, TyId)], tout: TyId) -> Result<QueryResult, QueryError> {
        self.check_out(tout)?;
        let _span = prospector_obs::stage(Stage::Assist);
        prospector_obs::add(Counter::EngineAssistCalls, 1);
        let mut sources: Vec<(Option<String>, TyId)> = Vec::new();
        for (name, ty) in visible {
            if self.api.types().is_reference(*ty) {
                sources.push((Some((*name).to_owned()), *ty));
            }
        }
        sources.push((None, self.api.types().void()));
        prospector_obs::add(Counter::EngineAssistSources, sources.len() as u64);
        let (mut result, field) = self.run(&sources, None, tout, TraceId::next());
        // Attribute the fan-out: the field the fused search used answers,
        // per sub-query source, whether it can reach `tout` at all.
        let reachable = sources
            .iter()
            .filter(|(_, ty)| field.from(&self.graph, NodeId::Ty(*ty)) != u32::MAX)
            .count() as u64;
        prospector_obs::add(Counter::EngineAssistReachable, reachable);
        prospector_obs::add(Counter::EngineAssistUnreachable, sources.len() as u64 - reachable);
        for (name, ty) in visible {
            if self.api.types().is_subtype(*ty, tout) {
                result.already_available.push((*name).to_owned());
            }
        }
        prospector_obs::add(Counter::EngineAssistAlreadyAvailable,
            result.already_available.len() as u64,
        );
        Ok(result)
    }

    fn check_out(&self, tout: TyId) -> Result<(), QueryError> {
        let kind = self.api.types().ty(tout);
        if !self.api.types().is_reference(tout) || matches!(kind, Ty::Null) {
            return Err(QueryError::NotAReferenceType {
                ty: self.api.types().display(tout),
                position: "output",
            });
        }
        Ok(())
    }

    /// The pipeline: search, synthesize, rank. `bounded_source` is the
    /// explicit query's input (see [`Prospector::distances`]). Returns
    /// the result and the distance field the search used.
    fn run(
        &self,
        sources: &[(Option<String>, TyId)],
        bounded_source: Option<TyId>,
        tout: TyId,
        id: TraceId,
    ) -> (QueryResult, Arc<DistanceField>) {
        // The flight-recorder span. When tracing is disabled (the
        // default) opening it costs one relaxed atomic load, every `add`
        // below is the global counter add plus a plain branch, and each
        // stage span reads the clock only if metrics are on. Each
        // per-query quantity is recorded here, once.
        let mut qspan = trace::span(id);
        let tys: Vec<TyId> = sources.iter().map(|(_, t)| *t).collect();
        let (outcome, field, cache_hit) = {
            let _span = qspan.stage(Stage::Search);
            SCRATCH.with(|scratch| {
                let scratch = &mut scratch.borrow_mut();
                let (field, cache_hit) = self.distances(bounded_source, tout, scratch);
                let outcome =
                    enumerate_with(&self.graph, &tys, tout, &field, &self.search, scratch);
                (outcome, field, cache_hit)
            })
        };
        let relaxations = if cache_hit { 0 } else { field.relaxations() };
        let SearchOutcome { jungloids, shortest, truncation, expansions } = outcome;
        let stats = QueryStats {
            trace_id: id.0,
            dist_cache_hits: u64::from(cache_hit),
            dist_cache_misses: u64::from(!cache_hit),
            dfs_expansions: expansions as u64,
            bfs_relaxations: relaxations,
            result_cache_hits: 0,
            result_cache_misses: 0,
        };
        if cache_hit {
            qspan.add(Counter::EngineDistCacheHits, 1);
        } else {
            qspan.add(Counter::EngineDistCacheMisses, 1);
            qspan.add(Counter::SearchBfsRelaxations, relaxations);
        }
        qspan.add(Counter::SearchDfsExpansions, stats.dfs_expansions);
        qspan.add(Counter::SearchPathsEnumerated, jungloids.len() as u64);
        match truncation {
            TruncationReason::None => {}
            TruncationReason::PathCap => qspan.add(Counter::SearchTruncatedPathCap, 1),
            TruncationReason::ExpansionCap => qspan.add(Counter::SearchTruncatedExpansionCap, 1),
        }

        // Render, rank, and dedupe by rendered code (distinct paths —
        // e.g. differing only in widening — can render identically).
        let mut suggestions: Vec<Suggestion> = Vec::with_capacity(jungloids.len());
        let snippets = jungloids.len() as u64;
        {
            let _span = qspan.stage(Stage::Synth);
            // An unnamed source's input renders under the name
            // `synthesize` would give it, derived once per query here
            // rather than once per candidate.
            let void = self.api.types().void();
            let unnamed: Vec<(TyId, String)> = sources
                .iter()
                .filter(|(name, t)| name.is_none() && *t != void)
                .map(|(_, t)| (*t, default_name(&self.api, *t)))
                .collect();
            for j in jungloids {
                let input_var = sources
                    .iter()
                    .find(|(name, t)| *t == j.source && name.is_some())
                    .and_then(|(name, _)| name.clone());
                let input_name = input_var.as_deref().or_else(|| {
                    unnamed.iter().find(|(t, _)| *t == j.source).map(|(_, name)| name.as_str())
                });
                let code = render_code(&self.api, &j, input_name);
                let key = rank_key(&self.api, &j, code.clone(), &self.ranking);
                suggestions.push(Suggestion { jungloid: j, code, input_var, key });
            }
            // A stable sort by (code, key) puts each code's copies in a
            // run, best key first and equal keys in enumeration order;
            // the first of each run survives. It also leaves the
            // survivors in code order, so the rank sort below starts from
            // a deterministic order (and its comparison count, which the
            // flight recorder attributes to the query, is one too).
            suggestions.sort_by(|a, b| a.code.cmp(&b.code).then_with(|| a.key.cmp(&b.key)));
            suggestions.dedup_by(|later, first| later.code == first.code);
        }
        qspan.add(Counter::SynthSnippets, snippets);
        qspan.add(Counter::EngineDedupDrops, snippets - suggestions.len() as u64);

        let comparisons = std::cell::Cell::new(0u64);
        {
            let _span = qspan.stage(Stage::Rank);
            suggestions.sort_by(|a, b| {
                comparisons.set(comparisons.get() + 1);
                a.key.cmp(&b.key)
            });
        }
        qspan.add(Counter::RankComparisons, comparisons.get());

        qspan.finish();
        let result = QueryResult {
            suggestions: Arc::new(suggestions),
            shortest,
            truncation,
            already_available: Vec::new(),
            stats,
        };
        (result, field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::ApiLoader;
    use prospector_obs::trace::EventKind;

    /// The paper's running example (§1): parsing an IFile into an AST.
    fn eclipse_mini() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "jdt.api",
                r"
                package org.eclipse.core.resources;
                public interface IFile { String getName(); }
                package org.eclipse.jdt.core;
                public interface ICompilationUnit {}
                public class JavaCore {
                    static ICompilationUnit createCompilationUnitFrom(org.eclipse.core.resources.IFile file);
                }
                package org.eclipse.jdt.core.dom;
                public class ASTNode {}
                public class CompilationUnit extends ASTNode {}
                public class AST {
                    static CompilationUnit parseCompilationUnit(org.eclipse.jdt.core.ICompilationUnit cu, boolean resolve);
                }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    #[test]
    fn intro_example_rank_one() {
        let api = eclipse_mini();
        let ifile = api.types().resolve("IFile").unwrap();
        let ast = api.types().resolve("ASTNode").unwrap();
        let p = Prospector::new(api);
        let result = p.query(ifile, ast).unwrap();
        assert_eq!(result.shortest, Some(2));
        let top = &result.suggestions[0];
        assert_eq!(
            top.code,
            "AST.parseCompilationUnit(JavaCore.createCompilationUnitFrom(file), resolve)"
        );
        // grep-for-ASTNode fails (§1) because the return type is the
        // subclass CompilationUnit; the graph finds it through widening.
        assert_eq!(
            top.jungloid.concrete_output_ty(p.api()),
            p.api().types().resolve("CompilationUnit").unwrap()
        );
    }

    #[test]
    fn assist_finds_void_sources_and_matches_variables() {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "ui.api",
                r"
                package ui;
                public interface IEditorInput {}
                public interface IEditorPart { IEditorInput getEditorInput(); }
                public interface IDocumentProvider {}
                public class DocumentProviderRegistry {
                    static DocumentProviderRegistry getDefault();
                    IDocumentProvider getDocumentProvider(IEditorInput input);
                }
                ",
            )
            .unwrap();
        let api = loader.finish().unwrap();
        let part = api.types().resolve("IEditorPart").unwrap();
        let inp = api.types().resolve("IEditorInput").unwrap();
        let reg = api.types().resolve("DocumentProviderRegistry").unwrap();
        let p = Prospector::new(api);

        // §2.2: the free-variable query for DocumentProviderRegistry —
        // visible objects cannot produce one; the void query can.
        let result = p.assist(&[("ep", part), ("inp", inp)], reg).unwrap();
        assert_eq!(result.suggestions[0].code, "DocumentProviderRegistry.getDefault()");
        assert!(result.suggestions[0].input_var.is_none());
        assert!(result.already_available.is_empty());

        // And the document-provider query uses the matched variable name.
        let dp = p.api().types().resolve("IDocumentProvider").unwrap();
        let result = p.assist(&[("ep", part), ("inp", inp)], dp).unwrap();
        let top = &result.suggestions[0];
        assert!(top.code.contains("getDocumentProvider(inp)"), "got {}", top.code);
        assert_eq!(top.input_var.as_deref(), Some("inp"));
    }

    #[test]
    fn assist_reports_already_available() {
        let api = eclipse_mini();
        let ast = api.types().resolve("ASTNode").unwrap();
        let cu = api.types().resolve("CompilationUnit").unwrap();
        let p = Prospector::new(api);
        let result = p.assist(&[("unit", cu)], ast).unwrap();
        assert_eq!(result.already_available, vec!["unit".to_owned()]);
    }

    #[test]
    fn non_reference_queries_rejected() {
        let api = eclipse_mini();
        let void = api.types().void();
        let int = api.types().prim(jungloid_typesys::Prim::Int);
        let ifile = api.types().resolve("IFile").unwrap();
        let p = Prospector::new(api);
        assert!(p.query(ifile, void).is_err());
        assert!(p.query(ifile, int).is_err());
        assert!(p.query(int, ifile).is_err());
        // void as *input* is fine.
        assert!(p.query(void, ifile).is_ok());
    }

    #[test]
    fn unsatisfiable_query_is_empty_not_error() {
        let api = eclipse_mini();
        let ast = api.types().resolve("ASTNode").unwrap();
        let ifile = api.types().resolve("IFile").unwrap();
        let p = Prospector::new(api);
        let result = p.query(ast, ifile).unwrap();
        assert!(result.suggestions.is_empty());
        assert_eq!(result.shortest, None);
    }

    #[test]
    fn mined_examples_change_answers() {
        use jungloid_apidef::elem::elems_of_method;
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "sel.api",
                r"
                package ui;
                public interface ISelection {}
                public interface IStructuredSelection extends ISelection { Object getFirstElement(); }
                public class SelectionChangedEvent { ISelection getSelection(); }
                ",
            )
            .unwrap();
        let api = loader.finish().unwrap();
        let event = api.types().resolve("SelectionChangedEvent").unwrap();
        let sel = api.types().resolve("ISelection").unwrap();
        let structured = api.types().resolve("IStructuredSelection").unwrap();
        let get_sel = elems_of_method(&api, api.lookup_instance_method(event, "getSelection", 0)[0])[0];

        let mut p = Prospector::new(api);
        // Without mining, the downcast query has no answer.
        assert!(p.query(event, structured).unwrap().suggestions.is_empty());

        p.add_examples(
            &[vec![get_sel, ElemJungloid::Downcast { from: sel, to: structured }]],
            false,
        )
        .unwrap();
        let result = p.query(event, structured).unwrap();
        assert_eq!(
            result.suggestions[0].code,
            "(IStructuredSelection) selectionChangedEvent.getSelection()"
        );
    }

    #[test]
    fn dedupe_keeps_best_ranked_duplicate() {
        // Two widening routes can render the same code; only one survives.
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "d.api",
                r"
                package d;
                public interface I {}
                public interface J extends I {}
                public class X implements J { Y make(); }
                public class Y implements J, I {}
                ",
            )
            .unwrap();
        let api = loader.finish().unwrap();
        let x = api.types().resolve("d.X").unwrap();
        let i = api.types().resolve("d.I").unwrap();
        let p = Prospector::new(api);
        let result = p.query(x, i).unwrap();
        // Y -> J -> I and Y -> I both render `x.make()`.
        assert_eq!(result.suggestions.len(), 1);
        assert_eq!(result.suggestions[0].code, "x.make()");
    }

    /// The acceptance pin for the flight recorder's disabled cost: a
    /// full query with tracing off publishes zero events, and enabling
    /// tracing changes nothing about the ranked output. This is the only
    /// core test that flips the global trace switch (the `event_count ==
    /// 0` assertion runs before the flip, so parallel tests — which never
    /// enable tracing — cannot race it).
    #[test]
    fn tracing_off_records_nothing_and_results_are_identical() {
        let api = eclipse_mini();
        let ifile = api.types().resolve("IFile").unwrap();
        let ast = api.types().resolve("ASTNode").unwrap();
        let mut p = Prospector::new(api);
        // Caching off: both runs must exercise the full pipeline (the
        // traced repeat would otherwise be a result-cache hit with no
        // search events to assert on).
        p.cache_results = false;

        assert!(!prospector_obs::trace::enabled(), "tracing is off by default");
        let baseline = p.query(ifile, ast).unwrap();
        assert_eq!(prospector_obs::trace::event_count(), 0, "disabled query published events");

        prospector_obs::trace::set_enabled(true);
        let traced = p.query(ifile, ast).unwrap();
        prospector_obs::trace::set_enabled(false);

        let codes = |r: &QueryResult| -> Vec<String> {
            r.suggestions.iter().map(|s| s.code.clone()).collect()
        };
        assert_eq!(codes(&baseline), codes(&traced), "tracing must not perturb ranking");
        assert!(prospector_obs::trace::event_count() > 0, "enabled query published a timeline");
        let id = prospector_obs::trace::TraceId(traced.stats.trace_id);
        let events = prospector_obs::trace::events_for(id);
        assert!(!events.is_empty(), "timeline retained under the query's id");
        assert!(events.iter().any(|e| e.kind == EventKind::Query));
        assert!(events.iter().any(|e| e.kind == EventKind::Count(Counter::SearchDfsExpansions)));
    }

    #[test]
    fn per_query_stats_split_cache_hits_from_misses() {
        let api = eclipse_mini();
        let ifile = api.types().resolve("IFile").unwrap();
        let ast = api.types().resolve("ASTNode").unwrap();
        let mut p = Prospector::new(api);

        let first = p.query(ifile, ast).unwrap();
        assert_eq!(first.stats.dist_cache_hits, 0);
        assert_eq!(first.stats.dist_cache_misses, 1);
        assert!(first.stats.bfs_relaxations > 0, "the miss paid for the BFS build");
        assert!(first.stats.dfs_expansions > 0);
        assert_eq!(first.stats.result_cache_hits, 0);
        assert_eq!(first.stats.result_cache_misses, 1);

        // A different search config is a different result-cache key, but
        // the same `tout` — so this query misses the result cache while
        // hitting the distance cache, and the stats must say so.
        p.search.extra_steps = 0;
        let second = p.query(ifile, ast).unwrap();
        assert_eq!(second.stats.result_cache_misses, 1);
        assert_eq!(second.stats.dist_cache_hits, 1);
        assert_eq!(second.stats.dist_cache_misses, 0);
        assert_eq!(second.stats.bfs_relaxations, 0, "dist hits charge no BFS work");
        assert!(second.stats.dfs_expansions > 0);
        assert_ne!(second.stats.trace_id, first.stats.trace_id, "each query gets its own id");

        // Repeating the original query is a result-cache hit: no pipeline
        // work at all, only the hit marker and a fresh trace id.
        p.search.extra_steps = 1;
        let third = p.query(ifile, ast).unwrap();
        assert_eq!(third.stats.result_cache_hits, 1);
        assert_eq!(third.stats.result_cache_misses, 0);
        assert_eq!(third.stats.dist_cache_hits + third.stats.dist_cache_misses, 0);
        assert_eq!(third.stats.dfs_expansions, 0);
        assert_eq!(third.stats.bfs_relaxations, 0);
        assert_ne!(third.stats.trace_id, first.stats.trace_id);
    }

    /// The acceptance pin for cached-hit determinism: a result-cache hit
    /// must be byte-identical — suggestion codes, rank keys, truncation,
    /// shortest length — to what the uncached pipeline produces for the
    /// same query, with only the per-query stats differing.
    #[test]
    fn result_cache_hit_is_byte_identical_to_the_pipeline() {
        let ids = |api: &Api| {
            (api.types().resolve("IFile").unwrap(), api.types().resolve("ASTNode").unwrap())
        };
        let cached_engine = Prospector::new(eclipse_mini());
        let mut raw_engine = Prospector::new(eclipse_mini());
        raw_engine.cache_results = false;

        let (ifile, ast) = ids(cached_engine.api());
        let miss = cached_engine.query(ifile, ast).unwrap();
        let hit = cached_engine.query(ifile, ast).unwrap();
        assert_eq!(hit.stats.result_cache_hits, 1, "second identical query must hit");
        let raw = raw_engine.query(ifile, ast).unwrap();
        assert_eq!(raw.stats.result_cache_misses, 0, "caching disabled leaves stats untouched");

        for other in [&miss, &raw] {
            assert_eq!(hit.shortest, other.shortest);
            assert_eq!(hit.truncation, other.truncation);
            assert_eq!(hit.suggestions.len(), other.suggestions.len());
            for (a, b) in hit.suggestions.iter().zip(other.suggestions.iter()) {
                assert_eq!(a.code, b.code);
                assert_eq!(a.key, b.key);
                assert_eq!(a.input_var, b.input_var);
                assert_eq!(a.jungloid.source, b.jungloid.source);
                assert_eq!(a.jungloid.elems, b.jungloid.elems);
            }
        }
    }

    #[test]
    fn batch_preallocates_trace_ids_in_input_order() {
        let api = eclipse_mini();
        let ifile = api.types().resolve("IFile").unwrap();
        let ast = api.types().resolve("ASTNode").unwrap();
        let cu = api.types().resolve("ICompilationUnit").unwrap();
        let p = Prospector::new(api);
        let queries = vec![(ifile, ast), (ifile, cu), (ifile, ast), (ifile, cu)];
        let batch = p.query_batch_threads(&queries, 4);
        assert_eq!(batch.len(), 4);
        for window in batch.windows(2) {
            assert!(
                window[0].trace_id < window[1].trace_id,
                "ids follow input order regardless of worker interleaving"
            );
        }
        for entry in &batch {
            let result = entry.result.as_ref().unwrap();
            assert_eq!(result.stats.trace_id, entry.trace_id.0);
        }
    }

    #[test]
    fn rank_where_is_one_based() {
        let api = eclipse_mini();
        let ifile = api.types().resolve("IFile").unwrap();
        let ast = api.types().resolve("ASTNode").unwrap();
        let p = Prospector::new(api);
        let result = p.query(ifile, ast).unwrap();
        assert_eq!(result.rank_where(|s| s.code.contains("parseCompilationUnit")), Some(1));
        assert_eq!(result.rank_where(|s| s.code.contains("nope")), None);
    }
}
