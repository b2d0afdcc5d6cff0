//! The traced run's per-layer breakdown.
//!
//! A second engine, loaded from the same snapshot, is fed the same
//! warm-up and request stream in order through the public calls the
//! server makes — framing, tenant routing, type resolution, the engine
//! call — so its cache outcomes match the served run by construction.
//! For each request that ran the search pipeline the layer functions are
//! then called once more on their own (0-1 BFS on a distance-cache miss,
//! DFS enumeration, synthesis, rank keys and sort) and timed, each inside
//! a span of the benchmark's own. Replayed calls run serially, so the
//! engine-layer shares of a served round trip are estimates.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use jungloid_apidef::Api;
use jungloid_typesys::TyId;
use prospector_cli::http::{Framed, RequestFramer};
use prospector_core::rank::rank_key;
use prospector_core::search::enumerate_with;
use prospector_core::synth::synthesize;
use prospector_core::{DistanceField, SearchScratch};
use prospector_obs::Json;
use prospector_registry::Registry;

use crate::client::ClientSpan;
use crate::plan::{Call, Plan, Req};

/// One span: `name` over `start_ns..end_ns` (since the tracer's epoch),
/// caused by span `parent` (0 for a root), for request `req`
/// (`t<i>` timed, `w<i>` warm-up).
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    req: String,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory and written once, at the end of the run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: &str,
        from: Instant,
        to: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            req: req.to_owned(),
            start_ns: ns(from - self.epoch),
            end_ns: ns(to - self.epoch),
        });
        id
    }

    /// Adds the socket phase's client spans; `phase_start` is the
    /// instant their offsets count from.
    pub fn add_client(&mut self, phase_start: Instant, spans: &[ClientSpan]) {
        for s in spans {
            let base = ns(phase_start - self.epoch);
            let id = self.spans.len() as u64 + 1;
            self.spans.push(Span {
                id,
                parent: 0,
                name: "client.request",
                req: format!("t{}", s.req),
                start_ns: base + s.start_ns,
                end_ns: base + s.end_ns,
            });
        }
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &str) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            let line = Json::obj(vec![
                ("id", Json::num_u(s.id)),
                ("parent", Json::num_u(s.parent)),
                ("name", Json::Str(s.name.to_owned())),
                ("req", Json::Str(s.req.clone())),
                ("start_ns", Json::num_u(s.start_ns)),
                ("end_ns", Json::num_u(s.end_ns)),
            ]);
            writeln!(out, "{}", line.to_text()).map_err(|e| format!("{path}: {e}"))?;
        }
        out.flush().map_err(|e| format!("{path}: {e}"))
    }
}

/// Per-layer sums over the replayed timed requests.
#[derive(Default)]
pub struct Layers {
    pub requests: u64,
    pub frame_ns: u64,
    pub registry_ns: u64,
    pub typesys_ns: u64,
    pub call_ns: u64,
    pub fanout_ns: u64,
    pub bfs_ns: u64,
    pub dfs_ns: u64,
    pub synth_ns: u64,
    pub rank_ns: u64,
    pub bfs_relaxations: u64,
    pub dfs_runs: u64,
    pub dfs_expansions: u64,
    pub paths: u64,
    pub truncated: u64,
    pub snippets: u64,
    pub unique_codes: u64,
    pub result_hits: u64,
    pub dist_hits: u64,
    pub dist_misses: u64,
    /// Requests whose directly-called pipeline ranked a different top 5
    /// than the engine call returned.
    pub mismatches: u64,
}

/// Everything one request's replay needs besides the request.
struct Replayer<'a> {
    registry: &'a Registry,
    framer: RequestFramer,
    scratch: SearchScratch,
    /// Distance fields for requests that hit the engine's distance
    /// cache, built untimed on first use.
    fields: HashMap<TyId, Arc<DistanceField>>,
    tracer: &'a mut Tracer,
}

/// Replays the warm-up and the first `timed` requests of the stream (as
/// many as fit in `budget`), returning the layer sums over the timed ones.
pub fn replay(
    snapshot: &str,
    plan: &Plan,
    timed: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<Layers, String> {
    let (engine, provenance) = prospector_registry::load_engine(snapshot, true)?;
    let registry = Registry::with_default(engine, provenance);
    let mut r = Replayer {
        registry: &registry,
        framer: RequestFramer::new(),
        scratch: SearchScratch::new(),
        fields: HashMap::new(),
        tracer,
    };
    let mut warm = Layers::default();
    for (w, req) in plan.warmup().iter().enumerate() {
        r.one(req, &format!("w{w}"), &mut warm)?;
    }
    let mut layers = Layers::default();
    let started = Instant::now();
    for i in 0..timed {
        if started.elapsed() >= budget {
            break;
        }
        let req = plan.timed(i).ok_or("replay ran past the stream")?;
        r.one(&req, &format!("t{i}"), &mut layers)?;
    }
    Ok(layers)
}

impl Replayer<'_> {
    fn one(&mut self, req: &Req, id: &str, sums: &mut Layers) -> Result<(), String> {
        let begin = Instant::now();
        let mut spans: Vec<(&'static str, Instant, Instant)> = Vec::new();
        let mut lap = |name, from: Instant| {
            let to = Instant::now();
            spans.push((name, from, to));
            ns(to - from)
        };

        let raw = req.raw();
        let t = Instant::now();
        self.framer.push(&raw);
        let framed = self.framer.next();
        sums.frame_ns += lap("http.frame", t);
        let Framed::Request(parsed) = framed else {
            return Err(format!("framer rejected {}", req.target()));
        };
        if parsed.path != req.target() {
            return Err(format!("framer read {} for {}", parsed.path, req.target()));
        }

        let t = Instant::now();
        let tenant = self.registry.resolve(None).map_err(|e| e.to_string())?;
        let engine = tenant.engine();
        sums.registry_ns += lap("registry.resolve", t);
        tenant.record_query();

        let t = Instant::now();
        let tys = req
            .type_names()
            .iter()
            .map(|n| engine.api().types().resolve(n))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        sums.typesys_ns += lap("typesys.resolve", t);
        let tout = *tys.last().expect("every request names a tout");

        let t = Instant::now();
        let (result, sources, names) = match &req.call {
            Call::Query { .. } => {
                let entry = engine
                    .query_batch(&[(tys[0], tout)])
                    .pop()
                    .ok_or("empty batch result")?;
                let wall = lap("engine.call", t);
                sums.call_ns += wall;
                sums.fanout_ns += wall.saturating_sub(ns(entry.time));
                (
                    entry.result.map_err(|e| e.to_string())?,
                    vec![tys[0]],
                    Vec::new(),
                )
            }
            Call::Assist { vars, .. } => {
                let visible: Vec<(&str, _)> = vars
                    .iter()
                    .map(|(n, _)| n.as_str())
                    .zip(tys.iter().copied())
                    .collect();
                let result = engine.assist(&visible, tout).map_err(|e| e.to_string())?;
                sums.call_ns += lap("engine.call", t);
                // The engine's assist sources: reference-typed variables
                // in scope order, then `void`.
                let api_types = engine.api().types();
                let named: Vec<(Option<&str>, _)> = visible
                    .iter()
                    .filter(|(_, ty)| api_types.is_reference(*ty))
                    .map(|&(n, ty)| (Some(n), ty))
                    .chain([(None, api_types.void())])
                    .collect();
                (result, named.iter().map(|&(_, ty)| ty).collect(), named)
            }
        };
        let stats = result.stats;
        sums.result_hits += stats.result_cache_hits;
        sums.dist_hits += stats.dist_cache_hits;
        sums.dist_misses += stats.dist_cache_misses;

        if stats.result_cache_hits == 0 {
            let graph = engine.graph();
            let field = if stats.dist_cache_misses > 0 {
                let t = Instant::now();
                let field = DistanceField::towards(graph, tout);
                sums.bfs_ns += lap("search.bfs", t);
                sums.bfs_relaxations += field.relaxations();
                Arc::new(field)
            } else {
                Arc::clone(
                    self.fields
                        .entry(tout)
                        .or_insert_with(|| Arc::new(DistanceField::towards(graph, tout))),
                )
            };

            let t = Instant::now();
            let outcome = enumerate_with(
                graph,
                &sources,
                tout,
                &field,
                &engine.search,
                &mut self.scratch,
            );
            sums.dfs_ns += lap("search.dfs", t);
            sums.dfs_runs += 1;
            sums.dfs_expansions += outcome.expansions as u64;
            sums.paths += outcome.jungloids.len() as u64;
            sums.truncated += u64::from(outcome.truncation.truncated());

            let api: &Api = engine.api();
            let input_name = |source| {
                names
                    .iter()
                    .find(|&&(n, ty)| ty == source && n.is_some())
                    .and_then(|&(n, _)| n)
            };
            let t = Instant::now();
            let codes: Vec<String> = outcome
                .jungloids
                .iter()
                .map(|j| synthesize(api, j, input_name(j.source)).code())
                .collect();
            sums.synth_ns += lap("synth.snippet", t);
            sums.snippets += codes.len() as u64;
            sums.unique_codes += codes.iter().collect::<HashSet<_>>().len() as u64;

            let t = Instant::now();
            let keys: Vec<_> = outcome
                .jungloids
                .iter()
                .zip(codes)
                .map(|(j, code)| rank_key(api, j, code, &engine.ranking))
                .collect();
            sums.rank_ns += lap("rank.key", t);
            // Dedup by code, keeping the best key, as the engine does.
            let mut best: BTreeMap<String, _> = BTreeMap::new();
            for key in keys {
                if best.get(&key.code).is_none_or(|k| *k > key) {
                    best.insert(key.code.clone(), key);
                }
            }
            let t = Instant::now();
            let mut ranked: Vec<_> = best.into_values().collect();
            ranked.sort();
            sums.rank_ns += lap("rank.sort", t);
            let top = ranked.iter().take(5).map(|k| k.code.as_str());
            if !top.eq(result.suggestions.iter().take(5).map(|s| s.code.as_str())) {
                sums.mismatches += 1;
            }
        }
        sums.requests += 1;
        let root = self
            .tracer
            .record("replay.request", 0, id, begin, Instant::now());
        for (name, from, to) in spans {
            self.tracer.record(name, root, id, from, to);
        }
        Ok(())
    }
}

/// One access-log line: the request's `trace_id` (0 for `/assist`) and
/// the server's own queue wait and handling time.
pub struct LogLine {
    pub trace_id: u64,
    pub queue_wait_us: u64,
    pub handle_us: u64,
}

/// The access-log lines in `[from, to)` of the log file.
pub fn access_log(path: &str, from: u64, to: u64) -> Result<Vec<LogLine>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let window = bytes
        .get(usize::try_from(from).unwrap_or(usize::MAX)..usize::try_from(to).unwrap_or(usize::MAX))
        .ok_or("access-log window past the end of the file")?;
    String::from_utf8_lossy(window)
        .lines()
        .map(|line| {
            let json = Json::parse(line).map_err(|e| format!("access-log line {line:?}: {e:?}"))?;
            let field = |k| {
                json.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("access-log line without {k}"))
            };
            Ok(LogLine {
                trace_id: field("trace_id")?,
                queue_wait_us: field("queue_wait_us")?,
                handle_us: field("handle_us")?,
            })
        })
        .collect()
}
