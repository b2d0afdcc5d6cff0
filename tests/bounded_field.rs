//! The bounded distance field against the complete one.
//!
//! `DistanceField::bounded` settles only the nodes a path within one
//! source's window can cross. The walk must prune over it exactly as over
//! `DistanceField::towards`: same jungloids in the same order, same `m`,
//! same truncation and the same expansion count. Checked on seeded random
//! APIs (subtyping, statics and constructors, so `void` sources and
//! widening-only pairs occur), the same APIs with spliced mined examples,
//! the corpus-mined Eclipse engine, and `synth` jungles at 10^3 types,
//! then once more through the engine and its cache policy. Chain APIs
//! pin where a complete field switches from byte slots to `u32` ones.
//!
//! Everything is drawn from seeded generators; failures reproduce by seed.

use jungloid_apidef::{Api, ApiLoader, ElemJungloid, MethodDef, Visibility};
use jungloid_typesys::{Prim, TyId, TypeKind};
use prospector_core::search::{enumerate_with, SearchOutcome};
use prospector_core::{
    DistanceField, GraphConfig, JungloidGraph, NodeId, Prospector, QueryResult, QueryStats,
    SearchConfig, SearchScratch,
};
use prospector_corpora::synth::{grow_synth, SynthSpec};
use prospector_obs::SmallRng;

/// A random API with subclassing, static methods and constructors.
fn random_api(seed: u64, n_classes: usize, n_methods: usize) -> Api {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut api = Api::new();
    api.types_mut().declare("java.lang", "Object", TypeKind::Class).unwrap();
    let mut classes = Vec::new();
    for i in 0..n_classes {
        let id = api.declare_class(&format!("p{}", rng.gen_range(0..3)), &format!("C{i}")).unwrap();
        if !classes.is_empty() && rng.gen_bool(0.4) {
            let sup = classes[rng.gen_range(0..classes.len())];
            api.types_mut().set_superclass(id, sup).unwrap();
        }
        classes.push(id);
    }
    for m in 0..n_methods {
        let declaring = classes[rng.gen_range(0..classes.len())];
        let is_ctor = rng.gen_bool(0.2);
        let is_static = !is_ctor && rng.gen_bool(0.3);
        let params: Vec<TyId> = (0..rng.gen_range(0..=2))
            .map(|_| {
                if rng.gen_bool(0.15) {
                    api.types().prim(Prim::Int)
                } else {
                    classes[rng.gen_range(0..classes.len())]
                }
            })
            .collect();
        let ret = if is_ctor { declaring } else { classes[rng.gen_range(0..classes.len())] };
        let _ = api.add_method(MethodDef {
            name: if is_ctor { "<init>".into() } else { format!("m{m}") },
            declaring,
            params,
            param_names: Vec::new(),
            ret,
            visibility: Visibility::Public,
            is_static,
            is_constructor: is_ctor,
        });
    }
    api
}

/// Splices random walks ending in a downcast, as mined examples would.
fn splice_examples(engine: &mut Prospector, rng: &mut SmallRng, count: usize) {
    let classes = reference_types(engine.api());
    let mut examples: Vec<Vec<ElemJungloid>> = Vec::new();
    for _ in 0..count * 4 {
        let mut at = NodeId::Ty(classes[rng.gen_range(0..classes.len())]);
        let mut steps: Vec<ElemJungloid> = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            let edges = engine.graph().out_edges(at);
            if edges.is_empty() {
                break;
            }
            let e = edges[rng.gen_range(0..edges.len())];
            steps.push(e.elem);
            at = e.to;
        }
        if steps.is_empty() || steps.iter().all(ElemJungloid::is_widen) {
            continue;
        }
        let out = steps.last().unwrap().output_ty(engine.api());
        let Some(&sub) = engine.api().types().strict_subtypes(out).first() else { continue };
        steps.push(ElemJungloid::Downcast { from: out, to: sub });
        examples.push(steps);
        if examples.len() == count {
            break;
        }
    }
    engine.add_examples(&examples, false).unwrap();
}

/// The synth jungle at `types` bulk classes, plus its planted chain ends.
fn synth_api(seed: u64, types: usize) -> (Api, Vec<(String, String)>) {
    let mut api = ApiLoader::with_prelude().finish().expect("prelude loads");
    let spec = SynthSpec { seed, types, planted: 4, ..SynthSpec::default() };
    let report = grow_synth(&mut api, &spec);
    (api, report.planted.into_iter().map(|p| (p.tin, p.tout)).collect())
}

fn reference_types(api: &Api) -> Vec<TyId> {
    api.types().decls().map(|d| d.id).filter(|&t| api.types().is_reference(t)).collect()
}

/// Random `(tin, tout)` pairs: about one source in eight is `void`, and
/// the `extra` pairs (planted chains, widening-only, unreachable) always
/// come first.
fn pairs(api: &Api, rng: &mut SmallRng, count: usize, extra: &[(TyId, TyId)]) -> Vec<(TyId, TyId)> {
    let types = reference_types(api);
    let mut out = extra.to_vec();
    while out.len() < extra.len() + count {
        let tin = if rng.gen_bool(0.125) {
            api.types().void()
        } else {
            types[rng.gen_range(0..types.len())]
        };
        out.push((tin, types[rng.gen_range(0..types.len())]));
    }
    out
}

/// Forward 0-1 BFS distances from `source`, dense-indexed.
fn forward(graph: &JungloidGraph, source: TyId) -> Vec<u32> {
    let csr = graph.csr();
    let mut dist = vec![u32::MAX; csr.node_count()];
    let mut queue = std::collections::VecDeque::new();
    let s = graph.index_of(NodeId::Ty(source));
    dist[s] = 0;
    queue.push_back(s);
    while let Some(v) = queue.pop_front() {
        for e in csr.out_range(v) {
            let (x, cost) = (csr.out_to()[e] as usize, u32::from(csr.out_cost()[e]));
            if dist[v] + cost < dist[x] {
                dist[x] = dist[v] + cost;
                if cost == 0 {
                    queue.push_front(x);
                } else {
                    queue.push_back(x);
                }
            }
        }
    }
    dist
}

/// Reverse 0-1 BFS distances to `target`, dense-indexed, and the edges
/// it relaxes (every in-edge of every node it pops).
fn reverse(graph: &JungloidGraph, target: TyId) -> (Vec<u32>, u64) {
    let csr = graph.csr();
    let mut dist = vec![u32::MAX; csr.node_count()];
    let mut queue = std::collections::VecDeque::new();
    let t = graph.index_of(NodeId::Ty(target));
    dist[t] = 0;
    queue.push_back(t);
    let mut relaxed = 0;
    while let Some(v) = queue.pop_front() {
        relaxed += csr.in_range(v).len() as u64;
        for e in csr.in_range(v) {
            let (u, cost) = (csr.in_from()[e] as usize, u32::from(csr.in_cost()[e]));
            if dist[v] + cost < dist[u] {
                dist[u] = dist[v] + cost;
                if cost == 0 {
                    queue.push_front(u);
                } else {
                    queue.push_back(u);
                }
            }
        }
    }
    (dist, relaxed)
}

fn same_outcome(bounded: &SearchOutcome, complete: &SearchOutcome, ctx: &str) {
    assert_eq!(bounded.shortest, complete.shortest, "{ctx}: shortest");
    assert_eq!(bounded.truncation, complete.truncation, "{ctx}: truncation");
    assert_eq!(bounded.expansions, complete.expansions, "{ctx}: expansions");
    assert_eq!(bounded.jungloids, complete.jungloids, "{ctx}: jungloids in order");
}

/// Builds the bounded field for every window in `builds` and checks it
/// against the complete field: stored distances are exact, every node on
/// a path within the window is stored, and the window and every narrower
/// one in 0..=2 walk identically under loose and tight caps.
fn check_graph(graph: &JungloidGraph, pairs: &[(TyId, TyId)], builds: &[u32], ctx: &str) {
    let mut scratch = SearchScratch::new();
    for &(tin, tout) in pairs {
        let complete = DistanceField::towards(graph, tout);
        let from_tin = forward(graph, tin);
        let m = complete.from(graph, NodeId::Ty(tin));
        for &built in builds {
            let bounded = DistanceField::bounded(graph, tin, tout, built, &mut scratch);
            let ctx = format!("{ctx} {tin:?}->{tout:?} built for +{built}");
            assert!(!bounded.is_complete() && bounded.covers(tin, built), "{ctx}");
            for v in bounded.reached() {
                let node = graph.node_at(v as usize);
                assert_eq!(
                    bounded.from(graph, node),
                    complete.from(graph, node),
                    "{ctx}: node {v}"
                );
            }
            for (v, &so_far) in from_tin.iter().enumerate() {
                let node = graph.node_at(v);
                let to_go = complete.from(graph, node);
                if so_far != u32::MAX && to_go != u32::MAX && so_far + to_go <= m + built {
                    assert_eq!(bounded.from(graph, node), to_go, "{ctx}: node {v} in the window");
                }
            }
            for extra_steps in (0..=built.min(2)).chain([built]) {
                for (max_results, max_expansions) in
                    [(10_000, 100_000), (2, 100_000), (10_000, 7), (10_000, 300)]
                {
                    let config = SearchConfig { extra_steps, max_results, max_expansions };
                    let ctx =
                        format!("{ctx}, walked +{extra_steps} caps {max_results}/{max_expansions}");
                    let b = enumerate_with(graph, &[tin], tout, &bounded, &config, &mut scratch);
                    let c = enumerate_with(graph, &[tin], tout, &complete, &config, &mut scratch);
                    same_outcome(&b, &c, &ctx);
                }
            }
        }
    }
}

#[test]
fn bounded_field_walks_like_the_complete_field_on_random_apis() {
    for seed in 0..24u64 {
        let api = random_api(seed, 10, 30);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xb0b);
        let mut engine = Prospector::new(api);
        let classes = reference_types(engine.api());
        let object = engine.api().types().object().unwrap();
        // Widening-only (m = 0) and reversed, often unreachable, pairs.
        let sub = classes[classes.len() - 1];
        let fixed = [(sub, object), (object, sub), (sub, sub)];
        let qs = pairs(engine.api(), &mut rng, 12, &fixed);
        // A window wider than the graph has nodes (+64) covers every path.
        check_graph(engine.graph(), &qs, &[0, 1, 2, 64], &format!("random seed {seed}"));
        // The same API with mined nodes spliced in.
        splice_examples(&mut engine, &mut rng, 3);
        let qs = pairs(engine.api(), &mut rng, 12, &fixed);
        check_graph(engine.graph(), &qs, &[0, 1, 2], &format!("random+mined seed {seed}"));
    }
}

#[test]
fn bounded_field_walks_like_the_complete_field_on_the_mined_corpus() {
    let engine = prospector_corpora::build_default();
    assert!(engine.graph().mined_node_count() > 0, "the corpus engine carries mined nodes");
    let api = engine.api();
    let named = |n: &str| api.types().resolve(n).unwrap();
    let fixed = [
        (named("IFile"), named("ASTNode")),
        (named("IWorkbench"), named("IEditorPart")),
        (named("ISelection"), named("IStructuredSelection")),
    ];
    let mut rng = SmallRng::seed_from_u64(0x5e1);
    let qs = pairs(api, &mut rng, 24, &fixed);
    check_graph(engine.graph(), &qs, &[0, 1, 2], "corpus");
}

#[test]
fn bounded_field_walks_like_the_complete_field_on_synth_jungles() {
    for seed in [1u64, 7, 42] {
        let (api, planted) = synth_api(seed, 1_000);
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let named = |n: &str| api.types().resolve(n).unwrap();
        let object = api.types().object().unwrap();
        let (head, tail) = (named(&planted[0].0), named(&planted[0].1));
        let bulk = named("Syn0");
        let fixed = [(head, tail), (bulk, tail), (bulk, object), (api.types().void(), bulk)];
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5ca1e);
        let qs = pairs(&api, &mut rng, 24, &fixed);
        check_graph(&graph, &qs, &[0, 1, 2], &format!("synth seed {seed}"));
    }
}

fn same_answer(fresh: &QueryResult, warmed: &QueryResult, ctx: &str) {
    assert_eq!(fresh.shortest, warmed.shortest, "{ctx}: shortest");
    assert_eq!(fresh.truncation, warmed.truncation, "{ctx}: truncation");
    let codes = |r: &QueryResult| r.suggestions.iter().map(|s| s.code.clone()).collect::<Vec<_>>();
    assert_eq!(codes(fresh), codes(warmed), "{ctx}: codes");
    let keys = |r: &QueryResult| r.suggestions.iter().map(|s| s.key.clone()).collect::<Vec<_>>();
    assert_eq!(keys(fresh), keys(warmed), "{ctx}: rank keys");
}

/// Through the engine: a fresh engine (bounded field on every first
/// query of a target) answers exactly like one whose cache was warmed
/// with the complete field by `assist(&[], tout)`.
#[test]
fn fresh_engine_answers_like_one_warmed_with_the_complete_field() {
    for seed in [3u64, 11] {
        let engines = || {
            let (api, planted) = synth_api(seed, 1_000);
            (Prospector::new(api), planted)
        };
        let (mut fresh, planted) = engines();
        let (mut warmed, _) = engines();
        let named = |n: &str| fresh.api().types().resolve(n).unwrap();
        let fixed = [(named(&planted[1].0), named(&planted[1].1))];
        let mut rng = SmallRng::seed_from_u64(seed);
        let qs = pairs(fresh.api(), &mut rng, 16, &fixed);
        for (i, &(tin, tout)) in qs.iter().enumerate() {
            let extra_steps = (i % 3) as u32;
            let max_expansions = if i % 4 == 3 { 50 } else { 100_000 };
            for e in [&mut fresh, &mut warmed] {
                e.search = SearchConfig { extra_steps, max_expansions, ..SearchConfig::default() };
            }
            warmed.assist(&[], tout).unwrap();
            let ctx = format!("seed {seed} query {i} {tin:?}->{tout:?}");
            let warm = warmed.query(tin, tout).unwrap();
            assert_eq!(warm.stats.dist_cache_hits, 1, "{ctx}: warmed engine hits");
            same_answer(&fresh.query(tin, tout).unwrap(), &warm, &ctx);
        }
    }
}

fn ask(engine: &mut Prospector, tin: TyId, tout: TyId, extra_steps: u32) -> QueryStats {
    engine.search.extra_steps = extra_steps;
    engine.query(tin, tout).unwrap().stats
}

/// The distance-cache policy, observed through per-query stats.
#[test]
fn distance_cache_policy_on_a_synth_jungle() {
    let (api, _) = synth_api(5, 1_000);
    let mut engine = Prospector::new(api);
    engine.cache_results = false;
    let nodes = engine.graph().node_count() as u64;
    let bulk: Vec<TyId> = reference_types(engine.api())
        .into_iter()
        .filter(|&t| engine.api().types().display(t).starts_with("synth.p"))
        .collect();
    // Bulk targets, each reached in two or more steps from three sources,
    // with what the complete field costs to build.
    let mut cases = bulk.iter().filter_map(|&tout| {
        let field = DistanceField::towards(engine.graph(), tout);
        let tins: Vec<TyId> = bulk
            .iter()
            .copied()
            .filter(|&t| (2..u32::MAX).contains(&field.from(engine.graph(), NodeId::Ty(t))))
            .take(3)
            .collect();
        (tins.len() == 3).then(|| (tout, tins, field.relaxations()))
    });
    let (t1, s1, full1) = cases.next().unwrap();
    let (t2, s2, full2) = cases.next().unwrap();
    let (t3, s3, full3) = cases.next().unwrap();
    drop(cases);

    // The first explicit miss builds the bounded field: far cheaper.
    let first = ask(&mut engine, s1[0], t1, 1);
    assert_eq!((first.dist_cache_hits, first.dist_cache_misses), (0, 1));
    assert!(first.bfs_relaxations > 0 && first.bfs_relaxations < nodes, "{first:?} vs {nodes}");
    assert!(first.bfs_relaxations < full1, "{first:?} vs complete {full1}");
    // The same source with a narrower window hits it.
    let narrower = ask(&mut engine, s1[0], t1, 0);
    assert_eq!((narrower.dist_cache_hits, narrower.bfs_relaxations), (1, 0));
    // Another source misses and upgrades the entry to the complete field...
    let other = ask(&mut engine, s1[1], t1, 1);
    assert_eq!((other.dist_cache_misses, other.bfs_relaxations), (1, full1));
    // ...which then serves every source and window, and is never
    // replaced by a bounded one.
    let void = engine.api().types().void();
    for (tin, extra_steps) in [(s1[0], 1), (s1[2], 2), (void, 0), (s1[1], 1)] {
        let again = ask(&mut engine, tin, t1, extra_steps);
        assert_eq!(
            (again.dist_cache_hits, again.bfs_relaxations),
            (1, 0),
            "{tin:?} +{extra_steps}"
        );
    }
    assert_eq!(engine.assist(&[], t1).unwrap().stats.dist_cache_hits, 1);

    // `assist` over a bounded entry upgrades it.
    assert!(ask(&mut engine, s2[0], t2, 1).bfs_relaxations < full2);
    let assist = engine.assist(&[("x", s2[0])], t2).unwrap().stats;
    assert_eq!((assist.dist_cache_misses, assist.bfs_relaxations), (1, full2));
    assert_eq!(ask(&mut engine, s2[1], t2, 1).dist_cache_hits, 1);

    // A wider window than the bounded entry's misses and upgrades it.
    assert!(ask(&mut engine, s3[0], t3, 1).bfs_relaxations < full3);
    let wider = ask(&mut engine, s3[0], t3, 2);
    assert_eq!((wider.dist_cache_misses, wider.bfs_relaxations), (1, full3));
    assert_eq!(ask(&mut engine, s3[1], t3, 0).dist_cache_hits, 1);
}

fn method(name: &str, declaring: TyId, ret: TyId) -> MethodDef {
    MethodDef {
        name: name.to_owned(),
        declaring,
        params: Vec::new(),
        param_names: Vec::new(),
        ret,
        visibility: Visibility::Public,
        is_static: false,
        is_constructor: false,
    }
}

/// Appends classes `chain.Link0..=Link{len}`, each with a `next()` that
/// returns the following link, and a last `next()` into `exit` if given.
/// No constructor or static method enters the chain, so `Link0` is the
/// node farthest from `Link{len}`.
fn append_chain(api: &mut Api, len: usize, exit: Option<TyId>) -> Vec<TyId> {
    let links: Vec<TyId> =
        (0..=len).map(|i| api.declare_class("chain", &format!("Link{i}")).unwrap()).collect();
    for (i, &link) in links.iter().enumerate() {
        if let Some(next) = links.get(i + 1).copied().or(exit) {
            api.add_method(method("next", link, next)).unwrap();
        }
    }
    links
}

/// A chain whose target `Link{len}` lies exactly `len` steps from
/// `Link0`. With `pulled_back`, more classes sit one step past `Link0`:
/// `A`, `B` and `C` call into it, and `Y<i>` extends the `i`-th of them,
/// calls into the other two and has a subclass `Below<i>`. Whichever of
/// `A`, `B` and `C` the reverse BFS settles last, the other two first
/// reach its `Y` one step farther out, twice, before its widening pulls
/// that `Y` back level with them.
fn chain_api(len: usize, pulled_back: bool) -> (Api, Vec<TyId>) {
    let mut api = Api::new();
    api.types_mut().declare("java.lang", "Object", TypeKind::Class).unwrap();
    let links = append_chain(&mut api, len, None);
    if pulled_back {
        let tied: Vec<TyId> =
            ["A", "B", "C"].iter().map(|n| api.declare_class("tie", n).unwrap()).collect();
        for (i, &t) in tied.iter().enumerate() {
            api.add_method(method("step", t, links[0])).unwrap();
            let y = api.declare_class("tie", &format!("Y{i}")).unwrap();
            api.types_mut().set_superclass(y, t).unwrap();
            let below = api.declare_class("tie", &format!("Below{i}")).unwrap();
            api.types_mut().set_superclass(below, y).unwrap();
            for (j, &other) in tied.iter().enumerate() {
                if j != i {
                    api.add_method(method(&format!("to{j}"), y, other)).unwrap();
                }
            }
        }
    }
    (api, links)
}

/// A complete field stores bytes while its largest finite distance is
/// at most 254, and `u32`s from 255 on. Either way it holds exactly the
/// reverse BFS's distances, charges one reverse BFS's relaxations, and
/// walks like the bounded field.
#[test]
fn complete_fields_are_bytes_up_to_254_steps_and_wide_from_255() {
    for (len, pulled_back, farthest, wide) in [
        (254, false, 254, false),
        (253, true, 254, false),
        (255, false, 255, true),
        (300, false, 300, true),
    ] {
        let (api, links) = chain_api(len, pulled_back);
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let (head, tail) = (links[0], links[len]);
        let ctx = format!("chain of {len}{}", if pulled_back { " pulled back" } else { "" });
        let field = DistanceField::towards(&graph, tail);
        let (dist, relaxed) = reverse(&graph, tail);
        assert_eq!(dist.iter().filter(|&&d| d != u32::MAX).max(), Some(&farthest), "{ctx}");
        let n = graph.node_count();
        assert_eq!(field.heap_bytes(), if wide { 4 * n } else { n }, "{ctx}: {n} nodes");
        for (v, &d) in dist.iter().enumerate() {
            assert_eq!(field.from(&graph, graph.node_at(v)), d, "{ctx}: node {v}");
        }
        assert_eq!(field.relaxations(), relaxed, "{ctx}: relaxations");
        let void = api.types().void();
        let qs = [(head, tail), (links[1], tail), (void, tail), (head, links[len / 2])];
        check_graph(&graph, &qs, &[0, 1, 2], &ctx);
    }
}

/// Random APIs entered through a 260-step chain: a complete field
/// towards anything the chain's end reaches is wide, and walks like the
/// bounded field.
#[test]
fn wide_fields_walk_like_the_bounded_field_on_random_apis() {
    for seed in 0..6u64 {
        let mut api = random_api(seed, 10, 30);
        let classes = reference_types(&api);
        let object = api.types().object().unwrap();
        let entry = *classes.iter().find(|&&t| t != object).unwrap();
        let links = append_chain(&mut api, 260, Some(entry));
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x1c4a);
        let qs = pairs(&api, &mut rng, 12, &[(links[0], entry), (links[200], entry)]);
        let wide = qs
            .iter()
            .filter(|&&(_, tout)| {
                DistanceField::towards(&graph, tout).heap_bytes() == 4 * graph.node_count()
            })
            .count();
        assert!(wide >= 2, "seed {seed}: only {wide} wide fields");
        check_graph(&graph, &qs, &[0, 1, 2], &format!("random+chain seed {seed}"));
    }
}

/// `assist` over a 300-step chain: the wide complete field serves it,
/// the one path comes back, and the build charges one reverse BFS.
#[test]
fn assist_answers_over_a_wide_field() {
    let (api, links) = chain_api(300, false);
    let engine = Prospector::new(api);
    let (head, tail) = (links[0], links[300]);
    let result = engine.assist(&[("link", head)], tail).unwrap();
    assert_eq!(result.shortest, Some(300));
    assert_eq!(result.suggestions.len(), 1);
    assert_eq!(result.suggestions[0].code, format!("link{}", ".next()".repeat(300)));
    assert_eq!(result.stats.dist_cache_misses, 1);
    assert_eq!(result.stats.bfs_relaxations, reverse(engine.graph(), tail).1);
}
