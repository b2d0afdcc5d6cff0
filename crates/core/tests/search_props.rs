//! Property tests over randomly generated APIs: search soundness and
//! completeness-within-window, the enumeration against an exhaustive
//! reference, ranking monotonicity, mined-path reachability, and the
//! generalization algorithm against a naive reference implementation.
//!
//! APIs and walks are drawn from seeded deterministic generators —
//! failures reproduce by seed.

use jungloid_apidef::{Api, ElemJungloid, MethodDef, Visibility};
use jungloid_typesys::{Prim, TyId, TypeKind};
use prospector_core::generalize::generalize;
use prospector_core::{
    search, DistanceField, GraphConfig, Jungloid, JungloidGraph, NodeId, Prospector, SearchConfig,
    SearchScratch,
};
use prospector_obs::SmallRng;

/// Deterministically generates a random API from a seed.
fn random_api(seed: u64, n_classes: usize, n_methods: usize) -> Api {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut api = Api::new();
    api.types_mut().declare("java.lang", "Object", TypeKind::Class).unwrap();
    let mut classes = Vec::new();
    for i in 0..n_classes {
        let pkg = format!("p{}", rng.gen_range(0..3));
        let id = api.declare_class(&pkg, &format!("C{i}")).unwrap();
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
        let n_params = rng.gen_range(0..=2);
        let params: Vec<TyId> = (0..n_params)
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

fn classes_of(api: &Api) -> Vec<TyId> {
    api.types()
        .decls()
        .filter(|d| d.simple_name.starts_with('C'))
        .map(|d| d.id)
        .collect()
}

/// Forward 0-1 BFS reference for the shortest length.
fn reference_shortest(graph: &JungloidGraph, from: TyId, to: TyId) -> Option<u32> {
    use std::collections::VecDeque;
    let n = graph.node_count();
    let mut dist = vec![u32::MAX; n];
    let fi = graph.index_of(prospector_core::NodeId::Ty(from));
    dist[fi] = 0;
    let mut queue = VecDeque::new();
    queue.push_back(fi);
    while let Some(i) = queue.pop_front() {
        for e in graph.out_edges(graph.node_at(i)) {
            let ti = graph.index_of(e.to);
            let nd = dist[i] + u32::from(!e.elem.is_widen());
            if nd < dist[ti] {
                dist[ti] = nd;
                if e.elem.is_widen() {
                    queue.push_front(ti);
                } else {
                    queue.push_back(ti);
                }
            }
        }
    }
    let t = dist[graph.index_of(prospector_core::NodeId::Ty(to))];
    (t != u32::MAX).then_some(t)
}

#[test]
fn enumeration_sound_and_windowed() {
    for seed in 0..48u64 {
        let api = random_api(seed, 8, 24);
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let classes = classes_of(&api);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xdead);
        let tin = classes[rng.gen_range(0..classes.len())];
        let tout = classes[rng.gen_range(0..classes.len())];
        if tin == tout {
            continue;
        }

        let field = DistanceField::towards(&graph, tout);
        let outcome = search::enumerate(&graph, &[tin], tout, &field, &SearchConfig::default());

        // m agrees with an independent forward BFS (when any code-bearing
        // path exists; a pure-widening connection reports m=0 but yields
        // no jungloids).
        let reference = reference_shortest(&graph, tin, tout);
        assert_eq!(outcome.shortest, reference, "seed {seed}");

        let m = outcome.shortest.unwrap_or(0);
        let mut seen = Vec::new();
        for j in &outcome.jungloids {
            // Sound: well-typed, correct endpoints.
            j.validate(&api).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(j.source, tin);
            assert_eq!(j.output_ty(&api), tout);
            // Windowed: within m+1 non-widening steps.
            assert!(
                j.steps() >= 1 && j.steps() <= m + 1,
                "seed {seed}: length {} outside [1, {}]",
                j.steps(),
                m + 1
            );
            // Distinct.
            assert!(!seen.contains(j), "seed {seed}: duplicate path");
            seen.push(j.clone());
        }
        // Non-empty whenever a code-bearing path exists within the window.
        if reference.is_some_and(|r| r >= 1) && !outcome.truncation.truncated() {
            assert!(!outcome.jungloids.is_empty(), "seed {seed}");
        }
    }
}

/// Appends to `out` every simple path from `at` (the nodes of
/// `on_path` already walked) that ends at its first arrival at `target`,
/// trying `out_edges` in CSR order.
fn simple_paths(
    graph: &JungloidGraph,
    at: NodeId,
    target: NodeId,
    on_path: &mut Vec<NodeId>,
    elems: &mut Vec<ElemJungloid>,
    out: &mut Vec<Vec<ElemJungloid>>,
) {
    for e in graph.out_edges(at) {
        if on_path.contains(&e.to) {
            continue;
        }
        elems.push(e.elem);
        if e.to == target {
            out.push(elems.clone());
        } else {
            on_path.push(e.to);
            simple_paths(graph, e.to, target, on_path, elems, out);
            on_path.pop();
        }
        elems.pop();
    }
}

/// The exhaustive answer to `sources` → `tout` and its `m`: every simple
/// path from each distinct source, in first-occurrence order, with at
/// least one non-widening step and a cost of at most `m + extra_steps`,
/// where `m` is the least cost of any path found (0 when a source is
/// `tout` itself); `None` when no source reaches `tout`.
fn reference_enumeration(
    graph: &JungloidGraph,
    sources: &[TyId],
    tout: TyId,
    extra_steps: u32,
) -> (Vec<Jungloid>, Option<u32>) {
    let mut distinct: Vec<TyId> = Vec::new();
    for &s in sources {
        if !distinct.contains(&s) {
            distinct.push(s);
        }
    }
    let mut paths = Vec::new();
    for &source in &distinct {
        let mut found = Vec::new();
        let start = NodeId::Ty(source);
        simple_paths(graph, start, NodeId::Ty(tout), &mut vec![start], &mut Vec::new(), &mut found);
        paths.extend(found.into_iter().map(|elems| Jungloid { source, elems }));
    }
    let cost = |j: &Jungloid| j.elems.iter().filter(|e| !e.is_widen()).count() as u32;
    let Some(m) = paths.iter().map(cost).chain(distinct.contains(&tout).then_some(0)).min() else {
        return (Vec::new(), None);
    };
    paths.retain(|j| cost(j) >= 1 && cost(j) <= m + extra_steps);
    (paths, Some(m))
}

/// Completeness: the enumeration is exactly the exhaustive reference,
/// set and order, over a complete field for the whole source set, over a
/// bounded field for the first source, and cut to a prefix by
/// `max_results`.
#[test]
fn enumeration_matches_an_exhaustive_reference() {
    let config = SearchConfig::default();
    let (mut cases, mut bounded_cases, mut paths) = (0, 0, 0);
    for seed in 0..1600u64 {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0de);
        let api = random_api(seed, rng.gen_range(7..=10usize), rng.gen_range(14..=22usize));
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let classes = classes_of(&api);
        let tout = classes[rng.gen_range(0..classes.len())];
        let mut sources: Vec<TyId> =
            (0..rng.gen_range(1..=3usize)).map(|_| classes[rng.gen_range(0..classes.len())]).collect();
        if rng.gen_bool(0.5) {
            let at = rng.gen_range(0..=sources.len());
            sources.insert(at, api.types().void());
        }

        let (expected, m) = reference_enumeration(&graph, &sources, tout, config.extra_steps);
        let field = DistanceField::towards(&graph, tout);
        let outcome = search::enumerate(&graph, &sources, tout, &field, &config);
        assert_eq!(outcome.jungloids, expected, "seed {seed}: complete field");
        assert_eq!(outcome.shortest, m, "seed {seed}: complete field");
        assert!(!outcome.truncation.truncated(), "seed {seed}");
        cases += 1;
        paths += expected.len();

        for max_results in 1..=3 {
            let capped = SearchConfig { max_results, ..config };
            let outcome = search::enumerate(&graph, &sources, tout, &field, &capped);
            let prefix = &expected[..expected.len().min(max_results)];
            assert_eq!(outcome.jungloids, prefix, "seed {seed}: max_results {max_results}");
            assert_eq!(outcome.shortest, m, "seed {seed}: max_results {max_results}");
            assert_eq!(
                outcome.truncation.truncated(),
                expected.len() >= max_results,
                "seed {seed}: max_results {max_results}"
            );
        }

        let first = sources[0];
        let (expected, m) = reference_enumeration(&graph, &[first], tout, config.extra_steps);
        let field = DistanceField::bounded(&graph, first, tout, config.extra_steps, &mut SearchScratch::new());
        let outcome = search::enumerate(&graph, &[first], tout, &field, &config);
        assert_eq!(outcome.jungloids, expected, "seed {seed}: bounded field");
        assert_eq!(outcome.shortest, m, "seed {seed}: bounded field");
        bounded_cases += 1;
        paths += expected.len();
    }
    assert!(paths > 1_000, "{cases} + {bounded_cases} cases produced only {paths} paths");
}

#[test]
fn engine_ranking_monotone_and_deduped() {
    for seed in 0..48u64 {
        let api = random_api(seed, 7, 20);
        let classes = classes_of(&api);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xbeef);
        let tin = classes[rng.gen_range(0..classes.len())];
        let tout = classes[rng.gen_range(0..classes.len())];
        if tin == tout {
            continue;
        }
        let engine = Prospector::new(api);
        let result = engine.query(tin, tout).unwrap();
        let mut codes = Vec::new();
        let mut prev: Option<prospector_core::RankKey> = None;
        for s in result.suggestions.iter() {
            assert!(!codes.contains(&s.code), "seed {seed}: duplicate code {}", s.code);
            codes.push(s.code.clone());
            if let Some(p) = &prev {
                assert!(p <= &s.key, "seed {seed}: rank order violated");
            }
            prev = Some(s.key.clone());
            // Rendered code reparses.
            jungloid_minijava::parse::parse_expr(&s.code)
                .unwrap_or_else(|e| panic!("seed {seed}: `{}` failed to parse: {e}", s.code));
        }
    }
}

#[test]
fn mined_examples_become_reachable() {
    for seed in 0..48u64 {
        let api = random_api(seed, 8, 24);
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let classes = classes_of(&api);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xfeed);

        // Random walk of 1..=3 code steps through the signature graph.
        let start = classes[rng.gen_range(0..classes.len())];
        let mut at = prospector_core::NodeId::Ty(start);
        let mut steps: Vec<ElemJungloid> = Vec::new();
        for _ in 0..rng.gen_range(1..=3usize) {
            let edges = graph.out_edges(at);
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
        // End with a downcast to a strict subtype of the walk's output.
        let out_ty = steps.last().unwrap().output_ty(&api);
        let subs = api.types().strict_subtypes(out_ty);
        let Some(&target) = subs.first() else { continue };
        steps.push(ElemJungloid::Downcast { from: out_ty, to: target });

        let j = Jungloid::new(&api, steps[0].input_ty(&api), steps.clone());
        assert!(j.is_ok(), "seed {seed}: constructed example must be well-typed: {:?}", j.err());

        let source = steps[0].input_ty(&api);
        let mut engine = Prospector::new(api);
        engine.add_examples(&[steps.clone()], false).unwrap();
        if source == engine.api().types().void() || source == target {
            continue;
        }
        let result = engine.query(source, target).unwrap();
        // The spliced path is guaranteed to surface only when it fits the
        // m+1 enumeration window (a shorter signature-only path may
        // exist — e.g. a constructor of the cast target).
        let mined_len = steps.iter().filter(|e| !e.is_widen()).count() as u32;
        let window = result.shortest.expect("target now reachable") + 1;
        if mined_len <= window {
            assert!(
                result.suggestions.iter().any(|s| s.jungloid.contains_downcast()),
                "seed {seed}: spliced example (len {mined_len}, window {window}) not reachable: {:?}",
                result.suggestions.iter().map(|s| &s.code).collect::<Vec<_>>()
            );
        }
    }
}

#[test]
fn generalize_matches_reference() {
    for seed in 0..48u64 {
        let api = random_api(seed, 8, 24);
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let classes = classes_of(&api);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xabcd);
        let count = rng.gen_range(1..6usize);

        // Build `count` random cast-terminated examples.
        let mut examples: Vec<Vec<ElemJungloid>> = Vec::new();
        for _ in 0..count {
            let start = classes[rng.gen_range(0..classes.len())];
            let mut at = prospector_core::NodeId::Ty(start);
            let mut steps = Vec::new();
            for _ in 0..rng.gen_range(1..=3usize) {
                let edges = graph.out_edges(at);
                if edges.is_empty() {
                    break;
                }
                let e = edges[rng.gen_range(0..edges.len())];
                steps.push(e.elem);
                at = e.to;
            }
            if steps.is_empty() {
                continue;
            }
            let out_ty = steps.last().unwrap().output_ty(&api);
            let subs = api.types().strict_subtypes(out_ty);
            if subs.is_empty() {
                continue;
            }
            let target = subs[rng.gen_range(0..subs.len())];
            steps.push(ElemJungloid::Downcast { from: out_ty, to: target });
            examples.push(steps);
        }

        let got = generalize(&examples);

        // Reference: for each example, the shortest suffix of the body
        // such that no differently-cast example shares that body suffix.
        let mut expected: Vec<Vec<ElemJungloid>> = Vec::new();
        for e in &examples {
            let ElemJungloid::Downcast { to, .. } = e[e.len() - 1] else { unreachable!() };
            let body = &e[..e.len() - 1];
            let mut keep = body.len();
            'k: for k in 0..=body.len() {
                for other in &examples {
                    let ElemJungloid::Downcast { to: to2, .. } = other[other.len() - 1] else {
                        unreachable!()
                    };
                    if to2 == to {
                        continue;
                    }
                    let body2 = &other[..other.len() - 1];
                    if body2.len() >= k && body2[body2.len() - k..] == body[body.len() - k..] {
                        continue 'k; // not distinguishing yet
                    }
                }
                keep = k;
                break;
            }
            let suffix = e[e.len() - 1 - keep..].to_vec();
            if !expected.contains(&suffix) {
                expected.push(suffix);
            }
        }
        let mut got_sorted = got.clone();
        let mut expected_sorted = expected.clone();
        got_sorted.sort_by_key(|e| format!("{e:?}"));
        expected_sorted.sort_by_key(|e| format!("{e:?}"));
        assert_eq!(got_sorted, expected_sorted, "seed {seed}");

        // Every generalized example is a suffix of some input and ends in
        // the same cast.
        for g in &got {
            assert!(
                examples.iter().any(|e| e.len() >= g.len() && e[e.len() - g.len()..] == g[..]),
                "seed {seed}: output not a suffix of any input"
            );
        }
    }
}
