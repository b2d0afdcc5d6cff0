//! One splice batch against the same examples spliced one at a time.
//!
//! `JungloidGraph::add_examples` appends a whole batch in one CSR
//! rebuild; `add_example` is the batch of one. Each node keeps its old
//! edges followed by its new ones in list order, so any split of a list
//! into consecutive batches must give the same CSR arrays and the same
//! snapshot bytes. Checked on seeded random APIs and example batches
//! with repeats (deduplicated inside a batch as across batches) and
//! pure-widening and downcast-terminated paths.
//!
//! Everything is drawn from seeded generators; failures reproduce by seed.

use jungloid_apidef::{Api, ElemJungloid, MethodDef, Visibility};
use jungloid_typesys::{Prim, TyId, TypeKind};
use prospector_core::{GraphConfig, JungloidGraph, NodeId};
use prospector_obs::SmallRng;

/// A random API with subclassing, static methods and constructors.
fn random_api(rng: &mut SmallRng, n_classes: usize, n_methods: usize) -> Api {
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
            is_static: !is_ctor && rng.gen_bool(0.3),
            is_constructor: is_ctor,
        });
    }
    api
}

/// Random walks of 1-3 signature edges, about half ending in a downcast,
/// with about one example in five a repeat of an earlier one.
fn random_examples(rng: &mut SmallRng, api: &Api, graph: &JungloidGraph) -> Vec<Vec<ElemJungloid>> {
    let types: Vec<TyId> =
        api.types().ids().filter(|&t| api.types().is_reference(t)).collect();
    let mut examples: Vec<Vec<ElemJungloid>> = Vec::new();
    for _ in 0..rng.gen_range(1..=12usize) {
        if !examples.is_empty() && rng.gen_bool(0.2) {
            examples.push(examples[rng.gen_range(0..examples.len())].clone());
            continue;
        }
        let mut at = NodeId::Ty(types[rng.gen_range(0..types.len())]);
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
        let Some(last) = steps.last() else { continue };
        let out = last.output_ty(api);
        if rng.gen_bool(0.5) {
            if let Some(&sub) = api.types().strict_subtypes(out).first() {
                steps.push(ElemJungloid::Downcast { from: out, to: sub });
            }
        }
        examples.push(steps);
    }
    examples
}

fn assert_same_graph(seed: u64, a: &JungloidGraph, b: &JungloidGraph, api: &Api) {
    let (x, y) = (a.csr(), b.csr());
    assert_eq!(x.out_offsets(), y.out_offsets(), "seed {seed}: forward offsets");
    assert_eq!(x.out_to(), y.out_to(), "seed {seed}: forward targets");
    assert_eq!(x.out_elem(), y.out_elem(), "seed {seed}: jungloid quads");
    assert_eq!(x.out_cost(), y.out_cost(), "seed {seed}: forward costs");
    assert_eq!(x.in_offsets(), y.in_offsets(), "seed {seed}: reverse offsets");
    assert_eq!(x.in_from(), y.in_from(), "seed {seed}: reverse sources");
    assert_eq!(x.in_cost(), y.in_cost(), "seed {seed}: reverse costs");
    assert_eq!(a.examples(), b.examples(), "seed {seed}: spliced examples");
    assert_eq!(
        prospector_store::to_bytes(api, a, &[]),
        prospector_store::to_bytes(api, b, &[]),
        "seed {seed}: snapshot bytes"
    );
}

#[test]
fn one_batch_equals_one_example_at_a_time_and_any_split() {
    let mut spliced = 0;
    for seed in 0..40u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let api = random_api(&mut rng, 10, 30);
        let signature = JungloidGraph::from_api(&api, GraphConfig::default());
        let examples = random_examples(&mut rng, &api, &signature);

        let mut batched = signature.clone();
        let added = batched.add_examples(&api, &examples).unwrap();
        spliced += added;

        let mut one_by_one = signature.clone();
        let mut added_one_by_one = 0;
        for steps in &examples {
            added_one_by_one += usize::from(one_by_one.add_example(&api, steps).unwrap());
        }
        assert_eq!(added, added_one_by_one, "seed {seed}: examples added");
        assert_same_graph(seed, &batched, &one_by_one, &api);

        // Consecutive batches at random cut points.
        let mut split = signature.clone();
        let mut rest = examples.as_slice();
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(rng.gen_range(1..=rest.len()));
            split.add_examples(&api, head).unwrap();
            rest = tail;
        }
        assert_same_graph(seed, &batched, &split, &api);
    }
    assert!(spliced > 100, "the generator must actually splice examples ({spliced})");
}
