//! Procedural client-corpus generators for mining-scale experiments.
//!
//! Two generators:
//!
//! * [`explosion_case`] builds the pathological shape the paper reports
//!   ("the backward data-flow path branches when it reaches a variable
//!   that is assigned in multiple places … extraction \[would\] take many
//!   hours and generate several gigabytes of example jungloids"): a
//!   ladder of local variables, each with `branching` flow-insensitive
//!   definitions consuming the previous rung, ending in a downcast — so
//!   the walk has `branching ^ depth` distinct paths. The per-cast cap
//!   (§4.2) is what keeps extraction bounded; the `mining_scaling` bench
//!   measures exactly that.
//! * [`generate_clients`] renders many ordinary client files by taking
//!   random well-typed walks through a signature graph — bulk realistic
//!   input for throughput measurements.

use jungloid_apidef::Api;
use jungloid_minijava::ast::{Class, Expr, Method, Stmt, TypeName, Unit};
use jungloid_typesys::TyId;
use prospector_core::synth::{synthesize_statements_pooled, ty_to_type_name, NamePool};
use prospector_core::{GraphConfig, Jungloid, JungloidGraph, NodeId};
use prospector_obs::SmallRng;

/// The shape of an [`explosion_case`].
#[derive(Clone, Copy, Debug)]
pub struct ExplosionSpec {
    /// Ladder depth (number of intermediate variables).
    pub depth: usize,
    /// Definitions per variable; the walk has `branching ^ depth` paths.
    pub branching: usize,
}

/// Builds the explosion API + client.
///
/// The API is a ladder `Rung0 → Rung1 → … → Rung<depth>` where each rung
/// exposes `branching` distinct methods to the next, plus a subtype
/// `Leaf` of the final rung for the terminal downcast. The client method
/// assigns every rung variable `branching` times (flow-insensitively) and
/// ends with `(Leaf) x<depth>`.
///
/// # Panics
///
/// Panics only on internal modeling errors (unique generated names).
#[must_use]
pub fn explosion_case(spec: &ExplosionSpec) -> (Api, Unit) {
    let mut api = jungloid_apidef::ApiLoader::with_prelude().finish().expect("prelude");
    for level in 0..=spec.depth {
        api.declare_class("ladder", &format!("Rung{level}")).expect("unique");
    }
    let leaf = api.declare_class("ladder", "Leaf").expect("unique");
    let last = api.types().resolve(&format!("Rung{}", spec.depth)).expect("declared");
    api.types_mut().set_superclass(leaf, last).expect("leaf extends last rung");
    for level in 0..spec.depth {
        let declaring = api.types().resolve(&format!("Rung{level}")).expect("declared");
        let ret = api.types().resolve(&format!("Rung{}", level + 1)).expect("declared");
        for b in 0..spec.branching {
            // `branching` distinct step methods: Rung{level} -> Rung{level+1}.
            api.add_method(jungloid_apidef::MethodDef {
                name: format!("step{b}"),
                declaring,
                params: Vec::new(),
                param_names: Vec::new(),
                ret,
                visibility: jungloid_apidef::Visibility::Public,
                is_static: false,
                is_constructor: false,
            })
            .expect("unique method");
        }
    }

    // Client: Rung1 x1 = input.step0(); x1 = input.step1(); … ;
    //         Rung2 x2 = x1.step0(); … ; return (Leaf) xD;
    let mut body = Vec::new();
    for level in 1..=spec.depth {
        let ty = TypeName::simple(&format!("Rung{level}"));
        let prev = if level == 1 { "input".to_owned() } else { format!("x{}", level - 1) };
        for b in 0..spec.branching {
            let call = Expr::Call {
                recv: Some(Box::new(Expr::var(&prev))),
                name: format!("step{b}"),
                args: Vec::new(),
            };
            if b == 0 {
                body.push(Stmt::Local {
                    ty: ty.clone(),
                    name: format!("x{level}"),
                    init: Some(call),
                });
            } else {
                body.push(Stmt::Assign { name: format!("x{level}"), value: call });
            }
        }
    }
    body.push(Stmt::Return(Some(Expr::Cast {
        ty: TypeName::simple("Leaf"),
        expr: Box::new(Expr::var(&format!("x{}", spec.depth))),
    })));
    let unit = Unit {
        file: "explosion.mj".to_owned(),
        package: Some("corpus.explosion".to_owned()),
        classes: vec![Class {
            name: "Exploder".to_owned(),
            extends: None,
            implements: Vec::new(),
            methods: vec![Method {
                mods: Vec::new(),
                ret: Some(TypeName::simple("Leaf")),
                name: "narrow".to_owned(),
                params: vec![(TypeName::simple("Rung0"), "input".to_owned())],
                body,
            }],
        }],
    };
    (api, unit)
}

/// Bulk-corpus generation options.
#[derive(Clone, Copy, Debug)]
pub struct ClientGenSpec {
    /// RNG seed.
    pub seed: u64,
    /// Number of client files.
    pub files: usize,
    /// Methods per file.
    pub methods_per_file: usize,
    /// Maximum walk length per method.
    pub max_chain: usize,
    /// Probability a method's result is downcast to a subtype (when one
    /// exists).
    pub cast_prob: f64,
}

impl Default for ClientGenSpec {
    fn default() -> Self {
        ClientGenSpec { seed: 7, files: 40, methods_per_file: 6, max_chain: 4, cast_prob: 0.6 }
    }
}

/// Renders `spec.files` synthetic client files of random well-typed
/// chains over `api`, suitable for lowering and mining.
#[must_use]
pub fn generate_clients(api: &Api, spec: &ClientGenSpec) -> Vec<Unit> {
    let graph = JungloidGraph::from_api(api, GraphConfig::default());
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let starts: Vec<TyId> = api
        .types()
        .decls()
        .map(|d| d.id)
        .filter(|&t| graph.out_edges(NodeId::Ty(t)).iter().any(|e| !e.elem.is_widen()))
        .collect();
    let mut units = Vec::new();
    for f in 0..spec.files {
        let mut methods = Vec::new();
        for m in 0..spec.methods_per_file {
            if let Some(method) = random_method(api, &graph, &starts, spec, &mut rng, m) {
                methods.push(method);
            }
        }
        if methods.is_empty() {
            continue;
        }
        units.push(Unit {
            file: format!("gen{f}.mj"),
            package: Some(format!("corpus.generated.g{f}")),
            classes: vec![Class {
                name: format!("GenClient{f}"),
                extends: None,
                implements: Vec::new(),
                methods,
            }],
        });
    }
    units
}

fn random_method(
    api: &Api,
    graph: &JungloidGraph,
    starts: &[TyId],
    spec: &ClientGenSpec,
    rng: &mut SmallRng,
    index: usize,
) -> Option<Method> {
    let start = starts[rng.gen_range(0..starts.len())];
    let mut at = NodeId::Ty(start);
    let mut steps = Vec::new();
    for _ in 0..rng.gen_range(1..=spec.max_chain) {
        let edges = graph.out_edges(at);
        if edges.is_empty() {
            break;
        }
        let e = edges[rng.gen_range(0..edges.len())];
        steps.push(e.elem);
        at = e.to;
    }
    while steps.last().is_some_and(jungloid_apidef::ElemJungloid::is_widen) {
        steps.pop();
    }
    if steps.iter().filter(|e| !e.is_widen()).count() == 0 {
        return None;
    }
    let out_ty = steps.last().expect("non-empty").output_ty(api);
    if !matches!(api.types().ty(out_ty), jungloid_typesys::Ty::Decl) {
        return None;
    }
    // Optionally end in a downcast.
    let mut ret_ty = out_ty;
    if rng.gen_f64() < spec.cast_prob {
        let subs: Vec<TyId> = api
            .types()
            .strict_subtypes(out_ty)
            .into_iter()
            .filter(|&s| matches!(api.types().ty(s), jungloid_typesys::Ty::Decl))
            .collect();
        if !subs.is_empty() {
            let target = subs[rng.gen_range(0..subs.len())];
            steps.push(jungloid_apidef::ElemJungloid::Downcast { from: out_ty, to: target });
            ret_ty = target;
        }
    }
    let jungloid = Jungloid::new(api, steps[0].input_ty(api), steps).ok()?;
    if jungloid.source == api.types().void() {
        return None;
    }
    let mut pool = NamePool::new();
    pool.reserve("input");
    let (mut body, _) = synthesize_statements_pooled(api, &jungloid, Some("input"), &mut pool);
    let result = body.iter().rev().find_map(|s| match s {
        Stmt::Local { name, init: Some(_), .. } => Some(name.clone()),
        _ => None,
    })?;
    body.push(Stmt::Return(Some(Expr::var(&result))));
    Some(Method {
        mods: Vec::new(),
        ret: Some(ty_to_type_name(api, ret_ty)),
        name: format!("chain{index}"),
        params: vec![(ty_to_type_name(api, jungloid.source), "input".to_owned())],
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_dataflow::{LoweredCorpus, Miner, MinerConfig};

    #[test]
    fn explosion_path_count_is_exponential() {
        let spec = ExplosionSpec { depth: 5, branching: 3 };
        let (mut api, unit) = explosion_case(&spec);
        let corpus = LoweredCorpus::lower(&mut api, &[unit]).unwrap();
        assert_eq!(corpus.cast_count(), 1);
        // With generous caps, extraction finds all 3^5 = 243 paths.
        let mut miner = Miner::new(&api, &corpus);
        miner.config = MinerConfig {
            max_examples_per_cast: 100_000,
            max_steps: 64,
            max_expansions: 10_000_000,
            parallel: false,
        };
        let report = miner.mine();
        assert_eq!(report.examples.len(), 3usize.pow(5));
        assert_eq!(report.capped_casts, 0);
    }

    #[test]
    fn cap_bounds_the_explosion() {
        // 6^6 = 46,656 paths; the paper-style cap keeps 64.
        let spec = ExplosionSpec { depth: 6, branching: 6 };
        let (mut api, unit) = explosion_case(&spec);
        let corpus = LoweredCorpus::lower(&mut api, &[unit]).unwrap();
        let mut miner = Miner::new(&api, &corpus);
        miner.config.parallel = false;
        let report = miner.mine();
        assert_eq!(report.examples.len(), miner.config.max_examples_per_cast);
        assert_eq!(report.capped_casts, 1);
    }

    #[test]
    fn generated_clients_lower_and_mine() {
        let api = crate::eclipse_api().unwrap();
        let units = generate_clients(&api, &ClientGenSpec { files: 10, ..ClientGenSpec::default() });
        assert!(!units.is_empty());
        let mut mining_api = crate::eclipse_api().unwrap();
        let corpus = LoweredCorpus::lower(&mut mining_api, &units)
            .unwrap_or_else(|e| panic!("generated corpus must lower: {e}"));
        let mut miner = Miner::new(&mining_api, &corpus);
        miner.config.parallel = false;
        let report = miner.mine();
        // Most files contain at least one cast.
        assert!(report.cast_sites > 0);
        for e in &report.examples {
            assert!(e.last().unwrap().is_downcast());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let api = crate::eclipse_api().unwrap();
        let spec = ClientGenSpec { files: 5, ..ClientGenSpec::default() };
        let a = generate_clients(&api, &spec);
        let b = generate_clients(&api, &spec);
        assert_eq!(a, b);
    }
}
