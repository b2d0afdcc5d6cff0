//! The million-scale synthetic jungle: power-law bulk plus planted
//! ground-truth paths.
//!
//! [`jungle`](crate::jungle) grows paper-scale distractor mass (~3k
//! classes). This module targets the *scaling* story instead: graphs of
//! 10^4–10^6 types whose out-degree follows a power law (like real API
//! reference graphs — a few hub types with huge surface, a long tail of
//! leaves), with **planted paths** whose unique shortest jungloid is
//! known by construction. That gives the scale harness a ground truth:
//! replay the planted queries at any graph size and check precision@k
//! against the chain the generator buried.
//!
//! Planted-path uniqueness argument: every hop class `Plant{k}Step{j}`
//! is returned by exactly one method — the hop `plant{k}hop{j}` on its
//! predecessor. Bulk methods only ever return bulk classes, and decoy
//! methods on the chain lead *into* the bulk, never back. Widening
//! reaches `Object`, but nothing leads from `Object` (or any bulk
//! class) to a planted class, so the hop chain is the only path from a
//! chain's head to its tail — and therefore the shortest.

use jungloid_apidef::{Api, MethodDef, Visibility};
use jungloid_typesys::TyId;
use prospector_obs::SmallRng;

/// Shape of the synthetic jungle. Defaults follow the CLI's
/// `prospector synth` defaults.
#[derive(Clone, Copy, Debug)]
pub struct SynthSpec {
    /// RNG seed; generation is deterministic in it.
    pub seed: u64,
    /// Bulk classes to generate (the `--types` scale knob; the planted
    /// chains add `planted × (plant_len + 1)` more on top).
    pub types: usize,
    /// Power-law exponent for out-degree (`P(d) ∝ d^-alpha`); real API
    /// graphs sit around 2–3.
    pub alpha: f64,
    /// Hard clamp on one class's generated out-degree.
    pub max_out_degree: usize,
    /// Number of planted ground-truth chains.
    pub planted: usize,
    /// Hops per planted chain (the unique shortest path's length).
    pub plant_len: usize,
    /// Decoy methods per chain class, leading off into the bulk — the
    /// search must not find a chain just by following the only edge.
    pub decoys_per_hop: usize,
    /// Packages the bulk classes are spread over.
    pub packages: usize,
}

impl Default for SynthSpec {
    fn default() -> SynthSpec {
        SynthSpec {
            seed: 0x5eed_1ab5,
            types: 10_000,
            alpha: 2.3,
            max_out_degree: 48,
            planted: 24,
            plant_len: 4,
            decoys_per_hop: 2,
            packages: 64,
        }
    }
}

/// One planted ground-truth chain: querying `tin → tout` has the hop
/// methods (in order) as its unique shortest jungloid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlantedPath {
    /// Fully generated head class name (`Plant{k}Step0`).
    pub tin: String,
    /// Tail class name (`Plant{k}Step{plant_len}`).
    pub tout: String,
    /// The hop method names, in path order.
    pub hops: Vec<String>,
}

/// What [`grow_synth`] generated.
#[derive(Clone, Debug, Default)]
pub struct SynthReport {
    /// Classes added (bulk + chain).
    pub classes: usize,
    /// Methods added.
    pub methods: usize,
    /// The planted ground truth.
    pub planted: Vec<PlantedPath>,
}

/// Samples a Pareto-tail out-degree: `d = ⌊u^(-1/(alpha-1))⌋`, clamped
/// to `[1, max]`. With alpha ≈ 2.3 most classes get 1–3 methods and a
/// few get dozens — the hub-and-leaves shape of real API graphs.
fn power_law_degree(rng: &mut SmallRng, alpha: f64, max: usize) -> usize {
    // gen_range over a wide usize span → uniform (0, 1]; avoid exactly 0.
    const SPAN: usize = 1 << 31;
    let u = (rng.gen_range(0..SPAN) as f64 + 1.0) / SPAN as f64;
    let d = u.powf(-1.0 / (alpha - 1.0)).floor() as usize;
    d.clamp(1, max.max(1))
}

/// Grows `api` by `spec`: bulk classes with power-law out-degree, then
/// the planted chains. Deterministic in `spec.seed`.
///
/// # Panics
///
/// Panics only if generated names collide with existing declarations
/// (they are namespaced under `synth.*`, so they never should).
pub fn grow_synth(api: &mut Api, spec: &SynthSpec) -> SynthReport {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut report = SynthReport::default();

    // Bulk classes first, so methods can return any of them.
    let mut bulk: Vec<TyId> = Vec::with_capacity(spec.types);
    for i in 0..spec.types {
        let pkg = format!("synth.p{}", i % spec.packages.max(1));
        let ty = api.declare_class(&pkg, &format!("Syn{i}")).expect("unique synth class name");
        bulk.push(ty);
        report.classes += 1;
    }

    // Power-law out-degree: zero-parameter instance methods, each an
    // edge `Syn{i} → Syn{target}` in the jungloid graph.
    for (i, &ty) in bulk.iter().enumerate() {
        let degree = power_law_degree(&mut rng, spec.alpha, spec.max_out_degree);
        for m in 0..degree {
            let target = bulk[rng.gen_range(0..bulk.len())];
            let def = MethodDef {
                name: format!("syn{i}m{m}"),
                declaring: ty,
                params: Vec::new(),
                param_names: Vec::new(),
                ret: target,
                visibility: Visibility::Public,
                is_static: false,
                is_constructor: false,
            };
            if api.add_method(def).is_ok() {
                report.methods += 1;
            }
        }
    }

    // Planted chains: Step0 --hop0--> Step1 --hop1--> ... --> StepN,
    // plus decoys from every step into the bulk.
    for k in 0..spec.planted {
        let steps: Vec<TyId> = (0..=spec.plant_len)
            .map(|j| {
                report.classes += 1;
                api.declare_class("synth.planted", &format!("Plant{k}Step{j}"))
                    .expect("unique planted class name")
            })
            .collect();
        let mut hops = Vec::with_capacity(spec.plant_len);
        for j in 0..spec.plant_len {
            let hop = format!("plant{k}hop{j}");
            let def = MethodDef {
                name: hop.clone(),
                declaring: steps[j],
                params: Vec::new(),
                param_names: Vec::new(),
                ret: steps[j + 1],
                visibility: Visibility::Public,
                is_static: false,
                is_constructor: false,
            };
            if api.add_method(def).is_ok() {
                report.methods += 1;
            }
            hops.push(hop);
        }
        // Decoys lead off the chain into the bulk (never back: bulk
        // methods cannot return planted classes), so the search has
        // real branching to resist at every step.
        if !bulk.is_empty() {
            for (j, &step) in steps.iter().enumerate() {
                for d in 0..spec.decoys_per_hop {
                    let target = bulk[rng.gen_range(0..bulk.len())];
                    let def = MethodDef {
                        name: format!("plant{k}decoy{j}x{d}"),
                        declaring: step,
                        params: Vec::new(),
                        param_names: Vec::new(),
                        ret: target,
                        visibility: Visibility::Public,
                        is_static: false,
                        is_constructor: false,
                    };
                    if api.add_method(def).is_ok() {
                        report.methods += 1;
                    }
                }
            }
        }
        report.planted.push(PlantedPath {
            tin: format!("Plant{k}Step0"),
            tout: format!("Plant{k}Step{}", spec.plant_len),
            hops,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::ApiLoader;
    use prospector_core::Prospector;

    fn small_spec() -> SynthSpec {
        SynthSpec { types: 500, planted: 4, plant_len: 3, ..SynthSpec::default() }
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = ApiLoader::with_prelude().finish().unwrap();
        let mut b = ApiLoader::with_prelude().finish().unwrap();
        let ra = grow_synth(&mut a, &small_spec());
        let rb = grow_synth(&mut b, &small_spec());
        assert_eq!(ra.classes, rb.classes);
        assert_eq!(ra.methods, rb.methods);
        assert_eq!(ra.planted, rb.planted);
        assert_eq!(a.method_count(), b.method_count());
    }

    #[test]
    fn scale_tracks_the_types_knob() {
        let mut api = ApiLoader::with_prelude().finish().unwrap();
        let spec = small_spec();
        let report = grow_synth(&mut api, &spec);
        assert_eq!(report.classes, spec.types + spec.planted * (spec.plant_len + 1));
        // Power law with alpha 2.3: at least one method per class, and
        // nowhere near the max-degree ceiling on average.
        assert!(report.methods >= spec.types);
        assert!(report.methods <= spec.types * spec.max_out_degree);
    }

    #[test]
    fn planted_paths_are_found_exactly() {
        let mut api = ApiLoader::with_prelude().finish().unwrap();
        let spec = small_spec();
        let report = grow_synth(&mut api, &spec);
        let queries: Vec<(jungloid_typesys::TyId, jungloid_typesys::TyId)> = report
            .planted
            .iter()
            .map(|p| {
                (
                    api.types().resolve(&p.tin).unwrap(),
                    api.types().resolve(&p.tout).unwrap(),
                )
            })
            .collect();
        let engine = Prospector::new(api);
        for (planted, &(tin, tout)) in report.planted.iter().zip(&queries) {
            let result = engine.query(tin, tout).expect("planted query answers");
            assert_eq!(
                result.shortest,
                Some(spec.plant_len as u32),
                "planted chain is the shortest path"
            );
            let top = &result.suggestions.first().expect("has a suggestion").code;
            for hop in &planted.hops {
                assert!(top.contains(hop), "top suggestion {top:?} uses hop {hop:?}");
            }
        }
    }
}
