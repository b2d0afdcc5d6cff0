//! The API-jungle generator: seeded, procedural distractor mass.
//!
//! The paper's graph covers J2SE (≈21,000 methods) plus Eclipse; our
//! hand-modeled fragments cover the classes the evaluation names. For the
//! §5 performance experiment — graph size, load time, query-latency
//! distribution — the graph must have paper-scale bulk, so this module
//! grows an [`Api`] with procedurally generated packages, class
//! hierarchies, fields, and methods. Generation is deterministic in the
//! seed.

use jungloid_apidef::{Api, FieldDef, MethodDef, Visibility};
use jungloid_typesys::{Prim, Ty, TyId};
use prospector_obs::SmallRng;

/// Shape of the generated jungle.
#[derive(Clone, Copy, Debug)]
pub struct JungleSpec {
    /// RNG seed.
    pub seed: u64,
    /// Number of generated packages.
    pub packages: usize,
    /// Number of generated classes.
    pub classes: usize,
    /// Average methods per class.
    pub avg_methods: usize,
    /// Probability that a class extends an earlier generated class.
    pub subclass_prob: f64,
    /// Probability that a method parameter/return uses a pre-existing
    /// (hand-modeled) type instead of a generated one, creating cross
    /// links into the modeled API.
    pub cross_link_prob: f64,
    /// Probability that a class gets a field per method slot.
    pub field_prob: f64,
}

impl Default for JungleSpec {
    /// Paper-scale default: ≈3,000 classes / ≈21,000 methods.
    fn default() -> Self {
        JungleSpec {
            seed: 0x1a2b_3c4d,
            packages: 60,
            classes: 3_000,
            avg_methods: 7,
            subclass_prob: 0.45,
            cross_link_prob: 0.04,
            field_prob: 0.08,
        }
    }
}

/// What was generated.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JungleStats {
    /// Classes added.
    pub classes: usize,
    /// Methods (incl. constructors) added.
    pub methods: usize,
    /// Fields added.
    pub fields: usize,
}

/// Grows `api` by `spec`.
///
/// # Panics
///
/// Panics only if the generated names collide with existing declarations
/// (they are namespaced under `jungle.p<N>`, so they never should).
pub fn grow(api: &mut Api, spec: &JungleSpec) -> JungleStats {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let existing: Vec<TyId> = api
        .types()
        .ids()
        .filter(|&t| api.types().kind(t).is_some())
        .collect();
    let mut generated: Vec<TyId> = Vec::with_capacity(spec.classes);
    let mut stats = JungleStats::default();

    for c in 0..spec.classes {
        let pkg = format!("jungle.p{}", rng.gen_range(0..spec.packages.max(1)));
        let name = format!("Gen{c}");
        let ty = api.declare_class(&pkg, &name).expect("unique jungle class name");
        if !generated.is_empty() && rng.gen_bool(spec.subclass_prob) {
            let sup = generated[rng.gen_range(0..generated.len())];
            // Ignore failures (e.g. hierarchy rules) — purely best-effort.
            let _ = api.types_mut().set_superclass(ty, sup);
        }
        generated.push(ty);
        stats.classes += 1;
    }

    let pick_type = |rng: &mut SmallRng, generated: &[TyId], api: &Api| -> TyId {
        if !existing.is_empty() && rng.gen_bool(spec.cross_link_prob) {
            existing[rng.gen_range(0..existing.len())]
        } else if rng.gen_bool(0.12) {
            api.types().prim(match rng.gen_range(0..4) {
                0 => Prim::Int,
                1 => Prim::Boolean,
                2 => Prim::Long,
                _ => Prim::Double,
            })
        } else {
            generated[rng.gen_range(0..generated.len())]
        }
    };

    for (ci, &ty) in generated.iter().enumerate() {
        let n_methods = rng.gen_range(1..=spec.avg_methods * 2 - 1);
        for m in 0..n_methods {
            let is_ctor = m == 0 && rng.gen_bool(0.5);
            let is_static = !is_ctor && rng.gen_bool(0.2);
            let n_params = rng.gen_range(0..=3);
            let params: Vec<TyId> =
                (0..n_params).map(|_| pick_type(&mut rng, &generated, api)).collect();
            let ret = if is_ctor {
                ty
            } else if rng.gen_bool(0.1) {
                api.types().void()
            } else {
                pick_type(&mut rng, &generated, api)
            };
            let def = MethodDef {
                name: if is_ctor { "<init>".to_owned() } else { format!("gen{ci}m{m}") },
                declaring: ty,
                params,
                param_names: Vec::new(),
                ret,
                visibility: if rng.gen_bool(0.9) { Visibility::Public } else { Visibility::Protected },
                is_static,
                is_constructor: is_ctor,
            };
            if api.add_method(def).is_ok() {
                stats.methods += 1;
            }
        }
        if rng.gen_bool(spec.field_prob) {
            let fty = pick_type(&mut rng, &generated, api);
            if !matches!(api.types().ty(fty), Ty::Void) {
                let def = FieldDef {
                    name: format!("field{ci}"),
                    declaring: ty,
                    ty: fty,
                    visibility: Visibility::Public,
                    is_static: rng.gen_bool(0.3),
                };
                if api.add_field(def).is_ok() {
                    stats.fields += 1;
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::ApiLoader;

    fn small_spec() -> JungleSpec {
        JungleSpec { classes: 200, packages: 8, avg_methods: 5, ..JungleSpec::default() }
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = ApiLoader::with_prelude().finish().unwrap();
        let mut b = ApiLoader::with_prelude().finish().unwrap();
        let s1 = grow(&mut a, &small_spec());
        let s2 = grow(&mut b, &small_spec());
        assert_eq!(s1, s2);
        assert_eq!(a.method_count(), b.method_count());
        // Spot-check a random method's shape matches.
        let m = a.method_ids().last().unwrap();
        assert_eq!(a.method(m).name(), b.method(m).name());
        assert_eq!(a.method(m).params(), b.method(m).params());
    }

    #[test]
    fn different_seed_differs() {
        let mut a = ApiLoader::with_prelude().finish().unwrap();
        let mut b = ApiLoader::with_prelude().finish().unwrap();
        grow(&mut a, &small_spec());
        grow(&mut b, &JungleSpec { seed: 99, ..small_spec() });
        let names_a: Vec<&str> = a.method_ids().map(|m| a.method(m).name()).collect();
        let names_b: Vec<&str> = b.method_ids().map(|m| b.method(m).name()).collect();
        // Same name scheme but different shapes overall.
        assert_eq!(names_a.len() == names_b.len(), names_a == names_b);
    }

    #[test]
    fn scale_is_roughly_as_requested() {
        let mut api = ApiLoader::with_prelude().finish().unwrap();
        let stats = grow(&mut api, &small_spec());
        assert_eq!(stats.classes, 200);
        // avg_methods 5 → between 1 and 9 per class.
        assert!(stats.methods >= 200 && stats.methods <= 9 * 200);
    }

    #[test]
    fn default_spec_is_paper_scale() {
        let spec = JungleSpec::default();
        // ≈ 3000 classes × ≈7 methods ≈ 21k methods (J2SE's count, §1).
        assert_eq!(spec.classes * spec.avg_methods, 21_000);
    }

    #[test]
    fn generated_api_is_searchable() {
        use prospector_core::Prospector;
        let mut api = ApiLoader::with_prelude().finish().unwrap();
        grow(&mut api, &small_spec());
        let a = api.types().resolve("Gen0").unwrap();
        let object = api.types().object().unwrap();
        let p = Prospector::new(api);
        // Every generated class can at least widen toward Object through
        // some chain; querying must not panic and must answer quickly.
        let result = p.query(a, object);
        assert!(result.is_ok());
    }
}
