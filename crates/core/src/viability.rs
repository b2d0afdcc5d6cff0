//! Viability checking (§4.1).
//!
//! *"We call such a jungloid **inviable**, by which we mean that it always
//! either throws an exception or returns null. A jungloid is **viable** if
//! there is at least one environment (i.e., combination of global program
//! state and input values) that makes the jungloid return normally."*
//!
//! This module implements that existential semantics over a *behavior
//! model*: a per-method map from signature to the set of dynamic types the
//! method can actually produce at run time (what the paper's mined corpus
//! knows implicitly and signatures don't). Execution
//! propagates the set of possible dynamic types through the chain; a
//! downcast filters the set; the jungloid is viable iff some possibility
//! survives to the end.
//!
//! The behavior model plays the role of "the run-time type system": it is
//! how the repository *scores* synthesis output (e.g. the viability rates
//! in the mining ablation), never an input to synthesis itself — exactly
//! like the paper, where viability is a property checked against reality,
//! not something the tool gets to see.

use std::collections::HashMap;

use jungloid_apidef::{Api, ElemJungloid, MethodId};
use jungloid_typesys::TyId;

use crate::path::Jungloid;

/// A run-time behavior model: which dynamic types members really produce.
///
/// Methods without an entry, and every field, behave "as declared":
/// they produce exactly their static type (sound for classes,
/// optimistic for interfaces).
#[derive(Clone, Debug, Default)]
pub struct Behavior {
    method_dynamics: HashMap<MethodId, Vec<TyId>>,
    always_null: Vec<MethodId>,
}

impl Behavior {
    /// An empty model (everything behaves as declared).
    #[must_use]
    pub fn new() -> Self {
        Behavior::default()
    }

    /// Declares the set of dynamic types `method` can return.
    pub fn method_returns(&mut self, method: MethodId, dynamics: &[TyId]) -> &mut Self {
        self.method_dynamics.insert(method, dynamics.to_vec());
        self
    }

    /// Declares that `method` returns null in every environment (the
    /// paper's other inviability source).
    pub fn method_always_null(&mut self, method: MethodId) -> &mut Self {
        self.always_null.push(method);
        self
    }
}

/// The result of existential execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Some environment makes the jungloid return normally; the possible
    /// dynamic types of the result are listed.
    Viable {
        /// Possible dynamic result types.
        dynamics: Vec<TyId>,
    },
    /// Every environment throws `ClassCastException` at the given step.
    CastFails {
        /// Index into the jungloid's elems.
        step: usize,
        /// The dynamic possibilities that reached the cast.
        reaching: Vec<TyId>,
        /// The cast target.
        target: TyId,
    },
    /// A step always returns null, so the chain cannot continue.
    NullAt {
        /// Index into the jungloid's elems.
        step: usize,
    },
}

impl Outcome {
    /// Whether the jungloid is viable (§4.1).
    #[must_use]
    pub fn is_viable(&self) -> bool {
        matches!(self, Outcome::Viable { .. })
    }
}

/// Executes `jungloid` existentially under `behavior`.
///
/// The input object's dynamic type may be any subtype of the source type
/// (including itself) — the caller controls the environment, so every
/// concrete possibility is allowed.
#[must_use]
pub fn execute(api: &Api, behavior: &Behavior, jungloid: &Jungloid) -> Outcome {
    // Possible dynamic types of the current value. For the input we take
    // the static type plus all of its subtypes (the ∃-environment).
    let mut dynamics: Vec<TyId> = possible_dynamics(api, jungloid.source);
    for (step, elem) in jungloid.elems.iter().enumerate() {
        match *elem {
            ElemJungloid::Widen { .. } => {}
            ElemJungloid::Downcast { to, .. } => {
                let reaching = dynamics.clone();
                dynamics.retain(|&d| api.types().is_subtype(d, to) || api.types().is_subtype(to, d));
                if dynamics.is_empty() {
                    return Outcome::CastFails { step, reaching, target: to };
                }
                // After a successful cast the value is (at least) `to`.
                dynamics.retain(|&d| api.types().is_subtype(d, to));
                if dynamics.is_empty() {
                    dynamics.push(to);
                }
            }
            ElemJungloid::Call { method, .. } => {
                if behavior.always_null.contains(&method) {
                    return Outcome::NullAt { step };
                }
                dynamics = match behavior.method_dynamics.get(&method) {
                    Some(ds) => ds.clone(),
                    None => possible_dynamics(api, api.method(method).ret()),
                };
            }
            ElemJungloid::FieldAccess { field } => {
                dynamics = possible_dynamics(api, api.field(field).ty());
            }
        }
    }
    Outcome::Viable { dynamics }
}

/// Fraction of `jungloids` that are viable under `behavior`.
#[must_use]
pub fn viability_rate(api: &Api, behavior: &Behavior, jungloids: &[&Jungloid]) -> f64 {
    if jungloids.is_empty() {
        return 1.0;
    }
    let viable = jungloids
        .iter()
        .filter(|j| execute(api, behavior, j).is_viable())
        .count();
    viable as f64 / jungloids.len() as f64
}

/// The dynamic possibilities of an *unconstrained* value of static type
/// `ty`: itself plus every strict subtype.
fn possible_dynamics(api: &Api, ty: TyId) -> Vec<TyId> {
    let mut out = vec![ty];
    out.extend(api.types().strict_subtypes(ty));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::{ApiLoader, InputSlot};

    fn api() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "v.api",
                r"
                package v;
                public interface ISel { Object first(); }
                public interface IStructured extends ISel {}
                public class Viewer { ISel getSelection(); Object getInput(); }
                public class Watch {}
                public class Doc {}
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    fn call(api: &Api, class: &str, name: &str) -> (MethodId, ElemJungloid) {
        let c = api.types().resolve(class).unwrap();
        let m = api.lookup_instance_method(c, name, 0)[0];
        (m, ElemJungloid::Call { method: m, input: Some(InputSlot::Receiver) })
    }

    #[test]
    fn declared_behavior_makes_casts_viable_or_not() {
        let api = api();
        let viewer = api.types().resolve("Viewer").unwrap();
        let isel = api.types().resolve("ISel").unwrap();
        let istructured = api.types().resolve("IStructured").unwrap();
        let watch = api.types().resolve("Watch").unwrap();
        let (get_sel_m, get_sel) = call(&api, "Viewer", "getSelection");

        // viewer.getSelection() really returns IStructured.
        let mut behavior = Behavior::new();
        behavior.method_returns(get_sel_m, &[istructured]);

        let good = Jungloid::new(
            &api,
            viewer,
            vec![get_sel, ElemJungloid::Downcast { from: isel, to: istructured }],
        )
        .unwrap();
        assert!(execute(&api, &behavior, &good).is_viable());

        // Casting getInput()'s Object to Watch: without behavior evidence
        // the Object could be anything — ∃-viable. With evidence that
        // getInput only returns Doc, it is inviable.
        let (get_input_m, get_input) = call(&api, "Viewer", "getInput");
        let obj = api.types().object().unwrap();
        let bad = Jungloid::new(
            &api,
            viewer,
            vec![get_input, ElemJungloid::Downcast { from: obj, to: watch }],
        )
        .unwrap();
        assert!(execute(&api, &behavior, &bad).is_viable(), "no evidence: optimistic");
        let doc = api.types().resolve("Doc").unwrap();
        behavior.method_returns(get_input_m, &[doc]);
        let outcome = execute(&api, &behavior, &bad);
        assert!(!outcome.is_viable());
        assert!(matches!(outcome, Outcome::CastFails { step: 1, .. }));
    }

    #[test]
    fn always_null_is_inviable() {
        let api = api();
        let viewer = api.types().resolve("Viewer").unwrap();
        let isel = api.types().resolve("ISel").unwrap();
        let istructured = api.types().resolve("IStructured").unwrap();
        let (m, get_sel) = call(&api, "Viewer", "getSelection");
        let mut behavior = Behavior::new();
        behavior.method_always_null(m);
        let j = Jungloid::new(
            &api,
            viewer,
            vec![get_sel, ElemJungloid::Downcast { from: isel, to: istructured }],
        )
        .unwrap();
        assert_eq!(execute(&api, &behavior, &j), Outcome::NullAt { step: 0 });
    }

    #[test]
    fn chained_casts_narrow_the_set() {
        let api = api();
        let viewer = api.types().resolve("Viewer").unwrap();
        let isel = api.types().resolve("ISel").unwrap();
        let istructured = api.types().resolve("IStructured").unwrap();
        let (m, get_sel) = call(&api, "Viewer", "getSelection");
        let mut behavior = Behavior::new();
        // getSelection can return a plain ISel or an IStructured.
        behavior.method_returns(m, &[isel, istructured]);
        let j = Jungloid::new(
            &api,
            viewer,
            vec![get_sel, ElemJungloid::Downcast { from: isel, to: istructured }],
        )
        .unwrap();
        let Outcome::Viable { dynamics } = execute(&api, &behavior, &j) else {
            panic!("cast can succeed in the IStructured environment")
        };
        assert_eq!(dynamics, vec![istructured]);
    }

    #[test]
    fn viability_rate_counts() {
        let api = api();
        let viewer = api.types().resolve("Viewer").unwrap();
        let isel = api.types().resolve("ISel").unwrap();
        let istructured = api.types().resolve("IStructured").unwrap();
        let watch = api.types().resolve("Watch").unwrap();
        let doc = api.types().resolve("Doc").unwrap();
        let obj = api.types().object().unwrap();
        let (sel_m, get_sel) = call(&api, "Viewer", "getSelection");
        let (input_m, get_input) = call(&api, "Viewer", "getInput");
        let mut behavior = Behavior::new();
        behavior.method_returns(sel_m, &[istructured]).method_returns(input_m, &[doc]);

        let good = Jungloid::new(
            &api,
            viewer,
            vec![get_sel, ElemJungloid::Downcast { from: isel, to: istructured }],
        )
        .unwrap();
        let bad = Jungloid::new(
            &api,
            viewer,
            vec![get_input, ElemJungloid::Downcast { from: obj, to: watch }],
        )
        .unwrap();
        let rate = viability_rate(&api, &behavior, &[&good, &bad]);
        assert!((rate - 0.5).abs() < 1e-9);
        assert!((viability_rate(&api, &behavior, &[]) - 1.0).abs() < 1e-9);
    }
}
