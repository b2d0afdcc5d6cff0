//! Jungloids as values: a source type plus a chain of elementary
//! jungloids (§2.1 Definitions 3–4).

use jungloid_apidef::{Api, ElemJungloid};
use jungloid_typesys::TyId;

/// A jungloid: a well-typed composition of elementary jungloids from
/// `source` to [`Jungloid::output_ty`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Jungloid {
    /// The input type `tin` (possibly `void`).
    pub source: TyId,
    /// The composed elementary jungloids, input-to-output order.
    pub elems: Vec<ElemJungloid>,
}

impl Jungloid {
    /// Creates a jungloid, validating well-typedness.
    ///
    /// # Errors
    ///
    /// Returns a description of the first ill-typed composition, or of a
    /// widening/downcast step whose endpoints are not in the subtype
    /// relation.
    pub fn new(api: &Api, source: TyId, elems: Vec<ElemJungloid>) -> Result<Self, String> {
        let j = Jungloid { source, elems };
        j.validate(api)?;
        Ok(j)
    }

    /// Checks Definition 3: each elementary jungloid's input type equals
    /// its predecessor's output type, widenings go up the hierarchy, and
    /// downcasts go down.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self, api: &Api) -> Result<(), String> {
        let mut current = self.source;
        for e in &self.elems {
            let expect = e.input_ty(api);
            if expect != current {
                return Err(format!(
                    "step {} expects {} but receives {}",
                    e.label(api),
                    api.types().display(expect),
                    api.types().display(current)
                ));
            }
            match *e {
                ElemJungloid::Widen { from, to }
                    if (!api.types().is_subtype(from, to) || from == to) => {
                        return Err(format!(
                            "invalid widening {} -> {}",
                            api.types().display(from),
                            api.types().display(to)
                        ));
                    }
                ElemJungloid::Downcast { from, to }
                    if (!api.types().is_subtype(to, from) || from == to) => {
                        return Err(format!(
                            "invalid downcast {} -> {}",
                            api.types().display(from),
                            api.types().display(to)
                        ));
                    }
                _ => {}
            }
            current = e.output_ty(api);
        }
        Ok(())
    }

    /// Length per §3.2: the number of elementary jungloids, *not counting
    /// widenings* ("Widening has no syntax, so it does not increase code
    /// size or complexity").
    #[must_use]
    pub fn steps(&self) -> u32 {
        u32::try_from(self.elems.iter().filter(|e| !e.is_widen()).count()).expect("path length")
    }

    /// The output type `tout'` of the composition (equals `source` for the
    /// empty jungloid).
    #[must_use]
    pub fn output_ty(&self, api: &Api) -> TyId {
        self.elems.last().map_or(self.source, |e| e.output_ty(api))
    }

    /// The output type before any trailing widenings — the type the code
    /// *actually* produces. Used by the generality tie-break of §3.2: a
    /// jungloid that returns `XMLEditor` and widens it to the requested
    /// `IEditorPart` is more specific than one returning `IEditorPart`
    /// directly, and ranks below it.
    #[must_use]
    pub fn concrete_output_ty(&self, api: &Api) -> TyId {
        for e in self.elems.iter().rev() {
            if !e.is_widen() {
                return e.output_ty(api);
            }
        }
        self.source
    }

    /// Total `(reference, primitive)` free-variable counts across all
    /// steps.
    #[must_use]
    pub fn free_var_counts(&self, api: &Api) -> (u32, u32) {
        let mut refs = 0;
        let mut prims = 0;
        for e in &self.elems {
            let (r, p) = e.free_var_counts(api);
            refs += r;
            prims += p;
        }
        (refs, prims)
    }

    /// Whether any step is a downcast (i.e. the jungloid needed mining).
    #[must_use]
    pub fn contains_downcast(&self) -> bool {
        self.elems.iter().any(ElemJungloid::is_downcast)
    }

    /// Number of package boundaries crossed along the object chain
    /// (§3.2's refinement: "jungloids that cross many Java package
    /// boundaries are less likely to be useful").
    ///
    /// Counted over the sequence of types produced along the chain
    /// (ignoring widenings and the `void` source): each adjacent pair
    /// living in different packages is one crossing.
    #[must_use]
    pub fn package_crossings(&self, api: &Api) -> u32 {
        let mut crossings = 0;
        let mut prev = api.types().package_of(self.source);
        for e in &self.elems {
            if e.is_widen() {
                continue;
            }
            let here = api.types().package_of(e.output_ty(api));
            if let (Some(a), Some(b)) = (prev, here) {
                if a != b {
                    crossings += 1;
                }
            }
            prev = here;
        }
        crossings
    }

    /// A stable per-step kind code used as a deterministic tie-break:
    /// field access 0, instance call 1, static call 2, constructor 3,
    /// downcast 4 (widenings skipped).
    #[must_use]
    pub fn kind_seq(&self, api: &Api) -> Vec<u8> {
        self.elems
            .iter()
            .filter_map(|e| match *e {
                ElemJungloid::FieldAccess { .. } => Some(0),
                ElemJungloid::Call { method, .. } => {
                    let def = api.method(method);
                    if def.is_constructor() {
                        Some(3)
                    } else if def.is_static() {
                        Some(2)
                    } else {
                        Some(1)
                    }
                }
                ElemJungloid::Widen { .. } => None,
                ElemJungloid::Downcast { .. } => Some(4),
            })
            .collect()
    }

    /// Sum of inheritance depths of the intermediate and final produced
    /// types; the secondary generality tie-break (a chain through more
    /// general types is preferred).
    #[must_use]
    pub fn depth_sum(&self, api: &Api) -> u32 {
        self.elems
            .iter()
            .filter(|e| !e.is_widen())
            .map(|e| api.types().depth(e.output_ty(api)))
            .sum()
    }

    /// Compact arrow notation for diagnostics, e.g.
    /// `IFile -[JavaCore.createCompilationUnitFrom]-> ICompilationUnit ...`.
    #[must_use]
    pub fn describe(&self, api: &Api) -> String {
        let mut s = api.types().display_simple(self.source);
        for e in &self.elems {
            s.push_str(&format!(
                " -[{}]-> {}",
                e.label(api),
                api.types().display_simple(e.output_ty(api))
            ));
        }
        s
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
                package p1;
                public class A { B toB(); }
                package p2;
                public class B extends A {
                    static B merge(A first, A second, int flags);
                }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    #[test]
    fn validation_accepts_well_typed() {
        let api = api();
        let a = api.types().resolve("A").unwrap();
        let b = api.types().resolve("B").unwrap();
        let to_b = api.lookup_instance_method(a, "toB", 0)[0];
        let j = Jungloid::new(
            &api,
            a,
            vec![
                ElemJungloid::Call { method: to_b, input: Some(InputSlot::Receiver) },
                ElemJungloid::Widen { from: b, to: a },
            ],
        )
        .unwrap();
        assert_eq!(j.steps(), 1);
        assert_eq!(j.output_ty(&api), a);
        assert_eq!(j.concrete_output_ty(&api), b);
    }

    #[test]
    fn validation_rejects_bad_chain() {
        let api = api();
        let a = api.types().resolve("A").unwrap();
        let b = api.types().resolve("B").unwrap();
        let to_b = api.lookup_instance_method(a, "toB", 0)[0];
        // toB outputs B; feeding it into toB again requires A upcast first.
        let err = Jungloid::new(
            &api,
            b,
            vec![ElemJungloid::Call { method: to_b, input: Some(InputSlot::Receiver) }],
        )
        .unwrap_err();
        assert!(err.contains("expects"));
    }

    #[test]
    fn validation_rejects_sideways_widen_and_cast() {
        let api = api();
        let a = api.types().resolve("A").unwrap();
        let b = api.types().resolve("B").unwrap();
        // widen must go up: B -> A ok, A -> B not.
        assert!(Jungloid::new(&api, a, vec![ElemJungloid::Widen { from: a, to: b }]).is_err());
        // downcast must go down: A -> B ok, B -> A not.
        assert!(Jungloid::new(&api, b, vec![ElemJungloid::Downcast { from: b, to: a }]).is_err());
        assert!(Jungloid::new(&api, a, vec![ElemJungloid::Downcast { from: a, to: b }]).is_ok());
    }

    #[test]
    fn free_vars_accumulate() {
        let api = api();
        let a = api.types().resolve("A").unwrap();
        let b = api.types().resolve("B").unwrap();
        let merge = api.lookup_static_method(b, "merge", 3)[0];
        let j = Jungloid::new(
            &api,
            a,
            vec![ElemJungloid::Call { method: merge, input: Some(InputSlot::Arg(0)) }],
        )
        .unwrap();
        // `second` (reference) and `flags` (int) are free.
        assert_eq!(j.free_var_counts(&api), (1, 1));
    }

    #[test]
    fn crossings_counted_over_packages() {
        let api = api();
        let a = api.types().resolve("A").unwrap(); // p1
        let b = api.types().resolve("B").unwrap(); // p2
        let to_b = api.lookup_instance_method(a, "toB", 0)[0];
        let j = Jungloid::new(
            &api,
            a,
            vec![ElemJungloid::Call { method: to_b, input: Some(InputSlot::Receiver) }],
        )
        .unwrap();
        // A (p1) -> B (p2): one crossing.
        assert_eq!(j.package_crossings(&api), 1);
        // Widening doesn't add crossings.
        let j2 = Jungloid::new(
            &api,
            a,
            vec![
                ElemJungloid::Call { method: to_b, input: Some(InputSlot::Receiver) },
                ElemJungloid::Widen { from: b, to: a },
            ],
        )
        .unwrap();
        assert_eq!(j2.package_crossings(&api), 1);
    }

    #[test]
    fn kind_seq_and_describe() {
        let api = api();
        let a = api.types().resolve("A").unwrap();
        let b = api.types().resolve("B").unwrap();
        let to_b = api.lookup_instance_method(a, "toB", 0)[0];
        let merge = api.lookup_static_method(b, "merge", 3)[0];
        let j = Jungloid::new(
            &api,
            a,
            vec![
                ElemJungloid::Call { method: to_b, input: Some(InputSlot::Receiver) },
                ElemJungloid::Widen { from: b, to: a },
                ElemJungloid::Call { method: merge, input: Some(InputSlot::Arg(1)) },
            ],
        )
        .unwrap();
        assert_eq!(j.kind_seq(&api), vec![1, 2]);
        let desc = j.describe(&api);
        assert!(desc.starts_with("A -[A.toB]-> B"));
        assert!(desc.contains("B.merge"));
        assert!(!j.contains_downcast());
    }
}
