//! Elementary jungloids (paper §2.1, Definition 2).
//!
//! An elementary jungloid is a typed unary expression `λx.e : T → U`. The
//! paper defines six kinds for Java; we reify them as [`ElemJungloid`]:
//!
//! | paper kind                        | representation                          |
//! |-----------------------------------|-----------------------------------------|
//! | field access                      | `FieldAccess` (instance: `T → U`; static: `void → U`) |
//! | static method / constructor       | `Call { input: Some(Arg(i)) }` per class-typed parameter, or `Call { input: None }` (`void → U`) when none |
//! | instance method                   | `Call { input: Some(Receiver) }` plus one per class-typed parameter |
//! | widening reference conversion     | `Widen` (`T → U`, `T <: U`, zero length) |
//! | downcast                          | `Downcast` (`T → U`, `U <: T`; never derived from signatures — only mined) |
//!
//! Parameters other than the consumed input slot are *free variables*
//! (§2.1): they are left unbound during synthesis and the user fills them
//! in afterwards, typically with a follow-up query.

use jungloid_typesys::{Ty, TyId};
use prospector_obs::json::Json;

use crate::model::ty_ref;
use crate::{Api, FieldId, MethodId};

/// Which of a method's value inputs an elementary jungloid consumes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InputSlot {
    /// The receiver of an instance method.
    Receiver,
    /// The `i`-th parameter.
    Arg(usize),
}

/// One elementary jungloid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ElemJungloid {
    /// Reading a field: instance fields are `declaring → fieldty`; static
    /// fields have no value input and are `void → fieldty`.
    FieldAccess {
        /// The accessed field.
        field: FieldId,
    },
    /// Invoking a method or constructor, consuming `input`.
    /// `input == None` means the call has no class-typed inputs (a static
    /// method or constructor whose parameters are all primitive or absent):
    /// the jungloid is `void → ret`.
    Call {
        /// The invoked method.
        method: MethodId,
        /// Consumed slot, if any.
        input: Option<InputSlot>,
    },
    /// The no-syntax widening reference conversion `from <: to`.
    Widen {
        /// Source type.
        from: TyId,
        /// Target (super)type.
        to: TyId,
    },
    /// A downcast `(to) x` with `to <: from`.
    Downcast {
        /// Static type of the operand.
        from: TyId,
        /// Target (sub)type.
        to: TyId,
    },
}

impl ElemJungloid {
    /// The input type `T` of this `T → U` jungloid (`void` for
    /// zero-argument jungloids).
    #[must_use]
    pub fn input_ty(&self, api: &Api) -> TyId {
        match *self {
            ElemJungloid::FieldAccess { field } => {
                let def = api.field(field);
                if def.is_static() {
                    api.types().void()
                } else {
                    def.declaring()
                }
            }
            ElemJungloid::Call { method, input } => {
                let def = api.method(method);
                match input {
                    None => api.types().void(),
                    Some(InputSlot::Receiver) => def.declaring(),
                    Some(InputSlot::Arg(i)) => def.params()[i],
                }
            }
            ElemJungloid::Widen { from, .. } | ElemJungloid::Downcast { from, .. } => from,
        }
    }

    /// The output type `U` of this `T → U` jungloid.
    #[must_use]
    pub fn output_ty(&self, api: &Api) -> TyId {
        match *self {
            ElemJungloid::FieldAccess { field } => api.field(field).ty(),
            ElemJungloid::Call { method, .. } => api.method(method).ret(),
            ElemJungloid::Widen { to, .. } | ElemJungloid::Downcast { to, .. } => to,
        }
    }

    /// Whether this is a widening conversion (length 0 in ranking, §3.2:
    /// "we do not count widening elementary jungloids in computing the
    /// length").
    #[must_use]
    pub fn is_widen(&self) -> bool {
        matches!(self, ElemJungloid::Widen { .. })
    }

    /// Whether this is a downcast.
    #[must_use]
    pub fn is_downcast(&self) -> bool {
        matches!(self, ElemJungloid::Downcast { .. })
    }

    /// Free variables left by this jungloid, split into
    /// `(reference-typed, primitive-typed)` counts.
    ///
    /// For a call consuming one slot, every other parameter — plus the
    /// receiver, when an argument slot of an instance method is consumed —
    /// is free.
    #[must_use]
    pub fn free_var_counts(&self, api: &Api) -> (u32, u32) {
        let ElemJungloid::Call { method, input } = *self else { return (0, 0) };
        let def = api.method(method);
        let mut refs = 0;
        let mut prims = 0;
        let mut count = |ty: TyId| {
            if matches!(api.types().ty(ty), Ty::Prim(_)) {
                prims += 1;
            } else {
                refs += 1;
            }
        };
        if def.needs_receiver() && input != Some(InputSlot::Receiver) {
            count(def.declaring());
        }
        for (i, &p) in def.params().iter().enumerate() {
            if input != Some(InputSlot::Arg(i)) {
                count(p);
            }
        }
        (refs, prims)
    }

    /// The types of the free variables, in receiver-then-parameter order.
    #[must_use]
    pub fn free_var_types(&self, api: &Api) -> Vec<TyId> {
        let ElemJungloid::Call { method, input } = *self else { return Vec::new() };
        let def = api.method(method);
        let mut out = Vec::new();
        if def.needs_receiver() && input != Some(InputSlot::Receiver) {
            out.push(def.declaring());
        }
        for (i, &p) in def.params().iter().enumerate() {
            if input != Some(InputSlot::Arg(i)) {
                out.push(p);
            }
        }
        out
    }

    /// Short human-readable label, e.g. `widen`, `(IFile)`,
    /// `JavaCore.createCompilationUnitFrom`.
    #[must_use]
    pub fn label(&self, api: &Api) -> String {
        match *self {
            ElemJungloid::FieldAccess { field } => {
                let def = api.field(field);
                format!("{}.{}", api.types().display_simple(def.declaring()), def.name())
            }
            ElemJungloid::Call { method, .. } => {
                let def = api.method(method);
                let who = api.types().display_simple(def.declaring());
                if def.is_constructor() {
                    format!("new {who}")
                } else {
                    format!("{who}.{}", def.name())
                }
            }
            ElemJungloid::Widen { .. } => "widen".to_owned(),
            ElemJungloid::Downcast { to, .. } => {
                format!("({})", api.types().display_simple(to))
            }
        }
    }
}

impl ElemJungloid {
    /// Renders as a JSON debug value (tagged by `"k"`; member references
    /// are arena indexes into the same API).
    #[must_use]
    pub fn to_json(&self) -> Json {
        match *self {
            ElemJungloid::FieldAccess { field } => Json::obj(vec![
                ("k", Json::Str("field".to_owned())),
                ("field", Json::num_u(field.index() as u64)),
            ]),
            ElemJungloid::Call { method, input } => Json::obj(vec![
                ("k", Json::Str("call".to_owned())),
                ("method", Json::num_u(method.index() as u64)),
                (
                    "input",
                    match input {
                        None => Json::Null,
                        Some(InputSlot::Receiver) => Json::Str("recv".to_owned()),
                        Some(InputSlot::Arg(i)) => Json::num_u(i as u64),
                    },
                ),
            ]),
            ElemJungloid::Widen { from, to } => Json::obj(vec![
                ("k", Json::Str("widen".to_owned())),
                ("from", ty_ref(from)),
                ("to", ty_ref(to)),
            ]),
            ElemJungloid::Downcast { from, to } => Json::obj(vec![
                ("k", Json::Str("cast".to_owned())),
                ("from", ty_ref(from)),
                ("to", ty_ref(to)),
            ]),
        }
    }
}

/// Enumerates every non-downcast elementary jungloid an API member
/// induces, as `(elem)` entries. Used by signature-graph construction and
/// by tests that need the full §2.1 expansion of a member.
#[must_use]
pub fn elems_of_method(api: &Api, method: MethodId) -> Vec<ElemJungloid> {
    let def = api.method(method);
    // Definition 2 requires the output to be a class type: methods
    // returning `void` produce no value, and primitive-returning methods
    // produce values that can never be a jungloid's output (§2.1
    // footnote 4 excludes primitives end-to-end).
    if !api.types().is_reference(def.ret()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut any_class_input = false;
    if def.needs_receiver() {
        any_class_input = true;
        out.push(ElemJungloid::Call { method, input: Some(InputSlot::Receiver) });
    }
    for (i, &p) in def.params().iter().enumerate() {
        if api.types().is_reference(p) {
            any_class_input = true;
            out.push(ElemJungloid::Call { method, input: Some(InputSlot::Arg(i)) });
        }
    }
    if !any_class_input {
        // Static method or constructor with no class-typed parameters:
        // `void → ret` (§2.1: "Using void in this way extends jungloids to
        // cover expressions with no input values").
        out.push(ElemJungloid::Call { method, input: None });
    }
    out
}

/// The elementary jungloid induced by a field (§2.1 field access).
#[must_use]
pub fn elem_of_field(field: FieldId) -> ElemJungloid {
    ElemJungloid::FieldAccess { field }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ApiLoader, Visibility};

    fn api() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "t.api",
                r"
                package t;
                public class A {}
                public class B {}
                public class C {
                    C(A a, int n);
                    static B combine(A a, B b);
                    B pick(A a);
                    B zero();
                    static B lone();
                    void consume(A a);
                    A data;
                    static A shared;
                }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    fn find(api: &Api, class: &str, name: &str) -> MethodId {
        let c = api.types().resolve(class).unwrap();
        api.methods_of(c)
            .iter()
            .copied()
            .find(|&m| api.method(m).name() == name)
            .unwrap()
    }

    #[test]
    fn constructor_expansion() {
        let api = api();
        let ctor = {
            let c = api.types().resolve("t.C").unwrap();
            api.constructors_of(c)[0]
        };
        let elems = elems_of_method(&api, ctor);
        // One per class-typed parameter: only `A a` (int is primitive).
        assert_eq!(elems.len(), 1);
        let a = api.types().resolve("t.A").unwrap();
        let c = api.types().resolve("t.C").unwrap();
        assert_eq!(elems[0].input_ty(&api), a);
        assert_eq!(elems[0].output_ty(&api), c);
        // The int parameter is a primitive free variable.
        assert_eq!(elems[0].free_var_counts(&api), (0, 1));
    }

    #[test]
    fn static_two_ref_params() {
        let api = api();
        let m = find(&api, "t.C", "combine");
        let elems = elems_of_method(&api, m);
        assert_eq!(elems.len(), 2);
        // Each consumes one slot and leaves the other free (reference).
        for e in &elems {
            assert_eq!(e.free_var_counts(&api), (1, 0));
        }
    }

    #[test]
    fn instance_method_receiver_and_arg() {
        let api = api();
        let m = find(&api, "t.C", "pick");
        let elems = elems_of_method(&api, m);
        assert_eq!(elems.len(), 2);
        let c = api.types().resolve("t.C").unwrap();
        let a = api.types().resolve("t.A").unwrap();
        let recv = elems.iter().find(|e| e.input_ty(&api) == c).unwrap();
        let arg = elems.iter().find(|e| e.input_ty(&api) == a).unwrap();
        // Consuming the receiver leaves `A a` free; consuming the argument
        // leaves the receiver free.
        assert_eq!(recv.free_var_counts(&api), (1, 0));
        assert_eq!(arg.free_var_counts(&api), (1, 0));
        assert_eq!(arg.free_var_types(&api), vec![c]);
    }

    #[test]
    fn instance_zero_arg_is_receiver_only() {
        let api = api();
        let m = find(&api, "t.C", "zero");
        let elems = elems_of_method(&api, m);
        assert_eq!(elems.len(), 1);
        assert_eq!(elems[0].free_var_counts(&api), (0, 0));
    }

    #[test]
    fn static_no_params_is_void_input() {
        let api = api();
        let m = find(&api, "t.C", "lone");
        let elems = elems_of_method(&api, m);
        assert_eq!(elems.len(), 1);
        assert_eq!(elems[0].input_ty(&api), api.types().void());
    }

    #[test]
    fn void_return_is_not_a_jungloid() {
        let api = api();
        let m = find(&api, "t.C", "consume");
        assert!(elems_of_method(&api, m).is_empty());
    }

    #[test]
    fn field_elementaries() {
        let api = api();
        let c = api.types().resolve("t.C").unwrap();
        let a = api.types().resolve("t.A").unwrap();
        let data = api.lookup_field(c, "data").unwrap();
        let shared = api.lookup_field(c, "shared").unwrap();
        let e1 = elem_of_field(data);
        assert_eq!(e1.input_ty(&api), c);
        assert_eq!(e1.output_ty(&api), a);
        let e2 = elem_of_field(shared);
        assert_eq!(e2.input_ty(&api), api.types().void());
        assert_eq!(e2.output_ty(&api), a);
    }

    #[test]
    fn widen_and_downcast_types() {
        let api = api();
        let a = api.types().resolve("t.A").unwrap();
        let obj = api.types().object().unwrap();
        let w = ElemJungloid::Widen { from: a, to: obj };
        assert!(w.is_widen());
        assert_eq!(w.input_ty(&api), a);
        assert_eq!(w.output_ty(&api), obj);
        let d = ElemJungloid::Downcast { from: obj, to: a };
        assert!(d.is_downcast());
        assert_eq!(d.label(&api), "(A)");
    }

    #[test]
    fn labels() {
        let api = api();
        let m = find(&api, "t.C", "combine");
        let e = ElemJungloid::Call { method: m, input: Some(InputSlot::Arg(0)) };
        assert_eq!(e.label(&api), "C.combine");
        let c = api.types().resolve("t.C").unwrap();
        let ctor = api.constructors_of(c)[0];
        let e = ElemJungloid::Call { method: ctor, input: Some(InputSlot::Arg(0)) };
        assert_eq!(e.label(&api), "new C");
    }

    #[test]
    fn visibility_preserved_for_filtering() {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "v.api",
                "package v; public class G { protected G inner(); private G hidden(); }",
            )
            .unwrap();
        let api = loader.finish().unwrap();
        let g = api.types().resolve("v.G").unwrap();
        let inner = api.lookup_instance_method(g, "inner", 0)[0];
        assert_eq!(api.method(inner).visibility(), Visibility::Protected);
        let hidden = api.lookup_instance_method(g, "hidden", 0)[0];
        assert_eq!(api.method(hidden).visibility(), Visibility::Private);
    }
}
