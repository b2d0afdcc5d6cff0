//! Property: printing any buildable API to `.api` text and reloading it
//! preserves every signature-level fact the synthesizer consumes.
//!
//! Checked over a sweep of seeded random APIs (deterministic — failures
//! reproduce by seed).

use jungloid_apidef::{Api, ApiLoader, FieldDef, MethodDef, Visibility};
use jungloid_typesys::TyId;
use prospector_obs::SmallRng;

fn random_api(seed: u64) -> Api {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut api = ApiLoader::with_prelude().finish().expect("prelude");
    let n_classes = rng.gen_range(2..10);
    let mut classes: Vec<TyId> = Vec::new();
    let mut interfaces: Vec<TyId> = Vec::new();
    for i in 0..n_classes {
        let pkg = format!("p{}", rng.gen_range(0..3));
        if rng.gen_bool(0.3) {
            interfaces.push(api.declare_interface(&pkg, &format!("I{i}")).expect("unique"));
        } else {
            let c = api.declare_class(&pkg, &format!("C{i}")).expect("unique");
            if !classes.is_empty() && rng.gen_bool(0.5) {
                let sup = classes[rng.gen_range(0..classes.len())];
                api.types_mut().set_superclass(c, sup).expect("acyclic by construction");
            }
            if !interfaces.is_empty() && rng.gen_bool(0.4) {
                let iface = interfaces[rng.gen_range(0..interfaces.len())];
                api.types_mut().add_interface(c, iface).expect("acyclic by construction");
            }
            classes.push(c);
        }
    }
    let all: Vec<TyId> = classes.iter().chain(&interfaces).copied().collect();
    let n_methods = rng.gen_range(0..20);
    for m in 0..n_methods {
        let declaring = all[rng.gen_range(0..all.len())];
        let is_iface = interfaces.contains(&declaring);
        let is_ctor = !is_iface && rng.gen_bool(0.2);
        let n_params = rng.gen_range(0..=3);
        let params: Vec<TyId> = (0..n_params)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    api.types().prim(jungloid_typesys::Prim::Int)
                } else {
                    let base = all[rng.gen_range(0..all.len())];
                    if rng.gen_bool(0.15) {
                        api.types_mut().array_of(base)
                    } else {
                        base
                    }
                }
            })
            .collect();
        let ret = if is_ctor {
            declaring
        } else if rng.gen_bool(0.1) {
            api.types().void()
        } else {
            all[rng.gen_range(0..all.len())]
        };
        let named = rng.gen_bool(0.5);
        let _ = api.add_method(MethodDef {
            name: if is_ctor { "<init>".into() } else { format!("m{m}") },
            declaring,
            params: params.clone(),
            param_names: if named {
                (0..params.len()).map(|i| Some(format!("a{i}"))).collect()
            } else {
                Vec::new()
            },
            ret,
            visibility: match rng.gen_range(0..3) {
                0 => Visibility::Public,
                1 => Visibility::Protected,
                _ => Visibility::Private,
            },
            is_static: !is_ctor && rng.gen_bool(0.3),
            is_constructor: is_ctor,
        });
    }
    for f in 0..rng.gen_range(0..6) {
        let declaring = all[rng.gen_range(0..all.len())];
        let ty = all[rng.gen_range(0..all.len())];
        let _ = api.add_field(FieldDef {
            name: format!("f{f}"),
            declaring,
            ty,
            visibility: Visibility::Public,
            is_static: rng.gen_bool(0.4),
        });
    }
    api
}

#[test]
fn print_reload_preserves_signatures() {
    for seed in 0..64u64 {
        let api = random_api(seed);
        let printed = jungloid_apidef::printer::to_stub_text(&api);
        let mut loader = ApiLoader::new();
        loader
            .add_source("printed.api", &printed)
            .unwrap_or_else(|e| panic!("printed text failed to parse: {e}\n{printed}"));
        let reloaded = loader
            .finish()
            .unwrap_or_else(|e| panic!("printed text failed to resolve: {e}\n{printed}"));

        assert_eq!(reloaded.types().len(), api.types().len());
        assert_eq!(reloaded.method_count(), api.method_count());
        assert_eq!(reloaded.field_count(), api.field_count());

        // Every method's signature facts survive (same arena order: the
        // printer emits in declaration order per class, and classes in
        // declaration order).
        for decl in api.types().decls() {
            let other = reloaded
                .types()
                .resolve(&decl.qualified_name())
                .unwrap_or_else(|e| panic!("{e}\n{printed}"));
            assert_eq!(api.methods_of(decl.id).len(), reloaded.methods_of(other).len());
            for (&m1, &m2) in api.methods_of(decl.id).iter().zip(reloaded.methods_of(other)) {
                let d1 = api.method(m1);
                let d2 = reloaded.method(m2);
                assert_eq!(&d1.name(), &d2.name());
                assert_eq!(d1.params().len(), d2.params().len());
                assert_eq!(d1.visibility(), d2.visibility());
                assert_eq!(d1.is_static(), d2.is_static());
                assert_eq!(d1.is_constructor(), d2.is_constructor());
                for (&p1, &p2) in d1.params().iter().zip(d2.params()) {
                    assert_eq!(api.types().display(p1), reloaded.types().display(p2));
                }
                assert_eq!(api.types().display(d1.ret()), reloaded.types().display(d2.ret()));
            }
        }

        // Subtyping agrees on every declared pair.
        for a in api.types().decls() {
            for b in api.types().decls() {
                let a2 = reloaded.types().resolve(&a.qualified_name()).expect("resolves");
                let b2 = reloaded.types().resolve(&b.qualified_name()).expect("resolves");
                assert_eq!(api.types().is_subtype(a.id, b.id), reloaded.types().is_subtype(a2, b2));
            }
        }
    }
}

#[test]
fn json_round_trip_preserves_apis() {
    for seed in 0..64u64 {
        let api = random_api(seed);
        let doc = api.to_json();
        let back = Api::from_json(&doc).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(back.types().len(), api.types().len());
        assert_eq!(back.method_count(), api.method_count());
        assert_eq!(back.field_count(), api.field_count());
        for m in api.method_ids() {
            assert_eq!(back.method(m), api.method(m));
        }
        for f in api.field_ids() {
            assert_eq!(back.field(f), api.field(f));
        }
        for decl in api.types().decls() {
            assert_eq!(back.methods_of(decl.id), api.methods_of(decl.id));
            assert_eq!(back.fields_of(decl.id), api.fields_of(decl.id));
        }
        // The serialized text also survives a parse round trip.
        assert_eq!(back.to_json(), doc);
        let text = doc.to_text();
        assert_eq!(prospector_obs::Json::parse(&text).unwrap(), doc);
    }
}
