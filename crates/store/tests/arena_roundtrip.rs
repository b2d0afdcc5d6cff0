//! Loading rebuilds the API exactly. The API a snapshot decodes to —
//! through `load` (mmap'd) and `from_bytes` — agrees with the API that was
//! saved on every method and field view, on the per-class member order,
//! on every name lookup, and on its whole JSON rendering (the loaded
//! graph's too), over seeded random APIs (deterministic: failures
//! reproduce by seed) and a `synth` jungle.
//!
//! Crafted records that break the decoder's checks are in
//! `corruption.rs`.

use jungloid_apidef::{Api, FieldDef, MethodDef, Visibility};
use jungloid_typesys::{TyId, TypeError};
use prospector_core::graph::JungloidGraph;
use prospector_core::{GraphConfig, Prospector};
use prospector_corpora::synth::{grow_synth, SynthSpec};
use prospector_obs::SmallRng;
use prospector_store::{from_bytes, to_bytes};

const PACKAGES: [&str; 4] = ["p0", "p1.sub", "p1", ""];

/// A random API whose simple names repeat across packages (so some
/// resolve ambiguously), with unpackaged types, arrays, overloads,
/// partly named parameters, and members added in random class order.
fn random_api(seed: u64) -> Api {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut api = Api::new();
    api.declare_class("java.lang", "Object").expect("fresh table");
    let mut decls: Vec<TyId> = Vec::new();
    for _ in 0..rng.gen_range(3..14) {
        let pkg = PACKAGES[rng.gen_range(0..PACKAGES.len())];
        let name = format!("T{}", rng.gen_range(0..5));
        let declared = if rng.gen_bool(0.3) {
            api.declare_interface(pkg, &name)
        } else {
            api.declare_class(pkg, &name)
        };
        if let Ok(t) = declared {
            decls.push(t);
        }
    }
    let mut tys = decls.clone();
    for _ in 0..rng.gen_range(0..3) {
        let elem = decls[rng.gen_range(0..decls.len())];
        tys.push(api.types_mut().array_of(elem));
    }
    let int = api.types().prim(jungloid_typesys::Prim::Int);
    for m in 0..rng.gen_range(0..30) {
        let declaring = decls[rng.gen_range(0..decls.len())];
        let params: Vec<TyId> = (0..rng.gen_range(0..=3))
            .map(|_| if rng.gen_bool(0.2) { int } else { tys[rng.gen_range(0..tys.len())] })
            .collect();
        let param_names = if rng.gen_bool(0.5) {
            params
                .iter()
                .enumerate()
                .map(|(i, _)| rng.gen_bool(0.7).then(|| format!("a{i}")))
                .collect()
        } else {
            Vec::new()
        };
        // Few distinct names, so overloads and rejected duplicates occur.
        let _ = api.add_method(MethodDef {
            name: format!("m{}", m % 4),
            declaring,
            params,
            param_names,
            ret: if rng.gen_bool(0.1) {
                api.types().void()
            } else {
                tys[rng.gen_range(0..tys.len())]
            },
            visibility: [Visibility::Public, Visibility::Protected, Visibility::Private]
                [rng.gen_range(0..3)],
            is_static: rng.gen_bool(0.3),
            is_constructor: false,
        });
    }
    for f in 0..rng.gen_range(0..8) {
        let _ = api.add_field(FieldDef {
            name: format!("f{}", f % 3),
            declaring: decls[rng.gen_range(0..decls.len())],
            ty: tys[rng.gen_range(0..tys.len())],
            visibility: Visibility::Public,
            is_static: rng.gen_bool(0.4),
        });
    }
    api
}

/// Every name worth resolving against `api`: each declared type's
/// qualified and simple name, plus unknown names and array spellings.
fn names_to_resolve(api: &Api) -> Vec<String> {
    let mut names: Vec<String> = api
        .types()
        .decls()
        .flat_map(|d| [d.qualified_name(), d.simple_name.to_owned()])
        .collect();
    for d in api.types().decls().take(3) {
        names.push(format!("{}[]", d.qualified_name()));
        names.push(format!("{}[]", d.simple_name));
        names.push(format!(".{}", d.simple_name));
        names.push(format!("nowhere.{}", d.simple_name));
    }
    names.extend(
        ["Nope", "p0.Nope", "p1.", "p1", "sub.T0", "int", "int[]", "void", ""].map(str::to_owned),
    );
    names
}

/// `loaded` must be indistinguishable from `built` through the API's
/// read surface.
fn assert_same_api(built: &Api, loaded: &Api, label: &str) -> (usize, usize) {
    assert_eq!(loaded.types().len(), built.types().len(), "{label}");
    assert_eq!(loaded.method_count(), built.method_count(), "{label}");
    assert_eq!(loaded.field_count(), built.field_count(), "{label}");
    for m in built.method_ids() {
        assert_eq!(loaded.method(m), built.method(m), "{label}: {m:?}");
    }
    for f in built.field_ids() {
        assert_eq!(loaded.field(f), built.field(f), "{label}: {f:?}");
    }
    for t in built.types().ids() {
        assert_eq!(loaded.methods_of(t), built.methods_of(t), "{label}: methods of {t:?}");
        assert_eq!(loaded.fields_of(t), built.fields_of(t), "{label}: fields of {t:?}");
    }
    let (mut ambiguous, mut unknown) = (0, 0);
    for name in names_to_resolve(built) {
        let want = built.types().resolve(&name);
        assert_eq!(loaded.types().resolve(&name), want, "{label}: resolve {name:?}");
        match want {
            Err(TypeError::AmbiguousName { .. }) => ambiguous += 1,
            Err(TypeError::UnknownType { .. }) => unknown += 1,
            _ => {}
        }
    }
    (ambiguous, unknown)
}

/// `loaded` must render to the same JSON as `built`: every type slot,
/// member, mined node, example and per-node out-edge list.
fn assert_same_json(built: (&Api, &JungloidGraph), loaded: (&Api, &JungloidGraph), label: &str) {
    assert!(loaded.0.to_json() == built.0.to_json(), "{label}: API JSON differs");
    assert!(loaded.1.to_json() == built.1.to_json(), "{label}: graph JSON differs");
}

/// Saves `api` (with `graph`) and loads it back every way a server can.
fn assert_every_load_agrees(api: &Api, graph: &JungloidGraph, label: &str) -> (usize, usize) {
    let bytes = to_bytes(api, graph, &[]);
    let file = format!("arena_roundtrip_{}_{}.pspk", std::process::id(), label.replace(' ', "_"));
    let path = std::env::temp_dir().join(file);
    std::fs::write(&path, &bytes).expect("temp snapshot writes");
    let mapped = prospector_store::load(&path, true).expect("load maps").snapshot;
    std::fs::remove_file(&path).ok();
    let seen = assert_same_api(api, &mapped.api, &format!("{label} load"));
    assert_same_json((api, graph), (&mapped.api, &mapped.graph), &format!("{label} load"));
    let owned = from_bytes(&bytes).expect("from_bytes loads");
    assert_same_api(api, &owned.api, &format!("{label} from_bytes"));
    assert_same_json((api, graph), (&owned.api, &owned.graph), &format!("{label} from_bytes"));
    seen
}

#[test]
fn random_apis_load_exactly() {
    let (mut ambiguous, mut unknown) = (0, 0);
    for seed in 0..48u64 {
        let api = random_api(seed);
        let graph = JungloidGraph::from_api(&api, GraphConfig::default());
        let seen = assert_every_load_agrees(&api, &graph, &format!("seed {seed}"));
        ambiguous += seen.0;
        unknown += seen.1;
    }
    assert!(ambiguous > 0, "the sweep must exercise ambiguous simple names");
    assert!(unknown > 0, "the sweep must exercise unknown names");
}

#[test]
fn synth_jungle_loads_exactly() {
    let mut api = jungloid_apidef::ApiLoader::with_prelude().finish().expect("prelude");
    grow_synth(&mut api, &SynthSpec { seed: 3, types: 1000, ..SynthSpec::default() });
    let engine = Prospector::new(api);
    assert_every_load_agrees(engine.api(), engine.graph(), "synth 10^3");
}
