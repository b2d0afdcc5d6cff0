//! Loading rebuilds the API exactly. The API a snapshot decodes to —
//! through `map_file` and `from_bytes` — agrees with the API that was
//! saved on every method and field view, on the per-class member order,
//! on every name lookup, and on its whole JSON rendering (the loaded
//! graph's too), over seeded random APIs (deterministic: failures
//! reproduce by seed) and a `synth` jungle.
//!
//! The decoder checks are pinned too: a snapshot whose pool gives two
//! members of one class, or two types of one package, the same name, or
//! whose members reference a name past the pool, is a typed
//! [`StoreError::Corrupt`], never a panic or a silent load.

use jungloid_apidef::{Api, FieldDef, MethodDef, Visibility};
use jungloid_typesys::{TyId, TypeError};
use prospector_core::graph::JungloidGraph;
use prospector_core::{GraphConfig, Prospector};
use prospector_corpora::synth::{grow_synth, SynthSpec};
use prospector_obs::SmallRng;
use prospector_store::{crc32, from_bytes, manifest, to_bytes, StoreError};

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
    let (mapped, _, _) = prospector_store::map_file(&path).expect("map_file loads");
    std::fs::remove_file(&path).ok();
    let seen = assert_same_api(api, &mapped.api, &format!("{label} map_file"));
    assert_same_json((api, graph), (&mapped.api, &mapped.graph), &format!("{label} map_file"));
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

// --- targeted corruption ---------------------------------------------------

/// Applies `edit` to section `name`'s payload, then rewrites the
/// section's stored CRC to match, so the edit reaches the decoder
/// instead of the checksum gate.
fn edit_section(bytes: &mut [u8], name: &str, edit: impl FnOnce(&mut [u8])) {
    let m = manifest(bytes).expect("pristine snapshot validates");
    let s = m.sections.iter().find(|s| s.name == name).expect("section exists");
    let start = usize::try_from(s.offset).expect("fits");
    let payload = start..start + usize::try_from(s.bytes).expect("fits");
    // Frame: tag u32, pad u32, length u64, CRC u32, reserved u32.
    let frame = start - 24;
    edit(&mut bytes[payload.clone()]);
    let mut covered = bytes[frame..frame + 4].to_vec();
    covered.extend_from_slice(&bytes[payload]);
    bytes[frame + 16..frame + 20].copy_from_slice(&crc32(&covered).to_le_bytes());
}

/// Overwrites the one pooled occurrence of `from` with `to` (same
/// length, so no offset moves).
fn rename_in_pool(bytes: &mut [u8], from: &str, to: &str) {
    assert_eq!(from.len(), to.len());
    edit_section(bytes, "strings", |pool| {
        let hits: Vec<usize> = pool
            .windows(from.len())
            .enumerate()
            .filter(|(_, w)| *w == from.as_bytes())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hits.len(), 1, "`{from}` must be pooled exactly once");
        pool[hits[0]..hits[0] + to.len()].copy_from_slice(to.as_bytes());
    });
}

/// Overwrites the `u32` at `offset` into section `name`'s payload.
fn poke_u32(bytes: &mut [u8], name: &str, offset: usize, value: u32) {
    edit_section(bytes, name, |payload| {
        payload[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
    });
}

/// Two classes `p.DupTypeAlpha`, `p.DupTypeOmega`; the first method
/// `Alpha.first(DupTypeOmega arg)`, then `Alpha.dupMethodAlpha()` and
/// `Alpha.dupMethodOmega()`.
fn fixture() -> (Api, JungloidGraph) {
    let mut api = Api::new();
    let alpha = api.declare_class("p", "DupTypeAlpha").expect("fresh");
    let omega = api.declare_class("p", "DupTypeOmega").expect("fresh");
    let method = |name: &str, params: Vec<TyId>, param_names| MethodDef {
        name: name.to_owned(),
        declaring: alpha,
        params,
        param_names,
        ret: omega,
        visibility: Visibility::Public,
        is_static: false,
        is_constructor: false,
    };
    api.add_method(method("first", vec![omega], vec![Some("arg".to_owned())])).expect("ok");
    api.add_method(method("dupMethodAlpha", vec![], vec![])).expect("ok");
    api.add_method(method("dupMethodOmega", vec![], vec![])).expect("ok");
    let graph = JungloidGraph::from_api(&api, GraphConfig::default());
    (api, graph)
}

fn expect_corrupt(bytes: &[u8], section: &str, case: &str) {
    match from_bytes(bytes) {
        Err(StoreError::Corrupt { section: s, detail }) => {
            assert_eq!(s, section, "{case}: {detail}");
        }
        Err(other) => panic!("{case}: expected Corrupt in `{section}`, got {other:?}"),
        Ok(_) => panic!("{case}: loaded anyway"),
    }
}

#[test]
fn corrupt_member_and_type_tables_are_typed_errors() {
    let (api, graph) = fixture();
    let pristine = to_bytes(&api, &graph, &[]);
    assert!(from_bytes(&pristine).is_ok(), "pristine fixture loads");

    let mut dup_member = pristine.clone();
    rename_in_pool(&mut dup_member, "dupMethodOmega", "dupMethodAlpha");
    expect_corrupt(&dup_member, "members", "duplicate member");

    let mut dup_type = pristine.clone();
    rename_in_pool(&mut dup_type, "DupTypeOmega", "DupTypeAlpha");
    expect_corrupt(&dup_type, "types", "duplicate type");

    // Members payload: method count, then method 0 = name ref (4),
    // declaring (4), param count (4), one param (4), name count (4),
    // name flag (1), then its parameter-name ref.
    let mut bad_name = pristine.clone();
    poke_u32(&mut bad_name, "members", 4, u32::MAX - 1);
    expect_corrupt(&bad_name, "members", "method name ref");

    let mut bad_param_name = pristine;
    poke_u32(&mut bad_param_name, "members", 25, 1 << 20);
    expect_corrupt(&bad_param_name, "members", "parameter-name ref");
}
