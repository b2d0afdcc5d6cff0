//! The one-pass code renderer against the syntax tree it replaces on the
//! answer path.
//!
//! The engine ranks and deduplicates candidates by `render_code`'s text;
//! insertion prints the MiniJava tree `synthesize` builds. The two must
//! agree byte for byte. For every jungloid enumerated over seeded targets
//! and source sets, on the default engine, the extended pack with
//! protected members, parameter mining, the distractor jungle and a
//! 10^3-type `synth` jungle, with and without an input name, the
//! rendering must equal `expr_to_string(&synthesize(..).expr)` and
//! re-parse as a MiniJava expression.
//!
//! Everything is drawn from seeded generators; failures reproduce by seed.

use jungloid_apidef::{Api, ApiLoader};
use jungloid_minijava::parse::parse_expr;
use jungloid_minijava::print::expr_to_string;
use jungloid_typesys::TyId;
use prospector_core::search::enumerate;
use prospector_core::synth::{render_code, synthesize};
use prospector_core::{DistanceField, Prospector, SearchConfig};
use prospector_corpora::jungle::JungleSpec;
use prospector_corpora::synth::{grow_synth, SynthSpec};
use prospector_corpora::{build, BuildOptions};
use prospector_obs::SmallRng;

/// Seeded targets per engine.
const TARGETS: usize = 150;

/// Jungloids checked per query, so a target with thousands of paths
/// does not dominate the run.
const PER_QUERY: usize = 300;

/// Renders every enumerated jungloid of `TARGETS` seeded queries both
/// ways and returns how many renderings it compared.
fn check_engine(engine: &Prospector, seed: u64) -> usize {
    let api = engine.api();
    let types: Vec<TyId> =
        api.types().decls().map(|d| d.id).filter(|&t| api.types().is_reference(t)).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut compared = 0;
    for _ in 0..TARGETS {
        let tout = types[rng.gen_range(0..types.len())];
        // One to four sources; about half the sets also search from
        // `void`, as a content-assist query does.
        let mut sources: Vec<TyId> =
            (0..rng.gen_range(1..=4usize)).map(|_| types[rng.gen_range(0..types.len())]).collect();
        if rng.gen_bool(0.5) {
            sources.push(api.types().void());
        }
        let field = DistanceField::towards(engine.graph(), tout);
        let outcome = enumerate(engine.graph(), &sources, tout, &field, &SearchConfig::default());
        for j in outcome.jungloids.iter().take(PER_QUERY) {
            for name in [None, Some("in")] {
                let code = render_code(api, j, name);
                let reference = expr_to_string(&synthesize(api, j, name).expr);
                assert_eq!(code, reference, "seed {seed}: {j:?} with input name {name:?}");
                parse_expr(&code).unwrap_or_else(|e| panic!("`{code}` does not re-parse: {e}"));
                compared += 1;
            }
        }
    }
    compared
}

fn built(options: BuildOptions) -> Prospector {
    build(&options).expect("bundled corpora assemble").prospector
}

#[test]
fn renderer_matches_the_tree_on_the_default_engine() {
    let compared = check_engine(&built(BuildOptions::default()), 1);
    assert!(compared > 500, "only {compared} renderings compared");
}

#[test]
fn renderer_matches_the_tree_on_the_extended_engine_with_protected_members() {
    let options = BuildOptions { extended: true, include_protected: true, ..BuildOptions::default() };
    let compared = check_engine(&built(options), 2);
    assert!(compared > 500, "only {compared} renderings compared");
}

#[test]
fn renderer_matches_the_tree_with_parameter_mining() {
    let compared =
        check_engine(&built(BuildOptions { param_mining: true, ..BuildOptions::default() }), 3);
    assert!(compared > 500, "only {compared} renderings compared");
}

#[test]
fn renderer_matches_the_tree_on_the_jungle() {
    let options = BuildOptions { jungle: Some(JungleSpec::default()), ..BuildOptions::default() };
    let compared = check_engine(&built(options), 4);
    assert!(compared > 500, "only {compared} renderings compared");
}

#[test]
fn renderer_matches_the_tree_on_a_synth_jungle() {
    let mut api: Api = ApiLoader::with_prelude().finish().expect("prelude loads");
    grow_synth(&mut api, &SynthSpec { seed: 5, types: 1000, ..SynthSpec::default() });
    let compared = check_engine(&Prospector::new(api), 5);
    assert!(compared > 500, "only {compared} renderings compared");
}
