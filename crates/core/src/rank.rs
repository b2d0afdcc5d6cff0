//! The ranking heuristic of §3.2.
//!
//! Primary key: estimated code size — the number of non-widening
//! elementary jungloids, plus an estimate for the code the user must still
//! write to bind each free variable ("Our current implementation assumes
//! that each free variable will require a jungloid of size two").
//! Primitive-typed free variables are literals the user just types, so by
//! default they cost nothing extra (our calibration; configurable).
//!
//! Ties are broken, in order, by:
//!
//! 1. fewer package-boundary crossings (§3.2's `HTMLParser` example);
//! 2. more general concrete output type (§3.2's `XMLEditor` example) —
//!    smaller inheritance depth first;
//! 3. more general intermediate types (smaller depth sum) — this is our
//!    deterministic extension of the same principle to the chain's
//!    interior;
//! 4. step-kind order (field < instance call < static call < constructor
//!    < downcast) — prefers reusing existing objects to constructing new
//!    ones;
//! 5. the rendered code string (total, deterministic order).

use jungloid_apidef::Api;

use crate::path::Jungloid;

/// Ranking knobs; the defaults reproduce the paper, the switches feed the
/// ranking-ablation bench. `Hash` because the engine's result cache keys
/// on the full ranking configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RankOptions {
    /// Estimated jungloid size per reference-typed free variable (paper: 2).
    pub free_ref_cost: u32,
    /// Estimated size per primitive-typed free variable (default 0).
    pub free_prim_cost: u32,
    /// Apply tie-break 1 (package crossings).
    pub use_crossings: bool,
    /// Apply tie-breaks 2–3 (output/intermediate generality).
    pub use_generality: bool,
}

impl Default for RankOptions {
    fn default() -> Self {
        RankOptions { free_ref_cost: 2, free_prim_cost: 0, use_crossings: true, use_generality: true }
    }
}

/// The comparable key; smaller ranks first.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct RankKey {
    /// Steps + free-variable estimates.
    pub estimated_size: u32,
    /// Package-boundary crossings (0 when disabled).
    pub crossings: u32,
    /// Inheritance depth of the concrete output type (0 when disabled).
    pub output_depth: u32,
    /// Depth sum over produced intermediate types (0 when disabled).
    pub depth_sum: u32,
    /// Per-step kind codes.
    pub kinds: Vec<u8>,
    /// Rendered code (final deterministic tie-break).
    pub code: String,
}

/// Computes the rank key of one jungloid given its rendered code.
#[must_use]
pub fn rank_key(api: &Api, jungloid: &Jungloid, code: String, opts: &RankOptions) -> RankKey {
    let (refs, prims) = jungloid.free_var_counts(api);
    RankKey {
        estimated_size: jungloid.steps()
            + refs * opts.free_ref_cost
            + prims * opts.free_prim_cost,
        crossings: if opts.use_crossings { jungloid.package_crossings(api) } else { 0 },
        output_depth: if opts.use_generality {
            api.types().depth(jungloid.concrete_output_ty(api))
        } else {
            0
        },
        depth_sum: if opts.use_generality { jungloid.depth_sum(api) } else { 0 },
        kinds: jungloid.kind_seq(api),
        code,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::elem::elems_of_method;
    use jungloid_apidef::{Api, ApiLoader, ElemJungloid};
    use jungloid_typesys::TyId;

    /// java.io idiom vs. the lucene HTMLParser detour (§3.2).
    fn io_api() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "io.api",
                r"
                package java.io;
                public class Reader {}
                public class InputStream {}
                public class InputStreamReader extends Reader {
                    InputStreamReader(InputStream in);
                }
                public class BufferedReader extends Reader {
                    BufferedReader(Reader in);
                }
                package org.apache.lucene.demo.html;
                public class HTMLParser {
                    HTMLParser(java.io.InputStream in);
                    java.io.BufferedReader getReader();
                }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    fn elem_for(api: &Api, class: &str, name: &str, input: TyId) -> ElemJungloid {
        let c = api.types().resolve(class).unwrap();
        let candidates: Vec<_> = api
            .methods_of(c)
            .iter()
            .copied()
            .filter(|&m| {
                let d = api.method(m);
                if name == "<init>" { d.is_constructor() } else { d.name() == name }
            })
            .collect();
        for m in candidates {
            for e in elems_of_method(api, m) {
                if e.input_ty(api) == input {
                    return e;
                }
            }
        }
        panic!("no elem {class}.{name}");
    }

    #[test]
    fn crossings_break_the_htmlparser_tie() {
        let api = io_api();
        let input = api.types().resolve("InputStream").unwrap();
        let reader = api.types().resolve("Reader").unwrap();
        let isr = api.types().resolve("InputStreamReader").unwrap();

        let idiom = Jungloid::new(
            &api,
            input,
            vec![
                elem_for(&api, "InputStreamReader", "<init>", input),
                ElemJungloid::Widen { from: isr, to: reader },
                elem_for(&api, "BufferedReader", "<init>", reader),
            ],
        )
        .unwrap();
        let htmlparser = api.types().resolve("HTMLParser").unwrap();
        let detour = Jungloid::new(
            &api,
            input,
            vec![
                elem_for(&api, "HTMLParser", "<init>", input),
                elem_for(&api, "HTMLParser", "getReader", htmlparser),
            ],
        )
        .unwrap();

        let opts = RankOptions::default();
        let k_idiom = rank_key(&api, &idiom, "a".into(), &opts);
        let k_detour = rank_key(&api, &detour, "a".into(), &opts);
        assert_eq!(k_idiom.estimated_size, k_detour.estimated_size);
        assert!(k_idiom.crossings < k_detour.crossings);
        assert!(k_idiom < k_detour);

        // Ablation: without the crossing tie-break the detour can win on
        // later keys; the keys must at least stop separating on crossings.
        let no_cross = RankOptions { use_crossings: false, ..RankOptions::default() };
        let k2 = rank_key(&api, &detour, "a".into(), &no_cross);
        assert_eq!(k2.crossings, 0);
    }

    #[test]
    fn free_variables_cost_two() {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "t.api",
                r"
                package t;
                public class In {}
                public class Helper {}
                public class Out {
                    static Out direct(In x, In y, In z);
                    static Out viaHelper(In x, Helper h);
                    static Out plain(In x);
                    static Out sized(In x, int n);
                }
                ",
            )
            .unwrap();
        let api = loader.finish().unwrap();
        let input = api.types().resolve("In").unwrap();
        let opts = RankOptions::default();
        let key = |name: &str| {
            let e = elem_for(&api, "t.Out", name, input);
            let j = Jungloid::new(&api, input, vec![e]).unwrap();
            rank_key(&api, &j, name.to_owned(), &opts)
        };
        assert_eq!(key("plain").estimated_size, 1);
        // int free variable: free by default (a literal).
        assert_eq!(key("sized").estimated_size, 1);
        // one reference free variable: +2.
        assert_eq!(key("viaHelper").estimated_size, 3);
        // two reference free variables: +4.
        assert_eq!(key("direct").estimated_size, 5);
        assert!(key("plain") < key("viaHelper"));
        assert!(key("viaHelper") < key("direct"));
    }

    #[test]
    fn generality_prefers_supertype_outputs() {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "g.api",
                r"
                package g;
                public class Editor {}
                public class XmlEditor extends Editor {}
                public class Site {
                    Editor general();
                    XmlEditor specific();
                }
                ",
            )
            .unwrap();
        let api = loader.finish().unwrap();
        let site = api.types().resolve("Site").unwrap();
        let editor = api.types().resolve("Editor").unwrap();
        let xml = api.types().resolve("XmlEditor").unwrap();
        let opts = RankOptions::default();
        let general = Jungloid::new(&api, site, vec![elem_for(&api, "g.Site", "general", site)]).unwrap();
        let specific = Jungloid::new(
            &api,
            site,
            vec![
                elem_for(&api, "g.Site", "specific", site),
                ElemJungloid::Widen { from: xml, to: editor },
            ],
        )
        .unwrap();
        let kg = rank_key(&api, &general, "a".into(), &opts);
        let ks = rank_key(&api, &specific, "a".into(), &opts);
        assert_eq!(kg.estimated_size, ks.estimated_size);
        assert!(kg.output_depth < ks.output_depth);
        assert!(kg < ks);
        // Ablation: with generality off, the code string decides.
        let off = RankOptions { use_generality: false, ..RankOptions::default() };
        let kg2 = rank_key(&api, &general, "b".into(), &off);
        let ks2 = rank_key(&api, &specific, "a".into(), &off);
        assert!(ks2 < kg2);
    }

    #[test]
    fn code_string_is_last_resort() {
        let api = io_api();
        let input = api.types().resolve("InputStream").unwrap();
        let e = elem_for(&api, "InputStreamReader", "<init>", input);
        let j = Jungloid::new(&api, input, vec![e]).unwrap();
        let opts = RankOptions::default();
        let k1 = rank_key(&api, &j, "aaa".into(), &opts);
        let k2 = rank_key(&api, &j, "bbb".into(), &opts);
        assert!(k1 < k2);
    }
}
