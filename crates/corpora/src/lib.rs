//! The evaluation substrate: modeled Eclipse/J2SE APIs, the MiniJava
//! mining corpus, the paper's problem sets, and the procedural API-jungle
//! generator.
//!
//! The top-level entry point is [`build`], which assembles the same
//! artifact the paper's tool ships with: the jungloid graph over the
//! modeled APIs, refined with examples mined from the corpus.
//!
//! ```
//! use prospector_corpora::{build, BuildOptions};
//!
//! let built = build(&BuildOptions::default()).expect("corpus builds");
//! let api = built.prospector.api();
//! let tin = api.types().resolve("IFile").unwrap();
//! let tout = api.types().resolve("ASTNode").unwrap();
//! let result = built.prospector.query(tin, tout).unwrap();
//! assert!(result.suggestions[0].code.contains("parseCompilationUnit"));
//! ```

#![deny(unsafe_code)]

pub mod behavior;
pub mod client_gen;
pub mod corpus_ext;
pub mod corpus_src;
pub mod jungle;
pub mod problems;
pub mod problems_ext;
pub mod report;
pub mod stubs;
pub mod stubs_distractors;
pub mod stubs_ext;
pub mod synth;

use jungloid_apidef::{Api, ApiLoader};
use jungloid_dataflow::{LoweredCorpus, MineReport, Miner, MinerConfig};
use jungloid_minijava::ast::Unit;
use jungloid_minijava::parse::parse_unit;
use prospector_core::{GraphConfig, Prospector};
use prospector_obs::Stage;

/// How to assemble the evaluation engine.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Mine the client corpus and splice examples in (§4). Off = the
    /// signature-graph-only baseline of §3.
    pub mining: bool,
    /// Generalize mined examples before splicing (§4.2). Ignored when
    /// `mining` is off.
    pub generalize: bool,
    /// Let synthesis use `protected` members (the §7 fix; paper default
    /// is public-only).
    pub include_protected: bool,
    /// The §4.3 extension: restrict `Object`/`String` parameter slots to
    /// parameter-mined usages. Off by default (the paper left it
    /// untested).
    pub param_mining: bool,
    /// Load the extended API pack (zip/DOM/Swing-tree/JDBC) and its
    /// corpus alongside the paper's Eclipse/J2SE model.
    pub extended: bool,
    /// Also grow the procedural jungle (performance experiments only —
    /// Table 1 runs on the hand-modeled APIs alone).
    pub jungle: Option<jungle::JungleSpec>,
    /// Miner limits.
    pub miner: MinerConfig,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            mining: true,
            generalize: true,
            include_protected: false,
            param_mining: false,
            extended: false,
            jungle: None,
            miner: MinerConfig::default(),
        }
    }
}

/// A fully assembled engine plus build diagnostics.
#[derive(Debug)]
pub struct Built {
    /// The query engine.
    pub prospector: Prospector,
    /// What mining extracted (when enabled).
    pub mine_report: Option<MineReport>,
}

/// An assembly failure (stub syntax, corpus resolution, ill-typed mined
/// example). All variants indicate a bug in the bundled corpora.
#[derive(Debug)]
pub struct BuildError {
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corpus assembly failed: {}", self.message)
    }
}

impl std::error::Error for BuildError {}

fn err<E: std::fmt::Display>(e: E) -> BuildError {
    BuildError { message: e.to_string() }
}

/// Loads the hand-modeled API stubs (prelude + J2SE + Eclipse fragments).
///
/// # Errors
///
/// Fails only if the bundled stubs are malformed.
pub fn eclipse_api() -> Result<Api, BuildError> {
    api_with(false)
}

fn api_with(extended: bool) -> Result<Api, BuildError> {
    let mut loader = ApiLoader::with_prelude();
    for (file, text) in stubs::ALL_STUBS
        .iter()
        .chain(&stubs::EXTRA_STUBS)
        .chain(&stubs_distractors::DISTRACTOR_STUBS)
    {
        loader.add_source(file, text).map_err(err)?;
    }
    if extended {
        for (file, text) in &stubs_ext::EXTENDED_STUBS {
            loader.add_source(file, text).map_err(err)?;
        }
    }
    loader.finish().map_err(err)
}

/// Parses the bundled MiniJava corpus.
///
/// # Errors
///
/// Fails only if the bundled sources are malformed.
pub fn corpus_units() -> Result<Vec<Unit>, BuildError> {
    corpus_src::ALL_CORPUS
        .iter()
        .map(|(file, text)| parse_unit(file, text).map_err(err))
        .collect()
}

/// Parses the bundled + extended MiniJava corpus.
///
/// # Errors
///
/// Fails only if the bundled sources are malformed.
pub fn extended_corpus_units() -> Result<Vec<Unit>, BuildError> {
    corpus_src::ALL_CORPUS
        .iter()
        .chain(&corpus_ext::EXTENDED_CORPUS)
        .map(|(file, text)| parse_unit(file, text).map_err(err))
        .collect()
}

/// Assembles the evaluation engine per `options`.
///
/// # Errors
///
/// Propagates assembly failures (which indicate corpus bugs, not user
/// error).
pub fn build(options: &BuildOptions) -> Result<Built, BuildError> {
    let mut api = api_with(options.extended)?;
    let mut param_examples = Vec::new();
    let mine_report = if options.mining {
        let _span = prospector_obs::stage(Stage::Mine);
        let units =
            if options.extended { extended_corpus_units()? } else { corpus_units()? };
        let lowered = LoweredCorpus::lower(&mut api, &units).map_err(err)?;
        let mut miner = Miner::new(&api, &lowered);
        miner.config = options.miner;
        if options.param_mining {
            let weak: Vec<_> = [
                api.types().object(),
                api.types().resolve("java.lang.String").ok(),
            ]
            .into_iter()
            .flatten()
            .collect();
            param_examples = miner.mine_params(&weak).examples;
        }
        Some(miner.mine())
    } else {
        None
    };
    if let Some(spec) = &options.jungle {
        jungle::grow(&mut api, spec);
    }
    let mut prospector = Prospector::with_config(
        api,
        GraphConfig {
            include_protected: options.include_protected,
            restrict_weak_params: options.param_mining,
        },
    );
    if let Some(report) = &mine_report {
        prospector.add_examples(&report.examples, options.generalize).map_err(err)?;
    }
    if !param_examples.is_empty() {
        prospector.add_param_examples(&param_examples, options.generalize).map_err(err)?;
    }
    Ok(Built { prospector, mine_report })
}

/// The default engine: mining + generalization on, public members only.
///
/// # Panics
///
/// Panics if the bundled corpora fail to assemble (a bug in this crate).
#[must_use]
pub fn build_default() -> Prospector {
    build(&BuildOptions::default()).expect("bundled corpora assemble").prospector
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stubs_load() {
        let api = eclipse_api().unwrap();
        // Spot checks: the paper's key classes exist with the right shape.
        let ifile = api.types().resolve("IFile").unwrap();
        let iresource = api.types().resolve("IResource").unwrap();
        assert!(api.types().is_subtype(ifile, iresource));
        let cu = api.types().resolve("CompilationUnit").unwrap();
        let ast = api.types().resolve("ASTNode").unwrap();
        assert!(api.types().is_subtype(cu, ast));
        let jc = api.types().resolve("JavaCore").unwrap();
        assert_eq!(api.lookup_static_method(jc, "createCompilationUnitFrom", 1).len(), 1);
        // getLayer is protected (Table 1 row 19's failure hinges on it).
        let agep = api.types().resolve("AbstractGraphicalEditPart").unwrap();
        let get_layer = api.lookup_instance_method(agep, "getLayer", 1)[0];
        assert_eq!(api.method(get_layer).visibility(), jungloid_apidef::Visibility::Protected);
    }

    #[test]
    fn corpus_parses_and_lowers() {
        let mut api = eclipse_api().unwrap();
        let units = corpus_units().unwrap();
        let lowered = LoweredCorpus::lower(&mut api, &units).unwrap();
        assert!(lowered.cast_count() >= 12, "expected a rich cast corpus");
    }

    #[test]
    fn default_build_mines_examples() {
        let built = build(&BuildOptions::default()).unwrap();
        let report = built.mine_report.as_ref().unwrap();
        assert!(report.cast_sites >= 12);
        assert!(!report.examples.is_empty());
        assert!(built.prospector.graph().mined_node_count() > 0);
    }

    #[test]
    fn intro_example_answers() {
        let built = build(&BuildOptions::default()).unwrap();
        let api = built.prospector.api();
        let ifile = api.types().resolve("IFile").unwrap();
        let ast = api.types().resolve("ASTNode").unwrap();
        let result = built.prospector.query(ifile, ast).unwrap();
        assert!(result.suggestions[0]
            .code
            .contains("AST.parseCompilationUnit(JavaCore.createCompilationUnitFrom("));
    }
}
