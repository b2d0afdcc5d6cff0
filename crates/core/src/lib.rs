//! Prospector's core: jungloid synthesis from signatures and mined
//! examples.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Mandelin, Xu, Bodík, Kimelman — *Jungloid Mining: Helping to Navigate
//! the API Jungle*, PLDI 2005):
//!
//! * [`graph`] — the signature graph (§3.1) and the example-refined
//!   jungloid graph (§4.2, Figure 6);
//! * [`search`] — multi-source acyclic path enumeration within the
//!   `m + 1` window (§5);
//! * [`rank`] — the length-first ranking heuristic with package-crossing
//!   and output-generality tie-breaks (§3.2);
//! * [`generalize`] — trimming mined examples to distinguishing suffixes
//!   (§4.2, Figure 7);
//! * [`synth`] — rendering paths as insertable code with free variables
//!   (§2.2);
//! * [`engine`] — the query front end: explicit `(tin, tout)` queries and
//!   context-inferred content-assist queries (§5).
//!
//! The engine is saved and loaded only through `prospector-store`'s `.pspk`
//! snapshot, which restores a graph through
//! [`JungloidGraph::from_snapshot`] and [`CsrAdjacency::from_slabs`];
//! the `to_json` encoders here and in `jungloid-apidef` render a
//! human-readable dump that is never loaded back.
//!
//! # Quickstart
//!
//! ```
//! use jungloid_apidef::ApiLoader;
//! use prospector_core::Prospector;
//!
//! let mut loader = ApiLoader::with_prelude();
//! loader.add_source(
//!     "io.api",
//!     r#"
//!     package java.io;
//!     public class InputStream {}
//!     public class Reader {}
//!     public class InputStreamReader extends Reader {
//!         InputStreamReader(InputStream in);
//!     }
//!     public class BufferedReader extends Reader {
//!         BufferedReader(Reader in);
//!     }
//!     "#,
//! )?;
//! let api = loader.finish()?;
//! let tin = api.types().resolve("InputStream")?;
//! let tout = api.types().resolve("BufferedReader")?;
//!
//! let prospector = Prospector::new(api);
//! let result = prospector.query(tin, tout)?;
//! assert_eq!(
//!     result.suggestions[0].code,
//!     "new BufferedReader(new InputStreamReader(inputStream))"
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]

pub mod cache;
pub mod compose;
pub mod dot;
pub mod elems;
pub mod engine;
pub mod explain;
pub mod generalize;
pub mod graph;
pub mod path;
pub mod rank;
pub mod search;
pub mod synth;
pub mod viability;

pub use cache::ShardedLru;
pub use compose::{compose, ComposeConfig, Composition};
pub use elems::ElemSeq;
pub use engine::{BatchEntry, Prospector, QueryError, QueryResult, QueryStats, Suggestion};
pub use graph::{
    CsrAdjacency, Edge, ExampleError, GraphConfig, GraphStats, JungloidGraph, NodeId, SnapshotError,
};
pub use path::Jungloid;
pub use rank::{RankKey, RankOptions};
pub use search::{
    DistanceField, SearchConfig, SearchOutcome, SearchScratch, TruncationReason,
};
pub use synth::{synthesize, synthesize_statements, NamePool, Snippet};
pub use viability::{Behavior, Outcome};
