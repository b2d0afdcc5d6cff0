//! MiniJava-client: the little Java subset that Prospector's miner consumes.
//!
//! The PLDI 2005 jungloid-mining algorithm (§4.2) extracts *example
//! jungloids* from a corpus of ordinary Java client code. The extraction
//! only looks at straight-line data flow — locals, assignments, method
//! calls, `new` expressions, field accesses, casts, and returns — so this
//! crate implements exactly that fragment:
//!
//! * a lexer ([`lex`]) shared with the `.api` stub parser in
//!   `jungloid-apidef`;
//! * an untyped AST ([`ast`]) — name resolution and typing live in
//!   `jungloid-dataflow`, which knows about the API model;
//! * a hand-written recursive-descent parser ([`parse`]) including the
//!   classic cast-vs-parenthesis disambiguation;
//! * a pretty printer ([`print`](mod@print)) that renders ASTs back to source. The
//!   synthesizer in `prospector-core` builds its output snippets as MiniJava
//!   ASTs, so everything Prospector suggests is guaranteed to re-parse.
//!
//! # Example
//!
//! ```
//! let src = r#"
//!     package demo;
//!     class Client {
//!         Object grab(IDebugView view) {
//!             ISelection s = view.getViewer().getSelection();
//!             IStructuredSelection sel = (IStructuredSelection) s;
//!             return sel.getFirstElement();
//!         }
//!     }
//! "#;
//! let unit = jungloid_minijava::parse::parse_unit("demo.mj", src)?;
//! assert_eq!(unit.classes.len(), 1);
//! assert_eq!(unit.classes[0].methods[0].name, "grab");
//! # Ok::<(), jungloid_minijava::parse::ParseError>(())
//! ```

#![deny(unsafe_code)]

pub mod ast;
pub mod lex;
pub mod parse;
pub mod print;
