//! Jungloid mining front end: from client source code to example
//! jungloids (§4.2, "Extracting Jungloids").
//!
//! The pipeline:
//!
//! 1. [`lower`] — parsed MiniJava client code is lowered to a small typed
//!    IR ([`lower::Val`]): every name is resolved against the API model,
//!    every call site against the class hierarchy (client classes are
//!    registered into the type table so inheritance from API types
//!    works), and every cast and client call site is indexed.
//! 2. [`mine`] — for each *downcast* site, a backward, interprocedural,
//!    flow-insensitive walk collects the sequences of elementary
//!    jungloids that can reach the cast:
//!    * a local variable's uses flow from **all** of its definitions
//!      (flow-insensitive);
//!    * a parameter flows from the corresponding argument at **every**
//!      call site of the method in the corpus (interprocedural, call
//!      graph approximated by the type hierarchy);
//!    * an API call is an elementary jungloid through each of its
//!      class-typed inputs (the paper's first interpretation); client
//!      methods are always inlined (the second interpretation) — API
//!      bodies are not available in a signature model, matching the
//!      paper's treatment of binary libraries;
//!    * extraction stops at zero-argument expressions (no-input
//!      constructors/statics, static fields, parameters without call
//!      sites, string/class literals) and is capped per cast site, as in
//!      the paper ("stopping after a defined maximum number of example
//!      jungloids is extracted for a given cast expression").
//!
//! The output of [`mine::Miner::mine`] feeds
//! `prospector_core::Prospector::add_examples`.

#![deny(unsafe_code)]

pub mod lower;
pub mod mine;

pub use lower::{ClientClass, ClientMethod, LowerError, LoweredCorpus, Val, ValKind};
pub use mine::{MineReport, Miner, MinerConfig, ParamMineReport};
