//! Umbrella crate for the Prospector reproduction workspace.
//!
//! Re-exports every workspace crate under a short alias so the runnable
//! examples in `examples/` and the cross-crate integration tests in `tests/`
//! can use one import root.

#![deny(unsafe_code)]

pub use jungloid_apidef as apidef;
pub use jungloid_dataflow as dataflow;
pub use jungloid_minijava as minijava;
pub use jungloid_typesys as typesys;
pub use prospector_core as core;
pub use prospector_corpora as corpora;
pub use prospector_study as study;
