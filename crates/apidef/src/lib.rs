//! The API signature database that jungloid synthesis runs against.
//!
//! The paper derives every elementary jungloid from "signatures", used in
//! the broad sense of §1 footnote 2: *"all the elements of the static type
//! system: method signatures, field declarations, and class hierarchy
//! declarations."* This crate models exactly those elements:
//!
//! * [`Api`] — a [`jungloid_typesys::TypeTable`] plus method and field
//!   declarations with the modifiers the synthesizer cares about
//!   (`static`, visibility, constructor-ness);
//! * a declarative `.api` stub format ([`ApiLoader`]) for writing large
//!   modeled APIs by hand (the Eclipse/J2SE fragments in
//!   `prospector-corpora` are written in it);
//! * member-lookup routines used by the MiniJava resolver in
//!   `jungloid-dataflow` (instance lookup walks supertypes; a CHA helper
//!   approximates call targets for the miner's interprocedural slices).
//!
//! # Example
//!
//! ```
//! use jungloid_apidef::ApiLoader;
//!
//! let mut loader = ApiLoader::with_prelude();
//! loader.add_source(
//!     "io.api",
//!     r#"
//!     package java.io;
//!     public class Reader {}
//!     public class InputStream {}
//!     public class InputStreamReader extends Reader {
//!         InputStreamReader(InputStream in);
//!     }
//!     public class BufferedReader extends Reader {
//!         BufferedReader(Reader in);
//!         String readLine();
//!     }
//!     "#,
//! )?;
//! let api = loader.finish()?;
//! let buffered = api.types().resolve("BufferedReader")?;
//! assert_eq!(api.constructors_of(buffered).len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]

pub mod elem;
mod error;
mod loader;
mod model;
pub mod printer;

pub use elem::{ElemJungloid, InputSlot};
pub use error::ApiError;
pub use loader::{ApiLoader, PRELUDE};
pub use model::{
    Api, FieldDef, FieldId, FieldRecord, FieldView, MemberArrays, MethodDef, MethodId,
    MethodRecord, MethodView, Visibility, FIELD_RECORD_WORDS, METHOD_RECORD_WORDS,
};
