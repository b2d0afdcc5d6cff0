//! A Java-like reference-type model: packages, classes, interfaces, arrays,
//! and the subtyping judgments that jungloid synthesis relies on.
//!
//! This crate is the lowest-level substrate of the Prospector reproduction
//! (PLDI 2005, *Jungloid Mining*). The paper's algorithms only ever consult
//! the *static type structure* of an API — the class hierarchy, widening
//! reference conversions, and narrowing conversions (downcasts) — so this
//! model captures exactly that fragment of the Java type system:
//!
//! * reference types: classes, interfaces, and arrays (§2.1, footnote 4);
//! * `void`, used as the input type of zero-argument jungloids (§2.1);
//! * primitive types, which may appear as free-variable types but are never
//!   query endpoints;
//! * widening reference conversions `T → U` for `T <: U` and downcasts
//!   `U → T` (§2.1, Definition 2).
//!
//! Generics are deliberately absent: the paper targets pre-generics Java and
//! notes (§1 footnote 3) that the downcasts it mines would be required even
//! under Java 5 generics.
//!
//! # Example
//!
//! ```
//! use jungloid_typesys::{TypeKind, TypeTable};
//!
//! let mut table = TypeTable::new();
//! let object = table.declare("java.lang", "Object", TypeKind::Class)?;
//! let reader = table.declare("java.io", "Reader", TypeKind::Class)?;
//! let buffered = table.declare("java.io", "BufferedReader", TypeKind::Class)?;
//! table.set_superclass(buffered, reader)?;
//!
//! assert!(table.is_subtype(buffered, reader));
//! assert!(table.is_subtype(reader, object));
//! assert!(!table.is_subtype(reader, buffered));
//! assert!(table.is_subtype(buffered, object));
//! # let _ = object;
//! # Ok::<(), jungloid_typesys::TypeError>(())
//! ```

#![deny(unsafe_code)]

mod error;
pub mod names;
#[allow(unsafe_code)]
pub mod slab;
mod table;
mod ty;

pub use error::TypeError;
pub use names::NameArena;
pub use slab::{Plain, Slab, SnapshotBuf};
pub use table::{PackageId, TypeArrays, TypeDecl, TypeRecord, TypeTable, TYPE_RECORD_WORDS};
pub use ty::{Prim, Ty, TyId, TypeKind};
