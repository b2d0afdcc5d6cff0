//! Errors reported while building or querying a type table.

use crate::TyId;

/// An error raised while constructing or querying the type hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TypeError {
    /// A type with this qualified name was already declared.
    DuplicateType {
        /// Fully qualified name of the clashing declaration.
        qualified_name: String,
    },
    /// The named type has not been declared.
    UnknownType {
        /// The name that failed to resolve.
        name: String,
    },
    /// A simple name resolves to more than one declared type.
    AmbiguousName {
        /// The ambiguous simple name.
        name: String,
        /// Qualified names of all candidates.
        candidates: Vec<String>,
    },
    /// The requested operation needs a declared class or interface but got
    /// `void`, a primitive, or an array type.
    NotADeclaredType {
        /// The offending type id.
        ty: TyId,
    },
    /// Setting this supertype link would make the hierarchy cyclic.
    CyclicHierarchy {
        /// The subtype whose supertype link was being set.
        sub: TyId,
        /// The proposed supertype.
        sup: TyId,
    },
    /// A class may extend only one superclass.
    SuperclassAlreadySet {
        /// The class whose superclass was being set again.
        class: TyId,
    },
    /// Interfaces cannot extend classes, classes cannot extend interfaces
    /// via `set_superclass`, etc.
    KindMismatch {
        /// Human-readable description of the violated rule.
        detail: String,
    },
    /// A stored arena (a `.pspk` snapshot) failed structural validation:
    /// out-of-range references, a malformed built-in prefix, duplicate
    /// declarations, and the like.
    InvalidTable {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
}

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeError::DuplicateType { qualified_name } => {
                write!(f, "type `{qualified_name}` is declared twice")
            }
            TypeError::UnknownType { name } => write!(f, "unknown type `{name}`"),
            TypeError::AmbiguousName { name, candidates } => write!(
                f,
                "simple name `{name}` is ambiguous between {}",
                candidates.join(", ")
            ),
            TypeError::NotADeclaredType { ty } => {
                write!(f, "{ty:?} is not a declared class or interface")
            }
            TypeError::CyclicHierarchy { sub, sup } => {
                write!(f, "making {sup:?} a supertype of {sub:?} would create a cycle")
            }
            TypeError::SuperclassAlreadySet { class } => {
                write!(f, "superclass of {class:?} is already set")
            }
            TypeError::KindMismatch { detail } => f.write_str(detail),
            TypeError::InvalidTable { detail } => {
                write!(f, "invalid persisted type table: {detail}")
            }
        }
    }
}

impl std::error::Error for TypeError {}
