//! Type identifiers and the structural description of each type.

/// A compact, copyable handle for an interned type.
///
/// `TyId`s are only meaningful relative to the [`TypeTable`] that issued
/// them; they index into the table's dense arena. Every node of the
/// signature graph is keyed by a `TyId` (plus fresh mined nodes), so keeping
/// this a 4-byte value keeps the graph compact.
///
/// `#[repr(transparent)]` over its `u32`, so arrays of ids can be viewed
/// straight out of a snapshot buffer (see [`Plain`](crate::Plain)).
///
/// [`TypeTable`]: crate::TypeTable
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct TyId(pub(crate) u32);

impl TyId {
    /// Returns the raw index of this id in its owning table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index.
    ///
    /// Only meaningful for indexes previously obtained from
    /// [`TyId::index`] against the same table.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        TyId(u32::try_from(index).expect("type arena exceeds u32 range"))
    }
}

impl std::fmt::Debug for TyId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ty#{}", self.0)
    }
}

/// Whether a declared reference type is a class or an interface.
///
/// The distinction matters for hierarchy validity (classes have at most one
/// superclass; interfaces may extend several interfaces) but not for graph
/// search: both are ordinary nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// A concrete or abstract class.
    Class,
    /// An interface.
    Interface,
}

impl std::fmt::Display for TypeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TypeKind::Class => f.write_str("class"),
            TypeKind::Interface => f.write_str("interface"),
        }
    }
}

/// Java primitive types.
///
/// Primitives are excluded from jungloid queries (§2.1 footnote 4: "The only
/// types we exclude are primitive types such as `int`, which could represent
/// anything from an array bound to a cryptographic key") but still occur as
/// method-parameter types, where they become free variables of a jungloid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Prim {
    /// `boolean`
    Boolean,
    /// `byte`
    Byte,
    /// `char`
    Char,
    /// `short`
    Short,
    /// `int`
    Int,
    /// `long`
    Long,
    /// `float`
    Float,
    /// `double`
    Double,
}

impl Prim {
    /// All primitive kinds, in declaration order.
    pub const ALL: [Prim; 8] = [
        Prim::Boolean,
        Prim::Byte,
        Prim::Char,
        Prim::Short,
        Prim::Int,
        Prim::Long,
        Prim::Float,
        Prim::Double,
    ];

    /// The Java keyword for this primitive.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            Prim::Boolean => "boolean",
            Prim::Byte => "byte",
            Prim::Char => "char",
            Prim::Short => "short",
            Prim::Int => "int",
            Prim::Long => "long",
            Prim::Float => "float",
            Prim::Double => "double",
        }
    }

    /// Parses a Java primitive keyword.
    #[must_use]
    pub fn from_keyword(word: &str) -> Option<Prim> {
        Prim::ALL.into_iter().find(|p| p.keyword() == word)
    }
}

impl std::fmt::Display for Prim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// The structure of one interned type.
///
/// Obtained from [`TypeTable::ty`]; use it to case on what a [`TyId`]
/// denotes without poking at table internals.
///
/// [`TypeTable::ty`]: crate::TypeTable::ty
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ty {
    /// The pseudo-type `void`, input of zero-argument elementary jungloids.
    Void,
    /// The null type: the static type of the `null` literal, subtype of
    /// every reference type. Used by the MiniJava front end; never a graph
    /// node.
    Null,
    /// A primitive type.
    Prim(Prim),
    /// A declared class or interface. Structure lives in the table; query
    /// it via [`TypeTable`](crate::TypeTable) accessors.
    Decl,
    /// An array with the given element type.
    Array(TyId),
}
