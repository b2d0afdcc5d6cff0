//! The type table: an arena of interned types plus hierarchy queries.

use std::collections::HashMap;

use prospector_obs::json::{decode_err, Json, JsonError};

use crate::names::{hash_name, NameArena, NameIndex, Sym};
use crate::{Prim, Ty, TyId, TypeError, TypeKind};

/// Identifier of an interned package name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackageId(u32);

impl PackageId {
    /// Raw index into the owning table's package list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index.
    ///
    /// Only meaningful for indexes previously obtained from
    /// [`PackageId::index`] against the same table (the binary snapshot
    /// loader re-derives them; [`TypeTable::loader`] validates range).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        PackageId(u32::try_from(index).expect("package arena exceeds u32 range"))
    }
}

/// Internal structure of one arena slot.
#[derive(Clone, Debug)]
enum TyData {
    Void,
    Null,
    Prim(Prim),
    Decl(DeclData),
    Array { elem: TyId },
}

#[derive(Clone, Debug)]
struct DeclData {
    simple: Sym,
    package: PackageId,
    kind: TypeKind,
    superclass: Option<TyId>,
    interfaces: Vec<TyId>,
}

/// A read-only view of one declared class or interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypeDecl<'a> {
    /// The type's own id.
    pub id: TyId,
    /// Simple (unqualified) name, e.g. `BufferedReader`.
    pub simple_name: &'a str,
    /// Package name, e.g. `java.io`.
    pub package_name: &'a str,
    /// Package id.
    pub package: PackageId,
    /// Class or interface.
    pub kind: TypeKind,
    /// Declared superclass, if any. `None` for `java.lang.Object` and for
    /// classes that implicitly extend `Object` before it is declared.
    pub superclass: Option<TyId>,
    /// Implemented (for classes) or extended (for interfaces) interfaces.
    pub interfaces: &'a [TyId],
}

impl TypeDecl<'_> {
    /// Fully qualified name, `package.Simple`.
    #[must_use]
    pub fn qualified_name(&self) -> String {
        if self.package_name.is_empty() {
            self.simple_name.to_owned()
        } else {
            format!("{}.{}", self.package_name, self.simple_name)
        }
    }
}

/// Arena of interned types with hierarchy construction and subtype queries.
///
/// A fresh table pre-interns `void`, the null type, and the eight Java
/// primitives; everything else is declared by the caller (typically the
/// `.api` stub loader in `jungloid-apidef`).
///
/// # Example
///
/// ```
/// use jungloid_typesys::{TypeKind, TypeTable};
///
/// let mut t = TypeTable::new();
/// let object = t.declare("java.lang", "Object", TypeKind::Class)?;
/// let iter = t.declare("java.util", "Iterator", TypeKind::Interface)?;
/// let list_iter = t.declare("java.util", "ListIterator", TypeKind::Interface)?;
/// t.add_interface(list_iter, iter)?;
///
/// assert!(t.is_subtype(list_iter, iter));
/// assert!(t.is_subtype(iter, object));
/// assert_eq!(t.resolve("Iterator")?, iter);
/// assert_eq!(t.resolve("java.util.ListIterator")?, list_iter);
/// # Ok::<(), jungloid_typesys::TypeError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TypeTable {
    /// Package names and simple type names, back to back.
    names: NameArena,
    packages: Vec<Sym>,
    /// Package name → package id.
    package_index: NameIndex,
    types: Vec<TyData>,
    /// Simple name → the declared types carrying it. Serves simple and
    /// qualified lookups and the duplicate-declaration check; built as
    /// types are declared or loaded, never on first use.
    type_index: NameIndex,
    arrays: HashMap<TyId, TyId>,
    void_id: TyId,
    null_id: TyId,
    prim_ids: [TyId; 8],
    object: Option<TyId>,
}

impl TypeTable {
    /// Creates a table containing only `void`, the null type, and the
    /// primitives.
    #[must_use]
    pub fn new() -> Self {
        let mut types = Vec::with_capacity(16);
        types.push(TyData::Void);
        types.push(TyData::Null);
        let void_id = TyId(0);
        let null_id = TyId(1);
        let mut prim_ids = [TyId(0); 8];
        for (i, p) in Prim::ALL.into_iter().enumerate() {
            prim_ids[i] = TyId(u32::try_from(types.len()).expect("small"));
            types.push(TyData::Prim(p));
        }
        TypeTable {
            names: NameArena::default(),
            packages: Vec::new(),
            package_index: NameIndex::default(),
            types,
            type_index: NameIndex::default(),
            arrays: HashMap::new(),
            void_id,
            null_id,
            prim_ids,
            object: None,
        }
    }

    /// The id of an interned package.
    fn package_id(&self, name: &str) -> Option<PackageId> {
        self.package_index
            .chain(hash_name(name))
            .map(PackageId::from_index)
            .find(|&p| self.package_name(p) == name)
    }

    /// The declared types whose simple name is `simple` (hashing to `h`),
    /// newest first.
    fn homonyms<'a>(
        &'a self,
        simple: &'a str,
        h: u64,
    ) -> impl Iterator<Item = (TyId, &'a DeclData)> + 'a {
        self.type_index.chain(h).filter_map(move |i| match &self.types[i] {
            TyData::Decl(d) if self.names.get(d.simple) == simple => Some((TyId::from_index(i), d)),
            _ => None,
        })
    }

    /// The declared type `package.simple` (`simple` hashing to `h`).
    fn find_decl(&self, package: PackageId, simple: &str, h: u64) -> Option<TyId> {
        self.homonyms(simple, h).find(|(_, d)| d.package == package).map(|(id, _)| id)
    }

    /// Appends declared type `package.simple` (`simple` hashing to `h`),
    /// or returns the type already declared under that name.
    fn push_decl(
        &mut self,
        package: PackageId,
        simple: &str,
        h: u64,
        kind: TypeKind,
        superclass: Option<TyId>,
        interfaces: Vec<TyId>,
    ) -> Result<TyId, TyId> {
        if let Some(existing) = self.find_decl(package, simple, h) {
            return Err(existing);
        }
        let id = TyId(u32::try_from(self.types.len()).expect("type arena overflow"));
        let sym = self.names.push(simple);
        self.types.push(TyData::Decl(DeclData { simple: sym, package, kind, superclass, interfaces }));
        self.type_index.insert(h, id.index());
        if self.object.is_none() && simple == "Object" && self.package_name(package) == "java.lang" {
            self.object = Some(id);
        }
        Ok(id)
    }

    /// The `void` pseudo-type.
    #[must_use]
    pub fn void(&self) -> TyId {
        self.void_id
    }

    /// The null type (static type of the `null` literal).
    #[must_use]
    pub fn null(&self) -> TyId {
        self.null_id
    }

    /// The id of a primitive type.
    #[must_use]
    pub fn prim(&self, p: Prim) -> TyId {
        self.prim_ids[Prim::ALL.iter().position(|q| *q == p).expect("all prims listed")]
    }

    /// `java.lang.Object`, if it has been declared.
    #[must_use]
    pub fn object(&self) -> Option<TyId> {
        self.object
    }

    /// Interns a package name, returning its id.
    pub fn intern_package(&mut self, name: &str) -> PackageId {
        if let Some(id) = self.package_id(name) {
            return id;
        }
        let id = PackageId(u32::try_from(self.packages.len()).expect("package arena overflow"));
        self.packages.push(self.names.push(name));
        self.package_index.insert(hash_name(name), id.index());
        id
    }

    /// Name of an interned package.
    #[must_use]
    pub fn package_name(&self, id: PackageId) -> &str {
        self.names.get(self.packages[id.index()])
    }

    /// Declares a new class or interface.
    ///
    /// Declaring `java.lang.Object` marks it as the hierarchy root; classes
    /// and interfaces without explicit supertypes are implicitly subtypes of
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::DuplicateType`] if the qualified name is taken.
    pub fn declare(&mut self, package: &str, simple: &str, kind: TypeKind) -> Result<TyId, TypeError> {
        let package = self.intern_package(package);
        self.push_decl(package, simple, hash_name(simple), kind, None, Vec::new())
            .map_err(|existing| TypeError::DuplicateType { qualified_name: self.display(existing) })
    }

    /// Interns (or returns the existing) array type with the given element.
    ///
    /// # Panics
    ///
    /// Panics if `elem` is `void` or the null type, which have no array
    /// types in Java.
    pub fn array_of(&mut self, elem: TyId) -> TyId {
        assert!(
            !matches!(self.types[elem.index()], TyData::Void | TyData::Null),
            "no array of void/null"
        );
        if let Some(&arr) = self.arrays.get(&elem) {
            return arr;
        }
        let id = TyId(u32::try_from(self.types.len()).expect("type arena overflow"));
        self.types.push(TyData::Array { elem });
        self.arrays.insert(elem, id);
        id
    }

    /// Sets the superclass of a class.
    ///
    /// # Errors
    ///
    /// Fails if either side is not a declared type, the subtype is an
    /// interface or already has a superclass, the supertype is an interface,
    /// or the link would create a cycle.
    pub fn set_superclass(&mut self, class: TyId, superclass: TyId) -> Result<(), TypeError> {
        match (self.kind(class), self.kind(superclass)) {
            (Some(TypeKind::Class), Some(TypeKind::Class)) => {}
            (Some(TypeKind::Interface), _) => {
                return Err(TypeError::KindMismatch {
                    detail: format!(
                        "interface `{}` cannot have a superclass; use add_interface",
                        self.display(class)
                    ),
                })
            }
            (_, Some(TypeKind::Interface)) => {
                return Err(TypeError::KindMismatch {
                    detail: format!(
                        "class `{}` cannot extend interface `{}`",
                        self.display(class),
                        self.display(superclass)
                    ),
                })
            }
            (None, _) => return Err(TypeError::NotADeclaredType { ty: class }),
            (_, None) => return Err(TypeError::NotADeclaredType { ty: superclass }),
        }
        if self.reaches(superclass, class) || class == superclass {
            return Err(TypeError::CyclicHierarchy { sub: class, sup: superclass });
        }
        let TyData::Decl(data) = &mut self.types[class.index()] else { unreachable!() };
        if data.superclass.is_some() {
            return Err(TypeError::SuperclassAlreadySet { class });
        }
        data.superclass = Some(superclass);
        Ok(())
    }

    /// Adds an implemented/extended interface to a class or interface.
    ///
    /// # Errors
    ///
    /// Fails if either side is not declared, the supertype is not an
    /// interface, or the link would create a cycle. Adding the same
    /// interface twice is a no-op.
    pub fn add_interface(&mut self, sub: TyId, iface: TyId) -> Result<(), TypeError> {
        match self.kind(iface) {
            Some(TypeKind::Interface) => {}
            Some(TypeKind::Class) => {
                return Err(TypeError::KindMismatch {
                    detail: format!("`{}` is a class, not an interface", self.display(iface)),
                })
            }
            None => return Err(TypeError::NotADeclaredType { ty: iface }),
        }
        if self.kind(sub).is_none() {
            return Err(TypeError::NotADeclaredType { ty: sub });
        }
        if self.reaches(iface, sub) || sub == iface {
            return Err(TypeError::CyclicHierarchy { sub, sup: iface });
        }
        let TyData::Decl(data) = &mut self.types[sub.index()] else { unreachable!() };
        if !data.interfaces.contains(&iface) {
            data.interfaces.push(iface);
        }
        Ok(())
    }

    /// The structural shape of a type.
    #[must_use]
    pub fn ty(&self, id: TyId) -> Ty {
        match &self.types[id.index()] {
            TyData::Void => Ty::Void,
            TyData::Null => Ty::Null,
            TyData::Prim(p) => Ty::Prim(*p),
            TyData::Decl(_) => Ty::Decl,
            TyData::Array { elem } => Ty::Array(*elem),
        }
    }

    /// `Some(kind)` if `id` is a declared class or interface.
    #[must_use]
    pub fn kind(&self, id: TyId) -> Option<TypeKind> {
        match &self.types[id.index()] {
            TyData::Decl(d) => Some(d.kind),
            _ => None,
        }
    }

    /// Whether `id` is a reference type (declared or array or null).
    #[must_use]
    pub fn is_reference(&self, id: TyId) -> bool {
        matches!(
            self.types[id.index()],
            TyData::Decl(_) | TyData::Array { .. } | TyData::Null
        )
    }

    /// Read-only view of a declared type.
    #[must_use]
    pub fn decl(&self, id: TyId) -> Option<TypeDecl<'_>> {
        match &self.types[id.index()] {
            TyData::Decl(d) => Some(TypeDecl {
                id,
                simple_name: self.names.get(d.simple),
                package_name: self.names.get(self.packages[d.package.index()]),
                package: d.package,
                kind: d.kind,
                superclass: d.superclass,
                interfaces: &d.interfaces,
            }),
            _ => None,
        }
    }

    /// The package a type belongs to: its own for declared types, the
    /// element's for arrays, `None` for `void`/null/primitives.
    #[must_use]
    pub fn package_of(&self, id: TyId) -> Option<PackageId> {
        match &self.types[id.index()] {
            TyData::Decl(d) => Some(d.package),
            TyData::Array { elem } => self.package_of(*elem),
            _ => None,
        }
    }

    /// Total number of interned types (including `void`, null, primitives,
    /// and arrays).
    #[must_use]
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the table holds only the built-in types.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        // 10 built-ins: void, null, 8 primitives.
        self.types.len() <= 10
    }

    /// Iterates over the ids of all interned types.
    pub fn ids(&self) -> impl Iterator<Item = TyId> + '_ {
        (0..self.types.len()).map(TyId::from_index)
    }

    /// Iterates over all declared classes and interfaces.
    pub fn decls(&self) -> impl Iterator<Item = TypeDecl<'_>> + '_ {
        self.ids().filter_map(|id| self.decl(id))
    }

    /// Resolves a type name: qualified (`java.io.Reader`) or simple
    /// (`Reader`). Arrays and primitives are not handled here.
    ///
    /// # Errors
    ///
    /// [`TypeError::UnknownType`] if nothing matches,
    /// [`TypeError::AmbiguousName`] if a simple name has several matches.
    pub fn resolve(&self, name: &str) -> Result<TyId, TypeError> {
        if name.contains('.') {
            return self
                .resolve_qualified(name)
                .ok_or_else(|| TypeError::UnknownType { name: name.to_owned() });
        }
        let h = hash_name(name);
        let mut found = self.homonyms(name, h).map(|(id, _)| id);
        match (found.next(), found.next()) {
            (None, _) => Err(TypeError::UnknownType { name: name.to_owned() }),
            (Some(id), None) => Ok(id),
            (Some(_), Some(_)) => {
                let mut ids: Vec<TyId> = self.homonyms(name, h).map(|(id, _)| id).collect();
                ids.reverse();
                Err(TypeError::AmbiguousName {
                    name: name.to_owned(),
                    candidates: ids.into_iter().map(|id| self.display(id)).collect(),
                })
            }
        }
    }

    /// `package.Simple` lookup. A simple name may itself contain dots,
    /// so every split is tried, rightmost first; the package part is
    /// never empty (an unpackaged type's qualified name has no dot).
    fn resolve_qualified(&self, name: &str) -> Option<TyId> {
        name.rmatch_indices('.').find_map(|(dot, _)| {
            let (package, simple) = (&name[..dot], &name[dot + 1..]);
            if package.is_empty() {
                return None;
            }
            self.find_decl(self.package_id(package)?, simple, hash_name(simple))
        })
    }

    /// Direct supertypes of a type, i.e. the targets of its widening edges
    /// in the signature graph:
    ///
    /// * declared type: its superclass (or `Object` implicitly) plus its
    ///   interfaces; interfaces with no supers widen to `Object`;
    /// * array `S[]`: `Object`, plus `T[]` for each *interned* direct
    ///   supertype `T` of a reference element `S`;
    /// * `void`, null, primitives: none.
    #[must_use]
    pub fn direct_supertypes(&self, id: TyId) -> Vec<TyId> {
        let mut out = Vec::new();
        match &self.types[id.index()] {
            TyData::Decl(d) => {
                if let Some(sup) = d.superclass {
                    out.push(sup);
                } else if self.object != Some(id) {
                    if let Some(obj) = self.object {
                        out.push(obj);
                    }
                }
                out.extend(d.interfaces.iter().copied());
            }
            TyData::Array { elem } => {
                if let Some(obj) = self.object {
                    out.push(obj);
                }
                if matches!(self.types[elem.index()], TyData::Decl(_) | TyData::Array { .. }) {
                    for sup in self.direct_supertypes(*elem) {
                        if let Some(&arr) = self.arrays.get(&sup) {
                            out.push(arr);
                        }
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// Whether `sub` is a subtype of `sup` (reflexive).
    ///
    /// Implements Java's widening-reference-conversion relation restricted
    /// to the types this model supports: identity, class/interface
    /// hierarchy, array covariance, array-to-`Object`, and null-to-any-
    /// reference.
    #[must_use]
    pub fn is_subtype(&self, sub: TyId, sup: TyId) -> bool {
        if sub == sup {
            return true;
        }
        if sub == self.null_id {
            return self.is_reference(sup);
        }
        self.reaches(sub, sup)
    }

    /// Whether `to` is reachable from `from` through direct supertype
    /// links (strictly upward; not reflexive unless on a cycle, which
    /// construction forbids).
    fn reaches(&self, from: TyId, to: TyId) -> bool {
        let mut stack = self.direct_supertypes(from);
        let mut seen = vec![false; self.types.len()];
        while let Some(t) = stack.pop() {
            if t == to {
                return true;
            }
            if t.index() < seen.len() && !std::mem::replace(&mut seen[t.index()], true) {
                stack.extend(self.direct_supertypes(t));
            }
        }
        false
    }

    /// Inheritance depth: length of the longest chain of direct-supertype
    /// links from `id` up to a root (`Object` or a parentless type).
    ///
    /// Used by the ranking heuristic of §3.2: among jungloids of equal
    /// length, the one returning the *more general* (smaller-depth) type is
    /// preferred.
    #[must_use]
    pub fn depth(&self, id: TyId) -> u32 {
        self.direct_supertypes(id)
            .into_iter()
            .map(|s| 1 + self.depth(s))
            .max()
            .unwrap_or(0)
    }

    /// All strict subtypes of `id` among declared and array types.
    ///
    /// Linear scan; used by graph construction (downcast candidates) and by
    /// the CHA call-graph approximation, both of which precompute.
    #[must_use]
    pub fn strict_subtypes(&self, id: TyId) -> Vec<TyId> {
        self.ids()
            .filter(|&s| s != id && self.is_reference(s) && s != self.null_id && self.is_subtype(s, id))
            .collect()
    }

    /// Renders a type id as Java-ish source text (`java.io.Reader`,
    /// `int`, `String[]`, `void`).
    #[must_use]
    pub fn display(&self, id: TyId) -> String {
        match &self.types[id.index()] {
            TyData::Void => "void".to_owned(),
            TyData::Null => "<null>".to_owned(),
            TyData::Prim(p) => p.keyword().to_owned(),
            TyData::Decl(d) => {
                let pkg = self.names.get(self.packages[d.package.index()]);
                let simple = self.names.get(d.simple);
                if pkg.is_empty() {
                    simple.to_owned()
                } else {
                    format!("{pkg}.{simple}")
                }
            }
            TyData::Array { elem } => format!("{}[]", self.display(*elem)),
        }
    }

    /// Renders a type id using simple names only (`Reader`, `String[]`).
    #[must_use]
    pub fn display_simple(&self, id: TyId) -> String {
        match &self.types[id.index()] {
            TyData::Decl(d) => self.names.get(d.simple).to_owned(),
            TyData::Array { elem } => format!("{}[]", self.display_simple(*elem)),
            _ => self.display(id),
        }
    }
}

impl Default for TypeTable {
    fn default() -> Self {
        TypeTable::new()
    }
}

// --- Persistence --------------------------------------------------------
//
// Both wire formats (JSON here, binary in `prospector-store`) carry only
// the arena (packages + typed slots); every derived index
// (qualified/simple lookup, array interning, the Object root) is rebuilt
// on load, which keeps the format small and makes a loaded table
// structurally identical to a freshly built one. [`RawSlot`] is the
// neutral exchange shape both formats decode into; [`TypeTable::loader`]
// owns all structural validation.

/// The raw contents of one type-arena slot, as decoded by persistence
/// layers ([`TypeTable::from_json`] and the binary snapshot format in
/// `prospector-store`) and handed to [`TableLoader::push`]. The simple
/// name is borrowed from the decoder's input, so decoding allocates no
/// string per slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RawSlot<'a> {
    /// The `void` pseudo-type (always slot 0).
    Void,
    /// The null type (always slot 1).
    Null,
    /// A primitive (slots 2..10, in [`Prim::ALL`] order).
    Prim(Prim),
    /// A declared class or interface.
    Decl {
        /// Simple (unqualified) name.
        simple: &'a str,
        /// Package reference.
        package: PackageId,
        /// Class or interface.
        kind: TypeKind,
        /// Declared superclass, if any.
        superclass: Option<TyId>,
        /// Implemented/extended interfaces.
        interfaces: Vec<TyId>,
    },
    /// An array type.
    Array {
        /// Element type.
        elem: TyId,
    },
}

/// A borrowed view of one type-arena slot, the save-side sibling of
/// [`RawSlot`]. Save paths (the binary snapshot encoder, the JSON debug
/// dump) iterate these instead of cloning every name out of the name
/// arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RawSlotView<'a> {
    /// The `void` pseudo-type (always slot 0).
    Void,
    /// The null type (always slot 1).
    Null,
    /// A primitive (slots 2..10, in [`Prim::ALL`] order).
    Prim(Prim),
    /// A declared class or interface.
    Decl {
        /// Simple (unqualified) name, borrowed from the name arena.
        simple: &'a str,
        /// Package reference.
        package: PackageId,
        /// Class or interface.
        kind: TypeKind,
        /// Declared superclass, if any.
        superclass: Option<TyId>,
        /// Implemented/extended interfaces.
        interfaces: &'a [TyId],
    },
    /// An array type.
    Array {
        /// Element type.
        elem: TyId,
    },
}

impl TypeTable {
    /// The interned package names, in arena order, borrowed from the name
    /// arena.
    pub fn package_names(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.packages.iter().map(|&sym| self.names.get(sym))
    }

    /// Borrowed views of the raw arena slots, in id order — zero
    /// allocations, names read straight from the name arena.
    /// Together with [`TypeTable::package_names`] this is the table's
    /// complete persistent state.
    pub fn raw_slot_views(&self) -> impl ExactSizeIterator<Item = RawSlotView<'_>> + '_ {
        self.types.iter().map(|slot| match slot {
            TyData::Void => RawSlotView::Void,
            TyData::Null => RawSlotView::Null,
            TyData::Prim(p) => RawSlotView::Prim(*p),
            TyData::Decl(d) => RawSlotView::Decl {
                simple: self.names.get(d.simple),
                package: d.package,
                kind: d.kind,
                superclass: d.superclass,
                interfaces: &d.interfaces,
            },
            TyData::Array { elem } => RawSlotView::Array { elem: *elem },
        })
    }

    /// Starts rebuilding a table of exactly `slot_count` slots over
    /// `packages`, slot by slot, so a decoder never materializes a slot
    /// list. Every derived index — the name lookups included — is built
    /// as slots arrive, so the first [`TypeTable::resolve`] after a load
    /// does no deferred work.
    ///
    /// # Errors
    ///
    /// [`TypeError::InvalidTable`] on a repeated package name.
    pub fn loader(packages: &[&str], slot_count: usize) -> Result<TableLoader, TypeError> {
        let mut table = TypeTable {
            names: NameArena::with_capacity(slot_count + packages.len(), 0),
            packages: Vec::with_capacity(packages.len()),
            package_index: NameIndex::with_capacity(packages.len()),
            types: Vec::with_capacity(slot_count),
            type_index: NameIndex::with_capacity(slot_count),
            arrays: HashMap::new(),
            void_id: TyId(0),
            null_id: TyId(1),
            prim_ids: [TyId(0); 8],
            object: None,
        };
        for name in packages {
            if table.package_id(name).is_some() {
                return Err(invalid(format!("duplicate package `{name}`")));
            }
            table.intern_package(name);
        }
        Ok(TableLoader { table, slot_count })
    }

    /// Heap bytes held by the table: slots, names, and lookup indexes.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let interfaces: usize = self
            .types
            .iter()
            .map(|t| match t {
                TyData::Decl(d) => d.interfaces.capacity() * 4,
                _ => 0,
            })
            .sum();
        self.types.capacity() * std::mem::size_of::<TyData>()
            + interfaces
            + self.names.approx_bytes()
            + self.packages.capacity() * 4
            + self.package_index.approx_bytes()
            + self.type_index.approx_bytes()
            // A hash-map slot holds the key and value plus one control byte.
            + self.arrays.capacity() * 9
    }
}

fn invalid(detail: String) -> TypeError {
    TypeError::InvalidTable { detail }
}

/// A [`TypeTable`] being rebuilt from persisted slots (see
/// [`TypeTable::loader`]); [`TableLoader::finish`] owns the checks that
/// need the whole arena.
#[derive(Debug)]
pub struct TableLoader {
    table: TypeTable,
    slot_count: usize,
}

impl TableLoader {
    fn check_ty(&self, id: TyId) -> Result<(), TypeError> {
        if id.index() < self.slot_count {
            Ok(())
        } else {
            Err(invalid(format!("type reference {id:?} out of bounds ({} slots)", self.slot_count)))
        }
    }

    /// Appends the next slot.
    ///
    /// # Errors
    ///
    /// [`TypeError::InvalidTable`] on a slot past the promised count, an
    /// out-of-range package or type reference, or a duplicate declared
    /// type or array interning.
    pub fn push(&mut self, slot: RawSlot<'_>) -> Result<(), TypeError> {
        let table = &self.table;
        let id = TyId::from_index(table.types.len());
        if id.index() >= self.slot_count {
            return Err(invalid(format!("more than the {} slots declared", self.slot_count)));
        }
        let data = match slot {
            RawSlot::Void => TyData::Void,
            RawSlot::Null => TyData::Null,
            RawSlot::Prim(p) => TyData::Prim(p),
            RawSlot::Decl { simple, package, kind, superclass, interfaces } => {
                if package.index() >= table.packages.len() {
                    return Err(invalid(format!(
                        "package reference {} out of bounds ({} packages)",
                        package.index(),
                        table.packages.len()
                    )));
                }
                if let Some(sup) = superclass {
                    self.check_ty(sup)?;
                }
                for &i in &interfaces {
                    self.check_ty(i)?;
                }
                let table = &mut self.table;
                let h = hash_name(simple);
                return match table.push_decl(package, simple, h, kind, superclass, interfaces) {
                    Ok(_) => Ok(()),
                    Err(first) => {
                        Err(invalid(format!("duplicate declared type `{}`", table.display(first))))
                    }
                };
            }
            RawSlot::Array { elem } => {
                self.check_ty(elem)?;
                if self.table.arrays.insert(elem, id).is_some() {
                    return Err(invalid("duplicate array interning".to_owned()));
                }
                TyData::Array { elem }
            }
        };
        self.table.types.push(data);
        Ok(())
    }

    /// Finishes the table.
    ///
    /// # Errors
    ///
    /// [`TypeError::InvalidTable`] if fewer slots arrived than promised,
    /// the built-in prefix (void, null, the eight primitives) does not
    /// match a fresh table's, or an array has a `void`/null element.
    pub fn finish(self) -> Result<TypeTable, TypeError> {
        let mut table = self.table;
        let types = &table.types;
        if types.len() != self.slot_count {
            return Err(invalid(format!("{} of {} slots arrived", types.len(), self.slot_count)));
        }
        if types.len() < 10
            || !matches!(types[0], TyData::Void)
            || !matches!(types[1], TyData::Null)
        {
            return Err(invalid("built-in prefix (void, null, primitives) missing".to_owned()));
        }
        for (i, p) in Prim::ALL.into_iter().enumerate() {
            match &types[2 + i] {
                TyData::Prim(q) if *q == p => {
                    table.prim_ids[i] = TyId(u32::try_from(2 + i).expect("small"));
                }
                _ => return Err(invalid("primitive slots out of order".to_owned())),
            }
        }
        for slot in types {
            if let TyData::Array { elem } = slot {
                if matches!(types[elem.index()], TyData::Void | TyData::Null) {
                    return Err(invalid("array of void/null".to_owned()));
                }
            }
        }
        Ok(table)
    }
}

fn ty_ref(id: TyId) -> Json {
    Json::num_u(u64::from(id.0))
}

fn want_ty(v: &Json, arena_len: usize) -> Result<TyId, JsonError> {
    let raw = v.as_u64().ok_or_else(|| decode_err("type id must be a non-negative integer"))?;
    let raw = u32::try_from(raw).map_err(|_| decode_err("type id out of range"))?;
    if (raw as usize) >= arena_len {
        return Err(decode_err(format!("type id {raw} out of bounds ({arena_len} slots)")));
    }
    Ok(TyId(raw))
}

impl TypeTable {
    /// Serializes the table to a JSON value. Distinct simple names are
    /// emitted once as `names` and decl slots reference them by index,
    /// so a simple name shared by many types costs one string in the
    /// document (and one allocation on save) rather than one per slot.
    #[must_use]
    pub fn to_json(&self) -> Json {
        // Canonical first-use order (not raw arena order) keeps the
        // document stable across a decode/re-encode round trip, where
        // the rebuilt arena interns names in a different sequence.
        let mut remap: HashMap<&str, u64> = HashMap::new();
        let mut names: Vec<Json> = Vec::new();
        for slot in &self.types {
            if let TyData::Decl(d) = slot {
                let simple = self.names.get(d.simple);
                if let std::collections::hash_map::Entry::Vacant(e) = remap.entry(simple) {
                    e.insert(names.len() as u64);
                    names.push(Json::Str(simple.to_owned()));
                }
            }
        }
        let types = self
            .types
            .iter()
            .map(|slot| match slot {
                TyData::Void => Json::obj(vec![("k", Json::Str("void".into()))]),
                TyData::Null => Json::obj(vec![("k", Json::Str("null".into()))]),
                TyData::Prim(p) => Json::obj(vec![
                    ("k", Json::Str("prim".into())),
                    ("p", Json::Str(p.keyword().into())),
                ]),
                TyData::Decl(d) => Json::obj(vec![
                    ("k", Json::Str("decl".into())),
                    ("simple", Json::num_u(remap[self.names.get(d.simple)])),
                    ("pkg", Json::num_u(u64::from(d.package.0))),
                    (
                        "kind",
                        Json::Str(
                            match d.kind {
                                TypeKind::Class => "class",
                                TypeKind::Interface => "interface",
                            }
                            .into(),
                        ),
                    ),
                    ("super", d.superclass.map_or(Json::Null, ty_ref)),
                    ("ifaces", Json::Arr(d.interfaces.iter().map(|&i| ty_ref(i)).collect())),
                ]),
                TyData::Array { elem } => Json::obj(vec![
                    ("k", Json::Str("array".into())),
                    ("elem", ty_ref(*elem)),
                ]),
            })
            .collect();
        Json::obj(vec![
            (
                "packages",
                Json::Arr(self.package_names().map(|p| Json::Str(p.to_owned())).collect()),
            ),
            ("names", Json::Arr(names)),
            ("types", Json::Arr(types)),
        ])
    }

    /// Rebuilds a table from [`TypeTable::to_json`] output.
    ///
    /// # Errors
    ///
    /// Fails on missing keys, malformed slots, out-of-range references,
    /// or an arena whose built-in prefix (void, null, the eight
    /// primitives) does not match a fresh table's.
    pub fn from_json(v: &Json) -> Result<TypeTable, JsonError> {
        let packages: Vec<&str> = v
            .want("packages")?
            .as_arr()
            .ok_or_else(|| decode_err("`packages` must be an array"))?
            .iter()
            .map(|p| {
                p.as_str().ok_or_else(|| decode_err("package must be a string"))
            })
            .collect::<Result<_, _>>()?;
        let names: Vec<&str> = v
            .want("names")?
            .as_arr()
            .ok_or_else(|| decode_err("`names` must be an array"))?
            .iter()
            .map(|n| n.as_str().ok_or_else(|| decode_err("name must be a string")))
            .collect::<Result<_, _>>()?;
        let slots = v
            .want("types")?
            .as_arr()
            .ok_or_else(|| decode_err("`types` must be an array"))?;
        let arena_len = slots.len();
        let table_err = |e: TypeError| decode_err(e.to_string());
        let mut loader = TypeTable::loader(&packages, arena_len).map_err(table_err)?;
        for slot in slots {
            let kind = slot.want("k")?.as_str().ok_or_else(|| decode_err("`k` must be a string"))?;
            let raw = match kind {
                "void" => RawSlot::Void,
                "null" => RawSlot::Null,
                "prim" => {
                    let word = slot
                        .want("p")?
                        .as_str()
                        .ok_or_else(|| decode_err("`p` must be a string"))?;
                    RawSlot::Prim(
                        Prim::from_keyword(word)
                            .ok_or_else(|| decode_err(format!("unknown primitive `{word}`")))?,
                    )
                }
                "decl" => {
                    let pkg = slot
                        .want("pkg")?
                        .as_u64()
                        .and_then(|p| u32::try_from(p).ok())
                        .ok_or_else(|| decode_err("bad package reference"))?;
                    let superclass = match slot.want("super")? {
                        Json::Null => None,
                        other => Some(want_ty(other, arena_len)?),
                    };
                    let interfaces = slot
                        .want("ifaces")?
                        .as_arr()
                        .ok_or_else(|| decode_err("`ifaces` must be an array"))?
                        .iter()
                        .map(|i| want_ty(i, arena_len))
                        .collect::<Result<_, _>>()?;
                    let simple_ref = slot
                        .want("simple")?
                        .as_u64()
                        .and_then(|i| usize::try_from(i).ok())
                        .ok_or_else(|| decode_err("`simple` must be a name index"))?;
                    RawSlot::Decl {
                        simple: names
                            .get(simple_ref)
                            .copied()
                            .ok_or_else(|| {
                                decode_err(format!("name index {simple_ref} out of range"))
                            })?,
                        package: PackageId(pkg),
                        kind: match slot.want("kind")?.as_str() {
                            Some("class") => TypeKind::Class,
                            Some("interface") => TypeKind::Interface,
                            _ => return Err(decode_err("`kind` must be class|interface")),
                        },
                        superclass,
                        interfaces,
                    }
                }
                "array" => RawSlot::Array { elem: want_ty(slot.want("elem")?, arena_len)? },
                other => return Err(decode_err(format!("unknown type slot kind `{other}`"))),
            };
            loader.push(raw).map_err(table_err)?;
        }
        loader.finish().map_err(table_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> (TypeTable, TyId) {
        let mut t = TypeTable::new();
        let obj = t.declare("java.lang", "Object", TypeKind::Class).unwrap();
        (t, obj)
    }

    #[test]
    fn builtins_present() {
        let t = TypeTable::new();
        assert_eq!(t.ty(t.void()), Ty::Void);
        assert_eq!(t.ty(t.null()), Ty::Null);
        assert_eq!(t.ty(t.prim(Prim::Int)), Ty::Prim(Prim::Int));
        assert!(t.is_empty());
    }

    #[test]
    fn declare_and_resolve() {
        let (mut t, obj) = base();
        let r = t.declare("java.io", "Reader", TypeKind::Class).unwrap();
        assert_eq!(t.resolve("Reader").unwrap(), r);
        assert_eq!(t.resolve("java.io.Reader").unwrap(), r);
        assert_eq!(t.resolve("java.lang.Object").unwrap(), obj);
        assert!(matches!(t.resolve("Nope"), Err(TypeError::UnknownType { .. })));
    }

    #[test]
    fn duplicate_declaration_rejected() {
        let (mut t, _) = base();
        t.declare("a", "X", TypeKind::Class).unwrap();
        assert!(matches!(
            t.declare("a", "X", TypeKind::Interface),
            Err(TypeError::DuplicateType { .. })
        ));
    }

    #[test]
    fn simple_name_ambiguity() {
        let (mut t, _) = base();
        t.declare("a", "X", TypeKind::Class).unwrap();
        t.declare("b", "X", TypeKind::Class).unwrap();
        match t.resolve("X") {
            Err(TypeError::AmbiguousName { candidates, .. }) => {
                assert_eq!(candidates, vec!["a.X".to_owned(), "b.X".to_owned()]);
            }
            other => panic!("expected ambiguity, got {other:?}"),
        }
        assert_eq!(t.resolve("a.X").unwrap(), t.resolve("a.X").unwrap());
    }

    #[test]
    fn qualified_lookup_edge_spellings() {
        let (mut t, _) = base();
        let top = t.declare("", "Top", TypeKind::Class).unwrap();
        let dotted = t.declare("a", "B.C", TypeKind::Class).unwrap();
        let nested = t.declare("a.b", "D", TypeKind::Class).unwrap();
        assert_eq!(t.resolve("Top").unwrap(), top);
        // An unpackaged type's qualified name has no dot.
        assert!(matches!(t.resolve(".Top"), Err(TypeError::UnknownType { .. })));
        assert_eq!(t.resolve("a.B.C").unwrap(), dotted);
        assert_eq!(t.resolve("a.b.D").unwrap(), nested);
        for unknown in ["a.D", "b.D", "a.b.", "a.b", "B.C", "Top[]", ""] {
            assert!(matches!(t.resolve(unknown), Err(TypeError::UnknownType { .. })), "{unknown}");
        }
        assert!(matches!(
            t.declare("a.b", "D", TypeKind::Interface),
            Err(TypeError::DuplicateType { qualified_name }) if qualified_name == "a.b.D"
        ));
    }

    #[test]
    fn subtyping_through_classes_and_interfaces() {
        let (mut t, obj) = base();
        let readable = t.declare("java.lang", "Readable", TypeKind::Interface).unwrap();
        let reader = t.declare("java.io", "Reader", TypeKind::Class).unwrap();
        let buffered = t.declare("java.io", "BufferedReader", TypeKind::Class).unwrap();
        t.add_interface(reader, readable).unwrap();
        t.set_superclass(buffered, reader).unwrap();

        assert!(t.is_subtype(buffered, reader));
        assert!(t.is_subtype(buffered, readable));
        assert!(t.is_subtype(buffered, obj));
        assert!(t.is_subtype(readable, obj));
        assert!(!t.is_subtype(reader, buffered));
        assert!(!t.is_subtype(obj, reader));
    }

    #[test]
    fn implicit_object_supertype() {
        let (mut t, obj) = base();
        let lone = t.declare("x", "Lone", TypeKind::Class).unwrap();
        assert_eq!(t.direct_supertypes(lone), vec![obj]);
        assert!(t.is_subtype(lone, obj));
        assert!(t.direct_supertypes(obj).is_empty());
    }

    #[test]
    fn null_subtype_of_references_only() {
        let (mut t, obj) = base();
        let c = t.declare("x", "C", TypeKind::Class).unwrap();
        let arr = t.array_of(c);
        assert!(t.is_subtype(t.null(), obj));
        assert!(t.is_subtype(t.null(), c));
        assert!(t.is_subtype(t.null(), arr));
        assert!(!t.is_subtype(t.null(), t.prim(Prim::Int)));
        assert!(!t.is_subtype(t.null(), t.void()));
    }

    #[test]
    fn array_covariance_when_interned() {
        let (mut t, obj) = base();
        let sup = t.declare("x", "Sup", TypeKind::Class).unwrap();
        let sub = t.declare("x", "Sub", TypeKind::Class).unwrap();
        t.set_superclass(sub, sup).unwrap();
        let sub_arr = t.array_of(sub);
        let sup_arr = t.array_of(sup);
        assert!(t.is_subtype(sub_arr, sup_arr));
        assert!(t.is_subtype(sub_arr, obj));
        assert!(!t.is_subtype(sup_arr, sub_arr));
        // int[] is not covariant with anything but itself (and Object).
        let int_arr = t.array_of(t.prim(Prim::Int));
        assert!(t.is_subtype(int_arr, obj));
        assert!(!t.is_subtype(int_arr, sup_arr));
    }

    #[test]
    fn array_interning_is_idempotent() {
        let (mut t, _) = base();
        let c = t.declare("x", "C", TypeKind::Class).unwrap();
        assert_eq!(t.array_of(c), t.array_of(c));
    }

    #[test]
    fn cycles_rejected() {
        let (mut t, _) = base();
        let a = t.declare("x", "A", TypeKind::Class).unwrap();
        let b = t.declare("x", "B", TypeKind::Class).unwrap();
        t.set_superclass(b, a).unwrap();
        assert!(matches!(
            t.set_superclass(a, b),
            Err(TypeError::CyclicHierarchy { .. })
        ));
        let i = t.declare("x", "I", TypeKind::Interface).unwrap();
        let j = t.declare("x", "J", TypeKind::Interface).unwrap();
        t.add_interface(i, j).unwrap();
        assert!(matches!(t.add_interface(j, i), Err(TypeError::CyclicHierarchy { .. })));
        assert!(matches!(t.add_interface(i, i), Err(TypeError::CyclicHierarchy { .. })));
    }

    #[test]
    fn kind_rules_enforced() {
        let (mut t, _) = base();
        let c = t.declare("x", "C", TypeKind::Class).unwrap();
        let i = t.declare("x", "I", TypeKind::Interface).unwrap();
        assert!(matches!(t.set_superclass(c, i), Err(TypeError::KindMismatch { .. })));
        assert!(matches!(t.set_superclass(i, c), Err(TypeError::KindMismatch { .. })));
        assert!(matches!(t.add_interface(c, c), Err(TypeError::KindMismatch { .. })));
    }

    #[test]
    fn second_superclass_rejected() {
        let (mut t, _) = base();
        let a = t.declare("x", "A", TypeKind::Class).unwrap();
        let b = t.declare("x", "B", TypeKind::Class).unwrap();
        let c = t.declare("x", "C", TypeKind::Class).unwrap();
        t.set_superclass(c, a).unwrap();
        assert!(matches!(
            t.set_superclass(c, b),
            Err(TypeError::SuperclassAlreadySet { .. })
        ));
    }

    #[test]
    fn depth_counts_longest_chain() {
        let (mut t, obj) = base();
        let a = t.declare("x", "A", TypeKind::Class).unwrap();
        let b = t.declare("x", "B", TypeKind::Class).unwrap();
        let i = t.declare("x", "I", TypeKind::Interface).unwrap();
        let j = t.declare("x", "J", TypeKind::Interface).unwrap();
        t.set_superclass(a, b).unwrap(); // a <: b <: Object
        t.add_interface(j, i).unwrap(); // j <: i <: Object
        t.add_interface(a, j).unwrap(); // a also <: j
        assert_eq!(t.depth(obj), 0);
        assert_eq!(t.depth(b), 1);
        assert_eq!(t.depth(i), 1);
        assert_eq!(t.depth(j), 2);
        // a's longest chain: a -> j -> i -> Object = 3.
        assert_eq!(t.depth(a), 3);
    }

    #[test]
    fn display_forms() {
        let (mut t, _) = base();
        let c = t.declare("java.io", "Reader", TypeKind::Class).unwrap();
        let arr = t.array_of(c);
        assert_eq!(t.display(c), "java.io.Reader");
        assert_eq!(t.display_simple(c), "Reader");
        assert_eq!(t.display(arr), "java.io.Reader[]");
        assert_eq!(t.display_simple(arr), "Reader[]");
        assert_eq!(t.display(t.void()), "void");
        assert_eq!(t.display(t.prim(Prim::Long)), "long");
        let unpackaged = t.declare("", "Top", TypeKind::Class).unwrap();
        assert_eq!(t.display(unpackaged), "Top");
    }

    #[test]
    fn strict_subtypes_scan() {
        let (mut t, obj) = base();
        let a = t.declare("x", "A", TypeKind::Class).unwrap();
        let b = t.declare("x", "B", TypeKind::Class).unwrap();
        t.set_superclass(b, a).unwrap();
        let subs = t.strict_subtypes(a);
        assert_eq!(subs, vec![b]);
        let all = t.strict_subtypes(obj);
        assert!(all.contains(&a) && all.contains(&b));
        assert!(!all.contains(&obj));
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let (mut t, obj) = base();
        let readable = t.declare("java.lang", "Readable", TypeKind::Interface).unwrap();
        let reader = t.declare("java.io", "Reader", TypeKind::Class).unwrap();
        let buffered = t.declare("java.io", "BufferedReader", TypeKind::Class).unwrap();
        t.add_interface(reader, readable).unwrap();
        t.set_superclass(buffered, reader).unwrap();
        let arr = t.array_of(buffered);
        let unpackaged = t.declare("", "Top", TypeKind::Class).unwrap();

        let doc = t.to_json();
        let back = TypeTable::from_json(&doc).unwrap();
        assert_eq!(back.len(), t.len());
        assert_eq!(back.object(), Some(obj));
        assert_eq!(back.resolve("java.io.BufferedReader").unwrap(), buffered);
        assert_eq!(back.resolve("Top").unwrap(), unpackaged);
        assert!(back.is_subtype(buffered, readable));
        assert_eq!(back.ty(arr), Ty::Array(buffered));
        let mut back2 = back.clone();
        assert_eq!(back2.array_of(buffered), arr, "array interning survives");
        assert_eq!(back.display(arr), "java.io.BufferedReader[]");
        assert_eq!(back.prim(Prim::Double), t.prim(Prim::Double));
        // Reserialization is stable.
        assert_eq!(back.to_json(), doc);
    }

    #[test]
    fn json_rejects_corrupt_tables() {
        let (t, _) = base();
        let doc = t.to_json();
        // Truncate the built-in prefix.
        let Json::Obj(mut pairs) = doc.clone() else { unreachable!() };
        for (k, v) in &mut pairs {
            if k == "types" {
                let Json::Arr(items) = v else { unreachable!() };
                items.truncate(3);
            }
        }
        assert!(TypeTable::from_json(&Json::Obj(pairs)).is_err());
        // Missing keys entirely.
        assert!(TypeTable::from_json(&Json::obj(vec![])).is_err());
        // Dangling type reference.
        let text = doc.to_text().replace("\"super\":null", "\"super\":9999");
        assert!(TypeTable::from_json(&Json::parse(&text).unwrap()).is_err());
    }

    #[test]
    fn decl_view_and_packages() {
        let (mut t, _) = base();
        let c = t.declare("java.io", "Reader", TypeKind::Class).unwrap();
        let pkg = {
            let d = t.decl(c).unwrap();
            assert_eq!(d.simple_name, "Reader");
            assert_eq!(d.package_name, "java.io");
            assert_eq!(d.qualified_name(), "java.io.Reader");
            assert_eq!(d.kind, TypeKind::Class);
            d.package
        };
        assert_eq!(t.package_name(pkg), "java.io");
        assert!(t.decl(t.void()).is_none());
        assert_eq!(t.package_of(c), Some(pkg));
        let arr = t.array_of(c);
        assert_eq!(t.package_of(arr), Some(pkg));
        assert_eq!(t.package_of(t.void()), None);
    }
}
