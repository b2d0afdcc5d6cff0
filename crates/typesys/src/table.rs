//! The type table: fixed-width type records plus hierarchy queries.
//!
//! Every type is one [`TypeRecord`] of six `u32` words, and every declared
//! type's interfaces are a range of one flat [`TyId`] array; names are ids
//! into a [`NameArena`]. A built table owns these arrays; a table loaded
//! from a `.pspk` snapshot borrows them from the snapshot buffer and
//! copies them only if it is mutated ([`Slab::make_mut`]). Either way the
//! same accessors read them.
//!
//! | word | void / null | primitive   | class / interface | array        |
//! |------|-------------|-------------|-------------------|--------------|
//! | 0    | kind 0 / 1  | kind 2      | kind 3 / 4        | kind 5       |
//! | 1    | 0           | `Prim` index| simple-name id    | element type |
//! | 2    | 0           | 0           | package id        | 0            |
//! | 3    | `NONE`      | `NONE`      | superclass or `NONE` | `NONE`    |
//! | 4    | 0           | 0           | first interface   | 0            |
//! | 5    | 0           | 0           | interface count   | 0            |

use std::collections::HashMap;

use prospector_obs::json::Json;

use crate::names::{hash_name, NameArena, NameIndex};
use crate::{Prim, Slab, Ty, TyId, TypeError, TypeKind};

/// Identifier of an interned package name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackageId(u32);

impl PackageId {
    /// Raw index into the owning table's package list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Words in one type record.
pub const TYPE_RECORD_WORDS: usize = 6;

/// One type's fixed-width record; the module docs lay out its words.
pub type TypeRecord = [u32; TYPE_RECORD_WORDS];

const KIND: usize = 0;
/// Simple-name id, `Prim` index, or element type, by kind.
const NAME: usize = 1;
const PACKAGE: usize = 2;
const SUPER: usize = 3;
const IFACES_START: usize = 4;
const IFACES_LEN: usize = 5;

const K_VOID: u32 = 0;
const K_NULL: u32 = 1;
const K_PRIM: u32 = 2;
const K_CLASS: u32 = 3;
const K_INTERFACE: u32 = 4;
const K_ARRAY: u32 = 5;

/// An absent type reference (no superclass).
const NONE: u32 = u32::MAX;

/// Built-ins at the front of every table: void, null, the primitives.
const BUILTINS: usize = 2 + Prim::ALL.len();

fn record(kind: u32, name: u32) -> TypeRecord {
    [kind, name, 0, NONE, 0, 0]
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

/// A table's arrays in the form [`TypeTable::from_slabs`] takes them,
/// with every name re-issued by the caller's string pool: what a
/// snapshot writer stores.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TypeArrays {
    /// Name id of each package.
    pub packages: Vec<u32>,
    /// One record per type, in id order.
    pub records: Vec<TypeRecord>,
    /// Every declared type's interfaces, type after type.
    pub interfaces: Vec<TyId>,
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
    /// Package and simple names (a loaded table's: the whole string pool).
    names: NameArena,
    /// Name id of each package.
    packages: Slab<u32>,
    /// Package name → package id.
    package_index: NameIndex,
    /// One record per type, in id order.
    types: Slab<TypeRecord>,
    /// Interfaces of every declared type; each record names its range.
    interfaces: Slab<TyId>,
    /// Simple name → the declared types carrying it. Serves simple and
    /// qualified lookups and the duplicate-declaration check; built as
    /// types are declared or loaded, never on first use.
    type_index: NameIndex,
    arrays: HashMap<TyId, TyId>,
    object: Option<TyId>,
}

impl TypeTable {
    /// Creates a table containing only `void`, the null type, and the
    /// primitives.
    #[must_use]
    pub fn new() -> Self {
        let mut types = Vec::with_capacity(16);
        types.push(record(K_VOID, 0));
        types.push(record(K_NULL, 0));
        for i in 0..Prim::ALL.len() {
            types.push(record(K_PRIM, u32::try_from(i).expect("8 primitives")));
        }
        TypeTable {
            names: NameArena::default(),
            packages: Slab::default(),
            package_index: NameIndex::default(),
            types: Slab::from_vec(types),
            interfaces: Slab::default(),
            type_index: NameIndex::default(),
            arrays: HashMap::new(),
            object: None,
        }
    }

    fn rec(&self, id: TyId) -> &TypeRecord {
        &self.types[id.index()]
    }

    /// The id of an interned package.
    fn package_id(&self, name: &[u8]) -> Option<PackageId> {
        self.package_index
            .chain(hash_name(name))
            .map(|p| PackageId(p as u32))
            .find(|&p| self.names.bytes(self.packages[p.index()]) == name)
    }

    /// The declared types whose simple name is `simple` (hashing to `h`),
    /// newest first. Only declared types are filed in `type_index`.
    fn homonyms<'a>(&'a self, simple: &'a [u8], h: u64) -> impl Iterator<Item = TyId> + 'a {
        self.type_index
            .chain(h)
            .map(TyId::from_index)
            .filter(move |&id| self.names.bytes(self.rec(id)[NAME]) == simple)
    }

    /// The declared type `package.simple` (`simple` hashing to `h`).
    fn find_decl(&self, package: PackageId, simple: &[u8], h: u64) -> Option<TyId> {
        self.homonyms(simple, h).find(|&id| self.rec(id)[PACKAGE] == package.0)
    }

    fn next_id(&self) -> TyId {
        TyId(u32::try_from(self.types.len()).expect("type arena overflow"))
    }

    /// The `void` pseudo-type.
    #[must_use]
    pub fn void(&self) -> TyId {
        TyId(0)
    }

    /// The null type (static type of the `null` literal).
    #[must_use]
    pub fn null(&self) -> TyId {
        TyId(1)
    }

    /// The id of a primitive type.
    #[must_use]
    pub fn prim(&self, p: Prim) -> TyId {
        TyId::from_index(2 + Prim::ALL.iter().position(|q| *q == p).expect("all prims listed"))
    }

    /// `java.lang.Object`, if it has been declared.
    #[must_use]
    pub fn object(&self) -> Option<TyId> {
        self.object
    }

    /// Interns a package name, returning its id.
    pub fn intern_package(&mut self, name: &str) -> PackageId {
        if let Some(id) = self.package_id(name.as_bytes()) {
            return id;
        }
        let id = PackageId(u32::try_from(self.packages.len()).expect("package arena overflow"));
        let sym = self.names.push(name);
        self.packages.make_mut().push(sym);
        self.package_index.insert(hash_name(name.as_bytes()), id.index());
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
        let h = hash_name(simple.as_bytes());
        if let Some(existing) = self.find_decl(package, simple.as_bytes(), h) {
            return Err(TypeError::DuplicateType { qualified_name: self.display(existing) });
        }
        let id = self.next_id();
        let kind = match kind {
            TypeKind::Class => K_CLASS,
            TypeKind::Interface => K_INTERFACE,
        };
        let mut rec = record(kind, self.names.push(simple));
        rec[PACKAGE] = package.0;
        self.types.make_mut().push(rec);
        self.type_index.insert(h, id.index());
        if self.object.is_none() && simple == "Object" && self.package_name(package) == "java.lang" {
            self.object = Some(id);
        }
        Ok(id)
    }

    /// Interns (or returns the existing) array type with the given element.
    ///
    /// # Panics
    ///
    /// Panics if `elem` is `void` or the null type, which have no array
    /// types in Java.
    pub fn array_of(&mut self, elem: TyId) -> TyId {
        assert!(
            !matches!(self.rec(elem)[KIND], K_VOID | K_NULL),
            "no array of void/null"
        );
        if let Some(&arr) = self.arrays.get(&elem) {
            return arr;
        }
        let id = self.next_id();
        self.types.make_mut().push(record(K_ARRAY, elem.0));
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
        if self.rec(class)[SUPER] != NONE {
            return Err(TypeError::SuperclassAlreadySet { class });
        }
        self.types.make_mut()[class.index()][SUPER] = superclass.0;
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
        if self.interfaces_of(self.rec(sub)).contains(&iface) {
            return Ok(());
        }
        // A type's interfaces must stay one range: unless they already
        // end the array (the order builders add them in), move them to
        // the end first. The old range is left unused.
        let rec = *self.rec(sub);
        let (mut start, len) = (rec[IFACES_START] as usize, rec[IFACES_LEN] as usize);
        let ifaces = self.interfaces.make_mut();
        if start + len != ifaces.len() {
            let moved = ifaces.len();
            ifaces.extend_from_within(start..start + len);
            start = moved;
        }
        ifaces.push(iface);
        let rec = &mut self.types.make_mut()[sub.index()];
        rec[IFACES_START] = u32::try_from(start).expect("interface arena fits u32");
        rec[IFACES_LEN] += 1;
        Ok(())
    }

    fn interfaces_of(&self, rec: &TypeRecord) -> &[TyId] {
        let start = rec[IFACES_START] as usize;
        &self.interfaces[start..start + rec[IFACES_LEN] as usize]
    }

    fn superclass_of(rec: &TypeRecord) -> Option<TyId> {
        (rec[SUPER] != NONE).then_some(TyId(rec[SUPER]))
    }

    /// The structural shape of a type.
    #[must_use]
    pub fn ty(&self, id: TyId) -> Ty {
        let rec = self.rec(id);
        match rec[KIND] {
            K_VOID => Ty::Void,
            K_NULL => Ty::Null,
            K_PRIM => Ty::Prim(Prim::ALL[rec[NAME] as usize]),
            K_ARRAY => Ty::Array(TyId(rec[NAME])),
            _ => Ty::Decl,
        }
    }

    /// `Some(kind)` if `id` is a declared class or interface.
    #[must_use]
    pub fn kind(&self, id: TyId) -> Option<TypeKind> {
        match self.rec(id)[KIND] {
            K_CLASS => Some(TypeKind::Class),
            K_INTERFACE => Some(TypeKind::Interface),
            _ => None,
        }
    }

    /// Whether `id` is a reference type (declared or array or null).
    #[must_use]
    pub fn is_reference(&self, id: TyId) -> bool {
        matches!(self.rec(id)[KIND], K_CLASS | K_INTERFACE | K_ARRAY | K_NULL)
    }

    /// Read-only view of a declared type.
    #[must_use]
    pub fn decl(&self, id: TyId) -> Option<TypeDecl<'_>> {
        let kind = self.kind(id)?;
        let rec = self.rec(id);
        let package = PackageId(rec[PACKAGE]);
        Some(TypeDecl {
            id,
            simple_name: self.names.get(rec[NAME]),
            package_name: self.package_name(package),
            package,
            kind,
            superclass: Self::superclass_of(rec),
            interfaces: self.interfaces_of(rec),
        })
    }

    /// The package a type belongs to: its own for declared types, the
    /// element's for arrays, `None` for `void`/null/primitives.
    #[must_use]
    pub fn package_of(&self, id: TyId) -> Option<PackageId> {
        let rec = self.rec(id);
        match rec[KIND] {
            K_CLASS | K_INTERFACE => Some(PackageId(rec[PACKAGE])),
            K_ARRAY => self.package_of(TyId(rec[NAME])),
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
        self.types.len() <= BUILTINS
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
        let h = hash_name(name.as_bytes());
        let mut found = self.homonyms(name.as_bytes(), h);
        match (found.next(), found.next()) {
            (None, _) => Err(TypeError::UnknownType { name: name.to_owned() }),
            (Some(id), None) => Ok(id),
            (Some(_), Some(_)) => {
                let mut ids: Vec<TyId> = self.homonyms(name.as_bytes(), h).collect();
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
            let (package, simple) = (&name[..dot], &name.as_bytes()[dot + 1..]);
            if package.is_empty() {
                return None;
            }
            self.find_decl(self.package_id(package.as_bytes())?, simple, hash_name(simple))
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
        let rec = self.rec(id);
        match rec[KIND] {
            K_CLASS | K_INTERFACE => {
                if let Some(sup) = Self::superclass_of(rec) {
                    out.push(sup);
                } else if self.object != Some(id) {
                    if let Some(obj) = self.object {
                        out.push(obj);
                    }
                }
                out.extend_from_slice(self.interfaces_of(rec));
            }
            K_ARRAY => {
                if let Some(obj) = self.object {
                    out.push(obj);
                }
                let elem = TyId(rec[NAME]);
                if matches!(self.rec(elem)[KIND], K_CLASS | K_INTERFACE | K_ARRAY) {
                    for sup in self.direct_supertypes(elem) {
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
        if sub == self.null() {
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
            .filter(|&s| s != id && self.is_reference(s) && s != self.null() && self.is_subtype(s, id))
            .collect()
    }

    /// Renders a type id as Java-ish source text (`java.io.Reader`,
    /// `int`, `String[]`, `void`).
    #[must_use]
    pub fn display(&self, id: TyId) -> String {
        match self.ty(id) {
            Ty::Void => "void".to_owned(),
            Ty::Null => "<null>".to_owned(),
            Ty::Prim(p) => p.keyword().to_owned(),
            Ty::Decl => {
                let rec = self.rec(id);
                let pkg = self.package_name(PackageId(rec[PACKAGE]));
                let simple = self.names.get(rec[NAME]);
                if pkg.is_empty() {
                    simple.to_owned()
                } else {
                    format!("{pkg}.{simple}")
                }
            }
            Ty::Array(elem) => format!("{}[]", self.display(elem)),
        }
    }

    /// Renders a type id using simple names only (`Reader`, `String[]`).
    #[must_use]
    pub fn display_simple(&self, id: TyId) -> String {
        match self.ty(id) {
            Ty::Decl => self.names.get(self.rec(id)[NAME]).to_owned(),
            Ty::Array(elem) => format!("{}[]", self.display_simple(elem)),
            _ => self.display(id),
        }
    }

    /// The interned package names, in id order.
    pub fn package_names(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.packages.iter().map(|&name| self.names.get(name))
    }

    /// Whether the record, interface, package and name arrays all borrow
    /// from a snapshot buffer (a loaded table no mutation has copied).
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        self.types.is_borrowed()
            && self.interfaces.is_borrowed()
            && self.packages.is_borrowed()
            && self.names.is_borrowed()
    }

    /// Bytes held by the table: its arrays (owned or borrowed), names,
    /// and lookup indexes.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(self.types.as_slice())
            + std::mem::size_of_val(self.interfaces.as_slice())
            + std::mem::size_of_val(self.packages.as_slice())
            + self.names.approx_bytes()
            + self.package_index.approx_bytes()
            + self.type_index.approx_bytes()
            // A hash-map slot holds the key and value plus one control byte.
            + self.arrays.capacity() * 9
    }
}

impl Default for TypeTable {
    fn default() -> Self {
        TypeTable::new()
    }
}

// --- Persistence --------------------------------------------------------
//
// A `.pspk` snapshot stores the table's arrays in the record layout above,
// with names as ids into its string pool; `from_slabs` takes them back
// (borrowed from the snapshot buffer) and builds only the derived
// indexes: names, packages, arrays, the `Object` root.

fn invalid(detail: String) -> TypeError {
    TypeError::InvalidTable { detail }
}

impl TypeTable {
    /// The table's arrays with every name re-issued through `intern` (a
    /// snapshot writer's string pool), and each declared type's
    /// interfaces laid out in id order.
    pub fn to_arrays(&self, mut intern: impl FnMut(&str) -> u32) -> TypeArrays {
        let packages = self.package_names().map(&mut intern).collect();
        let mut interfaces = Vec::new();
        let records = self
            .types
            .iter()
            .map(|rec| {
                let mut rec = *rec;
                if matches!(rec[KIND], K_CLASS | K_INTERFACE) {
                    let own = self.interfaces_of(&rec);
                    rec[NAME] = intern(self.names.get(rec[NAME]));
                    rec[IFACES_START] = u32::try_from(interfaces.len()).expect("fits u32");
                    interfaces.extend_from_slice(own);
                }
                rec
            })
            .collect();
        TypeArrays { packages, records, interfaces }
    }

    /// Rebuilds a table from stored arrays — the zero-copy snapshot load:
    /// `names` is the string pool the name ids point into, and the arrays
    /// stay wherever they live (borrowed from a snapshot buffer, or
    /// owned). Checks everything a built table guarantees, then builds
    /// the name, package and array indexes.
    ///
    /// # Errors
    ///
    /// [`TypeError::InvalidTable`] on a built-in prefix (void, null, the
    /// eight primitives) that differs from a fresh table's, an unknown
    /// kind tag, an out-of-range name, package, type or interface
    /// reference, an array of `void`/null, or a repeated package, declared
    /// type, or array interning (names compared by text).
    pub fn from_slabs(
        names: NameArena,
        packages: Slab<u32>,
        types: Slab<TypeRecord>,
        interfaces: Slab<TyId>,
    ) -> Result<TypeTable, TypeError> {
        let fresh = TypeTable::new();
        if types.get(..BUILTINS) != Some(&fresh.types[..]) {
            return Err(invalid("built-in prefix (void, null, primitives) missing".to_owned()));
        }
        let (type_count, name_count) = (types.len(), names.len());
        if let Some(bad) = interfaces.iter().find(|t| t.index() >= type_count) {
            return Err(invalid(format!("interface {bad:?} out of range ({type_count} types)")));
        }
        let mut table = TypeTable {
            names,
            package_index: NameIndex::with_capacity(packages.len()),
            packages,
            type_index: NameIndex::with_capacity(type_count),
            types,
            interfaces,
            ..fresh
        };
        let name_of = |id: u32, what: &str| {
            if (id as usize) < name_count {
                Ok(id)
            } else {
                Err(invalid(format!("{what} name {id} out of range ({name_count} names)")))
            }
        };
        for p in 0..table.packages.len() {
            let name = table.names.bytes(name_of(table.packages[p], "package")?);
            if table.package_id(name).is_some() {
                let name = String::from_utf8_lossy(name);
                return Err(invalid(format!("duplicate package `{name}`")));
            }
            table.package_index.insert(hash_name(name), p);
        }
        let ty = |raw: u32| {
            if (raw as usize) < type_count {
                Ok(TyId(raw))
            } else {
                Err(invalid(format!("type reference {raw} out of range ({type_count} types)")))
            }
        };
        for i in BUILTINS..type_count {
            let rec = table.types[i];
            match rec[KIND] {
                K_CLASS | K_INTERFACE => {
                    let simple = table.names.bytes(name_of(rec[NAME], "type")?);
                    if rec[PACKAGE] as usize >= table.packages.len() {
                        return Err(invalid(format!(
                            "package reference {} out of range ({} packages)",
                            rec[PACKAGE],
                            table.packages.len()
                        )));
                    }
                    if rec[SUPER] != NONE {
                        ty(rec[SUPER])?;
                    }
                    let (start, len) = (rec[IFACES_START] as usize, rec[IFACES_LEN] as usize);
                    if start.checked_add(len).is_none_or(|end| end > table.interfaces.len()) {
                        return Err(invalid(format!("type {i}'s interfaces run past the array")));
                    }
                    // Filing first and then walking the older entries
                    // under the same hash costs one probe, not two.
                    table.type_index.insert(hash_name(simple), i);
                    let same = |&t: &usize| {
                        let other = &table.types[t];
                        other[PACKAGE] == rec[PACKAGE] && table.names.bytes(other[NAME]) == simple
                    };
                    if let Some(first) = table.type_index.older(i).find(same) {
                        let first = table.display(TyId::from_index(first));
                        return Err(invalid(format!("duplicate declared type `{first}`")));
                    }
                }
                K_ARRAY => {
                    let elem = ty(rec[NAME])?;
                    if matches!(table.rec(elem)[KIND], K_VOID | K_NULL) {
                        return Err(invalid("array of void/null".to_owned()));
                    }
                    if table.arrays.insert(elem, TyId::from_index(i)).is_some() {
                        return Err(invalid("duplicate array interning".to_owned()));
                    }
                }
                other => return Err(invalid(format!("type {i} has kind tag {other}"))),
            }
        }
        table.object = table.resolve_qualified("java.lang.Object");
        Ok(table)
    }
}

fn ty_ref(id: TyId) -> Json {
    Json::num_u(u64::from(id.0))
}

impl TypeTable {
    /// Renders the table as a JSON debug value. Distinct simple names
    /// are emitted once as `names` and decl slots reference them by
    /// index, so a simple name shared by many types costs one string in
    /// the document rather than one per slot.
    #[must_use]
    pub fn to_json(&self) -> Json {
        // Canonical first-use order (not raw arena order) makes the
        // document of a snapshot-loaded table equal its source's, whose
        // names sit at different ids.
        let mut remap: HashMap<&str, u64> = HashMap::new();
        let mut names: Vec<Json> = Vec::new();
        for d in self.decls() {
            if let std::collections::hash_map::Entry::Vacant(e) = remap.entry(d.simple_name) {
                e.insert(names.len() as u64);
                names.push(Json::Str(d.simple_name.to_owned()));
            }
        }
        let types = self
            .ids()
            .map(|id| match (self.ty(id), self.decl(id)) {
                (Ty::Void, _) => Json::obj(vec![("k", Json::Str("void".into()))]),
                (Ty::Null, _) => Json::obj(vec![("k", Json::Str("null".into()))]),
                (Ty::Prim(p), _) => Json::obj(vec![
                    ("k", Json::Str("prim".into())),
                    ("p", Json::Str(p.keyword().into())),
                ]),
                (Ty::Array(elem), _) => Json::obj(vec![
                    ("k", Json::Str("array".into())),
                    ("elem", ty_ref(elem)),
                ]),
                (Ty::Decl, d) => {
                    let d = d.expect("a declared type has a decl view");
                    Json::obj(vec![
                        ("k", Json::Str("decl".into())),
                        ("simple", Json::num_u(remap[d.simple_name])),
                        ("pkg", Json::num_u(u64::from(d.package.0))),
                        ("kind", Json::Str(d.kind.to_string())),
                        ("super", d.superclass.map_or(Json::Null, ty_ref)),
                        ("ifaces", Json::Arr(d.interfaces.iter().map(|&i| ty_ref(i)).collect())),
                    ])
                }
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

    /// `t` stored and loaded back, after `edit` tampers with its arrays.
    fn reload(
        t: &TypeTable,
        edit: impl FnOnce(&mut NameArena, &mut TypeArrays),
    ) -> Result<TypeTable, TypeError> {
        let mut names = NameArena::default();
        let mut a = t.to_arrays(|s| names.push(s));
        edit(&mut names, &mut a);
        TypeTable::from_slabs(
            names,
            Slab::from_vec(a.packages),
            Slab::from_vec(a.records),
            Slab::from_vec(a.interfaces),
        )
    }

    #[test]
    fn stored_arrays_load_back_equal() {
        let (mut t, obj) = base();
        let i = t.declare("x", "I", TypeKind::Interface).unwrap();
        let j = t.declare("x", "J", TypeKind::Interface).unwrap();
        let c = t.declare("y", "C", TypeKind::Class).unwrap();
        t.add_interface(c, i).unwrap();
        t.add_interface(j, i).unwrap();
        t.add_interface(c, j).unwrap(); // moves c's range past j's
        t.array_of(c);
        let mut loaded = reload(&t, |_, _| {}).unwrap();
        assert!(loaded.to_json() == t.to_json());
        assert_eq!(loaded.decl(c).unwrap().interfaces, [i, j]);
        assert_eq!(loaded.object(), Some(obj));
        assert_eq!(loaded.resolve("y.C").unwrap(), c);
        assert_eq!(loaded.array_of(c), t.array_of(c), "arrays stay interned");
    }

    #[test]
    fn stored_arrays_are_checked() {
        let (mut t, _) = base();
        let a = t.declare("x", "A", TypeKind::Class).unwrap().index();
        t.declare("x", "B", TypeKind::Class).unwrap();
        let i = t.declare("x", "I", TypeKind::Interface).unwrap();
        t.add_interface(TyId::from_index(a), i).unwrap();
        let void_arr = t.len();
        t.array_of(t.prim(Prim::Int));
        type Edit = fn(&mut NameArena, &mut TypeArrays);
        let edits: [(&str, Edit); 9] = [
            ("kind tag", |_, a| a.records[11][KIND] = 9),
            ("name id", |n, a| a.records[11][NAME] = n.len() as u32),
            ("package id", |_, a| a.records[11][PACKAGE] = 2),
            ("superclass", |_, a| a.records[11][SUPER] = 99),
            ("interface", |_, a| a.interfaces[0] = TyId(99)),
            ("interface range", |_, a| a.records[11][IFACES_LEN] = 2),
            ("array of void", |_, a| a.records.last_mut().unwrap()[NAME] = 0),
            ("prefix", |_, a| a.records[3][NAME] = 0),
            ("duplicate by text", |n, a| a.records[12][NAME] = n.push("A")),
        ];
        assert_eq!((a, void_arr), (11, 14));
        for (why, edit) in edits {
            assert!(matches!(reload(&t, edit), Err(TypeError::InvalidTable { .. })), "{why}");
        }
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
