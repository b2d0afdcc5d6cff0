//! The in-memory API model: types plus members.
//!
//! Members live in flat per-table arrays: one fixed-size record per
//! method or field, every parameter type in one `Vec<TyId>`, every
//! member and parameter name in one [`NameArena`], and a dense
//! per-type index. Building or loading an API therefore allocates per
//! table, not per member, and [`Api::method`]/[`Api::field`] hand out
//! borrowed views ([`MethodView`], [`FieldView`]) over those arrays.

use std::ops::Range;

use jungloid_typesys::{NameArena, Sym, Ty, TyId, TypeKind, TypeTable};
use prospector_obs::json::Json;

use crate::ApiError;

/// Member visibility. Prospector synthesizes from public members only
/// (§7: a Table 1 query fails because its solution needs a protected
/// method); [`Visibility::Protected`] exists so that failure mode can be
/// reproduced and the paper's proposed fix (`include_protected`) tested.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// `public`
    Public,
    /// `protected`
    Protected,
    /// `private` (and package-private, which we fold in)
    Private,
}

/// Identifier of a method (or constructor) in an [`Api`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MethodId(u32);

impl MethodId {
    /// Raw index into the method arena.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from an index previously obtained via
    /// [`MethodId::index`] against the same [`Api`]. The caller is
    /// responsible for range-checking `index` against
    /// [`Api::method_count`] (the snapshot loaders do).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        MethodId(u32::try_from(index).expect("method arena exceeds u32 range"))
    }
}

impl std::fmt::Debug for MethodId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m#{}", self.0)
    }
}

/// Identifier of a field in an [`Api`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FieldId(u32);

impl FieldId {
    /// Raw index into the field arena.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from an index previously obtained via
    /// [`FieldId::index`] against the same [`Api`]. The caller is
    /// responsible for range-checking `index` against
    /// [`Api::field_count`] (the snapshot loaders do).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        FieldId(u32::try_from(index).expect("field arena exceeds u32 range"))
    }
}

impl std::fmt::Debug for FieldId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f#{}", self.0)
    }
}

/// A method or constructor signature: the owned input to
/// [`Api::add_method`]. Reads go through [`MethodView`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MethodDef {
    /// Method name; `"<init>"` for constructors.
    pub name: String,
    /// Declaring class or interface.
    pub declaring: TyId,
    /// Parameter types in order.
    pub params: Vec<TyId>,
    /// Declared parameter names, where the stub provided them. Used only
    /// to name free variables in generated code; `None` entries get
    /// type-derived names. Empty means "no names known" (any arity).
    pub param_names: Vec<Option<String>>,
    /// Return type (`void` allowed). For constructors this is the declaring
    /// class.
    pub ret: TyId,
    /// Visibility.
    pub visibility: Visibility,
    /// Whether the method is `static`.
    pub is_static: bool,
    /// Whether this is a constructor.
    pub is_constructor: bool,
}

/// A field signature: the owned input to [`Api::add_field`]. Reads go
/// through [`FieldView`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name.
    pub name: String,
    /// Declaring class or interface.
    pub declaring: TyId,
    /// Field type.
    pub ty: TyId,
    /// Visibility.
    pub visibility: Visibility,
    /// Whether the field is `static`.
    pub is_static: bool,
}

/// A borrowed view of one method in the API's flat tables. Each accessor
/// reads only what it returns, so asking for a return type does not
/// touch the name arena. Views of two different APIs compare by content
/// (names by text).
#[derive(Clone, Copy)]
pub struct MethodView<'a> {
    tables: &'a Tables,
    rec: &'a MethodRec,
    index: usize,
}

impl<'a> MethodView<'a> {
    /// Method name; `"<init>"` for constructors.
    #[must_use]
    pub fn name(&self) -> &'a str {
        self.tables.names.get(self.rec.name)
    }

    /// Declaring class or interface.
    #[must_use]
    pub fn declaring(&self) -> TyId {
        self.rec.declaring
    }

    /// Parameter types in order.
    #[must_use]
    pub fn params(&self) -> &'a [TyId] {
        &self.tables.params[self.tables.spans(self.index).0]
    }

    /// Declared parameter names, in parameter order (see
    /// [`MethodDef::param_names`]: `None` for an unnamed parameter, and
    /// no entries when the stub named none).
    pub fn param_names(&self) -> impl ExactSizeIterator<Item = Option<&'a str>> + 'a {
        let names = &self.tables.names;
        let syms = &self.tables.param_names[self.tables.spans(self.index).1];
        syms.iter().map(move |s| s.map(|sym| names.get(sym)))
    }

    /// The declared name of parameter `i`, if the stub gave one.
    #[must_use]
    pub fn param_name(&self, i: usize) -> Option<&'a str> {
        self.param_names().nth(i).flatten()
    }

    /// Return type (`void` allowed; the declaring class for
    /// constructors).
    #[must_use]
    pub fn ret(&self) -> TyId {
        self.rec.ret
    }

    /// Visibility.
    #[must_use]
    pub fn visibility(&self) -> Visibility {
        self.rec.visibility
    }

    /// Whether the method is `static`.
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.rec.is_static
    }

    /// Whether this is a constructor.
    #[must_use]
    pub fn is_constructor(&self) -> bool {
        self.rec.is_constructor
    }

    /// Constructors and static methods need no receiver.
    #[must_use]
    pub fn needs_receiver(&self) -> bool {
        !self.rec.is_static && !self.rec.is_constructor
    }
}

impl PartialEq for MethodView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
            && self.declaring() == other.declaring()
            && self.params() == other.params()
            && self.param_names().eq(other.param_names())
            && self.ret() == other.ret()
            && self.visibility() == other.visibility()
            && self.is_static() == other.is_static()
            && self.is_constructor() == other.is_constructor()
    }
}

impl Eq for MethodView<'_> {}

impl std::fmt::Debug for MethodView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MethodView")
            .field("name", &self.name())
            .field("declaring", &self.declaring())
            .field("params", &self.params())
            .field("param_names", &self.param_names().collect::<Vec<_>>())
            .field("ret", &self.ret())
            .field("visibility", &self.visibility())
            .field("is_static", &self.is_static())
            .field("is_constructor", &self.is_constructor())
            .finish()
    }
}

/// A borrowed view of one field in the API's flat tables.
#[derive(Clone, Copy)]
pub struct FieldView<'a> {
    names: &'a NameArena,
    rec: &'a FieldRec,
}

impl<'a> FieldView<'a> {
    /// Field name.
    #[must_use]
    pub fn name(&self) -> &'a str {
        self.names.get(self.rec.name)
    }

    /// Declaring class or interface.
    #[must_use]
    pub fn declaring(&self) -> TyId {
        self.rec.declaring
    }

    /// Field type.
    #[must_use]
    pub fn ty(&self) -> TyId {
        self.rec.ty
    }

    /// Visibility.
    #[must_use]
    pub fn visibility(&self) -> Visibility {
        self.rec.visibility
    }

    /// Whether the field is `static`.
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.rec.is_static
    }
}

impl PartialEq for FieldView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
            && self.declaring() == other.declaring()
            && self.ty() == other.ty()
            && self.visibility() == other.visibility()
            && self.is_static() == other.is_static()
    }
}

impl Eq for FieldView<'_> {}

impl std::fmt::Debug for FieldView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FieldView")
            .field("name", &self.name())
            .field("declaring", &self.declaring())
            .field("ty", &self.ty())
            .field("visibility", &self.visibility())
            .field("is_static", &self.is_static())
            .finish()
    }
}

/// One method's fixed-size record. Its parameters and parameter names
/// are the slices of the shared arrays that end at `params_end` and
/// `names_end` and start where the previous method's end.
#[derive(Clone, Copy, Debug)]
struct MethodRec {
    name: Sym,
    declaring: TyId,
    ret: TyId,
    params_end: u32,
    names_end: u32,
    visibility: Visibility,
    is_static: bool,
    is_constructor: bool,
}

#[derive(Clone, Copy, Debug)]
struct FieldRec {
    name: Sym,
    declaring: TyId,
    ty: TyId,
    visibility: Visibility,
    is_static: bool,
}

/// The member tables themselves, shared by [`Api`] and the bulk-load
/// path ([`MemberTables`]).
#[derive(Clone, Debug, Default)]
struct Tables {
    /// Member and parameter names.
    names: NameArena,
    methods: Vec<MethodRec>,
    /// Every method's parameter types, method after method.
    params: Vec<TyId>,
    /// Every method's declared parameter names, method after method.
    param_names: Vec<Option<Sym>>,
    fields: Vec<FieldRec>,
}

impl Tables {
    /// Method `i`'s slices of the parameter and parameter-name arrays.
    fn spans(&self, i: usize) -> (Range<usize>, Range<usize>) {
        let (params_start, names_start) = match i.checked_sub(1) {
            Some(prev) => (self.methods[prev].params_end, self.methods[prev].names_end),
            None => (0, 0),
        };
        let m = &self.methods[i];
        (params_start as usize..m.params_end as usize, names_start as usize..m.names_end as usize)
    }

    fn method(&self, id: MethodId) -> MethodView<'_> {
        MethodView { tables: self, rec: &self.methods[id.index()], index: id.index() }
    }

    fn field(&self, id: FieldId) -> FieldView<'_> {
        FieldView { names: &self.names, rec: &self.fields[id.index()] }
    }

    fn push_method(&mut self, m: &RawMethod<'_>) -> MethodId {
        let id = MethodId(u32::try_from(self.methods.len()).expect("method arena overflow"));
        let end = |n: usize| u32::try_from(n).expect("member table exceeds u32 range");
        self.params.extend_from_slice(m.params);
        self.param_names.extend_from_slice(m.param_names);
        self.methods.push(MethodRec {
            name: m.name,
            declaring: m.declaring,
            ret: m.ret,
            params_end: end(self.params.len()),
            names_end: end(self.param_names.len()),
            visibility: m.visibility,
            is_static: m.is_static,
            is_constructor: m.is_constructor,
        });
        id
    }

    fn push_field(&mut self, f: &RawField) -> FieldId {
        let id = FieldId(u32::try_from(self.fields.len()).expect("field arena overflow"));
        self.fields.push(FieldRec {
            name: f.name,
            declaring: f.declaring,
            ty: f.ty,
            visibility: f.visibility,
            is_static: f.is_static,
        });
        id
    }

    fn approx_bytes(&self) -> usize {
        self.names.approx_bytes()
            + self.methods.capacity() * std::mem::size_of::<MethodRec>()
            + self.params.capacity() * 4
            + self.param_names.capacity() * std::mem::size_of::<Option<Sym>>()
            + self.fields.capacity() * std::mem::size_of::<FieldRec>()
    }
}

/// Member ids grouped by declaring type, each group in id order: the
/// members of type `t` are `ids[starts[t]..starts[t + 1]]`. Types past
/// the end of `starts` have none.
#[derive(Clone, Debug)]
struct ByClass<Id> {
    starts: Vec<u32>,
    ids: Vec<Id>,
}

impl<Id> Default for ByClass<Id> {
    fn default() -> Self {
        ByClass { starts: Vec::new(), ids: Vec::new() }
    }
}

impl<Id: Copy> ByClass<Id> {
    fn of(&self, class: TyId) -> &[Id] {
        let t = class.index();
        match (self.starts.get(t), self.starts.get(t + 1)) {
            (Some(&a), Some(&b)) => &self.ids[a as usize..b as usize],
            _ => &[],
        }
    }

    /// Appends `id`, the newest member, to `class`'s group. O(1) while no
    /// later type has members yet — the order every builder, loader, and
    /// generator adds members in; otherwise the later groups shift up.
    fn push(&mut self, class: TyId, id: Id) {
        let t = class.index();
        let end = u32::try_from(self.ids.len()).expect("member index overflow");
        if self.starts.len() < t + 2 {
            self.starts.resize(t + 2, end);
        }
        self.ids.insert(self.starts[t + 1] as usize, id);
        for s in &mut self.starts[t + 1..] {
            *s += 1;
        }
    }

    /// Groups member `i` (declared on the `i`th item of `classes`) by
    /// type in one counting-sort pass; the result equals pushing them in
    /// order.
    fn build(
        type_count: usize,
        classes: impl Iterator<Item = TyId> + Clone,
        id: impl Fn(usize) -> Id,
    ) -> Self {
        let mut starts = vec![0u32; type_count + 1];
        let mut count = 0;
        for c in classes.clone() {
            starts[c.index() + 1] += 1;
            count += 1;
        }
        for t in 1..starts.len() {
            starts[t] += starts[t - 1];
        }
        // Fill each group through its start offset, which leaves every
        // offset at the next group's start; shifting right restores them.
        let mut ids = vec![id(0); count];
        for (i, c) in classes.enumerate() {
            let slot = &mut starts[c.index()];
            ids[*slot as usize] = id(i);
            *slot += 1;
        }
        starts.rotate_right(1);
        starts[0] = 0;
        ByClass { starts, ids }
    }

    fn approx_bytes(&self) -> usize {
        self.starts.capacity() * 4 + self.ids.capacity() * std::mem::size_of::<Id>()
    }
}

/// One method as a bulk loader hands it to [`MemberTables::push_method`]:
/// names are symbols from [`MemberTables::push_name`].
#[derive(Clone, Copy, Debug)]
pub struct RawMethod<'a> {
    /// Method name.
    pub name: Sym,
    /// Declaring class or interface.
    pub declaring: TyId,
    /// Parameter types in order.
    pub params: &'a [TyId],
    /// Declared parameter names.
    pub param_names: &'a [Option<Sym>],
    /// Return type.
    pub ret: TyId,
    /// Visibility.
    pub visibility: Visibility,
    /// Whether the method is `static`.
    pub is_static: bool,
    /// Whether this is a constructor.
    pub is_constructor: bool,
}

/// One field as a bulk loader hands it to [`MemberTables::push_field`].
#[derive(Clone, Copy, Debug)]
pub struct RawField {
    /// Field name.
    pub name: Sym,
    /// Declaring class or interface.
    pub declaring: TyId,
    /// Field type.
    pub ty: TyId,
    /// Visibility.
    pub visibility: Visibility,
    /// Whether the field is `static`.
    pub is_static: bool,
}

/// Member tables filled in bulk, unchecked, by a loader that knows the
/// counts up front (the snapshot decoders); [`Api::from_tables`] then
/// validates everything [`Api::add_method`]/[`Api::add_field`] would and
/// builds the per-type index in one pass.
#[derive(Debug, Default)]
pub struct MemberTables(Tables);

impl MemberTables {
    /// Empty tables with room for `methods` methods, `fields` fields,
    /// and `name_bytes` bytes of names.
    #[must_use]
    pub fn with_capacity(methods: usize, fields: usize, name_bytes: usize) -> Self {
        MemberTables(Tables {
            names: NameArena::with_capacity(methods + fields, name_bytes),
            methods: Vec::with_capacity(methods),
            fields: Vec::with_capacity(fields),
            ..Tables::default()
        })
    }

    /// Stores a member or parameter name, returning its symbol. Never
    /// deduplicates: a loader reuses the symbol for text it has seen.
    pub fn push_name(&mut self, name: &str) -> Sym {
        self.0.names.push(name)
    }

    /// Room for `n` more fields.
    pub fn reserve_fields(&mut self, n: usize) {
        self.0.fields.reserve(n);
    }

    /// Appends a method; its id is the number of methods pushed before.
    pub fn push_method(&mut self, m: &RawMethod<'_>) -> MethodId {
        self.0.push_method(m)
    }

    /// Appends a field; its id is the number of fields pushed before.
    pub fn push_field(&mut self, f: &RawField) -> FieldId {
        self.0.push_field(f)
    }
}

/// An API: a type table plus member signatures, with lookup indexes.
///
/// Build one through [`ApiLoader`](crate::ApiLoader) (from `.api` stubs) or
/// programmatically through the `add_*`/`declare_*` methods (the jungle
/// generator in `prospector-corpora` does the latter).
#[derive(Clone, Debug)]
pub struct Api {
    types: TypeTable,
    members: Tables,
    methods_by_class: ByClass<MethodId>,
    fields_by_class: ByClass<FieldId>,
}

/// Rejects a method on a non-class type or with a void/null parameter.
/// `name` is only read to word the error.
fn check_method<'n>(
    types: &TypeTable,
    name: impl FnOnce() -> &'n str,
    declaring: TyId,
    params: &[TyId],
) -> Result<(), ApiError> {
    if types.kind(declaring).is_none() {
        return Err(ApiError::InvalidMember {
            detail: format!(
                "method `{}` declared on non-class type {}",
                name(),
                types.display(declaring)
            ),
        });
    }
    if params.iter().any(|&p| matches!(types.ty(p), Ty::Void | Ty::Null)) {
        return Err(ApiError::InvalidMember {
            detail: format!("method `{}` has a void/null parameter", name()),
        });
    }
    Ok(())
}

/// Rejects a field on a non-class type or of void/null type. `name` is
/// only read to word the error.
fn check_field<'n>(
    types: &TypeTable,
    name: impl FnOnce() -> &'n str,
    declaring: TyId,
    ty: TyId,
) -> Result<(), ApiError> {
    if types.kind(declaring).is_none() {
        return Err(ApiError::InvalidMember {
            detail: format!(
                "field `{}` declared on non-class type {}",
                name(),
                types.display(declaring)
            ),
        });
    }
    if matches!(types.ty(ty), Ty::Void | Ty::Null) {
        return Err(ApiError::InvalidMember {
            detail: format!("field `{}` has void/null type", name()),
        });
    }
    Ok(())
}

fn duplicate(types: &TypeTable, declaring: TyId, name: &str) -> ApiError {
    ApiError::DuplicateMember { member: format!("{}.{name}", types.display(declaring)) }
}

impl Api {
    /// An API over a fresh, empty type table.
    #[must_use]
    pub fn new() -> Self {
        Api::from_types(TypeTable::new())
    }

    /// Wraps an existing type table (with no members yet).
    #[must_use]
    pub fn from_types(types: TypeTable) -> Self {
        Api {
            types,
            members: Tables::default(),
            methods_by_class: ByClass::default(),
            fields_by_class: ByClass::default(),
        }
    }

    /// Assembles an API from bulk-loaded member tables, checking every
    /// member exactly as [`Api::add_method`]/[`Api::add_field`] would,
    /// and builds the per-type index in one pass.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidMember`] for an out-of-range type or name
    /// reference, a member on a non-class type, or a void/null
    /// parameter or field type; [`ApiError::DuplicateMember`] for a
    /// repeated signature on one class.
    pub fn from_tables(types: TypeTable, tables: MemberTables) -> Result<Api, ApiError> {
        let members = tables.0;
        let (type_count, name_count) = (types.len(), members.names.len());
        let check_ty = |id: TyId| {
            if id.index() < type_count {
                Ok(())
            } else {
                Err(ApiError::InvalidMember {
                    detail: format!("type reference {} out of range ({type_count} types)", id.index()),
                })
            }
        };
        let check_sym = |sym: Sym| {
            if sym.index() < name_count {
                Ok(())
            } else {
                Err(ApiError::InvalidMember {
                    detail: format!("name symbol {} out of range ({name_count} names)", sym.index()),
                })
            }
        };
        for (i, m) in members.methods.iter().enumerate() {
            let (params, names) = members.spans(i);
            check_sym(m.name)?;
            for &sym in members.param_names[names].iter().flatten() {
                check_sym(sym)?;
            }
            check_ty(m.declaring)?;
            check_ty(m.ret)?;
            let params = &members.params[params];
            for &p in params {
                check_ty(p)?;
            }
            check_method(&types, || members.names.get(m.name), m.declaring, params)?;
        }
        for f in &members.fields {
            check_sym(f.name)?;
            check_ty(f.declaring)?;
            check_ty(f.ty)?;
            check_field(&types, || members.names.get(f.name), f.declaring, f.ty)?;
        }
        let methods_by_class =
            ByClass::build(type_count, members.methods.iter().map(|m| m.declaring), MethodId::from_index);
        let fields_by_class =
            ByClass::build(type_count, members.fields.iter().map(|f| f.declaring), FieldId::from_index);
        let api = Api { types, members, methods_by_class, fields_by_class };
        api.check_no_duplicates()?;
        Ok(api)
    }

    /// Rejects a repeated signature on any class: each class's members
    /// are sorted by signature, so duplicates end up adjacent.
    fn check_no_duplicates(&self) -> Result<(), ApiError> {
        let mut methods = Vec::new();
        let mut fields = Vec::new();
        for class in self.types.ids() {
            if self.methods_of(class).len() + self.fields_of(class).len() < 2 {
                continue;
            }
            methods.clear();
            methods.extend(self.methods_of(class).iter().map(|&m| {
                let m = self.method(m);
                (m.name(), m.params())
            }));
            methods.sort_unstable();
            if let Some(w) = methods.windows(2).find(|w| w[0] == w[1]) {
                return Err(duplicate(&self.types, class, w[0].0));
            }
            fields.clear();
            fields.extend(self.fields_of(class).iter().map(|&f| self.field(f).name()));
            fields.sort_unstable();
            if let Some(w) = fields.windows(2).find(|w| w[0] == w[1]) {
                return Err(duplicate(&self.types, class, w[0]));
            }
        }
        Ok(())
    }

    /// The underlying type table.
    #[must_use]
    pub fn types(&self) -> &TypeTable {
        &self.types
    }

    /// Mutable access to the type table (for declaring types and arrays).
    pub fn types_mut(&mut self) -> &mut TypeTable {
        &mut self.types
    }

    /// Shorthand: declare a class.
    ///
    /// # Errors
    ///
    /// Propagates [`jungloid_typesys::TypeError::DuplicateType`].
    pub fn declare_class(&mut self, package: &str, name: &str) -> Result<TyId, ApiError> {
        Ok(self.types.declare(package, name, TypeKind::Class)?)
    }

    /// Shorthand: declare an interface.
    ///
    /// # Errors
    ///
    /// Propagates [`jungloid_typesys::TypeError::DuplicateType`].
    pub fn declare_interface(&mut self, package: &str, name: &str) -> Result<TyId, ApiError> {
        Ok(self.types.declare(package, name, TypeKind::Interface)?)
    }

    /// Adds a method/constructor definition.
    ///
    /// # Errors
    ///
    /// * [`ApiError::InvalidMember`] if the declaring type is not a class
    ///   or interface, or a parameter is `void`;
    /// * [`ApiError::DuplicateMember`] if an identical
    ///   name-plus-parameter-types signature already exists on the class.
    pub fn add_method(&mut self, def: MethodDef) -> Result<MethodId, ApiError> {
        check_method(&self.types, || &def.name, def.declaring, &def.params)?;
        if self.methods_of(def.declaring).iter().any(|&m| {
            let existing = self.method(m);
            existing.name() == def.name && existing.params() == def.params
        }) {
            return Err(duplicate(&self.types, def.declaring, &def.name));
        }
        let t = &mut self.members;
        let name = t.names.push(&def.name);
        let param_names: Vec<Option<Sym>> =
            def.param_names.iter().map(|n| n.as_deref().map(|n| t.names.push(n))).collect();
        let id = t.push_method(&RawMethod {
            name,
            declaring: def.declaring,
            params: &def.params,
            param_names: &param_names,
            ret: def.ret,
            visibility: def.visibility,
            is_static: def.is_static,
            is_constructor: def.is_constructor,
        });
        self.methods_by_class.push(def.declaring, id);
        Ok(id)
    }

    /// Adds a field definition.
    ///
    /// # Errors
    ///
    /// Same classes of failure as [`Api::add_method`].
    pub fn add_field(&mut self, def: FieldDef) -> Result<FieldId, ApiError> {
        check_field(&self.types, || &def.name, def.declaring, def.ty)?;
        if self.fields_of(def.declaring).iter().any(|&f| self.field(f).name() == def.name) {
            return Err(duplicate(&self.types, def.declaring, &def.name));
        }
        let name = self.members.names.push(&def.name);
        let id = self.members.push_field(&RawField {
            name,
            declaring: def.declaring,
            ty: def.ty,
            visibility: def.visibility,
            is_static: def.is_static,
        });
        self.fields_by_class.push(def.declaring, id);
        Ok(id)
    }

    /// The method behind an id, as a view over the member tables.
    #[must_use]
    pub fn method(&self, id: MethodId) -> MethodView<'_> {
        self.members.method(id)
    }

    /// The field behind an id, as a view over the member tables.
    #[must_use]
    pub fn field(&self, id: FieldId) -> FieldView<'_> {
        self.members.field(id)
    }

    /// Number of methods (incl. constructors).
    #[must_use]
    pub fn method_count(&self) -> usize {
        self.members.methods.len()
    }

    /// Number of fields.
    #[must_use]
    pub fn field_count(&self) -> usize {
        self.members.fields.len()
    }

    /// Iterates over all method ids.
    pub fn method_ids(&self) -> impl Iterator<Item = MethodId> + '_ {
        (0..self.method_count()).map(MethodId::from_index)
    }

    /// Iterates over all field ids.
    pub fn field_ids(&self) -> impl Iterator<Item = FieldId> + '_ {
        (0..self.field_count()).map(FieldId::from_index)
    }

    /// Method ids declared directly on `class`, in id order.
    #[must_use]
    pub fn methods_of(&self, class: TyId) -> &[MethodId] {
        self.methods_by_class.of(class)
    }

    /// Field ids declared directly on `class`, in id order.
    #[must_use]
    pub fn fields_of(&self, class: TyId) -> &[FieldId] {
        self.fields_by_class.of(class)
    }

    /// Heap bytes held by the API: the type table, the member tables,
    /// and the per-type indexes.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.types.approx_bytes()
            + self.members.approx_bytes()
            + self.methods_by_class.approx_bytes()
            + self.fields_by_class.approx_bytes()
    }

    /// Constructors declared on `class`.
    #[must_use]
    pub fn constructors_of(&self, class: TyId) -> Vec<MethodId> {
        self.methods_of(class)
            .iter()
            .copied()
            .filter(|&m| self.method(m).is_constructor())
            .collect()
    }

    /// Instance methods named `name` with `arity` parameters, found on
    /// `recv` or any of its supertypes (breadth-first, so overrides on the
    /// receiver come before inherited declarations).
    #[must_use]
    pub fn lookup_instance_method(&self, recv: TyId, name: &str, arity: usize) -> Vec<MethodId> {
        let mut out = Vec::new();
        let mut frontier = vec![recv];
        let mut seen = vec![recv];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for t in frontier {
                for &m in self.methods_of(t) {
                    let def = self.method(m);
                    if def.needs_receiver() && def.name() == name && def.params().len() == arity {
                        out.push(m);
                    }
                }
                for sup in self.types.direct_supertypes(t) {
                    if !seen.contains(&sup) {
                        seen.push(sup);
                        next.push(sup);
                    }
                }
            }
            frontier = next;
        }
        out
    }

    /// Static methods named `name` with `arity` parameters, declared on
    /// `class` (static members are not inherited in this model).
    #[must_use]
    pub fn lookup_static_method(&self, class: TyId, name: &str, arity: usize) -> Vec<MethodId> {
        self.methods_of(class)
            .iter()
            .copied()
            .filter(|&m| {
                let def = self.method(m);
                def.is_static() && def.name() == name && def.params().len() == arity
            })
            .collect()
    }

    /// Constructors of `class` with `arity` parameters.
    #[must_use]
    pub fn lookup_constructor(&self, class: TyId, arity: usize) -> Vec<MethodId> {
        self.constructors_of(class)
            .into_iter()
            .filter(|&m| self.method(m).params().len() == arity)
            .collect()
    }

    /// The field named `name` on `recv` or its supertypes, if any
    /// (instance or static; nearest declaration wins).
    #[must_use]
    pub fn lookup_field(&self, recv: TyId, name: &str) -> Option<FieldId> {
        let mut frontier = vec![recv];
        let mut seen = vec![recv];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for t in &frontier {
                for &f in self.fields_of(*t) {
                    if self.field(f).name() == name {
                        return Some(f);
                    }
                }
            }
            for t in frontier {
                for sup in self.types.direct_supertypes(t) {
                    if !seen.contains(&sup) {
                        seen.push(sup);
                        next.push(sup);
                    }
                }
            }
            frontier = next;
        }
        None
    }

    /// Class-hierarchy-analysis approximation of dynamic dispatch: all
    /// instance methods named `name`/`arity` declared on `recv_static`, its
    /// supertypes, or any of its subtypes. Used by the miner's
    /// "conservative approximation of the call graph based on the type
    /// hierarchy" (§4.2).
    #[must_use]
    pub fn cha_targets(&self, recv_static: TyId, name: &str, arity: usize) -> Vec<MethodId> {
        let mut out = self.lookup_instance_method(recv_static, name, arity);
        for sub in self.types.strict_subtypes(recv_static) {
            for &m in self.methods_of(sub) {
                let def = self.method(m);
                if def.needs_receiver() && def.name() == name && def.params().len() == arity && !out.contains(&m)
                {
                    out.push(m);
                }
            }
        }
        out
    }

    /// Renders a method as `Declaring.name(P1, P2): Ret` for diagnostics.
    #[must_use]
    pub fn method_display(&self, id: MethodId) -> String {
        let def = self.method(id);
        let params: Vec<String> =
            def.params().iter().map(|&p| self.types.display_simple(p)).collect();
        let who = self.types.display_simple(def.declaring());
        if def.is_constructor() {
            format!("new {who}({})", params.join(", "))
        } else if def.is_static() {
            format!("{who}.{}({}): {}", def.name(), params.join(", "), self.types.display_simple(def.ret()))
        } else {
            format!(
                "{}.{}({}): {}",
                lowercase_first(&who),
                def.name(),
                params.join(", "),
                self.types.display_simple(def.ret())
            )
        }
    }
}

impl Default for Api {
    fn default() -> Self {
        Api::new()
    }
}

fn lowercase_first(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) => c.to_lowercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

// --- JSON debug dump ----------------------------------------------------
//
// Members are rendered as flat arrays in arena order; ids are implicit
// (array position). The dump is never loaded back: the `.pspk` snapshot
// in `prospector-store` is the stored form.

pub(crate) fn ty_ref(id: TyId) -> Json {
    Json::num_u(id.index() as u64)
}

impl Visibility {
    /// The Java keyword for this visibility.
    #[must_use]
    pub fn keyword(self) -> &'static str {
        match self {
            Visibility::Public => "public",
            Visibility::Protected => "protected",
            Visibility::Private => "private",
        }
    }
}

fn method_to_json(def: MethodView<'_>) -> Json {
    Json::obj(vec![
        ("name", Json::Str(def.name().to_owned())),
        ("declaring", ty_ref(def.declaring())),
        ("params", Json::Arr(def.params().iter().copied().map(ty_ref).collect())),
        (
            "param_names",
            Json::Arr(
                def.param_names()
                    .map(|n| n.map_or(Json::Null, |s| Json::Str(s.to_owned())))
                    .collect(),
            ),
        ),
        ("ret", ty_ref(def.ret())),
        ("visibility", Json::Str(def.visibility().keyword().to_owned())),
        ("static", Json::Bool(def.is_static())),
        ("ctor", Json::Bool(def.is_constructor())),
    ])
}

fn field_to_json(def: FieldView<'_>) -> Json {
    Json::obj(vec![
        ("name", Json::Str(def.name().to_owned())),
        ("declaring", ty_ref(def.declaring())),
        ("ty", ty_ref(def.ty())),
        ("visibility", Json::Str(def.visibility().keyword().to_owned())),
        ("static", Json::Bool(def.is_static())),
    ])
}

impl Api {
    /// Renders the API (types plus members) as a JSON debug value.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("types", self.types.to_json()),
            ("methods", Json::Arr(self.method_ids().map(|m| method_to_json(self.method(m))).collect())),
            ("fields", Json::Arr(self.field_ids().map(|f| field_to_json(self.field(f))).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_api() -> (Api, TyId, TyId, TyId) {
        let mut api = Api::new();
        api.declare_class("java.lang", "Object").unwrap();
        let reader = api.declare_class("java.io", "Reader").unwrap();
        let buffered = api.declare_class("java.io", "BufferedReader").unwrap();
        api.types_mut().set_superclass(buffered, reader).unwrap();
        let string = api.declare_class("java.lang", "String").unwrap();
        (api, reader, buffered, string)
    }

    fn inst(name: &str, declaring: TyId, params: Vec<TyId>, ret: TyId) -> MethodDef {
        MethodDef {
            name: name.to_owned(),
            declaring,
            params,
            param_names: Vec::new(),
            ret,
            visibility: Visibility::Public,
            is_static: false,
            is_constructor: false,
        }
    }

    #[test]
    fn add_and_lookup_methods() {
        let (mut api, reader, buffered, string) = tiny_api();
        api.add_method(inst("readLine", buffered, vec![], string)).unwrap();
        api.add_method(inst("close", reader, vec![], api.types().void())).unwrap();

        assert_eq!(api.lookup_instance_method(buffered, "readLine", 0).len(), 1);
        // Inherited through the superclass chain.
        assert_eq!(api.lookup_instance_method(buffered, "close", 0).len(), 1);
        assert!(api.lookup_instance_method(reader, "readLine", 0).is_empty());
        assert!(api.lookup_instance_method(buffered, "readLine", 1).is_empty());
    }

    #[test]
    fn duplicate_method_rejected_overload_allowed() {
        let (mut api, reader, buffered, string) = tiny_api();
        api.add_method(inst("read", buffered, vec![], string)).unwrap();
        assert!(matches!(
            api.add_method(inst("read", buffered, vec![], string)),
            Err(ApiError::DuplicateMember { .. })
        ));
        // Different arity: fine.
        api.add_method(inst("read", buffered, vec![reader], string)).unwrap();
    }

    #[test]
    fn void_param_rejected() {
        let (mut api, _, buffered, string) = tiny_api();
        let void = api.types().void();
        assert!(matches!(
            api.add_method(inst("bad", buffered, vec![void], string)),
            Err(ApiError::InvalidMember { .. })
        ));
    }

    #[test]
    fn member_on_primitive_rejected() {
        let (mut api, _, _, string) = tiny_api();
        let int = api.types().prim(jungloid_typesys::Prim::Int);
        assert!(api.add_method(inst("bad", int, vec![], string)).is_err());
        assert!(api
            .add_field(FieldDef {
                name: "x".into(),
                declaring: int,
                ty: string,
                visibility: Visibility::Public,
                is_static: false,
            })
            .is_err());
    }

    #[test]
    fn static_and_constructor_lookup() {
        let (mut api, reader, buffered, string) = tiny_api();
        api.add_method(MethodDef {
            name: "<init>".into(),
            declaring: buffered,
            params: vec![reader],
            param_names: Vec::new(),
            ret: buffered,
            visibility: Visibility::Public,
            is_static: false,
            is_constructor: true,
        })
        .unwrap();
        api.add_method(MethodDef {
            name: "valueOf".into(),
            declaring: string,
            params: vec![buffered],
            param_names: Vec::new(),
            ret: string,
            visibility: Visibility::Public,
            is_static: true,
            is_constructor: false,
        })
        .unwrap();

        assert_eq!(api.lookup_constructor(buffered, 1).len(), 1);
        assert!(api.lookup_constructor(buffered, 0).is_empty());
        assert_eq!(api.lookup_static_method(string, "valueOf", 1).len(), 1);
        // Static methods are not found through instance lookup.
        assert!(api.lookup_instance_method(string, "valueOf", 1).is_empty());
    }

    #[test]
    fn field_lookup_walks_supertypes() {
        let (mut api, reader, buffered, string) = tiny_api();
        api.add_field(FieldDef {
            name: "lock".into(),
            declaring: reader,
            ty: string,
            visibility: Visibility::Public,
            is_static: false,
        })
        .unwrap();
        assert!(api.lookup_field(buffered, "lock").is_some());
        assert!(api.lookup_field(buffered, "none").is_none());
    }

    #[test]
    fn cha_includes_subtype_overrides() {
        let (mut api, reader, buffered, string) = tiny_api();
        api.add_method(inst("read", reader, vec![], string)).unwrap();
        api.add_method(inst("read", buffered, vec![], string)).unwrap();
        let targets = api.cha_targets(reader, "read", 0);
        assert_eq!(targets.len(), 2);
    }

    fn raw(name: Sym, declaring: TyId, ret: TyId) -> RawMethod<'static> {
        RawMethod {
            name,
            declaring,
            params: &[],
            param_names: &[],
            ret,
            visibility: Visibility::Public,
            is_static: false,
            is_constructor: false,
        }
    }

    #[test]
    fn bulk_tables_are_checked_like_single_adds() {
        let (api, reader, buffered, string) = tiny_api();
        let types = api.types().clone();

        let mut ok = MemberTables::with_capacity(2, 1, 0);
        let read = ok.push_name("read");
        ok.push_method(&raw(read, buffered, string));
        let read_again = ok.push_name("read");
        ok.push_method(&raw(read_again, reader, string));
        let field = ok.push_name("lock");
        ok.push_field(&RawField {
            name: field,
            declaring: reader,
            ty: string,
            visibility: Visibility::Public,
            is_static: false,
        });
        let loaded = Api::from_tables(types.clone(), ok).unwrap();
        assert_eq!(loaded.methods_of(buffered), [MethodId(0)]);
        assert_eq!(loaded.methods_of(reader), [MethodId(1)]);
        assert_eq!(loaded.field(FieldId(0)).name(), "lock");

        // Same name and parameters on one class, under distinct symbols.
        let mut dup = MemberTables::default();
        let a = dup.push_name("read");
        let b = dup.push_name("read");
        dup.push_method(&raw(a, buffered, string));
        dup.push_method(&raw(b, buffered, string));
        assert!(matches!(
            Api::from_tables(types.clone(), dup),
            Err(ApiError::DuplicateMember { .. })
        ));

        // A symbol issued by a larger arena, and a type past the table.
        let mut other = MemberTables::default();
        let foreign = (0..5).map(|_| other.push_name("x")).last().unwrap();
        let mut bad_sym = MemberTables::default();
        bad_sym.push_name("only");
        bad_sym.push_method(&raw(foreign, buffered, string));
        assert!(matches!(
            Api::from_tables(types.clone(), bad_sym),
            Err(ApiError::InvalidMember { .. })
        ));
        let mut bad_ty = MemberTables::default();
        let name = bad_ty.push_name("m");
        bad_ty.push_method(&raw(name, TyId::from_index(types.len()), string));
        assert!(matches!(Api::from_tables(types, bad_ty), Err(ApiError::InvalidMember { .. })));
    }

    #[test]
    fn method_display_forms() {
        let (mut api, reader, buffered, string) = tiny_api();
        let ctor = api
            .add_method(MethodDef {
                name: "<init>".into(),
                declaring: buffered,
                params: vec![reader],
                param_names: Vec::new(),
                ret: buffered,
                visibility: Visibility::Public,
                is_static: false,
                is_constructor: true,
            })
            .unwrap();
        let stat = api
            .add_method(MethodDef {
                name: "valueOf".into(),
                declaring: string,
                params: vec![buffered],
                param_names: Vec::new(),
                ret: string,
                visibility: Visibility::Public,
                is_static: true,
                is_constructor: false,
            })
            .unwrap();
        let m = api.add_method(inst("readLine", buffered, vec![], string)).unwrap();
        assert_eq!(api.method_display(ctor), "new BufferedReader(Reader)");
        assert_eq!(api.method_display(stat), "String.valueOf(BufferedReader): String");
        assert_eq!(api.method_display(m), "bufferedReader.readLine(): String");
    }
}
