//! The in-memory API model: types plus members.
//!
//! Members live in flat per-table arrays: one fixed-width record of
//! `u32` words per method ([`MethodRecord`]) or field ([`FieldRecord`]),
//! every parameter type in one [`TyId`] array, every parameter name id in
//! one `u32` array, names in a [`NameArena`], and a dense per-type index.
//! A built API owns these arrays; an API loaded from a `.pspk` snapshot
//! borrows them from the snapshot buffer and copies them only if it is
//! mutated. [`Api::method`]/[`Api::field`] hand out borrowed views
//! ([`MethodView`], [`FieldView`]) over them either way.
//!
//! | word | method record            | field record      |
//! |------|--------------------------|-------------------|
//! | 0    | name id                  | name id           |
//! | 1    | declaring type           | declaring type    |
//! | 2    | return type              | field type        |
//! | 3    | end of its parameters    | flags             |
//! | 4    | end of its parameter names |                 |
//! | 5    | flags                    |                   |
//!
//! A method's parameters (and parameter names) run from the previous
//! method's end offset to its own. Flags hold the visibility in bits 0-1
//! (public, protected, private), `static` in bit 2 and, for methods,
//! "constructor" in bit 3; every other bit is zero. An unnamed parameter
//! has the name id `u32::MAX`.

use std::ops::Range;

use jungloid_typesys::{NameArena, Slab, Ty, TyId, TypeKind, TypeTable};
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

/// Words in one method record.
pub const METHOD_RECORD_WORDS: usize = 6;

/// Words in one field record.
pub const FIELD_RECORD_WORDS: usize = 4;

/// One method's fixed-width record; the module docs lay out its words.
pub type MethodRecord = [u32; METHOD_RECORD_WORDS];

/// One field's fixed-width record; the module docs lay out its words.
pub type FieldRecord = [u32; FIELD_RECORD_WORDS];

const NAME: usize = 0;
const DECLARING: usize = 1;
/// A method's return type, a field's type.
const TYPE: usize = 2;
const PARAMS_END: usize = 3;
const NAMES_END: usize = 4;
const METHOD_FLAGS: usize = 5;
const FIELD_FLAGS: usize = 3;

const VISIBILITY: u32 = 0b11;
const STATIC: u32 = 1 << 2;
const CONSTRUCTOR: u32 = 1 << 3;

/// The name id of an unnamed parameter.
const UNNAMED: u32 = u32::MAX;

fn flags(visibility: Visibility, is_static: bool, is_constructor: bool) -> u32 {
    let vis = match visibility {
        Visibility::Public => 0,
        Visibility::Protected => 1,
        Visibility::Private => 2,
    };
    vis | if is_static { STATIC } else { 0 } | if is_constructor { CONSTRUCTOR } else { 0 }
}

fn visibility(flags: u32) -> Visibility {
    match flags & VISIBILITY {
        0 => Visibility::Public,
        1 => Visibility::Protected,
        _ => Visibility::Private,
    }
}

fn ty(word: u32) -> TyId {
    TyId::from_index(word as usize)
}

/// A borrowed view of one method in the API's flat tables. Each accessor
/// reads only what it returns, so asking for a return type does not
/// touch the name arena. Views of two different APIs compare by content
/// (names by text).
#[derive(Clone, Copy)]
pub struct MethodView<'a> {
    tables: &'a Tables,
    rec: &'a MethodRecord,
    index: usize,
}

impl<'a> MethodView<'a> {
    /// Method name; `"<init>"` for constructors.
    #[must_use]
    pub fn name(&self) -> &'a str {
        self.tables.names.get(self.rec[NAME])
    }

    /// Declaring class or interface.
    #[must_use]
    pub fn declaring(&self) -> TyId {
        ty(self.rec[DECLARING])
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
        let ids = &self.tables.param_names[self.tables.spans(self.index).1];
        ids.iter().map(move |&id| (id != UNNAMED).then(|| names.get(id)))
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
        ty(self.rec[TYPE])
    }

    /// Visibility.
    #[must_use]
    pub fn visibility(&self) -> Visibility {
        visibility(self.rec[METHOD_FLAGS])
    }

    /// Whether the method is `static`.
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.rec[METHOD_FLAGS] & STATIC != 0
    }

    /// Whether this is a constructor.
    #[must_use]
    pub fn is_constructor(&self) -> bool {
        self.rec[METHOD_FLAGS] & CONSTRUCTOR != 0
    }

    /// Constructors and static methods need no receiver.
    #[must_use]
    pub fn needs_receiver(&self) -> bool {
        self.rec[METHOD_FLAGS] & (STATIC | CONSTRUCTOR) == 0
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
    rec: &'a FieldRecord,
}

impl<'a> FieldView<'a> {
    /// Field name.
    #[must_use]
    pub fn name(&self) -> &'a str {
        self.names.get(self.rec[NAME])
    }

    /// Declaring class or interface.
    #[must_use]
    pub fn declaring(&self) -> TyId {
        ty(self.rec[DECLARING])
    }

    /// Field type.
    #[must_use]
    pub fn ty(&self) -> TyId {
        ty(self.rec[TYPE])
    }

    /// Visibility.
    #[must_use]
    pub fn visibility(&self) -> Visibility {
        visibility(self.rec[FIELD_FLAGS])
    }

    /// Whether the field is `static`.
    #[must_use]
    pub fn is_static(&self) -> bool {
        self.rec[FIELD_FLAGS] & STATIC != 0
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

/// An API's member arrays in the form [`Api::from_slabs`] takes them,
/// with every name re-issued by the caller's string pool: what a
/// snapshot writer stores.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemberArrays {
    /// One record per method, in id order.
    pub methods: Vec<MethodRecord>,
    /// Every method's parameter types, method after method.
    pub params: Vec<TyId>,
    /// Every method's parameter name ids, method after method.
    pub param_names: Vec<u32>,
    /// One record per field, in id order.
    pub fields: Vec<FieldRecord>,
}

/// The member tables themselves.
#[derive(Clone, Debug, Default)]
struct Tables {
    /// Member and parameter names (a loaded API's: the whole string
    /// pool).
    names: NameArena,
    methods: Slab<MethodRecord>,
    /// Every method's parameter types, method after method.
    params: Slab<TyId>,
    /// Every method's parameter name ids, method after method.
    param_names: Slab<u32>,
    fields: Slab<FieldRecord>,
}

impl Tables {
    /// Method `i`'s slices of the parameter and parameter-name arrays.
    fn spans(&self, i: usize) -> (Range<usize>, Range<usize>) {
        let (params_start, names_start) = match i.checked_sub(1) {
            Some(prev) => (self.methods[prev][PARAMS_END], self.methods[prev][NAMES_END]),
            None => (0, 0),
        };
        let m = &self.methods[i];
        (params_start as usize..m[PARAMS_END] as usize, names_start as usize..m[NAMES_END] as usize)
    }

    fn method(&self, id: MethodId) -> MethodView<'_> {
        MethodView { tables: self, rec: &self.methods[id.index()], index: id.index() }
    }

    fn field(&self, id: FieldId) -> FieldView<'_> {
        FieldView { names: &self.names, rec: &self.fields[id.index()] }
    }

    fn is_borrowed(&self) -> bool {
        self.names.is_borrowed()
            && self.methods.is_borrowed()
            && self.params.is_borrowed()
            && self.param_names.is_borrowed()
            && self.fields.is_borrowed()
    }

    fn approx_bytes(&self) -> usize {
        self.names.approx_bytes()
            + std::mem::size_of_val(self.methods.as_slice())
            + std::mem::size_of_val(self.params.as_slice())
            + std::mem::size_of_val(self.param_names.as_slice())
            + std::mem::size_of_val(self.fields.as_slice())
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

    /// Every class with two or more members, and those members.
    fn crowded(&self) -> impl Iterator<Item = (TyId, &[Id])> + '_ {
        self.starts
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[1] - w[0] >= 2)
            .map(|(t, w)| (TyId::from_index(t), &self.ids[w[0] as usize..w[1] as usize]))
    }

    fn approx_bytes(&self) -> usize {
        self.starts.capacity() * 4 + self.ids.capacity() * std::mem::size_of::<Id>()
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

/// The name of a signature `sigs` holds twice, if any: sorting puts
/// repeats next to each other.
fn first_repeat<'a>(sigs: &mut [(&'a [u8], &'a [TyId])]) -> Option<&'a [u8]> {
    sigs.sort_unstable();
    sigs.windows(2).find(|w| w[0] == w[1]).map(|w| w[0].0)
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

    /// Assembles an API from stored member arrays — the zero-copy
    /// snapshot load: `names` is the string pool the name ids point into,
    /// and the arrays stay wherever they live (borrowed from a snapshot
    /// buffer, or owned). Checks every member exactly as
    /// [`Api::add_method`]/[`Api::add_field`] would, then builds the
    /// per-type index.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidMember`] for an out-of-range type or name
    /// reference, unknown flag bits, end offsets that decrease or overrun
    /// their array, a member on a non-class type, or a void/null parameter
    /// or field type; [`ApiError::DuplicateMember`] for a repeated
    /// signature on one class (names compared by text).
    pub fn from_slabs(
        types: TypeTable,
        names: NameArena,
        methods: Slab<MethodRecord>,
        params: Slab<TyId>,
        param_names: Slab<u32>,
        fields: Slab<FieldRecord>,
    ) -> Result<Api, ApiError> {
        let (type_count, name_count) = (types.len(), names.len());
        let invalid = |detail: String| ApiError::InvalidMember { detail };
        let in_range = |word: u32, count: usize| (word as usize) < count;
        // The words every member record shares: name, two types, flags.
        let check_record = |what: &str, i: usize, rec: [u32; 4], allowed: u32| {
            let [name, declaring, ty, flags] = rec;
            if !in_range(name, name_count) {
                let detail = format!("{what} {i}'s name {name} out of range ({name_count} names)");
                return Err(invalid(detail));
            }
            if let Some(t) = [declaring, ty].into_iter().find(|&t| !in_range(t, type_count)) {
                return Err(invalid(format!("{what} {i} references type {t} ({type_count} types)")));
            }
            if flags & !allowed != 0 || flags & VISIBILITY == VISIBILITY {
                return Err(invalid(format!("{what} {i} has unknown flags {flags:#x}")));
            }
            Ok(())
        };
        if let Some(p) = params.iter().find(|p| p.index() >= type_count) {
            let p = p.index();
            return Err(invalid(format!("parameter type {p} out of range ({type_count} types)")));
        }
        if let Some(&n) = param_names.iter().find(|&&n| n != UNNAMED && !in_range(n, name_count)) {
            return Err(invalid(format!("parameter name {n} out of range ({name_count} names)")));
        }
        let (mut params_start, mut names_start) = (0, 0);
        for (i, m) in methods.iter().enumerate() {
            let (params_end, names_end) = (m[PARAMS_END] as usize, m[NAMES_END] as usize);
            if !(params_start..=params.len()).contains(&params_end)
                || !(names_start..=param_names.len()).contains(&names_end)
            {
                return Err(invalid(format!("method {i}'s end offsets decrease or overrun")));
            }
            let rec = [m[NAME], m[DECLARING], m[TYPE], m[METHOD_FLAGS]];
            check_record("method", i, rec, VISIBILITY | STATIC | CONSTRUCTOR)?;
            let params = &params[params_start..params_end];
            check_method(&types, || names.get(m[NAME]), ty(m[DECLARING]), params)?;
            (params_start, names_start) = (params_end, names_end);
        }
        if params_start != params.len() || names_start != param_names.len() {
            return Err(invalid("the last method's end offsets leave entries unowned".to_owned()));
        }
        for (i, f) in fields.iter().enumerate() {
            let rec = [f[NAME], f[DECLARING], f[TYPE], f[FIELD_FLAGS]];
            check_record("field", i, rec, VISIBILITY | STATIC)?;
            check_field(&types, || names.get(f[NAME]), ty(f[DECLARING]), ty(f[TYPE]))?;
        }
        let method_classes = methods.iter().map(|m| ty(m[DECLARING]));
        let methods_by_class = ByClass::build(type_count, method_classes, MethodId::from_index);
        let field_classes = fields.iter().map(|f| ty(f[DECLARING]));
        let fields_by_class = ByClass::build(type_count, field_classes, FieldId::from_index);
        let members = Tables { names, methods, params, param_names, fields };
        let api = Api { types, members, methods_by_class, fields_by_class };
        api.check_no_duplicates()?;
        Ok(api)
    }

    /// Rejects a repeated signature on any class. Names compare as
    /// bytes, which is comparing them as text.
    fn check_no_duplicates(&self) -> Result<(), ApiError> {
        let t = &self.members;
        let mut sigs = Vec::new();
        for (class, ids) in self.methods_by_class.crowded() {
            sigs.clear();
            sigs.extend(ids.iter().map(|&m| {
                (t.names.bytes(t.methods[m.index()][NAME]), &t.params[t.spans(m.index()).0])
            }));
            if let Some(name) = first_repeat(&mut sigs) {
                return Err(duplicate(&self.types, class, &String::from_utf8_lossy(name)));
            }
        }
        for (class, ids) in self.fields_by_class.crowded() {
            sigs.clear();
            sigs.extend(ids.iter().map(|&f| (t.names.bytes(t.fields[f.index()][NAME]), &[][..])));
            if let Some(name) = first_repeat(&mut sigs) {
                return Err(duplicate(&self.types, class, &String::from_utf8_lossy(name)));
            }
        }
        Ok(())
    }

    /// The member arrays with every name re-issued through `intern` (a
    /// snapshot writer's string pool).
    pub fn members_to_arrays(&self, mut intern: impl FnMut(&str) -> u32) -> MemberArrays {
        let t = &self.members;
        let mut name = |id: u32| if id == UNNAMED { UNNAMED } else { intern(t.names.get(id)) };
        let methods = t.methods.iter().map(|m| {
            let mut m = *m;
            m[NAME] = name(m[NAME]);
            m
        });
        let methods = methods.collect();
        let param_names = t.param_names.iter().map(|&id| name(id)).collect();
        let fields = t.fields.iter().map(|f| {
            let mut f = *f;
            f[NAME] = name(f[NAME]);
            f
        });
        let fields = fields.collect();
        MemberArrays { methods, params: t.params.to_vec(), param_names, fields }
    }

    /// Whether the type table and every member array borrow from a
    /// snapshot buffer (a loaded API no mutation has copied).
    #[must_use]
    pub fn is_borrowed(&self) -> bool {
        self.types.is_borrowed() && self.members.is_borrowed()
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
        let id = MethodId(u32::try_from(t.methods.len()).expect("method arena overflow"));
        let end = |n: usize| u32::try_from(n).expect("member table exceeds u32 range");
        let name = t.names.push(&def.name);
        for n in &def.param_names {
            let n = n.as_deref().map_or(UNNAMED, |n| t.names.push(n));
            t.param_names.make_mut().push(n);
        }
        t.params.make_mut().extend_from_slice(&def.params);
        let rec = [
            name,
            def.declaring.index() as u32,
            def.ret.index() as u32,
            end(t.params.len()),
            end(t.param_names.len()),
            flags(def.visibility, def.is_static, def.is_constructor),
        ];
        t.methods.make_mut().push(rec);
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
        let t = &mut self.members;
        let id = FieldId(u32::try_from(t.fields.len()).expect("field arena overflow"));
        let name = t.names.push(&def.name);
        let flags = flags(def.visibility, def.is_static, false);
        let rec = [name, def.declaring.index() as u32, def.ty.index() as u32, flags];
        t.fields.make_mut().push(rec);
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

    /// Bytes held by the API: the type table, the member arrays (owned
    /// or borrowed), and the per-type indexes.
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
}

impl Default for Api {
    fn default() -> Self {
        Api::new()
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

    /// `api`'s members stored and loaded back, after `edit` tampers with
    /// the arrays.
    fn reload(
        api: &Api,
        edit: impl FnOnce(&mut NameArena, &mut MemberArrays),
    ) -> Result<Api, ApiError> {
        let mut names = NameArena::default();
        let mut a = api.members_to_arrays(|s| names.push(s));
        edit(&mut names, &mut a);
        Api::from_slabs(
            api.types().clone(),
            names,
            Slab::from_vec(a.methods),
            Slab::from_vec(a.params),
            Slab::from_vec(a.param_names),
            Slab::from_vec(a.fields),
        )
    }

    #[test]
    fn stored_members_are_checked_like_single_adds() {
        let (mut api, reader, buffered, string) = tiny_api();
        api.add_method(MethodDef {
            name: "read".into(),
            declaring: buffered,
            params: vec![reader, string],
            param_names: vec![None, Some("in".into())],
            ret: string,
            visibility: Visibility::Protected,
            is_static: true,
            is_constructor: false,
        })
        .unwrap();
        api.add_method(inst("close", reader, vec![], string)).unwrap();
        api.add_method(inst("open", reader, vec![], string)).unwrap();
        api.add_field(FieldDef {
            name: "lock".into(),
            declaring: reader,
            ty: string,
            visibility: Visibility::Private,
            is_static: true,
        })
        .unwrap();
        let loaded = reload(&api, |_, _| {}).unwrap();
        for m in api.method_ids() {
            assert_eq!(loaded.method(m), api.method(m));
        }
        assert_eq!(loaded.field(FieldId(0)), api.field(FieldId(0)));
        assert_eq!(loaded.methods_of(buffered), [MethodId(0)]);
        assert_eq!(loaded.methods_of(reader), [MethodId(1), MethodId(2)]);

        type Edit = fn(&mut NameArena, &mut MemberArrays);
        let edits: [(&str, Edit); 11] = [
            ("name id", |n, a| a.methods[0][NAME] = n.len() as u32),
            ("parameter name id", |n, a| a.param_names[1] = n.len() as u32),
            ("declaring type", |_, a| a.methods[0][DECLARING] = 99),
            ("declared on a primitive", |_, a| a.methods[0][DECLARING] = 4),
            ("void parameter", |_, a| a.params[0] = TyId::from_index(0)),
            ("unknown flag", |_, a| a.methods[0][METHOD_FLAGS] |= 1 << 7),
            ("fourth visibility", |_, a| a.fields[0][FIELD_FLAGS] = VISIBILITY),
            ("decreasing end", |_, a| a.methods[1][PARAMS_END] = 1),
            ("overrunning end", |_, a| a.methods[2][NAMES_END] = 3),
            ("null field", |_, a| a.fields[0][TYPE] = 1),
            ("field type", |_, a| a.fields[0][TYPE] = 99),
        ];
        for (why, edit) in edits {
            assert!(matches!(reload(&api, edit), Err(ApiError::InvalidMember { .. })), "{why}");
        }
        // `open` renamed to a second `close`, spelled through another id.
        let dup = reload(&api, |n, a| a.methods[2][NAME] = n.push("close"));
        assert!(matches!(dup, Err(ApiError::DuplicateMember { .. })));
    }
}
