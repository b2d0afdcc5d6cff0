//! Lowering: MiniJava ASTs → a resolved, typed IR the miner can walk.

use std::collections::HashMap;

use jungloid_apidef::{Api, FieldId, MethodId};
use jungloid_minijava::ast::{Expr, Lit, Stmt, TypeName, Unit};
use jungloid_typesys::{Prim, Ty, TyId, TypeKind};

/// A resolution/typing failure while lowering client code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LowerError {
    /// File label.
    pub file: String,
    /// Enclosing `Class.method`, when known.
    pub context: String,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}): {}", self.file, self.context, self.message)
    }
}

impl std::error::Error for LowerError {}

/// A typed IR value: an expression with every name resolved.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Val {
    /// Static type of the value.
    pub ty: TyId,
    /// Structure.
    pub kind: ValKind,
}

/// IR value kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValKind {
    /// A local variable or parameter of the enclosing method.
    Var(String),
    /// `new C(args)`.
    New {
        /// Resolved constructor.
        ctor: MethodId,
        /// Lowered arguments.
        args: Vec<Val>,
    },
    /// A call to an API method (static when `recv` is `None` and the
    /// method is static).
    ApiCall {
        /// Resolved method.
        method: MethodId,
        /// Lowered receiver for instance calls.
        recv: Option<Box<Val>>,
        /// Lowered arguments.
        args: Vec<Val>,
    },
    /// A call to a client (corpus) method — always inlined by the miner.
    ClientCall {
        /// Index into [`LoweredCorpus::classes`].
        class_idx: usize,
        /// Index into that class's `methods`.
        method_idx: usize,
        /// Lowered arguments.
        args: Vec<Val>,
    },
    /// `C.f` static field read.
    StaticField(FieldId),
    /// `v.f` instance field read.
    GetField {
        /// Lowered receiver.
        recv: Box<Val>,
        /// Resolved field.
        field: FieldId,
    },
    /// `(T) v`.
    Cast {
        /// Target type (== `self.ty`).
        to: TyId,
        /// Operand.
        val: Box<Val>,
    },
    /// A string literal.
    Str,
    /// An integer literal.
    Int,
    /// A boolean literal.
    Bool,
    /// `null`.
    Null,
    /// `T.class`.
    ClassLit,
}

/// One lowered client method.
#[derive(Clone, Debug)]
pub struct ClientMethod {
    /// Method name.
    pub name: String,
    /// Whether declared `static`.
    pub is_static: bool,
    /// `(name, type)` parameters.
    pub params: Vec<(String, TyId)>,
    /// Return type (`None` for constructors and `void`).
    pub ret: Option<TyId>,
    /// Flow-insensitive definition map: variable → all values assigned
    /// anywhere in the body.
    pub defs: HashMap<String, Vec<Val>>,
    /// All `return e;` values.
    pub returns: Vec<Val>,
    /// Every cast value occurring anywhere in the body (mining seeds).
    pub casts: Vec<Val>,
    /// Values of expression statements (calls for effect) — consulted by
    /// the §4.3 parameter miner, which needs every API call site.
    pub stmt_vals: Vec<Val>,
}

/// One lowered client class.
#[derive(Clone, Debug)]
pub struct ClientClass {
    /// The type-table id assigned to this client class.
    pub ty: TyId,
    /// Simple name.
    pub name: String,
    /// Source file.
    pub file: String,
    /// Lowered methods.
    pub methods: Vec<ClientMethod>,
}

/// A call site of a client method, recorded for parameter jumps.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Class of the *calling* method (for variable lookups in `args`).
    pub caller_class: usize,
    /// Method index of the caller.
    pub caller_method: usize,
    /// Lowered argument values.
    pub args: Vec<Val>,
}

/// The fully lowered corpus.
#[derive(Debug, Default)]
pub struct LoweredCorpus {
    /// Client classes in declaration order.
    pub classes: Vec<ClientClass>,
    class_by_ty: HashMap<TyId, usize>,
    /// `(callee class, callee method) → call sites`.
    call_sites: HashMap<(usize, usize), Vec<CallSite>>,
}

impl LoweredCorpus {
    /// Lowers parsed units against `api`. Client classes are declared into
    /// the API's type table (packaged as in their source files) so that
    /// inheritance from API types and client-typed locals resolve; client
    /// classes contribute no API members.
    ///
    /// # Errors
    ///
    /// Any unresolved name, unknown method/field, or type mismatch aborts
    /// lowering with a [`LowerError`] naming the offending method.
    pub fn lower(api: &mut Api, units: &[Unit]) -> Result<Self, LowerError> {
        let mut corpus = LoweredCorpus::default();
        // Pass 1a: declare all client class types.
        let mut declared: Vec<(usize, usize, TyId)> = Vec::new(); // (unit, class, ty)
        for (ui, unit) in units.iter().enumerate() {
            for (ci, class) in unit.classes.iter().enumerate() {
                let pkg = unit.package.clone().unwrap_or_default();
                let ty = api
                    .types_mut()
                    .declare(&pkg, &class.name, TypeKind::Class)
                    .map_err(|e| LowerError {
                        file: unit.file.clone(),
                        context: class.name.clone(),
                        message: e.to_string(),
                    })?;
                declared.push((ui, ci, ty));
            }
        }
        // Pass 1b: hierarchy + method signatures.
        for &(ui, ci, ty) in &declared {
            let unit = &units[ui];
            let class = &unit.classes[ci];
            let ctx = |m: &str| LowerError {
                file: unit.file.clone(),
                context: class.name.clone(),
                message: m.to_owned(),
            };
            if let Some(sup) = &class.extends {
                let sup_ty = resolve_type_name(api, sup).map_err(|m| ctx(&m))?;
                api.types_mut().set_superclass(ty, sup_ty).map_err(|e| ctx(&e.to_string()))?;
            }
            for iface in &class.implements {
                let i = resolve_type_name(api, iface).map_err(|m| ctx(&m))?;
                api.types_mut().add_interface(ty, i).map_err(|e| ctx(&e.to_string()))?;
            }
            let mut methods = Vec::new();
            for m in &class.methods {
                let params = m
                    .params
                    .iter()
                    .map(|(t, n)| Ok((n.clone(), resolve_type_name(api, t).map_err(|msg| ctx(&msg))?)))
                    .collect::<Result<Vec<_>, LowerError>>()?;
                let ret = match &m.ret {
                    None => None, // constructor
                    Some(t) if t.parts == ["void"] && t.dims == 0 => None,
                    Some(t) => Some(resolve_type_name(api, t).map_err(|msg| ctx(&msg))?),
                };
                methods.push(ClientMethod {
                    name: m.name.clone(),
                    is_static: m.is_static(),
                    params,
                    ret,
                    defs: HashMap::new(),
                    returns: Vec::new(),
                    casts: Vec::new(),
                    stmt_vals: Vec::new(),
                });
            }
            corpus.class_by_ty.insert(ty, corpus.classes.len());
            corpus.classes.push(ClientClass {
                ty,
                name: class.name.clone(),
                file: unit.file.clone(),
                methods,
            });
        }
        // Pass 2: lower bodies.
        for (global_idx, &(ui, ci, _ty)) in declared.iter().enumerate() {
            let unit = &units[ui];
            let class = &unit.classes[ci];
            for (mi, m) in class.methods.iter().enumerate() {
                let lowered = {
                    let mut ctx = MethodCx {
                        api,
                        corpus: &corpus,
                        file: &unit.file,
                        class_idx: global_idx,
                        context: format!("{}.{}", class.name, m.name),
                        locals: corpus.classes[global_idx]
                            .methods[mi]
                            .params
                            .iter()
                            .cloned()
                            .collect(),
                        defs: HashMap::new(),
                        returns: Vec::new(),
                        casts: Vec::new(),
                        stmt_vals: Vec::new(),
                        sites: Vec::new(),
                    };
                    for stmt in &m.body {
                        ctx.lower_stmt(stmt)?;
                    }
                    (ctx.defs, ctx.returns, ctx.casts, ctx.stmt_vals, ctx.sites)
                };
                let (defs, returns, casts, stmt_vals, sites) = lowered;
                {
                    let cm = &mut corpus.classes[global_idx].methods[mi];
                    cm.defs = defs;
                    cm.returns = returns;
                    cm.casts = casts;
                    cm.stmt_vals = stmt_vals;
                }
                for (callee, args) in sites {
                    corpus.call_sites.entry(callee).or_default().push(CallSite {
                        caller_class: global_idx,
                        caller_method: mi,
                        args,
                    });
                }
            }
        }
        Ok(corpus)
    }

    /// The client class backing a type id, if any.
    #[must_use]
    pub fn class_of_ty(&self, ty: TyId) -> Option<usize> {
        self.class_by_ty.get(&ty).copied()
    }

    /// Call sites of a client method.
    #[must_use]
    pub fn call_sites(&self, class_idx: usize, method_idx: usize) -> &[CallSite] {
        self.call_sites.get(&(class_idx, method_idx)).map_or(&[], Vec::as_slice)
    }

    /// Client methods named `name`/`arity` declared on client subclasses
    /// of `recv_ty` (the CHA dispatch approximation for inlining).
    #[must_use]
    pub fn client_overrides(
        &self,
        api: &Api,
        recv_ty: TyId,
        name: &str,
        arity: usize,
    ) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (ci, class) in self.classes.iter().enumerate() {
            if api.types().is_subtype(class.ty, recv_ty) || api.types().is_subtype(recv_ty, class.ty) {
                for (mi, m) in class.methods.iter().enumerate() {
                    if !m.is_static && m.name == name && m.params.len() == arity {
                        out.push((ci, mi));
                    }
                }
            }
        }
        out
    }

    /// Total number of cast seeds in the corpus.
    #[must_use]
    pub fn cast_count(&self) -> usize {
        self.classes.iter().flat_map(|c| &c.methods).map(|m| m.casts.len()).sum()
    }
}

/// Resolves a source type name (simple, qualified, primitive, array)
/// against the API's type table.
fn resolve_type_name(api: &mut Api, t: &TypeName) -> Result<TyId, String> {
    let base = if t.parts.len() == 1 {
        let word = t.parts[0].as_str();
        if word == "void" {
            return Err("`void` is not a value type".to_owned());
        }
        if let Some(p) = Prim::from_keyword(word) {
            api.types().prim(p)
        } else {
            api.types().resolve(word).map_err(|e| e.to_string())?
        }
    } else {
        api.types().resolve(&t.parts.join(".")).map_err(|e| e.to_string())?
    };
    let mut ty = base;
    for _ in 0..t.dims {
        ty = api.types_mut().array_of(ty);
    }
    Ok(ty)
}

/// Per-method lowering context.
struct MethodCx<'a> {
    api: &'a Api,
    corpus: &'a LoweredCorpus,
    file: &'a str,
    class_idx: usize,
    context: String,
    locals: HashMap<String, TyId>,
    defs: HashMap<String, Vec<Val>>,
    returns: Vec<Val>,
    casts: Vec<Val>,
    stmt_vals: Vec<Val>,
    /// Client call sites found in this body: (callee, args).
    sites: Vec<((usize, usize), Vec<Val>)>,
}

impl MethodCx<'_> {
    fn err(&self, message: String) -> LowerError {
        LowerError { file: self.file.to_owned(), context: self.context.clone(), message }
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> Result<(), LowerError> {
        match stmt {
            Stmt::Local { ty, name, init } => {
                let declared = self
                    .resolve_type(ty)
                    .map_err(|m| self.err(format!("in declaration of `{name}`: {m}")))?;
                self.locals.insert(name.clone(), declared);
                if let Some(init) = init {
                    let v = self.lower_expr(init)?;
                    self.check_assignable(&v, declared, name)?;
                    self.defs.entry(name.clone()).or_default().push(v);
                }
                Ok(())
            }
            Stmt::Assign { name, value } => {
                let Some(&declared) = self.locals.get(name) else {
                    return Err(self.err(format!("assignment to undeclared variable `{name}`")));
                };
                let v = self.lower_expr(value)?;
                self.check_assignable(&v, declared, name)?;
                self.defs.entry(name.clone()).or_default().push(v);
                Ok(())
            }
            Stmt::Return(Some(e)) => {
                let v = self.lower_expr(e)?;
                self.returns.push(v);
                Ok(())
            }
            Stmt::Return(None) => Ok(()),
            Stmt::If { cond, then, els } => {
                // Flow-insensitive: both arms contribute to the same
                // definition pool; the condition is lowered for its casts
                // and call sites.
                if let Ok(v) = self.lower_expr(cond) {
                    self.stmt_vals.push(v);
                }
                for st in then {
                    self.lower_stmt(st)?;
                }
                if let Some(els) = els {
                    for st in els {
                        self.lower_stmt(st)?;
                    }
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                if let Ok(v) = self.lower_expr(cond) {
                    self.stmt_vals.push(v);
                }
                for st in body {
                    self.lower_stmt(st)?;
                }
                Ok(())
            }
            Stmt::Expr(e) => {
                // Calls for effect (incl. void): lower to index casts and
                // call sites; the value is kept for the §4.3 parameter
                // miner. Best-effort: effect-only statements may not type
                // as values.
                if let Ok(v) = self.lower_expr(e) {
                    self.stmt_vals.push(v);
                }
                Ok(())
            }
        }
    }

    fn check_assignable(&self, v: &Val, declared: TyId, name: &str) -> Result<(), LowerError> {
        if compatible(self.api, v.ty, declared) {
            Ok(())
        } else {
            Err(self.err(format!(
                "cannot assign {} to `{name}: {}`",
                self.api.types().display(v.ty),
                self.api.types().display(declared)
            )))
        }
    }

    fn resolve_type(&self, t: &TypeName) -> Result<TyId, String> {
        // Arrays of not-yet-interned element types cannot be interned here
        // (we hold &Api); the corpora pre-intern arrays via signatures.
        let base = if t.parts.len() == 1 {
            let word = t.parts[0].as_str();
            if let Some(p) = Prim::from_keyword(word) {
                self.api.types().prim(p)
            } else {
                self.api.types().resolve(word).map_err(|e| e.to_string())?
            }
        } else {
            self.api.types().resolve(&t.parts.join(".")).map_err(|e| e.to_string())?
        };
        let mut ty = base;
        for _ in 0..t.dims {
            ty = self
                .api
                .types()
                .strict_subtypes(self.api.types().object().ok_or("no Object")?)
                .into_iter()
                .find(|&a| matches!(self.api.types().ty(a), Ty::Array(e) if e == ty))
                .ok_or_else(|| format!("array type {}[] not interned by any signature", t))?;
        }
        Ok(ty)
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<Val, LowerError> {
        match e {
            Expr::Lit(Lit::Int(_)) => {
                Ok(Val { ty: self.api.types().prim(Prim::Int), kind: ValKind::Int })
            }
            Expr::Lit(Lit::Bool(_)) => {
                Ok(Val { ty: self.api.types().prim(Prim::Boolean), kind: ValKind::Bool })
            }
            Expr::Lit(Lit::Null) => Ok(Val { ty: self.api.types().null(), kind: ValKind::Null }),
            Expr::Lit(Lit::Str(_)) => {
                let string = self
                    .api
                    .types()
                    .resolve("java.lang.String")
                    .map_err(|e| self.err(e.to_string()))?;
                Ok(Val { ty: string, kind: ValKind::Str })
            }
            Expr::ClassLit { .. } => {
                let class = self
                    .api
                    .types()
                    .resolve("java.lang.Class")
                    .map_err(|e| self.err(e.to_string()))?;
                Ok(Val { ty: class, kind: ValKind::ClassLit })
            }
            Expr::Name { parts } => self.lower_name(parts)?.into_value(self),
            Expr::New { class, args } => {
                let ty = self
                    .resolve_type(class)
                    .map_err(|m| self.err(format!("in `new {class}`: {m}")))?;
                let args = args.iter().map(|a| self.lower_expr(a)).collect::<Result<Vec<_>, _>>()?;
                let ctor = self
                    .pick_api_overload(self.api.lookup_constructor(ty, args.len()), &args)
                    .ok_or_else(|| {
                        self.err(format!(
                            "no matching constructor `new {}/{}`",
                            self.api.types().display_simple(ty),
                            args.len()
                        ))
                    })?;
                let cast_sites = collect_casts_of_args(&args);
                self.casts.extend(cast_sites);
                Ok(Val { ty, kind: ValKind::New { ctor, args } })
            }
            Expr::Cast { ty, expr } => {
                let to = self.resolve_type(ty).map_err(|m| self.err(format!("in cast: {m}")))?;
                let val = self.lower_expr(expr)?;
                let v = Val { ty: to, kind: ValKind::Cast { to, val: Box::new(val) } };
                self.casts.push(v.clone());
                Ok(v)
            }
            Expr::Field { recv, name } => {
                let r = self.lower_expr(recv)?;
                let field = self
                    .api
                    .lookup_field(r.ty, name)
                    .filter(|&f| !self.api.field(f).is_static())
                    .ok_or_else(|| {
                        self.err(format!(
                            "no instance field `{name}` on {}",
                            self.api.types().display(r.ty)
                        ))
                    })?;
                Ok(Val {
                    ty: self.api.field(field).ty(),
                    kind: ValKind::GetField { recv: Box::new(r), field },
                })
            }
            Expr::Call { recv, name, args } => self.lower_call(recv.as_deref(), name, args),
            Expr::Binary { op, lhs, rhs } => {
                // Operators never carry object flow; lower the operands so
                // their casts and call sites register, then produce an
                // opaque primitive.
                let _ = self.lower_expr(lhs)?;
                let _ = self.lower_expr(rhs)?;
                if matches!(*op, "+" | "-") {
                    Ok(Val { ty: self.api.types().prim(Prim::Int), kind: ValKind::Int })
                } else {
                    Ok(Val { ty: self.api.types().prim(Prim::Boolean), kind: ValKind::Bool })
                }
            }
            Expr::Not { expr } => {
                let _ = self.lower_expr(expr)?;
                Ok(Val { ty: self.api.types().prim(Prim::Boolean), kind: ValKind::Bool })
            }
        }
    }

    fn lower_call(
        &mut self,
        recv: Option<&Expr>,
        name: &str,
        args: &[Expr],
    ) -> Result<Val, LowerError> {
        let args: Vec<Val> =
            args.iter().map(|a| self.lower_expr(a)).collect::<Result<Vec<_>, _>>()?;
        match recv {
            None => {
                // Receiverless: a method of the enclosing client class, or
                // an API method inherited from its superclass (modeled with
                // an implicit `this` receiver).
                let class = &self.corpus.classes[self.class_idx];
                if let Some(mi) = class
                    .methods
                    .iter()
                    .position(|m| m.name == name && m.params.len() == args.len())
                {
                    return self.client_call(self.class_idx, mi, args, name);
                }
                let self_ty = class.ty;
                if let Some(m) = self
                    .pick_api_overload(self.api.lookup_instance_method(self_ty, name, args.len()), &args)
                {
                    let cast_sites = collect_casts_of_args(&args);
                    self.casts.extend(cast_sites);
                    let def = self.api.method(m);
                    let this = Val { ty: self_ty, kind: ValKind::Var("this".to_owned()) };
                    return Ok(Val {
                        ty: def.ret(),
                        kind: ValKind::ApiCall { method: m, recv: Some(Box::new(this)), args },
                    });
                }
                Err(self.err(format!(
                    "no method `{name}/{}` in class {} or its supertypes",
                    args.len(),
                    self.corpus.classes[self.class_idx].name
                )))
            }
            Some(Expr::Name { parts }) => {
                match self.lower_name(parts)? {
                    Lowered::TypeRef(ty) => {
                        // Static API call or static client call.
                        if let Some(m) = self
                            .pick_api_overload(self.api.lookup_static_method(ty, name, args.len()), &args)
                        {
                            let cast_sites = collect_casts_of_args(&args);
                            self.casts.extend(cast_sites);
                            let def = self.api.method(m);
                            return Ok(Val {
                                ty: def.ret(),
                                kind: ValKind::ApiCall { method: m, recv: None, args },
                            });
                        }
                        if let Some(ci) = self.corpus.class_of_ty(ty) {
                            if let Some(mi) = self.corpus.classes[ci]
                                .methods
                                .iter()
                                .position(|m| m.name == name && m.params.len() == args.len())
                            {
                                return self.client_call(ci, mi, args, name);
                            }
                        }
                        Err(self.err(format!(
                            "no static method `{name}/{}` on {}",
                            args.len(),
                            self.api.types().display(ty)
                        )))
                    }
                    lowered => {
                        let r = lowered.into_value(self)?;
                        self.instance_call(r, name, args)
                    }
                }
            }
            Some(other) => {
                let r = self.lower_expr(other)?;
                self.instance_call(r, name, args)
            }
        }
    }

    fn instance_call(&mut self, recv: Val, name: &str, args: Vec<Val>) -> Result<Val, LowerError> {
        if let Some(m) =
            self.pick_api_overload(self.api.lookup_instance_method(recv.ty, name, args.len()), &args)
        {
            let cast_sites = collect_casts_of_args(&args);
            self.casts.extend(cast_sites);
            let def = self.api.method(m);
            return Ok(Val {
                ty: def.ret(),
                kind: ValKind::ApiCall { method: m, recv: Some(Box::new(recv)), args },
            });
        }
        // A client instance method?
        if let Some(ci) = self.corpus.class_of_ty(recv.ty) {
            if let Some(mi) = self.corpus.classes[ci]
                .methods
                .iter()
                .position(|m| !m.is_static && m.name == name && m.params.len() == args.len())
            {
                return self.client_call(ci, mi, args, name);
            }
        }
        Err(self.err(format!(
            "no method `{name}/{}` on {}",
            args.len(),
            self.api.types().display(recv.ty)
        )))
    }

    fn client_call(
        &mut self,
        class_idx: usize,
        method_idx: usize,
        args: Vec<Val>,
        name: &str,
    ) -> Result<Val, LowerError> {
        let callee = &self.corpus.classes[class_idx].methods[method_idx];
        let Some(ret) = callee.ret else {
            // A void client call is fine as a statement; we record the
            // call site (for parameter jumps) and give it the void type so
            // it cannot be used as a value downstream.
            self.sites.push(((class_idx, method_idx), args.clone()));
            let cast_sites = collect_casts_of_args(&args);
            self.casts.extend(cast_sites);
            return Ok(Val {
                ty: self.api.types().void(),
                kind: ValKind::ClientCall { class_idx, method_idx, args },
            });
        };
        let _ = name;
        self.sites.push(((class_idx, method_idx), args.clone()));
        let cast_sites = collect_casts_of_args(&args);
        self.casts.extend(cast_sites);
        Ok(Val { ty: ret, kind: ValKind::ClientCall { class_idx, method_idx, args } })
    }

    /// Picks the first candidate whose parameters accept the argument
    /// types.
    fn pick_api_overload(&self, candidates: Vec<MethodId>, args: &[Val]) -> Option<MethodId> {
        candidates.into_iter().find(|&m| {
            let def = self.api.method(m);
            def.params().len() == args.len()
                && def.params().iter().zip(args).all(|(&p, a)| compatible(self.api, a.ty, p))
        })
    }

    /// Resolves a dotted name to a variable chain or a type reference.
    fn lower_name(&mut self, parts: &[String]) -> Result<Lowered, LowerError> {
        // Variables shadow types.
        if let Some(&ty) = self.locals.get(&parts[0]) {
            let mut val = Val { ty, kind: ValKind::Var(parts[0].clone()) };
            for name in &parts[1..] {
                let field = self
                    .api
                    .lookup_field(val.ty, name)
                    .filter(|&f| !self.api.field(f).is_static())
                    .ok_or_else(|| {
                        self.err(format!(
                            "no instance field `{name}` on {}",
                            self.api.types().display(val.ty)
                        ))
                    })?;
                val = Val {
                    ty: self.api.field(field).ty(),
                    kind: ValKind::GetField { recv: Box::new(val), field },
                };
            }
            return Ok(Lowered::Value(val));
        }
        // Longest type prefix (qualified or simple).
        for k in (1..=parts.len()).rev() {
            let joined = parts[..k].join(".");
            let Ok(ty) = self.api.types().resolve(&joined) else { continue };
            if k == parts.len() {
                return Ok(Lowered::TypeRef(ty));
            }
            // parts[k] is a static field of `ty`, the rest instance fields.
            let field = self
                .api
                .lookup_field(ty, &parts[k])
                .filter(|&f| self.api.field(f).is_static())
                .ok_or_else(|| {
                    self.err(format!(
                        "no static field `{}` on {}",
                        parts[k],
                        self.api.types().display(ty)
                    ))
                })?;
            let mut val = Val { ty: self.api.field(field).ty(), kind: ValKind::StaticField(field) };
            for name in &parts[k + 1..] {
                let f = self
                    .api
                    .lookup_field(val.ty, name)
                    .filter(|&f| !self.api.field(f).is_static())
                    .ok_or_else(|| {
                        self.err(format!(
                            "no instance field `{name}` on {}",
                            self.api.types().display(val.ty)
                        ))
                    })?;
                val =
                    Val { ty: self.api.field(f).ty(), kind: ValKind::GetField { recv: Box::new(val), field: f } };
            }
            return Ok(Lowered::Value(val));
        }
        Err(self.err(format!("cannot resolve name `{}`", parts.join("."))))
    }
}

/// Whether a value of type `vty` may be supplied where `pty` is expected.
fn compatible(api: &Api, vty: TyId, pty: TyId) -> bool {
    if vty == pty {
        return true;
    }
    if vty == api.types().null() {
        return api.types().is_reference(pty);
    }
    api.types().is_reference(vty) && api.types().is_reference(pty) && api.types().is_subtype(vty, pty)
}

/// Casts may hide inside argument positions; surface them as seeds.
fn collect_casts_of_args(args: &[Val]) -> Vec<Val> {
    let mut out = Vec::new();
    for a in args {
        collect_casts(a, &mut out);
    }
    out
}

fn collect_casts(v: &Val, out: &mut Vec<Val>) {
    match &v.kind {
        ValKind::Cast { val, .. } => {
            out.push(v.clone());
            collect_casts(val, out);
        }
        ValKind::New { args, .. } | ValKind::ClientCall { args, .. } => {
            for a in args {
                collect_casts(a, out);
            }
        }
        ValKind::ApiCall { recv, args, .. } => {
            if let Some(r) = recv {
                collect_casts(r, out);
            }
            for a in args {
                collect_casts(a, out);
            }
        }
        ValKind::GetField { recv, .. } => collect_casts(recv, out),
        _ => {}
    }
}

/// Resolution result for a dotted name.
enum Lowered {
    Value(Val),
    TypeRef(TyId),
}

impl Lowered {
    fn into_value(self, cx: &MethodCx<'_>) -> Result<Val, LowerError> {
        match self {
            Lowered::Value(v) => Ok(v),
            Lowered::TypeRef(ty) => Err(cx.err(format!(
                "type `{}` used as a value",
                cx.api.types().display(ty)
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::ApiLoader;
    use jungloid_minijava::parse::parse_unit;

    fn api() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "ui.api",
                r"
                package ui;
                public interface ISelection { boolean isEmpty(); }
                public interface IStructuredSelection extends ISelection { Object getFirstElement(); }
                public class Viewer { ISelection getSelection(); }
                public interface IDebugView { Viewer getViewer(); Object getAdapter(Class c); }
                public class JavaInspectExpression {}
                public class Registry {
                    static Registry getDefault();
                    Viewer lookup(String key);
                    Viewer cached;
                    static Registry INSTANCE;
                }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    fn lower_src(api: &mut Api, src: &str) -> Result<LoweredCorpus, LowerError> {
        let unit = parse_unit("client.mj", src).unwrap();
        LoweredCorpus::lower(api, &[unit])
    }

    #[test]
    fn figure2_lowering() {
        let mut api = api();
        let corpus = lower_src(
            &mut api,
            r#"
            package corpus;
            class DebugHelper {
                Object selectedWatchExpression(IDebugView debugger) {
                    Viewer viewer = debugger.getViewer();
                    IStructuredSelection sel = (IStructuredSelection) viewer.getSelection();
                    JavaInspectExpression expr = (JavaInspectExpression) sel.getFirstElement();
                    return expr;
                }
            }
            "#,
        )
        .unwrap();
        assert_eq!(corpus.classes.len(), 1);
        let m = &corpus.classes[0].methods[0];
        assert_eq!(m.casts.len(), 2);
        assert_eq!(m.returns.len(), 1);
        assert_eq!(corpus.cast_count(), 2);
        // The first cast's operand is the getSelection() API call.
        let ValKind::Cast { val, .. } = &m.casts[0].kind else { panic!() };
        assert!(matches!(val.kind, ValKind::ApiCall { .. }));
    }

    #[test]
    fn client_classes_enter_the_hierarchy() {
        let mut api = api();
        let corpus = lower_src(
            &mut api,
            r"
            package corpus;
            class MyViewer extends Viewer {
                ISelection current() {
                    MyViewer self = null;
                    return self.getSelection();
                }
            }
            ",
        )
        .unwrap();
        let my = api.types().resolve("MyViewer").unwrap();
        let viewer = api.types().resolve("Viewer").unwrap();
        assert!(api.types().is_subtype(my, viewer));
        assert_eq!(corpus.class_of_ty(my), Some(0));
        // Inherited API method resolved through the hierarchy.
        let m = &corpus.classes[0].methods[0];
        assert!(matches!(
            m.returns[0].kind,
            ValKind::ApiCall { .. }
        ));
    }

    #[test]
    fn flow_insensitive_defs_accumulate() {
        let mut api = api();
        let corpus = lower_src(
            &mut api,
            r#"
            package corpus;
            class Multi {
                Viewer pick(IDebugView a, IDebugView b) {
                    Viewer v = a.getViewer();
                    v = b.getViewer();
                    return v;
                }
            }
            "#,
        )
        .unwrap();
        let m = &corpus.classes[0].methods[0];
        assert_eq!(m.defs["v"].len(), 2);
    }

    #[test]
    fn client_call_sites_recorded_for_param_jumps() {
        let mut api = api();
        let corpus = lower_src(
            &mut api,
            r#"
            package corpus;
            class A {
                ISelection helper(Viewer v) {
                    return v.getSelection();
                }
                ISelection use(IDebugView d) {
                    return helper(d.getViewer());
                }
            }
            "#,
        )
        .unwrap();
        // helper is method 0 of class 0.
        let sites = corpus.call_sites(0, 0);
        assert_eq!(sites.len(), 1);
        assert!(matches!(sites[0].args[0].kind, ValKind::ApiCall { .. }));
    }

    #[test]
    fn static_members_and_field_chains() {
        let mut api = api();
        let corpus = lower_src(
            &mut api,
            r#"
            package corpus;
            class B {
                Viewer viaStatic() {
                    Registry r = Registry.getDefault();
                    return r.cached;
                }
                Viewer viaStaticField() {
                    return Registry.INSTANCE.cached;
                }
            }
            "#,
        )
        .unwrap();
        let m0 = &corpus.classes[0].methods[0];
        assert!(matches!(m0.returns[0].kind, ValKind::GetField { .. }));
        let m1 = &corpus.classes[0].methods[1];
        let ValKind::GetField { recv, .. } = &m1.returns[0].kind else { panic!() };
        assert!(matches!(recv.kind, ValKind::StaticField(_)));
    }

    #[test]
    fn overload_and_literal_args() {
        let mut api = api();
        let corpus = lower_src(
            &mut api,
            r#"
            package corpus;
            class C {
                Viewer go() {
                    Registry r = Registry.getDefault();
                    return r.lookup("viewer-key");
                }
                Object adapt(IDebugView d) {
                    return d.getAdapter(IDebugView.class);
                }
            }
            "#,
        )
        .unwrap();
        assert_eq!(corpus.classes[0].methods.len(), 2);
    }

    #[test]
    fn resolution_errors_are_reported() {
        let mut api = api();
        let err = lower_src(
            &mut api,
            r"
            package corpus;
            class Bad {
                void m(Viewer v) {
                    v.noSuchMethod();
                }
            }
            ",
        );
        // Effect-only statements are lowered best-effort, so the unknown
        // call is tolerated; but a *value* use fails.
        assert!(err.is_ok());
        let mut api2 = api;
        let err2 = lower_src(
            &mut api2,
            r"
            package corpus2;
            class Bad2 {
                Viewer m(Viewer v) {
                    Viewer x = v.noSuchMethod();
                    return x;
                }
            }
            ",
        );
        assert!(err2.is_err());
        assert!(err2.unwrap_err().to_string().contains("noSuchMethod"));
    }

    #[test]
    fn undeclared_assignment_rejected() {
        let mut api = api();
        let err = lower_src(
            &mut api,
            r"
            package corpus;
            class Bad {
                Viewer m(IDebugView d) {
                    x = d.getViewer();
                    return x;
                }
            }
            ",
        );
        assert!(err.is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut api = api();
        let err = lower_src(
            &mut api,
            r"
            package corpus;
            class Bad {
                void m(IDebugView d) {
                    ISelection s = d.getViewer();
                    return;
                }
            }
            ",
        );
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("cannot assign"));
    }

    #[test]
    fn control_flow_pools_definitions() {
        let mut api = api();
        let corpus = lower_src(
            &mut api,
            r#"
            package corpus;
            class Guarded {
                ISelection robust(Viewer v, IDebugView d) {
                    ISelection s = v.getSelection();
                    if (s == null) {
                        s = d.getViewer().getSelection();
                    } else {
                        s = v.getSelection();
                    }
                    while (s.isEmpty()) {
                        s = v.getSelection();
                    }
                    return s;
                }
            }
            "#,
        )
        .unwrap();
        let m = &corpus.classes[0].methods[0];
        // Initializer + both if-arms + while-body: four flow-insensitive defs.
        assert_eq!(m.defs["s"].len(), 4);
        // The conditions were lowered too (they carry potential seeds).
        assert!(!m.stmt_vals.is_empty());
    }

    #[test]
    fn casts_in_branches_are_seeds() {
        let mut api = api();
        let corpus = lower_src(
            &mut api,
            r#"
            package corpus;
            class Branchy {
                Object pick(Viewer v, boolean deep) {
                    if (deep) {
                        IStructuredSelection sel = (IStructuredSelection) v.getSelection();
                        return sel.getFirstElement();
                    }
                    return v.getSelection();
                }
            }
            "#,
        )
        .unwrap();
        assert_eq!(corpus.cast_count(), 1);
    }

    #[test]
    fn casts_inside_arguments_are_seeds() {
        let mut api = api();
        let corpus = lower_src(
            &mut api,
            r#"
            package corpus;
            class D {
                boolean m(Viewer v, Object o) {
                    ISelection s = (ISelection) o;
                    return s.isEmpty();
                }
            }
            "#,
        )
        .unwrap();
        assert_eq!(corpus.cast_count(), 1);
    }
}
