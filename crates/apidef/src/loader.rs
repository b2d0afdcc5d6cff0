//! The `.api` stub format: a compact, Java-like way to declare an API's
//! signatures by hand.
//!
//! ```text
//! package org.eclipse.jdt.core;
//!
//! public interface ICompilationUnit extends IJavaElement {}
//!
//! public class JavaCore {
//!     static ICompilationUnit createCompilationUnitFrom(IFile file);
//! }
//! ```
//!
//! Rules:
//!
//! * `package` applies to the declarations that follow it, until the next
//!   `package` line in the same file;
//! * members default to `public`; `static`, `protected`, `private` are
//!   honored; `final`/`abstract` are accepted and ignored;
//! * a member whose name equals the enclosing class's simple name and that
//!   has no return type is a constructor;
//! * parameter names are optional;
//! * member types may be simple names (resolved globally, must be
//!   unambiguous), qualified names, primitives, `void` (returns only), and
//!   arrays (`String[]`).
//!
//! Loading is two-phase: every source added to the [`ApiLoader`] is parsed
//! immediately, but names are resolved only in [`ApiLoader::finish`], so
//! stub files may reference each other's types in any order.

use jungloid_minijava::lex::{lex, TokKind, Token};
use jungloid_typesys::{Prim, TyId, TypeError, TypeKind};

use crate::{Api, ApiError, FieldDef, MethodDef, Visibility};

/// A minimal `java.lang` every modeled API needs: `Object` (hierarchy
/// root), `String`, and `Class`.
///
/// `Object.toString()` is included deliberately: it gives every type a
/// short jungloid to `String`, the same distractor mass real J2SE has.
/// `Object.getClass()` is *not* modeled: reflection is outside the static
/// model, consistent with the paper's treatment of reflective object
/// creation (§4.1).
pub const PRELUDE: &str = r"
package java.lang;

public class Object {
    String toString();
    boolean equals(Object other);
    int hashCode();
}

public class String {
    int length();
}

public class Class {
    String getName();
}
";

#[derive(Clone, Debug)]
struct RawType {
    parts: Vec<String>,
    dims: usize,
}

impl RawType {
    fn render(&self) -> String {
        let mut s = self.parts.join(".");
        for _ in 0..self.dims {
            s.push_str("[]");
        }
        s
    }
}

#[derive(Clone, Debug)]
enum RawMember {
    Method {
        vis: Visibility,
        is_static: bool,
        ret: RawType,
        name: String,
        params: Vec<(RawType, Option<String>)>,
    },
    Ctor { vis: Visibility, params: Vec<(RawType, Option<String>)> },
    Field { vis: Visibility, is_static: bool, ty: RawType, name: String },
}

#[derive(Clone, Debug)]
struct RawDecl {
    file: String,
    package: String,
    kind: TypeKind,
    name: String,
    extends: Vec<RawType>,
    implements: Vec<RawType>,
    members: Vec<RawMember>,
}

/// Accumulates parsed `.api` sources, then resolves them into an [`Api`].
#[derive(Debug, Default)]
pub struct ApiLoader {
    decls: Vec<RawDecl>,
}

impl ApiLoader {
    /// An empty loader. Most callers want [`ApiLoader::with_prelude`].
    #[must_use]
    pub fn new() -> Self {
        ApiLoader::default()
    }

    /// A loader pre-seeded with [`PRELUDE`] (`java.lang.Object` & co.).
    #[must_use]
    pub fn with_prelude() -> Self {
        let mut loader = ApiLoader::new();
        loader.add_source("<prelude>", PRELUDE).expect("prelude parses");
        loader
    }

    /// Parses one stub source.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Syntax`] for lex/parse failures. Name resolution
    /// is deferred to [`ApiLoader::finish`].
    pub fn add_source(&mut self, file: &str, text: &str) -> Result<&mut Self, ApiError> {
        let tokens = lex(text).map_err(|e| ApiError::Syntax {
            file: file.to_owned(),
            line: e.line,
            col: e.col,
            message: e.message,
        })?;
        let mut parser = StubParser { file, toks: tokens, pos: 0 };
        let decls = parser.file()?;
        self.decls.extend(decls);
        Ok(self)
    }

    /// Resolves all parsed declarations into an [`Api`].
    ///
    /// # Errors
    ///
    /// Duplicate types, unknown or ambiguous names, hierarchy violations,
    /// and duplicate members are reported with the offending file's label.
    pub fn finish(self) -> Result<Api, ApiError> {
        let mut api = Api::new();
        // Phase 1: declare all types.
        let mut ids = Vec::with_capacity(self.decls.len());
        for d in &self.decls {
            let id = api
                .types_mut()
                .declare(&d.package, &d.name, d.kind)
                .map_err(|cause| ApiError::Resolve { file: d.file.clone(), cause })?;
            ids.push(id);
        }
        // Phase 2: hierarchy.
        for (d, &id) in self.decls.iter().zip(&ids) {
            match d.kind {
                TypeKind::Class => {
                    if d.extends.len() > 1 {
                        return Err(ApiError::Syntax {
                            file: d.file.clone(),
                            line: 0,
                            col: 0,
                            message: format!("class `{}` extends more than one class", d.name),
                        });
                    }
                    if let Some(sup) = d.extends.first() {
                        let sup_id = resolve_decl_name(&api, &d.file, sup)?;
                        api.types_mut()
                            .set_superclass(id, sup_id)
                            .map_err(|cause| ApiError::Resolve { file: d.file.clone(), cause })?;
                    }
                    for iface in &d.implements {
                        let i = resolve_decl_name(&api, &d.file, iface)?;
                        api.types_mut()
                            .add_interface(id, i)
                            .map_err(|cause| ApiError::Resolve { file: d.file.clone(), cause })?;
                    }
                }
                TypeKind::Interface => {
                    for iface in d.extends.iter().chain(&d.implements) {
                        let i = resolve_decl_name(&api, &d.file, iface)?;
                        api.types_mut()
                            .add_interface(id, i)
                            .map_err(|cause| ApiError::Resolve { file: d.file.clone(), cause })?;
                    }
                }
            }
        }
        // Phase 3: members.
        for (d, &id) in self.decls.iter().zip(&ids) {
            for m in &d.members {
                match m {
                    RawMember::Method { vis, is_static, ret, name, params } => {
                        let ret = resolve_member_type(&mut api, &d.file, ret, true)?;
                        let param_names = params.iter().map(|(_, n)| n.clone()).collect();
                        let params = params
                            .iter()
                            .map(|(p, _)| resolve_member_type(&mut api, &d.file, p, false))
                            .collect::<Result<Vec<_>, _>>()?;
                        api.add_method(MethodDef {
                            name: name.clone(),
                            declaring: id,
                            params,
                            param_names,
                            ret,
                            visibility: *vis,
                            is_static: *is_static,
                            is_constructor: false,
                        })?;
                    }
                    RawMember::Ctor { vis, params } => {
                        let param_names = params.iter().map(|(_, n)| n.clone()).collect();
                        let params = params
                            .iter()
                            .map(|(p, _)| resolve_member_type(&mut api, &d.file, p, false))
                            .collect::<Result<Vec<_>, _>>()?;
                        api.add_method(MethodDef {
                            name: "<init>".to_owned(),
                            declaring: id,
                            params,
                            param_names,
                            ret: id,
                            visibility: *vis,
                            is_static: false,
                            is_constructor: true,
                        })?;
                    }
                    RawMember::Field { vis, is_static, ty, name } => {
                        let ty = resolve_member_type(&mut api, &d.file, ty, false)?;
                        api.add_field(FieldDef {
                            name: name.clone(),
                            declaring: id,
                            ty,
                            visibility: *vis,
                            is_static: *is_static,
                        })?;
                    }
                }
            }
        }
        Ok(api)
    }
}

fn resolve_decl_name(api: &Api, file: &str, raw: &RawType) -> Result<TyId, ApiError> {
    if raw.dims != 0 {
        return Err(ApiError::Resolve {
            file: file.to_owned(),
            cause: TypeError::UnknownType { name: raw.render() },
        });
    }
    api.types()
        .resolve(&raw.parts.join("."))
        .map_err(|cause| ApiError::Resolve { file: file.to_owned(), cause })
}

fn resolve_member_type(
    api: &mut Api,
    file: &str,
    raw: &RawType,
    allow_void: bool,
) -> Result<TyId, ApiError> {
    let base = if raw.parts.len() == 1 {
        let word = raw.parts[0].as_str();
        if word == "void" {
            if !allow_void || raw.dims != 0 {
                return Err(ApiError::InvalidMember {
                    detail: format!("{file}: `void` is only valid as a return type"),
                });
            }
            return Ok(api.types().void());
        } else if let Some(p) = Prim::from_keyword(word) {
            api.types().prim(p)
        } else {
            api.types()
                .resolve(word)
                .map_err(|cause| ApiError::Resolve { file: file.to_owned(), cause })?
        }
    } else {
        api.types()
            .resolve(&raw.parts.join("."))
            .map_err(|cause| ApiError::Resolve { file: file.to_owned(), cause })?
    };
    let mut ty = base;
    for _ in 0..raw.dims {
        ty = api.types_mut().array_of(ty);
    }
    Ok(ty)
}

struct StubParser<'a> {
    file: &'a str,
    toks: Vec<Token>,
    pos: usize,
}

impl StubParser<'_> {
    fn peek(&self) -> &TokKind {
        &self.toks[self.pos].kind
    }

    fn peek_at(&self, n: usize) -> &TokKind {
        let i = (self.pos + n).min(self.toks.len() - 1);
        &self.toks[i].kind
    }

    fn bump(&mut self) -> TokKind {
        let k = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    fn err(&self, message: String) -> ApiError {
        let t = &self.toks[self.pos];
        ApiError::Syntax { file: self.file.to_owned(), line: t.line, col: t.col, message }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ApiError> {
        if *self.peek() == TokKind::Punct(c) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected `{c}`, found {}", self.peek())))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ApiError> {
        if matches!(self.peek(), TokKind::Ident(_)) {
            let TokKind::Ident(s) = self.bump() else { unreachable!() };
            Ok(s)
        } else {
            Err(self.err(format!("expected identifier, found {}", self.peek())))
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        self.peek().as_ident() == Some(kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn is_punct(&self, n: usize, c: char) -> bool {
        *self.peek_at(n) == TokKind::Punct(c)
    }

    fn dotted(&mut self) -> Result<Vec<String>, ApiError> {
        let mut parts = vec![self.expect_ident()?];
        while self.is_punct(0, '.') && matches!(self.peek_at(1), TokKind::Ident(_)) {
            self.bump();
            parts.push(self.expect_ident()?);
        }
        Ok(parts)
    }

    fn raw_type(&mut self) -> Result<RawType, ApiError> {
        let parts = self.dotted()?;
        let mut dims = 0;
        while self.is_punct(0, '[') && self.is_punct(1, ']') {
            self.bump();
            self.bump();
            dims += 1;
        }
        Ok(RawType { parts, dims })
    }

    fn modifiers(&mut self) -> (Visibility, bool) {
        let mut vis = Visibility::Public;
        let mut is_static = false;
        loop {
            if self.eat_kw("public") {
                vis = Visibility::Public;
            } else if self.eat_kw("protected") {
                vis = Visibility::Protected;
            } else if self.eat_kw("private") {
                vis = Visibility::Private;
            } else if self.eat_kw("static") {
                is_static = true;
            } else if self.at_kw("final") || self.at_kw("abstract") {
                self.bump();
            } else {
                return (vis, is_static);
            }
        }
    }

    fn file(&mut self) -> Result<Vec<RawDecl>, ApiError> {
        let mut package = String::new();
        let mut decls = Vec::new();
        loop {
            if matches!(self.peek(), TokKind::Eof) {
                return Ok(decls);
            }
            if self.eat_kw("package") {
                package = self.dotted()?.join(".");
                self.expect_punct(';')?;
                continue;
            }
            decls.push(self.type_decl(&package)?);
        }
    }

    fn type_decl(&mut self, package: &str) -> Result<RawDecl, ApiError> {
        self.modifiers();
        let kind = if self.eat_kw("class") {
            TypeKind::Class
        } else if self.eat_kw("interface") {
            TypeKind::Interface
        } else {
            return Err(self.err(format!("expected `class` or `interface`, found {}", self.peek())));
        };
        let name = self.expect_ident()?;
        let mut extends = Vec::new();
        if self.eat_kw("extends") {
            extends.push(self.raw_type()?);
            while self.is_punct(0, ',') {
                self.bump();
                extends.push(self.raw_type()?);
            }
        }
        let mut implements = Vec::new();
        if self.eat_kw("implements") {
            implements.push(self.raw_type()?);
            while self.is_punct(0, ',') {
                self.bump();
                implements.push(self.raw_type()?);
            }
        }
        self.expect_punct('{')?;
        let mut members = Vec::new();
        while !self.is_punct(0, '}') {
            members.push(self.member(&name)?);
        }
        self.expect_punct('}')?;
        Ok(RawDecl {
            file: self.file.to_owned(),
            package: package.to_owned(),
            kind,
            name,
            extends,
            implements,
            members,
        })
    }

    fn member(&mut self, class_name: &str) -> Result<RawMember, ApiError> {
        let (vis, is_static) = self.modifiers();
        // Constructor: `Name(` with Name == enclosing simple name.
        if self.peek().as_ident() == Some(class_name) && self.is_punct(1, '(') {
            self.bump();
            let params = self.params()?;
            self.expect_punct(';')?;
            return Ok(RawMember::Ctor { vis, params });
        }
        let ty = if self.at_kw("void") {
            self.bump();
            RawType { parts: vec!["void".to_owned()], dims: 0 }
        } else {
            self.raw_type()?
        };
        let name = self.expect_ident()?;
        if self.is_punct(0, '(') {
            let params = self.params()?;
            self.expect_punct(';')?;
            Ok(RawMember::Method { vis, is_static, ret: ty, name, params })
        } else {
            self.expect_punct(';')?;
            Ok(RawMember::Field { vis, is_static, ty, name })
        }
    }

    fn params(&mut self) -> Result<Vec<(RawType, Option<String>)>, ApiError> {
        self.expect_punct('(')?;
        let mut params = Vec::new();
        if !self.is_punct(0, ')') {
            loop {
                let ty = self.raw_type()?;
                // Optional parameter name.
                let name = if matches!(self.peek(), TokKind::Ident(_)) {
                    let TokKind::Ident(n) = self.bump() else { unreachable!() };
                    Some(n)
                } else {
                    None
                };
                params.push((ty, name));
                if self.is_punct(0, ',') {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect_punct(')')?;
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(sources: &[(&str, &str)]) -> Api {
        let mut loader = ApiLoader::with_prelude();
        for (file, text) in sources {
            loader.add_source(file, text).unwrap();
        }
        loader.finish().unwrap()
    }

    #[test]
    fn prelude_alone() {
        let api = ApiLoader::with_prelude().finish().unwrap();
        let object = api.types().resolve("java.lang.Object").unwrap();
        assert_eq!(api.types().object(), Some(object));
        assert_eq!(api.lookup_instance_method(object, "toString", 0).len(), 1);
    }

    #[test]
    fn classes_methods_fields_ctors() {
        let api = load(&[(
            "io.api",
            r#"
            package java.io;
            public class InputStream {}
            public class Reader {}
            public class InputStreamReader extends Reader {
                InputStreamReader(InputStream in);
            }
            public class BufferedReader extends Reader {
                BufferedReader(Reader in);
                BufferedReader(Reader in, int sz);
                String readLine();
                protected Object lock;
            }
            "#,
        )]);
        let br = api.types().resolve("BufferedReader").unwrap();
        let reader = api.types().resolve("Reader").unwrap();
        assert!(api.types().is_subtype(br, reader));
        assert_eq!(api.constructors_of(br).len(), 2);
        assert_eq!(api.lookup_instance_method(br, "readLine", 0).len(), 1);
        let lock = api.lookup_field(br, "lock").unwrap();
        assert_eq!(api.field(lock).visibility(), Visibility::Protected);
    }

    #[test]
    fn interfaces_and_cross_file_refs() {
        let api = load(&[
            (
                "a.api",
                r"
                package p;
                public interface IBase {}
                public interface IChild extends IBase {
                    q.Impl make();
                }
                ",
            ),
            (
                "b.api",
                r"
                package q;
                public class Impl implements p.IChild {
                    Impl();
                }
                ",
            ),
        ]);
        let ibase = api.types().resolve("IBase").unwrap();
        let impl_ = api.types().resolve("Impl").unwrap();
        assert!(api.types().is_subtype(impl_, ibase));
        let ichild = api.types().resolve("IChild").unwrap();
        assert_eq!(api.lookup_instance_method(ichild, "make", 0).len(), 1);
    }

    #[test]
    fn arrays_void_prims_and_statics() {
        let api = load(&[(
            "x.api",
            r"
            package x;
            public class Table {
                static Table[] all();
                int[] widths();
                void clear();
                static int count;
            }
            ",
        )]);
        let table = api.types().resolve("Table").unwrap();
        let all = api.lookup_static_method(table, "all", 0)[0];
        let arr = api.method(all).ret();
        assert!(matches!(api.types().ty(arr), jungloid_typesys::Ty::Array(e) if e == table));
        let clear = api.lookup_instance_method(table, "clear", 0)[0];
        assert_eq!(api.method(clear).ret(), api.types().void());
    }

    #[test]
    fn unresolved_and_ambiguous_names_fail() {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source("x.api", "package x; public class A { Missing m(); }")
            .unwrap();
        assert!(matches!(loader.finish(), Err(ApiError::Resolve { .. })));

        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "y.api",
                "package a; public class X {} package b; public class X {} package c; public class U { X m(); }",
            )
            .unwrap();
        assert!(matches!(loader.finish(), Err(ApiError::Resolve { .. })));
    }

    #[test]
    fn void_in_bad_positions_rejected() {
        let mut loader = ApiLoader::with_prelude();
        loader.add_source("x.api", "package x; public class A { void f; }").unwrap();
        assert!(loader.finish().is_err());

        let mut loader = ApiLoader::with_prelude();
        loader.add_source("x.api", "package x; public class A { String m(void v); }").unwrap();
        assert!(loader.finish().is_err());
    }

    #[test]
    fn syntax_errors_located() {
        let mut loader = ApiLoader::new();
        let err = loader.add_source("bad.api", "package p; class { }").unwrap_err();
        match err {
            ApiError::Syntax { file, line, .. } => {
                assert_eq!(file, "bad.api");
                assert_eq!(line, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_member_reported() {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source("x.api", "package x; public class A { String m(); String m(); }")
            .unwrap();
        assert!(matches!(loader.finish(), Err(ApiError::DuplicateMember { .. })));
    }

    #[test]
    fn parameter_names_optional() {
        let api = load(&[(
            "x.api",
            "package x; public class A { A(String, int count); String cat(A other, A); }",
        )]);
        let a = api.types().resolve("x.A").unwrap();
        assert_eq!(api.lookup_constructor(a, 2).len(), 1);
        assert_eq!(api.lookup_instance_method(a, "cat", 2).len(), 1);
    }
}
