//! Code generation: turning a [`Jungloid`] into insertable Java-ish code.
//!
//! Snippets are built as MiniJava ASTs and rendered with the
//! `jungloid-minijava` pretty printer, so everything Prospector suggests is
//! guaranteed to re-parse. Two renderings are provided, matching the
//! paper's two presentations:
//!
//! * a nested expression (`new BufferedReader(new InputStreamReader(in))`),
//!   used in the ranked suggestion list;
//! * a statement sequence with one local per step (§2.2's translation of
//!   the `IEditorPart` example), used when inserting into user code.
//!
//! Free variables become declared-but-unbound locals, exactly like the
//! paper's `DocumentProviderRegistry dpreg; // free variable`, and the
//! user binds them with follow-up queries.

use std::collections::HashMap;

use jungloid_apidef::{Api, ElemJungloid, InputSlot};
use jungloid_minijava::ast::{Expr, Stmt, TypeName};
use jungloid_minijava::print::{expr_to_string, stmt_to_string};
use jungloid_typesys::{Ty, TyId};

use crate::path::Jungloid;

/// A generated code snippet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snippet {
    /// The input variable, if the jungloid consumes one (`None` for
    /// `void`-sourced jungloids).
    pub input: Option<(String, TyId)>,
    /// Free variables the user still has to bind, with generated names.
    pub free_vars: Vec<(String, TyId)>,
    /// The jungloid as one nested expression.
    pub expr: Expr,
    /// Static type of the expression.
    pub result_ty: TyId,
}

impl Snippet {
    /// The nested-expression rendering.
    #[must_use]
    pub fn code(&self) -> String {
        expr_to_string(&self.expr)
    }

    /// Declarations for the free variables (one `T name;` line each).
    #[must_use]
    pub fn free_var_decls(&self, api: &Api) -> Vec<String> {
        self.free_vars
            .iter()
            .map(|(name, ty)| {
                let stmt = Stmt::Local { ty: ty_to_type_name(api, *ty), name: name.clone(), init: None };
                format!("{} // free variable", stmt_to_string(&stmt))
            })
            .collect()
    }

    /// A full insertable block: free-variable declarations followed by a
    /// declaration of `result_var` initialized to the expression.
    #[must_use]
    pub fn render_block(&self, api: &Api, result_var: &str) -> String {
        let mut out = String::new();
        for line in self.free_var_decls(api) {
            out.push_str(&line);
            out.push('\n');
        }
        let stmt = Stmt::Local {
            ty: ty_to_type_name(api, self.result_ty),
            name: result_var.to_owned(),
            init: Some(self.expr.clone()),
        };
        out.push_str(&stmt_to_string(&stmt));
        out
    }
}

/// Converts a type id to a simple-name MiniJava type name.
#[must_use]
pub fn ty_to_type_name(api: &Api, ty: TyId) -> TypeName {
    let mut dims = 0;
    let mut cur = ty;
    while let Ty::Array(elem) = api.types().ty(cur) {
        dims += 1;
        cur = elem;
    }
    TypeName { parts: vec![api.types().display_simple(cur)], dims }
}

/// Allocates readable, collision-free variable names.
///
/// A pool may be shared across several synthesis calls (the composition
/// engine threads one pool through a whole multi-query solution so
/// sub-snippets never shadow each other's variables).
#[derive(Debug, Default)]
pub struct NamePool {
    used: HashMap<String, u32>,
}

impl NamePool {
    /// A fresh, empty pool.
    #[must_use]
    pub fn new() -> Self {
        NamePool::default()
    }

    /// Marks `name` as taken.
    pub fn reserve(&mut self, name: &str) {
        self.used.insert(name.to_owned(), 1);
    }

    /// A fresh name derived from the type's simple name.
    pub fn fresh(&mut self, api: &Api, ty: TyId) -> String {
        self.fresh_hinted(api, ty, None)
    }

    /// Prefers the declared parameter name when the API model knows it.
    pub fn fresh_hinted(&mut self, api: &Api, ty: TyId, hint: Option<&str>) -> String {
        let base = match hint {
            Some(h) => h.to_owned(),
            None => match api.types().ty(ty) {
                Ty::Prim(p) => prim_var_name(p).to_owned(),
                _ => lower_camel(&api.types().display_simple(ty).replace("[]", "s")),
            },
        };
        let n = self.used.entry(base.clone()).or_insert(0);
        *n += 1;
        if *n == 1 {
            base
        } else {
            format!("{base}{n}")
        }
    }
}

/// Fallback names for unnamed primitive free variables (never Java
/// keywords).
fn prim_var_name(p: jungloid_typesys::Prim) -> &'static str {
    use jungloid_typesys::Prim;
    match p {
        Prim::Boolean => "flag",
        Prim::Byte => "b",
        Prim::Char => "ch",
        Prim::Short | Prim::Int | Prim::Long => "n",
        Prim::Float | Prim::Double => "x",
    }
}

fn lower_camel(name: &str) -> String {
    // Strip the Eclipse-style `I` interface prefix for readability:
    // `IEditorPart` -> `editorPart`.
    let stripped = match name.as_bytes() {
        [b'I', second, ..] if second.is_ascii_uppercase() && name.len() > 2 => &name[1..],
        _ => name,
    };
    let mut chars = stripped.chars();
    match chars.next() {
        Some(c) => c.to_lowercase().collect::<String>() + chars.as_str(),
        None => "v".to_owned(),
    }
}

/// Synthesizes the nested-expression snippet for a jungloid.
///
/// `input_name` names the input object (e.g. the in-scope variable the
/// engine matched); defaults to a name derived from the source type.
///
/// # Panics
///
/// Panics if the jungloid is ill-typed (callers obtain jungloids from the
/// search, which only produces well-typed ones; validate first otherwise).
#[must_use]
pub fn synthesize(api: &Api, jungloid: &Jungloid, input_name: Option<&str>) -> Snippet {
    let mut names = NamePool::default();
    let void = api.types().void();
    let input = if jungloid.source == void {
        None
    } else {
        let name = input_name.map_or_else(|| names.fresh(api, jungloid.source), str::to_owned);
        names.reserve(&name);
        Some((name, jungloid.source))
    };
    let mut free_vars = Vec::new();
    let mut cur: Option<Expr> = input.as_ref().map(|(name, _)| Expr::var(name));
    for elem in &jungloid.elems {
        cur = Some(step_expr(api, *elem, cur, &mut names, &mut free_vars));
    }
    Snippet {
        input,
        free_vars,
        expr: cur.expect("non-empty jungloid"),
        result_ty: jungloid.output_ty(api),
    }
}

/// Synthesizes the statement-sequence rendering (§2.2 style): one local
/// per non-widening step, with free-variable declarations first. Returns
/// the statements and the name of the final result variable.
#[must_use]
pub fn synthesize_statements(
    api: &Api,
    jungloid: &Jungloid,
    input_name: Option<&str>,
) -> (Vec<Stmt>, Snippet) {
    let mut names = NamePool::default();
    synthesize_statements_pooled(api, jungloid, input_name, &mut names)
}

/// Like [`synthesize_statements`], drawing variable names from a shared
/// [`NamePool`] so several snippets can be composed without collisions.
#[must_use]
pub fn synthesize_statements_pooled(
    api: &Api,
    jungloid: &Jungloid,
    input_name: Option<&str>,
    names: &mut NamePool,
) -> (Vec<Stmt>, Snippet) {
    let void = api.types().void();
    let input = if jungloid.source == void {
        None
    } else {
        let name = input_name.map_or_else(|| names.fresh(api, jungloid.source), str::to_owned);
        names.reserve(&name);
        Some((name, jungloid.source))
    };
    let mut free_vars: Vec<(String, TyId)> = Vec::new();
    let mut stmts = Vec::new();
    let mut cur: Option<Expr> = input.as_ref().map(|(name, _)| Expr::var(name));
    let mut last_expr = cur.clone();
    for elem in &jungloid.elems {
        if elem.is_widen() {
            continue;
        }
        let e = step_expr(api, *elem, cur.clone(), names, &mut free_vars);
        let out_ty = elem.output_ty(api);
        let var = names.fresh(api, out_ty);
        stmts.push(Stmt::Local {
            ty: ty_to_type_name(api, out_ty),
            name: var.clone(),
            init: Some(e.clone()),
        });
        cur = Some(Expr::var(&var));
        last_expr = Some(e);
    }
    // Free-variable declarations go first.
    let mut all: Vec<Stmt> = free_vars
        .iter()
        .map(|(name, ty)| Stmt::Local { ty: ty_to_type_name(api, *ty), name: name.clone(), init: None })
        .collect();
    all.extend(stmts);
    let snippet = Snippet {
        input,
        free_vars,
        expr: last_expr.expect("non-empty jungloid"),
        result_ty: jungloid.output_ty(api),
    };
    (all, snippet)
}

fn step_expr(
    api: &Api,
    elem: ElemJungloid,
    cur: Option<Expr>,
    names: &mut NamePool,
    free_vars: &mut Vec<(String, TyId)>,
) -> Expr {
    let mut free = |names: &mut NamePool, ty: TyId, hint: Option<&str>| {
        let name = names.fresh_hinted(api, ty, hint);
        free_vars.push((name.clone(), ty));
        Expr::var(&name)
    };
    match elem {
        ElemJungloid::FieldAccess { field } => {
            let def = api.field(field);
            if def.is_static() {
                Expr::Name {
                    parts: vec![api.types().display_simple(def.declaring()), def.name().to_owned()],
                }
            } else {
                Expr::Field {
                    recv: Box::new(cur.expect("instance field needs input")),
                    name: def.name().to_owned(),
                }
            }
        }
        ElemJungloid::Call { method, input } => {
            let def = api.method(method);
            let mut args = Vec::with_capacity(def.params().len());
            for (i, &p) in def.params().iter().enumerate() {
                if input == Some(InputSlot::Arg(i)) {
                    args.push(cur.clone().expect("arg-consuming call needs input"));
                } else {
                    let hint = def.param_name(i);
                    args.push(free(names, p, hint));
                }
            }
            if def.is_constructor() {
                Expr::New {
                    class: TypeName::simple(&api.types().display_simple(def.declaring())),
                    args,
                }
            } else if def.is_static() {
                Expr::Call {
                    recv: Some(Box::new(Expr::var(&api.types().display_simple(def.declaring())))),
                    name: def.name().to_owned(),
                    args,
                }
            } else {
                let recv = if input == Some(InputSlot::Receiver) {
                    cur.expect("receiver-consuming call needs input")
                } else {
                    free(names, def.declaring(), None)
                };
                Expr::Call { recv: Some(Box::new(recv)), name: def.name().to_owned(), args }
            }
        }
        ElemJungloid::Widen { .. } => cur.expect("widening needs input"),
        ElemJungloid::Downcast { to, .. } => Expr::Cast {
            ty: ty_to_type_name(api, to),
            expr: Box::new(cur.expect("downcast needs input")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::elem::elems_of_method;
    use jungloid_apidef::ApiLoader;
    use jungloid_minijava::parse::parse_expr;

    fn api() -> Api {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "t.api",
                r"
                package io;
                public class InputStream {}
                public class Reader {}
                public class InputStreamReader extends Reader {
                    InputStreamReader(InputStream in);
                }
                public class BufferedReader extends Reader {
                    BufferedReader(Reader in);
                }
                package ui;
                public interface IEditorInput {}
                public interface IEditorPart { IEditorInput getEditorInput(); }
                public interface IDocumentProvider {}
                public class DocumentProviderRegistry {
                    static DocumentProviderRegistry getDefault();
                    IDocumentProvider getDocumentProvider(IEditorInput input);
                }
                public class Layers {
                    static Layers CONNECTION;
                    Layers sub;
                }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    fn elem(api: &Api, class: &str, name: &str, input: TyId) -> ElemJungloid {
        let c = api.types().resolve(class).unwrap();
        for &m in api.methods_of(c) {
            let d = api.method(m);
            let matches = if name == "<init>" { d.is_constructor() } else { d.name() == name };
            if matches {
                for e in elems_of_method(api, m) {
                    if e.input_ty(api) == input {
                        return e;
                    }
                }
            }
        }
        panic!("no elem {class}.{name}")
    }

    #[test]
    fn nested_constructors() {
        let api = api();
        let input = api.types().resolve("InputStream").unwrap();
        let reader = api.types().resolve("Reader").unwrap();
        let isr = api.types().resolve("InputStreamReader").unwrap();
        let j = Jungloid::new(
            &api,
            input,
            vec![
                elem(&api, "InputStreamReader", "<init>", input),
                ElemJungloid::Widen { from: isr, to: reader },
                elem(&api, "BufferedReader", "<init>", reader),
            ],
        )
        .unwrap();
        let s = synthesize(&api, &j, Some("in"));
        assert_eq!(s.code(), "new BufferedReader(new InputStreamReader(in))");
        assert!(s.free_vars.is_empty());
        // Output re-parses.
        parse_expr(&s.code()).unwrap();
    }

    #[test]
    fn free_variable_receiver_like_section_2_2() {
        // §2.2: dpreg.getDocumentProvider(ep.getEditorInput()) with free
        // variable dpreg.
        let api = api();
        let part = api.types().resolve("IEditorPart").unwrap();
        let inp = api.types().resolve("IEditorInput").unwrap();
        let j = Jungloid::new(
            &api,
            part,
            vec![
                elem(&api, "IEditorPart", "getEditorInput", part),
                elem(&api, "DocumentProviderRegistry", "getDocumentProvider", inp),
            ],
        )
        .unwrap();
        let s = synthesize(&api, &j, Some("ep"));
        assert_eq!(s.free_vars.len(), 1);
        let (name, ty) = &s.free_vars[0];
        assert_eq!(*ty, api.types().resolve("DocumentProviderRegistry").unwrap());
        assert_eq!(s.code(), format!("{name}.getDocumentProvider(ep.getEditorInput())"));
        let block = s.render_block(&api, "dp");
        assert!(block.contains("DocumentProviderRegistry documentProviderRegistry; // free variable"));
        assert!(block.ends_with("IDocumentProvider dp = documentProviderRegistry.getDocumentProvider(ep.getEditorInput());"));
    }

    #[test]
    fn void_sourced_static_chain() {
        let api = api();
        let void = api.types().void();
        let j = Jungloid::new(&api, void, vec![elem(&api, "DocumentProviderRegistry", "getDefault", void)])
            .unwrap();
        let s = synthesize(&api, &j, None);
        assert!(s.input.is_none());
        assert_eq!(s.code(), "DocumentProviderRegistry.getDefault()");
    }

    #[test]
    fn static_and_instance_fields() {
        let api = api();
        let layers = api.types().resolve("Layers").unwrap();
        let void = api.types().void();
        let shared = api.lookup_field(layers, "CONNECTION").unwrap();
        let j = Jungloid::new(&api, void, vec![ElemJungloid::FieldAccess { field: shared }]).unwrap();
        assert_eq!(synthesize(&api, &j, None).code(), "Layers.CONNECTION");

        let sub = api.lookup_field(layers, "sub").unwrap();
        let j2 = Jungloid::new(&api, layers, vec![ElemJungloid::FieldAccess { field: sub }]).unwrap();
        assert_eq!(synthesize(&api, &j2, Some("l")).code(), "l.sub");
    }

    #[test]
    fn downcast_rendering_reparses() {
        let api = api();
        let part = api.types().resolve("IEditorPart").unwrap();
        let obj = api.types().object().unwrap();
        let inp_elem = elem(&api, "IEditorPart", "getEditorInput", part);
        let inp = api.types().resolve("IEditorInput").unwrap();
        let j = Jungloid::new(
            &api,
            part,
            vec![
                inp_elem,
                ElemJungloid::Widen { from: inp, to: obj },
                ElemJungloid::Downcast { from: obj, to: inp },
            ],
        )
        .unwrap();
        let s = synthesize(&api, &j, Some("ep"));
        assert_eq!(s.code(), "(IEditorInput) ep.getEditorInput()");
        parse_expr(&s.code()).unwrap();
    }

    #[test]
    fn statement_rendering_one_local_per_step() {
        let api = api();
        let part = api.types().resolve("IEditorPart").unwrap();
        let inp = api.types().resolve("IEditorInput").unwrap();
        let j = Jungloid::new(
            &api,
            part,
            vec![
                elem(&api, "IEditorPart", "getEditorInput", part),
                elem(&api, "DocumentProviderRegistry", "getDocumentProvider", inp),
            ],
        )
        .unwrap();
        let (stmts, snippet) = synthesize_statements(&api, &j, Some("ep"));
        let rendered: Vec<String> =
            stmts.iter().map(jungloid_minijava::print::stmt_to_string).collect();
        assert_eq!(rendered.len(), 3); // free var + 2 steps
        assert_eq!(rendered[0], "DocumentProviderRegistry documentProviderRegistry;");
        assert_eq!(rendered[1], "IEditorInput editorInput = ep.getEditorInput();");
        assert_eq!(
            rendered[2],
            "IDocumentProvider documentProvider = documentProviderRegistry.getDocumentProvider(editorInput);"
        );
        assert_eq!(snippet.result_ty, api.types().resolve("IDocumentProvider").unwrap());
    }

    #[test]
    fn name_collisions_get_numbered() {
        let api = api();
        let reader = api.types().resolve("Reader").unwrap();
        let j = Jungloid::new(
            &api,
            reader,
            vec![elem(&api, "BufferedReader", "<init>", reader)],
        )
        .unwrap();
        // Two snippets in one Names universe would collide; within one
        // snippet, input "reader" and result type BufferedReader differ, so
        // just check numbering kicks in for repeated types.
        let (stmts, _) = synthesize_statements(&api, &j, None);
        let rendered: Vec<String> =
            stmts.iter().map(jungloid_minijava::print::stmt_to_string).collect();
        assert_eq!(rendered, vec!["BufferedReader bufferedReader = new BufferedReader(reader);"]);
    }

    #[test]
    fn interface_prefix_stripped_in_names() {
        assert_eq!(lower_camel("IEditorPart"), "editorPart");
        assert_eq!(lower_camel("Input"), "input");
        assert_eq!(lower_camel("IFile"), "file");
        // Two-letter names starting with I are left alone.
        assert_eq!(lower_camel("IO"), "iO");
    }
}
