//! Code generation: turning a [`Jungloid`] into insertable Java-ish code.
//!
//! Two presentations, matching the paper's:
//!
//! * a nested expression (`new BufferedReader(new InputStreamReader(in))`),
//!   which the engine ranks and deduplicates by (§3.2) and lists;
//! * a statement sequence with one local per step (§2.2's translation of
//!   the `IEditorPart` example), used when inserting into user code.
//!
//! Ranking renders text and insertion builds a tree. [`render_code`]
//! writes the nested expression in one pass, with no syntax tree: every
//! candidate of every query goes through it. [`synthesize`] and
//! [`synthesize_statements`] build MiniJava ASTs and print them with the
//! `jungloid-minijava` pretty printer, for the callers that need the tree
//! (insertion, composition, free-variable declarations). The tree is the
//! reference: tests hold `render_code` to `synthesize(..).code()` on every
//! enumerated jungloid of several engines, and check that it re-parses.
//!
//! Free variables become declared-but-unbound locals, exactly like the
//! paper's `DocumentProviderRegistry dpreg; // free variable`, and the
//! user binds them with follow-up queries.

use std::cell::RefCell;
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
    /// Every name handed out or reserved, with the last number tried
    /// under it as a base (0 if it never was one).
    used: HashMap<String, u32>,
}

impl NamePool {
    /// A fresh, empty pool.
    #[must_use]
    pub fn new() -> Self {
        NamePool::default()
    }

    /// Marks `name` as taken; a name already taken keeps its count.
    pub fn reserve(&mut self, name: &str) {
        if !self.used.contains_key(name) {
            self.used.insert(name.to_owned(), 0);
        }
    }

    /// A fresh name derived from the type's simple name.
    pub fn fresh(&mut self, api: &Api, ty: TyId) -> String {
        self.fresh_hinted(api, ty, None)
    }

    /// Prefers the declared parameter name when the API model knows it.
    /// The first name from a base is the base itself, later ones number
    /// it (`reader2`, `reader3`, ...), skipping any name already taken.
    pub fn fresh_hinted(&mut self, api: &Api, ty: TyId, hint: Option<&str>) -> String {
        let base = hint.map_or_else(|| default_name(api, ty), str::to_owned);
        let mut n = self.used.get(&base).copied().unwrap_or(0);
        let name = loop {
            n += 1;
            let name = if n == 1 { base.clone() } else { format!("{base}{n}") };
            if !self.used.contains_key(&name) {
                break name;
            }
        };
        if n > 1 {
            self.used.insert(name.clone(), 0);
        }
        self.used.insert(base, n);
        name
    }
}

/// The name a fresh [`NamePool`] gives a variable of type `ty`: what
/// [`synthesize`] calls an input it is given no name for.
#[must_use]
pub fn default_name(api: &Api, ty: TyId) -> String {
    match api.types().ty(ty) {
        Ty::Prim(p) => prim_var_name(p).to_owned(),
        _ => lower_camel(&api.types().display_simple(ty).replace("[]", "s")),
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

thread_local! {
    /// [`render_code`]'s two expression buffers, kept across calls so a
    /// rendering allocates only the `String` it returns and the names of
    /// its free variables.
    static BUFS: RefCell<(String, String)> = const { RefCell::new((String::new(), String::new())) };
}

/// Renders a jungloid's nested expression in one pass, without building
/// a tree: exactly what `synthesize(api, jungloid, input_name).code()`
/// returns. Free variables get the same names, drawn in [`synthesize`]'s
/// order (arguments, then a free receiver) from a [`NamePool`] that is
/// made only when one needs a name.
///
/// # Panics
///
/// Panics if the jungloid is ill-typed, as [`synthesize`] does.
#[must_use]
pub fn render_code(api: &Api, jungloid: &Jungloid, input_name: Option<&str>) -> String {
    let derived;
    let input = if jungloid.source == api.types().void() {
        None
    } else if input_name.is_some() {
        input_name
    } else {
        derived = default_name(api, jungloid.source);
        Some(derived.as_str())
    };
    let mut pool: Option<NamePool> = None;
    let mut fresh = |ty: TyId, hint: Option<&str>| {
        let pool = pool.get_or_insert_with(|| {
            let mut pool = NamePool::new();
            if let Some(name) = input {
                pool.reserve(name);
            }
            pool
        });
        pool.fresh_hinted(api, ty, hint)
    };
    BUFS.with_borrow_mut(|(cur, next)| {
        // `cur` is the running expression and `cast` whether it is a
        // cast, which a receiver position must parenthesize. A step that
        // wraps `cur` writes into `next` and swaps the two.
        cur.clear();
        cur.push_str(input.unwrap_or_default());
        let mut has_value = input.is_some();
        let mut cast = false;
        for elem in &jungloid.elems {
            match *elem {
                ElemJungloid::Widen { .. } => {
                    assert!(has_value, "widening needs input");
                    continue;
                }
                ElemJungloid::Downcast { to, .. } => {
                    assert!(has_value, "downcast needs input");
                    next.clear();
                    next.push('(');
                    api.types().write_simple(to, next);
                    next.push_str(") ");
                    next.push_str(cur);
                    std::mem::swap(cur, next);
                    cast = true;
                    continue;
                }
                ElemJungloid::FieldAccess { field } => {
                    let def = api.field(field);
                    if def.is_static() {
                        cur.clear();
                        api.types().write_simple(def.declaring(), cur);
                    } else {
                        assert!(has_value, "instance field needs input");
                        parenthesize_cast(cur, cast);
                    }
                    cur.push('.');
                    cur.push_str(def.name());
                }
                ElemJungloid::Call { method, input: slot } => {
                    let def = api.method(method);
                    let params = def.params();
                    let free_args: Vec<String> = (0..params.len())
                        .filter(|&i| slot != Some(InputSlot::Arg(i)))
                        .map(|i| fresh(params[i], def.param_name(i)))
                        .collect();
                    let instance = !def.is_constructor() && !def.is_static();
                    if instance && slot == Some(InputSlot::Receiver) {
                        assert!(has_value, "receiver-consuming call needs input");
                        parenthesize_cast(cur, cast);
                        cur.push('.');
                        cur.push_str(def.name());
                        push_args(cur, params.len(), slot, "", &free_args);
                    } else {
                        assert!(
                            has_value || !matches!(slot, Some(InputSlot::Arg(_))),
                            "arg-consuming call needs input"
                        );
                        next.clear();
                        if def.is_constructor() {
                            next.push_str("new ");
                            api.types().write_simple(def.declaring(), next);
                        } else {
                            if def.is_static() {
                                api.types().write_simple(def.declaring(), next);
                            } else {
                                next.push_str(&fresh(def.declaring(), None));
                            }
                            next.push('.');
                            next.push_str(def.name());
                        }
                        push_args(next, params.len(), slot, cur, &free_args);
                        std::mem::swap(cur, next);
                    }
                }
            }
            has_value = true;
            cast = false;
        }
        assert!(has_value, "non-empty jungloid");
        cur.as_str().to_owned()
    })
}

/// Wraps a cast in parentheses before it becomes a receiver, as the
/// printer does: `((ITextEditor) part).getDocumentProvider()`.
fn parenthesize_cast(expr: &mut String, cast: bool) {
    if cast {
        expr.insert(0, '(');
        expr.push(')');
    }
}

/// Appends a call's `(args)`: `value` in the input slot, the free
/// variables' names in order everywhere else.
fn push_args(out: &mut String, arity: usize, slot: Option<InputSlot>, value: &str, free: &[String]) {
    let mut free = free.iter();
    out.push('(');
    for i in 0..arity {
        if i > 0 {
            out.push_str(", ");
        }
        if slot == Some(InputSlot::Arg(i)) {
            out.push_str(value);
        } else {
            out.push_str(free.next().expect("one name per free argument"));
        }
    }
    out.push(')');
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
                public class Reader2 {}
                public class Out {
                    static Out make(Reader, Reader, Reader2);
                }
                ",
            )
            .unwrap();
        loader.finish().unwrap()
    }

    /// `synthesize`, checking that `render_code` writes the same code.
    fn synth(api: &Api, j: &Jungloid, input_name: Option<&str>) -> Snippet {
        let s = synthesize(api, j, input_name);
        assert_eq!(render_code(api, j, input_name), s.code());
        s
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
        let s = synth(&api, &j, Some("in"));
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
        let s = synth(&api, &j, Some("ep"));
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
        let s = synth(&api, &j, None);
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
        assert_eq!(synth(&api, &j, None).code(), "Layers.CONNECTION");

        let sub = api.lookup_field(layers, "sub").unwrap();
        let j2 = Jungloid::new(&api, layers, vec![ElemJungloid::FieldAccess { field: sub }]).unwrap();
        assert_eq!(synth(&api, &j2, Some("l")).code(), "l.sub");
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
        let s = synth(&api, &j, Some("ep"));
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
    fn name_pool_never_hands_out_a_name_twice() {
        let api = api();
        let obj = api.types().object().unwrap();
        let mut pool = NamePool::new();
        let names: Vec<String> =
            ["x", "x", "x2"].iter().map(|&h| pool.fresh_hinted(&api, obj, Some(h))).collect();
        assert_eq!(names, ["x", "x2", "x22"]);

        let mut pool = NamePool::new();
        let first = pool.fresh_hinted(&api, obj, Some("in"));
        let second = pool.fresh_hinted(&api, obj, Some("in"));
        pool.reserve("in");
        let third = pool.fresh_hinted(&api, obj, Some("in"));
        assert_eq!([first, second, third], ["in", "in2", "in3"]);

        // Through synthesis: a free `Reader` is numbered to `reader2`, so
        // the free `Reader2` after it may not take that name too.
        let reader = api.types().resolve("Reader").unwrap();
        let j = Jungloid::new(&api, reader, vec![elem(&api, "Out", "make", reader)]).unwrap();
        let s = synth(&api, &j, None);
        assert_eq!(s.code(), "Out.make(reader, reader2, reader22)");
        let block = s.render_block(&api, "out");
        assert_eq!(block.matches("Reader2 reader22;").count(), 1, "{block}");
        assert_eq!(block.matches(" reader2;").count(), 1, "{block}");
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
