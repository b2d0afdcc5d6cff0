//! Step-by-step explanations of synthesized jungloids.
//!
//! The paper's user study found that programmers "found examples hard to
//! understand" when adapted by hand; Prospector's advantage is that a
//! jungloid is a simple chain. This module renders that chain as an
//! annotated table — one row per elementary jungloid with its §2.1 kind,
//! the types it converts between, and the free variables it introduces —
//! used by documentation, the CLI, and tests that want readable failures.

use std::fmt::Write as _;

use jungloid_apidef::{Api, ElemJungloid};
use jungloid_typesys::TyId;

use crate::path::Jungloid;

/// One explained step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// 1-based position among the non-widening steps (widenings get 0).
    pub index: usize,
    /// §2.1 kind name: `field access`, `static call`, `constructor`,
    /// `instance call`, `widening`, `downcast`.
    pub kind: &'static str,
    /// Short label, e.g. `JavaCore.createCompilationUnitFrom`.
    pub label: String,
    /// Input type.
    pub from: TyId,
    /// Output type.
    pub to: TyId,
    /// Free-variable types the step introduces.
    pub free_vars: Vec<TyId>,
}

/// Explains each elementary jungloid of `jungloid` in order.
#[must_use]
pub fn explain(api: &Api, jungloid: &Jungloid) -> Vec<Step> {
    let mut out = Vec::new();
    let mut index = 0;
    for elem in &jungloid.elems {
        let kind = match elem {
            ElemJungloid::FieldAccess { .. } => "field access",
            ElemJungloid::Call { method, .. } => {
                let def = api.method(*method);
                if def.is_constructor() {
                    "constructor"
                } else if def.is_static() {
                    "static call"
                } else {
                    "instance call"
                }
            }
            ElemJungloid::Widen { .. } => "widening",
            ElemJungloid::Downcast { .. } => "downcast",
        };
        if !elem.is_widen() {
            index += 1;
        }
        out.push(Step {
            index: if elem.is_widen() { 0 } else { index },
            kind,
            label: elem.label(api),
            from: elem.input_ty(api),
            to: elem.output_ty(api),
            free_vars: elem.free_var_types(api),
        });
    }
    out
}

/// Renders the explanation as an aligned text table.
#[must_use]
pub fn format_explanation(api: &Api, jungloid: &Jungloid) -> String {
    let steps = explain(api, jungloid);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "jungloid: {} -> {}  ({} steps{})",
        api.types().display_simple(jungloid.source),
        api.types().display_simple(jungloid.output_ty(api)),
        jungloid.steps(),
        if jungloid.contains_downcast() { ", mined" } else { "" }
    );
    for s in steps {
        let idx = if s.index == 0 { "  ".to_owned() } else { format!("{:>2}", s.index) };
        let _ = write!(
            out,
            "{idx}. {:<13} {:<40} {} -> {}",
            s.kind,
            s.label,
            api.types().display_simple(s.from),
            api.types().display_simple(s.to)
        );
        if !s.free_vars.is_empty() {
            let frees: Vec<String> =
                s.free_vars.iter().map(|&t| api.types().display_simple(t)).collect();
            let _ = write!(out, "   (free: {})", frees.join(", "));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jungloid_apidef::ApiLoader;

    #[test]
    fn explains_the_intro_example() {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "jdt.api",
                r"
                package e;
                public interface IFile {}
                public interface ICompilationUnit {}
                public class JavaCore {
                    static ICompilationUnit createCompilationUnitFrom(IFile file);
                }
                public class ASTNode {}
                public class CompilationUnit extends ASTNode {}
                public class AST {
                    static CompilationUnit parseCompilationUnit(ICompilationUnit unit, boolean resolve);
                }
                ",
            )
            .unwrap();
        let api = loader.finish().unwrap();
        let ifile = api.types().resolve("IFile").unwrap();
        let ast = api.types().resolve("ASTNode").unwrap();
        let engine = crate::Prospector::new(api);
        let result = engine.query(ifile, ast).unwrap();
        let j = &result.suggestions[0].jungloid;

        let steps = explain(engine.api(), j);
        assert_eq!(steps.len(), 3); // two statics + widening
        assert_eq!(steps[0].kind, "static call");
        assert_eq!(steps[1].kind, "static call");
        assert_eq!(steps[2].kind, "widening");
        assert_eq!(steps[1].free_vars.len(), 1); // the boolean

        let text = format_explanation(engine.api(), j);
        assert!(text.contains("IFile -> ASTNode"));
        assert!(text.contains("JavaCore.createCompilationUnitFrom"));
        assert!(text.contains("(free: boolean)"));
        assert!(text.contains("widening"));
    }

    #[test]
    fn mined_jungloids_flagged() {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "s.api",
                r"
                package s;
                public interface ISel { Object first(); }
                public interface IStructured extends ISel {}
                public class Event { ISel sel(); }
                ",
            )
            .unwrap();
        let api = loader.finish().unwrap();
        let event = api.types().resolve("Event").unwrap();
        let isel = api.types().resolve("ISel").unwrap();
        let istructured = api.types().resolve("IStructured").unwrap();
        let m = api.lookup_instance_method(event, "sel", 0)[0];
        let j = Jungloid::new(
            &api,
            event,
            vec![
                ElemJungloid::Call { method: m, input: Some(jungloid_apidef::InputSlot::Receiver) },
                ElemJungloid::Downcast { from: isel, to: istructured },
            ],
        )
        .unwrap();
        let text = format_explanation(&api, &j);
        assert!(text.contains(", mined"));
        assert!(text.contains("downcast"));
    }
}
