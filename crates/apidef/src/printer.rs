//! Rendering an [`Api`] back to `.api` stub text.
//!
//! Useful for debugging modeled APIs, for dumping procedurally generated
//! jungles into reviewable form, and as a round-trip oracle: an `Api`
//! printed and reloaded must describe the same signatures.

use std::fmt::Write as _;

use jungloid_typesys::{Ty, TyId, TypeKind};

use crate::{Api, Visibility};

/// Renders every declared type of `api` as `.api` stub text, grouped by
/// package (packages and members in declaration order).
#[must_use]
pub fn to_stub_text(api: &Api) -> String {
    let mut out = String::new();
    let mut current_package: Option<String> = None;
    for decl in api.types().decls() {
        let pkg = decl.package_name.to_owned();
        if current_package.as_deref() != Some(&pkg) {
            if current_package.is_some() {
                out.push('\n');
            }
            let _ = writeln!(out, "package {pkg};\n");
            current_package = Some(pkg);
        }
        let kind = match decl.kind {
            TypeKind::Class => "class",
            TypeKind::Interface => "interface",
        };
        let _ = write!(out, "public {kind} {}", decl.simple_name);
        match decl.kind {
            TypeKind::Class => {
                if let Some(sup) = decl.superclass {
                    let _ = write!(out, " extends {}", api.types().display(sup));
                }
                if !decl.interfaces.is_empty() {
                    let names: Vec<String> =
                        decl.interfaces.iter().map(|&i| api.types().display(i)).collect();
                    let _ = write!(out, " implements {}", names.join(", "));
                }
            }
            TypeKind::Interface => {
                if !decl.interfaces.is_empty() {
                    let names: Vec<String> =
                        decl.interfaces.iter().map(|&i| api.types().display(i)).collect();
                    let _ = write!(out, " extends {}", names.join(", "));
                }
            }
        }
        out.push_str(" {\n");
        for &f in api.fields_of(decl.id) {
            let field = api.field(f);
            let _ = writeln!(
                out,
                "    {}{}{} {};",
                vis_prefix(field.visibility()),
                if field.is_static() { "static " } else { "" },
                type_text(api, field.ty()),
                field.name()
            );
        }
        for &m in api.methods_of(decl.id) {
            let def = api.method(m);
            let params: Vec<String> = def
                .params()
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let name = def.param_name(i);
                    match name {
                        Some(n) => format!("{} {n}", type_text(api, p)),
                        None => type_text(api, p),
                    }
                })
                .collect();
            if def.is_constructor() {
                let _ = writeln!(
                    out,
                    "    {}{}({});",
                    vis_prefix(def.visibility()),
                    decl.simple_name,
                    params.join(", ")
                );
            } else {
                let _ = writeln!(
                    out,
                    "    {}{}{} {}({});",
                    vis_prefix(def.visibility()),
                    if def.is_static() { "static " } else { "" },
                    type_text(api, def.ret()),
                    def.name(),
                    params.join(", ")
                );
            }
        }
        out.push_str("}\n\n");
    }
    out
}

fn vis_prefix(v: Visibility) -> &'static str {
    match v {
        Visibility::Public => "",
        Visibility::Protected => "protected ",
        Visibility::Private => "private ",
    }
}

/// Qualified type text as the stub grammar expects it.
fn type_text(api: &Api, ty: TyId) -> String {
    match api.types().ty(ty) {
        Ty::Void => "void".to_owned(),
        Ty::Prim(p) => p.keyword().to_owned(),
        Ty::Array(elem) => format!("{}[]", type_text(api, elem)),
        _ => api.types().display(ty),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApiLoader;

    fn load(text: &str) -> Api {
        let mut loader = ApiLoader::new();
        loader.add_source("printed.api", text).unwrap();
        loader.finish().unwrap()
    }

    #[test]
    fn round_trip_preserves_shape() {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source(
                "t.api",
                r"
                package t;
                public interface I { Object pick(String key); }
                public class A implements I {
                    A(int size);
                    static A[] all();
                    protected String hidden();
                    static int COUNT;
                    Object data;
                }
                public class B extends A {
                    B(int size);
                }
                ",
            )
            .unwrap();
        let api = loader.finish().unwrap();
        let printed = to_stub_text(&api);
        let reloaded = load(&printed);

        assert_eq!(reloaded.types().len(), api.types().len());
        assert_eq!(reloaded.method_count(), api.method_count());
        assert_eq!(reloaded.field_count(), api.field_count());

        let a = reloaded.types().resolve("t.A").unwrap();
        let b = reloaded.types().resolve("t.B").unwrap();
        let i = reloaded.types().resolve("t.I").unwrap();
        assert!(reloaded.types().is_subtype(b, a));
        assert!(reloaded.types().is_subtype(a, i));
        assert_eq!(reloaded.lookup_constructor(a, 1).len(), 1);
        let hidden = reloaded.lookup_instance_method(a, "hidden", 0)[0];
        assert_eq!(reloaded.method(hidden).visibility(), Visibility::Protected);
        let all = reloaded.lookup_static_method(a, "all", 0)[0];
        assert!(matches!(
            reloaded.types().ty(reloaded.method(all).ret()),
            jungloid_typesys::Ty::Array(_)
        ));
    }

    #[test]
    fn double_round_trip_is_fixed_point() {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source("t.api", "package t; public class A { A(String name); B toB(); } public class B {}")
            .unwrap();
        let api = loader.finish().unwrap();
        let once = to_stub_text(&api);
        let twice = to_stub_text(&load(&once));
        assert_eq!(once, twice);
    }

    #[test]
    fn parameter_names_survive() {
        let mut loader = ApiLoader::with_prelude();
        loader
            .add_source("t.api", "package t; public class A { static A make(String label, int n); }")
            .unwrap();
        let api = loader.finish().unwrap();
        let printed = to_stub_text(&api);
        assert!(printed.contains("static t.A make(java.lang.String label, int n);"), "{printed}");
    }
}
