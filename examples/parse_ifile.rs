//! The paper's opening example (§1): parsing a Java source file inside
//! Eclipse. Two of the authors independently lost hours to this — the
//! crucial link is a static method of `JavaCore`, a class neither would
//! think to browse, and grepping for methods returning `ASTNode` misses
//! `parseCompilationUnit` because it returns the *subclass*
//! `CompilationUnit`.
//!
//! Run with `cargo run --example parse_ifile`.

use prospector_repro::corpora::build_default;

fn main() {
    let prospector = build_default();
    let api = prospector.api();

    let ifile = api.types().resolve("IFile").expect("modeled");
    let astnode = api.types().resolve("ASTNode").expect("modeled");

    println!("query: (IFile, ASTNode)\n");
    let result = prospector.query(ifile, astnode).expect("valid query");
    for (i, s) in result.suggestions.iter().take(5).enumerate() {
        println!("{}. {}", i + 1, s.code);
        for decl in s.snippet(api).free_var_decls(api) {
            println!("     {decl}");
        }
    }

    let top = &result.suggestions[0];
    assert!(top.code.contains("AST.parseCompilationUnit(JavaCore.createCompilationUnitFrom("));

    // Why grep fails (§1): the concrete result type is CompilationUnit,
    // not ASTNode; the graph finds it through a zero-cost widening edge.
    let concrete = top.jungloid.concrete_output_ty(api);
    println!(
        "\nconcrete result type: {} (grep for `ASTNode` would miss it)",
        api.types().display(concrete)
    );
    assert_eq!(api.types().display_simple(concrete), "CompilationUnit");

    println!("\nthe paper's hand-written solution:\n");
    println!("    IFile file = ...;");
    println!("    ICompilationUnit cu = JavaCore.createCompilationUnitFrom(file);");
    println!("    ASTNode ast = AST.parseCompilationUnit(cu, false);");
    println!("\nProspector's insertable block:\n");
    println!("{}", top.snippet(api).render_block(api, "ast"));
}
