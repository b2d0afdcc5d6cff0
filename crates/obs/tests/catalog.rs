//! The README's metric table is the catalog: the same rows with the same
//! kinds and help text, in catalog order. On drift the failure prints the
//! table to paste between the README's `catalog:begin`/`catalog:end`
//! markers.

use std::collections::BTreeSet;

use prospector_obs::catalog;

type TableRow = (String, String, String);

fn readme_rows() -> Vec<TableRow> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("README.md reads");
    let table = readme
        .split("<!-- catalog:begin -->")
        .nth(1)
        .and_then(|rest| rest.split("<!-- catalog:end -->").next())
        .expect("README.md has the catalog markers");
    table
        .lines()
        .filter(|line| line.starts_with("| `"))
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split(" | ").map(str::trim).collect();
            assert_eq!(cells.len(), 3, "a metric table row has name, kind and meaning: {line}");
            (cells[0].trim_matches('`').to_owned(), cells[1].to_owned(), cells[2].to_owned())
        })
        .collect()
}

#[test]
fn readme_metric_table_is_the_catalog() {
    let readme = readme_rows();
    let catalog: Vec<TableRow> = catalog::rows()
        .map(|row| (row.name.to_owned(), row.kind.name().to_owned(), row.help.to_owned()))
        .collect();
    let generated: String =
        catalog.iter().map(|(name, kind, help)| format!("| `{name}` | {kind} | {help} |\n")).collect();
    let keys = |rows: &[TableRow]| -> BTreeSet<(String, String)> {
        rows.iter().map(|(name, kind, _)| (name.clone(), kind.clone())).collect()
    };
    let (in_readme, in_catalog) = (keys(&readme), keys(&catalog));
    let missing: Vec<_> = in_catalog.difference(&in_readme).collect();
    let extra: Vec<_> = in_readme.difference(&in_catalog).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "README's metric table lacks catalog rows {missing:?} and lists rows the catalog lacks \
         {extra:?}; the table is:\n{generated}"
    );
    assert_eq!(readme, catalog, "README's metric table differs from the catalog; the table is:\n{generated}");
}
