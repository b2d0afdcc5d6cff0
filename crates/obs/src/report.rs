//! Rendering metric snapshots: machine-readable JSON (for
//! `--metrics-json` and the bench crate) and a human text block (for
//! `--metrics` and the `stats` subcommand).

use crate::catalog::{cells, Counter, Gauge, Hist};
use crate::json::Json;
use crate::metrics::{Snapshot, StageStat};
use crate::span::Stage;

/// The six canonical pipeline stages, in pipeline order. The JSON report
/// always carries all of them (zeroed when a stage did not run) so
/// downstream consumers can index unconditionally.
pub const PIPELINE_STAGES: [&str; 6] = ["build", "mine", "generalize", "search", "rank", "synth"];

/// Converts a snapshot to the `--metrics-json` document: the stages in
/// catalog order, which lists the pipeline stages first, then every
/// counter, gauge and histogram of the catalog by series name.
#[must_use]
pub fn to_json(snap: &Snapshot) -> Json {
    let mut stages: Vec<(String, Json)> = Vec::new();
    for name in Stage::NAMES {
        let stat = match snap.stage(name) {
            Some(stat) => stat,
            None if PIPELINE_STAGES.contains(&name) => StageStat::default(),
            None => continue,
        };
        stages.push((
            name.to_owned(),
            Json::obj(vec![
                ("count", Json::num_u(stat.count)),
                ("total_ns", Json::num_u(stat.total_ns)),
                ("mean_ns", Json::num_u(stat.mean_ns())),
                ("max_ns", Json::num_u(stat.max_ns)),
            ]),
        ));
    }
    let values = |rows, values: &[u64]| {
        Json::Obj(cells(rows).zip(values).map(|((row, label), &v)| (row.series(label), Json::num_u(v))).collect())
    };
    let hists = cells(Hist::ROWS).zip(&snap.hists).map(|((row, label), h)| {
        let stats = vec![
            ("count", Json::num_u(h.count)),
            ("sum", Json::num_u(h.sum)),
            ("p50", Json::num_u(h.quantile(0.5))),
            ("p90", Json::num_u(h.quantile(0.9))),
            ("p99", Json::num_u(h.quantile(0.99))),
        ];
        (row.series(label), Json::obj(stats))
    });
    Json::obj(vec![
        ("stages", Json::Obj(stages)),
        ("counters", values(Counter::ROWS, &snap.counters)),
        ("gauges", values(Gauge::ROWS, &snap.gauges)),
        ("histograms", Json::Obj(hists.collect())),
    ])
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders a snapshot as an aligned text block: the stages that ran,
/// then every nonzero counter and gauge and every non-empty histogram.
#[must_use]
pub fn to_text(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "--- metrics ---");
    let has_timing = snap.stages.values().any(|s| s.count > 0);
    if has_timing {
        let _ = writeln!(out, "stages (count / total / mean / max):");
        let ran = Stage::NAMES.into_iter().filter_map(|n| Some((n, snap.stage(n)?)));
        for (name, stat) in ran {
            let _ = writeln!(
                out,
                "  {name:<12} {:>6}  {:>10}  {:>10}  {:>10}",
                stat.count,
                fmt_ns(stat.total_ns),
                fmt_ns(stat.mean_ns()),
                fmt_ns(stat.max_ns),
            );
        }
    }
    let nonzero = |title: &str, rows, values: &[u64], out: &mut String| {
        let mut lines = cells(rows).zip(values).filter(|(_, &v)| v > 0).peekable();
        if lines.peek().is_some() {
            let _ = writeln!(out, "{title}:");
        }
        for ((row, label), value) in lines {
            let _ = writeln!(out, "  {:<36} {value}", row.series(label));
        }
    };
    nonzero("counters", Counter::ROWS, &snap.counters, &mut out);
    nonzero("gauges", Gauge::ROWS, &snap.gauges, &mut out);
    for ((row, label), h) in cells(Hist::ROWS).zip(&snap.hists).filter(|(_, h)| h.count > 0) {
        let _ = writeln!(
            out,
            "hist {}: n={} mean={:.1} p50={} p99={}",
            row.series(label),
            h.count,
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn json_report_always_has_all_pipeline_stages() {
        let r = Registry::new();
        r.record_span(Stage::Search, 1_000);
        r.add(Counter::SearchDfsExpansions, 7);
        r.gauge_set(Gauge::EngineDistCacheEntries, 3);
        let doc = to_json(&r.snapshot());
        let stages = doc.get("stages").unwrap();
        for name in PIPELINE_STAGES {
            let s = stages.get(name).unwrap_or_else(|| panic!("stage {name} missing"));
            assert!(s.get("total_ns").unwrap().as_u64().is_some());
        }
        assert_eq!(stages.get("search").unwrap().get("total_ns").unwrap().as_u64(), Some(1_000));
        assert_eq!(
            doc.get("counters").unwrap().get("search.dfs_expansions").unwrap().as_u64(),
            Some(7)
        );
        // Every catalog row is a key, recorded or not.
        assert_eq!(doc.get("counters").unwrap().get("engine.batch.errors").unwrap().as_u64(), Some(0));
        let sections = doc.get("gauges").unwrap().get("store.section.csr.bytes");
        assert_eq!(sections.unwrap().as_u64(), Some(0));
        let stage_hist = doc.get("histograms").unwrap().get("query.stage_ns.search").unwrap();
        assert_eq!(stage_hist.get("count").unwrap().as_u64(), Some(0));
        assert!(doc.get("windows").is_none());
        // The document is valid JSON text.
        let text = doc.to_text();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn pipeline_stages_lead_the_catalog() {
        assert_eq!(Stage::NAMES[..PIPELINE_STAGES.len()], PIPELINE_STAGES);
    }

    #[test]
    fn text_report_lists_counters() {
        let r = Registry::new();
        r.add(Counter::MineCastSites, 12);
        r.record_span(Stage::Mine, 2_500_000);
        let text = to_text(&r.snapshot());
        assert!(text.contains("mine.cast_sites"));
        assert!(!text.contains("mine.examples"), "zero rows stay out of the text block");
        assert!(text.contains("2.50ms"));
    }
}
