//! Rendering metric snapshots: machine-readable JSON (for
//! `--metrics-json` and the bench crate) and a human text block (for
//! `--metrics` and the `stats` subcommand).

use crate::catalog::{cells, Counter, Gauge, Hist};
use crate::json::Json;
use crate::metrics::Snapshot;

/// Converts a snapshot to the `--metrics-json` document: every counter,
/// gauge and histogram of the catalog by series name, recorded or not,
/// so each stage's `stage.latency_ns.<stage>` entry is always there.
#[must_use]
pub fn to_json(snap: &Snapshot) -> Json {
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

/// Renders a snapshot as an aligned text block: every nonzero counter
/// and gauge, then every non-empty histogram with its times in
/// nanoseconds written as durations.
#[must_use]
pub fn to_text(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "--- metrics ---");
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
            "hist {}: n={} mean={} p50={} p99={}",
            row.series(label),
            h.count,
            fmt_ns(h.sum / h.count),
            fmt_ns(h.quantile(0.5)),
            fmt_ns(h.quantile(0.99))
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::span::Stage;

    #[test]
    fn json_report_carries_every_stage_histogram() {
        let r = Registry::new();
        r.histogram(Hist::StageLatencyNs, Stage::Search.index()).record(1_000);
        r.add(Counter::SearchDfsExpansions, 7);
        r.gauge_set(Gauge::EngineDistCacheEntries, 3);
        let doc = to_json(&r.snapshot());
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["counters", "gauges", "histograms"]);
        let hists = doc.get("histograms").unwrap();
        for name in Stage::NAMES {
            let h = hists.get(&format!("stage.latency_ns.{name}")).unwrap_or_else(|| panic!("stage {name} missing"));
            assert!(h.get("count").unwrap().as_u64().is_some());
        }
        let search = hists.get("stage.latency_ns.search").unwrap();
        assert_eq!(search.get("count").unwrap().as_u64(), Some(1));
        assert_eq!(search.get("sum").unwrap().as_u64(), Some(1_000));
        assert_eq!(hists.get("stage.latency_ns.rank").unwrap().get("count").unwrap().as_u64(), Some(0));
        assert_eq!(
            doc.get("counters").unwrap().get("search.dfs_expansions").unwrap().as_u64(),
            Some(7)
        );
        // Every catalog row is a key, recorded or not.
        assert_eq!(doc.get("counters").unwrap().get("engine.batch.errors").unwrap().as_u64(), Some(0));
        let sections = doc.get("gauges").unwrap().get("store.section.csr.bytes");
        assert_eq!(sections.unwrap().as_u64(), Some(0));
        // The document is valid JSON text.
        let text = doc.to_text();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn text_report_lists_counters_and_histograms_as_durations() {
        let r = Registry::new();
        r.add(Counter::MineCastSites, 12);
        r.histogram(Hist::StageLatencyNs, Stage::Mine.index()).record(2_500_000);
        let text = to_text(&r.snapshot());
        assert!(text.contains("mine.cast_sites"));
        assert!(!text.contains("mine.examples"), "zero rows stay out of the text block");
        assert!(text.contains("hist stage.latency_ns.mine: n=1 mean=2.50ms "), "{text}");
        assert!(!text.contains("stage.latency_ns.build"), "empty histograms stay out: {text}");
    }
}
