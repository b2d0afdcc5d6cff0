//! Rendering metric snapshots: machine-readable JSON (for
//! `--metrics-json` and the bench crate) and a human text block (for
//! `--metrics` and the `stats` subcommand).

use crate::json::Json;
use crate::metrics::{Snapshot, StageStat};
use crate::span::Stage;

/// The six canonical pipeline stages, in pipeline order. The JSON report
/// always carries all of them (zeroed when a stage did not run) so
/// downstream consumers can index unconditionally.
pub const PIPELINE_STAGES: [&str; 6] = ["build", "mine", "generalize", "search", "rank", "synth"];

/// Converts a snapshot to the `--metrics-json` document: the stages in
/// catalog order, which lists the pipeline stages first.
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
    Json::obj(vec![
        ("stages", Json::Obj(stages)),
        // Rolling-window views (empty object outside serve mode, where
        // no rings are registered) ride along so one report carries both
        // the since-boot aggregates and the recent-window story.
        ("windows", windows_to_json()),
        (
            "counters",
            Json::Obj(snap.counters.iter().map(|(k, &v)| (k.clone(), Json::num_u(v))).collect()),
        ),
        (
            "gauges",
            Json::Obj(snap.gauges.iter().map(|(k, &v)| (k.clone(), Json::num_u(v))).collect()),
        ),
        (
            "histograms",
            Json::Obj(
                snap.hists
                    .iter()
                    .map(|(k, h)| {
                        (
                            k.clone(),
                            Json::obj(vec![
                                ("count", Json::num_u(h.count)),
                                ("sum", Json::num_u(h.sum)),
                                ("p50", Json::num_u(h.quantile(0.5))),
                                ("p90", Json::num_u(h.quantile(0.9))),
                                ("p99", Json::num_u(h.quantile(0.99))),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The global rolling-window rings as a JSON object: ring name →
/// window label → `{count, rate, p50, p90, p99}`. Values carry the
/// units the ring was recorded in (the serve layer records nanoseconds).
#[must_use]
pub fn windows_to_json() -> Json {
    let views = crate::window::views(&crate::window::STANDARD_WINDOWS);
    Json::Obj(
        views
            .into_iter()
            .map(|rv| {
                (
                    rv.name,
                    Json::Obj(
                        rv.windows
                            .iter()
                            .map(|(label, s)| {
                                ((*label).to_owned(), Json::obj(vec![
                                    ("count", Json::num_u(s.count)),
                                    ("rate", Json::Num(if s.rate.is_finite() { s.rate } else { 0.0 })),
                                    ("p50", Json::num_u(s.p50)),
                                    ("p90", Json::num_u(s.p90)),
                                    ("p99", Json::num_u(s.p99)),
                                ]))
                            })
                            .collect(),
                    ),
                )
            })
            .collect(),
    )
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

/// Renders a snapshot as an aligned text block.
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
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        for (name, value) in &snap.counters {
            let _ = writeln!(out, "  {name:<36} {value}");
        }
    }
    if !snap.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        for (name, value) in &snap.gauges {
            let _ = writeln!(out, "  {name:<36} {value}");
        }
    }
    for (name, h) in &snap.hists {
        let _ = writeln!(
            out,
            "hist {name}: n={} mean={:.1} p50={} p99={}",
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
        r.add("search.dfs_expansions", 7);
        r.gauge_set("engine.dist_cache.entries", 3);
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
        r.add("mine.cast_sites", 12);
        r.record_span(Stage::Mine, 2_500_000);
        let text = to_text(&r.snapshot());
        assert!(text.contains("mine.cast_sites"));
        assert!(text.contains("2.50ms"));
    }
}
