//! Prometheus text exposition rendering for metric snapshots.
//!
//! The `serve` mode's `GET /metrics` endpoint returns this format
//! (version 0.0.4 of the text exposition protocol): every line is a
//! `# HELP`, a `# TYPE`, or a `name{labels} value` sample. Names are
//! mangled mechanically from registry names — `prospector_` prefix, dots
//! become underscores, counters gain a `_total` suffix — so the mapping
//! back to the README's metric schema table is one string substitution,
//! not a lookup table:
//!
//! | registry                  | exposition                                |
//! |---------------------------|-------------------------------------------|
//! | counter `search.dfs_expansions` | `prospector_search_dfs_expansions_total` |
//! | gauge `engine.dist_cache.entries` | `prospector_engine_dist_cache_entries` |
//! | stage `search`            | `prospector_stage_*{stage="search"}`      |
//! | histogram `query.latency_ns` | `prospector_query_latency_ns{_bucket,_sum,_count}` |
//!
//! Histograms are the interesting case: the registry's fixed log2
//! buckets become cumulative `_bucket{le="..."}` series whose `le`
//! bounds are the buckets' inclusive upper limits (`0`, `1`, `3`, `7`,
//! ... — [`crate::hist::Histogram::bucket_limit`]), always terminated by
//! `le="+Inf"` equal to `_count`, exactly as the Prometheus histogram
//! contract requires.

use std::fmt::Write as _;

use crate::hist::{HistSnapshot, Histogram};
use crate::metrics::Snapshot;
use crate::window::RingViews;

/// Mangles a registry name into a Prometheus metric name: `prospector_`
/// prefix, every non-alphanumeric byte to `_`.
#[must_use]
pub fn metric_name(registry_name: &str) -> String {
    let mut out = String::with_capacity(registry_name.len() + 11);
    out.push_str("prospector_");
    for c in registry_name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label *value* per the exposition format: backslash, double
/// quote, and newline must be backslash-escaped inside the quotes.
#[must_use]
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Writes one gauge sample with an f64 value, coercing non-finite
/// values to 0 so a scrape never sees `NaN`/`inf` from an empty window.
fn sample_f64(out: &mut String, name: &str, labels: &str, value: f64) {
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = writeln!(out, "{name}{labels} {value}");
}

fn sample(out: &mut String, name: &str, labels: &str, value: u64) {
    let _ = writeln!(out, "{name}{labels} {value}");
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn render_histogram(out: &mut String, name: &str, h: &HistSnapshot) {
    header(out, name, "histogram", "Log2-bucket histogram from the metric registry.");
    let mut cumulative = 0u64;
    let last_nonempty = h.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
    for (i, &b) in h.buckets.iter().enumerate().take(last_nonempty + 1) {
        cumulative += b;
        let le = Histogram::bucket_limit(i);
        if le == u64::MAX {
            // The overflow bucket is the +Inf line below.
            break;
        }
        sample(out, name, &format!("_bucket{{le=\"{le}\"}}"), cumulative);
    }
    sample(out, name, "_bucket{le=\"+Inf\"}", h.count);
    sample(out, name, "_sum", h.sum);
    sample(out, name, "_count", h.count);
}

/// Renders a snapshot in the Prometheus text exposition format.
#[must_use]
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (name, &value) in &snap.counters {
        let prom = format!("{}_total", metric_name(name));
        header(&mut out, &prom, "counter", &format!("Registry counter `{name}`."));
        sample(&mut out, &prom, "", value);
    }
    for (name, &value) in &snap.gauges {
        let prom = metric_name(name);
        header(&mut out, &prom, "gauge", &format!("Registry gauge `{name}`."));
        sample(&mut out, &prom, "", value);
    }
    if !snap.stages.is_empty() {
        header(
            &mut out,
            "prospector_stage_count",
            "counter",
            "Completed spans per pipeline stage.",
        );
        for (name, stat) in &snap.stages {
            sample(&mut out, "prospector_stage_count", &format!("{{stage=\"{}\"}}", escape_label(name)), stat.count);
        }
        header(
            &mut out,
            "prospector_stage_total_ns",
            "counter",
            "Total wall-clock nanoseconds per pipeline stage.",
        );
        for (name, stat) in &snap.stages {
            sample(
                &mut out,
                "prospector_stage_total_ns",
                &format!("{{stage=\"{}\"}}", escape_label(name)),
                stat.total_ns,
            );
        }
        header(
            &mut out,
            "prospector_stage_max_ns",
            "gauge",
            "Longest single span per pipeline stage, in nanoseconds.",
        );
        for (name, stat) in &snap.stages {
            sample(
                &mut out,
                "prospector_stage_max_ns",
                &format!("{{stage=\"{}\"}}", escape_label(name)),
                stat.max_ns,
            );
        }
    }
    for (name, h) in &snap.hists {
        render_histogram(&mut out, &metric_name(name), h);
    }
    out
}

/// Renders rolling-window views ([`crate::window::views`]) as gauges:
/// for each ring, `<name>_window{win,q}` quantile gauges (value units
/// match what was recorded), `<name>_window_rate{win}` (events/second,
/// always finite — 0 for an empty window, never NaN), and
/// `<name>_window_count{win}`.
#[must_use]
pub fn render_windows(views: &[RingViews]) -> String {
    let mut out = String::new();
    for rv in views {
        let base = format!("{}_window", metric_name(&rv.name));
        header(
            &mut out,
            &base,
            "gauge",
            &format!("Rolling-window quantiles of `{}`.", rv.name),
        );
        for (label, stats) in &rv.windows {
            let win = escape_label(label);
            for (q, v) in [("p50", stats.p50), ("p90", stats.p90), ("p99", stats.p99)] {
                sample(&mut out, &base, &format!("{{win=\"{win}\",q=\"{q}\"}}"), v);
            }
        }
        let rate = format!("{base}_rate");
        header(&mut out, &rate, "gauge", &format!("Rolling-window event rate of `{}` (per second).", rv.name));
        for (label, stats) in &rv.windows {
            sample_f64(&mut out, &rate, &format!("{{win=\"{}\"}}", escape_label(label)), stats.rate);
        }
        let count = format!("{base}_count");
        header(&mut out, &count, "gauge", &format!("Rolling-window event count of `{}`.", rv.name));
        for (label, stats) in &rv.windows {
            sample(&mut out, &count, &format!("{{win=\"{}\"}}", escape_label(label)), stats.count);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Registry, StageStat};
    use crate::span::Stage;

    #[test]
    fn names_mangle_mechanically() {
        assert_eq!(metric_name("search.dfs_expansions"), "prospector_search_dfs_expansions");
        assert_eq!(metric_name("engine.dist-cache.entries"), "prospector_engine_dist_cache_entries");
    }

    #[test]
    fn renders_counters_gauges_and_stages() {
        let r = Registry::new();
        r.add("search.dfs_expansions", 7);
        r.gauge_set("graph.nodes", 42);
        r.record_span(Stage::Search, 1_000);
        let text = render(&r.snapshot());
        assert!(text.contains("# TYPE prospector_search_dfs_expansions_total counter"));
        assert!(text.contains("prospector_search_dfs_expansions_total 7"));
        assert!(text.contains("# TYPE prospector_graph_nodes gauge"));
        assert!(text.contains("prospector_graph_nodes 42"));
        assert!(text.contains("prospector_stage_count{stage=\"search\"} 1"));
        assert!(text.contains("prospector_stage_total_ns{stage=\"search\"} 1000"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_with_inf() {
        let r = Registry::new();
        let h = r.histogram("query.latency_ns");
        for v in [0, 1, 2, 3, 100] {
            h.record(v);
        }
        let text = render(&r.snapshot());
        assert!(text.contains("# TYPE prospector_query_latency_ns histogram"));
        // Buckets: le=0 holds the zero, le=1 adds the one, le=3 the 2 and
        // 3, le=127 the 100.
        assert!(text.contains("prospector_query_latency_ns_bucket{le=\"0\"} 1"), "{text}");
        assert!(text.contains("prospector_query_latency_ns_bucket{le=\"1\"} 2"), "{text}");
        assert!(text.contains("prospector_query_latency_ns_bucket{le=\"3\"} 4"), "{text}");
        assert!(text.contains("prospector_query_latency_ns_bucket{le=\"127\"} 5"), "{text}");
        assert!(text.contains("prospector_query_latency_ns_bucket{le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("prospector_query_latency_ns_sum 106"), "{text}");
        assert!(text.contains("prospector_query_latency_ns_count 5"), "{text}");
        // Cumulative counts never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=") && !l.contains("+Inf")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn zero_count_histogram_renders_valid_cumulative_buckets() {
        let r = Registry::new();
        let _ = r.histogram("never.recorded");
        let text = render(&r.snapshot());
        assert!(text.contains("# TYPE prospector_never_recorded histogram"), "{text}");
        // A zero-count histogram still emits a well-formed cumulative
        // series ending with the mandatory +Inf bucket equal to _count.
        assert!(text.contains("prospector_never_recorded_bucket{le=\"0\"} 0"), "{text}");
        assert!(text.contains("prospector_never_recorded_bucket{le=\"+Inf\"} 0"), "{text}");
        assert!(text.contains("prospector_never_recorded_sum 0"), "{text}");
        assert!(text.contains("prospector_never_recorded_count 0"), "{text}");
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=") && !l.contains("+Inf")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "not cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn empty_window_gauges_are_finite_f64() {
        use crate::window::{WindowRing, RingViews};
        let ring = WindowRing::new();
        let views = vec![RingViews {
            name: "serve.http.latency_ns.query".to_owned(),
            windows: vec![("1m", ring.view(60)), ("5m", ring.view(300))],
        }];
        let text = render_windows(&views);
        assert!(
            text.contains("prospector_serve_http_latency_ns_query_window{win=\"1m\",q=\"p99\"} 0"),
            "{text}"
        );
        assert!(text.contains("_window_rate{win=\"1m\"} 0"), "{text}");
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let value = line.rsplit(' ').next().unwrap();
            let parsed: f64 = value.parse().unwrap_or_else(|_| panic!("bad value: {line}"));
            assert!(parsed.is_finite(), "non-finite window gauge: {line}");
        }
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
    }

    #[test]
    fn label_values_are_escape_safe() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        // A hostile stage name in a snapshot renders with its quote and
        // newline escaped so the sample stays one well-formed line.
        let mut snap = Snapshot::default();
        let stat = StageStat { count: 1, total_ns: 5, max_ns: 5 };
        snap.stages.insert("evil\"stage\nname".to_owned(), stat);
        let text = render(&snap);
        let line = text
            .lines()
            .find(|l| l.starts_with("prospector_stage_count"))
            .expect("stage series rendered");
        assert!(line.contains("{stage=\"evil\\\"stage\\nname\"}"), "{line}");
        assert_eq!(line.matches('\n').count(), 0);
    }

    #[test]
    fn every_line_is_help_type_or_sample() {
        let r = Registry::new();
        r.add("a.b", 1);
        r.gauge_set("c", 2);
        r.record_span(Stage::Store, 3);
        r.histogram("h").record(9);
        for line in render(&r.snapshot()).lines() {
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                continue;
            }
            let (name_labels, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
            let name = name_labels.split('{').next().unwrap();
            assert!(!name.is_empty());
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad name in {line}"
            );
        }
    }
}
