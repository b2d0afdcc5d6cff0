//! Prometheus text exposition rendering.
//!
//! The `serve` mode's `GET /metrics` endpoint returns this format
//! (version 0.0.4 of the text exposition protocol): every line is a
//! `# HELP`, a `# TYPE`, or a `name{labels} value` sample. Every family
//! comes from a [`crate::catalog`] row: its name is the row's
//! [`Row::prom_name`] (`prospector_` prefix, non-alphanumerics to `_`,
//! counters gain `_total`), and its `# HELP` and `# TYPE` lines are
//! written once, from the row, by [`Exposition`].
//!
//! Histograms become cumulative `_bucket{le="..."}` series whose `le`
//! bounds are the buckets' inclusive upper limits (`0`, `1`, `3`, `7`,
//! ... — [`crate::hist::Histogram::bucket_limit`]), always terminated by
//! `le="+Inf"` equal to `_count`, exactly as the Prometheus histogram
//! contract requires. A labeled histogram (one per tenant) writes its
//! labels before `le` and on `_sum` and `_count`. The histograms are
//! cumulative since boot: latency over a window is the scraper's
//! `rate()` over the `_bucket` series.

use std::fmt::Write as _;

use crate::catalog::{self, Counter, Gauge, Hist, Kind, Row};
use crate::hist::{HistSnapshot, Histogram};
use crate::metrics::Snapshot;

/// Mangles a series name into a Prometheus metric name: `prospector_`
/// prefix, every non-alphanumeric byte to `_`.
#[must_use]
pub fn metric_name(series: &str) -> String {
    let mut out = String::with_capacity(series.len() + 11);
    out.push_str("prospector_");
    out.extend(series.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }));
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

/// `k="v",..` with escaped values: the inside of a label set.
fn label_pairs(labels: &[(&str, &str)]) -> String {
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    pairs.join(",")
}

/// `{k="v",..}` with escaped values; empty for no labels.
fn label_set(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    format!("{{{}}}", label_pairs(labels))
}

/// One scrape being assembled. Samples are filed under their catalog
/// row in any order; each family's `# HELP` and `# TYPE` are written
/// once, from the row, ahead of its first sample. So a family fed by
/// two owners (the registry's `registry.reloads` total and the
/// tenants' labeled series) still has one header.
#[derive(Debug, Default)]
pub struct Exposition {
    /// `(family name, header and samples)`, in first-filed order.
    families: Vec<(String, String)>,
}

impl Exposition {
    /// The text of family `name`, opened with its header on first use.
    fn family(&mut self, name: &str, kind: &str, help: &str) -> &mut String {
        let i = self.families.iter().rposition(|(n, _)| n == name).unwrap_or_else(|| {
            self.families.push((name.to_owned(), format!("# HELP {name} {help}\n# TYPE {name} {kind}\n")));
            self.families.len() - 1
        });
        &mut self.families[i].1
    }

    /// Files one counter or gauge sample of `row`'s series for `label`
    /// (`None` for a row without a placeholder), carrying `labels`.
    pub fn value(&mut self, row: &Row, label: Option<&str>, labels: &[(&str, &str)], value: u64) {
        let name = row.prom_name(label);
        let kind = if row.kind == Kind::Counter { "counter" } else { "gauge" };
        let text = self.family(&name, kind, row.help);
        let _ = writeln!(text, "{name}{} {value}", label_set(labels));
    }

    /// Files a histogram of `row`'s series for `label`, carrying
    /// `labels`: its cumulative buckets up to the last non-empty one,
    /// `+Inf`, `_sum`, `_count`. The labels come before `le`.
    pub fn histogram(&mut self, row: &Row, label: Option<&str>, labels: &[(&str, &str)], h: &HistSnapshot) {
        let name = row.prom_name(label);
        let text = self.family(&name, "histogram", row.help);
        let pairs = label_pairs(labels);
        let sep = if pairs.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        let last_nonempty = h.buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
        for (i, &b) in h.buckets.iter().enumerate().take(last_nonempty + 1) {
            cumulative += b;
            let le = Histogram::bucket_limit(i);
            if le == u64::MAX {
                // The overflow bucket is the +Inf line below.
                break;
            }
            let _ = writeln!(text, "{name}_bucket{{{pairs}{sep}le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(text, "{name}_bucket{{{pairs}{sep}le=\"+Inf\"}} {}", h.count);
        let set = label_set(labels);
        let _ = writeln!(text, "{name}_sum{set} {}", h.sum);
        let _ = writeln!(text, "{name}_count{set} {}", h.count);
    }

    /// Files every series of a registry snapshot: each counter, gauge and
    /// histogram cell.
    pub fn snapshot(&mut self, snap: &Snapshot) {
        for ((row, label), &v) in catalog::cells(Counter::ROWS).zip(&snap.counters) {
            self.value(row, label, &[], v);
        }
        for ((row, label), &v) in catalog::cells(Gauge::ROWS).zip(&snap.gauges) {
            self.value(row, label, &[], v);
        }
        for ((row, label), h) in catalog::cells(Hist::ROWS).zip(&snap.hists) {
            self.histogram(row, label, &[], h);
        }
    }

    /// The assembled exposition text.
    #[must_use]
    pub fn finish(self) -> String {
        self.families.into_iter().map(|(_, text)| text).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Labeled;
    use crate::metrics::Registry;
    use crate::span::Stage;

    fn render(snap: &Snapshot) -> String {
        let mut e = Exposition::default();
        e.snapshot(snap);
        e.finish()
    }

    #[test]
    fn names_mangle_mechanically() {
        assert_eq!(metric_name("search.dfs_expansions"), "prospector_search_dfs_expansions");
        assert_eq!(metric_name("engine.dist-cache.entries"), "prospector_engine_dist_cache_entries");
    }

    #[test]
    fn renders_every_row_with_its_help_once() {
        let r = Registry::new();
        r.add(Counter::SearchDfsExpansions, 7);
        r.gauge_set(Gauge::GraphNodes, 42);
        r.histogram(Hist::StageLatencyNs, Stage::Search.index()).record(1_000);
        let text = render(&r.snapshot());
        assert!(text.contains("# HELP prospector_search_dfs_expansions_total DFS node expansions"), "{text}");
        assert!(text.contains("# TYPE prospector_search_dfs_expansions_total counter"));
        assert!(text.contains("prospector_search_dfs_expansions_total 7"));
        assert!(text.contains("# TYPE prospector_graph_nodes gauge"));
        assert!(text.contains("prospector_graph_nodes 42"));
        assert!(text.contains("prospector_engine_batch_errors_total 0"), "untouched rows render at zero");
        assert!(text.contains("prospector_store_section_csr_bytes 0"));
        assert!(text.contains("# TYPE prospector_stage_latency_ns_search histogram"));
        assert!(text.contains("prospector_stage_latency_ns_search_count 1"));
        assert!(text.contains("prospector_stage_latency_ns_search_sum 1000"));
        let helps: Vec<&str> = text.lines().filter(|l| l.starts_with("# HELP ")).collect();
        let mut names: Vec<&str> = helps.iter().map(|l| l.split(' ').nth(2).unwrap()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), helps.len(), "a family has two headers");
    }

    #[test]
    fn a_family_filed_twice_keeps_one_header() {
        let r = Registry::new();
        r.add(Counter::RegistryReloads, 3);
        let mut e = Exposition::default();
        e.snapshot(&r.snapshot());
        e.value(Counter::RegistryReloads.row(), None, &[("tenant", "beta")], 1);
        let text = e.finish();
        assert_eq!(text.matches("# HELP prospector_registry_reloads_total ").count(), 1);
        assert_eq!(text.matches("# TYPE prospector_registry_reloads_total ").count(), 1);
        let family: Vec<&str> =
            text.lines().filter(|l| l.starts_with("prospector_registry_reloads_total")).collect();
        assert_eq!(family, ["prospector_registry_reloads_total 3", "prospector_registry_reloads_total{tenant=\"beta\"} 1"]);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_with_inf() {
        let r = Registry::new();
        let h = r.histogram(Hist::QueryLatencyNs, 0);
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
        for line in text.lines().filter(|l| l.starts_with("prospector_query_latency_ns_bucket{le=") && !l.contains("+Inf")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    /// The top bucket holds every value from 2^62 up, so the largest
    /// values a saturating clock read yields land in it, under `+Inf`
    /// alone.
    #[test]
    fn values_past_2_pow_63_land_only_under_inf() {
        let h = Histogram::new();
        h.record(1 << 63);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.quantile(0.5), u64::MAX);
        let mut e = Exposition::default();
        e.histogram(Hist::QueryLatencyNs.row(), None, &[], &snap);
        let text = e.finish();
        assert!(text.contains("prospector_query_latency_ns_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("prospector_query_latency_ns_count 2"), "{text}");
        let finite: Vec<&str> = text.lines().filter(|l| l.contains("_bucket{le=") && !l.contains("+Inf")).collect();
        assert_eq!(finite.len(), 63, "every finite bound up to 2^62 - 1: {text}");
        assert!(finite.iter().all(|l| l.ends_with(" 0")), "{text}");
    }

    #[test]
    fn zero_count_histogram_renders_valid_cumulative_buckets() {
        let text = render(&Registry::new().snapshot());
        assert!(text.contains("# TYPE prospector_stage_latency_ns_store histogram"), "{text}");
        // A zero-count histogram still emits a well-formed cumulative
        // series ending with the mandatory +Inf bucket equal to _count.
        assert!(text.contains("prospector_stage_latency_ns_store_bucket{le=\"0\"} 0"), "{text}");
        assert!(text.contains("prospector_stage_latency_ns_store_bucket{le=\"+Inf\"} 0"), "{text}");
        assert!(text.contains("prospector_stage_latency_ns_store_sum 0"), "{text}");
        assert!(text.contains("prospector_stage_latency_ns_store_count 0"), "{text}");
    }

    #[test]
    fn labeled_histograms_write_their_labels_before_le() {
        let h = Histogram::new();
        h.record(5);
        let row = Labeled::TenantLatencyNs.row();
        let mut e = Exposition::default();
        e.histogram(row, None, &[("tenant", "beta.1")], &h.snapshot());
        e.histogram(row, None, &[("tenant", "beta_1")], &Histogram::new().snapshot());
        let text = e.finish();
        assert_eq!(text.matches("# TYPE prospector_serve_tenant_latency_ns histogram").count(), 1, "{text}");
        assert!(text.contains("prospector_serve_tenant_latency_ns_bucket{tenant=\"beta.1\",le=\"7\"} 1"), "{text}");
        assert!(text.contains("prospector_serve_tenant_latency_ns_bucket{tenant=\"beta.1\",le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("prospector_serve_tenant_latency_ns_sum{tenant=\"beta.1\"} 5"), "{text}");
        assert!(text.contains("prospector_serve_tenant_latency_ns_count{tenant=\"beta.1\"} 1"), "{text}");
        assert!(text.contains("prospector_serve_tenant_latency_ns_count{tenant=\"beta_1\"} 0"), "{text}");
        let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        let mut series: Vec<&str> = samples.iter().map(|l| l.rsplit_once(' ').unwrap().0).collect();
        series.sort_unstable();
        series.dedup();
        assert_eq!(series.len(), samples.len(), "two tenants share a series: {text}");
    }

    #[test]
    fn label_values_are_escape_safe() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
        // A hostile tenant name renders with its quote and newline
        // escaped so the sample stays one well-formed line.
        let mut e = Exposition::default();
        e.value(Labeled::EngineQueries.row(), None, &[("tenant", "evil\"tenant\nname")], 1);
        let text = e.finish();
        let samples: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(samples, ["prospector_engine_queries_total{tenant=\"evil\\\"tenant\\nname\"} 1"], "{text}");
    }

    #[test]
    fn every_line_is_help_type_or_sample() {
        let r = Registry::new();
        r.add(Counter::MineExamples, 1);
        r.gauge_set(Gauge::GraphEdges, 2);
        r.histogram(Hist::StageLatencyNs, Stage::Store.index()).record(3);
        r.histogram(Hist::ServeQueueWaitNs, 0).record(9);
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
