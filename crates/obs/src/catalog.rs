//! The metric catalog: every series the process exposes, declared once.
//!
//! One row per series or family gives its dotted name, its kind and its
//! help text. Recording sites name a row, never a string
//! (`add(Counter::SearchDfsExpansions, n)`), [`crate::prom`] writes each
//! family's HELP and TYPE lines from its row, and the README's metric
//! table is this table (`crates/obs/tests/catalog.rs` checks it).
//!
//! A `<label>` segment in a name marks a family with one series per
//! label value (`stage.latency_ns.<stage>`), and a `{..}` suffix names the
//! labels a row's samples carry. [`Counter`], [`Gauge`] and [`Hist`] rows
//! have registry cells ([`crate::metrics`]); [`Labeled`] rows' cells live
//! with their owner (the serve layer, the tenant registry).

use crate::span::Stage;

/// What a row's series are, and how `/metrics` types them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count; its exposition name gains `_total`.
    Counter,
    /// A last-written value.
    Gauge,
    /// A log2-bucket histogram ([`crate::hist`]).
    Histogram,
}

impl Kind {
    /// The kind as the README's metric table names it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One catalog row.
#[derive(Debug)]
pub struct Row {
    /// The dotted name, with any `<label>` placeholder and `{..}` labels.
    pub name: &'static str,
    /// What the series are.
    pub kind: Kind,
    /// One line saying what the series mean: the family's HELP text.
    pub help: &'static str,
    /// The values of a family whose cells the registry holds, else empty.
    pub labels: &'static [&'static str],
}

impl Row {
    /// The dotted name of one series: `label` fills the `<..>`
    /// placeholder, and the `{..}` label list is dropped.
    #[must_use]
    pub fn series(&self, label: Option<&str>) -> String {
        let name = self.name.split('{').next().unwrap_or(self.name);
        match (name.split_once('<'), label) {
            (Some((head, rest)), Some(label)) => {
                let tail = rest.split_once('>').map_or("", |(_, tail)| tail);
                format!("{head}{label}{tail}")
            }
            _ => name.to_owned(),
        }
    }

    /// The Prometheus family name of one series: `prospector_` plus the
    /// series name with every non-alphanumeric byte as `_`, plus
    /// `_total` for a counter.
    #[must_use]
    pub fn prom_name(&self, label: Option<&str>) -> String {
        let mut out = crate::prom::metric_name(&self.series(label));
        if self.kind == Kind::Counter {
            out.push_str("_total");
        }
        out
    }
}

/// The registry cells of `rows`, in cell order: each row with `None`
/// when it is plain, or with each of its label values.
pub fn cells(rows: &'static [Row]) -> impl Iterator<Item = (&'static Row, Option<&'static str>)> {
    rows.iter().flat_map(|row| {
        let plain = row.labels.is_empty().then_some((row, None));
        plain.into_iter().chain(row.labels.iter().map(move |&label| (row, Some(label))))
    })
}

/// Where each row's registry cells start (one cell per label value of a
/// family, one for a plain row), then the table's cell count.
const fn cell_starts<const N: usize>(rows: &[Row]) -> [usize; N] {
    let mut out = [0; N];
    let mut i = 1;
    while i < N {
        let labels = rows[i - 1].labels.len();
        out[i] = out[i - 1] + if labels == 0 { 1 } else { labels };
        i += 1;
    }
    out
}

macro_rules! catalog {
    ($(
        $(#[$doc:meta])*
        $Enum:ident {
            $( $Variant:ident $kind:ident $name:literal $([$labels:expr])? $help:literal; )*
        }
    )*) => {
        $(
            $(#[$doc])*
            #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
            pub enum $Enum {
                $( #[doc = $help] $Variant, )*
            }

            impl $Enum {
                /// This table's rows; a variant's discriminant is its index.
                pub const ROWS: &'static [Row] = &[$(
                    Row {
                        name: $name,
                        kind: Kind::$kind,
                        help: $help,
                        labels: catalog!(@labels $($labels)?),
                    },
                )*];

                const STARTS: [usize; $Enum::ROWS.len() + 1] = cell_starts($Enum::ROWS);

                /// Registry cells of the whole table.
                pub const CELLS: usize = $Enum::STARTS[$Enum::ROWS.len()];

                /// The variant's row.
                #[must_use]
                pub fn row(self) -> &'static Row {
                    &$Enum::ROWS[self as usize]
                }

                /// Index of the cell of label value `label` (0 for a plain
                /// row) in this table's cell array; panics past the row's.
                #[must_use]
                pub fn cell(self, label: usize) -> usize {
                    let (start, end) = ($Enum::STARTS[self as usize], $Enum::STARTS[self as usize + 1]);
                    assert!(start + label < end, "{} has no label {label}", self.row().name);
                    start + label
                }
            }
        )*

        /// Every catalog row, table by table, in declaration order.
        pub fn rows() -> impl Iterator<Item = &'static Row> {
            [$($Enum::ROWS),*].into_iter().flatten()
        }
    };
    (@labels) => { &[] };
    (@labels $labels:expr) => { $labels };
}

catalog! {
    /// Counters the registry holds: [`crate::metrics::add`] them.
    Counter {
        GraphCsrRebuilds Counter "graph.csr.rebuilds" "CSR adjacency rebuilds: one per graph construction and one per example splice batch.";
        GraphExamplesSpliced Counter "graph.examples_spliced" "Generalized example jungloids spliced into the graph.";
        MineCastSites Counter "mine.cast_sites" "Downcast sites found in the client corpus (§4.2).";
        MineCappedCasts Counter "mine.capped_casts" "Cast sites that hit the per-cast example cap.";
        MineExamples Counter "mine.examples" "Raw example jungloids extracted from the corpus.";
        MineArgSites Counter "mine.arg_sites" "Argument sites examined by parameter mining (§4.3).";
        MineParamExamples Counter "mine.param_examples" "Parameter examples extracted by parameter mining (§4.3).";
        GeneralizeSuffixesTrimmed Counter "generalize.suffixes_trimmed" "Examples shortened by generalization (§4.2).";
        SearchDfsExpansions Counter "search.dfs_expansions" "DFS node expansions during path enumeration.";
        SearchBfsRelaxations Counter "search.bfs_relaxations" "Edges scanned while building distance fields, complete or bounded (not charged to max_expansions).";
        SearchPathsEnumerated Counter "search.paths_enumerated" "Jungloid paths produced by enumeration.";
        SearchTruncatedPathCap Counter "search.truncated.path_cap" "Enumerations cut off at max_results.";
        SearchTruncatedExpansionCap Counter "search.truncated.expansion_cap" "Enumerations cut off at max_expansions.";
        EngineDistCacheHits Counter "engine.dist_cache.hits" "Distance-field lookups answered from the distance cache.";
        EngineDistCacheMisses Counter "engine.dist_cache.misses" "Distance-field lookups that built a field.";
        EngineDistCacheEvictions Counter "engine.dist_cache.evictions" "LRU victims dropped from the distance cache.";
        EngineResultCacheHits Counter "engine.result_cache.hits" "Queries answered from the result cache.";
        EngineResultCacheMisses Counter "engine.result_cache.misses" "Queries that missed the result cache and ran the pipeline.";
        EngineResultCacheEvictions Counter "engine.result_cache.evictions" "LRU victims dropped from the result cache.";
        EngineBatchCalls Counter "engine.batch.calls" "query_batch invocations.";
        EngineBatchQueries Counter "engine.batch.queries" "Queries fanned out by query_batch.";
        EngineBatchErrors Counter "engine.batch.errors" "Batch slots that returned a per-query error.";
        EngineAssistCalls Counter "engine.assist.calls" "Content-assist queries.";
        EngineAssistSources Counter "engine.assist.sources" "Visible-variable sources that assist queries searched from.";
        EngineAssistReachable Counter "engine.assist.reachable" "Assist sources that can reach the requested output type.";
        EngineAssistUnreachable Counter "engine.assist.unreachable" "Assist sources that cannot reach the requested output type.";
        EngineAssistAlreadyAvailable Counter "engine.assist.already_available" "Visible variables whose type already widens to the requested output type.";
        EngineDedupDrops Counter "engine.dedup_drops" "Candidates dropped as duplicate rendered code.";
        RankComparisons Counter "rank.comparisons" "Comparisons made by the ranking sort (§3.2).";
        SynthSnippets Counter "synth.snippets" "Code snippets rendered by synthesis.";
        RegistryReloads Counter "registry.reloads" "Successful hot reloads: the process total, and each tenant's under a tenant label.";
        RegistryReloadFailures Counter "registry.reload_failures" "Failed reloads, the old engine kept serving: the process total, and each tenant's under a tenant label.";
        StoreSaves Counter "store.saves" "Snapshots written.";
        StoreLoads Counter "store.loads" "Snapshots loaded.";
        ServePollerAccepts Counter "serve.poller.accepts" "Connections accepted by the serve threads.";
        ServePollerReaped Counter "serve.poller.reaped" "Idle connections reaped by the serve core's timer wheel.";
        ServePollerFrameErrors Counter "serve.poller.frame_errors" "Connections closed after a request the framer rejected (400, 413 or 431).";
    }

    /// Gauges the registry holds: [`crate::metrics::gauge_set`] them.
    Gauge {
        GraphNodes Gauge "graph.nodes" "Jungloid-graph nodes of the current graph.";
        GraphEdges Gauge "graph.edges" "Jungloid-graph edges of the current graph.";
        GraphCsrBytes Gauge "graph.csr.bytes" "Approximate bytes of the CSR adjacency arrays of the current graph.";
        EngineDistCacheEntries Gauge "engine.dist_cache.entries" "Live distance-cache entries, read at report time: summed over every tenant on /metrics, the command's engine under --metrics.";
        EngineResultCacheEntries Gauge "engine.result_cache.entries" "Live result-cache entries, read at report time: summed over every tenant on /metrics, the command's engine under --metrics.";
        EngineBatchThreads Gauge "engine.batch.threads" "Workers of the most recent batch (a one-worker batch runs on the caller's thread).";
        RegistryTenants Gauge "registry.tenants" "Registered tenants.";
        RegistryEngineBytes Gauge "registry.engine_bytes" "Approximate resident bytes of every tenant's engine.";
        StoreSaveBytes Gauge "store.save_bytes" "Bytes of the last snapshot written.";
        StoreLoadBytes Gauge "store.load_bytes" "Bytes of the last snapshot loaded.";
        StoreMapMs Gauge "store.map_ms" "Milliseconds the last load spent on the snapshot's framing and section checksums: the sum of two laps, since the checksums run on a helper thread beside the decode.";
        StoreSectionBytes Gauge "store.section.<section>.bytes" [&["strings", "types", "members", "graph", "csr", "examples", "suffixes"]] "Payload bytes of one section of the last snapshot written or loaded.";
        ServeWorkersBusy Gauge "serve.workers.busy" "Serve threads holding a connection: reading, answering or writing it.";
        ServeConnsActive Gauge "serve.conns.active" "Accepted connections not yet closed, parked or being answered.";
        ServePollerParked Gauge "serve.poller.parked" "Accepted connections not being answered: idle, or writing answers already logged; a connection parks before the first byte of its last answer leaves.";
        ProcessRssBytes Gauge "process.rss_bytes" "Resident set size from /proc/self/status.";
        ProcessThreads Gauge "process.threads" "Threads from /proc/self/status.";
    }

    /// Histograms the registry holds: [`crate::metrics::histogram`].
    Hist {
        QueryLatencyNs Histogram "query.latency_ns" "Wall time of one recorded query, in nanoseconds.";
        StageLatencyNs Histogram "stage.latency_ns.<stage>" [&Stage::NAMES] "Wall time of one span of the stage, in nanoseconds.";
        ServeQueueWaitNs Histogram "serve.queue.wait_ns" "Time from a serve thread's pickup of the connection to the start of the request's answer (read, framing, earlier pipelined answers), in nanoseconds.";
    }

    /// Labeled series whose cells live with their owner, who files them
    /// into the scrape ([`crate::prom::Exposition`]).
    Labeled {
        ServeHttpRequests Counter "serve.http.requests{endpoint,code}" "HTTP requests served, by endpoint and status code.";
        ServeHttpLatencyNs Histogram "serve.http.latency_ns.<endpoint>" "Handle time of one request to the endpoint, in nanoseconds.";
        EngineGraphEpoch Gauge "engine.graph_epoch{tenant}" "Graph epoch of the tenant's installed engine.";
        EngineBytes Gauge "engine.bytes{tenant}" "Approximate resident bytes of the tenant's engine.";
        EngineQueries Counter "engine.queries{tenant}" "Queries routed to the tenant.";
        TenantState Gauge "tenant.state{tenant,state}" "Tenant lifecycle state (1 for the current state's series).";
        TenantLatencyNs Histogram "serve.tenant.latency_ns{tenant}" "Handle time of one request the tenant served, in nanoseconds.";
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_per_kind_and_tables_hold_their_kinds() {
        let mut seen = std::collections::BTreeSet::new();
        for row in rows() {
            assert!(seen.insert((row.name, row.kind.name())), "{} declared twice", row.name);
        }
        let kinds = |rows: &[Row], kinds: &[Kind]| rows.iter().all(|r| kinds.contains(&r.kind));
        assert!(kinds(Counter::ROWS, &[Kind::Counter]));
        assert!(kinds(Gauge::ROWS, &[Kind::Gauge]));
        assert!(kinds(Hist::ROWS, &[Kind::Histogram]));
    }

    #[test]
    fn series_fill_placeholders_and_mangle_mechanically() {
        let stage = Hist::StageLatencyNs.row();
        assert_eq!(stage.series(Some("search")), "stage.latency_ns.search");
        assert_eq!(stage.prom_name(Some("search")), "prospector_stage_latency_ns_search");
        let reaped = Counter::ServePollerReaped.row();
        assert_eq!(reaped.prom_name(None), "prospector_serve_poller_reaped_total");
        let requests = Labeled::ServeHttpRequests.row();
        assert_eq!(requests.series(None), "serve.http.requests");
        assert_eq!(requests.prom_name(None), "prospector_serve_http_requests_total");
        let tenant = Labeled::TenantLatencyNs.row();
        assert_eq!(tenant.prom_name(None), "prospector_serve_tenant_latency_ns");
    }

    #[test]
    fn cells_follow_the_rows_before_them() {
        assert_eq!(Counter::CELLS, Counter::ROWS.len());
        assert_eq!(Hist::CELLS, 2 + Stage::NAMES.len());
        assert_eq!(Hist::StageLatencyNs.cell(0), 1);
        assert_eq!(Hist::ServeQueueWaitNs.cell(0), 1 + Stage::NAMES.len());
        let sections = Gauge::StoreSectionBytes;
        assert_eq!(Gauge::ROWS[sections as usize + 1].name, "serve.workers.busy");
        assert_eq!(Gauge::ServeWorkersBusy.cell(0), sections.cell(6) + 1);
        let labels: Vec<_> = cells(Gauge::ROWS).map(|(row, label)| row.series(label)).collect();
        assert_eq!(labels.len(), Gauge::CELLS);
        assert_eq!(labels[sections.cell(0)], "store.section.strings.bytes");
        assert_eq!(labels[Gauge::GraphNodes.cell(0)], "graph.nodes");
    }

    #[test]
    #[should_panic(expected = "has no label")]
    fn a_label_past_the_family_panics() {
        let _ = Hist::StageLatencyNs.cell(Stage::NAMES.len());
    }
}
