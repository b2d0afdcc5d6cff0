//! Toy-size self-check: a 10^3-type run of every workload, untraced and
//! traced, must print every metric `BENCHMARK.json` names with its unit,
//! pass the correctness gate, isolate its layer, log no request whose
//! server-side queue wait + handling time exceeds its client round trip,
//! and replay the engine's rankings exactly.
//!
//! `cargo test --release --manifest-path servebench/Cargo.toml`

use std::collections::BTreeMap;
use std::process::Command;

use prospector_obs::Json;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(format!("{ROOT}/BENCHMARK.json")).expect("BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json is JSON");
    json.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// What one toy run printed: its `metric` lines, its `info` lines'
/// `key=value` fields by line tag, and the final JSON line.
struct Printed {
    metrics: BTreeMap<String, (f64, String)>,
    info: BTreeMap<String, BTreeMap<String, String>>,
    result: Json,
}

fn toy(workload: &str, trace: u8) -> Printed {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .current_dir(ROOT)
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--types",
            "1000",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run servebench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let parts: Vec<&str> = l.split(' ').collect();
            let value = parts[1]
                .parse()
                .unwrap_or_else(|_| panic!("numeric value in {l:?}"));
            (parts[0].to_owned(), (value, parts[2].to_owned()))
        })
        .collect();
    let info = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("info "))
        .filter_map(|l| {
            let (tag, rest) = l.split_once(' ')?;
            let fields = rest
                .split(' ')
                .filter_map(|f| f.split_once('='))
                .map(|(k, v)| (k.to_owned(), v.to_owned()))
                .collect();
            Some((tag.to_owned(), fields))
        })
        .collect();
    let last = stdout.lines().last().expect("a result line");
    Printed {
        metrics,
        info,
        result: Json::parse(last).expect("the last line is JSON"),
    }
}

#[test]
fn every_workload_prints_its_metrics_and_passes_the_gate() {
    for workload in ["hot_repeat", "cold_targets", "assist_scope"] {
        for (trace, list) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let Printed {
                metrics: printed,
                info,
                result,
            } = toy(workload, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload}: {result:?}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics");
            let want = declared(list);
            assert_eq!(
                metrics.len(),
                want.len(),
                "{workload}/{list}: exactly the declared metrics"
            );
            for (name, unit) in &want {
                let (value, printed_unit) = &printed[name];
                assert_eq!(printed_unit, unit, "{workload}: unit of {name}");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                let reported = metrics.iter().find(|(k, _)| k == name).map(|(_, v)| v);
                let reported =
                    reported.unwrap_or_else(|| panic!("{workload}: {name} not reported"));
                assert_eq!(
                    reported.get("unit").and_then(Json::as_str),
                    Some(unit.as_str())
                );
                assert_eq!(reported.get("value").and_then(Json::as_f64), Some(*value));
            }
            if trace == 0 {
                for (name, _) in &want {
                    assert!(
                        printed[name].0 > 0.0,
                        "{workload}: end-to-end {name} is never 0"
                    );
                }
                continue;
            }
            let m = |name: &str| printed[name].0;
            assert_eq!(m("precision_at_1"), 1.0, "{workload}");
            assert_eq!(m("replay.mismatches"), 0.0, "{workload}");
            // On average, and for every request joined to its access-log
            // line by trace_id (`/query` answers carry one, `/assist`
            // answers do not), the server's queue wait + handling time fit
            // inside the client's round trip.
            assert!(
                m("poller.wire_us") >= 0.0,
                "{workload}: mean queue + handle exceed the mean round trip"
            );
            let split = |k: &str| -> u64 { info["split"][k].parse().expect("a count") };
            assert_eq!(split("over_rtt"), 0, "{workload}");
            if workload != "assist_scope" {
                assert!(split("spans") > 0, "{workload}: no traced span");
                assert_eq!(split("joined"), split("spans"), "{workload}");
            }
            match workload {
                "hot_repeat" => {
                    assert_eq!(m("cache.result_hit_ratio"), 1.0);
                    assert_eq!(m("search.bfs_us"), 0.0);
                }
                "cold_targets" => {
                    assert_eq!(m("cache.dist_hit_ratio"), 0.0);
                    assert!(m("search.bfs_us") > 0.0);
                }
                _ => {
                    assert_eq!(m("cache.dist_hit_ratio"), 1.0);
                    assert_eq!(m("engine.fanout_us"), 0.0);
                }
            }
        }
    }
}
