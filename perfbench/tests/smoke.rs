//! Smoke test: a tiny run of every workload, untraced and traced, must
//! pass every correctness check and emit every metric `BENCHMARK.json`
//! names, plus each workload's own end-to-end metrics in its report.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use caladrius_api::json::{self, Value};
use std::process::Command;

const WORKLOADS: [(&str, &[&str]); 3] = [
    (
        "topology-minute",
        &[
            "setup_s",
            "failed_share",
            "plan_ms_p50",
            "plan_ms_p90",
            "validate_ms_p50",
            "forecast_ape_pct",
            "plan_containers",
        ],
    ),
    (
        "fleet-rounds",
        &[
            "setup_s",
            "failed_share",
            "plan_containers",
            "fleet_steady_round_s",
            "fleet_drift_round_s",
            "fleet_alldrift_round_s",
            "ingest_batches_per_s",
        ],
    ),
    (
        "whatif-sweep",
        &[
            "setup_s",
            "failed_share",
            "whatif_rps",
            "whatif_ms_p50",
            "whatif_ms_p90",
        ],
    ),
];

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (Value, Value) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--scale",
            "smoke",
        ])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = stdout
        .lines()
        .find_map(|l| l.strip_prefix("report "))
        .expect("a report line");
    let result = stdout.lines().last().expect("a result line");
    (
        json::parse(report).expect("report is JSON"),
        json::parse(result).expect("result is JSON"),
    )
}

fn assert_metrics(result: &Value, expected: &[(String, String)], what: &str) {
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object");
    assert_eq!(metrics.len(), expected.len(), "{what}: {metrics:?}");
    for (name, unit) in expected {
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{what} lacks {name}"));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
        assert!(m
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite));
    }
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_metric() {
    let spec = benchmark_json();
    let e2e = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let declared: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(declared, WORKLOADS.map(|(w, _)| w.to_string()));

    for (workload, own) in WORKLOADS {
        let (report, result) = run(workload, "0");
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        assert_metrics(&result, &e2e, workload);
        for name in own {
            assert!(
                report.get("metrics").and_then(|m| m.get(name)).is_some(),
                "{workload} report lacks {name}"
            );
        }
        for fact in ["nproc", "configured_threads", "git_commit", "build_profile"] {
            assert!(report.get(fact).is_some(), "report lacks {fact}");
        }

        let (_, traced) = run(workload, "1");
        assert_eq!(traced.get("correct"), Some(&Value::Bool(true)));
        assert_metrics(&traced, &per_layer, workload);
    }
}
