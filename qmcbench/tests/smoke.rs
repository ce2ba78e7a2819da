//! Reduced-length smoke runs of every workload: the benchmark binary must
//! print, as its last line, every metric `BENCHMARK.json` names, with the
//! unit it names, and pass its own output checks.

use qmc_instrument::json::{parse, JsonValue};
use std::process::Command;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn names<'a>(spec: &'a JsonValue, key: &str) -> Vec<(&'a str, &'a str)> {
    spec.get(key)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit");
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_qmcbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("the last line is one JSON object")
}

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    let spec = benchmark_json();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads.len(), 3);
    for workload in workloads {
        for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
            assert!(result.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            let metrics = result.get("metrics").expect("metrics object");
            let expected = names(&spec, key);
            assert_eq!(
                metrics.as_obj().map(<[_]>::len),
                Some(expected.len()),
                "{workload}: exactly the {key} metrics"
            );
            for (name, unit) in expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                let value = m.get("value").and_then(JsonValue::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} value"
                );
                assert_eq!(
                    m.get("unit").and_then(JsonValue::as_str),
                    Some(unit),
                    "{name}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "graphite-crowd", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_qmcbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
