//! Tiny-size self-test: every workload runs end to end and per layer,
//! passes its output and fidelity checks, and reports every metric
//! `BENCHMARK.json` names.

use std::path::Path;
use std::process::Command;

/// The metric names listed under `key` in `BENCHMARK.json`.
fn metric_names(benchmark: &str, key: &str) -> Vec<String> {
    let start = benchmark
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let section = &benchmark[start..];
    let end = section.find(']').expect("the metric list closes");
    section[..end]
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            let rest = rest.trim_start().strip_prefix('"').expect("a quoted name");
            rest[..rest.find('"').expect("the name closes")].to_string()
        })
        .collect()
}

/// Runs one tiny benchmark invocation and returns its last stdout line.
fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_certbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--trials", "6"])
        .output()
        .expect("certbench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_reports_every_metric() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let benchmark = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let end_to_end = metric_names(&benchmark, "end_to_end");
    let per_layer = metric_names(&benchmark, "per_layer");
    assert!(end_to_end.iter().any(|name| name == "setup_s"));
    assert!(!per_layer.is_empty());
    for workload in metric_names(&benchmark, "workloads") {
        for (trace, names) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = run(&workload, trace);
            assert!(
                result.starts_with("{\"correct\":true,\"attempted\":"),
                "{workload} --trace {trace}: {result}"
            );
            assert!(result.contains("\"failed\":0,"), "{workload}: {result}");
            for name in names {
                assert!(
                    result.contains(&format!("\"{name}\":{{\"value\":")),
                    "{workload} --trace {trace} lacks {name}"
                );
            }
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_certbench"))
        .args(["--workload", "nope"])
        .output()
        .expect("certbench starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
