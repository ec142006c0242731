//! Smoke test: every workload at `UniverseConfig::tiny()` scale with two
//! passes, untraced and traced, through the real command line.  Holds the
//! names the harness prints to the names `BENCHMARK.json` lists.

use qem_benchmark::contract::{self, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::Command;

/// Run the benchmark binary at tiny scale; its standard output.
fn run(workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_qem-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--trace", trace])
        .args(["--passes", "2", "--scale", "0.0001"])
        .output()
        .expect("the benchmark binary starts");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("the output is UTF-8")
}

/// The last line must be the result object: correct, with exactly the
/// `expected` metrics, each with its unit.
fn assert_result(stdout: &str, expected: &[(&str, &str)]) {
    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": ")
            && result.contains(", \"failed\": 0, \"metrics\": {")
            && result.ends_with("}}"),
        "{result}"
    );
    for (name, unit) in expected {
        let value = result
            .split_once(&format!("\"{name}\": {{\"value\": "))
            .unwrap_or_else(|| panic!("{name} is missing from {result}"))
            .1;
        let (number, rest) = value.split_once(", ").expect("a unit follows the value");
        assert!(
            number.parse::<f64>().is_ok_and(f64::is_finite),
            "{name} = {number}"
        );
        assert!(
            rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{name}: {rest}"
        );
    }
    assert_eq!(
        result.matches("\"value\": ").count(),
        expected.len(),
        "metrics beyond the expected ones in {result}"
    );
}

#[test]
fn benchmark_json_is_the_contract() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        contract::to_json(),
        "regenerate it: cargo run --manifest-path benchmark/Cargo.toml -- --contract"
    );
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let expected: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.0, m.1)).collect();
    for (workload, _) in WORKLOADS {
        let stdout = run(workload, "0");
        assert!(
            stdout.contains(&format!("workload {workload} ")),
            "{stdout}"
        );
        assert!(stdout.contains("output_digest "), "{stdout}");
        assert!(stdout.contains("noise_ratio "), "{stdout}");
        assert_result(&stdout, &expected);
    }
}

#[test]
fn every_traced_run_prints_every_per_layer_metric_and_writes_its_spans() {
    let expected: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
    for (workload, _) in WORKLOADS {
        let stdout = run(workload, "1");
        assert_result(&stdout, &expected);
        assert!(stdout.contains("tracing overhead"), "{stdout}");
        let spans = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{workload}.json"));
        let spans = std::fs::read_to_string(&spans).expect("the span file");
        assert!(spans.contains("\"name\": \"pass\""), "{spans}");
        assert!(spans.contains("\"parent\": "), "{spans}");
    }
}

#[test]
fn a_bad_command_line_prints_no_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--seconds", "0"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_qem-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary starts");
        assert!(!output.status.success(), "{args:?}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(!stdout.contains("\"correct\""), "{stdout}");
    }
}
