//! Runs the built binary the way the driver does, at smoke size, and holds
//! what it prints to `BENCHMARK.json`: every declared metric is emitted,
//! nothing undeclared is, and every workload passes its oracle.

use std::process::Command;

use serde::Value;

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let file = serde_json::parse_value_str(&text).expect("BENCHMARK.json is JSON");
    let Value::Array(items) = file.field(section).expect("section") else {
        panic!("{section} must be a list")
    };
    items
        .iter()
        .map(|m| match m.field("name") {
            Ok(Value::Str(name)) => name.clone(),
            _ => panic!("every {section} entry has a name"),
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics_and_passes_its_oracle() {
    for workload in declared("workloads") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_hybrids-benchmark"))
                .args(["--workload", &workload, "--seed", "7", "--seconds", "1", "--trace", trace])
                .arg("--smoke")
                .output()
                .expect("the benchmark binary runs");
            assert!(out.status.success(), "{workload} --trace {trace} exited with {}", out.status);
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = serde_json::parse_value_str(last).expect("the last line is JSON");
            let Value::Object(keys) = &result else { panic!("the result is an object") };
            let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.field("correct").unwrap(),
                &Value::Bool(true),
                "{workload} --trace {trace}"
            );
            assert_eq!(
                result.field("failed").unwrap(),
                &Value::UInt(0),
                "{workload} --trace {trace}"
            );
            let Value::Object(metrics) = result.field("metrics").unwrap() else {
                panic!("metrics is an object")
            };
            let emitted: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(emitted, declared(section), "{workload} --trace {trace}");
        }
    }
}
