//! Seconds-long smoke runs of every workload: the output contract the
//! benchmark promises in `BENCHMARK.json`, checked end to end.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["flood", "fleet", "adaptive"];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_recvbench"))
        .args(args)
        .output()
        .expect("run recvbench")
}

/// Runs one workload for a second and returns its standard output
/// lines.
fn smoke(workload: &str, seed: &str, trace: &str) -> Vec<String> {
    let out = bench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = &entry[..entry.find('"').expect("name closes")];
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .map(|u| &u[..u.find('"').expect("unit closes")])
                .expect("unit present");
            (name.to_owned(), unit.to_owned())
        })
        .collect()
}

/// The value of metric `name` in the result line, asserting it appears
/// exactly once and carries `unit`.
fn value(result: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    assert_eq!(result.matches(&key).count(), 1, "{name} must print once");
    let rest = &result[result.find(&key).expect("metric present") + key.len()..];
    let (number, tail) = rest.split_once(", ").expect("value ends");
    assert!(
        tail.starts_with(&format!("\"unit\": \"{unit}\"}}")),
        "{name} must carry unit {unit}: {tail}"
    );
    number.parse().expect("numeric value")
}

#[test]
fn every_end_to_end_metric_prints_once_with_its_unit() {
    let metrics = declared("end_to_end");
    assert_eq!(metrics.len(), 7);
    for workload in WORKLOADS {
        let lines = smoke(workload, "11", "0");
        let result = lines.last().expect("a result line");
        assert!(result.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(
            result.contains("\"failed\": 0, "),
            "{workload}: a printed result has no failed frame"
        );
        assert_eq!(result.matches("\"value\"").count(), metrics.len());
        for (name, unit) in &metrics {
            let v = value(result, name, unit);
            assert!(v > 0.0, "{workload}: {name} = {v} must be positive");
        }
    }
}

#[test]
fn each_percentile_has_ten_samples_beyond_it() {
    for workload in WORKLOADS {
        let lines = smoke(workload, "12", "0");
        let samples = lines
            .iter()
            .find(|l| l.starts_with("samples: auth_delay"))
            .expect("sample line");
        let beyond: Vec<u64> = samples
            .split(", ")
            .skip(1)
            .map(|part| part.split(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(beyond.len(), 2, "{samples}");
        assert!(beyond.iter().all(|&n| n >= 10), "{workload}: {samples}");
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric() {
    let metrics = declared("per_layer");
    assert!(metrics.iter().any(|(n, _)| n == "stage.remainder_ns"));
    assert!(metrics.iter().any(|(n, _)| n == "trace.overhead_ratio"));
    for workload in WORKLOADS {
        let lines = smoke(workload, "13", "1");
        let result = lines.last().expect("a result line");
        assert_eq!(result.matches("\"value\"").count(), metrics.len());
        for (name, unit) in &metrics {
            value(result, name, unit);
        }
        let overhead = value(result, "trace.overhead_ratio", "ratio");
        assert!(overhead > 0.5, "{workload}: overhead ratio {overhead}");
    }
}

#[test]
fn one_seed_repeats_its_counters_across_processes() {
    let counters = |lines: Vec<String>| {
        lines
            .into_iter()
            .find(|l| l.starts_with("counters:"))
            .expect("counter line")
    };
    let a = counters(smoke("adaptive", "14", "0"));
    let b = counters(smoke("adaptive", "14", "1"));
    assert_eq!(a, b, "traced and untraced runs must count alike");
    assert_ne!(a, counters(smoke("adaptive", "15", "0")));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "flood", "--seed", "x", "--seconds", "1"],
        &["--workload", "flood", "--seconds", "1"],
        &[
            "--workload",
            "flood",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no result");
    }
}
