//! Runs the benchmark binary at smoke-test size on every workload, in
//! both modes, and checks the result line against `BENCHMARK.json`.

use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["synthetic_tnra", "trec_tra", "serve_tnra_uniform"];

const PINNED_ENV: [&str; 4] = [
    "AUTHSEARCH_THREADS",
    "AUTHSEARCH_CORE",
    "AUTHSEARCH_MAX_CONNECTIONS",
    "AUTHSEARCH_IDLE_MS",
];

fn perfbench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    for var in PINNED_ENV {
        cmd.env_remove(var);
    }
    // Spans go beside this test's own build output.
    cmd.env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"));
    cmd
}

fn run(workload: &str, trace: &str) -> Output {
    perfbench(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "2",
        "--trace",
        trace,
        "--tiny",
    ])
    .output()
    .expect("run perfbench")
}

/// `(name, unit)` of every metric listed under `section` in BENCHMARK.json.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\"")).expect("field") + key.len() + 2;
                let rest = &entry[at..];
                let open = rest.find('"').expect("value") + 1;
                let close = open + rest[open..].find('"').expect("value ends");
                rest[open..close].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn check_result(workload: &str, trace: &str, expected: &[(String, String)]) {
    let out = run(workload, trace);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    for (name, unit) in expected {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = last
            .find(&key)
            .unwrap_or_else(|| panic!("{workload} --trace {trace}: no {name} in {last}"));
        let rest = &last[at + key.len()..];
        let (value, tail) = rest.split_once(',').expect("value then unit");
        let value: f64 = value
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name}: {value}"));
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            tail.trim_start()
                .starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{name}: wrong unit in {tail}"
        );
    }
    assert_eq!(
        last.matches("\"unit\"").count(),
        expected.len(),
        "{workload} --trace {trace} prints metrics BENCHMARK.json does not list"
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("{\"context\": ")),
        "no context line"
    );
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end.len(), 7);
    assert!(end_to_end.contains(&("setup_s".to_string(), "s".to_string())));
    for workload in WORKLOADS {
        check_result(workload, "0", &end_to_end);
        check_result(workload, "1", &per_layer);
    }
}

#[test]
fn pinned_environment_is_refused() {
    for var in PINNED_ENV {
        let out = perfbench(&[
            "--workload",
            "synthetic_tnra",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--tiny",
        ])
        .env(var, "1")
        .output()
        .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(out.stdout.is_empty(), "{var}: printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains(var));
    }
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--workload", "trec_tra", "--seconds", "1"][..],
        &[
            "--workload",
            "trec_tra",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = perfbench(args).output().expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
