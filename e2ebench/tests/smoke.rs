//! Smoke test: a short run of every workload, untraced and traced.
//!
//! Checks that each run prints, as its last line, every metric that
//! `BENCHMARK.json` lists for its mode (end-to-end or per-layer) with
//! the listed unit, and that no timed operation failed (none hit a
//! deadline, was shed, or errored). Run with
//! `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use std::process::Command;

const WORKLOADS: &[&str] = &["hb_sweep_t1", "hblarge_t2", "wire_mix"];

/// The value of `"key": "<value>"` inside `obj`, if present.
fn string_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let start = obj.find(&pat)? + pat.len();
    let len = obj[start..].find('"')?;
    Some(&obj[start..start + len])
}

/// (name, unit) of every metric in the `section` array of BENCHMARK.json.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section array ends")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                string_field(obj, "name").expect("metric name").to_string(),
                string_field(obj, "unit").expect("metric unit").to_string(),
            )
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("run e2ebench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} failed:\n{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 result");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: bool, section: &str) {
    let line = run(workload, trace);
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    assert!(
        line.contains("\"failed\": 0, "),
        "{workload}: an operation failed: {line}"
    );
    let metrics = listed(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{workload}: {name} missing from {line}"));
        let rest = &line[at + key.len()..];
        let end = rest.find(',').expect("value ends");
        let value: f64 = rest[..end]
            .parse()
            .unwrap_or_else(|_| panic!("{workload}: {name} is not a number"));
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if !trace {
            assert!(value > 0.0, "{workload}: end-to-end {name} reads 0");
        }
        assert!(
            rest[end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{workload}: {name} lacks unit {unit}"
        );
    }
    assert_eq!(
        line.matches("\"value\": ").count(),
        metrics.len(),
        "{workload}: emits metrics BENCHMARK.json does not list"
    );
}

#[test]
fn every_workload_emits_every_listed_metric() {
    for w in WORKLOADS {
        check(w, false, "end_to_end");
        check(w, true, "per_layer");
    }
}
