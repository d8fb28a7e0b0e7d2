//! Steadiness of the benchmark itself: what must repeat exactly does, and
//! `BENCHMARK.json` names exactly the metrics the benchmark reports.
//!
//! Run with `cargo test --release` (the runs simulate several million
//! instructions). The timed metrics' spread is checked by
//! `steadiness.py`, which needs many full-length runs.

use flexbench::report::Report;
use flexbench::{per_layer, run, END_TO_END};

/// End-to-end metrics that are a function of the seed alone.
const DETERMINISTIC: [&str; 4] = [
    "text_growth_pct",
    "sim_cycle_overhead_pct",
    "budget_miss_frac",
    "detection_rate",
];

fn correct_run(workload: &str, seed: u64, trace: bool) -> Report {
    let report = run(workload, seed, 0.01, trace);
    assert!(
        report.correct(),
        "{workload} seed {seed} trace {trace} failed"
    );
    assert!(report.attempted > 0);
    report
}

#[test]
fn deterministic_metrics_repeat_exactly() {
    let a = correct_run("protect", 3, false);
    let b = correct_run("tamper", 3, false);
    for name in DETERMINISTIC {
        assert_eq!(a.get(name), b.get(name), "{name}");
        assert!(
            a.get(name).is_some_and(|v| v > 0.0),
            "{name} must never be 0"
        );
    }
    for (name, _) in END_TO_END {
        assert!(a.get(name).is_some(), "{name} not reported");
    }
}

#[test]
fn simulated_counts_repeat_exactly() {
    let a = correct_run("simulate", 4, true);
    let b = correct_run("simulate", 4, true);
    let counts: Vec<(String, &str)> = per_layer()
        .into_iter()
        .filter(|(name, unit)| {
            *unit == "count" || name == "verify.proven_frac" || name == "tamper.timeout_frac"
        })
        .collect();
    assert!(counts.len() >= 30);
    for (name, _) in &counts {
        assert_eq!(a.get(name), b.get(name), "{name}");
    }
    for (name, _) in per_layer() {
        assert!(a.get(&name).is_some(), "{name} not reported");
    }
}

/// Pulls every `"name": "..."` (with its unit) out of one array of
/// BENCHMARK.json; the file is machine-written, one key per line.
fn names_in(section: &str, json: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let end = body.find(']').expect("section ends");
    let mut out = Vec::new();
    let mut name = None;
    for line in body[..end].lines() {
        let value = |key: &str| {
            line.trim()
                .strip_prefix(&format!("\"{key}\": \""))
                .map(|rest| rest.trim_end_matches(',').trim_end_matches('"').to_owned())
        };
        if let Some(n) = value("name") {
            name = Some(n);
        } else if let Some(u) = value("unit") {
            out.push((name.take().expect("name before unit"), u));
        }
    }
    out
}

#[test]
fn benchmark_json_names_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = names_in("end_to_end", &json);
    let expected: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(declared, expected);
    let declared = names_in("per_layer", &json);
    let expected: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_owned()))
        .collect();
    assert_eq!(declared, expected);
}
