//! The run's result: named metrics with units, operation counts and the
//! correctness verdict, printed as human lines plus one final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
    notes: Vec<String>,
    errors: Vec<String>,
    /// Operations attempted (shipped images, simulated runs, attack cells).
    pub attempted: u64,
    /// Operations that failed: a protect error, a wrong output or exit
    /// code, or a panicking cell.
    pub failed: u64,
}

impl Report {
    /// Records metric `name` in `unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    /// Multiplies metric `name` by `factor`; returns its value before.
    pub fn scale(&mut self, name: &str, factor: f64) -> Option<f64> {
        let (value, _) = self.metrics.get_mut(name)?;
        let before = *value;
        *value *= factor;
        Some(before)
    }

    /// Adds a human-readable line printed before the metrics.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one operation, failed when `result` is an error.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.error(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a failed correctness check.
    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.error(message());
        }
    }

    /// Whether every operation succeeded and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The human-readable report followed by the one-line JSON result.
    pub fn render(&self, json_metrics: &[&str]) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        for (name, (value, unit)) in &self.metrics {
            let _ = writeln!(out, "{name:<40} {value:>16.6} {unit}");
        }
        let _ = writeln!(
            out,
            "attempted {} failed {} checks-failed {}",
            self.attempted,
            self.failed,
            self.errors.len()
        );
        for e in self.errors.iter().take(20) {
            let _ = writeln!(out, "FAILED: {e}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (k, name) in json_metrics.iter().enumerate() {
            let (value, unit) = self.metrics.get(*name).copied().unwrap_or((f64::NAN, ""));
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_owned()
            };
            if k > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        out.push_str(&json);
        out
    }
}
