//! Named metrics with units, output checks, and the result line.

use crate::stats::Pct;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Human-readable context: sample count, percentile actually reported,
    /// or why the workload does not exercise the metric.
    pub note: String,
}

/// An ordered set of metrics.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    pub fn add(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.0.push(Metric { name, value, unit, note: note.into() });
    }

    /// Adds a percentile, noting which percentile it is and its sample count.
    pub fn pct(&mut self, name: &'static str, p: Option<Pct>, unit: &'static str) {
        match p {
            Some(p) => self.add(name, p.value, unit, format!("p{:.1} of n={}", p.pct, p.n)),
            None => self.add(name, 0.0, unit, "no samples"),
        }
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Prints one aligned line per metric.
    pub fn print(&self, title: &str) {
        println!("{title}");
        for m in &self.0 {
            println!("  {:<28} {:>14.4} {:<8} {}", m.name, m.value, m.unit, m.note);
        }
    }

    /// The `{"name": {"value": v, "unit": u}, ...}` object.
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(s, "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        s.push('}');
        s
    }
}

/// Output checks of one run; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    passed: usize,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }

    /// Whether every check passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints a summary and every failure.
    pub fn print(&self) {
        println!("checks: {} passed, {} failed", self.passed, self.failures.len());
        for f in &self.failures {
            println!("  CHECK FAILED: {f}");
        }
    }
}

/// The final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.json()
    )
}
