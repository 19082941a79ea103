//! What one run reports: metric values by name, operation counts and
//! the correctness checks that failed.

use crate::metrics::MetricDef;
use std::collections::BTreeMap;

/// Collected results of one run.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Values printed for the reader but not part of `BENCHMARK.json`
    /// (the issue's per-workload names for the end-to-end slots).
    aliases: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records a metric of `BENCHMARK.json`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records a reader-facing value under a workload-specific name.
    pub fn alias(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.aliases.push((name.into(), value, unit));
    }

    /// A recorded metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Counts one checked operation; a false `ok` fails the run with
    /// `what` as the message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Fails the run without counting an operation (a drifted pin: the
    /// workload itself changed, so its numbers compare with nothing).
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// Messages of the failed checks.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Prints every metric of `defs` by name with its unit, then the
    /// aliases, then — as the last line — the JSON object the driver
    /// reads. A per-layer metric nobody set is a layer that did no work
    /// on this workload and prints 0; an end-to-end metric nobody set
    /// is a bug in the harness.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric of `defs` is missing, zero or not
    /// finite.
    pub fn print(&self, defs: &[MetricDef]) {
        let mut fields = Vec::with_capacity(defs.len());
        for d in defs {
            let value = match (self.values.get(&d.name), d.bound) {
                (Some(&v), _) => v,
                (None, None) => 0.0,
                (None, Some(_)) => panic!("end-to-end metric {} was never measured", d.name),
            };
            assert!(value.is_finite(), "metric {} is not finite", d.name);
            assert!(
                d.bound.is_none() || value != 0.0,
                "end-to-end metric {} is 0",
                d.name
            );
            println!("{:<44} {:>16} {}", d.name, format_value(value), d.unit);
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, value, d.unit
            ));
        }
        for (name, value, unit) in &self.aliases {
            println!("{:<44} {:>16} {}", name, format_value(*value), unit);
        }
        println!("{:<44} {:>16} count", "ops_attempted", self.attempted);
        println!("{:<44} {:>16} count", "ops_failed", self.failed);
        println!(
            "{:<44} {:>16} ratio",
            "failed_share",
            format_value(self.failed as f64 / self.attempted.max(1) as f64)
        );
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checks_count_operations_and_failures() {
        let mut r = Report::default();
        r.ops(10, 0);
        r.check(true, || unreachable!());
        assert!(r.correct());
        r.check(false, || "pin x drifted".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (12, 1));
        assert_eq!(r.failures(), ["pin x drifted".to_string()]);
    }
}
