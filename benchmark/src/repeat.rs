//! `repeat --sets N`: the evidence that the benchmark agrees with
//! itself.
//!
//! Runs every workload once per set — one child process per run, so
//! peak RSS stays per workload — with the same seed and code, minutes
//! apart on the wall clock, and prints for each end-to-end metric the
//! value of every set, how much worse the worst set is than the first,
//! and PASS or FAIL against the metric's own regression bound.

use crate::metrics::{end_to_end, Better, WORKLOADS};
use serde::Value;
use std::collections::BTreeMap;
use std::process::Command;

/// End-to-end metrics of one child run, or why there are none.
fn run_child(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: last line is not the result object ({e}): {last:?}"))?;
    if !output.status.success() || result.get("correct") != Some(&Value::Bool(true)) {
        let failures: Vec<&str> = stdout
            .lines()
            .filter(|l| l.starts_with("CHECK FAILED"))
            .collect();
        return Err(format!(
            "{workload}: run failed ({}): {}",
            output.status,
            failures.join("; ")
        ));
    }
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{workload}: result has no metrics object"))?;
    metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(Value::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}: metric {name} has no numeric value"))
        })
        .collect()
}

/// How much worse `later` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(first: f64, later: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (later - first) / first,
        Better::Higher => (first - later) / first,
    }
}

/// Runs `sets` sets and prints the comparison; `Ok(true)` when every
/// run was correct and every metric stayed within its bound.
pub fn run(sets: usize, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut results: Vec<Vec<BTreeMap<String, f64>>> = Vec::new();
    for set in 0..sets {
        let mut row = Vec::new();
        for w in WORKLOADS {
            eprintln!("set {} of {sets}: {}", set + 1, w.name);
            row.push(run_child(w.name, seed, seconds)?);
        }
        results.push(row);
    }
    let mut all_pass = true;
    println!("# repeat: {sets} sets, seed {seed}, {seconds} s per run");
    println!(
        "{:<18} {:<20} {:>44} {:>9} {:>6}  verdict",
        "workload", "metric", "value per set", "worse by", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for def in end_to_end() {
            let values: Vec<f64> = results.iter().map(|set| set[wi][&def.name]).collect();
            let worst = values[1..]
                .iter()
                .map(|&v| worsening(values[0], v, def.better))
                .fold(f64::NEG_INFINITY, f64::max);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let pass = worst <= bound;
            all_pass &= pass;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<18} {:<20} {:>44} {:>+8.2}% {:>5.0}%  {}",
                w.name,
                def.name,
                shown.join("  "),
                worst * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    println!(
        "# {}",
        if all_pass {
            "every metric within its bound"
        } else {
            "at least one metric out of bound"
        }
    );
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
    }
}
