//! Statistical equivalence of the segment-level engine to the 1 ms tick
//! loop it replaced.
//!
//! The tick loop was deleted with PR 22; what it computed survives as
//! `tests/golden/tick_loop_reference.json`: mean and standard error,
//! over 100 seeded repetitions, of QoE, loss, reconfigurations, energy
//! and latency for the six library scenarios, bare and under a fault
//! plan. The file was written once, by `print_reference_stats` below
//! run on the last commit that had the loop (`d0179ed`, where
//! `run_many` is bit-identical to it), and is not re-blessable: the
//! engine is held to it, so a later change to the physics that moves a
//! mean shows up here. The allowance on top of the sampling error is
//! the measured model error of DESIGN.md §12.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{MitigationConfig, RuntimeManager, SelectionPolicy};
use adapex_edge::{builtin_library, EdgeSimulation, FaultPlan, RunSpec, SimResult, Traffic};
use finn_dataflow::ResourceUsage;
use serde::{Deserialize, Serialize};
use std::path::Path;

const REPS: usize = 100;

fn entry(id: usize, rate: f64, points: &[(f64, f64, f64)]) -> LibraryEntry {
    let points: Vec<OperatingPoint> = points
        .iter()
        .map(|&(ct, acc, ips)| OperatingPoint {
            confidence_threshold: ct,
            accuracy: acc,
            exit_fractions: vec![1.0],
            ips,
            avg_latency_ms: 2.0,
            power_w: 1.2,
            energy_per_inference_mj: 1.2 / ips * 1000.0,
        })
        .collect();
    let acc = points[0].accuracy;
    LibraryEntry {
        id,
        pruning_rate: rate,
        achieved_rate: rate,
        prune_exits: false,
        mean_exit_accuracy: acc,
        final_exit_accuracy: acc,
        resources: ResourceUsage::zero(),
        exit_resources: ResourceUsage::zero(),
        utilization: (0.1, 0.1, 0.1, 0.0),
        static_ips: points[0].ips,
        latency_to_exit_ms: vec![1.0],
        points,
    }
}

/// The golden suites' manager.
fn manager(mitigation: MitigationConfig) -> RuntimeManager {
    let library = Library {
        entries: vec![
            entry(0, 0.0, &[(0.9, 0.88, 700.0), (0.3, 0.82, 1150.0)]),
            entry(1, 0.5, &[(0.9, 0.80, 1400.0), (0.3, 0.76, 1900.0)]),
            entry(2, 0.8, &[(0.9, 0.70, 2500.0)]),
        ],
    };
    RuntimeManager::new(library, 0.75, SelectionPolicy::ReconfigAware).with_mitigation(mitigation)
}

/// `[mean, standard error]` over the repetitions.
type Stat = [f64; 2];

fn stat(results: &[SimResult], metric: impl Fn(&SimResult) -> f64) -> Stat {
    let n = results.len() as f64;
    let mean = results.iter().map(&metric).sum::<f64>() / n;
    let var = results.iter().map(|r| (metric(r) - mean).powi(2)).sum::<f64>() / (n - 1.0);
    [mean, (var / n).sqrt()]
}

#[derive(Debug, Serialize, Deserialize)]
struct Case {
    scenario: String,
    faults: bool,
    qoe: Stat,
    loss_pct: Stat,
    reconfigs: Stat,
    energy_j: Stat,
    latency_ms: Stat,
}

#[derive(Debug, Serialize, Deserialize)]
struct Reference {
    commit: String,
    reps: usize,
    cases: Vec<Case>,
}

/// Every library scenario as a single-server episode, bare (no faults,
/// the paper's manager) and under a fault plan with the recommended
/// mitigation: its own, or the canned one where it ships none.
fn measure() -> Vec<Case> {
    let mut cases = Vec::new();
    for file in builtin_library() {
        let sim = EdgeSimulation::new(file.sim_config(145.0));
        let own = if file.faults.is_none() { FaultPlan::canned() } else { file.faults.clone() };
        for (plan, mitigation) in [
            (FaultPlan::none(), MitigationConfig::off()),
            (own, MitigationConfig::recommended()),
        ] {
            let spec = RunSpec::new(Traffic::Spec(&file.workload), &plan, file.seed);
            let results = sim.run_many(&manager(mitigation), &spec, REPS, 2);
            cases.push(Case {
                scenario: file.name.clone(),
                faults: !plan.is_none(),
                qoe: stat(&results, SimResult::qoe),
                loss_pct: stat(&results, SimResult::inference_loss_pct),
                reconfigs: stat(&results, |r| r.reconfig_count as f64),
                energy_j: stat(&results, |r| r.energy_j),
                latency_ms: stat(&results, |r| r.mean_latency_ms),
            });
        }
    }
    cases
}

/// Prints what `tick_loop_reference.json` holds. Meaningful only on a
/// checkout that still has the tick loop (see the module docs).
#[test]
#[ignore = "writes the reference; run on the tick loop's last commit"]
fn print_reference_stats() {
    let reference = Reference {
        commit: "d0179ed".into(),
        reps: REPS,
        cases: measure(),
    };
    println!("{}", serde_json::to_string_pretty(&reference).expect("serialize"));
}

#[test]
fn engine_means_match_the_tick_loop_reference() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/tick_loop_reference.json");
    let text = std::fs::read_to_string(&path).expect("committed reference");
    let reference: Reference = serde_json::from_str(&text).expect("reference parses");
    assert_eq!(reference.reps, REPS);
    let measured = measure();
    assert_eq!(measured.len(), reference.cases.len());

    let mut failures = Vec::new();
    println!("| scenario | faults | metric | tick loop (mean ± 95 % CI) | engine (mean ± 95 % CI) |");
    println!("|---|---|---|---|---|");
    for (old, new) in reference.cases.iter().zip(&measured) {
        assert_eq!((&old.scenario, old.faults), (&new.scenario, new.faults));
        // (metric, reference, measured, absolute and relative model allowance)
        let rows = [
            ("QoE", old.qoe, new.qoe, 0.004, 0.0),
            ("loss %", old.loss_pct, new.loss_pct, 0.35, 0.0),
            ("reconfigs", old.reconfigs, new.reconfigs, 0.25, 0.05),
            ("energy J", old.energy_j, new.energy_j, 0.0, 0.003),
            ("latency ms", old.latency_ms, new.latency_ms, 0.3, 0.05),
        ];
        for (metric, [want, want_se], [got, got_se], abs, rel) in rows {
            println!(
                "| {} | {} | {metric} | {want:.4} ± {:.4} | {got:.4} ± {:.4} |",
                old.scenario,
                if old.faults { "yes" } else { "no" },
                1.96 * want_se,
                1.96 * got_se,
            );
            let allowed = 3.0 * want_se.hypot(got_se) + abs + rel * want.abs();
            if (got - want).abs() > allowed {
                failures.push(format!(
                    "{} (faults: {}) {metric}: engine {got:.4} vs tick loop {want:.4}, allowed ±{allowed:.4}",
                    old.scenario, old.faults
                ));
            }
        }
    }
    assert!(failures.is_empty(), "engine drifted from the tick loop:\n{}", failures.join("\n"));
}
