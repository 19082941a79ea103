//! Fault-injection resilience bench: emits `BENCH_faults.json`.
//!
//! Replays the Burst scenario three ways with identical seeds:
//!
//! 1. **fault-free** — no fault plan, mitigation on (the mitigation
//!    mechanisms must be ~free when nothing goes wrong);
//! 2. **faults + mitigation** — the canned [`FaultPlan`] (reconfiguration
//!    aborts and overruns, a stale-frame flood, a camera dropout, a
//!    transient accuracy dip, stale-frame admission control) with the
//!    recommended hysteresis/cooldown/backoff mitigation;
//! 3. **faults, no mitigation** — the same plan against the paper's
//!    bare manager.
//!
//! The acceptance gate mirrors the PR's claim: under the canned plan the
//! mitigated manager keeps QoE within 10 % of the fault-free run, while
//! the unmitigated baseline is measurably worse. The bin exits non-zero
//! when either bound fails, so CI catches resilience regressions.
//!
//! A second three-arm section replays the committed
//! `adversarial-flash-faults` scenario (a 2× flash crowd layered on the
//! canned plan, from `tests/golden/scenarios/`) through the trace-driven
//! workload path, under the same two gates.
//!
//! Run with `cargo run --release -p adapex-bench --bin bench-faults`.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{MitigationConfig, RuntimeManager, SelectionPolicy};
use adapex_edge::{
    builtin_scenario, mean_of, EdgeSimulation, FaultPlan, RunSpec, Scenario, SimConfig, SimResult,
    Traffic, WorkloadConfig,
};
use adapex_bench::{write_report, Gated, ReportHeader, Summary};
use serde::Serialize;

const REPS: usize = 20;
const SEED: u64 = 4242;

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
        resources: finn_dataflow::ResourceUsage::zero(),
        exit_resources: finn_dataflow::ResourceUsage::zero(),
        utilization: (0.1, 0.1, 0.1, 0.0),
        static_ips: points[0].ips,
        latency_to_exit_ms: vec![1.0],
        points,
    }
}

/// A three-entry library shaped like the paper's, each with a high- and
/// a low-confidence-threshold operating point so threshold-only
/// retuning (the free adaptation) is available while a failed
/// reconfiguration is backed off: an accurate entry that nearly holds
/// the 2× burst at low CT, a pruned entry that holds it comfortably,
/// and a heavily pruned entry below the accuracy floor (degraded-mode
/// headroom).
fn library() -> Library {
    Library {
        entries: vec![
            entry(0, 0.0, &[(0.9, 0.88, 700.0), (0.3, 0.82, 1150.0)]),
            entry(1, 0.5, &[(0.9, 0.80, 1400.0), (0.3, 0.76, 1900.0)]),
            entry(2, 0.8, &[(0.9, 0.70, 2500.0)]),
        ],
    }
}

fn manager(mitigation: MitigationConfig) -> RuntimeManager {
    RuntimeManager::new(library(), 0.75, SelectionPolicy::ReconfigAware).with_mitigation(mitigation)
}

#[derive(Debug, Serialize)]
struct Arm {
    name: &'static str,
    mitigated: bool,
    faulted: bool,
    qoe: f64,
    inference_loss_pct: f64,
    mean_accuracy: f64,
    mean_latency_ms: f64,
    reconfigs_per_run: f64,
    failed_reconfigs: usize,
    reconfig_retries: usize,
    overrun_reconfigs: usize,
    dropped_by_fault: usize,
    flood_arrivals: usize,
    stale_discarded: usize,
    degraded_periods: usize,
}

fn arm(name: &'static str, mitigated: bool, faulted: bool, results: &[SimResult]) -> Arm {
    let sum = |f: &dyn Fn(&SimResult) -> usize| -> usize { results.iter().map(f).sum() };
    Arm {
        name,
        mitigated,
        faulted,
        qoe: mean_of(results, |r| r.qoe()),
        inference_loss_pct: mean_of(results, |r| r.inference_loss_pct()),
        mean_accuracy: mean_of(results, |r| r.mean_accuracy),
        mean_latency_ms: mean_of(results, |r| r.mean_latency_ms),
        reconfigs_per_run: mean_of(results, |r| r.reconfig_count as f64),
        failed_reconfigs: sum(&|r| r.faults.failed_reconfigs),
        reconfig_retries: sum(&|r| r.faults.reconfig_retries),
        overrun_reconfigs: sum(&|r| r.faults.overrun_reconfigs),
        dropped_by_fault: sum(&|r| r.faults.dropped_by_fault),
        flood_arrivals: sum(&|r| r.faults.flood_arrivals),
        stale_discarded: sum(&|r| r.faults.stale_discarded),
        degraded_periods: sum(&|r| r.faults.degraded_periods),
    }
}

/// Mean mitigated-under-faults QoE over mean fault-free QoE, with the
/// spread of that ratio over the repetitions (repetition `i` of both
/// arms is the same episode seed).
fn retention_of(faulted: &[SimResult], fault_free: &[SimResult]) -> Gated {
    let per_rep: Vec<f64> = faulted.iter().zip(fault_free).map(|(f, o)| f.qoe() / o.qoe()).collect();
    Gated {
        value: mean_of(faulted, |r| r.qoe()) / mean_of(fault_free, |r| r.qoe()),
        spread: Summary::from_samples(&per_rep).spread,
    }
}

#[derive(Debug, Serialize)]
struct Report {
    header: ReportHeader,
    scenario: &'static str,
    reps: usize,
    seed: u64,
    plan: FaultPlan,
    arms: Vec<Arm>,
    /// mitigated-under-faults QoE / fault-free QoE (gate: ≥ 0.90).
    qoe_retention: Gated,
    /// mitigated QoE − unmitigated QoE under the same faults (gate: > 0).
    mitigation_gain: f64,
    /// Same three arms and gates on the committed adversarial scenario
    /// (flash crowd + canned faults via the workload-spec path).
    adversarial: Section,
}

#[derive(Debug, Serialize)]
struct Section {
    scenario: String,
    seed: u64,
    arms: Vec<Arm>,
    qoe_retention: Gated,
    mitigation_gain: f64,
}

fn main() {
    let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
    let trace = Scenario::Burst.trace(WorkloadConfig::paper_default());
    let plan = FaultPlan::canned();
    let header = ReportHeader::capture();
    let jobs = header.threads;

    let run = |mitigation: MitigationConfig, plan: &FaultPlan| {
        let spec = RunSpec::new(Traffic::Shaped(&trace), plan, SEED);
        sim.run_many(&manager(mitigation), &spec, REPS, jobs)
    };

    let fault_free = run(MitigationConfig::recommended(), &FaultPlan::none());
    let mitigated = run(MitigationConfig::recommended(), &plan);
    let unmitigated = run(MitigationConfig::off(), &plan);

    let arms = vec![
        arm("fault-free", true, false, &fault_free),
        arm("faults+mitigation", true, true, &mitigated),
        arm("faults-no-mitigation", false, true, &unmitigated),
    ];
    let qoe_retention = retention_of(&mitigated, &fault_free);
    let mitigation_gain = arms[1].qoe - arms[2].qoe;

    // Adversarial section: the committed flash-crowd+faults scenario,
    // replayed through the trace-driven workload path at its own seed.
    let adv = builtin_scenario("adversarial-flash-faults").expect("shipped scenario");
    let adv_sim = EdgeSimulation::new(adv.sim_config(145.0));
    let adv_run = |mitigation: MitigationConfig, plan: &FaultPlan| {
        let spec = RunSpec::new(Traffic::Spec(&adv.workload), plan, adv.seed);
        adv_sim.run_many(&manager(mitigation), &spec, REPS, jobs)
    };
    let adv_free = adv_run(MitigationConfig::recommended(), &FaultPlan::none());
    let adv_mitigated = adv_run(MitigationConfig::recommended(), &adv.faults);
    let adv_unmitigated = adv_run(MitigationConfig::off(), &adv.faults);
    let adv_arms = vec![
        arm("fault-free", true, false, &adv_free),
        arm("faults+mitigation", true, true, &adv_mitigated),
        arm("faults-no-mitigation", false, true, &adv_unmitigated),
    ];
    let adversarial = Section {
        scenario: adv.name.clone(),
        seed: adv.seed,
        qoe_retention: retention_of(&adv_mitigated, &adv_free),
        mitigation_gain: adv_arms[1].qoe - adv_arms[2].qoe,
        arms: adv_arms,
    };

    let report = Report {
        header,
        scenario: "burst",
        reps: REPS,
        seed: SEED,
        plan,
        arms,
        qoe_retention,
        mitigation_gain,
        adversarial,
    };

    write_report("faults", &report);
    for a in &report.arms {
        println!(
            "{:<22} QoE {:.3}  loss {:>5.2}%  acc {:.3}  reconfigs/run {:.1}  failed {}  retries {}",
            a.name, a.qoe, a.inference_loss_pct, a.mean_accuracy, a.reconfigs_per_run,
            a.failed_reconfigs, a.reconfig_retries,
        );
    }
    println!(
        "QoE retention {:.3} (gate >= 0.90, spread {:.3}), mitigation gain {:+.4} (gate > 0)",
        report.qoe_retention.value, report.qoe_retention.spread, report.mitigation_gain
    );
    for a in &report.adversarial.arms {
        println!(
            "adversarial {:<22} QoE {:.3}  loss {:>5.2}%  acc {:.3}  reconfigs/run {:.1}",
            a.name, a.qoe, a.inference_loss_pct, a.mean_accuracy, a.reconfigs_per_run,
        );
    }
    println!(
        "adversarial ({}) QoE retention {:.3} (gate >= 0.90, spread {:.3}), mitigation gain {:+.4} (gate > 0)",
        report.adversarial.scenario,
        report.adversarial.qoe_retention.value,
        report.adversarial.qoe_retention.spread,
        report.adversarial.mitigation_gain
    );

    assert!(
        report.qoe_retention.value >= 0.90,
        "mitigated QoE under the canned fault plan fell below 90 % of fault-free: {:.3}",
        report.qoe_retention.value
    );
    assert!(
        report.mitigation_gain > 0.0,
        "mitigation did not beat the unmitigated baseline: {:+.4}",
        report.mitigation_gain
    );
    assert!(
        report.adversarial.qoe_retention.value >= 0.90,
        "mitigated QoE on the adversarial scenario fell below 90 % of fault-free: {:.3}",
        report.adversarial.qoe_retention.value
    );
    assert!(
        report.adversarial.mitigation_gain > 0.0,
        "mitigation did not beat the unmitigated baseline on the adversarial scenario: {:+.4}",
        report.adversarial.mitigation_gain
    );
}
