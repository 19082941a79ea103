//! The paper's shapes, as assertions.
//!
//! EXPERIMENTS.md checks every table and figure of the paper by *shape*
//! — who wins, by roughly what factor, where the crossovers fall — on
//! the repro profile (~50 min). This suite promotes the rows marked ✅
//! there to assertions on a library small enough to generate in seconds
//! (width-8 CNV, four pruning rates, both exit modes, 400 training
//! images), so a change to the simulator, the manager or the generator
//! that bends a shape fails a test instead of waiting for the next full
//! regeneration. Margins are loose on purpose: the numbers at this
//! scale are not EXPERIMENTS.md's, the orderings are.

use adapex::baselines::{manager_for, System};
use adapex::generator::{Artifacts, GeneratorConfig, LibraryGenerator};
use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex_dataset::{DatasetKind, SyntheticConfig};
use adapex_edge::{
    mean_of, EdgeSimulation, FaultPlan, RunSpec, Scenario, SimConfig, SimResult, Traffic,
    WorkloadConfig,
};
use finn_dataflow::ResourceUsage;
use std::sync::OnceLock;

/// Lightest and heaviest pruning rate of the sweep.
const LIGHT: f64 = 0.0;
const HEAVY: f64 = 0.85;

/// Provisioned like the paper's testbed: the unpruned accelerator
/// sustains ~435 IPS against the 600 IPS nominal load, the 85 %-pruned
/// one over 2000.
fn artifacts() -> &'static Artifacts {
    static ARTIFACTS: OnceLock<Artifacts> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let kind = DatasetKind::Cifar10Like;
        let mut cfg = GeneratorConfig::fast(kind);
        cfg.dataset = SyntheticConfig::new(kind).with_sizes(400, 200);
        cfg.cnv = adapex_nn::cnv::CnvConfig::scaled(8);
        cfg.train.epochs = 5;
        cfg.retrain.epochs = 2;
        cfg.pruning_rates = vec![LIGHT, 0.3, 0.6, HEAVY];
        cfg.exit_prune_modes = vec![false, true];
        cfg.ct_step = 0.05;
        cfg.folding_target_cycles = 240_000;
        LibraryGenerator::new(cfg).generate()
    })
}

fn entry_at(library: &Library, rate: f64) -> &LibraryEntry {
    library
        .entries
        .iter()
        .find(|e| (e.pruning_rate - rate).abs() < 1e-9)
        .unwrap_or_else(|| panic!("no entry at pruning rate {rate}"))
}

/// Table I / Fig. 6 runs: every system over the same 20 seeded episodes.
fn edge_runs() -> &'static [(System, Vec<SimResult>)] {
    static RUNS: OnceLock<Vec<(System, Vec<SimResult>)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let art = artifacts();
        let sim = EdgeSimulation::new(SimConfig::paper_default(art.reconfig_time_ms));
        System::all()
            .into_iter()
            .map(|system| {
                let manager = manager_for(system, art, 0.10);
                (system, sim.run_many(&manager, &RunSpec::synthetic(0xDA7E), 20, 2))
            })
            .collect()
    })
}

fn runs_of(system: System) -> &'static [SimResult] {
    &edge_runs()
        .iter()
        .find(|(s, _)| *s == system)
        .expect("every system runs")
        .1
}

#[test]
fn fig1_ct5_crosses_from_below_no_ee_to_the_best_curve() {
    let art = artifacts();
    let ee = art.adapex.with_prune_exits(false);
    // [no-EE, CT 5 %, CT 50 %, CT 95 %] accuracy at a pruning rate.
    let curves = |rate: f64| {
        let e = entry_at(&ee, rate);
        [
            entry_at(&art.pr_only, rate).final_exit_accuracy,
            e.point_at(0.05).accuracy,
            e.point_at(0.50).accuracy,
            e.point_at(0.95).accuracy,
        ]
    };
    let [no_ee, ct5, ct50, ct95] = curves(LIGHT);
    assert!(
        ct5 <= no_ee + 0.02 && ct5 < no_ee.max(ct50).max(ct95),
        "unpruned: leaving at 5 % confidence must not pay (CT5 {ct5}, no-EE {no_ee}, CT50 {ct50}, CT95 {ct95})"
    );
    let [no_ee, ct5, ct50, ct95] = curves(HEAVY);
    assert!(
        ct5 >= no_ee + 0.25 && ct5 >= ct50.max(ct95),
        "85 % pruned: CT 5 % must be the best curve (CT5 {ct5}, no-EE {no_ee}, CT50 {ct50}, CT95 {ct95})"
    );
}

#[test]
fn fig1_ct95_energy_inverts_at_heavy_pruning() {
    let art = artifacts();
    let ee = art.adapex.with_prune_exits(false);
    let energy = |rate: f64| {
        (
            entry_at(&art.pr_only, rate).points[0].energy_per_inference_mj,
            entry_at(&ee, rate).point_at(0.95).energy_per_inference_mj,
        )
    };
    let (no_ee, ct95) = energy(LIGHT);
    assert!(ct95 < no_ee, "unpruned: early exits must save energy ({ct95} vs {no_ee} mJ)");
    let (no_ee, ct95) = energy(HEAVY);
    assert!(
        ct95 > no_ee,
        "85 % pruned: a 95 % threshold must cost energy over no exits ({ct95} vs {no_ee} mJ)"
    );
}

#[test]
fn fig5_unpruned_exits_recover_accuracy_and_pruned_exits_are_faster() {
    let art = artifacts();
    let kept = art.adapex.with_prune_exits(false);
    let pruned = art.adapex.with_prune_exits(true);
    let (kept, pruned) = (
        entry_at(&kept, HEAVY).point_at(0.05),
        entry_at(&pruned, HEAVY).point_at(0.05),
    );
    assert!(
        kept.accuracy >= pruned.accuracy + 0.15,
        "85 % pruned at CT 5 %: not-pruned exits {} vs pruned {}",
        kept.accuracy,
        pruned.accuracy
    );
    assert!(
        pruned.avg_latency_ms < kept.avg_latency_ms,
        "pruned exits must be faster: {} vs {} ms",
        pruned.avg_latency_ms,
        kept.avg_latency_ms
    );
}

#[test]
fn table1_adapex_keeps_up_where_finn_drops_a_quarter() {
    let loss = |s| mean_of(runs_of(s), SimResult::inference_loss_pct);
    let processed = |s| mean_of(runs_of(s), |r| r.processed as f64);
    let (adapex, finn) = (loss(System::AdaPEx), loss(System::Finn));
    assert!(finn > 15.0, "static FINN must be overloaded, lost {finn:.2} %");
    assert!(adapex < 2.0 && adapex < finn / 10.0, "AdaPEx {adapex:.2} % vs FINN {finn:.2} %");
    let ratio = processed(System::AdaPEx) / processed(System::Finn);
    assert!(ratio >= 1.3, "AdaPEx must process >= 1.3x FINN's inferences, got {ratio:.3}x");
    // The single-knob baselines land between the two.
    for system in [System::PrOnly, System::CtOnly] {
        let l = loss(system);
        assert!(adapex <= l + 1e-9 && l < finn, "{system:?} lost {l:.2} %");
    }
    // AdaPEx stays within the 10-point accuracy threshold.
    let floor = artifacts().reference_accuracy - 0.10;
    let accuracy = mean_of(runs_of(System::AdaPEx), |r| r.mean_accuracy);
    assert!(accuracy >= floor, "AdaPEx accuracy {accuracy:.3} under the floor {floor:.3}");
}

#[test]
fn fig6_adapex_has_the_lowest_edp_and_the_highest_qoe() {
    let edp = |s| mean_of(runs_of(s), |r| r.edp().expect("episodes process inferences"));
    let qoe = |s| mean_of(runs_of(s), SimResult::qoe);
    for system in [System::PrOnly, System::CtOnly, System::Finn] {
        assert!(
            edp(System::AdaPEx) <= edp(system) + 1e-9,
            "EDP: AdaPEx {:.3} vs {system:?} {:.3}",
            edp(System::AdaPEx),
            edp(system)
        );
        assert!(
            qoe(System::AdaPEx) >= qoe(system) - 1e-9,
            "QoE: AdaPEx {:.3} vs {system:?} {:.3}",
            qoe(System::AdaPEx),
            qoe(system)
        );
    }
    assert!(edp(System::AdaPEx) < 0.5 * edp(System::Finn), "the paper reports 2.0-2.55x");
    assert!(qoe(System::AdaPEx) > qoe(System::Finn) + 0.10, "the paper reports +11.7-15.3 %");
}

#[test]
fn fig3_the_threshold_moves_before_the_fpga_reconfigures() {
    // The figure illustrates a mechanism, so the library is spelled out:
    // each accelerator has a high- and a low-threshold point, and the
    // load ramps from half to one and a half times a 1000 IPS nominal.
    let entry = |id: usize, rate: f64, points: &[(f64, f64, f64)]| LibraryEntry {
        id,
        pruning_rate: rate,
        achieved_rate: rate,
        prune_exits: false,
        mean_exit_accuracy: points[0].1,
        final_exit_accuracy: points[0].1,
        resources: ResourceUsage::zero(),
        exit_resources: ResourceUsage::zero(),
        utilization: (0.1, 0.1, 0.1, 0.0),
        static_ips: points[0].2,
        latency_to_exit_ms: vec![1.0],
        points: points
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
            .collect(),
    };
    let library = Library {
        entries: vec![
            entry(0, 0.0, &[(0.9, 0.88, 700.0), (0.3, 0.82, 1150.0)]),
            entry(1, 0.5, &[(0.9, 0.80, 1400.0), (0.3, 0.76, 1900.0)]),
        ],
    };
    let mut manager = RuntimeManager::new(library, 0.75, SelectionPolicy::ReconfigAware);
    let mut cfg = SimConfig::paper_default(145.0);
    cfg.workload = WorkloadConfig {
        ips_per_camera: 50.0,
        deviation_period_s: 1.0,
        ..WorkloadConfig::paper_default()
    };
    let ramp = Scenario::RampUp.trace(cfg.workload);
    let none = FaultPlan::none();
    let r = EdgeSimulation::new(cfg).run(&mut manager, &RunSpec::new(Traffic::Shaped(&ramp), &none, 3));

    let trace = &r.trace;
    let first_reconfig = trace
        .windows(2)
        .position(|w| w[1].pruning_rate != w[0].pruning_rate)
        .expect("a 1500 IPS peak outgrows the unpruned accelerator");
    let first_threshold_move = trace
        .windows(2)
        .position(|w| w[1].confidence_threshold < w[0].confidence_threshold)
        .expect("the threshold is the free knob");
    assert!(
        first_threshold_move < first_reconfig,
        "threshold moved at sample {first_threshold_move}, FPGA reconfigured at {first_reconfig}"
    );
    assert_eq!(trace[first_threshold_move + 1].pruning_rate, 0.0, "a threshold move keeps the accelerator");
    assert!(r.ct_change_count >= 1 && r.reconfig_count >= 1);
    // A higher observed load trades accuracy for throughput, never the
    // reverse.
    for w in trace.windows(2).filter(|w| w[1].workload_ips >= w[0].workload_ips) {
        assert!(
            w[1].accuracy <= w[0].accuracy + 1e-12,
            "load rose {} -> {} IPS and accuracy rose {} -> {}",
            w[0].workload_ips,
            w[1].workload_ips,
            w[0].accuracy,
            w[1].accuracy
        );
    }
}
