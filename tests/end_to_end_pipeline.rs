//! Full-pipeline integration test: dataset synthesis → joint early-exit
//! training → dataflow-aware pruning → accelerator compilation → library
//! → runtime adaptation → edge simulation, at a reduced scale sized so
//! the paper's qualitative relations are visible.

use adapex::baselines::{manager_for, System};
use adapex::generator::{GeneratorConfig, LibraryGenerator};
use adapex_dataset::DatasetKind;
use adapex_edge::{mean_of, EdgeSimulation, RunSpec, SimConfig};
use adapex_tensor::parallel::num_threads;

/// A small but *provisioning-realistic* configuration: the unpruned
/// accelerator sustains ~465 IPS against a 600 IPS nominal workload, so
/// the static FINN baseline must lose inferences while AdaPEx adapts.
fn scenario_config() -> GeneratorConfig {
    let mut cfg = GeneratorConfig::fast(DatasetKind::Cifar10Like);
    // Width 8: the tiny width-4 CNV cannot be folded slower than ~900
    // IPS (PE=SIMD=1 already beats the budget), so overload never
    // happens; at width 8 the 215k-cycle budget yields ~465 IPS.
    cfg.cnv = adapex_nn::cnv::CnvConfig::scaled(8);
    cfg.pruning_rates = vec![0.0, 0.3, 0.6];
    cfg.ct_step = 0.10;
    cfg.folding_target_cycles = 215_000;
    cfg
}

#[test]
fn adapex_beats_static_finn_under_overload() {
    let artifacts = LibraryGenerator::new(scenario_config()).generate();
    let sim = EdgeSimulation::new(SimConfig::paper_default(artifacts.reconfig_time_ms));
    let reps = 10;

    let run = |system: System| {
        let manager = manager_for(system, &artifacts, 0.10);
        sim.run_many(&manager, &RunSpec::synthetic(77), reps, num_threads())
    };
    let adapex = run(System::AdaPEx);
    let finn = run(System::Finn);
    let pr = run(System::PrOnly);
    let ct = run(System::CtOnly);

    let loss = |rs: &[adapex_edge::SimResult]| mean_of(rs, |r| r.inference_loss_pct());
    let qoe = |rs: &[adapex_edge::SimResult]| mean_of(rs, |r| r.qoe());

    // The paper's headline relations (Table I / Fig. 6), as orderings.
    assert!(
        loss(&finn) > 10.0,
        "static FINN must lose inferences under overload, got {:.2}%",
        loss(&finn)
    );
    assert!(
        loss(&adapex) < loss(&finn),
        "AdaPEx loss {:.2}% must beat FINN {:.2}%",
        loss(&adapex),
        loss(&finn)
    );
    assert!(
        loss(&adapex) < 2.0,
        "AdaPEx should keep up with the workload, lost {:.2}%",
        loss(&adapex)
    );
    assert!(
        qoe(&adapex) > qoe(&finn),
        "AdaPEx QoE {:.3} must beat FINN {:.3}",
        qoe(&adapex),
        qoe(&finn)
    );
    // Single-knob baselines sit between the static baseline and AdaPEx
    // on inference loss (each can shed some but not all overload).
    assert!(loss(&pr) <= loss(&finn) + 1e-9);
    assert!(loss(&ct) <= loss(&finn) + 1e-9);

    // Latency: AdaPEx processes requests faster than saturated FINN.
    let lat = |rs: &[adapex_edge::SimResult]| mean_of(rs, |r| r.mean_latency_ms);
    assert!(
        lat(&adapex) < lat(&finn),
        "AdaPEx latency {:.2} must beat FINN {:.2}",
        lat(&adapex),
        lat(&finn)
    );

    // EDP: AdaPEx at or below FINN (the paper reports 2.0-2.55x better).
    let edp = |rs: &[adapex_edge::SimResult]| {
        mean_of(rs, |r| r.edp().expect("episodes process inferences"))
    };
    assert!(
        edp(&adapex) < edp(&finn),
        "AdaPEx EDP {:.3} must beat FINN {:.3}",
        edp(&adapex),
        edp(&finn)
    );
}

#[test]
fn accuracy_threshold_is_respected_when_feasible() {
    let artifacts = LibraryGenerator::new(scenario_config()).generate();
    let mut manager = manager_for(System::AdaPEx, &artifacts, 0.10);
    let floor = artifacts.reference_accuracy - 0.10;
    // At modest workloads a qualifying point must exist and be chosen.
    for load in [100.0, 300.0, 450.0] {
        let d = manager.decide(load);
        let point = &manager.library().entries[d.entry].points[d.point];
        if manager.library().select_strict(load, floor, None).is_some() {
            assert!(
                point.accuracy >= floor,
                "selected accuracy {:.3} below floor {floor:.3} at load {load}",
                point.accuracy
            );
        }
    }
}

#[test]
fn artifacts_roundtrip_through_json() {
    let artifacts = LibraryGenerator::new(GeneratorConfig::fast(DatasetKind::Cifar10Like)).generate();
    let dir = std::env::temp_dir().join("adapex-e2e");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("artifacts.json");
    artifacts.save_json(&path).expect("save");
    let back = adapex::generator::Artifacts::load_json(&path).expect("load");
    assert_eq!(artifacts, back);
}
