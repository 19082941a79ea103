//! Synthetic ↔ trace differential: the trace-driven workload layer must
//! be a *lossless* re-encoding of the built-in synthetic generator.
//!
//! Three equivalences, all byte-exact on the full `SimResult`:
//!
//! 1. `WorkloadSpec::Synthetic(paper_default)` as `Traffic::Spec` ≡
//!    `Traffic::Synthetic` through `run_many`, at any `--jobs` (same
//!    arrival RNG stream, same trace sampling).
//! 2. A synthetic run *exported* as a piecewise trace file and replayed
//!    from disk ≡ the original run (per repetition, since each rep
//!    samples its own ±30 % rates).
//! 3. The committed `paper-synthetic` scenario ≡ both of the above at
//!    its own seed.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{MitigationConfig, RuntimeManager, SelectionPolicy};
use adapex_edge::{
    builtin_scenario, EdgeSimulation, FaultPlan, RunSpec, SimConfig, Traffic, WorkloadConfig,
    WorkloadSpec,
};
use adapex_tensor::rng::derive_sequential;
use finn_dataflow::ResourceUsage;

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

fn manager() -> RuntimeManager {
    let library = Library {
        entries: vec![
            entry(0, 0.0, &[(0.9, 0.88, 700.0), (0.3, 0.82, 1150.0)]),
            entry(1, 0.5, &[(0.9, 0.80, 1400.0), (0.3, 0.76, 1900.0)]),
            entry(2, 0.8, &[(0.9, 0.70, 2500.0)]),
        ],
    };
    RuntimeManager::new(library, 0.75, SelectionPolicy::ReconfigAware)
}

const SEED: u64 = 0xD1FF;

#[test]
fn synthetic_spec_path_is_bit_identical_to_builtin_path() {
    let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
    let spec = WorkloadSpec::paper_default();
    let m = manager();
    let plan = FaultPlan::none();
    for jobs in [1usize, 4] {
        let builtin = sim.run_many(&m, &RunSpec::new(Traffic::Synthetic, &plan, SEED), 4, jobs);
        let via_spec = sim.run_many(&m, &RunSpec::new(Traffic::Spec(&spec), &plan, SEED), 4, jobs);
        assert_eq!(builtin, via_spec, "jobs={jobs}: spec path diverged");
    }
}

#[test]
fn synthetic_spec_path_is_bit_identical_under_faults() {
    // Fault injection draws from its own seeded streams; the workload
    // layer must not perturb them either.
    let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
    let spec = WorkloadSpec::paper_default();
    let m = manager().with_mitigation(MitigationConfig::recommended());
    let plan = FaultPlan::canned();
    for jobs in [1usize, 4] {
        let builtin = sim.run_many(&m, &RunSpec::new(Traffic::Synthetic, &plan, SEED), 2, jobs);
        let via_spec = sim.run_many(&m, &RunSpec::new(Traffic::Spec(&spec), &plan, SEED), 2, jobs);
        assert_eq!(builtin, via_spec, "jobs={jobs}: spec path diverged under faults");
    }
}

#[test]
fn exported_trace_files_replay_each_repetition_bit_identically() {
    // `run_many` gives repetition i the derived seed
    // `derive_sequential(seed, i)` and samples fresh ±30 % rates from
    // it. Exporting each repetition's sampled trace as a piecewise
    // workload file and replaying it from disk must reproduce that
    // repetition exactly: same arrival stream, same decisions, same
    // floats.
    let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
    let m = manager();
    let plan = FaultPlan::none();
    let reps = 3usize;
    let many = sim.run_many(&m, &RunSpec::new(Traffic::Synthetic, &plan, SEED), reps, 1);

    let dir = std::env::temp_dir().join(format!("adapex-workload-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, expected) in many.iter().enumerate() {
        let rep_seed = derive_sequential(SEED, i as u64);
        let trace = WorkloadConfig::paper_default().sample(rep_seed);
        let exported = WorkloadSpec::from_trace(&trace);
        let path = dir.join(format!("rep{i}.json"));
        exported.save_json(&path).unwrap();
        let loaded = WorkloadSpec::load_json(&path).unwrap();
        assert_eq!(loaded, exported, "rep {i}: file roundtrip changed the spec");

        let mut mgr = manager();
        let replayed = sim.run(
            &mut mgr,
            &RunSpec::new(Traffic::Spec(&loaded), &plan, rep_seed),
        );
        assert_eq!(&replayed, expected, "rep {i}: trace replay diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paper_synthetic_scenario_matches_builtin_generator_at_its_seed() {
    let scenario = builtin_scenario("paper-synthetic").expect("shipped scenario");
    let sim = EdgeSimulation::new(scenario.sim_config(145.0));
    let mut a = manager();
    let builtin = sim.run(
        &mut a,
        &RunSpec::new(Traffic::Synthetic, &scenario.faults, scenario.seed),
    );
    let mut b = manager();
    let via_file = sim.run(
        &mut b,
        &RunSpec::new(Traffic::Spec(&scenario.workload), &scenario.faults, scenario.seed),
    );
    assert_eq!(builtin, via_file);
}
