//! Determinism guarantees of the fault-injection layer.
//!
//! Three claims are pinned here:
//!
//! 1. **Pinned fault-free bits** — a fault-free cold simulation
//!    reproduces `f64::to_bits` fingerprints held as constants, where
//!    `ADAPEX_BLESS=1` cannot reach them; any change to an RNG draw,
//!    accounting order, or float expression on the fault-free path
//!    shows up here. (Through PR 21 they were the bits of the tick loop
//!    as it ran before the fault layer existed; PR 22 replaced that
//!    loop with segment-level physics and re-captured them once — the
//!    test names keep the history.)
//! 2. **Fault-free plan ≡ plain run** — `run(…,
//!    FaultPlan::none())` equals `run(…)` exactly, because an empty plan
//!    performs zero draws on its dedicated stream.
//! 3. **Job-count invariance under faults** — identical seeds and
//!    fault plan produce byte-identical `SimResult`s at any worker
//!    count; each repetition's fault stream is a pure function of
//!    `(plan.seed, seed + i)`.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{MitigationConfig, RuntimeManager, SelectionPolicy};
use adapex_edge::{
    EdgeSimulation, FaultPlan, RunSpec, Scenario, SimConfig, SimResult, Traffic, WorkloadConfig,
};
use finn_dataflow::ResourceUsage;

fn entry(id: usize, rate: f64, acc: f64, ips: f64) -> LibraryEntry {
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
        static_ips: ips,
        latency_to_exit_ms: vec![1.0],
        points: vec![OperatingPoint {
            confidence_threshold: 1.0,
            accuracy: acc,
            exit_fractions: vec![1.0],
            ips,
            avg_latency_ms: 2.0,
            power_w: 1.2,
            energy_per_inference_mj: 1.2 / ips * 1000.0,
        }],
    }
}

/// The exact manager the pre-PR fingerprints were captured with.
fn adaptive_manager() -> RuntimeManager {
    RuntimeManager::new(
        Library {
            entries: vec![entry(0, 0.0, 0.9, 650.0), entry(1, 0.5, 0.8, 1200.0)],
        },
        0.5,
        SelectionPolicy::ReconfigAware,
    )
}

fn sim() -> EdgeSimulation {
    EdgeSimulation::new(SimConfig::paper_default(145.0))
}

/// `(offered, processed, lost, reconfigs, acc_bits, power_bits,
/// lat_bits, energy_bits)` — captured on the revision that introduced
/// the segment-level engine (PR 22).
type Fingerprint = (usize, usize, usize, usize, u64, u64, u64, u64);

fn fingerprint(r: &SimResult) -> Fingerprint {
    (
        r.offered,
        r.processed,
        r.lost,
        r.reconfig_count,
        r.mean_accuracy.to_bits(),
        r.mean_power_w.to_bits(),
        r.mean_latency_ms.to_bits(),
        r.energy_j.to_bits(),
    )
}

#[test]
fn fault_free_runs_match_pre_fault_layer_fingerprints() {
    let sim = sim();
    let expected: [(u64, Fingerprint); 3] = [
        (
            7,
            (
                14753,
                14254,
                499,
                3,
                0x3feb8e59957648a2,
                0x3ff30870110a137d,
                0x400ef4c5c489f5da,
                0x403dbd2f1a9fbe74,
            ),
        ),
        (
            9,
            (
                14482,
                14034,
                448,
                2,
                0x3fec0d747225c09f,
                0x3ff316b11c6d1e0f,
                0x40122ae4ebbee279,
                0x403dd374bc6a7ef7,
            ),
        ),
        (
            21,
            (
                16405,
                15592,
                813,
                5,
                0x3feb073966523987,
                0x3ff2ebedfa43fe5b,
                0x401191cad080b56b,
                0x403d90a3d70a3d6e,
            ),
        ),
    ];
    for (seed, want) in expected {
        let r = sim.run(&mut adaptive_manager(), &RunSpec::synthetic(seed));
        assert_eq!(fingerprint(&r), want, "fault-free run drifted at seed {seed}");
        assert_eq!(r.trace.len(), 25);
        assert!(r.faults.is_clean());
    }
}

#[test]
fn shaped_fault_free_runs_match_pre_fault_layer_fingerprints() {
    let sim = sim();
    let cases: [(Scenario, Fingerprint); 2] = [
        (
            Scenario::Burst,
            (
                18022,
                16635,
                1387,
                2,
                0x3febd4f272bf924a,
                0x3ff316b11c6d1e0f,
                0x40167f9eae67da06,
                0x403dd374bc6a7ef7,
            ),
        ),
        (
            Scenario::Steady,
            (
                15006,
                14579,
                427,
                0,
                0x3feccccccccccccf,
                0x3ff3333333333331,
                0x4016d5d08d1f8eff,
                0x403dfffffffffffd,
            ),
        ),
    ];
    for (scenario, want) in cases {
        let trace = scenario.trace(WorkloadConfig::paper_default());
        let none = FaultPlan::none();
        let r = sim.run(
            &mut adaptive_manager(),
            &RunSpec::new(Traffic::Shaped(&trace), &none, 11),
        );
        assert_eq!(
            fingerprint(&r),
            want,
            "shaped {scenario} run drifted at seed 11"
        );
    }
}

#[test]
fn run_many_matches_pre_fault_layer_fingerprints() {
    let sim = sim();
    let results = sim.run_many(&adaptive_manager(), &RunSpec::synthetic(42), 4, 1);
    let counts: Vec<(usize, usize, usize, usize)> = results
        .iter()
        .map(|r| (r.offered, r.processed, r.lost, r.reconfig_count))
        .collect();
    assert_eq!(
        counts,
        vec![
            (16785, 16318, 467, 3),
            (16157, 15337, 820, 6),
            (15617, 15367, 250, 2),
            (14170, 13701, 469, 2),
        ]
    );
}

#[test]
fn empty_plan_is_byte_identical_to_plain_runs() {
    // An empty plan draws nothing from its stream, so not even its own
    // seed may show in the result.
    let sim = sim();
    let none = FaultPlan::none();
    let reseeded = FaultPlan {
        seed: 0xFA17,
        ..FaultPlan::none()
    };
    for seed in [7u64, 21, 1234] {
        let plain = sim.run(&mut adaptive_manager(), &RunSpec::synthetic(seed));
        let faulted = sim.run(
            &mut adaptive_manager(),
            &RunSpec::new(Traffic::Synthetic, &reseeded, seed),
        );
        assert_eq!(plain, faulted, "empty plan perturbed seed {seed}");
    }
    let trace = Scenario::Burst.trace(WorkloadConfig::paper_default());
    let shaped = |plan| {
        sim.run(
            &mut adaptive_manager(),
            &RunSpec::new(Traffic::Shaped(&trace), plan, 11),
        )
    };
    assert_eq!(shaped(&none), shaped(&reseeded));
}

#[test]
fn faulted_runs_are_job_count_invariant() {
    let sim = sim();
    let plan = FaultPlan::canned();
    for mitigation in [MitigationConfig::off(), MitigationConfig::recommended()] {
        let manager = adaptive_manager().with_mitigation(mitigation);
        let spec = RunSpec::new(Traffic::Synthetic, &plan, 42);
        let serial = sim.run_many(&manager, &spec, 6, 1);
        let parallel = sim.run_many(&manager, &spec, 6, 4);
        assert_eq!(serial, parallel, "jobs=4 diverged from jobs=1");
        // And re-running is reproducible outright.
        assert_eq!(serial, sim.run_many(&manager, &spec, 6, 1));
    }
}

#[test]
fn faulted_shaped_runs_are_job_count_invariant() {
    let sim = sim();
    let plan = FaultPlan::canned();
    let trace = Scenario::Burst.trace(WorkloadConfig::paper_default());
    let manager = adaptive_manager();
    let spec = RunSpec::new(Traffic::Shaped(&trace), &plan, 7);
    let serial = sim.run_many(&manager, &spec, 5, 1);
    let parallel = sim.run_many(&manager, &spec, 5, 4);
    assert_eq!(serial, parallel);
    assert!(
        serial.iter().any(|r| !r.faults.is_clean()),
        "the canned plan must actually inject faults"
    );
}

