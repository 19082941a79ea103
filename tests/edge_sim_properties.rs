//! Property-based tests of the edge simulator: conservation laws,
//! monotonicity in capacity, and determinism.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex_edge::{EdgeSimulation, RunSpec, SimConfig, WorkloadConfig};
use finn_dataflow::ResourceUsage;
use proptest::prelude::*;

fn static_entry(ips: f64, accuracy: f64, power_w: f64) -> LibraryEntry {
    LibraryEntry {
        id: 0,
        pruning_rate: 0.0,
        achieved_rate: 0.0,
        prune_exits: false,
        mean_exit_accuracy: accuracy,
        final_exit_accuracy: accuracy,
        resources: ResourceUsage::zero(),
        exit_resources: ResourceUsage::zero(),
        utilization: (0.1, 0.1, 0.1, 0.0),
        static_ips: ips,
        latency_to_exit_ms: vec![1.0],
        points: vec![OperatingPoint {
            confidence_threshold: 1.0,
            accuracy,
            exit_fractions: vec![1.0],
            ips,
            avg_latency_ms: 1.5,
            power_w,
            energy_per_inference_mj: power_w / ips * 1000.0,
        }],
    }
}

fn static_manager(ips: f64) -> RuntimeManager {
    RuntimeManager::new(
        Library {
            entries: vec![static_entry(ips, 0.85, 1.1)],
        },
        0.0,
        SelectionPolicy::Oblivious,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// offered == processed + lost, always.
    #[test]
    fn requests_are_conserved(capacity in 100.0f64..2500.0, seed in 0u64..1000) {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let r = sim.run(&mut static_manager(capacity), &RunSpec::synthetic(seed));
        prop_assert_eq!(r.offered, r.processed + r.lost);
        prop_assert!(r.mean_power_w > 0.0);
        prop_assert!(r.qoe() <= r.mean_accuracy + 1e-12);
    }

    /// More capacity never loses more inferences (same seed).
    #[test]
    fn loss_is_monotone_in_capacity(seed in 0u64..500) {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let slow = sim.run(&mut static_manager(350.0), &RunSpec::synthetic(seed));
        let mid = sim.run(&mut static_manager(600.0), &RunSpec::synthetic(seed));
        let fast = sim.run(&mut static_manager(1500.0), &RunSpec::synthetic(seed));
        prop_assert!(slow.lost >= mid.lost, "{} < {}", slow.lost, mid.lost);
        prop_assert!(mid.lost >= fast.lost, "{} < {}", mid.lost, fast.lost);
    }

    /// Identical seeds give identical runs; different seeds differ in
    /// their arrival pattern.
    #[test]
    fn runs_are_deterministic(seed in 0u64..500) {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let a = sim.run(&mut static_manager(700.0), &RunSpec::synthetic(seed));
        let b = sim.run(&mut static_manager(700.0), &RunSpec::synthetic(seed));
        prop_assert_eq!(a, b);
    }

    /// Queue-induced latency: a saturated server reports strictly higher
    /// latency than an overprovisioned one.
    #[test]
    fn saturation_shows_in_latency(seed in 0u64..200) {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let over = sim.run(&mut static_manager(2000.0), &RunSpec::synthetic(seed));
        let under = sim.run(&mut static_manager(400.0), &RunSpec::synthetic(seed));
        prop_assert!(under.mean_latency_ms > over.mean_latency_ms);
    }
}

#[test]
fn workload_mean_tracks_nominal() {
    // Averaged over many seeds, the sampled rates center on 600 IPS.
    let cfg = WorkloadConfig::paper_default();
    let mean: f64 = (0..200).map(|s| cfg.sample(s).mean_rate()).sum::<f64>() / 200.0;
    assert!(
        (mean - cfg.nominal_ips()).abs() < 15.0,
        "mean workload {mean} far from nominal"
    );
}

#[test]
fn trace_samples_cover_the_episode() {
    let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
    let r = sim.run(&mut static_manager(700.0), &RunSpec::synthetic(5));
    // 25 s at a 1 s monitor period: 24-25 samples.
    assert!(
        (24..=25).contains(&r.trace.len()),
        "unexpected trace length {}",
        r.trace.len()
    );
    for pair in r.trace.windows(2) {
        assert!(pair[1].t > pair[0].t);
    }
}

#[test]
fn energy_integrates_power_over_time() {
    let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
    let r = sim.run(&mut static_manager(900.0), &RunSpec::synthetic(11));
    // One static operating point at 1.1 W for 25 s ≈ 27.5 J.
    assert!(
        (r.energy_j - 1.1 * 25.0).abs() < 0.5,
        "energy {} J",
        r.energy_j
    );
    assert!((r.mean_power_w - 1.1).abs() < 0.02);
}
