//! Property-based tests of the edge simulator: conservation laws,
//! monotonicity in capacity, determinism (one server and a sharded
//! fleet), exact energy, and survival at the edges of the config space.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex_edge::{
    builtin_library, EdgeSimulation, FaultPlan, Fleet, FleetConfig, PlacementPolicy, RunSpec,
    ScenarioFile, SimConfig, SimResult, Traffic, WorkloadConfig, FLEET_SALT,
};
use adapex_tensor::rng::derive_stream;
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

/// Two accelerators either side of the ±30 % envelope, so most seeds
/// reconfigure.
fn adaptive_manager() -> RuntimeManager {
    let mut fast = static_entry(1200.0, 0.78, 1.3);
    fast.id = 1;
    fast.pruning_rate = 0.5;
    fast.achieved_rate = 0.5;
    RuntimeManager::new(
        Library {
            entries: vec![static_entry(650.0, 0.88, 1.1), fast],
        },
        0.5,
        SelectionPolicy::ReconfigAware,
    )
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

#[test]
fn energy_is_power_times_duration_and_times_come_from_indices() {
    // One operating point, no reconfiguration: energy is a sum of
    // `power × segment length` over segments that tile the episode, so
    // it equals `power × duration` to rounding — the tick loop's
    // `t += dt` clock left 4.6e-13 of drift here. Sample times are
    // `index × tick_s`, exactly.
    for (tick_s, duration_s, period_s) in [(0.001, 25.0, 1.0), (0.0025, 13.0, 0.75), (0.001, 2500.0, 1.0)] {
        let mut cfg = SimConfig::paper_default(145.0);
        cfg.tick_s = tick_s;
        cfg.monitor_period_s = period_s;
        cfg.workload.duration_s = duration_s;
        let r = EdgeSimulation::new(cfg).run(&mut static_manager(900.0), &RunSpec::synthetic(11));
        assert_eq!(r.reconfig_count, 0);
        let want = 1.1 * duration_s;
        assert!(
            (r.energy_j - want).abs() <= 1e-12 * want,
            "{duration_s} s at {tick_s}: energy {} vs {want}",
            r.energy_j
        );
        assert!((r.mean_power_w - 1.1).abs() <= 1e-12);
        let per = (period_s / tick_s).round();
        for (k, sample) in r.trace.iter().enumerate() {
            assert_eq!(sample.t, (k + 1) as f64 * per * tick_s, "sample {k}");
        }
        assert_eq!(r.trace.len(), (duration_s / period_s) as usize);
    }
}

fn assert_sane(r: &SimResult, what: &str) {
    assert_eq!(r.offered, r.processed + r.lost, "{what}: conservation");
    for (name, x) in [
        ("energy", r.energy_j),
        ("power", r.mean_power_w),
        ("latency", r.mean_latency_ms),
        ("service latency", r.mean_service_latency_ms),
        ("accuracy", r.mean_accuracy),
    ] {
        assert!(x.is_finite() && x >= 0.0, "{what}: {name} {x}");
    }
    assert!(r.qoe() <= 1.0 + 1e-12, "{what}: QoE {}", r.qoe());
    for pair in r.trace.windows(2) {
        assert!(pair[1].t > pair[0].t, "{what}: sample times {} then {}", pair[0].t, pair[1].t);
    }
}

#[test]
fn degenerate_configs_run_and_conserve() {
    type Mutation = (&'static str, fn(&mut SimConfig));
    let mutations: [Mutation; 12] = [
        ("paper default", |_| {}),
        ("duration under one tick", |c| c.workload.duration_s = 0.0004),
        ("zero duration", |c| c.workload.duration_s = 0.0),
        ("rate 0", |c| c.workload.ips_per_camera = 0.0),
        ("rate 1e9", |c| c.workload.ips_per_camera = 1e9),
        ("queue 0", |c| c.queue_capacity = 0),
        ("queue 1", |c| c.queue_capacity = 1),
        ("queue 1e11", |c| c.queue_capacity = 100_000_000_000),
        ("reconfig past the horizon", |c| c.reconfig_time_ms = 60_000.0),
        ("100x horizon", |c| c.workload.duration_s = 2_500.0),
        ("monitor period past the horizon", |c| c.monitor_period_s = 60.0),
        ("coarse tick", |c| {
            c.tick_s = 0.3;
            c.monitor_period_s = 0.3;
        }),
    ];
    let plans = [FaultPlan::none(), FaultPlan::canned()];
    for (name, mutate) in mutations {
        for plan in &plans {
            for seed in [3, 21] {
                let mut cfg = SimConfig::paper_default(145.0);
                mutate(&mut cfg);
                let sim = EdgeSimulation::new(cfg);
                let spec = RunSpec::new(Traffic::Synthetic, plan, seed);
                let what = format!("{name}, faults {}, seed {seed}", !plan.is_none());
                let (r, stats) = sim.run_stats(&mut adaptive_manager(), &spec);
                assert_sane(&r, &what);
                assert!(stats.ticks >= 1, "{what}: the harness divides by ticks");
                assert_eq!(r, sim.run(&mut adaptive_manager(), &spec), "{what}: determinism");
            }
        }
    }
    // The combinations that used to need care: everything blocked, and
    // a reconfiguration that never ends under a flood of arrivals.
    let mut cfg = SimConfig::paper_default(60_000.0);
    cfg.workload.ips_per_camera = 1e9;
    cfg.queue_capacity = 1;
    let r = EdgeSimulation::new(cfg).run(&mut adaptive_manager(), &RunSpec::synthetic(5));
    assert_sane(&r, "flooded one-slot buffer");
    assert!(r.inference_loss_pct() > 99.0);
    assert_eq!(r.queue_high_water, 1);
}

#[test]
fn an_oversized_queue_capacity_is_a_bound_not_an_allocation() {
    // File-reachable: `"sim": {"queue_capacity": 100000000000}` validates
    // and once aborted the process pre-sizing the frame buffer. Any
    // `usize` must run; a buffer that deep blocks nothing.
    let base = serde_json::to_string(&builtin_library()[0]).expect("serialize");
    for capacity in [100_000_000_000usize, 4_000_000_000_000_000_000, usize::MAX] {
        let json = base.replacen(
            "\"queue_capacity\":null",
            &format!("\"queue_capacity\":{capacity}"),
            1,
        );
        assert_ne!(json, base, "replacement must hit");
        let file = ScenarioFile::from_json_str(&json).expect("a big bound is a valid bound");
        let sim = EdgeSimulation::new(file.sim_config(145.0));
        assert_eq!(sim.config().queue_capacity, capacity);
        let spec = RunSpec::new(Traffic::Spec(&file.workload), &file.faults, file.seed);
        let r = sim.run(&mut static_manager(450.0), &spec);
        assert_sane(&r, "oversized queue");
        assert!(r.processed > 0);
        // Under-provisioned by a quarter: the backlog grows all episode
        // and is only lost when the episode ends with it still queued.
        assert!(r.queue_high_water > 1_000 && r.queue_high_water < capacity);
        assert_eq!(r.lost, r.queue_high_water);
    }
}

#[test]
fn fleet_runs_are_byte_identical_across_job_counts() {
    let mut cfg = FleetConfig::paper_default(6, 10, 145.0);
    cfg.sim.workload.duration_s = 5.0;
    let fleet = Fleet::new(cfg);
    let m = adaptive_manager();
    let serial = fleet.run(&m, &RunSpec::synthetic(42), 1);
    let sharded = fleet.run(&m, &RunSpec::synthetic(42), 4);
    assert_eq!(serial, sharded, "fleet result differs across job counts");
    assert_eq!(
        serde_json::to_string(&serial).expect("serialize"),
        serde_json::to_string(&sharded).expect("serialize"),
        "fleet bytes differ across job counts"
    );
}

#[test]
fn fleet_shards_equal_standalone_simulations() {
    let mut cfg = FleetConfig::paper_default(3, 12, 145.0);
    cfg.sim.workload.duration_s = 5.0;
    cfg.placement = PlacementPolicy::RoundRobin;
    let fleet = Fleet::new(cfg);
    let plan = FaultPlan::canned();
    let result = fleet.run(&adaptive_manager(), &RunSpec::new(Traffic::Synthetic, &plan, 7), 2);
    for (s, assignment) in fleet.placement(7).iter().enumerate() {
        let mut workload = fleet.config().sim.workload;
        workload.cameras = assignment.cameras.len();
        workload.ips_per_camera = assignment.nominal_ips / assignment.cameras.len() as f64;
        let sim = EdgeSimulation::new(SimConfig {
            workload,
            ..fleet.config().sim.clone()
        });
        let standalone = sim.run(
            &mut adaptive_manager(),
            &RunSpec::new(Traffic::Synthetic, &plan, derive_stream(7, s as u64, FLEET_SALT)),
        );
        assert_eq!(result.servers[s], standalone, "server {s}");
        assert_eq!(
            serde_json::to_string(&result.servers[s]).expect("serialize"),
            serde_json::to_string(&standalone).expect("serialize"),
            "server {s}: serialized bytes differ"
        );
    }
}
