//! Tick-loop ↔ event-engine equivalence suite.
//!
//! The event-driven engine (`crates/edge/src/engine.rs`) replaced the
//! 1 ms tick loop as the default simulation path; the legacy loop is
//! kept as `EdgeSimulation::run_tick_reference`. This suite pins the
//! refactor's core contract: **bit-identical `SimResult`s** — same
//! counters, same float bit patterns, same per-period trace — as one
//! table of `RunSpec`s over all three traffic recipes (synthetic seeds,
//! shaped scenarios, the six scenario-library specs), fault plans and
//! off-default configs. Results are compared both structurally and as
//! serialized JSON bytes.
//!
//! It also pins the fleet layer's sharding contract: a fleet run is
//! byte-identical at any `--jobs` value, and each shard equals a
//! standalone single-server simulation.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{MitigationConfig, RuntimeManager, SelectionPolicy};
use adapex_edge::{
    builtin_library, EdgeSimulation, FaultPlan, Fleet, FleetConfig, PlacementPolicy, RunSpec,
    Scenario, ScenarioFile, SimConfig, SimResult, Traffic, WorkloadConfig,
};
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

/// Same three-entry library as the golden suite: reconfigurations and
/// threshold changes both fire on the paper workload.
fn manager(mitigation: MitigationConfig) -> RuntimeManager {
    let library = Library {
        entries: vec![
            entry(0, 0.0, &[(0.9, 0.88, 700.0), (0.3, 0.82, 1150.0)]),
            entry(1, 0.5, &[(0.9, 0.80, 1400.0), (0.3, 0.76, 1900.0)]),
            entry(2, 0.8, &[(0.9, 0.70, 2500.0)]),
        ],
    };
    let mut m = RuntimeManager::new(library, 0.75, SelectionPolicy::ReconfigAware);
    m.set_mitigation(mitigation);
    m
}

/// Asserts structural equality *and* byte-identical JSON so the claim
/// "bit-identical" is literal: every f64 serializes from the same bits.
fn assert_bit_identical(des: &SimResult, tick: &SimResult, what: &str) {
    assert_eq!(des, tick, "{what}: DES result differs from tick loop");
    let a = serde_json::to_string(des).expect("serialize DES result");
    let b = serde_json::to_string(tick).expect("serialize tick result");
    assert_eq!(a, b, "{what}: serialized bytes differ");
}

/// One row of the table: the engine and the tick loop run the same
/// `RunSpec` from identical managers and must agree to the bit.
fn assert_engine_matches_tick_loop(
    sim: &EdgeSimulation,
    mitigation: MitigationConfig,
    spec: &RunSpec,
    what: &str,
) -> SimResult {
    let des = sim.run(&mut manager(mitigation), spec);
    let tick = sim.run_tick_reference(&mut manager(mitigation), spec);
    assert_bit_identical(&des, &tick, what);
    des
}

#[test]
fn des_matches_tick_loop_on_the_paper_scenario() {
    let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
    for plan in [FaultPlan::none(), FaultPlan::canned()] {
        for seed in [1, 7, 1213, 0xDEAD] {
            assert_engine_matches_tick_loop(
                &sim,
                MitigationConfig::off(),
                &RunSpec::new(Traffic::Synthetic, &plan, seed),
                &format!("paper seed {seed}"),
            );
        }
    }
}

#[test]
fn des_matches_tick_loop_on_shaped_scenarios() {
    let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
    for scenario in Scenario::all() {
        let trace = scenario.trace(WorkloadConfig::paper_default());
        for (plan, mitigation) in [
            (FaultPlan::none(), MitigationConfig::off()),
            (FaultPlan::canned(), MitigationConfig::off()),
            (FaultPlan::canned(), MitigationConfig::recommended()),
        ] {
            assert_engine_matches_tick_loop(
                &sim,
                mitigation,
                &RunSpec::new(Traffic::Shaped(&trace), &plan, 1213),
                &format!("scenario {scenario}"),
            );
        }
    }
}

#[test]
fn des_matches_tick_loop_on_the_scenario_library() {
    // The six committed scenario files, as `Traffic::Spec` — the recipe
    // that re-bases the episode's workload config onto the generated
    // trace's — each with their own fault plan, bare and mitigated.
    let library = builtin_library();
    assert_eq!(library.len(), 6);
    for file in &library {
        let sim = EdgeSimulation::new(file.sim_config(145.0));
        for mitigation in [MitigationConfig::off(), MitigationConfig::recommended()] {
            assert_engine_matches_tick_loop(
                &sim,
                mitigation,
                &RunSpec::new(Traffic::Spec(&file.workload), &file.faults, file.seed),
                &format!("library scenario {}", file.name),
            );
        }
    }
}

#[test]
fn des_matches_tick_loop_off_the_default_config() {
    // Off-default tick size, monitor period, queue depth and reconfig
    // latency: the engine's precomputed boundaries (monitor cadence,
    // settle ticks, window toggles) must track the tick loop everywhere,
    // not just at the paper's 1 ms / 1 s / 8-deep operating point.
    let mut cfg = SimConfig::paper_default(90.0);
    cfg.tick_s = 0.0025;
    cfg.monitor_period_s = 0.75;
    cfg.queue_capacity = 3;
    cfg.workload.duration_s = 13.0;
    cfg.workload.deviation_period_s = 2.0;
    let sim = EdgeSimulation::new(cfg);
    for plan in [FaultPlan::none(), FaultPlan::canned()] {
        for seed in [2, 99] {
            assert_engine_matches_tick_loop(
                &sim,
                MitigationConfig::recommended(),
                &RunSpec::new(Traffic::Synthetic, &plan, seed),
                &format!("off-default seed {seed}"),
            );
        }
    }
}

#[test]
fn des_matches_tick_loop_when_the_monitor_never_fires() {
    // A monitor period past the horizon: the tick loop's accumulator
    // never reaches it, so no decision fires and the trace is empty.
    // The engine's cadence replay must stop at the horizon too — at
    // 1e300 s it used to spin forever.
    for period in [60.0, 1e300] {
        let mut cfg = SimConfig::paper_default(145.0);
        cfg.monitor_period_s = period;
        let sim = EdgeSimulation::new(cfg);
        let plan = FaultPlan::canned();
        let result = assert_engine_matches_tick_loop(
            &sim,
            MitigationConfig::off(),
            &RunSpec::new(Traffic::Synthetic, &plan, 7),
            &format!("monitor period {period:e}"),
        );
        assert!(result.trace.is_empty(), "period {period:e} fired a monitor");
        assert!(result.processed > 0);
    }
}

#[test]
fn an_oversized_queue_capacity_is_a_bound_not_an_allocation() {
    // File-reachable: `"sim": {"queue_capacity": 100000000000}` validates
    // and used to abort the process pre-sizing the frame buffer (and
    // 4e18 panicked with "capacity overflow"). Any `usize` must run, and
    // run like the tick loop, whose queue always grew on demand.
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
        let result = assert_engine_matches_tick_loop(
            &sim,
            MitigationConfig::off(),
            &RunSpec::new(Traffic::Spec(&file.workload), &file.faults, file.seed),
            &format!("queue capacity {capacity}"),
        );
        assert!(result.processed > 0);
    }
}

#[test]
fn fleet_runs_are_byte_identical_across_job_counts() {
    let mut cfg = FleetConfig::paper_default(6, 10, 145.0);
    cfg.sim.workload.duration_s = 5.0;
    let fleet = Fleet::new(cfg);
    let m = manager(MitigationConfig::off());
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
    use adapex_edge::FLEET_SALT;
    use adapex_tensor::rng::derive_stream;

    let mut cfg = FleetConfig::paper_default(3, 12, 145.0);
    cfg.sim.workload.duration_s = 5.0;
    cfg.placement = PlacementPolicy::RoundRobin;
    let fleet = Fleet::new(cfg);
    let m = manager(MitigationConfig::off());
    let plan = FaultPlan::canned();
    let result = fleet.run(&m, &RunSpec::new(Traffic::Synthetic, &plan, 7), 2);
    let placement = fleet.placement(7);
    for (s, assignment) in placement.iter().enumerate() {
        let mut workload = fleet.config().sim.workload;
        workload.cameras = assignment.cameras.len();
        workload.ips_per_camera = assignment.nominal_ips / assignment.cameras.len() as f64;
        let sim = EdgeSimulation::new(SimConfig {
            workload,
            ..fleet.config().sim.clone()
        });
        let standalone = sim.run(
            &mut manager(MitigationConfig::off()),
            &RunSpec::new(Traffic::Synthetic, &plan, derive_stream(7, s as u64, FLEET_SALT)),
        );
        assert_bit_identical(&result.servers[s], &standalone, &format!("server {s}"));
    }
}
