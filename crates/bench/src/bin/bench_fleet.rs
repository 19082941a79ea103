//! Fleet-scale simulation throughput bench: emits `BENCH_fleet.json`.
//!
//! Simulates a fleet of 1,000 edge servers × 100 camera streams each
//! (100,000 streams) on the event-driven engine and compares
//! *per-server-second throughput* — simulated server-seconds per
//! wall-clock second — against the legacy 1 ms tick loop
//! (`run_tick_reference`, the pre-event-engine simulation path,
//! measured on a serial sample of the same fleet and extrapolated; both paths produce bit-identical `SimResult`s, so the
//! delta is pure throughput).
//!
//! The speedup has two independent factors:
//!
//! 1. **Engine**: between events the DES advance loop runs with every
//!    per-tick quantity hoisted (no `OperatingPoint` clone — a heap
//!    allocation per tick in the old loop — no `exp(-λ)`, no fault
//!    window scans, no monitor compare). Worth ~2× per core.
//! 2. **Sharding**: servers are independent once placed, so the fleet
//!    shards across cores with byte-identical results at any `--jobs`.
//!    Worth ~1× per available core.
//!
//! Gates (asserted):
//! - the fleet covers ≥ 100,000 streams;
//! - fleet results at `jobs = 1` and `jobs = 4` are **byte-identical**
//!   (serialized JSON compared);
//! - `speedup_vs_tick ≥ min(10, 1.5 × cores)` — the 10× target
//!   engages on hosts with ≥ 7 cores, where sharding can carry it;
//!   single-core hosts still must show the engine's intrinsic win.
//!
//! Scale knobs for quick local runs (gates still assert):
//! `ADAPEX_FLEET_SERVERS` (default 1000), `ADAPEX_FLEET_CAMERAS`
//! (default 100). Run with
//! `cargo run --release -p adapex-bench --bin bench-fleet`.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex_edge::{
    EdgeSimulation, FaultPlan, Fleet, FleetConfig, FleetResult, FleetSummary, RunSpec, SimConfig,
    Traffic, WorkloadConfig, FLEET_SALT,
};
use adapex_tensor::parallel::num_threads;
use adapex_tensor::rng::derive_stream;
use finn_dataflow::ResourceUsage;
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 0xF1EE7;
/// Servers simulated on the legacy tick loop to estimate its rate
/// (enough to keep the serial-baseline timing window well above timer
/// noise without re-simulating the whole fleet twice).
const TICK_SAMPLE: usize = 32;

fn env_scale(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

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
        points: vec![
            OperatingPoint {
                confidence_threshold: 0.9,
                accuracy: acc,
                exit_fractions: vec![1.0],
                ips,
                avg_latency_ms: 2.0,
                power_w: 1.2,
                energy_per_inference_mj: 1.2 / ips * 1000.0,
            },
            OperatingPoint {
                confidence_threshold: 0.3,
                accuracy: acc - 0.05,
                exit_fractions: vec![1.0],
                ips: ips * 1.5,
                avg_latency_ms: 1.5,
                power_w: 1.2,
                energy_per_inference_mj: 1.2 / (ips * 1.5) * 1000.0,
            },
        ],
    }
}

/// A three-entry library sized for 100-camera servers (nominal 3,000
/// IPS), so monitor decisions actually reconfigure under load swings.
fn manager() -> RuntimeManager {
    RuntimeManager::new(
        Library {
            entries: vec![
                entry(0, 0.0, 0.88, 2_800.0),
                entry(1, 0.5, 0.80, 4_200.0),
                entry(2, 0.8, 0.70, 6_000.0),
            ],
        },
        0.6,
        SelectionPolicy::ReconfigAware,
    )
}

#[derive(Debug, Serialize)]
struct FleetBenchReport {
    schema_version: u32,
    servers: usize,
    cameras_per_server: usize,
    streams: usize,
    duration_s: f64,
    threads: usize,
    /// Simulated server-seconds per wall second, legacy tick loop
    /// (serial, measured on `tick_baseline_servers` servers).
    tick_baseline_servers: usize,
    tick_server_seconds_per_s: f64,
    /// Simulated server-seconds per wall second, event engine at the
    /// best measured job count.
    des_jobs: usize,
    des_server_seconds_per_s: f64,
    speedup_vs_tick: f64,
    /// `min(10, 1.5 × cores)` — what this host is asserted against.
    speedup_gate: f64,
    /// `jobs = 1` vs `jobs = 4` serialized-JSON comparison.
    jobs_byte_identical: bool,
    des_events: u64,
    des_ticks: u64,
    des_ticks_per_s: f64,
    summary: FleetSummary,
}

fn main() {
    let servers = env_scale("ADAPEX_FLEET_SERVERS", 1_000);
    let cameras = env_scale("ADAPEX_FLEET_CAMERAS", 100);
    let threads = num_threads();
    let mut config = FleetConfig::paper_default(servers, cameras, 145.0);
    config.sim.workload.ips_per_camera = 30.0;
    let duration_s = config.sim.workload.duration_s;
    let fleet = Fleet::new(config);
    let m = manager();
    let plan = FaultPlan::none();

    eprintln!(
        "fleet: {servers} servers x {cameras} cameras = {} streams, {threads} core(s)",
        fleet.config().streams()
    );

    // --- Legacy tick loop, serial sample. ---------------------------
    let placement = fleet.placement(SEED);
    let tick_servers = TICK_SAMPLE.min(servers);
    let t0 = Instant::now();
    let mut tick_results = Vec::with_capacity(tick_servers);
    for (s, a) in placement.iter().take(tick_servers).enumerate() {
        let workload = WorkloadConfig {
            cameras: a.cameras.len(),
            ips_per_camera: a.nominal_ips / a.cameras.len() as f64,
            ..fleet.config().sim.workload
        };
        let sim = EdgeSimulation::new(SimConfig {
            workload,
            ..fleet.config().sim.clone()
        });
        let server = RunSpec::new(
            Traffic::Synthetic,
            &plan,
            derive_stream(SEED, s as u64, FLEET_SALT),
        );
        tick_results.push(sim.run_tick_reference(&mut m.clone(), &server));
    }
    let tick_wall = t0.elapsed().as_secs_f64();
    let tick_rate = tick_servers as f64 * duration_s / tick_wall;
    eprintln!(
        "tick loop: {tick_servers} servers in {tick_wall:.2}s = {tick_rate:.0} server-seconds/s"
    );

    // --- Event engine, jobs ∈ {1, 4}. -------------------------------
    let run_timed = |jobs: usize| -> (FleetResult, f64) {
        let t0 = Instant::now();
        let r = fleet.run(&m, &RunSpec::new(Traffic::Synthetic, &plan, SEED), jobs);
        (r, t0.elapsed().as_secs_f64())
    };
    let (fleet_j1, wall_j1) = run_timed(1);
    let (fleet_j4, wall_j4) = run_timed(4);
    let jobs_byte_identical = serde_json::to_string(&fleet_j1).expect("serialize j1")
        == serde_json::to_string(&fleet_j4).expect("serialize j4");

    // The engine's own shards are bit-identical to the tick reference;
    // spot-check against the serial tick sample.
    for (s, tick_r) in tick_results.iter().enumerate() {
        assert_eq!(
            &fleet_j1.servers[s], tick_r,
            "DES shard {s} diverged from the tick loop"
        );
    }

    let (des_jobs, des_wall, result) = if wall_j4 < wall_j1 {
        (4, wall_j4, fleet_j4)
    } else {
        (1, wall_j1, fleet_j1)
    };
    let des_rate = servers as f64 * duration_s / des_wall;
    let speedup = des_rate / tick_rate;
    let speedup_gate = (1.5 * threads as f64).min(10.0);
    eprintln!(
        "event engine: {servers} servers in {des_wall:.2}s ({des_jobs} jobs) = \
         {des_rate:.0} server-seconds/s — {speedup:.1}x tick loop (gate {speedup_gate:.1}x)"
    );

    let report = FleetBenchReport {
        schema_version: adapex_bench::BENCH_SCHEMA_VERSION,
        servers,
        cameras_per_server: cameras,
        streams: fleet.config().streams(),
        duration_s,
        threads,
        tick_baseline_servers: tick_servers,
        tick_server_seconds_per_s: tick_rate,
        des_jobs,
        des_server_seconds_per_s: des_rate,
        speedup_vs_tick: speedup,
        speedup_gate,
        jobs_byte_identical,
        des_events: result.summary.events,
        des_ticks: result.summary.ticks,
        des_ticks_per_s: result.summary.ticks as f64 / des_wall,
        summary: result.summary,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("{json}");
    eprintln!("wrote BENCH_fleet.json");

    assert!(
        report.streams >= 100_000 || servers < 1_000,
        "default scale must cover >= 100k streams, got {}",
        report.streams
    );
    assert!(report.jobs_byte_identical, "fleet results differ across job counts");
    assert!(
        report.speedup_vs_tick >= report.speedup_gate,
        "event engine speedup {:.2}x below gate {:.2}x",
        report.speedup_vs_tick,
        report.speedup_gate
    );
}
