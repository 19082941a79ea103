//! Fleet-scale simulation throughput bench: emits `BENCH_fleet.json`.
//!
//! Simulates a fleet of 10,000 edge servers × 100 camera streams each
//! (1,000,000 streams, 250,000 server-seconds) on the segment-level
//! engine and reports *per-server-second throughput* — simulated
//! server-seconds per wall-clock second — at `jobs = 1` (repeated) and
//! `jobs = 4`.
//!
//! The engine pays per event, not per tick (~29 events per 25,000-tick
//! episode here), so the cost of a server-second is a handful of
//! segment updates plus one buffer solve per rate change. There is no
//! slower path left to be faster than; the gates are absolute.
//!
//! Gates (asserted):
//! - the fleet covers ≥ 1,000,000 streams at default scale;
//! - fleet results at `jobs = 1` and `jobs = 4` are **byte-identical**
//!   (serialized JSON compared, server by server);
//! - the fastest `jobs = 1` pass costs ≤ [`NS_PER_SERVER_SECOND_BUDGET`]
//!   host ns per simulated server-second and ≤ [`NS_PER_EVENT_BUDGET`]
//!   per event. The tick-replay engine this one replaced cost
//!   33,000–49,000 ns per server-second, so anything tick-proportional
//!   creeping back in trips the first budget on any host.
//!
//! Scale knobs for quick local runs (gates still assert):
//! `ADAPEX_FLEET_SERVERS` (default 10000), `ADAPEX_FLEET_CAMERAS`
//! (default 100). Run with
//! `cargo run --release -p adapex-bench --bin bench-fleet`.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex_edge::{
    FaultPlan, Fleet, FleetConfig, FleetResult, FleetSummary, RunSpec, SimResult, Traffic,
};
use adapex_tensor::parallel::num_threads;
use finn_dataflow::ResourceUsage;
use serde::Serialize;
use std::time::Instant;

const SEED: u64 = 0xF1EE7;
/// Timed `jobs = 1` passes; the fastest is gated, all are reported.
const REPEATS: usize = 3;
/// Host time a simulated server-second may cost (measured: ≈ 3,300 ns
/// on the 2-core development container).
const NS_PER_SERVER_SECOND_BUDGET: f64 = 10_000.0;
/// Host time an engine event may cost (measured: ≈ 2,800 ns).
const NS_PER_EVENT_BUDGET: f64 = 8_000.0;

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
    host_cores: usize,
    /// Timed `jobs = 1` passes and their wall times.
    repeats: usize,
    pass_wall_s: Vec<f64>,
    /// `(max − min) / median` of the pass wall times.
    pass_spread: f64,
    /// Simulated server-seconds per wall second: fastest `jobs = 1`
    /// pass, and the single `jobs = 4` pass.
    server_seconds_per_s: f64,
    jobs4_server_seconds_per_s: f64,
    /// Host cost of the fastest `jobs = 1` pass, and the budgets it is
    /// asserted against.
    ns_per_server_second: f64,
    ns_per_server_second_budget: f64,
    ns_per_event: f64,
    ns_per_event_budget: f64,
    /// `jobs = 1` vs `jobs = 4` serialized-JSON comparison.
    jobs_byte_identical: bool,
    events: u64,
    /// Ticks of virtual time covered (the engine does not iterate them).
    ticks: u64,
    summary: FleetSummary,
}

fn main() {
    let servers = env_scale("ADAPEX_FLEET_SERVERS", 10_000);
    let cameras = env_scale("ADAPEX_FLEET_CAMERAS", 100);
    let threads = num_threads();
    let mut config = FleetConfig::paper_default(servers, cameras, 145.0);
    config.sim.workload.ips_per_camera = 30.0;
    let duration_s = config.sim.workload.duration_s;
    let fleet = Fleet::new(config);
    let m = manager();
    let plan = FaultPlan::none();
    let server_seconds = servers as f64 * duration_s;

    eprintln!(
        "fleet: {servers} servers x {cameras} cameras = {} streams, {threads} thread(s) on {} core(s)",
        fleet.config().streams(),
        adapex_bench::host_cores()
    );

    let run_timed = |jobs: usize| -> (FleetResult, f64) {
        let t0 = Instant::now();
        let r = fleet.run(&m, &RunSpec::new(Traffic::Synthetic, &plan, SEED), jobs);
        (r, t0.elapsed().as_secs_f64())
    };
    let (fleet_j1, first_wall) = run_timed(1);
    let mut pass_wall_s = vec![first_wall];
    for _ in 1..REPEATS {
        let (again, wall) = run_timed(1);
        assert!(again == fleet_j1, "a repeat at the same seed differs");
        pass_wall_s.push(wall);
    }
    let (fleet_j4, wall_j4) = run_timed(4);
    // Server by server, so a million-stream fleet is never two whole
    // JSON documents in memory.
    let to_json = |r: &SimResult| serde_json::to_string(r).expect("serialize server");
    let jobs_byte_identical = serde_json::to_string(&fleet_j1.summary).expect("serialize j1")
        == serde_json::to_string(&fleet_j4.summary).expect("serialize j4")
        && fleet_j1.servers.len() == fleet_j4.servers.len()
        && fleet_j1
            .servers
            .iter()
            .zip(&fleet_j4.servers)
            .all(|(a, b)| to_json(a) == to_json(b));
    drop(fleet_j4);

    let mut sorted = pass_wall_s.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let (best, median) = (sorted[0], sorted[sorted.len() / 2]);
    let summary = fleet_j1.summary;
    eprintln!(
        "engine: {servers} servers in {best:.3}s = {:.0} server-seconds/s, {:.0} ns per event",
        server_seconds / best,
        best * 1e9 / summary.events as f64
    );

    let report = FleetBenchReport {
        schema_version: adapex_bench::BENCH_SCHEMA_VERSION,
        servers,
        cameras_per_server: cameras,
        streams: fleet.config().streams(),
        duration_s,
        threads,
        host_cores: adapex_bench::host_cores(),
        repeats: REPEATS,
        pass_spread: (sorted[sorted.len() - 1] - best) / median,
        pass_wall_s,
        server_seconds_per_s: server_seconds / best,
        jobs4_server_seconds_per_s: server_seconds / wall_j4,
        ns_per_server_second: best * 1e9 / server_seconds,
        ns_per_server_second_budget: NS_PER_SERVER_SECOND_BUDGET,
        ns_per_event: best * 1e9 / summary.events as f64,
        ns_per_event_budget: NS_PER_EVENT_BUDGET,
        jobs_byte_identical,
        events: summary.events,
        ticks: summary.ticks,
        summary,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write("BENCH_fleet.json", &json).expect("write BENCH_fleet.json");
    println!("{json}");
    eprintln!("wrote BENCH_fleet.json");

    assert!(
        report.streams >= 1_000_000 || servers < 10_000,
        "default scale must cover >= 1M streams, got {}",
        report.streams
    );
    assert!(report.jobs_byte_identical, "fleet results differ across job counts");
    assert!(
        report.ns_per_server_second <= NS_PER_SERVER_SECOND_BUDGET,
        "{:.0} host ns per server-second is over the {NS_PER_SERVER_SECOND_BUDGET:.0} ns budget",
        report.ns_per_server_second
    );
    assert!(
        report.ns_per_event <= NS_PER_EVENT_BUDGET,
        "{:.0} host ns per event is over the {NS_PER_EVENT_BUDGET:.0} ns budget",
        report.ns_per_event
    );
}
