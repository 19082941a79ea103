//! Fleet-scale simulation throughput bench: emits `BENCH_fleet.json`.
//!
//! Simulates a fleet of 10,000 edge servers × 100 camera streams each
//! (1,000,000 streams, 250,000 server-seconds) on the segment-level
//! engine at `jobs = 1` — [`ROUNDS`] timed passes after a discarded
//! warm-up pass, on the shared timer — and once at `jobs = 4`.
//!
//! The engine pays per event, not per tick (~29 events per 25,000-tick
//! episode here), so the cost of a server-second is a handful of
//! segment updates plus one buffer solve per rate change. There is no
//! slower path left to be faster than; the gates are absolute.
//!
//! Gates (asserted):
//! - the fleet covers ≥ 1,000,000 streams;
//! - every `jobs = 1` pass returns the same result, and the `jobs = 4`
//!   result is **byte-identical** to it (serialized JSON compared,
//!   server by server);
//! - the fastest `jobs = 1` pass costs ≤ [`NS_PER_SERVER_SECOND_BUDGET`]
//!   host ns per simulated server-second and ≤ [`NS_PER_EVENT_BUDGET`]
//!   per event. The tick-replay engine this one replaced cost
//!   33,000–49,000 ns per server-second, so anything tick-proportional
//!   creeping back in trips the first budget on any host.
//!
//! Run with `cargo run --release -p adapex-bench --bin bench-fleet`.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex_bench::{interleave, write_report, Gated, ReportHeader};
use adapex_edge::{
    FaultPlan, Fleet, FleetConfig, FleetResult, FleetSummary, RunSpec, SimResult, Traffic,
};
use finn_dataflow::ResourceUsage;
use serde::Serialize;

const SEED: u64 = 0xF1EE7;
const SERVERS: usize = 10_000;
const CAMERAS: usize = 100;
/// Timed `jobs = 1` passes (after the discarded warm-up pass); the
/// fastest is gated.
const ROUNDS: usize = 3;
/// Host time a simulated server-second may cost (measured: ≈ 3,300 ns
/// on the 2-core development container).
const NS_PER_SERVER_SECOND_BUDGET: f64 = 10_000.0;
/// Host time an engine event may cost (measured: ≈ 2,800 ns).
const NS_PER_EVENT_BUDGET: f64 = 8_000.0;

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
    header: ReportHeader,
    servers: usize,
    cameras_per_server: usize,
    streams: usize,
    duration_s: f64,
    /// Timed `jobs = 1` passes behind the two costs below.
    rounds: usize,
    /// Simulated server-seconds per wall second, fastest pass.
    server_seconds_per_s: f64,
    /// Host ns per simulated server-second and per engine event, fastest
    /// pass, with the spread of the passes; and the budgets they are
    /// asserted against.
    ns_per_server_second: Gated,
    ns_per_server_second_budget: f64,
    ns_per_event: Gated,
    ns_per_event_budget: f64,
    /// `jobs = 1` vs `jobs = 4` serialized-JSON comparison.
    jobs_byte_identical: bool,
    events: u64,
    /// Ticks of virtual time covered (the engine does not iterate them).
    ticks: u64,
    summary: FleetSummary,
}

fn main() {
    let mut config = FleetConfig::paper_default(SERVERS, CAMERAS, 145.0);
    config.sim.workload.ips_per_camera = 30.0;
    let duration_s = config.sim.workload.duration_s;
    let fleet = Fleet::new(config);
    let m = manager();
    let plan = FaultPlan::none();
    let server_seconds = SERVERS as f64 * duration_s;
    let header = ReportHeader::capture();
    eprintln!(
        "fleet: {SERVERS} servers x {CAMERAS} cameras = {} streams, {} thread(s) on {} core(s)",
        fleet.config().streams(),
        header.threads,
        header.host_cores
    );

    let run = |jobs: usize| fleet.run(&m, &RunSpec::new(Traffic::Synthetic, &plan, SEED), jobs);
    // One arm: a repeat loop. Each pass is held until the next one has
    // been compared with it.
    let mut last: Option<FleetResult> = None;
    let pass = interleave(1, ROUNDS, 1, |_| {
        let result = run(1);
        if let Some(previous) = &last {
            assert!(*previous == result, "a repeat at the same seed differs");
        }
        last = Some(result);
    })[0];
    let fleet_j1 = last.expect("the timer ran a pass");
    let fleet_j4 = run(4);
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

    let summary = fleet_j1.summary;
    let cost_per = |units: f64| Gated {
        value: pass.best / units,
        spread: pass.spread,
    };
    let report = FleetBenchReport {
        header,
        servers: SERVERS,
        cameras_per_server: CAMERAS,
        streams: fleet.config().streams(),
        duration_s,
        rounds: ROUNDS,
        server_seconds_per_s: server_seconds / (pass.best / 1e9),
        ns_per_server_second: cost_per(server_seconds),
        ns_per_server_second_budget: NS_PER_SERVER_SECOND_BUDGET,
        ns_per_event: cost_per(summary.events as f64),
        ns_per_event_budget: NS_PER_EVENT_BUDGET,
        jobs_byte_identical,
        events: summary.events,
        ticks: summary.ticks,
        summary,
    };
    eprintln!(
        "engine: {SERVERS} servers in {:.3}s = {:.0} server-seconds/s, {:.0} ns per event (spread {:.3})",
        pass.best / 1e9,
        report.server_seconds_per_s,
        report.ns_per_event.value,
        pass.spread
    );
    println!("{}", write_report("fleet", &report));

    assert!(
        report.streams >= 1_000_000,
        "the fleet must cover >= 1M streams, got {}",
        report.streams
    );
    assert!(report.jobs_byte_identical, "fleet results differ across job counts");
    assert!(
        report.ns_per_server_second.value <= NS_PER_SERVER_SECOND_BUDGET,
        "{:.0} host ns per server-second is over the {NS_PER_SERVER_SECOND_BUDGET:.0} ns budget",
        report.ns_per_server_second.value
    );
    assert!(
        report.ns_per_event.value <= NS_PER_EVENT_BUDGET,
        "{:.0} host ns per event is over the {NS_PER_EVENT_BUDGET:.0} ns budget",
        report.ns_per_event.value
    );
}
