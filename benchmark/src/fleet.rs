//! The `fleet-sim` workload: 200 servers x 100 cameras on the event
//! engine, in two phases.
//!
//! `sparse` replays the builtin `paper-synthetic` scenario (a rate
//! change every 5 s and a monitor decision every second: about 30
//! events per 25 000 ticks per server, no reconfiguration), so host
//! time is tick-bound. `dense` replays `adversarial-flash-faults` with
//! its canned fault plan (flash crowd, reconfiguration aborts and
//! overruns, camera dropout, stale flood: twice the events and several
//! hundred reconfigurations), so the event path and `RuntimeManager::
//! decide` carry weight. `tensor` and `nn` do nothing here. Gated runs
//! use `jobs = 1`: whether the host lends the second core is not
//! repeatable; scaling is a per-layer number.
//!
//! The simulated statistics are deterministic given the seed, so a
//! change meant only to speed the simulator up must leave them
//! identical between repeats and job counts; across program versions
//! they must stay inside the band `pins.json` puts around a reference
//! (a band, so that a statistically equivalent simulator still passes).

use crate::gen::Rng;
use crate::metrics::PHASES;
use crate::pins::FleetPhasePins;
use crate::probes::ns_per_call;
use crate::stats::median;
use crate::trace::span_cost_ns;
use crate::{Laps, Run};
use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{MitigationConfig, RuntimeManager, SelectionPolicy};
use adapex_edge::{
    builtin_scenario, EdgeSimulation, FaultPlan, Fleet, FleetConfig, FleetResult, PlacementPolicy,
    ScenarioFile, WorkloadSpec,
};
use finn_dataflow::ResourceUsage;
use std::hint::black_box;
use std::time::Instant;

/// The fleet is 200 servers, run as four independent 50-server shards
/// so that one timed call lasts ~60-90 ms: a host stall then spoils a
/// quarter of a pass, and each shard's fastest repeat is kept.
const SHARDS: usize = 4;
const SERVERS_PER_SHARD: usize = 50;
const CAMERAS: usize = 100;
/// Nominal per-camera rate, inferences per second (3000 per server).
const IPS_PER_CAMERA: f64 = 30.0;
/// Reconfiguration time the scenarios run under, milliseconds.
const RECONFIG_MS: f64 = 145.0;
/// Per phase, in [`PHASES`] order: the builtin scenario behind it and
/// the span names of a shard run and of an episode batch.
const SCENARIOS: [(&str, &str, &str); 2] = [
    (
        "paper-synthetic",
        "edge.fleet.run.sparse",
        "edge.sim.episodes.sparse",
    ),
    (
        "adversarial-flash-faults",
        "edge.fleet.run.dense",
        "edge.sim.episodes.dense",
    ),
];
/// Single-server episodes timed as one repetition.
const EPISODES: u64 = 20;

fn entry(id: usize, rate: f64, acc: f64, ips: f64) -> LibraryEntry {
    let point = |ct: f64, acc: f64, ips: f64| OperatingPoint {
        confidence_threshold: ct,
        accuracy: acc,
        exit_fractions: vec![1.0],
        ips,
        avg_latency_ms: 3000.0 / ips,
        power_w: 1.2,
        energy_per_inference_mj: 1.2 / ips * 1000.0,
    };
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
        points: vec![point(0.9, acc, ips), point(0.3, acc - 0.05, ips * 1.5)],
    }
}

/// The benchmark's own three-entry library, sized for 100-camera
/// servers (nominal 3000 IPS) so that load swings force both
/// threshold moves and reconfigurations.
fn manager() -> RuntimeManager {
    let library = Library {
        entries: vec![
            entry(0, 0.0, 0.88, 2_800.0),
            entry(1, 0.5, 0.80, 4_200.0),
            entry(2, 0.8, 0.70, 6_000.0),
        ],
    };
    RuntimeManager::new(library, 0.6, SelectionPolicy::ReconfigAware)
        .with_mitigation(MitigationConfig::recommended())
}

/// One phase, ready to run.
struct Phase {
    name: &'static str,
    /// Span names of a shard run and of an episode batch.
    run_span: &'static str,
    episodes_span: &'static str,
    scenario: ScenarioFile,
    /// One shard: [`SERVERS_PER_SHARD`] servers.
    fleet: Fleet,
    spec: WorkloadSpec,
    plan: FaultPlan,
    /// A single server of the same shape, for the episode metric.
    single: EdgeSimulation,
    /// Result of each shard's warm-up run: what every repeat must
    /// reproduce.
    references: Vec<FleetResult>,
}

/// Fleet-wide sums over a phase's shards.
#[derive(Debug, Default)]
struct Totals {
    offered: usize,
    processed: usize,
    lost: usize,
    accuracy_weighted: f64,
    reconfigs: usize,
    failed_reconfigs: usize,
    events: u64,
    ticks: u64,
    decisions: usize,
}

impl Totals {
    /// Processed-weighted accuracy x processed fraction, the fleet
    /// summary's own definition lifted over the shards.
    fn qoe(&self) -> f64 {
        self.accuracy_weighted / self.offered.max(1) as f64
    }

    fn loss_pct(&self) -> f64 {
        100.0 * self.lost as f64 / self.offered.max(1) as f64
    }
}

impl Phase {
    fn run(&self, manager: &RuntimeManager, seed: u64, shard: usize, jobs: usize) -> FleetResult {
        // Shard k is an independent fleet at its own seed.
        let shard_seed = seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.fleet
            .run_jobs_with_workload(manager, &self.spec, shard_seed, jobs, &self.plan)
    }

    /// [`EPISODES`] single-server episodes at seeds derived from `seed`.
    fn episodes(&self, manager: &RuntimeManager, seed: u64) {
        let spec = self.spec.with_config(self.single.config().workload);
        for k in 0..EPISODES {
            let mut m = manager.clone();
            black_box(self.single.run_with_workload_and_faults(
                &mut m,
                &spec,
                seed.wrapping_add(k),
                &self.plan,
            ));
        }
    }

    fn server_seconds(&self) -> f64 {
        (SHARDS * SERVERS_PER_SHARD) as f64 * self.scenario.workload.config().duration_s
    }

    fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for r in &self.references {
            let s = &r.summary;
            t.offered += s.offered;
            t.processed += s.processed;
            t.lost += s.lost;
            t.accuracy_weighted += s.mean_accuracy * s.processed as f64;
            t.reconfigs += s.reconfig_count;
            t.failed_reconfigs += s.failed_reconfigs;
            t.events += s.events;
            t.ticks += s.ticks;
            t.decisions += r
                .servers
                .iter()
                .map(|server| server.trace.len())
                .sum::<usize>();
        }
        t
    }
}

struct Setup {
    manager: RuntimeManager,
    phases: Vec<Phase>,
}

fn setup(seed: u64, laps: &mut Laps) -> Setup {
    let manager = manager();
    let phases = PHASES
        .into_iter()
        .zip(SCENARIOS)
        .map(|(name, (scenario_name, run_span, episodes_span))| {
            let scenario = builtin_scenario(scenario_name)
                .unwrap_or_else(|| panic!("builtin scenario {scenario_name} is gone"));
            let mut sim = scenario.sim_config(RECONFIG_MS);
            sim.workload.cameras = CAMERAS;
            sim.workload.ips_per_camera = IPS_PER_CAMERA;
            let fleet = Fleet::new(FleetConfig {
                servers: SERVERS_PER_SHARD,
                cameras_per_server: CAMERAS,
                camera_spread: 0.2,
                placement: PlacementPolicy::LeastLoaded,
                sim: sim.clone(),
            });
            let mut phase = Phase {
                name,
                run_span,
                episodes_span,
                spec: scenario.workload.clone(),
                plan: scenario.faults.clone(),
                scenario,
                fleet,
                single: EdgeSimulation::new(sim),
                references: Vec::new(),
            };
            // Warm-up runs; their results are the reference for the repeats.
            phase.references = (0..SHARDS)
                .map(|k| {
                    laps.lap();
                    phase.run(&manager, seed, k, 1)
                })
                .collect();
            phase
        })
        .collect();
    Setup { manager, phases }
}

fn check_pins(run: &mut Run, phase: &Phase, totals: &Totals, pins: &FleetPhasePins) {
    let tol = &run.pins.fleet;
    let reconfig_tol = (pins.reconfigs * tol.reconfig_rel_tol).max(tol.reconfig_abs_tol);
    let drifted = [
        ("qoe", totals.qoe(), pins.qoe, tol.qoe_tol),
        (
            "loss_pct",
            totals.loss_pct(),
            pins.loss_pct,
            tol.loss_pp_tol,
        ),
        (
            "reconfigs",
            totals.reconfigs as f64,
            pins.reconfigs,
            reconfig_tol,
        ),
    ]
    .into_iter()
    .filter(|(_, got, want, tol)| (got - want).abs() > *tol)
    .map(|(key, got, want, tol)| {
        format!(
            "pin fleet.{}.{key} drifted: {got} is more than {tol} from {want}",
            phase.name
        )
    })
    .collect::<Vec<_>>();
    for message in drifted {
        run.report.fail(message);
    }
}

/// Runs the `fleet-sim` workload.
pub fn run(run: &mut Run) {
    let traced = run.tracer.enabled();
    let s = run.timed_setup(setup);

    let totals: Vec<Totals> = s.phases.iter().map(Phase::totals).collect();
    for (phase, t) in s.phases.iter().zip(&totals) {
        let pins = run
            .pins
            .fleet
            .phases
            .get(phase.name)
            .copied()
            .expect("fleet phases are pinned");
        check_pins(run, phase, t, &pins);
        run.report.check(t.offered == t.processed + t.lost, || {
            format!(
                "{}: offered {} != processed {} + lost {}",
                phase.name, t.offered, t.processed, t.lost
            )
        });
    }

    // Measured loop: shard runs and episode batches of both phases
    // alternate for the whole run, so each sees every noise phase of
    // the host; each shard and each batch is charged its fastest repeat.
    let mut shard_floors = [[f64::INFINITY; SHARDS]; 2];
    let mut episode_floors = [f64::INFINITY; 2];
    let mut shard_walls: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut rounds = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.9 * run.seconds || rounds < 3 {
        for (p, phase) in s.phases.iter().enumerate() {
            for (shard, floor) in shard_floors[p].iter_mut().enumerate() {
                let guard = run.tracer.enter(phase.run_span, rounds);
                let t0 = Instant::now();
                let result = phase.run(&s.manager, run.seed, shard, 1);
                let wall = t0.elapsed().as_secs_f64();
                run.tracer.exit(guard);
                *floor = floor.min(wall);
                shard_walls[p].push(wall);
                // One operation per run.
                run.report.check(result == phase.references[shard], || {
                    format!("{} shard {shard}: round {rounds} differs from the first run at the same seed", phase.name)
                });
            }
            let guard = run.tracer.enter(phase.episodes_span, rounds);
            let t0 = Instant::now();
            phase.episodes(&s.manager, run.seed);
            episode_floors[p] = episode_floors[p].min(t0.elapsed().as_secs_f64());
            run.tracer.exit(guard);
        }
        rounds += 1;
    }
    let loop_ns = start.elapsed().as_nanos() as f64;
    let fleet_s = shard_floors.map(|floors| floors.iter().sum::<f64>());

    // jobs = 2 must serialize to the same bytes as jobs = 1.
    let mut jobs2_speedup = [0.0; 2];
    for (p, phase) in s.phases.iter().enumerate() {
        let t0 = Instant::now();
        for shard in 0..SHARDS {
            let result = phase.run(&s.manager, run.seed, shard, 2);
            let same = serde_json::to_string(&result).ok()
                == serde_json::to_string(&phase.references[shard]).ok();
            run.report.check(same, || {
                format!(
                    "{} shard {shard}: jobs = 2 serializes differently from jobs = 1",
                    phase.name
                )
            });
        }
        jobs2_speedup[p] = fleet_s[p] / t0.elapsed().as_secs_f64();
    }

    let ss_per_s = [0, 1].map(|p| s.phases[p].server_seconds() / fleet_s[p]);
    let episode_ms = episode_floors.map(|floor| floor * 1e3 / EPISODES as f64);
    run.report.set("rate_per_s", ss_per_s[0]);
    run.report.set("loaded_rate_per_s", ss_per_s[1]);
    run.report.set("light_ms", episode_ms[0]);
    run.report.set("heavy_ms", episode_ms[1]);
    for (p, name) in PHASES.into_iter().enumerate() {
        let t = &totals[p];
        run.report
            .alias(format!("sim_ss_per_s.{name}"), ss_per_s[p], "1/s");
        run.report
            .alias(format!("fleet_pass_ms.{name}"), fleet_s[p] * 1e3, "ms");
        run.report
            .alias(format!("fleet_rounds.{name}"), rounds as f64, "count");
        run.report.alias(
            format!("shard_median_over_floor.{name}"),
            median(&shard_walls[p]) * SHARDS as f64 / fleet_s[p],
            "ratio",
        );
        run.report.alias(format!("qoe.{name}"), t.qoe(), "ratio");
        run.report
            .alias(format!("loss_pct.{name}"), t.loss_pct(), "%");
        run.report
            .alias(format!("reconfigs.{name}"), t.reconfigs as f64, "count");
        run.report.alias(
            format!("failed_reconfigs.{name}"),
            t.failed_reconfigs as f64,
            "count",
        );

        run.report
            .set(format!("edge.engine.events.{name}"), t.events as f64);
        run.report
            .set(format!("edge.engine.ticks.{name}"), t.ticks as f64);
        run.report.set(
            format!("edge.engine.host_ns_per_tick.{name}"),
            fleet_s[p] * 1e9 / t.ticks as f64,
        );
        run.report.set(
            format!("edge.engine.host_ns_per_event.{name}"),
            fleet_s[p] * 1e9 / t.events as f64,
        );
        run.report
            .set(format!("edge.sim.single_server_ms.{name}"), episode_ms[p]);
        run.report
            .set(format!("edge.fleet.jobs2_speedup.{name}"), jobs2_speedup[p]);
        run.report.set(format!("edge.sim.qoe.{name}"), t.qoe());
        run.report
            .set(format!("edge.sim.loss_pct.{name}"), t.loss_pct());
        run.report
            .set(format!("core.runtime.reconfigs.{name}"), t.reconfigs as f64);
    }
    if !traced {
        return;
    }

    // Per-layer probes: one public function at a time.
    let each = 0.02 * run.seconds;
    run.report.set(
        "core.runtime.decisions",
        totals.iter().map(|t| t.decisions).sum::<usize>() as f64,
    );
    // `decide` over a seeded walk of observed rates around nominal,
    // wide enough to cross every entry's capacity.
    let mut rng = Rng::new(run.seed, 0xDEC1);
    let observed: Vec<f64> = (0..1000)
        .map(|_| 1500.0 + 6000.0 * rng.next_f64())
        .collect();
    let mut m = s.manager.clone();
    let ns = ns_per_call(each, || {
        for &ips in &observed {
            black_box(m.decide(ips));
        }
    });
    run.report
        .set("core.runtime.decide_ns", ns / observed.len() as f64);

    let dense = &s.phases[1];
    let ns = ns_per_call(each, || {
        black_box(dense.fleet.placement(run.seed));
    });
    run.report.set("edge.fleet.placement_us", ns / 1e3);
    for phase in &s.phases {
        let spec = phase.spec.with_config(phase.single.config().workload);
        let ns = ns_per_call(each, || {
            black_box(spec.generate(run.seed));
        });
        run.report.set(
            format!("edge.workload_gen.generate_us.{}", phase.name),
            ns / 1e3,
        );
    }
    let text = serde_json::to_string_pretty(&dense.scenario).expect("scenarios serialize");
    let ns = ns_per_call(each, || {
        black_box(ScenarioFile::from_json_str(&text).expect("a builtin scenario parses"));
    });
    run.report.set("edge.scenario_file.parse_us", ns / 1e3);

    // Spans wrap whole runs here, so their cost is arithmetic: spans
    // recorded times the cost of one, over the time they were recorded in.
    run.report.set(
        "bench.trace_overhead",
        run.tracer.span_count() as f64 * span_cost_ns() / loop_ns,
    );
}
