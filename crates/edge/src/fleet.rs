//! Fleet-scale simulation: N edge servers × M cameras each.
//!
//! The paper evaluates one edge server with 20 cameras. This layer
//! scales the event-driven engine to a *fleet*: a cluster-level stream
//! placer assigns heterogeneous camera streams onto servers, every
//! server runs its own [`RuntimeManager`](adapex::runtime::RuntimeManager)
//! against its own workload realization, and results aggregate into
//! fleet-level QoE/energy.
//!
//! # Determinism and sharding
//!
//! Servers are mutually independent once placement is fixed, so the
//! fleet shards across cores with `par_map`. [`Fleet::run`] is the one
//! entry point: server `s` runs the caller's [`RunSpec`] at
//! episode seed `derive_stream(fleet_seed, s, FLEET_SALT)` and camera
//! `c` draws its nominal rate from
//! `derive_stream(fleet_seed, c, CAMERA_SALT)` — every stream is a pure
//! function of `(fleet_seed, entity)`, placement is computed once
//! up front, and `par_map` preserves index order, so a fleet run is
//! **byte-identical at any job count** (pinned by
//! `tests/edge_sim_properties.rs` and the `bench_fleet` gate).

use crate::fault::FaultPlan;
use crate::sim::{EdgeSimulation, RunSpec, SimConfig, SimResult, Traffic};
use crate::workload::WorkloadConfig;
use crate::workload_gen::WorkloadSpec;
use adapex::runtime::RuntimeManager;
use adapex_tensor::parallel::par_map;
use adapex_tensor::rng::{derive_stream, rng_from_seed};
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Stream salt for per-server episode seeds.
pub const FLEET_SALT: u64 = 0x000F_1EE7;

/// Stream salt for per-camera nominal-rate draws.
const CAMERA_SALT: u64 = 0x000C_A0E5;

/// How the placer assigns camera streams to servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Camera `c` goes to server `c mod N`.
    RoundRobin,
    /// Each camera (in index order) goes to the server with the lowest
    /// accumulated nominal rate, ties to the lowest server id.
    LeastLoaded,
}

/// Per-camera rate spread of a fleet whose configuration names none
/// (±20 %): [`FleetConfig::paper_default`], a scenario file's fleet
/// section without `camera_spread`, and the CLI's `--servers` fleets.
pub const DEFAULT_CAMERA_SPREAD: f64 = 0.2;

/// Placement policy of a fleet whose configuration names none (see
/// [`DEFAULT_CAMERA_SPREAD`]).
pub const DEFAULT_PLACEMENT: PlacementPolicy = PlacementPolicy::LeastLoaded;

/// Fleet shape and per-server simulation template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Edge servers in the fleet.
    pub servers: usize,
    /// Camera streams per server (fleet total = `servers × cameras`).
    pub cameras_per_server: usize,
    /// Relative spread of per-camera nominal rates around the
    /// template's `ips_per_camera` (0.2 = each camera's nominal is
    /// drawn uniformly within ±20 %), making placement non-trivial.
    pub camera_spread: f64,
    /// Stream-placement policy.
    pub placement: PlacementPolicy,
    /// Per-server simulation template; the placer overrides
    /// `sim.workload.cameras`/`ips_per_camera` per server with its
    /// assigned streams.
    pub sim: SimConfig,
}

impl FleetConfig {
    /// A fleet of paper-default servers.
    pub fn paper_default(servers: usize, cameras_per_server: usize, reconfig_time_ms: f64) -> Self {
        let mut sim = SimConfig::paper_default(reconfig_time_ms);
        sim.workload.cameras = cameras_per_server;
        FleetConfig {
            servers,
            cameras_per_server,
            camera_spread: DEFAULT_CAMERA_SPREAD,
            placement: DEFAULT_PLACEMENT,
            sim,
        }
    }

    /// Total camera streams across the fleet.
    pub fn streams(&self) -> usize {
        self.servers * self.cameras_per_server
    }
}

/// One server's share of the fleet's camera streams.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerAssignment {
    /// Camera indices (into the fleet-wide stream list) on this server.
    pub cameras: Vec<u32>,
    /// Sum of the assigned cameras' nominal rates, inferences/second.
    pub nominal_ips: f64,
}

/// Fleet-level aggregates (server results fold in index order, so the
/// summary is as deterministic as the per-server results).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Servers simulated.
    pub servers: usize,
    /// Total camera streams.
    pub streams: usize,
    /// Fleet-wide offered / processed / lost requests.
    pub offered: usize,
    /// See `offered`.
    pub processed: usize,
    /// See `offered`.
    pub lost: usize,
    /// Processed-weighted mean accuracy.
    pub mean_accuracy: f64,
    /// Fleet QoE: processed-weighted accuracy × fleet processed
    /// fraction (the paper's per-server definition lifted to the fleet).
    pub qoe: f64,
    /// Fleet inference loss in percent.
    pub inference_loss_pct: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Time-averaged fleet power, watts (energy over `servers ×
    /// duration`).
    pub mean_power_w: f64,
    /// Total reconfigurations across the fleet.
    pub reconfig_count: usize,
    /// Total failed reconfigurations.
    pub failed_reconfigs: usize,
    /// Total degraded monitor periods.
    pub degraded_periods: usize,
    /// DES events processed across all servers.
    pub events: u64,
    /// Ticks of virtual time covered across all servers (see
    /// [`DesStats::ticks`](crate::DesStats); the engine does not iterate
    /// them).
    pub ticks: u64,
}

/// Results of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Per-server results, in server order.
    pub servers: Vec<SimResult>,
    /// Fleet-level aggregates.
    pub summary: FleetSummary,
}

/// The fleet simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fleet {
    config: FleetConfig,
}

impl Fleet {
    /// New fleet simulator.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet (no servers or no cameras).
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.servers > 0, "fleet needs at least one server");
        assert!(
            config.cameras_per_server > 0,
            "fleet needs at least one camera per server"
        );
        Fleet { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Draws per-camera nominal rates and places the streams onto
    /// servers. Pure function of `(config, seed)` — placement happens
    /// once, before any server simulates, and is identical at any job
    /// count.
    pub fn placement(&self, seed: u64) -> Vec<ServerAssignment> {
        let cfg = &self.config;
        let per_server = cfg.streams() / cfg.servers;
        let mut assignments: Vec<ServerAssignment> = (0..cfg.servers)
            .map(|_| ServerAssignment {
                cameras: Vec::with_capacity(per_server + 1),
                nominal_ips: 0.0,
            })
            .collect();

        let nominal = cfg.sim.workload.ips_per_camera;
        let spread = cfg.camera_spread;
        let rate_of = |camera: u64| {
            if spread > 0.0 {
                let mut rng = rng_from_seed(derive_stream(seed, camera, CAMERA_SALT));
                nominal * (1.0 + rng.random_range(-spread..=spread))
            } else {
                nominal
            }
        };

        match cfg.placement {
            PlacementPolicy::RoundRobin => {
                for c in 0..cfg.streams() as u64 {
                    let s = (c as usize) % cfg.servers;
                    assignments[s].cameras.push(c as u32);
                    assignments[s].nominal_ips += rate_of(c);
                }
            }
            PlacementPolicy::LeastLoaded => {
                // Min-heap on (load, server). Loads are non-negative, so
                // their IEEE-754 bit patterns order like the values and
                // ties break deterministically by server id.
                let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
                    (0..cfg.servers).map(|s| Reverse((0u64, s))).collect();
                for c in 0..cfg.streams() as u64 {
                    let Reverse((_, s)) = heap.pop().expect("servers > 0");
                    let rate = rate_of(c);
                    assignments[s].cameras.push(c as u32);
                    assignments[s].nominal_ips += rate;
                    heap.push(Reverse((assignments[s].nominal_ips.to_bits(), s)));
                }
            }
        }
        assignments
    }

    /// Runs the fleet: every server simulates `spec` at its own episode
    /// seed `derive_stream(spec.seed, s, FLEET_SALT)` — so fault
    /// realizations differ across servers but reproduce exactly — on
    /// `jobs` workers; any `jobs` value produces byte-identical results.
    ///
    /// [`Traffic::Spec`] is re-based per server onto its assigned
    /// cameras and rates ([`WorkloadSpec::with_config`] — shape
    /// parameters are multipliers of nominal, so the traffic *shape* is
    /// fleet-wide while the *level* follows each server's placement);
    /// with a Synthetic spec that is bit-identical to
    /// [`Traffic::Synthetic`].
    ///
    /// # Panics
    ///
    /// Panics on [`Traffic::Shaped`]: a shaped trace carries absolute
    /// rates for one server and cannot follow a placement.
    pub fn run(&self, manager: &RuntimeManager, spec: &RunSpec, jobs: usize) -> FleetResult {
        assert!(
            !matches!(spec.traffic, Traffic::Shaped(_)),
            "a fleet cannot re-base a shaped trace onto its placement"
        );
        let cfg = &self.config;
        let assignments = self.placement(spec.seed);
        let per_server = par_map(cfg.servers, jobs, |s| {
            let a = &assignments[s];
            let cameras = a.cameras.len();
            let workload = WorkloadConfig {
                cameras,
                ips_per_camera: if cameras == 0 {
                    0.0
                } else {
                    a.nominal_ips / cameras as f64
                },
                ..cfg.sim.workload
            };
            let sim = EdgeSimulation::new(SimConfig {
                workload,
                ..cfg.sim.clone()
            });
            let rebased;
            let traffic = match spec.traffic {
                Traffic::Spec(w) => {
                    rebased = w.with_config(workload);
                    Traffic::Spec(&rebased)
                }
                other => other,
            };
            let server = RunSpec {
                traffic,
                seed: derive_stream(spec.seed, s as u64, FLEET_SALT),
                ..*spec
            };
            sim.run_stats(&mut manager.clone(), &server)
        });

        let mut summary = FleetSummary {
            servers: cfg.servers,
            streams: cfg.streams(),
            ..FleetSummary::default()
        };
        let mut accuracy_weighted = 0.0f64;
        let mut servers = Vec::with_capacity(per_server.len());
        for (r, stats) in per_server {
            summary.offered += r.offered;
            summary.processed += r.processed;
            summary.lost += r.lost;
            accuracy_weighted += r.mean_accuracy * r.processed as f64;
            summary.energy_j += r.energy_j;
            summary.reconfig_count += r.reconfig_count;
            summary.failed_reconfigs += r.faults.failed_reconfigs;
            summary.degraded_periods += r.faults.degraded_periods;
            summary.events += stats.events;
            summary.ticks += stats.ticks;
            servers.push(r);
        }
        if summary.processed > 0 {
            summary.mean_accuracy = accuracy_weighted / summary.processed as f64;
        }
        if summary.offered > 0 {
            summary.qoe =
                summary.mean_accuracy * (summary.processed as f64 / summary.offered as f64);
            summary.inference_loss_pct =
                summary.lost as f64 / summary.offered as f64 * 100.0;
        }
        let duration = cfg.sim.workload.duration_s;
        if duration > 0.0 {
            summary.mean_power_w = summary.energy_j / (cfg.servers as f64 * duration);
        }
        FleetResult { servers, summary }
    }

    /// Harness shim, frozen because `benchmark/` calls it by name:
    /// [`Fleet::run`] with [`Traffic::Spec`].
    pub fn run_jobs_with_workload(
        &self,
        manager: &RuntimeManager,
        spec: &WorkloadSpec,
        seed: u64,
        jobs: usize,
        plan: &FaultPlan,
    ) -> FleetResult {
        self.run(manager, &RunSpec::new(Traffic::Spec(spec), plan, seed), jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapex::library::{Library, LibraryEntry, OperatingPoint};
    use adapex::runtime::SelectionPolicy;

    fn entry(id: usize, acc: f64, ips: f64) -> LibraryEntry {
        LibraryEntry {
            id,
            pruning_rate: 0.25 * id as f64,
            achieved_rate: 0.25 * id as f64,
            prune_exits: false,
            mean_exit_accuracy: acc,
            final_exit_accuracy: acc,
            resources: finn_dataflow::ResourceUsage::zero(),
            exit_resources: finn_dataflow::ResourceUsage::zero(),
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

    fn manager() -> RuntimeManager {
        RuntimeManager::new(
            Library {
                entries: vec![entry(0, 0.9, 700.0), entry(1, 0.8, 1300.0)],
            },
            0.5,
            SelectionPolicy::ReconfigAware,
        )
    }

    fn small_fleet(placement: PlacementPolicy) -> Fleet {
        let mut cfg = FleetConfig::paper_default(4, 20, 145.0);
        cfg.placement = placement;
        cfg.sim.workload.duration_s = 5.0;
        Fleet::new(cfg)
    }

    #[test]
    fn placement_assigns_every_camera_exactly_once() {
        for policy in [PlacementPolicy::RoundRobin, PlacementPolicy::LeastLoaded] {
            let fleet = small_fleet(policy);
            let placement = fleet.placement(7);
            let mut seen: Vec<u32> = placement.iter().flat_map(|a| a.cameras.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..80).collect::<Vec<u32>>(), "{policy:?}");
        }
    }

    #[test]
    fn least_loaded_balances_better_than_round_robin() {
        let spread = |fleet: &Fleet| {
            let p = fleet.placement(7);
            let loads: Vec<f64> = p.iter().map(|a| a.nominal_ips).collect();
            loads.iter().cloned().fold(f64::MIN, f64::max)
                - loads.iter().cloned().fold(f64::MAX, f64::min)
        };
        let rr = spread(&small_fleet(PlacementPolicy::RoundRobin));
        let ll = spread(&small_fleet(PlacementPolicy::LeastLoaded));
        assert!(ll <= rr, "least-loaded spread {ll} vs round-robin {rr}");
    }

    #[test]
    fn camera_rates_respect_the_spread() {
        let fleet = small_fleet(PlacementPolicy::LeastLoaded);
        let total: f64 = fleet.placement(3).iter().map(|a| a.nominal_ips).sum();
        let nominal = 80.0 * 30.0;
        assert!(
            (total - nominal).abs() < nominal * 0.2,
            "fleet nominal {total} vs {nominal}"
        );
    }

    #[test]
    fn fleet_runs_are_seed_deterministic_and_jobs_invariant() {
        let fleet = small_fleet(PlacementPolicy::LeastLoaded);
        let m = manager();
        let serial = fleet.run(&m, &RunSpec::synthetic(42), 1);
        let parallel = fleet.run(&m, &RunSpec::synthetic(42), 4);
        assert_eq!(serial, parallel);
        assert_ne!(
            fleet.run(&m, &RunSpec::synthetic(43), 1).summary.offered,
            serial.summary.offered
        );
    }

    #[test]
    fn summary_conserves_requests_and_aggregates() {
        let fleet = small_fleet(PlacementPolicy::RoundRobin);
        let r = fleet.run(&manager(), &RunSpec::synthetic(11), 2);
        assert_eq!(r.servers.len(), 4);
        assert_eq!(r.summary.streams, 80);
        assert_eq!(
            r.summary.offered,
            r.servers.iter().map(|s| s.offered).sum::<usize>()
        );
        assert_eq!(r.summary.offered, r.summary.processed + r.summary.lost);
        assert!(r.summary.qoe > 0.0 && r.summary.qoe <= 1.0);
        assert!(r.summary.energy_j > 0.0);
        assert!(r.summary.ticks >= 4 * 5_000, "4 servers × 5 s × 1 kHz");
        assert!(r.summary.events > 0);
    }

    #[test]
    fn synthetic_spec_fleet_is_bit_identical_to_plain_fleet() {
        // Driving the fleet through a Synthetic WorkloadSpec must not
        // change a single byte: the spec is re-based per server onto
        // the same assigned workload the plain path builds.
        let fleet = small_fleet(PlacementPolicy::LeastLoaded);
        let m = manager();
        let plain = fleet.run(&m, &RunSpec::synthetic(42), 2);
        let workload = WorkloadSpec::paper_default();
        let none = FaultPlan::none();
        let via_spec = fleet.run(&m, &RunSpec::new(Traffic::Spec(&workload), &none, 42), 2);
        assert_eq!(plain, via_spec);
    }

    #[test]
    fn harness_shim_is_run_on_the_same_spec() {
        let fleet = small_fleet(PlacementPolicy::LeastLoaded);
        let m = manager();
        let workload = WorkloadSpec::paper_default();
        let plan = FaultPlan::canned();
        let via_run = fleet.run(&m, &RunSpec::new(Traffic::Spec(&workload), &plan, 42), 2);
        let via_shim = fleet.run_jobs_with_workload(&m, &workload, 42, 2, &plan);
        assert_eq!(via_run, via_shim);
    }

    #[test]
    #[should_panic(expected = "shaped trace")]
    fn a_shaped_trace_cannot_drive_a_fleet() {
        let fleet = small_fleet(PlacementPolicy::LeastLoaded);
        let trace = fleet.config().sim.workload.sample(1);
        let none = FaultPlan::none();
        fleet.run(&manager(), &RunSpec::new(Traffic::Shaped(&trace), &none, 1), 1);
    }

    #[test]
    fn per_server_results_match_standalone_sims() {
        // A fleet server must be exactly a single-server simulation at
        // the derived seed and assigned workload — the sharding layer
        // adds nothing.
        let fleet = small_fleet(PlacementPolicy::LeastLoaded);
        let seed = 42;
        let r = fleet.run(&manager(), &RunSpec::synthetic(seed), 2);
        let a = &fleet.placement(seed)[2];
        let mut workload = fleet.config().sim.workload;
        workload.cameras = a.cameras.len();
        workload.ips_per_camera = a.nominal_ips / a.cameras.len() as f64;
        let sim = EdgeSimulation::new(SimConfig {
            workload,
            ..fleet.config().sim.clone()
        });
        let standalone = sim.run(
            &mut manager(),
            &RunSpec::synthetic(derive_stream(seed, 2, FLEET_SALT)),
        );
        assert_eq!(r.servers[2], standalone);
    }
}
