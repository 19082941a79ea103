//! The edge-server simulation: configuration, results, and the one
//! way to describe an episode — a [`RunSpec`] (traffic, fault plan,
//! seed). [`EdgeSimulation::run`] runs it on the frame engine
//! (`engine.rs`), `ServeScenario::run` on the per-request serve twin
//! (`serve_sim.rs`); both get their trace from [`Traffic::resolve`].

use crate::engine::{self, DesStats};
use crate::fault::{FaultCounters, FaultPlan, FaultState};
use crate::workload::{WorkloadConfig, WorkloadTrace};
use crate::workload_gen::WorkloadSpec;
use adapex::runtime::RuntimeManager;
use adapex_tensor::parallel::par_map;
use adapex_tensor::rng::{derive_sequential, derive_stream, rng_from_seed};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Stream salt for the workload stream — the Poisson arrival counts
/// and the buffer's loss thinnings — of [`Traffic::Synthetic`] and
/// [`Traffic::Spec`] episodes; `derive_stream(seed, 0, salt)`
/// reduces to the historical `seed ^ salt` tag these streams were born
/// with.
const ARRIVAL_SALT: u64 = 0xE06E;

/// Stream salt for [`Traffic::Shaped`] episodes, decorrelated from
/// [`ARRIVAL_SALT`] so a shaped run at seed `s` never replays the
/// synthetic run's noise.
const SHAPED_SALT: u64 = 0x5A9E;

/// The plan behind [`RunSpec::synthetic`].
static NO_FAULTS: FaultPlan = FaultPlan::none();

/// Where an episode's offered-rate trace comes from. Each variant is
/// one recipe, and the recipes' bits are pinned by the golden and
/// fingerprint suites:
///
/// | variant     | trace                       | episode workload config | arrival-noise salt |
/// |-------------|-----------------------------|-------------------------|--------------------|
/// | `Synthetic` | `cfg.workload.sample(seed)` | the simulator's own     | `ARRIVAL_SALT`     |
/// | `Spec`      | `spec.generate(seed)`       | the generated trace's   | `ARRIVAL_SALT`     |
/// | `Shaped`    | the caller's, as given      | the simulator's own     | `SHAPED_SALT`      |
///
/// A [`WorkloadSpec::Synthetic`] at the simulator's own workload
/// config is therefore operation-for-operation the `Synthetic` recipe
/// (`tests/workload_differential.rs` pins that bitwise), and a trace
/// exported via [`WorkloadSpec::from_trace`] replays its originating
/// run.
#[derive(Debug, Clone, Copy)]
pub enum Traffic<'a> {
    /// The paper's built-in ±deviation generator.
    Synthetic,
    /// A workload spec (the simulator's own workload template is
    /// ignored).
    Spec(&'a WorkloadSpec),
    /// A caller-supplied (e.g. [`crate::Scenario`]-shaped) trace; the
    /// seed drives only the Poisson arrival noise.
    Shaped(&'a WorkloadTrace),
}

impl<'a> Traffic<'a> {
    /// The table above, spelled here and nowhere else: the episode's
    /// workload config, its offered-rate trace and its arrival-noise
    /// salt, for a simulator whose own workload template is `own`.
    pub(crate) fn resolve(
        self,
        own: &WorkloadConfig,
        seed: u64,
    ) -> (WorkloadConfig, Cow<'a, WorkloadTrace>, u64) {
        match self {
            Traffic::Synthetic => (*own, Cow::Owned(own.sample(seed)), ARRIVAL_SALT),
            Traffic::Spec(workload) => {
                let trace = workload.generate(seed);
                (trace.config, Cow::Owned(trace), ARRIVAL_SALT)
            }
            Traffic::Shaped(trace) => (*own, Cow::Borrowed(trace), SHAPED_SALT),
        }
    }
}

/// One episode, fully specified: what arrives, what breaks, and the
/// seed every stream derives from.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// The traffic recipe.
    pub traffic: Traffic<'a>,
    /// The fault plan, replayed from its own stream
    /// (`FaultState::new(faults, seed)`), so [`FaultPlan::none`] is
    /// bit-identical to a run that never heard of faults.
    pub faults: &'a FaultPlan,
    /// Episode seed.
    pub seed: u64,
}

impl<'a> RunSpec<'a> {
    /// An episode of `traffic` under `faults` at `seed`.
    pub fn new(traffic: Traffic<'a>, faults: &'a FaultPlan, seed: u64) -> Self {
        RunSpec { traffic, faults, seed }
    }

    /// The paper's episode: synthetic traffic, no faults.
    pub fn synthetic(seed: u64) -> RunSpec<'static> {
        RunSpec::new(Traffic::Synthetic, &NO_FAULTS, seed)
    }
}

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Workload shape.
    pub workload: WorkloadConfig,
    /// Simulation tick in seconds.
    pub tick_s: f64,
    /// Seconds between runtime-manager decisions (the workload monitor's
    /// sampling period).
    pub monitor_period_s: f64,
    /// Frame-buffer capacity; arrivals beyond it are **lost** (the
    /// paper's inference loss). Cameras keep producing frames, so a
    /// busy server drops rather than queues — the buffer holds only a
    /// handful of in-flight frames.
    pub queue_capacity: usize,
    /// FPGA full-reconfiguration downtime in milliseconds.
    pub reconfig_time_ms: f64,
    /// Board static power during reconfiguration, in watts.
    pub reconfig_power_w: f64,
}

impl SimConfig {
    /// The paper's scenario with a given reconfiguration time.
    pub fn paper_default(reconfig_time_ms: f64) -> Self {
        SimConfig {
            workload: WorkloadConfig::paper_default(),
            tick_s: 0.001,
            monitor_period_s: 1.0,
            // A handful of in-flight frames; stale frames are dropped.
            queue_capacity: 8,
            reconfig_time_ms,
            reconfig_power_w: 0.60,
        }
    }
}

/// One monitor-period sample of the runtime trace (Fig. 3 right).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSample {
    /// Sample time in seconds: the end of the monitor period.
    pub t: f64,
    /// Observed workload over the last period (inferences/second).
    pub workload_ips: f64,
    /// Selected entry's achieved pruning rate.
    pub pruning_rate: f64,
    /// Selected confidence threshold.
    pub confidence_threshold: f64,
    /// Expected accuracy of the selected operating point.
    pub accuracy: f64,
    /// Frames in the buffer at the sample instant: the expected backlog
    /// of the buffer's distribution, rounded (the realised fill while
    /// the FPGA reconfigures).
    pub queue_len: usize,
    /// The manager was in degraded mode at this decision (no entry met
    /// the accuracy floor at the observed load).
    #[serde(default)]
    pub degraded: bool,
    /// Decision periods the manager still suppresses reconfigurations
    /// after a failed one (0 when not backing off).
    #[serde(default)]
    pub backoff_remaining: u32,
}

/// Aggregate results of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Requests offered by the cameras.
    pub offered: usize,
    /// Requests processed to completion.
    pub processed: usize,
    /// Requests dropped on a full buffer.
    pub lost: usize,
    /// Frame-buffer depth high-water mark over the run — the
    /// backpressure signal: `queue_capacity` as soon as one arrival was
    /// blocked on a full buffer, otherwise the largest backlog (see
    /// [`TraceSample::queue_len`]) any segment between events ended on.
    #[serde(default)]
    pub queue_high_water: usize,
    /// Mean expected accuracy over processed inferences.
    pub mean_accuracy: f64,
    /// Time-weighted mean board power in watts.
    pub mean_power_w: f64,
    /// Mean per-inference latency (buffer wait + pipeline) in ms.
    pub mean_latency_ms: f64,
    /// Mean pipeline-only (service) latency in ms, excluding buffering.
    pub mean_service_latency_ms: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// FPGA reconfigurations performed.
    pub reconfig_count: usize,
    /// Confidence-threshold-only changes performed.
    pub ct_change_count: usize,
    /// Run length in seconds.
    pub duration_s: f64,
    /// Per-event fault accounting (all zeros on a fault-free run), so
    /// QoE/EDP stay comparable with and without faults.
    #[serde(default)]
    pub faults: FaultCounters,
    /// Per-monitor-period trace.
    pub trace: Vec<TraceSample>,
}

impl SimResult {
    /// Inference loss in percent (the paper's "Infer. Loss [%]").
    pub fn inference_loss_pct(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.lost as f64 / self.offered as f64 * 100.0
        }
    }

    /// Fraction of offered requests processed.
    pub fn processed_fraction(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.processed as f64 / self.offered as f64
        }
    }

    /// Quality of Experience: accuracy × fraction of processed frames
    /// (the paper's definition).
    pub fn qoe(&self) -> f64 {
        self.mean_accuracy * self.processed_fraction()
    }

    /// Energy per processed inference in millijoules.
    ///
    /// Returns `None` when the run processed nothing (an all-drop
    /// scenario): per-inference energy is undefined there, and the
    /// previous `f64::INFINITY` sentinel poisoned downstream means and
    /// turned [`SimResult::edp`] into `inf × 0 = NaN`.
    pub fn energy_per_inference_mj(&self) -> Option<f64> {
        if self.processed == 0 {
            None
        } else {
            Some(self.energy_j / self.processed as f64 * 1_000.0)
        }
    }

    /// Energy-delay product per inference (mJ·ms) — the paper's EDP
    /// metric (reported normalized to FINN). `None` when the run
    /// processed nothing (see [`SimResult::energy_per_inference_mj`]).
    pub fn edp(&self) -> Option<f64> {
        self.energy_per_inference_mj()
            .map(|e| e * self.mean_latency_ms)
    }
}

/// The simulator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeSimulation {
    config: SimConfig,
}

impl EdgeSimulation {
    /// New simulator.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive tick or monitor period.
    pub fn new(config: SimConfig) -> Self {
        assert!(config.tick_s > 0.0, "tick must be positive");
        assert!(
            config.monitor_period_s >= config.tick_s,
            "monitor period must cover at least one tick"
        );
        EdgeSimulation { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs one 25-second (configurable) episode of `spec` against
    /// `manager` on the event engine.
    ///
    /// The manager keeps its library but its selection state resets so
    /// repeated runs are independent.
    pub fn run(&self, manager: &mut RuntimeManager, spec: &RunSpec) -> SimResult {
        self.run_stats(manager, spec).0
    }

    /// [`EdgeSimulation::run`] plus the engine's event and tick counts
    /// (for the fleet summary and throughput benchmarks).
    pub fn run_stats(&self, manager: &mut RuntimeManager, spec: &RunSpec) -> (SimResult, DesStats) {
        let (workload, trace, salt) = spec.traffic.resolve(&self.config.workload, spec.seed);
        let cfg = SimConfig { workload, ..self.config.clone() };
        let mut rng = rng_from_seed(derive_stream(spec.seed, 0, salt));
        let mut faults = FaultState::new(spec.faults, spec.seed);
        engine::run(&cfg, manager, &trace, &mut rng, &mut faults)
    }

    /// Runs `repetitions` episodes of `spec` (the paper averages 100),
    /// returning every result. Repetition `i` runs at seed
    /// `derive_sequential(spec.seed, i)` against a fresh manager cloned
    /// from `manager`, so one repetition is exactly
    /// [`EdgeSimulation::run`].
    ///
    /// Episodes shard over `jobs` workers (`1` runs them inline on the
    /// calling thread); results are byte-identical at any job count
    /// because repetition `i` is a pure function of `(manager, spec, i)`
    /// and `par_map` returns them in index order.
    pub fn run_many(
        &self,
        manager: &RuntimeManager,
        spec: &RunSpec,
        repetitions: usize,
        jobs: usize,
    ) -> Vec<SimResult> {
        par_map(repetitions, jobs, |i| {
            let mut m = manager.clone();
            let rep = RunSpec {
                seed: derive_sequential(spec.seed, i as u64),
                ..*spec
            };
            self.run(&mut m, &rep)
        })
    }

    /// Harness shim, frozen because `benchmark/` calls it by name:
    /// [`EdgeSimulation::run`] with [`Traffic::Spec`].
    pub fn run_with_workload_and_faults(
        &self,
        manager: &mut RuntimeManager,
        spec: &WorkloadSpec,
        seed: u64,
        plan: &FaultPlan,
    ) -> SimResult {
        self.run(manager, &RunSpec::new(Traffic::Spec(spec), plan, seed))
    }
}

/// Mean of a metric over repeated runs.
pub fn mean_of(results: &[SimResult], metric: impl Fn(&SimResult) -> f64) -> f64 {
    if results.is_empty() {
        return 0.0;
    }
    results.iter().map(metric).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapex::library::{Library, LibraryEntry, OperatingPoint};
    use adapex::runtime::{RuntimeManager, SelectionPolicy};
    use finn_dataflow_free::zero_resources;

    /// Avoids depending on finn types directly in tests.
    mod finn_dataflow_free {
        pub fn zero_resources() -> finn_dataflow::ResourceUsage {
            finn_dataflow::ResourceUsage::zero()
        }
    }

    fn entry(id: usize, rate: f64, acc: f64, ips: f64) -> LibraryEntry {
        LibraryEntry {
            id,
            pruning_rate: rate,
            achieved_rate: rate,
            prune_exits: false,
            mean_exit_accuracy: acc,
            final_exit_accuracy: acc,
            resources: zero_resources(),
            exit_resources: zero_resources(),
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

    fn static_manager(ips: f64) -> RuntimeManager {
        RuntimeManager::new(
            Library {
                entries: vec![entry(0, 0.0, 0.9, ips)],
            },
            0.0,
            SelectionPolicy::Oblivious,
        )
    }

    fn adaptive_manager() -> RuntimeManager {
        // The accurate entry holds the nominal 600 IPS but not the ±30 %
        // peaks, so the manager must reconfigure to the fast entry when
        // a high-rate period arrives.
        RuntimeManager::new(
            Library {
                entries: vec![entry(0, 0.0, 0.9, 650.0), entry(1, 0.5, 0.8, 1200.0)],
            },
            0.5,
            SelectionPolicy::ReconfigAware,
        )
    }

    #[test]
    fn overprovisioned_server_loses_nothing() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let mut m = static_manager(2000.0);
        let r = sim.run(&mut m, &RunSpec::synthetic(1));
        assert!(r.offered > 10_000, "expected ~15k offered, got {}", r.offered);
        assert!(r.inference_loss_pct() < 0.5, "loss {}", r.inference_loss_pct());
        assert!((r.mean_accuracy - 0.9).abs() < 1e-9);
        assert!(r.mean_power_w > 1.0 && r.mean_power_w < 1.3);
        assert!(r.qoe() > 0.89);
    }

    #[test]
    fn underprovisioned_server_loses_inferences() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        // Capacity 450 vs ~600 offered -> ~25 % loss.
        let mut m = static_manager(450.0);
        let r = sim.run(&mut m, &RunSpec::synthetic(1));
        assert!(
            r.inference_loss_pct() > 15.0 && r.inference_loss_pct() < 35.0,
            "loss {}",
            r.inference_loss_pct()
        );
        // Saturated buffer: sojourn latency clearly exceeds pure service.
        assert!(
            r.mean_latency_ms > r.mean_service_latency_ms + 3.0,
            "sojourn {} vs service {}",
            r.mean_latency_ms,
            r.mean_service_latency_ms
        );
    }

    /// Finds a seed whose workload trace has a period above `ips` (so a
    /// reconfiguration is inevitable for a 650-IPS accelerator).
    fn seed_with_peak_above(ips: f64) -> u64 {
        (0..100u64)
            .find(|&s| {
                WorkloadConfig::paper_default()
                    .sample(s)
                    .rates
                    .iter()
                    .any(|&r| r > ips)
            })
            .expect("±30 % deviation reaches above 650 IPS for some seed")
    }

    #[test]
    fn adaptive_manager_switches_and_recovers() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let seed = seed_with_peak_above(700.0);
        let mut m = adaptive_manager();
        let r = sim.run(&mut m, &RunSpec::synthetic(seed));
        // The 650-IPS entry cannot hold the peak period, so the manager
        // must reconfigure to the 1200-IPS entry at some point.
        assert!(r.reconfig_count >= 1, "no reconfiguration at seed {seed}");
        assert!(r.inference_loss_pct() < 10.0, "loss {}", r.inference_loss_pct());
        assert!(!r.trace.is_empty());
    }

    #[test]
    fn results_are_seed_deterministic() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let r1 = sim.run(&mut static_manager(700.0), &RunSpec::synthetic(9));
        let r2 = sim.run(&mut static_manager(700.0), &RunSpec::synthetic(9));
        assert_eq!(r1, r2);
        let r3 = sim.run(&mut static_manager(700.0), &RunSpec::synthetic(10));
        assert_ne!(r1.offered, r3.offered);
    }

    #[test]
    fn run_many_averages_cleanly() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let m = static_manager(2000.0);
        let results = sim.run_many(&m, &RunSpec::synthetic(100), 5, 2);
        assert_eq!(results.len(), 5);
        let loss = mean_of(&results, |r| r.inference_loss_pct());
        assert!(loss < 1.0);
        let qoe = mean_of(&results, |r| r.qoe());
        assert!(qoe > 0.85);
    }

    #[test]
    fn run_many_is_job_count_invariant() {
        // Adaptive manager + long episode set so every repetition
        // exercises decisions; any job count must reproduce the serial
        // per-repetition seeds and ordering byte-for-byte.
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let m = adaptive_manager();
        let serial = sim.run_many(&m, &RunSpec::synthetic(42), 6, 1);
        let parallel = sim.run_many(&m, &RunSpec::synthetic(42), 6, 4);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn one_repetition_is_the_single_episode() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let plan = FaultPlan::canned();
        let spec = RunSpec::new(Traffic::Synthetic, &plan, 42);
        let single = sim.run(&mut adaptive_manager(), &spec);
        assert_eq!(sim.run_many(&adaptive_manager(), &spec, 1, 4), vec![single]);
    }

    #[test]
    fn harness_shim_is_run_on_the_same_spec() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let plan = FaultPlan::canned();
        let workload = WorkloadSpec::paper_default();
        let via_run = sim.run(
            &mut adaptive_manager(),
            &RunSpec::new(Traffic::Spec(&workload), &plan, 42),
        );
        let via_shim =
            sim.run_with_workload_and_faults(&mut adaptive_manager(), &workload, 42, &plan);
        assert_eq!(via_run, via_shim);
    }

    #[test]
    fn reconfig_downtime_costs_inferences() {
        // Same library, but an artificially long reconfiguration: the
        // adaptive manager should lose more than with a fast one.
        let seed = seed_with_peak_above(700.0);
        let fast = EdgeSimulation::new(SimConfig::paper_default(10.0));
        let slow = EdgeSimulation::new(SimConfig::paper_default(3_000.0));
        let rf = fast.run(&mut adaptive_manager(), &RunSpec::synthetic(seed));
        let rs = slow.run(&mut adaptive_manager(), &RunSpec::synthetic(seed));
        assert!(
            rs.inference_loss_pct() > rf.inference_loss_pct(),
            "slow {} vs fast {}",
            rs.inference_loss_pct(),
            rf.inference_loss_pct()
        );
    }

    #[test]
    fn edp_and_energy_metrics_are_consistent() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let r = sim.run(&mut static_manager(2000.0), &RunSpec::synthetic(1));
        let e_mj = r.energy_per_inference_mj().expect("processed > 0");
        assert!(e_mj > 0.0 && e_mj.is_finite());
        let edp = r.edp().expect("processed > 0");
        assert!((edp - e_mj * r.mean_latency_ms).abs() < 1e-9);
    }

    #[test]
    fn edp_is_none_when_nothing_processed() {
        // A zero-throughput run used to yield inf energy-per-inference
        // and NaN EDP; both must now be None.
        let r = SimResult {
            offered: 100,
            processed: 0,
            lost: 100,
            queue_high_water: 8,
            mean_accuracy: 0.0,
            mean_power_w: 1.0,
            mean_latency_ms: 0.0,
            mean_service_latency_ms: 0.0,
            energy_j: 25.0,
            reconfig_count: 0,
            ct_change_count: 0,
            duration_s: 25.0,
            faults: FaultCounters::default(),
            trace: Vec::new(),
        };
        assert_eq!(r.energy_per_inference_mj(), None);
        assert_eq!(r.edp(), None);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_run() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let plain = sim.run(&mut adaptive_manager(), &RunSpec::synthetic(7));
        let none = FaultPlan::none();
        let faulted = sim.run(&mut adaptive_manager(), &RunSpec::new(Traffic::Synthetic, &none, 7));
        assert_eq!(plain, faulted);
        assert!(faulted.faults.is_clean());
    }

    #[test]
    fn camera_dropout_reduces_offered_load() {
        use crate::fault::{CameraDropout, FaultWindow};
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let clean = sim.run(&mut static_manager(2000.0), &RunSpec::synthetic(3));
        let plan = FaultPlan {
            dropouts: vec![CameraDropout {
                window: FaultWindow { start_s: 5.0, end_s: 15.0 },
                fraction: 0.5,
            }],
            ..FaultPlan::none()
        };
        let faulted = sim.run(&mut static_manager(2000.0), &RunSpec::new(Traffic::Synthetic, &plan, 3));
        assert!(
            faulted.offered < clean.offered,
            "dropout should lose frames at the source: {} vs {}",
            faulted.offered,
            clean.offered
        );
        assert!(faulted.faults.dropped_by_fault > 1000);
        // Dropped-at-source frames are neither offered nor lost, so
        // conservation still holds on what was offered.
        assert_eq!(faulted.offered, faulted.processed + faulted.lost);
    }

    #[test]
    fn stale_flood_overloads_the_server() {
        use crate::fault::{FaultWindow, StaleFlood};
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let clean = sim.run(&mut static_manager(700.0), &RunSpec::synthetic(3));
        let plan = FaultPlan {
            floods: vec![StaleFlood {
                window: FaultWindow { start_s: 5.0, end_s: 15.0 },
                multiplier: 2.0,
            }],
            ..FaultPlan::none()
        };
        let faulted = sim.run(&mut static_manager(700.0), &RunSpec::new(Traffic::Synthetic, &plan, 3));
        assert!(faulted.offered > clean.offered, "flood adds arrivals");
        assert!(faulted.faults.flood_arrivals > 1000);
        assert!(
            faulted.inference_loss_pct() > clean.inference_loss_pct(),
            "flood {} vs clean {}",
            faulted.inference_loss_pct(),
            clean.inference_loss_pct()
        );
    }

    #[test]
    fn accuracy_fault_degrades_delivered_accuracy() {
        use crate::fault::{AccuracyFault, FaultWindow};
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let clean = sim.run(&mut static_manager(2000.0), &RunSpec::synthetic(3));
        let plan = FaultPlan {
            accuracy_faults: vec![AccuracyFault {
                window: FaultWindow { start_s: 0.0, end_s: 25.0 },
                delta: 0.10,
            }],
            ..FaultPlan::none()
        };
        let faulted = sim.run(&mut static_manager(2000.0), &RunSpec::new(Traffic::Synthetic, &plan, 3));
        assert!(
            (clean.mean_accuracy - faulted.mean_accuracy - 0.10).abs() < 1e-6,
            "full-episode delta should shift mean accuracy by 0.10: {} vs {}",
            clean.mean_accuracy,
            faulted.mean_accuracy
        );
        // Throughput accounting is untouched by an accuracy fault.
        assert_eq!(clean.offered, faulted.offered);
        assert_eq!(clean.processed, faulted.processed);
    }

    #[test]
    fn failed_reconfigs_are_counted_and_reverted() {
        // Every reconfiguration aborts: the manager must end the episode
        // on its original entry, with failures in the counters.
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let seed = seed_with_peak_above(700.0);
        let plan = FaultPlan {
            reconfig_failure_prob: 1.0,
            reconfig_abort_fraction: 1.0,
            ..FaultPlan::none()
        };
        let mut m = adaptive_manager();
        let r = sim.run(&mut m, &RunSpec::new(Traffic::Synthetic, &plan, seed));
        assert!(
            r.faults.failed_reconfigs >= 1,
            "peaked workload must attempt (and fail) a reconfig"
        );
        // The abort left the old bitstream: the manager's current entry
        // is still the initial one.
        assert_eq!(m.current().map(|(e, _)| e), Some(0));
    }

    #[test]
    fn reconfig_overrun_extends_downtime_and_loss() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let seed = seed_with_peak_above(700.0);
        let clean = sim.run(&mut adaptive_manager(), &RunSpec::synthetic(seed));
        let plan = FaultPlan {
            reconfig_overrun_prob: 1.0,
            reconfig_overrun_factor: 8.0,
            ..FaultPlan::none()
        };
        let faulted = sim.run(&mut adaptive_manager(), &RunSpec::new(Traffic::Synthetic, &plan, seed));
        assert!(faulted.faults.overrun_reconfigs >= 1);
        assert!(
            faulted.lost > clean.lost,
            "8x downtime must cost inferences: {} vs {}",
            faulted.lost,
            clean.lost
        );
    }

    #[test]
    fn fault_runs_are_job_count_invariant() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let m = adaptive_manager();
        let plan = FaultPlan::canned();
        let serial = sim.run_many(&m, &RunSpec::new(Traffic::Synthetic, &plan, 42), 6, 1);
        let parallel = sim.run_many(&m, &RunSpec::new(Traffic::Synthetic, &plan, 42), 6, 4);
        assert_eq!(serial, parallel);
    }
}
