//! The edge-server simulation: configuration, results, and the
//! event-driven run loop (see `engine.rs` for the DES engine; the old
//! fixed-step tick loop is retained as a reference implementation for
//! differential tests and benchmarks).

use crate::engine::{self, DesStats};
use crate::fault::{FaultCounters, FaultPlan, FaultState};
use crate::workload::{WorkloadConfig, WorkloadTrace};
use crate::workload_gen::WorkloadSpec;
use adapex::runtime::RuntimeManager;
use adapex_tensor::parallel::{num_threads, par_map};
use adapex_tensor::rng::{derive_sequential, derive_stream, rng_from_seed};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Stream salt for the Poisson arrival noise of seeded episodes
/// (`run`/`run_with_faults`); `derive_stream(seed, 0, salt)` reduces to
/// the historical `seed ^ salt` tag these streams were born with.
const ARRIVAL_SALT: u64 = 0xE06E;

/// Stream salt for shaped-trace episodes, decorrelated from
/// [`ARRIVAL_SALT`] so a shaped run at seed `s` never replays the
/// synthetic run's noise.
const SHAPED_SALT: u64 = 0x5A9E;

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
    /// Sample time in seconds.
    pub t: f64,
    /// Observed workload over the last period (inferences/second).
    pub workload_ips: f64,
    /// Selected entry's achieved pruning rate.
    pub pruning_rate: f64,
    /// Selected confidence threshold.
    pub confidence_threshold: f64,
    /// Expected accuracy of the selected operating point.
    pub accuracy: f64,
    /// Queue occupancy at the sample instant.
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
    /// backpressure signal: `queue_high_water == queue_capacity` means
    /// the buffer saturated and arrivals were (or were about to be)
    /// dropped.
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

    /// Runs one 25-second (configurable) episode against `manager`.
    ///
    /// The manager keeps its library but its selection state resets so
    /// repeated runs are independent.
    pub fn run(&self, manager: &mut RuntimeManager, seed: u64) -> SimResult {
        self.run_with_faults(manager, seed, &FaultPlan::none())
    }

    /// [`EdgeSimulation::run`] under a fault plan. With
    /// [`FaultPlan::none`] this is bit-identical to [`EdgeSimulation::run`]:
    /// faults draw from a dedicated RNG stream, so the workload draws
    /// are untouched either way.
    pub fn run_with_faults(
        &self,
        manager: &mut RuntimeManager,
        seed: u64,
        plan: &FaultPlan,
    ) -> SimResult {
        self.run_with_faults_stats(manager, seed, plan).0
    }

    /// [`EdgeSimulation::run_with_faults`] plus the engine's event and
    /// tick counts (for throughput benchmarks; `SimResult` itself stays
    /// byte-compatible with the tick loop).
    pub fn run_with_faults_stats(
        &self,
        manager: &mut RuntimeManager,
        seed: u64,
        plan: &FaultPlan,
    ) -> (SimResult, DesStats) {
        let cfg = &self.config;
        let trace = cfg.workload.sample(seed);
        let mut rng = rng_from_seed(derive_stream(seed, 0, ARRIVAL_SALT));
        let mut faults = FaultState::new(plan, seed);
        engine::run(cfg, manager, &trace, &mut rng, &mut faults)
    }

    /// Runs one episode from a [`WorkloadSpec`]: the offered-rate trace
    /// is generated from the spec at `seed` and the episode's workload
    /// shape follows the spec's config (the simulator's own workload
    /// template is ignored).
    ///
    /// For [`WorkloadSpec::Synthetic`] at this simulator's own workload
    /// config, this is operation-for-operation identical to
    /// [`EdgeSimulation::run`]: the same `sample(seed)` draws and the
    /// same `ARRIVAL_SALT` arrival-noise stream — the synthetic↔spec
    /// differential tests pin that bitwise. Trace replays exported via
    /// [`WorkloadSpec::from_trace`] reproduce the originating synthetic
    /// run for the same reason.
    pub fn run_with_workload(
        &self,
        manager: &mut RuntimeManager,
        spec: &WorkloadSpec,
        seed: u64,
    ) -> SimResult {
        self.run_with_workload_and_faults(manager, spec, seed, &FaultPlan::none())
    }

    /// [`EdgeSimulation::run_with_workload`] under a fault plan.
    pub fn run_with_workload_and_faults(
        &self,
        manager: &mut RuntimeManager,
        spec: &WorkloadSpec,
        seed: u64,
        plan: &FaultPlan,
    ) -> SimResult {
        self.run_with_workload_stats(manager, spec, seed, plan).0
    }

    /// [`EdgeSimulation::run_with_workload_and_faults`] plus engine
    /// stats (mirrors [`EdgeSimulation::run_with_faults_stats`]).
    pub fn run_with_workload_stats(
        &self,
        manager: &mut RuntimeManager,
        spec: &WorkloadSpec,
        seed: u64,
        plan: &FaultPlan,
    ) -> (SimResult, DesStats) {
        let trace = spec.generate(seed);
        let cfg = SimConfig {
            workload: trace.config,
            ..self.config.clone()
        };
        let mut rng = rng_from_seed(derive_stream(seed, 0, ARRIVAL_SALT));
        let mut faults = FaultState::new(plan, seed);
        engine::run(&cfg, manager, &trace, &mut rng, &mut faults)
    }

    /// Repeated workload-spec episodes under a fault plan; repetition
    /// `i` runs at seed `derive_sequential(seed, i)` exactly like
    /// [`EdgeSimulation::run_many_jobs_with_faults`], so results are
    /// job-count-invariant and — for a Synthetic spec — bit-identical
    /// to the synthetic path.
    pub fn run_many_workload_jobs_with_faults(
        &self,
        manager: &RuntimeManager,
        spec: &WorkloadSpec,
        repetitions: usize,
        seed: u64,
        jobs: usize,
        plan: &FaultPlan,
    ) -> Vec<SimResult> {
        par_map(repetitions, jobs, |i| {
            let mut m = manager.clone();
            self.run_with_workload_and_faults(&mut m, spec, derive_sequential(seed, i as u64), plan)
        })
    }

    /// Runs one episode against a caller-supplied (e.g. shaped) workload
    /// trace; `seed` drives only the Poisson arrival noise.
    pub fn run_with_shaped_trace(
        &self,
        manager: &mut RuntimeManager,
        trace: &WorkloadTrace,
        seed: u64,
    ) -> SimResult {
        self.run_with_shaped_trace_and_faults(manager, trace, seed, &FaultPlan::none())
    }

    /// [`EdgeSimulation::run_with_shaped_trace`] under a fault plan.
    pub fn run_with_shaped_trace_and_faults(
        &self,
        manager: &mut RuntimeManager,
        trace: &WorkloadTrace,
        seed: u64,
        plan: &FaultPlan,
    ) -> SimResult {
        let mut rng = rng_from_seed(derive_stream(seed, 0, SHAPED_SALT));
        let mut faults = FaultState::new(plan, seed);
        engine::run(&self.config, manager, trace, &mut rng, &mut faults).0
    }

    /// Reference fixed-step implementation of
    /// [`EdgeSimulation::run_with_faults`]: the pre-DES 1 ms tick loop,
    /// polling every condition on every tick.
    ///
    /// Retained — not as a fallback, the engine *is* the simulator —
    /// but as the executable specification the engine is differentially
    /// tested against (`tests/des_equivalence.rs` pins bit-identity)
    /// and as the throughput baseline `bench_fleet` measures speedup
    /// over.
    pub fn run_tick_reference_with_faults(
        &self,
        manager: &mut RuntimeManager,
        seed: u64,
        plan: &FaultPlan,
    ) -> SimResult {
        let cfg = &self.config;
        let trace = cfg.workload.sample(seed);
        let mut rng = rng_from_seed(derive_stream(seed, 0, ARRIVAL_SALT));
        let mut faults = FaultState::new(plan, seed);
        self.run_with_trace_tick(manager, &trace, &mut rng, &mut faults)
    }

    /// Reference fixed-step implementation of
    /// [`EdgeSimulation::run_with_shaped_trace_and_faults`]; see
    /// [`EdgeSimulation::run_tick_reference_with_faults`].
    pub fn run_shaped_tick_reference_with_faults(
        &self,
        manager: &mut RuntimeManager,
        trace: &WorkloadTrace,
        seed: u64,
        plan: &FaultPlan,
    ) -> SimResult {
        let mut rng = rng_from_seed(derive_stream(seed, 0, SHAPED_SALT));
        let mut faults = FaultState::new(plan, seed);
        self.run_with_trace_tick(manager, trace, &mut rng, &mut faults)
    }

    /// Runs `repetitions` seeded episodes (the paper averages 100),
    /// returning every result. Each episode gets a fresh manager cloned
    /// from `manager`.
    ///
    /// Episodes run in parallel across the default worker pool; results
    /// are byte-identical to the sequential loop because repetition `i`
    /// is a pure function of `(manager, seed + i)` and `par_map` returns
    /// them in index order.
    pub fn run_many(&self, manager: &RuntimeManager, repetitions: usize, seed: u64) -> Vec<SimResult> {
        self.run_many_jobs(manager, repetitions, seed, num_threads())
    }

    /// [`EdgeSimulation::run_many`] with an explicit worker count.
    /// `jobs == 1` runs the episodes inline on the calling thread; any
    /// job count produces the same results in the same order.
    pub fn run_many_jobs(
        &self,
        manager: &RuntimeManager,
        repetitions: usize,
        seed: u64,
        jobs: usize,
    ) -> Vec<SimResult> {
        self.run_many_jobs_with_faults(manager, repetitions, seed, jobs, &FaultPlan::none())
    }

    /// [`EdgeSimulation::run_many_jobs`] under a fault plan. Each
    /// repetition derives its fault stream from `(plan.seed, seed + i)`,
    /// so results are job-count-invariant exactly like the fault-free
    /// path.
    pub fn run_many_jobs_with_faults(
        &self,
        manager: &RuntimeManager,
        repetitions: usize,
        seed: u64,
        jobs: usize,
        plan: &FaultPlan,
    ) -> Vec<SimResult> {
        par_map(repetitions, jobs, |i| {
            let mut m = manager.clone();
            self.run_with_faults(&mut m, derive_sequential(seed, i as u64), plan)
        })
    }

    /// Repeated shaped-trace episodes under a fault plan (the fault
    /// bench's entry point); job-count-invariant like
    /// [`EdgeSimulation::run_many_jobs_with_faults`].
    pub fn run_many_shaped_jobs_with_faults(
        &self,
        manager: &RuntimeManager,
        trace: &WorkloadTrace,
        repetitions: usize,
        seed: u64,
        jobs: usize,
        plan: &FaultPlan,
    ) -> Vec<SimResult> {
        par_map(repetitions, jobs, |i| {
            let mut m = manager.clone();
            self.run_with_shaped_trace_and_faults(&mut m, trace, derive_sequential(seed, i as u64), plan)
        })
    }

    /// The pre-DES tick loop, kept verbatim as the engine's executable
    /// specification (see
    /// [`EdgeSimulation::run_tick_reference_with_faults`]).
    fn run_with_trace_tick(
        &self,
        manager: &mut RuntimeManager,
        trace: &WorkloadTrace,
        rng: &mut rand::rngs::StdRng,
        faults: &mut FaultState,
    ) -> SimResult {
        let cfg = &self.config;
        let dt = cfg.tick_s;
        let duration = cfg.workload.duration_s;
        let mut queue: VecDeque<f64> = VecDeque::new(); // arrival timestamps

        // Initial decision from the nominal rate (deployment-time sizing).
        manager.decide(cfg.workload.nominal_ips());
        let initial_reconfigs = manager.reconfig_count;
        let initial_ct_changes = manager.ct_change_count;
        let initial_failed = manager.failed_reconfig_count;
        let initial_retries = manager.retry_count;

        let mut offered = 0usize;
        let mut processed = 0usize;
        let mut lost = 0usize;
        let mut queue_high_water = 0usize;
        let mut accuracy_sum = 0.0f64;
        let mut latency_sum_ms = 0.0f64;
        let mut service_sum_ms = 0.0f64;
        let mut energy_j = 0.0f64;
        let mut service_credit = 0.0f64;
        let mut reconfig_remaining_s = 0.0f64;
        // The in-flight reconfiguration will abort (fault-injected):
        // when its downtime elapses the old bitstream is still loaded.
        let mut reconfig_aborting = false;
        let mut monitor_arrivals = 0usize;
        let mut monitor_elapsed = 0.0f64;
        let mut samples = Vec::new();

        let mut t = 0.0f64;
        while t < duration {
            // --- Arrivals. -------------------------------------------
            // Camera dropouts lose frames at the source (never offered);
            // stale-frame floods add arrivals beyond the ±30 % envelope.
            // Both hooks are no-ops (no RNG draw) on an empty plan.
            let produced = trace.arrivals(t, dt, rng);
            let arrivals = produced - faults.dropped_at_source(t, produced)
                + faults.flood_arrivals(t, dt, trace.rate_at(t));
            offered += arrivals;
            monitor_arrivals += arrivals;
            for _ in 0..arrivals {
                if queue.len() >= cfg.queue_capacity {
                    lost += 1;
                } else {
                    queue.push_back(t);
                    queue_high_water = queue_high_water.max(queue.len());
                }
            }

            // --- Service (or reconfiguration downtime). --------------
            let point = manager
                .current_point()
                .expect("decide ran at t=0")
                .clone();
            if reconfig_remaining_s > 0.0 {
                reconfig_remaining_s -= dt;
                energy_j += cfg.reconfig_power_w * dt;
                service_credit = 0.0;
                if reconfig_remaining_s <= 0.0 {
                    // Downtime just elapsed: settle the attempt.
                    if reconfig_aborting {
                        manager.reconfig_aborted();
                        reconfig_aborting = false;
                    } else {
                        manager.reconfig_completed();
                    }
                }
            } else {
                energy_j += point.power_w * dt;
                service_credit += point.ips * dt;
                while service_credit >= 1.0 {
                    let Some(arrived_at) = queue.pop_front() else {
                        // Idle headroom does not accumulate into bursts
                        // beyond one tick's worth.
                        service_credit = service_credit.min(point.ips * dt + 1.0);
                        break;
                    };
                    if faults.is_stale(t, arrived_at) {
                        // Stale-frame admission control: discard without
                        // spending a service slot.
                        lost += 1;
                        faults.counters.stale_discarded += 1;
                        continue;
                    }
                    service_credit -= 1.0;
                    processed += 1;
                    accuracy_sum += faults.delivered_accuracy(t, point.accuracy);
                    latency_sum_ms += (t - arrived_at) * 1_000.0 + point.avg_latency_ms;
                    service_sum_ms += point.avg_latency_ms;
                }
            }

            // --- Monitor + adaptation. --------------------------------
            monitor_elapsed += dt;
            if monitor_elapsed + 1e-9 >= cfg.monitor_period_s {
                let observed_ips = monitor_arrivals as f64 / monitor_elapsed;
                let decision = manager.decide(observed_ips);
                if decision.reconfig {
                    let outcome = faults.reconfig_outcome(cfg.reconfig_time_ms / 1_000.0);
                    reconfig_remaining_s += outcome.downtime_s;
                    reconfig_aborting = outcome.aborted;
                }
                if decision.degraded {
                    faults.counters.degraded_periods += 1;
                    faults.counters.time_degraded_s += monitor_elapsed;
                }
                let entry = &manager.library().entries[decision.entry];
                samples.push(TraceSample {
                    t,
                    workload_ips: observed_ips,
                    pruning_rate: entry.achieved_rate,
                    confidence_threshold: decision.threshold,
                    accuracy: entry.points[decision.point].accuracy,
                    queue_len: queue.len(),
                    degraded: decision.degraded,
                    backoff_remaining: manager.backoff_remaining(),
                });
                monitor_arrivals = 0;
                monitor_elapsed = 0.0;
            }

            t += dt;
        }

        // Requests still queued at the end were neither processed nor
        // lost; with a 25 s horizon they are a negligible sliver and are
        // counted as lost (they missed the episode).
        lost += queue.len();

        let mut counters = faults.counters.clone();
        counters.failed_reconfigs = manager.failed_reconfig_count - initial_failed;
        counters.reconfig_retries = manager.retry_count - initial_retries;

        SimResult {
            offered,
            processed,
            lost,
            queue_high_water,
            mean_accuracy: if processed == 0 {
                0.0
            } else {
                accuracy_sum / processed as f64
            },
            mean_power_w: energy_j / duration,
            mean_latency_ms: if processed == 0 {
                0.0
            } else {
                latency_sum_ms / processed as f64
            },
            mean_service_latency_ms: if processed == 0 {
                0.0
            } else {
                service_sum_ms / processed as f64
            },
            energy_j,
            reconfig_count: manager.reconfig_count - initial_reconfigs,
            ct_change_count: manager.ct_change_count - initial_ct_changes,
            duration_s: duration,
            faults: counters,
            trace: samples,
        }
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
        let r = sim.run(&mut m, 1);
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
        let r = sim.run(&mut m, 1);
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
        let r = sim.run(&mut m, seed);
        // The 650-IPS entry cannot hold the peak period, so the manager
        // must reconfigure to the 1200-IPS entry at some point.
        assert!(r.reconfig_count >= 1, "no reconfiguration at seed {seed}");
        assert!(r.inference_loss_pct() < 10.0, "loss {}", r.inference_loss_pct());
        assert!(!r.trace.is_empty());
    }

    #[test]
    fn results_are_seed_deterministic() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let r1 = sim.run(&mut static_manager(700.0), 9);
        let r2 = sim.run(&mut static_manager(700.0), 9);
        assert_eq!(r1, r2);
        let r3 = sim.run(&mut static_manager(700.0), 10);
        assert_ne!(r1.offered, r3.offered);
    }

    #[test]
    fn run_many_averages_cleanly() {
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let m = static_manager(2000.0);
        let results = sim.run_many(&m, 5, 100);
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
        let serial = sim.run_many_jobs(&m, 6, 42, 1);
        let parallel = sim.run_many_jobs(&m, 6, 42, 4);
        assert_eq!(serial, parallel);
        // And the default entry point agrees with the explicit form.
        assert_eq!(sim.run_many(&m, 6, 42), serial);
    }

    #[test]
    fn reconfig_downtime_costs_inferences() {
        // Same library, but an artificially long reconfiguration: the
        // adaptive manager should lose more than with a fast one.
        let seed = seed_with_peak_above(700.0);
        let fast = EdgeSimulation::new(SimConfig::paper_default(10.0));
        let slow = EdgeSimulation::new(SimConfig::paper_default(3_000.0));
        let rf = fast.run(&mut adaptive_manager(), seed);
        let rs = slow.run(&mut adaptive_manager(), seed);
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
        let r = sim.run(&mut static_manager(2000.0), 1);
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
        let plain = sim.run(&mut adaptive_manager(), 7);
        let faulted = sim.run_with_faults(&mut adaptive_manager(), 7, &FaultPlan::none());
        assert_eq!(plain, faulted);
        assert!(faulted.faults.is_clean());
    }

    #[test]
    fn camera_dropout_reduces_offered_load() {
        use crate::fault::{CameraDropout, FaultWindow};
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        let clean = sim.run(&mut static_manager(2000.0), 3);
        let plan = FaultPlan {
            dropouts: vec![CameraDropout {
                window: FaultWindow { start_s: 5.0, end_s: 15.0 },
                fraction: 0.5,
            }],
            ..FaultPlan::none()
        };
        let faulted = sim.run_with_faults(&mut static_manager(2000.0), 3, &plan);
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
        let clean = sim.run(&mut static_manager(700.0), 3);
        let plan = FaultPlan {
            floods: vec![StaleFlood {
                window: FaultWindow { start_s: 5.0, end_s: 15.0 },
                multiplier: 2.0,
            }],
            ..FaultPlan::none()
        };
        let faulted = sim.run_with_faults(&mut static_manager(700.0), 3, &plan);
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
        let clean = sim.run(&mut static_manager(2000.0), 3);
        let plan = FaultPlan {
            accuracy_faults: vec![AccuracyFault {
                window: FaultWindow { start_s: 0.0, end_s: 25.0 },
                delta: 0.10,
            }],
            ..FaultPlan::none()
        };
        let faulted = sim.run_with_faults(&mut static_manager(2000.0), 3, &plan);
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
        let r = sim.run_with_faults(&mut m, seed, &plan);
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
        let clean = sim.run(&mut adaptive_manager(), seed);
        let plan = FaultPlan {
            reconfig_overrun_prob: 1.0,
            reconfig_overrun_factor: 8.0,
            ..FaultPlan::none()
        };
        let faulted = sim.run_with_faults(&mut adaptive_manager(), seed, &plan);
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
        let serial = sim.run_many_jobs_with_faults(&m, 6, 42, 1, &plan);
        let parallel = sim.run_many_jobs_with_faults(&m, 6, 42, 4, &plan);
        assert_eq!(serial, parallel);
    }
}
