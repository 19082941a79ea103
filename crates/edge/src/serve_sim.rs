//! The per-request serve twin: the `adapex::serve` data plane on the
//! event queue.
//!
//! The sim-first validation path of the serving runtime: the
//! [`adapex::ServeEngine`] behind the real `serve` bench runs here
//! against Poisson arrivals from a [`RunSpec`]'s traffic, with a
//! [`adapex::RuntimeManager`] in the monitor loop and the spec's fault
//! plan, so SLO behavior under rate swings, camera dropouts and
//! reconfiguration downtime is deterministic and golden-snapshotable
//! before any real kernel runs. It stands on what the frame engine
//! (`engine.rs`) stands on: an [`EventQueue`] of its own (keys are µs),
//! one RNG stream, `Traffic::resolve` for the trace, [`FaultState`] for
//! fault windows and reconfiguration outcomes, the shared [`Downtime`]
//! machine. Of the fault plan it ignores `accuracy_faults` and
//! `max_staleness_ms` (the frame engine's accuracy and buffer-age
//! accounting).
//!
//! # Event machine
//!
//! * `Arrival` — thinned Poisson process at the trace's offered rate
//!   (peak-rate thinning, so rate segments and flood windows need no
//!   re-scheduling). Accepted arrivals draw an SLO class and enter the
//!   engine's bounded queues; while a camera-dropout window is active
//!   frames are lost at the source with its per-frame probability,
//!   accounted separately.
//! * `CloseWindow { gen }` — the batch-assembly deadline. Stale
//!   generations (window already dispatched by the full-batch fast
//!   path) are ignored.
//! * `BatchDone` — batch service completes; latencies are recorded and
//!   the next window opens if work is queued.
//! * `Monitor` — the runtime manager observes the arrival rate and
//!   re-selects the operating point. A confidence-threshold change
//!   swaps the service profile immediately (free); an entry change
//!   begins — or, mid-downtime, extends — FPGA reconfiguration downtime
//!   during which dispatch defers (arrivals still queue, so
//!   backpressure accrues honestly).
//! * `ReconfigDone` — the pending downtime settles (completed or
//!   fault-aborted; a superseded event is ignored) and the service
//!   profile follows the bitstream that is actually loaded.
//!
//! Service times come from the selected library entry: a request
//! retiring at exit `e` costs `latency_to_exit_ms[e]`, and the exit
//! split follows the operating point's `exit_fractions` — the virtual
//! twin of the staged executor's early-exit behavior.

use crate::des::EventQueue;
use crate::downtime::Downtime;
use crate::fault::FaultState;
use crate::sim::RunSpec;
use crate::workload::{WorkloadConfig, WorkloadTrace};
use adapex::runtime::RuntimeManager;
use adapex::serve::{PointServiceModel, ServeConfig, ServeEngine, ServeReport, ServiceModel};
use adapex::Library;
use adapex_tensor::rng::{derive_stream, rng_from_seed};
use rand::rngs::StdRng;
use rand::RngExt as _;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Salt for the serve scenario's derived RNG streams.
pub const SERVE_SIM_SALT: u64 = 0x5E1F_5E1F;

/// Stream tag of the twin's one RNG:
/// `derive_stream(seed ^ SERVE_SIM_SALT, 0, SERVE_STREAM_TAG)`.
const SERVE_STREAM_TAG: u64 = 0xD35_C0DE;

/// The event kinds of the module docs.
#[derive(Debug, Clone, Copy)]
enum ServeEvent {
    Arrival,
    CloseWindow { gen: u64 },
    BatchDone,
    Monitor,
    ReconfigDone,
}

/// The serve twin's server: data plane, batching and adaptation
/// parameters. The episode itself — traffic, faults, seed — is the
/// [`RunSpec`] handed to [`ServeScenario::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeScenarioConfig {
    /// Serving data-plane configuration (classes, batching, admission).
    pub serve: ServeConfig,
    /// The server's own workload template: what synthetic traffic
    /// samples and a shaped trace runs under (a spec brings its own).
    pub workload: WorkloadConfig,
    /// Relative weight of each SLO class in the arrival mix; must have
    /// one entry per class in `serve.classes`.
    pub class_weights: Vec<f64>,
    /// Seconds between runtime-manager monitoring decisions.
    pub monitor_period_s: f64,
    /// Nominal FPGA reconfiguration downtime, milliseconds.
    pub reconfig_time_ms: f64,
}

impl ServeScenarioConfig {
    /// The paper's surveillance scenario served through the data
    /// plane: 20 cameras × 30 IPS for 25 s, two SLO classes.
    pub fn paper_default(reconfig_time_ms: f64) -> Self {
        ServeScenarioConfig {
            serve: ServeConfig::paper_default(),
            workload: WorkloadConfig::paper_default(),
            class_weights: vec![1.0, 3.0],
            monitor_period_s: 1.0,
            reconfig_time_ms,
        }
    }
}

/// Outcome of a DES serving run: the data-plane report plus the
/// adaptation and fault accounting around it. Fully serializable, so
/// scenarios golden-snapshot byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeSimResult {
    /// Data-plane accounting (per-class latency, drops, sheds).
    pub report: ServeReport,
    /// Runtime-manager decisions taken (including the t=0 sizing one).
    pub decisions: u64,
    /// Confidence-threshold changes (free adaptations).
    pub ct_changes: u64,
    /// Reconfiguration attempts started.
    pub reconfigs: u64,
    /// Attempts that aborted (fault-injected; old bitstream kept).
    pub reconfig_aborts: u64,
    /// Total reconfiguration downtime, microseconds.
    pub reconfig_downtime_us: u64,
    /// Frames lost at the source by camera-dropout faults (never
    /// offered to the data plane).
    pub dropped_by_fault: u64,
    /// Library entry loaded when the run ended.
    pub final_entry: usize,
    /// Operating point selected when the run ended.
    pub final_point: usize,
    /// Total DES events dispatched.
    pub events: u64,
}

/// Service profile derived from a library selection: per-exit costs
/// from the entry's pipeline latencies, exit split from the operating
/// point. Falls back to the point's mean latency when the entry
/// carries fewer exit latencies than fractions.
fn profile_for(library: &Library, entry: usize, point: usize) -> (Vec<u64>, Vec<f64>) {
    let e = &library.entries[entry];
    let p = &e.points[point];
    let n = p.exit_fractions.len().max(1);
    let mut service_us = Vec::with_capacity(n);
    for i in 0..n {
        let ms = e
            .latency_to_exit_ms
            .get(i)
            .or_else(|| e.latency_to_exit_ms.last())
            .copied()
            .unwrap_or(p.avg_latency_ms);
        service_us.push(((ms * 1_000.0).round() as u64).max(1));
    }
    let mut fractions = p.exit_fractions.clone();
    if fractions.is_empty() || fractions.iter().sum::<f64>() <= 0.0 {
        fractions = vec![1.0 / n as f64; n];
    }
    (service_us, fractions)
}

/// One episode's mutable state.
struct ServeNode<'a> {
    cfg: &'a ServeScenarioConfig,
    seed: u64,
    queue: EventQueue<ServeEvent>,
    rng: StdRng,
    engine: ServeEngine,
    model: PointServiceModel,
    manager: RuntimeManager,
    trace: Cow<'a, WorkloadTrace>,
    faults: FaultState,
    downtime: Downtime,
    /// Thinning envelope: max trace rate × max flood multiplier.
    peak_rps: f64,
    duration_us: u64,
    monitor_period_us: u64,
    next_id: u64,
    monitor_arrivals: u64,
    server_busy: bool,
    window_open: bool,
    window_gen: u64,
    in_flight: Vec<adapex::serve::QueuedRequest>,
    in_flight_exits: Vec<usize>,
    /// The counters of the result, accumulated in place; the report and
    /// the final selection are filled in when the run ends.
    out: ServeSimResult,
}

impl<'a> ServeNode<'a> {
    /// The server at t = 0: trace resolved, manager sized from the
    /// nominal rate, queue empty.
    fn new(config: &'a ServeScenarioConfig, mut manager: RuntimeManager, spec: &RunSpec<'a>) -> Self {
        assert_eq!(
            config.class_weights.len(),
            config.serve.classes.len(),
            "one weight per SLO class"
        );
        // The twin draws everything from its own stream; the recipe's
        // arrival-noise salt is the frame engine's.
        let (workload, trace, _) = spec.traffic.resolve(&config.workload, spec.seed);
        let faults = FaultState::new(spec.faults, spec.seed);
        let peak_rps = trace.rates.iter().copied().fold(0.0, f64::max) * faults.peak_flood();

        // Deployment-time sizing from the nominal rate.
        manager.decide(workload.nominal_ips());
        let (entry, point) = manager.current().expect("library non-empty");
        let (service_us, fractions) = profile_for(manager.library(), entry, point);
        ServeNode {
            cfg: config,
            seed: spec.seed,
            queue: EventQueue::with_capacity(8),
            rng: rng_from_seed(derive_stream(spec.seed ^ SERVE_SIM_SALT, 0, SERVE_STREAM_TAG)),
            model: PointServiceModel::new(&fractions, service_us.clone(), spec.seed),
            engine: ServeEngine::new(config.serve.clone(), service_us, fractions),
            manager,
            trace,
            faults,
            downtime: Downtime::default(),
            peak_rps,
            duration_us: (workload.duration_s * 1e6).round() as u64,
            monitor_period_us: (config.monitor_period_s * 1e6).round().max(1.0) as u64,
            next_id: 0,
            monitor_arrivals: 0,
            server_busy: false,
            window_open: false,
            window_gen: 0,
            in_flight: Vec::new(),
            in_flight_exits: Vec::new(),
            out: ServeSimResult { decisions: 1, ..ServeSimResult::default() },
        }
    }

    /// Schedules `event` `delay` µs after the one being handled.
    fn schedule_in(&mut self, delay: u64, event: ServeEvent) {
        self.queue.schedule(self.queue.now().saturating_add(delay), event);
    }

    /// Installs the service profile of the manager's current selection.
    fn apply_current_profile(&mut self) {
        let (entry, point) = self.manager.current().expect("decide ran at t=0");
        let (service_us, fractions) = profile_for(self.manager.library(), entry, point);
        self.model = PointServiceModel::new(&fractions, service_us.clone(), self.seed);
        self.engine.set_service_profile(service_us, fractions);
    }

    /// Draws an SLO class from the configured weights.
    fn draw_class(&self, u: f64) -> usize {
        let total: f64 = self.cfg.class_weights.iter().sum();
        let mut acc = 0.0;
        for (c, w) in self.cfg.class_weights.iter().enumerate() {
            acc += w / total;
            if u < acc {
                return c;
            }
        }
        self.cfg.class_weights.len() - 1
    }

    /// Dispatches a batch now if the server is free and work is
    /// queued; otherwise opens an assembly window when none is open.
    fn try_dispatch_or_open(&mut self, now: u64) {
        if self.server_busy || self.downtime.since().is_some() || self.engine.queued() == 0 {
            return;
        }
        if self.engine.queued() >= self.engine.config().max_batch {
            // Full batch available: skip the window entirely.
            self.dispatch(now);
        } else if !self.window_open {
            self.window_open = true;
            self.window_gen += 1;
            let deadline = self.engine.config().batch_deadline_us;
            self.schedule_in(deadline, ServeEvent::CloseWindow { gen: self.window_gen });
        }
    }

    /// Closes the queues into a batch and puts it in service.
    fn dispatch(&mut self, now: u64) {
        self.window_open = false;
        self.window_gen += 1;
        let members = self.engine.close_batch(now);
        if members.is_empty() {
            return;
        }
        let config = self.engine.config();
        let mut lane_time = vec![0u64; config.workers.max(1)];
        let lanes = lane_time.len();
        self.in_flight_exits.clear();
        for (j, m) in members.iter().enumerate() {
            let e = self.model.exit_of(m.id);
            lane_time[j % lanes] += self.model.service_us(e);
            self.in_flight_exits.push(e);
        }
        let service = config.dispatch_overhead_us + lane_time.iter().copied().max().unwrap_or(0);
        self.in_flight = members;
        self.server_busy = true;
        self.schedule_in(service, ServeEvent::BatchDone);
    }

    fn on_arrival(&mut self, now: u64) {
        if now >= self.duration_us || self.peak_rps <= 0.0 {
            return;
        }
        let t_s = now as f64 / 1e6;
        // Peak-rate thinning: accept with p = rate(t) / peak.
        let eff_rate = self.trace.rate_at(t_s) * self.faults.flood_at(t_s).unwrap_or(1.0);
        let accept = self.rng.random::<f64>() < eff_rate / self.peak_rps;
        if accept {
            let loss = self.faults.dropout_at(t_s);
            if loss.is_some_and(|p| self.rng.random::<f64>() < p) {
                // Lost at the source: never offered to the data plane.
                self.out.dropped_by_fault += 1;
            } else {
                let u: f64 = self.rng.random();
                let class = self.draw_class(u);
                let id = self.next_id;
                self.next_id += 1;
                self.monitor_arrivals += 1;
                self.engine.offer(id, class, now);
                self.try_dispatch_or_open(now);
            }
        }
        // Next candidate at an Exp(peak) gap, quantized to ≥ 1 µs.
        let u: f64 = self.rng.random();
        let gap_us = ((-(1.0 - u).ln() / self.peak_rps) * 1e6).round().max(1.0) as u64;
        self.schedule_in(gap_us, ServeEvent::Arrival);
    }

    fn on_close_window(&mut self, gen: u64, now: u64) {
        if !self.window_open || gen != self.window_gen {
            return; // Stale deadline: window already dispatched.
        }
        if self.downtime.since().is_some() || self.server_busy {
            // Can't dispatch now; the window re-opens when the server
            // (or bitstream) comes back.
            self.window_open = false;
            self.engine.note_deferral();
        } else {
            self.dispatch(now);
        }
    }

    fn on_batch_done(&mut self, now: u64) {
        let members = std::mem::take(&mut self.in_flight);
        let exits = std::mem::take(&mut self.in_flight_exits);
        self.engine.complete_batch(&members, now, &exits);
        self.in_flight_exits = exits; // keep capacity
        self.server_busy = false;
        self.try_dispatch_or_open(now);
    }

    fn on_monitor(&mut self, now: u64) {
        let observed = self.monitor_arrivals as f64 / self.cfg.monitor_period_s;
        self.monitor_arrivals = 0;
        let before = self.manager.current();
        let decision = self.manager.decide(observed);
        self.out.decisions += 1;
        if decision.reconfig {
            self.out.reconfigs += 1;
            let outcome = self.faults.reconfig_outcome(self.cfg.reconfig_time_ms / 1_000.0);
            self.out.reconfig_aborts += u64::from(outcome.aborted);
            let length = (outcome.downtime_s * 1e6).round() as u64;
            let settle = self.downtime.begin(now, length, outcome.aborted);
            self.queue.schedule(settle, ServeEvent::ReconfigDone);
        } else if before != self.manager.current() {
            // Threshold-only move: new exit split, no downtime.
            self.apply_current_profile();
        }
        if now + self.monitor_period_us < self.duration_us {
            self.schedule_in(self.monitor_period_us, ServeEvent::Monitor);
        }
    }

    fn on_reconfig_done(&mut self, now: u64) {
        let Some(since) = self.downtime.settle(now, &mut self.manager) else {
            return; // superseded by a later extension
        };
        self.out.reconfig_downtime_us += now - since;
        // Profile follows whatever bitstream is actually loaded now.
        self.apply_current_profile();
        self.try_dispatch_or_open(now);
    }

    /// Runs the event machine until nothing more can happen, showing
    /// `observe` the state after every event. A settle keyed `u64::MAX`
    /// is a downtime that never ends: it stays queued, and so does
    /// every request behind it.
    fn run(&mut self, mut observe: impl FnMut(&Self)) {
        self.queue.schedule(0, ServeEvent::Arrival);
        self.queue.schedule(self.monitor_period_us, ServeEvent::Monitor);
        while self.queue.peek_time().is_some_and(|t| t < u64::MAX) {
            let ev = self.queue.pop().expect("peeked");
            match ev.payload {
                ServeEvent::Arrival => self.on_arrival(ev.time),
                ServeEvent::CloseWindow { gen } => self.on_close_window(gen, ev.time),
                ServeEvent::BatchDone => self.on_batch_done(ev.time),
                ServeEvent::Monitor => self.on_monitor(ev.time),
                ServeEvent::ReconfigDone => self.on_reconfig_done(ev.time),
            }
            observe(self);
        }
        if let Some(since) = self.downtime.since() {
            self.out.reconfig_downtime_us += self.queue.now().saturating_sub(since);
        }
    }
}

/// Runner for serve-twin episodes.
pub struct ServeScenario;

impl ServeScenario {
    /// Runs one episode of `spec` on the server `config` describes: the
    /// manager sizes the system at t = 0, then the event machine serves
    /// the workload to completion (queues drain after the arrival
    /// horizon).
    ///
    /// # Panics
    ///
    /// Panics if `class_weights` does not match `serve.classes` or the
    /// manager's library is empty.
    pub fn run(
        config: &ServeScenarioConfig,
        manager: RuntimeManager,
        spec: &RunSpec,
    ) -> ServeSimResult {
        let mut node = ServeNode::new(config, manager, spec);
        node.run(|_| {});
        let (final_entry, final_point) = node.manager.current().expect("decide ran at t=0");
        ServeSimResult {
            report: node.engine.finish(node.queue.now()),
            ct_changes: node.manager.ct_change_count as u64,
            final_entry,
            final_point,
            events: node.queue.processed(),
            ..node.out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CameraDropout, FaultPlan, FaultWindow};
    use crate::sim::Traffic;
    use crate::workload_gen::WorkloadSpec;
    use adapex::library::{LibraryEntry, OperatingPoint};
    use adapex::runtime::SelectionPolicy;
    use finn_dataflow::ResourceUsage;

    fn entry(id: usize, ips: f64, exit1_frac: f64) -> LibraryEntry {
        LibraryEntry {
            id,
            pruning_rate: 0.1 * id as f64,
            achieved_rate: 0.1 * id as f64,
            prune_exits: false,
            mean_exit_accuracy: 0.8,
            final_exit_accuracy: 0.82,
            resources: ResourceUsage::default(),
            exit_resources: ResourceUsage::default(),
            utilization: (0.5, 0.5, 0.5, 0.5),
            static_ips: ips,
            latency_to_exit_ms: vec![0.4, 1.0],
            points: vec![
                OperatingPoint {
                    confidence_threshold: 0.5,
                    accuracy: 0.80,
                    exit_fractions: vec![exit1_frac, 1.0 - exit1_frac],
                    ips,
                    avg_latency_ms: 1.0,
                    power_w: 3.0,
                    energy_per_inference_mj: 1.0,
                },
                OperatingPoint {
                    confidence_threshold: 0.9,
                    accuracy: 0.84,
                    exit_fractions: vec![exit1_frac * 0.5, 1.0 - exit1_frac * 0.5],
                    ips: ips * 0.8,
                    avg_latency_ms: 1.2,
                    power_w: 3.2,
                    energy_per_inference_mj: 1.2,
                },
            ],
        }
    }

    fn manager(capacity_ips: f64) -> RuntimeManager {
        let library = Library {
            entries: vec![entry(0, capacity_ips, 0.6), entry(1, capacity_ips * 2.0, 0.7)],
        };
        RuntimeManager::new(library, 0.5, SelectionPolicy::ReconfigAware)
    }

    fn small_config() -> ServeScenarioConfig {
        let mut cfg = ServeScenarioConfig::paper_default(145.0);
        cfg.workload = WorkloadConfig {
            cameras: 4,
            ips_per_camera: 50.0,
            duration_s: 3.0,
            deviation: 0.3,
            deviation_period_s: 1.0,
        };
        cfg
    }

    const SEED: u64 = 7;

    fn run_synthetic(cfg: &ServeScenarioConfig, capacity_ips: f64, seed: u64) -> ServeSimResult {
        ServeScenario::run(cfg, manager(capacity_ips), &RunSpec::synthetic(seed))
    }

    #[test]
    fn runs_are_deterministic_and_conserve_requests() {
        let cfg = small_config();
        let a = run_synthetic(&cfg, 1_000.0, SEED);
        let b = run_synthetic(&cfg, 1_000.0, SEED);
        assert_eq!(a, b, "same seed must replay byte-identically");
        assert!(a.report.conservation_holds(), "offered must be accounted");
        assert!(a.report.completed > 0, "some requests must complete");
        assert_eq!(a.report.residual, 0, "queues drain after the horizon");
    }

    #[test]
    fn synthetic_workload_spec_is_bit_identical_to_default_path() {
        let cfg = small_config();
        let spec = WorkloadSpec::paper_default().with_config(cfg.workload);
        let none = FaultPlan::none();
        let plain = run_synthetic(&cfg, 1_000.0, SEED);
        // A spec brings its own workload config: the server's is ignored.
        let via_spec = ServeScenario::run(
            &ServeScenarioConfig::paper_default(145.0),
            manager(1_000.0),
            &RunSpec::new(Traffic::Spec(&spec), &none, SEED),
        );
        assert_eq!(plain, via_spec);
    }

    #[test]
    fn flash_crowd_spec_raises_offered_load() {
        use crate::workload_gen::FlashCrowdWorkload;
        let cfg = small_config();
        let baseline = run_synthetic(&cfg, 1_000.0, SEED);
        let crowd_spec = WorkloadSpec::FlashCrowd(FlashCrowdWorkload {
            config: cfg.workload,
            start_s: 0.5,
            ramp_s: 0.5,
            hold_s: 1.5,
            decay_s: 0.5,
            peak_multiplier: 3.0,
        });
        let none = FaultPlan::none();
        let crowd = ServeScenario::run(
            &cfg,
            manager(1_000.0),
            &RunSpec::new(Traffic::Spec(&crowd_spec), &none, SEED),
        );
        assert!(
            crowd.report.offered > baseline.report.offered,
            "crowd {} vs baseline {}",
            crowd.report.offered,
            baseline.report.offered
        );
        assert!(crowd.report.conservation_holds());
    }

    #[test]
    fn seed_changes_the_realization() {
        let cfg = small_config();
        let a = run_synthetic(&cfg, 1_000.0, SEED);
        let b = run_synthetic(&cfg, 1_000.0, SEED + 1);
        assert_ne!(
            a.report.offered, b.report.offered,
            "different seeds should sample different traces"
        );
    }

    #[test]
    fn camera_dropouts_reduce_offered_load() {
        let cfg = small_config();
        let clean = run_synthetic(&cfg, 1_000.0, SEED);
        let mut plan = FaultPlan::none();
        plan.dropouts.push(CameraDropout {
            window: FaultWindow {
                start_s: 0.0,
                end_s: 3.0,
            },
            fraction: 0.5,
        });
        let faulty = ServeScenario::run(
            &cfg,
            manager(1_000.0),
            &RunSpec::new(Traffic::Synthetic, &plan, SEED),
        );
        assert!(faulty.dropped_by_fault > 0, "dropout must lose frames");
        assert!(
            faulty.report.offered < clean.report.offered,
            "lost frames are never offered: {} vs {}",
            faulty.report.offered,
            clean.report.offered
        );
        assert!(faulty.report.conservation_holds());
    }

    #[test]
    fn overload_sheds_or_drops_with_accounting() {
        // Offered rate far above the modeled service capacity
        // (~1.6 k rps at the test entry's exit latencies): the bounded
        // queues and exit-aware admission must shed, not stall or lose
        // silently.
        let mut cfg = small_config();
        cfg.workload.ips_per_camera = 1_500.0;
        let result = run_synthetic(&cfg, 200.0, SEED);
        assert!(result.report.conservation_holds());
        assert!(
            result.report.dropped_full + result.report.shed_infeasible > 0,
            "overload must surface as drops or sheds"
        );
        let hw = result
            .report
            .per_class
            .iter()
            .map(|c| c.queue_high_water)
            .max()
            .unwrap_or(0);
        assert!(hw > 0, "backpressure must register a high-water mark");
    }

    #[test]
    fn empty_library_panics_are_avoided_by_sized_manager() {
        // Sanity: the t=0 sizing decision installs a profile whose
        // exit split matches the selected point.
        let cfg = small_config();
        let result = run_synthetic(&cfg, 1_000.0, SEED);
        assert_eq!(result.report.exit_counts.len(), 2);
        assert!(result.report.exit_counts[0] > 0, "early exit must fire");
    }

    /// A server whose 1.5 s reconfiguration outlasts its 1 s monitor
    /// period, under a load that swings 200 → 1600 → 200 rps: the
    /// manager leaves the accurate entry at 2.0 s and, more accurate by
    /// more than the hysteresis, wants it back at 3.0 s — mid-downtime.
    fn swing() -> (ServeScenarioConfig, RuntimeManager, WorkloadTrace) {
        let mut cfg = small_config();
        cfg.reconfig_time_ms = 1_500.0;
        cfg.workload.duration_s = 6.0;
        let mut accurate = entry(0, 1_000.0, 0.6);
        let mut fast = entry(1, 2_400.0, 0.7);
        for (e, accuracy) in [(&mut accurate, 0.90), (&mut fast, 0.80)] {
            e.points.truncate(1);
            e.points[0].accuracy = accuracy;
        }
        let manager = RuntimeManager::new(
            Library { entries: vec![accurate, fast] },
            0.5,
            SelectionPolicy::ReconfigAware,
        );
        let mut rates = vec![200.0; 6];
        rates[1] = 1_600.0;
        let trace = WorkloadTrace { config: cfg.workload, rates };
        (cfg, manager, trace)
    }

    #[test]
    fn a_decision_mid_downtime_extends_it_and_settles_once() {
        let (cfg, manager, trace) = swing();
        // 2.0 s + 1.5 s, extended by 1.5 s at 3.0 s: service is withheld
        // until 5.0 s. When every attempt aborts, the manager is told
        // so at 5.0 s and the 5.0 s decision tries again.
        const S: u64 = 1_000_000;
        let clean: &[(u64, u64)] = &[(2 * S, 5 * S)];
        let aborting: &[(u64, u64)] = &[(2 * S, 5 * S), (5 * S, 6 * S + S / 2)];
        for (failure_prob, downtimes, decided) in [(0.0, clean, 2), (1.0, aborting, 3)] {
            let plan = FaultPlan { reconfig_failure_prob: failure_prob, ..FaultPlan::none() };
            let spec = RunSpec::new(Traffic::Shaped(&trace), &plan, SEED);
            let mut node = ServeNode::new(&cfg, manager.clone(), &spec);
            // When the batcher acted: every window it opened and every
            // batch it dispatched bumps the window generation.
            let mut acted_at = Vec::new();
            node.run(|n| {
                if n.window_gen != acted_at.len() as u64 {
                    acted_at.resize(n.window_gen as usize, n.queue.now());
                }
            });
            assert_eq!(node.out.reconfigs, decided);
            assert_eq!(node.out.reconfig_aborts, if failure_prob > 0.0 { decided } else { 0 });
            // What is reported is the span service was withheld for …
            let withheld: u64 = downtimes.iter().map(|(down, up)| up - down).sum();
            assert_eq!(node.out.reconfig_downtime_us, withheld);
            // … no window opens and no batch goes into service inside it …
            for &(down, up) in downtimes {
                let inside = acted_at.iter().find(|&&t| down < t && t < up);
                assert_eq!(inside, None, "dispatched while the FPGA reconfigured");
            }
            assert!(acted_at.iter().any(|&t| t < 2 * S));
            let up = downtimes[downtimes.len() - 1].1;
            if up < node.duration_us {
                assert!(acted_at.iter().any(|&t| t >= up), "service resumes");
            }
            // … and the manager hears one outcome per downtime.
            let failures = if failure_prob > 0.0 { downtimes.len() } else { 0 };
            assert_eq!(node.manager.failed_reconfig_count, failures);
            if failures == 0 {
                assert_eq!(node.manager.current().map(|(e, _)| e), Some(0));
            }
            let report = node.engine.finish(node.queue.now());
            assert!(report.conservation_holds());
            assert!(
                report.dropped_full + report.shed_infeasible > 0,
                "3 s of arrivals behind a withheld server outlive their budgets"
            );
        }
    }

    #[test]
    fn a_saturating_downtime_never_settles_and_leaves_a_residual() {
        // Built in code, so `FaultPlan::validate` never saw it.
        let (cfg, manager, trace) = swing();
        let plan = FaultPlan {
            reconfig_overrun_prob: 1.0,
            reconfig_overrun_factor: 1e30,
            ..FaultPlan::none()
        };
        let spec = RunSpec::new(Traffic::Shaped(&trace), &plan, SEED);
        let result = ServeScenario::run(&cfg, manager, &spec);
        assert!(result.report.conservation_holds());
        assert!(result.report.residual > 0, "what was queued at 2.0 s stays queued");
        // Down from the first decision to the last event handled.
        let horizon_us = (cfg.workload.duration_s * 1e6) as u64;
        assert!(result.reconfig_downtime_us > horizon_us - 2_000_000 - 100_000);
        assert!(result.reconfig_downtime_us <= horizon_us - 2_000_000 + 100_000);
    }
}
