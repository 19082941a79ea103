//! The event-driven edge-server engine.
//!
//! This replaces the per-tick polling loop that `EdgeSimulation` used
//! through PR 5 with a [`des::EventQueue`]-driven engine; every
//! `EdgeSimulation::run` lands here, and the old loop survives only as
//! `EdgeSimulation::run_tick_reference`. The control events that the
//! old loop re-checked on every 1 ms tick are now *scheduled*:
//!
//! - **Monitor decisions** — the monitor period covers a fixed number
//!   of ticks (the elapsed-time accumulator resets to exactly `0.0`
//!   after every decision, so the tick count per period is a constant
//!   of the config); each decision schedules the next.
//! - **Reconfiguration settlement** — downtime spans a computable
//!   number of ticks; the settle event is scheduled when the
//!   reconfiguration is decided and re-scheduled (generation-tagged)
//!   if a later decision extends the downtime.
//! - **Workload rate changes** — the piecewise-constant offered rate
//!   switches segments on precomputed boundary ticks.
//! - **Fault-window toggles** — every `FaultPlan` window edge
//!   (dropout, flood, accuracy dip) becomes an event that updates the
//!   set of active windows.
//!
//! Between events the engine *advances*: a tight loop over the
//! remaining ticks in which every per-tick quantity (the Poisson
//! acceptance limit, `power × dt`, `ips × dt`, the active fault
//! windows, the operating-point scalars) is a hoisted constant. The
//! loop performs the **same floating-point operations and RNG draws in
//! the same order** as the old code — `t += dt` accumulation, queue
//! timestamps, energy and service-credit arithmetic, per-frame fault
//! Bernoullis — so `SimResult`s are bit-identical to the tick loop
//! (pinned by the golden scenario snapshots, the faults-off
//! fingerprints, and `tests/des_equivalence.rs`). What it does *not*
//! do is the old loop's per-tick work: no `OperatingPoint` clone (a
//! heap allocation per tick), no window scans, no `exp(-λ)`, no
//! monitor-deadline compare.

use crate::des::EventQueue;
use crate::fault::{AccuracyFault, CameraDropout, FaultState, StaleFlood};
use crate::sim::{SimConfig, SimResult, TraceSample};
use crate::workload::{poisson_with_limit, WorkloadTrace};
use adapex::runtime::{PointScalars, RuntimeManager};
use rand::rngs::StdRng;
use std::collections::VecDeque;

/// Throughput accounting for one engine run (`SimResult` is kept
/// byte-compatible with the tick loop, so these live outside it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesStats {
    /// Events popped from the DES queue (monitor, settle, rate, fault
    /// toggles), including horizon-expired ones.
    pub events: u64,
    /// Simulated ticks advanced.
    pub ticks: u64,
}

/// Event-time keys are phase-tagged tick indices: `tick * PHASES +
/// phase`. Within one tick, pre-tick events (rate/window changes that
/// apply *to* the tick) order before the settle that ends the tick's
/// service phase, which orders before the monitor decision — exactly
/// the old loop's intra-tick sequence.
const PHASES: u64 = 4;
const PHASE_PRE: u64 = 0;
const PHASE_SETTLE: u64 = 1;
const PHASE_MONITOR: u64 = 2;

fn key(tick: u64, phase: u64) -> u64 {
    tick * PHASES + phase
}

/// `SimConfig::queue_capacity` bounds the frame buffer, it does not size
/// it: the queue is pre-sized to at most this many slots (so the default
/// 8-deep buffer never reallocates) and grows on demand beyond, which
/// lets any `usize` bound run.
const QUEUE_PRESIZE_MAX: usize = 1024;

/// Engine event payloads (entity is always 0: one server per engine;
/// the fleet layer shards whole engines).
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Switch to workload-rate segment `idx` before the keyed tick.
    Rate(usize),
    /// Fault window `idx` of the given kind turns on/off before the
    /// keyed tick.
    Dropout(usize, bool),
    Flood(usize, bool),
    Accuracy(usize, bool),
    /// Reconfiguration downtime elapses during the keyed tick's
    /// service phase. Stale generations (superseded by a later
    /// decision extending the downtime) are ignored.
    ReconfigEnd(u64),
    /// Monitor decision after the keyed tick.
    Monitor,
}

/// Boundary ticks precomputed by replaying the tick clock (`t += dt`
/// from 0), so event times land exactly where the old loop's per-tick
/// float comparisons fired.
struct Boundaries {
    total_ticks: u64,
    /// Ticks per monitor period and the elapsed-time accumulator's
    /// value at the decision (the old loop divided by the accumulated
    /// float, not the nominal period).
    ticks_per_monitor: u64,
    monitor_elapsed: f64,
    /// `(first_tick, rate_index)` segment starts, in tick order.
    rate_marks: Vec<(u64, usize)>,
    /// Fault-window edges `(tick, event)`, in tick order.
    toggles: Vec<(u64, Ev)>,
}

fn precompute(cfg: &SimConfig, trace: &WorkloadTrace, faults: &FaultState) -> Boundaries {
    let dt = cfg.tick_s;
    let duration = cfg.workload.duration_s;
    let plan = faults.plan();

    let n_windows = plan.dropouts.len() + plan.floods.len() + plan.accuracy_faults.len();
    let mut rate_marks = Vec::with_capacity(trace.rates.len() + 1);
    let mut toggles = Vec::with_capacity(2 * n_windows);
    let mut dropout_on = vec![false; plan.dropouts.len()];
    let mut flood_on = vec![false; plan.floods.len()];
    let mut acc_on = vec![false; plan.accuracy_faults.len()];
    let mut rate_idx = usize::MAX;

    let period = trace.config.deviation_period_s;
    let last_rate = trace.rates.len().saturating_sub(1);
    let mut t = 0.0f64;
    let mut tick = 0u64;
    while t < duration {
        // Same index formula as `WorkloadTrace::rate_at`.
        let idx = ((t / period).floor() as usize).min(last_rate);
        if idx != rate_idx {
            rate_marks.push((tick, idx));
            rate_idx = idx;
        }
        if n_windows > 0 {
            for (i, d) in plan.dropouts.iter().enumerate() {
                let on = d.window.contains(t);
                if on != dropout_on[i] {
                    toggles.push((tick, Ev::Dropout(i, on)));
                    dropout_on[i] = on;
                }
            }
            for (i, f) in plan.floods.iter().enumerate() {
                let on = f.window.contains(t);
                if on != flood_on[i] {
                    toggles.push((tick, Ev::Flood(i, on)));
                    flood_on[i] = on;
                }
            }
            for (i, a) in plan.accuracy_faults.iter().enumerate() {
                let on = a.window.contains(t);
                if on != acc_on[i] {
                    toggles.push((tick, Ev::Accuracy(i, on)));
                    acc_on[i] = on;
                }
            }
        }
        t += dt;
        tick += 1;
    }

    // Monitor cadence: replay the accumulator from its post-reset 0.0,
    // no further than the horizon — a period the episode never reaches
    // (the tick loop then never decides) schedules no monitor at all.
    let mut elapsed = 0.0f64;
    let mut ticks_per_monitor = 0u64;
    while ticks_per_monitor <= tick {
        elapsed += dt;
        ticks_per_monitor += 1;
        if elapsed + 1e-9 >= cfg.monitor_period_s {
            break;
        }
    }

    Boundaries {
        total_ticks: tick,
        ticks_per_monitor,
        monitor_elapsed: elapsed,
        rate_marks,
        toggles,
    }
}

/// Replays the old loop's per-tick `remaining -= dt` drain from
/// `start`: returns how many ticks keep `remaining > 0` at tick start
/// and the (≤ 0) residual that carries into the next reconfiguration.
fn drain(start: f64, dt: f64) -> (u64, f64) {
    let mut rem = start;
    let mut ticks = 0u64;
    while rem > 0.0 {
        rem -= dt;
        ticks += 1;
    }
    (ticks, rem)
}

struct Engine<'a> {
    // Hoisted config.
    dt: f64,
    queue_capacity: usize,
    reconfig_nominal_s: f64,
    rp_dt: f64,
    monitor_elapsed: f64,
    staleness_ms: Option<f64>,
    total_ticks: u64,
    ticks_per_monitor: u64,

    // Workload stream and the current rate segment.
    rng: &'a mut StdRng,
    rate: f64,
    poisson_limit: f64,
    poisson_skip: bool,

    // Fault state: the plan's windows (copied so the winner scan
    // doesn't fight the `&mut` fault stream), per-window activity, and
    // the resolved winners the hot loop reads.
    faults: &'a mut FaultState,
    dropouts: Vec<CameraDropout>,
    floods: Vec<StaleFlood>,
    accuracy_faults: Vec<AccuracyFault>,
    dropout_on: Vec<bool>,
    flood_on: Vec<bool>,
    acc_on: Vec<bool>,
    active_dropout: Option<f64>,
    active_flood_mult: Option<f64>,
    active_flood_lambda: f64,
    active_acc: Option<f64>,

    // Operating-point scalars, refreshed at decision/settle events.
    point: PointScalars,
    p_dt: f64,
    ips_dt: f64,
    idle_cap: f64,

    // Clock.
    tick_next: u64,
    t_next: f64,
    t_cur: f64,

    // Reconfiguration bookkeeping. `residual` is the ≤ 0 leftover of
    // the last drain (the old loop's `reconfig_remaining_s` between
    // reconfigurations — the next downtime is *added to* it).
    in_reconfig: bool,
    remaining_start: f64,
    reconfig_start_tick: u64,
    pending_residual: f64,
    residual: f64,
    aborting: bool,
    reconfig_gen: u64,

    // Accumulators (identical to the tick loop's).
    queue: VecDeque<f64>,
    offered: usize,
    processed: usize,
    lost: usize,
    queue_high_water: usize,
    accuracy_sum: f64,
    latency_sum_ms: f64,
    service_sum_ms: f64,
    energy_j: f64,
    service_credit: f64,
    monitor_arrivals: usize,
    samples: Vec<TraceSample>,
}

impl Engine<'_> {
    /// Advances the tick clock through ticks `[tick_next, to)`,
    /// reproducing the old loop's arrival and service phases
    /// operation-for-operation.
    ///
    /// Everything the loop touches is hoisted into locals up front and
    /// written back once at the end: field accesses through `&mut self`
    /// alias the `&mut` RNG/fault references, so the compiler would
    /// otherwise reload and spill every accumulator on every tick.
    /// Mode flags (`in_reconfig`, the active fault windows, the rate
    /// segment) only change *at events*, so within one advance they are
    /// genuine constants. The per-processed-frame accuracy is likewise
    /// constant — `(accuracy − delta).max(0.0)` of constants — and is
    /// computed once (same bits as the old per-frame evaluation).
    fn advance(&mut self, to: u64) {
        let to = to.min(self.total_ticks);
        if self.tick_next >= to {
            return;
        }
        let n = to - self.tick_next;
        let dt = self.dt;
        let queue_capacity = self.queue_capacity;
        let poisson_skip = self.poisson_skip;
        let poisson_limit = self.poisson_limit;
        let active_dropout = self.active_dropout;
        let flood = self.active_flood_mult.is_some();
        let flood_lambda = self.active_flood_lambda;
        let staleness_ms = self.staleness_ms;
        let in_reconfig = self.in_reconfig;
        let rp_dt = self.rp_dt;
        let p_dt = self.p_dt;
        let ips_dt = self.ips_dt;
        let idle_cap = self.idle_cap;
        let acc_per_frame = match self.active_acc {
            Some(delta) => (self.point.accuracy - delta).max(0.0),
            None => self.point.accuracy,
        };
        let lat_ms = self.point.avg_latency_ms;

        let mut t_cur = self.t_cur;
        let mut t = self.t_next;
        let mut offered = self.offered;
        let mut monitor_arrivals = self.monitor_arrivals;
        let mut lost = self.lost;
        let mut queue_high_water = self.queue_high_water;
        let mut processed = self.processed;
        let mut energy_j = self.energy_j;
        let mut credit = self.service_credit;
        let mut accuracy_sum = self.accuracy_sum;
        let mut latency_sum_ms = self.latency_sum_ms;
        let mut service_sum_ms = self.service_sum_ms;

        let rng = &mut *self.rng;
        let faults = &mut *self.faults;
        let queue = &mut self.queue;

        for _ in 0..n {
            // --- Arrivals. ---------------------------------------
            let produced = if poisson_skip {
                0
            } else {
                poisson_with_limit(poisson_limit, rng)
            };
            let mut arrivals = produced;
            if produced > 0 {
                if let Some(fraction) = active_dropout {
                    arrivals -= faults.dropped_frames(fraction, produced);
                }
            }
            if flood {
                arrivals += faults.flood_extra(flood_lambda);
            }
            offered += arrivals;
            monitor_arrivals += arrivals;
            for _ in 0..arrivals {
                if queue.len() >= queue_capacity {
                    lost += 1;
                } else {
                    queue.push_back(t);
                    queue_high_water = queue_high_water.max(queue.len());
                }
            }

            // --- Service (or reconfiguration downtime). ----------
            if in_reconfig {
                energy_j += rp_dt;
                credit = 0.0;
            } else {
                energy_j += p_dt;
                credit += ips_dt;
                while credit >= 1.0 {
                    let Some(arrived_at) = queue.pop_front() else {
                        credit = credit.min(idle_cap);
                        break;
                    };
                    if let Some(limit_ms) = staleness_ms {
                        if (t - arrived_at) * 1_000.0 > limit_ms {
                            lost += 1;
                            faults.counters.stale_discarded += 1;
                            continue;
                        }
                    }
                    credit -= 1.0;
                    processed += 1;
                    accuracy_sum += acc_per_frame;
                    latency_sum_ms += (t - arrived_at) * 1_000.0 + lat_ms;
                    service_sum_ms += lat_ms;
                }
            }

            t_cur = t;
            t += dt;
        }

        self.tick_next = to;
        self.t_cur = t_cur;
        self.t_next = t;
        self.offered = offered;
        self.monitor_arrivals = monitor_arrivals;
        self.lost = lost;
        self.queue_high_water = queue_high_water;
        self.processed = processed;
        self.energy_j = energy_j;
        self.service_credit = credit;
        self.accuracy_sum = accuracy_sum;
        self.latency_sum_ms = latency_sum_ms;
        self.service_sum_ms = service_sum_ms;
    }

    fn refresh_point(&mut self, manager: &RuntimeManager) {
        self.point = manager
            .current_point_scalars()
            .expect("decide ran at t=0");
        self.p_dt = self.point.power_w * self.dt;
        self.ips_dt = self.point.ips * self.dt;
        self.idle_cap = self.ips_dt + 1.0;
    }

    /// Recomputes the winning dropout window (the old loop's
    /// first-match `find` over the plan, evaluated at window edges
    /// instead of every tick).
    fn refresh_dropout(&mut self) {
        self.active_dropout = self
            .dropouts
            .iter()
            .zip(&self.dropout_on)
            .find(|(d, &on)| on && d.fraction > 0.0)
            .map(|(d, _)| d.fraction);
    }

    fn refresh_flood(&mut self) {
        self.active_flood_mult = self
            .floods
            .iter()
            .zip(&self.flood_on)
            .find(|(f, &on)| on && f.multiplier > 1.0)
            .map(|(f, _)| f.multiplier);
        // Same λ expression as the polling hook: (mult − 1) · rate · dt.
        self.active_flood_lambda = match self.active_flood_mult {
            Some(mult) => (mult - 1.0) * self.rate * self.dt,
            None => 0.0,
        };
    }

    fn refresh_accuracy(&mut self) {
        self.active_acc = self
            .accuracy_faults
            .iter()
            .zip(&self.acc_on)
            .find(|(_, &on)| on)
            .map(|(a, _)| a.delta);
    }

    fn set_rate(&mut self, rate: f64) {
        self.rate = rate;
        let lambda = rate * self.dt;
        if lambda <= 0.0 {
            self.poisson_skip = true;
        } else {
            self.poisson_skip = false;
            self.poisson_limit = (-lambda).exp();
        }
        if self.active_flood_mult.is_some() {
            self.refresh_flood();
        }
    }

    /// `reconfig_remaining_s` as the old loop would see it at the
    /// monitor of `tick`: the ≤ 0 residual between reconfigurations,
    /// or — mid-downtime — the start value minus one `dt` per elapsed
    /// reconfiguration tick, subtracted sequentially.
    fn remaining_at(&self, tick: u64) -> f64 {
        if !self.in_reconfig {
            return self.residual;
        }
        let mut rem = self.remaining_start;
        for _ in self.reconfig_start_tick..=tick {
            rem -= self.dt;
        }
        rem
    }

    fn on_monitor(
        &mut self,
        manager: &mut RuntimeManager,
        events: &mut EventQueue<Ev>,
        tick: u64,
    ) {
        let observed_ips = self.monitor_arrivals as f64 / self.monitor_elapsed;
        let decision = manager.decide(observed_ips);
        if decision.reconfig {
            let outcome = self.faults.reconfig_outcome(self.reconfig_nominal_s);
            let start = self.remaining_at(tick) + outcome.downtime_s;
            self.aborting = outcome.aborted;
            if start > 0.0 {
                let (ticks, residual) = drain(start, self.dt);
                self.in_reconfig = true;
                self.remaining_start = start;
                self.reconfig_start_tick = tick + 1;
                self.pending_residual = residual;
                self.reconfig_gen += 1;
                events.schedule(key(tick + ticks, PHASE_SETTLE), 0, Ev::ReconfigEnd(self.reconfig_gen));
            } else {
                // Zero-downtime outcome on a non-positive residual: the
                // old loop's `remaining > 0` guard never trips, so the
                // attempt occupies no ticks and never settles (the
                // abort flag lingers until the next settle). Preserved
                // verbatim.
                self.residual = start;
            }
        }
        if decision.degraded {
            self.faults.counters.degraded_periods += 1;
            self.faults.counters.time_degraded_s += self.monitor_elapsed;
        }
        let entry = &manager.library().entries[decision.entry];
        self.samples.push(TraceSample {
            t: self.t_cur,
            workload_ips: observed_ips,
            pruning_rate: entry.achieved_rate,
            confidence_threshold: decision.threshold,
            accuracy: entry.points[decision.point].accuracy,
            queue_len: self.queue.len(),
            degraded: decision.degraded,
            backoff_remaining: manager.backoff_remaining(),
        });
        self.monitor_arrivals = 0;
        self.refresh_point(manager);
        let next = tick + self.ticks_per_monitor;
        if next < self.total_ticks {
            events.schedule(key(next, PHASE_MONITOR), 0, Ev::Monitor);
        }
    }

    fn on_reconfig_end(&mut self, manager: &mut RuntimeManager, gen: u64) {
        if !self.in_reconfig || gen != self.reconfig_gen {
            return; // superseded by a later extension
        }
        self.in_reconfig = false;
        self.residual = self.pending_residual;
        if self.aborting {
            manager.reconfig_aborted();
            self.aborting = false;
        } else {
            manager.reconfig_completed();
        }
        self.refresh_point(manager);
    }
}

/// Runs one episode on the event engine. Bit-identical to
/// `EdgeSimulation::run_tick_reference` by construction (see module
/// docs).
pub(crate) fn run(
    cfg: &SimConfig,
    manager: &mut RuntimeManager,
    trace: &WorkloadTrace,
    rng: &mut StdRng,
    faults: &mut FaultState,
) -> (SimResult, DesStats) {
    let dt = cfg.tick_s;
    let duration = cfg.workload.duration_s;

    // Initial decision from the nominal rate (deployment-time sizing),
    // then counter baselines — same order as the tick loop.
    manager.decide(cfg.workload.nominal_ips());
    let initial_reconfigs = manager.reconfig_count;
    let initial_ct_changes = manager.ct_change_count;
    let initial_failed = manager.failed_reconfig_count;
    let initial_retries = manager.retry_count;

    let bounds = precompute(cfg, trace, faults);
    let monitor_fires = bounds
        .total_ticks
        .checked_div(bounds.ticks_per_monitor)
        .unwrap_or(0);

    let mut events: EventQueue<Ev> =
        EventQueue::with_capacity(bounds.rate_marks.len() + bounds.toggles.len() + 4);
    for &(tick, idx) in &bounds.rate_marks {
        events.schedule(key(tick, PHASE_PRE), 0, Ev::Rate(idx));
    }
    for &(tick, ev) in &bounds.toggles {
        events.schedule(key(tick, PHASE_PRE), 0, ev);
    }
    if bounds.ticks_per_monitor <= bounds.total_ticks && bounds.total_ticks > 0 {
        events.schedule(key(bounds.ticks_per_monitor - 1, PHASE_MONITOR), 0, Ev::Monitor);
    }

    let plan = faults.plan().clone();
    let mut eng = Engine {
        dt,
        queue_capacity: cfg.queue_capacity,
        reconfig_nominal_s: cfg.reconfig_time_ms / 1_000.0,
        rp_dt: cfg.reconfig_power_w * dt,
        monitor_elapsed: bounds.monitor_elapsed,
        staleness_ms: plan.max_staleness_ms,
        total_ticks: bounds.total_ticks,
        ticks_per_monitor: bounds.ticks_per_monitor,
        rng,
        rate: 0.0,
        poisson_limit: 1.0,
        poisson_skip: true,
        faults,
        dropout_on: vec![false; plan.dropouts.len()],
        flood_on: vec![false; plan.floods.len()],
        acc_on: vec![false; plan.accuracy_faults.len()],
        dropouts: plan.dropouts,
        floods: plan.floods,
        accuracy_faults: plan.accuracy_faults,
        active_dropout: None,
        active_flood_mult: None,
        active_flood_lambda: 0.0,
        active_acc: None,
        point: PointScalars {
            ips: 0.0,
            power_w: 0.0,
            accuracy: 0.0,
            avg_latency_ms: 0.0,
            confidence_threshold: 0.0,
        },
        p_dt: 0.0,
        ips_dt: 0.0,
        idle_cap: 0.0,
        tick_next: 0,
        t_next: 0.0,
        t_cur: 0.0,
        in_reconfig: false,
        remaining_start: 0.0,
        reconfig_start_tick: 0,
        pending_residual: 0.0,
        residual: 0.0,
        aborting: false,
        reconfig_gen: 0,
        queue: VecDeque::with_capacity(cfg.queue_capacity.min(QUEUE_PRESIZE_MAX)),
        offered: 0,
        processed: 0,
        lost: 0,
        queue_high_water: 0,
        accuracy_sum: 0.0,
        latency_sum_ms: 0.0,
        service_sum_ms: 0.0,
        energy_j: 0.0,
        service_credit: 0.0,
        monitor_arrivals: 0,
        samples: Vec::with_capacity(monitor_fires as usize),
    };
    eng.refresh_point(manager);

    while let Some(ev) = events.pop() {
        let tick = ev.time / PHASES;
        let phase = ev.time % PHASES;
        if tick >= eng.total_ticks {
            continue; // beyond the episode horizon
        }
        // Pre-tick events apply *to* the keyed tick; settle/monitor
        // events fire after it.
        let to = if phase == PHASE_PRE { tick } else { tick + 1 };
        eng.advance(to);
        match ev.payload {
            Ev::Rate(idx) => eng.set_rate(trace.rates[idx]),
            Ev::Dropout(i, on) => {
                eng.dropout_on[i] = on;
                eng.refresh_dropout();
            }
            Ev::Flood(i, on) => {
                eng.flood_on[i] = on;
                eng.refresh_flood();
            }
            Ev::Accuracy(i, on) => {
                eng.acc_on[i] = on;
                eng.refresh_accuracy();
            }
            Ev::ReconfigEnd(gen) => eng.on_reconfig_end(manager, gen),
            Ev::Monitor => eng.on_monitor(manager, &mut events, tick),
        }
    }
    eng.advance(eng.total_ticks);

    // Requests still queued at the end missed the episode.
    eng.lost += eng.queue.len();

    let mut counters = eng.faults.counters.clone();
    counters.failed_reconfigs = manager.failed_reconfig_count - initial_failed;
    counters.reconfig_retries = manager.retry_count - initial_retries;

    let result = SimResult {
        offered: eng.offered,
        processed: eng.processed,
        lost: eng.lost,
        queue_high_water: eng.queue_high_water,
        mean_accuracy: if eng.processed == 0 {
            0.0
        } else {
            eng.accuracy_sum / eng.processed as f64
        },
        mean_power_w: eng.energy_j / duration,
        mean_latency_ms: if eng.processed == 0 {
            0.0
        } else {
            eng.latency_sum_ms / eng.processed as f64
        },
        mean_service_latency_ms: if eng.processed == 0 {
            0.0
        } else {
            eng.service_sum_ms / eng.processed as f64
        },
        energy_j: eng.energy_j,
        reconfig_count: manager.reconfig_count - initial_reconfigs,
        ct_change_count: manager.ct_change_count - initial_ct_changes,
        duration_s: duration,
        faults: counters,
        trace: eng.samples,
    };
    let stats = DesStats {
        events: events.processed(),
        ticks: bounds.total_ticks,
    };
    (result, stats)
}
