//! The edge-server engine: segment-level physics on an event queue.
//!
//! The server's parameters only change at a handful of instants — a
//! workload-rate change, a fault-window edge, a monitor decision, a
//! reconfiguration settling — and each is an event on the
//! [`EventQueue`] keyed by tick boundary.
//! Between two events nothing changes, so the engine pays once per
//! *segment*, whatever its length (DESIGN.md §12 has the equations):
//!
//! - one Poisson draw for the frames the cameras produce, one binomial
//!   thinning for an active dropout and one Poisson draw for an active
//!   flood (both from the fault stream, neither when the plan is empty);
//! - the buffer's expected blocking over the segment from
//!   [`FrameBuffer`] — or, past [`CHAIN_MAX_DEPTH`] slots and while the
//!   FPGA reconfigures, plain bounded-queue arithmetic — and one
//!   binomial thinning of the arrivals at that probability;
//! - `processed = admitted − Δbacklog`, energy as `power × length`,
//!   waiting time from the expected backlog.
//!
//! Segment parameters (rate, active windows) are read at the segment's
//! midpoint, event times are tick indices, and every time in seconds is
//! `index × tick_s`: there is no accumulated float clock. Results are a
//! pure function of `(config, manager, spec, seed)`; what the model
//! shares with the tick loop it replaced is distributions, not bits.

use crate::buffer::{tokens, FrameBuffer, CHAIN_MAX_DEPTH};
use crate::des::EventQueue;
use crate::downtime::Downtime;
use crate::fault::FaultState;
use crate::sampling::binomial;
use crate::sim::{SimConfig, SimResult, TraceSample};
use crate::workload::WorkloadTrace;
use adapex::runtime::{PointScalars, RuntimeManager};
use rand::rngs::StdRng;

/// Throughput accounting for one engine run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DesStats {
    /// Events popped from the queue (rate and fault-window edges,
    /// monitor decisions, settles), including horizon-expired ones.
    pub events: u64,
    /// Ticks of virtual time covered: `⌈duration / tick_s⌉`, never 0.
    /// The engine's cost does not depend on it.
    pub ticks: u64,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A workload-rate change or fault-window edge: splits the segment.
    Edge,
    /// Reconfiguration downtime elapses (see [`Downtime`]).
    Settle,
    /// Monitor decision.
    Monitor,
}

/// The first tick boundary at or after `seconds`, absorbing the float
/// noise of `seconds / tick_s` (5.0 / 0.001 must be 5000, not 5001).
fn boundary(seconds: f64, tick_s: f64) -> u64 {
    let x = seconds / tick_s;
    let nearest = x.round();
    if (x - nearest).abs() <= 1e-9 * nearest.abs().max(1.0) {
        nearest as u64
    } else {
        x.ceil() as u64
    }
}

struct Engine<'a> {
    dt: f64,
    depth: usize,
    reconfig_s: f64,
    reconfig_power_w: f64,
    total_ticks: u64,
    /// Ticks between monitor decisions.
    period_ticks: u64,
    trace: &'a WorkloadTrace,
    rng: &'a mut StdRng,
    faults: &'a mut FaultState,

    /// Tick boundary the state below is valid at.
    tick: u64,
    point: PointScalars,
    /// Frames in the buffer.
    backlog: usize,
    /// `Some` while the depth is within [`CHAIN_MAX_DEPTH`].
    buffer: Option<FrameBuffer>,
    downtime: Downtime,

    offered: usize,
    processed: usize,
    lost: usize,
    queue_high_water: usize,
    accuracy_sum: f64,
    latency_sum_ms: f64,
    service_sum_ms: f64,
    energy_j: f64,
    monitor_arrivals: usize,
    samples: Vec<TraceSample>,
}

impl Engine<'_> {
    fn seconds(&self, tick: u64) -> f64 {
        tick as f64 * self.dt
    }

    /// Moves the state across the segment `[self.tick, to)`.
    fn advance(&mut self, to: u64) {
        let to = to.min(self.total_ticks);
        if to <= self.tick {
            return;
        }
        let ticks = to - self.tick;
        let span = self.seconds(ticks);
        let mid = 0.5 * (self.seconds(self.tick) + self.seconds(to));
        let rate = self.trace.rate_at(mid);

        let produced = self.trace.arrivals(mid, span, self.rng);
        let arrivals = produced - self.faults.dropped_at_source(mid, produced)
            + self.faults.flood_arrivals(mid, span, rate);
        self.offered += arrivals;
        self.monitor_arrivals += arrivals;

        let held = self.backlog + arrivals;
        let credits = self.point.ips * self.dt;
        // (frames blocked, frames still buffered, frame·ticks waited)
        let (lost, backlog, waiting) = if self.downtime.since().is_some() {
            // No service: the buffer fills and the rest is lost. The
            // wait is charged at settle, to the frames that survive it.
            self.energy_j += self.reconfig_power_w * span;
            let backlog = held.min(self.depth);
            (held - backlog, backlog, 0.0)
        } else {
            self.energy_j += self.point.power_w * span;
            match &mut self.buffer {
                Some(buffer) => {
                    let mean = (rate * self.faults.load_factor(mid) * self.dt).max(0.0);
                    let (blocked, waiting) = buffer.serve(mean, credits, self.tick, ticks);
                    let p = if blocked > 0.0 { blocked / (mean * ticks as f64) } else { 0.0 };
                    let lost = binomial(arrivals, p, self.rng);
                    let backlog = (buffer.mean_backlog().round() as usize).min(held - lost);
                    (lost, backlog, waiting)
                }
                None => {
                    // Too deep for batch burstiness to matter: fluid.
                    let rest = held.saturating_sub(tokens(credits, self.tick, to));
                    let backlog = rest.min(self.depth);
                    let waiting = 0.5 * (self.backlog + backlog) as f64 * ticks as f64;
                    (rest - backlog, backlog, waiting)
                }
            }
        };
        // What was admitted and is no longer buffered was served.
        let processed = held - lost - backlog;
        let served = processed as f64;
        self.lost += lost;
        self.processed += processed;
        self.accuracy_sum += served * self.faults.delivered_accuracy(mid, self.point.accuracy);
        self.service_sum_ms += served * self.point.avg_latency_ms;
        self.latency_sum_ms += waiting * self.dt * 1e3 + served * self.point.avg_latency_ms;
        self.queue_high_water = if lost > 0 {
            self.depth
        } else {
            self.queue_high_water.max(backlog)
        };
        self.backlog = backlog;
        self.tick = to;
    }

    fn on_monitor(&mut self, manager: &mut RuntimeManager, events: &mut EventQueue<Ev>) {
        let elapsed = self.seconds(self.period_ticks);
        let observed_ips = self.monitor_arrivals as f64 / elapsed;
        let decision = manager.decide(observed_ips);
        if decision.reconfig {
            let outcome = self.faults.reconfig_outcome(self.reconfig_s);
            let length = boundary(outcome.downtime_s, self.dt);
            // Scheduled before the next monitor, so a settle on a
            // monitor boundary is seen by that decision.
            events.schedule(self.downtime.begin(self.tick, length, outcome.aborted), Ev::Settle);
        }
        if decision.degraded {
            self.faults.counters.degraded_periods += 1;
            self.faults.counters.time_degraded_s += elapsed;
        }
        let entry = &manager.library().entries[decision.entry];
        self.samples.push(TraceSample {
            t: self.seconds(self.tick),
            workload_ips: observed_ips,
            pruning_rate: entry.achieved_rate,
            confidence_threshold: decision.threshold,
            accuracy: entry.points[decision.point].accuracy,
            queue_len: self.backlog,
            degraded: decision.degraded,
            backoff_remaining: manager.backoff_remaining(),
        });
        self.monitor_arrivals = 0;
        self.point = current_point(manager);
        let next = self.tick.saturating_add(self.period_ticks);
        if next <= self.total_ticks {
            events.schedule(next, Ev::Monitor);
        }
    }

    fn on_settle(&mut self, manager: &mut RuntimeManager) {
        let Some(since) = self.downtime.settle(self.tick, manager) else {
            return; // superseded by a later extension
        };
        // The buffer filled in the downtime's first ticks, so its frames
        // are as old as the downtime: all stale or none.
        let (now, then) = (self.seconds(self.tick), self.seconds(since));
        if self.faults.is_stale(now, then) {
            self.lost += self.backlog;
            self.faults.counters.stale_discarded += self.backlog;
            self.backlog = 0;
        } else {
            self.latency_sum_ms += self.backlog as f64 * (now - then) * 1e3;
        }
        if let Some(buffer) = &mut self.buffer {
            buffer.reset(self.backlog);
        }
        self.point = current_point(manager);
    }
}

fn current_point(manager: &RuntimeManager) -> PointScalars {
    manager
        .current_point_scalars()
        .expect("the episode opens with a decision")
}

/// Runs one episode.
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
    // then counter baselines.
    manager.decide(cfg.workload.nominal_ips());
    let initial_reconfigs = manager.reconfig_count;
    let initial_ct_changes = manager.ct_change_count;
    let initial_failed = manager.failed_reconfig_count;
    let initial_retries = manager.retry_count;

    let total_ticks = boundary(duration.max(0.0), dt);
    // The monitor fires on the first boundary within 1 ns of its period.
    let period_ticks = boundary(cfg.monitor_period_s - 1e-9, dt).max(1);

    let plan = faults.plan();
    let windows = plan
        .dropouts
        .iter()
        .map(|d| d.window)
        .chain(plan.floods.iter().map(|f| f.window))
        .chain(plan.accuracy_faults.iter().map(|a| a.window));
    let edges = (1..trace.rates.len())
        .map(|i| i as f64 * trace.config.deviation_period_s)
        .chain(windows.flat_map(|w| [w.start_s, w.end_s]))
        .map(|seconds| boundary(seconds, dt))
        .filter(|&tick| 0 < tick && tick < total_ticks);
    let mut events: EventQueue<Ev> = EventQueue::with_capacity(
        trace.rates.len()
            + 2 * (plan.dropouts.len() + plan.floods.len() + plan.accuracy_faults.len())
            + 2,
    );
    for tick in edges {
        events.schedule(tick, Ev::Edge);
    }
    if period_ticks <= total_ticks {
        events.schedule(period_ticks, Ev::Monitor);
    }

    let mut eng = Engine {
        dt,
        depth: cfg.queue_capacity,
        reconfig_s: cfg.reconfig_time_ms / 1_000.0,
        reconfig_power_w: cfg.reconfig_power_w,
        total_ticks,
        period_ticks,
        trace,
        rng,
        faults,
        tick: 0,
        point: current_point(manager),
        backlog: 0,
        buffer: (cfg.queue_capacity <= CHAIN_MAX_DEPTH).then(|| FrameBuffer::new(cfg.queue_capacity)),
        downtime: Downtime::default(),
        offered: 0,
        processed: 0,
        lost: 0,
        queue_high_water: 0,
        accuracy_sum: 0.0,
        latency_sum_ms: 0.0,
        service_sum_ms: 0.0,
        energy_j: 0.0,
        monitor_arrivals: 0,
        samples: Vec::with_capacity((total_ticks / period_ticks) as usize),
    };

    while let Some(ev) = events.pop() {
        if ev.time > total_ticks {
            continue; // beyond the episode horizon
        }
        eng.advance(ev.time);
        match ev.payload {
            Ev::Edge => {}
            Ev::Settle => eng.on_settle(manager),
            Ev::Monitor => eng.on_monitor(manager, &mut events),
        }
    }
    eng.advance(total_ticks);

    // Requests still queued at the end missed the episode.
    eng.lost += eng.backlog;

    let mut counters = eng.faults.counters.clone();
    counters.failed_reconfigs = manager.failed_reconfig_count - initial_failed;
    counters.reconfig_retries = manager.retry_count - initial_retries;

    let per_processed = |sum: f64| if eng.processed == 0 { 0.0 } else { sum / eng.processed as f64 };
    let result = SimResult {
        offered: eng.offered,
        processed: eng.processed,
        lost: eng.lost,
        queue_high_water: eng.queue_high_water,
        mean_accuracy: per_processed(eng.accuracy_sum),
        mean_power_w: if duration > 0.0 { eng.energy_j / duration } else { 0.0 },
        mean_latency_ms: per_processed(eng.latency_sum_ms),
        mean_service_latency_ms: per_processed(eng.service_sum_ms),
        energy_j: eng.energy_j,
        reconfig_count: manager.reconfig_count - initial_reconfigs,
        ct_change_count: manager.ct_change_count - initial_ct_changes,
        duration_s: duration,
        faults: counters,
        trace: eng.samples,
    };
    let stats = DesStats {
        events: events.processed(),
        ticks: total_ticks.max(1),
    };
    (result, stats)
}
