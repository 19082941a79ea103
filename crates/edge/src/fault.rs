//! Deterministic fault injection for the edge simulation.
//!
//! Real adaptive-reconfiguration deployments see faults the paper's
//! fault-free model ignores: partial-reconfiguration timeouts and
//! aborts, cameras going offline, bursty floods of stale frames beyond
//! the ±30 % workload envelope, and transient accuracy degradation on
//! the active accelerator (sensor noise, lighting, drift). A
//! [`FaultPlan`] describes such a fault scenario declaratively; the
//! simulator replays it deterministically.
//!
//! # Determinism
//!
//! Every random fault draw (abort/overrun coin flips, dropout
//! thinnings, flood arrival counts) comes from a **dedicated RNG stream**
//! seeded from `plan.seed` mixed with the episode seed — never from the
//! workload stream — and an empty plan performs no draws at all, which
//! is what makes a fault-free run byte-identical to the plain simulator
//! (pinned by `tests/fault_injection_determinism.rs`). The hooks are
//! asked once per segment between events, at a time inside the segment:
//! every window edge is an event, so the answer holds for all of it.
//! (Those edges re-segment the episode, so a plan with windows shares
//! its clean twin's rate trace but not its arrival draws.)

use crate::sampling::{binomial, poisson};
use adapex_tensor::rng::{derive_stream, rng_from_seed};
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// Stream salt for the per-episode fault RNG (see
/// `adapex_tensor::rng::derive_stream`); the derived seed is
/// bit-identical to the original PR 5 longhand recipe, which the golden
/// fault scenarios pin.
pub const FAULT_STREAM_SALT: u64 = 0xFA17_AB1E;

/// Largest downtime multiplier [`FaultPlan::validate`] accepts: a
/// million nominal reconfigurations outlast any episode, and beyond it
/// a factor is a typo, not a fault model.
const MAX_DOWNTIME_FACTOR: f64 = 1e6;

/// A half-open time window `[start_s, end_s)` in episode seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultWindow {
    /// Window start (inclusive), seconds.
    pub start_s: f64,
    /// Window end (exclusive), seconds.
    pub end_s: f64,
}

impl FaultWindow {
    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start_s && t < self.end_s
    }
}

/// A camera-dropout episode: during the window, each produced frame is
/// lost at the source with probability `fraction` (cameras offline or
/// uplink congested). Dropped frames never reach the server — they are
/// accounted as [`FaultCounters::dropped_by_fault`], not as offered
/// load, so QoE stays comparable across plans.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CameraDropout {
    /// When the dropout is active.
    pub window: FaultWindow,
    /// Per-frame loss probability in `[0, 1]`.
    pub fraction: f64,
}

/// A stale-frame flood: during the window, cameras re-send backlogged
/// frames so the offered rate is multiplied by `multiplier` (> 1) —
/// a burst beyond the paper's ±30 % envelope. The extra arrivals are
/// Poisson at `(multiplier − 1) × rate`, drawn from the fault stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct StaleFlood {
    /// When the flood is active.
    pub window: FaultWindow,
    /// Offered-rate multiplier (≥ 1; 2.0 doubles the load).
    pub multiplier: f64,
}

/// Transient accuracy degradation on the active entry (sensor noise,
/// lighting change, distribution drift): inferences completed inside
/// the window deliver `accuracy − delta` (clamped at 0).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AccuracyFault {
    /// When the degradation is active.
    pub window: FaultWindow,
    /// Absolute accuracy loss while active.
    pub delta: f64,
}

/// A declarative, seeded, serializable fault scenario.
///
/// The default value (= [`FaultPlan::none`]) injects nothing and the
/// simulator's fault hooks reduce to no-ops, byte-identical to the
/// fault-free code path. Every field may be omitted from a plan file,
/// so a misspelt key would silently run fault-free: the plan and the
/// structs inside it reject unknown keys instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FaultPlan {
    /// Seed of the dedicated fault RNG stream (mixed with the episode
    /// seed, so repetitions see independent but reproducible draws).
    #[serde(default)]
    pub seed: u64,
    /// Probability that a decided reconfiguration aborts: the FPGA
    /// burns `abort_fraction` of the nominal downtime, then the old
    /// bitstream is left loaded and the switch never happens.
    #[serde(default)]
    pub reconfig_failure_prob: f64,
    /// Fraction of the nominal downtime wasted by an aborted
    /// reconfiguration before the failure is detected. A partial plan
    /// that omits it gets 0.0 — aborts detected instantly.
    #[serde(default)]
    pub reconfig_abort_fraction: f64,
    /// Probability that a (non-aborted) reconfiguration overruns.
    #[serde(default)]
    pub reconfig_overrun_prob: f64,
    /// Downtime multiplier for an overrun reconfiguration (k× nominal).
    #[serde(default)]
    pub reconfig_overrun_factor: f64,
    /// Camera-dropout episodes.
    #[serde(default)]
    pub dropouts: Vec<CameraDropout>,
    /// Stale-frame flood episodes.
    #[serde(default)]
    pub floods: Vec<StaleFlood>,
    /// Transient accuracy-degradation episodes.
    #[serde(default)]
    pub accuracy_faults: Vec<AccuracyFault>,
    /// Frames that waited in the buffer longer than this are discarded
    /// at service time instead of being processed (stale-frame
    /// admission control). `None` disables the check.
    #[serde(default)]
    pub max_staleness_ms: Option<f64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, draws nothing.
    pub const fn none() -> Self {
        FaultPlan {
            seed: 0,
            reconfig_failure_prob: 0.0,
            reconfig_abort_fraction: 1.0,
            reconfig_overrun_prob: 0.0,
            reconfig_overrun_factor: 1.0,
            dropouts: Vec::new(),
            floods: Vec::new(),
            accuracy_faults: Vec::new(),
            max_staleness_ms: None,
        }
    }

    /// Whether the plan injects any fault at all.
    pub fn is_none(&self) -> bool {
        self.reconfig_failure_prob <= 0.0
            && self.reconfig_overrun_prob <= 0.0
            && self.dropouts.is_empty()
            && self.floods.is_empty()
            && self.accuracy_faults.is_empty()
            && self.max_staleness_ms.is_none()
    }

    /// The canned plan used by CI, the fault bench and the golden
    /// scenario suite: frequent reconfiguration aborts and overruns, a
    /// mid-run stale-frame flood stacked on a camera dropout, a
    /// transient accuracy dip, and stale-frame admission control. Sized
    /// for the paper's 25 s episode.
    pub fn canned() -> Self {
        FaultPlan {
            seed: 0xFA_17,
            reconfig_failure_prob: 0.60,
            reconfig_abort_fraction: 1.0,
            reconfig_overrun_prob: 0.50,
            reconfig_overrun_factor: 4.0,
            dropouts: vec![CameraDropout {
                window: FaultWindow {
                    start_s: 18.0,
                    end_s: 21.0,
                },
                fraction: 0.5,
            }],
            floods: vec![StaleFlood {
                window: FaultWindow {
                    start_s: 8.0,
                    end_s: 11.0,
                },
                multiplier: 1.8,
            }],
            accuracy_faults: vec![AccuracyFault {
                window: FaultWindow {
                    start_s: 12.0,
                    end_s: 15.0,
                },
                delta: 0.05,
            }],
            max_staleness_ms: Some(250.0),
        }
    }

    /// Rejects values no replay can honour (scenario files and the CLI's
    /// `--faults` loader call this): probabilities and dropout fractions
    /// outside `[0, 1]`, negative or non-finite factors, multipliers and
    /// staleness bounds, downtime factors above 10⁶ (a typo, not a fault),
    /// and windows that are non-finite or end before they start.
    ///
    /// # Errors
    ///
    /// Names the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        const UNIT: &str = "must be in [0, 1]";
        const FACTOR: &str = "must be in [0, 1e6]";
        const MAGNITUDE: &str = "must be finite and >= 0";
        const FINITE: &str = "must be finite";
        const WINDOW: &str = "must be finite with start_s <= end_s";
        let unit = |x: f64| (0.0..=1.0).contains(&x);
        let factor = |x: f64| (0.0..=MAX_DOWNTIME_FACTOR).contains(&x);
        let magnitude = |x: f64| x.is_finite() && x >= 0.0;
        let window =
            |w: &FaultWindow| w.start_s.is_finite() && w.end_s.is_finite() && w.start_s <= w.end_s;
        let checks = [
            (unit(self.reconfig_failure_prob), "reconfig_failure_prob", UNIT),
            (unit(self.reconfig_overrun_prob), "reconfig_overrun_prob", UNIT),
            (factor(self.reconfig_abort_fraction), "reconfig_abort_fraction", FACTOR),
            (factor(self.reconfig_overrun_factor), "reconfig_overrun_factor", FACTOR),
            (self.dropouts.iter().all(|d| window(&d.window)), "dropouts[].window", WINDOW),
            (self.dropouts.iter().all(|d| unit(d.fraction)), "dropouts[].fraction", UNIT),
            (self.floods.iter().all(|f| window(&f.window)), "floods[].window", WINDOW),
            (self.floods.iter().all(|f| magnitude(f.multiplier)), "floods[].multiplier", MAGNITUDE),
            (self.accuracy_faults.iter().all(|a| window(&a.window)), "accuracy_faults[].window", WINDOW),
            (self.accuracy_faults.iter().all(|a| a.delta.is_finite()), "accuracy_faults[].delta", FINITE),
            (self.max_staleness_ms.is_none_or(magnitude), "max_staleness_ms", MAGNITUDE),
        ];
        match checks.iter().find(|(ok, ..)| !ok) {
            Some((_, field, want)) => Err(format!("faults: {field} {want}")),
            None => Ok(()),
        }
    }

    /// Serializes the plan to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the file cannot be written.
    pub fn save_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a plan from JSON. Missing fields default to no-fault
    /// values, so a partial plan (just `{"floods": [...]}`) is valid.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the file cannot be read or parsed.
    pub fn load_json(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(io::Error::other)
    }
}

/// Outcome of one reconfiguration attempt under the active plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigOutcome {
    /// FPGA downtime for this attempt, seconds.
    pub downtime_s: f64,
    /// The attempt aborts: after the downtime the old bitstream is
    /// still loaded.
    pub aborted: bool,
}

/// Per-event fault accounting carried in
/// [`SimResult`](crate::SimResult); all zeros on a fault-free run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Reconfiguration attempts that aborted (old bitstream kept).
    #[serde(default)]
    pub failed_reconfigs: usize,
    /// Reconfiguration attempts that overran their nominal downtime.
    #[serde(default)]
    pub overrun_reconfigs: usize,
    /// Reconfiguration attempts made while recovering from ≥ 1 failure.
    #[serde(default)]
    pub reconfig_retries: usize,
    /// Monitor periods the manager spent in degraded mode (no library
    /// entry met the accuracy floor at the observed load).
    #[serde(default)]
    pub degraded_periods: usize,
    /// Wall-clock time spent in degraded mode, seconds.
    #[serde(default)]
    pub time_degraded_s: f64,
    /// Frames lost at the source by camera dropouts (never offered).
    #[serde(default)]
    pub dropped_by_fault: usize,
    /// Extra arrivals injected by stale-frame floods.
    #[serde(default)]
    pub flood_arrivals: usize,
    /// Buffered frames discarded as stale at service time.
    #[serde(default)]
    pub stale_discarded: usize,
}

impl FaultCounters {
    /// `true` when no fault event of any kind was recorded.
    pub fn is_clean(&self) -> bool {
        *self == FaultCounters::default()
    }
}

/// Per-episode fault replay state: the plan, its dedicated RNG stream
/// and the episode's counters.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
    /// Counters accumulated by the simulator during the episode.
    pub counters: FaultCounters,
}

impl FaultState {
    /// Fault replay for one episode. The stream is a pure function of
    /// `(plan.seed, episode_seed)` and is independent of the workload
    /// stream by construction.
    pub fn new(plan: &FaultPlan, episode_seed: u64) -> Self {
        FaultState {
            plan: plan.clone(),
            rng: rng_from_seed(derive_stream(plan.seed, episode_seed, FAULT_STREAM_SALT)),
            counters: FaultCounters::default(),
        }
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The per-frame loss probability of the dropout active at `t`, if
    /// any (first match in plan order — overlapping windows do not
    /// compose).
    pub(crate) fn dropout_at(&self, t: f64) -> Option<f64> {
        self.plan
            .dropouts
            .iter()
            .find(|d| d.window.contains(t) && d.fraction > 0.0)
            .map(|d| d.fraction)
    }

    /// The flood multiplier active at `t`, if any (first match in plan
    /// order).
    pub(crate) fn flood_at(&self, t: f64) -> Option<f64> {
        self.plan
            .floods
            .iter()
            .find(|f| f.window.contains(t) && f.multiplier > 1.0)
            .map(|f| f.multiplier)
    }

    /// The largest multiplier any flood window can return: the envelope
    /// a thinned arrival process runs under.
    pub(crate) fn peak_flood(&self) -> f64 {
        self.plan.floods.iter().map(|f| f.multiplier).fold(1.0, f64::max)
    }

    /// Mean offered load at `t` per unit of produced load: what the
    /// active dropout leaves plus what the active flood adds.
    pub fn load_factor(&self, t: f64) -> f64 {
        1.0 - self.dropout_at(t).unwrap_or(0.0) + self.flood_at(t).map_or(0.0, |m| m - 1.0)
    }

    /// How many of `produced` frames the dropout active at `t` loses at
    /// the source: one binomial thinning while a dropout window is
    /// active, no draw otherwise.
    pub fn dropped_at_source(&mut self, t: f64, produced: usize) -> usize {
        let Some(fraction) = self.dropout_at(t) else {
            return 0;
        };
        let dropped = binomial(produced, fraction, &mut self.rng);
        self.counters.dropped_by_fault += dropped;
        dropped
    }

    /// Extra stale-frame arrivals the flood active at `t` injects over
    /// `dt` seconds on top of the base `rate`: one Poisson draw, zero
    /// (and no draw) when no flood window is active.
    pub fn flood_arrivals(&mut self, t: f64, dt: f64, rate: f64) -> usize {
        let Some(multiplier) = self.flood_at(t) else {
            return 0;
        };
        let extra = poisson((multiplier - 1.0) * rate * dt, &mut self.rng);
        self.counters.flood_arrivals += extra;
        extra
    }

    /// Resolves one reconfiguration attempt against the plan. With no
    /// reconfiguration faults configured this returns the nominal
    /// downtime without touching the RNG.
    pub fn reconfig_outcome(&mut self, nominal_s: f64) -> ReconfigOutcome {
        let plan = &self.plan;
        if plan.reconfig_failure_prob > 0.0 && self.rng.random_bool(plan.reconfig_failure_prob) {
            self.counters.failed_reconfigs += 1;
            let downtime_s = nominal_s * plan.reconfig_abort_fraction;
            return ReconfigOutcome { downtime_s, aborted: true };
        }
        if plan.reconfig_overrun_prob > 0.0 && self.rng.random_bool(plan.reconfig_overrun_prob) {
            self.counters.overrun_reconfigs += 1;
            let downtime_s = nominal_s * plan.reconfig_overrun_factor;
            return ReconfigOutcome { downtime_s, aborted: false };
        }
        ReconfigOutcome { downtime_s: nominal_s, aborted: false }
    }

    /// Delivered accuracy at time `t` for a frame served by a point of
    /// base accuracy `base`. Returns `base` untouched (bit-identical)
    /// when no degradation window is active.
    pub fn delivered_accuracy(&self, t: f64, base: f64) -> f64 {
        match self
            .plan
            .accuracy_faults
            .iter()
            .find(|a| a.window.contains(t))
        {
            Some(a) => (base - a.delta).max(0.0),
            None => base,
        }
    }

    /// Whether a frame that arrived at `arrived_at` is stale at service
    /// time `t` under the plan's admission bound.
    pub fn is_stale(&self, t: f64, arrived_at: f64) -> bool {
        match self.plan.max_staleness_ms {
            Some(limit_ms) => (t - arrived_at) * 1_000.0 > limit_ms,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none_and_canned_is_not() {
        assert!(FaultPlan::none().is_none());
        assert!(FaultPlan::default().is_none());
        assert!(!FaultPlan::canned().is_none());
    }

    #[test]
    fn empty_plan_hooks_are_noops_and_draw_nothing() {
        let mut s = FaultState::new(&FaultPlan::none(), 0);
        let rng_before = format!("{:?}", s.rng);
        assert_eq!(s.dropped_at_source(1.0, 50), 0);
        assert_eq!(s.flood_arrivals(1.0, 0.001, 600.0), 0);
        let o = s.reconfig_outcome(0.145);
        assert_eq!(o, ReconfigOutcome { downtime_s: 0.145, aborted: false });
        assert_eq!(s.delivered_accuracy(1.0, 0.9).to_bits(), 0.9f64.to_bits());
        assert!(!s.is_stale(10.0, 0.0));
        assert_eq!(format!("{:?}", s.rng), rng_before, "no RNG draw may happen");
        assert!(s.counters.is_clean());
    }

    #[test]
    fn fault_stream_is_seed_deterministic() {
        let plan = FaultPlan::canned();
        let run = |seed: u64| {
            let mut s = FaultState::new(&plan, seed);
            let drops = s.dropped_at_source(18.5, 100);
            let flood = s.flood_arrivals(9.0, 0.01, 600.0);
            let o = s.reconfig_outcome(0.145);
            (drops, flood, o)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "episode seeds decorrelate the stream");
    }

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow { start_s: 5.0, end_s: 10.0 };
        assert!(w.contains(5.0));
        assert!(w.contains(9.999));
        assert!(!w.contains(10.0));
        assert!(!w.contains(4.999));
    }

    #[test]
    fn overlapping_windows_take_the_first_match_in_plan_order() {
        // The rule both twins read windows by: no composition, no max.
        let window = |start_s, end_s| FaultWindow { start_s, end_s };
        let plan = FaultPlan {
            dropouts: vec![
                CameraDropout { window: window(1.0, 3.0), fraction: 0.2 },
                CameraDropout { window: window(2.0, 4.0), fraction: 0.5 },
                CameraDropout { window: window(0.0, 9.0), fraction: 0.0 }, // inert
            ],
            floods: vec![
                StaleFlood { window: window(1.0, 3.0), multiplier: 1.5 },
                StaleFlood { window: window(2.0, 4.0), multiplier: 3.0 },
                StaleFlood { window: window(0.0, 9.0), multiplier: 1.0 }, // inert
            ],
            ..FaultPlan::none()
        };
        let s = FaultState::new(&plan, 1);
        for (t, dropout, flood) in [
            (0.5, None, None),
            (1.5, Some(0.2), Some(1.5)),
            (2.5, Some(0.2), Some(1.5)), // overlap: plan order wins
            (3.5, Some(0.5), Some(3.0)),
            (4.5, None, None),
        ] {
            assert_eq!((s.dropout_at(t), s.flood_at(t)), (dropout, flood), "t = {t}");
        }
        assert_eq!(s.load_factor(2.5), 1.0 - 0.2 + 0.5);
        assert_eq!(s.peak_flood(), 3.0);
        assert_eq!(FaultState::new(&FaultPlan::none(), 0).peak_flood(), 1.0);
    }

    #[test]
    fn validate_accepts_shipped_plans_and_names_the_bad_field() {
        FaultPlan::none().validate().expect("none");
        FaultPlan::canned().validate().expect("canned");
        let window = FaultWindow { start_s: 1.0, end_s: 2.0 };
        type Taint = fn(&mut FaultPlan);
        let bad: [(&str, Taint); 9] = [
            ("reconfig_failure_prob", |p| p.reconfig_failure_prob = 1.5),
            ("reconfig_overrun_prob", |p| p.reconfig_overrun_prob = f64::NAN),
            ("reconfig_abort_fraction", |p| p.reconfig_abort_fraction = -1.0),
            ("reconfig_overrun_factor", |p| p.reconfig_overrun_factor = 1e30),
            ("dropouts[].fraction", |p| p.dropouts[0].fraction = 1.5),
            ("dropouts[].window", |p| p.dropouts[0].window.end_s = 0.0),
            ("floods[].multiplier", |p| p.floods[0].multiplier = f64::INFINITY),
            ("accuracy_faults[].window", |p| p.accuracy_faults[0].window.start_s = f64::NAN),
            ("max_staleness_ms", |p| p.max_staleness_ms = Some(-1.0)),
        ];
        for (field, taint) in bad {
            let mut plan = FaultPlan::canned();
            taint(&mut plan);
            let err = plan.validate().unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
        // An empty window is valid (and inert).
        let mut plan = FaultPlan::none();
        plan.floods.push(StaleFlood { window: FaultWindow { end_s: 1.0, ..window }, multiplier: 0.0 });
        plan.validate().expect("empty window");
    }

    #[test]
    fn accuracy_degradation_applies_only_in_window() {
        let mut plan = FaultPlan::none();
        plan.accuracy_faults.push(AccuracyFault {
            window: FaultWindow { start_s: 2.0, end_s: 4.0 },
            delta: 0.2,
        });
        let s = FaultState::new(&plan, 1);
        assert_eq!(s.delivered_accuracy(3.0, 0.9), 0.9 - 0.2);
        assert_eq!(s.delivered_accuracy(1.0, 0.9).to_bits(), 0.9f64.to_bits());
        assert_eq!(s.delivered_accuracy(3.0, 0.1), 0.0, "clamped at zero");
    }

    #[test]
    fn staleness_bound_uses_milliseconds() {
        let mut plan = FaultPlan::none();
        plan.max_staleness_ms = Some(100.0);
        let s = FaultState::new(&plan, 1);
        assert!(!s.is_stale(1.05, 1.0));
        assert!(s.is_stale(1.2, 1.0));
    }

    #[test]
    fn reconfig_outcomes_cover_abort_and_overrun() {
        let mut plan = FaultPlan::none();
        plan.reconfig_failure_prob = 1.0;
        plan.reconfig_abort_fraction = 0.5;
        let mut s = FaultState::new(&plan, 3);
        let o = s.reconfig_outcome(0.2);
        assert!(o.aborted);
        assert!((o.downtime_s - 0.1).abs() < 1e-12);
        assert_eq!(s.counters.failed_reconfigs, 1);

        let mut plan = FaultPlan::none();
        plan.reconfig_overrun_prob = 1.0;
        plan.reconfig_overrun_factor = 4.0;
        let mut s = FaultState::new(&plan, 3);
        let o = s.reconfig_outcome(0.2);
        assert!(!o.aborted);
        assert!((o.downtime_s - 0.8).abs() < 1e-12);
        assert_eq!(s.counters.overrun_reconfigs, 1);
    }

    #[test]
    fn plan_json_roundtrips_and_partial_plans_parse() {
        let plan = FaultPlan::canned();
        let dir = std::env::temp_dir().join("adapex-fault-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.json");
        plan.save_json(&path).unwrap();
        assert_eq!(FaultPlan::load_json(&path).unwrap(), plan);

        let partial: FaultPlan =
            serde_json::from_str(r#"{"floods":[{"window":{"start_s":1.0,"end_s":2.0},"multiplier":3.0}]}"#)
                .unwrap();
        assert_eq!(partial.floods.len(), 1);
        assert_eq!(partial.reconfig_failure_prob, 0.0);
        assert!(!partial.is_none());
    }
}
