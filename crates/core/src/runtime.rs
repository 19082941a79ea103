//! The runtime manager (paper Sec. IV-B, Fig. 3 right).
//!
//! Whenever the workload monitor flags a change, the manager searches
//! the library for the pruning rate and confidence threshold best
//! matching the observed inference rate under the user's accuracy
//! threshold. Changing the confidence threshold is free; changing the
//! pruning rate means reconfiguring the FPGA (the accelerator is
//! hard-wired to its CNN), so the default policy tries a free threshold
//! move inside the current accelerator first.
//!
//! The manager is one pure transition over a `Copy` state: a monitored
//! load is an observation, and so is the outcome of the in-flight
//! reconfiguration. [`RuntimeManager::decide`] and
//! [`RuntimeManager::settle`] feed it and tally the counters. DESIGN.md
//! §10 has its state diagram and transition table, graceful degradation
//! ([`MitigationConfig`]) and degraded mode included; the test module
//! checks every state reachable from a fresh manager.

use crate::library::{Library, OperatingPoint};
use serde::{Deserialize, Serialize};

/// Accuracy gain (absolute) a reconfiguration must buy before the
/// reconfiguration-aware policy leaves the current accelerator.
pub const RECONFIG_HYSTERESIS: f64 = 0.01;

/// Graceful-degradation rules: [`MitigationConfig::off`] (the paper's
/// fault-free manager, the default) or [`MitigationConfig::recommended`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationConfig {
    /// Relative deadband around the last freely acted-on load inside
    /// which the previous decision is held (0: none).
    ips_deadband: f64,
    /// Decisions after a reconfiguration that may only move the
    /// threshold inside the new accelerator.
    cooldown_periods: u32,
    /// Decisions after a failed reconfiguration that may only move the
    /// threshold, doubling per consecutive failure (0: none).
    backoff_base_periods: u32,
    /// Upper bound on the doubling backoff.
    backoff_max_periods: u32,
}

impl MitigationConfig {
    /// Everything disabled — the paper's fault-free manager.
    pub fn off() -> Self {
        MitigationConfig {
            ips_deadband: 0.0,
            cooldown_periods: 0,
            backoff_base_periods: 0,
            backoff_max_periods: 0,
        }
    }

    /// Tuned defaults for faulty environments: ±10 % deadband, 2-period
    /// cooldown, 4→16-period doubling backoff (periods are monitor
    /// periods, 1 s in the paper's scenario). The backoff starts at 4
    /// because an aborted reconfiguration wastes its full downtime:
    /// when the fabric is rejecting bitstreams, threshold-only retuning
    /// for a few extra periods is cheaper than another likely failure.
    pub fn recommended() -> Self {
        MitigationConfig {
            ips_deadband: 0.10,
            cooldown_periods: 2,
            backoff_base_periods: 4,
            backoff_max_periods: 16,
        }
    }

    /// Whether `ips` lies inside the deadband around `anchor`.
    fn holds(&self, anchor: Option<f64>, ips: f64) -> bool {
        anchor.is_some_and(|a| self.ips_deadband > 0.0 && (ips - a).abs() <= self.ips_deadband * a)
    }

    /// Backoff after the `failures`-th consecutive failed
    /// reconfiguration (`failures >= 1`).
    fn backoff(&self, failures: u32) -> u32 {
        let doubled = u64::from(self.backoff_base_periods) << (failures - 1).min(16);
        doubled.min(u64::from(self.backoff_max_periods)) as u32
    }
}

/// How the manager searches the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// AdaPEx's default: the paper's accuracy-ranked search, with a
    /// reconfiguration-avoidance hysteresis — stay on the current
    /// accelerator (a free confidence-threshold move) unless the best
    /// point elsewhere is more than one accuracy point better or the
    /// current accelerator cannot meet the requirements at all.
    ReconfigAware,
    /// Always take the globally best point (ablation: ignores the
    /// reconfiguration cost).
    Oblivious,
    /// Among accuracy-qualified points, take the fastest (ablation).
    ThroughputGreedy,
    /// Among fast-enough points, take the single most accurate point
    /// (ablation: ignores the paper's mean-exit-accuracy ranking).
    AccuracyGreedy,
}

/// The scalar fields of an operating point that drive a service model
/// (rate, power, quality, latency) — `Copy`, so simulation hot loops
/// can cache them without touching the heap. See
/// [`RuntimeManager::current_point_scalars`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointScalars {
    /// Sustained throughput, inferences/second.
    pub ips: f64,
    /// Board power, watts.
    pub power_w: f64,
    /// Expected accuracy.
    pub accuracy: f64,
    /// Mean pipeline latency, milliseconds.
    pub avg_latency_ms: f64,
    /// The point's confidence threshold.
    pub confidence_threshold: f64,
}

/// One adaptation decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Selected library entry index.
    pub entry: usize,
    /// Selected operating-point index within the entry.
    pub point: usize,
    /// The selected confidence threshold.
    pub threshold: f64,
    /// Whether this decision requires an FPGA reconfiguration (the
    /// entry changed).
    pub reconfig: bool,
    /// Whether the manager is in degraded mode: no library entry met
    /// the accuracy floor at the observed load, so the selection
    /// relaxed to the nearest feasible operating point.
    pub degraded: bool,
    /// The observation fell inside the mitigation deadband and the
    /// previous decision was held without reselection.
    pub held: bool,
}

/// What the manager reacts to. An overrun is `Settled`: it only
/// stretches the downtime.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Observation {
    /// The monitored load, inferences per second.
    Load(f64),
    /// The in-flight reconfiguration completed.
    Settled,
    /// The in-flight reconfiguration failed; the old bitstream is still
    /// loaded.
    Aborted,
}

/// What the manager remembers between observations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct State {
    /// Selected `(entry, point)`; `None` before the first decision.
    current: Option<(usize, usize)>,
    /// The load last acted on freely: the deadband's centre.
    anchor: Option<f64>,
    /// Decisions left restricted to the current entry after a
    /// reconfiguration.
    cooldown: u32,
    /// Decisions left restricted after a failed reconfiguration.
    backoff: u32,
    /// Consecutive failed reconfigurations (drives the doubling).
    failures: u32,
    /// The selection before the in-flight reconfiguration, restored if
    /// it aborts; `Some` exactly while one is in flight.
    pre_reconfig: Option<(usize, usize)>,
    /// No point met the accuracy floor at the last observed load.
    degraded: bool,
}

/// The runtime manager: fixed rules (library, accuracy floor, policy,
/// mitigation), the state its transition evolves, and counters tallied
/// from each transition.
#[derive(Debug, Clone)]
pub struct RuntimeManager {
    library: Library,
    min_accuracy: f64,
    policy: SelectionPolicy,
    mitigation: MitigationConfig,
    /// The highest load a point meeting the floor sustains; decisions
    /// above it, or with no such point, are degraded.
    floor_capacity: Option<f64>,
    state: State,
    /// Total reconfigurations decided so far.
    pub reconfig_count: usize,
    /// Total confidence-threshold-only changes decided so far.
    pub ct_change_count: usize,
    /// Reconfigurations settled as aborted.
    pub failed_reconfig_count: usize,
    /// Reconfigurations decided while recovering from ≥ 1 failure.
    pub retry_count: usize,
}

impl RuntimeManager {
    /// New manager.
    ///
    /// `min_accuracy` is the lowest acceptable early-exit accuracy —
    /// the paper configures it as a maximum loss relative to the
    /// original CNN (10 % in the evaluation), i.e.
    /// `reference_accuracy - 0.10`.
    ///
    /// # Panics
    ///
    /// Panics on an empty library or an entry without operating points.
    pub fn new(library: Library, min_accuracy: f64, policy: SelectionPolicy) -> Self {
        assert!(!library.is_empty(), "runtime manager needs a library");
        if let Some(e) = library.entries.iter().find(|e| e.points.is_empty()) {
            panic!(
                "runtime manager needs an operating point in every entry (entry {} has none)",
                e.id
            );
        }
        let floor_capacity = library
            .design_space()
            .filter(|(_, p)| p.accuracy >= min_accuracy)
            .map(|(_, p)| p.ips)
            .reduce(f64::max);
        RuntimeManager {
            library,
            min_accuracy,
            policy,
            mitigation: MitigationConfig::off(),
            floor_capacity,
            state: State::default(),
            reconfig_count: 0,
            ct_change_count: 0,
            failed_reconfig_count: 0,
            retry_count: 0,
        }
    }

    /// Installs a graceful-degradation configuration.
    pub fn with_mitigation(mut self, mitigation: MitigationConfig) -> Self {
        self.mitigation = mitigation;
        self
    }

    /// Remaining failure-backoff periods (0 when not backing off).
    pub fn backoff_remaining(&self) -> u32 {
        self.state.backoff
    }

    /// The library being searched.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Currently selected `(entry, point)` if a decision was made.
    pub fn current(&self) -> Option<(usize, usize)> {
        self.state.current
    }

    fn current_point(&self) -> Option<&OperatingPoint> {
        self.state
            .current
            .map(|(e, p)| &self.library.entries[e].points[p])
    }

    /// Scalar parameters of the currently selected operating point.
    ///
    /// Event-driven simulation engines hoist these into their inner
    /// loop at every decision/settle boundary (the only places the
    /// selection can change) instead of cloning the full
    /// [`OperatingPoint`] — whose `exit_fractions` vector makes a clone
    /// a per-call heap allocation — on every tick.
    pub fn current_point_scalars(&self) -> Option<PointScalars> {
        self.current_point().map(|p| PointScalars {
            ips: p.ips,
            power_w: p.power_w,
            accuracy: p.accuracy,
            avg_latency_ms: p.avg_latency_ms,
            confidence_threshold: p.confidence_threshold,
        })
    }

    /// Reacts to an observed workload (incoming inferences per second).
    pub fn decide(&mut self, observed_ips: f64) -> Decision {
        self.observe(Observation::Load(observed_ips))
            .expect("a load is always decided")
    }

    /// Reports how the in-flight reconfiguration ended: completed, or
    /// `aborted` with the old bitstream still loaded.
    pub fn settle(&mut self, aborted: bool) {
        self.observe(if aborted {
            Observation::Aborted
        } else {
            Observation::Settled
        });
    }

    /// Applies one transition and tallies the counters from (before,
    /// observation, after).
    fn observe(&mut self, obs: Observation) -> Option<Decision> {
        let before = self.state;
        let (after, decision) = self.step(before, obs);
        let entry = |s: State| s.current.map(|(e, _)| e);
        match obs {
            Observation::Load(_) if before.current.is_none() => {} // deployment-time sizing
            Observation::Load(_) if entry(before) != entry(after) => {
                self.reconfig_count += 1;
                self.retry_count += usize::from(before.failures > 0);
            }
            Observation::Load(_) => {
                self.ct_change_count += usize::from(before.current != after.current)
            }
            Observation::Aborted => self.failed_reconfig_count += 1,
            Observation::Settled => {}
        }
        self.state = after;
        decision
    }

    /// The manager's one transition (DESIGN.md §10): the state after
    /// `obs`, and the decision when `obs` is a load.
    fn step(&self, mut s: State, obs: Observation) -> (State, Option<Decision>) {
        let ips = match obs {
            Observation::Settled => {
                // The fabric demonstrably reconfigures: the failure
                // streak resets and any residual backoff is lifted.
                s.failures = 0;
                s.backoff = 0;
                s.pre_reconfig = None;
                return (s, None);
            }
            Observation::Aborted => {
                // Back to the loaded bitstream; the switch's cooldown is
                // moot, reconfigurations back off, and the next load is
                // decided afresh whatever the deadband says.
                s.current = s.pre_reconfig.take().or(s.current);
                s.failures += 1;
                s.cooldown = 0;
                s.backoff = self.mitigation.backoff(s.failures);
                s.anchor = None;
                return (s, None);
            }
            Observation::Load(ips) => ips,
        };
        // Cooling down or backing off: only the free knob (a threshold
        // move inside the current accelerator) turns.
        let restricted = s.current.filter(|_| s.cooldown > 0 || s.backoff > 0);
        s.cooldown = s.cooldown.saturating_sub(1);
        s.backoff = s.backoff.saturating_sub(1);
        // Degraded mode: nothing meets the floor at this load, so the
        // selection is one of select_among's relaxations.
        s.degraded = self.floor_capacity.is_none_or(|c| c < ips);
        if let Some(held) = s.current.filter(|_| self.mitigation.holds(s.anchor, ips)) {
            return (s, Some(self.decision(held, false, s.degraded, true)));
        }
        let pick = match restricted {
            Some((cur, _)) => self.library.select_among(ips, self.min_accuracy, Some(cur)),
            None => self.policy_pick(ips, s.current),
        }
        .expect("every entry has an operating point");
        let reconfig = s.current.is_some_and(|(entry, _)| entry != pick.0);
        if reconfig {
            s.pre_reconfig = s.current;
            s.cooldown = self.mitigation.cooldown_periods;
        }
        s.current = Some(pick);
        // Only a free decision anchors the deadband: a restricted one
        // would hold a steady overload past its backoff forever.
        if restricted.is_none() {
            s.anchor = Some(ips);
        }
        (s, Some(self.decision(pick, reconfig, s.degraded, false)))
    }

    fn decision(
        &self,
        (entry, point): (usize, usize),
        reconfig: bool,
        degraded: bool,
        held: bool,
    ) -> Decision {
        let threshold = self.library.entries[entry].points[point].confidence_threshold;
        Decision {
            entry,
            point,
            threshold,
            reconfig,
            degraded,
            held,
        }
    }

    /// The unrestricted selection for the configured policy.
    fn policy_pick(
        &self,
        observed_ips: f64,
        current: Option<(usize, usize)>,
    ) -> Option<(usize, usize)> {
        let fallback = || self.library.select(observed_ips, self.min_accuracy);
        match self.policy {
            SelectionPolicy::ReconfigAware => {
                let strict = |only| {
                    self.library
                        .select_strict(observed_ips, self.min_accuracy, only)
                };
                let acc = |(e, p): (usize, usize)| self.library.entries[e].points[p].accuracy;
                match (current.and_then(|(cur, _)| strict(Some(cur))), strict(None)) {
                    // Free threshold move unless the reconfiguration buys
                    // a material accuracy gain.
                    (Some(local), Some(best)) if acc(local) + RECONFIG_HYSTERESIS >= acc(best) => {
                        Some(local)
                    }
                    (local, best) => best.or(local).or_else(fallback),
                }
            }
            SelectionPolicy::Oblivious => fallback(),
            SelectionPolicy::ThroughputGreedy => self.fastest_qualified(),
            SelectionPolicy::AccuracyGreedy => self.most_accurate_fast_enough(observed_ips),
        }
    }

    fn fastest_qualified(&self) -> Option<(usize, usize)> {
        let mut best: Option<(f64, usize, usize)> = None;
        let mut fallback: Option<(f64, usize, usize)> = None;
        for (ei, entry) in self.library.entries.iter().enumerate() {
            for (pi, p) in entry.points.iter().enumerate() {
                if fallback.as_ref().is_none_or(|(ips, _, _)| p.ips > *ips) {
                    fallback = Some((p.ips, ei, pi));
                }
                if p.accuracy < self.min_accuracy {
                    continue;
                }
                if best.as_ref().is_none_or(|(ips, _, _)| p.ips > *ips) {
                    best = Some((p.ips, ei, pi));
                }
            }
        }
        best.or(fallback).map(|(_, ei, pi)| (ei, pi))
    }

    fn most_accurate_fast_enough(&self, observed_ips: f64) -> Option<(usize, usize)> {
        let mut best: Option<(f64, usize, usize)> = None;
        for (ei, entry) in self.library.entries.iter().enumerate() {
            for (pi, p) in entry.points.iter().enumerate() {
                if p.ips < observed_ips {
                    continue;
                }
                if best.as_ref().is_none_or(|(acc, _, _)| p.accuracy > *acc) {
                    best = Some((p.accuracy, ei, pi));
                }
            }
        }
        best.map(|(_, ei, pi)| (ei, pi))
            .or_else(|| self.library.select(observed_ips, self.min_accuracy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::tests::entry;
    use crate::library::LibraryEntry;
    use std::collections::HashSet;

    fn demo_library() -> Library {
        Library {
            entries: vec![
                entry(0, 0.0, 0.85, vec![(0.9, 0.86, 400.0), (0.3, 0.82, 520.0)]),
                entry(1, 0.4, 0.78, vec![(0.9, 0.80, 700.0), (0.3, 0.75, 900.0)]),
                entry(2, 0.8, 0.60, vec![(0.9, 0.62, 1500.0), (0.3, 0.58, 2000.0)]),
            ],
        }
    }

    fn recommended() -> RuntimeManager {
        RuntimeManager::new(demo_library(), 0.7, SelectionPolicy::ReconfigAware)
            .with_mitigation(MitigationConfig::recommended())
    }

    #[test]
    fn reconfig_aware_prefers_ct_moves() {
        let mut m = RuntimeManager::new(demo_library(), 0.7, SelectionPolicy::ReconfigAware);
        let d0 = m.decide(300.0);
        // The initial configuration is not a reconfiguration.
        assert_eq!((d0.entry, d0.reconfig), (0, false));
        // Workload rises to 500: entry 0 still has a qualifying point at
        // CT 0.3 (520 IPS) — a free threshold move, not a reconfig.
        let d1 = m.decide(500.0);
        assert_eq!((d1.entry, d1.point, d1.reconfig), (0, 1, false));
        assert_eq!(m.ct_change_count, 1);
        assert_eq!(m.reconfig_count, 0);
        // Workload rises to 800: entry 0 cannot keep up; reconfigure.
        let d2 = m.decide(800.0);
        assert_eq!((d2.entry, d2.reconfig), (1, true));
        assert_eq!(m.reconfig_count, 1);
    }

    #[test]
    fn oblivious_policy_reconfigures_eagerly() {
        let mut m = RuntimeManager::new(demo_library(), 0.7, SelectionPolicy::Oblivious);
        m.decide(300.0);
        // At 500, global best is still entry 0 point 1 (mean acc rank).
        let d = m.decide(500.0);
        assert_eq!(d.entry, 0);
        let d = m.decide(800.0);
        assert!(d.reconfig);
    }

    #[test]
    fn throughput_greedy_takes_fastest_qualified() {
        let mut m = RuntimeManager::new(demo_library(), 0.7, SelectionPolicy::ThroughputGreedy);
        let d = m.decide(100.0);
        // Fastest point with accuracy >= 0.7 is entry 1 / point 1 (900).
        assert_eq!((d.entry, d.point), (1, 1));
    }

    #[test]
    fn accuracy_greedy_maximizes_point_accuracy() {
        let mut m = RuntimeManager::new(demo_library(), 0.0, SelectionPolicy::AccuracyGreedy);
        let d = m.decide(450.0);
        // Fast-enough points: entry0 p1 (.82), entry1 (.80/.75), entry2...
        assert_eq!((d.entry, d.point), (0, 1));
    }

    #[test]
    fn counters_track_changes() {
        let mut m = RuntimeManager::new(demo_library(), 0.7, SelectionPolicy::ReconfigAware);
        m.decide(300.0);
        m.decide(300.0); // no change
        assert_eq!(m.ct_change_count, 0);
        assert_eq!(m.reconfig_count, 0);
        m.decide(2000.0); // forced into entry 2
        assert_eq!(m.reconfig_count, 1);
        assert!(m.current_point().is_some());
    }

    #[test]
    #[should_panic(expected = "runtime manager needs a library")]
    fn rejects_empty_library() {
        RuntimeManager::new(Library::new(), 0.5, SelectionPolicy::ReconfigAware);
    }

    #[test]
    #[should_panic(expected = "entry 1 has none")]
    fn rejects_an_entry_without_points() {
        let mut library = demo_library();
        library.entries[1].points.clear();
        RuntimeManager::new(library, 0.5, SelectionPolicy::ReconfigAware);
    }

    #[test]
    fn deadband_holds_decisions_within_band() {
        let mut m = recommended();
        let d0 = m.decide(500.0);
        assert!(!d0.held);
        // ±10 % of 500: everything in [450, 550] is held verbatim.
        for load in [455.0, 549.0, 500.0, 460.0] {
            let d = m.decide(load);
            assert!(d.held, "load {load} should be held");
            assert_eq!((d.entry, d.point), (d0.entry, d0.point));
            assert!(!d.reconfig);
        }
        assert_eq!(m.reconfig_count, 0);
        assert_eq!(m.ct_change_count, 0);
        // Outside the band the manager re-decides (and re-anchors).
        let d = m.decide(800.0);
        assert!(!d.held);
        assert!(d.reconfig);
    }

    #[test]
    fn cooldown_suppresses_reconfig_thrash() {
        let mut m = recommended();
        m.decide(300.0); // initial: entry 0
        let d = m.decide(800.0); // forced off entry 0
        assert!(d.reconfig);
        m.settle(false);
        // Load falls back: without cooldown this would bounce to entry 0
        // (a higher-accuracy strict pick). For the two cooldown periods
        // the manager stays on entry 1 and only retunes the threshold.
        for _ in 0..2 {
            let d = m.decide(300.0);
            assert!(!d.reconfig, "cooldown must suppress the bounce-back");
            assert_eq!(d.entry, 1);
        }
        assert_eq!(m.reconfig_count, 1);
        // Cooled down: the restricted decisions left the deadband
        // unarmed, so the free decision takes the bounce-back.
        assert!(m.decide(300.0).reconfig);
    }

    #[test]
    fn abort_reverts_and_backoff_doubles() {
        let mut m = recommended();
        m.decide(300.0);
        let d = m.decide(800.0);
        assert!(d.reconfig);
        assert_eq!(d.entry, 1);
        m.settle(true);
        assert_eq!(m.current(), Some((0, 0)), "old bitstream restored");
        assert_eq!(m.failed_reconfig_count, 1);
        assert_eq!(m.backoff_remaining(), 4);
        // While backed off (4 periods), the same overload yields only
        // free moves inside the (old) current entry.
        for _ in 0..4 {
            let d = m.decide(800.0);
            assert!(!d.reconfig);
            assert_eq!(d.entry, 0);
        }
        // Backoff expired; the retry is counted.
        assert!(m.decide(800.0).reconfig);
        assert_eq!(m.retry_count, 1);
        // A second consecutive failure doubles the backoff.
        m.settle(true);
        assert_eq!(m.backoff_remaining(), 8);
        for _ in 0..8 {
            assert!(!m.decide(800.0).reconfig);
        }
        // A success resets the streak: the next failure starts over at
        // the base backoff.
        assert!(m.decide(800.0).reconfig);
        assert_eq!(m.retry_count, 2);
        m.settle(false);
        assert_eq!(m.current(), Some((1, 1)));
        for _ in 0..2 {
            assert!(!m.decide(300.0).reconfig, "cooling down");
        }
        assert!(m.decide(300.0).reconfig);
        assert_eq!(m.retry_count, 2, "no failure streak to recover from");
        m.settle(true);
        assert_eq!(m.backoff_remaining(), 4);
    }

    #[test]
    fn backoff_disabled_retries_immediately() {
        let mut m = RuntimeManager::new(demo_library(), 0.7, SelectionPolicy::ReconfigAware);
        m.decide(300.0);
        assert!(m.decide(800.0).reconfig);
        m.settle(true);
        assert_eq!(m.backoff_remaining(), 0);
        assert!(m.decide(800.0).reconfig, "no backoff configured: retry now");
        assert_eq!(m.retry_count, 1);
    }

    #[test]
    fn degraded_mode_tracks_floor_feasibility() {
        let mut m = RuntimeManager::new(demo_library(), 0.7, SelectionPolicy::ReconfigAware);
        assert!(!m.decide(500.0).degraded);
        // 1800 IPS is unreachable above the 0.7 floor: degraded.
        let d = m.decide(1800.0);
        assert!(d.degraded);
        assert!(
            m.library.entries[d.entry].points[d.point].accuracy >= 0.7,
            "the floor wins"
        );
        // Load recovers: degraded mode exits, and re-enters.
        assert!(!m.decide(500.0).degraded);
        assert!(m.decide(1800.0).degraded);
    }

    #[test]
    fn mitigation_off_is_bitwise_default() {
        // `with_mitigation(off())` is the manager `new` builds: the same
        // decisions and counters through reconfigurations and aborts.
        let loads = [300.0, 800.0, 760.0, 300.0, 2000.0, 500.0, 820.0];
        let mut plain = RuntimeManager::new(demo_library(), 0.7, SelectionPolicy::ReconfigAware);
        let mut off = plain.clone().with_mitigation(MitigationConfig::off());
        for (i, load) in loads.into_iter().enumerate() {
            let d = plain.decide(load);
            assert_eq!(d, off.decide(load), "load {load}");
            if d.reconfig {
                plain.settle(i % 2 == 0);
                off.settle(i % 2 == 0);
            }
        }
        assert_eq!(
            (
                plain.reconfig_count,
                plain.ct_change_count,
                plain.failed_reconfig_count,
                plain.retry_count
            ),
            (
                off.reconfig_count,
                off.ct_change_count,
                off.failed_reconfig_count,
                off.retry_count
            ),
        );
        assert!(plain.failed_reconfig_count > 0 && plain.retry_count > 0);
        assert_ne!(MitigationConfig::off(), MitigationConfig::recommended());
    }

    // ---- Exhaustive check of the reachable states -------------------

    const FLOOR: f64 = 0.75;
    const POLICIES: [SelectionPolicy; 4] = [
        SelectionPolicy::ReconfigAware,
        SelectionPolicy::Oblivious,
        SelectionPolicy::ThroughputGreedy,
        SelectionPolicy::AccuracyGreedy,
    ];

    /// CT-Only 1×3, PR-Only 3×1 and AdaPEx 3 prune rates × 3
    /// thresholds. Entry 2 sits below the floor, and entry 1's best
    /// point is within `RECONFIG_HYSTERESIS` of entry 0's last, so
    /// degraded mode and both sides of the hysteresis are reachable.
    fn shapes() -> [(&'static str, Library); 3] {
        type Points = [(f64, f64, f64); 3]; // (ct, accuracy, ips)
        let rows: [(f64, f64, Points); 3] = [
            (
                0.0,
                0.85,
                [(0.9, 0.88, 700.0), (0.6, 0.85, 900.0), (0.3, 0.82, 1150.0)],
            ),
            (
                0.5,
                0.78,
                [
                    (0.9, 0.815, 1400.0),
                    (0.6, 0.78, 1650.0),
                    (0.3, 0.76, 1900.0),
                ],
            ),
            (
                0.8,
                0.70,
                [
                    (0.9, 0.74, 2500.0),
                    (0.6, 0.72, 2800.0),
                    (0.3, 0.70, 3100.0),
                ],
            ),
        ];
        let library = |points: usize, entries: usize| Library {
            entries: rows[..entries]
                .iter()
                .enumerate()
                .map(|(id, (rate, mean, pts))| entry(id, *rate, *mean, pts[..points].to_vec()))
                .collect::<Vec<LibraryEntry>>(),
        };
        [
            ("CT-Only 1x3", library(3, 1)),
            ("PR-Only 3x1", library(1, 3)),
            ("AdaPEx 3x3", library(3, 3)),
        ]
    }

    /// Every capacity ± ε, one load past every point and a pair inside
    /// the ±10 % deadband.
    fn load_alphabet(library: &Library) -> Vec<f64> {
        let caps: Vec<f64> = library.design_space().map(|(_, p)| p.ips).collect();
        let past = 1.5 * caps.iter().copied().fold(0.0, f64::max);
        caps.iter()
            .flat_map(|c| [c - 0.5, c + 0.5])
            .chain([past, 1000.0, 1060.0])
            .collect()
    }

    type Key = (
        Option<(usize, usize)>,
        Option<u64>,
        u32,
        u32,
        u32,
        Option<(usize, usize)>,
        bool,
    );

    /// A state up to behaviour: a failure streak past 3 acts as 3 (the
    /// next abort backs off at the cap, and `failures > 0` is all the
    /// counters read), which keeps the reachable set finite.
    fn key(s: &State) -> Key {
        let State {
            current,
            anchor,
            cooldown,
            backoff,
            failures,
            pre_reconfig,
            degraded,
        } = *s;
        (
            current,
            anchor.map(f64::to_bits),
            cooldown,
            backoff,
            failures.min(3),
            pre_reconfig,
            degraded,
        )
    }

    fn ensure(holds: bool, property: &'static str) -> Result<(), &'static str> {
        if holds {
            Ok(())
        } else {
            Err(property)
        }
    }

    /// Whether `point` meets the floor at `load`.
    fn meets(m: &RuntimeManager, point: &OperatingPoint, load: f64) -> bool {
        point.ips >= load && point.accuracy >= m.min_accuracy
    }

    /// Properties (a)–(e) of one transition `s --obs--> t`.
    fn check_edge(
        m: &RuntimeManager,
        s: State,
        obs: Observation,
        t: State,
        d: Option<Decision>,
    ) -> Result<(), &'static str> {
        let strict = |load, only| m.library.select_strict(load, m.min_accuracy, only);
        let acc = |(e, p): (usize, usize)| m.library.entries[e].points[p].accuracy;
        match (obs, d) {
            (Observation::Load(load), Some(d)) => {
                ensure(
                    t.current == Some((d.entry, d.point)),
                    "the decision is the new selection",
                )?;
                ensure(
                    !d.reconfig || (s.cooldown == 0 && s.backoff == 0),
                    "(a) no reconfiguration in cooldown or backoff",
                )?;
                ensure(
                    t.backoff == s.backoff.saturating_sub(1),
                    "(b) backoff only counts down",
                )?;
                ensure(
                    d.degraded == strict(load, None).is_none(),
                    "(c) degraded iff nothing meets the floor",
                )?;
                if d.reconfig && m.policy == SelectionPolicy::ReconfigAware {
                    let (cur, _) = s.current.expect("a reconfiguration leaves a selection");
                    let forced = strict(load, Some(cur)).is_none_or(|local| {
                        let bar = acc(local) + RECONFIG_HYSTERESIS;
                        m.library
                            .design_space()
                            .any(|(_, p)| meets(m, p, load) && p.accuracy > bar)
                    });
                    ensure(
                        forced,
                        "(d) a threshold move is tried before a reconfiguration",
                    )?;
                }
            }
            (Observation::Settled, None) => {
                ensure(t.backoff <= s.backoff, "(b) backoff only counts down")?
            }
            (Observation::Aborted, None) => {
                let off = m.mitigation == MitigationConfig::off();
                let doubled = if off {
                    0
                } else {
                    (4u64 << (t.failures - 1).min(16)).min(16) as u32
                };
                ensure(
                    t.failures == s.failures + 1 && t.backoff == doubled,
                    "(b) an abort backs off 4·2^(k−1) ≤ 16",
                )?;
                ensure(
                    t.current == s.pre_reconfig,
                    "(e) an abort restores the pre-reconfiguration point",
                )?;
            }
            _ => return Err("exactly a load decides"),
        }
        Ok(())
    }

    /// Property (f) from `s` at `load`: holding the load, every
    /// reconfiguration settling, the decisions stop changing within
    /// `bound` steps, and a load outside the deadband ends on a point
    /// that meets the floor whenever one exists.
    fn check_hold(m: &RuntimeManager, s: State, load: f64, bound: u32) -> Result<(), &'static str> {
        let hold = |s: State| {
            let s = if s.pre_reconfig.is_some() {
                m.step(s, Observation::Settled).0
            } else {
                s
            };
            let (t, d) = m.step(s, Observation::Load(load));
            (t, d.expect("a load decides"))
        };
        let mut t = s;
        for _ in 0..bound {
            t = hold(t).0;
        }
        let (next, d) = hold(t);
        ensure(next == t && !d.reconfig, "(f) the decisions stop changing")?;
        let free = !m.mitigation.holds(s.anchor, load);
        let policy = matches!(
            m.policy,
            SelectionPolicy::ReconfigAware | SelectionPolicy::Oblivious
        );
        if free
            && policy
            && m.library
                .select_strict(load, m.min_accuracy, None)
                .is_some()
        {
            let point = &m.library.entries[d.entry].points[d.point];
            ensure(
                meets(m, point, load),
                "(f) a held load ends on a point that meets the floor",
            )?;
        }
        Ok(())
    }

    /// Breadth-first, to closure, over the deduplicated states reachable
    /// from a fresh manager: loads from the alphabet, and
    /// `Settled`/`Aborted` while a reconfiguration is in flight (what
    /// the twins send through `Downtime`). Checks (a)–(e) on every edge
    /// and (f) from every state; returns `(states, edges, depth)`, the
    /// depth being the longest shortest path to a state.
    fn explore(m: &RuntimeManager, loads: &[f64], label: &str) -> (usize, usize, usize) {
        let MitigationConfig {
            cooldown_periods,
            backoff_max_periods,
            ..
        } = m.mitigation;
        let bound = cooldown_periods + backoff_max_periods + 2;
        let fresh = State::default();
        let mut seen = HashSet::from([key(&fresh)]);
        let mut frontier = vec![(fresh, Vec::new())];
        let (mut edges, mut depth) = (0, 0);
        loop {
            let mut next = Vec::new();
            for (s, path) in &frontier {
                for &load in loads {
                    if let Err(p) = check_hold(m, *s, load, bound) {
                        panic!("{label}: {p}: holding {load} after {path:?}");
                    }
                }
                let outcomes = [Observation::Settled, Observation::Aborted];
                let in_flight = if s.pre_reconfig.is_some() {
                    &outcomes[..]
                } else {
                    &[]
                };
                for obs in loads
                    .iter()
                    .map(|&l| Observation::Load(l))
                    .chain(in_flight.iter().copied())
                {
                    let (t, d) = m.step(*s, obs);
                    edges += 1;
                    if let Err(p) = check_edge(m, *s, obs, t, d) {
                        panic!("{label}: {p}: {obs:?} after {path:?} gave {d:?}, {t:?}");
                    }
                    if seen.insert(key(&t)) {
                        let mut path = path.clone();
                        path.push(obs);
                        next.push((t, path));
                    }
                }
            }
            if next.is_empty() {
                return (seen.len(), edges, depth);
            }
            frontier = next;
            depth += 1;
        }
    }

    /// Every reachable state, for every library shape, mitigation
    /// setting and policy, keeps properties (a)–(f) (DESIGN.md §10 lists
    /// them).
    #[test]
    fn every_reachable_state_keeps_the_manager_properties() {
        let started = std::time::Instant::now();
        let (mut states, mut edges) = (0, 0);
        for (shape, library) in shapes() {
            let loads = load_alphabet(&library);
            for mitigation in [MitigationConfig::off(), MitigationConfig::recommended()] {
                for policy in POLICIES {
                    let m = RuntimeManager::new(library.clone(), FLOOR, policy)
                        .with_mitigation(mitigation);
                    let label =
                        format!("{shape}, {policy:?}, deadband {}", mitigation.ips_deadband);
                    let (s, e, d) = explore(&m, &loads, &label);
                    println!("{label}: {s} states, {e} edges, depth {d}");
                    states += s;
                    edges += e;
                }
            }
        }
        println!(
            "exhaustive check: {states} states, {edges} edges in {:.2?}",
            started.elapsed()
        );
    }
}
