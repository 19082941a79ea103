//! Predefined workload scenarios beyond the paper's random ±30 %
//! fluctuation: shaped traces (ramps, bursts, diurnal cycles) for
//! studying the runtime manager's behaviour under structured load.
//!
//! Each scenario produces a [`WorkloadTrace`] compatible with
//! [`EdgeSimulation`](crate::EdgeSimulation) — the per-period rates are
//! shaped deterministically, then the simulator's Poisson arrivals add
//! the sample-level noise.

use crate::workload::{WorkloadConfig, WorkloadTrace};
use serde::{Deserialize, Serialize};

/// A shaped workload scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// Constant offered rate at nominal.
    Steady,
    /// Linear ramp from 50 % to 150 % of nominal over the run — the
    /// shape of the paper's Fig. 3 illustration.
    RampUp,
    /// Nominal load with one 2× burst in the middle fifth of the run
    /// (a camera fleet reacting to an event).
    Burst,
    /// One sinusoidal day-night cycle between 40 % and 160 % of nominal.
    Diurnal,
}

impl Scenario {
    /// All scenarios.
    pub fn all() -> [Scenario; 4] {
        [
            Scenario::Steady,
            Scenario::RampUp,
            Scenario::Burst,
            Scenario::Diurnal,
        ]
    }

    /// Short identifier.
    pub fn id(self) -> &'static str {
        match self {
            Scenario::Steady => "steady",
            Scenario::RampUp => "ramp-up",
            Scenario::Burst => "burst",
            Scenario::Diurnal => "diurnal",
        }
    }

    /// Parses a scenario from its [`Scenario::id`] string.
    pub fn from_id(id: &str) -> Option<Scenario> {
        Scenario::all().into_iter().find(|s| s.id() == id)
    }

    /// Rate multiplier at normalized time `x` in `[0, 1]`.
    fn multiplier(self, x: f64) -> f64 {
        match self {
            Scenario::Steady => 1.0,
            Scenario::RampUp => 0.5 + x,
            Scenario::Burst => {
                if (0.4..0.6).contains(&x) {
                    2.0
                } else {
                    1.0
                }
            }
            Scenario::Diurnal => 1.0 + 0.6 * (std::f64::consts::TAU * x).sin(),
        }
    }

    /// Builds the shaped trace for `config` (the config's `deviation`
    /// is ignored; the shape is deterministic).
    pub fn trace(self, config: WorkloadConfig) -> WorkloadTrace {
        let periods = (config.duration_s / config.deviation_period_s).ceil() as usize;
        let nominal = config.nominal_ips();
        let rates = (0..periods.max(1))
            .map(|p| {
                let x = (p as f64 + 0.5) / periods.max(1) as f64;
                nominal * self.multiplier(x)
            })
            .collect();
        WorkloadTrace { config, rates }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> WorkloadConfig {
        WorkloadConfig {
            duration_s: 50.0,
            deviation_period_s: 5.0,
            ..WorkloadConfig::paper_default()
        }
    }

    #[test]
    fn from_id_roundtrips_and_rejects_unknown() {
        for s in Scenario::all() {
            assert_eq!(Scenario::from_id(s.id()), Some(s));
        }
        assert_eq!(Scenario::from_id("nope"), None);
    }

    #[test]
    fn steady_is_flat_at_nominal() {
        let t = Scenario::Steady.trace(config());
        assert_eq!(t.rates.len(), 10);
        assert!(t.rates.iter().all(|&r| (r - 600.0).abs() < 1e-9));
    }

    #[test]
    fn ramp_is_monotone_and_spans_half_to_threehalves() {
        let t = Scenario::RampUp.trace(config());
        assert!(t.rates.windows(2).all(|w| w[1] > w[0]));
        assert!(t.rates[0] > 600.0 * 0.5 && t.rates[0] < 600.0);
        assert!(*t.rates.last().expect("non-empty") > 600.0 * 1.3);
    }

    #[test]
    fn burst_doubles_only_in_the_middle() {
        let t = Scenario::Burst.trace(config());
        assert!((t.rates[4] - 1200.0).abs() < 1e-9);
        assert!((t.rates[5] - 1200.0).abs() < 1e-9);
        assert!((t.rates[0] - 600.0).abs() < 1e-9);
        assert!((t.rates[9] - 600.0).abs() < 1e-9);
    }

    #[test]
    fn diurnal_rises_then_falls_below_nominal() {
        let t = Scenario::Diurnal.trace(config());
        let max = t.rates.iter().cloned().fold(0.0, f64::max);
        let min = t.rates.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 600.0 * 1.4, "max {max}");
        assert!(min < 600.0 * 0.6, "min {min}");
    }

    #[test]
    fn scenario_traces_drive_the_simulator() {
        use crate::fault::FaultPlan;
        use crate::sim::{EdgeSimulation, RunSpec, SimConfig, Traffic};
        use adapex::library::{Library, LibraryEntry, OperatingPoint};
        use adapex::runtime::{RuntimeManager, SelectionPolicy};

        let entry = LibraryEntry {
            id: 0,
            pruning_rate: 0.0,
            achieved_rate: 0.0,
            prune_exits: false,
            mean_exit_accuracy: 0.9,
            final_exit_accuracy: 0.9,
            resources: finn_dataflow::ResourceUsage::zero(),
            exit_resources: finn_dataflow::ResourceUsage::zero(),
            utilization: (0.1, 0.1, 0.1, 0.0),
            static_ips: 700.0,
            latency_to_exit_ms: vec![1.0],
            points: vec![OperatingPoint {
                confidence_threshold: 1.0,
                accuracy: 0.9,
                exit_fractions: vec![1.0],
                ips: 700.0,
                avg_latency_ms: 2.0,
                power_w: 1.0,
                energy_per_inference_mj: 1.0 / 700.0 * 1000.0,
            }],
        };
        let manager = RuntimeManager::new(
            Library {
                entries: vec![entry],
            },
            0.0,
            SelectionPolicy::Oblivious,
        );
        let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
        // A 700-IPS server: fine when steady, loses during the burst.
        let none = FaultPlan::none();
        let run = |scenario: Scenario| {
            let trace = scenario.trace(WorkloadConfig::paper_default());
            sim.run(
                &mut manager.clone(),
                &RunSpec::new(Traffic::Shaped(&trace), &none, 1),
            )
        };
        let steady = run(Scenario::Steady);
        let burst = run(Scenario::Burst);
        assert!(
            steady.inference_loss_pct() + 3.0 < burst.inference_loss_pct(),
            "steady {} vs burst {}",
            steady.inference_loss_pct(),
            burst.inference_loss_pct()
        );
        assert!(steady.inference_loss_pct() < 3.0, "{}", steady.inference_loss_pct());
    }
}
