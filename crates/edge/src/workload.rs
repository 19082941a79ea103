//! Camera workload generation (paper Sec. V).
//!
//! The nominal load is `cameras x ips_per_camera` (20 x 30 = 600 IPS).
//! Every `deviation_period_s` the offered rate jumps to a new level
//! drawn uniformly within ±`deviation` of nominal — the paper's "30 %
//! random workload deviation every 5 seconds" capturing IPS
//! fluctuation, congestion and camera churn. Arrivals are Poisson around
//! the current level (drawn per segment by the engine).

use crate::sampling::poisson;
use adapex_tensor::rng::rng_from_seed;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};

/// Workload shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WorkloadConfig {
    /// Connected cameras.
    pub cameras: usize,
    /// Nominal request rate per camera (inferences/second).
    pub ips_per_camera: f64,
    /// Run length in seconds.
    pub duration_s: f64,
    /// Relative deviation bound (0.30 = ±30 %).
    pub deviation: f64,
    /// Seconds between deviation re-draws.
    pub deviation_period_s: f64,
}

impl WorkloadConfig {
    /// The paper's scenario: 20 cameras x 30 IPS for 25 s, ±30 % every 5 s.
    pub fn paper_default() -> Self {
        WorkloadConfig {
            cameras: 20,
            ips_per_camera: 30.0,
            duration_s: 25.0,
            deviation: 0.30,
            deviation_period_s: 5.0,
        }
    }

    /// Nominal aggregate rate (inferences/second).
    pub fn nominal_ips(&self) -> f64 {
        self.cameras as f64 * self.ips_per_camera
    }

    /// Number of deviation periods covering the run, always ≥ 1.
    ///
    /// Degenerate shapes are well-defined instead of pathological: a
    /// zero (or negative) `duration_s`, a non-positive or non-finite
    /// `deviation_period_s`, and a `deviation_period_s` longer than the
    /// run all clamp to a single constant-rate segment. (A zero period
    /// used to turn `duration / period = inf` into a `usize::MAX`-sized
    /// rate vector.)
    pub fn periods(&self) -> usize {
        if self.duration_s > 0.0 && self.deviation_period_s > 0.0 && self.deviation_period_s.is_finite()
        {
            ((self.duration_s / self.deviation_period_s).ceil() as usize).max(1)
        } else {
            1
        }
    }

    /// Samples the per-period offered rates for one run.
    ///
    /// With `deviation <= 0` (or a non-finite deviation) the trace is
    /// the constant nominal rate — the identity the differential tests
    /// pin — and no RNG draw happens at all.
    pub fn sample(&self, seed: u64) -> WorkloadTrace {
        let periods = self.periods();
        let nominal = self.nominal_ips();
        let rates = if self.deviation > 0.0 && self.deviation.is_finite() {
            let mut rng = rng_from_seed(seed);
            (0..periods)
                .map(|_| nominal * (1.0 + rng.random_range(-self.deviation..=self.deviation)))
                .collect()
        } else {
            vec![nominal; periods]
        };
        WorkloadTrace {
            config: *self,
            rates,
        }
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::paper_default()
    }
}

/// One sampled workload realization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadTrace {
    /// The generating configuration.
    pub config: WorkloadConfig,
    /// Offered rate per deviation period (inferences/second).
    pub rates: Vec<f64>,
}

impl WorkloadTrace {
    /// Offered rate at time `t` seconds.
    ///
    /// Clamps to the last period past the end of the trace; an empty
    /// trace (never produced by [`WorkloadConfig::sample`], but
    /// representable by hand) reads as zero offered load instead of
    /// panicking.
    pub fn rate_at(&self, t: f64) -> f64 {
        let Some(&last) = self.rates.last() else {
            return 0.0;
        };
        let idx = (t / self.config.deviation_period_s).floor() as usize;
        self.rates.get(idx).copied().unwrap_or(last)
    }

    /// Poisson arrival count over the `dt` seconds around time `t`.
    pub fn arrivals(&self, t: f64, dt: f64, rng: &mut StdRng) -> usize {
        poisson(self.rate_at(t) * dt, rng)
    }

    /// Mean offered rate over the run.
    pub fn mean_rate(&self) -> f64 {
        if self.rates.is_empty() {
            0.0
        } else {
            self.rates.iter().sum::<f64>() / self.rates.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_matches_paper() {
        assert_eq!(WorkloadConfig::paper_default().nominal_ips(), 600.0);
    }

    #[test]
    fn deviation_stays_in_bounds() {
        let cfg = WorkloadConfig::paper_default();
        let trace = cfg.sample(3);
        assert_eq!(trace.rates.len(), 5); // 25 s / 5 s
        for &r in &trace.rates {
            assert!((420.0..=780.0).contains(&r), "rate {r} outside ±30 %");
        }
    }

    #[test]
    fn rate_is_piecewise_constant() {
        let trace = WorkloadConfig::paper_default().sample(7);
        assert_eq!(trace.rate_at(0.0), trace.rates[0]);
        assert_eq!(trace.rate_at(4.99), trace.rates[0]);
        assert_eq!(trace.rate_at(5.01), trace.rates[1]);
        // Past the end: clamps to the last period.
        assert_eq!(trace.rate_at(1000.0), trace.rates[4]);
    }

    #[test]
    fn zero_duration_yields_one_constant_period() {
        let cfg = WorkloadConfig {
            duration_s: 0.0,
            ..WorkloadConfig::paper_default()
        };
        let trace = cfg.sample(3);
        assert_eq!(trace.rates.len(), 1);
        assert!((420.0..=780.0).contains(&trace.rates[0]));
    }

    #[test]
    fn zero_deviation_period_does_not_explode() {
        // duration / 0.0 = inf used to saturate the usize cast and ask
        // for a usize::MAX-element rates vector. Now: one segment.
        for period in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let cfg = WorkloadConfig {
                deviation_period_s: period,
                ..WorkloadConfig::paper_default()
            };
            let trace = cfg.sample(3);
            assert_eq!(trace.rates.len(), 1, "period {period}");
        }
    }

    #[test]
    fn period_longer_than_run_yields_one_segment() {
        let cfg = WorkloadConfig {
            duration_s: 25.0,
            deviation_period_s: 100.0,
            ..WorkloadConfig::paper_default()
        };
        let trace = cfg.sample(5);
        assert_eq!(trace.rates.len(), 1);
        assert_eq!(trace.rate_at(0.0), trace.rate_at(24.9));
    }

    #[test]
    fn zero_deviation_is_constant_rate_identity() {
        let cfg = WorkloadConfig {
            deviation: 0.0,
            ..WorkloadConfig::paper_default()
        };
        let trace = cfg.sample(42);
        assert_eq!(trace.rates, vec![600.0; 5]);
        // Identical across seeds: no RNG draw at all.
        assert_eq!(trace, cfg.sample(7));
        // Negative / non-finite deviations degrade to the same identity.
        for dev in [-0.5, f64::NAN, f64::INFINITY] {
            let cfg = WorkloadConfig {
                deviation: dev,
                ..WorkloadConfig::paper_default()
            };
            assert_eq!(cfg.sample(1).rates, vec![600.0; 5], "deviation {dev}");
        }
    }

    #[test]
    fn empty_trace_reads_zero_rate() {
        let trace = WorkloadTrace {
            config: WorkloadConfig::paper_default(),
            rates: vec![],
        };
        assert_eq!(trace.rate_at(0.0), 0.0);
        assert_eq!(trace.mean_rate(), 0.0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let cfg = WorkloadConfig::paper_default();
        assert_eq!(cfg.sample(11), cfg.sample(11));
        assert_ne!(cfg.sample(11).rates, cfg.sample(12).rates);
    }

    #[test]
    fn poisson_mean_is_plausible() {
        let mut rng = rng_from_seed(5);
        let n = 20_000;
        let total: usize = (0..n).map(|_| poisson(6.0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 6.0).abs() < 0.15, "poisson mean {mean}");
    }

    #[test]
    fn arrivals_track_rate() {
        let trace = WorkloadConfig::paper_default().sample(9);
        let mut rng = rng_from_seed(1);
        let mut total = 0usize;
        let dt = 0.01;
        let mut t = 0.0;
        while t < 25.0 {
            total += trace.arrivals(t, dt, &mut rng);
            t += dt;
        }
        let expected: f64 = trace.rates.iter().map(|r| r * 5.0).sum();
        let got = total as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "arrivals {got} vs expected {expected}"
        );
    }
}
