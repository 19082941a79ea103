//! Workload generators: the paper's synthetic ±30% generator plus
//! trace-driven shapes (piecewise replay, diurnal curves, flash
//! crowds, cluster-trace replay, correlated multi-camera bursts).
//!
//! Every generator is seeded and deterministic: `generate(seed)` is a
//! pure function of the generator parameters and the seed, producing a
//! [`WorkloadTrace`] — the same piecewise-constant rate representation
//! the event engine already consumes, so no engine changes are needed
//! and every trace inherits the engine's segment-event scheduling.
//!
//! [`WorkloadSpec`] is the serializable sum of all generators, derived
//! as an internally tagged enum. Its wire format is a tagged object
//! (`{"kind": "flash-crowd", ...}`) with *strict* parsing: unknown
//! fields and unknown kinds are rejected so a typo in a scenario file
//! fails loudly instead of silently running the default shape.

use crate::sampling::poisson;
use crate::workload::{WorkloadConfig, WorkloadTrace};
use adapex_tensor::rng::{derive_stream, rng_from_seed};
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// RNG stream salt for generator-internal draws (burst event
/// placement). Distinct from the arrival/shaped/fault salts so a
/// generator's own randomness never aliases the simulation streams.
pub const WORKLOAD_EVENT_SALT: u64 = 0xC0_11E1A7;

/// A deterministic workload source.
///
/// Implementations map `(parameters, seed)` to a piecewise-constant
/// rate trace. Trace-replay generators (piecewise, cluster replay)
/// ignore the seed — their rates are the trace; synthetic and
/// burst-event generators derive all randomness from it.
pub trait WorkloadGenerator {
    /// Produce the offered-rate trace for one run.
    fn generate(&self, seed: u64) -> WorkloadTrace;
    /// The base workload shape (cameras, duration, period).
    fn config(&self) -> &WorkloadConfig;
}

/// The paper's synthetic generator: rate re-drawn uniformly within
/// ±`deviation` of nominal every `deviation_period_s`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SyntheticWorkload {
    /// Workload shape (cameras, IPS, duration, deviation, period).
    pub config: WorkloadConfig,
}

impl WorkloadGenerator for SyntheticWorkload {
    fn generate(&self, seed: u64) -> WorkloadTrace {
        self.config.sample(seed)
    }
    fn config(&self) -> &WorkloadConfig {
        &self.config
    }
}

/// Replay of an explicit per-period rate list (inferences/second).
///
/// This is the export format of every other generator: any
/// [`WorkloadTrace`] can be frozen into a `PiecewiseWorkload` and
/// replayed bit-identically (see [`WorkloadSpec::from_trace`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PiecewiseWorkload {
    /// Base shape; `deviation_period_s` gives each rate's duration.
    pub config: WorkloadConfig,
    /// Offered rate per deviation period.
    pub rates: Vec<f64>,
}

impl WorkloadGenerator for PiecewiseWorkload {
    fn generate(&self, _seed: u64) -> WorkloadTrace {
        let rates = if self.rates.is_empty() {
            vec![self.config.nominal_ips(); self.config.periods()]
        } else {
            self.rates.clone()
        };
        WorkloadTrace {
            config: self.config,
            rates,
        }
    }
    fn config(&self) -> &WorkloadConfig {
        &self.config
    }
}

/// Smooth day/night cycle: a sinusoid between `min_multiplier` and
/// `max_multiplier` of nominal, completing `cycles` full periods over
/// the run, sampled at deviation-period midpoints.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DiurnalWorkload {
    /// Workload shape; `deviation_period_s` is the sampling step.
    pub config: WorkloadConfig,
    /// Trough as a fraction of nominal (e.g. 0.4 = 40 %).
    pub min_multiplier: f64,
    /// Peak as a fraction of nominal (e.g. 1.6 = 160 %).
    pub max_multiplier: f64,
    /// Full day/night cycles over the run.
    pub cycles: f64,
    /// Phase offset in cycles (0.25 starts at the peak).
    pub phase: f64,
}

impl WorkloadGenerator for DiurnalWorkload {
    fn generate(&self, _seed: u64) -> WorkloadTrace {
        let mid = 0.5 * (self.min_multiplier + self.max_multiplier);
        let amp = 0.5 * (self.max_multiplier - self.min_multiplier);
        shaped(self.config, |x| {
            mid + amp * (std::f64::consts::TAU * (self.cycles * x + self.phase)).sin()
        })
    }
    fn config(&self) -> &WorkloadConfig {
        &self.config
    }
}

/// A flash crowd: baseline load, then a linear ramp to
/// `peak_multiplier` × nominal at `start_s`, a hold, and an
/// exponential-style linear decay back to baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FlashCrowdWorkload {
    /// Workload shape; `deviation_period_s` is the sampling step.
    pub config: WorkloadConfig,
    /// Seconds into the run when the ramp begins.
    pub start_s: f64,
    /// Ramp-up length in seconds.
    pub ramp_s: f64,
    /// Seconds the crowd holds at peak.
    pub hold_s: f64,
    /// Decay length in seconds back to baseline.
    pub decay_s: f64,
    /// Peak load as a multiple of nominal (e.g. 3.0 = 3×).
    pub peak_multiplier: f64,
}

impl FlashCrowdWorkload {
    /// Load multiplier at absolute time `t` seconds.
    fn multiplier(&self, t: f64) -> f64 {
        let peak = self.peak_multiplier.max(1.0);
        let ramp_end = self.start_s + self.ramp_s.max(0.0);
        let hold_end = ramp_end + self.hold_s.max(0.0);
        let decay_end = hold_end + self.decay_s.max(0.0);
        if t < self.start_s || t >= decay_end {
            1.0
        } else if t < ramp_end {
            1.0 + (peak - 1.0) * (t - self.start_s) / self.ramp_s.max(f64::MIN_POSITIVE)
        } else if t < hold_end {
            peak
        } else {
            peak - (peak - 1.0) * (t - hold_end) / self.decay_s.max(f64::MIN_POSITIVE)
        }
    }
}

impl WorkloadGenerator for FlashCrowdWorkload {
    fn generate(&self, _seed: u64) -> WorkloadTrace {
        shaped_abs(self.config, |t| self.multiplier(t))
    }
    fn config(&self) -> &WorkloadConfig {
        &self.config
    }
}

/// Replay of a normalized cluster utilization curve (Alibaba-style):
/// `utilization` bins spread evenly over the run, linearly
/// interpolated and scaled so a bin value of 1.0 is `scale` × nominal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ClusterReplayWorkload {
    /// Workload shape; `deviation_period_s` is the sampling step.
    pub config: WorkloadConfig,
    /// Normalized utilization bins (machine-trace CPU curve).
    pub utilization: Vec<f64>,
    /// Load at utilization 1.0 as a multiple of nominal.
    pub scale: f64,
}

impl ClusterReplayWorkload {
    /// An Alibaba-cluster-trace-like daily CPU curve: overnight trough,
    /// morning ramp, sustained daytime plateau with a midday dip, and
    /// an evening peak. Normalized to [0, 1].
    pub fn alibaba_like(config: WorkloadConfig, scale: f64) -> Self {
        ClusterReplayWorkload {
            config,
            utilization: vec![
                0.42, 0.38, 0.35, 0.33, 0.34, 0.40, 0.52, 0.68, 0.81, 0.88, 0.90, 0.86, 0.78,
                0.82, 0.87, 0.89, 0.91, 0.94, 1.00, 0.97, 0.88, 0.74, 0.60, 0.49,
            ],
            scale,
        }
    }

    /// Interpolated utilization at normalized run position `x ∈ [0, 1]`.
    fn utilization_at(&self, x: f64) -> f64 {
        match self.utilization.len() {
            0 => 1.0,
            1 => self.utilization[0],
            n => {
                let pos = x.clamp(0.0, 1.0) * (n - 1) as f64;
                let lo = (pos.floor() as usize).min(n - 2);
                let frac = pos - lo as f64;
                self.utilization[lo] * (1.0 - frac) + self.utilization[lo + 1] * frac
            }
        }
    }
}

impl WorkloadGenerator for ClusterReplayWorkload {
    fn generate(&self, _seed: u64) -> WorkloadTrace {
        shaped(self.config, |x| self.scale * self.utilization_at(x))
    }
    fn config(&self) -> &WorkloadConfig {
        &self.config
    }
}

/// Correlated multi-camera bursts: a Poisson number of events per run
/// (seeded), each starting at a uniform time and lifting a fraction of
/// the cameras to `burst_multiplier` × their nominal rate for
/// `burst_duration_s`. Overlapping events stack up to all cameras
/// bursting at once.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct CorrelatedBurstWorkload {
    /// Workload shape; `deviation_period_s` is the sampling step.
    pub config: WorkloadConfig,
    /// Expected number of burst events over the run.
    pub mean_events: f64,
    /// Length of each burst in seconds.
    pub burst_duration_s: f64,
    /// Per-camera rate multiplier while bursting.
    pub burst_multiplier: f64,
    /// Fraction of cameras joining each event (0.25 = a quarter).
    pub camera_fraction: f64,
}

impl WorkloadGenerator for CorrelatedBurstWorkload {
    fn generate(&self, seed: u64) -> WorkloadTrace {
        let mut rng = rng_from_seed(derive_stream(seed, 0, WORKLOAD_EVENT_SALT));
        let duration = self.config.duration_s.max(0.0);
        let starts: Vec<f64> = if duration > 0.0 {
            let n = poisson(self.mean_events.max(0.0), &mut rng);
            (0..n).map(|_| rng.random_range(0.0..duration)).collect()
        } else {
            Vec::new()
        };
        let frac = self.camera_fraction.clamp(0.0, 1.0);
        let dur = self.burst_duration_s.max(0.0);
        shaped_abs(self.config, |t| {
            let active: f64 = starts
                .iter()
                .filter(|&&s| t >= s && t < s + dur)
                .map(|_| frac)
                .sum();
            1.0 + active.min(1.0) * (self.burst_multiplier - 1.0)
        })
    }
    fn config(&self) -> &WorkloadConfig {
        &self.config
    }
}

/// Evaluate `multiplier(x)` at normalized period midpoints
/// `x = (p + 0.5) / periods` — the same midpoint rule
/// `Scenario::trace` uses for the shaped CLI scenarios.
fn shaped(config: WorkloadConfig, multiplier: impl Fn(f64) -> f64) -> WorkloadTrace {
    let periods = config.periods();
    let nominal = config.nominal_ips();
    let rates = (0..periods)
        .map(|p| (nominal * multiplier((p as f64 + 0.5) / periods as f64)).max(0.0))
        .collect();
    WorkloadTrace { config, rates }
}

/// Evaluate `multiplier(t)` at absolute period-midpoint times in
/// seconds (for shapes defined on the wall clock, not the run length).
fn shaped_abs(config: WorkloadConfig, multiplier: impl Fn(f64) -> f64) -> WorkloadTrace {
    let periods = config.periods();
    let nominal = config.nominal_ips();
    let step = if config.deviation_period_s > 0.0 && config.deviation_period_s.is_finite() {
        config.deviation_period_s
    } else {
        config.duration_s.max(f64::MIN_POSITIVE)
    };
    let rates = (0..periods)
        .map(|p| (nominal * multiplier((p as f64 + 0.5) * step)).max(0.0))
        .collect();
    WorkloadTrace { config, rates }
}

/// Serializable sum of all workload generators.
///
/// Wire format: a single object tagged by `kind` (the variant name in
/// kebab case), with the generator's fields inlined — e.g.
/// `{"kind": "synthetic", "config": {...}}`. Parsing is strict:
/// unknown kinds, unknown fields (including inside `config`), and
/// missing required fields are errors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "kebab-case")]
pub enum WorkloadSpec {
    /// The paper's ±deviation synthetic generator.
    Synthetic(SyntheticWorkload),
    /// Explicit per-period rate replay.
    Piecewise(PiecewiseWorkload),
    /// Day/night sinusoid.
    Diurnal(DiurnalWorkload),
    /// Ramp/hold/decay crowd spike.
    FlashCrowd(FlashCrowdWorkload),
    /// Normalized cluster utilization curve replay.
    ClusterReplay(ClusterReplayWorkload),
    /// Seeded correlated multi-camera burst events.
    CorrelatedBursts(CorrelatedBurstWorkload),
}

impl WorkloadSpec {
    /// The generator behind this spec.
    pub fn generator(&self) -> &dyn WorkloadGenerator {
        match self {
            WorkloadSpec::Synthetic(g) => g,
            WorkloadSpec::Piecewise(g) => g,
            WorkloadSpec::Diurnal(g) => g,
            WorkloadSpec::FlashCrowd(g) => g,
            WorkloadSpec::ClusterReplay(g) => g,
            WorkloadSpec::CorrelatedBursts(g) => g,
        }
    }

    /// Produce the offered-rate trace for one run.
    pub fn generate(&self, seed: u64) -> WorkloadTrace {
        self.generator().generate(seed)
    }

    /// The base workload shape.
    pub fn config(&self) -> &WorkloadConfig {
        self.generator().config()
    }

    /// The same generator re-based on a different workload shape —
    /// used by the fleet (per-server camera counts / rates) and the
    /// serving path (CLI duration/rate overrides). Shape parameters
    /// are multipliers of nominal, so they transfer unchanged.
    pub fn with_config(&self, config: WorkloadConfig) -> WorkloadSpec {
        match self {
            WorkloadSpec::Synthetic(_) => WorkloadSpec::Synthetic(SyntheticWorkload { config }),
            WorkloadSpec::Piecewise(g) => WorkloadSpec::Piecewise(PiecewiseWorkload {
                config,
                rates: g.rates.clone(),
            }),
            WorkloadSpec::Diurnal(g) => WorkloadSpec::Diurnal(DiurnalWorkload {
                config,
                ..g.clone()
            }),
            WorkloadSpec::FlashCrowd(g) => WorkloadSpec::FlashCrowd(FlashCrowdWorkload {
                config,
                ..g.clone()
            }),
            WorkloadSpec::ClusterReplay(g) => WorkloadSpec::ClusterReplay(ClusterReplayWorkload {
                config,
                utilization: g.utilization.clone(),
                scale: g.scale,
            }),
            WorkloadSpec::CorrelatedBursts(g) => {
                WorkloadSpec::CorrelatedBursts(CorrelatedBurstWorkload {
                    config,
                    ..g.clone()
                })
            }
        }
    }

    /// Freeze an already-sampled trace into a replayable spec.
    pub fn from_trace(trace: &WorkloadTrace) -> WorkloadSpec {
        WorkloadSpec::Piecewise(PiecewiseWorkload {
            config: trace.config,
            rates: trace.rates.clone(),
        })
    }

    /// The paper's default synthetic workload.
    pub fn paper_default() -> WorkloadSpec {
        WorkloadSpec::Synthetic(SyntheticWorkload {
            config: WorkloadConfig::paper_default(),
        })
    }

    /// Sanity-check parameters that would make a run meaningless.
    pub fn validate(&self) -> Result<(), String> {
        let cfg = self.config();
        if cfg.cameras == 0 {
            return Err("workload: cameras must be > 0".into());
        }
        if !cfg.ips_per_camera.is_finite() || cfg.ips_per_camera <= 0.0 {
            return Err("workload: ips_per_camera must be finite and > 0".into());
        }
        if !cfg.duration_s.is_finite() || cfg.duration_s <= 0.0 {
            return Err("workload: duration_s must be finite and > 0".into());
        }
        match self {
            WorkloadSpec::Piecewise(g) => {
                if g.rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
                    return Err("workload(piecewise): rates must be finite and >= 0".into());
                }
            }
            WorkloadSpec::Diurnal(g) => {
                if g.min_multiplier > g.max_multiplier {
                    return Err("workload(diurnal): min_multiplier > max_multiplier".into());
                }
                if g.min_multiplier < 0.0 {
                    return Err("workload(diurnal): min_multiplier must be >= 0".into());
                }
            }
            WorkloadSpec::FlashCrowd(g) => {
                if g.peak_multiplier.is_nan() || g.peak_multiplier < 1.0 {
                    return Err("workload(flash-crowd): peak_multiplier must be >= 1".into());
                }
            }
            WorkloadSpec::ClusterReplay(g) => {
                if g.utilization.iter().any(|u| !u.is_finite() || *u < 0.0) {
                    return Err("workload(cluster-replay): utilization must be finite, >= 0".into());
                }
                if g.scale.is_nan() || g.scale <= 0.0 {
                    return Err("workload(cluster-replay): scale must be > 0".into());
                }
            }
            WorkloadSpec::CorrelatedBursts(g) => {
                if g.burst_multiplier.is_nan() || g.burst_multiplier < 1.0 {
                    return Err("workload(correlated-bursts): burst_multiplier must be >= 1".into());
                }
                if !(0.0..=1.0).contains(&g.camera_fraction) {
                    return Err(
                        "workload(correlated-bursts): camera_fraction must be in [0, 1]".into(),
                    );
                }
            }
            WorkloadSpec::Synthetic(_) => {}
        }
        Ok(())
    }

    /// Load a bare workload spec from a JSON file (the CLI's
    /// `--workload <file>`), validating it.
    pub fn load_json(path: impl AsRef<Path>) -> io::Result<WorkloadSpec> {
        let text = std::fs::read_to_string(path)?;
        let spec: WorkloadSpec = serde_json::from_str(&text).map_err(io::Error::other)?;
        spec.validate().map_err(io::Error::other)?;
        Ok(spec)
    }

    /// Save this spec as pretty-printed JSON.
    pub fn save_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let text = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        std::fs::write(path, text + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> WorkloadConfig {
        WorkloadConfig::paper_default()
    }

    #[test]
    fn synthetic_spec_matches_sample() {
        let spec = WorkloadSpec::paper_default();
        assert_eq!(spec.generate(9), cfg().sample(9));
    }

    #[test]
    fn piecewise_replays_exactly() {
        let trace = cfg().sample(33);
        let spec = WorkloadSpec::from_trace(&trace);
        // Seed-independent: replay is the trace.
        assert_eq!(spec.generate(0), trace);
        assert_eq!(spec.generate(99), trace);
    }

    #[test]
    fn diurnal_spans_min_to_max() {
        let spec = DiurnalWorkload {
            config: WorkloadConfig {
                duration_s: 100.0,
                deviation_period_s: 1.0,
                ..cfg()
            },
            min_multiplier: 0.5,
            max_multiplier: 1.5,
            cycles: 1.0,
            phase: 0.0,
        };
        let trace = spec.generate(0);
        assert_eq!(trace.rates.len(), 100);
        let lo = trace.rates.iter().cloned().fold(f64::MAX, f64::min);
        let hi = trace.rates.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (0.5 * 600.0 - 1.0..0.55 * 600.0).contains(&lo),
            "trough {lo}"
        );
        assert!(
            (1.45 * 600.0..=1.5 * 600.0 + 1.0).contains(&hi),
            "peak {hi}"
        );
    }

    #[test]
    fn flash_crowd_ramps_holds_and_decays() {
        let spec = FlashCrowdWorkload {
            config: WorkloadConfig {
                duration_s: 40.0,
                deviation_period_s: 1.0,
                ..cfg()
            },
            start_s: 10.0,
            ramp_s: 5.0,
            hold_s: 10.0,
            decay_s: 5.0,
            peak_multiplier: 3.0,
        };
        let trace = spec.generate(0);
        assert_eq!(trace.rates[0], 600.0); // baseline before the crowd
        assert_eq!(trace.rates[18], 1800.0); // at peak during the hold
        assert_eq!(trace.rates[35], 600.0); // back to baseline
        assert!(trace.rates[12] > 600.0 && trace.rates[12] < 1800.0); // mid-ramp
    }

    #[test]
    fn cluster_replay_tracks_curve() {
        let spec = ClusterReplayWorkload::alibaba_like(
            WorkloadConfig {
                duration_s: 48.0,
                deviation_period_s: 1.0,
                ..cfg()
            },
            1.0,
        );
        let trace = spec.generate(0);
        // Peak bin is 1.00 → max rate ≈ nominal; trough well below.
        let hi = trace.rates.iter().cloned().fold(f64::MIN, f64::max);
        let lo = trace.rates.iter().cloned().fold(f64::MAX, f64::min);
        assert!(hi <= 600.0 + 1e-9 && hi > 570.0, "peak {hi}");
        assert!(lo < 0.45 * 600.0, "trough {lo}");
    }

    #[test]
    fn correlated_bursts_are_seeded_and_deterministic() {
        let spec = CorrelatedBurstWorkload {
            config: WorkloadConfig {
                duration_s: 60.0,
                deviation_period_s: 1.0,
                ..cfg()
            },
            mean_events: 4.0,
            burst_duration_s: 6.0,
            burst_multiplier: 2.5,
            camera_fraction: 0.5,
        };
        assert_eq!(spec.generate(7), spec.generate(7));
        assert_ne!(spec.generate(7).rates, spec.generate(8).rates);
        // Rates never drop below baseline or exceed the all-burst cap.
        for seed in 0..16 {
            for &r in &spec.generate(seed).rates {
                assert!((600.0..=1500.0).contains(&r), "rate {r} seed {seed}");
            }
        }
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let specs = vec![
            WorkloadSpec::paper_default(),
            WorkloadSpec::from_trace(&cfg().sample(5)),
            WorkloadSpec::Diurnal(DiurnalWorkload {
                config: cfg(),
                min_multiplier: 0.4,
                max_multiplier: 1.6,
                cycles: 2.0,
                phase: 0.25,
            }),
            WorkloadSpec::FlashCrowd(FlashCrowdWorkload {
                config: cfg(),
                start_s: 5.0,
                ramp_s: 2.0,
                hold_s: 6.0,
                decay_s: 4.0,
                peak_multiplier: 2.5,
            }),
            WorkloadSpec::ClusterReplay(ClusterReplayWorkload::alibaba_like(cfg(), 1.2)),
            WorkloadSpec::CorrelatedBursts(CorrelatedBurstWorkload {
                config: cfg(),
                mean_events: 3.0,
                burst_duration_s: 4.0,
                burst_multiplier: 2.0,
                camera_fraction: 0.3,
            }),
        ];
        for spec in specs {
            let json = serde_json::to_string(&spec).unwrap();
            let back: WorkloadSpec = serde_json::from_str(&json).expect("roundtrip");
            assert_eq!(back, spec, "json {json}");
        }
    }

    #[test]
    fn unknown_kind_and_fields_are_rejected() {
        assert!(serde_json::from_str::<WorkloadSpec>(r#"{"kind": "mystery"}"#).is_err());
        let json = serde_json::to_string(&WorkloadSpec::paper_default()).unwrap();
        let tainted = json.replacen('{', r#"{"surprise":1,"#, 1);
        assert!(serde_json::from_str::<WorkloadSpec>(&tainted).is_err());
        // Unknown fields inside config are rejected too.
        let tainted = json.replacen(r#""config":{"#, r#""config":{"extra":1,"#, 1);
        assert_ne!(tainted, json, "replacement must hit");
        assert!(serde_json::from_str::<WorkloadSpec>(&tainted).is_err());
    }

    #[test]
    fn with_config_rebases_every_variant() {
        let new_cfg = WorkloadConfig {
            cameras: 4,
            ips_per_camera: 10.0,
            ..cfg()
        };
        let spec = WorkloadSpec::Diurnal(DiurnalWorkload {
            config: cfg(),
            min_multiplier: 0.5,
            max_multiplier: 1.5,
            cycles: 1.0,
            phase: 0.0,
        });
        let rebased = spec.with_config(new_cfg);
        assert_eq!(*rebased.config(), new_cfg);
        // Shape transfers: rates scale with the new nominal.
        let a = spec.generate(0);
        let b = rebased.generate(0);
        for (ra, rb) in a.rates.iter().zip(&b.rates) {
            assert!((ra / 600.0 - rb / 40.0).abs() < 1e-12);
        }
    }
}
