//! Versioned scenario files: one JSON document that fully describes a
//! run — workload generator, fault plan, simulation/fleet/serving
//! parameters, and the seed.
//!
//! The CLI replays these via `--scenario <file>` (htsim-style), the
//! golden suite pins a committed library of them under
//! `tests/golden/scenarios/`, and the bench gates run the adversarial
//! one. Parsing is *strict*: a schema-version gate plus
//! unknown-field rejection at every level this crate owns, so a typo'd
//! or future-versioned file errors instead of silently running
//! defaults.

use crate::fault::FaultPlan;
use crate::fleet::{FleetConfig, PlacementPolicy, DEFAULT_CAMERA_SPREAD, DEFAULT_PLACEMENT};
use crate::serve_sim::ServeScenarioConfig;
use crate::sim::SimConfig;
use crate::workload::WorkloadConfig;
use crate::workload_gen::{
    ClusterReplayWorkload, CorrelatedBurstWorkload, DiurnalWorkload, FlashCrowdWorkload,
    WorkloadSpec,
};
use serde::{Deserialize, Serialize, Value};
use std::io;
use std::path::Path;

/// Current scenario-file schema version. Bump on any incompatible
/// change to the wire format; readers reject other versions.
pub const SCENARIO_SCHEMA_VERSION: u32 = 1;

/// Optional per-scenario overrides of [`SimConfig`] fields; absent
/// fields keep the paper defaults (and the artifact-derived
/// reconfiguration time).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SimOverrides {
    /// Simulation tick in seconds.
    #[serde(default)]
    pub tick_s: Option<f64>,
    /// Seconds between runtime-manager decisions.
    #[serde(default)]
    pub monitor_period_s: Option<f64>,
    /// Frame-buffer capacity.
    #[serde(default)]
    pub queue_capacity: Option<usize>,
    /// FPGA reconfiguration downtime in milliseconds.
    #[serde(default)]
    pub reconfig_time_ms: Option<f64>,
    /// Board static power during reconfiguration, watts.
    #[serde(default)]
    pub reconfig_power_w: Option<f64>,
}

/// Fleet section: present means the scenario is a fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct FleetOverrides {
    /// Edge servers in the fleet.
    pub servers: usize,
    /// Camera streams per server.
    pub cameras_per_server: usize,
    /// Relative spread of per-camera nominal rates (0.2 = ±20 %).
    #[serde(default = "default_camera_spread")]
    pub camera_spread: f64,
    /// Stream-placement policy.
    #[serde(default = "default_placement")]
    pub placement: PlacementPolicy,
}

fn default_camera_spread() -> f64 {
    DEFAULT_CAMERA_SPREAD
}

fn default_placement() -> PlacementPolicy {
    DEFAULT_PLACEMENT
}

/// Serving section: overrides applied on top of
/// [`ServeScenarioConfig::paper_default`] when the scenario drives the
/// DES serving path.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ServeOverrides {
    /// Relative weight of each SLO class in the arrival mix.
    #[serde(default)]
    pub class_weights: Option<Vec<f64>>,
    /// Seconds between runtime-manager monitoring decisions.
    #[serde(default)]
    pub monitor_period_s: Option<f64>,
}

/// One fully-described run: workload + faults + parameters + seed.
///
/// Read it through [`ScenarioFile::from_json_str`] (or `load_json`),
/// which checks `schema_version` before the typed parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ScenarioFile {
    /// Wire-format version; must equal [`SCENARIO_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Stable scenario name (doubles as the golden-snapshot key).
    pub name: String,
    /// Human-readable description of the traffic/fault story.
    #[serde(default)]
    pub description: String,
    /// Base seed for the run (CLI `--seed` overrides).
    #[serde(default)]
    pub seed: u64,
    /// The workload generator.
    pub workload: WorkloadSpec,
    /// Fault plan; defaults to fault-free.
    #[serde(default)]
    pub faults: FaultPlan,
    /// Simulation-parameter overrides.
    #[serde(default)]
    pub sim: SimOverrides,
    /// Fleet section (present ⇒ fleet run).
    #[serde(default)]
    pub fleet: Option<FleetOverrides>,
    /// Serving-path overrides.
    #[serde(default)]
    pub serve: Option<ServeOverrides>,
}

impl ScenarioFile {
    /// A minimal scenario around a workload spec.
    pub fn new(name: impl Into<String>, workload: WorkloadSpec, seed: u64) -> ScenarioFile {
        ScenarioFile {
            schema_version: SCENARIO_SCHEMA_VERSION,
            name: name.into(),
            description: String::new(),
            seed,
            workload,
            faults: FaultPlan::none(),
            sim: SimOverrides::default(),
            fleet: None,
            serve: None,
        }
    }

    /// Rejects parameter combinations that would make the run
    /// meaningless (load errors call this automatically).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("scenario: name must be non-empty".into());
        }
        self.workload.validate()?;
        self.faults.validate()?;
        if let Some(t) = self.sim.tick_s {
            if !t.is_finite() || t <= 0.0 {
                return Err("scenario.sim: tick_s must be finite and > 0".into());
            }
        }
        if let Some(p) = self.sim.monitor_period_s {
            if !p.is_finite() || p <= 0.0 {
                return Err("scenario.sim: monitor_period_s must be finite and > 0".into());
            }
        }
        // `EdgeSimulation::new` needs the monitor period to cover a
        // tick; either side may be an override or the paper default.
        let effective = self.sim_config(0.0);
        if effective.monitor_period_s < effective.tick_s {
            return Err(format!(
                "scenario.sim: monitor_period_s ({}) must be >= tick_s ({})",
                effective.monitor_period_s, effective.tick_s
            ));
        }
        if let Some(f) = &self.fleet {
            if f.servers == 0 {
                return Err("scenario.fleet: servers must be > 0".into());
            }
            if f.cameras_per_server == 0 {
                return Err("scenario.fleet: cameras_per_server must be > 0".into());
            }
        }
        if let Some(s) = &self.serve {
            if let Some(w) = &s.class_weights {
                if w.is_empty() || w.iter().any(|x| !x.is_finite() || *x < 0.0) {
                    return Err(
                        "scenario.serve: class_weights must be non-empty, finite, >= 0".into()
                    );
                }
            }
        }
        Ok(())
    }

    /// The simulation config this scenario runs under:
    /// [`SimConfig::paper_default`] at `default_reconfig_ms` (normally
    /// the artifact-derived reconfiguration time), the spec's workload
    /// shape, and the scenario's explicit overrides on top.
    pub fn sim_config(&self, default_reconfig_ms: f64) -> SimConfig {
        let mut cfg =
            SimConfig::paper_default(self.sim.reconfig_time_ms.unwrap_or(default_reconfig_ms));
        cfg.workload = *self.workload.config();
        if let Some(v) = self.sim.tick_s {
            cfg.tick_s = v;
        }
        if let Some(v) = self.sim.monitor_period_s {
            cfg.monitor_period_s = v;
        }
        if let Some(v) = self.sim.queue_capacity {
            cfg.queue_capacity = v;
        }
        if let Some(v) = self.sim.reconfig_power_w {
            cfg.reconfig_power_w = v;
        }
        cfg
    }

    /// The fleet config for a fleet scenario (`None` when the scenario
    /// has no fleet section). The per-server camera count comes from
    /// the fleet section; the placer re-bases rates per server.
    pub fn fleet_config(&self, default_reconfig_ms: f64) -> Option<FleetConfig> {
        self.fleet.map(|f| {
            let mut sim = self.sim_config(default_reconfig_ms);
            sim.workload = WorkloadConfig {
                cameras: f.cameras_per_server,
                ..sim.workload
            };
            FleetConfig {
                servers: f.servers,
                cameras_per_server: f.cameras_per_server,
                camera_spread: f.camera_spread,
                placement: f.placement,
                sim,
            }
        })
    }

    /// Applies this scenario to a serve-twin server: workload shape,
    /// monitor period, reconfiguration time and the serve-section
    /// overrides. The episode (workload spec, faults, seed) travels in
    /// the `RunSpec`, as it does for `sim_config`; the caller's `serve`
    /// data-plane config and any later CLI overrides stay in charge of
    /// the rest.
    pub fn apply_serve(&self, cfg: &mut ServeScenarioConfig) {
        let serve = self.serve.as_ref();
        cfg.workload = *self.workload.config();
        cfg.reconfig_time_ms = self.sim.reconfig_time_ms.unwrap_or(cfg.reconfig_time_ms);
        cfg.monitor_period_s = serve
            .and_then(|s| s.monitor_period_s)
            .or(self.sim.monitor_period_s)
            .unwrap_or(cfg.monitor_period_s);
        if let Some(weights) = serve.and_then(|s| s.class_weights.clone()) {
            cfg.class_weights = weights;
        }
    }

    /// Parses and validates a scenario from a JSON string.
    ///
    /// The schema version is checked first, so a file from a future
    /// version reports `schema_version` even when it also carries keys
    /// this build does not know.
    pub fn from_json_str(text: &str) -> Result<ScenarioFile, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if let Some(version) = value.get("schema_version").and_then(Value::as_u64) {
            if version != u64::from(SCENARIO_SCHEMA_VERSION) {
                return Err(format!(
                    "scenario: unsupported schema_version {version} \
                     (this build reads version {SCENARIO_SCHEMA_VERSION})"
                ));
            }
        }
        let file = ScenarioFile::from_value(&value).map_err(|e| e.to_string())?;
        file.validate()?;
        Ok(file)
    }

    /// Loads and validates a scenario file.
    pub fn load_json(path: impl AsRef<Path>) -> io::Result<ScenarioFile> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)?;
        ScenarioFile::from_json_str(&text)
            .map_err(|e| io::Error::other(format!("{}: {e}", path.display())))
    }

    /// Saves this scenario as pretty-printed JSON (trailing newline,
    /// matching the golden-file convention).
    pub fn save_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let text = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        std::fs::write(path, text + "\n")
    }
}

/// The committed scenario library (`tests/golden/scenarios/`), as
/// code. The lockstep test in `tests/golden_scenario_library.rs`
/// asserts the committed files byte-match these constructors, so the
/// two can never drift.
pub fn builtin_library() -> Vec<ScenarioFile> {
    let base = WorkloadConfig::paper_default();
    vec![
        ScenarioFile {
            description: "The paper's synthetic ±30% workload, as a scenario file: \
                          the identity case for the synthetic↔trace differential."
                .into(),
            ..ScenarioFile::new("paper-synthetic", WorkloadSpec::paper_default(), 1213)
        },
        ScenarioFile {
            description: "One smooth day/night cycle between 40% and 160% of nominal \
                          over a 30 s run."
                .into(),
            ..ScenarioFile::new(
                "diurnal-cycle",
                WorkloadSpec::Diurnal(DiurnalWorkload {
                    config: WorkloadConfig {
                        duration_s: 30.0,
                        deviation: 0.0,
                        deviation_period_s: 1.0,
                        ..base
                    },
                    min_multiplier: 0.4,
                    max_multiplier: 1.6,
                    cycles: 1.0,
                    phase: 0.0,
                }),
                2601,
            )
        },
        ScenarioFile {
            description: "A flash crowd: 4 s ramp to 2.5x nominal at t=8 s, 8 s hold, \
                          6 s decay back to baseline."
                .into(),
            ..ScenarioFile::new(
                "flash-crowd",
                WorkloadSpec::FlashCrowd(FlashCrowdWorkload {
                    config: WorkloadConfig {
                        duration_s: 30.0,
                        deviation: 0.0,
                        deviation_period_s: 1.0,
                        ..base
                    },
                    start_s: 8.0,
                    ramp_s: 4.0,
                    hold_s: 8.0,
                    decay_s: 6.0,
                    peak_multiplier: 2.5,
                }),
                3301,
            )
        },
        ScenarioFile {
            fleet: Some(FleetOverrides {
                servers: 3,
                cameras_per_server: 10,
                camera_spread: 0.2,
                placement: PlacementPolicy::LeastLoaded,
            }),
            description: "An Alibaba-style normalized daily cluster-utilization curve \
                          replayed over 24 s, driving a 3-server fleet."
                .into(),
            ..ScenarioFile::new(
                "cluster-replay",
                WorkloadSpec::ClusterReplay(ClusterReplayWorkload::alibaba_like(
                    WorkloadConfig {
                        cameras: 10,
                        duration_s: 24.0,
                        deviation: 0.0,
                        deviation_period_s: 1.0,
                        ..base
                    },
                    1.3,
                )),
                4901,
            )
        },
        ScenarioFile {
            description: "Seeded correlated multi-camera events: ~3 bursts, each \
                          lifting half the cameras to 2x for 5 s; overlaps stack."
                .into(),
            ..ScenarioFile::new(
                "correlated-bursts",
                WorkloadSpec::CorrelatedBursts(CorrelatedBurstWorkload {
                    config: WorkloadConfig {
                        duration_s: 30.0,
                        deviation: 0.0,
                        deviation_period_s: 1.0,
                        ..base
                    },
                    mean_events: 3.0,
                    burst_duration_s: 5.0,
                    burst_multiplier: 2.0,
                    camera_fraction: 0.5,
                }),
                5501,
            )
        },
        ScenarioFile {
            faults: FaultPlan::canned(),
            description: "Adversarial combination: a 1.8x flash crowd layered on the \
                          canned fault plan (reconfig aborts/overruns, camera dropout, \
                          stale flood, accuracy dip, staleness bound)."
                .into(),
            ..ScenarioFile::new(
                "adversarial-flash-faults",
                WorkloadSpec::FlashCrowd(FlashCrowdWorkload {
                    config: WorkloadConfig {
                        duration_s: 30.0,
                        deviation: 0.0,
                        deviation_period_s: 1.0,
                        ..base
                    },
                    start_s: 6.0,
                    ramp_s: 3.0,
                    hold_s: 9.0,
                    decay_s: 6.0,
                    peak_multiplier: 1.8,
                }),
                6701,
            )
        },
    ]
}

/// Looks up a builtin scenario by name.
pub fn builtin_scenario(name: &str) -> Option<ScenarioFile> {
    builtin_library().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_library_is_valid_and_named_uniquely() {
        let lib = builtin_library();
        assert!(lib.len() >= 5, "ship at least 5 scenarios");
        let mut names: Vec<&str> = lib.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), lib.len(), "scenario names must be unique");
        for s in &lib {
            s.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert!(!s.description.is_empty(), "{}: description", s.name);
        }
        assert!(
            builtin_scenario("adversarial-flash-faults").is_some(),
            "the adversarial scenario must ship"
        );
    }

    #[test]
    fn scenarios_roundtrip_through_json() {
        for s in builtin_library() {
            let json = serde_json::to_string_pretty(&s).unwrap();
            let back = ScenarioFile::from_json_str(&json).expect("roundtrip");
            assert_eq!(back, s, "{}", s.name);
        }
    }

    #[test]
    fn version_mismatch_is_rejected_with_a_clear_error() {
        let json = serde_json::to_string(&builtin_library()[0]).unwrap();
        let bumped = json.replacen("\"schema_version\":1", "\"schema_version\":2", 1);
        assert_ne!(json, bumped, "replacement must hit");
        let err = ScenarioFile::from_json_str(&bumped).unwrap_err();
        assert!(err.contains("schema_version"), "error: {err}");
        // A future file may also carry keys this build does not know;
        // the version is still what it reports (the unknown-key error
        // lists `schema_version` among the accepted keys, so the key
        // itself must not be named).
        let future = bumped.replacen('{', "{\"added_in_v2\":1,", 1);
        let err = ScenarioFile::from_json_str(&future).unwrap_err();
        assert!(err.contains("schema_version 2"), "error: {err}");
        assert!(!err.contains("added_in_v2"), "error: {err}");
    }

    #[test]
    fn unknown_fields_are_rejected_at_every_level() {
        let base = serde_json::to_string(&builtin_library()[0]).unwrap();
        for (from, to) in [
            ("{", "{\"mystery\":1,"),                        // top level
            ("\"workload\":{", "\"workload\":{\"oops\":1,"), // workload
            ("\"sim\":{", "\"sim\":{\"typo_s\":1,"),         // sim section
            ("\"faults\":{", "\"faults\":{\"reconfig_failure_prb\":0.9,"), // fault plan
        ] {
            let tainted = base.replacen(from, to, 1);
            assert_ne!(base, tainted, "replacement must hit: {from}");
            assert!(
                ScenarioFile::from_json_str(&tainted).is_err(),
                "accepted: {to}"
            );
        }
        // Inside the fault plan's own structs, and the serve section:
        // the error names the stray key.
        let mut faulted = builtin_scenario("adversarial-flash-faults").unwrap();
        faulted.serve = Some(ServeOverrides::default());
        let base = serde_json::to_string(&faulted).unwrap();
        for (from, to, key) in [
            ("\"window\":{", "\"window\":{\"oops\":1,", "oops"),
            ("\"dropouts\":[{", "\"dropouts\":[{\"fractoin\":0.5,", "fractoin"),
            ("\"floods\":[{", "\"floods\":[{\"multipler\":2,", "multipler"),
            ("\"accuracy_faults\":[{", "\"accuracy_faults\":[{\"dleta\":0.1,", "dleta"),
            ("\"serve\":{", "\"serve\":{\"class_wieghts\":[1],", "class_wieghts"),
        ] {
            let tainted = base.replacen(from, to, 1);
            assert_ne!(base, tainted, "replacement must hit: {from}");
            let err = ScenarioFile::from_json_str(&tainted).unwrap_err();
            assert!(err.contains(&format!("`{key}`")), "{to}: {err}");
        }
    }

    /// The builtin scenario `name` with the entry at `path` set to
    /// `null`, parsed.
    fn parse_with_null(name: &str, path: &[&str]) -> Result<ScenarioFile, String> {
        let mut value = builtin_scenario(name).unwrap().to_value();
        let mut entry = &mut value;
        for key in path {
            let Value::Object(entries) = entry else { unreachable!("{path:?}") };
            entry = &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        *entry = Value::Null;
        ScenarioFile::from_json_str(&serde_json::to_string(&value).unwrap())
    }

    #[test]
    fn null_reads_as_absent_only_for_option_fields() {
        // A key left out takes its default; written as `null`, a key of
        // a non-`Option` field is an error naming the field.
        for (name, path) in [
            ("paper-synthetic", &["description"][..]),
            ("paper-synthetic", &["seed"]),
            ("paper-synthetic", &["faults"]),
            ("paper-synthetic", &["sim"]),
            ("cluster-replay", &["fleet", "camera_spread"]),
            ("cluster-replay", &["fleet", "placement"]),
        ] {
            let err = parse_with_null(name, path).unwrap_err();
            assert!(err.starts_with(&format!("{}: ", path.join("."))), "{path:?}: {err}");
        }
        // An `Option` field reads `null` as `None`, as the golden files
        // write `"serve": null`.
        assert_eq!(parse_with_null("cluster-replay", &["fleet"]).unwrap().fleet, None);
    }

    #[test]
    fn truncated_files_error_instead_of_panicking() {
        let json = serde_json::to_string(&builtin_library()[5]).unwrap();
        for cut in [1, json.len() / 4, json.len() / 2, json.len() - 1] {
            let prefix = &json[..cut];
            assert!(
                ScenarioFile::from_json_str(prefix).is_err(),
                "prefix of {cut} bytes parsed"
            );
        }
    }

    #[test]
    fn monitor_period_shorter_than_a_tick_is_rejected() {
        // Each override alone undercuts the other side's paper default
        // (tick 1 ms, monitor period 1 s); equal values are the bound.
        for (tick_s, monitor_period_s, ok) in [
            (None, Some(0.0001), false),
            (Some(2.0), None, false),
            (Some(0.5), Some(0.25), false),
            (Some(0.5), Some(0.5), true),
        ] {
            let mut s = builtin_library()[0].clone();
            s.sim.tick_s = tick_s;
            s.sim.monitor_period_s = monitor_period_s;
            let json = serde_json::to_string(&s).unwrap();
            let parsed = ScenarioFile::from_json_str(&json);
            assert_eq!(parsed.is_ok(), ok, "tick {tick_s:?} period {monitor_period_s:?}");
            if let Err(e) = parsed {
                assert!(e.contains("monitor_period_s"), "error: {e}");
            }
        }
    }

    #[test]
    fn sim_and_fleet_configs_apply_overrides() {
        let mut s = builtin_library()[0].clone();
        s.sim.queue_capacity = Some(16);
        s.sim.monitor_period_s = Some(0.5);
        let cfg = s.sim_config(145.0);
        assert_eq!(cfg.queue_capacity, 16);
        assert_eq!(cfg.monitor_period_s, 0.5);
        assert_eq!(cfg.reconfig_time_ms, 145.0);
        assert_eq!(cfg.workload, *s.workload.config());
        assert!(s.fleet_config(145.0).is_none());

        let fleet_scenario = builtin_scenario("cluster-replay").unwrap();
        let fleet_cfg = fleet_scenario.fleet_config(145.0).expect("fleet section");
        assert_eq!(fleet_cfg.servers, 3);
        assert_eq!(fleet_cfg.sim.workload.cameras, 10);
    }

    #[test]
    fn apply_serve_threads_shape_and_overrides() {
        let mut s = builtin_scenario("adversarial-flash-faults").unwrap();
        s.sim.reconfig_time_ms = Some(80.0);
        s.serve = Some(ServeOverrides {
            class_weights: Some(vec![2.0, 1.0]),
            monitor_period_s: Some(0.5),
        });
        let mut cfg = ServeScenarioConfig::paper_default(145.0);
        s.apply_serve(&mut cfg);
        assert_eq!(cfg.workload, *s.workload.config());
        assert_eq!(cfg.reconfig_time_ms, 80.0);
        assert_eq!(cfg.class_weights, vec![2.0, 1.0]);
        assert_eq!(cfg.monitor_period_s, 0.5);
    }

    #[test]
    fn out_of_range_fault_plans_are_rejected_with_the_field_named() {
        let base = serde_json::to_string(&builtin_scenario("adversarial-flash-faults").unwrap())
            .unwrap();
        for (from, to, field) in [
            ("\"reconfig_overrun_factor\":4.0", "\"reconfig_overrun_factor\":1e30", "overrun_factor"),
            ("\"fraction\":0.5", "\"fraction\":1.5", "dropouts[].fraction"),
            ("\"reconfig_failure_prob\":0.6", "\"reconfig_failure_prob\":-0.1", "failure_prob"),
            ("\"start_s\":18.0", "\"start_s\":22.0", "dropouts[].window"),
        ] {
            let tainted = base.replacen(from, to, 1);
            assert_ne!(base, tainted, "replacement must hit: {from}");
            let err = ScenarioFile::from_json_str(&tainted).unwrap_err();
            assert!(err.contains(field), "{to}: {err}");
        }
    }

    #[test]
    fn save_and_load_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("adapex-scenario-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.json");
        let s = builtin_library()[2].clone();
        s.save_json(&path).unwrap();
        let back = ScenarioFile::load_json(&path).unwrap();
        assert_eq!(back, s);
        std::fs::remove_dir_all(&dir).ok();
    }
}
