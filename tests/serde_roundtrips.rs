//! Serialization round-trips for every persistable artifact: trained
//! networks, IR, folding configs and libraries survive JSON untouched
//! (the design-time/runtime split of the paper depends on this).

use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::layers::Activation;
use adapex_nn::network::EarlyExitNetwork;
use finn_dataflow::{FoldingConfig, ModelIr};

#[test]
fn trained_network_roundtrips_and_still_infers() {
    use adapex_dataset::{DatasetKind, SyntheticConfig};
    use adapex_nn::train::{TrainConfig, Trainer};
    let data = SyntheticConfig::new(DatasetKind::Cifar10Like)
        .with_sizes(40, 10)
        .generate();
    let mut net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 1);
    Trainer::new(TrainConfig {
        epochs: 1,
        ..TrainConfig::fast()
    })
    .fit(&mut net, &data, 1);

    let json = serde_json::to_string(&net).expect("serialize network");
    let mut back: EarlyExitNetwork = serde_json::from_str(&json).expect("parse network");

    // Identical inference on both copies (eval mode; caches are skipped
    // in serde and rebuilt on demand).
    let x = Activation::new(
        (0..3 * 32 * 32).map(|v| (v as f32 * 0.013).sin()).collect(),
        1,
        vec![3, 32, 32],
    );
    let a = net.forward(&x, false);
    let b = back.forward(&x, false);
    assert_eq!(a.len(), b.len());
    for (ya, yb) in a.iter().zip(&b) {
        assert_eq!(ya.data, yb.data);
    }
}

#[test]
fn ir_and_folding_roundtrip() {
    let net = CnvConfig::tiny().build_early_exit(43, &ExitsConfig::paper_default(), 2);
    let ir = ModelIr::from_summary(&net.summarize());
    let ir_back: ModelIr =
        serde_json::from_str(&serde_json::to_string(&ir).expect("serialize ir")).expect("parse ir");
    assert_eq!(ir, ir_back);

    let folding = FoldingConfig::balanced(&ir, 100_000, 2.0);
    let json = folding.to_json().expect("folding json");
    let folding_back = FoldingConfig::from_json(&json).expect("parse folding");
    assert_eq!(folding, folding_back);
}

#[test]
fn pruned_network_roundtrips() {
    use adapex_prune::{ConstraintMap, PruneConfig, Pruner};
    let net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 1);
    let (pruned, _) = Pruner::new(PruneConfig {
        rate: 0.5,
        prune_exits: true,
    })
    .prune(&net, &ConstraintMap::uniform(2, 2));
    let back: EarlyExitNetwork =
        serde_json::from_str(&serde_json::to_string(&pruned).expect("serialize")).expect("parse");
    assert_eq!(pruned, back);
}

mod sim_config_roundtrips {
    use adapex_edge::{FleetConfig, PlacementPolicy, SimConfig, WorkloadConfig};
    use proptest::prelude::*;

    fn workload_strategy() -> impl Strategy<Value = WorkloadConfig> {
        (1usize..200, 1.0f64..120.0, 1.0f64..60.0, 0.0f64..0.9, 0.5f64..10.0).prop_map(
            |(cameras, ips_per_camera, duration_s, deviation, deviation_period_s)| WorkloadConfig {
                cameras,
                ips_per_camera,
                duration_s,
                deviation,
                deviation_period_s,
            },
        )
    }

    fn sim_strategy() -> impl Strategy<Value = SimConfig> {
        (
            workload_strategy(),
            0.0005f64..0.01,
            0.1f64..5.0,
            1usize..64,
            0.0f64..500.0,
            0.0f64..5.0,
        )
            .prop_map(
                |(workload, tick_s, monitor_period_s, queue_capacity, reconfig_time_ms, reconfig_power_w)| {
                    SimConfig {
                        workload,
                        tick_s,
                        monitor_period_s: monitor_period_s.max(tick_s),
                        queue_capacity,
                        reconfig_time_ms,
                        reconfig_power_w,
                    }
                },
            )
    }

    fn fleet_strategy() -> impl Strategy<Value = FleetConfig> {
        (
            1usize..2000,
            1usize..200,
            0.0f64..0.9,
            any::<bool>().prop_map(|least_loaded| {
                if least_loaded {
                    PlacementPolicy::LeastLoaded
                } else {
                    PlacementPolicy::RoundRobin
                }
            }),
            sim_strategy(),
        )
            .prop_map(
                |(servers, cameras_per_server, camera_spread, placement, sim)| FleetConfig {
                    servers,
                    cameras_per_server,
                    camera_spread,
                    placement,
                    sim,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn workload_config_roundtrips(cfg in workload_strategy()) {
            let back: WorkloadConfig =
                serde_json::from_str(&serde_json::to_string(&cfg).expect("serialize"))
                    .expect("parse");
            prop_assert_eq!(cfg, back);
        }

        #[test]
        fn sim_config_roundtrips(cfg in sim_strategy()) {
            let back: SimConfig =
                serde_json::from_str(&serde_json::to_string(&cfg).expect("serialize"))
                    .expect("parse");
            prop_assert_eq!(cfg, back);
        }

        #[test]
        fn fleet_config_roundtrips(cfg in fleet_strategy()) {
            let back: FleetConfig =
                serde_json::from_str(&serde_json::to_string(&cfg).expect("serialize"))
                    .expect("parse");
            prop_assert_eq!(cfg, back);
        }
    }
}

mod scenario_file_roundtrips {
    use adapex_edge::{
        builtin_library, ClusterReplayWorkload, CorrelatedBurstWorkload, DiurnalWorkload,
        EdgeSimulation, FlashCrowdWorkload, PiecewiseWorkload, ScenarioFile, SyntheticWorkload,
        WorkloadConfig, WorkloadSpec, SCENARIO_SCHEMA_VERSION,
    };
    use proptest::prelude::*;
    use serde_json::Value;

    fn workload_strategy() -> impl Strategy<Value = WorkloadConfig> {
        (1usize..200, 1.0f64..120.0, 1.0f64..60.0, 0.0f64..0.9, 0.5f64..10.0).prop_map(
            |(cameras, ips_per_camera, duration_s, deviation, deviation_period_s)| WorkloadConfig {
                cameras,
                ips_per_camera,
                duration_s,
                deviation,
                deviation_period_s,
            },
        )
    }

    /// Valid (post-`validate`) specs across every generator kind: a
    /// kind index dispatches over shared parameter draws (the vendored
    /// proptest has no `prop_oneof`, so union-by-index it is).
    fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
        (
            workload_strategy(),
            0usize..6,
            prop::collection::vec(0.0f64..5_000.0, 0..24),
            prop::collection::vec(0.0f64..1.0, 2..48),
            (0.0f64..1.0, 0.1f64..10.0, 0.0f64..20.0, 0.1f64..10.0, 1.0f64..4.0),
            (0.0f64..10.0, 0.5f64..20.0, 0.0f64..3.0, 0.0f64..1.0),
        )
            .prop_map(|(config, kind, rates, utilization, p, q)| {
                let (frac, ramp, start, decay, peak) = p;
                let (mean_events, burst_duration_s, extra, camera_fraction) = q;
                match kind {
                    0 => WorkloadSpec::Synthetic(SyntheticWorkload { config }),
                    1 => WorkloadSpec::Piecewise(PiecewiseWorkload { config, rates }),
                    2 => WorkloadSpec::Diurnal(DiurnalWorkload {
                        config,
                        min_multiplier: frac,
                        max_multiplier: frac + extra,
                        cycles: ramp,
                        phase: camera_fraction,
                    }),
                    3 => WorkloadSpec::FlashCrowd(FlashCrowdWorkload {
                        config,
                        start_s: start,
                        ramp_s: ramp,
                        hold_s: start,
                        decay_s: decay,
                        peak_multiplier: peak,
                    }),
                    4 => WorkloadSpec::ClusterReplay(ClusterReplayWorkload {
                        config,
                        utilization,
                        scale: ramp,
                    }),
                    _ => WorkloadSpec::CorrelatedBursts(CorrelatedBurstWorkload {
                        config,
                        mean_events,
                        burst_duration_s,
                        burst_multiplier: 1.0 + extra,
                        camera_fraction,
                    }),
                }
            })
    }

    fn scenario_strategy() -> impl Strategy<Value = ScenarioFile> {
        (spec_strategy(), any::<u64>(), 0usize..10_000).prop_map(|(spec, seed, n)| {
            ScenarioFile::new(format!("scenario-{n}"), spec, seed)
        })
    }

    /// Injected keys that collide with no real field of any kind.
    const UNKNOWN_KEYS: &[&str] = &["mystery", "typo_s", "zz_extra", "not_a_field"];

    /// Values a mutated key may be given in place of its own.
    const REPLACEMENTS: &[&str] = &["null", "-1", "1e308", "\"x\"", "[]", "{}"];

    /// The position of every object entry under `value`: child indices
    /// (entry or element) from the root down to the entry.
    fn entry_paths(value: &Value, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        let children: Vec<&Value> = match value {
            Value::Object(entries) => entries.iter().map(|(_, v)| v).collect(),
            Value::Array(items) => items.iter().collect(),
            _ => return,
        };
        for (i, child) in children.into_iter().enumerate() {
            path.push(i);
            if matches!(value, Value::Object(_)) {
                out.push(path.clone());
            }
            entry_paths(child, path, out);
            path.pop();
        }
    }

    /// The entries of the object that `path` (from [`entry_paths`])
    /// points into, and the entry's index there.
    fn entry_at<'a>(value: &'a mut Value, path: &[usize]) -> (&'a mut Vec<(String, Value)>, usize) {
        let (&last, parents) = path.split_last().expect("non-empty path");
        let mut v = value;
        for &i in parents {
            v = match v {
                Value::Object(entries) => &mut entries[i].1,
                Value::Array(items) => &mut items[i],
                _ => unreachable!("paths run through containers"),
            };
        }
        match v {
            Value::Object(entries) => (entries, last),
            _ => unreachable!("an entry path ends in an object"),
        }
    }

    /// A builtin scenario's JSON under one mutation: a byte flipped, the
    /// text truncated, a key deleted or a key's value replaced.
    fn mutated_scenario(which: usize, mutation: usize, at: f64, flip: u8, replacement: usize) -> String {
        let json = serde_json::to_string_pretty(&builtin_library()[which]).expect("serialize");
        let pick = |len: usize| ((len as f64 * at) as usize).min(len - 1);
        match mutation {
            0 => {
                let mut bytes = json.into_bytes();
                let i = pick(bytes.len());
                bytes[i] ^= flip;
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => String::from_utf8_lossy(&json.as_bytes()[..pick(json.len())]).into_owned(),
            _ => {
                let mut value: Value = serde_json::from_str(&json).expect("parse");
                let mut paths = Vec::new();
                entry_paths(&value, &mut Vec::new(), &mut paths);
                let (entries, i) = entry_at(&mut value, &paths[pick(paths.len())]);
                if mutation == 2 {
                    entries.remove(i);
                } else {
                    entries[i].1 = serde_json::from_str(REPLACEMENTS[replacement]).expect("literal");
                }
                serde_json::to_string(&value).expect("serialize")
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn workload_spec_roundtrips(spec in spec_strategy()) {
            prop_assert!(spec.validate().is_ok());
            let json = serde_json::to_string(&spec).expect("serialize");
            let back: WorkloadSpec = serde_json::from_str(&json).expect("parse");
            prop_assert_eq!(back, spec);
        }

        #[test]
        fn scenario_file_roundtrips(file in scenario_strategy()) {
            let json = serde_json::to_string_pretty(&file).expect("serialize");
            let back = ScenarioFile::from_json_str(&json).expect("parse");
            prop_assert_eq!(back, file);
        }

        #[test]
        fn unknown_spec_fields_are_rejected(spec in spec_strategy(), k in 0usize..4) {
            // Splice an unknown key into the spec's top level; the
            // strict parser must reject it for every generator kind.
            let key = UNKNOWN_KEYS[k];
            let json = serde_json::to_string(&spec).expect("serialize");
            let tainted = json.replacen('{', &format!("{{\"{key}\":0,"), 1);
            prop_assert!(tainted != json, "replacement must hit");
            prop_assert!(
                serde_json::from_str::<WorkloadSpec>(&tainted).is_err(),
                "accepted unknown field `{}`", key
            );
        }

        #[test]
        fn scenario_version_mismatch_is_rejected(file in scenario_strategy(), v in 2u32..1000) {
            let json = serde_json::to_string(&file).expect("serialize");
            let from = format!("\"schema_version\":{SCENARIO_SCHEMA_VERSION}");
            let bumped = json.replacen(&from, &format!("\"schema_version\":{v}"), 1);
            prop_assert!(bumped != json, "replacement must hit");
            let err = ScenarioFile::from_json_str(&bumped).unwrap_err();
            prop_assert!(err.contains("schema_version"), "error: {}", err);
        }

        /// A file's `sim` timing overrides either fail to parse or
        /// build a simulator: a monitor period shorter than the tick
        /// (on either side override or paper default — 1 ms tick, 1 s
        /// period) is a typed error, never the `EdgeSimulation::new`
        /// assert.
        #[test]
        fn sim_timing_overrides_parse_or_error_but_never_panic(
            file in scenario_strategy(),
            tick_ms in 0u32..3_000,
            period_tenth_ms in 0u32..30_000,
            which in 1usize..4,
        ) {
            let mut file = file;
            file.sim.tick_s = (which & 1 != 0).then_some(f64::from(tick_ms) / 1e3);
            file.sim.monitor_period_s =
                (which & 2 != 0).then_some(f64::from(period_tenth_ms) / 1e4);
            let tick = file.sim.tick_s.unwrap_or(0.001);
            let period = file.sim.monitor_period_s.unwrap_or(1.0);
            let json = serde_json::to_string(&file).expect("serialize");
            match ScenarioFile::from_json_str(&json) {
                Ok(parsed) => {
                    prop_assert!(tick > 0.0 && period >= tick, "accepted {} / {}", tick, period);
                    EdgeSimulation::new(parsed.sim_config(145.0));
                }
                Err(e) => {
                    prop_assert!(tick <= 0.0 || period < tick, "rejected {} / {}: {}", tick, period, e);
                }
            }
        }

        #[test]
        fn truncated_scenarios_error_instead_of_panicking(
            file in scenario_strategy(),
            frac in 0.0f64..1.0,
        ) {
            let json = serde_json::to_string(&file).expect("serialize");
            let cut = ((json.len() as f64 * frac) as usize).min(json.len() - 1);
            prop_assert!(
                ScenarioFile::from_json_str(&json[..cut]).is_err(),
                "prefix of {} bytes parsed", cut
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// A mutated builtin scenario parses or is an error, never a
        /// panic, and whatever parses survives its own re-parse.
        #[test]
        fn mutated_scenario_bytes_parse_or_error_but_never_panic(
            which in 0usize..6,
            mutation in 0usize..4,
            at in 0.0f64..1.0,
            flip in 1u8..=255,
            replacement in 0usize..6,
        ) {
            let text = mutated_scenario(which, mutation, at, flip, replacement);
            if let Ok(file) = ScenarioFile::from_json_str(&text) {
                let again = serde_json::to_string(&file).expect("serialize");
                prop_assert_eq!(ScenarioFile::from_json_str(&again), Ok(file), "{}", text);
            }
        }
    }

    #[test]
    fn any_queue_capacity_is_a_valid_bound() {
        // A bound, not a size: the parser accepts every `usize` and the
        // engine must not pre-size by it (`tests/des_equivalence.rs`
        // runs these).
        for capacity in [0usize, 100_000_000_000, usize::MAX] {
            let mut file = builtin_library()[0].clone();
            file.sim.queue_capacity = Some(capacity);
            let json = serde_json::to_string(&file).expect("serialize");
            let back = ScenarioFile::from_json_str(&json).expect("parse");
            assert_eq!(back.sim_config(145.0).queue_capacity, capacity);
        }
    }

    #[test]
    fn committed_library_roundtrips_and_validates() {
        for file in builtin_library() {
            file.validate().expect("valid builtin");
            let json = serde_json::to_string_pretty(&file).expect("serialize");
            let back = ScenarioFile::from_json_str(&json).expect("parse");
            assert_eq!(back, file, "{}", file.name);
        }
    }
}

#[test]
fn dataset_roundtrips() {
    use adapex_dataset::{DatasetKind, SyntheticConfig};
    let data = SyntheticConfig::new(DatasetKind::GtsrbLike)
        .with_sizes(43, 43)
        .generate();
    let back: adapex_dataset::SyntheticDataset =
        serde_json::from_str(&serde_json::to_string(&data).expect("serialize")).expect("parse");
    assert_eq!(data, back);
}
