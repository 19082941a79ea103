//! Determinism and accounting properties of the serving runtime.
//!
//! Three layers are pinned here:
//!
//! * the **virtual data plane** ([`ServeSim`]) replays identically and
//!   conserves every request under arbitrary arrival jitter and queue
//!   pressure (full queues drop with accounting, never silently);
//! * the **real executor** ([`BatchExecutor`]) produces byte-identical
//!   verdicts at any worker count and for any batch split;
//! * the **serve twin** ([`ServeScenario`], the manager and fault plan
//!   in the loop) replays byte-for-byte against golden
//!   snapshots under `tests/golden/`. Re-bless intentional changes
//!   with `ADAPEX_BLESS=1 cargo test -p adapex-integration --test
//!   serving_determinism`.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex::serve::{
    generate_arrivals, AdmissionPolicy, Arrival, ArrivalPattern, PointServiceModel, ServeConfig,
    ServeSim, SloClass,
};
use adapex_edge::{
    CameraDropout, FaultPlan, FaultWindow, RunSpec, ServeScenario, ServeScenarioConfig, Traffic,
    WorkloadConfig, WorkloadTrace,
};
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::layers::Activation;
use adapex_nn::serve::{BatchExecutor, BatchVerdicts, EnginePlan, ExecutorConfig};
use adapex_tensor::rng::rng_from_seed;
use finn_dataflow::ResourceUsage;
use proptest::prelude::*;
use rand::RngExt as _;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn two_class_config(gold_cap: usize, be_cap: usize, max_batch: usize) -> ServeConfig {
    let mut gold = SloClass::new("gold", 20_000);
    gold.priority = 2;
    gold.queue_capacity = gold_cap;
    let mut be = SloClass::new("best-effort", 100_000);
    be.priority = 1;
    be.queue_capacity = be_cap;
    ServeConfig {
        classes: vec![gold, be],
        max_batch,
        batch_deadline_us: 2_000,
        workers: 1,
        admission: AdmissionPolicy::ExitAware,
        dispatch_overhead_us: 20,
    }
}

fn model(seed: u64) -> PointServiceModel {
    PointServiceModel::new(&[0.7, 0.2, 0.1], vec![300, 600, 1_000], seed)
}

/// Jittered arrival trace: base Poisson process plus bounded per-event
/// jitter, re-sorted (the engine requires sorted input).
fn jittered_arrivals(rate: f64, seconds: f64, jitter_us: u64, seed: u64) -> Vec<Arrival> {
    let mut arrivals = generate_arrivals(ArrivalPattern::Steady, rate, seconds, &[1.0, 2.0], seed);
    let mut rng = rng_from_seed(seed ^ 0x717);
    for a in &mut arrivals {
        let j = rng.random_range(0..(2 * jitter_us + 1).max(1));
        a.at_us = (a.at_us + j).saturating_sub(jitter_us);
    }
    arrivals.sort_by_key(|a| a.at_us);
    arrivals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same trace, same config → byte-identical reports; and every
    /// offered request is accounted (completed + dropped + shed +
    /// residual), whatever the jitter does to batch composition.
    #[test]
    fn virtual_plane_replays_and_conserves(
        rate in 500.0f64..6_000.0,
        jitter_us in 0u64..5_000,
        seed in 0u64..1_000,
    ) {
        let arrivals = jittered_arrivals(rate, 2.0, jitter_us, seed);
        let config = two_class_config(64, 256, 16);
        let m = model(seed);
        let a = ServeSim::run(config.clone(), &m, &arrivals);
        let b = ServeSim::run(config, &m, &arrivals);
        prop_assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize")
        );
        prop_assert!(a.conservation_holds());
        prop_assert_eq!(a.offered, arrivals.len() as u64);
    }

    /// Queue-pressure edge: capacities small enough to overflow must
    /// drop with per-class accounting — no silent loss, and drops only
    /// when a queue actually hit its high-water mark.
    #[test]
    fn full_queues_drop_with_accounting(
        gold_cap in 1usize..8,
        be_cap in 1usize..8,
        rate in 8_000.0f64..20_000.0,
        seed in 0u64..1_000,
    ) {
        let config = two_class_config(gold_cap, be_cap, 8);
        let arrivals = jittered_arrivals(rate, 1.0, 100, seed);
        let r = ServeSim::run(config, &model(seed), &arrivals);
        prop_assert!(a_counts_hold(&r));
        prop_assert!(r.dropped_full > 0, "overflow must register as drops");
        let class_drops: u64 = r.per_class.iter().map(|c| c.dropped_full).sum();
        prop_assert_eq!(class_drops, r.dropped_full);
        for (c, s) in r.per_class.iter().enumerate() {
            if s.dropped_full > 0 {
                let cap = [gold_cap, be_cap][c];
                prop_assert_eq!(
                    s.queue_high_water as usize, cap,
                    "drops imply the queue was at capacity"
                );
            }
        }
    }

    /// Real-executor verdicts are byte-identical at any worker count
    /// and invariant to how requests are split into batches.
    #[test]
    fn executor_verdicts_are_worker_and_batch_invariant(
        n in 1usize..24,
        threshold in 0.05f32..0.9,
        workers in 2usize..6,
        seed in 0u64..100,
    ) {
        let net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 3);
        let per: usize = net.input_dims.iter().product();
        let mut rng = rng_from_seed(seed);
        let mut pixels = vec![0.0f32; n * per];
        for v in pixels.iter_mut() {
            *v = rng.random::<f32>();
        }
        let x = Activation::new(pixels.clone(), n, net.input_dims.clone());

        let mut one = BatchVerdicts::default();
        BatchExecutor::new(&net, &ExecutorConfig {
            threshold, workers: 1, engine: EnginePlan::Auto,
        }).run_batch(&x, &mut one);

        let mut many = BatchVerdicts::default();
        BatchExecutor::new(&net, &ExecutorConfig {
            threshold, workers, engine: EnginePlan::Auto,
        }).run_batch(&x, &mut many);
        prop_assert_eq!(&one.exit, &many.exit);
        prop_assert_eq!(&one.class, &many.class);
        let bits = |v: &BatchVerdicts| -> Vec<u32> {
            v.confidence.iter().map(|c| c.to_bits()).collect()
        };
        prop_assert_eq!(bits(&one), bits(&many));

        // Split the same requests into two chunks: per-sample verdicts
        // must not change.
        let cut = (n / 2).max(1).min(n);
        let mut exec = BatchExecutor::new(&net, &ExecutorConfig {
            threshold, workers: 1, engine: EnginePlan::Auto,
        });
        let mut merged_exit = Vec::new();
        let mut merged_conf = Vec::new();
        let mut part = BatchVerdicts::default();
        for (lo, hi) in [(0, cut), (cut, n)] {
            if lo == hi { continue; }
            let chunk = Activation::new(
                pixels[lo * per..hi * per].to_vec(), hi - lo, net.input_dims.clone(),
            );
            exec.run_batch(&chunk, &mut part);
            merged_exit.extend_from_slice(&part.exit);
            merged_conf.extend(part.confidence.iter().map(|c| c.to_bits()));
        }
        prop_assert_eq!(merged_exit, one.exit);
        prop_assert_eq!(merged_conf, bits(&one));
    }
}

/// `conservation_holds` plus per-class ↔ global consistency.
fn a_counts_hold(r: &adapex::serve::ServeReport) -> bool {
    let class_completed: u64 = r.per_class.iter().map(|c| c.completed).sum();
    r.conservation_holds() && class_completed == r.completed
}

// --- DES serving scenario goldens. ---------------------------------

fn scenario_entry(id: usize, rate: f64, ips: f64, acc: f64) -> LibraryEntry {
    LibraryEntry {
        id,
        pruning_rate: rate,
        achieved_rate: rate,
        prune_exits: false,
        mean_exit_accuracy: acc,
        final_exit_accuracy: acc,
        resources: ResourceUsage::zero(),
        exit_resources: ResourceUsage::zero(),
        utilization: (0.1, 0.1, 0.1, 0.0),
        static_ips: ips,
        latency_to_exit_ms: vec![0.4, 1.2],
        points: vec![
            OperatingPoint {
                confidence_threshold: 0.9,
                accuracy: acc,
                exit_fractions: vec![0.6, 0.4],
                ips,
                avg_latency_ms: 1.0,
                power_w: 1.2,
                energy_per_inference_mj: 1.2 / ips * 1000.0,
            },
            OperatingPoint {
                confidence_threshold: 0.3,
                accuracy: acc - 0.05,
                exit_fractions: vec![0.85, 0.15],
                ips: ips * 1.4,
                avg_latency_ms: 0.8,
                power_w: 1.2,
                energy_per_inference_mj: 1.2 / (ips * 1.4) * 1000.0,
            },
        ],
    }
}

fn scenario_manager() -> RuntimeManager {
    RuntimeManager::new(
        Library {
            entries: vec![
                scenario_entry(0, 0.0, 700.0, 0.88),
                scenario_entry(1, 0.5, 1_400.0, 0.80),
            ],
        },
        0.7,
        SelectionPolicy::ReconfigAware,
    )
}

fn scenario_config() -> ServeScenarioConfig {
    let mut cfg = ServeScenarioConfig::paper_default(145.0);
    cfg.workload = WorkloadConfig {
        cameras: 10,
        ips_per_camera: 60.0,
        duration_s: 8.0,
        deviation: 0.3,
        deviation_period_s: 2.0,
    };
    cfg
}

const SCENARIO_SEED: u64 = 1213;

fn check_golden(name: &str, value: &impl serde::Serialize) {
    let path = golden_dir().join(format!("{name}.json"));
    let mut actual = serde_json::to_string_pretty(value).expect("serialize");
    actual.push('\n');
    if std::env::var("ADAPEX_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, &actual).expect("bless golden snapshot");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with ADAPEX_BLESS=1 to generate",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "scenario `{name}` drifted from its golden snapshot; if the change \
         is intentional, re-bless with ADAPEX_BLESS=1"
    );
}

#[test]
fn golden_serve_steady() {
    let spec = RunSpec::synthetic(SCENARIO_SEED);
    let result = ServeScenario::run(&scenario_config(), scenario_manager(), &spec);
    assert!(result.report.conservation_holds());
    check_golden("serve_steady", &result);
}

#[test]
fn golden_serve_dropout_fault() {
    let mut plan = FaultPlan::none();
    plan.dropouts.push(CameraDropout {
        window: FaultWindow {
            start_s: 2.0,
            end_s: 5.0,
        },
        fraction: 0.4,
    });
    let spec = RunSpec::new(Traffic::Synthetic, &plan, SCENARIO_SEED);
    let result = ServeScenario::run(&scenario_config(), scenario_manager(), &spec);
    assert!(result.report.conservation_holds());
    assert!(result.dropped_by_fault > 0, "dropout window must lose frames");
    check_golden("serve_dropout_fault", &result);
}

#[test]
fn golden_serve_reconfig_fault() {
    // A load that swings across the accurate entry's 700 IPS every two
    // seconds, under the canned plan: reconfigurations that abort and
    // overrun (4 × 145 ms), the 8–11 s flood on top of a swing.
    let mut cfg = scenario_config();
    cfg.workload.duration_s = 14.0;
    let rates = [400.0, 1_200.0].repeat(4)[..7].to_vec();
    let trace = WorkloadTrace { config: cfg.workload, rates };
    let plan = FaultPlan::canned();
    // At this seed the plan's coins give both aborts and overruns.
    let spec = RunSpec::new(Traffic::Shaped(&trace), &plan, 1209);
    let result = ServeScenario::run(&cfg, scenario_manager(), &spec);
    assert!(result.report.conservation_holds());
    assert!(result.reconfigs >= 2, "the swing must reconfigure: {}", result.reconfigs);
    assert!(result.reconfig_aborts > 0, "the canned plan aborts 60 %");
    assert!(
        result.reconfig_downtime_us > result.reconfigs * 145_000,
        "and overruns half of the rest"
    );
    assert!(result.report.deferrals > 0, "windows closing mid-downtime defer");
    check_golden("serve_reconfig_fault", &result);
}

#[test]
fn des_scenario_replays_identically() {
    let cfg = scenario_config();
    let spec = RunSpec::synthetic(SCENARIO_SEED);
    let a = ServeScenario::run(&cfg, scenario_manager(), &spec);
    let b = ServeScenario::run(&cfg, scenario_manager(), &spec);
    assert_eq!(
        serde_json::to_string(&a).expect("serialize"),
        serde_json::to_string(&b).expect("serialize"),
        "DES serving scenario must replay byte-identically"
    );
}
