//! Golden regression suite over the committed scenario library.
//!
//! Every scenario under `tests/golden/scenarios/` is pinned three ways:
//!
//! 1. **Lockstep**: the committed file must byte-match the
//!    [`adapex_edge::builtin_library`] constructor of the same name, so
//!    the JSON on disk and the code can never drift apart.
//! 2. **Golden result**: replaying the scenario through the fixed
//!    golden manager must reproduce the full serialized result snapshot
//!    (`<name>.result.json` next to the scenario).
//! 3. **Jobs invariance**: sharded replays at `--jobs 1` and `--jobs 4`
//!    must agree byte-for-byte.
//! 4. **Serve twin**: the same episode through `ServeScenario::run`
//!    conserves requests, replays byte-identically, and treats a
//!    synthetic spec as the synthetic recipe.
//!
//! To re-bless after an *intentional* behaviour change:
//!
//! ```text
//! ADAPEX_BLESS=1 cargo test -p adapex-integration --test golden_scenario_library
//! ```

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{MitigationConfig, RuntimeManager, SelectionPolicy};
use adapex_edge::{
    builtin_library, builtin_scenario, EdgeSimulation, Fleet, RunSpec, ScenarioFile,
    ServeScenario, ServeScenarioConfig, SimResult, Traffic, WorkloadSpec,
};
use finn_dataflow::ResourceUsage;
use serde::Serialize;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn scenarios_dir() -> PathBuf {
    golden_dir().join("scenarios")
}

fn blessing() -> bool {
    std::env::var("ADAPEX_BLESS").is_ok_and(|v| v == "1")
}

fn entry(id: usize, rate: f64, points: &[(f64, f64, f64)]) -> LibraryEntry {
    let points: Vec<OperatingPoint> = points
        .iter()
        .map(|&(ct, acc, ips)| OperatingPoint {
            confidence_threshold: ct,
            accuracy: acc,
            exit_fractions: vec![1.0],
            ips,
            avg_latency_ms: 2.0,
            power_w: 1.2,
            energy_per_inference_mj: 1.2 / ips * 1000.0,
        })
        .collect();
    let acc = points[0].accuracy;
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
        static_ips: points[0].ips,
        latency_to_exit_ms: vec![1.0],
        points,
    }
}

/// The same fixed golden manager as `golden_scenarios.rs`:
/// accurate/pruned/degraded-headroom entries with threshold-only
/// fallback points.
fn golden_manager(mitigation: MitigationConfig) -> RuntimeManager {
    let library = Library {
        entries: vec![
            entry(0, 0.0, &[(0.9, 0.88, 700.0), (0.3, 0.82, 1150.0)]),
            entry(1, 0.5, &[(0.9, 0.80, 1400.0), (0.3, 0.76, 1900.0)]),
            entry(2, 0.8, &[(0.9, 0.70, 2500.0)]),
        ],
    };
    RuntimeManager::new(library, 0.75, SelectionPolicy::ReconfigAware).with_mitigation(mitigation)
}

/// Mitigation mirrors the CLI default: recommended under a fault plan,
/// the paper's bare manager otherwise.
fn mitigation_for(file: &ScenarioFile) -> MitigationConfig {
    if file.faults.is_none() {
        MitigationConfig::off()
    } else {
        MitigationConfig::recommended()
    }
}

/// The episode a scenario file describes: its workload spec under its
/// fault plan at its seed.
fn episode(file: &ScenarioFile) -> RunSpec<'_> {
    RunSpec::new(Traffic::Spec(&file.workload), &file.faults, file.seed)
}

/// Replays a (non-fleet) scenario exactly like `adapex-cli trace
/// --scenario <file>` does, with the fixed golden manager.
fn run_scenario_file(file: &ScenarioFile) -> SimResult {
    let sim = EdgeSimulation::new(file.sim_config(145.0));
    let mut manager = golden_manager(mitigation_for(file));
    sim.run(&mut manager, &episode(file))
}

fn check_golden<T: Serialize>(name: &str, result: &T) {
    let path = scenarios_dir().join(format!("{name}.result.json"));
    let mut actual = serde_json::to_string_pretty(result).expect("serialize result");
    actual.push('\n');
    if blessing() {
        std::fs::create_dir_all(scenarios_dir()).expect("create scenarios dir");
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
        actual,
        expected,
        "scenario `{name}` drifted from its golden snapshot; if the change \
         is intentional, re-bless with ADAPEX_BLESS=1"
    );
}

#[test]
fn committed_scenario_files_match_the_builtin_library() {
    // Lockstep both ways: the file parses back to the constructor's
    // value AND serializes to the committed bytes, so `adapex-cli
    // --scenario tests/golden/scenarios/<name>.json` replays exactly
    // what the tests and benches pin.
    let lib = builtin_library();
    assert!(lib.len() >= 5, "ship at least 5 scenarios");
    for scenario in &lib {
        let path = scenarios_dir().join(format!("{}.json", scenario.name));
        if blessing() {
            std::fs::create_dir_all(scenarios_dir()).expect("create scenarios dir");
            scenario.save_json(&path).expect("bless scenario file");
            continue;
        }
        let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing scenario file {} ({e}); run with ADAPEX_BLESS=1 to generate",
                path.display()
            )
        });
        let mut expected = serde_json::to_string_pretty(scenario).expect("serialize scenario");
        expected.push('\n');
        assert_eq!(on_disk, expected, "{}: file drifted from code", scenario.name);
        let parsed = ScenarioFile::load_json(&path).expect("parse committed scenario");
        assert_eq!(&parsed, scenario, "{}: parse mismatch", scenario.name);
    }
}

#[test]
fn golden_paper_synthetic() {
    let s = builtin_scenario("paper-synthetic").expect("shipped");
    check_golden(&s.name, &run_scenario_file(&s));
}

#[test]
fn golden_diurnal_cycle() {
    let s = builtin_scenario("diurnal-cycle").expect("shipped");
    check_golden(&s.name, &run_scenario_file(&s));
}

#[test]
fn golden_flash_crowd() {
    let s = builtin_scenario("flash-crowd").expect("shipped");
    check_golden(&s.name, &run_scenario_file(&s));
}

#[test]
fn golden_correlated_bursts() {
    let s = builtin_scenario("correlated-bursts").expect("shipped");
    check_golden(&s.name, &run_scenario_file(&s));
}

#[test]
fn golden_adversarial_flash_faults() {
    let s = builtin_scenario("adversarial-flash-faults").expect("shipped");
    check_golden(&s.name, &run_scenario_file(&s));
}

#[test]
fn golden_cluster_replay_fleet() {
    // The fleet scenario snapshots the whole FleetResult (per-server
    // results + summary), sharded over 2 jobs.
    let s = builtin_scenario("cluster-replay").expect("shipped");
    let fleet = Fleet::new(s.fleet_config(145.0).expect("fleet section"));
    let manager = golden_manager(mitigation_for(&s));
    let result = fleet.run(&manager, &episode(&s), 2);
    check_golden(&s.name, &result);
}

#[test]
fn scenario_replays_are_jobs_invariant() {
    // Byte-identical results whether the reps (or fleet servers) run on
    // 1 worker or 4 — the scenario layer must not perturb the sharded
    // seed derivation.
    for name in ["paper-synthetic", "adversarial-flash-faults"] {
        let s = builtin_scenario(name).expect("shipped");
        let sim = EdgeSimulation::new(s.sim_config(145.0));
        let manager = golden_manager(mitigation_for(&s));
        let serial = sim.run_many(&manager, &episode(&s), 3, 1);
        let sharded = sim.run_many(&manager, &episode(&s), 3, 4);
        assert_eq!(serial, sharded, "{name}: jobs changed the result");
    }
    let s = builtin_scenario("cluster-replay").expect("shipped");
    let fleet = Fleet::new(s.fleet_config(145.0).expect("fleet section"));
    let manager = golden_manager(mitigation_for(&s));
    let serial = fleet.run(&manager, &episode(&s), 1);
    let sharded = fleet.run(&manager, &episode(&s), 4);
    assert_eq!(serial, sharded, "cluster-replay: jobs changed the result");
}

/// The serve-side twin of `workload_differential.rs`: every library
/// scenario, as `adapex-cli serve --scenario <file>` resolves it.
#[test]
fn library_scenarios_replay_through_the_serve_twin() {
    for s in builtin_library() {
        let mut cfg = ServeScenarioConfig::paper_default(145.0);
        s.apply_serve(&mut cfg);
        let run = |spec: &RunSpec| {
            ServeScenario::run(&cfg, golden_manager(mitigation_for(&s)), spec)
        };
        let result = run(&episode(&s));
        assert!(result.report.conservation_holds(), "{}: requests leaked", s.name);
        assert!(result.report.completed > 0, "{}: nothing served", s.name);
        assert_eq!(
            serde_json::to_string(&result).expect("serialize"),
            serde_json::to_string(&run(&episode(&s))).expect("serialize"),
            "{}: replay drifted",
            s.name
        );
        // A synthetic spec at the server's own workload config is the
        // synthetic recipe, operation for operation.
        let synthetic = WorkloadSpec::paper_default().with_config(cfg.workload);
        assert_eq!(
            run(&RunSpec::new(Traffic::Spec(&synthetic), &s.faults, s.seed)),
            run(&RunSpec::new(Traffic::Synthetic, &s.faults, s.seed)),
            "{}: Spec(Synthetic) is not Synthetic",
            s.name
        );
    }
}

/// `f64::to_bits` fingerprints of the adversarial scenario, pinned as
/// constants so a drift shows up even without the snapshot file (and
/// `ADAPEX_BLESS=1` cannot silently absorb it).
#[test]
fn adversarial_fault_fingerprints_are_pinned() {
    let s = builtin_scenario("adversarial-flash-faults").expect("shipped");
    let r = run_scenario_file(&s);
    let got = (
        r.offered,
        r.processed,
        r.faults.failed_reconfigs,
        r.faults.dropped_by_fault,
        r.faults.flood_arrivals,
        r.faults.stale_discarded,
        r.mean_accuracy.to_bits(),
        r.qoe().to_bits(),
        r.faults.time_degraded_s.to_bits(),
    );
    let want = (
        25605usize,
        22740usize,
        1usize,
        1479usize,
        2584usize,
        0usize,
        4605721371069717702u64,
        4604877015509572251u64,
        4611686018427387904u64,
    );
    assert_eq!(
        got, want,
        "adversarial scenario drifted from its pinned fault fingerprint"
    );
}
