//! Golden scenario regression suite.
//!
//! Runs a fixed manager through the Steady, Burst and fault-laden Burst
//! scenarios and compares the **full serialized `SimResult`** (counts,
//! float metrics, per-period trace, fault counters) against JSON
//! snapshots under `tests/golden/`. Any behavioural drift — an extra
//! RNG draw, a reordered accumulation, a changed decision — shows up as
//! a readable JSON diff instead of a mysterious metric shift.
//!
//! To re-bless after an *intentional* behaviour change:
//!
//! ```text
//! ADAPEX_BLESS=1 cargo test -p adapex-integration --test golden_scenarios
//! ```
//!
//! The fault-laden scenarios replay the committed plan file
//! `tests/golden/fault_plan_canned.json`, so the file-replay path
//! (`FaultPlan::load_json`, what `--faults FILE` goes through) is
//! exercised on every run; the file **is** `FaultPlan::canned()`,
//! pinned by `canned_fault_plan_file_matches_the_code`.

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{MitigationConfig, RuntimeManager, SelectionPolicy};
use adapex_edge::{
    EdgeSimulation, FaultPlan, RunSpec, Scenario, SimConfig, SimResult, Traffic, WorkloadConfig,
};
use finn_dataflow::ResourceUsage;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/integration; the goldens live at the
    // repository root next to the integration test sources.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
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

/// The fixed golden manager: accurate/pruned/degraded-headroom entries
/// with threshold-only fallback points (mirrors the fault bench).
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

const GOLDEN_SEED: u64 = 1213;

fn run_scenario(scenario: Scenario, plan: &FaultPlan, mitigation: MitigationConfig) -> SimResult {
    let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
    let trace = scenario.trace(WorkloadConfig::paper_default());
    let mut manager = golden_manager(mitigation);
    sim.run(
        &mut manager,
        &RunSpec::new(Traffic::Shaped(&trace), plan, GOLDEN_SEED),
    )
}

fn check_golden(name: &str, result: &SimResult) {
    let path = golden_dir().join(format!("{name}.json"));
    let mut actual = serde_json::to_string_pretty(result).expect("serialize SimResult");
    actual.push('\n');
    if blessing() {
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
        actual,
        expected,
        "scenario `{name}` drifted from its golden snapshot; if the change \
         is intentional, re-bless with ADAPEX_BLESS=1"
    );
}

fn blessing() -> bool {
    std::env::var("ADAPEX_BLESS").is_ok_and(|v| v == "1")
}

/// The plan used by the fault-laden goldens: the committed canned-plan
/// file (while blessing, the constructor that file is regenerated from).
fn fault_plan() -> FaultPlan {
    if blessing() {
        return FaultPlan::canned();
    }
    FaultPlan::load_json(golden_dir().join("fault_plan_canned.json"))
        .expect("readable canned fault plan")
}

#[test]
fn canned_fault_plan_file_matches_the_code() {
    // The committed JSON and FaultPlan::canned() must stay in lockstep:
    // the goldens replay the file, other suites the constructor.
    let path = golden_dir().join("fault_plan_canned.json");
    if blessing() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        FaultPlan::canned().save_json(&path).expect("bless canned plan");
        return;
    }
    let on_disk = FaultPlan::load_json(&path).unwrap_or_else(|e| {
        panic!(
            "missing canned plan {} ({e}); run with ADAPEX_BLESS=1 to generate",
            path.display()
        )
    });
    assert_eq!(on_disk, FaultPlan::canned());
}

#[test]
fn golden_steady() {
    check_golden(
        "steady",
        &run_scenario(Scenario::Steady, &FaultPlan::none(), MitigationConfig::off()),
    );
}

#[test]
fn golden_burst() {
    check_golden(
        "burst",
        &run_scenario(Scenario::Burst, &FaultPlan::none(), MitigationConfig::off()),
    );
}

#[test]
fn golden_burst_faults_mitigated() {
    check_golden(
        "burst_faults_mitigated",
        &run_scenario(Scenario::Burst, &fault_plan(), MitigationConfig::recommended()),
    );
}

#[test]
fn golden_burst_faults_unmitigated() {
    check_golden(
        "burst_faults_unmitigated",
        &run_scenario(Scenario::Burst, &fault_plan(), MitigationConfig::off()),
    );
}
