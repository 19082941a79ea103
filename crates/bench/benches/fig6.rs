//! Figure 6 — Average EDP normalized to the original FINN accelerator
//! (bars) and QoE (curves) for CIFAR-10 and GTSRB (paper Sec. VI-B).
//!
//! QoE = accuracy × fraction of processed frames; EDP = energy per
//! inference × latency, averaged over repeated 25-second runs.
//!
//! Run with `cargo bench -p adapex-bench --bench fig6`.

use adapex::baselines::{manager_for, System};
use adapex_bench::{artifacts, datasets, print_table, repetitions};
use adapex_edge::{mean_of, EdgeSimulation, RunSpec, SimConfig};
use adapex_tensor::parallel::num_threads;

fn main() {
    let reps = repetitions();
    let mut rows = Vec::new();
    for kind in datasets() {
        let art = artifacts(kind);
        let sim = EdgeSimulation::new(SimConfig::paper_default(art.reconfig_time_ms));
        let mut finn_edp = None;
        let mut per_system = Vec::new();
        for system in System::all() {
            let manager = manager_for(system, &art, 0.10);
            let results = sim.run_many(&manager, &RunSpec::synthetic(0xDA7E), reps, num_threads());
            let edp = mean_of(&results, |r| r.edp().unwrap_or(0.0));
            let qoe = mean_of(&results, |r| r.qoe());
            if system == System::Finn {
                finn_edp = Some(edp);
            }
            per_system.push((system, edp, qoe));
        }
        let finn_edp = finn_edp.expect("FINN always runs");
        for (system, edp, qoe) in per_system {
            rows.push(vec![
                system.label().to_string(),
                kind.id().to_string(),
                format!("{:.3}", edp / finn_edp),
                format!("{:.1}", qoe * 100.0),
            ]);
        }
    }
    print_table(
        &format!("Fig. 6: EDP normalized to FINN + QoE, {reps} runs"),
        &["System", "Dataset", "EDP/FINN", "QoE[%]"],
        &rows,
    );
    println!(
        "\nPaper reference: AdaPEx EDP 1/2.0x (CIFAR-10) and 1/2.55x (GTSRB) of FINN;\n\
         AdaPEx QoE +11.72% / +15.27% over FINN; AdaPEx has the highest QoE of all systems."
    );
}
