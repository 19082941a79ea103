//! Table I — Averaged inference loss, accuracy, latency and power over
//! the full 25-second run, for AdaPEx / PR-Only / CT-Only / FINN on both
//! datasets (paper Sec. VI-B).
//!
//! Run with `cargo bench -p adapex-bench --bench table1`.

use adapex::baselines::{manager_for, System};
use adapex_bench::{artifacts, datasets, print_table, repetitions};
use adapex_edge::{mean_of, EdgeSimulation, RunSpec, SimConfig};
use adapex_tensor::parallel::num_threads;

fn main() {
    let reps = repetitions();
    let max_loss = 0.10; // the paper's accuracy threshold
    let mut rows = Vec::new();
    for kind in datasets() {
        let art = artifacts(kind);
        let sim = EdgeSimulation::new(SimConfig::paper_default(art.reconfig_time_ms));
        for system in System::all() {
            let manager = manager_for(system, &art, max_loss);
            let results = sim.run_many(&manager, &RunSpec::synthetic(0xDA7E), reps, num_threads());
            rows.push(vec![
                system.label().to_string(),
                kind.id().to_string(),
                format!("{:.2}", mean_of(&results, |r| r.inference_loss_pct())),
                format!("{:.2}", mean_of(&results, |r| r.mean_accuracy * 100.0)),
                format!("{:.2}", mean_of(&results, |r| r.mean_power_w)),
                format!("{:.2}", mean_of(&results, |r| r.mean_latency_ms)),
                format!("{:.2}", mean_of(&results, |r| r.mean_service_latency_ms)),
                format!("{:.1}", mean_of(&results, |r| r.reconfig_count as f64)),
                format!("{:.1}", mean_of(&results, |r| r.ct_change_count as f64)),
            ]);
        }
    }
    print_table(
        &format!("Table I: averaged over {reps} runs of 25 s (paper Sec. VI-B)"),
        &[
            "System",
            "Dataset",
            "Infer.Loss[%]",
            "Accuracy[%]",
            "Power[W]",
            "Latency[ms]",
            "Service[ms]",
            "Reconfigs",
            "CT-moves",
        ],
        &rows,
    );
    println!(
        "\nPaper reference (Table I): AdaPEx 0.00% loss on both datasets; FINN 22.8/23.6% loss;\n\
         CT-Only power 16-20% above FINN; AdaPEx latency 1.48-1.72x below FINN."
    );
}
