//! Ablations of AdaPEx's design decisions (DESIGN.md §4):
//!
//! 1. **Selection policy** — the paper's reconfiguration-aware,
//!    accuracy-ranked search vs an oblivious global search, a
//!    throughput-greedy picker, and a point-accuracy-greedy picker.
//! 2. **Reconfiguration cost** — the same manager under hypothetical
//!    faster/slower FPGA reconfiguration, quantifying how much of
//!    AdaPEx's win depends on the ~145 ms full-bitstream load.
//! 3. **Dataflow-aware pruning** — what fraction of naive (constraint-
//!    free) pruning amounts would produce accelerators whose folding no
//!    longer divides evenly (i.e. fail FINN synthesis).
//!
//! Run with `cargo bench -p adapex-bench --bench ablation`.

use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex_bench::{artifacts, datasets, print_table, repetitions};
use adapex_edge::{mean_of, EdgeSimulation, RunSpec, SimConfig, WorkloadConfig};
use adapex_tensor::parallel::num_threads;

fn main() {
    let reps = repetitions().min(40);
    for kind in datasets() {
        let art = artifacts(kind);
        let min_acc = art.reference_accuracy - 0.10;
        // Ablations run under the heavier 20x50-IPS load where the
        // manager must actually adapt (at the paper's 600-IPS nominal a
        // single operating point can dominate and no knob ever moves).
        let heavy = WorkloadConfig {
            ips_per_camera: 50.0,
            ..WorkloadConfig::paper_default()
        };

        // --- 1. Selection policy. ------------------------------------
        let mut rows = Vec::new();
        for (name, policy) in [
            ("ReconfigAware (paper)", SelectionPolicy::ReconfigAware),
            ("Oblivious", SelectionPolicy::Oblivious),
            ("ThroughputGreedy", SelectionPolicy::ThroughputGreedy),
            ("AccuracyGreedy", SelectionPolicy::AccuracyGreedy),
        ] {
            let manager = RuntimeManager::new(art.adapex.clone(), min_acc, policy);
            let sim = EdgeSimulation::new(SimConfig {
                workload: heavy,
                ..SimConfig::paper_default(art.reconfig_time_ms)
            });
            let results = sim.run_many(&manager, &RunSpec::synthetic(0xAB1A), reps, num_threads());
            rows.push(vec![
                name.to_string(),
                format!("{:.2}", mean_of(&results, |r| r.inference_loss_pct())),
                format!("{:.2}", mean_of(&results, |r| r.mean_accuracy * 100.0)),
                format!("{:.1}", mean_of(&results, |r| r.qoe() * 100.0)),
                format!("{:.1}", mean_of(&results, |r| r.reconfig_count as f64)),
                format!("{:.3}", mean_of(&results, |r| r.edp().unwrap_or(0.0))),
            ]);
        }
        print_table(
            &format!("Ablation 1: selection policy ({kind}, {reps} runs)"),
            &["Policy", "Loss[%]", "Acc[%]", "QoE[%]", "Reconfigs", "EDP"],
            &rows,
        );

        // --- 2. Reconfiguration cost sensitivity. --------------------
        let mut rows = Vec::new();
        for (label, ms) in [
            ("10 ms (partial reconfig)", 10.0),
            ("145 ms (paper, full bitstream)", art.reconfig_time_ms),
            ("500 ms", 500.0),
            ("2000 ms", 2000.0),
        ] {
            let manager = RuntimeManager::new(
                art.adapex.clone(),
                min_acc,
                SelectionPolicy::ReconfigAware,
            );
            let sim = EdgeSimulation::new(SimConfig {
                workload: heavy,
                ..SimConfig::paper_default(ms)
            });
            let results = sim.run_many(&manager, &RunSpec::synthetic(0xAB1A), reps, num_threads());
            rows.push(vec![
                label.to_string(),
                format!("{:.2}", mean_of(&results, |r| r.inference_loss_pct())),
                format!("{:.1}", mean_of(&results, |r| r.qoe() * 100.0)),
                format!("{:.1}", mean_of(&results, |r| r.reconfig_count as f64)),
            ]);
        }
        print_table(
            &format!("Ablation 2: reconfiguration cost ({kind}, {reps} runs)"),
            &["Reconfig time", "Loss[%]", "QoE[%]", "Reconfigs"],
            &rows,
        );

        // --- 3. Dataflow-aware vs naive pruning. ----------------------
        // For every conv in the library's sweep, check whether the naive
        // amount (floor(rate * ch_out)) would break the folding, i.e.
        // how often the constraint adjustment actually fired.
        let mut adjusted = 0usize;
        let mut total = 0usize;
        for entry in &art.adapex.entries {
            if entry.pruning_rate == 0.0 {
                continue;
            }
            total += 1;
            // The achieved rate differs from requested when a constraint
            // rounded some layer down.
            if (entry.achieved_rate - entry.pruning_rate).abs() > 5e-3 {
                adjusted += 1;
            }
        }
        println!(
            "\nAblation 3 ({kind}): {adjusted}/{total} pruned variants needed constraint \
             adjustment — naive pruning at those rates would emit channel counts FINN's \
             PE/SIMD folding cannot divide (synthesis failure)."
        );
    }
}
