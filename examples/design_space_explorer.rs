//! Interactive-ish tour of the pruning x confidence-threshold design
//! space (paper Fig. 4) and of the runtime manager's choices across a
//! workload sweep.
//!
//! ```text
//! cargo run --release -p adapex-bench --example design_space_explorer
//! ```

use adapex::generator::GeneratorConfig;
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex_bench::cached_artifacts;
use adapex_dataset::DatasetKind;

fn main() {
    let art = cached_artifacts(GeneratorConfig::fast(DatasetKind::Cifar10Like));
    let lib = &art.adapex;

    // Pareto front: points no other point beats on both accuracy and IPS.
    let all: Vec<_> = lib.design_space().collect();
    let mut pareto: Vec<_> = all
        .iter()
        .filter(|(_, p)| {
            !all.iter().any(|(_, q)| {
                (q.accuracy > p.accuracy && q.ips >= p.ips)
                    || (q.accuracy >= p.accuracy && q.ips > p.ips)
            })
        })
        .collect();
    pareto.sort_by(|a, b| a.1.ips.partial_cmp(&b.1.ips).expect("finite"));
    println!("design space: {} operating points; pareto front:", all.len());
    println!(
        "{:>8} {:>7} {:>11} {:>8} {:>8} {:>9}",
        "P.R.[%]", "C.T.[%]", "exits", "Acc[%]", "IPS", "E[mJ]"
    );
    for (e, p) in &pareto {
        println!(
            "{:>8.0} {:>7.0} {:>11} {:>8.1} {:>8.0} {:>9.3}",
            e.pruning_rate * 100.0,
            p.confidence_threshold * 100.0,
            if e.prune_exits { "pruned" } else { "not-pruned" },
            p.accuracy * 100.0,
            p.ips,
            p.energy_per_inference_mj,
        );
    }

    // What would the manager pick as the workload climbs?
    println!("\nruntime manager selections vs workload (accuracy threshold 10%):");
    let mut manager = RuntimeManager::new(
        lib.clone(),
        art.reference_accuracy - 0.10,
        SelectionPolicy::ReconfigAware,
    );
    println!(
        "{:>9} {:>8} {:>7} {:>8} {:>9}",
        "load[IPS]", "P.R.[%]", "C.T.[%]", "Acc[%]", "reconfig?"
    );
    for load in [200.0, 400.0, 600.0, 800.0, 1000.0, 1400.0, 2000.0, 600.0, 200.0] {
        let d = manager.decide(load);
        let entry = &manager.library().entries[d.entry];
        let point = &entry.points[d.point];
        println!(
            "{:>9.0} {:>8.0} {:>7.0} {:>8.1} {:>9}",
            load,
            entry.achieved_rate * 100.0,
            d.threshold * 100.0,
            point.accuracy * 100.0,
            if d.reconfig { "yes" } else { "-" },
        );
    }
    println!(
        "\ntotal: {} reconfigurations, {} free threshold moves",
        manager.reconfig_count, manager.ct_change_count
    );
}
