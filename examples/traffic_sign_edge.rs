//! Traffic-sign recognition at the edge (the paper's GTSRB workload,
//! 43 classes): generates a small GTSRB library and walks through one
//! 25-second adaptive episode, printing the runtime trace — the
//! behaviour sketched on the right side of the paper's Fig. 3.
//!
//! ```text
//! cargo run --release -p adapex-bench --example traffic_sign_edge
//! ```

use adapex::baselines::{manager_for, System};
use adapex::generator::GeneratorConfig;
use adapex_bench::cached_artifacts;
use adapex_dataset::DatasetKind;
use adapex_edge::{EdgeSimulation, RunSpec, SimConfig};

fn main() {
    let art = cached_artifacts(GeneratorConfig::fast(DatasetKind::GtsrbLike));
    println!(
        "GTSRB library: {} entries; reference accuracy {:.1}%; reconfig {:.0} ms",
        art.adapex.len(),
        art.reference_accuracy * 100.0,
        art.reconfig_time_ms
    );

    let mut manager = manager_for(System::AdaPEx, &art, 0.10);
    let sim = EdgeSimulation::new(SimConfig::paper_default(art.reconfig_time_ms));
    let result = sim.run(&mut manager, &RunSpec::synthetic(2024));

    println!("\nruntime trace (one episode):");
    println!(
        "{:>5} {:>8} {:>8} {:>8} {:>8} {:>6}",
        "t[s]", "IPS", "P.R.[%]", "C.T.[%]", "Acc[%]", "queue"
    );
    for s in &result.trace {
        println!(
            "{:>5.0} {:>8.0} {:>8.0} {:>8.0} {:>8.1} {:>6}",
            s.t,
            s.workload_ips,
            s.pruning_rate * 100.0,
            s.confidence_threshold * 100.0,
            s.accuracy * 100.0,
            s.queue_len,
        );
    }
    println!(
        "\nepisode: {:.1}% loss | accuracy {:.1}% | QoE {:.1}% | {:.2} W | {} reconfigs | {} CT moves",
        result.inference_loss_pct(),
        result.mean_accuracy * 100.0,
        result.qoe() * 100.0,
        result.mean_power_w,
        result.reconfig_count,
        result.ct_change_count,
    );
    println!(
        "energy {:.2} J over {:.0} s -> {:.3} mJ per inference, EDP {:.3} mJ*ms",
        result.energy_j,
        result.duration_s,
        result.energy_per_inference_mj().unwrap_or(0.0),
        result.edp().unwrap_or(0.0),
    );
}
