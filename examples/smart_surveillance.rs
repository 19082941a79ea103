//! Smart video surveillance at the edge — the paper's motivating
//! scenario (Sec. V): 20 cameras stream frames to an FPGA-equipped edge
//! server; the workload fluctuates ±30 % every 5 s. This example
//! generates a small AdaPEx library, then pits all four systems
//! (AdaPEx / PR-Only / CT-Only / FINN) against the same workload and
//! prints a miniature Table I.
//!
//! ```text
//! cargo run --release -p adapex-bench --example smart_surveillance
//! ```

use adapex::baselines::{manager_for, System};
use adapex::generator::GeneratorConfig;
use adapex_bench::cached_artifacts;
use adapex_dataset::DatasetKind;
use adapex_edge::{
    mean_of, EdgeSimulation, RunSpec, ServeScenario, ServeScenarioConfig, SimConfig,
};
use adapex_tensor::parallel::num_threads;

fn main() {
    let art = cached_artifacts(GeneratorConfig::fast(DatasetKind::Cifar10Like));
    println!(
        "library: {} AdaPEx entries, {} PR-Only entries, reference accuracy {:.1}%",
        art.adapex.len(),
        art.pr_only.len(),
        art.reference_accuracy * 100.0
    );

    let reps = 25;
    let sim = EdgeSimulation::new(SimConfig::paper_default(art.reconfig_time_ms));
    println!(
        "\nsimulating {reps} episodes of 25 s (20 cameras x 30 IPS, ±30% every 5 s)\n"
    );
    println!(
        "{:>8}  {:>9} {:>8} {:>8} {:>9} {:>7} {:>9}",
        "System", "Loss[%]", "Acc[%]", "QoE[%]", "Power[W]", "Lat[ms]", "Reconfigs"
    );
    for system in System::all() {
        let manager = manager_for(system, &art, 0.10);
        let results = sim.run_many(&manager, &RunSpec::synthetic(0x5EED), reps, num_threads());
        println!(
            "{:>8}  {:>9.2} {:>8.1} {:>8.1} {:>9.2} {:>7.2} {:>9.1}",
            system.label(),
            mean_of(&results, |r| r.inference_loss_pct()),
            mean_of(&results, |r| r.mean_accuracy * 100.0),
            mean_of(&results, |r| r.qoe() * 100.0),
            mean_of(&results, |r| r.mean_power_w),
            mean_of(&results, |r| r.mean_latency_ms),
            mean_of(&results, |r| r.reconfig_count as f64),
        );
    }
    println!(
        "\nAdaPEx combines both knobs: it should keep inference loss near zero while\n\
         staying within 10% of the reference accuracy — the paper's Table I behaviour."
    );

    // Second act: the same cameras through the serving runtime — frames
    // queue per SLO class, the batcher assembles latency-budgeted
    // batches, and the manager still retunes CT / swaps bitstreams.
    println!("\nserving runtime (per-request view of the same workload):\n");
    println!(
        "{:>8}  {:>9} {:>9} {:>6} {:>6} {:>6} {:>9} {:>9}",
        "System", "Offered", "Goodput", "Drop", "Shed", "Defer", "p99[ms]", "Reconfigs"
    );
    // The fast-profile artifacts model slower accelerators than the
    // paper's; halve the per-camera rate so the comparison shows
    // adaptation rather than uniform overload.
    let mut serve_cfg = ServeScenarioConfig::paper_default(art.reconfig_time_ms);
    serve_cfg.workload.ips_per_camera /= 2.0;
    for system in System::all() {
        let manager = manager_for(system, &art, 0.10);
        // The same kind of episode `sim.run_many` ran above: a RunSpec.
        let result = ServeScenario::run(&serve_cfg, manager, &RunSpec::synthetic(42));
        let r = &result.report;
        let worst_p99_ms = r
            .per_class
            .iter()
            .filter_map(|c| c.p99_us())
            .max()
            .map(|us| us as f64 / 1000.0)
            .unwrap_or(f64::NAN);
        println!(
            "{:>8}  {:>9} {:>9} {:>6} {:>6} {:>6} {:>9.1} {:>9}",
            system.label(),
            r.offered,
            r.completed_in_budget,
            r.dropped_full,
            r.shed_infeasible,
            r.deferrals,
            worst_p99_ms,
            result.reconfigs,
        );
    }
    println!(
        "\nGoodput counts completions inside each class's latency budget; drops and\n\
         sheds are the backpressure the admission controller made explicit."
    );
}
