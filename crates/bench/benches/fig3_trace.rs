//! Figure 3 (right) — the runtime manager at work: one 25-second
//! episode's trace of observed workload, selected pruning rate,
//! selected confidence threshold and delivered accuracy, sampled every
//! monitor period (paper Sec. IV-B).
//!
//! The paper narrates: low initial workload → low pruning rate + high
//! threshold (high accuracy); workload rises → the manager first lowers
//! the threshold (free), then switches to a higher pruning rate
//! (reconfiguration).
//!
//! Run with `cargo bench -p adapex-bench --bench fig3_trace`.

use adapex::baselines::{manager_for, System};
use adapex_bench::{artifacts, datasets, print_table};
use adapex_edge::{EdgeSimulation, RunSpec, SimConfig, WorkloadConfig};

fn main() {
    for kind in datasets() {
        let art = artifacts(kind);
        let mut manager = manager_for(System::AdaPEx, &art, 0.10);
        // The paper's Fig. 3 illustrates the *mechanism*, so this episode
        // uses a heavier camera load (20 cameras x 50 IPS) that outgrows
        // the unpruned accelerator: the manager must first spend its free
        // threshold moves and then pay reconfigurations.
        let mut cfg = SimConfig::paper_default(art.reconfig_time_ms);
        cfg.workload = WorkloadConfig {
            ips_per_camera: 50.0,
            deviation: 0.35,
            ..WorkloadConfig::paper_default()
        };
        let sim = EdgeSimulation::new(cfg);
        // Pick a seed whose trace ramps from below to above nominal.
        let seed = (0..200u64)
            .find(|&s| {
                let rates = sim.config().workload.sample(s).rates;
                rates.first().copied().unwrap_or(0.0) < 850.0
                    && rates.last().copied().unwrap_or(0.0) > 1150.0
            })
            .unwrap_or(1);
        let result = sim.run(&mut manager, &RunSpec::synthetic(seed));
        let rows: Vec<Vec<String>> = result
            .trace
            .iter()
            .map(|s| {
                vec![
                    format!("{:.0}", s.t),
                    format!("{:.0}", s.workload_ips),
                    format!("{:.0}", s.pruning_rate * 100.0),
                    format!("{:.0}", s.confidence_threshold * 100.0),
                    format!("{:.1}", s.accuracy * 100.0),
                    format!("{}", s.queue_len),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 3 (right): AdaPEx runtime trace ({kind}, seed {seed})"),
            &["t[s]", "IPS", "P.R.[%]", "C.T.[%]", "Acc[%]", "queue"],
            &rows,
        );
        println!(
            "episode: {} reconfigurations, {} CT-only moves, {:.2}% inference loss",
            result.reconfig_count,
            result.ct_change_count,
            result.inference_loss_pct()
        );
    }
}
