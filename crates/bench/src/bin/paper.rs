//! Regenerates every table and figure of the AdaPEx paper in one run:
//! Fig. 1, Fig. 3 (right), Fig. 4, Fig. 5, Table I, Fig. 6 and the
//! ablations of DESIGN.md §4, in that order, on stdout.
//!
//! ```text
//! cargo run --release -p adapex-bench --bin paper [-- --profile fast|repro] [--jobs N]
//! ```
//!
//! Both datasets' libraries come through the content-addressed artifact
//! cache in `target/adapex-cache/` ([`cached_artifacts`]); generator
//! progress and the cache's hit/miss line go to stderr, so stdout holds
//! only results and a warm rerun prints it byte for byte. `--jobs` (0 =
//! all cores) sets the generator's variant sweep and the episode
//! repetitions alike; the output is the same for any value.

use adapex::baselines::{manager_for, System};
use adapex::generator::{Artifacts, GeneratorConfig};
use adapex::library::{Library, LibraryEntry};
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex_bench::{cache_dir, cached_artifacts, print_table};
use adapex_dataset::DatasetKind;
use adapex_edge::{mean_of, EdgeSimulation, RunSpec, SimConfig, SimResult, WorkloadConfig};
use std::process::ExitCode;

const USAGE: &str = "\
usage: paper [--profile fast|repro] [--jobs N]
  --profile  experiment scale (default repro: the paper's sweep)
  --jobs     worker threads, 0 = all cores (default 0); results are
             identical for any N";

/// Edge-simulation repetitions, the paper's count.
const REPS: usize = 100;
/// Repetitions of the ablation runs.
const ABLATION_REPS: usize = 40;

fn main() -> ExitCode {
    let Some((configs, jobs)) = parse(std::env::args().skip(1)) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let arts: Vec<Artifacts> = configs
        .into_iter()
        .map(|cfg| cached_artifacts(GeneratorConfig { jobs, ..cfg }))
        .collect();
    let cifar = &arts[0];
    fig1(cifar);
    for art in &arts {
        fig3_trace(art);
    }
    for art in &arts {
        fig4(art);
    }
    fig5(cifar);
    table1_and_fig6(&arts, jobs);
    for art in &arts {
        ablation(art, jobs);
    }
    ExitCode::SUCCESS
}

/// The generator configurations of both datasets and the resolved job
/// count, or `None` on any argument the usage does not name.
fn parse(mut args: impl Iterator<Item = String>) -> Option<(Vec<GeneratorConfig>, usize)> {
    let (mut profile, mut jobs) = ("repro".to_string(), 0usize);
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next()) {
            ("--profile", Some(value)) => profile = value,
            ("--jobs", Some(value)) => jobs = value.parse().ok()?,
            _ => return None,
        }
    }
    let configs = [DatasetKind::Cifar10Like, DatasetKind::GtsrbLike]
        .into_iter()
        .map(|kind| GeneratorConfig::for_profile(&profile, kind).ok())
        .collect::<Option<Vec<_>>>()?;
    if jobs == 0 {
        jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    }
    Some((configs, jobs))
}

/// The entry of `lib` swept at pruning rate `rate`.
fn at_rate(lib: &Library, rate: f64) -> Option<&LibraryEntry> {
    lib.entries
        .iter()
        .find(|e| (e.pruning_rate - rate).abs() < 1e-9)
}

/// Figure 1 — accuracy (a) and energy per inference (b) vs pruning rate
/// on CIFAR-10, without early exits and with exits at confidence
/// thresholds 5/50/95 % (paper Sec. I). The 5 % curve should be the
/// worst at light pruning and the best at heavy pruning: the crossover
/// AdaPEx exploits.
fn fig1(art: &Artifacts) {
    let thresholds = [0.05, 0.50, 0.95];
    // The intro figure uses the early-exit model with not-pruned exits.
    let ee = art.adapex.with_prune_exits(false);

    let mut acc_rows = Vec::new();
    let mut energy_rows = Vec::new();
    for entry in &ee.entries {
        let Some(plain) = at_rate(&art.pr_only, entry.pruning_rate) else {
            continue;
        };
        let plain_point = &plain.points[0];
        let mut acc = vec![
            format!("{:.0}", entry.pruning_rate * 100.0),
            format!("{:.1}", plain.final_exit_accuracy * 100.0),
        ];
        let mut energy = vec![
            format!("{:.0}", entry.pruning_rate * 100.0),
            format!("{:.3}", plain_point.energy_per_inference_mj),
        ];
        for &ct in &thresholds {
            let p = entry.point_at(ct);
            acc.push(format!("{:.1}", p.accuracy * 100.0));
            energy.push(format!("{:.3}", p.energy_per_inference_mj));
        }
        acc_rows.push(acc);
        energy_rows.push(energy);
    }

    print_table(
        "Fig. 1(a): accuracy [%] vs pruning rate (CIFAR-10)",
        &["P.R.[%]", "no-EE", "CT=5%", "CT=50%", "CT=95%"],
        &acc_rows,
    );
    print_table(
        "Fig. 1(b): energy/inference [mJ] vs pruning rate (CIFAR-10)",
        &["P.R.[%]", "no-EE", "CT=5%", "CT=50%", "CT=95%"],
        &energy_rows,
    );

    let first = ee
        .entries
        .iter()
        .min_by(|a, b| a.pruning_rate.partial_cmp(&b.pruning_rate).expect("finite"));
    let last = ee
        .entries
        .iter()
        .max_by(|a, b| a.pruning_rate.partial_cmp(&b.pruning_rate).expect("finite"));
    if let (Some(first), Some(last)) = (first, last) {
        println!(
            "\nCrossover check: light pruning CT5 {:.3} vs CT95 {:.3} (paper: CT5 lower); \
             heavy pruning CT5 {:.3} vs CT95 {:.3} (paper: CT5 higher)",
            first.point_at(0.05).accuracy,
            first.point_at(0.95).accuracy,
            last.point_at(0.05).accuracy,
            last.point_at(0.95).accuracy,
        );
    }
}

/// Figure 3 (right) — one 25-second episode of the runtime manager:
/// observed workload, selected pruning rate and threshold, delivered
/// accuracy, every monitor period (paper Sec. IV-B). As the load rises
/// the manager should first lower the threshold (free), then switch to
/// a higher pruning rate (a reconfiguration).
fn fig3_trace(art: &Artifacts) {
    let kind = art.kind;
    let mut manager = manager_for(System::AdaPEx, art, 0.10);
    // The figure illustrates the *mechanism*, so this episode uses a
    // heavier camera load (20 cameras x 50 IPS) that outgrows the
    // unpruned accelerator: the manager must first spend its free
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

/// Figure 4 — the design space: throughput and energy per inference vs
/// accuracy over pruning rate 0–85 % and threshold 0–100 %, both exit
/// modes (paper Sec. VI-A). The full point cloud goes to
/// `target/adapex-cache/fig4-<dataset>.json`; the console shows a table
/// decimated to 25 % threshold steps and the paper's qualitative checks.
fn fig4(art: &Artifacts) {
    let kind = art.kind;
    let cloud: Vec<serde_json::Value> = art
        .adapex
        .design_space()
        .map(|(e, p)| {
            serde_json::json!({
                "pruning_rate": e.pruning_rate,
                "prune_exits": e.prune_exits,
                "confidence_threshold": p.confidence_threshold,
                "accuracy": p.accuracy,
                "ips": p.ips,
                "energy_mj": p.energy_per_inference_mj,
                "power_w": p.power_w,
                "latency_ms": p.avg_latency_ms,
            })
        })
        .collect();
    let path = cache_dir().join(format!("fig4-{}.json", kind.id()));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&cloud).expect("serialize"),
    )
    .expect("dump fig4 cloud");
    println!(
        "full design space ({} points) -> {}",
        cloud.len(),
        path.display()
    );

    let mut rows = Vec::new();
    for (e, p) in art.adapex.design_space() {
        let ct_pct = p.confidence_threshold * 100.0;
        if (ct_pct / 25.0).fract().abs() > 1e-9 {
            continue;
        }
        rows.push(vec![
            format!("{:.0}", e.pruning_rate * 100.0),
            if e.prune_exits {
                "pruned"
            } else {
                "not-pruned"
            }
            .to_string(),
            format!("{:.0}", ct_pct),
            format!("{:.1}", p.accuracy * 100.0),
            format!("{:.0}", p.ips),
            format!("{:.3}", p.energy_per_inference_mj),
        ]);
    }
    print_table(
        &format!("Fig. 4 design space ({kind}), decimated to 25% CT steps"),
        &["P.R.[%]", "exits", "C.T.[%]", "Acc[%]", "IPS", "E/inf[mJ]"],
        &rows,
    );

    let pts: Vec<_> = art.adapex.design_space().collect();
    let fastest = pts
        .iter()
        .max_by(|a, b| a.1.ips.partial_cmp(&b.1.ips).expect("finite"))
        .expect("non-empty library");
    let most_accurate = pts
        .iter()
        .max_by(|a, b| a.1.accuracy.partial_cmp(&b.1.accuracy).expect("finite"))
        .expect("non-empty library");
    println!(
        "\n[{kind}] fastest point: {:.0} IPS @ {:.1}% acc (P.R. {:.0}%, CT {:.0}%)",
        fastest.1.ips,
        fastest.1.accuracy * 100.0,
        fastest.0.pruning_rate * 100.0,
        fastest.1.confidence_threshold * 100.0
    );
    println!(
        "[{kind}] most accurate point: {:.1}% acc @ {:.0} IPS (P.R. {:.0}%, CT {:.0}%)",
        most_accurate.1.accuracy * 100.0,
        most_accurate.1.ips,
        most_accurate.0.pruning_rate * 100.0,
        most_accurate.1.confidence_threshold * 100.0
    );
    // Energy plateau: best accuracy below vs above the median energy.
    let mut energies: Vec<f64> = pts.iter().map(|p| p.1.energy_per_inference_mj).collect();
    energies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = energies[energies.len() / 2];
    let best_acc = |below: bool| {
        pts.iter()
            .filter(|p| (p.1.energy_per_inference_mj <= median) == below)
            .map(|p| p.1.accuracy)
            .fold(0.0, f64::max)
    };
    println!(
        "[{kind}] accuracy plateau: best acc at <= median energy ({median:.3} mJ) = {:.1}%, \
         above = {:.1}% (paper: extra energy beyond the plateau is wasted)",
        best_acc(true) * 100.0,
        best_acc(false) * 100.0
    );
}

/// Figure 5 — (a–d) accuracy and latency vs pruning rate at thresholds
/// 5/25/50/75 %, pruned vs not-pruned exits on CIFAR-10; (e) FPGA
/// resources vs pruning rate for both exit modes, with the exits' share
/// (paper Sec. VI-A). Needs both exit modes, so the fast profile skips
/// it.
fn fig5(art: &Artifacts) {
    let not_pruned = art.adapex.with_prune_exits(false);
    let pruned = art.adapex.with_prune_exits(true);
    if pruned.is_empty() {
        println!("fig5 needs both exit-pruning modes; regenerate with the repro profile");
        return;
    }

    let pair_of = |rate| Some((at_rate(&not_pruned, rate)?, at_rate(&pruned, rate)?));
    let rates: Vec<f64> = not_pruned.entries.iter().map(|e| e.pruning_rate).collect();

    for &ct in &[0.05, 0.25, 0.50, 0.75] {
        let mut rows = Vec::new();
        for &rate in &rates {
            let Some((np, pr)) = pair_of(rate) else {
                continue;
            };
            let p_np = np.point_at(ct);
            let p_pr = pr.point_at(ct);
            rows.push(vec![
                format!("{:.0}", rate * 100.0),
                format!("{:.1}", p_pr.accuracy * 100.0),
                format!("{:.1}", p_np.accuracy * 100.0),
                format!("{:.3}", p_pr.avg_latency_ms),
                format!("{:.3}", p_np.avg_latency_ms),
            ]);
        }
        print_table(
            &format!("Fig. 5 @ C.T. {:.0}% (CIFAR-10)", ct * 100.0),
            &[
                "P.R.[%]",
                "Acc pruned-exits",
                "Acc not-pruned",
                "Lat pruned [ms]",
                "Lat not-pruned [ms]",
            ],
            &rows,
        );
    }

    let mut rows = Vec::new();
    for &rate in &rates {
        let Some((np, pr)) = pair_of(rate) else {
            continue;
        };
        let share = |e: &LibraryEntry| {
            let r = e.resources;
            let x = e.exit_resources;
            (
                100.0 * x.bram36 as f64 / r.bram36.max(1) as f64,
                100.0 * x.lut as f64 / r.lut.max(1) as f64,
                100.0 * x.ff as f64 / r.ff.max(1) as f64,
            )
        };
        let (np_b, np_l, np_f) = share(np);
        rows.push(vec![
            format!("{:.0}", rate * 100.0),
            format!("{}", pr.resources.bram36),
            format!("{}", np.resources.bram36),
            format!("{}", pr.resources.lut),
            format!("{}", np.resources.lut),
            format!("{}", pr.resources.ff),
            format!("{}", np.resources.ff),
            format!("{np_b:.1}/{np_l:.1}/{np_f:.1}"),
        ]);
    }
    print_table(
        "Fig. 5(e): resources vs pruning rate (XCZU7EV), pruned vs not-pruned exits",
        &[
            "P.R.[%]",
            "BRAM pr",
            "BRAM np",
            "LUT pr",
            "LUT np",
            "FF pr",
            "FF np",
            "exit share np B/L/F [%]",
        ],
        &rows,
    );
    println!(
        "\nPaper reference: exits are 15.25/22.58/30% of BRAM/LUT/FF unpruned, rising to \
         45/28.4/30.8% at 85% pruning; not-pruned exits cost visibly more only at high rates."
    );
}

/// Table I — inference loss, accuracy, power and latency averaged over
/// [`REPS`] 25-second runs for AdaPEx / PR-Only / CT-Only / FINN on both
/// datasets (paper Sec. VI-B) — and Figure 6, EDP normalized to FINN
/// and QoE, from the same runs.
fn table1_and_fig6(arts: &[Artifacts], jobs: usize) {
    let max_loss = 0.10; // the paper's accuracy threshold
    let mut table1 = Vec::new();
    let mut fig6 = Vec::new();
    for art in arts {
        let kind = art.kind.id();
        let sim = EdgeSimulation::new(SimConfig::paper_default(art.reconfig_time_ms));
        let runs: Vec<(System, Vec<SimResult>)> = System::all()
            .into_iter()
            .map(|system| {
                let manager = manager_for(system, art, max_loss);
                (
                    system,
                    sim.run_many(&manager, &RunSpec::synthetic(0xDA7E), REPS, jobs),
                )
            })
            .collect();
        let edp = |results: &[SimResult]| mean_of(results, |r| r.edp().unwrap_or(0.0));
        let finn_edp = runs
            .iter()
            .find(|(system, _)| *system == System::Finn)
            .map(|(_, results)| edp(results))
            .expect("FINN always runs");
        for (system, results) in &runs {
            table1.push(vec![
                system.label().to_string(),
                kind.to_string(),
                format!("{:.2}", mean_of(results, |r| r.inference_loss_pct())),
                format!("{:.2}", mean_of(results, |r| r.mean_accuracy * 100.0)),
                format!("{:.2}", mean_of(results, |r| r.mean_power_w)),
                format!("{:.2}", mean_of(results, |r| r.mean_latency_ms)),
                format!("{:.2}", mean_of(results, |r| r.mean_service_latency_ms)),
                format!("{:.1}", mean_of(results, |r| r.reconfig_count as f64)),
                format!("{:.1}", mean_of(results, |r| r.ct_change_count as f64)),
            ]);
            fig6.push(vec![
                system.label().to_string(),
                kind.to_string(),
                format!("{:.3}", edp(results) / finn_edp),
                format!("{:.1}", mean_of(results, |r| r.qoe()) * 100.0),
            ]);
        }
    }
    print_table(
        &format!("Table I: averaged over {REPS} runs of 25 s (paper Sec. VI-B)"),
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
        &table1,
    );
    println!(
        "\nPaper reference (Table I): AdaPEx 0.00% loss on both datasets; FINN 22.8/23.6% loss;\n\
         CT-Only power 16-20% above FINN; AdaPEx latency 1.48-1.72x below FINN."
    );
    print_table(
        &format!("Fig. 6: EDP normalized to FINN + QoE, {REPS} runs"),
        &["System", "Dataset", "EDP/FINN", "QoE[%]"],
        &fig6,
    );
    println!(
        "\nPaper reference: AdaPEx EDP 1/2.0x (CIFAR-10) and 1/2.55x (GTSRB) of FINN;\n\
         AdaPEx QoE +11.72% / +15.27% over FINN; AdaPEx has the highest QoE of all systems."
    );
}

/// Ablations of AdaPEx's design decisions (DESIGN.md §4):
///
/// 1. **Selection policy** — the paper's reconfiguration-aware,
///    accuracy-ranked search vs an oblivious global search, a
///    throughput-greedy and a point-accuracy-greedy picker.
/// 2. **Reconfiguration cost** — the same manager under faster or
///    slower FPGA reconfiguration than the ~145 ms full-bitstream load.
/// 3. **Dataflow-aware pruning** — how many naive (constraint-free)
///    pruning amounts would break FINN's PE/SIMD folding.
fn ablation(art: &Artifacts, jobs: usize) {
    let kind = art.kind;
    let reps = ABLATION_REPS;
    let min_acc = art.reference_accuracy - 0.10;
    // The heavier 20x50-IPS load, where the manager must actually adapt
    // (at the paper's 600-IPS nominal a single operating point can
    // dominate and no knob ever moves).
    let heavy = WorkloadConfig {
        ips_per_camera: 50.0,
        ..WorkloadConfig::paper_default()
    };
    let run = |policy, reconfig_ms| {
        let manager = RuntimeManager::new(art.adapex.clone(), min_acc, policy);
        let sim = EdgeSimulation::new(SimConfig {
            workload: heavy,
            ..SimConfig::paper_default(reconfig_ms)
        });
        sim.run_many(&manager, &RunSpec::synthetic(0xAB1A), reps, jobs)
    };

    // --- 1. Selection policy. ------------------------------------
    let policies = [
        ("ReconfigAware (paper)", SelectionPolicy::ReconfigAware),
        ("Oblivious", SelectionPolicy::Oblivious),
        ("ThroughputGreedy", SelectionPolicy::ThroughputGreedy),
        ("AccuracyGreedy", SelectionPolicy::AccuracyGreedy),
    ];
    let by_policy: Vec<Vec<SimResult>> = policies
        .iter()
        .map(|&(_, policy)| run(policy, art.reconfig_time_ms))
        .collect();
    let rows: Vec<Vec<String>> = policies
        .iter()
        .zip(&by_policy)
        .map(|((name, _), results)| {
            vec![
                name.to_string(),
                format!("{:.2}", mean_of(results, |r| r.inference_loss_pct())),
                format!("{:.2}", mean_of(results, |r| r.mean_accuracy * 100.0)),
                format!("{:.1}", mean_of(results, |r| r.qoe() * 100.0)),
                format!("{:.1}", mean_of(results, |r| r.reconfig_count as f64)),
                format!("{:.3}", mean_of(results, |r| r.edp().unwrap_or(0.0))),
            ]
        })
        .collect();
    print_table(
        &format!("Ablation 1: selection policy ({kind}, {reps} runs)"),
        &["Policy", "Loss[%]", "Acc[%]", "QoE[%]", "Reconfigs", "EDP"],
        &rows,
    );

    // --- 2. Reconfiguration cost sensitivity. --------------------
    // The paper's row is ablation 1's ReconfigAware run.
    let mut rows = Vec::new();
    for (label, ms) in [
        ("10 ms (partial reconfig)", Some(10.0)),
        ("145 ms (paper, full bitstream)", None),
        ("500 ms", Some(500.0)),
        ("2000 ms", Some(2000.0)),
    ] {
        let other = ms.map(|ms| run(SelectionPolicy::ReconfigAware, ms));
        let results = other.as_deref().unwrap_or(&by_policy[0]);
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", mean_of(results, |r| r.inference_loss_pct())),
            format!("{:.1}", mean_of(results, |r| r.qoe() * 100.0)),
            format!("{:.1}", mean_of(results, |r| r.reconfig_count as f64)),
        ]);
    }
    print_table(
        &format!("Ablation 2: reconfiguration cost ({kind}, {reps} runs)"),
        &["Reconfig time", "Loss[%]", "QoE[%]", "Reconfigs"],
        &rows,
    );

    // --- 3. Dataflow-aware vs naive pruning. ----------------------
    // A pruned variant whose achieved rate differs from the requested
    // one had some layer rounded down by a folding constraint: the
    // naive amount (floor(rate * ch_out)) would have broken the folding.
    let pruned = art.adapex.entries.iter().filter(|e| e.pruning_rate != 0.0);
    let total = pruned.clone().count();
    let adjusted = pruned
        .filter(|e| (e.achieved_rate - e.pruning_rate).abs() > 5e-3)
        .count();
    println!(
        "\nAblation 3 ({kind}): {adjusted}/{total} pruned variants needed constraint \
         adjustment — naive pruning at those rates would emit channel counts FINN's \
         PE/SIMD folding cannot divide (synthesis failure)."
    );
}
