//! `adapex-cli` — command-line front-end for the AdaPEx reproduction.
//!
//! ```text
//! adapex-cli generate --dataset cifar10 --profile fast --out artifacts.json
//! adapex-cli inspect  --artifacts artifacts.json
//! adapex-cli simulate --artifacts artifacts.json --system adapex --reps 20
//! adapex-cli trace    --artifacts artifacts.json --seed 21 --ips-per-camera 50
//! adapex-cli synth    --width 8 --rate 0.5 --prune-exits
//! ```

mod args;

use adapex::baselines::{manager_for, System};
use adapex::generator::{Artifacts, GeneratorConfig, LibraryGenerator};
use adapex::runtime::{MitigationConfig, RuntimeManager};
use adapex_dataset::DatasetKind;
use adapex_edge::{
    mean_of, EdgeSimulation, FaultPlan, Fleet, FleetConfig, RunSpec, Scenario, ScenarioFile,
    SimConfig, SimResult, Traffic, WorkloadConfig, WorkloadSpec, WorkloadTrace,
    DEFAULT_CAMERA_SPREAD, DEFAULT_PLACEMENT,
};
use adapex_tensor::parallel::num_threads;
use args::Args;
use std::error::Error;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let Some(command) = args.command.as_deref() else {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    };
    let Some((_, run, known)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        eprintln!("error: unknown command {command}");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match args.reject_unknown(known) {
        Ok(()) => run(&args),
        Err(e) => Err(e.into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type Command = fn(&Args) -> Result<(), Box<dyn Error>>;

/// Each subcommand with the option keys its usage text documents; any
/// other key is refused before the command starts.
const COMMANDS: &[(&str, Command, &[&str])] = &[
    ("generate", cmd_generate, &["dataset", "profile", "out", "jobs", "cache-dir"]),
    ("inspect", cmd_inspect, &["artifacts", "prune-exits"]),
    ("report", cmd_report, &["artifacts", "out"]),
    ("simulate", cmd_simulate, &[
        "artifacts", "system", "reps", "ips-per-camera", "seed", "scenario", "workload",
        "faults", "no-mitigation", "servers", "cameras", "jobs",
    ]),
    ("trace", cmd_trace, &[
        "artifacts", "seed", "ips-per-camera", "scenario", "workload", "faults",
        "no-mitigation", "servers", "cameras", "jobs",
    ]),
    ("serve", cmd_serve, &[
        "artifacts", "slo", "max-batch", "batch-deadline-us", "workers", "pattern", "rate",
        "duration", "seed", "faults", "scenario", "workload",
    ]),
    ("synth", cmd_synth, &["width", "rate", "prune-exits", "classes", "target-cycles"]),
];

const USAGE: &str = "\
adapex-cli — AdaPEx (DATE 2023) reproduction toolkit

USAGE:
  adapex-cli generate --dataset cifar10|gtsrb [--profile fast|repro] --out FILE
                      [--jobs N]   (0 = auto; results are identical for any N)
                      [--cache-dir DIR]
                      (caching is off without --cache-dir. Cache hits are
                       byte-identical to recompute.)
  adapex-cli inspect  --artifacts FILE [--prune-exits]
  adapex-cli report   --artifacts FILE [--out FILE.md]
  adapex-cli simulate --artifacts FILE [--system adapex|pr-only|ct-only|finn|all]
                      [--reps N] [--ips-per-camera F] [--seed N]
                      [--scenario steady|ramp-up|burst|diurnal|SCENARIO.json]
                      [--workload WORKLOAD.json]
                      [--faults PLAN.json] [--no-mitigation]
                      [--servers N] [--cameras N] [--jobs N]
                      (--faults replays a deterministic fault plan —
                       reconfiguration aborts/overruns, camera dropouts,
                       stale-frame floods, accuracy dips. Mitigation —
                       hysteresis, cooldown, retry backoff — is enabled
                       with faults unless --no-mitigation.
                       --scenario also accepts a scenario *file* (see
                       tests/golden/scenarios/) bundling a workload
                       spec, fault plan, seed, and sim/fleet/serve
                       overrides; --workload takes a bare workload-spec
                       JSON. Explicit flags (--seed, --faults,
                       --cameras, --ips-per-camera, --servers) override
                       the file. --servers N > 1 simulates a fleet of N
                       edge servers with --cameras streams each, sharded
                       over --jobs cores; 0 = auto. Results are
                       byte-identical for any --jobs.)
  adapex-cli trace    --artifacts FILE [--seed N] [--ips-per-camera F]
                      [--scenario steady|ramp-up|burst|diurnal|SCENARIO.json]
                      [--workload WORKLOAD.json]
                      [--faults PLAN.json] [--no-mitigation]
                      [--servers N] [--cameras N] [--jobs N]
                      (--servers N > 1 prints one row per server instead
                       of the single-server time trace)
  adapex-cli serve    [--artifacts FILE] [--slo SPEC] [--max-batch N]
                      [--batch-deadline-us N] [--workers N]
                      [--pattern steady|burst|ramp] [--rate F]
                      [--duration S] [--seed N] [--faults PLAN.json]
                      [--scenario steady|ramp-up|burst|diurnal|SCENARIO.json]
                      [--workload WORKLOAD.json]
                      (SPEC is `name:budget_us:priority[:capacity],...`,
                       default `gold:20000:2:64,best-effort:100000:1:256`.
                       Without --artifacts, a synthetic service model
                       serves generated --pattern arrivals at --rate
                       requests/s in virtual time. With --artifacts, the
                       runtime manager serves the surveillance workload
                       on the event simulator: monitor decisions retune
                       the confidence threshold or reconfigure the FPGA
                       mid-serve, and --faults composes camera dropouts
                       and reconfig aborts into the run. --scenario and
                       --workload (with --artifacts) resolve as they do
                       for simulate; --duration and --rate override.)
  adapex-cli synth    [--width N] [--rate F] [--prune-exits] [--classes N]
                      [--target-cycles N]";

fn dataset_of(name: &str) -> Result<DatasetKind, Box<dyn Error>> {
    match name {
        "cifar10" => Ok(DatasetKind::Cifar10Like),
        "gtsrb" => Ok(DatasetKind::GtsrbLike),
        other => Err(format!("unknown dataset `{other}` (cifar10|gtsrb)").into()),
    }
}

fn cmd_generate(args: &Args) -> Result<(), Box<dyn Error>> {
    let kind = dataset_of(args.get_or("dataset", "cifar10".to_string())?.as_str())?;
    let out = args.require("out")?;
    let profile = args.get_or("profile", "fast".to_string())?;
    let mut cfg = GeneratorConfig::for_profile(&profile, kind)?;
    cfg.verbose = true;
    cfg.jobs = args.get_or("jobs", 0usize)?;
    if let Some(dir) = args.get("cache-dir") {
        cfg = cfg.with_cache_dir(dir);
    }
    let cached = cfg.cache_dir.is_some();
    let (artifacts, stats) = LibraryGenerator::new(cfg).generate_with_stats();
    artifacts.save_json(out)?;
    println!(
        "wrote {out}: {} AdaPEx entries, {} PR-Only entries, reference accuracy {:.1}%",
        artifacts.adapex.len(),
        artifacts.pr_only.len(),
        artifacts.reference_accuracy * 100.0
    );
    if cached {
        println!("cache: {stats}");
    }
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), Box<dyn Error>> {
    let artifacts = Artifacts::load_json(args.require("artifacts")?)?;
    println!(
        "dataset {} | reference accuracy {:.1}% | reconfig {:.0} ms",
        artifacts.kind,
        artifacts.reference_accuracy * 100.0,
        artifacts.reconfig_time_ms
    );
    println!(
        "{:>4} {:>8} {:>11} {:>9} {:>9} {:>10} {:>8} {:>8}",
        "id", "P.R.[%]", "exits", "mean-acc", "best-acc", "IPS range", "BRAM", "LUT"
    );
    for e in &artifacts.adapex.entries {
        if args.flag("prune-exits") != e.prune_exits {
            continue;
        }
        let (lo, hi) = e.points.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), p| {
            (lo.min(p.ips), hi.max(p.ips))
        });
        let best = e
            .points
            .iter()
            .map(|p| p.accuracy)
            .fold(0.0f64, f64::max);
        println!(
            "{:>4} {:>8.0} {:>11} {:>9.3} {:>9.3} {:>5.0}-{:<4.0} {:>8} {:>8}",
            e.id,
            e.pruning_rate * 100.0,
            if e.prune_exits { "pruned" } else { "not-pruned" },
            e.mean_exit_accuracy,
            best,
            lo,
            hi,
            e.resources.bram36,
            e.resources.lut,
        );
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), Box<dyn Error>> {
    let artifacts = Artifacts::load_json(args.require("artifacts")?)?;
    let md = adapex::report::render_markdown(&artifacts);
    match args.get("out") {
        Some(path) => {
            std::fs::write(path, &md)?;
            println!("wrote {path}");
        }
        None => print!("{md}"),
    }
    Ok(())
}

fn systems_of(name: &str) -> Result<Vec<System>, Box<dyn Error>> {
    Ok(match name {
        "adapex" => vec![System::AdaPEx],
        "pr-only" => vec![System::PrOnly],
        "ct-only" => vec![System::CtOnly],
        "finn" => vec![System::Finn],
        "all" => System::all().to_vec(),
        other => return Err(format!("unknown system `{other}`").into()),
    })
}

/// `--jobs N` with `0` (the default) meaning one worker per core.
fn jobs_of(args: &Args) -> Result<usize, Box<dyn Error>> {
    Ok(match args.get_or("jobs", 0usize)? {
        0 => num_threads(),
        n => n,
    })
}

/// Parses and validates `--faults FILE` (a fault-plan JSON), if given.
fn faults_arg(args: &Args) -> Result<Option<FaultPlan>, Box<dyn Error>> {
    let Some(path) = args.get("faults") else {
        return Ok(None);
    };
    let plan = FaultPlan::load_json(path)?;
    plan.validate().map_err(|e| format!("{path}: {e}"))?;
    Ok(Some(plan))
}

/// Parses `--scenario VALUE`, if given: one of the built-in shaped
/// traces (ids win), or a scenario *file* bundling workload + faults +
/// overrides.
fn scenario_arg(args: &Args) -> Result<(Option<Scenario>, Option<ScenarioFile>), Box<dyn Error>> {
    let Some(value) = args.get("scenario") else {
        return Ok((None, None));
    };
    if let Some(shaped) = Scenario::from_id(value) {
        return Ok((Some(shaped), None));
    }
    if std::path::Path::new(value).is_file() {
        return Ok((None, Some(ScenarioFile::load_json(value)?)));
    }
    Err(format!(
        "unknown scenario `{value}`: not a shaped id (steady|ramp-up|burst|diurnal) \
         and no such file"
    )
    .into())
}

/// Parses `--workload FILE` (a bare workload-spec JSON), if given.
fn workload_arg(args: &Args) -> Result<Option<WorkloadSpec>, Box<dyn Error>> {
    match args.get("workload") {
        Some(path) => Ok(Some(WorkloadSpec::load_json(path)?)),
        None => Ok(None),
    }
}

/// A command's workload-shape flags, applied on top of what the files
/// resolved to (`from_file`: a scenario or workload file set the shape).
type WorkloadFlags = fn(&Args, &mut WorkloadConfig, bool) -> Result<(), Box<dyn Error>>;

/// `simulate`/`trace`: `--ips-per-camera` / `--cameras`, only when
/// given, so file scenarios keep their own workload shape under the
/// default flags.
fn camera_flags(args: &Args, workload: &mut WorkloadConfig, _from_file: bool) -> Result<(), Box<dyn Error>> {
    workload.ips_per_camera = args.get_or("ips-per-camera", workload.ips_per_camera)?;
    workload.cameras = args.get_or("cameras", workload.cameras)?;
    Ok(())
}

/// `serve`: `--duration` (30 s unless a file says otherwise) and the
/// aggregate `--rate`, spread over the cameras.
fn serve_flags(args: &Args, workload: &mut WorkloadConfig, from_file: bool) -> Result<(), Box<dyn Error>> {
    let duration = if from_file { workload.duration_s } else { 30.0 };
    workload.duration_s = args.get_or("duration", duration)?;
    if let Some(rate) = args.get("rate") {
        workload.ips_per_camera = rate.parse::<f64>()? / workload.cameras as f64;
    }
    Ok(())
}

/// Everything `simulate`/`trace`/`serve` need, resolved from flags plus
/// an optional scenario file. Explicit flags always win over the file.
struct RunSetup {
    sim: SimConfig,
    /// A workload spec from `--workload FILE` or a scenario file.
    workload: Option<WorkloadSpec>,
    /// A built-in shaped trace (`--scenario steady|ramp-up|...`); never
    /// set together with `workload`. With neither, traffic is the
    /// paper's synthetic generator.
    shaped: Option<WorkloadTrace>,
    plan: FaultPlan,
    seed: u64,
    jobs: usize,
    servers: usize,
    /// The scenario file behind `--scenario FILE`, if any.
    file: Option<ScenarioFile>,
}

impl RunSetup {
    /// The episode this setup describes.
    fn spec(&self) -> RunSpec<'_> {
        let traffic = match (&self.workload, &self.shaped) {
            (Some(workload), _) => Traffic::Spec(workload),
            (None, Some(trace)) => Traffic::Shaped(trace),
            (None, None) => Traffic::Synthetic,
        };
        RunSpec::new(traffic, &self.plan, self.seed)
    }

    /// Announces the scenario file the run replays, if any.
    fn print_banner(&self) {
        if let Some(f) = &self.file {
            println!("scenario {} (seed {}): {}", f.name, f.seed, f.description);
        }
    }

    /// The checks a workload *file* gets on load, applied to what the
    /// flags resolved to (`--cameras 0`, `--ips-per-camera nan` land
    /// here), plus `--servers 0`.
    fn validate(&self) -> Result<(), Box<dyn Error>> {
        if self.servers == 0 {
            return Err("--servers must be > 0".into());
        }
        match &self.workload {
            Some(workload) => workload.validate()?,
            None => WorkloadSpec::paper_default()
                .with_config(self.sim.workload)
                .validate()?,
        }
        Ok(())
    }
}

fn resolve_run(
    args: &Args,
    reconfig_ms: f64,
    default_seed: u64,
    workload_flags: WorkloadFlags,
) -> Result<RunSetup, Box<dyn Error>> {
    let (shaped, file) = scenario_arg(args)?;
    let workload = workload_arg(args)?;
    if (shaped.is_some() || file.is_some()) && workload.is_some() {
        return Err(
            "--scenario and --workload are mutually exclusive (a scenario file \
             carries its own workload)"
                .into(),
        );
    }
    let fleet = file.as_ref().and_then(|f| f.fleet);
    let mut sim = file.as_ref().map_or_else(
        || SimConfig::paper_default(reconfig_ms),
        |f| f.sim_config(reconfig_ms),
    );
    if let Some(spec) = &workload {
        sim.workload = *spec.config();
    }
    if let Some(f) = fleet {
        sim.workload.cameras = f.cameras_per_server;
    }
    workload_flags(args, &mut sim.workload, file.is_some() || workload.is_some())?;
    let run = RunSetup {
        workload: file
            .as_ref()
            .map(|f| &f.workload)
            .or(workload.as_ref())
            .map(|spec| spec.with_config(sim.workload)),
        shaped: shaped.map(|s| s.trace(sim.workload)),
        sim,
        plan: match faults_arg(args)? {
            Some(plan) => plan,
            None => file.as_ref().map_or_else(FaultPlan::none, |f| f.faults.clone()),
        },
        seed: args.get_or("seed", file.as_ref().map_or(default_seed, |f| f.seed))?,
        jobs: jobs_of(args)?,
        servers: args.get_or("servers", fleet.map_or(1, |f| f.servers))?,
        file,
    };
    run.validate()?;
    Ok(run)
}

/// Builds the fleet for `--servers N` (N > 1): each server gets the
/// resolved per-server stream count and the shared simulation template.
fn fleet_for(run: &RunSetup) -> Result<Fleet, Box<dyn Error>> {
    if run.shaped.is_some() {
        return Err("--scenario applies to single-server runs; fleets draw \
                    per-camera workloads from the seed (use a scenario file \
                    for fleet workloads)"
            .into());
    }
    let (camera_spread, placement) = run
        .file
        .as_ref()
        .and_then(|f| f.fleet)
        .map_or((DEFAULT_CAMERA_SPREAD, DEFAULT_PLACEMENT), |f| {
            (f.camera_spread, f.placement)
        });
    Ok(Fleet::new(FleetConfig {
        servers: run.servers,
        cameras_per_server: run.sim.workload.cameras,
        camera_spread,
        placement,
        sim: run.sim.clone(),
    }))
}

/// `system`'s manager, with graceful-degradation mitigation when a fault
/// plan is active unless `--no-mitigation` asks for the paper's bare
/// manager.
fn manager_for_run(
    system: System,
    artifacts: &Artifacts,
    plan: &FaultPlan,
    args: &Args,
) -> RuntimeManager {
    let manager = manager_for(system, artifacts, 0.10);
    if !plan.is_none() && !args.flag("no-mitigation") {
        manager.with_mitigation(MitigationConfig::recommended())
    } else {
        manager
    }
}

fn print_fault_summary(results: &[SimResult]) {
    let sum = |f: &dyn Fn(&SimResult) -> usize| -> usize { results.iter().map(f).sum() };
    println!(
        "faults: {} failed reconfigs ({} retries), {} overruns, {} frames dropped at source, \
         {} flood arrivals, {} stale discards, {:.1} s degraded",
        sum(&|r| r.faults.failed_reconfigs),
        sum(&|r| r.faults.reconfig_retries),
        sum(&|r| r.faults.overrun_reconfigs),
        sum(&|r| r.faults.dropped_by_fault),
        sum(&|r| r.faults.flood_arrivals),
        sum(&|r| r.faults.stale_discarded),
        results.iter().map(|r| r.faults.time_degraded_s).sum::<f64>(),
    );
}

fn cmd_simulate(args: &Args) -> Result<(), Box<dyn Error>> {
    let artifacts = Artifacts::load_json(args.require("artifacts")?)?;
    let reps = args.get_or("reps", 20usize)?;
    let run = resolve_run(args, artifacts.reconfig_time_ms, 0xDA7E, camera_flags)?;
    run.print_banner();
    if run.servers > 1 {
        return simulate_fleet(args, &artifacts, &run);
    }
    let sim = EdgeSimulation::new(run.sim.clone());
    println!(
        "{:>8} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "System", "Loss[%]", "Acc[%]", "QoE[%]", "Power[W]", "Lat[ms]", "Reconfigs"
    );
    let mut all_results = Vec::new();
    for system in systems_of(args.get_or("system", "all".to_string())?.as_str())? {
        let manager = manager_for_run(system, &artifacts, &run.plan, args);
        let results = sim.run_many(&manager, &run.spec(), reps, run.jobs);
        println!(
            "{:>8} {:>9.2} {:>8.1} {:>8.1} {:>9.2} {:>9.2} {:>9.1}",
            system.label(),
            mean_of(&results, |r| r.inference_loss_pct()),
            mean_of(&results, |r| r.mean_accuracy * 100.0),
            mean_of(&results, |r| r.qoe() * 100.0),
            mean_of(&results, |r| r.mean_power_w),
            mean_of(&results, |r| r.mean_latency_ms),
            mean_of(&results, |r| r.reconfig_count as f64),
        );
        all_results.extend(results);
    }
    if !run.plan.is_none() {
        print_fault_summary(&all_results);
    }
    Ok(())
}

/// Fleet-mode `simulate`: one row per system with fleet-level
/// aggregates over `servers × cameras` streams.
fn simulate_fleet(args: &Args, artifacts: &Artifacts, run: &RunSetup) -> Result<(), Box<dyn Error>> {
    let fleet = fleet_for(run)?;
    println!(
        "fleet: {} servers x {} cameras = {} streams, {} jobs",
        run.servers,
        fleet.config().cameras_per_server,
        fleet.config().streams(),
        run.jobs
    );
    println!(
        "{:>8} {:>9} {:>8} {:>8} {:>9} {:>10} {:>9}",
        "System", "Loss[%]", "Acc[%]", "QoE[%]", "Power[W]", "Energy[J]", "Reconfigs"
    );
    for system in systems_of(args.get_or("system", "all".to_string())?.as_str())? {
        let manager = manager_for_run(system, artifacts, &run.plan, args);
        let result = fleet.run(&manager, &run.spec(), run.jobs);
        let s = &result.summary;
        println!(
            "{:>8} {:>9.2} {:>8.1} {:>8.1} {:>9.2} {:>10.1} {:>9}",
            system.label(),
            s.inference_loss_pct,
            s.mean_accuracy * 100.0,
            s.qoe * 100.0,
            s.mean_power_w,
            s.energy_j,
            s.reconfig_count,
        );
        if !run.plan.is_none() {
            print_fault_summary(&result.servers);
        }
    }
    Ok(())
}

/// Fleet-mode `trace`: one row per server instead of the time trace.
fn trace_fleet(args: &Args, artifacts: &Artifacts, run: &RunSetup) -> Result<(), Box<dyn Error>> {
    let fleet = fleet_for(run)?;
    let manager = manager_for_run(System::AdaPEx, artifacts, &run.plan, args);
    let result = fleet.run(&manager, &run.spec(), run.jobs);
    let placement = fleet.placement(run.seed);
    println!(
        "{:>6} {:>7} {:>9} {:>9} {:>8} {:>8} {:>9}",
        "server", "cams", "offered", "Loss[%]", "Acc[%]", "QoE[%]", "Reconfigs"
    );
    for (i, (r, a)) in result.servers.iter().zip(&placement).enumerate() {
        println!(
            "{:>6} {:>7} {:>9} {:>9.2} {:>8.1} {:>8.1} {:>9}",
            i,
            a.cameras.len(),
            r.offered,
            r.inference_loss_pct(),
            r.mean_accuracy * 100.0,
            r.qoe() * 100.0,
            r.reconfig_count,
        );
    }
    let s = &result.summary;
    println!(
        "fleet: {} streams, {:.2}% loss, QoE {:.1}%, {:.1} J, {} reconfigurations \
         ({} events over {} ticks)",
        s.streams,
        s.inference_loss_pct,
        s.qoe * 100.0,
        s.energy_j,
        s.reconfig_count,
        s.events,
        s.ticks,
    );
    if !run.plan.is_none() {
        print_fault_summary(&result.servers);
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), Box<dyn Error>> {
    let artifacts = Artifacts::load_json(args.require("artifacts")?)?;
    let run = resolve_run(args, artifacts.reconfig_time_ms, 21, camera_flags)?;
    run.print_banner();
    if run.servers > 1 {
        return trace_fleet(args, &artifacts, &run);
    }
    let mut manager = manager_for_run(System::AdaPEx, &artifacts, &run.plan, args);
    let sim = EdgeSimulation::new(run.sim.clone());
    let result = sim.run(&mut manager, &run.spec());
    println!(
        "{:>5} {:>8} {:>8} {:>8} {:>8} {:>6} {:>5} {:>8}",
        "t[s]", "IPS", "P.R.[%]", "C.T.[%]", "Acc[%]", "queue", "deg", "backoff"
    );
    for s in &result.trace {
        println!(
            "{:>5.0} {:>8.0} {:>8.0} {:>8.0} {:>8.1} {:>6} {:>5} {:>8}",
            s.t,
            s.workload_ips,
            s.pruning_rate * 100.0,
            s.confidence_threshold * 100.0,
            s.accuracy * 100.0,
            s.queue_len,
            if s.degraded { "*" } else { "" },
            s.backoff_remaining,
        );
    }
    println!(
        "{} reconfigurations, {} CT moves, {:.2}% loss, QoE {:.1}%",
        result.reconfig_count,
        result.ct_change_count,
        result.inference_loss_pct(),
        result.qoe() * 100.0
    );
    if !run.plan.is_none() {
        print_fault_summary(std::slice::from_ref(&result));
    }
    Ok(())
}

fn cmd_synth(args: &Args) -> Result<(), Box<dyn Error>> {
    use adapex::generator::derive_constraints;
    use adapex_nn::cnv::{CnvConfig, ExitsConfig};
    use adapex_prune::{PruneConfig, Pruner};
    use finn_dataflow::{
        assignments_from_fractions, compile, simulate_stream, FoldingConfig, FpgaDevice, ModelIr,
    };

    let width = args.get_or("width", 8usize)?;
    let rate = args.get_or("rate", 0.0f64)?;
    let classes = args.get_or("classes", 10usize)?;
    let target = args.get_or("target-cycles", 235_000u64)?;
    let net = CnvConfig::scaled(width).build_early_exit(classes, &ExitsConfig::paper_default(), 42);
    let ir = ModelIr::from_summary(&net.summarize());
    let folding = FoldingConfig::balanced(&ir, target, 2.0);
    let net = if rate > 0.0 {
        let constraints = derive_constraints(&net, &folding);
        let (pruned, report) = Pruner::new(PruneConfig {
            rate,
            prune_exits: args.flag("prune-exits"),
        })
        .prune(&net, &constraints);
        println!(
            "pruned: requested {:.0}% -> achieved {:.1}%",
            rate * 100.0,
            report.overall_rate() * 100.0
        );
        pruned
    } else {
        net
    };
    let ir = ModelIr::from_summary(&net.summarize());
    let acc = compile(&ir, &folding, &FpgaDevice::zcu104(), 100.0)?;
    println!("{}", acc.report().summary());
    println!(
        "latency to exits [ms]: {:?}",
        acc.report()
            .latency_to_exit_ms
            .iter()
            .map(|l| format!("{l:.3}"))
            .collect::<Vec<_>>()
    );
    // Cross-check the analytical throughput with the stream simulator.
    let fractions = vec![0.6, 0.2, 0.2];
    let sim = simulate_stream(acc.graph(), &assignments_from_fractions(&fractions, 300));
    let analytical = acc.performance(&fractions);
    println!(
        "stream-sim check @ mix {fractions:?}: simulated {:.0} IPS vs analytical {:.0} IPS",
        sim.throughput_ips(100.0),
        analytical.ips
    );
    Ok(())
}

/// Parses an SLO spec: `name:budget_us:priority[:capacity]` groups
/// separated by commas.
fn parse_slo(spec: &str) -> Result<Vec<adapex::serve::SloClass>, Box<dyn Error>> {
    use adapex::serve::SloClass;
    let mut classes = Vec::new();
    for group in spec.split(',') {
        let parts: Vec<&str> = group.split(':').collect();
        if parts.len() < 3 || parts.len() > 4 {
            return Err(format!(
                "bad SLO group `{group}` (want name:budget_us:priority[:capacity])"
            )
            .into());
        }
        let mut class = SloClass::new(parts[0], parts[1].parse()?);
        class.priority = parts[2].parse()?;
        if let Some(cap) = parts.get(3) {
            class.queue_capacity = cap.parse()?;
        }
        classes.push(class);
    }
    if classes.is_empty() {
        return Err("SLO spec names no classes".into());
    }
    Ok(classes)
}

fn print_serve_report(config: &adapex::serve::ServeConfig, r: &adapex::serve::ServeReport) {
    println!(
        "offered {}  completed {} ({} in budget)  dropped {}  shed {}  \
         batches {} (fill {:.1})  deferrals {}",
        r.offered,
        r.completed,
        r.completed_in_budget,
        r.dropped_full,
        r.shed_infeasible,
        r.batches,
        r.mean_batch_fill().unwrap_or(0.0),
        r.deferrals
    );
    if let (Some(tp), Some(gp)) = (r.throughput_rps(), r.goodput_rps()) {
        println!("throughput {tp:.0} rps  goodput {gp:.0} rps");
    }
    println!(
        "{:>12} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "Class", "Budget[ms]", "Done", "Dropped", "Shed", "p50[ms]", "p99[ms]"
    );
    for (c, s) in r.per_class.iter().enumerate() {
        let ms = |v: Option<u64>| {
            v.map(|u| format!("{:.1}", u as f64 / 1_000.0))
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:>12} {:>10.1} {:>9} {:>9} {:>9} {:>9} {:>9}",
            config.classes[c].name,
            config.classes[c].budget_us as f64 / 1_000.0,
            s.completed,
            s.dropped_full,
            s.shed_infeasible,
            ms(s.p50_us()),
            ms(s.p99_us()),
        );
    }
}

fn cmd_serve(args: &Args) -> Result<(), Box<dyn Error>> {
    use adapex::serve::{
        generate_arrivals, ArrivalPattern, PointServiceModel, ServeConfig, ServeSim,
    };
    use adapex_edge::{ServeScenario, ServeScenarioConfig};

    // Which kernel bodies this host dispatches to: what the executor
    // behind the served latencies runs on here. Printed once every input
    // has loaded, so a bad file fails with nothing on stdout.
    let print_backends = || {
        println!(
            "kernel backends: simd {:?}, int2 {:?}",
            adapex_tensor::simd::active_backend(),
            adapex_tensor::int2::active_backend()
        )
    };
    let mut config = ServeConfig::paper_default();
    if let Some(spec) = args.get("slo") {
        config.classes = parse_slo(spec)?;
    }
    config.max_batch = args.get_or("max-batch", config.max_batch)?;
    config.batch_deadline_us = args.get_or("batch-deadline-us", config.batch_deadline_us)?;
    config.workers = args.get_or("workers", config.workers)?;
    let seed = args.get_or("seed", 0x5E17Eu64)?;
    let weights = vec![1.0; config.classes.len()];

    if let Some(path) = args.get("artifacts") {
        let artifacts = Artifacts::load_json(path)?;
        let manager = manager_for(System::AdaPEx, &artifacts, 0.10);
        // The episode resolves as it does for `simulate`; a scenario
        // file's serve section tunes the server on top.
        let run = resolve_run(args, artifacts.reconfig_time_ms, seed, serve_flags)?;
        print_backends();
        run.print_banner();
        let mut cfg = ServeScenarioConfig::paper_default(artifacts.reconfig_time_ms);
        cfg.serve = config.clone();
        cfg.class_weights = weights;
        if let Some(file) = &run.file {
            file.apply_serve(&mut cfg);
        }
        cfg.workload = run.sim.workload;
        let result = ServeScenario::run(&cfg, manager, &run.spec());
        println!(
            "decisions {}  ct-changes {}  reconfigs {} ({} aborted, {:.1} ms down)  \
             fault-dropped {}",
            result.decisions,
            result.ct_changes,
            result.reconfigs,
            result.reconfig_aborts,
            result.reconfig_downtime_us as f64 / 1_000.0,
            result.dropped_by_fault
        );
        print_serve_report(&config, &result.report);
    } else {
        if args.get("scenario").is_some() || args.get("workload").is_some() {
            return Err("--scenario/--workload require --artifacts (the file-driven \
                        workload drives the camera simulation, not the synthetic \
                        service model)"
                .into());
        }
        let rate = args.get_or("rate", 2_000.0f64)?;
        let duration = args.get_or("duration", 30.0f64)?;
        let pattern_name = args.get_or("pattern", "steady".to_string())?;
        let pattern = ArrivalPattern::parse(&pattern_name)
            .ok_or_else(|| format!("unknown pattern `{pattern_name}` (steady|burst|ramp)"))?;
        print_backends();
        // Synthetic three-exit service model: 70 % retire at a 300 µs
        // first exit, 20 % at 600 µs, the rest at full depth.
        let model = PointServiceModel::new(&[0.7, 0.2, 0.1], vec![300, 600, 1_000], seed);
        let arrivals = generate_arrivals(pattern, rate, duration, &weights, seed);
        println!(
            "pattern {pattern_name} at {rate:.0} rps for {duration:.0}s: {} arrivals",
            arrivals.len()
        );
        let report = ServeSim::run(config.clone(), &model, &arrivals);
        print_serve_report(&config, &report);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resolve(tokens: &[&str]) -> Result<RunSetup, Box<dyn Error>> {
        let args = Args::parse(tokens.iter().map(|s| s.to_string())).expect("parses");
        let flags = if args.command.as_deref() == Some("serve") { serve_flags } else { camera_flags };
        resolve_run(&args, 145.0, 1, flags)
    }

    fn rejected(tokens: &[&str]) -> String {
        match resolve(tokens) {
            Ok(_) => panic!("{tokens:?} must be rejected"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn a_fleet_without_cameras_is_an_error_not_a_panic() {
        let err = rejected(&["simulate", "--servers", "2", "--cameras", "0"]);
        assert!(err.contains("cameras must be > 0"), "error: {err}");
    }

    #[test]
    fn flags_get_the_validation_workload_files_get() {
        // Same messages as `WorkloadSpec::validate`, whichever traffic
        // recipe the flags resolve to.
        let err = rejected(&["simulate", "--cameras", "0"]);
        assert!(err.contains("cameras must be > 0"), "error: {err}");
        for bad in ["nan", "-5", "inf", "0"] {
            for scenario in [&[][..], &["--scenario", "burst"]] {
                let mut tokens = vec!["simulate", "--ips-per-camera", bad];
                tokens.extend_from_slice(scenario);
                let err = rejected(&tokens);
                assert!(
                    err.contains("ips_per_camera must be finite and > 0"),
                    "{tokens:?}: {err}"
                );
            }
        }
    }

    #[test]
    fn zero_servers_is_an_error_not_one_server() {
        let err = rejected(&["simulate", "--servers", "0"]);
        assert!(err.contains("--servers"), "error: {err}");
    }

    #[test]
    fn valid_flags_resolve_to_the_matching_traffic_recipe() {
        let run = resolve(&["simulate", "--servers", "2", "--cameras", "5"]).expect("valid");
        assert_eq!((run.servers, run.sim.workload.cameras), (2, 5));
        assert!(matches!(run.spec().traffic, Traffic::Synthetic));
        let run = resolve(&["trace", "--scenario", "burst", "--seed", "9"]).expect("valid");
        assert!(matches!(run.spec().traffic, Traffic::Shaped(_)));
        assert_eq!(run.spec().seed, 9);
        assert!(fleet_for(&run).is_err(), "shaped traces are single-server");
    }

    #[test]
    fn serve_resolves_its_episode_like_simulate() {
        let run = resolve(&["serve", "--scenario", "burst", "--rate", "400"]).expect("valid");
        assert!(matches!(run.spec().traffic, Traffic::Shaped(_)));
        assert_eq!((run.sim.workload.duration_s, run.sim.workload.ips_per_camera), (30.0, 20.0));
        let err = rejected(&["serve", "--rate", "nan"]);
        assert!(err.contains("ips_per_camera must be finite"), "error: {err}");
    }

    #[test]
    fn flag_and_file_fleets_share_the_defaults() {
        // A scenario fleet section without `camera_spread`/`placement`
        // resolves to the same fleet as the flags that spell its shape.
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/scenarios/paper-synthetic.json"
        ))
        .unwrap();
        let text = text.replace(
            r#""fleet": null"#,
            r#""fleet": {"servers": 3, "cameras_per_server": 20}"#,
        );
        let path = std::env::temp_dir().join(format!("adapex-fleet-{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let from_file = resolve(&["simulate", "--scenario", path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        let from_file = fleet_for(&from_file.expect("valid")).expect("fleet");
        let from_flags = resolve(&["simulate", "--servers", "3", "--cameras", "20"]);
        let from_flags = fleet_for(&from_flags.expect("valid")).expect("fleet");
        assert_eq!(from_file.config(), from_flags.config());
        assert_eq!(from_flags.config().camera_spread, DEFAULT_CAMERA_SPREAD);
        assert_eq!(from_flags.config().placement, DEFAULT_PLACEMENT);
    }

    #[test]
    fn an_out_of_range_fault_plan_is_an_error_not_a_clamp() {
        let path = std::env::temp_dir().join(format!("adapex-bad-plan-{}.json", std::process::id()));
        std::fs::write(&path, r#"{"dropouts":[{"window":{"start_s":1,"end_s":2},"fraction":1.5}]}"#).unwrap();
        let err = rejected(&["simulate", "--faults", path.to_str().unwrap()]);
        std::fs::remove_file(&path).ok();
        assert!(err.contains("dropouts[].fraction must be in [0, 1]"), "error: {err}");
    }
}
