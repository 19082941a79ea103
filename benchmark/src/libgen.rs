//! The `library-gen` workload: the paper's design-time half.
//!
//! `LibraryGenerator` on the reproduction profile (width-8 CNV,
//! CIFAR-10-like data) cut to 4 pruning rates in [0, 0.64], both
//! exit-prune modes, 2 training and 1 retraining epoch on 120 images:
//! 4 PR-Only + 8 AdaPEx = 12 entries. A *cold* run writes into a fresh
//! cache directory and so trains two base networks, prunes and retrains
//! nine variants, evaluates and compiles all twelve — the same `tensor`
//! and `nn` layers as serving, but through f32 GEMM forward+backward
//! with the weight caches invalidated every step, plus `prune`,
//! `finn::compile`, `nn::eval` on pruned odd-channel shapes. A *warm*
//! run regenerates the same library from the artifact cache and touches
//! `core::cache` and JSON only. Cold and warm runs alternate for the
//! whole run so that both see every noise phase of the host. `jobs = 1`,
//! like every gated phase.

use crate::probes::{self, ns_per_call};
use crate::stats::{median, min};
use crate::trace::span_cost_ns;
use crate::{out_dir, Laps, Run};
use adapex::generator::derive_constraints;
use adapex::{CacheStats, GeneratorConfig, LibraryGenerator};
use adapex_dataset::{DatasetKind, SyntheticConfig};
use adapex_nn::cnv::ExitsConfig;
use adapex_nn::eval::{evaluate_exits_with, EvalConfig};
use adapex_nn::train::{TrainConfig, Trainer};
use adapex_prune::{PruneConfig, Pruner};
use finn_dataflow::{
    assignments_from_fractions, compile, simulate_stream, FoldingConfig, FpgaDevice, ModelIr,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const TRAIN_IMAGES: usize = 120;
const TEST_IMAGES: usize = 60;
/// Warm runs after each cold run.
const WARM_PER_COLD: usize = 8;

fn config(seed: u64, cache_dir: Option<PathBuf>) -> GeneratorConfig {
    let kind = DatasetKind::Cifar10Like;
    let mut cfg = GeneratorConfig::repro_default(kind);
    cfg.dataset = SyntheticConfig::new(kind)
        .with_sizes(TRAIN_IMAGES, TEST_IMAGES)
        .with_seed(seed ^ 0xDA7A);
    cfg.train.epochs = 2;
    cfg.retrain.epochs = 1;
    cfg.pruning_rates = vec![0.0, 0.64 / 3.0, 1.28 / 3.0, 0.64];
    cfg.exit_prune_modes = vec![false, true];
    cfg.seed = seed;
    cfg.jobs = 1;
    cfg.cache_dir = cache_dir;
    cfg
}

/// A scratch cache directory under `benchmark/out/`, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let path = out_dir().join(format!("cache-{}-{tag}", std::process::id()));
        // A leftover from a killed run would make a cold run warm.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One generation: wall seconds, serialized artifacts, entry count and
/// cache counters.
struct Generation {
    wall_s: f64,
    json: String,
    entries: u64,
    stats: CacheStats,
}

fn generate(seed: u64, dir: &Path) -> Generation {
    let generator = LibraryGenerator::new(config(seed, Some(dir.to_path_buf())));
    let t0 = Instant::now();
    let (artifacts, stats) = generator.generate_with_stats();
    let wall_s = t0.elapsed().as_secs_f64();
    Generation {
        wall_s,
        entries: (artifacts.adapex.len() + artifacts.pr_only.len()) as u64,
        json: serde_json::to_string(&artifacts).expect("artifacts serialize"),
        stats,
    }
}

/// Set-up: scratch space, and a miniature generation (one rate, one
/// epoch, 40 images, no cache) that pulls every code path of the real
/// one through the instruction cache and the buffer pools.
fn setup(seed: u64, _laps: &mut Laps) {
    std::fs::create_dir_all(out_dir()).unwrap_or_else(|e| panic!("{}: {e}", out_dir().display()));
    let mut cfg = config(seed, None);
    cfg.dataset = cfg.dataset.with_sizes(40, 20);
    cfg.train.epochs = 1;
    cfg.pruning_rates = vec![0.64];
    cfg.exit_prune_modes = vec![false];
    black_box(LibraryGenerator::new(cfg).generate());
}

/// Runs the `library-gen` workload.
pub fn run(run: &mut Run) {
    let traced = run.tracer.enabled();
    let pins = run.pins.library;
    run.timed_setup(setup);

    let (mut cold_walls, mut warm_walls) = (Vec::new(), Vec::new());
    let mut first: Option<Generation> = None;
    let mut warm_stats = CacheStats::default();
    let mut cache_bytes = 0;
    let start = Instant::now();
    let budget = if traced { 0.6 } else { 0.9 } * run.seconds;
    while cold_walls.len() < 2 || start.elapsed().as_secs_f64() < budget {
        let round = cold_walls.len() as u64;
        let dir = ScratchDir::new(&round.to_string());
        let cold = run
            .tracer
            .span("core.generator.cold", round, || generate(run.seed, &dir.0));
        cold_walls.push(cold.wall_s);
        // One operation per entry per run; a run that differs from the
        // first cold run by a byte fails all of its entries. Later cold
        // runs recompute everything and must land on the same bytes.
        let same = first
            .as_ref()
            .is_none_or(|reference| cold.json == reference.json);
        run.report
            .ops(cold.entries, if same { 0 } else { cold.entries });
        if !same {
            run.report.fail(format!(
                "cold run {round} is not byte-identical to the first cold run"
            ));
        }
        let reference = first.get_or_insert(cold);
        for w in 0..WARM_PER_COLD {
            let warm = run
                .tracer
                .span("core.generator.warm", round, || generate(run.seed, &dir.0));
            warm_walls.push(warm.wall_s);
            let same = warm.json == reference.json && warm.stats.misses() == 0;
            run.report
                .ops(warm.entries, if same { 0 } else { warm.entries });
            if !same {
                run.report.fail(format!(
                    "warm run {w} of round {round}: {} cache misses, artifacts {} the first cold run's",
                    warm.stats.misses(),
                    if warm.json == reference.json { "equal" } else { "differ from" }
                ));
            }
            warm_stats = warm.stats;
        }
        cache_bytes = dir_bytes(&dir.0);
    }
    let loop_ns = start.elapsed().as_nanos() as f64;
    let reference = first.expect("at least two cold runs");

    for (key, got, want) in [
        ("entries", reference.entries, pins.entries),
        ("misses_cold", reference.stats.misses(), pins.misses_cold),
        ("hits_warm", warm_stats.hits(), pins.hits_warm),
        ("misses_warm", warm_stats.misses(), pins.misses_warm),
    ] {
        if got != want {
            run.report
                .fail(format!("pin library.{key} drifted: {got}, pinned {want}"));
        }
    }

    let (cold_s, warm_s) = (min(&cold_walls), min(&warm_walls));
    let entries = reference.entries as f64;
    run.report.set("rate_per_s", entries / warm_s);
    run.report.set("loaded_rate_per_s", entries / cold_s);
    run.report.set("light_ms", warm_s * 1e3);
    run.report.set("heavy_ms", cold_s * 1e3);
    run.report.alias("gen_cold_s", cold_s, "s");
    run.report.alias("gen_warm_s", warm_s, "s");
    run.report
        .alias("cold_runs", cold_walls.len() as f64, "count");
    run.report
        .alias("warm_runs", warm_walls.len() as f64, "count");
    run.report.alias(
        "cold_median_over_min",
        median(&cold_walls) / cold_s,
        "ratio",
    );
    run.report.alias(
        "warm_median_over_min",
        median(&warm_walls) / warm_s,
        "ratio",
    );
    run.report.set("core.generator.entries", entries);
    run.report
        .set("core.cache.misses_cold", reference.stats.misses() as f64);
    run.report
        .set("core.cache.hits_warm", warm_stats.hits() as f64);
    run.report
        .set("core.cache.misses_warm", warm_stats.misses() as f64);
    run.report.set("core.cache.bytes", cache_bytes as f64);
    if !traced {
        return;
    }
    run.report.set(
        "bench.trace_overhead",
        run.tracer.span_count() as f64 * span_cost_ns() / loop_ns,
    );

    // One variant walked step by step through the public functions the
    // generator composes, a span around each.
    let cfg = config(run.seed, None);
    let classes = cfg.kind.num_classes();
    let tracer = &mut run.tracer;
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let data = tracer.span("dataset.generate", 0, || cfg.dataset.generate());
    run.report.set("dataset.generate_ms", ms(t0));

    let mut net = cfg.cnv.build_early_exit(classes, &cfg.exits, cfg.seed);
    let shape = net.clone();
    let train = TrainConfig {
        epochs: 1,
        exit_loss_weights: Some(cfg.exits.loss_weights(net.num_exits())),
        ..cfg.train.clone()
    };
    let t0 = Instant::now();
    tracer.span("nn.train.epoch", 0, || {
        Trainer::new(train).fit(&mut net, &data, cfg.seed)
    });
    let epoch_ms = ms(t0);
    run.report.set("nn.train.epoch_ms", epoch_ms);
    run.report.set(
        "nn.train.samples_per_s",
        TRAIN_IMAGES as f64 / (epoch_ms / 1e3),
    );

    let ir = ModelIr::from_summary(&shape.summarize());
    let folding = FoldingConfig::balanced(&ir, cfg.folding_target_cycles, cfg.pre_junction_speedup);
    let constraints = derive_constraints(&shape, &folding);
    let pruner = Pruner::new(PruneConfig {
        rate: cfg.pruning_rates[2],
        prune_exits: ExitsConfig::paper_default().prune_exits,
    });
    // The sub-millisecond steps are repeated and charged their p10
    // call; one call of each is recorded as a span.
    let each = 0.01 * run.seconds;
    let (mut pruned, _) = tracer.span("prune.prune", 0, || pruner.prune(&net, &constraints));
    let ns = ns_per_call(each, || {
        black_box(pruner.prune(&net, &constraints));
    });
    run.report.set("prune.prune_ms", ns / 1e6);

    let t0 = Instant::now();
    tracer.span("nn.eval", 0, || {
        black_box(evaluate_exits_with(
            &mut pruned,
            &data.test,
            EvalConfig { batch: 64, jobs: 1 },
        ))
    });
    run.report
        .set("nn.eval.images_per_s", TEST_IMAGES as f64 / (ms(t0) / 1e3));

    let pruned_ir = ModelIr::from_summary(&pruned.summarize());
    let device = FpgaDevice::zcu104();
    let accelerator = tracer
        .span("finn.compiler.compile", 0, || {
            compile(&pruned_ir, &folding, &device, cfg.clock_mhz)
        })
        .expect("a variant the generator accepts compiles");
    let ns = ns_per_call(each, || {
        black_box(compile(&pruned_ir, &folding, &device, cfg.clock_mhz).is_ok());
    });
    run.report.set("finn.compiler.compile_ms", ns / 1e6);

    let assignments = assignments_from_fractions(&[0.6, 0.25, 0.15], 200);
    let sim = tracer.span("finn.stream_sim.simulate", 0, || {
        simulate_stream(accelerator.graph(), &assignments)
    });
    let ns = ns_per_call(each, || {
        black_box(simulate_stream(accelerator.graph(), &assignments));
    });
    run.report.set("finn.stream_sim.simulate_ms", ns / 1e6);
    run.report.set(
        "finn.stream_sim.cycles",
        sim.completion_cycles.last().copied().unwrap_or(0) as f64,
    );

    probes::tensor(run, 0.06 * run.seconds);
}
