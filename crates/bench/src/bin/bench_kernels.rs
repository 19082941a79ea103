//! Kernel micro-benchmark bin: emits `BENCH_kernels.json` and
//! `BENCH_simd.json`.
//!
//! Times the training/inference hot path at the shapes the library
//! generator actually runs (CNV layer shapes at the generator width and
//! at the paper's full width), plus one end-to-end training epoch at the
//! `ADAPEX_PROFILE=fast` scale. The seed-revision measurements are
//! compiled in (`baseline_kernels.json`) so the emitted report carries
//! before/after speedups, letting the perf trajectory be tracked across
//! PRs without re-checking-out old revisions.
//!
//! `BENCH_simd.json` pits the runtime-dispatched SIMD backend against the
//! portable backend — the only one on hosts without AVX2, pinned here
//! via `adapex_tensor::simd::override_backend` — on the GEMM CNV
//! shapes and the elementwise hot loops, joining the previous revision's
//! scalar numbers from the compiled-in baseline where the names match.
//! Both backends produce bit-identical results, so the delta is pure
//! throughput. The bit-packed int2 GEMM (`gemm_int2_*` rows) is measured
//! at the same CNV shapes, and the report's
//! `int2_speedup_vs_f32_gemm_full` field records how much the popcount
//! engine buys over the dispatched f32 GEMM at the largest shape — where
//! a vector int2 backend is dispatched the run **asserts** that factor
//! is at least 1.5×, so a regression in the engine fails the bench
//! instead of shipping. The header names the dispatched `simd` and
//! `int2` backends (two dispatchers: the f32 kernels stop at AVX2) and
//! the host's CPU features.
//!
//! `int2_backends` times the int2 kernels under **every** backend the
//! host can force — portable, AVX2, AVX-512 — in one interleaved run
//! (round-robin over the backends, best batch each), so its ratios
//! compare bodies, not runs: no column comes from a compiled-in
//! baseline, and a backend the host lacks is `null`. Where both vector
//! backends exist the run asserts AVX-512 ≥ 1.8× AVX2 on
//! `gemm_conv2_full`.
//!
//! `BENCH_simd.json` also carries the direct conv path stage by stage:
//! `int2_direct_stages` times `pack_image_int2`, `gather_conv_windows_int2`
//! and `gemm_int2` at the four width-8 CNV probe shapes the repo
//! benchmark uses, each row joined with the parent commit's measurement
//! (`baseline_int2_stages.json`, the same bench code run on the same
//! host against the parent checkout) and its run-to-run spread; and
//! `conv_route_crossover` times the engine against the f32-over-codes
//! route across filter counts, the measurement
//! `int2::ENGINE_MIN_ITEMS_DIRECT` is set from.
//!
//! `--simd-only` runs just the `BENCH_simd.json` section (including the
//! int2 gate) and skips the epoch/cache benchmarks — the CI artifact leg.
//!
//! `BENCH_cache.json` measures the generator's content-addressed
//! artifact cache: one cold sweep populating a scratch cache, then warm
//! re-runs at one and several workers. Warm runs must be all-hits and
//! byte-identical to the cold artifacts; the report records the
//! cold/warm speedup.
//!
//! Run with `cargo run --release -p adapex-bench --bin bench`.

use adapex::generator::{GeneratorConfig, LibraryGenerator};
use adapex::CacheStats;
use adapex_dataset::{DatasetKind, SyntheticConfig};
use adapex_nn::cnv::CnvConfig;
use adapex_nn::layers::{Activation, QuantConv2d, QuantLinear};
use adapex_nn::quant::QuantSpec;
use adapex_nn::train::{TrainConfig, Trainer};
use adapex_tensor::conv::{im2col, im2col_into, ConvGeometry};
use adapex_tensor::gemm::{gemm, gemm_bias, gemm_st};
use adapex_tensor::parallel::num_threads;
use adapex_tensor::int2::{self, CodeSteps, OutMajor};
use adapex_tensor::rng::{normal_tensor, rng_from_seed};
use adapex_tensor::simd::{self, Backend};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// Seed-revision numbers, captured on the same machine class the CI
/// runs on; `null`/missing entries simply yield no speedup column.
const BASELINE: &str = include_str!("baseline_kernels.json");

#[derive(Debug, Serialize, Deserialize)]
struct KernelReport {
    name: String,
    ns_per_op: f64,
    #[serde(default)]
    baseline_ns_per_op: Option<f64>,
    #[serde(default)]
    speedup: Option<f64>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    /// `adapex_bench::BENCH_SCHEMA_VERSION` (`default` so the
    /// compiled-in seed baseline, captured before the field existed,
    /// still parses).
    #[serde(default)]
    schema_version: u32,
    threads: usize,
    profile: String,
    kernels: Vec<KernelReport>,
}

#[derive(Debug, Serialize)]
struct SimdKernelReport {
    name: String,
    dispatched_ns_per_op: f64,
    /// Portable backend forced via `override_backend`: the scalar lane
    /// loops, i.e. exactly the PR 2 kernel code, measured in the same run.
    scalar_forced_ns_per_op: f64,
    /// scalar-forced / dispatched: the factor the vector backend buys.
    simd_speedup: f64,
    /// The compiled-in seed-revision measurement, if the kernel existed
    /// then (GEMM shapes only; the elementwise kernels are new counters,
    /// reported as `null`).
    seed_baseline_ns_per_op: Option<f64>,
    speedup_vs_seed: Option<f64>,
}

/// Parent-commit stage timings for the `int2_direct_stages` join.
const PARENT_STAGES: &str = include_str!("baseline_int2_stages.json");

#[derive(Debug, Deserialize)]
struct ParentStages {
    kernels: Vec<KernelReport>,
}

/// One stage of the direct int2 conv path at one probe shape.
#[derive(Debug, Serialize)]
struct StageReport {
    name: String,
    /// Best of the timed batches, like every other row.
    ns_per_op: f64,
    median_ns_per_op: f64,
    /// Interquartile range of the batches over their median.
    spread: f64,
    /// The same stage at the parent commit (`baseline_int2_stages.json`).
    parent_ns_per_op: Option<f64>,
    speedup_vs_parent: Option<f64>,
}

/// Engine vs f32-over-codes for one conv shape, whole per-image route.
#[derive(Debug, Serialize)]
struct CrossoverReport {
    c_in: usize,
    hw: usize,
    c_out: usize,
    engine_ns_per_op: f64,
    f32_codes_ns_per_op: f64,
    /// f32-over-codes / engine: above 1 the engine is the faster route.
    engine_speedup: f64,
    /// What `int2::conv_engine_profitable` answers for this shape.
    auto_routes_engine: bool,
}

/// One int2 kernel under every backend, from one interleaved run.
#[derive(Debug, Serialize)]
struct BackendRow {
    name: String,
    portable_ns_per_op: f64,
    /// `null`: the host cannot run the backend.
    avx2_ns_per_op: Option<f64>,
    avx512_ns_per_op: Option<f64>,
    /// AVX2 ns / AVX-512 ns, where the host has both.
    avx512_speedup_vs_avx2: Option<f64>,
}

#[derive(Debug, Serialize)]
struct SimdReport {
    schema_version: u32,
    threads: usize,
    /// `std::thread::available_parallelism` of the measuring host.
    host_cores: usize,
    /// `adapex_bench::cpu_features` of the measuring host.
    cpu_features: Vec<&'static str>,
    /// The backend the f32 kernels (`kernels` rows without `int2`)
    /// dispatched to ...
    simd_backend: String,
    /// ... and the one the int2 kernels did: every `dispatched` number
    /// of an int2 row, and both gated factors below, are of this backend.
    int2_backend: String,
    /// Dispatched f32 GEMM ns / dispatched int2 GEMM ns at the largest
    /// CNV shape (`gemm_conv2_full`). Asserted >= 1.5 where a vector
    /// int2 backend is dispatched.
    int2_speedup_vs_f32_gemm_full: f64,
    /// Full per-image im2col-int2 conv path ns / direct conv path ns at
    /// the largest CNV shape (`conv_int2_*_conv2_full`): what packing
    /// the image once and gathering windows buys over im2col + column
    /// packing. Asserted >= 1.3 where a vector int2 backend is
    /// dispatched.
    direct_conv_speedup_vs_im2col_full: f64,
    kernels: Vec<SimdKernelReport>,
    int2_backends: Vec<BackendRow>,
    int2_direct_stages: Vec<StageReport>,
    conv_route_crossover: Vec<CrossoverReport>,
}

/// Times `f` under the portable backend and under default dispatch.
/// Returns `(dispatched_ns, scalar_forced_ns)`.
fn time_both_backends(mut f: impl FnMut(), samples: usize, iters: usize) -> (f64, f64) {
    simd::override_backend(Some(Backend::Portable));
    let scalar = time_ns(&mut f, samples, iters);
    simd::override_backend(None);
    let dispatched = time_ns(&mut f, samples, iters);
    (dispatched, scalar)
}

/// Same, but flipping the int2 engine's backend (the int2 dispatcher is
/// separate from the f32 SIMD dispatcher).
fn time_both_int2_backends(mut f: impl FnMut(), samples: usize, iters: usize) -> (f64, f64) {
    int2::override_backend(Some(Backend::Portable));
    let scalar = time_ns(&mut f, samples, iters);
    int2::override_backend(None);
    let dispatched = time_ns(&mut f, samples, iters);
    (dispatched, scalar)
}

/// Times `f` under every int2 backend the host can force — the detected
/// one and, `Backend` being ordered best first, every one after it — in
/// one interleaved run: `samples` rounds over the backends, one batch of
/// `iters` calls each, best batch per backend. A slow phase of the host
/// then hits all columns alike instead of whichever ran in it.
fn time_int2_backends(name: &str, mut f: impl FnMut(), samples: usize, iters: usize) -> BackendRow {
    let all = [Backend::Avx512, Backend::Avx2, Backend::Portable];
    int2::override_backend(None);
    let detected = int2::active_backend();
    let first = all.iter().position(|&b| b == detected).expect("all backends are listed");
    let mut best = [f64::INFINITY; 3];
    for round in 0..samples + 1 {
        for (slot, &backend) in all.iter().enumerate().skip(first) {
            int2::override_backend(Some(backend));
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
            // Round 0 is the warm-up.
            if round > 0 {
                best[slot] = best[slot].min(ns);
            }
        }
    }
    int2::override_backend(None);
    let column = |slot: usize| best[slot].is_finite().then_some(best[slot]);
    let row = BackendRow {
        name: name.to_string(),
        portable_ns_per_op: best[2],
        avx2_ns_per_op: column(1),
        avx512_ns_per_op: column(0),
        avx512_speedup_vs_avx2: column(0).zip(column(1)).map(|(avx512, avx2)| avx2 / avx512),
    };
    let show = |ns: Option<f64>| ns.map_or("unavailable".to_string(), |ns| format!("{ns:.0} ns"));
    eprintln!(
        "{name:36} portable {:>10.0} ns, avx2 {:>14}, avx512 {:>14}{}",
        row.portable_ns_per_op,
        show(row.avx2_ns_per_op),
        show(row.avx512_ns_per_op),
        row.avx512_speedup_vs_avx2.map_or(String::new(), |x| format!(" ({x:.2}x avx2)")),
    );
    row
}

/// Times `f`, returning ns per call: a few warmup calls, then the best
/// of `samples` timed batches (best-of filters scheduler noise; the
/// kernels themselves are deterministic).
fn time_ns(f: impl FnMut(), samples: usize, iters: usize) -> f64 {
    time_stats(f, samples, iters).0
}

/// [`time_ns`] with the spread kept: `(best, median, IQR / median)` of
/// the timed batches.
fn time_stats(mut f: impl FnMut(), samples: usize, iters: usize) -> (f64, f64, f64) {
    for _ in 0..3 {
        f();
    }
    let mut ns: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    let q = |p: usize| ns[(ns.len() - 1) * p / 4];
    (ns[0], q(2), (q(3) - q(1)) / q(2))
}

/// Deterministic inputs of a 3x3 int2 conv over a `c_in x hw x hw`
/// image on the 2-bit activation grid: `(image, weight codes, packed
/// weight planes)`.
fn int2_conv3x3_inputs(
    c_in: usize,
    hw: usize,
    c_out: usize,
    ascale: f32,
) -> (Vec<f32>, Vec<f32>, Vec<u64>) {
    let kk = c_in * 9;
    let img = (0..c_in * hw * hw)
        .map(|i| ((i * 5 + i / 7) % 4) as f32 * ascale)
        .collect();
    let wts: Vec<f32> = (0..c_out * kk)
        .map(|i| ((i * 7 + 3) % 4) as f32 - 2.0)
        .collect();
    let mut planes = Vec::new();
    int2::pack_weights_int2(&wts, c_out, kk, &mut planes);
    (img, wts, planes)
}

fn main() {
    // `--simd-only`: skip the f32 micro/epoch/cache benchmarks and emit
    // only BENCH_simd.json (with the int2 gate) — the fast CI leg.
    let simd_only = std::env::args().any(|a| a == "--simd-only");
    let mut kernels: Vec<(String, f64)> = Vec::new();
    let mut push = |name: &str, ns: f64| {
        eprintln!("{name:36} {:>12.0} ns/op", ns);
        kernels.push((name.to_string(), ns));
    };

    let mut rng = rng_from_seed(1);

    // im2col at the generator-scale (width 8) and full CNV conv2 shapes.
    if !simd_only {
        for (name, c, hw) in [("im2col_conv2_w8", 8usize, 30usize), ("im2col_conv2_full", 64, 30)]
        {
            let img = normal_tensor(&[c * hw * hw], 0.0, 1.0, &mut rng).into_vec();
            let geom = ConvGeometry::new(3);
            let ns =
                time_ns(|| drop(black_box(im2col(black_box(&img), c, hw, hw, geom))), 7, 20);
            push(name, ns);
        }

        // GEMM at CNV conv shapes: [c_out, c_in*k*k] x [c_in*k*k, pixels].
        for (name, m, k, n) in [
            ("gemm_conv2_w8", 8usize, 72usize, 784usize),
            ("gemm_conv5_w8", 32, 144, 9),
            ("gemm_conv2_full", 64, 576, 784),
        ] {
            let a = normal_tensor(&[m * k], 0.0, 1.0, &mut rng).into_vec();
            let b = normal_tensor(&[k * n], 0.0, 1.0, &mut rng).into_vec();
            let mut c_buf = vec![0.0f32; m * n];
            let ns = time_ns(
                || gemm(m, k, n, black_box(&a), black_box(&b), black_box(&mut c_buf)),
                7,
                20,
            );
            push(name, ns);
        }
    }

    // GEMM + fused bias epilogue at the conv2 shape (the conv forward's
    // exact inner step: one matmul plus a per-row bias add).
    if !simd_only {
        let (m, k, n) = (8usize, 72usize, 784usize);
        let a = normal_tensor(&[m * k], 0.0, 1.0, &mut rng).into_vec();
        let b = normal_tensor(&[k * n], 0.0, 1.0, &mut rng).into_vec();
        let bias = normal_tensor(&[m], 0.0, 1.0, &mut rng).into_vec();
        let mut c_buf = vec![0.0f32; m * n];
        let ns = time_ns(
            || {
                gemm_bias(
                    m,
                    k,
                    n,
                    black_box(&a),
                    black_box(&b),
                    black_box(&bias),
                    &mut c_buf,
                );
                black_box(&mut c_buf);
            },
            7,
            20,
        );
        push("gemm_bias_conv2_w8", ns);
    }

    // Quantized conv forward (eval), generator width, CNV conv2 geometry.
    if !simd_only {
        let mut conv =
            QuantConv2d::new(8, 8, ConvGeometry::new(3), QuantSpec::signed(2), &mut rng_from_seed(3));
        let x = Activation::new(
            normal_tensor(&[16 * 8 * 30 * 30], 0.0, 1.0, &mut rng).into_vec(),
            16,
            vec![8, 30, 30],
        );
        let ns = time_ns(|| drop(black_box(conv.forward(black_box(&x), false))), 7, 5);
        push("conv_fwd_eval_b16_w8", ns);

        let ns = time_ns(|| drop(black_box(conv.forward(black_box(&x), true))), 7, 5);
        push("conv_fwd_train_b16_w8", ns);

        let y_len = 16 * 8 * 28 * 28;
        let ones = Activation::new(vec![1.0; y_len], 16, vec![8, 28, 28]);
        let ns = time_ns(
            || {
                conv.forward(black_box(&x), true);
                drop(black_box(conv.backward(black_box(&ones))));
            },
            5,
            3,
        );
        push("conv_fwd_bwd_b16_w8", ns);
    }

    // Full-width conv forward (eval): the paper-scale CNV conv2.
    if !simd_only {
        let mut conv = QuantConv2d::new(
            64,
            64,
            ConvGeometry::new(3),
            QuantSpec::signed(2),
            &mut rng_from_seed(4),
        );
        let x = Activation::new(
            normal_tensor(&[4 * 64 * 30 * 30], 0.0, 1.0, &mut rng).into_vec(),
            4,
            vec![64, 30, 30],
        );
        let ns = time_ns(|| drop(black_box(conv.forward(black_box(&x), false))), 5, 2);
        push("conv_fwd_eval_b4_full", ns);
    }

    // Quantized linear forward (eval), generator-scale classifier shape.
    if !simd_only {
        let mut lin = QuantLinear::new(64, 64, QuantSpec::signed(2), &mut rng_from_seed(5));
        let x = Activation::new(
            normal_tensor(&[64 * 64], 0.0, 1.0, &mut rng).into_vec(),
            64,
            vec![64],
        );
        let ns = time_ns(|| drop(black_box(lin.forward(black_box(&x), false))), 7, 50);
        push("linear_fwd_eval_b64_w8", ns);
    }

    // End-to-end: one training epoch at the ADAPEX_PROFILE=fast scale.
    if !simd_only {
        let data = SyntheticConfig::new(DatasetKind::Cifar10Like)
            .with_sizes(240, 120)
            .with_seed(42)
            .generate();
        let cfg = TrainConfig {
            epochs: 1,
            ..TrainConfig::fast()
        };
        let trainer = Trainer::new(cfg);
        let mut net = CnvConfig::scaled(4).build(10, 1);
        // One throwaway epoch to warm caches, then timed epochs.
        trainer.fit(&mut net, &data, 7);
        let t0 = Instant::now();
        const EPOCHS: u32 = 3;
        for rep in 0..EPOCHS {
            trainer.fit(&mut net, &data, 7 + rep as u64);
        }
        push(
            "train_epoch_fast_cifar",
            t0.elapsed().as_nanos() as f64 / EPOCHS as f64,
        );
    }

    // SIMD dispatch report: each kernel timed twice, portable-forced then
    // dispatched, at the GEMM CNV shapes plus the elementwise hot loops.
    let baseline: Vec<(String, f64)> = serde_json::from_str::<Report>(BASELINE)
        .map(|r| r.kernels.into_iter().map(|k| (k.name, k.ns_per_op)).collect())
        .unwrap_or_default();
    {
        let mut simd_kernels: Vec<SimdKernelReport> = Vec::new();
        let mut push_simd = |name: &str, (dispatched, scalar): (f64, f64)| {
            let base = baseline.iter().find(|(b, _)| b == name).map(|&(_, v)| v);
            eprintln!(
                "{name:36} {dispatched:>12.0} ns dispatched {scalar:>12.0} ns scalar ({:.2}x)",
                scalar / dispatched
            );
            simd_kernels.push(SimdKernelReport {
                name: name.to_string(),
                dispatched_ns_per_op: dispatched,
                scalar_forced_ns_per_op: scalar,
                simd_speedup: scalar / dispatched,
                speedup_vs_seed: base.map(|b| b / dispatched),
                seed_baseline_ns_per_op: base,
            });
        };

        let mut f32_gemm_full_ns = f64::NAN;
        for (name, m, k, n) in [
            ("gemm_conv2_w8", 8usize, 72usize, 784usize),
            ("gemm_conv5_w8", 32, 144, 9),
            ("gemm_conv2_full", 64, 576, 784),
        ] {
            let a = normal_tensor(&[m * k], 0.0, 1.0, &mut rng).into_vec();
            let b = normal_tensor(&[k * n], 0.0, 1.0, &mut rng).into_vec();
            let mut c_buf = vec![0.0f32; m * n];
            let times = time_both_backends(
                || gemm(m, k, n, black_box(&a), black_box(&b), black_box(&mut c_buf)),
                7,
                20,
            );
            if name == "gemm_conv2_full" {
                f32_gemm_full_ns = times.0;
            }
            push_simd(name, times);
        }

        // Bit-packed int2 GEMM at the same CNV shapes: dispatched (the
        // detected vector backend) vs forced-portable (`count_ones`), over
        // pre-packed bit planes — the steady-state eval inner step,
        // where packing is amortized across output rows.
        let mut int2_gemm_full_ns = f64::NAN;
        for (name, m, k, n) in [
            ("gemm_int2_conv2_w8", 8usize, 72usize, 784usize),
            ("gemm_int2_conv5_w8", 32, 144, 9),
            ("gemm_int2_conv2_full", 64, 576, 784),
        ] {
            let w: Vec<f32> = (0..m * k).map(|i| ((i * 7 + 3) % 4) as f32 - 2.0).collect();
            let a: Vec<f32> = (0..n * k).map(|i| ((i * 5 + 1) % 4) as f32).collect();
            let cs: Vec<f32> = (0..m).map(|i| 0.01 + i as f32 * 0.003).collect();
            let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.1 - 0.4).collect();
            let (mut pw, mut pa) = (Vec::new(), Vec::new());
            int2::pack_weights_int2(&w, m, k, &mut pw);
            int2::pack_acts_int2(&a, n, k, &mut pa);
            let mut c_buf = vec![0.0f32; m * n];
            let times = time_both_int2_backends(
                || {
                    int2::gemm_int2(
                        m,
                        k,
                        n,
                        black_box(&pw),
                        black_box(&pa),
                        black_box(&cs),
                        black_box(&bias),
                        black_box(&mut c_buf),
                        OutMajor::Row,
                    )
                },
                7,
                20,
            );
            if name == "gemm_int2_conv2_full" {
                int2_gemm_full_ns = times.0;
            }
            push_simd(name, times);
        }

        // Full int2 conv forwards, per image: the direct route (pack
        // the image bit-planes once, gather each window's operand
        // words) against the im2col composition it replaced (im2col + code
        // conversion + column packing), both ending in the same
        // popcount GEMM with the fused requant epilogue. These rows
        // time the whole per-image path — not just the GEMM — so the
        // once-per-image packing amortization is what's measured. The
        // two routes are asserted bit-identical before timing.
        let mut direct_full_ns = f64::NAN;
        let mut im2col_full_ns = f64::NAN;
        for (tag, c_in, hw, c_out, samples, iters) in [
            ("conv2_w8", 8usize, 30usize, 8usize, 7usize, 10usize),
            ("conv5_w8", 16, 5, 32, 7, 50),
            ("conv2_full", 64, 30, 64, 5, 3),
        ] {
            let geom = ConvGeometry::new(3);
            let pixels = (hw - 2) * (hw - 2);
            let kk = c_in * 9;
            let ascale = 2.0f32 / 3.0;
            // Inputs already on the 2-bit activation grid, as the conv
            // layer's router guarantees.
            let img: Vec<f32> =
                (0..c_in * hw * hw).map(|i| ((i * 5 + 2) % 4) as f32 * ascale).collect();
            let wts: Vec<f32> =
                (0..c_out * kk).map(|i| ((i * 7 + 3) % 4) as f32 - 2.0).collect();
            let cs: Vec<f32> =
                (0..c_out).map(|i| (0.01 + i as f32 * 0.003) * ascale).collect();
            let bias: Vec<f32> = (0..c_out).map(|i| i as f32 * 0.1 - 0.4).collect();
            let mut planes = Vec::new();
            int2::pack_weights_int2(&wts, c_out, kk, &mut planes);

            let (mut cols, mut col_bits) = (Vec::new(), Vec::new());
            let (mut img_bits, mut win_bits) = (Vec::new(), Vec::new());
            let mut y_im2col = vec![0.0f32; c_out * pixels];
            let mut y_direct = vec![0.0f32; c_out * pixels];

            let times_im2col = time_both_int2_backends(
                || {
                    im2col_into(black_box(&img), c_in, hw, hw, geom, &mut cols);
                    int2::act_codes_in_place(&mut cols, ascale);
                    int2::pack_acts_cols_int2(&cols, pixels, kk, &mut col_bits);
                    int2::gemm_int2(
                        c_out,
                        kk,
                        pixels,
                        black_box(&planes),
                        &col_bits,
                        &cs,
                        &bias,
                        &mut y_im2col,
                        OutMajor::Row,
                    );
                    black_box(&mut y_im2col);
                },
                samples,
                iters,
            );
            let times_direct = time_both_int2_backends(
                || {
                    int2::conv_int2_direct(
                        black_box(&img),
                        ascale,
                        c_in,
                        hw,
                        hw,
                        geom,
                        black_box(&planes),
                        c_out,
                        &cs,
                        &bias,
                        &mut y_direct,
                        &mut img_bits,
                        &mut win_bits,
                    );
                    black_box(&mut y_direct);
                },
                samples,
                iters,
            );
            assert!(
                y_im2col.iter().zip(&y_direct).all(|(a, b)| a.to_bits() == b.to_bits()),
                "direct conv diverged from the im2col route at {tag}"
            );
            if tag == "conv2_full" {
                im2col_full_ns = times_im2col.0;
                direct_full_ns = times_direct.0;
            }
            push_simd(&format!("conv_int2_im2col_{tag}"), times_im2col);
            push_simd(&format!("conv_int2_direct_{tag}"), times_direct);
        }

        // The three hot int2 kernels and the code-domain conv they make
        // up, under every backend the host has, interleaved.
        let mut backend_rows: Vec<BackendRow> = Vec::new();
        for (tag, c_in, hw, c_out, samples, iters) in [
            ("conv2_w8", 8usize, 30usize, 8usize, 15usize, 40usize),
            ("conv4_w8", 16, 12, 16, 15, 100),
            ("conv2_full", 64, 30, 64, 7, 3),
        ] {
            let geom = ConvGeometry::new(3);
            let (kk, side) = (c_in * 9, hw - 2);
            let pixels = side * side;
            let ascale = 0.5f32;
            let (img, _, planes) = int2_conv3x3_inputs(c_in, hw, c_out, ascale);
            let cs: Vec<f32> = (0..c_out).map(|i| 0.01 + i as f32 * 0.003).collect();
            let bias: Vec<f32> = (0..c_out).map(|i| i as f32 * 0.1 - 0.4).collect();
            let (mut img_bits, mut win_bits) = (Vec::new(), Vec::new());
            int2::pack_image_int2(&img, ascale, c_in, hw, hw, 0, &mut img_bits);
            backend_rows.push(time_int2_backends(
                &format!("gather_{tag}"),
                || {
                    int2::gather_conv_windows_int2(
                        black_box(&img_bits),
                        c_in,
                        hw,
                        hw,
                        geom,
                        &mut win_bits,
                    )
                },
                samples,
                iters,
            ));
            let mut y = vec![0.0f32; c_out * pixels];
            backend_rows.push(time_int2_backends(
                &format!("gemm_{tag}"),
                || {
                    int2::gemm_int2(
                        c_out,
                        kk,
                        pixels,
                        &planes,
                        black_box(&win_bits),
                        &cs,
                        &bias,
                        &mut y,
                        OutMajor::Row,
                    )
                },
                samples,
                iters,
            ));
            // Steps a third of the way along the reachable accumulator
            // range each, every third channel falling.
            let steps: Vec<CodeSteps> = (0..c_out)
                .map(|ch| CodeSteps {
                    sign: if ch % 3 == 0 { -1 } else { 1 },
                    at: [-(kk as i32), 0, kk as i32],
                })
                .collect();
            let mut coded = vec![0u64; c_out * side * 2 * int2::image_row_words(side, 1)];
            let (mut acc, mut acc_ws) = (vec![0.0f32; c_out * pixels], Vec::new());
            let unit = vec![1.0f32; c_out];
            int2::gemm_int2(c_out, kk, pixels, &planes, &win_bits, &unit, &vec![0.0; c_out], &mut acc, OutMajor::Row);
            backend_rows.push(time_int2_backends(
                &format!("threshold_{tag}"),
                // The unit clobbers `acc` (some bodies negate a falling
                // channel in place); its timing does not depend on the values.
                || int2::threshold_pool_pack_int2(black_box(&mut acc), &steps, side, side, 1, 1, &mut coded),
                samples,
                iters,
            ));
            backend_rows.push(time_int2_backends(
                &format!("conv_codes_{tag}"),
                || {
                    int2::conv_int2_codes(
                        black_box(&img_bits),
                        c_in,
                        hw,
                        hw,
                        geom,
                        &planes,
                        &steps,
                        1,
                        1,
                        &mut coded,
                        &mut win_bits,
                        &mut acc_ws,
                    )
                },
                samples,
                iters,
            ));
        }
        // The AVX-512 promise, same run, same operands: native 64-bit
        // lane popcounts must beat the emulated ones by 1.8x at the
        // largest CNV GEMM. Skipped (and said so) where either backend
        // is missing.
        let full = backend_rows
            .iter()
            .find(|r| r.name == "gemm_conv2_full")
            .expect("the gemm_conv2_full row was just timed");
        match full.avx512_speedup_vs_avx2 {
            Some(ratio) => {
                eprintln!("avx512 vs avx2 int2 GEMM (conv2_full)   {ratio:>8.2}x (gate: >= 1.8x)");
                assert!(
                    ratio >= 1.8,
                    "AVX-512 int2 GEMM regression: only {ratio:.2}x over AVX2 at conv2_full"
                );
            }
            None => eprintln!("avx512 vs avx2 int2 GEMM: a backend is unavailable, gate skipped"),
        }

        // The direct route stage by stage at the repo benchmark's four
        // probe shapes (3x3, stride 1, no padding), against the parent
        // commit's numbers for the same rows.
        let parent: Vec<KernelReport> = serde_json::from_str::<ParentStages>(PARENT_STAGES)
            .map(|p| p.kernels)
            .unwrap_or_default();
        let mut stages: Vec<StageReport> = Vec::new();
        let mut push_stage = |name: String, (best, median, spread): (f64, f64, f64)| {
            let base = parent.iter().find(|k| k.name == name).map(|k| k.ns_per_op);
            eprintln!(
                "{name:36} {best:>12.0} ns (median {median:.0}, spread {spread:.3}, parent {})",
                base.map_or("-".into(), |b| format!("{b:.0} ns, {:.2}x", b / best))
            );
            stages.push(StageReport {
                name,
                ns_per_op: best,
                median_ns_per_op: median,
                spread,
                parent_ns_per_op: base,
                speedup_vs_parent: base.map(|b| b / best),
            });
        };
        for (tag, c_in, hw, c_out, iters) in [
            ("conv2", 8usize, 30usize, 8usize, 40usize),
            ("exit1conv", 8, 28, 8, 40),
            ("conv4", 16, 12, 16, 100),
            ("conv6", 32, 3, 32, 2000),
        ] {
            let geom = ConvGeometry::new(3);
            let (kk, pixels) = (c_in * 9, (hw - 2) * (hw - 2));
            let ascale = 0.5f32;
            let (img, _, planes) = int2_conv3x3_inputs(c_in, hw, c_out, ascale);
            let (cs, bias) = (vec![1.0f32; c_out], vec![0.0f32; c_out]);
            let (mut img_bits, mut win_bits) = (Vec::new(), Vec::new());
            let mut y = vec![0.0f32; c_out * pixels];
            let t = time_stats(
                || int2::pack_image_int2(black_box(&img), ascale, c_in, hw, hw, 0, &mut img_bits),
                15,
                iters,
            );
            push_stage(format!("pack_image_{tag}"), t);
            let t = time_stats(
                || {
                    int2::gather_conv_windows_int2(
                        black_box(&img_bits),
                        c_in,
                        hw,
                        hw,
                        geom,
                        &mut win_bits,
                    )
                },
                15,
                iters,
            );
            push_stage(format!("gather_{tag}"), t);
            let t = time_stats(
                || {
                    int2::gemm_int2(
                        c_out,
                        kk,
                        pixels,
                        &planes,
                        black_box(&win_bits),
                        &cs,
                        &bias,
                        &mut y,
                        OutMajor::Row,
                    )
                },
                15,
                iters,
            );
            push_stage(format!("gemm_{tag}"), t);
        }

        // Routing crossover: the engine's whole per-image route against
        // the f32-over-codes route (im2col, code rounding, f32 GEMM,
        // requantize) it competes with under `EnginePlan::Auto`, across
        // the filter counts pruning leaves behind.
        let mut crossover: Vec<CrossoverReport> = Vec::new();
        for (c_in, hw) in [(8usize, 30usize), (4, 30), (2, 30), (16, 12), (4, 12)] {
            for c_out in [2usize, 3, 4, 5, 6, 7, 8] {
                let geom = ConvGeometry::new(3);
                let (kk, pixels) = (c_in * 9, (hw - 2) * (hw - 2));
                let ascale = 0.5f32;
                let (img, wts, planes) = int2_conv3x3_inputs(c_in, hw, c_out, ascale);
                let (cs, bias) = (vec![0.1f32; c_out], vec![0.2f32; c_out]);
                let (mut img_bits, mut win_bits, mut cols) = (Vec::new(), Vec::new(), Vec::new());
                let mut y = vec![0.0f32; c_out * pixels];
                let engine = time_ns(
                    || {
                        int2::conv_int2_direct(
                            black_box(&img),
                            ascale,
                            c_in,
                            hw,
                            hw,
                            geom,
                            &planes,
                            c_out,
                            &cs,
                            &bias,
                            &mut y,
                            &mut img_bits,
                            &mut win_bits,
                        )
                    },
                    7,
                    20,
                );
                let f32_codes = time_ns(
                    || {
                        im2col_into(black_box(&img), c_in, hw, hw, geom, &mut cols);
                        int2::act_codes_in_place(&mut cols, ascale);
                        gemm_st(c_out, kk, pixels, &wts, &cols, &mut y);
                        int2::requantize_rows(&mut y, pixels, &cs, &bias);
                    },
                    7,
                    20,
                );
                crossover.push(CrossoverReport {
                    c_in,
                    hw,
                    c_out,
                    engine_ns_per_op: engine,
                    f32_codes_ns_per_op: f32_codes,
                    engine_speedup: f32_codes / engine,
                    auto_routes_engine: int2::conv_engine_profitable(c_out, 3),
                });
            }
            let row: Vec<String> = crossover[crossover.len() - 7..]
                .iter()
                .map(|r| format!("{}:{:.2}x", r.c_out, r.engine_speedup))
                .collect();
            eprintln!(
                "engine vs f32-codes, c_in={c_in:2} {hw}x{hw}, by c_out   {}",
                row.join(" ")
            );
        }

        // Elementwise hot loops at a typical activation-slab size.
        const ELEMS: usize = 16_384;
        let src = normal_tensor(&[ELEMS], 0.0, 1.0, &mut rng).into_vec();
        let mut buf = vec![0.0f32; ELEMS];

        let times = time_both_backends(
            || {
                buf.copy_from_slice(&src);
                simd::fake_quant_slice(black_box(&mut buf), 0.25, -2.0, 1.75);
            },
            7,
            50,
        );
        push_simd("fake_quant_16k", times);

        let times = time_both_backends(
            || simd::normalize_affine(black_box(&mut buf), black_box(&src), 0.1, 0.9, 1.1, -0.2),
            7,
            50,
        );
        push_simd("bn_normalize_16k", times);

        let grad = normal_tensor(&[ELEMS], 0.0, 1.0, &mut rng).into_vec();
        let mut vel = vec![0.0f32; ELEMS];
        let times = time_both_backends(
            || {
                simd::sgd_update(
                    black_box(&mut buf),
                    black_box(&grad),
                    black_box(&mut vel),
                    1e-6,
                    0.9,
                    1e-8,
                )
            },
            7,
            50,
        );
        push_simd("sgd_update_16k", times);

        let times = time_both_backends(
            || {
                black_box(simd::fold_max_abs(0.0, black_box(&src)));
            },
            7,
            50,
        );
        push_simd("fold_max_abs_16k", times);

        // Both gates below are of whichever vector backend the int2
        // kernels dispatch to; a portable-only host reports, ungated.
        let int2_backend = int2::active_backend();
        let vector_int2 = int2_backend != Backend::Portable;
        let int2_speedup = f32_gemm_full_ns / int2_gemm_full_ns;
        eprintln!(
            "int2 vs f32 GEMM (conv2_full)        {int2_speedup:>11.2}x (gate: >= 1.5x, on {int2_backend:?})"
        );
        // The headline promise of the bit-packed engine: the dispatched
        // int2 GEMM must beat the dispatched f32 GEMM by at least 1.5x
        // at the largest CNV shape. A regression here fails the bench
        // run (and the CI leg that invokes it).
        if vector_int2 {
            assert!(
                int2_speedup >= 1.5,
                "int2 GEMM regression: only {int2_speedup:.2}x over f32 at conv2_full \
                 ({int2_gemm_full_ns:.0} ns vs {f32_gemm_full_ns:.0} ns)"
            );
        }

        let direct_conv_speedup = im2col_full_ns / direct_full_ns;
        eprintln!(
            "direct vs im2col int2 conv (conv2_full) {direct_conv_speedup:>8.2}x (gate: >= 1.3x, on {int2_backend:?})"
        );
        // The tentpole promise of the direct route: packing the image
        // once and gathering windows must beat the full im2col-int2
        // path by at least 1.3x at the largest CNV conv shape.
        if vector_int2 {
            assert!(
                direct_conv_speedup >= 1.3,
                "direct conv regression: only {direct_conv_speedup:.2}x over the im2col route \
                 at conv2_full ({direct_full_ns:.0} ns vs {im2col_full_ns:.0} ns)"
            );
        }

        let simd_report = SimdReport {
            schema_version: adapex_bench::BENCH_SCHEMA_VERSION,
            threads: num_threads(),
            host_cores: adapex_bench::host_cores(),
            cpu_features: adapex_bench::cpu_features(),
            simd_backend: format!("{:?}", simd::active_backend()),
            int2_backend: format!("{int2_backend:?}"),
            int2_speedup_vs_f32_gemm_full: int2_speedup,
            direct_conv_speedup_vs_im2col_full: direct_conv_speedup,
            kernels: simd_kernels,
            int2_backends: backend_rows,
            int2_direct_stages: stages,
            conv_route_crossover: crossover,
        };
        let json = serde_json::to_string_pretty(&simd_report).expect("simd report serializes");
        std::fs::write("BENCH_simd.json", &json).expect("write BENCH_simd.json");
        println!("{json}");
        eprintln!("wrote BENCH_simd.json");
    }

    if simd_only {
        return;
    }

    // Join with the compiled-in seed baseline and emit the report.
    let report = Report {
        schema_version: adapex_bench::BENCH_SCHEMA_VERSION,
        threads: num_threads(),
        profile: std::env::var("ADAPEX_PROFILE").unwrap_or_else(|_| "fast".into()),
        kernels: kernels
            .into_iter()
            .map(|(name, ns)| {
                let base = baseline.iter().find(|(b, _)| *b == name).map(|&(_, v)| v);
                KernelReport {
                    speedup: base.map(|b| b / ns),
                    baseline_ns_per_op: base,
                    ns_per_op: ns,
                    name,
                }
            })
            .collect(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("{json}");
    eprintln!("wrote BENCH_kernels.json");

    bench_artifact_cache();
}

#[derive(Debug, Serialize)]
struct CacheRunReport {
    label: String,
    jobs: usize,
    seconds: f64,
    stats: CacheStats,
    /// Artifacts serialize byte-identically to the cold run's.
    byte_identical_to_cold: bool,
}

#[derive(Debug, Serialize)]
struct CacheReport {
    schema_version: u32,
    threads: usize,
    runs: Vec<CacheRunReport>,
    /// cold seconds / warm (jobs=1) seconds.
    warm_speedup: f64,
}

/// Times the design-space sweep cold (empty cache) and warm (fully
/// populated), at one and several workers, and emits `BENCH_cache.json`.
fn bench_artifact_cache() {
    let cache_dir = std::env::temp_dir().join(format!("adapex-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let config = |jobs: usize| {
        let mut cfg = GeneratorConfig::fast(DatasetKind::Cifar10Like);
        cfg.jobs = jobs;
        cfg.with_cache_dir(&cache_dir)
    };
    let timed = |label: &str, jobs: usize| {
        let t0 = Instant::now();
        let (artifacts, stats) = LibraryGenerator::new(config(jobs)).generate_with_stats();
        let seconds = t0.elapsed().as_secs_f64();
        let json = serde_json::to_string_pretty(&artifacts).expect("artifacts serialize");
        eprintln!(
            "cache sweep {label:14} jobs={jobs} {seconds:>8.2} s ({} hits / {} misses)",
            stats.hits(),
            stats.misses()
        );
        (label.to_string(), jobs, seconds, stats, json)
    };

    let cold = timed("cold", 1);
    let warm = timed("warm", 1);
    let warm_par = timed("warm-parallel", num_threads().max(2));

    assert!(warm.3.all_hits(), "warm run must be all hits: {:?}", warm.3);
    let mut runs = Vec::new();
    for (label, jobs, seconds, stats, json) in [&cold, &warm, &warm_par] {
        runs.push(CacheRunReport {
            label: label.clone(),
            jobs: *jobs,
            seconds: *seconds,
            stats: stats.clone(),
            byte_identical_to_cold: *json == cold.4,
        });
    }
    assert!(
        runs.iter().all(|r| r.byte_identical_to_cold),
        "warm artifacts diverged from cold run"
    );

    let report = CacheReport {
        schema_version: adapex_bench::BENCH_SCHEMA_VERSION,
        threads: num_threads(),
        warm_speedup: cold.2 / warm.2,
        runs,
    };
    let json = serde_json::to_string_pretty(&report).expect("cache report serializes");
    std::fs::write("BENCH_cache.json", &json).expect("write BENCH_cache.json");
    println!("{json}");
    eprintln!("wrote BENCH_cache.json ({:.1}x warm speedup)", report.warm_speedup);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
