//! Kernel gate bin: emits `BENCH_simd.json`.
//!
//! Three promises of the int2 engine, each a ratio between arms of one
//! [`interleave`] call (so both sides meet the same host phases) and
//! each asserted, so a regression fails the run — and the CI leg that
//! invokes it — instead of shipping:
//!
//! - the dispatched int2 GEMM is ≥ 1.5× the dispatched f32 GEMM at the
//!   largest CNV shape (`conv2_full`: 64 × 576 × 784);
//! - the direct conv route (pack the image once, gather windows) is
//!   ≥ 1.3× the im2col composition it replaced (im2col + code
//!   conversion + column packing) at the same shape, whole per-image
//!   path, the two outputs asserted bit-identical;
//! - where the host has both vector backends, the AVX-512 GEMM is
//!   ≥ 1.8× the AVX2 one at that shape.
//!
//! The first two are of whichever vector backend the int2 kernels
//! dispatch to and are reported, ungated, on a portable-only host. The
//! third reads the `int2_backends` table: the hot int2 kernels under
//! **every** backend the host can force — portable, AVX2, AVX-512 — as
//! arms of one call per kernel, a backend the host lacks being `null`.
//! Its last two rows are the served stem (`stem_conv1_w8`: direct f32
//! conv into the threshold unit) and, beside it, the im2col + f32 GEMM
//! route it replaced (`im2col_gemm_conv1_w8`), ungated.
//!
//! Absolute kernel times, per-stage and per-layer numbers and
//! before/after history are the repo benchmark's (`tensor.int2.*`,
//! `tensor.gemm.*`, `nn.layers.*` under `--trace 1`); nothing here
//! duplicates them.
//!
//! Run with `cargo run --release -p adapex-bench --bin bench`.

use adapex_bench::{interleave, write_report, Gated, ReportHeader, Summary};
use adapex_tensor::conv::{im2col_into, ConvGeometry};
use adapex_tensor::gemm::{gemm, gemm_bias_st};
use adapex_tensor::int2::{self, CodeSteps, OutMajor};
use adapex_tensor::rng::{normal_tensor, rng_from_seed};
use adapex_tensor::simd::Backend;
use serde::Serialize;
use std::hint::black_box;

/// Timed rounds per comparison (after the discarded warm-up round).
const ROUNDS: usize = 7;

/// One int2 kernel under every backend, ns per call.
#[derive(Debug, Serialize)]
struct BackendRow {
    name: String,
    portable: Summary,
    /// `null`: the host cannot run the backend.
    avx2: Option<Summary>,
    avx512: Option<Summary>,
}

#[derive(Debug, Serialize)]
struct SimdReport {
    header: ReportHeader,
    /// Dispatched f32 GEMM / dispatched int2 GEMM at `conv2_full`.
    /// Asserted >= 1.5 where a vector int2 backend is dispatched.
    int2_speedup_vs_f32_gemm_full: Gated,
    /// im2col-int2 conv path / direct conv path at `conv2_full`.
    /// Asserted >= 1.3 where a vector int2 backend is dispatched.
    direct_conv_speedup_vs_im2col_full: Gated,
    /// AVX2 / AVX-512 int2 GEMM at `conv2_full`. Asserted >= 1.8;
    /// `null` where the host lacks one of them.
    avx512_speedup_vs_avx2_gemm_full: Option<Gated>,
    int2_backends: Vec<BackendRow>,
}

/// Times `f` under every int2 backend the host can force — the detected
/// one and, `Backend` being ordered best first, every one after it — as
/// the arms of one interleaved call.
fn time_int2_backends(name: &str, mut f: impl FnMut(), iters: usize) -> BackendRow {
    let all = [Backend::Avx512, Backend::Avx2, Backend::Portable];
    int2::override_backend(None);
    let detected = int2::active_backend();
    let first = all.iter().position(|&b| b == detected).expect("all backends are listed");
    let forcible = &all[first..];
    let mut timed = interleave(forcible.len(), ROUNDS, iters, |arm| {
        int2::override_backend(Some(forcible[arm]));
        f();
    });
    int2::override_backend(None);
    // `forcible` ends `.., Avx2, Portable`: read it from the back.
    let portable = timed.pop().expect("portable is always forcible");
    let avx2 = timed.pop();
    let avx512 = timed.pop();
    let show = |s: Option<Summary>| s.map_or("unavailable".to_string(), |s| format!("{:.0} ns", s.best));
    eprintln!(
        "{name:24} portable {:>10.0} ns, avx2 {:>14}, avx512 {:>14}",
        portable.best,
        show(avx2),
        show(avx512),
    );
    BackendRow {
        name: name.to_string(),
        portable,
        avx2,
        avx512,
    }
}

/// Deterministic inputs of a 3x3 int2 conv over a `c_in x hw x hw`
/// image on the 2-bit activation grid: `(image, packed weight planes,
/// per-filter requantize scales, biases)`.
fn int2_conv3x3_inputs(
    c_in: usize,
    hw: usize,
    c_out: usize,
    ascale: f32,
) -> (Vec<f32>, Vec<u64>, Vec<f32>, Vec<f32>) {
    let kk = c_in * 9;
    let img = (0..c_in * hw * hw)
        .map(|i| ((i * 5 + i / 7) % 4) as f32 * ascale)
        .collect();
    let wts: Vec<f32> = (0..c_out * kk)
        .map(|i| ((i * 7 + 3) % 4) as f32 - 2.0)
        .collect();
    let mut planes = Vec::new();
    int2::pack_weights_int2(&wts, c_out, kk, &mut planes);
    let cs = (0..c_out).map(|i| (0.01 + i as f32 * 0.003) * ascale).collect();
    let bias = (0..c_out).map(|i| i as f32 * 0.1 - 0.4).collect();
    (img, planes, cs, bias)
}

/// f32 GEMM against int2 GEMM over pre-packed bit planes — the
/// steady-state eval inner step, where packing is amortized across
/// output rows — both dispatched, at `conv2_full`.
fn int2_vs_f32_gemm() -> Gated {
    let (m, k, n) = (64usize, 576usize, 784usize);
    let mut rng = rng_from_seed(1);
    let a = normal_tensor(&[m * k], 0.0, 1.0, &mut rng).into_vec();
    let b = normal_tensor(&[k * n], 0.0, 1.0, &mut rng).into_vec();
    let mut c_f32 = vec![0.0f32; m * n];

    let w: Vec<f32> = (0..m * k).map(|i| ((i * 7 + 3) % 4) as f32 - 2.0).collect();
    let acts: Vec<f32> = (0..n * k).map(|i| ((i * 5 + 1) % 4) as f32).collect();
    let cs: Vec<f32> = (0..m).map(|i| 0.01 + i as f32 * 0.003).collect();
    let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.1 - 0.4).collect();
    let (mut pw, mut pa) = (Vec::new(), Vec::new());
    int2::pack_weights_int2(&w, m, k, &mut pw);
    int2::pack_acts_int2(&acts, n, k, &mut pa);
    let mut c_int2 = vec![0.0f32; m * n];

    let timed = interleave(2, ROUNDS, 20, |arm| match arm {
        0 => gemm(m, k, n, black_box(&a), black_box(&b), black_box(&mut c_f32)),
        _ => int2::gemm_int2(
            m,
            k,
            n,
            black_box(&pw),
            black_box(&pa),
            &cs,
            &bias,
            black_box(&mut c_int2),
            OutMajor::Row,
        ),
    });
    eprintln!(
        "gemm conv2_full          f32 {:>10.0} ns, int2 {:>10.0} ns",
        timed[0].best, timed[1].best
    );
    Gated::best_ratio(&timed[0], &timed[1])
}

/// The im2col-int2 composition against the direct route, whole
/// per-image conv path at `conv2_full`, both ending in the same popcount
/// GEMM with the fused requant epilogue — so the once-per-image packing
/// amortization is what is measured.
fn direct_vs_im2col_conv() -> Gated {
    let (c_in, hw, c_out) = (64usize, 30usize, 64usize);
    let geom = ConvGeometry::new(3);
    let (kk, pixels) = (c_in * 9, (hw - 2) * (hw - 2));
    // Inputs already on the 2-bit activation grid, as the conv layer's
    // router guarantees.
    let ascale = 2.0f32 / 3.0;
    let (img, planes, cs, bias) = int2_conv3x3_inputs(c_in, hw, c_out, ascale);
    let (mut cols, mut col_bits) = (Vec::new(), Vec::new());
    let (mut img_bits, mut win_bits) = (Vec::new(), Vec::new());
    let mut y_im2col = vec![0.0f32; c_out * pixels];
    let mut y_direct = vec![0.0f32; c_out * pixels];

    let timed = interleave(2, ROUNDS, 3, |arm| match arm {
        0 => {
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
                black_box(&mut y_im2col),
                OutMajor::Row,
            );
        }
        _ => int2::conv_int2_direct(
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
            black_box(&mut y_direct),
            &mut img_bits,
            &mut win_bits,
        ),
    });
    assert!(
        y_im2col.iter().zip(&y_direct).all(|(a, b)| a.to_bits() == b.to_bits()),
        "direct conv diverged from the im2col route at conv2_full"
    );
    eprintln!(
        "conv conv2_full          im2col {:>10.0} ns, direct {:>10.0} ns",
        timed[0].best, timed[1].best
    );
    Gated::best_ratio(&timed[0], &timed[1])
}

/// The hot int2 kernels and the code-domain conv they make up, at the
/// two width-8 shapes serving runs and at `conv2_full`.
fn int2_backend_table() -> Vec<BackendRow> {
    let mut rows = Vec::new();
    for (tag, c_in, hw, c_out, iters) in [
        ("conv2_w8", 8usize, 30usize, 8usize, 40usize),
        ("conv4_w8", 16, 12, 16, 100),
        ("conv2_full", 64, 30, 64, 3),
    ] {
        let geom = ConvGeometry::new(3);
        let (kk, side) = (c_in * 9, hw - 2);
        let pixels = side * side;
        let ascale = 0.5f32;
        let (img, planes, cs, bias) = int2_conv3x3_inputs(c_in, hw, c_out, ascale);
        let (mut img_bits, mut win_bits) = (Vec::new(), Vec::new());
        int2::pack_image_int2(&img, ascale, c_in, hw, hw, 0, &mut img_bits);
        rows.push(time_int2_backends(
            &format!("gather_{tag}"),
            || int2::gather_conv_windows_int2(black_box(&img_bits), c_in, hw, hw, geom, &mut win_bits),
            iters,
        ));
        let mut y = vec![0.0f32; c_out * pixels];
        rows.push(time_int2_backends(
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
            iters,
        ));
        // Steps a third of the way along the reachable accumulator
        // range each, every third channel falling.
        let steps: Vec<CodeSteps> = (0..c_out)
            .map(|ch| CodeSteps {
                sign: if ch % 3 == 0 { -1 } else { 1 },
                at: [-(kk as f32), 0.0, kk as f32],
            })
            .collect();
        let mut coded = vec![0u64; c_out * side * 2 * int2::image_row_words(side, 1)];
        // The raw accumulators (unit scales, no bias) the unit reads.
        let mut acc = vec![0.0f32; c_out * pixels];
        let (unit, zero) = (vec![1.0f32; c_out], vec![0.0f32; c_out]);
        int2::gemm_int2(c_out, kk, pixels, &planes, &win_bits, &unit, &zero, &mut acc, OutMajor::Row);
        rows.push(time_int2_backends(
            &format!("threshold_{tag}"),
            // The unit clobbers `acc` (some bodies negate a falling
            // channel in place); its timing does not depend on the values.
            || int2::threshold_pool_pack_int2(black_box(&mut acc), &steps, side, side, 1, 1, &mut coded),
            iters,
        ));
        let mut acc_ws = Vec::new();
        rows.push(time_int2_backends(
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
            iters,
        ));
    }
    rows
}

/// The width-8 CNV stem (3×32×32 pixels, 3×3, 8 filters) as the served
/// path runs it — `conv_f32_codes`, direct f32 conv into the threshold
/// unit — and the route it replaced up to the f32 map, `im2col_into` +
/// `gemm_bias_st`. The reference row's f32 kernels do not follow the
/// int2 override, so each of its columns times the same code: the
/// in-run baseline the stem column beside it is read against.
fn stem_rows() -> [BackendRow; 2] {
    let (c_in, hw, c_out, side) = (3usize, 32usize, 8usize, 30usize);
    let geom = ConvGeometry::new(3);
    let img: Vec<f32> = (0..c_in * hw * hw).map(|i| ((i * 37) % 101) as f32 / 50.0 - 1.0).collect();
    let weight: Vec<f32> = (0..c_out * 27).map(|i| ((i * 7) % 4) as f32 * 0.0625 - 0.125).collect();
    let bias: Vec<f32> = (0..c_out).map(|i| i as f32 * 0.01 - 0.04).collect();
    let steps: Vec<CodeSteps> = (0..c_out)
        .map(|ch| CodeSteps {
            sign: if ch % 3 == 0 { -1 } else { 1 },
            at: [-0.5, 0.0, 0.5],
        })
        .collect();
    let domain = vec![[-1e30f32, 1e30]; c_out];
    let mut coded = vec![0u64; c_out * side * 2 * int2::image_row_words(side, 0)];
    let mut acc_ws = Vec::new();
    let stem = time_int2_backends(
        "stem_conv1_w8",
        || {
            let inside = int2::conv_f32_codes(
                black_box(&img),
                c_in,
                hw,
                hw,
                geom,
                &weight,
                &bias,
                &steps,
                &domain,
                0,
                &mut coded,
                &mut acc_ws,
            );
            assert!(inside, "the bench image stays in range");
        },
        200,
    );
    let (mut cols, mut y) = (Vec::new(), vec![0.0f32; c_out * side * side]);
    let reference = time_int2_backends(
        "im2col_gemm_conv1_w8",
        || {
            im2col_into(black_box(&img), c_in, hw, hw, geom, &mut cols);
            gemm_bias_st(c_out, 27, side * side, &weight, &cols, &bias, &mut y);
        },
        200,
    );
    [stem, reference]
}

fn main() {
    let int2_speedup = int2_vs_f32_gemm();
    let direct_conv_speedup = direct_vs_im2col_conv();
    let mut int2_backends = int2_backend_table();
    int2_backends.extend(stem_rows());
    let full = int2_backends
        .iter()
        .find(|r| r.name == "gemm_conv2_full")
        .expect("the gemm_conv2_full row was just timed");
    let avx512_speedup = full
        .avx2
        .zip(full.avx512)
        .map(|(avx2, avx512)| Gated::best_ratio(&avx2, &avx512));

    let report = SimdReport {
        header: ReportHeader::capture(),
        int2_speedup_vs_f32_gemm_full: int2_speedup,
        direct_conv_speedup_vs_im2col_full: direct_conv_speedup,
        avx512_speedup_vs_avx2_gemm_full: avx512_speedup,
        int2_backends,
    };
    println!("{}", write_report("simd", &report));

    let backend = &report.header.int2_backend;
    let show = |what: &str, g: Gated, gate: f64| {
        eprintln!("{what:40} {:>6.2}x (gate: >= {gate}x, spread {:.3}, on {backend})", g.value, g.spread);
    };
    show("int2 vs f32 GEMM (conv2_full)", int2_speedup, 1.5);
    show("direct vs im2col int2 conv (conv2_full)", direct_conv_speedup, 1.3);
    // Both are of whichever vector backend the int2 kernels dispatch
    // to; a portable-only host reports, ungated.
    if int2::active_backend() != Backend::Portable {
        assert!(
            int2_speedup.value >= 1.5,
            "int2 GEMM regression: only {:.2}x over f32 at conv2_full",
            int2_speedup.value
        );
        assert!(
            direct_conv_speedup.value >= 1.3,
            "direct conv regression: only {:.2}x over the im2col route at conv2_full",
            direct_conv_speedup.value
        );
    }
    // Native 64-bit lane popcounts against the emulated ones, same
    // call, same operands. Skipped (and said so) where either backend
    // is missing.
    match avx512_speedup {
        Some(g) => {
            show("avx512 vs avx2 int2 GEMM (conv2_full)", g, 1.8);
            assert!(
                g.value >= 1.8,
                "AVX-512 int2 GEMM regression: only {:.2}x over AVX2 at conv2_full",
                g.value
            );
        }
        None => eprintln!("avx512 vs avx2 int2 GEMM: a backend is unavailable, gate skipped"),
    }
}
