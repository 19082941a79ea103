//! Kernel probes: the `tensor` layer timed on the exact shapes the
//! width-8 CNV hands it, one public function at a time.
//!
//! The executor calls `int2::conv_int2_direct`, which is
//! `pack_image_int2` → `gather_conv_windows_int2` → `gemm_int2`; the
//! probes time the three separately so a later change can say which one
//! it moved. Operation counts come from the engine's own counters and
//! repeat exactly. Training's f32 GEMMs and `im2col` get the same
//! treatment for `library-gen`.

use crate::gen::Rng;
use crate::metrics::INT2_SHAPES;
use crate::stats::p10;
use crate::Run;
use adapex_tensor::conv::{im2col_into, ConvGeometry};
use adapex_tensor::gemm::{gemm_a_bt_st, gemm_bias_st};
use adapex_tensor::int2::{self, OutMajor};
use std::hint::black_box;
use std::time::Instant;

/// `(c_in, h, w, c_out)` of the four int2 probe shapes, in
/// [`INT2_SHAPES`] order; all 3x3, stride 1, no padding.
const INT2_DIMS: [(usize, usize, usize, usize); 4] = [
    (8, 30, 30, 8),
    (8, 28, 28, 8),
    (16, 12, 12, 16),
    (32, 3, 3, 32),
];

/// p10 nanoseconds per call of `f`, sampled for `budget_s` seconds.
/// Calls are grouped so one sample lasts at least ~20 µs and the clock
/// read is noise, not signal.
pub fn ns_per_call(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64().max(1e-9);
    let reps = ((20e-6 / once).ceil() as usize).clamp(1, 10_000);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        samples.push(t0.elapsed().as_secs_f64() * 1e9 / reps as f64);
    }
    p10(&samples)
}

fn codes(rng: &mut Rng, n: usize, lo: i64, span: u64, scale: f32) -> Vec<f32> {
    (0..n)
        .map(|_| (lo + (rng.next_u64() % span) as i64) as f32 * scale)
        .collect()
}

/// Fills the `tensor.*` per-layer metrics, spending about `budget_s`.
pub fn tensor(run: &mut Run, budget_s: f64) {
    let each = budget_s / 15.0;
    let geom = ConvGeometry::new(3);
    let mut rng = Rng::new(run.seed, 0x7E);
    let ascale = 0.5f32;
    for (name, (c_in, h, w, c_out)) in INT2_SHAPES.into_iter().zip(INT2_DIMS) {
        let (oh, ow) = (h - 2, w - 2);
        let (kk, pixels) = (c_in * 9, oh * ow);
        let img = codes(&mut rng, c_in * h * w, 0, 4, ascale);
        let mut planes = Vec::new();
        int2::pack_weights_int2(
            &codes(&mut rng, c_out * kk, -2, 4, 1.0),
            c_out,
            kk,
            &mut planes,
        );
        let (cs, bias) = (vec![1.0f32; c_out], vec![0.0f32; c_out]);
        let (mut img_bits, mut cols) = (Vec::new(), Vec::new());
        let mut out = vec![0.0f32; c_out * pixels];

        let ns = ns_per_call(each, || {
            int2::pack_image_int2(black_box(&img), ascale, c_in, h, w, 0, &mut img_bits)
        });
        run.report
            .set(format!("tensor.int2.pack_image_ns.{name}"), ns);
        let ns = ns_per_call(each, || {
            int2::gather_conv_windows_int2(black_box(&img_bits), c_in, h, w, geom, &mut cols)
        });
        run.report.set(format!("tensor.int2.gather_ns.{name}"), ns);
        let mut gemm = || {
            int2::gemm_int2(
                c_out,
                kk,
                pixels,
                &planes,
                black_box(&cols),
                &cs,
                &bias,
                &mut out,
                OutMajor::Row,
            )
        };
        let before = int2::op_counters();
        gemm();
        let after = int2::op_counters();
        run.report.set(
            format!("tensor.int2.mac_ops.{name}"),
            (after.0 - before.0) as f64,
        );
        run.report.set(
            format!("tensor.int2.popcnt_words.{name}"),
            (after.1 - before.1) as f64,
        );
        let ns = ns_per_call(each, gemm);
        run.report.set(format!("tensor.int2.gemm_ns.{name}"), ns);
    }

    // conv1 sees raw pixels, so it is an f32 GEMM over im2col columns.
    let img: Vec<f32> = (0..3 * 32 * 32).map(|_| rng.next_f32()).collect();
    let mut cols = Vec::new();
    let ns = ns_per_call(each, || {
        im2col_into(black_box(&img), 3, 32, 32, geom, &mut cols)
    });
    run.report.set("tensor.conv.im2col_ns.conv1", ns);
    let (c_out, kk, pixels) = (8, 27, 900);
    let qw = codes(&mut rng, c_out * kk, -2, 4, 0.1);
    let bias = vec![0.0f32; c_out];
    let mut y = vec![0.0f32; c_out * pixels];
    let ns = ns_per_call(each, || {
        gemm_bias_st(c_out, kk, pixels, &qw, black_box(&cols), &bias, &mut y)
    });
    run.report.set("tensor.gemm.f32_ns.conv1", ns);

    // conv2's weight gradient in training: dW = dY * cols^T.
    let (c_out, kk, pixels) = (8, 72, 784);
    let dy: Vec<f32> = (0..c_out * pixels).map(|_| rng.next_f32() - 0.5).collect();
    let cols2: Vec<f32> = (0..kk * pixels).map(|_| rng.next_f32()).collect();
    let mut dw = vec![0.0f32; c_out * kk];
    let ns = ns_per_call(each, || {
        gemm_a_bt_st(c_out, pixels, kk, black_box(&dy), &cols2, &mut dw)
    });
    run.report.set("tensor.gemm.f32_ns.train_conv2", ns);
}
