//! Bit-identity proptests across the SIMD dispatch paths.
//!
//! Every kernel in `adapex_tensor::simd` is pinned three ways: a scalar
//! reference (inlined here as plain loops), the portable backend, and —
//! on hosts with AVX2 — the vector backend called directly; the GEMM
//! panel also against its sixteen-lane AVX-512 body where the host has
//! it, and the fake-quant, mask and fold kernels also through the
//! dispatched entry point under every backend the host can force.
//! Agreement is asserted on the raw bit patterns, over aligned and
//! unaligned slices, lengths that exercise the remainder lanes, and
//! inputs dense in exact ±0.0 — where the GEMM panel, which has no
//! zero-skip branch, must still equal a reference that skips every zero
//! `A` term, and where `max` must pick the same zero on every path — and
//! inputs holding NaN.

use adapex_tensor::simd::{self, portable, Backend};
use proptest::prelude::*;
use std::sync::{Mutex, PoisonError};

#[cfg(target_arch = "x86_64")]
use adapex_tensor::simd::{avx2, avx512};

fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The detection rule of the AVX-512 backend, restated.
fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        has_avx2()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Finite values mixed with exact ±0.0.
fn vals(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        (0u8..8, -3.0f32..3.0).prop_map(|(tag, v)| match tag {
            6 => 0.0,
            7 => -0.0,
            _ => v,
        }),
        len..=len,
    )
}

/// The fold and quantizer inputs, one of three kinds per case: finite
/// values mixed with ±0.0 (as [`vals`]); non-positive values dense in
/// zeros of both signs, so a zero is the maximum; or finite values mixed
/// with ±0.0 and NaN.
fn edge_vals(len: usize) -> impl Strategy<Value = Vec<f32>> {
    (
        0u8..3,
        prop::collection::vec((0u8..8, 0.0f32..3.0, any::<bool>()), len..=len),
    )
        .prop_map(|(kind, raw)| {
            raw.into_iter()
                .map(|(tag, v, neg)| match (kind, tag) {
                    (1, 0..=1) | (_, 6) => 0.0,
                    (1, 2..=3) | (_, 7) => -0.0,
                    (1, _) => -v,
                    (2, 5) => f32::NAN,
                    _ if neg => -v,
                    _ => v,
                })
                .collect()
        })
}

/// A fold input on which the portable `f32::max` fold and the
/// hand-written AVX2 fold once returned different zeros (+0.0 and
/// −0.0) from an `init` of −∞.
const ZERO_SIGN_FOLD: [f32; 19] = [
    0.0, -0.0, -1.5, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, -2.0, -0.0, -0.0, -3.9, -0.0, -3.0, 0.0,
    -0.0, -0.0, -1.6,
];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Serializes the tests that force the process-global backend.
static FORCED_BACKEND: Mutex<()> = Mutex::new(());

/// Runs `check` under each backend this host can force, serialized
/// against the other tests that force one, then restores detection.
fn under_each_backend(
    mut check: impl FnMut(Backend) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let _serial = FORCED_BACKEND
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let runnable = [
        (Backend::Avx512, has_avx512()),
        (Backend::Avx2, has_avx2()),
        (Backend::Portable, true),
    ];
    let mut result = Ok(());
    for (backend, _) in runnable.into_iter().filter(|&(_, can)| can) {
        simd::override_backend(Some(backend));
        result = check(backend);
        if result.is_err() {
            break;
        }
    }
    simd::override_backend(None);
    result
}

// --- Scalar references ---------------------------------------------------

/// `a > b ? a : b`: the max every backend computes (`MAXPS`), specified
/// at ±0 and NaN where `f32::max` is not.
fn select_max(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// `a < b ? a : b` (`MINPS`).
fn select_min(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

fn ref_fake_quant(v: &mut [f32], scale: f32, lo: f32, hi: f32) {
    for x in v {
        *x = select_min(select_max((*x / scale).round(), lo), hi) * scale;
    }
}

/// The fold contract: eight accumulators seeded with `init` take the
/// body in lane order, fold into `init` in lane order, then the tail.
fn ref_fold(init: f32, xs: &[f32], f: impl Fn(f32) -> f32) -> f32 {
    let body = xs.len() - xs.len() % 8;
    let mut acc = [init; 8];
    for (i, &v) in xs[..body].iter().enumerate() {
        acc[i % 8] = select_max(acc[i % 8], f(v));
    }
    let m = acc.into_iter().fold(init, select_max);
    xs[body..].iter().fold(m, |m, &v| select_max(m, f(v)))
}

/// Reference == portable == AVX2 == the dispatched kernel under every
/// forcible backend, for both folds (`fold_max_abs` from `|init|`).
fn check_folds(init: f32, x: &[f32]) -> Result<(), TestCaseError> {
    let want_max = ref_fold(init, x, |v| v).to_bits();
    let want_abs = ref_fold(init.abs(), x, f32::abs).to_bits();
    prop_assert_eq!(
        portable::fold_max(init, x).to_bits(),
        want_max,
        "portable fold_max"
    );
    prop_assert_eq!(
        portable::fold_max_abs(init.abs(), x).to_bits(),
        want_abs,
        "portable fold_max_abs"
    );
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        prop_assert_eq!(
            unsafe { avx2::fold_max(init, x) }.to_bits(),
            want_max,
            "avx2 fold_max"
        );
        prop_assert_eq!(
            unsafe { avx2::fold_max_abs(init.abs(), x) }.to_bits(),
            want_abs,
            "avx2 fold_max_abs"
        );
    }
    under_each_backend(|backend| {
        prop_assert_eq!(
            simd::fold_max(init, x).to_bits(),
            want_max,
            "dispatched fold_max {:?}",
            backend
        );
        prop_assert_eq!(
            simd::fold_max_abs(init.abs(), x).to_bits(),
            want_abs,
            "dispatched fold_max_abs {:?}",
            backend
        );
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SAXPY family — the one-step phases of the GEMM panel (write,
    /// accumulate, write with bias, accumulate with bias): reference ==
    /// portable == AVX2 == AVX-512 panel, bit for bit, on aligned and
    /// unaligned (offset-1) rows of every tail length.
    #[test]
    fn axpy_family_bit_identity(
        len in 1usize..130,
        off in 0usize..2,
        a in (0u8..5, -3.0f32..3.0).prop_map(|(t, v)| if t == 4 { 0.0 } else { v }),
        bias in -2.0f32..2.0,
        c0 in vals(131),
        b0 in vals(131),
    ) {
        let c0 = &c0[off..off + len];
        let b = &b0[off..off + len];
        for (init, with_bias) in [(true, false), (false, false), (true, true), (false, true)] {
            let want: Vec<f32> = c0
                .iter()
                .zip(b)
                .map(|(&c, &bv)| {
                    let t = if init { 0.0 + a * bv } else { c + a * bv };
                    if with_bias { t + bias } else { t }
                })
                .collect();
            let bias_row = [bias];
            let bias = with_bias.then_some(&bias_row[..]);
            // One row (`rr = 1`, `A = [a]`) swept over the single step `k = 0`.
            let run = |backend: Backend| -> Vec<f32> {
                let (mut c, a) = (c0.to_vec(), [a]);
                match backend {
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx512 => unsafe {
                        avx512::gemm_panel::<false>(&mut c, len, 1, &a, 1, 0, b, 0, 1, 0, len, init, bias)
                    },
                    #[cfg(target_arch = "x86_64")]
                    Backend::Avx2 => unsafe {
                        avx2::gemm_panel::<false>(&mut c, len, 1, &a, 1, 0, b, 0, 1, 0, len, init, bias)
                    },
                    _ => portable::gemm_panel::<false>(&mut c, len, 1, &a, 1, 0, b, 0, 1, 0, len, init, bias),
                }
                c
            };
            let phase = (init, with_bias);
            prop_assert_eq!(bits(&run(Backend::Portable)), bits(&want), "portable {:?}", phase);
            if has_avx2() {
                prop_assert_eq!(bits(&run(Backend::Avx2)), bits(&want), "avx2 {:?}", phase);
            }
            if has_avx512() {
                prop_assert_eq!(bits(&run(Backend::Avx512)), bits(&want), "avx512 {:?}", phase);
            }
        }
    }

    /// Fake-quant (incl. the round-half-away rounding and the select
    /// clamp, at QuantReLU's `lo = 0` too), the STE window mask, and
    /// softmax's scalar divide, on inputs with ±0 and NaN; the first two
    /// also through the dispatcher under every forcible backend.
    #[test]
    fn quant_and_mask_bit_identity(
        len in 0usize..130,
        off in 0usize..2,
        scale in 0.05f32..2.0,
        x0 in edge_vals(131),
        relu_bounds in any::<bool>(),
        d in (0u8..5, 0.5f32..8.0).prop_map(|(t, v)| if t == 4 { 3.0 } else { v }),
    ) {
        let x = &x0[off..off + len];
        let (lo, hi) = if relu_bounds { (0.0f32, 3.0f32) } else { (-2.0, 1.0) };

        let mut want = x.to_vec();
        ref_fake_quant(&mut want, scale, lo, hi);
        let mut got = x.to_vec();
        portable::fake_quant_slice(&mut got, scale, lo, hi);
        prop_assert_eq!(bits(&got), bits(&want), "portable fake_quant");

        let mut want_mask = vec![0.0f32; x.len()];
        for (m, &v) in want_mask.iter_mut().zip(x) {
            *m = if v > lo && v < hi { 1.0 } else { 0.0 };
        }
        let mut got_mask = vec![0.0f32; x.len()];
        portable::range_mask_slice(&mut got_mask, x, lo, hi);
        prop_assert_eq!(bits(&got_mask), bits(&want_mask), "portable range_mask");

        let mut want_div = x.to_vec();
        for v in want_div.iter_mut() {
            *v /= d;
        }
        let mut got_div = x.to_vec();
        portable::div_scalar(&mut got_div, d);
        prop_assert_eq!(bits(&got_div), bits(&want_div), "portable div_scalar");

        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            let mut got = x.to_vec();
            unsafe { avx2::fake_quant_slice(&mut got, scale, lo, hi) };
            prop_assert_eq!(bits(&got), bits(&want), "avx2 fake_quant");
            let mut got_mask = vec![0.0f32; x.len()];
            unsafe { avx2::range_mask_slice(&mut got_mask, x, lo, hi) };
            prop_assert_eq!(bits(&got_mask), bits(&want_mask), "avx2 range_mask");
            let mut got_div = x.to_vec();
            unsafe { avx2::div_scalar(&mut got_div, d) };
            prop_assert_eq!(bits(&got_div), bits(&want_div), "avx2 div_scalar");
        }

        under_each_backend(|backend| {
            let mut got = x.to_vec();
            simd::fake_quant_slice(&mut got, scale, lo, hi);
            prop_assert_eq!(bits(&got), bits(&want), "dispatched fake_quant {:?}", backend);
            let mut got_mask = vec![0.0f32; x.len()];
            simd::range_mask_slice(&mut got_mask, x, lo, hi);
            prop_assert_eq!(bits(&got_mask), bits(&want_mask), "dispatched range_mask {:?}", backend);
            Ok(())
        })?;
    }

    /// Batch-norm forward/backward maps and the SGD-with-momentum update.
    #[test]
    fn norm_and_sgd_bit_identity(
        len in 0usize..130,
        off in 0usize..2,
        src0 in vals(131),
        dy0 in vals(131),
        v0 in vals(131),
        mean in -1.0f32..1.0,
        inv_std in 0.2f32..3.0,
        g in -2.0f32..2.0,
        b in -1.0f32..1.0,
    ) {
        let src = &src0[off..off + len];
        let dy = &dy0[off..off + len];

        let mut want = vec![0.0f32; len];
        for (o, &s) in want.iter_mut().zip(src) {
            *o = g * ((s - mean) * inv_std) + b;
        }
        let mut got = vec![0.0f32; len];
        portable::normalize_affine(&mut got, src, mean, inv_std, g, b);
        prop_assert_eq!(bits(&got), bits(&want), "portable normalize_affine");

        let mut want_xh = vec![0.0f32; len];
        let mut want_o = vec![0.0f32; len];
        for ((o, xh), &s) in want_o.iter_mut().zip(want_xh.iter_mut()).zip(src) {
            let h = (s - mean) * inv_std;
            *xh = h;
            *o = g * h + b;
        }
        let mut got_xh = vec![0.0f32; len];
        let mut got_o = vec![0.0f32; len];
        portable::normalize_affine_xhat(&mut got_o, &mut got_xh, src, mean, inv_std, g, b);
        prop_assert_eq!(bits(&got_o), bits(&want_o), "portable xhat out");
        prop_assert_eq!(bits(&got_xh), bits(&want_xh), "portable xhat");

        // bn_backward_dx with the xhat we just built.
        let (coeff, count, sum_dy, sum_dy_xhat) = (g * inv_std / 7.0, 7.0, 0.3f32, -0.2f32);
        let mut want_dx = vec![0.0f32; len];
        for ((d, &y), &xh) in want_dx.iter_mut().zip(dy).zip(&want_xh) {
            *d = coeff * (count * y - sum_dy - xh * sum_dy_xhat);
        }
        let mut got_dx = vec![0.0f32; len];
        portable::bn_backward_dx(&mut got_dx, dy, &want_xh, coeff, count, sum_dy, sum_dy_xhat);
        prop_assert_eq!(bits(&got_dx), bits(&want_dx), "portable bn_backward_dx");

        // SGD: w = src, grad = dy, velocity = v0.
        let (lr, momentum, wd) = (0.05f32, 0.9f32, 0.0005f32);
        let mut want_w = src.to_vec();
        let mut want_v = v0[off..off + len].to_vec();
        for ((wv, &gv), vv) in want_w.iter_mut().zip(dy).zip(want_v.iter_mut()) {
            *vv = momentum * *vv + gv + wd * *wv;
            *wv -= lr * *vv;
        }
        let mut got_w = src.to_vec();
        let mut got_v = v0[off..off + len].to_vec();
        portable::sgd_update(&mut got_w, dy, &mut got_v, lr, momentum, wd);
        prop_assert_eq!(bits(&got_w), bits(&want_w), "portable sgd w");
        prop_assert_eq!(bits(&got_v), bits(&want_v), "portable sgd v");

        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            let mut got = vec![0.0f32; len];
            unsafe { avx2::normalize_affine(&mut got, src, mean, inv_std, g, b) };
            prop_assert_eq!(bits(&got), bits(&want), "avx2 normalize_affine");
            let mut got_xh = vec![0.0f32; len];
            let mut got_o = vec![0.0f32; len];
            unsafe {
                avx2::normalize_affine_xhat(&mut got_o, &mut got_xh, src, mean, inv_std, g, b)
            };
            prop_assert_eq!(bits(&got_o), bits(&want_o), "avx2 xhat out");
            prop_assert_eq!(bits(&got_xh), bits(&want_xh), "avx2 xhat");
            let mut got_dx = vec![0.0f32; len];
            unsafe {
                avx2::bn_backward_dx(&mut got_dx, dy, &want_xh, coeff, count, sum_dy, sum_dy_xhat)
            };
            prop_assert_eq!(bits(&got_dx), bits(&want_dx), "avx2 bn_backward_dx");
            let mut got_w = src.to_vec();
            let mut got_v = v0[off..off + len].to_vec();
            unsafe { avx2::sgd_update(&mut got_w, dy, &mut got_v, lr, momentum, wd) };
            prop_assert_eq!(bits(&got_w), bits(&want_w), "avx2 sgd w");
            prop_assert_eq!(bits(&got_v), bits(&want_v), "avx2 sgd v");
        }
    }

    /// The max folds equal the select-rule reference ([`ref_fold`]) on
    /// every backend, on inputs with ±0 and NaN and from every `init` —
    /// and so does the fixed input [`ZERO_SIGN_FOLD`].
    #[test]
    fn folds_bit_identity(
        len in 0usize..130,
        off in 0usize..2,
        x0 in edge_vals(131),
        init in (0usize..4).prop_map(|i| [f32::NEG_INFINITY, 0.0, -0.0, f32::NAN][i]),
    ) {
        check_folds(init, &x0[off..off + len])?;
        check_folds(f32::NEG_INFINITY, &ZERO_SIGN_FOLD)?;
    }

    /// The register-tiled AVX2 and AVX-512 GEMM panels agree bit for bit
    /// with the portable three-phase panel for both A layouts, interior
    /// column
    /// windows, bias folding, and the first-k-step write (C starts as NaN
    /// garbage when `init`), at widths on both sides of the 8-, 16- and
    /// 32-column tiles. All equal a per-element reference that
    /// skips every zero `A` term of the middle steps: on finite operands
    /// and a C that does not start at −0, running those terms changes
    /// no bit.
    #[test]
    fn gemm_panel_dispatch_paths_agree(
        rr in 1usize..5,
        gr in 0usize..3,
        n in 1usize..72,
        k in 1usize..16,
        trans in any::<bool>(),
        with_bias in any::<bool>(),
        init in any::<bool>(),
        window in any::<bool>(),
        a0 in vals(18 * 8),
        b0 in vals(16 * 72),
    ) {
        let rows = gr + rr;
        // Row-major A is [rows, k]; the transposed layout is [k, rows].
        let lda = if trans { rows } else { k };
        let a = &a0[..rows * k];
        let b = &b0[..k * n];
        let bias_vec: Vec<f32> = (0..rows).map(|r| 0.25 * r as f32 - 0.5).collect();
        let bias = if with_bias { Some(&bias_vec[..]) } else { None };
        let (j0, j1) = if window && n > 2 { (1, n - 1) } else { (0, n) };

        // When not initializing, both paths must accumulate onto the
        // same prior C; when initializing, NaN garbage must be
        // overwritten by the first k step.
        let c_start: Vec<f32> = if init {
            vec![f32::NAN; rr * n]
        } else {
            (0..rr * n).map(|i| (i % 7) as f32 * 0.5 - 1.0).collect()
        };

        let run = |backend: Backend| -> Vec<f32> {
            let mut c = c_start.clone();
            match (backend, trans) {
                #[cfg(target_arch = "x86_64")]
                (Backend::Avx512, true) => unsafe {
                    avx512::gemm_panel::<true>(&mut c, n, rr, a, lda, gr, b, 0, k, j0, j1, init, bias)
                },
                #[cfg(target_arch = "x86_64")]
                (Backend::Avx512, false) => unsafe {
                    avx512::gemm_panel::<false>(&mut c, n, rr, a, lda, gr, b, 0, k, j0, j1, init, bias)
                },
                #[cfg(target_arch = "x86_64")]
                (Backend::Avx2, true) => unsafe {
                    avx2::gemm_panel::<true>(&mut c, n, rr, a, lda, gr, b, 0, k, j0, j1, init, bias)
                },
                #[cfg(target_arch = "x86_64")]
                (Backend::Avx2, false) => unsafe {
                    avx2::gemm_panel::<false>(&mut c, n, rr, a, lda, gr, b, 0, k, j0, j1, init, bias)
                },
                (_, true) => portable::gemm_panel::<true>(&mut c, n, rr, a, lda, gr, b, 0, k, j0, j1, init, bias),
                (_, false) => portable::gemm_panel::<false>(&mut c, n, rr, a, lda, gr, b, 0, k, j0, j1, init, bias),
            }
            c
        };

        let want = run(Backend::Portable);
        let a_at = |row: usize, kk: usize| if trans { a[kk * lda + row] } else { a[row * lda + kk] };
        let mut skipping = c_start.clone();
        for r in 0..rr {
            for j in j0..j1 {
                let c = &mut skipping[r * n + j];
                for kk in 0..k {
                    let av = a_at(gr + r, kk);
                    let t = av * b[kk * n + j];
                    let bias_step = with_bias && kk == k - 1;
                    if init && kk == 0 {
                        *c = 0.0 + t;
                        if bias_step {
                            *c += bias_vec[gr + r];
                        }
                    } else if bias_step {
                        *c = (*c + t) + bias_vec[gr + r];
                    } else if av != 0.0 {
                        *c += t;
                    }
                }
            }
        }
        prop_assert_eq!(bits(&want), bits(&skipping), "portable panel vs zero-skipping reference");
        if init {
            // First-k-step-write: every column inside the window must
            // have been overwritten.
            for row in want.chunks_exact(n) {
                for &v in &row[j0..j1] {
                    prop_assert!(!v.is_nan(), "stale NaN survived the init step");
                }
            }
        }
        if has_avx2() {
            prop_assert_eq!(bits(&run(Backend::Avx2)), bits(&want), "avx2 panel vs portable");
        }
        if has_avx512() {
            prop_assert_eq!(bits(&run(Backend::Avx512)), bits(&want), "avx512 panel vs portable");
        }
    }
}

/// The public dispatched entry points equal the forced-portable backend
/// on the full GEMM and the elementwise kernels. Serialized because
/// `override_backend` is process-global state.
#[test]
fn dispatched_equals_forced_portable() {
    use adapex_tensor::gemm::gemm_bias;

    let (m, k, n) = (7, 33, 19);
    let a: Vec<f32> = (0..m * k)
        .map(|i| if i % 5 == 0 { 0.0 } else { (i % 11) as f32 * 0.3 - 1.5 })
        .collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i * 7) % 13) as f32 * 0.21 - 1.3).collect();
    let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.1 - 0.3).collect();

    let run_gemm = || {
        let mut c = vec![0.0f32; m * n];
        gemm_bias(m, k, n, &a, &b, &bias, &mut c);
        c
    };
    let run_quant = || {
        let mut v = b.clone();
        simd::fake_quant_slice(&mut v, 0.25, -2.0, 1.0);
        v
    };

    let _serial = FORCED_BACKEND
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let dispatched_gemm = run_gemm();
    let dispatched_quant = run_quant();
    simd::override_backend(Some(Backend::Portable));
    let forced_gemm = run_gemm();
    let forced_quant = run_quant();
    simd::override_backend(None);

    assert_eq!(bits(&dispatched_gemm), bits(&forced_gemm));
    assert_eq!(bits(&dispatched_quant), bits(&forced_quant));
}
