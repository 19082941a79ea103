//! Bit-packed 2-bit integer GEMM: the MVU popcount inner product in software.
//!
//! CNVW2A2 eval runs every matrix layer (except the raw-image stem conv)
//! on signed 2-bit weights × unsigned 2-bit activations. This module
//! executes those layers the way the FINN MVTU RTL does: operands are
//! packed into `u64` bit-plane words and the inner product becomes four
//! AND+popcount streams combined with small shifts. One kernel per file,
//! its portable, AVX2 and AVX-512 bodies side by side:
//!
//! * [`layout`] — the bit-plane operand layout and its sizes;
//! * [`pack`] — the one quantize rule, the weight/activation packers and
//!   the once-per-image pack ([`pack_image_int2`]);
//! * [`gather`] — every conv window's operand lifted out of a packed
//!   image ([`gather_conv_windows_int2`]);
//! * [`gemm`] — the popcount GEMM with the fused requantize epilogue
//!   ([`gemm_int2`]);
//! * [`threshold`] — the MVTU threshold unit that keeps the serving path
//!   in the code domain ([`threshold_pool_pack_int2`], [`CodeSteps`]);
//! * [`pool`] — max-pool on packed codes ([`pool_image_int2`]);
//! * [`stem`] — the direct f32 convolution of a raw image
//!   ([`conv_f32_acc`]), the one f32 kernel here.
//!
//! This file composes them — [`conv_int2_direct`] (pack → gather → GEMM,
//! f32 out), [`conv_int2_codes`] (gather → GEMM → threshold unit,
//! packed codes out) and [`conv_f32_codes`] (direct f32 conv → threshold
//! unit, the stem) — and owns what they share: backend dispatch, the
//! route model and the op counters, which live here, above the backends,
//! so every body reports the same work for the same shape.
//! `conv_int2_codes` bumps the counters exactly as `conv_int2_direct`
//! does: one direct-conv call, and the GEMM's own MAC and popcount-word
//! counts.
//!
//! # Dispatch
//!
//! CPU detection picks the backend once per process, best first:
//! [`Backend::Avx512`] where the host has AVX-512F **and** `VPOPCNTDQ`
//! (F alone — Skylake-X, Cascade Lake — would emulate the popcount as
//! AVX2 does and stays there), [`Backend::Avx2`] with AVX2+POPCNT, else
//! the portable bodies. A kernel without a body for the chosen backend
//! runs the next one down ([`pack_image_int2`] has no 512-bit form).
//! [`override_backend`] is how tests and benches reach the others — same
//! bits every way: integer arithmetic sees to that, and the stem's f32
//! conv maps lanes 1:1 onto outputs. Which *route* a
//! layer takes is a property of its kernel size ([`MAX_DIRECT_KERNEL`],
//! asked through [`conv_engine_profitable`]), never of a process-level
//! switch.

use crate::conv::ConvGeometry;
use crate::simd::BackendCell;
use std::sync::atomic::{AtomicU64, Ordering};

pub use crate::simd::Backend;

/// Routes a kernel call to the calling file's body for the active
/// backend: `$avx512` names the module serving [`Backend::Avx512`]
/// (`avx2` for a kernel without a 512-bit body).
macro_rules! dispatch {
    ($avx512:ident, $name:ident($($arg:expr),*)) => {
        match $crate::int2::active_backend() {
            // SAFETY: `active_backend` only reports a vector backend
            // after runtime detection of every CPU feature its bodies
            // enable (or an override that re-checked them).
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe { $avx512::$name($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { avx2::$name($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2 => portable::$name($($arg),*),
            Backend::Portable => portable::$name($($arg),*),
        }
    };
}

pub mod gather;
pub mod gemm;
pub mod layout;
pub mod pack;
pub mod pool;
pub mod stem;
pub mod threshold;

pub use gather::{gather_conv_windows_int2, MAX_DIRECT_KERNEL};
pub use gemm::{gemm_int2, requantize_cols, requantize_rows};
pub use layout::{image_row_words, plane_words, words_per_item, OutMajor, MAX_K};
pub use pack::{
    act_codes_in_place, pack_acts_cols_int2, pack_acts_int2, pack_image_int2, pack_weights_int2,
    unpack_image_int2, weight_codes_into,
};
pub use pool::pool_image_int2;
pub use stem::conv_f32_acc;
pub use threshold::{threshold_pool_pack_int2, CodeSteps};

/// The scalar bodies, public (like [`crate::simd::portable`]) so the
/// bit-identity suite can pin them against the vector ones directly.
pub mod portable {
    pub use super::gather::portable::*;
    pub use super::gemm::portable::*;
    pub use super::pack::portable::*;
    pub use super::stem::portable::*;
    pub use super::threshold::portable::*;
}

/// The AVX2 bodies, public (like [`crate::simd::avx2`]) for the
/// bit-identity suite. All functions require AVX2+POPCNT.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    pub use super::gather::avx2::*;
    pub use super::gemm::avx2::*;
    pub use super::pack::avx2::*;
    pub use super::stem::avx2::*;
    pub use super::threshold::avx2::*;
}

/// The AVX-512 bodies, public for the bit-identity suite. All functions
/// require AVX-512F and `VPOPCNTDQ`.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    pub use super::gather::avx512::*;
    pub use super::gemm::avx512::*;
    pub use super::stem::avx512::*;
    pub use super::threshold::avx512::*;
}

static BACKEND: BackendCell = BackendCell::new(Backend::detect);

// Logical multiply-accumulate count (m*n*k per GEMM call) and executed
// popcount word-ops (4 per plane-pair word per dot product). The finn
// cycle-model cross-check reads these; eval serving never does, so a
// relaxed atomic per GEMM call is free.
static MAC_OPS: AtomicU64 = AtomicU64::new(0);
static POPCNT_OPS: AtomicU64 = AtomicU64::new(0);

// Direct-conv invocations: engagement probe for the differential and
// allocation suites (did the windowed path actually run?).
static DIRECT_CONV_CALLS: AtomicU64 = AtomicU64::new(0);

/// The backend the int2 kernels currently dispatch to.
pub fn active_backend() -> Backend {
    BACKEND.get()
}

/// Pins the int2 dispatch to one backend (`Some`) or restores runtime
/// detection (`None`). Integer arithmetic makes the backends
/// bit-identical, so flipping this never changes results.
///
/// # Panics
///
/// Panics when asked to force a backend this host lacks a CPU feature
/// for, naming the feature.
pub fn override_backend(backend: Option<Backend>) {
    BACKEND.set(backend);
}

/// Whether a conv with `kernel × kernel` windows can take the popcount
/// engine ([`conv_int2_direct`]): the window gather serves kernels up to
/// [`MAX_DIRECT_KERNEL`], and that bound is the whole rule. `c_out` is
/// kept for the callers that pass it and no longer enters — the filter-
/// count floor that used to sit here tracked no measured crossover on
/// any backend (the vector bodies win from two filters up, the portable
/// ones at no CNV width), and evaluation, the generator and
/// `EnginePlan::Int2Always` never applied it.
///
/// The f32-over-codes arm of the conv layer is bit-identical (the
/// differential suites flip `prefer_f32_codes` to pin that) and is the
/// only code-domain route past the bound.
#[inline]
pub fn conv_engine_profitable(_c_out: usize, kernel: usize) -> bool {
    kernel <= MAX_DIRECT_KERNEL
}

/// `(logical MACs, popcount word-ops)` executed by [`gemm_int2`] since
/// the last [`reset_op_counters`]. One dot product over `k` codes counts
/// `k` MACs and `4*ceil(k/64)` popcount ops (padding words included —
/// the constant-factor gap between the two is exactly the cycle model's
/// word-granularity rounding).
pub fn op_counters() -> (u64, u64) {
    (
        MAC_OPS.load(Ordering::Relaxed),
        POPCNT_OPS.load(Ordering::Relaxed),
    )
}

/// Direct-conv invocations ([`conv_int2_direct`]) since the last
/// [`reset_op_counters`]: the engagement probe the differential and
/// allocation suites use to prove the windowed path actually ran.
pub fn direct_conv_calls() -> u64 {
    DIRECT_CONV_CALLS.load(Ordering::Relaxed)
}

/// Zeroes the [`op_counters`] and [`direct_conv_calls`]. Not
/// synchronized against concurrent GEMM calls; callers (tests) quiesce
/// the engine first.
pub fn reset_op_counters() {
    MAC_OPS.store(0, Ordering::Relaxed);
    POPCNT_OPS.store(0, Ordering::Relaxed);
    DIRECT_CONV_CALLS.store(0, Ordering::Relaxed);
}

/// Direct int2 convolution of one image: pack once
/// ([`pack_image_int2`]), gather every window's packed operand
/// ([`gather_conv_windows_int2`]), then run the regular popcount GEMM
/// with the fused requantize epilogue. Bit-identical to
/// im2col → code rounding → [`pack_acts_cols_int2`] → [`gemm_int2`]
/// because the gathered operand *words* are equal, not merely the
/// integer sums — and it bumps the same op counters, so the cycle-model
/// cross-checks hold unchanged. `image_ws`/`cols_ws` are
/// caller-provided scratch (pooled workspace buffers in the layers) so
/// steady-state eval stays allocation-free.
///
/// # Panics
///
/// Panics on shape mismatches, a non-fitting window, or a kernel past
/// [`MAX_DIRECT_KERNEL`].
#[allow(clippy::too_many_arguments)]
pub fn conv_int2_direct(
    img: &[f32],
    ascale: f32,
    c_in: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    wplanes: &[u64],
    c_out: usize,
    cs: &[f32],
    bias: &[f32],
    out: &mut [f32],
    image_ws: &mut Vec<u64>,
    cols_ws: &mut Vec<u64>,
) {
    let k = geom.kernel;
    let oh = geom.output_dim(h).expect("window must fit");
    let ow = geom.output_dim(w).expect("window must fit");
    let kk = c_in * k * k;
    DIRECT_CONV_CALLS.fetch_add(1, Ordering::Relaxed);
    pack_image_int2(img, ascale, c_in, h, w, geom.padding, image_ws);
    gather_conv_windows_int2(image_ws, c_in, h, w, geom, cols_ws);
    gemm_int2(c_out, kk, oh * ow, wplanes, cols_ws, cs, bias, out, OutMajor::Row);
}

/// Direct int2 convolution that never leaves the code domain: gathers
/// every window's operand from an already packed image
/// ([`gather_conv_windows_int2`]), runs the popcount GEMM to raw integer
/// accumulators and sends them through the threshold unit
/// ([`threshold_pool_pack_int2`]) straight into the next layer's packed
/// image. The streamlined twin of [`conv_int2_direct`] → BatchNorm →
/// QuantReLU → max-pool → [`pack_image_int2`]: same gather, same GEMM,
/// same op-counter bumps (one direct-conv call, `c_out·pixels·k` MACs),
/// no f32 activation in between. `cols_ws`/`acc_ws` are caller-provided
/// scratch.
///
/// # Panics
///
/// Panics on shape mismatches, as the three stages do.
#[allow(clippy::too_many_arguments)]
pub fn conv_int2_codes(
    image: &[u64],
    c_in: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    wplanes: &[u64],
    steps: &[CodeSteps],
    pool: usize,
    out_pad: usize,
    out: &mut [u64],
    cols_ws: &mut Vec<u64>,
    acc_ws: &mut Vec<f32>,
) {
    let k = geom.kernel;
    let oh = geom.output_dim(h).expect("window must fit");
    let ow = geom.output_dim(w).expect("window must fit");
    let (c_out, pixels) = (steps.len(), oh * ow);
    DIRECT_CONV_CALLS.fetch_add(1, Ordering::Relaxed);
    gather_conv_windows_int2(image, c_in, h, w, geom, cols_ws);
    // Unit scale and zero bias make the requantize epilogue the exact
    // identity on `S` (|S| < 2^24); both ride behind the map in `acc_ws`.
    // The GEMM overwrites the whole map, so stale contents are fine.
    acc_ws.resize(c_out * (pixels + 2), 0.0);
    let (acc, consts) = acc_ws.split_at_mut(c_out * pixels);
    let (unit, zero) = consts.split_at_mut(c_out);
    unit.fill(1.0);
    zero.fill(0.0);
    gemm_int2(c_out, c_in * k * k, pixels, wplanes, cols_ws, unit, zero, acc, OutMajor::Row);
    threshold_pool_pack_int2(acc, steps, oh, ow, pool, out_pad, out);
}

/// The stem as a threshold unit: a raw f32 image in, the packed 2-bit
/// code map of its first `Conv → Norm → Act` group out. The direct f32
/// conv ([`conv_f32_acc`], bit-identical to im2col + the f32 GEMM)
/// writes the accumulators into `acc_ws` — `[steps.len(), oh·ow]`, a few
/// KB that stay in L1 — and hands them to [`threshold_pool_pack_int2`]
/// at pool 1, which writes `out` in [`pack_image_int2`]'s layout at
/// padding `out_pad`. The streamlined twin of im2col → GEMM → BatchNorm
/// → QuantReLU → [`pack_image_int2`], for steps folded by
/// [`CodeSteps::bisect`].
///
/// Returns `false`, leaving `out` unwritten, when some accumulator lies
/// outside its channel's `domain` — the range the steps hold on; `acc_ws`
/// then holds the layer path's exact accumulators for the caller to run
/// its own epilogue on. Bumps no op counter: the stem is f32 work.
///
/// # Panics
///
/// Panics on shape mismatches, as [`conv_f32_acc`] and the threshold
/// unit do.
#[allow(clippy::too_many_arguments)]
pub fn conv_f32_codes(
    img: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    weight: &[f32],
    bias: &[f32],
    steps: &[CodeSteps],
    domain: &[[f32; 2]],
    out_pad: usize,
    out: &mut [u64],
    acc_ws: &mut Vec<f32>,
) -> bool {
    let oh = geom.output_dim(h).expect("window must fit");
    let ow = geom.output_dim(w).expect("window must fit");
    // The conv writes every accumulator, so stale contents are fine.
    acc_ws.resize(steps.len() * oh * ow, 0.0);
    if !conv_f32_acc(img, c_in, h, w, geom, weight, bias, Some(domain), acc_ws) {
        return false;
    }
    threshold_pool_pack_int2(acc_ws, steps, oh, ow, 1, out_pad, out);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The op counters are process-wide and tests run on parallel
    /// threads, so every test here that runs a counted kernel holds
    /// this lock: a count read by one cannot take in another's calls.
    static COUNTED_KERNELS: Mutex<()> = Mutex::new(());

    fn counted_kernels() -> MutexGuard<'static, ()> {
        COUNTED_KERNELS.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn naive_dot(w: &[f32], a: &[f32]) -> i32 {
        w.iter().zip(a).map(|(&x, &y)| (x as i32) * (y as i32)).sum()
    }

    fn codes(seed: u64, n: usize, lo: i32, hi: i32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (lo + (s % (hi - lo + 1) as u64) as i32) as f32
            })
            .collect()
    }

    #[test]
    fn packed_dot_matches_naive_across_depths() {
        for k in [0, 1, 5, 63, 64, 65, 128, 200, 256, 300] {
            let w = codes(k as u64 + 1, k, -2, 1);
            let a = codes(k as u64 + 99, k, 0, 3);
            let (mut pw, mut pa) = (Vec::new(), Vec::new());
            pack_weights_int2(&w, 1, k, &mut pw);
            pack_acts_int2(&a, 1, k, &mut pa);
            assert_eq!(portable::dot(&pw, &pa), naive_dot(&w, &a), "k={k}");
        }
    }

    #[test]
    fn strided_pack_matches_contiguous_pack() {
        let (items, k) = (5, 70);
        let cols = codes(7, items * k, 0, 3); // [k, items] layout
        let mut rows = vec![0.0; items * k]; // [items, k] layout
        for kk in 0..k {
            for j in 0..items {
                rows[j * k + kk] = cols[kk * items + j];
            }
        }
        let (mut pc, mut pr) = (Vec::new(), Vec::new());
        pack_acts_cols_int2(&cols, items, k, &mut pc);
        pack_acts_int2(&rows, items, k, &mut pr);
        assert_eq!(pc, pr);
    }

    #[test]
    fn gemm_int2_matches_naive_reference_in_both_layouts() {
        let _counted = counted_kernels();
        let (m, k, n) = (5, 70, 9);
        let w = codes(1, m * k, -2, 1);
        let a = codes(2, n * k, 0, 3);
        let cs: Vec<f32> = (0..m).map(|i| 0.25 + i as f32 * 0.125).collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32 - 2.0).collect();
        let (mut pw, mut pa) = (Vec::new(), Vec::new());
        pack_weights_int2(&w, m, k, &mut pw);
        pack_acts_int2(&a, n, k, &mut pa);
        let mut row = vec![0.0; m * n];
        let mut col = vec![0.0; m * n];
        gemm_int2(m, k, n, &pw, &pa, &cs, &bias, &mut row, OutMajor::Row);
        gemm_int2(m, k, n, &pw, &pa, &cs, &bias, &mut col, OutMajor::Col);
        for i in 0..m {
            for j in 0..n {
                let s = naive_dot(&w[i * k..(i + 1) * k], &a[j * k..(j + 1) * k]);
                let want = (s as f32) * cs[i] + bias[i];
                assert_eq!(row[i * n + j], want);
                assert_eq!(col[j * m + i], want);
            }
        }
    }

    #[test]
    fn op_counters_track_gemm_calls() {
        let _counted = counted_kernels();
        let (m, k, n) = (3, 130, 4);
        let (mut pw, mut pa) = (Vec::new(), Vec::new());
        pack_weights_int2(&codes(3, m * k, -2, 1), m, k, &mut pw);
        pack_acts_int2(&codes(4, n * k, 0, 3), n, k, &mut pa);
        let mut out = vec![0.0; m * n];
        let (mac0, pc0) = op_counters();
        gemm_int2(m, k, n, &pw, &pa, &[1.0; 3], &[0.0; 3], &mut out, OutMajor::Row);
        let (mac1, pc1) = op_counters();
        assert_eq!(mac1 - mac0, (m * n * k) as u64);
        assert_eq!(pc1 - pc0, (m * n * 4 * plane_words(k)) as u64);
    }

    /// The gathered window operands must equal packed im2col
    /// words exactly, across stride/padding/kernel combinations
    /// (including all-padding windows and depth-slot word spills).
    #[test]
    fn gathered_windows_equal_im2col_packed_columns() {
        use crate::conv::{im2col_into, ConvGeometry};
        let ascale = 2.0f32 / 3.0;
        for &(c, h, w, k, s, p) in &[
            (1usize, 5usize, 5usize, 3usize, 1usize, 0usize),
            (3, 8, 6, 3, 1, 1),
            (2, 7, 7, 3, 2, 1),
            (4, 9, 9, 5, 1, 2),  // kk = 100 > 64: spill into word 1
            (8, 6, 6, 3, 1, 1),  // kk = 72: depth slots straddle bit 64
            (1, 1, 1, 1, 1, 2),  // all-padding windows around a 1×1 input
            (2, 4, 4, 4, 3, 3),  // pad ≥ kernel-1 rows fully in padding
            (1, 70, 70, 3, 1, 0), // rows wider than one word
        ] {
            let geom = ConvGeometry::new(k).with_stride(s).with_padding(p);
            let (oh, ow) = (
                geom.output_dim(h).expect("fits"),
                geom.output_dim(w).expect("fits"),
            );
            let acodes = codes((c * h * w) as u64 + 7, c * h * w, 0, 3);
            let vals: Vec<f32> = acodes.iter().map(|&a| a * ascale).collect();
            // Reference route: im2col over values, code rounding, pack.
            let kk = c * k * k;
            let mut cols = Vec::new();
            im2col_into(&vals, c, h, w, geom, &mut cols);
            act_codes_in_place(&mut cols, ascale);
            let mut want = Vec::new();
            pack_acts_cols_int2(&cols, oh * ow, kk, &mut want);
            // Direct route: pack the image once, gather windows.
            let (mut image, mut got) = (Vec::new(), Vec::new());
            pack_image_int2(&vals, ascale, c, h, w, p, &mut image);
            gather_conv_windows_int2(&image, c, h, w, geom, &mut got);
            assert_eq!(got, want, "c={c} h={h} w={w} k={k} s={s} p={p}");
        }
    }

    #[test]
    fn direct_conv_matches_gemm_over_im2col_and_counts_calls() {
        let _counted = counted_kernels();
        use crate::conv::{im2col_into, ConvGeometry};
        let (c_in, h, w, c_out) = (3, 8, 8, 5);
        let geom = ConvGeometry::new(3).with_padding(1);
        let kk = c_in * 9;
        let (oh, ow) = (8, 8);
        let ascale = 0.37f32;
        let acodes = codes(11, c_in * h * w, 0, 3);
        let vals: Vec<f32> = acodes.iter().map(|&a| a * ascale).collect();
        let wcodes = codes(12, c_out * kk, -2, 1);
        let mut wplanes = Vec::new();
        pack_weights_int2(&wcodes, c_out, kk, &mut wplanes);
        let cs: Vec<f32> = (0..c_out).map(|i| 0.1 + i as f32 * 0.05).collect();
        let bias: Vec<f32> = (0..c_out).map(|i| i as f32 * 0.25 - 0.5).collect();

        let mut want = vec![0.0; c_out * oh * ow];
        let mut cols = Vec::new();
        im2col_into(&vals, c_in, h, w, geom, &mut cols);
        act_codes_in_place(&mut cols, ascale);
        let mut packed = Vec::new();
        pack_acts_cols_int2(&cols, oh * ow, kk, &mut packed);
        gemm_int2(c_out, kk, oh * ow, &wplanes, &packed, &cs, &bias, &mut want, OutMajor::Row);

        let calls0 = direct_conv_calls();
        let (mac0, pc0) = op_counters();
        let mut got = vec![0.0; c_out * oh * ow];
        let (mut img_ws, mut cols_ws) = (Vec::new(), Vec::new());
        conv_int2_direct(
            &vals, ascale, c_in, h, w, geom, &wplanes, c_out, &cs, &bias, &mut got, &mut img_ws,
            &mut cols_ws,
        );
        let (mac1, pc1) = op_counters();
        assert_eq!(direct_conv_calls() - calls0, 1);
        // Same GEMM shape ⇒ same counter deltas as the im2col composition.
        assert_eq!(mac1 - mac0, (c_out * oh * ow * kk) as u64);
        assert_eq!(pc1 - pc0, (c_out * oh * ow * 4 * plane_words(kk)) as u64);
        let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, want_bits);
    }

    /// One routing rule: the gather's kernel bound, at any filter count.
    #[test]
    fn conv_engine_routing_is_the_gather_kernel_bound() {
        for c_out in [1, 2, 3, 8, 31, usize::MAX] {
            for kernel in 1..=MAX_DIRECT_KERNEL {
                assert!(conv_engine_profitable(c_out, kernel));
            }
            assert!(!conv_engine_profitable(c_out, MAX_DIRECT_KERNEL + 1));
        }
    }

    #[test]
    fn code_recovery_is_exact_on_the_quant_grid() {
        // Acts: every grid point of a few scales round-trips.
        for scale in [2.0f32 / 3.0, 0.013, 1.0, 7.3e-3] {
            let mut v: Vec<f32> = (0..4).map(|c| c as f32 * scale).collect();
            act_codes_in_place(&mut v, scale);
            assert_eq!(v, [0.0, 1.0, 2.0, 3.0]);
        }
        // Weights: code*scale recovers the code for every signed code.
        let scales = [0.5f32, 0.037, 1.25];
        let q: Vec<f32> = scales
            .iter()
            .flat_map(|&s| [-2.0 * s, -s, 0.0, s])
            .collect();
        let mut out = Vec::new();
        weight_codes_into(&q, &scales, 4, &mut out);
        assert_eq!(out, [-2.0, -1.0, 0.0, 1.0].repeat(3));
    }
}
