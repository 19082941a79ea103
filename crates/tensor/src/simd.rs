//! `f32` SIMD kernels with deterministic lane semantics.
//!
//! Every hot elementwise loop in the engine — the fake-quantization grid
//! snap, the straight-through-estimator mask, batch-norm's
//! normalize/backward maps, the softmax epilogue and the SGD update —
//! and the GEMM panel route through this module. Three backends
//! implement the GEMM panel, two every other operation:
//!
//! * **AVX-512** (`x86_64`, runtime-detected): the 16-lane GEMM panel
//!   ([`avx512::gemm_panel`]); the elementwise maps and folds run their
//!   AVX2 build under it.
//! * **AVX2** (`x86_64`, selected at runtime via
//!   `is_x86_feature_detected!`): the register-tiled 8-wide GEMM panel
//!   in `std::arch` intrinsics, and the portable source of every
//!   elementwise map and fold compiled again with the `avx2` target
//!   feature enabled.
//! * **Portable**: plain scalar loops — the one body of each map and
//!   fold, and the three-phase GEMM panel.
//!
//! All paths are **bit-identical** on every input, NaN and ±0 included,
//! which keeps every result thread-count- and dispatch-invariant (the
//! repo-wide determinism contract). Three properties make that possible:
//!
//! 1. Every lane operation is exactly rounded per IEEE 754 or fully
//!    specified bitwise, so a vector op produces the same bits as the
//!    scalar ops it replaces. The maps and folds use no operation whose
//!    result Rust leaves unspecified: `f32::max`/`f32::min` may return
//!    either zero for `max(-0.0, 0.0)`, so max is written
//!    `if a > b { a } else { b }` and min `if a < b { a } else { b }` —
//!    exactly `MAXPS`/`MINPS`, whatever width the compiler picks.
//! 2. **No FMA contraction**: Rust never contracts `a * b + c` into a
//!    fused multiply-add, and the intrinsic GEMM panels multiply and add
//!    as separate instructions, so multiply-then-add stays two exactly
//!    rounded steps everywhere.
//! 3. Accumulation order never changes: lanes map 1:1 onto output
//!    elements (no horizontal reductions on accumulation paths), and
//!    the only folds ([`fold_max`]/[`fold_max_abs`]) spell out an
//!    eight-accumulator lane loop, a lane-order fold and a sequential
//!    tail, which the compiler may vectorize but not reorder.
//!
//! Dispatch is CPU detection, resolved once and cached: the portable
//! backend is the only path on hosts without AVX2, and
//! [`override_backend`] is how benches/tests reach it elsewhere.
//!
//! The integer sibling of this module is [`crate::int2`]: the bit-packed
//! popcount GEMM reuses the same [`Backend`]/override dispatch scheme,
//! but gets cross-backend bit-identity for free from integer arithmetic
//! instead of the rules above. A kernel whose lanes map 1:1 onto outputs
//! computes the same bits at any width — the GEMM panel here, the
//! stem's f32 conv ([`crate::int2::conv_f32_acc`]) and the conv
//! backward ([`crate::conv_grad`]) run sixteen on AVX-512.

use std::sync::atomic::{AtomicU8, Ordering};

/// Lanes of one AVX2 vector: the AVX2 GEMM panel's tile unit, and the
/// accumulator count the two max folds spell out in their one source,
/// so every build of them reduces in the same order.
pub const LANES: usize = 8;

/// Which implementation services the dispatched entry points, best
/// first: a host that has one backend has every backend after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// AVX-512 with `VPOPCNTDQ` (x86-64 only, runtime-detected): the
    /// [`crate::int2`] kernels count 64-bit lanes natively, and the f32
    /// GEMM panel and conv backward run sixteen lanes. The elementwise
    /// maps and folds of this module run their AVX2 build under it (an
    /// AVX-512F build of the same source would compute the same bits).
    Avx512,
    /// AVX2 (x86-64 only, runtime-detected): 8-wide intrinsic GEMM panel,
    /// and the portable maps and folds compiled for AVX2.
    Avx2,
    /// Scalar fallback; bit-identical to AVX2.
    Portable,
}

impl Backend {
    const ALL: [Backend; 3] = [Backend::Avx512, Backend::Avx2, Backend::Portable];

    /// The first CPU feature this host lacks for the backend's bodies,
    /// `None` when it can run them. AVX-512 means the `VPOPCNTDQ`
    /// subset: an AVX-512F part without it (Skylake-X, Cascade Lake)
    /// would have to emulate the popcount as AVX2 does, on fewer vector
    /// ports, so it stays on AVX2. AVX2 includes the scalar
    /// `POPCNT` the int2 remainder loops lean on (every AVX2 part ships
    /// it, but check anyway).
    pub(crate) fn missing_feature(self) -> Option<&'static str> {
        #[cfg(target_arch = "x86_64")]
        {
            macro_rules! first_missing {
                ($($feature:tt),*) => {
                    [$(($feature, std::arch::is_x86_feature_detected!($feature))),*]
                        .into_iter()
                        .find(|&(_, detected)| !detected)
                        .map(|(feature, _)| feature)
                };
            }
            match self {
                Backend::Avx512 => first_missing!("avx2", "popcnt", "avx512f", "avx512vpopcntdq"),
                Backend::Avx2 => first_missing!("avx2", "popcnt"),
                Backend::Portable => None,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        match self {
            Backend::Portable => None,
            _ => Some("x86_64"),
        }
    }

    /// The best backend this host can run.
    pub(crate) fn detect() -> Backend {
        let runnable = |b: &Backend| b.missing_feature().is_none();
        Backend::ALL.into_iter().find(runnable).expect("the portable backend runs anywhere")
    }
}

/// One dispatcher's backend choice, cached: 0 until first use, then the
/// chosen backend's discriminant + 1 — detected or forced, the
/// dispatchers cannot tell and need not.
pub(crate) struct BackendCell {
    code: AtomicU8,
    /// The dispatcher's detection rule: the best backend of this host
    /// its kernels have bodies for.
    detect: fn() -> Backend,
}

impl BackendCell {
    pub(crate) const fn new(detect: fn() -> Backend) -> Self {
        Self { code: AtomicU8::new(0), detect }
    }

    /// The cached backend, detected on first use.
    #[inline]
    pub(crate) fn get(&self) -> Backend {
        match self.code.load(Ordering::Relaxed) {
            0 => {
                // Racing initializers compute the same value — but never
                // clobber an explicit override.
                let code = (self.detect)() as u8 + 1;
                let _ = self.code.compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
                self.get()
            }
            code => Backend::ALL[code as usize - 1],
        }
    }

    /// Pins the cell to `backend`, or back to detection for `None`.
    ///
    /// # Panics
    ///
    /// Panics, naming the missing CPU feature, when this host cannot
    /// run `backend`.
    pub(crate) fn set(&self, backend: Option<Backend>) {
        let backend = backend.unwrap_or_else(self.detect);
        if let Some(feature) = backend.missing_feature() {
            panic!("{backend:?} backend unavailable on this host: no {feature}");
        }
        self.code.store(backend as u8 + 1, Ordering::Relaxed);
    }
}

static BACKEND: BackendCell = BackendCell::new(Backend::detect);

/// The backend the dispatched operations currently use.
pub fn active_backend() -> Backend {
    BACKEND.get()
}

/// Pins the dispatch to one backend (`Some`) or restores runtime
/// detection (`None`). Bench/test hook: because the backends are
/// bit-identical, flipping this never changes results, only which code
/// path produces them.
///
/// # Panics
///
/// Panics when asked to force a backend this host lacks a CPU feature
/// for, naming the feature.
pub fn override_backend(backend: Option<Backend>) {
    BACKEND.set(backend);
}

macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {
        match active_backend() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `active_backend` only reports a vector backend
            // after runtime feature detection (or an override that
            // re-checked it), and AVX-512 hosts have AVX2: the
            // elementwise maps and folds have only an AVX2 build.
            Backend::Avx512 | Backend::Avx2 => unsafe { avx2::$name($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2 => portable::$name($($arg),*),
            Backend::Portable => portable::$name($($arg),*),
        }
    };
}

/// Fake-quantizes in place: `v = clamp(round(v / scale), lo, hi) * scale`
/// with round-half-away-from-zero (exactly `f32::round`) and clamp
/// realized as the select max `q > lo ? q : lo` then the select min
/// `q < hi ? q : hi` — so a `q` of −0 clamps to a `lo` of +0, and NaN
/// to `lo`.
#[inline]
pub fn fake_quant_slice(v: &mut [f32], scale: f32, lo: f32, hi: f32) {
    dispatch!(fake_quant_slice(v, scale, lo, hi))
}

/// `mask[j] = 1.0` where `lo < x[j] < hi` (strict), else `0.0` — the
/// straight-through-estimator window mask.
#[inline]
pub fn range_mask_slice(mask: &mut [f32], x: &[f32], lo: f32, hi: f32) {
    debug_assert_eq!(mask.len(), x.len());
    dispatch!(range_mask_slice(mask, x, lo, hi))
}

/// `out[j] = g * ((src[j] - mean) * inv_std) + b` — batch-norm's affine
/// normalize with per-channel constants.
#[inline]
pub fn normalize_affine(out: &mut [f32], src: &[f32], mean: f32, inv_std: f32, g: f32, b: f32) {
    debug_assert_eq!(out.len(), src.len());
    dispatch!(normalize_affine(out, src, mean, inv_std, g, b))
}

/// [`normalize_affine`] that also stores the normalized value
/// `xhat[j] = (src[j] - mean) * inv_std` for the backward pass.
#[inline]
pub fn normalize_affine_xhat(
    out: &mut [f32],
    xhat: &mut [f32],
    src: &[f32],
    mean: f32,
    inv_std: f32,
    g: f32,
    b: f32,
) {
    debug_assert_eq!(out.len(), src.len());
    debug_assert_eq!(xhat.len(), src.len());
    dispatch!(normalize_affine_xhat(out, xhat, src, mean, inv_std, g, b))
}

/// Batch-norm input gradient:
/// `dx[j] = coeff * (count * dy[j] - sum_dy - xhat[j] * sum_dy_xhat)`,
/// associated exactly as written.
#[inline]
pub fn bn_backward_dx(
    dx: &mut [f32],
    dy: &[f32],
    xhat: &[f32],
    coeff: f32,
    count: f32,
    sum_dy: f32,
    sum_dy_xhat: f32,
) {
    debug_assert_eq!(dx.len(), dy.len());
    debug_assert_eq!(xhat.len(), dy.len());
    dispatch!(bn_backward_dx(dx, dy, xhat, coeff, count, sum_dy, sum_dy_xhat))
}

/// SGD-with-momentum update:
/// `v = (momentum * v + g) + wd * w; w -= lr * v`.
#[inline]
pub fn sgd_update(w: &mut [f32], g: &[f32], v: &mut [f32], lr: f32, momentum: f32, wd: f32) {
    debug_assert_eq!(w.len(), g.len());
    debug_assert_eq!(w.len(), v.len());
    dispatch!(sgd_update(w, g, v, lr, momentum, wd))
}

/// `x[j] /= d` (true division — *not* multiplication by a reciprocal,
/// which would round differently).
#[inline]
pub fn div_scalar(x: &mut [f32], d: f32) {
    dispatch!(div_scalar(x, d))
}

/// Fold of the select max `acc > x ? acc : x` over `xs` starting from
/// `init`: [`LANES`] accumulators seeded with `init` take the body in
/// lane order, fold into `init` in lane order, then the tail follows.
/// Away from NaN and zeros of both signs any fold order gives the same
/// value; at those this fixed structure decides, on every backend.
#[inline]
pub fn fold_max(init: f32, xs: &[f32]) -> f32 {
    dispatch!(fold_max(init, xs))
}

/// Fold of `max(acc, |x|)` over `xs` starting from `init` (the max-abs
/// reduction behind symmetric quantization scales).
#[inline]
pub fn fold_max_abs(init: f32, xs: &[f32]) -> f32 {
    dispatch!(fold_max_abs(init, xs))
}

/// The `A` element feeding output row `row` at reduction step `kk`:
/// `a[row*lda + kk]` for row-major `A` or, with `TRANS`, `a[kk*lda + row]`
/// for the transposed layout the backward passes use.
#[inline(always)]
fn a_elem<const TRANS: bool>(a: &[f32], lda: usize, row: usize, kk: usize) -> f32 {
    if TRANS {
        a[kk * lda + row]
    } else {
        a[row * lda + kk]
    }
}

/// Unchecked [`a_elem`] for the vector panels: their preconditions
/// guarantee the index is in bounds, and the checked form's
/// `lea/cmp/jae` per `A` load otherwise sits in the middle of the
/// port-bound k-loop.
///
/// # Safety
/// `row`/`kk` must address a valid element of `a` under `lda`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn a_elem_raw<const TRANS: bool>(a: &[f32], lda: usize, row: usize, kk: usize) -> f32 {
    let idx = if TRANS { kk * lda + row } else { row * lda + kk };
    debug_assert!(idx < a.len());
    *a.get_unchecked(idx)
}

/// The GEMM panel microkernel: sweeps columns `j0..j1` of one block of
/// `rr <= 4` contiguous `C` rows (`c`, laid out `rr x n`, row 0 = global
/// output row `gr`) over reduction steps `k0..k1` of `B: [.., n]`.
/// Columns are independent, so the caller may chunk `j0..j1` freely (for
/// cache residency) without changing a single bit of the result.
///
/// Semantics per element, identical on every backend:
/// * when `init`, step `k0` *writes* `0.0 + a*b` (no read of `C`);
/// * middle steps accumulate `c += a*b` in ascending-`k` order, every
///   step, whatever the data — no branch on the value of `A`;
/// * when `bias` is given, the final step folds it as `(c + a*b) + bias`
///   (the bias row is indexed by the global row `gr + r`).
///
/// A zero `A` element costs a full step rather than being skipped. For
/// finite `B` that cannot change a bit: a `c` the panel wrote is
/// `0.0 + a*b`, never −0 (every `gemm` entry point writes its first
/// step), and a sum of two values that are not both −0 is never −0, so
/// each zero step adds ±0 to a `c` that is not −0 and returns it
/// unchanged. Only a zero times a non-finite `B` element differs from a
/// skip: it makes the element NaN.
///
/// The vector backends keep the accumulators in registers across the
/// whole `k` sweep (AVX2: column tiles of 16/8 plus a scalar tail;
/// AVX-512: tiles of 32/16 plus one masked tile), which is where the
/// GEMM speedup lives; the portable backend is the plain three-phase SAXPY
/// loop. All apply the exact same exactly-rounded operation sequence per
/// element, so they agree bit for bit.
///
/// # Panics
///
/// Panics (in debug) when `c` is not `rr * n` long or `rr` is outside
/// `1..=4`.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn gemm_panel<const TRANS: bool>(
    c: &mut [f32],
    n: usize,
    rr: usize,
    a: &[f32],
    lda: usize,
    gr: usize,
    b: &[f32],
    k0: usize,
    k1: usize,
    j0: usize,
    j1: usize,
    init: bool,
    bias: Option<&[f32]>,
) {
    debug_assert_eq!(c.len(), rr * n);
    debug_assert!((1..=4).contains(&rr));
    debug_assert!(b.len() >= k1 * n);
    debug_assert!(j0 <= j1 && j1 <= n);
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_backend` only reports a vector backend after
        // runtime feature detection (or an override that re-checked it).
        Backend::Avx512 => unsafe {
            avx512::gemm_panel::<TRANS>(c, n, rr, a, lda, gr, b, k0, k1, j0, j1, init, bias)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Backend::Avx2 => unsafe {
            avx2::gemm_panel::<TRANS>(c, n, rr, a, lda, gr, b, k0, k1, j0, j1, init, bias)
        },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx512 | Backend::Avx2 => {
            portable::gemm_panel::<TRANS>(c, n, rr, a, lda, gr, b, k0, k1, j0, j1, init, bias)
        }
        Backend::Portable => {
            portable::gemm_panel::<TRANS>(c, n, rr, a, lda, gr, b, k0, k1, j0, j1, init, bias)
        }
    }
}

/// The portable backend: the one body of every elementwise map and fold
/// (the AVX2 backend compiles these same functions for AVX2), plus the
/// scalar GEMM panel. Elementwise maps carry no cross-lane state; the two
/// folds keep an explicit [`LANES`]-accumulator structure so that any
/// vector width the compiler chooses reduces in the same order.
pub mod portable {
    use super::LANES;

    #[inline]
    fn axpy_init(c: &mut [f32], a: f32, b: &[f32]) {
        for (cv, &bv) in c.iter_mut().zip(b) {
            *cv = 0.0 + a * bv;
        }
    }

    #[inline]
    fn axpy(c: &mut [f32], a: f32, b: &[f32]) {
        for (cv, &bv) in c.iter_mut().zip(b) {
            *cv += a * bv;
        }
    }

    #[inline]
    fn axpy_init_bias(c: &mut [f32], a: f32, b: &[f32], bias: f32) {
        for (cv, &bv) in c.iter_mut().zip(b) {
            *cv = (0.0 + a * bv) + bias;
        }
    }

    #[inline]
    fn axpy_bias(c: &mut [f32], a: f32, b: &[f32], bias: f32) {
        for (cv, &bv) in c.iter_mut().zip(b) {
            *cv = (*cv + a * bv) + bias;
        }
    }

    /// `a > b ? a : b`, the `MAXPS` lane op: `b` whenever `a > b` is
    /// false, so its result is specified at a ±0 tie and at NaN, where
    /// `f32::max`'s is not.
    #[inline(always)]
    fn select_max(a: f32, b: f32) -> f32 {
        if a > b {
            a
        } else {
            b
        }
    }

    /// `a < b ? a : b`, the `MINPS` lane op.
    #[inline(always)]
    fn select_min(a: f32, b: f32) -> f32 {
        if a < b {
            a
        } else {
            b
        }
    }

    #[inline(always)]
    pub fn fake_quant_slice(v: &mut [f32], scale: f32, lo: f32, hi: f32) {
        for x in v {
            let q = select_min(select_max((*x / scale).round(), lo), hi);
            *x = q * scale;
        }
    }

    #[inline(always)]
    pub fn range_mask_slice(mask: &mut [f32], x: &[f32], lo: f32, hi: f32) {
        for (m, &v) in mask.iter_mut().zip(x) {
            *m = if v > lo && v < hi { 1.0 } else { 0.0 };
        }
    }

    #[inline(always)]
    pub fn normalize_affine(out: &mut [f32], src: &[f32], mean: f32, inv_std: f32, g: f32, b: f32) {
        for (o, &s) in out.iter_mut().zip(src) {
            *o = g * ((s - mean) * inv_std) + b;
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn normalize_affine_xhat(
        out: &mut [f32],
        xhat: &mut [f32],
        src: &[f32],
        mean: f32,
        inv_std: f32,
        g: f32,
        b: f32,
    ) {
        for ((o, xh), &s) in out.iter_mut().zip(xhat.iter_mut()).zip(src) {
            let h = (s - mean) * inv_std;
            *xh = h;
            *o = g * h + b;
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub fn bn_backward_dx(
        dx: &mut [f32],
        dy: &[f32],
        xhat: &[f32],
        coeff: f32,
        count: f32,
        sum_dy: f32,
        sum_dy_xhat: f32,
    ) {
        for ((d, &y), &xh) in dx.iter_mut().zip(dy).zip(xhat) {
            *d = coeff * (count * y - sum_dy - xh * sum_dy_xhat);
        }
    }

    #[inline(always)]
    pub fn sgd_update(w: &mut [f32], g: &[f32], v: &mut [f32], lr: f32, momentum: f32, wd: f32) {
        for ((wv, &gv), vv) in w.iter_mut().zip(g).zip(v.iter_mut()) {
            *vv = momentum * *vv + gv + wd * *wv;
            *wv -= lr * *vv;
        }
    }

    #[inline(always)]
    pub fn div_scalar(x: &mut [f32], d: f32) {
        for v in x {
            *v /= d;
        }
    }

    /// The fold behind [`fold_max`] and [`fold_max_abs`]: `f` maps each
    /// element before it enters the select max.
    #[inline(always)]
    fn fold_select_max(init: f32, xs: &[f32], f: impl Fn(f32) -> f32) -> f32 {
        let mut chunks = xs.chunks_exact(LANES);
        let mut acc = [init; LANES];
        for chunk in &mut chunks {
            for (a, &v) in acc.iter_mut().zip(chunk) {
                *a = select_max(*a, f(v));
            }
        }
        let m = acc.into_iter().fold(init, select_max);
        chunks
            .remainder()
            .iter()
            .fold(m, |m, &v| select_max(m, f(v)))
    }

    #[inline(always)]
    pub fn fold_max(init: f32, xs: &[f32]) -> f32 {
        fold_select_max(init, xs, |v| v)
    }

    #[inline(always)]
    pub fn fold_max_abs(init: f32, xs: &[f32]) -> f32 {
        fold_select_max(init, xs, f32::abs)
    }

    /// Portable [`super::gemm_panel`]: three straight-line phases — the
    /// write step, the SAXPY middle, and the bias step — so the hot loops
    /// carry no per-step dispatch.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn gemm_panel<const TRANS: bool>(
        c: &mut [f32],
        n: usize,
        rr: usize,
        a: &[f32],
        lda: usize,
        gr: usize,
        b: &[f32],
        k0: usize,
        k1: usize,
        j0: usize,
        j1: usize,
        init: bool,
        bias: Option<&[f32]>,
    ) {
        let mut it = c.chunks_exact_mut(n);
        macro_rules! run {
            ($RR:literal) => {{
                let mut rows: [&mut [f32]; $RR] =
                    std::array::from_fn(|_| &mut it.next().expect("rr rows of C")[j0..j1]);
                let mut kk = k0;
                let last = if bias.is_some() { k1 - 1 } else { k1 };
                if init && kk < k1 {
                    let b_row = &b[kk * n + j0..kk * n + j1];
                    if kk == last {
                        let bs = bias.expect("bias step");
                        for (r, row) in rows.iter_mut().enumerate() {
                            axpy_init_bias(row, super::a_elem::<TRANS>(a, lda, gr + r, kk), b_row, bs[gr + r]);
                        }
                    } else {
                        for (r, row) in rows.iter_mut().enumerate() {
                            axpy_init(row, super::a_elem::<TRANS>(a, lda, gr + r, kk), b_row);
                        }
                    }
                    kk += 1;
                }
                while kk < last {
                    let b_row = &b[kk * n + j0..kk * n + j1];
                    for (r, row) in rows.iter_mut().enumerate() {
                        axpy(row, super::a_elem::<TRANS>(a, lda, gr + r, kk), b_row);
                    }
                    kk += 1;
                }
                if kk < k1 {
                    let b_row = &b[kk * n + j0..kk * n + j1];
                    let bs = bias.expect("bias step");
                    for (r, row) in rows.iter_mut().enumerate() {
                        axpy_bias(row, super::a_elem::<TRANS>(a, lda, gr + r, kk), b_row, bs[gr + r]);
                    }
                }
            }};
        }
        match rr {
            4 => run!(4),
            3 => run!(3),
            2 => run!(2),
            _ => run!(1),
        }
    }
}

/// The AVX2 backend. Every function is `unsafe` because it requires the
/// `avx2` target feature at runtime; the dispatcher (and any direct
/// caller, e.g. the bit-identity tests) must verify it first via
/// `is_x86_feature_detected!("avx2")`.
///
/// The elementwise maps and folds are the portable bodies compiled again
/// with AVX2 enabled: the same source, so the same bits. The GEMM panel is
/// hand-tiled in intrinsics, multiplication and addition always separate
/// — never `_mm256_fmadd_ps` — so every intermediate rounds exactly like
/// the portable panel's scalar ops.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::{a_elem_raw, LANES};
    use std::arch::x86_64::*;

    /// Emits, for each listed signature, an AVX2-enabled entry point that
    /// calls the `#[inline(always)]` portable body of the same name, so
    /// that body is compiled for AVX2 in place.
    macro_rules! avx2_build {
        ($(fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?;)*) => {$(
            /// The portable body of the same name, compiled for AVX2.
            ///
            /// # Safety
            /// Requires AVX2.
            #[allow(clippy::too_many_arguments)]
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
                super::portable::$name($($arg),*)
            }
        )*};
    }

    avx2_build! {
        fn fake_quant_slice(v: &mut [f32], scale: f32, lo: f32, hi: f32);
        fn range_mask_slice(mask: &mut [f32], x: &[f32], lo: f32, hi: f32);
        fn normalize_affine(out: &mut [f32], src: &[f32], mean: f32, inv_std: f32, g: f32, b: f32);
        fn normalize_affine_xhat(
            out: &mut [f32],
            xhat: &mut [f32],
            src: &[f32],
            mean: f32,
            inv_std: f32,
            g: f32,
            b: f32,
        );
        fn bn_backward_dx(
            dx: &mut [f32],
            dy: &[f32],
            xhat: &[f32],
            coeff: f32,
            count: f32,
            sum_dy: f32,
            sum_dy_xhat: f32,
        );
        fn sgd_update(w: &mut [f32], g: &[f32], v: &mut [f32], lr: f32, momentum: f32, wd: f32);
        fn div_scalar(x: &mut [f32], d: f32);
        fn fold_max(init: f32, xs: &[f32]) -> f32;
        fn fold_max_abs(init: f32, xs: &[f32]) -> f32;
    }

    /// AVX2 [`super::gemm_panel`]: register-tiled. Columns are walked in
    /// tiles of 16 (two vectors per row) then 8, with the `C` accumulators
    /// held in registers across the entire `k0..k1` sweep — `C` is loaded
    /// and stored once per tile instead of once per `k` step, and one
    /// broadcast `A` element feeds a full tile row. Remaining columns run
    /// the scalar per-element sequence. Lanes map 1:1 onto `C` elements
    /// and every element still accumulates mul-then-add in ascending-`k`
    /// order, so the result is bit-identical to the portable panel.
    ///
    /// # Safety
    /// Requires AVX2. `c.len() == rr * n`, `rr` in `1..=4`,
    /// `b.len() >= k1 * n`, `bias` (when present) indexable at
    /// `gr + rr - 1`, and `a` indexable per [`super::a_elem`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_panel<const TRANS: bool>(
        c: &mut [f32],
        n: usize,
        rr: usize,
        a: &[f32],
        lda: usize,
        gr: usize,
        b: &[f32],
        k0: usize,
        k1: usize,
        j0: usize,
        j1: usize,
        init: bool,
        bias: Option<&[f32]>,
    ) {
        match rr {
            4 => panel_rr::<TRANS, 4>(c, n, a, lda, gr, b, k0, k1, j0, j1, init, bias),
            3 => panel_rr::<TRANS, 3>(c, n, a, lda, gr, b, k0, k1, j0, j1, init, bias),
            2 => panel_rr::<TRANS, 2>(c, n, a, lda, gr, b, k0, k1, j0, j1, init, bias),
            _ => panel_rr::<TRANS, 1>(c, n, a, lda, gr, b, k0, k1, j0, j1, init, bias),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn panel_rr<const TRANS: bool, const RR: usize>(
        c: &mut [f32],
        n: usize,
        a: &[f32],
        lda: usize,
        gr: usize,
        b: &[f32],
        k0: usize,
        k1: usize,
        j0: usize,
        j1: usize,
        init: bool,
        bias: Option<&[f32]>,
    ) {
        let mut j = j0;
        while j + 2 * LANES <= j1 {
            tile::<TRANS, RR, 2>(c, n, a, lda, gr, b, k0, k1, init, bias, j);
            j += 2 * LANES;
        }
        if j + LANES <= j1 {
            tile::<TRANS, RR, 1>(c, n, a, lda, gr, b, k0, k1, init, bias, j);
            j += LANES;
        }
        // Scalar tail columns: the same per-element phase sequence, with
        // the `RR` per-row accumulators carried together (k outermost) so
        // the rows' add chains interleave instead of serializing.
        let last = if bias.is_some() { k1 - 1 } else { k1 };
        for jj in j..j1 {
            let mut kk = k0;
            let mut acc_s: [f32; RR];
            if init && kk < k1 {
                let bv = *b.get_unchecked(kk * n + jj);
                acc_s = std::array::from_fn(|r| {
                    0.0 + a_elem_raw::<TRANS>(a, lda, gr + r, kk) * bv
                });
                if kk == last {
                    let bs = bias.expect("bias step");
                    for (r, v) in acc_s.iter_mut().enumerate() {
                        *v += *bs.get_unchecked(gr + r);
                    }
                }
                kk += 1;
            } else {
                acc_s = std::array::from_fn(|r| *c.get_unchecked(r * n + jj));
            }
            while kk < last {
                let bv = *b.get_unchecked(kk * n + jj);
                for (r, v) in acc_s.iter_mut().enumerate() {
                    *v += a_elem_raw::<TRANS>(a, lda, gr + r, kk) * bv;
                }
                kk += 1;
            }
            if kk < k1 {
                let bs = bias.expect("bias step");
                let bv = *b.get_unchecked(kk * n + jj);
                for (r, v) in acc_s.iter_mut().enumerate() {
                    let ar = a_elem_raw::<TRANS>(a, lda, gr + r, kk);
                    *v = (*v + ar * bv) + *bs.get_unchecked(gr + r);
                }
            }
            for (r, &v) in acc_s.iter().enumerate() {
                *c.get_unchecked_mut(r * n + jj) = v;
            }
        }
    }

    /// One `RR x (NV*8)` register tile of `C` starting at column `j`,
    /// swept over `k0..k1` entirely in registers.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile<const TRANS: bool, const RR: usize, const NV: usize>(
        c: &mut [f32],
        n: usize,
        a: &[f32],
        lda: usize,
        gr: usize,
        b: &[f32],
        k0: usize,
        k1: usize,
        init: bool,
        bias: Option<&[f32]>,
        j: usize,
    ) {
        let last = if bias.is_some() { k1 - 1 } else { k1 };
        let mut kk = k0;
        let mut acc: [[__m256; NV]; RR];
        if init && kk < k1 {
            let zero = _mm256_setzero_ps();
            let bv: [__m256; NV] =
                std::array::from_fn(|v| _mm256_loadu_ps(b.as_ptr().add(kk * n + j + v * LANES)));
            acc = std::array::from_fn(|r| {
                let ar = _mm256_set1_ps(a_elem_raw::<TRANS>(a, lda, gr + r, kk));
                std::array::from_fn(|v| _mm256_add_ps(zero, _mm256_mul_ps(ar, bv[v])))
            });
            if kk == last {
                let bs = bias.expect("bias step");
                for (r, row) in acc.iter_mut().enumerate() {
                    let vb = _mm256_set1_ps(*bs.get_unchecked(gr + r));
                    for lane in row.iter_mut() {
                        *lane = _mm256_add_ps(*lane, vb);
                    }
                }
            }
            kk += 1;
        } else {
            acc = std::array::from_fn(|r| {
                std::array::from_fn(|v| _mm256_loadu_ps(c.as_ptr().add(r * n + j + v * LANES)))
            });
        }
        while kk < last {
            let bv: [__m256; NV] =
                std::array::from_fn(|v| _mm256_loadu_ps(b.as_ptr().add(kk * n + j + v * LANES)));
            for (r, row) in acc.iter_mut().enumerate() {
                let var = _mm256_set1_ps(a_elem_raw::<TRANS>(a, lda, gr + r, kk));
                for (lane, &bvv) in row.iter_mut().zip(bv.iter()) {
                    *lane = _mm256_add_ps(*lane, _mm256_mul_ps(var, bvv));
                }
            }
            kk += 1;
        }
        if kk < k1 {
            let bs = bias.expect("bias step");
            let bv: [__m256; NV] =
                std::array::from_fn(|v| _mm256_loadu_ps(b.as_ptr().add(kk * n + j + v * LANES)));
            for (r, row) in acc.iter_mut().enumerate() {
                let var = _mm256_set1_ps(a_elem_raw::<TRANS>(a, lda, gr + r, kk));
                let vb = _mm256_set1_ps(*bs.get_unchecked(gr + r));
                for (lane, &bvv) in row.iter_mut().zip(bv.iter()) {
                    *lane = _mm256_add_ps(_mm256_add_ps(*lane, _mm256_mul_ps(var, bvv)), vb);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &lane) in row.iter().enumerate() {
                _mm256_storeu_ps(c.as_mut_ptr().add(r * n + j + v * LANES), lane);
            }
        }
    }
}

/// The AVX-512 backend: the sixteen-lane GEMM panel. Its operation
/// sequence per element is the AVX2 panel's — mul then add as separate
/// intrinsics, never `_mm512_fmadd_ps` — so it agrees with the other
/// backends bit for bit.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use super::a_elem_raw;
    use std::arch::x86_64::*;

    /// Lanes of one vector.
    const W: usize = 16;

    /// AVX-512 [`super::gemm_panel`]: register tiles of 32 columns (two
    /// vectors per row), then 16-column tiles whose last one is masked
    /// to the ragged end, so no column runs scalar. The `C` accumulators
    /// stay in registers across the whole `k0..k1` sweep, as in the
    /// AVX2 panel.
    ///
    /// # Safety
    /// Requires AVX-512F. `c.len() == rr * n`, `rr` in `1..=4`,
    /// `b.len() >= k1 * n`, `bias` (when present) indexable at
    /// `gr + rr - 1`, and `a` indexable per [`super::a_elem`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_panel<const TRANS: bool>(
        c: &mut [f32],
        n: usize,
        rr: usize,
        a: &[f32],
        lda: usize,
        gr: usize,
        b: &[f32],
        k0: usize,
        k1: usize,
        j0: usize,
        j1: usize,
        init: bool,
        bias: Option<&[f32]>,
    ) {
        match rr {
            4 => panel_rr::<TRANS, 4>(c, n, a, lda, gr, b, k0, k1, j0, j1, init, bias),
            3 => panel_rr::<TRANS, 3>(c, n, a, lda, gr, b, k0, k1, j0, j1, init, bias),
            2 => panel_rr::<TRANS, 2>(c, n, a, lda, gr, b, k0, k1, j0, j1, init, bias),
            _ => panel_rr::<TRANS, 1>(c, n, a, lda, gr, b, k0, k1, j0, j1, init, bias),
        }
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn panel_rr<const TRANS: bool, const RR: usize>(
        c: &mut [f32],
        n: usize,
        a: &[f32],
        lda: usize,
        gr: usize,
        b: &[f32],
        k0: usize,
        k1: usize,
        j0: usize,
        j1: usize,
        init: bool,
        bias: Option<&[f32]>,
    ) {
        let mut j = j0;
        while j + 2 * W <= j1 {
            tile::<TRANS, RR, 2>(c, n, a, lda, gr, b, k0, k1, init, bias, j, [!0; 2]);
            j += 2 * W;
        }
        while j < j1 {
            let live = (j1 - j).min(W);
            let mask = ((1u32 << live) - 1) as __mmask16;
            tile::<TRANS, RR, 1>(c, n, a, lda, gr, b, k0, k1, init, bias, j, [mask]);
            j += W;
        }
    }

    /// One `RR x (NV*16)` register tile of `C` starting at column `j`,
    /// swept over `k0..k1` entirely in registers. Vector `v` touches only
    /// the columns its mask `m[v]` keeps; the masked-off lanes load
    /// zeros, compute garbage nobody stores, and read no memory.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn tile<const TRANS: bool, const RR: usize, const NV: usize>(
        c: &mut [f32],
        n: usize,
        a: &[f32],
        lda: usize,
        gr: usize,
        b: &[f32],
        k0: usize,
        k1: usize,
        init: bool,
        bias: Option<&[f32]>,
        j: usize,
        m: [__mmask16; NV],
    ) {
        let last = if bias.is_some() { k1 - 1 } else { k1 };
        let b_row = |kk: usize| -> [__m512; NV] {
            std::array::from_fn(|v| _mm512_maskz_loadu_ps(m[v], b.as_ptr().add(kk * n + j + v * W)))
        };
        let mut kk = k0;
        let mut acc: [[__m512; NV]; RR];
        if init && kk < k1 {
            let zero = _mm512_setzero_ps();
            let bv = b_row(kk);
            acc = std::array::from_fn(|r| {
                let ar = _mm512_set1_ps(a_elem_raw::<TRANS>(a, lda, gr + r, kk));
                std::array::from_fn(|v| _mm512_add_ps(zero, _mm512_mul_ps(ar, bv[v])))
            });
            if kk == last {
                let bs = bias.expect("bias step");
                for (r, row) in acc.iter_mut().enumerate() {
                    let vb = _mm512_set1_ps(*bs.get_unchecked(gr + r));
                    for lane in row.iter_mut() {
                        *lane = _mm512_add_ps(*lane, vb);
                    }
                }
            }
            kk += 1;
        } else {
            acc = std::array::from_fn(|r| {
                std::array::from_fn(|v| {
                    _mm512_maskz_loadu_ps(m[v], c.as_ptr().add(r * n + j + v * W))
                })
            });
        }
        while kk < last {
            let bv = b_row(kk);
            for (r, row) in acc.iter_mut().enumerate() {
                let var = _mm512_set1_ps(a_elem_raw::<TRANS>(a, lda, gr + r, kk));
                for (lane, &bvv) in row.iter_mut().zip(bv.iter()) {
                    *lane = _mm512_add_ps(*lane, _mm512_mul_ps(var, bvv));
                }
            }
            kk += 1;
        }
        if kk < k1 {
            let bs = bias.expect("bias step");
            let bv = b_row(kk);
            for (r, row) in acc.iter_mut().enumerate() {
                let var = _mm512_set1_ps(a_elem_raw::<TRANS>(a, lda, gr + r, kk));
                let vb = _mm512_set1_ps(*bs.get_unchecked(gr + r));
                for (lane, &bvv) in row.iter_mut().zip(bv.iter()) {
                    *lane = _mm512_add_ps(_mm512_add_ps(*lane, _mm512_mul_ps(var, bvv)), vb);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (v, &lane) in row.iter().enumerate() {
                _mm512_mask_storeu_ps(c.as_mut_ptr().add(r * n + j + v * W), m[v], lane);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as i32 % 2000) as f32 / 512.0
            })
            .collect()
    }

    #[test]
    fn backend_is_detected_and_overridable() {
        let detected = active_backend();
        override_backend(Some(Backend::Portable));
        assert_eq!(active_backend(), Backend::Portable);
        override_backend(None);
        assert_eq!(active_backend(), detected);
    }

    #[test]
    fn dispatched_ops_match_portable_bit_for_bit() {
        // Whatever backend is active, results must equal the portable
        // reference exactly — including remainder lanes (lengths chosen
        // to land off the 8-lane grid).
        for len in [0usize, 1, 5, 8, 13, 64, 100] {
            let src = fill(len, 3);
            let mut c1 = fill(len, 4);
            let mut c2 = c1.clone();
            normalize_affine(&mut c1, &src, 0.5, 1.7, -0.37, 0.25);
            portable::normalize_affine(&mut c2, &src, 0.5, 1.7, -0.37, 0.25);
            assert_eq!(c1, c2, "normalize_affine len {len}");

            let mut q1 = fill(len, 5);
            let mut q2 = q1.clone();
            fake_quant_slice(&mut q1, 0.25, -2.0, 1.0);
            portable::fake_quant_slice(&mut q2, 0.25, -2.0, 1.0);
            assert_eq!(q1, q2, "fake_quant len {len}");

            let xs = fill(len, 6);
            assert_eq!(
                fold_max(f32::NEG_INFINITY, &xs).to_bits(),
                portable::fold_max(f32::NEG_INFINITY, &xs).to_bits(),
                "fold_max len {len}"
            );
        }
    }

    #[test]
    fn round_half_away_matches_f32_round_on_ties() {
        let vals: Vec<f32> = vec![
            0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999997, -0.49999997, 3.4999998, 8388607.5,
            -8388607.5, 1.0e8, -1.0e8, 0.0, -0.0,
        ];
        let mut got = vals.clone();
        // scale 1, wide clamp: fake_quant reduces to plain rounding.
        fake_quant_slice(&mut got, 1.0, -1.0e9, 1.0e9);
        for (&x, &r) in vals.iter().zip(&got) {
            assert_eq!(r.to_bits(), x.round().to_bits(), "round({x})");
        }
    }

    #[test]
    fn sgd_update_matches_scalar_reference() {
        let mut w = fill(37, 7);
        let g = fill(37, 8);
        let mut v = fill(37, 9);
        let (mut w_ref, mut v_ref) = (w.clone(), v.clone());
        sgd_update(&mut w, &g, &mut v, 0.01, 0.9, 1e-4);
        for ((wv, &gv), vv) in w_ref.iter_mut().zip(&g).zip(v_ref.iter_mut()) {
            *vv = 0.9 * *vv + gv + 1e-4 * *wv;
            *wv -= 0.01 * *vv;
        }
        assert_eq!(w, w_ref);
        assert_eq!(v, v_ref);
    }
}
