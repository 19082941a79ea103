//! `f32` SIMD kernels with deterministic lane semantics.
//!
//! Every hot elementwise loop in the engine — the fake-quantization grid
//! snap, the straight-through-estimator mask, batch-norm's
//! normalize/backward maps, the softmax epilogue and the SGD update —
//! and the GEMM panel route through this module. Each kernel has one
//! body, written once in portable Rust; the three backends are that
//! body compiled three ways:
//!
//! * **AVX-512** (`x86_64`, runtime-detected): every body compiled with
//!   `avx512f` enabled, the GEMM panel's register tile at sixteen lanes.
//! * **AVX2** (`x86_64`, runtime-detected): every body compiled with
//!   `avx2` enabled, the GEMM panel's tile at eight lanes.
//! * **Portable**: the baseline build, the GEMM panel's tile at four
//!   lanes.
//!
//! One macro, `target_build!`, emits a vector backend's entry points:
//! for each listed signature an `unsafe fn` under `#[target_feature]`
//! that calls the `#[inline(always)]` body, so the compiler builds that
//! source in place for the feature. [`crate::conv_grad`] builds its
//! kernels the same way, and one `dispatch!` picks a backend for both.
//!
//! All paths are **bit-identical** on every input, NaN and ±0 included,
//! which keeps every result thread-count- and dispatch-invariant (the
//! repo-wide determinism contract). Three properties make that possible:
//!
//! 1. Every lane operation is exactly rounded per IEEE 754 or fully
//!    specified bitwise, so a vector op produces the same bits as the
//!    scalar ops it replaces. The bodies use no operation whose
//!    result Rust leaves unspecified: `f32::max`/`f32::min` may return
//!    either zero for `max(-0.0, 0.0)`, so max is written
//!    `if a > b { a } else { b }` and min `if a < b { a } else { b }` —
//!    exactly `MAXPS`/`MINPS`, whatever width the compiler picks.
//! 2. **No FMA contraction**: Rust never contracts `a * b + c` into a
//!    fused multiply-add, so multiply-then-add stays two exactly
//!    rounded steps in every build.
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
//! instead of the rules above, and keeps hand-written intrinsic bodies.

use std::sync::atomic::{AtomicU8, Ordering};

/// The accumulator count the two max folds spell out in their one
/// source, so every build of them reduces in the same order (eight, the
/// lanes of one AVX2 vector).
pub const LANES: usize = 8;

/// Which implementation services the dispatched entry points, best
/// first: a host that has one backend has every backend after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// AVX-512 with `VPOPCNTDQ` (x86-64 only, runtime-detected): the
    /// [`crate::int2`] kernels count 64-bit lanes natively, and the f32
    /// kernels of this module and of [`crate::conv_grad`] run their
    /// `avx512f` build, sixteen lanes wide.
    Avx512,
    /// AVX2 (x86-64 only, runtime-detected): the f32 kernels' `avx2`
    /// build, eight lanes wide.
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

/// Calls kernel `$name` of the active backend's module — `avx512`,
/// `avx2` or `portable`, resolved where the macro is invoked, so every
/// f32 kernel family dispatches through this one match.
macro_rules! dispatch {
    ($name:ident $(::<$($gen:tt),*>)? ($($arg:expr),* $(,)?)) => {
        match $crate::simd::active_backend() {
            // SAFETY: `active_backend` only reports a vector backend
            // after runtime detection of every CPU feature its bodies
            // enable (or an override that re-checked them).
            #[cfg(target_arch = "x86_64")]
            $crate::simd::Backend::Avx512 => unsafe { avx512::$name $(::<$($gen),*>)? ($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            $crate::simd::Backend::Avx2 => unsafe { avx2::$name $(::<$($gen),*>)? ($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            $crate::simd::Backend::Avx512 | $crate::simd::Backend::Avx2 => {
                portable::$name $(::<$($gen),*>)? ($($arg),*)
            }
            $crate::simd::Backend::Portable => portable::$name $(::<$($gen),*>)? ($($arg),*),
        }
    };
}
pub(crate) use dispatch;

/// Emits one backend's entry points: for each listed signature a `pub`
/// function that calls the `#[inline(always)]` body after `=` with the
/// same arguments, then any expressions listed after the body, so that
/// one source is compiled in place for the backend. Under a feature
/// name each is an `unsafe fn` with `#[target_feature(enable = ...)]`;
/// under `portable` it is the safe baseline build.
macro_rules! target_build {
    (portable; $(
        fn $name:ident $(<$(const $g:ident: $gt:ty),*>)? ($($arg:ident: $ty:ty),* $(,)?)
            = $body:expr $(, $extra:expr)*;
    )*) => {$(
        /// The one body, compiled for the baseline target.
        #[allow(clippy::too_many_arguments)]
        pub fn $name $(<$(const $g: $gt),*>)? ($($arg: $ty),*) {
            $body($($arg,)* $($extra),*)
        }
    )*};
    ($feature:literal; $(
        fn $name:ident $(<$(const $g:ident: $gt:ty),*>)? ($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)?
            = $body:expr $(, $extra:expr)*;
    )*) => {$(
        #[doc = concat!("The one body, compiled with `", $feature, "` enabled.")]
        ///
        /// # Safety
        ///
        /// Requires that CPU feature.
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = $feature)]
        pub unsafe fn $name $(<$(const $g: $gt),*>)? ($($arg: $ty),*) $(-> $ret)? {
            $body($($arg,)* $($extra),*)
        }
    )*};
}
pub(crate) use target_build;

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
/// for the transposed layout the backward passes use. Unchecked: a
/// bounds check's `lea/cmp/jae` per load would sit in the middle of the
/// port-bound k-loop.
///
/// # Safety
/// `row`/`kk` must address an element of `a` under `lda`, as
/// [`gemm_tile`]'s entry asserts establish for its whole panel.
#[inline(always)]
unsafe fn a_elem<const TRANS: bool>(a: &[f32], lda: usize, row: usize, kk: usize) -> f32 {
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
/// Every backend runs one body, `gemm_tile`, at its own lane width.
///
/// # Panics
///
/// Panics when `c` is not `rr * n` long, `rr` is outside `1..=4`, `b`
/// holds fewer than `k1` rows of `n`, the window `j0..j1` is not inside
/// `0..n`, or (when a step and a column remain) `a` or `bias` lacks an
/// element the panel reads.
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
    dispatch!(gemm_panel::<TRANS>(c, n, rr, a, lda, gr, b, k0, k1, j0, j1, init, bias))
}

/// The operands of one panel call, as every tile of it reads them.
#[derive(Clone, Copy)]
struct Panel<'a> {
    n: usize,
    a: &'a [f32],
    lda: usize,
    gr: usize,
    b: &'a [f32],
    k0: usize,
    k1: usize,
    init: bool,
    bias: Option<&'a [f32]>,
}

/// The one body of [`gemm_panel`]: `RR x (NV·L)` register tiles whose
/// accumulators stay in registers across the whole `k0..k1` sweep, so
/// `C` is loaded and stored once per tile, and one `A` element feeds a
/// whole tile row. Columns go in tiles of two `L`-lane vectors; the
/// ragged end is one more tile whose last vector is shifted left to end
/// inside the row (its lanes over columns already done are computed
/// and dropped). A row narrower than `L` runs the same plan at `N`
/// lanes, and one narrower than `N` a column at a time — except that
/// where `L = 2N`, a window of `N + 1 ..= L - 1` columns is one `L`-lane
/// vector ([`tile_narrow`]). Lanes map 1:1 onto `C` elements and each
/// element takes the per-element sequence of [`gemm_panel`], so every
/// `L` gives the same bits.
///
/// The asserts at entry are the panel's preconditions; they make every
/// unchecked load in the tiles sound.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_tile<const TRANS: bool, const L: usize, const N: usize>(
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
    // Checked products: a wrapped one could pass an assert and let a
    // tile read out of bounds.
    let holds = |len: usize, rows: usize, cols: usize| rows.checked_mul(cols).is_some_and(|l| len >= l);
    assert!((1..=4).contains(&rr), "gemm_panel: rr must be in 1..=4");
    assert!(holds(c.len(), rr, n) && c.len() == rr * n, "gemm_panel: c must hold rr rows of n");
    assert!(holds(b.len(), k1, n), "gemm_panel: b must hold k1 rows of n");
    assert!(j0 <= j1 && j1 <= n, "gemm_panel: columns j0..j1 must lie in 0..n");
    if k0 >= k1 || j0 == j1 {
        return;
    }
    // The last row and step address the largest `A` index read.
    let row = gr.checked_add(rr - 1).expect("gemm_panel: gr + rr overflows");
    let (major, minor) = if TRANS { (k1 - 1, row) } else { (row, k1 - 1) };
    assert!(
        holds(a.len(), major, lda) && a.len() - major * lda > minor,
        "gemm_panel: a must hold rows gr..gr + rr"
    );
    assert!(bias.is_none_or(|bs| bs.len() > row), "gemm_panel: bias must hold rows gr..gr + rr");
    let p = Panel { n, a, lda, gr, b, k0, k1, init, bias };
    macro_rules! columns {
        ($lanes:expr) => {
            match rr {
                4 => columns::<TRANS, 4, $lanes>(c, &p, j0, j1),
                3 => columns::<TRANS, 3, $lanes>(c, &p, j0, j1),
                2 => columns::<TRANS, 2, $lanes>(c, &p, j0, j1),
                _ => columns::<TRANS, 1, $lanes>(c, &p, j0, j1),
            }
        };
    }
    if n >= L {
        columns!(L)
    } else if L == 2 * N && j1 - j0 > N {
        let w = j1 - j0;
        match rr {
            4 => tile_narrow::<TRANS, 4, L, N>(c, &p, j0, w),
            3 => tile_narrow::<TRANS, 3, L, N>(c, &p, j0, w),
            2 => tile_narrow::<TRANS, 2, L, N>(c, &p, j0, w),
            _ => tile_narrow::<TRANS, 1, L, N>(c, &p, j0, w),
        }
    } else if n >= N {
        columns!(N)
    } else {
        columns!(1)
    }
}

/// Columns `j0..j1` of the panel in tiles of `RR` rows by up to two
/// `L`-lane vectors; needs `n >= L`. The ragged end is one tile whose
/// last vector is shifted left if it would run past the row, and stores
/// only the lanes from `j` on.
#[inline(always)]
fn columns<const TRANS: bool, const RR: usize, const L: usize>(
    c: &mut [f32],
    p: &Panel,
    j0: usize,
    j1: usize,
) {
    let mut j = j0;
    while j + 2 * L <= j1 {
        tile::<TRANS, RR, 2, L, false>(c, p, [j, j + L], (0, L));
        j += 2 * L;
    }
    let left = j1 - j;
    if left > L {
        let at = (j + L).min(p.n - L);
        tile::<TRANS, RR, 2, L, true>(c, p, [j, at], (j + L - at, j1 - at));
    } else if left == L {
        tile::<TRANS, RR, 1, L, false>(c, p, [j], (0, L));
    } else if left > 0 {
        let at = j.min(p.n - L);
        tile::<TRANS, RR, 1, L, true>(c, p, [at], (j - at, j1 - at));
    }
}

/// Expands `$body` once per index `$r` below `$rows` (at most eight), as
/// straight-line code: LLVM leaves a loop over a tile of more than 64
/// accumulator floats rolled, and a rolled loop keeps the tile in
/// memory.
macro_rules! each_row {
    ($r:ident < $rows:expr, $body:block) => {
        const { assert!($rows <= 8, "each_row! expands eight indices") };
        $crate::simd::each_row!(@ $r < $rows, $body, 0 1 2 3 4 5 6 7)
    };
    (@ $r:ident < $rows:expr, $body:block, $($i:literal)*) => {$({
        let $r: usize = $i;
        if $r < $rows $body
    })*};
}
pub(crate) use each_row;

/// One register tile: vector `v` covers columns `at[v]..at[v] + L`;
/// with `PART`, the last one stores only its lanes `keep.0..keep.1` (a
/// read of the vector, a lane select, a whole write back), and its
/// other lanes compute values nobody stores. Every vector lies inside
/// its row of `C` and of `B`.
#[inline(always)]
fn tile<const TRANS: bool, const RR: usize, const NV: usize, const L: usize, const PART: bool>(
    c: &mut [f32],
    p: &Panel,
    at: [usize; NV],
    (lo, hi): (usize, usize),
) {
    let n = p.n;
    // SAFETY (every unchecked access below): `at[v] + L <= n`,
    // `b.len() >= k1·n` and `c.len() == RR·n`, so each vector lies in a
    // row of `B` or of `C`.
    let b_row = |kk: usize| -> [[f32; L]; NV] {
        std::array::from_fn(|v| unsafe { p.b.as_ptr().add(kk * n + at[v]).cast::<[f32; L]>().read_unaligned() })
    };
    let c = c.as_mut_ptr();
    let c_at = |r: usize, v: usize| unsafe { c.add(r * n + at[v]).cast::<[f32; L]>() };
    let mut acc = [[[0.0f32; L]; NV]; RR];
    if !p.init {
        each_row!(r < RR, {
            for (v, row) in acc[r].iter_mut().enumerate() {
                // SAFETY: as above.
                *row = unsafe { c_at(r, v).read_unaligned() };
            }
        });
    }
    sweep::<TRANS, RR, NV, L>(p, &mut acc, b_row);
    // The lanes the last vector stores, as one vector select.
    let mut keep = [true; L];
    if PART {
        for (l, k) in keep.iter_mut().enumerate() {
            *k = lo <= l && l < hi;
        }
    }
    each_row!(r < RR, {
        each_row!(v < NV, {
            let mut out = acc[r][v];
            if PART && v == NV - 1 {
                // SAFETY: as above.
                let old = unsafe { c_at(r, v).read_unaligned() };
                for ((o, &x), &k) in out.iter_mut().zip(&old).zip(&keep) {
                    *o = if k { *o } else { x };
                }
            }
            // SAFETY: as above.
            unsafe { c_at(r, v).write_unaligned(out) };
        });
    });
}

/// A tile of one `L`-lane vector over the `w = j1 - j0` columns of a
/// row narrower than `L` but wider than `H = L / 2`: lane `l` holds
/// column `j0 + l`, and the lanes from `w` on compute values nobody
/// stores. One multiply and one add per row and step, where two
/// `H`-lane vectors take two of each. A step whose `L` elements from
/// `(kk, j0)` on lie inside `B` loads them as one vector (its lanes past
/// the row read the next one); the steps past those — the last one or
/// two — and `C` go through [`narrow_load`] and [`narrow_store`]. The
/// two runs of steps are two sweeps over the same accumulators.
#[inline(always)]
fn tile_narrow<const TRANS: bool, const RR: usize, const L: usize, const H: usize>(
    c: &mut [f32],
    p: &Panel,
    j0: usize,
    w: usize,
) {
    let Panel { n, k0, k1, init, bias, .. } = *p;
    // Steps `k0..fit` read whole vectors: `kk·n + j0 + L <= b.len()`.
    let fit = (p.b.len() - j0).checked_sub(L).map_or(k0, |room| k1.min(room / n + 1).max(k0));
    let b = p.b.as_ptr();
    // SAFETY (every access below): whole vectors are read at steps
    // below `fit` only; `narrow_load`/`narrow_store` touch columns
    // `j0..j0 + w` of a row, which `j0 + w <= n`, `b.len() >= k1·n` and
    // `c.len() == RR·n` keep inside `B` or `C`.
    let whole = |kk: usize| [unsafe { b.add(kk * n + j0).cast::<[f32; L]>().read_unaligned() }];
    let narrow = |kk: usize| [unsafe { narrow_load::<L, H>(b.add(kk * n + j0), w) }];
    let c = c.as_mut_ptr();
    let mut acc = [[[0.0f32; L]; 1]; RR];
    if !init {
        each_row!(r < RR, {
            acc[r][0] = unsafe { narrow_load::<L, H>(c.add(r * n + j0), w) };
        });
    }
    if fit > k0 {
        let head = Panel { k1: fit, bias: bias.filter(|_| fit == k1), ..*p };
        sweep::<TRANS, RR, 1, L>(&head, &mut acc, whole);
    }
    if fit < k1 {
        let tail = Panel { k0: fit, init: init && fit == k0, ..*p };
        sweep::<TRANS, RR, 1, L>(&tail, &mut acc, narrow);
    }
    each_row!(r < RR, {
        unsafe { narrow_store::<L, H>(c.add(r * n + j0), w, acc[r][0]) };
    });
}

/// The `w` elements at `src` (`H <= w <= L = 2H`) in lanes `0..w` of a
/// vector whose other lanes are zero, read as two `H`-lane halves that
/// overlap where `w < L`.
///
/// # Safety
///
/// `src..src + w` must be readable.
#[inline(always)]
unsafe fn narrow_load<const L: usize, const H: usize>(src: *const f32, w: usize) -> [f32; L] {
    let mut v = [0.0f32; L];
    let to = v.as_mut_ptr();
    to.cast::<[f32; H]>().write_unaligned(src.cast::<[f32; H]>().read_unaligned());
    to.add(w - H)
        .cast::<[f32; H]>()
        .write_unaligned(src.add(w - H).cast::<[f32; H]>().read_unaligned());
    v
}

/// Writes lanes `0..w` of `lanes` (`H <= w <= L = 2H`) to `dst` as two
/// `H`-lane halves that overlap where `w < L`.
///
/// # Safety
///
/// `dst..dst + w` must be writable.
#[inline(always)]
unsafe fn narrow_store<const L: usize, const H: usize>(dst: *mut f32, w: usize, lanes: [f32; L]) {
    let from = lanes.as_ptr();
    dst.cast::<[f32; H]>().write_unaligned(from.cast::<[f32; H]>().read_unaligned());
    dst.add(w - H)
        .cast::<[f32; H]>()
        .write_unaligned(from.add(w - H).cast::<[f32; H]>().read_unaligned());
}

/// The `k0..k1` sweep of one register tile with the per-element
/// sequence of [`gemm_panel`]: `acc` holds the tile's `C` on entry when
/// the panel does not `init`, and the finished tile on return; vector
/// `v` of step `kk` is `b_row(kk)[v]`.
#[inline(always)]
fn sweep<const TRANS: bool, const RR: usize, const NV: usize, const L: usize>(
    p: &Panel,
    acc: &mut [[[f32; L]; NV]; RR],
    b_row: impl Fn(usize) -> [[f32; L]; NV],
) {
    let Panel { k0, k1, init, bias, .. } = *p;
    // SAFETY: `gemm_tile`'s asserts cover `a` and `bias` for rows
    // `gr..gr + RR` and steps `k0..k1`.
    let a_at = |r: usize, kk: usize| unsafe { a_elem::<TRANS>(p.a, p.lda, p.gr + r, kk) };
    let bias_at = |bs: &[f32], r: usize| unsafe { *bs.get_unchecked(p.gr + r) };
    let last = if bias.is_some() { k1 - 1 } else { k1 };
    let mut kk = k0;
    if init {
        let bv = b_row(kk);
        each_row!(r < RR, {
            let ar = a_at(r, kk);
            lanes(&mut acc[r], |v, l, x| *x = 0.0 + ar * bv[v][l]);
        });
        if kk == last {
            let bs = bias.expect("bias step");
            each_row!(r < RR, {
                let br = bias_at(bs, r);
                lanes(&mut acc[r], |_, _, x| *x += br);
            });
        }
        kk += 1;
    }
    while kk < last {
        let bv = b_row(kk);
        each_row!(r < RR, {
            let ar = a_at(r, kk);
            lanes(&mut acc[r], |v, l, x| *x += ar * bv[v][l]);
        });
        kk += 1;
    }
    if kk < k1 {
        let bs = bias.expect("bias step");
        let bv = b_row(kk);
        each_row!(r < RR, {
            let (ar, br) = (a_at(r, kk), bias_at(bs, r));
            lanes(&mut acc[r], |v, l, x| *x = (*x + ar * bv[v][l]) + br);
        });
    }
}

/// Applies `f(v, l, lane)` to every lane of one tile row, as
/// constant-bound index loops the compiler unrolls into vector ops.
#[inline(always)]
fn lanes<const NV: usize, const L: usize>(
    row: &mut [[f32; L]; NV],
    mut f: impl FnMut(usize, usize, &mut f32),
) {
    for (v, vector) in row.iter_mut().enumerate() {
        for (l, x) in vector.iter_mut().enumerate() {
            f(v, l, x);
        }
    }
}

/// The portable backend: the one body of every elementwise map and fold
/// (the vector backends compile these same functions for their
/// features), and the baseline build of the GEMM panel. Elementwise
/// maps carry no cross-lane state; the two folds keep an explicit
/// [`LANES`]-accumulator structure so that any vector width the
/// compiler chooses reduces in the same order.
pub mod portable {
    use super::LANES;

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

    target_build! { portable;
        fn gemm_panel<const TRANS: bool>(
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
        ) = super::gemm_tile::<TRANS, 4, 4>;
    }
}

/// The entry points of one vector backend, `$lanes` lanes wide: the
/// maps and folds of [`portable`], and the GEMM panel's tile at
/// `$lanes` lanes (eight on rows of at most eight columns: a
/// half-masked 512-bit op loses to a full 256-bit one).
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_macros))]
macro_rules! vector_backend {
    ($feature:literal, $lanes:literal) => {
        target_build! { $feature;
            fn fake_quant_slice(v: &mut [f32], scale: f32, lo: f32, hi: f32)
                = super::portable::fake_quant_slice;
            fn range_mask_slice(mask: &mut [f32], x: &[f32], lo: f32, hi: f32)
                = super::portable::range_mask_slice;
            fn normalize_affine(out: &mut [f32], src: &[f32], mean: f32, inv_std: f32, g: f32, b: f32)
                = super::portable::normalize_affine;
            fn normalize_affine_xhat(
                out: &mut [f32],
                xhat: &mut [f32],
                src: &[f32],
                mean: f32,
                inv_std: f32,
                g: f32,
                b: f32,
            ) = super::portable::normalize_affine_xhat;
            fn bn_backward_dx(
                dx: &mut [f32],
                dy: &[f32],
                xhat: &[f32],
                coeff: f32,
                count: f32,
                sum_dy: f32,
                sum_dy_xhat: f32,
            ) = super::portable::bn_backward_dx;
            fn sgd_update(w: &mut [f32], g: &[f32], v: &mut [f32], lr: f32, momentum: f32, wd: f32)
                = super::portable::sgd_update;
            fn div_scalar(x: &mut [f32], d: f32) = super::portable::div_scalar;
            fn fold_max(init: f32, xs: &[f32]) -> f32 = super::portable::fold_max;
            fn fold_max_abs(init: f32, xs: &[f32]) -> f32 = super::portable::fold_max_abs;
            fn gemm_panel<const TRANS: bool>(
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
            ) = super::gemm_tile::<TRANS, $lanes, 8>;
        }
    };
}

/// The AVX2 backend: every body compiled with `avx2` enabled. Public
/// for the bit-identity suite; the caller must verify the feature.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    vector_backend!("avx2", 8);
}

/// The AVX-512 backend: every body compiled with `avx512f` enabled.
/// Public for the bit-identity suite; the caller must verify the
/// feature.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    vector_backend!("avx512f", 16);
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
