//! The conv layer's training backward without column matrices.
//!
//! The textbook backward of one image lowers to three steps over the
//! `[c_in·k², pixels]` im2col matrix: `dWᵀ = cols · dYᵀ`, `dCols = Wᵀ ·
//! dY`, and `col2im` of `dCols` into the input gradient. The two kernels
//! here compute the same results **bit for bit** without ever building
//! that matrix, like the stem's [`crate::int2::conv_f32_acc`] does for
//! the forward:
//!
//! * [`conv_input_grad`] — the input gradient as a direct transposed
//!   convolution. Every `dX` element starts at `+0.0` and takes its taps
//!   in col2im's `(ci, ky, kx)` order; each tap adds one sum over `c_out`
//!   in ascending order whose first term is `0.0 + w·dy` — the value
//!   the GEMM wrote into `dCols` — and a tap whose output pixel lies
//!   outside the map adds nothing, as col2im skips it.
//! * [`conv_weight_grad`] — the transposed weight gradient `dWᵀ`
//!   (`[c_in·k², c_out]`), its `A` operand read from the image instead of
//!   from im2col rows. Every element is a sum over ascending output
//!   pixels with its first term written (`0.0 + x·dy`); a tap in the
//!   padding multiplies a literal `0.0`, as the GEMM multiplies the zero
//!   im2col wrote there, so a non-finite `dy` poisons the same elements.
//!
//! Multiply and add round separately everywhere (no FMA), and vector
//! lanes map 1:1 onto outputs, so the AVX-512 (16-lane), AVX2 (8-lane)
//! and portable bodies agree bit for bit; they dispatch on
//! [`crate::simd::active_backend`].
//!
//! The vector bodies of [`conv_input_grad`] take one of two routes,
//! chosen from the geometry alone (the portable body always takes the
//! second):
//!
//! * **flat** (unit stride, at most "same" padding, a kernel of at most
//!   8, and an output map covering more than half the input): `dY` is
//!   copied once into a buffer whose rows have the input width, so each
//!   tap becomes one shift of the whole flattened input plane, and lanes
//!   run along it. A tap's invalid lanes — padding rows
//!   and columns, the wrapped-around ends of rows — are masked off the
//!   add. Narrow maps fill a vector this way where a lane per output
//!   column would leave most lanes masked.
//! * **pixel** (everything else — in the CNV, the 3×3 and 1×1 maps of
//!   conv5 and conv6): the GEMM panel computes `dColsᵀ` four output
//!   pixels at a time, lanes running along `c_in·k²`, and each pixel's
//!   row is scattered into `dX` at once. Pixels go in descending order,
//!   which gives every `dX` element its taps in ascending `(ci, ky, kx)`
//!   order — a larger `ky` (or, on one row, `kx`) reaches the same input
//!   element from a smaller output pixel.

use crate::conv::ConvGeometry;
use crate::simd::{self, Backend};

/// Largest kernel the flat route serves; its per-tap lane masks live in
/// a stack array of `FLAT_MAX_K²` entries.
const FLAT_MAX_K: usize = 8;

/// Validated geometry of one image's conv backward.
struct GradShape {
    c_in: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    pixels: usize,
    /// Reduction depth of the forward, `c_in·k²`.
    kk: usize,
    c_out: usize,
}

impl GradShape {
    fn new(c_in: usize, h: usize, w: usize, geom: ConvGeometry, c_out: usize) -> Self {
        let oh = geom
            .output_dim(h)
            .expect("conv backward: window must fit input height");
        let ow = geom
            .output_dim(w)
            .expect("conv backward: window must fit input width");
        let k = geom.kernel;
        GradShape {
            c_in,
            h,
            w,
            k,
            stride: geom.stride,
            pad: geom.padding,
            oh,
            ow,
            pixels: oh * ow,
            kk: c_in * k * k,
            c_out,
        }
    }

    /// The taps `k0..k1` of output index `o` whose input index
    /// `o·stride + tap - pad` lies in `0..extent`, and that of `k0`.
    #[inline(always)]
    fn inside(&self, o: usize, extent: usize) -> (usize, usize, usize) {
        let first = o * self.stride;
        let k0 = self.pad.saturating_sub(first).min(self.k);
        let k1 = (extent + self.pad).saturating_sub(first).clamp(k0, self.k);
        (k0, k1, (first + k0).saturating_sub(self.pad))
    }

    /// Whether the vector bodies take the flat input-gradient route (see
    /// the module docs). `2·pad < k` keeps every output row within the
    /// input width, so the widened `dY` rows never overlap. The flat
    /// route computes every lane of the input plane for every tap, the
    /// pixel route only the taps of real output pixels: on 16–32-channel
    /// 3×3 and 5×5 maps the two break even where the output covers
    /// 35–50 % of the input (AVX-512 nearer 35 %, AVX2 nearer 50 %), so
    /// the flat route starts above one half. At CNV-8 shapes it is
    /// 1.5–5.5× faster than the pixel route on conv2–conv4 and the exit
    /// convs (64–87 % covered), and 1.4–6× slower on conv5 (36 %) and
    /// conv6 (11 %).
    fn flat_route(&self) -> bool {
        self.stride == 1
            && 2 * self.pad < self.k
            && self.k <= FLAT_MAX_K
            && 2 * self.pixels > self.h * self.w
    }

    fn check_input_grad(&self, dy: &[f32], weight: &[f32], dx: &[f32]) {
        assert_eq!(
            dy.len(),
            self.c_out * self.pixels,
            "conv_input_grad: dy length mismatch"
        );
        assert_eq!(
            weight.len(),
            self.c_out * self.kk,
            "conv_input_grad: weight length mismatch"
        );
        assert_eq!(
            dx.len(),
            self.c_in * self.h * self.w,
            "conv_input_grad: dx length mismatch"
        );
    }

    fn check_weight_grad(&self, img: &[f32], dy: &[f32], dw_t: &[f32]) {
        assert_eq!(
            img.len(),
            self.c_in * self.h * self.w,
            "conv_weight_grad: image length mismatch"
        );
        assert_eq!(
            dy.len(),
            self.c_out * self.pixels,
            "conv_weight_grad: dy length mismatch"
        );
        assert_eq!(
            dw_t.len(),
            self.kk * self.c_out,
            "conv_weight_grad: dw_t length mismatch"
        );
    }
}

macro_rules! dispatch {
    ($name:ident($($arg:expr),*)) => {
        match simd::active_backend() {
            // SAFETY: `active_backend` only reports a vector backend
            // after runtime detection of every CPU feature its bodies
            // enable (or an override that re-checked them).
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => unsafe { avx512::$name($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => unsafe { avx2::$name($($arg),*) },
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx512 | Backend::Avx2 => portable::$name($($arg),*),
            Backend::Portable => portable::$name($($arg),*),
        }
    };
}

/// The input gradient of one image: `dx` (`[c_in, h, w]`) from `dy`
/// (`[c_out, oh·ow]`) and the forward's `weight` (`[c_out, c_in·k²]`,
/// im2col's depth order), bit-identical to
/// [`crate::gemm::gemm_at_b_st`]`(c_in·k², c_out, oh·ow, weight, dy, ..)`
/// followed by [`crate::conv::col2im_into`] for every input, non-finite
/// ones included. `dx` is written in full; `scratch` is resized and
/// overwritten.
///
/// # Panics
///
/// Panics on a window that does not fit or a slice whose length
/// disagrees with the shape.
#[allow(clippy::too_many_arguments)]
pub fn conv_input_grad(
    dy: &[f32],
    c_out: usize,
    weight: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    dx: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    dispatch!(conv_input_grad(
        dy, c_out, weight, c_in, h, w, geom, dx, scratch
    ))
}

/// The transposed weight gradient of one image: `dw_t` (`[c_in·k²,
/// c_out]`) from the image `img` (`[c_in, h, w]`) and `dy` (`[c_out,
/// oh·ow]`), bit-identical to [`crate::conv::im2col_into`] followed by
/// [`crate::gemm::gemm_a_bt_st`]`(c_in·k², oh·ow, c_out, cols, dy, ..)`
/// for every input, non-finite ones included. `dw_t` is written in
/// full; `scratch` is resized and overwritten.
///
/// # Panics
///
/// Panics on a window that does not fit or a slice whose length
/// disagrees with the shape.
#[allow(clippy::too_many_arguments)]
pub fn conv_weight_grad(
    img: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    dy: &[f32],
    c_out: usize,
    dw_t: &mut [f32],
    scratch: &mut Vec<f32>,
) {
    dispatch!(conv_weight_grad(
        img, c_in, h, w, geom, dy, c_out, dw_t, scratch
    ))
}

/// The signature of the backends' `gemm_panel::<true>`.
type PanelFn = unsafe fn(
    &mut [f32],
    usize,
    usize,
    &[f32],
    usize,
    usize,
    &[f32],
    usize,
    usize,
    usize,
    usize,
    bool,
    Option<&[f32]>,
);

/// The pixel route of the input gradient: `dColsᵀ` four output pixels
/// at a time through `panel`, each row scattered into `dx` as soon as it
/// is computed, in descending pixel order (see the module docs).
///
/// # Safety
///
/// `panel` must be a `gemm_panel::<true>` body this host can run.
unsafe fn pixel_route(
    sh: &GradShape,
    dy: &[f32],
    weight: &[f32],
    dx: &mut [f32],
    scratch: &mut Vec<f32>,
    panel: PanelFn,
) {
    dx.fill(0.0);
    if sh.c_out == 0 || sh.kk == 0 {
        return;
    }
    let (k, kk) = (sh.k, sh.kk);
    scratch.resize(4 * kk, 0.0);
    let mut end = sh.pixels;
    while end > 0 {
        let rr = end.min(4);
        let p0 = end - rr;
        let block = &mut scratch[..rr * kk];
        // `dColsᵀ[p][t] = Σ_co dy[co][p]·w[co][t]`, the first step
        // written: the GEMM's `dCols` element, its products commuted.
        panel(
            block, kk, rr, dy, sh.pixels, p0, weight, 0, sh.c_out, 0, kk, true, None,
        );
        for r in (0..rr).rev() {
            let (oy, ox) = ((p0 + r) / sh.ow, (p0 + r) % sh.ow);
            let col = &block[r * kk..(r + 1) * kk];
            // The taps inside the image: rows `ky0..ky1` from input row
            // `iy0`, and one run of `kx1 - kx0` columns from `ix0`.
            let (ky0, ky1, iy0) = sh.inside(oy, sh.h);
            let (kx0, kx1, ix0) = sh.inside(ox, sh.w);
            if kx0 == kx1 {
                continue; // the whole window lies in the padding
            }
            for ci in 0..sh.c_in {
                for ky in ky0..ky1 {
                    let at = (ci * sh.h + iy0 + ky - ky0) * sh.w + ix0;
                    let dst = &mut dx[at..at + kx1 - kx0];
                    let src = &col[(ci * k + ky) * k + kx0..][..kx1 - kx0];
                    for (d, &v) in dst.iter_mut().zip(src) {
                        *d += v;
                    }
                }
            }
        }
        end = p0;
    }
}

/// The flat route's layout for `lanes`-wide vectors: the input plane
/// flattened (`q = iy·w + ix`) and padded to `nvec` whole vectors, and
/// the widened `dY` copy `d` — per output channel `span` floats holding
/// `dy[co][oy][ox]` at `margin + oy·w + ox`, zeros elsewhere — so that
/// tap `(ky, kx)` of lane `q` reads `d[co·span + tap_base(ky, kx) + q]`.
#[cfg(target_arch = "x86_64")]
struct Flat {
    nvec: usize,
    span: usize,
    margin: usize,
}

#[cfg(target_arch = "x86_64")]
impl Flat {
    fn new(sh: &GradShape, lanes: usize, dy: &[f32], d: &mut Vec<f32>) -> Self {
        let (k, w, pad) = (sh.k, sh.w, sh.pad);
        let nvec = (sh.h * w).div_ceil(lanes);
        // Lane 0 of tap (k-1, k-1) reads `margin - (k-1-pad)·(w+1)`, the
        // last lane of tap (0, 0) reads `margin + nvec·lanes - 1 +
        // pad·(w+1)`: both inside the span.
        let margin = (k - 1 - pad) * (w + 1);
        let span = margin + nvec * lanes + pad * (w + 1);
        d.clear();
        d.resize(sh.c_out * span, 0.0);
        for (co, plane) in dy.chunks_exact(sh.pixels).enumerate() {
            for (oy, row) in plane.chunks_exact(sh.ow).enumerate() {
                let at = co * span + margin + oy * w;
                d[at..at + sh.ow].copy_from_slice(row);
            }
        }
        Flat { nvec, span, margin }
    }

    /// Offset into a channel's span of lane 0's read for tap `(ky, kx)`.
    #[inline(always)]
    fn tap_base(&self, sh: &GradShape, ky: usize, kx: usize) -> usize {
        self.margin + sh.pad * (sh.w + 1) - ky * sh.w - kx
    }

    /// Lane masks of the `lanes` lanes from `q0`, one per tap in `(ky,
    /// kx)` order: bit `l` is set when lane `q0 + l` lies in the plane
    /// and the tap's output pixel lies in the map.
    fn tap_masks(&self, sh: &GradShape, q0: usize, lanes: usize) -> [u32; FLAT_MAX_K * FLAT_MAX_K] {
        let (k, w, plane) = (sh.k, sh.w, sh.h * sh.w);
        // Bits of the lanes in `[lo, hi)`.
        let span_bits = |lo: usize, hi: usize| -> u32 {
            let a = lo.saturating_sub(q0).min(lanes);
            let b = hi.saturating_sub(q0).min(lanes).max(a);
            (((1u64 << b) - 1) & !((1u64 << a) - 1)) as u32
        };
        let mut cols = [0u32; FLAT_MAX_K];
        for (kx, bits) in cols.iter_mut().enumerate().take(k) {
            // Input columns whose output column `ix + pad - kx` is in the map.
            let lo = kx.saturating_sub(sh.pad);
            let hi = (kx + sh.ow).saturating_sub(sh.pad).min(w);
            let mut row = q0 / w * w;
            while row < (q0 + lanes).min(plane) {
                *bits |= span_bits(row + lo, row + hi);
                row += w;
            }
        }
        let mut masks = [0u32; FLAT_MAX_K * FLAT_MAX_K];
        for ky in 0..k {
            // Input rows whose output row `iy + pad - ky` is in the map.
            let lo = ky.saturating_sub(sh.pad);
            let hi = (ky + sh.oh).saturating_sub(sh.pad).min(sh.h);
            let rows = span_bits(lo * w, hi * w);
            for kx in 0..k {
                masks[ky * k + kx] = rows & cols[kx];
            }
        }
        masks
    }
}

/// The portable bodies: the pixel route on the portable GEMM panel for
/// the input gradient, one SAXPY over the output channels per tap and
/// output pixel for the weight gradient. Public for the bit-identity
/// suite.
pub mod portable {
    use super::{GradShape, WgradOps};
    use crate::conv::ConvGeometry;

    /// Single-backend entry with the same contract as
    /// [`super::conv_input_grad`].
    #[allow(clippy::too_many_arguments)]
    pub fn conv_input_grad(
        dy: &[f32],
        c_out: usize,
        weight: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        dx: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let sh = GradShape::new(c_in, h, w, geom, c_out);
        sh.check_input_grad(dy, weight, dx);
        // SAFETY: the portable panel runs on any host.
        unsafe {
            super::pixel_route(
                &sh,
                dy,
                weight,
                dx,
                scratch,
                crate::simd::portable::gemm_panel::<true>,
            )
        }
    }

    /// Single-backend entry with the same contract as
    /// [`super::conv_weight_grad`].
    #[allow(clippy::too_many_arguments)]
    pub fn conv_weight_grad(
        img: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        dy: &[f32],
        c_out: usize,
        dw_t: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let sh = GradShape::new(c_in, h, w, geom, c_out);
        sh.check_weight_grad(img, dy, dw_t);
        if c_out == 0 {
            return;
        }
        let ops = WgradOps::new(&sh, img, dy, c_out, scratch);
        for (t, acc) in dw_t.chunks_exact_mut(c_out).enumerate() {
            // Zero, then one `+=` per pixel: the first is `0.0 + x·dy`.
            acc.fill(0.0);
            let [origin] = ops.origins::<1>(t);
            let mut rows = ops.dyt.chunks_exact(c_out);
            for oy in 0..sh.oh {
                let mut at = origin + oy * sh.stride * ops.row;
                for _ in 0..sh.ow {
                    let (x, b) = (ops.x[at], rows.next().expect("one dYᵀ row per pixel"));
                    for (a, &bv) in acc.iter_mut().zip(b) {
                        *a += x * bv;
                    }
                    at += sh.stride;
                }
            }
        }
    }
}

/// The weight gradient's operands as the bodies read them.
#[derive(Clone, Copy)]
struct WgradOps<'a> {
    sh: &'a GradShape,
    /// `dYᵀ`, `[pixels, ld]`: one row of channels per reduction step,
    /// zero past `c_out`, so a tile loads whole vectors unmasked.
    dyt: &'a [f32],
    ld: usize,
    /// The image, zero-padded when the geometry pads, so that tap `t`
    /// at output pixel `(oy, ox)` reads `x[origin(t) + (oy·s)·row +
    /// ox·s]` with no bounds test.
    x: &'a [f32],
    row: usize,
}

impl<'a> WgradOps<'a> {
    /// Lays the operands out in `scratch` (`dYᵀ` rows `ld` wide, then the
    /// padded image if any).
    fn new(
        sh: &'a GradShape,
        img: &'a [f32],
        dy: &[f32],
        ld: usize,
        scratch: &'a mut Vec<f32>,
    ) -> Self {
        let (pad, pixels) = (sh.pad, sh.pixels);
        let (hp, wp) = (sh.h + 2 * pad, sh.w + 2 * pad);
        let padded = if pad == 0 { 0 } else { sh.c_in * hp * wp };
        scratch.resize(pixels * ld + padded, 0.0);
        let (dyt, xpad) = scratch.split_at_mut(pixels * ld);
        if ld > 0 {
            for (co, plane) in dy.chunks_exact(pixels).enumerate() {
                for (slot, &v) in dyt[co..].iter_mut().step_by(ld).zip(plane) {
                    *slot = v;
                }
            }
            for row in dyt.chunks_exact_mut(ld) {
                row[sh.c_out..].fill(0.0);
            }
        }
        if pad == 0 {
            return WgradOps {
                sh,
                dyt,
                ld,
                x: img,
                row: sh.w,
            };
        }
        xpad.fill(0.0);
        for (ci, plane) in img.chunks_exact(sh.h * sh.w).enumerate() {
            for (iy, row) in plane.chunks_exact(sh.w).enumerate() {
                let at = (ci * hp + iy + pad) * wp + pad;
                xpad[at..at + sh.w].copy_from_slice(row);
            }
        }
        WgradOps {
            sh,
            dyt,
            ld,
            x: xpad,
            row: wp,
        }
    }

    /// Offsets of the reads of taps `t0..t0 + R` at output pixel
    /// `(0, 0)`.
    #[inline(always)]
    fn origins<const R: usize>(&self, t0: usize) -> [usize; R] {
        let (k, plane) = (self.sh.k, (self.sh.h + 2 * self.sh.pad) * self.row);
        let (mut ci, mut ky, mut kx) = (t0 / (k * k), t0 / k % k, t0 % k);
        std::array::from_fn(|_| {
            let at = ci * plane + ky * self.row + kx;
            kx += 1;
            if kx == k {
                (kx, ky) = (0, ky + 1);
                if ky == k {
                    (ky, ci) = (0, ci + 1);
                }
            }
            at
        })
    }
}

/// The AVX2 bodies. Public for the bit-identity suite.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::{Flat, GradShape, WgradOps};
    use crate::conv::ConvGeometry;
    use std::arch::x86_64::*;

    /// Lanes of one vector.
    const L: usize = 8;

    /// The lanes of `bits` as a vector mask.
    #[inline(always)]
    unsafe fn lane_mask(bits: u32) -> __m256i {
        let sel = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
        _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(bits as i32), sel), sel)
    }

    /// Single-backend entry with the same contract as
    /// [`super::conv_input_grad`]: the flat route eight lanes at a time,
    /// a tile of up to four input channels in registers; the pixel route
    /// on the AVX2 GEMM panel.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn conv_input_grad(
        dy: &[f32],
        c_out: usize,
        weight: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        dx: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let sh = GradShape::new(c_in, h, w, geom, c_out);
        sh.check_input_grad(dy, weight, dx);
        if sh.c_out == 0 || !sh.flat_route() {
            return super::pixel_route(
                &sh,
                dy,
                weight,
                dx,
                scratch,
                crate::simd::avx2::gemm_panel::<true>,
            );
        }
        let fl = Flat::new(&sh, L, dy, scratch);
        for vec in 0..fl.nvec {
            let masks = fl.tap_masks(&sh, vec * L, L);
            let mut ci = 0;
            while ci < c_in {
                let at = (ci, vec * L);
                ci += match c_in - ci {
                    4.. => flat_tile::<4>(&sh, &fl, scratch, weight, &masks, dx, at),
                    2..=3 => flat_tile::<2>(&sh, &fl, scratch, weight, &masks, dx, at),
                    _ => flat_tile::<1>(&sh, &fl, scratch, weight, &masks, dx, at),
                };
            }
        }
    }

    /// Input channels `ci0..ci0 + CI` at plane lanes `q0..q0 + 8`;
    /// returns `CI`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn flat_tile<const CI: usize>(
        sh: &GradShape,
        fl: &Flat,
        d: &[f32],
        weight: &[f32],
        masks: &[u32],
        dx: &mut [f32],
        (ci0, q0): (usize, usize),
    ) -> usize {
        let (k, kk) = (sh.k, sh.kk);
        let mut acc = [_mm256_setzero_ps(); CI];
        for ky in 0..k {
            for kx in 0..k {
                let t = ky * k + kx;
                if masks[t] == 0 {
                    continue;
                }
                let mut s = [_mm256_setzero_ps(); CI];
                // SAFETY (reads): every lane of `q0..q0 + 8` at any tap
                // lies inside channel `co`'s span (`Flat::new`), and
                // `(co, ci0 + j, t)` indexes `weight` for `j < CI`.
                let base = d.as_ptr().add(fl.tap_base(sh, ky, kx) + q0);
                let taps = weight.as_ptr().add(ci0 * k * k + t);
                for co in 0..sh.c_out {
                    let dv = _mm256_loadu_ps(base.add(co * fl.span));
                    for (j, sj) in s.iter_mut().enumerate() {
                        let wv = _mm256_set1_ps(*taps.add(co * kk + j * k * k));
                        *sj = _mm256_add_ps(*sj, _mm256_mul_ps(wv, dv));
                    }
                }
                let keep = _mm256_castsi256_ps(lane_mask(masks[t]));
                for (aj, &sj) in acc.iter_mut().zip(&s) {
                    *aj = _mm256_blendv_ps(*aj, _mm256_add_ps(*aj, sj), keep);
                }
            }
        }
        let plane = sh.h * sh.w;
        let live = lane_mask(((1u64 << (plane - q0).min(L)) - 1) as u32);
        for (j, &aj) in acc.iter().enumerate() {
            // SAFETY: the live lanes are plane lanes of channel `ci0 + j`.
            _mm256_maskstore_ps(dx.as_mut_ptr().add((ci0 + j) * plane + q0), live, aj);
        }
        CI
    }

    /// Single-backend entry with the same contract as
    /// [`super::conv_weight_grad`]: eight output channels per vector,
    /// a tile of up to six taps by two vectors in registers.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn conv_weight_grad(
        img: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        dy: &[f32],
        c_out: usize,
        dw_t: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let sh = GradShape::new(c_in, h, w, geom, c_out);
        sh.check_weight_grad(img, dy, dw_t);
        let ops = WgradOps::new(&sh, img, dy, c_out.next_multiple_of(L), scratch);
        let mut co = 0;
        while co < c_out {
            let nv = if c_out - co > L { 2 } else { 1 };
            let mut t = 0;
            while t < sh.kk {
                t += match (nv, sh.kk - t) {
                    (1, 6..) => wgrad_tile::<6, 1>(ops, dw_t, (t, co)),
                    (1, 3..) => wgrad_tile::<3, 1>(ops, dw_t, (t, co)),
                    (1, _) => wgrad_tile::<1, 1>(ops, dw_t, (t, co)),
                    (_, 4..) => wgrad_tile::<4, 2>(ops, dw_t, (t, co)),
                    _ => wgrad_tile::<1, 2>(ops, dw_t, (t, co)),
                };
            }
            co += nv * L;
        }
    }

    /// Taps `t0..t0 + R` by output channels `co0..co0 + 8·NV` (those
    /// below `c_out` stored); returns `R`. The AVX-512 body runs it for
    /// a tile of at most eight channels, where sixteen lanes would idle
    /// half of each vector.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn wgrad_tile<const R: usize, const NV: usize>(
        ops: WgradOps,
        dw_t: &mut [f32],
        (t0, co0): (usize, usize),
    ) -> usize {
        let sh = ops.sh;
        // SAFETY (reads): `co0 + 8·NV <= ld`, so every vector lies in a
        // row of `dYᵀ`; each tap's read lies in the (padded) image.
        let xs: [*const f32; R] = ops.origins::<R>(t0).map(|at| ops.x.as_ptr().add(at));
        let mut acc = [[_mm256_setzero_ps(); NV]; R];
        let mut bp = ops.dyt.as_ptr().add(co0);
        for oy in 0..sh.oh {
            let mut off = oy * sh.stride * ops.row;
            for _ in 0..sh.ow {
                let bv: [__m256; NV] = std::array::from_fn(|v| _mm256_loadu_ps(bp.add(v * L)));
                for (ar, &xp) in acc.iter_mut().zip(&xs) {
                    let xv = _mm256_set1_ps(*xp.add(off));
                    for (a, &b) in ar.iter_mut().zip(&bv) {
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(xv, b));
                    }
                }
                off += sh.stride;
                bp = bp.wrapping_add(ops.ld);
            }
        }
        for (r, ar) in acc.iter().enumerate() {
            for (v, &a) in ar.iter().enumerate() {
                let live = sh.c_out.saturating_sub(co0 + v * L).min(L);
                if live > 0 {
                    // SAFETY: the live lanes are elements of row `t0 + r`
                    // of `dWᵀ`.
                    let dst = dw_t.as_mut_ptr().add((t0 + r) * sh.c_out + co0 + v * L);
                    _mm256_maskstore_ps(dst, lane_mask(((1u64 << live) - 1) as u32), a);
                }
            }
        }
        R
    }
}

/// The AVX-512 bodies. Public for the bit-identity suite.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use super::{Flat, GradShape, WgradOps};
    use crate::conv::ConvGeometry;
    use std::arch::x86_64::*;

    /// Lanes of one vector.
    const L: usize = 16;

    /// The low `n <= 32` bits set.
    #[inline(always)]
    fn low_bits(n: usize) -> u32 {
        ((1u64 << n) - 1) as u32
    }

    /// Single-backend entry with the same contract as
    /// [`super::conv_input_grad`]: the flat route sixteen lanes at a
    /// time, a tile of up to four input channels by two vectors in
    /// registers; the pixel route on the AVX-512 GEMM panel.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn conv_input_grad(
        dy: &[f32],
        c_out: usize,
        weight: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        dx: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let sh = GradShape::new(c_in, h, w, geom, c_out);
        sh.check_input_grad(dy, weight, dx);
        if sh.c_out == 0 || !sh.flat_route() {
            return super::pixel_route(
                &sh,
                dy,
                weight,
                dx,
                scratch,
                crate::simd::avx512::gemm_panel::<true>,
            );
        }
        let fl = Flat::new(&sh, L, dy, scratch);
        let mut vec = 0;
        while vec < fl.nvec {
            let nv = (fl.nvec - vec).min(2);
            let masks = fl.tap_masks(&sh, vec * L, nv * L);
            let mut ci = 0;
            while ci < c_in {
                let at = (ci, vec * L);
                ci += match (nv, c_in - ci) {
                    (2, 4..) => flat_tile::<4, 2>(&sh, &fl, scratch, weight, &masks, dx, at),
                    (2, 2..=3) => flat_tile::<2, 2>(&sh, &fl, scratch, weight, &masks, dx, at),
                    (2, _) => flat_tile::<1, 2>(&sh, &fl, scratch, weight, &masks, dx, at),
                    (_, 4..) => flat_tile::<4, 1>(&sh, &fl, scratch, weight, &masks, dx, at),
                    (_, 2..=3) => flat_tile::<2, 1>(&sh, &fl, scratch, weight, &masks, dx, at),
                    _ => flat_tile::<1, 1>(&sh, &fl, scratch, weight, &masks, dx, at),
                };
            }
            vec += nv;
        }
    }

    /// Input channels `ci0..ci0 + CI` at plane lanes `q0..q0 + 16·V`
    /// (bit `16v + l` of a tap mask is lane `l` of vector `v`); returns
    /// `CI`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn flat_tile<const CI: usize, const V: usize>(
        sh: &GradShape,
        fl: &Flat,
        d: &[f32],
        weight: &[f32],
        masks: &[u32],
        dx: &mut [f32],
        (ci0, q0): (usize, usize),
    ) -> usize {
        let (k, kk) = (sh.k, sh.kk);
        let mut acc = [[_mm512_setzero_ps(); V]; CI];
        for ky in 0..k {
            for kx in 0..k {
                let t = ky * k + kx;
                if masks[t] == 0 {
                    continue;
                }
                let mut s = [[_mm512_setzero_ps(); V]; CI];
                // SAFETY (reads): every lane of `q0..q0 + 16·V` at any
                // tap lies inside channel `co`'s span (`Flat::new`), and
                // `(co, ci0 + j, t)` indexes `weight` for `j < CI`.
                let base = d.as_ptr().add(fl.tap_base(sh, ky, kx) + q0);
                let taps = weight.as_ptr().add(ci0 * k * k + t);
                for co in 0..sh.c_out {
                    let at = base.add(co * fl.span);
                    let dv: [__m512; V] = std::array::from_fn(|v| _mm512_loadu_ps(at.add(v * L)));
                    for (j, sj) in s.iter_mut().enumerate() {
                        let wv = _mm512_set1_ps(*taps.add(co * kk + j * k * k));
                        for (sv, &dvv) in sj.iter_mut().zip(&dv) {
                            *sv = _mm512_add_ps(*sv, _mm512_mul_ps(wv, dvv));
                        }
                    }
                }
                for (aj, sj) in acc.iter_mut().zip(&s) {
                    for (v, (av, &sv)) in aj.iter_mut().zip(sj).enumerate() {
                        let keep = (masks[t] >> (v * L)) as __mmask16;
                        *av = _mm512_mask_add_ps(*av, keep, *av, sv);
                    }
                }
            }
        }
        let plane = sh.h * sh.w;
        for (j, aj) in acc.iter().enumerate() {
            for (v, &av) in aj.iter().enumerate() {
                let q = q0 + v * L;
                let live = low_bits(plane.saturating_sub(q).min(L)) as __mmask16;
                // SAFETY: the live lanes are plane lanes of channel
                // `ci0 + j`; the address is formed only inside the plane.
                if live != 0 {
                    _mm512_mask_storeu_ps(dx.as_mut_ptr().add((ci0 + j) * plane + q), live, av);
                }
            }
        }
        CI
    }

    /// Single-backend entry with the same contract as
    /// [`super::conv_weight_grad`]: sixteen output channels per vector,
    /// a tile of up to eight taps by two vectors in registers; a tile of
    /// at most eight channels runs the AVX2 body's eight-lane tile.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn conv_weight_grad(
        img: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        dy: &[f32],
        c_out: usize,
        dw_t: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        let sh = GradShape::new(c_in, h, w, geom, c_out);
        sh.check_weight_grad(img, dy, dw_t);
        // Tiles of 32 channels, then one of 16 or 8: `dYᵀ` rows are as
        // wide as the tiles that read them.
        let tile = |left: usize| match left {
            ..=8 => (8, 0),
            9..=16 => (L, 1),
            _ => (2 * L, 2),
        };
        let full = c_out - c_out % (2 * L);
        let ld = if c_out == full {
            full
        } else {
            full + tile(c_out - full).0
        };
        let ops = WgradOps::new(&sh, img, dy, ld, scratch);
        let mut co = 0;
        while co < c_out {
            let (width, nv) = tile(c_out - co);
            let mut t = 0;
            while t < sh.kk {
                let at = (t, co);
                t += match (nv, sh.kk - t) {
                    (0, 6..) => super::avx2::wgrad_tile::<6, 1>(ops, dw_t, at),
                    (0, 3..) => super::avx2::wgrad_tile::<3, 1>(ops, dw_t, at),
                    (0, _) => super::avx2::wgrad_tile::<1, 1>(ops, dw_t, at),
                    (1, 8..) => wgrad_tile::<8, 1>(ops, dw_t, at),
                    (1, 4..) => wgrad_tile::<4, 1>(ops, dw_t, at),
                    (1, _) => wgrad_tile::<1, 1>(ops, dw_t, at),
                    (_, 4..) => wgrad_tile::<4, 2>(ops, dw_t, at),
                    _ => wgrad_tile::<1, 2>(ops, dw_t, at),
                };
            }
            co += width;
        }
    }

    /// Taps `t0..t0 + R` by output channels `co0..co0 + 16·NV` (those
    /// below `c_out` stored); returns `R`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn wgrad_tile<const R: usize, const NV: usize>(
        ops: WgradOps,
        dw_t: &mut [f32],
        (t0, co0): (usize, usize),
    ) -> usize {
        let sh = ops.sh;
        // SAFETY (reads): `co0 + 16·NV <= ld`, so every vector lies in a
        // row of `dYᵀ`; each tap's read lies in the (padded) image.
        let xs: [*const f32; R] = ops.origins::<R>(t0).map(|at| ops.x.as_ptr().add(at));
        let mut acc = [[_mm512_setzero_ps(); NV]; R];
        let mut bp = ops.dyt.as_ptr().add(co0);
        for oy in 0..sh.oh {
            let mut off = oy * sh.stride * ops.row;
            for _ in 0..sh.ow {
                let bv: [__m512; NV] = std::array::from_fn(|v| _mm512_loadu_ps(bp.add(v * L)));
                for (ar, &xp) in acc.iter_mut().zip(&xs) {
                    let xv = _mm512_set1_ps(*xp.add(off));
                    for (a, &b) in ar.iter_mut().zip(&bv) {
                        *a = _mm512_add_ps(*a, _mm512_mul_ps(xv, b));
                    }
                }
                off += sh.stride;
                bp = bp.wrapping_add(ops.ld);
            }
        }
        for (r, ar) in acc.iter().enumerate() {
            for (v, &a) in ar.iter().enumerate() {
                let live = low_bits(sh.c_out.saturating_sub(co0 + v * L).min(L)) as __mmask16;
                if live != 0 {
                    // SAFETY: the live lanes are elements of row `t0 + r`
                    // of `dWᵀ`.
                    let dst = dw_t.as_mut_ptr().add((t0 + r) * sh.c_out + co0 + v * L);
                    _mm512_mask_storeu_ps(dst, live, a);
                }
            }
        }
        R
    }
}
