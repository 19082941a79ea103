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
//! lanes map 1:1 onto outputs, so one body per kernel, written once in
//! portable Rust with a const lane width, computes the same bits in
//! every build: AVX-512 (16 lanes), AVX2 (8) and portable (4), emitted
//! by the `target_build!` macro of [`crate::simd`] and dispatched on
//! [`crate::simd::active_backend`].
//!
//! [`conv_input_grad`] takes one of two routes, chosen from the
//! geometry alone:
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
use crate::simd::{dispatch, each_row, store_part, target_build};

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

    /// Whether the input gradient takes the flat route (see
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
/// `panel` must be a `gemm_panel::<true>` build this host can run.
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
struct Flat {
    nvec: usize,
    span: usize,
    margin: usize,
}

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

    /// Lane masks of the `nv` vectors of `L` lanes from `q0`, one per
    /// tap in `(ky, kx)` order, a word per vector: bit `l` of word `v`
    /// is set when lane `q0 + L·v + l` lies in the plane and the tap's
    /// output pixel lies in the map.
    fn tap_masks<const L: usize>(&self, sh: &GradShape, q0: usize, nv: usize) -> [[u32; 2]; FLAT_MAX_K * FLAT_MAX_K] {
        let (k, w, plane, lanes) = (sh.k, sh.w, sh.h * sh.w, nv * L);
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
        let mut masks = [[0u32; 2]; FLAT_MAX_K * FLAT_MAX_K];
        for ky in 0..k {
            // Input rows whose output row `iy + pad - ky` is in the map.
            let lo = ky.saturating_sub(sh.pad);
            let hi = (ky + sh.oh).saturating_sub(sh.pad).min(sh.h);
            let rows = span_bits(lo * w, hi * w);
            for kx in 0..k {
                let bits = rows & cols[kx];
                masks[ky * k + kx] = [bits & !(!0 << L), bits >> L];
            }
        }
        masks
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

    /// Offsets of the reads of the `R` taps from `tap` on at output
    /// pixel `(0, 0)`, stepping `tap` (`[ci, ky, kx]`) past them: the
    /// tiles walk the taps in order, so no tile divides to find its
    /// first one.
    #[inline(always)]
    fn origins<const R: usize>(&self, tap: &mut [usize; 3]) -> [usize; R] {
        let (k, plane) = (self.sh.k, (self.sh.h + 2 * self.sh.pad) * self.row);
        let [ci, ky, kx] = tap;
        std::array::from_fn(|_| {
            let at = *ci * plane + *ky * self.row + *kx;
            *kx += 1;
            if *kx == k {
                (*kx, *ky) = (0, *ky + 1);
                if *ky == k {
                    (*ky, *ci) = (0, *ci + 1);
                }
            }
            at
        })
    }
}

/// The one body of [`conv_input_grad`] at `L` lanes: the flat route in
/// groups of up to `V` vectors, a tile of up to four input channels in
/// registers; the pixel route on `panel`, the GEMM panel of the same
/// build.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn input_grad<const L: usize, const V: usize>(
    dy: &[f32],
    c_out: usize,
    weight: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    dx: &mut [f32],
    scratch: &mut Vec<f32>,
    panel: PanelFn,
) {
    let sh = GradShape::new(c_in, h, w, geom, c_out);
    sh.check_input_grad(dy, weight, dx);
    if sh.c_out == 0 || !sh.flat_route() {
        // SAFETY: each build passes the panel of its own feature.
        return unsafe { pixel_route(&sh, dy, weight, dx, scratch, panel) };
    }
    let fl = Flat::new(&sh, L, dy, scratch);
    let mut vec = 0;
    while vec < fl.nvec {
        let nv = (fl.nvec - vec).min(V);
        let masks = fl.tap_masks::<L>(&sh, vec * L, nv);
        let mut ci = 0;
        while ci < c_in {
            let at = (ci, vec * L);
            // `V == 1` drops the two-vector arms from builds that never
            // take them.
            ci += match (V == 1 || nv == 1, c_in - ci) {
                (true, 4..) => flat_tile::<4, 1, L>(&sh, &fl, scratch, weight, &masks, dx, at),
                (true, 2..=3) => flat_tile::<2, 1, L>(&sh, &fl, scratch, weight, &masks, dx, at),
                (true, _) => flat_tile::<1, 1, L>(&sh, &fl, scratch, weight, &masks, dx, at),
                (false, 4..) => flat_tile::<4, 2, L>(&sh, &fl, scratch, weight, &masks, dx, at),
                (false, 2..=3) => flat_tile::<2, 2, L>(&sh, &fl, scratch, weight, &masks, dx, at),
                (false, _) => flat_tile::<1, 2, L>(&sh, &fl, scratch, weight, &masks, dx, at),
            };
        }
        vec += nv;
    }
}

/// Input channels `ci0..ci0 + CI` at plane lanes `q0..q0 + L·V` (bit
/// `l` of word `v` of a tap mask is lane `l` of vector `v`); returns
/// `CI`.
#[inline(always)]
fn flat_tile<const CI: usize, const V: usize, const L: usize>(
    sh: &GradShape,
    fl: &Flat,
    d: &[f32],
    weight: &[f32],
    masks: &[[u32; 2]],
    dx: &mut [f32],
    (ci0, q0): (usize, usize),
) -> usize {
    let (k, kk) = (sh.k, sh.kk);
    let mut acc = [[[0.0f32; L]; V]; CI];
    for ky in 0..k {
        for kx in 0..k {
            let t = ky * k + kx;
            let m = masks[t];
            if m == [0; 2] {
                continue;
            }
            let mut s = [[[0.0f32; L]; V]; CI];
            let (base, taps) = (fl.tap_base(sh, ky, kx) + q0, ci0 * k * k + t);
            for co in 0..sh.c_out {
                // SAFETY: every lane of `q0..q0 + L·V` at any tap lies
                // inside channel `co`'s span (`Flat::new`), and `(co,
                // ci0 + j, t)` indexes `weight` for `j < CI`.
                let dv: [[f32; L]; V] = std::array::from_fn(|v| unsafe {
                    d.as_ptr().add(base + co * fl.span + v * L).cast::<[f32; L]>().read_unaligned()
                });
                each_row!(j < CI, {
                    let wv = unsafe { *weight.get_unchecked(taps + co * kk + j * k * k) };
                    for (sv, dv) in s[j].iter_mut().zip(&dv) {
                        for (x, &y) in sv.iter_mut().zip(dv) {
                            *x += wv * y;
                        }
                    }
                });
            }
            each_row!(j < CI, {
                each_row!(v < V, {
                    let bits = if v == 0 { m[0] } else { m[1] };
                    for (l, (x, &y)) in acc[j][v].iter_mut().zip(&s[j][v]).enumerate() {
                        *x = if bits & 1 << l != 0 { *x + y } else { *x };
                    }
                });
            });
        }
    }
    let plane = sh.h * sh.w;
    each_row!(j < CI, {
        for (v, &lanes) in acc[j].iter().enumerate() {
            let q = q0 + v * L;
            let live = plane.saturating_sub(q).min(L);
            if live > 0 {
                store(&mut dx[(ci0 + j) * plane + q..], lanes, live);
            }
        }
    });
    CI
}

/// The one body of [`conv_weight_grad`] at `L` lanes: output channels
/// in lanes, a tile of up to eight taps by up to two vectors in
/// registers, and a tile of at most `N` channels at `N` lanes (a
/// half-masked 512-bit op loses to a full 256-bit one).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn weight_grad<const L: usize, const N: usize>(
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
    // Tiles of `2L` channels, then one of `L` or `N`: `dYᵀ` rows are as
    // wide as the tiles that read them.
    let tile = |left: usize| match left {
        _ if left <= N => (N, 0),
        _ if left <= L => (L, 1),
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
        let (mut t, mut tap) = (0, [0; 3]);
        while t < sh.kk {
            let at = (t, co, &mut tap);
            t += match (nv, sh.kk - t) {
                (0, 6..) => wgrad_tile::<6, 1, N>(ops, dw_t, at),
                (0, 3..) => wgrad_tile::<3, 1, N>(ops, dw_t, at),
                (0, _) => wgrad_tile::<1, 1, N>(ops, dw_t, at),
                (1, 8..) => wgrad_tile::<8, 1, L>(ops, dw_t, at),
                (1, 4..) => wgrad_tile::<4, 1, L>(ops, dw_t, at),
                (1, _) => wgrad_tile::<1, 1, L>(ops, dw_t, at),
                (_, 4..) => wgrad_tile::<4, 2, L>(ops, dw_t, at),
                _ => wgrad_tile::<1, 2, L>(ops, dw_t, at),
            };
        }
        co += width;
    }
}

/// Taps `t0..t0 + R` (`tap` is `t0`'s cursor, stepped past them) by
/// output channels `co0..co0 + L·NV` (those below `c_out` stored);
/// returns `R`. On a map of a pixel or a few the per-tile work is most
/// of the cost, so none of it divides or bounds-checks a store.
#[inline(always)]
fn wgrad_tile<const R: usize, const NV: usize, const L: usize>(
    ops: WgradOps,
    dw_t: &mut [f32],
    (t0, co0, tap): (usize, usize, &mut [usize; 3]),
) -> usize {
    let sh = ops.sh;
    // SAFETY (every read below): `co0 + L·NV <= ld`, so every vector
    // lies in a row of `dYᵀ`; each tap's read lies in the (padded) image.
    let xs = ops.origins::<R>(tap).map(|at| unsafe { ops.x.as_ptr().add(at) });
    let mut acc = [[[0.0f32; L]; NV]; R];
    let mut bp = unsafe { ops.dyt.as_ptr().add(co0) };
    for oy in 0..sh.oh {
        let mut off = oy * sh.stride * ops.row;
        for _ in 0..sh.ow {
            let bv: [[f32; L]; NV] =
                std::array::from_fn(|v| unsafe { bp.add(v * L).cast::<[f32; L]>().read_unaligned() });
            each_row!(r < R, {
                let xv = unsafe { *xs[r].add(off) };
                for (a, b) in acc[r].iter_mut().zip(&bv) {
                    for (x, &y) in a.iter_mut().zip(b) {
                        *x += xv * y;
                    }
                }
            });
            off += sh.stride;
            bp = bp.wrapping_add(ops.ld);
        }
    }
    let live: [usize; NV] = std::array::from_fn(|v| sh.c_out.saturating_sub(co0 + v * L).min(L));
    assert!(t0 + R <= sh.kk && co0 < sh.c_out && dw_t.len() == sh.kk * sh.c_out);
    each_row!(r < R, {
        // SAFETY: tap `t0 + r` is a row of `dw_t` (`[kk, c_out]`), and
        // vector `v` writes its `live[v]` channels below `c_out` in it.
        let row = unsafe { dw_t.as_mut_ptr().add((t0 + r) * sh.c_out + co0) };
        for (v, &lanes) in acc[r].iter().enumerate() {
            match live[v] {
                0 => {}
                l if l == L => unsafe { row.add(v * L).cast::<[f32; L]>().write_unaligned(lanes) },
                l => store_part(unsafe { std::slice::from_raw_parts_mut(row.add(v * L), l) }, &lanes, l),
            }
        }
    });
    R
}

/// Stores the first `live` lanes of the by-value vector `lanes` to
/// `dst`: one whole-vector write when that is every lane, else
/// [`store_part`].
#[inline(always)]
fn store<const L: usize>(dst: &mut [f32], lanes: [f32; L], live: usize) {
    match dst.first_chunk_mut::<L>() {
        Some(whole) if live == L => *whole = lanes,
        _ => store_part(dst, &lanes, live),
    }
}

/// The entry points of one backend: `$l` lanes, `$n` on weight-gradient
/// tiles of at most `$n` channels, flat input-gradient groups of `$v`
/// vectors, and the pixel route on `$panel`.
macro_rules! conv_grad_backend {
    ($feature:tt, $l:literal, $n:literal, $v:literal, $panel:expr) => {
        target_build! { $feature;
            fn conv_input_grad(
                dy: &[f32],
                c_out: usize,
                weight: &[f32],
                c_in: usize,
                h: usize,
                w: usize,
                geom: ConvGeometry,
                dx: &mut [f32],
                scratch: &mut Vec<f32>,
            ) = super::input_grad::<$l, $v>, $panel;
            fn conv_weight_grad(
                img: &[f32],
                c_in: usize,
                h: usize,
                w: usize,
                geom: ConvGeometry,
                dy: &[f32],
                c_out: usize,
                dw_t: &mut [f32],
                scratch: &mut Vec<f32>,
            ) = super::weight_grad::<$l, $n>;
        }
    };
}

/// The baseline build of both kernels, four lanes wide. Public for the
/// bit-identity suite.
pub mod portable {
    use super::*;
    conv_grad_backend!(portable, 4, 4, 1, crate::simd::portable::gemm_panel::<true>);
}

/// The AVX2 build of both kernels, eight lanes wide. Public for the
/// bit-identity suite.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::*;
    conv_grad_backend!("avx2", 8, 8, 1, crate::simd::avx2::gemm_panel::<true>);
}

/// The AVX-512 build of both kernels, sixteen lanes wide (eight on
/// tiles of at most eight channels). Public for the bit-identity suite.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use super::*;
    conv_grad_backend!("avx512f", 16, 8, 2, crate::simd::avx512::gemm_panel::<true>);
}
