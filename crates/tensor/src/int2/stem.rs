//! The stem's direct f32 convolution: a raw image in, f32 accumulators
//! out, one vector lane per output pixel.
//!
//! A net's first conv reads continuous pixels, so it cannot run on the
//! popcount engine; the layer path lowers it to `im2col_into` and an f32
//! GEMM (`gemm_bias_st`) over a column buffer `k²·c_in` times the size
//! of the image. [`conv_f32_acc`] computes the same accumulators without
//! the columns, **bit for bit**: every output element runs the GEMM's
//! own op sequence — taps in im2col row order `(ci, ky, kx)`, the first
//! one `0.0 + w·x`, each later one `acc + w·x` as a separately rounded
//! multiply and add (no FMA), the bias added after the last tap — and a
//! tap in the padding multiplies a literal `0.0`, as the GEMM multiplies
//! the zero im2col wrote there. Lanes map 1:1 onto output pixels and no
//! value ever crosses a lane, so the vector width never enters a result.
//! One body, written once in portable Rust with a const lane width,
//! computes the same bits in every build: AVX-512 (16 lanes), AVX2 (8)
//! and portable (4), emitted by the `target_build!` macro of
//! [`crate::simd`] and dispatched on [`super::active_backend`].
//!
//! The body first copies the image into a caller-owned scratch, with
//! zero rows and columns for the padding and slack at the end, so every
//! stride-1 tap of a tile is one plain load of contiguous pixels: lanes
//! past a row's end read the next rows and compute values nobody keeps.
//! A stride > 1 reads each lane by index. A tile of up to eight output
//! channels by up to two vectors accumulates in registers over every tap
//! and is stored whole — the lanes past its row land in later rows of
//! the same channel, which later tiles rewrite, since rows run in
//! ascending order — except a vector that would reach past its
//! channel's map, which copies its live lanes out of line.
//!
//! Each channel may come with an accumulator range `[lo, hi]`: the range
//! on which the caller's folded thresholds reproduce its epilogue (see
//! [`super::CodeSteps::bisect`]). After the tiles, one pass over the map
//! reports whether every accumulator lies inside its channel's range.
//! NaN lies in no range (the compares are ordered). A caller that only
//! wants the accumulators (the layer path's f32 route) passes no ranges
//! and nothing is compared.

use super::Backend;
use crate::conv::ConvGeometry;
use crate::simd::{each_row, store_part, target_build};

/// Validated shape of one stem conv.
struct StemShape {
    c_in: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
    /// Height and width of the zero-padded image.
    hp: usize,
    wp: usize,
    /// Reduction depth `c_in·k²`.
    kk: usize,
    c_out: usize,
}

impl StemShape {
    #[allow(clippy::too_many_arguments)]
    fn new(
        img: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        weight: &[f32],
        bias: &[f32],
        domain: Option<&[[f32; 2]]>,
        acc: &[f32],
    ) -> Self {
        let oh = geom
            .output_dim(h)
            .expect("conv_f32_acc: window must fit input height");
        let ow = geom
            .output_dim(w)
            .expect("conv_f32_acc: window must fit input width");
        let (k, pad, c_out) = (geom.kernel, geom.padding, bias.len());
        let kk = c_in * k * k;
        assert!(kk > 0, "conv_f32_acc: empty reduction");
        assert_eq!(
            img.len(),
            c_in * h * w,
            "conv_f32_acc: image length mismatch"
        );
        assert_eq!(
            weight.len(),
            c_out * kk,
            "conv_f32_acc: weight length mismatch"
        );
        assert!(
            domain.is_none_or(|d| d.len() == c_out),
            "conv_f32_acc: one range per channel"
        );
        assert_eq!(
            acc.len(),
            c_out * oh * ow,
            "conv_f32_acc: accumulator map length mismatch"
        );
        Self {
            c_in,
            h,
            w,
            k,
            stride: geom.stride,
            pad,
            oh,
            ow,
            hp: h + 2 * pad,
            wp: w + 2 * pad,
            kk,
            c_out,
        }
    }

    /// Copies `img` into `x` zero-padded, `[c_in, hp, wp]`, followed by
    /// enough zeros that a tile of `lanes` pixels starting at any output
    /// column reads inside `x`: past the image's last read, a tile's
    /// lanes reach at most `(lanes - 1)·stride` further.
    fn pad_image<'a>(&self, img: &[f32], lanes: usize, x: &'a mut Vec<f32>) -> &'a [f32] {
        let (hp, wp, pad) = (self.hp, self.wp, self.pad);
        x.clear();
        if pad == 0 {
            // One copy, no zero fill of what it overwrites.
            x.extend_from_slice(img);
        } else {
            x.resize(self.c_in * hp * wp, 0.0);
            for (ci, plane) in img.chunks_exact(self.h * self.w).enumerate() {
                for (iy, row) in plane.chunks_exact(self.w).enumerate() {
                    let at = (ci * hp + iy + pad) * wp + pad;
                    x[at..at + self.w].copy_from_slice(row);
                }
            }
        }
        x.resize(x.len() + (lanes - 1) * self.stride, 0.0);
        x
    }
}

/// The stem's accumulators, from the caller's CHW image: `acc` is
/// `[bias.len(), oh·ow]`, bit-identical to `im2col_into` →
/// [`crate::gemm::gemm_bias_st`] over `weight` (`[c_out, c_in·k²]`
/// row-major, im2col's depth order) for every input, non-finite ones
/// included. Returns whether every accumulator lies in its channel's
/// `domain[co] = [lo, hi]` (`lo <= y <= hi`; NaN never does), `true`
/// with no `domain`. `acc` is written in full either way; `scratch`
/// (the zero-padded image) is resized and overwritten.
///
/// # Panics
///
/// Panics on a window that does not fit, `c_in = 0` or a slice whose
/// length disagrees with the shape.
#[allow(clippy::too_many_arguments)]
pub fn conv_f32_acc(
    img: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    weight: &[f32],
    bias: &[f32],
    domain: Option<&[[f32; 2]]>,
    acc: &mut [f32],
    scratch: &mut Vec<f32>,
) -> bool {
    dispatch!(
        avx512,
        conv_f32_acc(img, c_in, h, w, geom, weight, bias, domain, acc, scratch)
    )
}

/// The one body of [`conv_f32_acc`] at `L` lanes: tiles of up to eight
/// channels by up to `NV` vectors, one vector where a row's remaining
/// pixels fit in it.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stem<const L: usize, const NV: usize>(
    img: &[f32],
    c_in: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    weight: &[f32],
    bias: &[f32],
    domain: Option<&[[f32; 2]]>,
    acc: &mut [f32],
    scratch: &mut Vec<f32>,
) -> bool {
    let sh = StemShape::new(img, c_in, h, w, geom, weight, bias, domain, acc);
    let x = sh.pad_image(img, NV * L, scratch);
    if sh.stride == 1 {
        tiles::<L, NV, true>(&sh, x, weight, bias, acc);
    } else {
        tiles::<L, NV, false>(&sh, x, weight, bias, acc);
    }
    let pixels = sh.oh * sh.ow;
    domain.is_none_or(|domain| {
        acc.chunks_exact(pixels).zip(domain).all(|(ys, &[lo, hi])| {
            ys.iter()
                .map(|&y| !((lo <= y) & (y <= hi)) as u32)
                .sum::<u32>()
                == 0
        })
    })
}

/// Every tile of the map, in ascending rows; `UNIT` when the stride is
/// 1.
#[inline(always)]
fn tiles<const L: usize, const NV: usize, const UNIT: bool>(
    sh: &StemShape,
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
    acc: &mut [f32],
) {
    for oy in 0..sh.oh {
        for ox in (0..sh.ow).step_by(NV * L) {
            // `NV == 1` drops the two-vector arms from builds that never
            // take them.
            let two = NV > 1 && sh.ow - ox > L;
            let mut co = 0;
            while co < sh.c_out {
                let at = (co, oy, ox);
                co += match (two, sh.c_out - co) {
                    (true, 8..) => tile::<8, 2, L, UNIT>(sh, x, weight, bias, acc, at),
                    (true, 4..) => tile::<4, 2, L, UNIT>(sh, x, weight, bias, acc, at),
                    (true, _) => tile::<1, 2, L, UNIT>(sh, x, weight, bias, acc, at),
                    (false, 8..) => tile::<8, 1, L, UNIT>(sh, x, weight, bias, acc, at),
                    (false, 4..) => tile::<4, 1, L, UNIT>(sh, x, weight, bias, acc, at),
                    (false, _) => tile::<1, 1, L, UNIT>(sh, x, weight, bias, acc, at),
                };
            }
        }
    }
}

/// Channels `co..co + CB` at output pixels `ox..` of row `oy`, vector
/// `v` holding pixels `ox + L·v ..`; returns `CB`.
#[inline(always)]
fn tile<const CB: usize, const NV: usize, const L: usize, const UNIT: bool>(
    sh: &StemShape,
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
    acc: &mut [f32],
    (co, oy, ox): (usize, usize, usize),
) -> usize {
    let (k, s, kk) = (sh.k, sh.stride, sh.kk);
    let mut y = [[[0.0f32; L]; NV]; CB];
    // SAFETY (every read below): `pad_image` sized `x` so that each
    // lane of a tile at an output pixel of the map reads inside it, and
    // `(co + j)·kk + t` indexes `weight` (`[c_out, kk]`, asserted by
    // `StemShape::new`) for `co + j < c_out` and `t < kk`.
    let corner = unsafe { x.as_ptr().add(oy * s * sh.wp + ox * s) };
    let mut t = 0;
    for ci in 0..sh.c_in {
        for ky in 0..k {
            let row = unsafe { corner.add((ci * sh.hp + ky) * sh.wp) };
            for kx in 0..k {
                // `L` pixels `s` apart, one plain load at stride 1.
                let xv: [[f32; L]; NV] = std::array::from_fn(|v| unsafe {
                    let p = row.add(kx + v * L * s);
                    match UNIT {
                        true => p.cast::<[f32; L]>().read_unaligned(),
                        false => std::array::from_fn(|l| *p.add(l * s)),
                    }
                });
                each_row!(j < CB, {
                    let wv = unsafe { *weight.get_unchecked((co + j) * kk + t) };
                    for (yv, xv) in y[j].iter_mut().zip(&xv) {
                        for (a, &b) in yv.iter_mut().zip(xv) {
                            *a += wv * b;
                        }
                    }
                });
                t += 1;
            }
        }
    }
    let pixels = sh.oh * sh.ow;
    let n = sh.ow - ox;
    each_row!(j < CB, {
        let map = &mut acc[(co + j) * pixels..][..pixels];
        for (v, mut out) in y[j].into_iter().enumerate() {
            for a in &mut out {
                *a += bias[co + j];
            }
            let live = n.saturating_sub(v * L).min(L);
            if live > 0 {
                store(&mut map[oy * sh.ow + ox + v * L..], out, live);
            }
        }
    });
    CB
}

/// Stores the by-value vector `lanes` at the start of `dst`, the rest of
/// its channel's map: whole where the map has room for it (any lane
/// past `live` lies in a later row, rewritten by a later tile), else
/// only its `live` lanes, out of line.
#[inline(always)]
fn store<const L: usize>(dst: &mut [f32], lanes: [f32; L], live: usize) {
    match dst.first_chunk_mut::<L>() {
        Some(whole) => *whole = lanes,
        None => store_part(dst, &lanes, live),
    }
}

/// The entry point of one backend: `$l` lanes, tiles of up to `$nv`
/// vectors.
macro_rules! stem_backend {
    ($feature:tt, $l:literal, $nv:literal) => {
        target_build! { $feature;
            fn conv_f32_acc(
                img: &[f32],
                c_in: usize,
                h: usize,
                w: usize,
                geom: ConvGeometry,
                weight: &[f32],
                bias: &[f32],
                domain: Option<&[[f32; 2]]>,
                acc: &mut [f32],
                scratch: &mut Vec<f32>,
            ) -> bool = super::stem::<$l, $nv>;
        }
    };
}

/// The baseline build, four lanes wide; [`super::portable`] re-exports
/// it.
pub mod portable {
    use super::*;
    stem_backend!(portable, 4, 1);
}

/// The AVX2 build, eight lanes wide; [`super::avx2`] re-exports it.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::*;
    stem_backend!("avx2", 8, 1);
}

/// The AVX-512 build, sixteen lanes wide and two vectors to a tile (a
/// CNV stem's 30-pixel row); [`super::avx512`] re-exports it.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use super::*;
    stem_backend!("avx512f", 16, 2);
}
