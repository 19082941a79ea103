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
//! value ever crosses a lane, so the vector width never enters a result:
//! the AVX-512 body runs sixteen pixels, the AVX2 one eight, the
//! portable one a pixel at a time, all with the same bits.
//!
//! A tap's pixels are one masked load of the input row (stride 1) or a
//! masked gather (stride > 1); the masked-off lanes — padding columns
//! and a ragged row end — read nothing, so no load reaches past the
//! image. A tile of output channels accumulates in registers over every
//! tap and is stored once into the caller's map.
//!
//! Each channel may come with an accumulator range `[lo, hi]`: the range
//! on which the caller's folded thresholds reproduce its epilogue (see
//! [`super::CodeSteps::bisect`]). The bodies compare every accumulator
//! against its channel's range on the way out of the registers and
//! report whether all of them lie inside. NaN lies in no range (the
//! compares are ordered). A caller that only wants the accumulators
//! (the layer path's f32 route) passes no ranges and nothing is
//! compared.

use super::Backend;
use crate::conv::ConvGeometry;

/// Validated shape of one stem conv, shared by the backend bodies.
struct StemShape {
    c_in: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    oh: usize,
    ow: usize,
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
        let (k, c_out) = (geom.kernel, bias.len());
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
            pad: geom.padding,
            oh,
            ow,
            kk,
            c_out,
        }
    }

    /// Input row tap row `ky` of output row `oy` reads; `None` in the
    /// padding.
    #[inline(always)]
    fn in_row(&self, oy: usize, ky: usize) -> Option<usize> {
        (oy * self.stride + ky)
            .checked_sub(self.pad)
            .filter(|&iy| iy < self.h)
    }

    /// Lanes `lo..hi` of a run of `n <= lanes` stride-1 output pixels
    /// starting at `ox` whose tap column `kx` lies inside the image.
    #[inline(always)]
    fn unit_stride_lanes(&self, ox: usize, kx: usize, n: usize) -> (usize, usize) {
        let start = (ox + kx) as isize - self.pad as isize;
        let lo = (-start).clamp(0, n as isize) as usize;
        let hi = (self.w as isize - start).clamp(lo as isize, n as isize) as usize;
        (lo, hi)
    }
}

/// The stem's accumulators, from the caller's CHW image: `acc` is
/// `[bias.len(), oh·ow]`, bit-identical to `im2col_into` →
/// [`crate::gemm::gemm_bias_st`] over `weight` (`[c_out, c_in·k²]`
/// row-major, im2col's depth order) for every input, non-finite ones
/// included. Returns whether every accumulator lies in its channel's
/// `domain[co] = [lo, hi]` (`lo <= y <= hi`; NaN never does), `true`
/// with no `domain`. `acc` is written in full either way.
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
) -> bool {
    dispatch!(
        avx512,
        conv_f32_acc(img, c_in, h, w, geom, weight, bias, domain, acc)
    )
}

/// The scalar stem conv; [`super::portable`] re-exports it.
pub mod portable {
    use super::StemShape;
    use crate::conv::ConvGeometry;

    /// Single-backend entry with the same contract as
    /// [`super::conv_f32_acc`]: one output element at a time.
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
    ) -> bool {
        let sh = StemShape::new(img, c_in, h, w, geom, weight, bias, domain, acc);
        let (k, pixels) = (sh.k, sh.oh * sh.ow);
        let mut inside = true;
        for (co, out) in acc.chunks_exact_mut(pixels).enumerate() {
            let taps = &weight[co * sh.kk..(co + 1) * sh.kk];
            let range = domain.map(|d| d[co]);
            for oy in 0..sh.oh {
                for ox in 0..sh.ow {
                    let mut y = 0.0f32;
                    for ci in 0..sh.c_in {
                        for ky in 0..k {
                            let row = sh
                                .in_row(oy, ky)
                                .map(|iy| &img[(ci * sh.h + iy) * sh.w..][..sh.w]);
                            for kx in 0..k {
                                let ix = (ox * sh.stride + kx).checked_sub(sh.pad);
                                let x = match (row, ix) {
                                    (Some(row), Some(ix)) if ix < sh.w => row[ix],
                                    _ => 0.0,
                                };
                                y += taps[(ci * k + ky) * k + kx] * x;
                            }
                        }
                    }
                    y += bias[co];
                    inside &= range.is_none_or(|[lo, hi]| lo <= y && y <= hi);
                    out[oy * sh.ow + ox] = y;
                }
            }
        }
        inside
    }
}

/// The AVX2 stem conv; [`super::avx2`] re-exports it.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::StemShape;
    use crate::conv::ConvGeometry;
    use std::arch::x86_64::*;

    /// Single-backend entry with the same contract as
    /// [`super::conv_f32_acc`]: eight output pixels per vector, a tile
    /// of up to eight channels in registers.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn conv_f32_acc(
        img: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        weight: &[f32],
        bias: &[f32],
        domain: Option<&[[f32; 2]]>,
        acc: &mut [f32],
    ) -> bool {
        let sh = StemShape::new(img, c_in, h, w, geom, weight, bias, domain, acc);
        let mut inside = true;
        for oy in 0..sh.oh {
            for ox in (0..sh.ow).step_by(8) {
                let n = (sh.ow - ox).min(8);
                let mut co = 0;
                while co < sh.c_out {
                    let at = (co, oy, ox, n);
                    let (cb, ok) = match sh.c_out - co {
                        8.. => (8, tile::<8>(&sh, img, weight, bias, domain, acc, at)),
                        4..=7 => (4, tile::<4>(&sh, img, weight, bias, domain, acc, at)),
                        _ => (1, tile::<1>(&sh, img, weight, bias, domain, acc, at)),
                    };
                    inside &= ok;
                    co += cb;
                }
            }
        }
        inside
    }

    /// Lanes `lo..hi` of eight as a `maskload`/`maskstore` mask.
    #[inline(always)]
    unsafe fn lane_mask(lo: usize, hi: usize) -> __m256i {
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_andnot_si256(
            _mm256_cmpgt_epi32(_mm256_set1_epi32(lo as i32), lane),
            _mm256_cmpgt_epi32(_mm256_set1_epi32(hi as i32), lane),
        )
    }

    /// Channels `co..co + CB` at output pixels `ox..ox + n` of row `oy`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile<const CB: usize>(
        sh: &StemShape,
        img: &[f32],
        weight: &[f32],
        bias: &[f32],
        domain: Option<&[[f32; 2]]>,
        acc: &mut [f32],
        (co, oy, ox, n): (usize, usize, usize, usize),
    ) -> bool {
        let (k, s, kk) = (sh.k, sh.stride, sh.kk);
        // Input column of each lane at tap column 0 (stride > 1 only).
        let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let col0 = _mm256_sub_epi32(
            _mm256_mullo_epi32(
                _mm256_add_epi32(lane, _mm256_set1_epi32(ox as i32)),
                _mm256_set1_epi32(s as i32),
            ),
            _mm256_set1_epi32(sh.pad as i32),
        );
        let live = _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lane);
        // Eight stride-1 pixels whose every tap column lies inside the
        // image (a CNV stem's row but its ragged end): plain loads.
        let interior = s == 1 && n == 8 && ox >= sh.pad && ox + 7 + k <= sh.w + sh.pad;
        let taps = weight.as_ptr().add(co * kk);
        let mut y = [_mm256_setzero_ps(); CB];
        let mut t = 0;
        for ci in 0..sh.c_in {
            for ky in 0..k {
                let row = sh
                    .in_row(oy, ky)
                    .map(|iy| img.as_ptr().add((ci * sh.h + iy) * sh.w));
                for kx in 0..k {
                    let x = match row {
                        None => _mm256_setzero_ps(),
                        // SAFETY: columns `ox + kx - pad ..+ 8` lie inside
                        // the row (`interior`).
                        Some(row) if interior => _mm256_loadu_ps(row.add(ox + kx - sh.pad)),
                        Some(row) if s == 1 => {
                            let (lo, hi) = sh.unit_stride_lanes(ox, kx, n);
                            // SAFETY: only lanes `lo..hi` are read, each
                            // at a column inside the row; the base may
                            // lie outside it, hence `wrapping_offset`.
                            let base = row.wrapping_offset((ox + kx) as isize - sh.pad as isize);
                            _mm256_maskload_ps(base, lane_mask(lo, hi))
                        }
                        Some(row) => {
                            let cols = _mm256_add_epi32(col0, _mm256_set1_epi32(kx as i32));
                            let inside = _mm256_andnot_si256(
                                _mm256_cmpgt_epi32(_mm256_setzero_si256(), cols),
                                _mm256_cmpgt_epi32(_mm256_set1_epi32(sh.w as i32), cols),
                            );
                            // SAFETY: the gather reads only lanes whose
                            // column lies inside the row.
                            _mm256_mask_i32gather_ps::<4>(
                                _mm256_setzero_ps(),
                                row,
                                cols,
                                _mm256_castsi256_ps(_mm256_and_si256(inside, live)),
                            )
                        }
                    };
                    for (j, yj) in y.iter_mut().enumerate() {
                        let wv = _mm256_set1_ps(*taps.add(j * kk + t));
                        *yj = _mm256_add_ps(*yj, _mm256_mul_ps(wv, x));
                    }
                    t += 1;
                }
            }
        }
        let (pixels, at) = (sh.oh * sh.ow, oy * sh.ow + ox);
        let keep = (1i32 << n) - 1;
        let mut inside = true;
        for (j, &yj) in y.iter().enumerate() {
            let v = _mm256_add_ps(yj, _mm256_set1_ps(bias[co + j]));
            if let Some(domain) = domain {
                let [lo, hi] = domain[co + j];
                let ok = _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_GE_OQ>(v, _mm256_set1_ps(lo)),
                    _mm256_cmp_ps::<_CMP_LE_OQ>(v, _mm256_set1_ps(hi)),
                );
                inside &= _mm256_movemask_ps(ok) & keep == keep;
            }
            // SAFETY: the live lanes are pixels `ox..ox + n` of row `oy`
            // of channel `co + j`, inside `acc` (checked by the shape).
            _mm256_maskstore_ps(acc.as_mut_ptr().add((co + j) * pixels + at), live, v);
        }
        inside
    }
}

/// The AVX-512 stem conv; [`super::avx512`] re-exports it.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use super::StemShape;
    use crate::conv::ConvGeometry;
    use std::arch::x86_64::*;

    /// Single-backend entry with the same contract as
    /// [`super::conv_f32_acc`]: sixteen output pixels per vector, a
    /// ragged row end and the padding columns being load masks, a tile
    /// of up to two vectors (a CNV stem's 30-pixel row) by eight
    /// channels in registers.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn conv_f32_acc(
        img: &[f32],
        c_in: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        weight: &[f32],
        bias: &[f32],
        domain: Option<&[[f32; 2]]>,
        acc: &mut [f32],
    ) -> bool {
        let sh = StemShape::new(img, c_in, h, w, geom, weight, bias, domain, acc);
        let mut inside = true;
        for oy in 0..sh.oh {
            for ox in (0..sh.ow).step_by(32) {
                let n = (sh.ow - ox).min(32);
                let mut co = 0;
                while co < sh.c_out {
                    let at = (co, oy, ox, n);
                    let args = (&sh, img, weight, bias, domain);
                    let (cb, ok) = match (n > 16, sh.c_out - co) {
                        (true, 8..) => (8, tile::<2, 8>(args, acc, at)),
                        (true, 4..=7) => (4, tile::<2, 4>(args, acc, at)),
                        (true, _) => (1, tile::<2, 1>(args, acc, at)),
                        (false, 8..) => (8, tile::<1, 8>(args, acc, at)),
                        (false, 4..=7) => (4, tile::<1, 4>(args, acc, at)),
                        (false, _) => (1, tile::<1, 1>(args, acc, at)),
                    };
                    inside &= ok;
                    co += cb;
                }
            }
        }
        inside
    }

    /// The low `n <= 32` bits set.
    #[inline(always)]
    fn low32(n: usize) -> u32 {
        ((1u64 << n) - 1) as u32
    }

    /// The read-only operands of one call.
    type Args<'a> = (
        &'a StemShape,
        &'a [f32],
        &'a [f32],
        &'a [f32],
        Option<&'a [[f32; 2]]>,
    );

    /// Channels `co..co + CB` at output pixels `ox..ox + n` of row `oy`,
    /// `n <= 16·NV`: vector `v` holds pixels `ox + 16v ..`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn tile<const NV: usize, const CB: usize>(
        (sh, img, weight, bias, domain): Args,
        acc: &mut [f32],
        (co, oy, ox, n): (usize, usize, usize, usize),
    ) -> bool {
        let (k, s, kk) = (sh.k, sh.stride, sh.kk);
        let live = low32(n);
        let lanes = |v: usize| (live >> (16 * v)) as u16;
        // Input column of each lane at tap column 0 (stride > 1 only).
        let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let col0: [__m512i; NV] = std::array::from_fn(|v| {
            let first = (ox + 16 * v) as i32;
            _mm512_sub_epi32(
                _mm512_mullo_epi32(
                    _mm512_add_epi32(lane, _mm512_set1_epi32(first)),
                    _mm512_set1_epi32(s as i32),
                ),
                _mm512_set1_epi32(sh.pad as i32),
            )
        });
        let taps = weight.as_ptr().add(co * kk);
        let mut y = [[_mm512_setzero_ps(); NV]; CB];
        let mut t = 0;
        for ci in 0..sh.c_in {
            for ky in 0..k {
                let row = sh
                    .in_row(oy, ky)
                    .map(|iy| img.as_ptr().add((ci * sh.h + iy) * sh.w));
                for kx in 0..k {
                    let x: [__m512; NV] = match row {
                        None => [_mm512_setzero_ps(); NV],
                        Some(row) if s == 1 => {
                            let (lo, hi) = sh.unit_stride_lanes(ox, kx, n);
                            let inside = low32(hi) & !low32(lo);
                            // SAFETY: only lanes `lo..hi` are read, each
                            // at a column inside the row; the base may
                            // lie outside it, hence `wrapping_offset`.
                            let base = row.wrapping_offset((ox + kx) as isize - sh.pad as isize);
                            std::array::from_fn(|v| {
                                _mm512_maskz_loadu_ps(
                                    (inside >> (16 * v)) as u16,
                                    base.wrapping_add(16 * v),
                                )
                            })
                        }
                        Some(row) => std::array::from_fn(|v| {
                            let cols = _mm512_add_epi32(col0[v], _mm512_set1_epi32(kx as i32));
                            let m = lanes(v)
                                & _mm512_cmpge_epi32_mask(cols, _mm512_setzero_si512())
                                & _mm512_cmplt_epi32_mask(cols, _mm512_set1_epi32(sh.w as i32));
                            // SAFETY: the gather reads only lanes whose
                            // column lies inside the row.
                            _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), m, cols, row)
                        }),
                    };
                    for (j, yj) in y.iter_mut().enumerate() {
                        let wv = _mm512_set1_ps(*taps.add(j * kk + t));
                        for (yv, &xv) in yj.iter_mut().zip(&x) {
                            *yv = _mm512_add_ps(*yv, _mm512_mul_ps(wv, xv));
                        }
                    }
                    t += 1;
                }
            }
        }
        let (pixels, at) = (sh.oh * sh.ow, oy * sh.ow + ox);
        let mut inside = true;
        for (j, yj) in y.iter().enumerate() {
            let b = _mm512_set1_ps(bias[co + j]);
            let range = domain.map(|d| d[co + j].map(|e| _mm512_set1_ps(e)));
            for (v, &yv) in yj.iter().enumerate() {
                let (keep, out) = (lanes(v), _mm512_add_ps(yv, b));
                if let Some([lo, hi]) = range {
                    let ok = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(keep, out, lo)
                        & _mm512_mask_cmp_ps_mask::<_CMP_LE_OQ>(keep, out, hi);
                    inside &= ok == keep;
                }
                // SAFETY: the kept lanes are pixels of row `oy` of
                // channel `co + j`, inside `acc` (checked by the shape).
                let dst = acc.as_mut_ptr().add((co + j) * pixels + at + 16 * v);
                _mm512_mask_storeu_ps(dst, keep, out);
            }
        }
        inside
    }
}
