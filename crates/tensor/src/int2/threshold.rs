//! The MVTU threshold unit: integer accumulators in, packed 2-bit codes
//! out, with the max-pool in between folded in.
//!
//! [`super::conv_int2_direct`] hands back f32: the layers behind it run
//! BatchNorm, QuantReLU and a max-pool as three more passes, and the
//! next conv's [`super::pack_image_int2`] turns the result into the
//! codes it started from. FINN's MVTU does none of that — the
//! accumulator goes through a per-channel multi-threshold and leaves as
//! a 2-bit code on a stream. [`super::conv_int2_codes`] is that pipeline
//! for the serving executor: the same window gather, the same popcount
//! GEMM (run at unit scale and zero bias, which makes the requantize
//! epilogue the exact identity on `S`), then [`threshold_pool_pack_int2`]
//! — each accumulator is compared against its channel's three integer
//! steps ([`CodeSteps`]: `code = #{j : sign·S ≥ at[j]}`) and the code
//! bits are written as `[plane0 | plane1]` row words in exactly the
//! layout [`super::gather_conv_windows_int2`] reads, so the next conv
//! gathers from them directly. A max-pool between the two moves in front
//! of the threshold: `max` commutes with a weakly monotone code
//! function, so the unit takes the window's largest `sign·S` (largest
//! `S` for rising steps, smallest for falling ones) and thresholds once.
//! The steps come from the caller, which tabulates its own f32
//! arithmetic over every reachable `S` ([`CodeSteps::from_table`] folds
//! such a table and refuses one that is not a step function) — this
//! module never decides what a threshold *should* be.
//!
//! The AVX2 body turns eight pooled values into plane bits with three
//! `vcmpps` and three `vmovmskps`. The AVX-512 body compares sixteen
//! with `vcmpps` straight into mask registers, which *are* the packed
//! plane bits: a ragged row end is the compare's write mask, each output
//! word is built in a register and stored once, and without a pool or
//! with the 2×2 one the sign flip and the fold happen on the way in
//! (`vpxord`, `vmaxps`, and `vpermt2ps` splitting even and odd columns
//! of 32 loaded values) instead of in passes of their own.

use super::layout::image_row_words;
use super::Backend;

/// One output channel's map from the integer accumulator `S` to the
/// 2-bit activation code the next layer consumes: the MVTU threshold
/// unit. `code(S) = #{j : sign·S ≥ at[j]}` — three ascending integer
/// steps on `S` itself (`sign = +1`, the code rises with `S`) or on `−S`
/// (`sign = −1`, a negative BatchNorm scale makes it fall). A step that
/// is never reached sits at `i32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeSteps {
    /// `+1` or `−1`: the direction the code moves with `S`.
    pub sign: i32,
    /// Ascending step positions on `sign·S`.
    pub at: [i32; 3],
}

impl CodeSteps {
    /// Folds a tabulated code function into steps: `codes[i]` (an exact
    /// `0.0..=3.0` integer, as [`super::act_codes_in_place`] leaves it) is the
    /// code at `S = lo + i`. `None` when the table is not weakly
    /// monotone, i.e. no three steps reproduce it.
    pub fn from_table(lo: i32, codes: &[f32]) -> Option<Self> {
        let (&first, &last) = (codes.first()?, codes.last()?);
        let sign = if first <= last { 1 } else { -1 };
        let mut at = [i32::MAX; 3];
        let mut prev = 0usize;
        for step in 0..codes.len() {
            // Walk in the direction `sign·S` ascends.
            let i = if sign > 0 { step } else { codes.len() - 1 - step };
            let code = codes[i] as usize;
            debug_assert!(code <= 3 && codes[i] == code as f32);
            if code < prev {
                return None;
            }
            at[prev..code].fill(sign * (lo + i as i32));
            prev = code;
        }
        Some(CodeSteps { sign, at })
    }

    /// The code at accumulator `s`.
    #[inline]
    pub fn code(&self, s: i32) -> u8 {
        let v = self.sign * s;
        self.at.iter().map(|&t| u8::from(v >= t)).sum()
    }
}

/// Validated shape of one threshold-pool-pack pass, shared by the
/// backend bodies.
struct PoolPackShape {
    h: usize,
    w: usize,
    pool: usize,
    /// Pooled map extent (`⌊h/pool⌋ × ⌊w/pool⌋`, max-pool's floor rule).
    ph: usize,
    pw: usize,
    /// Words per packed output row plane ([`image_row_words`]).
    rw: usize,
}

impl PoolPackShape {
    fn new(
        acc: &[f32],
        channels: usize,
        h: usize,
        w: usize,
        pool: usize,
        pad: usize,
        out: &[u64],
    ) -> Self {
        assert!(pool >= 1, "threshold_pool_pack_int2: pool window must be positive");
        assert_eq!(
            acc.len(),
            channels * h * w,
            "threshold_pool_pack_int2: accumulator map length mismatch"
        );
        let shape = Self {
            h,
            w,
            pool,
            ph: h / pool,
            pw: w / pool,
            rw: image_row_words(w / pool, pad),
        };
        assert_eq!(
            out.len(),
            channels * shape.ph * 2 * shape.rw,
            "threshold_pool_pack_int2: packed output length mismatch"
        );
        shape
    }

    /// Folds the `pool` input rows of pooled row `py` of channel `ch`
    /// into the first of them, element-wise: `row[x] = max ±acc[..][x]`
    /// with the channel's sign applied on the way in (`−0.0` compares
    /// equal to `0.0`, so negating a zero accumulator is harmless). A
    /// plain slice loop — it vectorizes in whichever backend inlines it.
    /// Returns the offset of the folded row in `acc`.
    #[inline(always)]
    fn fold_rows(&self, acc: &mut [f32], ch: usize, py: usize, flip: bool) -> usize {
        let base = (ch * self.h + py * self.pool) * self.w;
        let (row, rest) = acc[base..base + self.pool * self.w].split_at_mut(self.w);
        if flip {
            for v in row.iter_mut() {
                *v = -*v;
            }
        }
        for other in rest.chunks_exact(self.w) {
            for (d, &s) in row.iter_mut().zip(other) {
                let s = if flip { -s } else { s };
                if s > *d {
                    *d = s;
                }
            }
        }
        base
    }

    /// Folds each `pool`-wide column window of a row into `row[px]`, in
    /// place (the write index never passes the read index).
    #[inline(always)]
    fn fold_cols(&self, row: &mut [f32]) {
        if self.pool == 1 {
            return;
        }
        for px in 0..self.pw {
            let mut best = row[px * self.pool];
            for kx in 1..self.pool {
                let v = row[px * self.pool + kx];
                if v > best {
                    best = v;
                }
            }
            row[px] = best;
        }
    }
}

/// The MVTU threshold unit behind the popcount GEMM: turns one image's
/// accumulator map into the packed 2-bit image the next conv's window
/// gather reads, with the max-pool in between folded in.
///
/// `acc` is `[channels, h, w]` exact integer accumulators as `f32`
/// ([`super::gemm_int2`] with unit scale and zero bias,
/// [`super::OutMajor::Row`]) and
/// is **clobbered**: each `pool × pool` window is reduced in place to
/// `max sign·S`, then thresholded against the channel's [`CodeSteps`] —
/// pool-then-threshold, which equals threshold-then-max-pool because a
/// weakly monotone code function commutes with `max`. Row `(ch, py)` of
/// the pooled `⌊h/pool⌋ × ⌊w/pool⌋` code map lands at
/// `out[(ch·ph + py) · 2·rw ..]` as `[plane0 | plane1]`, column `px` at
/// bit `pad + px`, every word written — exactly
/// [`super::pack_image_int2`]'s layout for that map.
///
/// # Panics
///
/// Panics when `acc` or `out` does not match the shape.
pub fn threshold_pool_pack_int2(
    acc: &mut [f32],
    steps: &[CodeSteps],
    h: usize,
    w: usize,
    pool: usize,
    pad: usize,
    out: &mut [u64],
) {
    dispatch!(avx512, threshold_pool_pack_int2(acc, steps, h, w, pool, pad, out))
}

/// The scalar threshold unit; [`super::portable`] re-exports it.
pub mod portable {
    use super::{CodeSteps, PoolPackShape};

    /// Single-backend entry with the same contract as
    /// [`super::threshold_pool_pack_int2`]: one pooled pixel at a time.
    pub fn threshold_pool_pack_int2(
        acc: &mut [f32],
        steps: &[CodeSteps],
        h: usize,
        w: usize,
        pool: usize,
        pad: usize,
        out: &mut [u64],
    ) {
        let shape = PoolPackShape::new(acc, steps.len(), h, w, pool, pad, out);
        let (ph, pw, rw) = (shape.ph, shape.pw, shape.rw);
        for (r, dst) in out.chunks_exact_mut(2 * rw).enumerate() {
            let st = &steps[r / ph];
            let at = st.at.map(|t| t as f32);
            let base = shape.fold_rows(acc, r / ph, r % ph, st.sign < 0);
            let row = &mut acc[base..base + w];
            shape.fold_cols(row);
            dst.fill(0);
            let (p0, p1) = dst.split_at_mut(rw);
            for (px, &v) in row[..pw].iter().enumerate() {
                let code =
                    u64::from(v >= at[0]) + u64::from(v >= at[1]) + u64::from(v >= at[2]);
                let (word, bit) = ((pad + px) / 64, (pad + px) % 64);
                p0[word] |= (code & 1) << bit;
                p1[word] |= (code >> 1) << bit;
            }
        }
    }
}

/// The AVX2 threshold unit; [`super::avx2`] re-exports it.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::super::pack::avx2::TAIL_MASK;
    use super::{CodeSteps, PoolPackShape};
    use std::arch::x86_64::*;

    /// Folds adjacent column pairs of a row into `row[..pw]` in place —
    /// `PoolPackShape::fold_cols` for the 2×2 pool, eight pooled pixels
    /// per pass: even and odd columns are split by `vshufps`, maxed, and
    /// the 64-bit pairs put back in order.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline(always)]
    unsafe fn fold_col_pairs(row: &mut [f32], pw: usize) {
        debug_assert!(2 * pw <= row.len());
        let mut px = 0;
        while px + 8 <= pw {
            let p = row.as_mut_ptr();
            // SAFETY: `2·px + 16 <= 2·pw <= row.len()`; the store at
            // `px..px + 8` lies below everything later passes read.
            let a = _mm256_loadu_ps(p.add(2 * px));
            let b = _mm256_loadu_ps(p.add(2 * px + 8));
            let m = _mm256_max_ps(
                _mm256_shuffle_ps::<0x88>(a, b),
                _mm256_shuffle_ps::<0xDD>(a, b),
            );
            // Pairs arrive as [P0 P1, P4 P5 | P2 P3, P6 P7].
            let m = _mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(m));
            _mm256_storeu_ps(p.add(px), _mm256_castpd_ps(m));
            px += 8;
        }
        for px in px..pw {
            let (a, b) = (row[2 * px], row[2 * px + 1]);
            row[px] = if b > a { b } else { a };
        }
    }

    /// Single-backend entry with the same contract as
    /// [`super::threshold_pool_pack_int2`]: the row fold vectorizes as
    /// written, the 2×2 pool's column fold is `fold_col_pairs`, and
    /// eight pooled pixels become plane bits with three `vcmpps` and
    /// three `vmovmskps` — `pack_image_int2`'s deposit with per-channel
    /// steps in place of the divide.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn threshold_pool_pack_int2(
        acc: &mut [f32],
        steps: &[CodeSteps],
        h: usize,
        w: usize,
        pool: usize,
        pad: usize,
        out: &mut [u64],
    ) {
        let shape = PoolPackShape::new(acc, steps.len(), h, w, pool, pad, out);
        let (ph, pw, rw) = (shape.ph, shape.pw, shape.rw);
        for (r, dst) in out.chunks_exact_mut(2 * rw).enumerate() {
            let st = &steps[r / ph];
            let base = shape.fold_rows(acc, r / ph, r % ph, st.sign < 0);
            let row = &mut acc[base..base + w];
            if pool == 2 {
                fold_col_pairs(row, pw);
            } else {
                shape.fold_cols(row);
            }
            let (t1, t2, t3) = (
                _mm256_set1_ps(st.at[0] as f32),
                _mm256_set1_ps(st.at[1] as f32),
                _mm256_set1_ps(st.at[2] as f32),
            );
            dst.fill(0);
            let (p0, p1) = dst.split_at_mut(rw);
            for px in (0..pw).step_by(8) {
                let src = row.as_ptr().add(px);
                let v = if px + 8 <= w {
                    // SAFETY: lanes `px..px + 8` lie inside `row`.
                    _mm256_loadu_ps(src)
                } else {
                    let mask = TAIL_MASK.as_ptr().add(8 - (w - px));
                    // SAFETY: as in `pack_image_int2`: the mask window
                    // lies inside TAIL_MASK and only the `w - px`
                    // selected lanes, all inside `row`, are touched.
                    _mm256_maskload_ps(src, _mm256_loadu_si256(mask as *const __m256i))
                };
                // Lanes past the pooled row hold stale columns (or the
                // masked load's zeros), which may clear a step: drop them.
                let live = if pw - px >= 8 { 0xff } else { (1u64 << (pw - px)) - 1 };
                let g1 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, t1)) as u64 & live;
                let g2 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, t2)) as u64 & live;
                let g3 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, t3)) as u64 & live;
                let (b0, b1) = (g1 ^ g2 ^ g3, g2);
                let (word, bit) = ((pad + px) / 64, (pad + px) % 64);
                p0[word] |= b0 << bit;
                p1[word] |= b1 << bit;
                if bit > 56 {
                    // As in `pack_image_int2`: the guard word keeps
                    // `word + 1` inside the row plane.
                    p0[word + 1] |= b0 >> (64 - bit);
                    p1[word + 1] |= b1 >> (64 - bit);
                }
            }
        }
    }
}

/// The AVX-512 threshold unit; [`super::avx512`] re-exports it.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use super::super::layout::low_bits;
    use super::{CodeSteps, PoolPackShape};
    use std::arch::x86_64::*;

    /// Single-backend entry with the same contract as
    /// [`super::threshold_pool_pack_int2`]: sixteen pooled pixels become
    /// plane bits with three `vcmpps` into mask registers, a ragged row
    /// end being their write mask, and each output word is assembled in
    /// a register and stored once. The channel's sign is an XOR on the
    /// loaded values and the window's rows meet in `vmaxps`, sixteen
    /// columns at a time; the 2×2 pool's column pairs then meet in two
    /// `vpermt2ps` and another, nothing folded in place. Wider windows
    /// store the folded row and fold its columns as the portable body
    /// does.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn threshold_pool_pack_int2(
        acc: &mut [f32],
        steps: &[CodeSteps],
        h: usize,
        w: usize,
        pool: usize,
        pad: usize,
        out: &mut [u64],
    ) {
        let shape = PoolPackShape::new(acc, steps.len(), h, w, pool, pad, out);
        let (ph, pw, rw) = (shape.ph, shape.pw, shape.rw);
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        let odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
        let map = acc.as_mut_ptr();
        let mut rows = out.chunks_exact_mut(2 * rw);
        // Channel by channel rather than `r / ph, r % ph`: a division
        // per output row is a third of this body at CNV row lengths.
        for (ch, st) in steps.iter().enumerate() {
            let at = st.at.map(|t| _mm512_set1_ps(t as f32));
            let negate = _mm512_set1_epi32(if st.sign < 0 { i32::MIN } else { 0 });
            for (py, dst) in (0..ph).zip(&mut rows) {
                let top = map.add((ch * h + py * pool) * w);
                // `max ±acc` over the window's rows, columns
                // `col..col + n`, `n <= 16`.
                //
                // SAFETY: masked loads touch the selected lanes only,
                // inside a row `< pool` of the window, which
                // `PoolPackShape::new` checked lies in `acc`. A base
                // past them is never dereferenced, hence `wrapping_add`.
                let fold = |col: usize, n: usize| {
                    let mut best = _mm512_set1_ps(f32::NEG_INFINITY);
                    for row in 0..pool {
                        let src = top.wrapping_add(row * w + col);
                        let v = _mm512_castps_si512(_mm512_maskz_loadu_ps(low_bits(n), src));
                        best = _mm512_max_ps(best, _mm512_castsi512_ps(_mm512_xor_si512(v, negate)));
                    }
                    best
                };
                if pool > 2 {
                    for col in (0..w).step_by(16) {
                        let n = (w - col).min(16);
                        _mm512_mask_storeu_ps(top.add(col), low_bits(n), fold(col, n));
                    }
                    shape.fold_cols(std::slice::from_raw_parts_mut(top, w));
                }
                let (p0, p1) = dst.split_at_mut(rw);
                for (wi, (d0, d1)) in p0.iter_mut().zip(p1).enumerate() {
                    // Pooled columns whose bits (`pad + px`) lie in word
                    // `wi`.
                    let lo = (64 * wi).saturating_sub(pad);
                    let hi = (64 * wi + 64).saturating_sub(pad).min(pw);
                    let (mut w0, mut w1) = (0u64, 0u64);
                    for px in (lo..hi).step_by(16) {
                        let live = (hi - px).min(16);
                        let keep = low_bits(live);
                        let v = match pool {
                            1 => fold(px, live),
                            2 => {
                                let a = fold(2 * px, (2 * live).min(16));
                                let b = fold(2 * px + 16, (2 * live).saturating_sub(16));
                                _mm512_max_ps(
                                    _mm512_permutex2var_ps(a, even, b),
                                    _mm512_permutex2var_ps(a, odd, b),
                                )
                            }
                            // SAFETY: the first `pw <= w` values of the
                            // row folded above.
                            _ => _mm512_maskz_loadu_ps(keep, top.add(px)),
                        };
                        // Ordered compares under the live-lane mask:
                        // dead lanes (and NaN, which no accumulator is)
                        // set no bit.
                        let g1 = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(keep, v, at[0]);
                        let g2 = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(keep, v, at[1]);
                        let g3 = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(keep, v, at[2]);
                        let bit = pad + px - 64 * wi;
                        w0 |= u64::from(g1 ^ g2 ^ g3) << bit;
                        w1 |= u64::from(g2) << bit;
                    }
                    (*d0, *d1) = (w0, w1);
                }
            }
        }
    }
}
