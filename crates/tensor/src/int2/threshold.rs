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
//! module never decides what a threshold *should* be. The stem feeds the
//! same unit ([`super::conv_f32_codes`], pool 1): its accumulator is an
//! f32 sum of pixels with no integer range to tabulate, so its steps are
//! f32 values found by bisection ([`CodeSteps::bisect`]) on the range
//! where its chain stays finite, and an image with an accumulator outside
//! that range never reaches the unit.
//!
//! The AVX2 body turns eight pooled values into plane bits with three
//! `vcmpps` and three `vmovmskps`. The AVX-512 body compares sixteen
//! with `vcmpps` straight into mask registers, which *are* the packed
//! plane bits: a ragged row end is the compare's write mask, each output
//! word is built in a register and stored once, and without a pool or
//! with the 2×2 one the sign flip and the fold happen on the way in
//! (`vpxord`, `vmaxps`, and `vpermt2ps` splitting even and odd columns
//! of 32 loaded values) instead of in passes of their own. Without a
//! pool and on rows that fit one word — every CNV map, the stem's
//! included — both vector bodies take a path of their own: the row's
//! bits gather in two registers and its four words are stored once,
//! with none of the pooled cases' bookkeeping (nor a zero-fill call)
//! in the loop.

use super::layout::image_row_words;
use super::Backend;

/// One output channel's map from its accumulator `S` to the 2-bit
/// activation code the next layer consumes: the MVTU threshold unit.
/// `code(S) = #{j : sign·S ≥ at[j]}` — three ascending steps on `S`
/// itself (`sign = +1`, the code rises with `S`) or on `−S` (`sign = −1`,
/// a negative BatchNorm scale makes it fall). A step that is never
/// reached sits at `+∞`. The steps are `f32`: integers, exactly, for a
/// popcount GEMM's accumulator ([`CodeSteps::from_table`]), any value for
/// the stem's f32 one ([`CodeSteps::bisect`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeSteps {
    /// `+1` or `−1`: the direction the code moves with `S`.
    pub sign: i32,
    /// Ascending step positions on `sign·S`.
    pub at: [f32; 3],
}

/// A position of `v` in the total order of the non-NaN `f32` values
/// (`−∞ < … < −0 < +0 < … < +∞`, the zeros adjacent), as an integer to
/// bisect over.
fn order_key(v: f32) -> u32 {
    let b = v.to_bits();
    if b >> 31 == 1 {
        !b
    } else {
        b | 1 << 31
    }
}

/// The inverse of [`order_key`].
fn from_order_key(k: u32) -> f32 {
    f32::from_bits(if k >> 31 == 1 { k & !(1 << 31) } else { !k })
}

/// The first key of `lo..=hi` where `holds`, given that it holds at `hi`
/// and, once it holds, holds above.
fn first_key(mut lo: u32, mut hi: u32, holds: impl Fn(u32) -> bool) -> u32 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

impl CodeSteps {
    /// Folds a tabulated code function into steps: `codes[i]` (an exact
    /// `0.0..=3.0` integer, as [`super::act_codes_in_place`] leaves it) is the
    /// code at `S = lo + i`. `None` when the table is not weakly
    /// monotone, i.e. no three steps reproduce it.
    pub fn from_table(lo: i32, codes: &[f32]) -> Option<Self> {
        let (&first, &last) = (codes.first()?, codes.last()?);
        let sign = if first <= last { 1 } else { -1 };
        let mut at = [f32::INFINITY; 3];
        let mut prev = 0usize;
        for step in 0..codes.len() {
            // Walk in the direction `sign·S` ascends.
            let i = if sign > 0 { step } else { codes.len() - 1 - step };
            let code = codes[i] as usize;
            debug_assert!(code <= 3 && codes[i] == code as f32);
            if code < prev {
                return None;
            }
            // |S| < 2^24 (`MAX_K`): the step converts exactly.
            at[prev..code].fill((sign * (lo + i as i32)) as f32);
            prev = code;
        }
        Some(CodeSteps { sign, at })
    }

    /// Folds the code function of an f32 accumulator into steps by
    /// bisection, for a chain no integer range can tabulate: the stem's,
    /// whose accumulator is an f32 sum of pixels. `chain(y)` is the code
    /// at `y`, `None` where the chain leaves its finite range. The caller
    /// vouches that the `Some` values form an interval of the ordered
    /// f32 values on which the code is weakly monotone in `y` — the
    /// argument [`CodeSteps::from_table`] checks on every entry, made
    /// once for the chain: each f32 step of it is weakly monotone on
    /// finite values.
    ///
    /// Returns the steps and the accumulator range `[lo, hi]` they
    /// reproduce `chain` on: the interval around zero, found by bisection
    /// for its ends, each step then bisected inside it. Compares cannot
    /// tell `−0` from `+0`, so the two must code alike. A chain that is
    /// not finite at zero, or codes the two zeros differently, gets the
    /// empty range `[+∞, −∞]`: no accumulator lies in it, so every image
    /// takes the caller's exact path. NaN lies in no range at all.
    pub fn bisect(chain: impl Fn(f32) -> Option<u8>) -> (Self, [f32; 2]) {
        const NEVER: CodeSteps = CodeSteps {
            sign: 1,
            at: [f32::INFINITY; 3],
        };
        let code = |k: u32| chain(from_order_key(k));
        match (chain(-0.0), chain(0.0)) {
            (Some(neg), Some(pos)) if neg == pos => {}
            _ => return (NEVER, [f32::INFINITY, f32::NEG_INFINITY]),
        }
        let (zero, bottom, top) = (order_key(0.0), order_key(f32::NEG_INFINITY), order_key(f32::INFINITY));
        let lo = match code(bottom) {
            Some(_) => bottom,
            None => first_key(bottom, zero, |k| code(k).is_some()),
        };
        let hi = match code(top) {
            Some(_) => top,
            None => first_key(zero, top, |k| code(k).is_none()) - 1,
        };
        let at_least = |k: u32, j: u8| code(k).is_some_and(|c| c >= j);
        let rising = code(lo) <= code(hi);
        let mut at = [f32::INFINITY; 3];
        for (j, t) in (1u8..=3).zip(&mut at) {
            if rising && at_least(hi, j) {
                // The first accumulator coding at least `j`.
                *t = from_order_key(first_key(lo, hi, |k| at_least(k, j)));
            } else if !rising && at_least(lo, j) {
                // The last one, as a step on `−S`.
                let last = match at_least(hi, j) {
                    true => hi,
                    false => first_key(lo, hi, |k| !at_least(k, j)) - 1,
                };
                *t = -from_order_key(last);
            }
        }
        let sign = if rising { 1 } else { -1 };
        (CodeSteps { sign, at }, [from_order_key(lo), from_order_key(hi)])
    }

    /// The code at accumulator `s`.
    #[inline]
    pub fn code(&self, s: f32) -> u8 {
        let v = if self.sign < 0 { -s } else { s };
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
/// `acc` is `[channels, h, w]` accumulators: exact integers as `f32`
/// ([`super::gemm_int2`] with unit scale and zero bias,
/// [`super::OutMajor::Row`]), or the stem's f32 sums
/// ([`super::conv_f32_acc`]), never NaN. It
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
            let at = st.at;
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
        if pool == 1 && w + 2 * pad <= 64 {
            return unpooled_one_word(acc, steps, h, w, pad, out);
        }
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
                _mm256_set1_ps(st.at[0]),
                _mm256_set1_ps(st.at[1]),
                _mm256_set1_ps(st.at[2]),
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

    /// The window-free case on rows that fit one word, as the AVX-512
    /// body's: eight values per three `vcmpps`, the row's bits built in
    /// two registers and its four words stored once, the sign an XOR on
    /// the loaded values. Same contract, `pool = 1`, `w + 2·pad <= 64`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn unpooled_one_word(
        acc: &[f32],
        steps: &[CodeSteps],
        h: usize,
        w: usize,
        pad: usize,
        out: &mut [u64],
    ) {
        let mut rows = out.chunks_exact_mut(4);
        for (ch, st) in steps.iter().enumerate() {
            let at = st.at.map(|t| _mm256_set1_ps(t));
            let negate = _mm256_set1_ps(if st.sign < 0 { -0.0 } else { 0.0 });
            for (py, dst) in (0..h).zip(&mut rows) {
                let src = acc.as_ptr().add((ch * h + py) * w);
                let (mut b0, mut b1) = (0u64, 0u64);
                for px in (0..w).step_by(8) {
                    let v = if px + 8 <= w {
                        // SAFETY: columns `px..px + 8` of row `(ch, py)`,
                        // which `PoolPackShape::new` checked lies in `acc`.
                        _mm256_loadu_ps(src.add(px))
                    } else {
                        let mask = TAIL_MASK.as_ptr().add(8 - (w - px));
                        // SAFETY: as in `pack_image_int2`: only the
                        // `w - px` selected lanes, all in the row, load.
                        _mm256_maskload_ps(src.add(px), _mm256_loadu_si256(mask as *const __m256i))
                    };
                    let v = _mm256_xor_ps(v, negate);
                    // Dead lanes (the masked load's zeros) may clear a
                    // step: drop them.
                    let live = if w - px >= 8 { 0xff } else { (1u64 << (w - px)) - 1 };
                    let g1 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, at[0])) as u64 & live;
                    let g2 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, at[1])) as u64 & live;
                    let g3 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, at[2])) as u64 & live;
                    b0 |= (g1 ^ g2 ^ g3) << px;
                    b1 |= g2 << px;
                }
                dst.copy_from_slice(&[b0 << pad, 0, b1 << pad, 0]);
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
        if pool == 1 && w + 2 * pad <= 64 {
            return unpooled_one_word(acc, steps, h, w, pad, out);
        }
        let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
        let odd = _mm512_add_epi32(even, _mm512_set1_epi32(1));
        let map = acc.as_mut_ptr();
        let mut rows = out.chunks_exact_mut(2 * rw);
        // Channel by channel rather than `r / ph, r % ph`: a division
        // per output row is a third of this body at CNV row lengths.
        for (ch, st) in steps.iter().enumerate() {
            let at = st.at.map(|t| _mm512_set1_ps(t));
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
                        // dead lanes set no bit.
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

    /// The window-free case on rows that fit one word — the stem's map,
    /// a conv's without a pool behind it, at CNV sizes — on its own: no
    /// fold, so a row is a straight walk of sixteen values per compare
    /// whose bits are built in two registers, and its four words
    /// (`[plane0, guard | plane1, guard]`, `image_row_words` being 2)
    /// are stored once, with none of the general path's word bookkeeping
    /// in the loop. Same contract, `pool = 1`, `w + 2·pad <= 64`.
    #[target_feature(enable = "avx512f")]
    unsafe fn unpooled_one_word(
        acc: &[f32],
        steps: &[CodeSteps],
        h: usize,
        w: usize,
        pad: usize,
        out: &mut [u64],
    ) {
        let mut rows = out.chunks_exact_mut(4);
        for (ch, st) in steps.iter().enumerate() {
            let at = st.at.map(|t| _mm512_set1_ps(t));
            let negate = _mm512_set1_epi32(if st.sign < 0 { i32::MIN } else { 0 });
            for (py, dst) in (0..h).zip(&mut rows) {
                let src = acc.as_ptr().add((ch * h + py) * w);
                let (mut b0, mut b1) = (0u64, 0u64);
                for px in (0..w).step_by(16) {
                    let keep = low_bits((w - px).min(16));
                    // SAFETY: the kept lanes are columns `px..` of row
                    // `(ch, py)`, which `PoolPackShape::new` checked lies
                    // in `acc`.
                    let v = _mm512_castps_si512(_mm512_maskz_loadu_ps(keep, src.add(px)));
                    let v = _mm512_castsi512_ps(_mm512_xor_si512(v, negate));
                    let g1 = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(keep, v, at[0]);
                    let g2 = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(keep, v, at[1]);
                    let g3 = _mm512_mask_cmp_ps_mask::<_CMP_GE_OQ>(keep, v, at[2]);
                    b0 |= u64::from(g1 ^ g2 ^ g3) << px;
                    b1 |= u64::from(g2) << px;
                }
                dst.copy_from_slice(&[b0 << pad, 0, b1 << pad, 0]);
            }
        }
    }
}
