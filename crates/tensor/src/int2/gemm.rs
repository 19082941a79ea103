//! The popcount GEMM: the MVU inner product in software, with the
//! requantize epilogue fused.
//!
//! # Backends
//!
//! The portable body is `u64::count_ones` per (weight item, activation
//! item) pair. Both vector bodies are **row-lane microkernels** — the MVU
//! shape: one activation word broadcast to lanes that each hold a weight
//! row, so each lane ends up holding its row's `S` with no horizontal
//! sum.
//!
//! * **AVX2** emulates the popcount: four rows per vector, byte counts
//!   from `vpshufb` nibble LUTs (`×1` for activation plane 0, `×2` for
//!   plane 1) summed per weight plane and reduced by `vpsadbw` every 8
//!   words (a word adds at most 24 to a byte, `24 · 8 < 256`), the rows
//!   pre-split into nibbles in a stack buffer. Leftover rows (`m mod 4`),
//!   and shapes that cannot amortize interleaving the rows, go through a
//!   per-pair `dot` (Muła `vpshufb` popcount from four plane words up,
//!   plain hardware `POPCNT` below).
//! * **AVX-512** counts natively (`VPOPCNTDQ`): eight rows per vector,
//!   the `m mod 8` tail under a lane mask, so pruned widths stay in the
//!   lanes. `vpopcntq` yields 64-bit lane counts that are added as
//!   integers — nothing can wrap, so there is no flush — and the weight
//!   rows are used as packed, so up to eight plane words of each plane
//!   are simply gathered into registers (one `vpgatherqq` per word per
//!   row group) and stay there while every item streams past; there is
//!   no interleave buffer. Deeper operands run in slices of eight words,
//!   the partial sums waiting as integers in `out` itself. For
//!   [`OutMajor::Row`] sixteen items' sums are paired into dwords,
//!   transposed in registers and stored as one contiguous vector per
//!   row; for [`OutMajor::Col`] a lane vector *is* a contiguous run.
//!
//! # Requantize epilogue and exact agreement
//!
//! [`gemm_int2`] fuses the MVTU-style epilogue `y = (S as f32)*cs + bias`
//! (two exactly-rounded f32 steps — the row lanes issue `cvtdq2ps`,
//! `mulps` then `addps`, never an FMA, so they round exactly like the
//! scalar form; `cs` is the combined weight×activation scale).
//! `|S| ≤ 6k < 2^24` for every shape in play, so `S as f32` is exact —
//! which means an f32 GEMM over the *code values* computes the same
//! integer `S` exactly (every partial sum is an integer below 2^24 and
//! the f32 GEMM never contracts to FMA). That f32-over-codes form is the
//! route conv layers take past the gather's kernel bound (see
//! [`super::conv_engine_profitable`]) and the differential suites'
//! reference: they pin the two implementations against each other
//! bit-for-bit.

use super::layout::{plane_words, words_per_item, OutMajor, MAX_K};
use super::{Backend, MAC_OPS, POPCNT_OPS};
use std::sync::atomic::Ordering;

/// The fused requantize step shared (textually and numerically) by the
/// int2 epilogue and the f32-over-codes epilogues: two exactly-rounded f32
/// operations, never contracted to FMA (`-Cllvm-args` fast-math is never
/// enabled in this workspace).
#[inline(always)]
fn requant(acc: f32, cs: f32, bias: f32) -> f32 {
    (acc * cs) + bias
}

/// Requantizes a weight-item-major (`[m, n]`) f32-over-codes accumulator
/// in place: row `i` becomes `acc*cs[i] + bias[i]` — the exact epilogue
/// [`gemm_int2`] fuses for [`OutMajor::Row`].
pub fn requantize_rows(out: &mut [f32], n: usize, cs: &[f32], bias: &[f32]) {
    debug_assert_eq!(out.len(), cs.len() * n);
    debug_assert_eq!(cs.len(), bias.len());
    for ((row, &c), &b) in out.chunks_exact_mut(n).zip(cs).zip(bias) {
        for v in row {
            *v = requant(*v, c, b);
        }
    }
}

/// Requantizes an act-item-major (`[n, m]`) f32-over-codes accumulator
/// in place: element `i` of every item becomes `acc*cs[i] + bias[i]` —
/// the exact epilogue [`gemm_int2`] fuses for [`OutMajor::Col`].
pub fn requantize_cols(out: &mut [f32], cs: &[f32], bias: &[f32]) {
    debug_assert_eq!(out.len() % cs.len().max(1), 0);
    debug_assert_eq!(cs.len(), bias.len());
    for item in out.chunks_exact_mut(cs.len()) {
        for ((v, &c), &b) in item.iter_mut().zip(cs).zip(bias) {
            *v = requant(*v, c, b);
        }
    }
}

/// Bit-packed integer GEMM with fused requantize epilogue.
///
/// `a` holds `m` packed weight items and `b` holds `n` packed activation
/// items (both `words_per_item(k)` words each, from the packers in
/// [`super::pack`]). For every pair the popcount dot product `S` is
/// computed exactly and written as `(S as f32)*cs[i] + bias[i]` at
/// `out[i*n + j]` ([`OutMajor::Row`]) or `out[j*m + i]`
/// ([`OutMajor::Col`]).
///
/// The vector backends stream every activation item past groups of
/// weight rows held in lanes (see the module doc); the AVX2 body's
/// leftover rows and the portable backend walk activation items in
/// blocks of [`crate::gemm`]'s `NC=32` so a weight row streams against a
/// cache-resident B panel. No threading — conv calls this per image
/// inside its own parallel loop, and linear batches are small.
#[allow(clippy::too_many_arguments)]
pub fn gemm_int2(
    m: usize,
    k: usize,
    n: usize,
    a: &[u64],
    b: &[u64],
    cs: &[f32],
    bias: &[f32],
    out: &mut [f32],
    major: OutMajor,
) {
    assert!(k <= MAX_K, "gemm_int2: k={k} overflows the exact-f32 bound");
    let wpi = words_per_item(k);
    assert_eq!(a.len(), m * wpi, "gemm_int2: packed A length mismatch");
    assert_eq!(b.len(), n * wpi, "gemm_int2: packed B length mismatch");
    assert_eq!(cs.len(), m, "gemm_int2: scale length mismatch");
    assert_eq!(bias.len(), m, "gemm_int2: bias length mismatch");
    assert_eq!(out.len(), m * n, "gemm_int2: output length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    // Counted here, above the backends, padding words included: every
    // body reports the same work for the same shape.
    MAC_OPS.fetch_add((m * n * k) as u64, Ordering::Relaxed);
    POPCNT_OPS.fetch_add((m * n * 4 * plane_words(k)) as u64, Ordering::Relaxed);
    dispatch!(avx512, gemm_int2(m, k, n, a, b, cs, bias, out, major))
}

/// The shared blocked loop nest over weight rows `$rows`: only the
/// dot-product kernel differs per backend, and it must be called inside
/// the backend's `target_feature` region to inline, hence a macro
/// rather than a generic.
macro_rules! gemm_int2_body {
    ($dot:path, $rows:expr, $m:expr, $k:expr, $n:expr, $a:expr, $b:expr,
     $cs:expr, $bias:expr, $out:expr, $major:expr) => {{
        // Same B-panel width as the f32 GEMM's NC: a 32-item panel of
        // packed CNV operands is a few KiB and stays L1-resident while
        // every weight row streams over it.
        const BN: usize = 32;
        let wpi = words_per_item($k);
        let mut j0 = 0;
        while j0 < $n {
            let jn = ($n - j0).min(BN);
            for i in $rows {
                let wa = &$a[i * wpi..(i + 1) * wpi];
                let (c, bi) = ($cs[i], $bias[i]);
                for j in j0..j0 + jn {
                    let acc = $dot(wa, &$b[j * wpi..(j + 1) * wpi]);
                    let y = requant(acc as f32, c, bi);
                    match $major {
                        OutMajor::Row => $out[i * $n + j] = y,
                        OutMajor::Col => $out[j * $m + i] = y,
                    }
                }
            }
            j0 += jn;
        }
    }};
}

/// The scalar popcount GEMM; [`super::portable`] re-exports it.
pub mod portable {
    use super::{requant, words_per_item, OutMajor};

    /// `S = pc(w0&a0) + 2·pc(w0&a1) - 2·pc(w1&a0) - 4·pc(w1&a1)` over
    /// `[plane0 | plane1]` packed items.
    #[inline(always)]
    pub fn dot(w: &[u64], a: &[u64]) -> i32 {
        let wpp = w.len() / 2;
        let (w0, w1) = w.split_at(wpp);
        let (a0, a1) = a.split_at(wpp);
        let (mut c00, mut c01, mut c10, mut c11) = (0u32, 0u32, 0u32, 0u32);
        for i in 0..wpp {
            c00 += (w0[i] & a0[i]).count_ones();
            c01 += (w0[i] & a1[i]).count_ones();
            c10 += (w1[i] & a0[i]).count_ones();
            c11 += (w1[i] & a1[i]).count_ones();
        }
        c00 as i32 + 2 * c01 as i32 - 2 * c10 as i32 - 4 * c11 as i32
    }

    /// Single-backend entry with the same contract as
    /// [`super::gemm_int2`] (counters excluded).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_int2(
        m: usize,
        k: usize,
        n: usize,
        a: &[u64],
        b: &[u64],
        cs: &[f32],
        bias: &[f32],
        out: &mut [f32],
        major: OutMajor,
    ) {
        gemm_int2_body!(dot, 0..m, m, k, n, a, b, cs, bias, out, major);
    }
}

/// The AVX2 popcount GEMM; [`super::avx2`] re-exports it.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::{plane_words, portable, requant, words_per_item, OutMajor};
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// The Muła nibble LUT: `vpshufb` by a nibble yields its popcount.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline(always)]
    unsafe fn nibble_popcnt_lut() -> __m256i {
        _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        )
    }

    /// Byte-wise popcount of a 256-bit vector via the Muła `vpshufb`
    /// nibble-LUT method, reduced to four u64 lane sums with `vpsadbw`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline(always)]
    unsafe fn popcnt256(v: __m256i) -> __m256i {
        let lut = nibble_popcnt_lut();
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
        let cnt = _mm256_add_epi8(
            _mm256_shuffle_epi8(lut, lo),
            _mm256_shuffle_epi8(lut, hi),
        );
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Same contract as `portable::dot`. Depths of four or more plane
    /// words run four words per iteration through `popcnt256` and pay
    /// one horizontal sum per stream; shallower items (every CNV conv
    /// below `k = 256`) are the hardware-POPCNT scalar loop alone.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and POPCNT (runtime-checked by the dispatcher).
    #[target_feature(enable = "avx2,popcnt")]
    #[inline]
    pub unsafe fn dot(w: &[u64], a: &[u64]) -> i32 {
        let wpp = w.len() / 2;
        if wpp < 4 {
            return portable::dot(w, a);
        }
        let (w0, w1) = w.split_at(wpp);
        let (a0, a1) = a.split_at(wpp);
        let mut acc00 = _mm256_setzero_si256();
        let mut acc01 = _mm256_setzero_si256();
        let mut acc10 = _mm256_setzero_si256();
        let mut acc11 = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= wpp {
            let vw0 = _mm256_loadu_si256(w0.as_ptr().add(i) as *const __m256i);
            let vw1 = _mm256_loadu_si256(w1.as_ptr().add(i) as *const __m256i);
            let va0 = _mm256_loadu_si256(a0.as_ptr().add(i) as *const __m256i);
            let va1 = _mm256_loadu_si256(a1.as_ptr().add(i) as *const __m256i);
            acc00 = _mm256_add_epi64(acc00, popcnt256(_mm256_and_si256(vw0, va0)));
            acc01 = _mm256_add_epi64(acc01, popcnt256(_mm256_and_si256(vw0, va1)));
            acc10 = _mm256_add_epi64(acc10, popcnt256(_mm256_and_si256(vw1, va0)));
            acc11 = _mm256_add_epi64(acc11, popcnt256(_mm256_and_si256(vw1, va1)));
            i += 4;
        }
        #[inline(always)]
        unsafe fn hsum(v: __m256i) -> i64 {
            let mut lanes = [0i64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
            lanes[0] + lanes[1] + lanes[2] + lanes[3]
        }
        let (mut c00, mut c01, mut c10, mut c11) =
            (hsum(acc00), hsum(acc01), hsum(acc10), hsum(acc11));
        while i < wpp {
            c00 += (w0[i] & a0[i]).count_ones() as i64;
            c01 += (w0[i] & a1[i]).count_ones() as i64;
            c10 += (w1[i] & a0[i]).count_ones() as i64;
            c11 += (w1[i] & a1[i]).count_ones() as i64;
            i += 1;
        }
        (c00 + 2 * c01 - 2 * c10 - 4 * c11) as i32
    }

    /// Deepest operand (plane words) the row-lane microkernel
    /// interleaves on the stack: `k = 4608`, the deepest CNV layer.
    /// Deeper items take the per-pair [`dot`], whose horizontal sums
    /// are long amortized at that depth.
    const ROW_LANE_MAX_WORDS: usize = 72;

    /// Fewest activation items that amortize interleaving four weight
    /// rows (which costs about one item's lookups) at any supported
    /// depth: against the vectorized [`dot`], measured at `m = 32`, the
    /// row lanes break even at 7 plane words for one item (330 vs 362 ns
    /// at 5 words, 480 vs 461 at 8, 3.8 vs 2.6 us at 72), at 25 words
    /// for two, and tie at 72 words for three.
    const ROW_LANE_MIN_ITEMS: usize = 3;

    /// Depth (plane words) below which even a single activation item
    /// amortizes the interleave — the one-item break-even above. Covers
    /// the `n = 1` conv6 shape (5 words) and every item too shallow for
    /// `dot`'s vector loop.
    const ROW_LANE_ANY_ITEMS_WORDS: usize = 7;

    /// Plane words between `vpsadbw` flushes of the byte accumulators:
    /// one word adds at most `8 + 2·8 = 24` to a byte, and
    /// `24 · 8 = 192 < 256`.
    const FLUSH_WORDS: usize = 8;

    /// The row-lane microkernel: weight rows `i0..i0 + 4` against all
    /// `n` activation items, one row per 64-bit lane.
    ///
    /// The four rows are interleaved once into nibble vectors on the
    /// stack (`[w0 lo, w0 hi, w1 lo, w1 hi]` per plane word). Per
    /// activation word the broadcast nibbles are AND-ed against them
    /// and counted with two `vpshufb` LUTs — `×1` for activation plane
    /// 0, `×2` for plane 1 — summed as bytes per weight plane:
    /// `P = pc(w0&a0) + 2·pc(w0&a1)` and `N = pc(w1&a0) + 2·pc(w1&a1)`.
    /// One `vpsadbw` per [`FLUSH_WORDS`] words turns bytes into lane
    /// sums, `S = P − 2N` is the row's dot product with no horizontal
    /// reduction, and the epilogue is `cvtdq2ps`, `mulps`, `addps` —
    /// the two exactly-rounded steps of [`requant`], never fused.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `wpp <= ROW_LANE_MAX_WORDS` (the interleave
    /// buffer's size); every slice access is bounds-checked.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_rows4(
        i0: usize,
        m: usize,
        wpp: usize,
        n: usize,
        a: &[u64],
        b: &[u64],
        cs: &[f32],
        bias: &[f32],
        out: &mut [f32],
        major: OutMajor,
    ) {
        let low = _mm256_set1_epi8(0x0f);
        let lut1 = nibble_popcnt_lut();
        let lut2 = _mm256_add_epi8(lut1, lut1);
        let zero = _mm256_setzero_si256();
        let wpi = 2 * wpp;
        let rows = &a[i0 * wpi..(i0 + 4) * wpi];
        let mut lanes = [MaybeUninit::<__m256i>::uninit(); 4 * ROW_LANE_MAX_WORDS];
        for t in 0..wpp {
            for plane in 0..2 {
                let at = plane * wpp + t;
                let v = _mm256_setr_epi64x(
                    rows[at] as i64,
                    rows[wpi + at] as i64,
                    rows[2 * wpi + at] as i64,
                    rows[3 * wpi + at] as i64,
                );
                lanes[4 * t + 2 * plane].write(_mm256_and_si256(v, low));
                lanes[4 * t + 2 * plane + 1].write(_mm256_and_si256(_mm256_srli_epi16(v, 4), low));
            }
        }
        let cs4 = _mm_loadu_ps(cs[i0..i0 + 4].as_ptr());
        let bias4 = _mm_loadu_ps(bias[i0..i0 + 4].as_ptr());
        let low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
        let (row_stride, item_stride) = match major {
            OutMajor::Row => (n, 1),
            OutMajor::Col => (1, m),
        };
        for (j, item) in b.chunks_exact(wpi).enumerate() {
            let (b0, b1) = item.split_at(wpp);
            let (mut p, mut nn) = (zero, zero);
            let mut t = 0;
            while t < wpp {
                let flush_at = (t + FLUSH_WORDS).min(wpp);
                let (mut pb, mut nb) = (zero, zero);
                while t < flush_at {
                    // SAFETY: the interleave above initialized entries
                    // `0..4 * wpp`, and `t < wpp`.
                    let l = [
                        lanes[4 * t].assume_init(),
                        lanes[4 * t + 1].assume_init(),
                        lanes[4 * t + 2].assume_init(),
                        lanes[4 * t + 3].assume_init(),
                    ];
                    let a0 = _mm256_set1_epi64x(b0[t] as i64);
                    let a1 = _mm256_set1_epi64x(b1[t] as i64);
                    let a0lo = _mm256_and_si256(a0, low);
                    let a0hi = _mm256_and_si256(_mm256_srli_epi16(a0, 4), low);
                    let a1lo = _mm256_and_si256(a1, low);
                    let a1hi = _mm256_and_si256(_mm256_srli_epi16(a1, 4), low);
                    let cnt = |lut, x, y| _mm256_shuffle_epi8(lut, _mm256_and_si256(x, y));
                    pb = _mm256_add_epi8(
                        pb,
                        _mm256_add_epi8(
                            _mm256_add_epi8(cnt(lut1, l[0], a0lo), cnt(lut1, l[1], a0hi)),
                            _mm256_add_epi8(cnt(lut2, l[0], a1lo), cnt(lut2, l[1], a1hi)),
                        ),
                    );
                    nb = _mm256_add_epi8(
                        nb,
                        _mm256_add_epi8(
                            _mm256_add_epi8(cnt(lut1, l[2], a0lo), cnt(lut1, l[3], a0hi)),
                            _mm256_add_epi8(cnt(lut2, l[2], a1lo), cnt(lut2, l[3], a1hi)),
                        ),
                    );
                    t += 1;
                }
                p = _mm256_add_epi64(p, _mm256_sad_epu8(pb, zero));
                nn = _mm256_add_epi64(nn, _mm256_sad_epu8(nb, zero));
            }
            let s = _mm256_sub_epi64(p, _mm256_add_epi64(nn, nn));
            // |S| <= 6k < 2^24: the low dword of each lane is S.
            let s = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(s, low_dwords));
            let y = _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(s), cs4), bias4);
            let mut ys = [0.0f32; 4];
            _mm_storeu_ps(ys.as_mut_ptr(), y);
            for (l, &v) in ys.iter().enumerate() {
                out[(i0 + l) * row_stride + j * item_stride] = v;
            }
        }
    }

    /// Single-backend entry with the same contract as
    /// [`super::gemm_int2`] (counters excluded). Whole groups of four
    /// weight rows go through the row-lane microkernel where the shape
    /// amortizes its interleave; leftover rows (`m mod 4`, pruned
    /// widths) and the remaining shapes run the per-pair [`dot`].
    ///
    /// # Safety
    ///
    /// Requires AVX2 and POPCNT.
    #[target_feature(enable = "avx2,popcnt")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_int2(
        m: usize,
        k: usize,
        n: usize,
        a: &[u64],
        b: &[u64],
        cs: &[f32],
        bias: &[f32],
        out: &mut [f32],
        major: OutMajor,
    ) {
        let wpp = plane_words(k);
        let amortized = n >= ROW_LANE_MIN_ITEMS || wpp < ROW_LANE_ANY_ITEMS_WORDS;
        let lane_rows = if amortized && (1..=ROW_LANE_MAX_WORDS).contains(&wpp) {
            m / 4 * 4
        } else {
            0
        };
        for i0 in (0..lane_rows).step_by(4) {
            gemm_rows4(i0, m, wpp, n, a, b, cs, bias, out, major);
        }
        gemm_int2_body!(dot, lane_rows..m, m, k, n, a, b, cs, bias, out, major);
    }
}

/// The AVX-512 popcount GEMM; [`super::avx512`] re-exports it.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use super::super::layout::{low_bits, transpose8_epi64};
    use super::{plane_words, portable, OutMajor};
    use std::arch::x86_64::*;

    /// Plane words of each weight plane one pass holds in registers:
    /// sixteen of the 32 vector registers.
    const BLOCK_WORDS: usize = 8;

    /// Activation items per [`OutMajor::Row`] store: a 512-bit vector of
    /// `f32`.
    const ROW_ITEMS: usize = 16;

    /// Plane words `0..TB` at `rows` of up to eight weight rows `wpi`
    /// words apart, one row per lane; lanes outside `live` stay zero and
    /// touch no memory.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; words `0..TB` at `rows + l·wpi` must be
    /// readable for every lane `l` in `live`.
    #[inline(always)]
    unsafe fn load_rows<const TB: usize>(
        rows: *const u64,
        wpi: usize,
        live: __mmask8,
    ) -> [__m512i; BLOCK_WORDS] {
        let zero = _mm512_setzero_si512();
        let s = wpi as i64;
        let lane_step = _mm512_setr_epi64(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
        let mut w = [zero; BLOCK_WORDS];
        for (t, w) in w.iter_mut().enumerate().take(TB) {
            let word = rows.add(t) as *const i64;
            *w = _mm512_mask_i64gather_epi64::<8>(zero, live, lane_step, word);
        }
        w
    }

    /// `S` over plane words `0..TB` of the eight rows in `w0`/`w1` (plane
    /// 0/1, one row per lane) against the activation planes at `b0`/`b1`:
    /// four `vpandq` + `vpopcntq` per word, the lane counts added as the
    /// integers they are.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and VPOPCNTDQ; `TB` words must be readable at
    /// `b0` and `b1`.
    #[inline(always)]
    unsafe fn lane_sums<const TB: usize>(
        w0: &[__m512i; BLOCK_WORDS],
        w1: &[__m512i; BLOCK_WORDS],
        b0: *const u64,
        b1: *const u64,
    ) -> __m512i {
        let zero = _mm512_setzero_si512();
        // c00, c01 − c10 and c11 of the module doc's sum.
        let (mut c00, mut mid, mut c11) = (zero, zero, zero);
        for t in 0..TB {
            let a0 = _mm512_set1_epi64(*b0.add(t) as i64);
            let a1 = _mm512_set1_epi64(*b1.add(t) as i64);
            let pc = |w, a| _mm512_popcnt_epi64(_mm512_and_si512(w, a));
            c00 = _mm512_add_epi64(c00, pc(w0[t], a0));
            mid = _mm512_add_epi64(mid, pc(w0[t], a1));
            mid = _mm512_sub_epi64(mid, pc(w1[t], a0));
            c11 = _mm512_add_epi64(c11, pc(w1[t], a1));
        }
        // S = c00 + 2·((c01 − c10) − 2·c11)
        let twice = _mm512_sub_epi64(mid, _mm512_slli_epi64::<1>(c11));
        _mm512_add_epi64(c00, _mm512_slli_epi64::<1>(twice))
    }

    /// One pass of the row-lane microkernel: plane words `d..d + TB` of
    /// weight rows `i0..i0 + rows` (`rows <= 8`, one per lane) against
    /// all `n` activation items.
    ///
    /// The first pass of a row group (`d == 0`) writes its sums, later
    /// ones add to what `out` holds, and the last (`d + TB == wpp`) runs
    /// the epilogue: between passes the output elements hold the partial
    /// `S` as `i32` bits. For [`OutMajor::Col`] the low dwords of a lane
    /// vector are `rows` consecutive outputs. For [`OutMajor::Row`] two
    /// items' sums share each 64-bit lane (`|S| < 2^24` fits a dword),
    /// eight such vectors are transposed and each row stores its
    /// [`ROW_ITEMS`] contiguous outputs. The epilogue is `cvtdq2ps`,
    /// `mulps`, `addps` — the two exactly-rounded steps of `requant`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and VPOPCNTDQ, and the slice lengths
    /// [`gemm_int2`] asserts.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_rows8<const TB: usize>(
        i0: usize,
        rows: usize,
        d: usize,
        m: usize,
        wpp: usize,
        n: usize,
        a: &[u64],
        b: &[u64],
        cs: &[f32],
        bias: &[f32],
        out: &mut [f32],
        major: OutMajor,
    ) {
        let wpi = 2 * wpp;
        let (first, last) = (d == 0, d + TB == wpp);
        let live = low_bits(rows);
        // SAFETY: row `i0 + l` of `a` exists for every live lane `l`, and
        // `d + TB <= wpp` words of each of its planes from `d` on.
        let w0 = load_rows::<TB>(a.as_ptr().add(i0 * wpi + d), wpi, live as __mmask8);
        let w1 = load_rows::<TB>(a.as_ptr().add(i0 * wpi + wpp + d), wpi, live as __mmask8);
        // SAFETY (both arms): item `j < n` of `b` has `wpi` words, so `TB`
        // words from `d` on are readable in both planes; masked loads
        // and stores touch the selected elements only, all of them
        // outputs of rows `i0..i0 + rows` and items `< n`.
        let sums = |j: usize| {
            let item = b.as_ptr().add(j * wpi + d);
            lane_sums::<TB>(&w0, &w1, item, item.add(wpp))
        };
        match major {
            OutMajor::Col => {
                let cs8 = _mm512_maskz_loadu_ps(live, cs.as_ptr().add(i0));
                let bias8 = _mm512_maskz_loadu_ps(live, bias.as_ptr().add(i0));
                for j in 0..n {
                    let mut s = _mm512_castsi256_si512(_mm512_cvtepi64_epi32(sums(j)));
                    let dst = out.as_mut_ptr().add(j * m + i0);
                    if !first {
                        s = _mm512_add_epi32(s, _mm512_maskz_loadu_epi32(live, dst as *const i32));
                    }
                    if last {
                        let y = _mm512_add_ps(_mm512_mul_ps(_mm512_cvtepi32_ps(s), cs8), bias8);
                        _mm512_mask_storeu_ps(dst, live, y);
                    } else {
                        _mm512_mask_storeu_epi32(dst as *mut i32, live, s);
                    }
                }
            }
            OutMajor::Row => {
                let zero = _mm512_setzero_si512();
                let low_dword = _mm512_set1_epi64(0xffff_ffff);
                for j0 in (0..n).step_by(ROW_ITEMS) {
                    let items = (n - j0).min(ROW_ITEMS);
                    let mut pairs = [zero; 8];
                    for (p, pair) in pairs.iter_mut().enumerate().take(items.div_ceil(2)) {
                        let even = sums(j0 + 2 * p);
                        let odd = if 2 * p + 1 < items { sums(j0 + 2 * p + 1) } else { zero };
                        // 0xF8: a | (b & c).
                        let high = _mm512_slli_epi64::<32>(odd);
                        *pair = _mm512_ternarylogic_epi64::<0xF8>(high, even, low_dword);
                    }
                    let keep = low_bits(items);
                    for (l, &row) in transpose8_epi64(pairs).iter().enumerate().take(rows) {
                        let mut s = row;
                        let dst = out.as_mut_ptr().add((i0 + l) * n + j0);
                        if !first {
                            let partial = _mm512_maskz_loadu_epi32(keep, dst as *const i32);
                            s = _mm512_add_epi32(s, partial);
                        }
                        if last {
                            let (c, bi) = (_mm512_set1_ps(cs[i0 + l]), _mm512_set1_ps(bias[i0 + l]));
                            let y = _mm512_add_ps(_mm512_mul_ps(_mm512_cvtepi32_ps(s), c), bi);
                            _mm512_mask_storeu_ps(dst, keep, y);
                        } else {
                            _mm512_mask_storeu_epi32(dst as *mut i32, keep, s);
                        }
                    }
                }
            }
        }
    }

    /// Single-backend entry with the same contract as
    /// [`super::gemm_int2`] (counters excluded): every weight row goes
    /// through the row lanes, eight at a time, the last `m mod 8` under
    /// a lane mask.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and VPOPCNTDQ.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_int2(
        m: usize,
        k: usize,
        n: usize,
        a: &[u64],
        b: &[u64],
        cs: &[f32],
        bias: &[f32],
        out: &mut [f32],
        major: OutMajor,
    ) {
        let wpp = plane_words(k);
        // The lanes read and write through raw pointers: the lengths the
        // dispatcher asserts are this body's memory safety, so it
        // asserts them too (the tests call it directly).
        assert!(
            a.len() == m * 2 * wpp && b.len() == n * 2 * wpp && out.len() == m * n,
            "gemm_int2: packed operand or output length mismatch"
        );
        assert!(cs.len() == m && bias.len() == m, "gemm_int2: scale/bias length mismatch");
        if wpp == 0 {
            // No depth, no pass to run the epilogue in.
            return portable::gemm_int2(m, k, n, a, b, cs, bias, out, major);
        }
        // One item makes both layouts the same contiguous column.
        let major = if n == 1 { OutMajor::Col } else { major };
        for i0 in (0..m).step_by(8) {
            let rows = (m - i0).min(8);
            for d in (0..wpp).step_by(BLOCK_WORDS) {
                macro_rules! pass {
                    ($($tb:literal)*) => {
                        match (wpp - d).min(BLOCK_WORDS) {
                            $($tb => {
                                gemm_rows8::<$tb>(i0, rows, d, m, wpp, n, a, b, cs, bias, out, major)
                            })*
                            _ => unreachable!("a pass holds 1..=BLOCK_WORDS words"),
                        }
                    };
                }
                pass!(1 2 3 4 5 6 7 8);
            }
        }
    }
}
