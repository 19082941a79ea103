//! Operand layout of the int2 engine: bit planes, item sizes, output
//! orientation.
//!
//! # Bit-plane packing
//!
//! A signed 2-bit weight code `w ∈ {-2,-1,0,1}` is stored as its two's
//! complement bits `(w1, w0)` so that `w = w0 - 2*w1`:
//!
//! ```text
//! -2 = (1,0)   -1 = (1,1)   0 = (0,0)   1 = (0,1)
//! ```
//!
//! An unsigned 2-bit activation code `a ∈ {0..3}` is `a = a0 + 2*a1`.
//! Plane `p` of item `i` packs bit `p` of 64 consecutive codes per word,
//! `k` codes into `W = ceil(k/64)` words, laid out `[plane0 | plane1]`
//! per item (tail bits zero, so padding contributes nothing). The dot
//! product over `k` codes is then exactly
//!
//! ```text
//! S = Σ w·a = pc(w0&a0) + 2·pc(w0&a1) - 2·pc(w1&a0) - 4·pc(w1&a1)
//! ```
//!
//! where `pc` is population count — pure integer arithmetic, so every
//! backend of every kernel in this tree is bit-identical by
//! construction, with none of the FMA/ordering care the f32 kernels in
//! [`crate::simd`] need.
//!
//! A packed *image* ([`super::pack_image_int2`]) uses the same two
//! planes per `(channel, row)`: input column `ix` at bit `pad + ix` of a
//! row of [`image_row_words`] words, horizontal padding being the zero
//! bits at each edge.

/// Largest supported reduction depth: `6*k` must stay below 2^24 so the
/// integer accumulator converts to `f32` exactly (and so the f32-over-
/// codes route accumulates exactly). CNV shapes peak at `k = 4608`.
pub const MAX_K: usize = (1 << 24) / 6;

/// Words per plane for a `k`-deep operand.
#[inline]
pub fn plane_words(k: usize) -> usize {
    k.div_ceil(64)
}

/// Packed `u64` words per item (`2` planes of [`plane_words`]).
#[inline]
pub fn words_per_item(k: usize) -> usize {
    2 * plane_words(k)
}

/// `u64` words per packed image-row plane for
/// [`super::pack_image_int2`]: enough bits for the `pad + w + pad`
/// padded row, plus one guard word so the window gather's two-word
/// funnel reads never index past the row end.
#[inline]
pub fn image_row_words(w: usize, pad: usize) -> usize {
    (w + 2 * pad).div_ceil(64) + 1
}

/// Output orientation of [`super::gemm_int2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutMajor {
    /// `out[i*n + j]`: weight-item-major (conv layout `[c_out, pixels]`).
    Row,
    /// `out[j*m + i]`: act-item-major (linear layout `[batch, out]`).
    Col,
}

/// Sizes `v` to `len` words whose contents the caller overwrites in
/// full: a steady-state call reuses the previous call's words instead
/// of zero-filling them.
pub(super) fn resize_for_overwrite(v: &mut Vec<u64>, len: usize) {
    if v.len() > len {
        v.truncate(len);
    } else {
        v.resize(len, 0);
    }
}

/// The low `n <= 16` bits set: the AVX-512 bodies' mask for the first
/// `n` lanes of a vector.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(super) fn low_bits(n: usize) -> u16 {
    ((1u32 << n) - 1) as u16
}

/// 8×8 transpose of 64-bit lanes: lane `i` of `out[p]` is lane `p` of
/// `rows[i]`. Three rounds of eight shuffles. The AVX-512 gather turns
/// eight pixels' words into one pixel's eight words with it, the GEMM
/// eight rows' sums per item pair into one row's sixteen items.
///
/// # Safety
///
/// Requires AVX-512F.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub(super) unsafe fn transpose8_epi64(
    r: [std::arch::x86_64::__m512i; 8],
) -> [std::arch::x86_64::__m512i; 8] {
    use std::arch::x86_64::*;
    // Round 1 pairs rows: 128-bit chunk `c` of `lo[i]` holds lane `2c`
    // of rows `2i, 2i + 1`, of `hi[i]` lane `2c + 1`.
    let lo = [
        _mm512_unpacklo_epi64(r[0], r[1]),
        _mm512_unpacklo_epi64(r[2], r[3]),
        _mm512_unpacklo_epi64(r[4], r[5]),
        _mm512_unpacklo_epi64(r[6], r[7]),
    ];
    let hi = [
        _mm512_unpackhi_epi64(r[0], r[1]),
        _mm512_unpackhi_epi64(r[2], r[3]),
        _mm512_unpackhi_epi64(r[4], r[5]),
        _mm512_unpackhi_epi64(r[6], r[7]),
    ];
    // Rounds 2 and 3 are a 4×4 transpose of those chunks.
    #[inline(always)]
    unsafe fn chunks4(t: [__m512i; 4]) -> [__m512i; 4] {
        let a = _mm512_shuffle_i64x2::<0x88>(t[0], t[1]);
        let b = _mm512_shuffle_i64x2::<0xdd>(t[0], t[1]);
        let c = _mm512_shuffle_i64x2::<0x88>(t[2], t[3]);
        let d = _mm512_shuffle_i64x2::<0xdd>(t[2], t[3]);
        [
            _mm512_shuffle_i64x2::<0x88>(a, c),
            _mm512_shuffle_i64x2::<0x88>(b, d),
            _mm512_shuffle_i64x2::<0xdd>(a, c),
            _mm512_shuffle_i64x2::<0xdd>(b, d),
        ]
    }
    let (even, odd) = (chunks4(lo), chunks4(hi));
    [even[0], odd[0], even[1], odd[1], even[2], odd[2], even[3], odd[3]]
}
