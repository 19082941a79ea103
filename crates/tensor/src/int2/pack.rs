//! Quantize and bit-pack: weight rows, activation rows and columns, and
//! the once-per-image pack the direct conv route starts from.
//!
//! # One quantize rule
//!
//! Every activation code in the engine — [`act_codes_in_place`] on the
//! linear and f32-over-codes routes, both [`pack_image_int2`] bodies on
//! the direct conv route — comes from three compares on `x = v / scale`:
//!
//! ```text
//! g1 = x ≥ 0.5   g2 = x ≥ 1.5   g3 = x ≥ 2.5
//! code = g1 + g2 + g3      plane0 = g1 ^ g2 ^ g3      plane1 = g2
//! ```
//!
//! which equals `(x.round().clamp(0.0, 3.0) as i32) & 3` for all 2³²
//! f32 bit patterns: `round` is half-away-from-zero, so on `x ≥ 0` it
//! steps exactly at the three thresholds and the clamp holds 3 above;
//! negatives, −0.0 and −∞ clamp to 0 and fail every compare; NaN fails
//! every ordered compare just as `NaN as i32` is 0. The equivalence is
//! verified exhaustively (an `#[ignore]`d sweep in `int2_identity.rs`),
//! and the `round().clamp()` form survives only there, as the oracle.
//! The division is kept — a reciprocal multiply rounds differently.
//!
//! # Pack once
//!
//! Packing im2col columns would code and pack every input pixel up to
//! `k²` times (once per window it appears in). The direct path — the
//! software twin of FINN's sliding-window unit feeding a matrix-vector
//! unit — packs each image **once** into per-`(channel, row)` bit planes
//! ([`pack_image_int2`]: eight values per `vdivps` + three `vcmpps` +
//! three `vmovmskps` on AVX2, a masked load for a row's ragged tail; the
//! AVX-512 backend runs the same body) and lifts every window's operand
//! out of the packed rows ([`super::gather_conv_windows_int2`]).
//! [`pack_image_int2`] serves the layer path's direct conv route and
//! the benchmark harness; the streamlined serving path packs nothing —
//! its stem writes packed codes through the threshold unit
//! ([`super::conv_f32_codes`]) and calls it only for an image with an
//! accumulator off its folded range. [`unpack_image_int2`] is the way
//! back to f32, for the few codes an FC layer reads.

use super::layout::{image_row_words, plane_words};
use super::Backend;

/// Packs rows of signed 2-bit weight *codes* (each an exact integer in
/// `{-2,-1,0,1}` stored as `f32`) into two's-complement bit planes.
/// Row `r` reads `codes[r*k..(r+1)*k]` and lands at
/// `out[r*words_per_item(k)..]` as `[plane0 | plane1]`.
pub fn pack_weights_int2(codes: &[f32], items: usize, k: usize, out: &mut Vec<u64>) {
    debug_assert_eq!(codes.len(), items * k);
    debug_assert!(codes
        .iter()
        .all(|&c| (-2.0..=1.0).contains(&c) && c == c.trunc()));
    pack_strided(codes, items, k, k, 1, out);
}

/// Packs rows of unsigned 2-bit activation codes (`{0..3}` as `f32`,
/// row `r` at `codes[r*k..]`) into bit planes, same layout as
/// [`pack_weights_int2`].
pub fn pack_acts_int2(codes: &[f32], items: usize, k: usize, out: &mut Vec<u64>) {
    debug_assert_eq!(codes.len(), items * k);
    debug_assert!(codes
        .iter()
        .all(|&c| (0.0..=3.0).contains(&c) && c == c.trunc()));
    pack_strided(codes, items, k, k, 1, out);
}

/// Packs unsigned 2-bit activation codes from an im2col column buffer:
/// element `(kk, j)` of item `j` lives at `codes[kk*items + j]`
/// (`[k, items]` row-major, i.e. items are columns).
pub fn pack_acts_cols_int2(codes: &[f32], items: usize, k: usize, out: &mut Vec<u64>) {
    debug_assert_eq!(codes.len(), items * k);
    pack_strided(codes, items, k, 1, items, out);
}

/// Shared packer: item `i`, depth index `kk` reads
/// `codes[i*item_stride + kk*depth_stride]`. Codes are two's-complement
/// masked to their low 2 bits, which maps both the signed weight range
/// and the unsigned act range onto the plane identities of
/// [`super::layout`].
fn pack_strided(
    codes: &[f32],
    items: usize,
    k: usize,
    item_stride: usize,
    depth_stride: usize,
    out: &mut Vec<u64>,
) {
    let wpp = plane_words(k);
    out.clear();
    out.resize(items * 2 * wpp, 0);
    for i in 0..items {
        let dst = &mut out[i * 2 * wpp..(i + 1) * 2 * wpp];
        let (p0, p1) = dst.split_at_mut(wpp);
        let base = i * item_stride;
        for kk in 0..k {
            let bits = (codes[base + kk * depth_stride] as i32 & 3) as u64;
            let (word, bit) = (kk / 64, kk % 64);
            p0[word] |= (bits & 1) << bit;
            p1[word] |= (bits >> 1) << bit;
        }
    }
}

/// The engine's one activation quantize rule: the 2-bit code of a
/// pre-scaled value `x = v / scale`, by three compares instead of
/// `x.round().clamp(0, 3)`. The two agree on every f32 bit pattern
/// (see the module doc); this one is branch-free, calls no libm
/// `roundf` and is what `vcmpps` computes eight at a time.
#[inline(always)]
fn act_code(x: f32) -> u8 {
    (x >= 0.5) as u8 + (x >= 1.5) as u8 + (x >= 2.5) as u8
}

/// Rounds a quantized activation slice to its integer codes in place:
/// `v = clamp(round(v / scale), 0, 3)`, computed by the engine's one
/// compare rule (the same codes [`pack_image_int2`] packs). Inputs lie
/// on (or within float error of) the quantization grid
/// `{0, s, 2s, 3s}`, so round-to-nearest recovers the code exactly.
/// Plain branch-free scalar ops — deterministic, no dispatch needed.
pub fn act_codes_in_place(v: &mut [f32], scale: f32) {
    debug_assert!(scale > 0.0);
    for x in v {
        *x = f32::from(act_code(*x / scale));
    }
}

/// Recovers signed weight codes from a per-row-scaled quantized weight
/// matrix: `out[r*k + i] = clamp(round(q[r*k + i] / scales[r]), -2, 1)`.
/// Quantized weights are exactly `code * scale` with `code` in
/// `{-2,-1,0,1}` (codes are 0 or ±powers of two), so the division
/// recovers the code exactly.
pub fn weight_codes_into(q: &[f32], scales: &[f32], k: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(q.len(), scales.len() * k);
    out.clear();
    out.reserve(q.len());
    for (row, &s) in q.chunks_exact(k).zip(scales) {
        debug_assert!(s > 0.0);
        out.extend(row.iter().map(|&w| (w / s).round().clamp(-2.0, 1.0)));
    }
}

/// Quantizes and bit-packs one CHW image **once** into per-`(channel,
/// row)` bit planes for the direct conv path.
///
/// Row `(c, y)` lands at `out[(c*h + y) * 2*rw ..]` as
/// `[plane0 | plane1]` with `rw = image_row_words(w, pad)`; input
/// column `ix` sits at bit `pad + ix`, so horizontal padding is the
/// zero bits at each row edge — code 0, exactly the zeros im2col
/// materializes. The quantize step is the same compare rule as
/// [`act_codes_in_place`] (`plane0 = g1^g2^g3` and `plane1 = g2` are
/// the low and high bit of the code), so the packed codes equal the
/// codes of an im2col'd image bit for bit, on every backend.
///
/// # Panics
///
/// Panics when `img` is not `c*h*w` long.
pub fn pack_image_int2(
    img: &[f32],
    ascale: f32,
    c: usize,
    h: usize,
    w: usize,
    pad: usize,
    out: &mut Vec<u64>,
) {
    // No 512-bit body: AVX-512 hosts run the AVX2 one.
    dispatch!(avx2, pack_image_int2(img, ascale, c, h, w, pad, out))
}

/// Checks the image and zero-fills `out` to the packed-image size
/// (both pack bodies OR bits into it); returns the words per row plane.
fn pack_image_setup(
    img: &[f32],
    ascale: f32,
    c: usize,
    h: usize,
    w: usize,
    pad: usize,
    out: &mut Vec<u64>,
) -> usize {
    assert_eq!(
        img.len(),
        c * h * w,
        "pack_image_int2: image length mismatch"
    );
    debug_assert!(ascale > 0.0);
    let rw = image_row_words(w, pad);
    out.clear();
    out.resize(c * h * 2 * rw, 0);
    rw
}

/// Expands a packed 2-bit image back to grid values, CHW order:
/// `out[(ch·h + y)·w + x] = code · scale` — bit for bit what QuantReLU's
/// `q · scale` wrote for that code. The streamlined path materializes
/// f32 only through this, for the few features an FC tail reads.
///
/// # Panics
///
/// Panics when `image` is not a packed `c×h×w` image or `out` is not
/// `c·h·w` long.
pub fn unpack_image_int2(
    image: &[u64],
    c: usize,
    h: usize,
    w: usize,
    pad: usize,
    scale: f32,
    out: &mut [f32],
) {
    let rw = image_row_words(w, pad);
    assert_eq!(image.len(), c * h * 2 * rw, "unpack_image_int2: packed image length mismatch");
    assert_eq!(out.len(), c * h * w, "unpack_image_int2: output length mismatch");
    if w == 0 {
        return;
    }
    for (row, dst) in image.chunks_exact(2 * rw).zip(out.chunks_exact_mut(w)) {
        let (p0, p1) = row.split_at(rw);
        for (x, v) in dst.iter_mut().enumerate() {
            let (word, bit) = ((pad + x) / 64, (pad + x) % 64);
            let code = (p0[word] >> bit & 1) + 2 * (p1[word] >> bit & 1);
            *v = code as f32 * scale;
        }
    }
}

/// The scalar image pack; [`super::portable`] re-exports it.
pub mod portable {
    use super::{act_code, pack_image_setup};

    /// Single-backend entry with the same contract as
    /// [`super::pack_image_int2`]: one division and three compares per
    /// value, no branch and no libm call.
    pub fn pack_image_int2(
        img: &[f32],
        ascale: f32,
        c: usize,
        h: usize,
        w: usize,
        pad: usize,
        out: &mut Vec<u64>,
    ) {
        let rw = pack_image_setup(img, ascale, c, h, w, pad, out);
        if w == 0 {
            return;
        }
        for (row, dst) in img.chunks_exact(w).zip(out.chunks_exact_mut(2 * rw)) {
            let (p0, p1) = dst.split_at_mut(rw);
            for (ix, &v) in row.iter().enumerate() {
                let code = u64::from(act_code(v / ascale));
                let (word, bit) = ((pad + ix) / 64, (pad + ix) % 64);
                p0[word] |= (code & 1) << bit;
                p1[word] |= (code >> 1) << bit;
            }
        }
    }
}

/// The AVX2 image pack; [`super::avx2`] re-exports it.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::pack_image_setup;
    use std::arch::x86_64::*;

    /// `maskload` masks for a row's last `1..=7` values: the window
    /// starting at `8 - rem` has `rem` leading all-ones lanes.
    pub(in crate::int2) static TAIL_MASK: [i32; 16] =
        [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// Single-backend entry with the same contract as
    /// [`super::pack_image_int2`]: eight values become plane bits with
    /// one `vdivps`, three `vcmpps` and three `vmovmskps`. A row's
    /// ragged tail is a masked load whose dead lanes read as `0.0`,
    /// which is code 0 and sets no bit.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pack_image_int2(
        img: &[f32],
        ascale: f32,
        c: usize,
        h: usize,
        w: usize,
        pad: usize,
        out: &mut Vec<u64>,
    ) {
        let rw = pack_image_setup(img, ascale, c, h, w, pad, out);
        if w == 0 {
            return;
        }
        let scale = _mm256_set1_ps(ascale);
        let (t1, t2, t3) = (
            _mm256_set1_ps(0.5),
            _mm256_set1_ps(1.5),
            _mm256_set1_ps(2.5),
        );
        for (row, dst) in img.chunks_exact(w).zip(out.chunks_exact_mut(2 * rw)) {
            let (p0, p1) = dst.split_at_mut(rw);
            for ix in (0..w).step_by(8) {
                let src = row.as_ptr().add(ix);
                let v = if w - ix >= 8 {
                    // SAFETY: lanes `ix..ix + 8` lie inside `row`.
                    _mm256_loadu_ps(src)
                } else {
                    let mask = TAIL_MASK.as_ptr().add(8 - (w - ix));
                    // SAFETY: the mask window `8 - rem..16 - rem` lies
                    // inside TAIL_MASK, and `maskload` touches only the
                    // `rem = w - ix` selected lanes, all inside `row`.
                    _mm256_maskload_ps(src, _mm256_loadu_si256(mask as *const __m256i))
                };
                // Ordered compares: NaN sets no bit, i.e. code 0, as
                // `NaN.round().clamp(0, 3) as i32` gives.
                let x = _mm256_div_ps(v, scale);
                let g1 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(x, t1)) as u64;
                let g2 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(x, t2)) as u64;
                let g3 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(x, t3)) as u64;
                let (b0, b1) = (g1 ^ g2 ^ g3, g2);
                let (word, bit) = ((pad + ix) / 64, (pad + ix) % 64);
                p0[word] |= b0 << bit;
                p1[word] |= b1 << bit;
                if bit > 56 {
                    // The eight bits straddle a word; the guard word of
                    // `image_row_words` keeps `word + 1` in the row.
                    p0[word + 1] |= b0 >> (64 - bit);
                    p1[word + 1] |= b1 >> (64 - bit);
                }
            }
        }
    }
}
