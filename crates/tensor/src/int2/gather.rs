//! The window gather: every conv window's packed operand lifted straight
//! out of a once-packed image.
//!
//! The gather walks `(c, ky)` in depth order: the window's `k`-bit row
//! segment is shifted down to bit 0, masked, shifted up to its depth
//! slot `(c*k + ky)*k mod 64` and OR-ed into the one open operand word
//! per plane held in a register; a word is stored once, when the walk
//! leaves it, and the bits of a segment straddling the boundary open the
//! next word. Rows wider than one word keep the scalar two-word funnel
//! read on every backend. The gathered operand words are **equal** to
//! what `im2col → `[`super::act_codes_in_place`]` → `
//! [`super::pack_acts_cols_int2`] would produce — not merely
//! sum-equivalent — so [`super::conv_int2_direct`] feeds
//! [`super::gemm_int2`] the operands that composition would (the
//! identity suite keeps it as its oracle).
//!
//! * **AVX2**: four output pixels share a vector (`vpsrlvq` of the
//!   broadcast row word by `[ox·s … (ox+3)·s]`), eight share each
//!   broadcast, and finished words leave through the stack, one scalar
//!   store per lane.
//! * **AVX-512**: eight pixels per vector, sixteen per broadcast. One
//!   `vprolvq` by `slot − start` replaces the shift down and the shift
//!   up — the window lands on its depth slot — and one `vpternlogq`
//!   masks and merges. The walk runs word by word: which segments reach
//!   into an operand word, at which slot and under which mask, is the
//!   same for every output pixel, so it is listed once per call and the
//!   inner loop carries no spill state. A segment straddling two words
//!   is a step of both, cut by the mask in the first and entering at a
//!   negative slot in the second (its leading bits rotate out at the
//!   bottom and come back in above the mask). Finished words therefore
//!   sit in registers under static names: up to four per plane are
//!   transposed 8×8 in registers and leave as one masked vector store
//!   per pixel, the operand item itself when it has at most eight words.
//!   No lane ever goes through the stack, and a ragged row end is a
//!   shorter store loop, not a second pass.

use super::layout::{image_row_words, plane_words, resize_for_overwrite};
use super::Backend;
use crate::conv::ConvGeometry;

/// Largest kernel the direct path supports: a window's row segment must
/// come out of one two-word funnel read, so `k` must fit a word. CNV
/// kernels are 3.
pub const MAX_DIRECT_KERNEL: usize = 64;

/// Validated shape of one window gather, shared by the backend bodies.
struct GatherShape {
    c: usize,
    h: usize,
    oh: usize,
    ow: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// Words per packed image-row plane ([`image_row_words`]).
    rw: usize,
    /// Words per operand plane (`plane_words(c·k²)`).
    wpp: usize,
    /// Whether a padded row fits one word, so that a window segment is
    /// a single-word shift (no funnel read; the lane-parallel forms'
    /// precondition).
    one_word_rows: bool,
    seg_mask: u64,
}

impl GatherShape {
    /// Checks the geometry against the packed image and sizes `out` to
    /// the `oh·ow` operand items, every word of which the gather bodies
    /// then store exactly once.
    fn new(
        image: &[u64],
        c: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        out: &mut Vec<u64>,
    ) -> Self {
        let k = geom.kernel;
        assert!(
            (1..=MAX_DIRECT_KERNEL).contains(&k),
            "direct conv gather requires 1 <= kernel <= {MAX_DIRECT_KERNEL}, got {k}"
        );
        let shape = Self {
            c,
            h,
            oh: geom.output_dim(h).expect("window must fit"),
            ow: geom.output_dim(w).expect("window must fit"),
            kernel: k,
            stride: geom.stride,
            pad: geom.padding,
            rw: image_row_words(w, geom.padding),
            wpp: plane_words(c * k * k),
            one_word_rows: w + 2 * geom.padding <= 64,
            seg_mask: if k == 64 { !0 } else { (1u64 << k) - 1 },
        };
        assert_eq!(
            image.len(),
            c * h * 2 * shape.rw,
            "gather_conv_windows_int2: packed image length mismatch"
        );
        resize_for_overwrite(out, shape.oh * shape.ow * 2 * shape.wpp);
        shape
    }

    /// Offset of the packed plane-0 row feeding kernel row `ky` of
    /// output row `oy` in channel `ci` (plane 1 follows `rw` words
    /// later), or `None` in vertical padding.
    #[inline(always)]
    fn row_base(&self, ci: usize, oy: usize, ky: usize) -> Option<usize> {
        let iy = (oy * self.stride + ky).checked_sub(self.pad)?;
        (iy < self.h).then_some((ci * self.h + iy) * 2 * self.rw)
    }

    /// Assembles the operand item of output pixel `(oy, ox)` into
    /// `item` (`2·wpp` words): the depth walk in scalar form. `FUNNEL`
    /// selects the two-word read that rows wider than a word need; with
    /// one-word rows the window is a plain shift of the row word.
    #[inline(always)]
    fn gather_pixel<const FUNNEL: bool>(
        &self,
        image: &[u64],
        oy: usize,
        ox: usize,
        item: &mut [u64],
    ) {
        let (k, rw, wpp) = (self.kernel, self.rw, self.wpp);
        // The window row occupies bits [ox*s, ox*s + k) of the padded
        // image row.
        let (w0, sh) = (ox * self.stride / 64, ox * self.stride % 64);
        let segment = |row: &[u64]| {
            let bits = if FUNNEL {
                // Funnel shift across the word pair; `<< 1 <<` keeps
                // each shift < 64 when sh == 0 (the upper word then
                // contributes nothing).
                (row[w0] >> sh) | (row[w0 + 1] << 1 << (63 - sh))
            } else {
                row[0] >> sh
            };
            bits & self.seg_mask
        };
        let (mut a0, mut a1) = (0u64, 0u64);
        // `ds` is the bit of the open word the next segment starts at:
        // the depth `(ci*k + ky)*k` modulo 64, kept incrementally.
        let (mut word, mut ds) = (0, 0);
        for ci in 0..self.c {
            for ky in 0..k {
                let (seg0, seg1) = match self.row_base(ci, oy, ky) {
                    Some(base) => (segment(&image[base..]), segment(&image[base + rw..])),
                    None => (0, 0), // vertical padding: all-zero codes
                };
                a0 |= seg0 << ds;
                a1 |= seg1 << ds;
                ds += k;
                if ds >= 64 {
                    item[word] = a0;
                    item[wpp + word] = a1;
                    word += 1;
                    ds -= 64;
                    // Segment bits past the word boundary open the next
                    // word; `k - ds` is in 1..=64, so `>> 1 >>` keeps
                    // the shift in range.
                    a0 = seg0 >> 1 >> (k - ds - 1);
                    a1 = seg1 >> 1 >> (k - ds - 1);
                }
            }
        }
        if ds > 0 {
            item[word] = a0;
            item[wpp + word] = a1;
        }
    }

    /// The whole gather one pixel at a time: the portable body, and the
    /// vector bodies' route for shapes their lanes do not cover.
    #[inline(always)]
    fn gather_pixels(&self, image: &[u64], out: &mut [u64]) {
        for (p, item) in out.chunks_exact_mut(2 * self.wpp).enumerate() {
            let (oy, ox) = (p / self.ow, p % self.ow);
            if self.one_word_rows {
                self.gather_pixel::<false>(image, oy, ox, item);
            } else {
                self.gather_pixel::<true>(image, oy, ox, item);
            }
        }
    }
}

/// Builds the packed operand for every conv output pixel straight from
/// a [`super::pack_image_int2`] image — **bit-for-bit** what
/// `im2col_into` → [`super::act_codes_in_place`] →
/// [`super::pack_acts_cols_int2`] would produce, without materializing
/// any f32 column.
///
/// Each output pixel's operand is assembled in depth order: per
/// (channel, kernel-row) the window's `k`-bit row segment is shifted
/// out of the packed row into the open operand word at depth slot
/// `(c*k + ky)*k`, and a word is stored once, when the depth walk
/// leaves it. Kernel rows falling in vertical padding contribute zero
/// segments — the zeros im2col writes — and horizontal padding is
/// already zero bits in the packed rows. The AVX2 body builds four
/// pixels per vector, the AVX-512 body eight. Output layout (items =
/// `oh*ow` pixels of depth `c*k*k`, `[plane0 | plane1]`, zero tail
/// bits) is exactly [`super::pack_acts_cols_int2`]'s.
///
/// # Panics
///
/// Panics when `geom.kernel` exceeds [`MAX_DIRECT_KERNEL`], the window
/// doesn't fit the input, or `image` is not a packed `c×h×w` image.
pub fn gather_conv_windows_int2(
    image: &[u64],
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    out: &mut Vec<u64>,
) {
    dispatch!(avx512, gather_conv_windows_int2(image, c, h, w, geom, out))
}

/// The scalar window gather; [`super::portable`] re-exports it.
pub mod portable {
    use super::{ConvGeometry, GatherShape};

    /// Single-backend entry with the same contract as
    /// [`super::gather_conv_windows_int2`]: one output pixel at a time.
    pub fn gather_conv_windows_int2(
        image: &[u64],
        c: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        out: &mut Vec<u64>,
    ) {
        GatherShape::new(image, c, h, w, geom, out).gather_pixels(image, out);
    }
}

/// The AVX2 window gather; [`super::avx2`] re-exports it.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::{ConvGeometry, GatherShape};
    use std::arch::x86_64::*;

    /// Stores lane `l` of `a0[v]`/`a1[v]` as word `word` of plane 0/1
    /// of operand item `4·v + l` of `items`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline(always)]
    // Indexed on purpose: the iterator forms of the lane loop compile to
    // a 9 % slower gather (7.1 -> 7.8 us at 8x30x30).
    #[allow(clippy::needless_range_loop)]
    unsafe fn store_lanes<const V: usize>(
        items: &mut [u64],
        wpp: usize,
        word: usize,
        a0: [__m256i; V],
        a1: [__m256i; V],
    ) {
        for v in 0..V {
            let mut lanes = [[0u64; 4]; 2];
            // SAFETY: each destination is a 32-byte array.
            _mm256_storeu_si256(lanes[0].as_mut_ptr() as *mut __m256i, a0[v]);
            _mm256_storeu_si256(lanes[1].as_mut_ptr() as *mut __m256i, a1[v]);
            for l in 0..4 {
                let at = (4 * v + l) * 2 * wpp + word;
                items[at] = lanes[0][l];
                items[at + wpp] = lanes[1][l];
            }
        }
    }

    /// Gathers the operand items of the `4·V` output pixels
    /// `(oy, ox..ox + 4·V)`, one pixel per 64-bit lane: the depth walk
    /// of `GatherShape::gather_pixel` with the open operand words of
    /// all pixels in registers. The row word is broadcast and `vpsrlvq`
    /// shifts each lane's window down to bit 0.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `shape` must be `one_word_rows`, validated against
    /// `image` and `out`, with `ox + 4·V <= ow`.
    #[inline(always)]
    unsafe fn gather_lanes<const V: usize>(
        image: &[u64],
        shape: &GatherShape,
        oy: usize,
        ox: usize,
        out: &mut [u64],
    ) {
        let (k, s, rw, wpp) = (shape.kernel, shape.stride, shape.rw, shape.wpp);
        let zero = _mm256_setzero_si256();
        let mask = _mm256_set1_epi64x(shape.seg_mask as i64);
        let lane_step = _mm256_setr_epi64x(0, s as i64, 2 * s as i64, 3 * s as i64);
        // Window start bits: below 64 in every lane because the whole
        // padded row fits one word.
        let mut starts = [zero; V];
        for (v, st) in starts.iter_mut().enumerate() {
            *st = _mm256_add_epi64(_mm256_set1_epi64x(((ox + 4 * v) * s) as i64), lane_step);
        }
        let items = &mut out[(oy * shape.ow + ox) * 2 * wpp..][..4 * V * 2 * wpp];
        let (mut a0, mut a1) = ([zero; V], [zero; V]);
        let (mut word, mut ds) = (0, 0);
        for ci in 0..shape.c {
            for ky in 0..k {
                let (mut seg0, mut seg1) = ([zero; V], [zero; V]);
                if let Some(base) = shape.row_base(ci, oy, ky) {
                    // SAFETY: `row_base` returns `(ci*h + iy) * 2*rw` with
                    // `ci < c` and `iy < h`, and `GatherShape::new`
                    // asserted `image.len() == c*h * 2*rw`, so both plane
                    // words are in bounds. Unchecked because the checks
                    // cost a fifth of this kernel (8.9 -> 7.1 us on the
                    // 8x30x30 shape).
                    let r0 = _mm256_set1_epi64x(*image.get_unchecked(base) as i64);
                    let r1 = _mm256_set1_epi64x(*image.get_unchecked(base + rw) as i64);
                    for v in 0..V {
                        seg0[v] = _mm256_and_si256(_mm256_srlv_epi64(r0, starts[v]), mask);
                        seg1[v] = _mm256_and_si256(_mm256_srlv_epi64(r1, starts[v]), mask);
                    }
                }
                let slot = _mm_cvtsi64_si128(ds as i64);
                for v in 0..V {
                    a0[v] = _mm256_or_si256(a0[v], _mm256_sll_epi64(seg0[v], slot));
                    a1[v] = _mm256_or_si256(a1[v], _mm256_sll_epi64(seg1[v], slot));
                }
                ds += k;
                if ds >= 64 {
                    store_lanes(items, wpp, word, a0, a1);
                    word += 1;
                    ds -= 64;
                    // `k - ds` is in 1..=64; a count of 64 shifts
                    // everything out — the empty spill of a segment
                    // ending on the word boundary.
                    let spill = _mm_cvtsi64_si128((k - ds) as i64);
                    for v in 0..V {
                        a0[v] = _mm256_srl_epi64(seg0[v], spill);
                        a1[v] = _mm256_srl_epi64(seg1[v], spill);
                    }
                }
            }
        }
        if ds > 0 {
            store_lanes(items, wpp, word, a0, a1);
        }
    }

    /// Single-backend entry with the same contract as
    /// [`super::gather_conv_windows_int2`]: eight output pixels per
    /// pass (two vectors), then four; a ragged row end re-gathers the
    /// row's last four pixels (stores are whole words, so the overlap
    /// is harmless). Rows wider than one word, and outputs narrower
    /// than four pixels, take the scalar funnel form.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_conv_windows_int2(
        image: &[u64],
        c: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        out: &mut Vec<u64>,
    ) {
        let shape = GatherShape::new(image, c, h, w, geom, out);
        let ow = shape.ow;
        if !shape.one_word_rows || ow < 4 {
            return shape.gather_pixels(image, out);
        }
        for oy in 0..shape.oh {
            let mut ox = 0;
            while ox + 8 <= ow {
                gather_lanes::<2>(image, &shape, oy, ox, out);
                ox += 8;
            }
            while ox < ow {
                gather_lanes::<1>(image, &shape, oy, ox.min(ow - 4), out);
                ox += 4;
            }
        }
    }
}

/// The AVX-512 window gather; [`super::avx512`] re-exports it.
#[cfg(target_arch = "x86_64")]
pub mod avx512 {
    use super::super::layout::transpose8_epi64;
    use super::{ConvGeometry, GatherShape};
    use std::arch::x86_64::*;

    /// Most operand words per plane one transpose carries: `2 · 4` rows
    /// of an 8×8.
    const BLOCK_WORDS: usize = 4;

    /// Most segments reaching into one operand word: 64 one-bit ones, or
    /// `⌊62 / k⌋` whole ones between two straddlers.
    const WORD_STEPS: usize = 64;

    /// One row segment's part in one operand word. The same for every
    /// output pixel, so a block's steps are listed once per call and the
    /// walk itself is nothing but loads, rotates and merges.
    #[derive(Clone, Copy, Default)]
    struct Step {
        /// Offset of channel `ci`'s first packed row, `ci·h · 2·rw`.
        channel: usize,
        ky: usize,
        /// Bit of the word the segment starts at; negative when it
        /// began in the previous word.
        slot: i64,
        /// The segment's bits within the word.
        mask: u64,
    }

    /// The steps of up to [`BLOCK_WORDS`] consecutive operand words,
    /// `steps[i][..len[i]]` for word `i` of the block.
    struct BlockPlan {
        steps: [[Step; WORD_STEPS]; BLOCK_WORDS],
        len: [usize; BLOCK_WORDS],
    }

    impl BlockPlan {
        /// Lists the steps of words `t0..t0 + count`, continuing the
        /// depth walk from `at = (ci, ky, depth)` — the first segment
        /// reaching into word `t0` — and leaving it at the first one
        /// reaching into the word after the block. A segment straddling
        /// two words is a step of both: cut by the mask in the first,
        /// entering at a negative slot in the second.
        fn fill(
            &mut self,
            shape: &GatherShape,
            t0: usize,
            count: usize,
            at: &mut (usize, usize, usize),
        ) {
            let k = shape.kernel;
            let (mut ci, mut ky, mut depth) = *at;
            for (i, (steps, len)) in self.steps.iter_mut().zip(&mut self.len).enumerate().take(count) {
                let (word_lo, word_hi) = (64 * (t0 + i), 64 * (t0 + i) + 64);
                *len = 0;
                while ci < shape.c && depth < word_hi {
                    let slot = depth as i64 - word_lo as i64;
                    steps[*len] = Step {
                        channel: ci * shape.h * 2 * shape.rw,
                        ky,
                        slot,
                        mask: if slot >= 0 { shape.seg_mask << slot } else { shape.seg_mask >> -slot },
                    };
                    *len += 1;
                    if depth + k > word_hi {
                        break; // straddles: the next word starts with it too
                    }
                    depth += k;
                    ky += 1;
                    if ky == k {
                        (ci, ky) = (ci + 1, 0);
                    }
                }
            }
            *at = (ci, ky, depth);
        }
    }

    /// One plane word of the operand items of `8·V` output pixels of row
    /// `oy`, one pixel per 64-bit lane; `neg_start[v]` holds minus each
    /// lane's window start bit.
    ///
    /// A segment belongs at bit `slot` of the word. The row word is
    /// rotated left by that minus the lane's window start, so the window
    /// lands on its slot — negative for a segment that began in the
    /// previous word, whose leading bits then leave at the bottom and
    /// come back in at the top, outside the mask.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `shape` must be `one_word_rows` and validated
    /// against `image`, `steps` listed for it.
    #[inline(always)]
    unsafe fn gather_word<const V: usize>(
        image: &[u64],
        shape: &GatherShape,
        oy: usize,
        neg_start: &[__m512i; V],
        steps: &[Step],
    ) -> ([__m512i; V], [__m512i; V]) {
        let zero = _mm512_setzero_si512();
        let (mut a0, mut a1) = ([zero; V], [zero; V]);
        let top = oy * shape.stride;
        for st in steps {
            // Vertical padding wraps to a huge row: all-zero codes.
            let iy = (top + st.ky).wrapping_sub(shape.pad);
            if iy >= shape.h {
                continue;
            }
            let base = st.channel + iy * 2 * shape.rw;
            // SAFETY: `channel` is `ci*h * 2*rw` with `ci < c`, and
            // `iy < h`; `GatherShape::new` asserted `image.len() ==
            // c*h * 2*rw`, so both plane words are in bounds. Unchecked
            // for the reason the AVX2 body gives.
            let r0 = _mm512_set1_epi64(*image.get_unchecked(base) as i64);
            let r1 = _mm512_set1_epi64(*image.get_unchecked(base + shape.rw) as i64);
            let (slot, mask) = (_mm512_set1_epi64(st.slot), _mm512_set1_epi64(st.mask as i64));
            for v in 0..V {
                // `vprolvq` takes its count modulo 64.
                let by = _mm512_add_epi64(slot, neg_start[v]);
                // 0xF8: a | (b & c).
                a0[v] = _mm512_ternarylogic_epi64::<0xF8>(a0[v], _mm512_rolv_epi64(r0, by), mask);
                a1[v] = _mm512_ternarylogic_epi64::<0xF8>(a1[v], _mm512_rolv_epi64(r1, by), mask);
            }
        }
        (a0, a1)
    }

    /// Words `t0..t0 + count` of both planes of the operand items of
    /// output pixels `(oy, ox..ox + live)`, `live <= 8·V`, eight pixels
    /// per vector. `BW` is the operand's words per plane, capped at
    /// [`BLOCK_WORDS`]: that many finished words of each plane wait in
    /// registers, are transposed together and leave as vector stores,
    /// one pixel each.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F; `shape` must be `one_word_rows`, validated
    /// against `image` and `out`, with `BW == shape.wpp.min(BLOCK_WORDS)`,
    /// `ox + live <= ow` and `plan` filled for the block.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gather_lanes<const V: usize, const BW: usize>(
        image: &[u64],
        shape: &GatherShape,
        plan: &BlockPlan,
        (t0, count): (usize, usize),
        oy: usize,
        ox: usize,
        live: usize,
        out: &mut [u64],
    ) {
        let (s, wpp) = (shape.stride as i64, shape.wpp);
        let zero = _mm512_setzero_si512();
        let lane_step = _mm512_setr_epi64(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
        // Window start bits are below 64 in every live lane because the
        // whole padded row fits one word; dead lanes rotate garbage that
        // is never stored.
        let mut neg_start = [zero; V];
        for (v, st) in neg_start.iter_mut().enumerate() {
            let first = _mm512_set1_epi64((ox + 8 * v) as i64 * s);
            *st = _mm512_sub_epi64(zero, _mm512_add_epi64(first, lane_step));
        }
        // Rows `0..BW` of a transpose are plane 0, `BW..2·BW` plane 1.
        let mut done = [[zero; 8]; V];
        // Written out so that every `done` index is a constant and the
        // rows stay in registers.
        macro_rules! word {
            ($($slot:literal)*) => {$(
                if $slot < count {
                    let (a0, a1) = gather_word(image, shape, oy, &neg_start, &plan.steps[$slot][..plan.len[$slot]]);
                    for v in 0..V {
                        done[v][$slot] = a0[v];
                        done[v][BW + $slot] = a1[v];
                    }
                }
            )*};
        }
        word!(0 1 2 3);
        let words = (1u8 << count) - 1;
        let items = &mut out[(oy * shape.ow + ox) * 2 * wpp..][..live * 2 * wpp];
        // Indexed so that the loops unroll and the vectors stay in
        // registers; a ragged end's dead lanes are not stored.
        #[allow(clippy::needless_range_loop)]
        for v in 0..V {
            let pixels = transpose8_epi64(done[v]);
            for p in 0..8 {
                if 8 * v + p >= live {
                    break;
                }
                let item = items[(8 * v + p) * 2 * wpp..][..2 * wpp].as_mut_ptr() as *mut i64;
                // SAFETY: masked stores touch selected lanes only. With
                // `BW == wpp` the block is the whole item, plane 1
                // following plane 0 in the vector as in memory.
                // Otherwise lanes `0..count` are words `t0..` of plane 0
                // and lanes `BW..BW + count` the same words of plane 1,
                // all inside `item`; `wpp > BW` keeps the second base
                // inside it too.
                if BW == wpp {
                    _mm512_mask_storeu_epi64(item, words | words << BW, pixels[p]);
                } else {
                    _mm512_mask_storeu_epi64(item.add(t0), words, pixels[p]);
                    _mm512_mask_storeu_epi64(item.add(t0 + wpp - BW), words << BW, pixels[p]);
                }
            }
        }
    }

    /// The whole gather, block of words by block of words, every output
    /// row in passes of sixteen pixels and a last one of eight.
    ///
    /// # Safety
    ///
    /// As [`gather_lanes`].
    #[inline(always)]
    unsafe fn gather_blocks<const BW: usize>(image: &[u64], shape: &GatherShape, out: &mut [u64]) {
        let mut plan = BlockPlan {
            steps: [[Step::default(); WORD_STEPS]; BLOCK_WORDS],
            len: [0; BLOCK_WORDS],
        };
        let mut at = (0, 0, 0);
        for t0 in (0..shape.wpp).step_by(BW) {
            let block = (t0, BW.min(shape.wpp - t0));
            plan.fill(shape, t0, block.1, &mut at);
            for oy in 0..shape.oh {
                for ox in (0..shape.ow).step_by(16) {
                    let left = shape.ow - ox;
                    if left > 8 {
                        gather_lanes::<2, BW>(image, shape, &plan, block, oy, ox, left.min(16), out);
                    } else {
                        gather_lanes::<1, BW>(image, shape, &plan, block, oy, ox, left, out);
                    }
                }
            }
        }
    }

    /// Single-backend entry with the same contract as
    /// [`super::gather_conv_windows_int2`]: sixteen output pixels per
    /// pass (two vectors), eight for a row's last few, dead lanes of a
    /// ragged end simply not stored. Rows wider than one word, and a
    /// single output pixel, take the scalar form.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gather_conv_windows_int2(
        image: &[u64],
        c: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        out: &mut Vec<u64>,
    ) {
        let shape = GatherShape::new(image, c, h, w, geom, out);
        // A lone output pixel has nobody to share a step list or a
        // broadcast with: the scalar walk is a fifth faster there
        // (conv6 of the width-8 CNV, 0.40 vs 0.48 us).
        if !shape.one_word_rows || shape.oh * shape.ow == 1 {
            return shape.gather_pixels(image, out);
        }
        match shape.wpp {
            0 => {}
            1 => gather_blocks::<1>(image, &shape, out),
            2 => gather_blocks::<2>(image, &shape, out),
            3 => gather_blocks::<3>(image, &shape, out),
            _ => gather_blocks::<BLOCK_WORDS>(image, &shape, out),
        }
    }
}
