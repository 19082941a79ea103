//! Max-pool on packed codes, for the pool a fused
//! [`super::threshold_pool_pack_int2`] cannot absorb: an exit head reads
//! the un-pooled map first. Plain word arithmetic — one body serves
//! every backend.

use super::layout::{image_row_words, resize_for_overwrite};

/// Max-pools a packed 2-bit image without leaving the code domain, for
/// the pool a fused [`super::threshold_pool_pack_int2`] cannot absorb (an exit
/// head reads the un-pooled map first). Codes are compared as
/// thermometers — `t1 = p0|p1` (code ≥ 1), `t2 = p1`, `t3 = p0&p1` — so
/// the maximum over a window is a bitwise OR: 64 columns per word down
/// the window's rows, then one masked test per pooled pixel across it.
/// `image` is a packed `c×h×w` image with `pad_in`; `out` receives the
/// `⌊h/pool⌋ × ⌊w/pool⌋` map packed with `pad_out`, every word written.
/// `rows_ws` is scratch.
///
/// # Panics
///
/// Panics when `image`/`out` do not match the shapes or `pool` is not in
/// `1..=64`.
#[allow(clippy::too_many_arguments)]
pub fn pool_image_int2(
    image: &[u64],
    c: usize,
    h: usize,
    w: usize,
    pad_in: usize,
    pool: usize,
    pad_out: usize,
    out: &mut [u64],
    rows_ws: &mut Vec<u64>,
) {
    assert!((1..=64).contains(&pool), "pool_image_int2: pool window must be in 1..=64");
    let (ph, pw) = (h / pool, w / pool);
    let (rw_in, rw_out) = (image_row_words(w, pad_in), image_row_words(pw, pad_out));
    assert_eq!(image.len(), c * h * 2 * rw_in, "pool_image_int2: packed image length mismatch");
    assert_eq!(out.len(), c * ph * 2 * rw_out, "pool_image_int2: packed output length mismatch");
    let win_mask = if pool == 64 { !0 } else { (1u64 << pool) - 1 };
    resize_for_overwrite(rows_ws, 3 * rw_in);
    let (t1, rest) = rows_ws.split_at_mut(rw_in);
    let (t2, t3) = rest.split_at_mut(rw_in);
    for (r, dst) in out.chunks_exact_mut(2 * rw_out).enumerate() {
        let top = (r / ph * h + r % ph * pool) * 2 * rw_in;
        for i in 0..rw_in {
            let (mut a1, mut a2, mut a3) = (0, 0, 0);
            for row in image[top..top + pool * 2 * rw_in].chunks_exact(2 * rw_in) {
                let (p0, p1) = (row[i], row[rw_in + i]);
                a1 |= p0 | p1;
                a2 |= p1;
                a3 |= p0 & p1;
            }
            (t1[i], t2[i], t3[i]) = (a1, a2, a3);
        }
        dst.fill(0);
        let (d0, d1) = dst.split_at_mut(rw_out);
        // 64 row bits starting at bit `at`; the guard word keeps the
        // funnel read in bounds.
        let bits_at = |t: &[u64], at: usize| {
            let (i, sh) = (at / 64, at % 64);
            (t[i] >> sh) | (t[i + 1] << 1 << (63 - sh))
        };
        if pool == 2 {
            // Word-parallel: OR each column into its left neighbour and
            // squeeze the even bits together, 32 pooled pixels a word.
            for px in (0..pw).step_by(32) {
                let live = if pw - px >= 32 { !0 >> 32 } else { (1u64 << (pw - px)) - 1 };
                let fold = |t: &[u64]| {
                    let x = bits_at(t, pad_in + 2 * px);
                    even_bits(x | x >> 1) & live
                };
                let (g1, g2, g3) = (fold(t1), fold(t2), fold(t3));
                let (word, bit) = ((pad_out + px) / 64, (pad_out + px) % 64);
                let (b0, b1) = (g1 ^ g2 ^ g3, g2);
                d0[word] |= b0 << bit;
                d1[word] |= b1 << bit;
                if bit > 32 {
                    // The guard word keeps `word + 1` inside the plane.
                    d0[word + 1] |= b0 >> (64 - bit);
                    d1[word + 1] |= b1 >> (64 - bit);
                }
            }
            continue;
        }
        for px in 0..pw {
            let any = |t: &[u64]| u64::from(bits_at(t, pad_in + px * pool) & win_mask != 0);
            let (g1, g2, g3) = (any(t1), any(t2), any(t3));
            let (word, bit) = ((pad_out + px) / 64, (pad_out + px) % 64);
            d0[word] |= (g1 ^ g2 ^ g3) << bit;
            d1[word] |= g2 << bit;
        }
    }
}

/// Bits 0, 2, 4, … of `x`, squeezed into the low 32 bits.
#[inline]
fn even_bits(mut x: u64) -> u64 {
    x &= 0x5555_5555_5555_5555;
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    (x | x >> 16) & 0x0000_0000_ffff_ffff
}
