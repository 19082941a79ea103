//! Single-precision matrix multiply.
//!
//! Fully-connected layers, and convolutions after [`crate::conv::im2col`]
//! lowering, reduce to `C = A * B`. The kernel is a blocked `i-k-j` loop:
//! the inner loop is a SAXPY over a row of `B` (dispatched through
//! [`crate::simd`]: 16-lane AVX-512 or 8-lane AVX2 where available, a
//! bit-identical portable fallback otherwise), each loaded
//! `B` row feeds [`MR`] consecutive `C` rows (quartering `B` traffic versus
//! the classic one-row loop), and the reduction dimension is split into
//! [`KC`]-sized panels so the active slab of `B` stays cache-resident. The
//! first `k` step of a `C` row *writes* instead of accumulating, so `C` is
//! not zero-filled in a separate pass, and the conv bias epilogue is folded
//! into the final `k` step ([`gemm_bias`]) instead of a second sweep.
//!
//! Rows of `C` are distributed over scoped worker threads; the `_st`
//! variants run single-threaded for callers that already parallelize at a
//! coarser grain (e.g. the conv layer's per-image batch loop) and must not
//! spawn nested workers.
//!
//! Every element of `C` is accumulated in ascending-`k` order, matching the
//! textbook triple loop term by term, so results are bit-identical across
//! the plain/`_st`/bias variants and independent of the thread count — and,
//! because the SIMD layer forbids FMA contraction and keeps lane operations
//! exactly rounded, independent of the dispatch path as well.
//!
//! Those same two properties (no FMA, exact per-step rounding) make this
//! kernel an *exact integer* machine whenever its inputs are small-integer
//! code values: every partial sum stays below 2^24 and each add rounds to
//! itself. [`crate::int2::gemm_int2`] leans on that — the f32 GEMM over
//! 2-bit code values is the bit-identical route for conv layers too
//! narrow for the popcount engine to pay off.

use crate::parallel::parallel_for_chunks;
use crate::simd::gemm_panel;
use crate::workspace::{recycle_f32, take_f32_uninit};

/// Panel size along the reduction dimension; keeps a `KC x n` slab of `B`
/// resident in cache while the row blocks sweep it.
const KC: usize = 256;

/// Rows of `A` processed together: one `B` row load feeds `MR` C-row
/// SAXPYs.
const MR: usize = 4;

/// Column chunk for wide outputs: the row blocks sweep `NC` columns at a
/// time so the active `KC x NC` sub-slab of `B` (32 KiB) stays L1-resident
/// across all row blocks instead of re-streaming from L2 per block.
/// Columns are independent, so chunking them never changes a result bit.
const NC: usize = 32;

/// The shared work-splitting heuristic: give each worker at least
/// `min_rows` rows so a thread handles ≳64k multiply-adds before the
/// spawn overhead pays for itself.
fn min_rows_per_worker(k: usize, n: usize) -> usize {
    (65_536 / (k * n).max(1)).max(1)
}

/// How a row of `C` is initialised and finished.
#[derive(Clone, Copy)]
enum Epilogue<'a> {
    /// `C = A * B`: the first `k` step writes, later steps accumulate.
    Store,
    /// `C = A * B + bias[i]` broadcast along each row `i` (the conv bias
    /// epilogue, folded into the final `k` step).
    Bias(&'a [f32]),
}

/// Computes `rows` rows of `C` (global rows `r0..r0+rows` of the output)
/// into `c_chunk`, whose row 0 corresponds to global row `r0`.
#[allow(clippy::too_many_arguments)]
fn gemm_rows<const TRANS: bool>(
    lda: usize,
    k: usize,
    n: usize,
    a: &[f32],
    r0: usize,
    rows: usize,
    b: &[f32],
    c_chunk: &mut [f32],
    ep: Epilogue,
) {
    if rows == 0 || n == 0 {
        return;
    }
    let bias = match ep {
        Epilogue::Store => None,
        Epilogue::Bias(bs) => Some(bs),
    };
    let mut k0 = 0;
    while k0 < k {
        let k1 = (k0 + KC).min(k);
        let panel_init = k0 == 0;
        let panel_bias = if k1 == k { bias } else { None };
        let mut j0 = 0;
        while j0 < n {
            // Only chunk genuinely wide outputs; narrow ones take the
            // whole width in one pass.
            let j1 = if n >= 2 * NC { (j0 + NC).min(n) } else { n };
            let mut r = 0;
            while r < rows {
                let rr = (rows - r).min(MR);
                let block = &mut c_chunk[r * n..(r + rr) * n];
                // Backend dispatch happens per block-panel call, amortizing
                // the (relaxed atomic) backend lookup over the whole sweep.
                gemm_panel::<TRANS>(
                    block, n, rr, a, lda, r0 + r, b, k0, k1, j0, j1, panel_init, panel_bias,
                );
                r += rr;
            }
            j0 = j1;
        }
        k0 = k1;
    }
}

fn check_ab(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &[f32]) {
    assert_eq!(a.len(), m * k, "A length");
    assert_eq!(b.len(), k * n, "B length");
    assert_eq!(c.len(), m * n, "C length");
}

fn gemm_parallel(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], ep: Epilogue) {
    if m == 0 || n == 0 {
        return;
    }
    parallel_for_chunks(m, n, c, min_rows_per_worker(k, n), |rows, c_chunk| {
        gemm_rows::<false>(k, k, n, a, rows.start, rows.len(), b, c_chunk, ep);
    });
}

/// `C = A * B` for row-major `A: [m, k]`, `B: [k, n]`, `C: [m, n]`.
///
/// `c` is fully overwritten.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_ab(m, k, n, a, b, c);
    if k == 0 {
        c.fill(0.0);
        return;
    }
    gemm_parallel(m, k, n, a, b, c, Epilogue::Store);
}

/// Single-threaded [`gemm`] for callers inside an outer parallel region.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_st(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    check_ab(m, k, n, a, b, c);
    if k == 0 {
        c.fill(0.0);
        return;
    }
    gemm_rows::<false>(k, k, n, a, 0, m, b, c, Epilogue::Store);
}

/// `C = A * B + bias[i]` per row `i`: [`gemm`] with the bias addition
/// folded into the final `k` step instead of a second pass over `C`.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_bias(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], bias: &[f32], c: &mut [f32]) {
    check_ab(m, k, n, a, b, c);
    assert_eq!(bias.len(), m, "bias length");
    if k == 0 {
        for (i, row) in c.chunks_mut(n).enumerate() {
            row.fill(bias[i]);
        }
        return;
    }
    gemm_parallel(m, k, n, a, b, c, Epilogue::Bias(bias));
}

/// Single-threaded [`gemm_bias`].
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_bias_st(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    bias: &[f32],
    c: &mut [f32],
) {
    check_ab(m, k, n, a, b, c);
    assert_eq!(bias.len(), m, "bias length");
    if k == 0 {
        for (i, row) in c.chunks_mut(n).enumerate() {
            row.fill(bias[i]);
        }
        return;
    }
    gemm_rows::<false>(k, k, n, a, 0, m, b, c, Epilogue::Bias(bias));
}

/// `C = A^T * B` for row-major `A: [k, m]`, `B: [k, n]`, `C: [m, n]`.
///
/// Used by the backward passes (`dW = X^T * dY`) without materializing the
/// transpose: the `TRANS` kernel reads the `MR` per-row scalars of one `k`
/// step contiguously at `a[kk*m + r0]`.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_at_b(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "A length");
    assert_eq!(b.len(), k * n, "B length");
    assert_eq!(c.len(), m * n, "C length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    parallel_for_chunks(m, n, c, min_rows_per_worker(k, n), |rows, c_chunk| {
        gemm_rows::<true>(m, k, n, a, rows.start, rows.len(), b, c_chunk, Epilogue::Store);
    });
}

/// Single-threaded [`gemm_at_b`].
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_at_b_st(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), k * m, "A length");
    assert_eq!(b.len(), k * n, "B length");
    assert_eq!(c.len(), m * n, "C length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    gemm_rows::<true>(m, k, n, a, 0, m, b, c, Epilogue::Store);
}

/// Row count at or above which [`gemm_a_bt`] repacks `B^T` into row-major
/// `B` (a `k*n` copy) to run the vectorized SAXPY kernel; below it the
/// repack would rival the multiply itself and plain dot products win.
const BT_PACK_MIN_ROWS: usize = 4;

/// `C = A * B^T` for row-major `A: [m, k]`, `B: [n, k]`, `C: [m, n]`.
///
/// Used by backward passes (`dX = dY * W` when `W` is stored `[n, k]`).
/// For `m >= BT_PACK_MIN_ROWS` the kernel transposes `B` into a pooled
/// scratch buffer once and reuses the SAXPY kernel; both paths accumulate
/// each element in ascending-`k` order, so they agree bit for bit.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_a_bt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A length");
    assert_eq!(b.len(), n * k, "B length");
    assert_eq!(c.len(), m * n, "C length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    if m >= BT_PACK_MIN_ROWS {
        let bt = pack_bt(k, n, b);
        parallel_for_chunks(m, n, c, min_rows_per_worker(k, n), |rows, c_chunk| {
            gemm_rows::<false>(k, k, n, a, rows.start, rows.len(), &bt, c_chunk, Epilogue::Store);
        });
        recycle_f32(bt);
        return;
    }
    parallel_for_chunks(m, n, c, min_rows_per_worker(k, n), |rows, c_chunk| {
        a_bt_rows(k, n, a, rows.start, rows.len(), b, c_chunk);
    });
}

/// Single-threaded [`gemm_a_bt`].
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_a_bt_st(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A length");
    assert_eq!(b.len(), n * k, "B length");
    assert_eq!(c.len(), m * n, "C length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    if m >= BT_PACK_MIN_ROWS {
        let bt = pack_bt(k, n, b);
        gemm_rows::<false>(k, k, n, a, 0, m, &bt, c, Epilogue::Store);
        recycle_f32(bt);
        return;
    }
    a_bt_rows(k, n, a, 0, m, b, c);
}

/// Repacks `B: [n, k]` as row-major `B^T: [k, n]` into a pooled buffer.
fn pack_bt(k: usize, n: usize, b: &[f32]) -> Vec<f32> {
    let mut bt = take_f32_uninit(k * n);
    for (j, b_row) in b.chunks_exact(k).enumerate() {
        for (kk, &bv) in b_row.iter().enumerate() {
            bt[kk * n + j] = bv;
        }
    }
    bt
}

/// Dot-product rows for the `A * B^T` layout: both operands are walked
/// contiguously in `k`; blocking over `MR` rows of `A` reuses each `B` row
/// across the block. Deliberately scalar: a vectorized dot product would
/// reassociate the `k` sum and break the documented bit-agreement with
/// the packed-SAXPY path, and this path only runs for `m < 4` where the
/// repack dominates anyway.
fn a_bt_rows(k: usize, n: usize, a: &[f32], r0: usize, rows: usize, b: &[f32], c: &mut [f32]) {
    let mut r = 0;
    while r < rows {
        let rr = (rows - r).min(MR);
        macro_rules! run {
            ($rr:literal) => {{
                for j in 0..n {
                    let b_row = &b[j * k..(j + 1) * k];
                    let mut acc = [0.0f32; $rr];
                    for kk in 0..k {
                        let bv = b_row[kk];
                        for (rl, slot) in acc.iter_mut().enumerate() {
                            *slot += a[(r0 + r + rl) * k + kk] * bv;
                        }
                    }
                    for (rl, &v) in acc.iter().enumerate() {
                        c[(r + rl) * n + j] = v;
                    }
                }
            }};
        }
        match rr {
            4 => run!(4),
            3 => run!(3),
            2 => run!(2),
            _ => run!(1),
        }
        r += rr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Small LCG keeps the test free of RNG dependencies.
        let mut s = seed as u64 | 1;
        (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as i32 % 1000) as f32 / 500.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn gemm_matches_naive() {
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (17, 33, 9), (64, 128, 32), (5, 9, 16), (4, 7, 35), (9, 300, 11)] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut c = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c);
            let want = naive(m, k, n, &a, &b);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-3, "{x} vs {y} at ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn st_variant_is_bit_identical_to_parallel() {
        for &(m, k, n) in &[(7, 13, 19), (16, 32, 48), (1, 5, 17)] {
            let a = fill(m * k, 7);
            let b = fill(k * n, 8);
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            gemm(m, k, n, &a, &b, &mut c1);
            gemm_st(m, k, n, &a, &b, &mut c2);
            assert_eq!(c1, c2, "({m},{k},{n})");
        }
    }

    #[test]
    fn bias_variant_folds_the_epilogue() {
        let (m, k, n) = (6, 11, 21);
        let a = fill(m * k, 9);
        let b = fill(k * n, 10);
        let bias = fill(m, 11);
        let mut plain = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut plain);
        for (i, row) in plain.chunks_mut(n).enumerate() {
            for v in row {
                *v += bias[i];
            }
        }
        let mut fused = vec![0.0; m * n];
        gemm_bias(m, k, n, &a, &b, &bias, &mut fused);
        assert_eq!(plain, fused);
        let mut fused_st = vec![0.0; m * n];
        gemm_bias_st(m, k, n, &a, &b, &bias, &mut fused_st);
        assert_eq!(plain, fused_st);
    }

    #[test]
    fn bias_folds_across_panel_boundaries() {
        // k > KC exercises the multi-panel path: only the last panel may
        // apply the bias, and only the very first k step may overwrite C.
        let (m, k, n) = (5, KC + 37, 9);
        let a = fill(m * k, 12);
        let b = fill(k * n, 13);
        let bias = fill(m, 14);
        let mut plain = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut plain);
        for (i, row) in plain.chunks_mut(n).enumerate() {
            for v in row {
                *v += bias[i];
            }
        }
        let mut fused = vec![0.0; m * n];
        gemm_bias(m, k, n, &a, &b, &bias, &mut fused);
        assert_eq!(plain, fused);
    }

    #[test]
    fn gemm_at_b_matches_naive_on_transpose() {
        for &(m, k, n) in &[(6, 11, 4), (9, 5, 33), (4, 3, 16)] {
            let a_t = fill(k * m, 3); // stored [k, m]
            let b = fill(k * n, 4);
            // Materialize A = A_t^T for the reference.
            let mut a = vec![0.0; m * k];
            for kk in 0..k {
                for i in 0..m {
                    a[i * k + kk] = a_t[kk * m + i];
                }
            }
            let mut c = vec![0.0; m * n];
            gemm_at_b(m, k, n, &a_t, &b, &mut c);
            let mut c_st = vec![0.0; m * n];
            gemm_at_b_st(m, k, n, &a_t, &b, &mut c_st);
            assert_eq!(c, c_st);
            let want = naive(m, k, n, &a, &b);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn gemm_a_bt_matches_naive_on_transpose() {
        // Spans both sides of BT_PACK_MIN_ROWS so the packed-SAXPY and
        // direct dot-product paths are each exercised and must agree.
        for &(m, k, n) in &[(5, 9, 7), (13, 6, 18), (3, 21, 5), (2, 300, 4)] {
            let a = fill(m * k, 5);
            let b_t = fill(n * k, 6); // stored [n, k]
            let mut b = vec![0.0; k * n];
            for j in 0..n {
                for kk in 0..k {
                    b[kk * n + j] = b_t[j * k + kk];
                }
            }
            let mut c = vec![0.0; m * n];
            gemm_a_bt(m, k, n, &a, &b_t, &mut c);
            let mut c_st = vec![0.0; m * n];
            gemm_a_bt_st(m, k, n, &a, &b_t, &mut c_st);
            assert_eq!(c, c_st);
            let want = naive(m, k, n, &a, &b);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn degenerate_dims_are_fine() {
        let mut c = vec![];
        gemm(0, 3, 0, &[], &[], &mut c);
        let mut c = vec![5.0; 4];
        gemm(2, 0, 2, &[], &[], &mut c);
        assert_eq!(c, vec![0.0; 4]);
        let mut c = vec![5.0; 4];
        gemm_bias(2, 0, 2, &[], &[], &[1.0, 2.0], &mut c);
        assert_eq!(c, vec![1.0, 1.0, 2.0, 2.0]);
    }
}
