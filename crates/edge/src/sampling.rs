//! Count samplers for segment-level draws.
//!
//! The engine draws one count per segment between events — frames
//! produced, frames thinned by a dropout, frames blocked by the buffer —
//! so the means range from a fraction of a frame to the 10¹⁰ of a
//! degenerate config. Both samplers are exact at every mean: a
//! sequential method whose cost grows with the mean below
//! [`SMALL_MEAN`], Hörmann's transformed rejection (PTRS for Poisson,
//! BTRS for binomial, ≈ 1.1 iterations of two uniforms each) above it.
//! Every edge case (`mean ≤ 0`, `n = 0`, `p ∉ (0, 1)`) returns without
//! touching the RNG, which is what keeps an empty fault plan from
//! drawing anything.

use rand::rngs::StdRng;
use rand::RngExt;

/// Below this mean the sequential samplers run.
const SMALL_MEAN: f64 = 10.0;

/// `ln k! − [(k + ½) ln(k + 1) − (k + 1) + ½ ln 2π]`: the tail of
/// Stirling's series, tabulated below 10 and summed above.
fn stirling_tail(k: f64) -> f64 {
    const TABLE: [f64; 10] = [
        0.081_061_466_795_327_26,
        0.041_340_695_955_409_29,
        0.027_677_925_684_998_34,
        0.020_790_672_103_765_09,
        0.016_644_691_189_821_19,
        0.013_876_128_823_070_75,
        0.011_896_709_945_891_77,
        0.010_411_265_261_972_09,
        0.009_255_462_182_712_733,
        0.008_330_563_433_362_87,
    ];
    if k < 10.0 {
        return TABLE[k as usize];
    }
    let r = 1.0 / (k + 1.0);
    let r2 = r * r;
    (1.0 / 12.0 - (1.0 / 360.0 - r2 / 1260.0) * r2) * r
}

fn ln_factorial(k: f64) -> f64 {
    const HALF_LN_2PI: f64 = 0.918_938_533_204_672_7;
    (k + 0.5) * (k + 1.0).ln() - (k + 1.0) + HALF_LN_2PI + stirling_tail(k)
}

/// A Poisson count of the given mean; 0 (and no draw) for a
/// non-positive or NaN mean.
pub(crate) fn poisson(mean: f64, rng: &mut StdRng) -> usize {
    if mean.is_nan() || mean <= 0.0 {
        return 0;
    }
    if mean < SMALL_MEAN {
        // Knuth: multiply uniforms until the product falls under e^-mean.
        let limit = (-mean).exp();
        let mut product: f64 = rng.random();
        let mut count = 0;
        while product > limit {
            count += 1;
            product *= rng.random::<f64>();
        }
        return count;
    }
    // PTRS (Hörmann 1993).
    let ln_mean = mean.ln();
    let b = 0.931 + 2.53 * mean.sqrt();
    let a = -0.059 + 0.024_83 * b;
    let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    loop {
        let u = rng.random::<f64>() - 0.5;
        let v: f64 = rng.random();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + mean + 0.43).floor();
        if us >= 0.07 && v <= v_r {
            return k as usize;
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        if (v * inv_alpha / (a / (us * us) + b)).ln() <= k * ln_mean - mean - ln_factorial(k) {
            return k as usize;
        }
    }
}

/// How many of `n` independent frames are hit at probability `p`
/// (binomial thinning); `p` clamps to `[0, 1]`, and `n = 0`, `p ≤ 0`,
/// `p ≥ 1` and a NaN `p` draw nothing.
pub(crate) fn binomial(n: usize, p: f64, rng: &mut StdRng) -> usize {
    if n == 0 || p.is_nan() || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - binomial(n, 1.0 - p, rng);
    }
    let nf = n as f64;
    let q = 1.0 - p;
    let ratio = p / q;
    if nf * p < SMALL_MEAN {
        // Inversion from 0 along the pmf recurrence; one uniform.
        let mut u: f64 = rng.random();
        let mut pmf = (nf * (-p).ln_1p()).exp();
        let mut k = 0usize;
        while u >= pmf && k < n {
            u -= pmf;
            k += 1;
            pmf *= ratio * (nf - k as f64 + 1.0) / k as f64;
        }
        return k;
    }
    // BTRS (Hörmann 1993).
    let stddev = (nf * p * q).sqrt();
    let b = 1.15 + 2.53 * stddev;
    let a = -0.0873 + 0.0248 * b + 0.01 * p;
    let c = nf * p + 0.5;
    let v_r = 0.92 - 4.2 / b;
    let alpha = (2.83 + 5.1 / b) * stddev;
    let m = ((nf + 1.0) * p).floor();
    loop {
        let u = rng.random::<f64>() - 0.5;
        let v: f64 = rng.random();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + c).floor();
        if k < 0.0 || k > nf {
            continue;
        }
        if us >= 0.07 && v <= v_r {
            return k as usize;
        }
        let bound = (m + 0.5) * ((m + 1.0) / (ratio * (nf - m + 1.0))).ln()
            + (nf + 1.0) * ((nf - m + 1.0) / (nf - k + 1.0)).ln()
            + (k + 0.5) * (ratio * (nf - k + 1.0) / (k + 1.0)).ln()
            + stirling_tail(m)
            + stirling_tail(nf - m)
            - stirling_tail(k)
            - stirling_tail(nf - k);
        if (v * alpha / (a / (us * us) + b)).ln() <= bound {
            return k as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapex_tensor::rng::rng_from_seed;

    /// Mean and variance of `draws` samples, each from its own seed.
    fn moments(draws: u64, mut sample: impl FnMut(&mut StdRng) -> usize) -> (f64, f64) {
        let xs: Vec<f64> = (0..draws)
            .map(|seed| sample(&mut rng_from_seed(seed)) as f64)
            .collect();
        let mean = xs.iter().sum::<f64>() / draws as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (draws - 1) as f64;
        (mean, var)
    }

    /// |mean − want| within 5 standard errors, variance within 15 %
    /// (the standard error of a variance over 4000 near-normal draws is
    /// ≈ 2.2 %).
    fn assert_moments(got: (f64, f64), mean: f64, var: f64, what: &str) {
        const DRAWS: f64 = 4000.0;
        let se = (var / DRAWS).sqrt();
        assert!((got.0 - mean).abs() <= 5.0 * se + 1e-12, "{what}: mean {} vs {mean}", got.0);
        assert!((got.1 - var).abs() <= 0.15 * var + 1e-12, "{what}: variance {} vs {var}", got.1);
    }

    #[test]
    fn ln_factorial_matches_the_running_sum() {
        let mut exact = 0.0f64;
        for k in 1..200u32 {
            exact += f64::from(k).ln();
            let got = ln_factorial(f64::from(k));
            assert!((got - exact).abs() < 1e-9 * exact.max(1.0), "k={k}: {got} vs {exact}");
        }
        assert!(ln_factorial(0.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_moments_hold_from_a_fraction_of_a_frame_to_billions() {
        for mean in [0.3, 6.0, 9.99, 10.0, 37.5, 3_000.0, 2.5e5, 2e10] {
            let got = moments(4000, |rng| poisson(mean, rng));
            assert_moments(got, mean, mean, &format!("poisson({mean})"));
        }
    }

    #[test]
    fn binomial_moments_hold_across_both_samplers_and_the_mirror() {
        for (n, p) in [
            (20usize, 0.3),
            (3_000, 0.002),
            (3_000, 0.016),
            (3_500, 0.2),
            (3_500, 0.85),
            (40_000, 0.5),
            (20_000_000_000, 0.999_999_9),
            (20_000_000_000, 0.37),
        ] {
            let nf = n as f64;
            let got = moments(4000, |rng| binomial(n, p, rng));
            assert_moments(got, nf * p, nf * p * (1.0 - p), &format!("binomial({n}, {p})"));
        }
    }

    #[test]
    fn binomial_never_exceeds_its_population() {
        let mut rng = rng_from_seed(3);
        for n in [1usize, 2, 7, 25, 400] {
            for p in [0.01, 0.4, 0.5, 0.9, 0.999] {
                for _ in 0..200 {
                    assert!(binomial(n, p, &mut rng) <= n);
                }
            }
        }
    }

    #[test]
    fn edge_cases_are_exact_and_draw_nothing() {
        let mut rng = rng_from_seed(9);
        let untouched = format!("{rng:?}");
        for mean in [0.0, -3.0, f64::NAN] {
            assert_eq!(poisson(mean, &mut rng), 0);
        }
        assert_eq!(binomial(0, 0.5, &mut rng), 0);
        for p in [0.0, -0.1, f64::NAN] {
            assert_eq!(binomial(1_000, p, &mut rng), 0);
        }
        for p in [1.0, 1.5] {
            assert_eq!(binomial(1_000, p, &mut rng), 1_000);
        }
        assert_eq!(format!("{rng:?}"), untouched, "an edge case consumed the stream");
    }
}
