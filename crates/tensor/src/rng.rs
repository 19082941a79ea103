//! Deterministic random initialisation for weights and data.
//!
//! Every stochastic component of the reproduction threads an explicit
//! `u64` seed through [`rand::rngs::StdRng`], so experiments regenerate
//! bit-identically (see DESIGN.md §6). Gaussian samples come from a
//! Box–Muller transform to avoid an extra distribution dependency.

use crate::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Creates a seeded [`StdRng`].
pub fn rng_from_seed(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Odd multiplier used to spread entity ids across the seed space before
/// XOR-ing them into a base seed (the SplitMix64 "golden gamma",
/// `2^64 / φ` rounded to odd). Multiplying by an odd constant is a
/// bijection on `u64`, so distinct entities always land on distinct
/// stream seeds.
pub const STREAM_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Canonical per-entity stream-seed derivation.
///
/// Every independent random stream in the workspace is derived from a
/// `(base, entity, salt)` triple:
///
/// - `base` — the user-facing experiment seed,
/// - `entity` — which instance of the component this stream drives
///   (fault episode, fleet server, DES component id, ...),
/// - `salt` — a constant naming the *purpose* of the stream, so two
///   subsystems keyed by the same `(base, entity)` stay decorrelated.
///
/// The recipe is `base ^ entity·γ ^ salt` with the odd [`STREAM_GAMMA`]
/// multiplier. It is cheap, bijective in each argument, and — because
/// `0·γ = 0` — degrades gracefully to the plain `base ^ salt` XOR tags
/// used by single-stream callers. The resulting seed is expanded through
/// SplitMix64 by [`rng_from_seed`], which decorrelates even adjacent
/// derived seeds.
///
/// Two historical recipes are deliberately *not* expressible through this
/// helper and stay pinned by golden snapshots / fingerprint tests:
/// repetition seeds (see [`derive_sequential`]) and the library
/// generator's variant tags (`base ^ (id << 8)`).
pub fn derive_stream(base: u64, entity: u64, salt: u64) -> u64 {
    base ^ entity.wrapping_mul(STREAM_GAMMA) ^ salt
}

/// Per-repetition seed derivation for "run the same experiment `n` times"
/// loops: repetition `i` uses `base + i`.
///
/// This is the legacy recipe used by `EdgeSimulation::run_many`; its
/// output streams are pinned by golden fingerprints, so it is kept
/// verbatim rather than folded into [`derive_stream`]. Adjacent seeds are
/// safe with [`rng_from_seed`] because SplitMix64 expansion decorrelates
/// them.
pub fn derive_sequential(base: u64, index: u64) -> u64 {
    base.wrapping_add(index)
}

/// One standard-normal sample via the Box–Muller transform.
pub fn sample_standard_normal(rng: &mut impl Rng) -> f32 {
    loop {
        let u1: f32 = rng.random::<f32>();
        if u1 <= f32::EPSILON {
            continue; // avoid ln(0)
        }
        let u2: f32 = rng.random::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        return r * (2.0 * std::f32::consts::PI * u2).cos();
    }
}

/// Tensor of i.i.d. `N(mean, std^2)` samples.
pub fn normal_tensor(dims: &[usize], mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.as_mut_slice() {
        *v = mean + std * sample_standard_normal(rng);
    }
    t
}

/// Tensor of i.i.d. `U(low, high)` samples.
pub fn uniform_tensor(dims: &[usize], low: f32, high: f32, rng: &mut impl Rng) -> Tensor {
    let mut t = Tensor::zeros(dims);
    for v in t.as_mut_slice() {
        *v = rng.random_range(low..high);
    }
    t
}

/// Kaiming/He fan-in initialisation: `N(0, sqrt(2/fan_in)^2)`.
///
/// The standard choice for ReLU-family networks; AdaPEx's quantized
/// activations are ReLU-shaped so it applies here too.
pub fn kaiming_tensor(dims: &[usize], fan_in: usize, rng: &mut impl Rng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    normal_tensor(dims, 0.0, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeding_is_deterministic() {
        let a = normal_tensor(&[64], 0.0, 1.0, &mut rng_from_seed(7));
        let b = normal_tensor(&[64], 0.0, 1.0, &mut rng_from_seed(7));
        assert_eq!(a, b);
        let c = normal_tensor(&[64], 0.0, 1.0, &mut rng_from_seed(8));
        assert_ne!(a, c);
    }

    #[test]
    fn derive_stream_matches_legacy_fault_recipe() {
        // PR 5's fault stream seed was written out longhand; derive_stream
        // must reproduce it bit-for-bit or the fault goldens break.
        let (base, episode, salt) = (0xFA17_u64, 1213_u64, 0xFA17_AB1E_u64);
        let legacy = base ^ episode.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        assert_eq!(derive_stream(base, episode, salt), legacy);
    }

    #[test]
    fn derive_stream_degrades_to_xor_tag_for_entity_zero() {
        assert_eq!(derive_stream(42, 0, 0xE06E), 42 ^ 0xE06E);
        assert_eq!(derive_stream(7, 0, 0), 7);
    }

    #[test]
    fn derive_stream_is_injective_per_argument() {
        use std::collections::HashSet;
        let seeds: HashSet<u64> = (0..4096).map(|e| derive_stream(99, e, 0xF1EE7)).collect();
        assert_eq!(seeds.len(), 4096, "entity collision");
        let salts: HashSet<u64> = (0..4096).map(|s| derive_stream(99, 17, s)).collect();
        assert_eq!(salts.len(), 4096, "salt collision");
    }

    #[test]
    fn derived_streams_are_decorrelated() {
        // Adjacent entities must not produce visibly correlated draws once
        // expanded through SplitMix64.
        let mut a = rng_from_seed(derive_stream(5, 1, 0xABCD));
        let mut b = rng_from_seed(derive_stream(5, 2, 0xABCD));
        let matches = (0..256)
            .filter(|_| {
                use rand::RngExt;
                a.random::<u64>() == b.random::<u64>()
            })
            .count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn derive_sequential_matches_run_many_recipe() {
        assert_eq!(derive_sequential(100, 0), 100);
        assert_eq!(derive_sequential(100, 3), 103);
        assert_eq!(derive_sequential(u64::MAX, 1), 0, "wrapping add");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let t = normal_tensor(&[20_000], 1.5, 2.0, &mut rng_from_seed(42));
        let mean = t.mean();
        let var = t.map(|v| (v - mean) * (v - mean)).mean();
        assert!((mean - 1.5).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn uniform_stays_in_range() {
        let t = uniform_tensor(&[1000], -0.25, 0.25, &mut rng_from_seed(3));
        assert!(t.as_slice().iter().all(|&v| (-0.25..0.25).contains(&v)));
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let wide = kaiming_tensor(&[10_000], 8, &mut rng_from_seed(1));
        let narrow = kaiming_tensor(&[10_000], 512, &mut rng_from_seed(1));
        let var = |t: &Tensor| t.map(|v| v * v).mean();
        assert!(var(&wide) > var(&narrow) * 10.0);
    }
}
