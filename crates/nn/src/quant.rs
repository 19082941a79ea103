//! Fake quantization with straight-through estimators (STE).
//!
//! AdaPEx evaluates CNVW2A2 — 2-bit weights, 2-bit activations — trained
//! quantization-aware in Brevitas. This module reproduces the mechanism:
//! forward passes see quantized values, backward passes treat the
//! quantizer as (clipped) identity, so full-precision shadow weights keep
//! accumulating gradients.

use adapex_tensor::simd;
use serde::{Deserialize, Serialize};

/// Bit width and signedness of a quantizer.
///
/// ```
/// use adapex_nn::quant::QuantSpec;
///
/// let w2 = QuantSpec::signed(2);
/// assert_eq!(w2.levels(), 4);
/// assert_eq!(w2.q_min(), -2);
/// assert_eq!(w2.q_max(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantSpec {
    /// Bit width (1..=8 supported; the paper uses 2).
    pub bits: u32,
    /// Signed (weights) or unsigned (post-ReLU activations).
    pub signed: bool,
}

impl QuantSpec {
    /// Signed quantizer of `bits` bits (weights).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 8`.
    pub fn signed(bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "supported bit widths are 1..=8");
        QuantSpec { bits, signed: true }
    }

    /// Unsigned quantizer of `bits` bits (activations).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= bits <= 8`.
    pub fn unsigned(bits: u32) -> Self {
        assert!((1..=8).contains(&bits), "supported bit widths are 1..=8");
        QuantSpec {
            bits,
            signed: false,
        }
    }

    /// Number of representable levels, `2^bits`.
    pub fn levels(self) -> i32 {
        1 << self.bits
    }

    /// Smallest integer code (e.g. −2 for signed 2-bit, 0 for unsigned).
    pub fn q_min(self) -> i32 {
        if self.signed {
            -(1 << (self.bits - 1))
        } else {
            0
        }
    }

    /// Largest integer code (e.g. 1 for signed 2-bit, 3 for unsigned).
    pub fn q_max(self) -> i32 {
        if self.signed {
            (1 << (self.bits - 1)) - 1
        } else {
            (1 << self.bits) - 1
        }
    }

    /// `true` for the signed 2-bit weight quantizer that the bit-packed
    /// integer eval engine ([`adapex_tensor::int2`]) executes; matrix
    /// layers consult this (plus the input's activation-grid stamp) when
    /// routing their eval forward.
    pub fn is_int2_weight(self) -> bool {
        self.signed && self.bits == 2
    }
}

/// Symmetric per-tensor scale so that `max_abs` maps onto the largest
/// magnitude code.
///
/// Returns 1.0 for an all-zero tensor so quantization stays a no-op.
pub fn weight_scale(max_abs: f32, spec: QuantSpec) -> f32 {
    let denom = spec.q_min().unsigned_abs().max(spec.q_max() as u32) as f32;
    if max_abs <= f32::EPSILON || denom == 0.0 {
        1.0
    } else {
        max_abs / denom
    }
}

/// Fake-quantizes one value: `round(x / scale)` clamped to the code range,
/// then rescaled.
pub fn fake_quantize(x: f32, scale: f32, spec: QuantSpec) -> f32 {
    let q = (x / scale).round().clamp(spec.q_min() as f32, spec.q_max() as f32);
    q * scale
}

/// Quantizes full-precision weights into the forward-pass view:
/// returns `(quantized, scale)` where `scale` derives from the tensor's
/// max-abs (symmetric per-tensor quantization).
pub fn quantize_weights(weights: &[f32], spec: QuantSpec) -> (Vec<f32>, f32) {
    let max_abs = simd::fold_max_abs(0.0, weights);
    let scale = weight_scale(max_abs, spec);
    let q = weights
        .iter()
        .map(|&w| fake_quantize(w, scale, spec))
        .collect();
    (q, scale)
}

/// Per-output-channel symmetric quantization (Brevitas' default for CNV):
/// `weights` is `[rows, row_len]` flattened and every row gets its own
/// max-abs-derived scale, so one outlier filter cannot destroy the
/// resolution of the others.
///
/// Returns the quantized weights and one scale per row.
///
/// # Panics
///
/// Panics if `weights.len()` is not a multiple of `row_len`.
pub fn quantize_weights_per_row(
    weights: &[f32],
    row_len: usize,
    spec: QuantSpec,
) -> (Vec<f32>, Vec<f32>) {
    let mut q = Vec::new();
    let mut scales = Vec::new();
    quantize_weights_per_row_into(weights, row_len, spec, &mut q, &mut scales);
    (q, scales)
}

/// [`quantize_weights_per_row`] into caller-provided buffers so a cached
/// `(q, scales)` pair can be refreshed without reallocating. Both buffers
/// are cleared and refilled; prior contents are irrelevant.
///
/// # Panics
///
/// Panics if `weights.len()` is not a multiple of `row_len`.
pub fn quantize_weights_per_row_into(
    weights: &[f32],
    row_len: usize,
    spec: QuantSpec,
    q: &mut Vec<f32>,
    scales: &mut Vec<f32>,
) {
    assert!(row_len > 0, "row length must be positive");
    assert_eq!(weights.len() % row_len, 0, "weights must be whole rows");
    let rows = weights.len() / row_len;
    q.clear();
    q.resize(weights.len(), 0.0);
    scales.clear();
    scales.reserve(rows);
    for r in 0..rows {
        let row = &weights[r * row_len..(r + 1) * row_len];
        let max_abs = simd::fold_max_abs(0.0, row);
        let scale = weight_scale(max_abs, spec);
        let slot = &mut q[r * row_len..(r + 1) * row_len];
        slot.copy_from_slice(row);
        simd::fake_quant_slice(slot, scale, spec.q_min() as f32, spec.q_max() as f32);
        scales.push(scale);
    }
}

/// STE gradient mask for a clipped quantizer: 1 inside the representable
/// range, 0 outside (gradients must not keep pushing saturated weights).
pub fn ste_mask(x: f32, scale: f32, spec: QuantSpec) -> f32 {
    let lo = spec.q_min() as f32 * scale;
    let hi = spec.q_max() as f32 * scale;
    if x >= lo && x <= hi {
        1.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_ranges() {
        let w2 = QuantSpec::signed(2);
        assert_eq!((w2.q_min(), w2.q_max(), w2.levels()), (-2, 1, 4));
        let a2 = QuantSpec::unsigned(2);
        assert_eq!((a2.q_min(), a2.q_max(), a2.levels()), (0, 3, 4));
        let b1 = QuantSpec::signed(1);
        assert_eq!((b1.q_min(), b1.q_max()), (-1, 0));
    }

    #[test]
    #[should_panic(expected = "supported bit widths")]
    fn spec_rejects_zero_bits() {
        QuantSpec::signed(0);
    }

    #[test]
    fn quantized_values_live_on_grid() {
        let spec = QuantSpec::signed(2);
        let w: Vec<f32> = vec![-0.9, -0.4, -0.1, 0.0, 0.2, 0.45];
        let (q, scale) = quantize_weights(&w, spec);
        for v in &q {
            let code = v / scale;
            assert!((code - code.round()).abs() < 1e-5, "{v} not on grid");
            assert!((-2.0..=1.0).contains(&code));
        }
    }

    #[test]
    fn quantization_error_is_bounded_by_half_step() {
        let spec = QuantSpec::signed(2);
        let w: Vec<f32> = (-10..=10).map(|v| v as f32 / 10.0).collect();
        let (q, scale) = quantize_weights(&w, spec);
        for (orig, quant) in w.iter().zip(&q) {
            // Inside the representable range, error <= scale/2.
            if *orig <= spec.q_max() as f32 * scale && *orig >= spec.q_min() as f32 * scale {
                assert!((orig - quant).abs() <= scale / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn zero_tensor_is_fixed_point() {
        let (q, scale) = quantize_weights(&[0.0; 8], QuantSpec::signed(2));
        assert_eq!(scale, 1.0);
        assert!(q.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn ste_mask_zeroes_saturated_region() {
        let spec = QuantSpec::signed(2);
        let scale = 0.5; // range [-1.0, 0.5]
        assert_eq!(ste_mask(0.0, scale, spec), 1.0);
        assert_eq!(ste_mask(-1.0, scale, spec), 1.0);
        assert_eq!(ste_mask(0.6, scale, spec), 0.0);
        assert_eq!(ste_mask(-1.2, scale, spec), 0.0);
    }

    #[test]
    fn unsigned_quant_clamps_negatives_to_zero() {
        let spec = QuantSpec::unsigned(2);
        assert_eq!(fake_quantize(-3.0, 0.25, spec), 0.0);
        assert_eq!(fake_quantize(10.0, 0.25, spec), 0.75);
    }
}
