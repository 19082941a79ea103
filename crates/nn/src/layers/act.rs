use super::{ActQuant, Activation, BackwardCache};
use crate::quant::QuantSpec;
use adapex_tensor::simd;
use serde::{Deserialize, Serialize};

/// Quantized ReLU: clamp to `[0, clip]`, then snap onto the unsigned
/// quantization grid (A2 in CNVW2A2 means 2-bit activations, i.e. four
/// levels). Backward uses the straight-through estimator: gradient passes
/// where the pre-activation lies strictly inside the clipping window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantReLU {
    /// Activation quantizer (unsigned).
    pub spec: QuantSpec,
    /// Upper clipping bound (the learned `alpha` in PACT-style schemes;
    /// fixed here).
    pub clip: f32,
    /// Backward-pass cache (see [`BackwardCache`]); the mask is only
    /// built in training mode.
    #[serde(skip)]
    pub(super) cache: BackwardCache<ActCache>,
}

impl PartialEq for QuantReLU {
    fn eq(&self, other: &Self) -> bool {
        // Caches are derived state; equality is structural.
        self.spec == other.spec && self.clip == other.clip
    }
}

#[derive(Debug, Default)]
pub(super) struct ActCache {
    mask: Vec<f32>,
    n: usize,
    dims: Vec<usize>,
}

impl QuantReLU {
    /// New activation with the given quantizer and clip bound.
    ///
    /// # Panics
    ///
    /// Panics if `spec` is signed or `clip` is not positive.
    pub fn new(spec: QuantSpec, clip: f32) -> Self {
        assert!(!spec.signed, "activation quantizer must be unsigned");
        assert!(clip > 0.0, "clip bound must be positive");
        QuantReLU {
            spec,
            clip,
            cache: BackwardCache::default(),
        }
    }

    /// The paper's A2 activation: 2-bit unsigned with clip 2.0.
    pub fn a2() -> Self {
        QuantReLU::new(QuantSpec::unsigned(2), 2.0)
    }

    /// Grid step of the output: values lie on `{0, s, …, q_max·s}`.
    pub(crate) fn grid_scale(&self) -> f32 {
        self.clip / self.spec.q_max() as f32
    }

    /// The forward arithmetic on a slice: clip to `[0, clip]`, then snap
    /// onto the grid with the SIMD-dispatched quantizer (bit-identical
    /// to `fake_quantize` per element on every path). Shared by
    /// [`QuantReLU::forward`] and the serving executor's streamlined
    /// plan, which folds it into thresholds.
    pub(crate) fn quantize_into(&self, out: &mut [f32], src: &[f32]) {
        for (o, &v) in out.iter_mut().zip(src) {
            *o = v.clamp(0.0, self.clip);
        }
        simd::fake_quant_slice(out, self.grid_scale(), 0.0, self.spec.q_max() as f32);
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Activation, train: bool) -> Activation {
        let scale = self.grid_scale();
        // `quantize_into` writes every element.
        let mut out = Activation::for_overwrite(x.n, &x.dims);
        self.quantize_into(&mut out.data, &x.data);
        // Stamp the grid the output now lies on (in train mode too, so
        // train/eval forwards stay exactly equal); downstream quantized
        // matrix layers use it to recover exact integer codes in eval.
        out.quant = Some(ActQuant {
            scale,
            bits: self.spec.bits,
        });
        if train {
            // `range_mask_slice` writes every element: only the length
            // is adjusted.
            let cache = self.cache.fill();
            cache.mask.resize(x.data.len(), 0.0);
            simd::range_mask_slice(&mut cache.mask, &x.data, 0.0, self.clip);
            cache.n = x.n;
            cache.dims.clear();
            cache.dims.extend_from_slice(&x.dims);
        } else {
            // Eval skips building the STE mask; no backward will run.
            self.cache.invalidate();
        }
        out
    }

    /// Backward pass (STE): `dX = dY * mask`.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call, or on a
    /// gradient whose length is not the cached input's.
    pub fn backward(&mut self, grad_out: &Activation) -> Activation {
        self.cache.consume("activation");
        assert_eq!(grad_out.data.len(), self.cache.mask.len(), "activation grad length");
        // Every element is written below.
        let mut grad_in = Activation::for_overwrite(self.cache.n, &self.cache.dims);
        for ((dx, &g), &m) in grad_in
            .data
            .iter_mut()
            .zip(&grad_out.data)
            .zip(&self.cache.mask)
        {
            *dx = g * m;
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2_has_four_levels() {
        let mut act = QuantReLU::a2();
        let xs: Vec<f32> = (-10..30).map(|v| v as f32 / 10.0).collect();
        let x = Activation::new(xs, 1, vec![40]);
        let y = act.forward(&x, false);
        let mut levels: Vec<i32> = y.data.iter().map(|&v| (v * 10.0).round() as i32).collect();
        levels.sort_unstable();
        levels.dedup();
        // clip 2.0, q_max 3 -> grid {0, 2/3, 4/3, 2}
        assert_eq!(levels.len(), 4, "levels {levels:?}");
        assert_eq!(levels[0], 0);
        assert_eq!(*levels.last().unwrap(), 20);
    }

    #[test]
    fn negative_inputs_are_zeroed() {
        let mut act = QuantReLU::a2();
        let x = Activation::new(vec![-5.0, -0.1], 1, vec![2]);
        let y = act.forward(&x, false);
        assert_eq!(y.data, vec![0.0, 0.0]);
    }

    #[test]
    fn ste_passes_gradient_inside_window_only() {
        let mut act = QuantReLU::a2();
        let x = Activation::new(vec![-1.0, 0.5, 1.9, 2.5], 1, vec![4]);
        act.forward(&x, true);
        let g = Activation::new(vec![1.0; 4], 1, vec![4]);
        let dx = act.backward(&g);
        assert_eq!(dx.data, vec![0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn train_and_eval_forwards_agree() {
        let mut act = QuantReLU::a2();
        let x = Activation::new((-12..12).map(|v| v as f32 / 5.0).collect(), 1, vec![24]);
        let y_train = act.forward(&x, true);
        let y_eval = act.forward(&x, false);
        assert_eq!(y_train, y_eval);
    }

    #[test]
    #[should_panic(expected = "activation quantizer must be unsigned")]
    fn rejects_signed_spec() {
        QuantReLU::new(QuantSpec::signed(2), 1.0);
    }
}
