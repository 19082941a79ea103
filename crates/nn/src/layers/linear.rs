use super::{Activation, BackwardCache, Derived, Param};
use crate::quant::{self, QuantSpec};
use adapex_tensor::gemm::{gemm, gemm_a_bt, gemm_at_b};
use adapex_tensor::int2::{self, OutMajor};
use adapex_tensor::rng::kaiming_tensor;
use adapex_tensor::workspace::with_workspace;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Fully-connected layer with fake-quantized weights.
///
/// Weight layout is `[out_features, in_features]`; on the FPGA this maps
/// directly onto one MVTU (paper Sec. II). The quantized weight view is
/// cached against the weight [`Param`] version, so repeated eval batches
/// (e.g. threshold sweeps) quantize once.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantLinear {
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
    /// Full-precision weights, `[out_features, in_features]`.
    pub weight: Param,
    /// Bias, `[out_features]`.
    pub bias: Param,
    /// Weight quantizer.
    pub weight_spec: QuantSpec,
    /// Backward-pass cache (see [`BackwardCache`]).
    #[serde(skip)]
    pub(super) cache: BackwardCache<LinearCache>,
    /// Quantized-weight view, keyed by the weight [`Param`] version.
    #[serde(skip)]
    qcache: Derived<Option<QCache>>,
}

impl PartialEq for QuantLinear {
    fn eq(&self, other: &Self) -> bool {
        // Caches are derived state; equality is structural.
        self.in_features == other.in_features
            && self.out_features == other.out_features
            && self.weight == other.weight
            && self.bias == other.bias
            && self.weight_spec == other.weight_spec
    }
}

#[derive(Debug, Default)]
pub(super) struct LinearCache {
    input: Vec<f32>,
    n: usize,
    qweight: Vec<f32>,
    scales: Vec<f32>,
}

/// Quantized view of the weight tensor at one [`Param`] version.
#[derive(Debug, Default)]
struct QCache {
    version: u64,
    qweight: Vec<f32>,
    scales: Vec<f32>,
    /// Bit-plane packed integer weight codes (`qweight / scale`, each
    /// in `{-2..1}`) for the popcount engine.
    planes: Vec<u64>,
    /// Weight version `planes` was derived at (`None` until the first
    /// int2 forward, so f32-only layers never pay for it).
    int2_version: Option<u64>,
}

impl QuantLinear {
    /// New layer with Kaiming-initialised weights.
    pub fn new(
        in_features: usize,
        out_features: usize,
        weight_spec: QuantSpec,
        rng: &mut StdRng,
    ) -> Self {
        let weight = kaiming_tensor(&[out_features, in_features], in_features, rng).into_vec();
        QuantLinear {
            in_features,
            out_features,
            weight: Param::new(weight),
            bias: Param::new(vec![0.0; out_features]),
            weight_spec,
            cache: BackwardCache::default(),
            qcache: Derived::default(),
        }
    }

    /// Refreshes the quantized-weight view if the weight param changed
    /// since it was last derived.
    fn ensure_qweights(&mut self) {
        let version = self.weight.version();
        if self.qcache.as_ref().is_some_and(|qc| qc.version == version) {
            return;
        }
        let mut qc = self.qcache.take().unwrap_or_default();
        quant::quantize_weights_per_row_into(
            &self.weight.value,
            self.in_features,
            self.weight_spec,
            &mut qc.qweight,
            &mut qc.scales,
        );
        qc.version = version;
        *self.qcache = Some(qc);
    }

    /// Extends the quantized-weight view with the int2 engine's packed
    /// bit planes (the integer codes they are built from live only in
    /// pooled scratch).
    fn ensure_int2(&mut self) {
        self.ensure_qweights();
        let version = self.weight.version();
        let (m, k) = (self.out_features, self.in_features);
        let qc = self.qcache.as_mut().expect("qcache just ensured");
        if qc.int2_version == Some(version) {
            return;
        }
        with_workspace(|ws| {
            int2::weight_codes_into(&qc.qweight, &qc.scales, k, &mut ws.scratch);
            int2::pack_weights_int2(&ws.scratch, m, k, &mut qc.planes);
        });
        qc.int2_version = Some(version);
    }

    /// The activation grid step when this forward can take the
    /// code-domain int2 path: signed 2-bit weights and an input stamped
    /// as 2-bit quantized (train and eval — QuantReLU stamps both).
    fn int2_act_scale(&self, x: &Activation) -> Option<f32> {
        if !self.weight_spec.is_int2_weight() {
            return None;
        }
        let q = x.quant?;
        (q.bits == 2 && q.scale > 0.0).then_some(q.scale)
    }

    /// Code-domain forward (layer ↦ MVTU): exact integer dot products
    /// over the 2-bit codes on the popcount engine, then its fused
    /// requantize+bias epilogue — integer arithmetic, so bit-identical
    /// across backends. Shared by eval and (via
    /// [`QuantLinear::forward`]) training forwards of stamped inputs;
    /// the caller owns the backward-cache bookkeeping.
    fn forward_int2(&mut self, x: &Activation, ascale: f32) -> Activation {
        self.ensure_int2();
        let qc = self.qcache.as_ref().expect("qcache just ensured");
        let (m, k, n) = (self.out_features, self.in_features, x.n);
        let mut out = Activation::zeros(n, &[m]);
        with_workspace(|ws| {
            // Combined per-row requantize scale: cs = wscale * ascale.
            ws.scratch2.clear();
            ws.scratch2.extend(qc.scales.iter().map(|&s| s * ascale));
            // Exact integer activation codes.
            ws.scratch.clear();
            ws.scratch.extend_from_slice(&x.data);
            int2::act_codes_in_place(&mut ws.scratch, ascale);
            int2::pack_acts_int2(&ws.scratch, n, k, &mut ws.bits);
            int2::gemm_int2(
                m,
                k,
                n,
                &qc.planes,
                &ws.bits,
                &ws.scratch2,
                &self.bias.value,
                &mut out.data,
                OutMajor::Col,
            );
        });
        out
    }

    /// Snapshots everything the STE backward needs (input values,
    /// fake-quant weights, per-row scales) after a training forward.
    fn cache_for_backward(&mut self, x: &Activation) {
        let qc = self.qcache.as_ref().expect("qcache ensured by forward");
        let cache = self.cache.fill();
        cache.input.clear();
        cache.input.extend_from_slice(&x.data);
        cache.n = x.n;
        cache.qweight.clear();
        cache.qweight.extend_from_slice(&qc.qweight);
        cache.scales.clear();
        cache.scales.extend_from_slice(&qc.scales);
    }

    /// Forward pass: `y = x W^T + b`.
    ///
    /// Training forwards over stamped 2-bit inputs take the same
    /// code-domain route as eval (train/eval forward values are
    /// bit-identical); only the backward differs — STE over the cached
    /// fake-quant weights, untouched by the routing.
    ///
    /// # Panics
    ///
    /// Panics when the input feature count differs from `in_features`.
    pub fn forward(&mut self, x: &Activation, train: bool) -> Activation {
        assert_eq!(
            x.sample_len(),
            self.in_features,
            "linear input features (got {:?})",
            x.dims
        );
        if let Some(ascale) = self.int2_act_scale(x) {
            let out = self.forward_int2(x, ascale);
            if train {
                self.cache_for_backward(x);
            } else {
                self.cache.invalidate();
            }
            return out;
        }
        self.ensure_qweights();
        let qc = self.qcache.as_ref().expect("qcache just ensured");
        let mut out = Activation::zeros(x.n, &[self.out_features]);
        gemm_a_bt(
            x.n,
            self.in_features,
            self.out_features,
            &x.data,
            &qc.qweight,
            &mut out.data,
        );
        for row in out.data.chunks_mut(self.out_features) {
            for (v, &b) in row.iter_mut().zip(&self.bias.value) {
                *v += b;
            }
        }
        if train {
            self.cache_for_backward(x);
        } else {
            self.cache.invalidate();
        }
        out
    }

    /// Backward pass; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    pub fn backward(&mut self, grad_out: &Activation) -> Activation {
        self.cache.consume("linear");
        let n = self.cache.n;
        assert_eq!(grad_out.n, n, "grad batch size");
        assert_eq!(grad_out.sample_len(), self.out_features, "grad features");

        // dX = dY * W  (W stored [out, in])
        let mut grad_in = Activation::zeros(n, &[self.in_features]);
        gemm(
            n,
            self.out_features,
            self.in_features,
            &grad_out.data,
            &self.cache.qweight,
            &mut grad_in.data,
        );
        // dW = dY^T * X, accumulated through pooled scratch.
        with_workspace(|ws| {
            ws.dw.clear();
            ws.dw.resize(self.out_features * self.in_features, 0.0);
            gemm_at_b(
                self.out_features,
                n,
                self.in_features,
                &grad_out.data,
                &self.cache.input,
                &mut ws.dw,
            );
            let spec = self.weight_spec;
            for (i, (slot, (&g, &w0))) in self
                .weight
                .grad
                .iter_mut()
                .zip(ws.dw.iter().zip(&self.weight.value))
                .enumerate()
            {
                *slot += g * quant::ste_mask(w0, self.cache.scales[i / self.in_features], spec);
            }
        });
        // db = column sums of dY
        for row in grad_out.data.chunks(self.out_features) {
            for (slot, &g) in self.bias.grad.iter_mut().zip(row) {
                *slot += g;
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapex_tensor::rng::rng_from_seed;

    #[test]
    fn forward_computes_affine_map() {
        let mut lin = QuantLinear::new(2, 2, QuantSpec::signed(8), &mut rng_from_seed(1));
        lin.weight.value = vec![1.0, 0.0, 0.0, -1.0];
        lin.bias.value = vec![0.5, 0.0];
        let x = Activation::new(vec![2.0, 3.0], 1, vec![2]);
        let y = lin.forward(&x, false);
        // 8-bit quantization of {1, 0, -1} with scale 1/127 is near exact.
        assert!((y.data[0] - 2.5).abs() < 0.05, "{:?}", y.data);
        assert!((y.data[1] + 3.0).abs() < 0.05, "{:?}", y.data);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut lin = QuantLinear::new(3, 2, QuantSpec::signed(8), &mut rng_from_seed(2));
        // Explicit weights instead of RNG draws: the symmetric per-row
        // scale maps `max_abs` onto |q_min| = 128, so a row whose
        // max-magnitude element is *positive* sits just above
        // `q_max * scale` — zero STE mask there while the finite
        // difference still sees a slope through the moving scale. Keep
        // every row maximum negative so all six masks are 1.
        lin.weight.value = vec![0.4, -0.6, 0.2, -0.5, 0.3, 0.1];
        lin.weight.touch();
        let x = Activation::new(vec![0.3, -0.8, 0.5, 1.2, 0.1, -0.4], 2, vec![3]);
        let y = lin.forward(&x, true);
        let ones = Activation::new(vec![1.0; y.data.len()], y.n, y.dims.clone());
        let dx = lin.backward(&ones);

        // Finite differences step across the 8-bit quantization grid, so
        // use an eps spanning many quantization steps and a loose bound.
        let eps = 0.08;
        for wi in 0..6 {
            let orig = lin.weight.value[wi];
            lin.weight.value[wi] = orig + eps;
            lin.weight.touch();
            let lp: f32 = lin.forward(&x, false).data.iter().sum();
            lin.weight.value[wi] = orig - eps;
            lin.weight.touch();
            let lm: f32 = lin.forward(&x, false).data.iter().sum();
            lin.weight.value[wi] = orig;
            lin.weight.touch();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - lin.weight.grad[wi]).abs() < 0.5,
                "dW[{wi}] numeric {numeric} vs {}",
                lin.weight.grad[wi]
            );
        }
        for xi in 0..6 {
            let mut x2 = x.clone();
            x2.data[xi] += eps;
            let lp: f32 = lin.forward(&x2, false).data.iter().sum();
            x2.data[xi] -= 2.0 * eps;
            let lm: f32 = lin.forward(&x2, false).data.iter().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - dx.data[xi]).abs() < 0.3,
                "dX[{xi}] numeric {numeric} vs {}",
                dx.data[xi]
            );
        }
    }

    #[test]
    fn bias_gradient_counts_batch() {
        let mut lin = QuantLinear::new(1, 1, QuantSpec::signed(8), &mut rng_from_seed(3));
        let x = Activation::new(vec![1.0, 1.0, 1.0], 3, vec![1]);
        lin.forward(&x, true);
        let g = Activation::new(vec![1.0, 1.0, 1.0], 3, vec![1]);
        lin.backward(&g);
        assert!((lin.bias.grad[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "linear input features")]
    fn forward_rejects_wrong_width() {
        let mut lin = QuantLinear::new(4, 2, QuantSpec::signed(2), &mut rng_from_seed(4));
        let x = Activation::zeros(1, &[3]);
        lin.forward(&x, false);
    }
}
