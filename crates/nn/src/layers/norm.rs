use super::{Activation, Param};
use adapex_tensor::simd;
use adapex_tensor::workspace::with_workspace;
use serde::{Deserialize, Serialize};

/// Batch normalization over channels.
///
/// Handles both 4-D `[C, H, W]` activations (per-channel statistics over
/// batch and spatial positions) and flat `[F]` activations (per-feature).
/// On the FPGA, FINN folds BatchNorm into the MVTU's threshold memory, so
/// this layer exists only in the training graph; the compiler reports it
/// as threshold configuration, not as a module. The executor that
/// serves and evaluates does the same on the CPU: its streamlined plan
/// (`crate::streamline`) tabulates this layer's eval arithmetic
/// (`BatchNorm::eval_channel`) together with the QuantReLU behind it
/// over every reachable integer accumulator and keeps only the three
/// points where the 2-bit code steps, so neither a served batch nor
/// `evaluate_exits` runs this forward behind a folded conv. Training,
/// FC tails and nets the plan does not cover still do.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm {
    /// Number of channels (4-D input) or features (flat input).
    pub channels: usize,
    /// Learned scale.
    pub gamma: Param,
    /// Learned shift.
    pub beta: Param,
    /// Running mean used at eval time.
    pub running_mean: Vec<f32>,
    /// Running variance used at eval time.
    pub running_var: Vec<f32>,
    /// Exponential-average momentum for the running statistics.
    pub momentum: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Backward-pass cache; buffers persist across batches.
    #[serde(skip)]
    cache: NormCache,
    #[serde(skip)]
    cache_valid: bool,
}

impl PartialEq for BatchNorm {
    fn eq(&self, other: &Self) -> bool {
        // Caches are derived state; equality is structural.
        self.channels == other.channels
            && self.gamma == other.gamma
            && self.beta == other.beta
            && self.running_mean == other.running_mean
            && self.running_var == other.running_var
            && self.momentum == other.momentum
            && self.eps == other.eps
    }
}

#[derive(Debug, Clone, Default)]
struct NormCache {
    xhat: Vec<f32>,
    inv_std: Vec<f32>,
    n: usize,
    dims: Vec<usize>,
}

impl BatchNorm {
    /// New layer with identity initialisation (`gamma = 1`, `beta = 0`).
    pub fn new(channels: usize) -> Self {
        BatchNorm {
            channels,
            gamma: Param::new(vec![1.0; channels]),
            beta: Param::new(vec![0.0; channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cache: NormCache::default(),
            cache_valid: false,
        }
    }

    fn spatial(&self, dims: &[usize]) -> usize {
        match dims.len() {
            3 => dims[1] * dims[2],
            1 => 1,
            _ => panic!("batchnorm supports CHW or flat inputs, got {dims:?}"),
        }
    }

    /// Eval-mode normalize of one channel's values against the running
    /// statistics: `out = γ·((src − μ)·1/√(σ² + ε)) + β`, rounded step
    /// by step as written. The one place that formula lives — the eval
    /// forward applies it per sample, and the serving executor's
    /// streamlined plan applies it to every reachable accumulator when
    /// it folds this layer into thresholds.
    pub(crate) fn eval_channel(&self, c: usize, out: &mut [f32], src: &[f32]) {
        let inv_std = 1.0 / (self.running_var[c] + self.eps).sqrt();
        let (g, b) = (self.gamma.value[c], self.beta.value[c]);
        simd::normalize_affine(out, src, self.running_mean[c], inv_std, g, b);
    }

    /// Forward pass: batch statistics in training, running statistics at
    /// eval.
    ///
    /// # Panics
    ///
    /// Panics when the channel count disagrees with `self.channels`.
    pub fn forward(&mut self, x: &Activation, train: bool) -> Activation {
        let spatial = self.spatial(&x.dims);
        assert_eq!(x.dims[0], self.channels, "batchnorm channels");
        let count = (x.n * spatial) as f32;
        let sample_len = x.sample_len();

        if !train {
            // Eval normalizes against the running statistics directly; no
            // xhat buffer is materialized since no backward will run, and
            // every output element is written below.
            self.cache_valid = false;
            let mut out = Activation::for_overwrite(x.n, &x.dims);
            for i in 0..x.n {
                let s = &x.data[i * sample_len..(i + 1) * sample_len];
                let o = &mut out.data[i * sample_len..(i + 1) * sample_len];
                for c in 0..self.channels {
                    let ch = c * spatial..(c + 1) * spatial;
                    self.eval_channel(c, &mut o[ch.clone()], &s[ch]);
                }
            }
            return out;
        }

        let mut out = Activation::zeros(x.n, &x.dims);
        with_workspace(|ws| {
            let mean = &mut ws.scratch;
            mean.clear();
            mean.resize(self.channels, 0.0);
            let var = &mut ws.scratch2;
            var.clear();
            var.resize(self.channels, 0.0);
            for i in 0..x.n {
                let s = &x.data[i * sample_len..(i + 1) * sample_len];
                for c in 0..self.channels {
                    mean[c] += s[c * spatial..(c + 1) * spatial].iter().sum::<f32>();
                }
            }
            for m in mean.iter_mut() {
                *m /= count;
            }
            for i in 0..x.n {
                let s = &x.data[i * sample_len..(i + 1) * sample_len];
                for c in 0..self.channels {
                    var[c] += s[c * spatial..(c + 1) * spatial]
                        .iter()
                        .map(|&v| (v - mean[c]) * (v - mean[c]))
                        .sum::<f32>();
                }
            }
            for v in var.iter_mut() {
                *v /= count;
            }
            for c in 0..self.channels {
                self.running_mean[c] =
                    (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean[c];
                self.running_var[c] =
                    (1.0 - self.momentum) * self.running_var[c] + self.momentum * var[c];
            }

            self.cache.inv_std.clear();
            self.cache
                .inv_std
                .extend(var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()));
            self.cache.xhat.clear();
            self.cache.xhat.resize(x.data.len(), 0.0);
            for i in 0..x.n {
                let s = &x.data[i * sample_len..(i + 1) * sample_len];
                let o = &mut out.data[i * sample_len..(i + 1) * sample_len];
                let xh = &mut self.cache.xhat[i * sample_len..(i + 1) * sample_len];
                for (c, (o_ch, xh_ch)) in o
                    .chunks_exact_mut(spatial)
                    .zip(xh.chunks_exact_mut(spatial))
                    .enumerate()
                {
                    let g = self.gamma.value[c];
                    let b = self.beta.value[c];
                    let (m, istd) = (mean[c], self.cache.inv_std[c]);
                    let s_ch = &s[c * spatial..(c + 1) * spatial];
                    simd::normalize_affine_xhat(o_ch, xh_ch, s_ch, m, istd, g, b);
                }
            }
        });
        self.cache.n = x.n;
        self.cache.dims.clear();
        self.cache.dims.extend_from_slice(&x.dims);
        self.cache_valid = true;
        out
    }

    /// Backward pass; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    pub fn backward(&mut self, grad_out: &Activation) -> Activation {
        assert!(self.cache_valid, "batchnorm backward requires cached forward");
        self.cache_valid = false;
        let spatial = self.spatial(&self.cache.dims);
        let count = (self.cache.n * spatial) as f32;
        let sample_len: usize = self.cache.dims.iter().product();
        let mut grad_in = Activation::zeros(self.cache.n, &self.cache.dims);

        with_workspace(|ws| {
            // Per-channel reductions: sum(dY) and sum(dY * xhat).
            let sum_dy = &mut ws.scratch;
            sum_dy.clear();
            sum_dy.resize(self.channels, 0.0);
            let sum_dy_xhat = &mut ws.scratch2;
            sum_dy_xhat.clear();
            sum_dy_xhat.resize(self.channels, 0.0);
            for i in 0..self.cache.n {
                let dy = &grad_out.data[i * sample_len..(i + 1) * sample_len];
                let xh = &self.cache.xhat[i * sample_len..(i + 1) * sample_len];
                for c in 0..self.channels {
                    for j in c * spatial..(c + 1) * spatial {
                        sum_dy[c] += dy[j];
                        sum_dy_xhat[c] += dy[j] * xh[j];
                    }
                }
            }
            for c in 0..self.channels {
                self.gamma.grad[c] += sum_dy_xhat[c];
                self.beta.grad[c] += sum_dy[c];
            }
            // dX = gamma * inv_std / N * (N*dY − sum(dY) − xhat*sum(dY*xhat))
            for i in 0..self.cache.n {
                let dy = &grad_out.data[i * sample_len..(i + 1) * sample_len];
                let xh = &self.cache.xhat[i * sample_len..(i + 1) * sample_len];
                let dx = &mut grad_in.data[i * sample_len..(i + 1) * sample_len];
                for c in 0..self.channels {
                    let coeff = self.gamma.value[c] * self.cache.inv_std[c] / count;
                    let ch = c * spatial..(c + 1) * spatial;
                    simd::bn_backward_dx(
                        &mut dx[ch.clone()],
                        &dy[ch.clone()],
                        &xh[ch],
                        coeff,
                        count,
                        sum_dy[c],
                        sum_dy_xhat[c],
                    );
                }
            }
        });
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_forward_normalizes() {
        let mut bn = BatchNorm::new(1);
        let x = Activation::new(vec![1.0, 2.0, 3.0, 4.0], 1, vec![1, 2, 2]);
        let y = bn.forward(&x, true);
        let mean: f32 = y.data.iter().sum::<f32>() / 4.0;
        let var: f32 = y.data.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        bn.running_mean = vec![10.0];
        bn.running_var = vec![4.0];
        let x = Activation::new(vec![12.0], 1, vec![1]);
        let y = bn.forward(&x, false);
        assert!((y.data[0] - 1.0).abs() < 1e-3, "{:?}", y.data);
    }

    #[test]
    fn running_stats_track_batches() {
        let mut bn = BatchNorm::new(1);
        let x = Activation::new(vec![4.0, 4.0, 4.0, 4.0], 4, vec![1]);
        for _ in 0..50 {
            bn.forward(&x, true);
        }
        assert!((bn.running_mean[0] - 4.0).abs() < 0.1);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut bn = BatchNorm::new(2);
        let x = Activation::new(
            vec![0.5, -1.0, 2.0, 0.3, -0.7, 1.5, 0.1, -0.2],
            2,
            vec![2, 1, 2],
        );
        // Loss = weighted sum so per-element gradients differ.
        let w: Vec<f32> = (0..8).map(|v| (v as f32 + 1.0) * 0.1).collect();
        let y = bn.forward(&x, true);
        let g = Activation::new(w.clone(), 2, y.dims.clone());
        let dx = bn.backward(&g);
        let loss = |bn: &mut BatchNorm, x: &Activation| -> f32 {
            bn.forward(x, true).data.iter().zip(&w).map(|(a, b)| a * b).sum()
        };
        let eps = 1e-3;
        for xi in 0..8 {
            let mut x2 = x.clone();
            x2.data[xi] += eps;
            let lp = loss(&mut bn, &x2);
            x2.data[xi] -= 2.0 * eps;
            let lm = loss(&mut bn, &x2);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - dx.data[xi]).abs() < 0.05,
                "dX[{xi}] numeric {numeric} vs {}",
                dx.data[xi]
            );
        }
    }

    #[test]
    #[should_panic(expected = "batchnorm channels")]
    fn rejects_channel_mismatch() {
        let mut bn = BatchNorm::new(3);
        let x = Activation::zeros(1, &[2, 2, 2]);
        bn.forward(&x, true);
    }
}
