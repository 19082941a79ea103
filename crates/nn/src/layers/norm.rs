use super::{Activation, BackwardCache, Param};
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
/// over every reachable integer accumulator — and bisects it over the
/// stem's f32 ones — and keeps only the three points where the 2-bit
/// code steps, so neither a served batch nor `evaluate_exits` runs this
/// forward behind a folded conv (the stem runs it for an image whose
/// accumulators leave the folded range). Training, FC tails and nets
/// the plan does not cover still do.
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
    /// Backward-pass cache (see [`BackwardCache`]).
    #[serde(skip)]
    pub(super) cache: BackwardCache<NormCache>,
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

#[derive(Debug, Default)]
pub(super) struct NormCache {
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
            cache: BackwardCache::default(),
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
            self.cache.invalidate();
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

        // `out` and `xhat` are overwritten element for element below.
        let mut out = Activation::for_overwrite(x.n, &x.dims);
        with_workspace(|ws| {
            let mean = &mut ws.scratch;
            mean.clear();
            mean.resize(self.channels, 0.0);
            let var = &mut ws.scratch2;
            var.clear();
            var.resize(self.channels, 0.0);
            for i in 0..x.n {
                let s = &x.data[i * sample_len..(i + 1) * sample_len];
                add_channel_sums(s, spatial, mean, None);
            }
            for m in mean.iter_mut() {
                *m /= count;
            }
            for i in 0..x.n {
                let s = &x.data[i * sample_len..(i + 1) * sample_len];
                add_channel_sums(s, spatial, var, Some(mean));
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

            let cache = self.cache.fill();
            cache.inv_std.clear();
            cache
                .inv_std
                .extend(var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()));
            let xhat = &mut cache.xhat;
            if xhat.len() > x.data.len() {
                xhat.truncate(x.data.len());
            } else {
                xhat.resize(x.data.len(), 0.0);
            }
            for i in 0..x.n {
                let s = &x.data[i * sample_len..(i + 1) * sample_len];
                let o = &mut out.data[i * sample_len..(i + 1) * sample_len];
                let xh = &mut cache.xhat[i * sample_len..(i + 1) * sample_len];
                for (c, (o_ch, xh_ch)) in o
                    .chunks_exact_mut(spatial)
                    .zip(xh.chunks_exact_mut(spatial))
                    .enumerate()
                {
                    let g = self.gamma.value[c];
                    let b = self.beta.value[c];
                    let (m, istd) = (mean[c], cache.inv_std[c]);
                    let s_ch = &s[c * spatial..(c + 1) * spatial];
                    simd::normalize_affine_xhat(o_ch, xh_ch, s_ch, m, istd, g, b);
                }
            }
            cache.n = x.n;
            cache.dims.clear();
            cache.dims.extend_from_slice(&x.dims);
        });
        out
    }

    /// Backward pass; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    pub fn backward(&mut self, grad_out: &Activation) -> Activation {
        self.cache.consume("batchnorm");
        let spatial = self.spatial(&self.cache.dims);
        let count = (self.cache.n * spatial) as f32;
        let sample_len: usize = self.cache.dims.iter().product();
        // Every element is written by `bn_backward_dx` below.
        let mut grad_in = Activation::for_overwrite(self.cache.n, &self.cache.dims);

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
                for (c0, width) in channel_groups(self.channels) {
                    match width {
                        CHAINS => grad_chains::<CHAINS>(dy, xh, spatial, c0, sum_dy, sum_dy_xhat),
                        _ => grad_chains::<1>(dy, xh, spatial, c0, sum_dy, sum_dy_xhat),
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

/// Channels whose serial reductions run side by side. Each channel's
/// statistic is one chain of dependent adds; eight independent chains
/// keep the adder busy where one would wait out every add's latency.
const CHAINS: usize = 8;

/// `(first channel, width)` groups covering `0..channels`: full groups
/// of [`CHAINS`], then the rest one channel at a time.
fn channel_groups(channels: usize) -> impl Iterator<Item = (usize, usize)> {
    let full = channels - channels % CHAINS;
    (0..full)
        .step_by(CHAINS)
        .map(|c0| (c0, CHAINS))
        .chain((full..channels).map(|c| (c, 1)))
}

/// Adds one sample's sum over each channel onto `acc[c]`: `Σ x`, or
/// `Σ (x − mean[c])²` when `mean` is given, for the `[channels, spatial]`
/// sample `s`, [`CHAINS`] channels' chains at a time (see
/// [`sum_chains`]). Also the conv layer's bias gradient, `Σ dy` per
/// output channel.
pub(super) fn add_channel_sums(s: &[f32], spatial: usize, acc: &mut [f32], mean: Option<&[f32]>) {
    for (c0, width) in channel_groups(acc.len()) {
        match width {
            CHAINS => sum_chains::<CHAINS>(s, spatial, c0, acc, mean),
            _ => sum_chains::<1>(s, spatial, c0, acc, mean),
        }
    }
}

/// Adds one sample's sum over each of channels `c0..c0 + L` onto
/// `acc[c]`: `Σ x`, or `Σ (x − mean[c])²` when `mean` is given. Each
/// channel's terms fold in order from −0.0, exactly as
/// `Iterator::sum::<f32>` over that channel would, so the interleaving
/// changes no bit.
#[inline(always)]
fn sum_chains<const L: usize>(
    s: &[f32],
    spatial: usize,
    c0: usize,
    acc: &mut [f32],
    mean: Option<&[f32]>,
) {
    let rows: [&[f32]; L] = std::array::from_fn(|l| &s[(c0 + l) * spatial..][..spatial]);
    let mut sums = [-0.0f32; L];
    match mean {
        None => {
            for j in 0..spatial {
                for (sum, row) in sums.iter_mut().zip(&rows) {
                    *sum += row[j];
                }
            }
        }
        Some(mean) => {
            let m: [f32; L] = std::array::from_fn(|l| mean[c0 + l]);
            for j in 0..spatial {
                for ((sum, row), &m) in sums.iter_mut().zip(&rows).zip(&m) {
                    let d = row[j] - m;
                    *sum += d * d;
                }
            }
        }
    }
    for (a, s) in acc[c0..c0 + L].iter_mut().zip(sums) {
        *a += s;
    }
}

/// Continues the running `Σ dy` and `Σ dy·x̂` of channels `c0..c0 + L`
/// over one sample, element by element in order — the same two chains
/// per channel as a one-channel loop, `2L` of them in flight.
#[inline(always)]
fn grad_chains<const L: usize>(
    dy: &[f32],
    xh: &[f32],
    spatial: usize,
    c0: usize,
    sum_dy: &mut [f32],
    sum_dy_xhat: &mut [f32],
) {
    let dys: [&[f32]; L] = std::array::from_fn(|l| &dy[(c0 + l) * spatial..][..spatial]);
    let xhs: [&[f32]; L] = std::array::from_fn(|l| &xh[(c0 + l) * spatial..][..spatial]);
    let mut sd: [f32; L] = std::array::from_fn(|l| sum_dy[c0 + l]);
    let mut sdx: [f32; L] = std::array::from_fn(|l| sum_dy_xhat[c0 + l]);
    for j in 0..spatial {
        for l in 0..L {
            let d = dys[l][j];
            sd[l] += d;
            sdx[l] += d * xhs[l][j];
        }
    }
    sum_dy[c0..c0 + L].copy_from_slice(&sd);
    sum_dy_xhat[c0..c0 + L].copy_from_slice(&sdx);
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

    /// The channel-interleaved statistics against the one-channel loops
    /// they replaced, bit for bit: 11 channels (one group of eight and
    /// three single chains), data dense in ±0.0.
    #[test]
    fn interleaved_statistics_match_the_one_channel_loops() {
        let (n, channels, spatial) = (3, 11, 6);
        let sample = channels * spatial;
        let pattern = |i: usize, k: usize| match (i * k) % 7 {
            0 => 0.0,
            1 => -0.0,
            _ => ((i * 37 % 101) as f32 - 50.0) / 17.0,
        };
        let x: Vec<f32> = (0..n * sample).map(|i| pattern(i, 3)).collect();
        let dy: Vec<f32> = (0..n * sample).map(|i| pattern(i + 5, 5)).collect();
        let mut bn = BatchNorm::new(channels);
        bn.gamma.value = (0..channels).map(|c| 0.5 + c as f32 * 0.1).collect();
        bn.forward(&Activation::new(x.clone(), n, vec![channels, 2, 3]), true);
        let dx = bn.backward(&Activation::new(dy.clone(), n, vec![channels, 2, 3]));

        let at = |v: &[f32], i: usize, c: usize| v[i * sample + c * spatial..][..spatial].to_vec();
        let count = (n * spatial) as f32;
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut want_dx = vec![0.0f32; n * sample];
        for c in 0..channels {
            let mut mean = 0.0f32;
            for i in 0..n {
                mean += at(&x, i, c).iter().sum::<f32>();
            }
            mean /= count;
            let mut var = 0.0f32;
            for i in 0..n {
                var += at(&x, i, c).iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>();
            }
            var /= count;
            let m = bn.momentum;
            let want_mean = (1.0 - m) * 0.0 + m * mean;
            let want_var = (1.0 - m) * 1.0 + m * var;
            assert_eq!(bn.running_mean[c].to_bits(), want_mean.to_bits(), "mean {c}");
            assert_eq!(bn.running_var[c].to_bits(), want_var.to_bits(), "var {c}");
            let inv_std = 1.0 / (var + bn.eps).sqrt();
            let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
            for i in 0..n {
                for (&d, &v) in at(&dy, i, c).iter().zip(&at(&x, i, c)) {
                    sum_dy += d;
                    sum_dy_xhat += d * ((v - mean) * inv_std);
                }
            }
            assert_eq!(bn.beta.grad[c].to_bits(), (0.0 + sum_dy).to_bits(), "beta {c}");
            assert_eq!(bn.gamma.grad[c].to_bits(), (0.0 + sum_dy_xhat).to_bits(), "gamma {c}");
            let coeff = bn.gamma.value[c] * inv_std / count;
            for i in 0..n {
                for j in 0..spatial {
                    let k = i * sample + c * spatial + j;
                    let xh = (x[k] - mean) * inv_std;
                    want_dx[k] = coeff * (count * dy[k] - sum_dy - xh * sum_dy_xhat);
                }
            }
        }
        assert_eq!(bits(&dx.data), bits(&want_dx));
    }

    #[test]
    #[should_panic(expected = "batchnorm channels")]
    fn rejects_channel_mismatch() {
        let mut bn = BatchNorm::new(3);
        let x = Activation::zeros(1, &[2, 2, 2]);
        bn.forward(&x, true);
    }
}
