use super::{Activation, BackwardCache};
use adapex_tensor::conv::ConvGeometry;
use serde::{Deserialize, Serialize};

/// Output spatial extent of a `kernel`-window, `kernel`-stride pool on a
/// per-sample CHW input, shared by [`super::LayerSpec`]'s shape
/// propagation and the allocation-free forward path.
///
/// # Panics
///
/// Panics unless `in_dims` is CHW with extents >= `kernel`.
pub(super) fn out_hw(kernel: usize, in_dims: &[usize]) -> (usize, usize) {
    assert_eq!(in_dims.len(), 3, "pool input must be CHW");
    let g = ConvGeometry::new(kernel).with_stride(kernel);
    let oh = g.output_dim(in_dims[1]).expect("pool window must fit");
    let ow = g.output_dim(in_dims[2]).expect("pool window must fit");
    (oh, ow)
}

/// Max pooling with stride equal to the window (the only flavour CNV and
/// the paper's exit branches use; the exit's `k = ⌊DIM/2⌋` pool is an
/// instance of this).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaxPool2d {
    /// Window size and stride.
    pub kernel: usize,
    /// Backward-pass cache (see [`BackwardCache`]); the argmax buffer is
    /// only recorded in training mode.
    #[serde(skip)]
    pub(super) cache: BackwardCache<PoolCache>,
}

impl PartialEq for MaxPool2d {
    fn eq(&self, other: &Self) -> bool {
        // Caches are derived state; equality is structural.
        self.kernel == other.kernel
    }
}

#[derive(Debug, Default)]
pub(super) struct PoolCache {
    argmax: Vec<usize>,
    in_dims: Vec<usize>,
    n: usize,
}

impl MaxPool2d {
    /// New pooling layer with the given window size.
    ///
    /// # Panics
    ///
    /// Panics if `kernel == 0`.
    pub fn new(kernel: usize) -> Self {
        assert!(kernel > 0, "pool kernel must be positive");
        MaxPool2d {
            kernel,
            cache: BackwardCache::default(),
        }
    }

    /// Forward pass, recording argmax positions when `train` is set.
    ///
    /// # Panics
    ///
    /// Panics on an input shape mismatch.
    pub fn forward(&mut self, x: &Activation, train: bool) -> Activation {
        let (oh, ow) = out_hw(self.kernel, &x.dims);
        let out_dims = [x.dims[0], oh, ow];
        let (c, h, w) = (x.dims[0], x.dims[1], x.dims[2]);
        let k = self.kernel;
        // Every output element is written below.
        let mut out = Activation::for_overwrite(x.n, &out_dims);
        // A max over grid values stays on the grid.
        out.quant = x.quant;
        let sample_in = x.sample_len();
        // Eval records no argmax, so it never writes this empty slice.
        let argmax: &mut [usize] = if train {
            let cache = self.cache.fill();
            cache.argmax.clear();
            cache.argmax.resize(out.data.len(), 0);
            cache.in_dims.clear();
            cache.in_dims.extend_from_slice(&x.dims);
            cache.n = x.n;
            &mut cache.argmax
        } else {
            self.cache.invalidate();
            &mut []
        };
        for i in 0..x.n {
            let img = x.sample(i);
            let base_out = i * c * oh * ow;
            for ch in 0..c {
                let plane = &img[ch * h * w..(ch + 1) * h * w];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let o = base_out + (ch * oh + oy) * ow + ox;
                        let mut best = f32::NEG_INFINITY;
                        if !train {
                            // Eval needs the maximum only, not where it sat.
                            for ky in 0..k {
                                let at = (oy * k + ky) * w + ox * k;
                                for &v in &plane[at..at + k] {
                                    if v > best {
                                        best = v;
                                    }
                                }
                            }
                            out.data[o] = best;
                            continue;
                        }
                        let mut best_at = 0;
                        for ky in 0..k {
                            for kx in 0..k {
                                let at = (oy * k + ky) * w + ox * k + kx;
                                if plane[at] > best {
                                    best = plane[at];
                                    best_at = at;
                                }
                            }
                        }
                        out.data[o] = best;
                        argmax[o] = i * sample_in + ch * h * w + best_at;
                    }
                }
            }
        }
        out
    }

    /// Backward pass: routes each output gradient to its argmax input.
    ///
    /// # Panics
    ///
    /// Panics if no training-mode forward preceded this call.
    pub fn backward(&mut self, grad_out: &Activation) -> Activation {
        self.cache.consume("pool");
        let mut grad_in = Activation::zeros(self.cache.n, &self.cache.in_dims);
        for (o, &src) in self.cache.argmax.iter().enumerate() {
            grad_in.data[src] += grad_out.data[o];
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_takes_maxima() {
        let mut pool = MaxPool2d::new(2);
        let x = Activation::new(
            vec![1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0],
            1,
            vec![2, 2, 2],
        );
        let y = pool.forward(&x, false);
        assert_eq!(y.dims, vec![2, 1, 1]);
        assert_eq!(y.data, vec![4.0, -1.0]);
    }

    #[test]
    fn odd_dims_truncate_like_floor_division() {
        assert_eq!(out_hw(2, &[3, 5, 5]), (2, 2));
        // The exit branch's aggressive pool: k = floor(8/2) = 4 on an 8x8 map.
        assert_eq!(out_hw(4, &[64, 8, 8]), (2, 2));
    }

    #[test]
    fn backward_routes_to_argmax() {
        let mut pool = MaxPool2d::new(2);
        let x = Activation::new(vec![1.0, 5.0, 2.0, 3.0], 1, vec![1, 2, 2]);
        pool.forward(&x, true);
        let g = Activation::new(vec![7.0], 1, vec![1, 1, 1]);
        let dx = pool.backward(&g);
        assert_eq!(dx.data, vec![0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn gradient_mass_is_preserved() {
        let mut pool = MaxPool2d::new(2);
        let x = Activation::new((0..32).map(|v| (v as f32).sin()).collect(), 2, vec![1, 4, 4]);
        let y = pool.forward(&x, true);
        let g = Activation::new(vec![1.0; y.data.len()], y.n, y.dims.clone());
        let dx = pool.backward(&g);
        assert!((dx.data.iter().sum::<f32>() - y.data.len() as f32).abs() < 1e-6);
    }
}
