//! Network layers with manual forward/backward passes.
//!
//! Each layer owns its parameters ([`Param`]: value, gradient, momentum)
//! and whatever forward-pass caches its backward pass needs. Layers are
//! composed through the [`Layer`] enum — enum dispatch keeps networks
//! serializable and avoids trait-object plumbing for a closed set of six
//! layer kinds.

mod act;
mod conv;
mod linear;
mod norm;
mod pool;

pub use act::QuantReLU;
pub use conv::QuantConv2d;
pub use linear::QuantLinear;
pub use norm::BatchNorm;
pub use pool::MaxPool2d;

use crate::quant::QuantSpec;
use adapex_tensor::conv::ConvGeometry;
use adapex_tensor::simd;
use adapex_tensor::workspace::{
    recycle_f32, recycle_usize, take_f32, take_f32_from, take_f32_uninit, take_usize_from,
};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Quantization-grid metadata attached to an [`Activation`] by the layer
/// that produced it.
///
/// [`QuantReLU`] stamps its output with the grid it snapped values to;
/// shape-preserving layers (pooling, flatten) propagate the stamp, and
/// every value-producing layer clears it. Downstream quantized matrix
/// layers use the stamp to recover exact integer activation codes
/// (`code = round(v / scale)`) for the bit-packed int2 eval engine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ActQuant {
    /// Grid step: values lie on `{0, scale, ..., (2^bits - 1) * scale}`.
    pub scale: f32,
    /// Bit width of the unsigned code range.
    pub bits: u32,
}

/// A mini-batch activation: `n` samples, each with per-sample shape
/// `dims` (e.g. `[C, H, W]` after a conv, `[F]` after a flatten).
///
/// Activation buffers cycle through the [`adapex_tensor::workspace`]
/// pool: [`Activation::zeros`] and `clone` draw pooled buffers and `drop`
/// recycles them, so a steady-state training loop reuses the same
/// allocations batch after batch.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct Activation {
    /// Flattened data, `n * dims.product()` elements, sample-major.
    pub data: Vec<f32>,
    /// Batch size.
    pub n: usize,
    /// Per-sample shape.
    pub dims: Vec<usize>,
    /// Quantization grid the values are known to lie on, if any.
    #[serde(default)]
    pub quant: Option<ActQuant>,
}

impl Activation {
    /// Creates an activation, validating the buffer length.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n * dims.product()`.
    pub fn new(data: Vec<f32>, n: usize, dims: Vec<usize>) -> Self {
        let per: usize = dims.iter().product();
        assert_eq!(data.len(), n * per, "activation buffer length");
        Activation {
            data,
            n,
            dims,
            quant: None,
        }
    }

    /// Zero-filled activation, backed by a pooled buffer.
    pub fn zeros(n: usize, dims: &[usize]) -> Self {
        let per: usize = dims.iter().product();
        Activation {
            data: take_f32(n * per),
            n,
            dims: take_usize_from(dims),
            quant: None,
        }
    }

    /// Pooled activation with *unspecified* contents (stale values of a
    /// recycled buffer), for a layer that overwrites every element
    /// before anything reads one: skips the zero-fill of [`Self::zeros`].
    pub(crate) fn for_overwrite(n: usize, dims: &[usize]) -> Self {
        let per: usize = dims.iter().product();
        Activation {
            data: take_f32_uninit(n * per),
            n,
            dims: take_usize_from(dims),
            quant: None,
        }
    }

    /// Elements per sample.
    pub fn sample_len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Sample `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n`.
    pub fn sample(&self, i: usize) -> &[f32] {
        let per = self.sample_len();
        &self.data[i * per..(i + 1) * per]
    }

    /// Decomposes into `(data, n, dims)`, transferring buffer ownership
    /// to the caller (the `Drop` impl forbids plain destructuring).
    pub fn into_parts(mut self) -> (Vec<f32>, usize, Vec<usize>) {
        (
            std::mem::take(&mut self.data),
            self.n,
            std::mem::take(&mut self.dims),
        )
    }
}

impl Clone for Activation {
    fn clone(&self) -> Self {
        Activation {
            data: take_f32_from(&self.data),
            n: self.n,
            dims: take_usize_from(&self.dims),
            quant: self.quant,
        }
    }
}

impl Drop for Activation {
    fn drop(&mut self) {
        recycle_f32(std::mem::take(&mut self.data));
        recycle_usize(std::mem::take(&mut self.dims));
    }
}

/// State a layer derives from its weights (a quantized weight view):
/// not serialized, not compared and not cloned. A clone starts from
/// `T::default()` and derives again on first use, so copying a layer
/// copies its weights and nothing else.
#[derive(Debug, Default)]
pub(crate) struct Derived<T>(T);

impl<T: Default> Clone for Derived<T> {
    fn clone(&self) -> Self {
        Derived::default()
    }
}

impl<T> std::ops::Deref for Derived<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for Derived<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// A layer's backward-pass cache. A training forward fills it through
/// [`BackwardCache::fill`], which marks it valid; the backward after it
/// reads it and [`BackwardCache::consume`]s it. Its buffers outlive the
/// batch, so a training loop refills them without allocating, until
/// [`BackwardCache::release`] frees them (`Trainer::fit` does so when it
/// returns). A clone is empty and invalid: copying a layer never copies
/// training state, and a clone's backward panics like any backward
/// without a training forward before it.
#[derive(Debug, Default)]
pub(crate) struct BackwardCache<T> {
    state: T,
    valid: bool,
}

impl<T: Default> Clone for BackwardCache<T> {
    fn clone(&self) -> Self {
        BackwardCache::default()
    }
}

impl<T> std::ops::Deref for BackwardCache<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.state
    }
}

impl<T: Default> BackwardCache<T> {
    /// The buffers, for a training forward to refill; marks the cache
    /// valid.
    pub(crate) fn fill(&mut self) -> &mut T {
        self.valid = true;
        &mut self.state
    }

    /// Marks the cache stale and keeps its buffers (an eval forward).
    pub(crate) fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Marks the cache consumed by one backward pass of `layer`; the
    /// state stays readable until the next forward.
    ///
    /// # Panics
    ///
    /// Panics unless a training forward filled the cache since the last
    /// backward.
    pub(crate) fn consume(&mut self, layer: &str) {
        assert!(self.valid, "{layer} backward requires cached forward");
        self.valid = false;
    }

    /// Frees the buffers; the cache is empty and invalid again.
    pub(crate) fn release(&mut self) {
        *self = BackwardCache::default();
    }
}

/// A trainable parameter: full-precision value, gradient accumulator and
/// momentum buffer of equal length.
///
/// The private `version` stamp lets layers cache values derived from
/// `value` (e.g. quantized weight views): it changes on every
/// [`Param::sgd_step`], and code that mutates `value` directly must call
/// [`Param::touch`]. Equality ignores the stamp — two params with the
/// same numbers are equal regardless of their mutation history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Full-precision ("shadow") values; quantized views are derived per
    /// forward pass.
    pub value: Vec<f32>,
    /// Accumulated gradient for the current step.
    pub grad: Vec<f32>,
    /// SGD momentum buffer.
    pub velocity: Vec<f32>,
    /// Mutation stamp for derived-value caches. Not serialized: a
    /// deserialized param draws a fresh one.
    #[serde(skip)]
    version: Version,
}

/// A [`Param`] state's stamp, drawn from one process-wide counter: no
/// two params, and no two states of one param, share a stamp, so a view
/// derived from one set of weights never passes for another's (surgery
/// that gives a layer new params, a param assigned from elsewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Version(u64);

impl Default for Version {
    fn default() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        Version(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl PartialEq for Param {
    fn eq(&self, other: &Self) -> bool {
        self.value == other.value
            && self.grad == other.grad
            && self.velocity == other.velocity
    }
}

impl Param {
    /// Parameter initialised with `value` and zeroed grad/momentum.
    pub fn new(value: Vec<f32>) -> Self {
        let len = value.len();
        Param {
            value,
            grad: vec![0.0; len],
            velocity: vec![0.0; len],
            version: Version::default(),
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` when the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Current mutation stamp. Caches derived from [`Param::value`]
    /// stay valid while this is unchanged; a clone shares it.
    pub fn version(&self) -> u64 {
        self.version.0
    }

    /// Records a direct mutation of [`Param::value`], invalidating
    /// derived-value caches. [`Param::sgd_step`] calls this itself.
    pub fn touch(&mut self) {
        self.version = Version::default();
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// One SGD-with-momentum step:
    /// `v = m*v + g + wd*w; w -= lr*v`.
    pub fn sgd_step(&mut self, lr: f32, momentum: f32, weight_decay: f32) {
        simd::sgd_update(
            &mut self.value,
            &self.grad,
            &mut self.velocity,
            lr,
            momentum,
            weight_decay,
        );
        self.touch();
    }
}

/// Structural description of a layer, consumed by the FPGA compiler
/// (`finn-dataflow`) when mapping the network to hardware modules.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LayerInfo {
    /// Quantized convolution.
    Conv {
        /// Input channels.
        c_in: usize,
        /// Output channels (filters).
        c_out: usize,
        /// Square kernel size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        padding: usize,
        /// Input feature-map height/width.
        in_hw: (usize, usize),
        /// Output feature-map height/width.
        out_hw: (usize, usize),
        /// Weight bit width.
        weight_bits: u32,
    },
    /// Quantized fully-connected layer.
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Weight bit width.
        weight_bits: u32,
    },
    /// Max pooling.
    MaxPool {
        /// Window size (stride equals window).
        kernel: usize,
        /// Channels.
        channels: usize,
        /// Input feature-map height/width.
        in_hw: (usize, usize),
        /// Output feature-map height/width.
        out_hw: (usize, usize),
    },
    /// Batch normalization (folds into MVTU thresholds on the FPGA).
    BatchNorm {
        /// Normalized channels/features.
        channels: usize,
    },
    /// Quantized activation (folds into MVTU thresholds on the FPGA).
    QuantAct {
        /// Activation bit width.
        bits: u32,
    },
    /// Flatten CHW to a feature vector (free on the FPGA stream).
    Flatten,
}

/// A layer without its weights: everything [`LayerSpec::instantiate`]
/// needs besides a random stream, and everything shape propagation
/// reads. A model's topology is written once as a table of these (see
/// `crate::cnv`), so building a network and summarizing it without
/// building it walk the same description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayerSpec {
    /// Quantized convolution.
    Conv {
        /// Input channels.
        c_in: usize,
        /// Output channels (filters).
        c_out: usize,
        /// Kernel geometry.
        geom: ConvGeometry,
        /// Weight quantizer.
        weight_spec: QuantSpec,
    },
    /// Quantized fully-connected layer.
    Linear {
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
        /// Weight quantizer.
        weight_spec: QuantSpec,
    },
    /// Max pooling with stride equal to the window.
    Pool {
        /// Window size.
        kernel: usize,
    },
    /// Batch normalization.
    Norm {
        /// Normalized channels/features.
        channels: usize,
    },
    /// Quantized ReLU.
    Act {
        /// Activation quantizer (unsigned).
        spec: QuantSpec,
        /// Upper clipping bound.
        clip: f32,
    },
    /// Flatten CHW to features.
    Flatten,
}

impl LayerSpec {
    /// Creates the layer, drawing its initial weights (convs and linears
    /// only) from `rng`.
    pub fn instantiate(&self, rng: &mut StdRng) -> Layer {
        match *self {
            LayerSpec::Conv {
                c_in,
                c_out,
                geom,
                weight_spec,
            } => Layer::Conv(QuantConv2d::new(c_in, c_out, geom, weight_spec, rng)),
            LayerSpec::Linear {
                in_features,
                out_features,
                weight_spec,
            } => Layer::Linear(QuantLinear::new(in_features, out_features, weight_spec, rng)),
            LayerSpec::Pool { kernel } => Layer::Pool(MaxPool2d::new(kernel)),
            LayerSpec::Norm { channels } => Layer::Norm(BatchNorm::new(channels)),
            LayerSpec::Act { spec, clip } => Layer::Act(QuantReLU::new(spec, clip)),
            LayerSpec::Flatten => Layer::Flatten,
        }
    }

    /// Per-sample output shape for a per-sample input shape.
    ///
    /// # Panics
    ///
    /// Panics if `in_dims` is incompatible with the layer.
    pub fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        match *self {
            LayerSpec::Conv { c_in, c_out, geom, .. } => {
                let (oh, ow) = conv::out_hw(c_in, geom, in_dims);
                vec![c_out, oh, ow]
            }
            LayerSpec::Linear { out_features, .. } => vec![out_features],
            LayerSpec::Pool { kernel } => {
                let (oh, ow) = pool::out_hw(kernel, in_dims);
                vec![in_dims[0], oh, ow]
            }
            LayerSpec::Norm { .. } | LayerSpec::Act { .. } => in_dims.to_vec(),
            LayerSpec::Flatten => vec![in_dims.iter().product()],
        }
    }

    /// Structural description for the FPGA compiler.
    ///
    /// # Panics
    ///
    /// Panics if `in_dims` is incompatible with the layer.
    pub fn info(&self, in_dims: &[usize]) -> LayerInfo {
        match *self {
            LayerSpec::Conv {
                c_in,
                c_out,
                geom,
                weight_spec,
            } => LayerInfo::Conv {
                c_in,
                c_out,
                kernel: geom.kernel,
                stride: geom.stride,
                padding: geom.padding,
                in_hw: (in_dims[1], in_dims[2]),
                out_hw: conv::out_hw(c_in, geom, in_dims),
                weight_bits: weight_spec.bits,
            },
            LayerSpec::Linear {
                in_features,
                out_features,
                weight_spec,
            } => LayerInfo::Linear {
                in_features,
                out_features,
                weight_bits: weight_spec.bits,
            },
            LayerSpec::Pool { kernel } => LayerInfo::MaxPool {
                kernel,
                channels: in_dims[0],
                in_hw: (in_dims[1], in_dims[2]),
                out_hw: pool::out_hw(kernel, in_dims),
            },
            LayerSpec::Norm { channels } => LayerInfo::BatchNorm { channels },
            LayerSpec::Act { spec, .. } => LayerInfo::QuantAct { bits: spec.bits },
            LayerSpec::Flatten => LayerInfo::Flatten,
        }
    }
}

/// A network layer (closed enum; see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Quantized convolution.
    Conv(QuantConv2d),
    /// Quantized fully-connected layer.
    Linear(QuantLinear),
    /// Max pooling.
    Pool(MaxPool2d),
    /// Batch normalization.
    Norm(BatchNorm),
    /// Quantized ReLU activation.
    Act(QuantReLU),
    /// Flatten CHW to features.
    Flatten,
}

impl Layer {
    /// Runs the layer forward. With `train` set, caches what the backward
    /// pass needs.
    pub fn forward(&mut self, x: &Activation, train: bool) -> Activation {
        match self {
            Layer::Conv(l) => l.forward(x, train),
            Layer::Linear(l) => l.forward(x, train),
            Layer::Pool(l) => l.forward(x, train),
            Layer::Norm(l) => l.forward(x, train),
            Layer::Act(l) => l.forward(x, train),
            Layer::Flatten => {
                // A reshape keeps values on whatever quantization grid
                // they were already on.
                let mut out = Activation::new(
                    take_f32_from(&x.data),
                    x.n,
                    take_usize_from(&[x.sample_len()]),
                );
                out.quant = x.quant;
                out
            }
        }
    }

    /// [`Layer::forward`] taking the input by value, letting layers keep
    /// the buffer instead of copying it: flatten becomes a zero-copy
    /// reshape, the conv layer moves its input straight into the backward
    /// cache, and every other input is recycled into the buffer pool on
    /// drop. Numerically identical to [`Layer::forward`].
    pub fn forward_owned(&mut self, x: Activation, train: bool) -> Activation {
        match self {
            Layer::Conv(l) => l.forward_owned(x, train),
            Layer::Flatten => {
                let per = x.sample_len();
                let quant = x.quant;
                let (data, n, dims) = x.into_parts();
                recycle_usize(dims);
                let mut out = Activation::new(data, n, take_usize_from(&[per]));
                out.quant = quant;
                out
            }
            _ => self.forward(&x, train),
        }
    }

    /// Backpropagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient w.r.t. the layer input.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode [`Layer::forward`].
    pub fn backward(&mut self, grad_out: &Activation) -> Activation {
        match self {
            Layer::Conv(l) => l.backward(grad_out),
            Layer::Linear(l) => l.backward(grad_out),
            Layer::Pool(l) => l.backward(grad_out),
            Layer::Norm(l) => l.backward(grad_out),
            Layer::Act(l) => l.backward(grad_out),
            Layer::Flatten => {
                // The backward of a reshape restores the cached input shape;
                // the caller tracks it, so pass gradients through unchanged
                // as a flat feature tensor. Upstream layers only read data.
                grad_out.clone()
            }
        }
    }

    /// [`Layer::backward`] for a layer whose input gradient nobody reads:
    /// accumulates the same parameter gradients, and a conv skips the
    /// input-gradient GEMM and `col2im` it would otherwise run.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode [`Layer::forward`].
    pub(crate) fn backward_params(&mut self, grad_out: &Activation) {
        match self {
            Layer::Conv(l) => l.backward_params(grad_out),
            _ => {
                self.backward(grad_out);
            }
        }
    }

    /// Frees the layer's backward cache. A backward needs a training
    /// forward again after this.
    pub(crate) fn release_cache(&mut self) {
        match self {
            Layer::Conv(l) => l.cache.release(),
            Layer::Linear(l) => l.cache.release(),
            Layer::Pool(l) => l.cache.release(),
            Layer::Norm(l) => l.cache.release(),
            Layer::Act(l) => l.cache.release(),
            Layer::Flatten => {}
        }
    }

    /// Visits every trainable parameter.
    pub fn for_each_param(&mut self, f: &mut impl FnMut(&mut Param)) {
        match self {
            Layer::Conv(l) => {
                f(&mut l.weight);
                f(&mut l.bias);
            }
            Layer::Linear(l) => {
                f(&mut l.weight);
                f(&mut l.bias);
            }
            Layer::Norm(l) => {
                f(&mut l.gamma);
                f(&mut l.beta);
            }
            Layer::Pool(_) | Layer::Act(_) | Layer::Flatten => {}
        }
    }

    /// The layer without its weights.
    pub fn spec(&self) -> LayerSpec {
        match self {
            Layer::Conv(l) => LayerSpec::Conv {
                c_in: l.c_in,
                c_out: l.c_out,
                geom: l.geom,
                weight_spec: l.weight_spec,
            },
            Layer::Linear(l) => LayerSpec::Linear {
                in_features: l.in_features,
                out_features: l.out_features,
                weight_spec: l.weight_spec,
            },
            Layer::Pool(l) => LayerSpec::Pool { kernel: l.kernel },
            Layer::Norm(l) => LayerSpec::Norm {
                channels: l.channels,
            },
            Layer::Act(l) => LayerSpec::Act {
                spec: l.spec,
                clip: l.clip,
            },
            Layer::Flatten => LayerSpec::Flatten,
        }
    }

    /// Per-sample output shape for a per-sample input shape.
    ///
    /// # Panics
    ///
    /// Panics if `in_dims` is incompatible with the layer.
    pub fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        self.spec().out_dims(in_dims)
    }

    /// Structural description for the FPGA compiler.
    ///
    /// # Panics
    ///
    /// Panics if `in_dims` is incompatible with the layer.
    pub fn info(&self, in_dims: &[usize]) -> LayerInfo {
        self.spec().info(in_dims)
    }

    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.for_each_param(&mut |p| count += p.len());
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activation_validates_length() {
        let a = Activation::new(vec![0.0; 12], 2, vec![2, 3]);
        assert_eq!(a.sample_len(), 6);
        assert_eq!(a.sample(1).len(), 6);
    }

    #[test]
    #[should_panic(expected = "activation buffer length")]
    fn activation_rejects_bad_length() {
        Activation::new(vec![0.0; 5], 2, vec![3]);
    }

    #[test]
    fn param_sgd_step_with_momentum() {
        let mut p = Param::new(vec![1.0]);
        p.grad[0] = 2.0;
        p.sgd_step(0.1, 0.9, 0.0);
        assert!((p.value[0] - 0.8).abs() < 1e-6);
        // Second step with zero grad still moves by momentum.
        p.zero_grad();
        p.sgd_step(0.1, 0.9, 0.0);
        assert!((p.value[0] - (0.8 - 0.1 * 1.8)).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut p = Param::new(vec![1.0]);
        p.sgd_step(0.1, 0.0, 0.5);
        assert!(p.value[0] < 1.0);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut l = Layer::Flatten;
        let x = Activation::new((0..12).map(|v| v as f32).collect(), 2, vec![2, 3]);
        let y = l.forward(&x, true);
        assert_eq!(y.dims, vec![6]);
        assert_eq!(y.data, x.data);
        assert_eq!(l.out_dims(&[2, 3]), vec![6]);
    }
}
