//! Dense `f32` tensors and the numeric kernels backing the AdaPEx CNN engine.
//!
//! The AdaPEx reproduction trains and evaluates quantized CNNs on the CPU,
//! so this crate provides exactly the primitives that workload needs and
//! nothing more:
//!
//! * [`Tensor`] — an owned, contiguous, row-major (NCHW for 4-D data)
//!   `f32` tensor with shape-checked constructors and elementwise helpers.
//! * [`gemm`] — a cache-blocked, multithreaded single-precision matrix
//!   multiply used by convolution (via im2col) and fully-connected layers.
//! * [`conv`] — `im2col`/`col2im` lowering so convolutions run on the GEMM.
//! * [`conv_grad`] — the conv layer's training backward (input and
//!   weight gradients) computed from the image and `dY` directly,
//!   bit-identical to the im2col/GEMM/col2im composition.
//! * [`rng`] — deterministic weight initialisation (uniform, normal via
//!   Box–Muller, Kaiming fan-in scaling).
//! * [`parallel`] — scoped-thread `parallel_for_chunks` and `par_map`
//!   used by the GEMM, the batch loops and the library generator.
//! * [`workspace`] — pooled scratch buffers so the steady-state training
//!   loop allocates nothing per batch.
//! * [`simd`] — `f32` kernels (a 16-lane AVX-512 GEMM panel, an 8-lane
//!   AVX2 one, and portable bodies, runtime-dispatched) behind the GEMM and
//!   the engine's elementwise hot loops; each elementwise kernel has one
//!   body, compiled for AVX2 too, bit-identical on every backend.
//! * [`int2`] — the bit-packed 2-bit integer GEMM (bit-plane packing +
//!   popcount inner product, FINN-MVTU style) that eval-mode quantized
//!   layers dispatch to, with the same AVX2/portable split.
//!
//! # Example
//!
//! ```
//! use adapex_tensor::Tensor;
//!
//! # fn main() -> Result<(), adapex_tensor::ShapeError> {
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::ones(&[2, 2]);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), &[3.0, 3.0, 7.0, 7.0]);
//! # Ok(())
//! # }
//! ```

pub mod conv;
pub mod conv_grad;
pub mod gemm;
pub mod int2;
pub mod parallel;
pub mod rng;
pub mod simd;
pub mod workspace;
mod shape;
mod tensor;

pub use shape::{Shape, ShapeError};
pub use tensor::Tensor;
