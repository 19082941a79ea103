//! Quantization-aware CNN training and inference with early exits.
//!
//! This crate is the reproduction's stand-in for the Brevitas/PyTorch
//! stack the AdaPEx paper builds on: a small, from-scratch CPU engine
//! that can
//!
//! * define CNV-style quantized CNNs ([`cnv`]) with 2-bit fake-quantized
//!   weights and activations ([`quant`], straight-through estimator),
//! * attach **early-exit branches** anywhere along the backbone
//!   ([`EarlyExitNetwork`], [`ExitsConfig`]) and train all exits jointly
//!   with the BranchyNet weighted loss (paper Sec. IV-A1),
//! * evaluate early-exit inference under a **confidence threshold**
//!   ([`eval`]), reporting per-exit accuracies and exit-taken fractions.
//!
//! The numeric kernels live in [`adapex_tensor`]; synthetic datasets in
//! [`adapex_dataset`].
//!
//! # Example
//!
//! ```
//! use adapex_dataset::{DatasetKind, SyntheticConfig};
//! use adapex_nn::cnv::{CnvConfig, ExitsConfig};
//! use adapex_nn::train::{Trainer, TrainConfig};
//!
//! let data = SyntheticConfig::new(DatasetKind::Cifar10Like)
//!     .with_sizes(60, 20)
//!     .generate();
//! let mut net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 1);
//! let trainer = Trainer::new(TrainConfig { epochs: 1, ..TrainConfig::fast() });
//! trainer.fit(&mut net, &data, 42);
//! // One inference pass; thresholds and per-exit accuracies are then
//! // cheap post-processing on the ExitEvaluation.
//! let eval = adapex_nn::eval::evaluate_exits(&mut net, &data.test);
//! let report = eval.at_threshold(0.5);
//! assert!(report.accuracy >= 0.0 && report.accuracy <= 1.0);
//! assert!(eval.exit_accuracy(eval.num_exits() - 1) >= 0.0);
//! ```

pub mod checkpoint;
pub mod cnv;
pub mod eval;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod network;
pub mod optim;
pub mod quant;
pub mod serve;
mod streamline;
pub mod train;

pub use cnv::{CnvConfig, ExitsConfig};
pub use network::{EarlyExitNetwork, ExitBranch, LayerInfo};
