//! AdaPEx — Adaptive Pruning of Early-Exit CNNs (DATE 2023 reproduction).
//!
//! AdaPEx is a two-step framework (paper Fig. 3):
//!
//! 1. **Design time** — the [`generator::LibraryGenerator`] trains an
//!    early-exit CNV, sweeps the pruning rate (dataflow-aware, both
//!    pruned- and not-pruned-exit modes), compiles every variant to a
//!    FINN-style dataflow accelerator, and characterizes each one at
//!    every confidence threshold. The result is the [`library::Library`]
//!    — the paper's table of models × accelerators × operating points.
//! 2. **Runtime** — the [`runtime::RuntimeManager`] watches the incoming
//!    inference rate and, under a user accuracy threshold, retunes the
//!    confidence threshold (free) or switches the pruned accelerator
//!    (a full FPGA reconfiguration, ~145 ms) to keep up with the
//!    workload at the highest accuracy the library affords.
//!
//! The [`baselines`] module builds the paper's three comparison systems
//! (FINN, PR-Only, CT-Only) from the same artifacts.
//!
//! # Example: generate a small library and adapt at runtime
//!
//! ```no_run
//! use adapex::generator::{GeneratorConfig, LibraryGenerator};
//! use adapex::runtime::{RuntimeManager, SelectionPolicy};
//! use adapex_dataset::DatasetKind;
//!
//! let config = GeneratorConfig::fast(DatasetKind::Cifar10Like);
//! let artifacts = LibraryGenerator::new(config).generate();
//! let mut manager = RuntimeManager::new(
//!     artifacts.adapex.clone(),
//!     artifacts.reference_accuracy - 0.10,
//!     SelectionPolicy::ReconfigAware,
//! );
//! let decision = manager.decide(600.0);
//! println!("selected entry {} at CT {:.2}", decision.entry, decision.threshold);
//! ```

pub mod baselines;
pub mod cache;
pub mod generator;
pub mod library;
pub mod report;
pub mod runtime;
pub mod serve;

pub use cache::{ArtifactCache, CacheStats, CACHE_FORMAT_EPOCH, NUMERICS_VERSION};
pub use generator::{Artifacts, GeneratorConfig, LibraryGenerator};
pub use library::{Library, LibraryEntry, OperatingPoint};
pub use runtime::{Decision, MitigationConfig, RuntimeManager, SelectionPolicy};
pub use serve::{
    AdmissionPolicy, Arrival, ArrivalPattern, PointServiceModel, ServeConfig, ServeEngine,
    ServeReport, ServeSim, ServiceModel, SloClass,
};
