//! Design-time library generation (paper Sec. IV-A, Fig. 3 left).
//!
//! The generator reproduces AdaPEx's pipeline end to end:
//!
//! 1. **Early-Exit Training** — build CNV, attach the configured exits,
//!    train all exits jointly.
//! 2. **Dataflow-Aware Pruning** — sweep the pruning rate at fixed steps
//!    in both exit-pruning modes, retraining each variant; pruning
//!    amounts respect the PE/SIMD folding of the user's FINN
//!    configuration, which is derived **once** from the unpruned model
//!    and reused verbatim by every variant.
//! 3. **CNN Compilation & HLS Synthesis** — compile every variant to a
//!    FINN-style dataflow accelerator and extract throughput, latency,
//!    resources and power.
//! 4. **Library creation** — characterize every model at every
//!    confidence threshold into [`Library`] rows.
//!
//! The same pass also produces the paper's baselines: a plain CNV for
//! the original-FINN baseline and a pruned-plain sweep for PR-Only.

use crate::cache::{fingerprint, ArtifactCache, CacheStats};
use crate::library::{Library, LibraryEntry, OperatingPoint};
use adapex_dataset::{DatasetKind, SyntheticConfig, SyntheticDataset};
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::eval::{evaluate_exits_with, EvalConfig};
use adapex_nn::network::{EarlyExitNetwork, LayerInfo, NetworkSummary};
use adapex_nn::train::{TrainConfig, Trainer};
use adapex_prune::{ConstraintMap, LayerConstraint, PruneConfig, Pruner};
use adapex_tensor::parallel::par_map;
use finn_dataflow::{compile, Accelerator, FoldingConfig, FpgaDevice, IrOp, ModelIr};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Everything the library generator needs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Dataset family.
    pub kind: DatasetKind,
    /// Dataset synthesis parameters.
    pub dataset: SyntheticConfig,
    /// CNV width/precision.
    pub cnv: CnvConfig,
    /// Exit placement and loss weights.
    pub exits: ExitsConfig,
    /// Initial joint training.
    pub train: TrainConfig,
    /// Post-pruning retraining (the paper retrains every pruned model).
    pub retrain: TrainConfig,
    /// Pruning rates to sweep (paper: 0–85 % in 5 % steps).
    pub pruning_rates: Vec<f64>,
    /// Exit-pruning modes to sweep (paper compares both).
    pub exit_prune_modes: Vec<bool>,
    /// Confidence-threshold step (paper: 5 %).
    pub ct_step: f64,
    /// Folding cycle budget for the unpruned accelerator.
    pub folding_target_cycles: u64,
    /// Extra folding speed for pre-junction layers (see
    /// [`FoldingConfig::balanced`]).
    pub pre_junction_speedup: f64,
    /// Accelerator clock in MHz (paper: 100 MHz).
    pub clock_mhz: f64,
    /// Master seed.
    pub seed: u64,
    /// Print progress to stderr while generating.
    pub verbose: bool,
    /// Worker threads for the variant sweep: 0 = auto (available
    /// parallelism), 1 = sequential. Excluded from serialization so the
    /// artifacts a run produces are byte-identical whatever the job
    /// count was (the sweep itself is order- and thread-invariant; see
    /// [`LibraryGenerator::generate`]).
    #[serde(skip)]
    pub jobs: usize,
    /// Root of the persistent artifact cache (see [`crate::cache`]);
    /// `None` (the default) disables caching entirely. Excluded from
    /// serialization for the same reason as `jobs`: cached and uncached
    /// runs produce byte-identical artifacts, so the knob must not leak
    /// into them.
    #[serde(skip)]
    pub cache_dir: Option<PathBuf>,
}

impl GeneratorConfig {
    /// Full reproduction profile: 18 pruning rates × both exit modes ×
    /// 21 thresholds, at the calibrated training scale.
    pub fn repro_default(kind: DatasetKind) -> Self {
        let classes = kind.num_classes();
        // Keep samples-per-class comparable across the 10- and 43-class
        // datasets (GTSRB gets slightly fewer per class to bound the
        // single-core sweep time); GTSRB also needs more epochs.
        let (train_size, epochs, retrain_epochs) = match kind {
            DatasetKind::Cifar10Like => (120 * classes, 10, 2),
            DatasetKind::GtsrbLike => (100 * classes, 14, 2),
        };
        GeneratorConfig {
            kind,
            dataset: SyntheticConfig::new(kind).with_sizes(train_size, 500),
            cnv: CnvConfig::scaled(8),
            exits: ExitsConfig::paper_default(),
            train: TrainConfig {
                epochs,
                ..TrainConfig::repro_default()
            },
            retrain: TrainConfig {
                epochs: retrain_epochs,
                lr: 0.005,
                ..TrainConfig::repro_default()
            },
            pruning_rates: (0..18).map(|i| i as f64 * 0.05).collect(),
            exit_prune_modes: vec![false, true],
            ct_step: 0.05,
            folding_target_cycles: 235_000,
            pre_junction_speedup: 2.0,
            clock_mhz: 100.0,
            seed: 42,
            verbose: false,
            jobs: 0,
            cache_dir: None,
        }
    }

    /// Small profile for tests and quick demos: fewer rates, coarser
    /// thresholds, a tiny network and dataset.
    pub fn fast(kind: DatasetKind) -> Self {
        let classes = kind.num_classes();
        GeneratorConfig {
            kind,
            dataset: SyntheticConfig::new(kind).with_sizes(24 * classes, 120),
            cnv: CnvConfig::scaled(4),
            exits: ExitsConfig::paper_default(),
            train: TrainConfig {
                epochs: 3,
                ..TrainConfig::fast()
            },
            retrain: TrainConfig {
                epochs: 1,
                ..TrainConfig::fast()
            },
            pruning_rates: vec![0.0, 0.3, 0.6],
            exit_prune_modes: vec![false],
            ct_step: 0.25,
            folding_target_cycles: 60_000,
            pre_junction_speedup: 2.0,
            clock_mhz: 100.0,
            seed: 42,
            verbose: false,
            jobs: 0,
            cache_dir: None,
        }
    }

    /// The configuration of a named profile: `"repro"`
    /// ([`GeneratorConfig::repro_default`]) or `"fast"`
    /// ([`GeneratorConfig::fast`]).
    pub fn for_profile(profile: &str, kind: DatasetKind) -> Result<Self, String> {
        match profile {
            "repro" => Ok(GeneratorConfig::repro_default(kind)),
            "fast" => Ok(GeneratorConfig::fast(kind)),
            other => Err(format!("unknown profile `{other}` (fast|repro)")),
        }
    }

    /// Enables the persistent artifact cache rooted at `dir`.
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// The confidence thresholds swept per entry: multiples of
    /// `ct_step` from 0.0 up to and including 1.0. When `ct_step` does
    /// not divide 1.0, the last regular step is followed by exactly 1.0
    /// so the sweep always covers both documented bounds.
    ///
    /// Values are computed as `i * ct_step` (not by accumulation), so
    /// the sequence is strictly increasing with no float-drift
    /// duplicates.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ct_step <= 1`.
    pub fn thresholds(&self) -> Vec<f64> {
        assert!(
            self.ct_step > 0.0 && self.ct_step <= 1.0,
            "ct_step must be in (0, 1], got {}",
            self.ct_step
        );
        // Number of whole steps that fit in [0, 1]; the epsilon absorbs
        // cases like 1.0/0.05 landing at 19.999999999999996.
        let n = (1.0 / self.ct_step + 1e-9).floor() as usize;
        let mut out: Vec<f64> = (0..=n).map(|i| (i as f64 * self.ct_step).min(1.0)).collect();
        let last = out.last_mut().expect("n >= 0 yields at least one value");
        if (*last - 1.0).abs() <= 1e-9 {
            // A dividing step whose n-th multiple misses 1.0 only by
            // representation error (e.g. ct_step = 1/3) snaps onto the
            // documented upper bound.
            *last = 1.0;
        } else {
            out.push(1.0);
        }
        out
    }

    /// Resolves [`GeneratorConfig::jobs`] to a concrete worker count:
    /// the value itself when positive, otherwise the machine's
    /// available parallelism.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        }
    }
}

/// Everything the design-time step produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Artifacts {
    /// Dataset family.
    pub kind: DatasetKind,
    /// The AdaPEx library: pruned early-exit models, both exit modes.
    pub adapex: Library,
    /// Pruned plain (single-exit) models — the PR-Only baseline's
    /// library; its rate-0 entry is the original-FINN baseline.
    pub pr_only: Library,
    /// Final-exit accuracy of the unpruned plain CNV — the reference
    /// the user accuracy threshold is counted from.
    pub reference_accuracy: f64,
    /// Full-reconfiguration time of the target device in milliseconds.
    pub reconfig_time_ms: f64,
    /// The configuration that produced these artifacts.
    pub config: GeneratorConfig,
}

impl Artifacts {
    /// The original-FINN baseline: the unpruned plain CNV only.
    pub fn finn(&self) -> Library {
        Library {
            entries: self
                .pr_only
                .entries
                .iter()
                .filter(|e| e.pruning_rate == 0.0)
                .cloned()
                .collect(),
        }
    }

    /// The CT-Only baseline: the unpruned early-exit CNV (not-pruned
    /// exits), confidence threshold as the only knob.
    pub fn ct_only(&self) -> Library {
        Library {
            entries: self
                .adapex
                .entries
                .iter()
                .filter(|e| e.pruning_rate == 0.0 && !e.prune_exits)
                .cloned()
                .collect(),
        }
    }

    /// Serializes to pretty JSON.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the file cannot be written.
    pub fn save_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads artifacts from JSON.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the file cannot be read or parsed, or
    /// when it cannot build all four systems: a library is empty, an
    /// entry has no operating point, or the FINN or CT-Only entry is
    /// missing.
    pub fn load_json(path: impl AsRef<Path>) -> io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        let artifacts: Artifacts = serde_json::from_str(&json).map_err(io::Error::other)?;
        artifacts
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("artifacts: {e}")))?;
        Ok(artifacts)
    }

    /// What `RuntimeManager::new` needs of every system's library.
    fn validate(&self) -> Result<(), String> {
        for (name, library) in [("adapex", &self.adapex), ("pr_only", &self.pr_only)] {
            if library.is_empty() {
                return Err(format!("library `{name}` has no entries"));
            }
            if let Some((i, e)) = library
                .entries
                .iter()
                .enumerate()
                .find(|(_, e)| e.points.is_empty())
            {
                return Err(format!(
                    "library `{name}` entry {i} (id {}) has no operating points",
                    e.id
                ));
            }
        }
        if self.finn().is_empty() {
            return Err("library `pr_only` has no rate-0 entry (the FINN baseline)".into());
        }
        if self.ct_only().is_empty() {
            return Err(
                "library `adapex` has no rate-0 entry with unpruned exits (the CT-Only baseline)"
                    .into(),
            );
        }
        Ok(())
    }
}

/// The design-time library generator.
#[derive(Debug, Clone)]
pub struct LibraryGenerator {
    config: GeneratorConfig,
    device: FpgaDevice,
}

impl LibraryGenerator {
    /// New generator targeting the ZCU104 (the paper's board).
    pub fn new(config: GeneratorConfig) -> Self {
        LibraryGenerator {
            config,
            device: FpgaDevice::zcu104(),
        }
    }

    /// Runs the full design-time pipeline (see module docs).
    ///
    /// The two base networks train sequentially; the PR-Only and
    /// AdaPEx variant sweeps then fan out over
    /// [`GeneratorConfig::jobs`] workers. Every variant derives its
    /// retrain seed from `(seed, id)` and shares only immutable state
    /// with its siblings, so the returned artifacts are byte-identical
    /// for every job count (`jobs = 1` *is* the sequential sweep).
    ///
    /// With [`GeneratorConfig::cache_dir`] set, every work product is
    /// first looked up in the content-addressed [`ArtifactCache`];
    /// because checkpoints preserve `f32` bits and the JSON codec
    /// round-trips floats exactly, cache hits produce byte-identical
    /// artifacts to recomputation. The dataset and the base networks
    /// are produced lazily, on first demand: a fully warm run never
    /// draws an image, never trains and never instantiates a network:
    /// folding and pruning constraints derive from the CNV's layer table
    /// ([`CnvConfig::summary`]). It pays for the fingerprints and one
    /// file read per finished entry plus one for the reference model's
    /// evaluation (13 for a 12-entry library).
    ///
    /// # Panics
    ///
    /// Panics if a generated variant fails to compile to the device —
    /// that indicates an internal inconsistency between the pruner's
    /// constraints and the folding configuration.
    pub fn generate(&self) -> Artifacts {
        self.generate_with_stats().0
    }

    /// [`LibraryGenerator::generate`] plus the cache hit/miss counters
    /// of this run (all zero when caching is disabled).
    pub fn generate_with_stats(&self) -> (Artifacts, CacheStats) {
        let cfg = &self.config;
        let cache = cfg.cache_dir.as_ref().map(ArtifactCache::new);
        let cache = cache.as_ref();
        // Four consumers need pixels: base training, the reference
        // evaluation, a variant's retrain and a variant's evaluation.
        // Each reaches them through this cell, so the dataset is drawn
        // once if any of them misses the cache and never otherwise.
        let data = Lazy::new(Box::new(|| cfg.dataset.generate()));
        let thresholds = cfg.thresholds();
        let jobs = cfg.effective_jobs();
        // Evaluations nested inside a fanned-out sweep stay sequential
        // (the sweep already saturates the workers); a sequential sweep
        // lets each evaluation parallelize over batches instead.
        let eval_jobs = if jobs > 1 { 1 } else { 0 };

        // --- Plain CNV: FINN baseline + PR-Only sweep. -----------------
        // Folding and constraints depend only on layer shapes, never on
        // weights, so they derive from the CNV's layer table; the
        // trained network itself is produced lazily (train or cached
        // checkpoint) the first time something actually needs weights.
        // No exits, so no junction bias.
        let (plain_folding, plain_constraints) = self.shape_plan(None, 1.0);
        let plain_fp = fingerprint("model", &BaseModelKey::plain(cfg));
        let plain = Lazy::new(Box::new(|| self.trained_base(None, &data, cache, &plain_fp)));

        // The plain CNV has one exit, the final one.
        let plain_eval = cache.and_then(|c| c.load_eval(&plain_fp, 1, cfg.dataset.test_size));
        let reference_accuracy = match plain_eval {
            Some(eval) => eval.exit_accuracy(0),
            None => {
                let mut net = plain.get().clone();
                let eval =
                    evaluate_exits_with(&mut net, &data.get().test, EvalConfig::default());
                if let Some(c) = cache {
                    c.store_eval(&plain_fp, &eval);
                }
                eval.exit_accuracy(0)
            }
        };

        // Each variant is a pure function of its id (its retrain seed
        // derives from `(cfg.seed, id)` and every kernel is
        // thread-count-invariant), so the sweep fans out over `jobs`
        // workers while `par_map` keeps the entries in id order — the
        // artifacts are byte-identical to the sequential `jobs = 1` run.
        self.log(&format!("sweeping variants on {jobs} worker(s)"));

        let mut pr_only = Library::new();
        pr_only.entries = par_map(cfg.pruning_rates.len(), jobs, |i| {
            let rate = cfg.pruning_rates[i];
            self.log(&format!("PR-Only: pruning rate {:.0}%", rate * 100.0));
            self.build_entry(
                i,
                &plain,
                &plain_fp,
                rate,
                false,
                &plain_constraints,
                &plain_folding,
                &data,
                &[1.0], // single exit: one "threshold"
                cache,
                eval_jobs,
            )
        });

        // --- Early-exit CNV: AdaPEx library (and CT-Only via rate 0). --
        let (ee_folding, ee_constraints) =
            self.shape_plan(Some(&cfg.exits), cfg.pre_junction_speedup);
        let ee_fp = fingerprint("model", &BaseModelKey::early_exit(cfg));
        let ee = Lazy::new(Box::new(|| {
            self.trained_base(Some(&cfg.exits), &data, cache, &ee_fp)
        }));

        // Flatten the (mode, rate) grid in the same order the
        // sequential loops walked it, so ids — and with them the
        // per-variant retrain seeds — are unchanged.
        let variants: Vec<(bool, f64)> = cfg
            .exit_prune_modes
            .iter()
            .flat_map(|&prune_exits| cfg.pruning_rates.iter().map(move |&rate| (prune_exits, rate)))
            .collect();
        let mut adapex = Library::new();
        adapex.entries = par_map(variants.len(), jobs, |id| {
            let (prune_exits, rate) = variants[id];
            self.log(&format!(
                "AdaPEx: rate {:.0}% (prune_exits={prune_exits})",
                rate * 100.0
            ));
            self.build_entry(
                id,
                &ee,
                &ee_fp,
                rate,
                prune_exits,
                &ee_constraints,
                &ee_folding,
                &data,
                &thresholds,
                cache,
                eval_jobs,
            )
        });

        let artifacts = Artifacts {
            kind: cfg.kind,
            adapex,
            pr_only,
            reference_accuracy,
            reconfig_time_ms: self.device.reconfig_time_ms(),
            config: cfg.clone(),
        };
        let stats = cache.map(|c| c.stats()).unwrap_or_default();
        (artifacts, stats)
    }

    /// The balanced folding of one base network and the pruner's
    /// constraints under it (`exits = None`: the plain CNV). Both read
    /// layer shapes only, so they derive from [`CnvConfig::summary`]
    /// without instantiating the network.
    fn shape_plan(
        &self,
        exits: Option<&ExitsConfig>,
        pre_junction_speedup: f64,
    ) -> (FoldingConfig, ConstraintMap) {
        let cfg = &self.config;
        let summary = cfg.cnv.summary(cfg.kind.num_classes(), exits);
        let ir = ModelIr::from_summary(&summary);
        let folding = FoldingConfig::balanced(&ir, cfg.folding_target_cycles, pre_junction_speedup);
        let constraints = constraints_for(&summary, &ir, &folding);
        (folding, constraints)
    }

    /// Produces one trained base network: loaded from its cached
    /// checkpoint when intact, trained (and stored) otherwise.
    /// `exits = None` builds the plain CNV, `Some` the early-exit CNV.
    fn trained_base(
        &self,
        exits: Option<&ExitsConfig>,
        data: &Lazy<'_, SyntheticDataset>,
        cache: Option<&ArtifactCache>,
        fp: &str,
    ) -> EarlyExitNetwork {
        let cfg = &self.config;
        let classes = cfg.kind.num_classes();
        let (mut net, train, fit_seed, what) = match exits {
            None => (
                cfg.cnv.build(classes, cfg.seed),
                cfg.train.clone(),
                cfg.seed ^ 0x1,
                "plain CNV (FINN / PR-Only baseline)",
            ),
            Some(e) => {
                let net = cfg.cnv.build_early_exit(classes, e, cfg.seed);
                let train = TrainConfig {
                    exit_loss_weights: Some(e.loss_weights(net.num_exits())),
                    ..cfg.train.clone()
                };
                (net, train, cfg.seed ^ 0x2, "early-exit CNV (joint loss)")
            }
        };
        if let Some(c) = cache {
            if c.load_checkpoint_into(fp, &mut net) {
                self.log(&format!("loaded cached {what}"));
                return net;
            }
        }
        self.log(&format!("training {what}"));
        Trainer::new(train).fit(&mut net, data.get(), fit_seed);
        if let Some(c) = cache {
            c.store_checkpoint(fp, &net);
        }
        net
    }

    /// Prunes (if `rate > 0`), retrains, evaluates and synthesizes one
    /// library entry.
    ///
    /// With a cache attached the lookups go finest-grained first: a hit
    /// on the finished entry returns immediately; otherwise a hit on
    /// the variant's trained checkpoint skips the retrain (pruning the
    /// base to recover the architecture is cheap and deterministic) and
    /// only the evaluation/synthesis re-run; a miss recomputes
    /// everything and populates all levels.
    #[allow(clippy::too_many_arguments)]
    fn build_entry(
        &self,
        id: usize,
        base: &Lazy<'_, EarlyExitNetwork>,
        base_fp: &str,
        rate: f64,
        prune_exits: bool,
        constraints: &ConstraintMap,
        folding: &FoldingConfig,
        data: &Lazy<'_, SyntheticDataset>,
        thresholds: &[f64],
        cache: Option<&ArtifactCache>,
        eval_jobs: usize,
    ) -> LibraryEntry {
        let cfg = &self.config;
        let stem = cache.map(|_| {
            fingerprint(
                "variant",
                &VariantKey {
                    base: base_fp,
                    id,
                    rate,
                    prune_exits,
                    retrain: &cfg.retrain,
                    exits: &cfg.exits,
                    folding,
                    device: &self.device,
                    clock_mhz: cfg.clock_mhz,
                    seed: cfg.seed,
                },
            )
        });
        if let (Some(c), Some(stem)) = (cache, stem.as_deref()) {
            let entry_fp = fingerprint("entry", &EntryKey { stem, thresholds });
            if let Some(entry) = c.load_entry(&entry_fp, id, thresholds.len()) {
                return entry;
            }
        }

        let (mut net, achieved_rate) = if rate > 0.0 {
            let pruner = Pruner::new(PruneConfig { rate, prune_exits });
            let (mut pruned, report) = pruner.prune(base.get(), constraints);
            let cached_ckpt = match (cache, stem.as_deref()) {
                (Some(c), Some(stem)) => c.load_checkpoint_into(stem, &mut pruned),
                _ => false,
            };
            if !cached_ckpt {
                let retrain = TrainConfig {
                    exit_loss_weights: Some(cfg.exits.loss_weights(pruned.num_exits())),
                    ..cfg.retrain.clone()
                };
                Trainer::new(retrain).fit(&mut pruned, data.get(), cfg.seed ^ (id as u64) << 8);
                if let (Some(c), Some(stem)) = (cache, stem.as_deref()) {
                    c.store_checkpoint(stem, &pruned);
                }
            }
            (pruned, report.overall_rate())
        } else {
            (base.get().clone(), 0.0)
        };

        let acc = self.synthesize(&net, folding);
        let eval_cfg = EvalConfig {
            jobs: eval_jobs,
            ..EvalConfig::default()
        };
        let eval = match (cache, stem.as_deref()) {
            (Some(c), Some(stem)) => c
                .load_eval(stem, net.num_exits(), cfg.dataset.test_size)
                .unwrap_or_else(|| {
                    let eval = evaluate_exits_with(&mut net, &data.get().test, eval_cfg);
                    c.store_eval(stem, &eval);
                    eval
                }),
            _ => evaluate_exits_with(&mut net, &data.get().test, eval_cfg),
        };
        let points = thresholds
            .iter()
            .map(|&ct| {
                let report = eval.at_threshold(ct as f32);
                let perf = acc.performance(&report.exit_fractions);
                OperatingPoint {
                    confidence_threshold: ct,
                    accuracy: report.accuracy,
                    exit_fractions: report.exit_fractions,
                    ips: perf.ips,
                    avg_latency_ms: perf.avg_latency_ms,
                    power_w: perf.power_w,
                    energy_per_inference_mj: perf.energy_per_inference_mj,
                }
            })
            .collect();
        let report = acc.report();
        let exit_resources = (0..acc.graph().exits.len())
            .map(|e| acc.graph().segment_resources(finn_dataflow::graph::Segment::Exit(e)))
            .fold(finn_dataflow::ResourceUsage::zero(), |a, b| a + b);
        let entry = LibraryEntry {
            id,
            pruning_rate: rate,
            achieved_rate,
            prune_exits,
            mean_exit_accuracy: eval.mean_exit_accuracy(),
            final_exit_accuracy: eval.exit_accuracy(eval.num_exits() - 1),
            resources: report.resources,
            exit_resources,
            utilization: report.utilization,
            static_ips: report.throughput_ips,
            latency_to_exit_ms: report.latency_to_exit_ms.clone(),
            points,
        };
        if let (Some(c), Some(stem)) = (cache, stem.as_deref()) {
            let entry_fp = fingerprint("entry", &EntryKey { stem, thresholds });
            c.store_entry(&entry_fp, &entry);
        }
        entry
    }

    /// Compiles a network against the shared folding configuration.
    fn synthesize(&self, net: &EarlyExitNetwork, folding: &FoldingConfig) -> Accelerator {
        let ir = ModelIr::from_summary(&net.summarize());
        compile(&ir, folding, &self.device, self.config.clock_mhz)
            .expect("generated variant must compile: pruner constraints and folding agree")
    }

    fn log(&self, msg: &str) {
        if self.config.verbose {
            eprintln!("[adapex-gen:{}] {msg}", self.config.kind.id());
        }
    }
}

/// A value computed at most once, on first demand: the dataset, or a
/// base network trained (or loaded) on it.
///
/// Sweep workers share one `Lazy` per value; `OnceLock` makes the first
/// `get` run the initializer while concurrent callers block, so workers
/// that race for it see one computation, and a fully cache-warm sweep —
/// where nothing needs pixels or weights — never draws the dataset or
/// trains a base network.
struct Lazy<'a, T> {
    cell: OnceLock<T>,
    init: Box<dyn Fn() -> T + Send + Sync + 'a>,
}

impl<'a, T> Lazy<'a, T> {
    fn new(init: Box<dyn Fn() -> T + Send + Sync + 'a>) -> Self {
        Lazy {
            cell: OnceLock::new(),
            init,
        }
    }

    fn get(&self) -> &T {
        self.cell.get_or_init(|| (self.init)())
    }
}

/// Cache key of one trained base network. Covers everything its weights
/// depend on: the dataset (train split content and seed), architecture,
/// training recipe and the master seed the fit seed derives from.
struct BaseModelKey<'a> {
    role: &'static str,
    kind: DatasetKind,
    dataset: &'a SyntheticConfig,
    cnv: &'a CnvConfig,
    exits: Option<&'a ExitsConfig>,
    train: &'a TrainConfig,
    seed: u64,
}

impl<'a> BaseModelKey<'a> {
    fn plain(cfg: &'a GeneratorConfig) -> Self {
        BaseModelKey {
            role: "plain",
            kind: cfg.kind,
            dataset: &cfg.dataset,
            cnv: &cfg.cnv,
            exits: None,
            train: &cfg.train,
            seed: cfg.seed,
        }
    }

    fn early_exit(cfg: &'a GeneratorConfig) -> Self {
        BaseModelKey {
            exits: Some(&cfg.exits),
            role: "early-exit",
            ..BaseModelKey::plain(cfg)
        }
    }
}

/// Cache key of one sweep variant's model/eval/report artifacts.
///
/// `base` is the base model's fingerprint (hash chaining: everything
/// that shaped the base weights is inherited). `id` is the variant's
/// position in the sweep — the retrain seed derives from `(seed, id)`,
/// so appending rates to a sweep preserves existing ids (hits) while
/// reordering changes them (correct misses). The folding/device/clock
/// parameters are included because pruning constraints derive from the
/// folding and synthesis numbers depend on all three. Thresholds are
/// *excluded*: they only shape the finished entry (see [`EntryKey`]),
/// so a `ct_step` change still reuses checkpoints and evaluations.
struct VariantKey<'a> {
    base: &'a str,
    id: usize,
    rate: f64,
    prune_exits: bool,
    retrain: &'a TrainConfig,
    exits: &'a ExitsConfig,
    folding: &'a FoldingConfig,
    device: &'a FpgaDevice,
    clock_mhz: f64,
    seed: u64,
}

/// Cache key of one finished [`LibraryEntry`]: the variant stem plus
/// the exact threshold sweep baked into its operating points.
struct EntryKey<'a> {
    stem: &'a str,
    thresholds: &'a [f64],
}

// The vendored serde derive does not support lifetime-generic types, so
// the key structs build their `Value` trees by hand. Field order is the
// declaration order above — part of the fingerprint format, covered by
// `CACHE_FORMAT_EPOCH`.
impl Serialize for BaseModelKey<'_> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("role".to_string(), self.role.to_value()),
            ("kind".to_string(), self.kind.to_value()),
            ("dataset".to_string(), self.dataset.to_value()),
            ("cnv".to_string(), self.cnv.to_value()),
            ("exits".to_string(), self.exits.to_value()),
            ("train".to_string(), self.train.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ])
    }
}

impl Serialize for VariantKey<'_> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("base".to_string(), self.base.to_value()),
            ("id".to_string(), self.id.to_value()),
            ("rate".to_string(), self.rate.to_value()),
            ("prune_exits".to_string(), self.prune_exits.to_value()),
            ("retrain".to_string(), self.retrain.to_value()),
            ("exits".to_string(), self.exits.to_value()),
            ("folding".to_string(), self.folding.to_value()),
            ("device".to_string(), self.device.to_value()),
            ("clock_mhz".to_string(), self.clock_mhz.to_value()),
            ("seed".to_string(), self.seed.to_value()),
        ])
    }
}

impl Serialize for EntryKey<'_> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("stem".to_string(), self.stem.to_value()),
            ("thresholds".to_string(), self.thresholds.to_value()),
        ])
    }
}

/// Derives the pruner's constraint map from the folding configuration:
/// every conv's PE, and the lcm of the SIMD lanes of all consumers of
/// its output stream (next backbone matrix node plus any exit conv
/// forking at its junction).
pub fn derive_constraints(net: &EarlyExitNetwork, folding: &FoldingConfig) -> ConstraintMap {
    let summary = net.summarize();
    constraints_for(&summary, &ModelIr::from_summary(&summary), folding)
}

/// [`derive_constraints`] on a network's summary and the IR built from it.
fn constraints_for(
    summary: &NetworkSummary,
    ir: &ModelIr,
    folding: &FoldingConfig,
) -> ConstraintMap {
    let mut map = ConstraintMap::uniform(1, 1);

    // Pair nn backbone conv layer indices with IR conv nodes (same order).
    let nn_conv_layers: Vec<usize> = summary
        .backbone
        .iter()
        .enumerate()
        .filter_map(|(i, l)| matches!(l, LayerInfo::Conv { .. }).then_some(i))
        .collect();
    let ir_conv_nodes: Vec<usize> = ir
        .backbone
        .iter()
        .enumerate()
        .filter_map(|(i, n)| matches!(n.op, IrOp::Conv { .. }).then_some(i))
        .collect();
    assert_eq!(
        nn_conv_layers.len(),
        ir_conv_nodes.len(),
        "IR and network must agree on conv count"
    );

    let folding_of = |name: &str| {
        folding
            .get(name)
            .unwrap_or_else(|| panic!("folding must cover node {name}"))
    };

    for (&layer_idx, &node_idx) in nn_conv_layers.iter().zip(&ir_conv_nodes) {
        let pe = folding_of(&ir.backbone[node_idx].name).pe;
        // Consumers: next backbone matrix node...
        let mut simd_divisors: Vec<usize> = Vec::new();
        if let Some(next) = ir.backbone[node_idx + 1..]
            .iter()
            .find(|n| n.op.is_matrix_op())
        {
            simd_divisors.push(folding_of(&next.name).simd);
        }
        // ...plus the first matrix node of any exit forking between this
        // conv and the next matrix node.
        let next_matrix_idx = ir.backbone[node_idx + 1..]
            .iter()
            .position(|n| n.op.is_matrix_op())
            .map(|off| node_idx + 1 + off)
            .unwrap_or(ir.backbone.len());
        for exit in &ir.exits {
            if exit.attach_after >= node_idx && exit.attach_after < next_matrix_idx {
                if let Some(first) = exit.nodes.iter().find(|n| n.op.is_matrix_op()) {
                    simd_divisors.push(folding_of(&first.name).simd);
                }
            }
        }
        let simd_next = simd_divisors.into_iter().fold(1usize, lcm);
        map.backbone
            .insert(layer_idx, LayerConstraint::new(pe, simd_next));
    }

    // Exit convs: PE of the exit conv, SIMD of the exit's next matrix node.
    for (e, exit) in ir.exits.iter().enumerate() {
        let Some(conv) = exit.nodes.iter().find(|n| matches!(n.op, IrOp::Conv { .. })) else {
            continue;
        };
        let pe = folding_of(&conv.name).pe;
        let simd_next = exit
            .nodes
            .iter()
            .skip_while(|n| n.name != conv.name)
            .skip(1)
            .find(|n| n.op.is_matrix_op())
            .map(|n| folding_of(&n.name).simd)
            .unwrap_or(1);
        map.exits.insert(e, LayerConstraint::new(pe, simd_next));
    }
    map
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: usize, b: usize) -> usize {
    if a == 0 || b == 0 {
        a.max(b).max(1)
    } else {
        a / gcd(a, b) * b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_map_by_name() {
        let kind = DatasetKind::GtsrbLike;
        assert_eq!(GeneratorConfig::for_profile("fast", kind), Ok(GeneratorConfig::fast(kind)));
        assert_eq!(
            GeneratorConfig::for_profile("repro", kind),
            Ok(GeneratorConfig::repro_default(kind))
        );
        let err = GeneratorConfig::for_profile("quick", kind).unwrap_err();
        assert!(err.contains("`quick`"), "{err}");
    }

    #[test]
    fn fast_profile_generates_consistent_artifacts() {
        let mut cfg = GeneratorConfig::fast(DatasetKind::Cifar10Like);
        cfg.pruning_rates = vec![0.0, 0.5];
        let artifacts = LibraryGenerator::new(cfg.clone()).generate();
        // One entry per (rate, mode) for AdaPEx; one per rate for PR-Only.
        assert_eq!(artifacts.adapex.len(), 2);
        assert_eq!(artifacts.pr_only.len(), 2);
        assert_eq!(artifacts.finn().len(), 1);
        assert_eq!(artifacts.ct_only().len(), 1);
        assert!((0.0..=1.0).contains(&artifacts.reference_accuracy));
        assert!((artifacts.reconfig_time_ms - 145.0).abs() < 1.0);

        // Every EE entry carries the full threshold sweep.
        let thresholds = cfg.thresholds();
        for entry in &artifacts.adapex.entries {
            assert_eq!(entry.points.len(), thresholds.len());
            for p in &entry.points {
                assert!(p.ips > 0.0);
                assert!(p.power_w > 0.0);
                assert!((p.exit_fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        }
        // Pruning makes accelerators faster (static pipeline view).
        let e0 = &artifacts.adapex.entries[0];
        let e1 = &artifacts.adapex.entries[1];
        assert!(e1.achieved_rate > 0.0);
        assert!(e1.static_ips >= e0.static_ips);
        assert!(e1.resources.lut < e0.resources.lut);
    }

    /// Saves small artifacts every system can be built from, after
    /// `edit`, and loads them back; what loads is driven through all
    /// four systems, as `adapex-cli simulate --system all` does.
    fn load_edited(name: &str, edit: impl FnOnce(&mut Artifacts)) -> Result<(), String> {
        use crate::baselines::{manager_for, System};
        use crate::library::tests::entry;
        let library = || Library {
            entries: vec![
                entry(0, 0.0, 0.85, vec![(0.9, 0.86, 400.0), (0.3, 0.82, 520.0)]),
                entry(1, 0.5, 0.78, vec![(0.9, 0.80, 700.0)]),
            ],
        };
        let mut artifacts = Artifacts {
            kind: DatasetKind::Cifar10Like,
            adapex: library(),
            pr_only: library(),
            reference_accuracy: 0.9,
            reconfig_time_ms: 145.0,
            config: GeneratorConfig::fast(DatasetKind::Cifar10Like),
        };
        edit(&mut artifacts);
        let path = std::env::temp_dir().join(format!("adapex-{name}-{}.json", std::process::id()));
        artifacts.save_json(&path).expect("save");
        let loaded = Artifacts::load_json(&path);
        std::fs::remove_file(&path).ok();
        let loaded = loaded.map_err(|e| e.to_string())?;
        for system in System::all() {
            manager_for(system, &loaded, 0.10).decide(100.0);
        }
        Ok(())
    }

    #[test]
    fn an_empty_library_is_a_load_error() {
        let err = load_edited("empty-library", |a| a.adapex.entries.clear());
        assert_eq!(
            err.unwrap_err(),
            "artifacts: library `adapex` has no entries"
        );
    }

    #[test]
    fn an_entry_without_points_is_a_load_error() {
        let err = load_edited("pointless-entry", |a| a.adapex.entries[0].points.clear());
        assert_eq!(
            err.unwrap_err(),
            "artifacts: library `adapex` entry 0 (id 0) has no operating points"
        );
    }

    #[test]
    fn a_missing_baseline_entry_is_a_load_error() {
        let err = load_edited("no-finn", |a| {
            a.pr_only.entries.retain(|e| e.pruning_rate > 0.0)
        });
        assert_eq!(
            err.unwrap_err(),
            "artifacts: library `pr_only` has no rate-0 entry (the FINN baseline)"
        );
        let err = load_edited("no-ct-only", |a| a.adapex.entries[0].prune_exits = true);
        assert!(err.unwrap_err().contains("(the CT-Only baseline)"));
        load_edited("well-formed", |_| {}).expect("well-formed artifacts load and run");
    }

    #[test]
    fn thresholds_cover_both_bounds_in_order() {
        let mut cfg = GeneratorConfig::fast(DatasetKind::Cifar10Like);
        for ct_step in [0.05, 0.1, 0.2, 0.25, 0.5, 1.0, 0.3, 0.07, 1.0 / 3.0] {
            cfg.ct_step = ct_step;
            let ts = cfg.thresholds();
            assert_eq!(*ts.first().expect("non-empty"), 0.0, "step {ct_step}");
            assert_eq!(*ts.last().expect("non-empty"), 1.0, "step {ct_step}");
            // Strictly increasing — which also rules out duplicates
            // from float accumulation drift.
            for w in ts.windows(2) {
                assert!(w[0] < w[1], "step {ct_step}: {:?} not increasing", ts);
            }
            // Every interior value is a clean multiple of the step.
            for &t in &ts[..ts.len() - 1] {
                let steps = t / ct_step;
                assert!(
                    (steps - steps.round()).abs() < 1e-6,
                    "step {ct_step}: {t} is off-grid"
                );
            }
        }
    }

    #[test]
    fn thresholds_count_matches_dividing_steps() {
        let mut cfg = GeneratorConfig::fast(DatasetKind::Cifar10Like);
        // Dividing steps: 1/step + 1 values, no appended endpoint.
        cfg.ct_step = 0.05;
        assert_eq!(cfg.thresholds().len(), 21);
        cfg.ct_step = 0.25;
        assert_eq!(cfg.thresholds(), vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        // Non-dividing step: last regular value 0.9, then exactly 1.0.
        cfg.ct_step = 0.3;
        let ts = cfg.thresholds();
        assert_eq!(ts.len(), 5);
        assert!((ts[3] - 0.9).abs() < 1e-12);
        assert_eq!(ts[4], 1.0);
    }

    #[test]
    #[should_panic(expected = "ct_step must be in (0, 1]")]
    fn thresholds_reject_zero_step() {
        let mut cfg = GeneratorConfig::fast(DatasetKind::Cifar10Like);
        cfg.ct_step = 0.0;
        cfg.thresholds();
    }

    #[test]
    fn jobs_knob_resolves_and_stays_out_of_serialization() {
        let mut cfg = GeneratorConfig::fast(DatasetKind::Cifar10Like);
        assert_eq!(cfg.jobs, 0, "profiles default to auto");
        assert!(cfg.effective_jobs() >= 1);
        cfg.jobs = 3;
        assert_eq!(cfg.effective_jobs(), 3);
        // `jobs` must not leak into the serialized form: artifacts
        // produced at different job counts stay byte-identical.
        let json = serde_json::to_string(&cfg).expect("serialize");
        assert!(!json.contains("\"jobs\""));
        let back: GeneratorConfig = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.jobs, 0, "deserialized configs fall back to auto");
    }

    #[test]
    fn racing_workers_see_one_lazy_computation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let runs = AtomicUsize::new(0);
        let lazy = Lazy::new(Box::new(|| {
            runs.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(5));
            vec![7_u8; 3]
        }));
        let seen = par_map(16, 4, |_| lazy.get().as_ptr() as usize);
        assert_eq!(runs.load(Ordering::SeqCst), 1, "racing workers drew twice");
        assert!(seen.iter().all(|&p| p == seen[0]), "workers saw different values");
    }

    #[test]
    fn derived_constraints_match_folding() {
        use adapex_nn::cnv::{CnvConfig, ExitsConfig};
        use adapex_nn::layers::Layer;
        let net = CnvConfig::scaled(8).build_early_exit(10, &ExitsConfig::paper_default(), 1);
        let ir = ModelIr::from_summary(&net.summarize());
        let folding = FoldingConfig::balanced(&ir, 100_000, 2.0);
        let constraints = derive_constraints(&net, &folding);
        // Every backbone conv got a constraint.
        let conv_count = net
            .backbone
            .iter()
            .filter(|l| matches!(l, Layer::Conv(_)))
            .count();
        assert_eq!(constraints.backbone.len(), conv_count);
        // Exit constraints exist for both exits.
        assert_eq!(constraints.exits.len(), 2);
        // The conv at the first junction must respect the exit conv's
        // SIMD too: its simd_next is a multiple of it.
        let exit0_conv_simd = folding.get("exit0_conv1").expect("exit conv folded").simd;
        let junction_constraint = constraints.for_backbone(3); // conv2 layer index
        assert_eq!(junction_constraint.simd_next % exit0_conv_simd, 0);
    }

    #[test]
    fn layer_table_summary_matches_built_networks() {
        // One topology: the weight-free summary the generator plans from
        // must be exactly what a built network reports, and so must the
        // pruner constraints derived from it.
        use adapex_nn::cnv::{CnvConfig, ExitsConfig};
        let exit_sets: [&[usize]; 5] = [&[], &[1], &[2], &[1, 2], &[2, 1]];
        for width in 1..=16 {
            let cnv = CnvConfig::scaled(width);
            for classes in [10, 43] {
                let plain = cnv.build(classes, 5);
                let what = format!("w{width} c{classes} plain");
                assert_eq!(cnv.summary(classes, None), plain.summarize(), "{what}");
                for after_blocks in exit_sets {
                    let exits = ExitsConfig {
                        after_blocks: after_blocks.to_vec(),
                        ..ExitsConfig::paper_default()
                    };
                    let what = format!("w{width} c{classes} exits {after_blocks:?}");
                    let net = cnv.build_early_exit(classes, &exits, 5);
                    let summary = cnv.summary(classes, Some(&exits));
                    assert_eq!(summary, net.summarize(), "{what}");
                    let ir = ModelIr::from_summary(&summary);
                    let folding = FoldingConfig::balanced(&ir, 60_000, 2.0);
                    assert_eq!(
                        constraints_for(&summary, &ir, &folding),
                        derive_constraints(&net, &folding),
                        "{what}"
                    );
                }
            }
        }
    }

    #[test]
    fn pruned_variants_always_compile() {
        // The central invariant: any rate the pruner produces under the
        // derived constraints must compile against the shared folding.
        use adapex_nn::cnv::{CnvConfig, ExitsConfig};
        let net = CnvConfig::scaled(8).build_early_exit(10, &ExitsConfig::paper_default(), 1);
        let ir = ModelIr::from_summary(&net.summarize());
        let folding = FoldingConfig::balanced(&ir, 150_000, 2.0);
        let constraints = derive_constraints(&net, &folding);
        let device = FpgaDevice::zcu104();
        for rate in [0.15, 0.4, 0.7, 0.85] {
            for prune_exits in [false, true] {
                let (pruned, _) =
                    Pruner::new(PruneConfig { rate, prune_exits }).prune(&net, &constraints);
                let pruned_ir = ModelIr::from_summary(&pruned.summarize());
                compile(&pruned_ir, &folding, &device, 100.0).unwrap_or_else(|e| {
                    panic!("rate {rate} prune_exits {prune_exits}: {e}")
                });
            }
        }
    }
}
