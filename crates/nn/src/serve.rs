//! Staged, early-exit-aware batch executor for the serving data plane.
//!
//! [`evaluate_exits`](crate::eval::evaluate_exits) runs the *full*
//! network on every sample and picks the exit afterwards — right for
//! threshold sweeps, wasteful for serving, where a request whose exit-1
//! confidence clears the operating point's threshold never needs the
//! deeper backbone. [`BatchExecutor`] runs a batch in **stages**: the
//! backbone segment up to an exit's attachment point, the exit head,
//! then a confidence test that retires confident samples and *compacts*
//! the survivors before the next (more expensive) stage. Retired
//! samples pay only for the stages they actually used — on CNV shapes
//! the tail past exit 1 is ~25–30 % of the forward, and the skipped
//! exit-2 head is paid only by samples that reach it.
//!
//! Two invariants make this serving-safe:
//!
//! - **Bit-identity with the reference path.** Every layer processes
//!   samples independently (convs loop per sample; GEMM row results
//!   never reassociate across rows), so compaction cannot change any
//!   survivor's arithmetic. The verdicts (exit taken, class,
//!   confidence) are exactly what [`ExitEvaluation::at_threshold`]
//!   computes from a full forward — pinned by the tests below.
//! - **Worker-count invariance.** A batch is cut into
//!   `ceil(n / workers)`-sample contiguous chunks, one per worker, each
//!   with its own network clone; verdicts land in disjoint output
//!   slices by original sample index. Chunk boundaries depend only on
//!   `(n, workers)` and per-sample results only on the sample, so
//!   output bytes are identical at any worker count.
//!
//! The executor also owns the **engine plan**: int2-eligible conv
//! layers route to the popcount engine only where
//! [`int2::conv_engine_profitable`] says the packing tax amortizes
//! ([`EnginePlan::Auto`]); both engine choices are bit-identical, so
//! the plan affects wall-clock only, never verdicts.
//!
//! Steady-state serving performs **zero heap allocations per batch**
//! after warmup: activations and scratch cycle through the
//! [`adapex_tensor::workspace`] pools and verdict vectors retain their
//! capacity (pinned by `crates/nn/tests/alloc_regression.rs`).
//!
//! [`ExitEvaluation::at_threshold`]: crate::eval::ExitEvaluation::at_threshold

use crate::layers::{Activation, Layer};
use crate::loss::{confidence, softmax_into};
use crate::network::EarlyExitNetwork;
use adapex_tensor::int2;
use adapex_tensor::workspace::{recycle_f32, recycle_usize, take_f32_from, take_f32_uninit, take_usize_from};

/// How the executor routes int2-eligible conv layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePlan {
    /// Shape-aware: popcount engine only where
    /// [`int2::conv_engine_profitable`] predicts a win, f32-over-codes
    /// elsewhere. The serving default.
    Auto,
    /// Leave routing as the eval path ships it (engine for every
    /// eligible layer) — the differential-testing axis.
    Int2Always,
    /// Force the f32-over-codes route on every conv.
    F32Codes,
}

/// Executor configuration, normally derived from the runtime manager's
/// operating point (threshold) and the serve CLI (`--workers`).
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Confidence threshold (the operating point's CT): first exit
    /// whose confidence clears it wins, final exit is the fallback.
    pub threshold: f32,
    /// Worker threads per batch (chunked, order-preserving). `0` is
    /// treated as `1`.
    pub workers: usize,
    /// Engine routing plan.
    pub engine: EnginePlan,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            threshold: 0.5,
            workers: 1,
            engine: EnginePlan::Auto,
        }
    }
}

/// Per-sample verdicts for one batch, indexed by the sample's position
/// in the submitted batch. Reused across batches (capacity persists).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchVerdicts {
    /// Exit taken (0-based; `num_exits - 1` is the final exit).
    pub exit: Vec<usize>,
    /// Predicted class (argmax of the taken exit's probabilities).
    pub class: Vec<usize>,
    /// Confidence (max probability) at the taken exit.
    pub confidence: Vec<f32>,
}

impl BatchVerdicts {
    /// Clears and resizes for `n` samples without shrinking capacity.
    fn reset(&mut self, n: usize) {
        self.exit.clear();
        self.exit.resize(n, 0);
        self.class.clear();
        self.class.resize(n, 0);
        self.confidence.clear();
        self.confidence.resize(n, 0.0);
    }

    /// Number of samples that took exit `e`, for admission accounting.
    pub fn count_exit(&self, e: usize) -> usize {
        self.exit.iter().filter(|&&x| x == e).count()
    }
}

/// Staged early-exit batch executor; see the module docs.
pub struct BatchExecutor {
    /// One network clone per worker; index `w` serves chunk `w`.
    nets: Vec<EarlyExitNetwork>,
    threshold: f32,
    num_exits: usize,
}

impl BatchExecutor {
    /// Builds an executor around `net` (cloned per worker) and applies
    /// the engine plan to every conv layer.
    pub fn new(net: &EarlyExitNetwork, cfg: &ExecutorConfig) -> Self {
        let mut template = net.clone();
        apply_engine_plan(&mut template, cfg.engine);
        let workers = cfg.workers.max(1);
        let mut nets = Vec::with_capacity(workers);
        for _ in 0..workers.saturating_sub(1) {
            nets.push(template.clone());
        }
        nets.push(template);
        BatchExecutor {
            nets,
            threshold: cfg.threshold,
            num_exits: net.num_exits(),
        }
    }

    /// Retunes the confidence threshold (a CT-only operating-point
    /// change — no reconfiguration, takes effect next batch).
    pub fn set_threshold(&mut self, threshold: f32) {
        self.threshold = threshold;
    }

    /// Current confidence threshold.
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Total exits (early + final).
    pub fn num_exits(&self) -> usize {
        self.num_exits
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.nets.len()
    }

    /// How many conv layers the plan routes to the popcount engine vs
    /// the f32-over-codes path, for reports.
    pub fn engine_split(&self) -> (usize, usize) {
        let mut engine = 0;
        let mut f32_codes = 0;
        let net = &self.nets[0];
        for l in net.backbone.iter().chain(net.exits.iter().flat_map(|e| e.layers.iter())) {
            if let Layer::Conv(c) = l {
                if c.prefer_f32_codes {
                    f32_codes += 1;
                } else {
                    engine += 1;
                }
            }
        }
        (engine, f32_codes)
    }

    /// Runs one batch, writing per-sample verdicts into `out` (resized
    /// to `x.n`; capacity reused across calls).
    ///
    /// # Panics
    ///
    /// Panics if `x.dims` doesn't match the network input shape.
    pub fn run_batch(&mut self, x: &Activation, out: &mut BatchVerdicts) {
        assert_eq!(
            x.dims, self.nets[0].input_dims,
            "batch shape vs network input"
        );
        let n = x.n;
        out.reset(n);
        if n == 0 {
            return;
        }
        let workers = self.nets.len();
        let threshold = self.threshold;
        if workers == 1 || n == 1 {
            run_chunk(
                &mut self.nets[0],
                x,
                0,
                n,
                threshold,
                &mut out.exit,
                &mut out.class,
                &mut out.confidence,
            );
            return;
        }
        // Fixed chunking: depends only on (n, workers), so verdict
        // bytes are invariant across worker counts by per-sample
        // independence of every layer kernel.
        let chunk = n.div_ceil(workers);
        std::thread::scope(|s| {
            let mut exit_rest: &mut [usize] = &mut out.exit;
            let mut class_rest: &mut [usize] = &mut out.class;
            let mut conf_rest: &mut [f32] = &mut out.confidence;
            for (w, net) in self.nets.iter_mut().enumerate() {
                let lo = w * chunk;
                if lo >= n {
                    break;
                }
                let hi = (lo + chunk).min(n);
                let (exit_c, er) = exit_rest.split_at_mut(hi - lo);
                let (class_c, cr) = class_rest.split_at_mut(hi - lo);
                let (conf_c, fr) = conf_rest.split_at_mut(hi - lo);
                exit_rest = er;
                class_rest = cr;
                conf_rest = fr;
                s.spawn(move || {
                    run_chunk(net, x, lo, hi, threshold, exit_c, class_c, conf_c);
                });
            }
        });
    }
}

/// Applies the engine routing plan to every conv layer of `net`.
///
/// `Auto` consults [`int2::conv_engine_profitable`], a pure function
/// of the layer's shape: the direct windowed path pays the packing tax
/// once per image, so the profitable `c_out` threshold drops by the k²
/// window reuse.
fn apply_engine_plan(net: &mut EarlyExitNetwork, plan: EnginePlan) {
    let layers = net
        .backbone
        .iter_mut()
        .chain(net.exits.iter_mut().flat_map(|e| e.layers.iter_mut()));
    for l in layers {
        if let Layer::Conv(c) = l {
            c.prefer_f32_codes = match plan {
                EnginePlan::Auto => !int2::conv_engine_profitable(c.c_out, c.geom.kernel),
                EnginePlan::Int2Always => false,
                EnginePlan::F32Codes => true,
            };
        }
    }
}

/// Staged forward over samples `lo..hi` of `x`. Verdict slices are
/// indexed by position within the chunk.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    net: &mut EarlyExitNetwork,
    x: &Activation,
    lo: usize,
    hi: usize,
    threshold: f32,
    exit_out: &mut [usize],
    class_out: &mut [usize],
    conf_out: &mut [f32],
) {
    let n0 = hi - lo;
    let per = x.sample_len();
    let final_exit = net.exits.len();
    // The chunk's working activation and the survivors' chunk-local
    // indices; both cycle through the workspace pools.
    let mut cur = Activation {
        data: take_f32_from(&x.data[lo * per..hi * per]),
        n: n0,
        dims: take_usize_from(&x.dims),
        quant: x.quant,
    };
    let mut alive = take_usize_from(&[]);
    alive.extend(0..n0);
    let mut probs = take_f32_uninit(net.num_classes);
    let mut seg_start = 0usize;

    for ei in 0..net.exits.len() {
        let attach = net.exits[ei].attach_after;
        for l in &mut net.backbone[seg_start..=attach] {
            cur = l.forward_owned(cur, false);
        }
        seg_start = attach + 1;
        let mut logits = cur.clone();
        for l in &mut net.exits[ei].layers {
            logits = l.forward_owned(logits, false);
        }
        // Retire confident samples, compact survivors in place.
        let sample_len = cur.sample_len();
        let mut keep = 0usize;
        for s in 0..logits.n {
            softmax_into(logits.sample(s), &mut probs);
            let conf = confidence(&probs);
            let local = alive[s];
            if conf >= threshold {
                exit_out[local] = ei;
                class_out[local] = argmax(&probs);
                conf_out[local] = conf;
            } else {
                if keep != s {
                    cur.data
                        .copy_within(s * sample_len..(s + 1) * sample_len, keep * sample_len);
                    alive[keep] = local;
                }
                keep += 1;
            }
        }
        drop(logits);
        if keep == 0 {
            recycle_f32(probs);
            recycle_usize(alive);
            return;
        }
        cur.data.truncate(keep * sample_len);
        cur.n = keep;
        alive.truncate(keep);
    }

    for l in &mut net.backbone[seg_start..] {
        cur = l.forward_owned(cur, false);
    }
    for (s, &local) in alive.iter().enumerate() {
        softmax_into(cur.sample(s), &mut probs);
        exit_out[local] = final_exit;
        class_out[local] = argmax(&probs);
        conf_out[local] = confidence(&probs);
    }
    recycle_f32(probs);
    recycle_usize(alive);
}

/// First-max argmax, exactly as the eval scorer computes predictions.
fn argmax(probs: &[f32]) -> usize {
    let mut best = 0;
    for k in 1..probs.len() {
        if probs[k] > probs[best] {
            best = k;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnv::{CnvConfig, ExitsConfig};
    use crate::eval::{evaluate_exits_with, EvalConfig};
    use adapex_dataset::{Difficulty, LabeledImages};
    use adapex_tensor::rng::rng_from_seed;
    use rand::RngExt;

    fn tiny_net() -> EarlyExitNetwork {
        CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 3)
    }

    fn images(n: usize, dims: &[usize], seed: u64) -> LabeledImages {
        let mut rng = rng_from_seed(seed);
        let per: usize = dims.iter().product();
        let mut imgs = LabeledImages::new(dims[0], dims[1], dims[2]);
        let mut buf = vec![0.0f32; per];
        for _ in 0..n {
            for v in buf.iter_mut() {
                *v = rng.random::<f32>();
            }
            let label = rng.random_range(0..10usize);
            imgs.push(&buf, label, Difficulty::Easy);
        }
        imgs
    }

    fn batch_of(images: &LabeledImages, dims: Vec<usize>) -> Activation {
        let idx: Vec<usize> = (0..images.len()).collect();
        let (pixels, _) = images.gather(&idx);
        Activation::new(pixels, idx.len(), dims)
    }

    /// Staged verdicts == full-forward `at_threshold` verdicts, at
    /// every engine plan and across thresholds.
    #[test]
    fn staged_matches_reference_at_threshold() {
        let net = tiny_net();
        let imgs = images(23, &net.input_dims, 7);
        let reference = evaluate_exits_with(
            &mut net.clone(),
            &imgs,
            EvalConfig { batch: 23, jobs: 1 },
        );
        let x = batch_of(&imgs, net.input_dims.clone());
        for threshold in [0.05f32, 0.2, 0.35, 0.9] {
            let mut expected_exit = vec![0usize; imgs.len()];
            for (s, slot) in expected_exit.iter_mut().enumerate() {
                let mut chosen = reference.num_exits() - 1;
                for e in 0..reference.num_exits() - 1 {
                    if reference.confidence[e][s] >= threshold {
                        chosen = e;
                        break;
                    }
                }
                *slot = chosen;
            }
            for plan in [EnginePlan::Auto, EnginePlan::Int2Always, EnginePlan::F32Codes] {
                let mut exec = BatchExecutor::new(
                    &net,
                    &ExecutorConfig {
                        threshold,
                        workers: 1,
                        engine: plan,
                    },
                );
                let mut out = BatchVerdicts::default();
                exec.run_batch(&x, &mut out);
                assert_eq!(out.exit, expected_exit, "plan {plan:?} CT {threshold}");
                for s in 0..imgs.len() {
                    assert_eq!(
                        out.confidence[s].to_bits(),
                        reference.confidence[out.exit[s]][s].to_bits(),
                        "sample {s} confidence, plan {plan:?}"
                    );
                }
            }
        }
    }

    /// Verdict bytes are identical at any worker count.
    #[test]
    fn worker_count_invariant() {
        let net = tiny_net();
        let imgs = images(17, &net.input_dims, 11);
        let x = batch_of(&imgs, net.input_dims.clone());
        let run = |workers: usize| {
            let mut exec = BatchExecutor::new(
                &net,
                &ExecutorConfig {
                    threshold: 0.3,
                    workers,
                    engine: EnginePlan::Auto,
                },
            );
            let mut out = BatchVerdicts::default();
            exec.run_batch(&x, &mut out);
            out
        };
        let w1 = run(1);
        for workers in [2, 3, 4, 8] {
            let w = run(workers);
            assert_eq!(w1, w, "verdicts diverged at {workers} workers");
        }
    }

    /// Batch composition cannot change a sample's verdict: singletons
    /// match the batch run bit-for-bit.
    #[test]
    fn batch_composition_invariant() {
        let net = tiny_net();
        let imgs = images(9, &net.input_dims, 13);
        let x = batch_of(&imgs, net.input_dims.clone());
        let cfg = ExecutorConfig {
            threshold: 0.3,
            workers: 1,
            engine: EnginePlan::Auto,
        };
        let mut exec = BatchExecutor::new(&net, &cfg);
        let mut batch_out = BatchVerdicts::default();
        exec.run_batch(&x, &mut batch_out);
        let per = x.sample_len();
        for s in 0..x.n {
            let single = Activation::new(
                x.data[s * per..(s + 1) * per].to_vec(),
                1,
                net.input_dims.clone(),
            );
            let mut out = BatchVerdicts::default();
            exec.run_batch(&single, &mut out);
            assert_eq!(out.exit[0], batch_out.exit[s], "sample {s} exit");
            assert_eq!(out.class[0], batch_out.class[s], "sample {s} class");
            assert_eq!(
                out.confidence[0].to_bits(),
                batch_out.confidence[s].to_bits(),
                "sample {s} confidence"
            );
        }
    }

    /// The Auto plan routes small convs to f32-over-codes and leaves
    /// verdicts untouched relative to Int2Always (bit-identity of the
    /// two engines).
    #[test]
    fn engine_plan_is_speed_only() {
        let net = tiny_net();
        let split_of = |net: &EarlyExitNetwork, plan| {
            BatchExecutor::new(
                net,
                &ExecutorConfig {
                    engine: plan,
                    ..ExecutorConfig::default()
                },
            )
            .engine_split()
        };
        let split_at = |plan| split_of(&net, plan);
        // The once-per-image packing model routes every tiny() conv
        // (4 filters and up) to the engine; only layers below
        // ENGINE_MIN_ITEMS_DIRECT keep the f32-over-codes route, which
        // takes a 2-wide net to reach.
        let (engine, f32_codes) = split_at(EnginePlan::Auto);
        assert!(engine > 0, "tiny() convs must route to the engine");
        assert_eq!(f32_codes, 0, "no tiny() conv is narrower than the floor");
        let narrow = CnvConfig::scaled(2).build_early_exit(10, &ExitsConfig::paper_default(), 3);
        let (engine, f32_codes) = split_of(&narrow, EnginePlan::Auto);
        assert!(
            engine > 0,
            "the 4/8-wide convs of a 2-wide net route to the engine"
        );
        assert!(f32_codes > 0, "its 2-wide convs must keep the f32 route");
        let (engine, _) = split_at(EnginePlan::Int2Always);
        assert!(engine > 0);
    }
}
