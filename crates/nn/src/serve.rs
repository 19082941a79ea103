//! Staged, early-exit-aware batch executor: the one inference walk,
//! for serving and for evaluation alike.
//!
//! [`BatchExecutor`] runs a batch in **stages**: the backbone segment up
//! to an exit's attachment point, the exit head, then a confidence test
//! that retires confident samples and *compacts* the survivors before
//! the next (more expensive) stage. Retired samples pay only for the
//! stages they actually used — on CNV shapes the tail past exit 1 is
//! ~25–30 % of the forward, and the skipped exit-2 head is paid only by
//! samples that reach it. [`evaluate_exits`](crate::eval::evaluate_exits)
//! is this executor at a threshold of `f32::INFINITY`, which no softmax
//! maximum clears (NaN included): nothing retires before the final exit,
//! every stage scores every sample, and the confidence test records each
//! exit's class and confidence on the way.
//!
//! A stage runs one of two ways, and which is a function of the net and
//! the batch, never of a switch:
//!
//! - **Streamlined** (`crate::streamline`): under
//!   [`EnginePlan::Auto`], for a net whose conv groups are all 2-bit and
//!   engine-routed (every CNV the library serves), on an unstamped
//!   batch. BatchNorm and QuantReLU are folded into per-channel integer
//!   thresholds on the popcount accumulator when the executor is built;
//!   each stage then runs **image-major** over bit-packed 2-bit code
//!   maps — conv1 reads the caller's batch in place, the exit head and
//!   the next stage read the same packed map, survivor compaction moves
//!   a few KB of packed codes per image — and f32 exists only for the
//!   `≤ 4·c` features an FC tail reads and for logits. This is the FINN
//!   dataflow shape (MVTU → threshold unit → 2-bit stream) on a CPU.
//! - **Layer by layer** over f32 [`Activation`]s: everything else —
//!   [`EnginePlan::Int2Always`], nets the plan does not cover (other bit
//!   widths, a folded conv with `prefer_f32_codes` set, a refused
//!   threshold table), stamped batches. Per sample it is the arithmetic
//!   of [`EarlyExitNetwork::forward`], the walk training runs, and it is
//!   the reference the streamlined path is differentially tested
//!   against (`tests/streamline_agreement.rs`).
//!
//! Two invariants make this serving-safe:
//!
//! - **Bit-identity with the reference path.** Every layer processes
//!   samples independently (convs loop per sample; GEMM row results
//!   never reassociate across rows), so compaction cannot change any
//!   survivor's arithmetic, and the streamlined plan's thresholds are
//!   tabulated from the layers' own arithmetic on every reachable
//!   accumulator. The verdicts (exit taken, class, confidence) are
//!   exactly what [`ExitEvaluation::at_threshold`] computes from the
//!   `+∞` run, and what a full [`EarlyExitNetwork::forward`] scores —
//!   pinned by the tests below.
//! - **Worker-count invariance.** A batch is cut into
//!   `ceil(n / workers)`-sample contiguous chunks, one per worker, each
//!   with its own network clone; verdicts land in disjoint output
//!   slices by original sample index. Chunk boundaries depend only on
//!   `(n, workers)` and per-sample results only on the sample, so
//!   output bytes are identical at any worker count.
//!
//! The **engine plan** picks between those two walks and nothing else:
//! conv layers route as their own fields say (the popcount engine
//! wherever the window gather serves the kernel and `prefer_f32_codes`
//! is unset), in serving and evaluation alike, and both walks are
//! bit-identical, so the plan affects wall-clock only, never verdicts.
//!
//! Steady-state serving performs **zero heap allocations per batch**
//! after warmup: activations and scratch cycle through the
//! [`adapex_tensor::workspace`] pools, each worker keeps its packed-map
//! buffers, and verdict vectors retain their capacity (pinned on both
//! paths by `crates/nn/tests/alloc_regression.rs`).
//!
//! [`ExitEvaluation::at_threshold`]: crate::eval::ExitEvaluation::at_threshold

use crate::layers::Activation;
use crate::loss::{confidence, softmax_into};
use crate::network::EarlyExitNetwork;
use crate::streamline::{StreamPlan, StreamScratch};
use adapex_tensor::workspace::{recycle_f32, recycle_usize, take_f32_from, take_f32_uninit, take_usize_from};

/// Which walk of the net the executor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnginePlan {
    /// The streamlined path wherever `StreamPlan::build` covers the
    /// net (see the module docs), the layer loop elsewhere. The serving
    /// default.
    Auto,
    /// The layer-by-layer loop, always — the differential-testing axis.
    Int2Always,
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
    fn slots<'a>(&'a mut self, scores: &'a mut [(usize, f32)]) -> VerdictSlots<'a> {
        VerdictSlots {
            exit: &mut self.exit,
            class: &mut self.class,
            confidence: &mut self.confidence,
            scores,
        }
    }

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

/// One worker's private state: a network clone (layer caches are
/// per-forward scratch) and the streamlined path's buffers.
struct Worker {
    net: EarlyExitNetwork,
    scratch: StreamScratch,
    /// The chunk's packed code maps: the stage being read and the one
    /// being written, swapped as survivors advance.
    maps: [Vec<u64>; 2],
}

/// Staged early-exit batch executor; see the module docs.
pub struct BatchExecutor {
    /// Index `w` serves chunk `w`.
    workers: Vec<Worker>,
    /// The streamlined plan, when the engine plan is `Auto` and the net
    /// is one [`StreamPlan::build`] covers; shared read-only.
    plan: Option<StreamPlan>,
    threshold: f32,
    num_exits: usize,
}

impl BatchExecutor {
    /// Builds an executor around `net` (cloned per worker; a clone holds
    /// the weights only, and derives its quantized views on its first
    /// batch) and, under
    /// [`EnginePlan::Auto`], folds the net into its streamlined plan.
    pub fn new(net: &EarlyExitNetwork, cfg: &ExecutorConfig) -> Self {
        // Folded from a clone: the fold derives weight views on the net
        // it reads, and `net` is borrowed.
        let plan = (cfg.engine == EnginePlan::Auto)
            .then(|| StreamPlan::build(&mut net.clone()))
            .flatten();
        let workers = (0..cfg.workers.max(1))
            .map(|_| Worker {
                net: net.clone(),
                scratch: StreamScratch::default(),
                maps: Default::default(),
            })
            .collect();
        BatchExecutor {
            workers,
            plan,
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
        self.workers.len()
    }

    /// Whether unstamped batches run the streamlined plan (thresholds
    /// folded, packed code maps) rather than the layer-by-layer loop —
    /// a property of the net and the engine plan, for reports.
    pub fn streamlined(&self) -> bool {
        self.plan.is_some()
    }

    /// Runs one batch, writing per-sample verdicts into `out` (resized
    /// to `x.n`; capacity reused across calls).
    ///
    /// # Panics
    ///
    /// Panics if `x.dims` doesn't match the network input shape.
    pub fn run_batch(&mut self, x: &Activation, out: &mut BatchVerdicts) {
        self.run_scored(x, out, &mut []);
    }

    /// [`BatchExecutor::run_batch`] that also records, for every exit a
    /// sample reaches, the `(class, confidence)` its confidence test
    /// scored, at `scores[s * num_exits + e]` — pass `x.n · num_exits`
    /// slots, or none to record nothing. Slots of exits a sample never
    /// reached keep what they held.
    pub(crate) fn run_scored(
        &mut self,
        x: &Activation,
        out: &mut BatchVerdicts,
        scores: &mut [(usize, f32)],
    ) {
        assert_eq!(
            x.dims, self.workers[0].net.input_dims,
            "batch shape vs network input"
        );
        let n = x.n;
        assert!(
            scores.is_empty() || scores.len() == n * self.num_exits,
            "score slots vs batch"
        );
        out.reset(n);
        if n == 0 {
            return;
        }
        // A stamped batch would send the stem down its int2 route; the
        // plan's stem is the f32 one, so such a batch takes the layers.
        let plan = self.plan.as_ref().filter(|_| x.quant.is_none());
        let threshold = self.threshold;
        // Fixed chunking: depends only on (n, workers), so verdict
        // bytes are invariant across worker counts by per-sample
        // independence of every layer kernel.
        let chunk = if n == 1 { 1 } else { n.div_ceil(self.workers.len()) };
        let mut jobs = self.workers.iter_mut().enumerate().filter_map(|(w, worker)| {
            let (lo, hi) = (w * chunk, ((w + 1) * chunk).min(n));
            (lo < hi).then_some(Chunk {
                worker,
                plan,
                x,
                lo,
                hi,
                threshold,
            })
        });
        let mut verdicts = out.slots(scores);
        let first = jobs.next().expect("n > 0 fills the first chunk");
        if first.hi == n {
            return first.run(verdicts);
        }
        std::thread::scope(|s| {
            for job in std::iter::once(first).chain(jobs) {
                let (mine, rest) = verdicts.split_at(job.hi - job.lo);
                verdicts = rest;
                s.spawn(move || job.run(mine));
            }
        });
    }
}

/// A run of verdict slots, indexed by position within a chunk.
struct VerdictSlots<'a> {
    exit: &'a mut [usize],
    class: &'a mut [usize],
    confidence: &'a mut [f32],
    /// Every exit's `(class, confidence)`, `num_exits` per sample;
    /// empty when the caller records nothing.
    scores: &'a mut [(usize, f32)],
}

impl<'a> VerdictSlots<'a> {
    fn split_at(self, mid: usize) -> (Self, Self) {
        let per = self.scores.len() / self.exit.len().max(1);
        let (exit, exit_rest) = self.exit.split_at_mut(mid);
        let (class, class_rest) = self.class.split_at_mut(mid);
        let (confidence, confidence_rest) = self.confidence.split_at_mut(mid);
        let (scores, scores_rest) = self.scores.split_at_mut(mid * per);
        (
            VerdictSlots {
                exit,
                class,
                confidence,
                scores,
            },
            VerdictSlots {
                exit: exit_rest,
                class: class_rest,
                confidence: confidence_rest,
                scores: scores_rest,
            },
        )
    }
}

/// Samples `lo..hi` of a batch and the worker that runs them.
struct Chunk<'a> {
    worker: &'a mut Worker,
    plan: Option<&'a StreamPlan>,
    x: &'a Activation,
    lo: usize,
    hi: usize,
    threshold: f32,
}

/// The confidence test behind every stage, shared by both chunk
/// runners and the one scorer of every verdict and evaluation: which
/// chunk-local samples are still alive, and where the verdicts of those
/// that retire (and, when recording, every row's score) go.
struct Retire<'a> {
    threshold: f32,
    final_exit: usize,
    alive: Vec<usize>,
    probs: Vec<f32>,
    out: VerdictSlots<'a>,
}

impl<'a> Retire<'a> {
    fn new(n: usize, net: &EarlyExitNetwork, threshold: f32, out: VerdictSlots<'a>) -> Self {
        let mut alive = take_usize_from(&[]);
        alive.extend(0..n);
        Retire {
            threshold,
            final_exit: net.exits.len(),
            alive,
            probs: take_f32_uninit(net.num_classes),
            out,
        }
    }

    /// Scores every row of `logits` (one per live sample), recording
    /// each when the caller asked for scores; retires the samples whose
    /// confidence clears the threshold — all of them at the final exit —
    /// and compacts the survivors to the front of `alive`, calling
    /// `keep(from, to)` for each one that moves so the caller moves its
    /// carried state along. Returns the survivor count.
    fn test(&mut self, exit: usize, logits: &Activation, mut keep: impl FnMut(usize, usize)) -> usize {
        let mut kept = 0;
        for s in 0..logits.n {
            softmax_into(logits.sample(s), &mut self.probs);
            let conf = confidence(&self.probs);
            let class = argmax(&self.probs);
            let local = self.alive[s];
            if let Some(slot) = self.out.scores.get_mut(local * (self.final_exit + 1) + exit) {
                *slot = (class, conf);
            }
            if exit == self.final_exit || conf >= self.threshold {
                self.out.exit[local] = exit;
                self.out.class[local] = class;
                self.out.confidence[local] = conf;
            } else {
                if kept != s {
                    keep(s, kept);
                    self.alive[kept] = local;
                }
                kept += 1;
            }
        }
        self.alive.truncate(kept);
        kept
    }
}

impl Drop for Retire<'_> {
    fn drop(&mut self) {
        recycle_usize(std::mem::take(&mut self.alive));
        recycle_f32(std::mem::take(&mut self.probs));
    }
}

impl Chunk<'_> {
    fn run(self, out: VerdictSlots<'_>) {
        match self.plan {
            Some(plan) => self.run_streamlined(plan, out),
            None => self.run_layers(out),
        }
    }

    /// Staged forward, layer by layer over f32 activations: per sample
    /// the arithmetic of [`EarlyExitNetwork::forward`], and the reference
    /// the streamlined path is held to.
    fn run_layers(self, out: VerdictSlots<'_>) {
        let Chunk {
            worker: Worker { net, .. },
            x,
            lo,
            hi,
            threshold,
            ..
        } = self;
        let per = x.sample_len();
        let mut retire = Retire::new(hi - lo, net, threshold, out);
        // The chunk's working activation cycles through the workspace
        // pools.
        let mut cur = Activation {
            data: take_f32_from(&x.data[lo * per..hi * per]),
            n: hi - lo,
            dims: take_usize_from(&x.dims),
            quant: x.quant,
        };
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
            let len = cur.sample_len();
            let data = &mut cur.data;
            let kept = retire.test(ei, &logits, |from, to| {
                data.copy_within(from * len..(from + 1) * len, to * len);
            });
            if kept == 0 {
                return;
            }
            cur.data.truncate(kept * len);
            cur.n = kept;
        }
        for l in &mut net.backbone[seg_start..] {
            cur = l.forward_owned(cur, false);
        }
        retire.test(net.exits.len(), &cur, |_, _| {});
    }

    /// Staged forward on the streamlined plan: per stage, every live
    /// image runs the stage's folded conv steps image-major over packed
    /// code maps — stage 0 reads the caller's batch in place, the exit
    /// head and the next stage read the same carried map — and only the
    /// features an FC tail reads become f32, for the whole chunk at
    /// once. Survivor compaction moves packed maps.
    fn run_streamlined(self, plan: &StreamPlan, out: VerdictSlots<'_>) {
        let Chunk {
            worker:
                Worker {
                    net,
                    scratch,
                    maps: [cur, next],
                },
            x,
            lo,
            hi,
            threshold,
            ..
        } = self;
        let per = x.sample_len();
        let mut retire = Retire::new(hi - lo, net, threshold, out);
        let (mut n, mut cur_words) = (hi - lo, 0);
        for s in 0..plan.num_stages() {
            let fm = plan.feats(s);
            let mut feats = Activation::for_overwrite(n, &[fm.c, fm.h, fm.w]);
            feats.quant = Some(fm.quant());
            let flen = feats.sample_len();
            let advances = plan.advances(s);
            let words = plan.carried(s).words();
            if advances {
                next.resize(n * words, 0);
            }
            for (i, f) in feats.data.chunks_exact_mut(flen).enumerate() {
                let prev = &cur[i * cur_words..(i + 1) * cur_words];
                if !advances {
                    plan.head(s, prev, f, scratch);
                    continue;
                }
                let carried = &mut next[i * words..(i + 1) * words];
                if s == 0 {
                    let img = &x.data[(lo + i) * per..(lo + i + 1) * per];
                    plan.advance_image(img, carried, scratch);
                } else {
                    plan.advance_map(s, prev, carried, scratch);
                }
                plan.head(s, carried, f, scratch);
            }
            if advances {
                std::mem::swap(cur, next);
                cur_words = words;
            }
            let mut logits = feats;
            for l in plan.tail(s, net) {
                logits = l.forward_owned(logits, false);
            }
            n = retire.test(s, &logits, |from, to| {
                cur.copy_within(from * cur_words..(from + 1) * cur_words, to * cur_words);
            });
            if n == 0 {
                return;
            }
        }
    }
}

/// First-max argmax: the predicted class of a verdict and a score.
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

    /// `(class, confidence)` of every sample at every exit, from the
    /// network's own full forward and a test-local softmax and first-max
    /// — an oracle that shares neither walk nor scorer with the executor.
    fn forward_scores(net: &EarlyExitNetwork, x: &Activation) -> Vec<Vec<(usize, f32)>> {
        let outputs = net.clone().forward(x, false);
        let score = |row: &[f32]| {
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
            let mut probs: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
            let mut sum = 0.0f32;
            for &p in &probs {
                sum += p;
            }
            for p in &mut probs {
                *p /= sum;
            }
            let mut best = 0;
            for k in 1..probs.len() {
                if probs[k] > probs[best] {
                    best = k;
                }
            }
            (best, probs[best])
        };
        outputs
            .iter()
            .map(|out| (0..out.n).map(|s| score(out.sample(s))).collect())
            .collect()
    }

    /// Staged verdicts == the first exit of a full forward whose
    /// confidence clears the threshold, at every engine plan and across
    /// thresholds — `+∞` (evaluation's) included.
    #[test]
    fn staged_matches_reference_at_threshold() {
        let net = tiny_net();
        let imgs = images(23, &net.input_dims, 7);
        let x = batch_of(&imgs, net.input_dims.clone());
        let reference = forward_scores(&net, &x);
        let final_exit = net.num_exits() - 1;
        for threshold in [0.05f32, 0.2, 0.35, 0.9, f32::INFINITY] {
            let expected: Vec<usize> = (0..imgs.len())
                .map(|s| {
                    (0..final_exit)
                        .find(|&e| reference[e][s].1 >= threshold)
                        .unwrap_or(final_exit)
                })
                .collect();
            for plan in [EnginePlan::Auto, EnginePlan::Int2Always] {
                let mut exec = BatchExecutor::new(
                    &net,
                    &ExecutorConfig {
                        threshold,
                        workers: 1,
                        engine: plan,
                    },
                );
                let mut out = BatchVerdicts::default();
                let mut scores = vec![(usize::MAX, f32::NAN); imgs.len() * net.num_exits()];
                exec.run_scored(&x, &mut out, &mut scores);
                assert_eq!(out.exit, expected, "plan {plan:?} CT {threshold}");
                for (s, &e) in out.exit.iter().enumerate() {
                    let (class, conf) = reference[e][s];
                    assert_eq!(out.class[s], class, "sample {s} class, plan {plan:?}");
                    assert_eq!(
                        out.confidence[s].to_bits(),
                        conf.to_bits(),
                        "sample {s} confidence, plan {plan:?}"
                    );
                    // Every exit the sample reached is recorded as scored.
                    for (reached, want) in reference.iter().enumerate().take(e + 1) {
                        let (class, conf) = scores[s * net.num_exits() + reached];
                        assert_eq!(class, want[s].0, "sample {s} exit {reached} scored class");
                        assert_eq!(conf.to_bits(), want[s].1.to_bits(), "sample {s} exit {reached}");
                    }
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
}
