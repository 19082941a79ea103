//! Early-exit evaluation under confidence thresholds.
//!
//! The expensive part — running every test sample through every exit — is
//! done once into an [`ExitEvaluation`]; sweeping the confidence
//! threshold (the paper sweeps 0–100 % in 5 % steps) is then a cheap
//! post-processing step via [`ExitEvaluation::at_threshold`]. This is how
//! the library generator characterizes one pruned model at every
//! threshold without re-running inference.
//!
//! That one run is the serving executor's: [`evaluate_exits_with`] is a
//! [`BatchExecutor`] under [`EnginePlan::Auto`] at a threshold of
//! `f32::INFINITY`, which no softmax maximum clears (NaN included), so
//! nothing retires before the final exit, every stage scores every
//! sample, and the executor's confidence test records each exit's class
//! and confidence. A library entry is therefore characterized on the
//! walk it is served on — the streamlined plan for every CNV the library
//! holds, the layer loop for the nets the plan does not cover — and the
//! two walks agree bit for bit (`tests/streamline_agreement.rs`).

use crate::layers::Activation;
use crate::network::EarlyExitNetwork;
use crate::serve::{BatchExecutor, BatchVerdicts, EnginePlan, ExecutorConfig};
use adapex_dataset::LabeledImages;
use adapex_tensor::parallel::num_threads;
use adapex_tensor::workspace::{take_f32_uninit, take_usize_from};
use serde::{Deserialize, Serialize};

/// Default batch size used when sweeping a dataset through the network.
pub const EVAL_BATCH: usize = 64;

/// Knobs for [`evaluate_exits_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Samples per forward batch (default [`EVAL_BATCH`]).
    pub batch: usize,
    /// Worker threads; `0` resolves to
    /// [`adapex_tensor::parallel::num_threads`].
    pub jobs: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            batch: EVAL_BATCH,
            jobs: 0,
        }
    }
}

/// Per-sample, per-exit predictions of one network on one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExitEvaluation {
    /// `correct[exit][sample]`: whether that exit's argmax was right.
    pub correct: Vec<Vec<bool>>,
    /// `confidence[exit][sample]`: that exit's softmax maximum.
    pub confidence: Vec<Vec<f32>>,
    /// Number of samples evaluated.
    pub samples: usize,
}

/// Aggregate behaviour at one confidence threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdReport {
    /// The threshold applied (0.0–1.0).
    pub threshold: f32,
    /// Overall top-1 accuracy with early exiting.
    pub accuracy: f64,
    /// Fraction of samples classified at each exit (sums to 1).
    pub exit_fractions: Vec<f64>,
}

impl ExitEvaluation {
    /// Number of exits covered.
    pub fn num_exits(&self) -> usize {
        self.correct.len()
    }

    /// Standalone top-1 accuracy of one exit over all samples (as if that
    /// exit classified everything).
    ///
    /// # Panics
    ///
    /// Panics if `exit` is out of range.
    pub fn exit_accuracy(&self, exit: usize) -> f64 {
        let c = &self.correct[exit];
        if c.is_empty() {
            return 0.0;
        }
        c.iter().filter(|&&b| b).count() as f64 / c.len() as f64
    }

    /// Mean standalone accuracy over all exits — the "accuracy averaged
    /// on all exits" the paper's runtime manager ranks models by.
    pub fn mean_exit_accuracy(&self) -> f64 {
        if self.correct.is_empty() {
            return 0.0;
        }
        (0..self.num_exits()).map(|e| self.exit_accuracy(e)).sum::<f64>()
            / self.num_exits() as f64
    }

    /// Simulates early-exit inference at `threshold`: each sample takes
    /// the first exit whose confidence clears the threshold, falling back
    /// to the final exit.
    pub fn at_threshold(&self, threshold: f32) -> ThresholdReport {
        let exits = self.num_exits();
        let mut taken = vec![0usize; exits];
        let mut taken_correct = vec![0usize; exits];
        for s in 0..self.samples {
            let mut chosen = exits - 1;
            for e in 0..exits - 1 {
                if self.confidence[e][s] >= threshold {
                    chosen = e;
                    break;
                }
            }
            taken[chosen] += 1;
            if self.correct[chosen][s] {
                taken_correct[chosen] += 1;
            }
        }
        let total = self.samples.max(1) as f64;
        ThresholdReport {
            threshold,
            accuracy: taken_correct.iter().sum::<usize>() as f64 / total,
            exit_fractions: taken.iter().map(|&t| t as f64 / total).collect(),
        }
    }
}

/// Runs `images` through every exit of `net` once, with default
/// [`EvalConfig`] (batch [`EVAL_BATCH`], auto worker count).
pub fn evaluate_exits(net: &mut EarlyExitNetwork, images: &LabeledImages) -> ExitEvaluation {
    evaluate_exits_with(net, images, EvalConfig::default())
}

/// [`evaluate_exits`] with explicit batch size and worker count.
///
/// `cfg.batch`-sized slices of `images` go through one
/// [`BatchExecutor`] with `cfg.jobs` workers at a threshold no exit
/// clears (see the module docs), and every exit's recorded score fills
/// that exit's column. Each slice is cut into the executor's fixed
/// `(n, workers)` chunks and every per-sample result depends on the
/// sample alone, so the output is identical for every `cfg.jobs` value
/// — and for every `cfg.batch`.
pub fn evaluate_exits_with(
    net: &mut EarlyExitNetwork,
    images: &LabeledImages,
    cfg: EvalConfig,
) -> ExitEvaluation {
    let exits = net.num_exits();
    let jobs = if cfg.jobs == 0 { num_threads() } else { cfg.jobs };
    let mut exec = BatchExecutor::new(
        net,
        &ExecutorConfig {
            threshold: f32::INFINITY,
            workers: jobs,
            engine: EnginePlan::Auto,
        },
    );
    let (c, h, w) = images.dims();
    let mut correct = vec![Vec::with_capacity(images.len()); exits];
    let mut confidence = vec![Vec::with_capacity(images.len()); exits];
    let (mut verdicts, mut scores) = (BatchVerdicts::default(), Vec::new());
    let mut labels = Vec::with_capacity(cfg.batch.max(1));
    for batch in images.batches(cfg.batch.max(1), None) {
        // Batch buffers come from the pools the activation returns them to.
        let mut pixels = take_f32_uninit(batch.len() * c * h * w);
        images.gather_into(&batch, &mut pixels, &mut labels);
        let x = Activation::new(pixels, batch.len(), take_usize_from(&[c, h, w]));
        scores.resize(batch.len() * exits, (0, 0.0));
        exec.run_scored(&x, &mut verdicts, &mut scores);
        for (row, &label) in scores.chunks_exact(exits).zip(&labels) {
            for (e, &(class, conf)) in row.iter().enumerate() {
                correct[e].push(class == label);
                confidence[e].push(conf);
            }
        }
    }
    ExitEvaluation {
        correct,
        confidence,
        samples: images.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_eval() -> ExitEvaluation {
        // Two exits, four samples. Early exit confident+right on 0,1;
        // confident+wrong on 2; unsure on 3. Final exit right on 2,3.
        ExitEvaluation {
            correct: vec![
                vec![true, true, false, false],
                vec![false, true, true, true],
            ],
            confidence: vec![
                vec![0.9, 0.8, 0.95, 0.2],
                vec![1.0, 1.0, 1.0, 1.0],
            ],
            samples: 4,
        }
    }

    #[test]
    fn threshold_zero_takes_first_exit_always() {
        let eval = synthetic_eval();
        let r = eval.at_threshold(0.0);
        assert_eq!(r.exit_fractions, vec![1.0, 0.0]);
        assert!((r.accuracy - 0.5).abs() < 1e-9);
    }

    #[test]
    fn threshold_above_one_forces_final_exit() {
        let eval = synthetic_eval();
        let r = eval.at_threshold(1.01);
        assert_eq!(r.exit_fractions, vec![0.0, 1.0]);
        assert!((r.accuracy - 0.75).abs() < 1e-9);
    }

    #[test]
    fn intermediate_threshold_mixes_exits() {
        let eval = synthetic_eval();
        let r = eval.at_threshold(0.85);
        // Samples 0 and 2 exit early (conf .9, .95), 1 and 3 fall through.
        assert_eq!(r.exit_fractions, vec![0.5, 0.5]);
        // Early: sample0 right, sample2 wrong; final: 1 wrong? no — final
        // correct[1]=true, correct[3]=true -> 3 of 4 right... early exit
        // got sample0 right, sample2 wrong; final got 1 and 3 right.
        assert!((r.accuracy - 0.75).abs() < 1e-9);
    }

    #[test]
    fn lowering_threshold_moves_mass_earlier() {
        let eval = synthetic_eval();
        let hi = eval.at_threshold(0.99);
        let lo = eval.at_threshold(0.1);
        assert!(lo.exit_fractions[0] > hi.exit_fractions[0]);
    }

    #[test]
    fn exit_and_mean_accuracy() {
        let eval = synthetic_eval();
        assert!((eval.exit_accuracy(0) - 0.5).abs() < 1e-9);
        assert!((eval.exit_accuracy(1) - 0.75).abs() < 1e-9);
        assert!((eval.mean_exit_accuracy() - 0.625).abs() < 1e-9);
    }

    #[test]
    fn network_evaluation_has_consistent_shape() {
        use crate::cnv::{CnvConfig, ExitsConfig};
        use adapex_dataset::{DatasetKind, SyntheticConfig};
        let data = SyntheticConfig::new(DatasetKind::Cifar10Like)
            .with_sizes(0, 30)
            .generate();
        let mut net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 2);
        let eval = evaluate_exits(&mut net, &data.test);
        assert_eq!(eval.num_exits(), 3);
        assert_eq!(eval.samples, 30);
        for e in 0..3 {
            assert_eq!(eval.correct[e].len(), 30);
            assert_eq!(eval.confidence[e].len(), 30);
            assert!(eval.confidence[e].iter().all(|&c| (0.0..=1.0).contains(&c)));
        }
        let r = eval.at_threshold(0.5);
        assert!((r.exit_fractions.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }
}
