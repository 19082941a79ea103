//! Early-exit evaluation under confidence thresholds.
//!
//! The expensive part — running every test sample through every exit — is
//! done once into an [`ExitEvaluation`]; sweeping the confidence
//! threshold (the paper sweeps 0–100 % in 5 % steps) is then a cheap
//! post-processing step via [`ExitEvaluation::at_threshold`]. This is how
//! the library generator characterizes one pruned model at every
//! threshold without re-running inference.
//!
//! Every 2-bit matrix layer whose input carries a 2-bit quantization
//! grid dispatches to the bit-packed popcount engine
//! (`adapex_tensor::int2`, DESIGN.md §11). A conv whose
//! `prefer_f32_codes` field is set takes the bit-identical f32-over-codes
//! arm instead — only the differential suites set it; evaluations agree
//! exactly either way (pinned by `tests/int2_agreement.rs`).

use crate::layers::Activation;
use crate::loss::{confidence, softmax_into};
use crate::network::EarlyExitNetwork;
use adapex_dataset::LabeledImages;
use adapex_tensor::parallel::{num_threads, par_map_init};
use adapex_tensor::workspace::with_workspace;
use serde::{Deserialize, Serialize};

/// Default batch size used when sweeping a dataset through the network.
pub const EVAL_BATCH: usize = 64;

/// Knobs for [`evaluate_exits_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalConfig {
    /// Samples per forward batch (default [`EVAL_BATCH`]).
    pub batch: usize,
    /// Worker threads; `0` resolves to
    /// [`num_threads`](adapex_tensor::parallel::num_threads).
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
    /// Accuracy of the samples taken at each exit (`None` if no sample
    /// exited there).
    pub per_exit_accuracy: Vec<Option<f64>>,
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
            per_exit_accuracy: taken
                .iter()
                .zip(&taken_correct)
                .map(|(&t, &c)| {
                    if t == 0 {
                        None
                    } else {
                        Some(c as f64 / t as f64)
                    }
                })
                .collect(),
        }
    }

    /// [`ExitEvaluation::at_threshold`] reduced to the minimal
    /// [`EarlyExitSummary`] — reuse this (and [`final_accuracy`]) when
    /// you already hold an evaluation instead of re-running inference.
    ///
    /// [`final_accuracy`]: ExitEvaluation::final_accuracy
    pub fn summary_at(&self, threshold: f32) -> EarlyExitSummary {
        let report = self.at_threshold(threshold);
        EarlyExitSummary {
            overall_accuracy: report.accuracy,
            exit_fractions: report.exit_fractions,
        }
    }

    /// Standalone top-1 accuracy of the final (backbone) exit.
    ///
    /// # Panics
    ///
    /// Panics if the evaluation covers zero exits.
    pub fn final_accuracy(&self) -> f64 {
        self.exit_accuracy(self.num_exits() - 1)
    }
}

/// Runs `images` through every exit of `net` once, with default
/// [`EvalConfig`] (batch [`EVAL_BATCH`], auto worker count).
pub fn evaluate_exits(net: &mut EarlyExitNetwork, images: &LabeledImages) -> ExitEvaluation {
    evaluate_exits_with(net, images, EvalConfig::default())
}

/// [`evaluate_exits`] with explicit batch size and worker count.
///
/// Batches are fixed by `cfg.batch` alone and processed via the
/// order-preserving [`par_map_init`], each worker forwarding through its
/// own clone of `net` (eval-mode forward reads running statistics and
/// never mutates parameters, so clones agree bit-for-bit with the shared
/// network). Per-sample results are concatenated in batch order, so the
/// output is identical for every `cfg.jobs` value.
pub fn evaluate_exits_with(
    net: &mut EarlyExitNetwork,
    images: &LabeledImages,
    cfg: EvalConfig,
) -> ExitEvaluation {
    let exits = net.num_exits();
    let batches: Vec<Vec<usize>> = images.batches(cfg.batch.max(1), None).collect();
    let jobs = if cfg.jobs == 0 { num_threads() } else { cfg.jobs };
    let per_batch: Vec<BatchScores> = if jobs <= 1 || batches.len() <= 1 {
        batches
            .iter()
            .map(|batch| eval_batch(net, images, batch, exits))
            .collect()
    } else {
        let shared = &*net;
        par_map_init(
            batches.len(),
            jobs,
            || shared.clone(),
            |local, i| eval_batch(local, images, &batches[i], exits),
        )
    };
    let mut correct = vec![Vec::with_capacity(images.len()); exits];
    let mut conf = vec![Vec::with_capacity(images.len()); exits];
    for (batch_correct, batch_conf) in per_batch {
        for e in 0..exits {
            correct[e].extend_from_slice(&batch_correct[e]);
            conf[e].extend_from_slice(&batch_conf[e]);
        }
    }
    ExitEvaluation {
        correct,
        confidence: conf,
        samples: images.len(),
    }
}

/// Per-exit `(correct, confidence)` columns for one mini-batch.
type BatchScores = (Vec<Vec<bool>>, Vec<Vec<f32>>);

/// Forwards one mini-batch and scores every exit's argmax/confidence.
fn eval_batch(
    net: &mut EarlyExitNetwork,
    images: &LabeledImages,
    batch: &[usize],
    exits: usize,
) -> BatchScores {
    let (c, h, w) = images.dims();
    let (pixels, labels) = images.gather(batch);
    let x = Activation::new(pixels, batch.len(), vec![c, h, w]);
    let outputs = net.forward(&x, false);
    let mut correct = vec![Vec::with_capacity(batch.len()); exits];
    let mut conf = vec![Vec::with_capacity(batch.len()); exits];
    with_workspace(|ws| {
        let probs = &mut ws.scratch;
        for (e, out) in outputs.iter().enumerate() {
            probs.clear();
            probs.resize(out.sample_len(), 0.0);
            for (i, &label) in labels.iter().enumerate() {
                softmax_into(out.sample(i), probs);
                let mut best = 0;
                for k in 1..probs.len() {
                    if probs[k] > probs[best] {
                        best = k;
                    }
                }
                correct[e].push(best == label);
                conf[e].push(confidence(probs));
            }
        }
    });
    (correct, conf)
}

/// Minimal early-exit evaluation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EarlyExitSummary {
    /// Top-1 accuracy with early exiting.
    pub overall_accuracy: f64,
    /// Fraction of samples classified at each exit.
    pub exit_fractions: Vec<f64>,
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
        assert_eq!(r.per_exit_accuracy[0], None);
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
    fn reusing_forms_match_threshold_report() {
        let eval = synthetic_eval();
        let summary = eval.summary_at(0.85);
        let report = eval.at_threshold(0.85);
        assert_eq!(summary.overall_accuracy, report.accuracy);
        assert_eq!(summary.exit_fractions, report.exit_fractions);
        assert_eq!(eval.final_accuracy(), eval.exit_accuracy(1));
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
