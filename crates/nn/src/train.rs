//! Joint-loss training of early-exit networks.
//!
//! Implements the paper's training procedure (Sec. IV-A1, after
//! BranchyNet): every mini-batch runs through all exits, each exit's
//! cross-entropy is weighted (`1.0` for the first exit, `0.3` for the
//! rest by default) and summed into the joint loss, and the merged
//! gradient updates backbone and branches together.

use crate::layers::Activation;
use crate::loss::{accuracy, cross_entropy_with_grad};
use crate::network::EarlyExitNetwork;
use crate::optim::{Sgd, StepDecay};
use adapex_dataset::{augment_batch, AugmentConfig, DatasetKind, SyntheticDataset};
use adapex_tensor::rng::rng_from_seed;
use adapex_tensor::workspace::{take_f32_uninit, take_usize_from};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of one training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Learning-rate decay schedule.
    pub decay: StepDecay,
    /// Joint-loss weight per exit (early exits first, final last). When
    /// `None`, the paper's `[1.0, 0.3, …]` pattern is derived from the
    /// network's exit count.
    pub exit_loss_weights: Option<Vec<f32>>,
    /// Whether to apply train-time augmentation.
    pub augment: bool,
}

impl TrainConfig {
    /// Reproduction defaults: 8 epochs, batch 32, lr 0.01.
    pub fn repro_default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 32,
            lr: 0.01,
            momentum: 0.9,
            weight_decay: 1e-4,
            decay: StepDecay::default(),
            exit_loss_weights: None,
            augment: true,
        }
    }

    /// Quick settings for unit tests (2 epochs, batch 16).
    pub fn fast() -> Self {
        TrainConfig {
            epochs: 2,
            batch_size: 16,
            lr: 0.02,
            momentum: 0.9,
            weight_decay: 0.0,
            decay: StepDecay { factor: 1.0, every: 0 },
            exit_loss_weights: None,
            augment: false,
        }
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::repro_default()
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainHistory {
    /// Mean joint loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Final-exit training accuracy measured on the last epoch's batches.
    pub final_train_accuracy: f64,
}

/// Runs training jobs with a fixed configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// New trainer.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` on `data.train` in place; `seed` drives shuffling and
    /// augmentation. The layers' backward caches keep their buffers from
    /// batch to batch and are freed on return: the trained network holds
    /// its weights and no training state.
    pub fn fit(&self, net: &mut EarlyExitNetwork, data: &SyntheticDataset, seed: u64) -> TrainHistory {
        let cfg = &self.config;
        let weights = cfg
            .exit_loss_weights
            .clone()
            .unwrap_or_else(|| default_exit_weights(net.num_exits()));
        assert_eq!(
            weights.len(),
            net.num_exits(),
            "one loss weight per exit (got {} for {})",
            weights.len(),
            net.num_exits()
        );
        let augment_cfg = match data.config.kind {
            DatasetKind::Cifar10Like => AugmentConfig::cifar(),
            DatasetKind::GtsrbLike => AugmentConfig::gtsrb(),
        };
        let sgd = Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay);
        let (c, h, w) = data.train.dims();
        let mut rng = rng_from_seed(seed);
        let mut order: Vec<usize> = (0..data.train.len()).collect();
        let mut labels = Vec::with_capacity(cfg.batch_size);
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        let mut last_acc_num = 0.0f64;
        let mut last_acc_den = 0usize;

        for epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let lr_scale = cfg.decay.scale_at(epoch);
            let mut epoch_loss = 0.0f32;
            let mut batches = 0usize;
            let is_last = epoch + 1 == cfg.epochs;
            if is_last {
                last_acc_num = 0.0;
                last_acc_den = 0;
            }
            for batch in data.train.batches(cfg.batch_size, Some(&order)) {
                // The batch buffer comes from the pool the activation
                // returns it to.
                let mut pixels = take_f32_uninit(batch.len() * c * h * w);
                data.train.gather_into(&batch, &mut pixels, &mut labels);
                if cfg.augment {
                    augment_batch(&mut pixels, c, h, w, augment_cfg, &mut rng);
                }
                let x = Activation::new(pixels, batch.len(), take_usize_from(&[c, h, w]));
                let outputs = net.forward(&x, true);
                let mut joint_loss = 0.0f32;
                let mut grads = Vec::with_capacity(outputs.len());
                for (out, &wgt) in outputs.iter().zip(&weights) {
                    let (loss, grad) = cross_entropy_with_grad(out, &labels, wgt);
                    joint_loss += wgt * loss;
                    grads.push(grad);
                }
                net.zero_grad();
                net.backward(&grads);
                sgd.step(net, lr_scale);
                epoch_loss += joint_loss;
                batches += 1;
                if is_last {
                    let final_out = outputs.last().expect("at least one exit");
                    last_acc_num += accuracy(final_out, &labels) * batch.len() as f64;
                    last_acc_den += batch.len();
                }
            }
            epoch_losses.push(epoch_loss / batches.max(1) as f32);
        }
        net.release_caches();
        TrainHistory {
            epoch_losses,
            final_train_accuracy: if last_acc_den == 0 {
                0.0
            } else {
                last_acc_num / last_acc_den as f64
            },
        }
    }
}

/// The paper's exit weighting: first exit 1.0, all later exits 0.3; a
/// single-exit network just gets 1.0.
pub fn default_exit_weights(num_exits: usize) -> Vec<f32> {
    if num_exits <= 1 {
        return vec![1.0];
    }
    (0..num_exits)
        .map(|i| if i == 0 { 1.0 } else { 0.3 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnv::{CnvConfig, ExitsConfig};
    use adapex_dataset::SyntheticConfig;

    fn tiny_data() -> SyntheticDataset {
        SyntheticConfig::new(DatasetKind::Cifar10Like)
            .with_sizes(80, 40)
            .with_seed(11)
            .generate()
    }

    #[test]
    fn default_weights_follow_paper() {
        assert_eq!(default_exit_weights(1), vec![1.0]);
        assert_eq!(default_exit_weights(3), vec![1.0, 0.3, 0.3]);
    }

    #[test]
    fn loss_decreases_over_training() {
        let data = tiny_data();
        let mut net = CnvConfig::tiny().build(10, 5);
        let cfg = TrainConfig {
            epochs: 4,
            ..TrainConfig::fast()
        };
        let hist = Trainer::new(cfg).fit(&mut net, &data, 1);
        assert_eq!(hist.epoch_losses.len(), 4);
        let first = hist.epoch_losses[0];
        let last = *hist.epoch_losses.last().unwrap();
        assert!(
            last < first,
            "loss should decrease: {first} -> {last} ({:?})",
            hist.epoch_losses
        );
    }

    #[test]
    fn early_exit_training_trains_all_exits() {
        let data = SyntheticConfig::new(DatasetKind::Cifar10Like)
            .with_sizes(160, 40)
            .with_seed(11)
            .generate();
        // 4-bit weights keep this tiny-width run stable; the joint-loss
        // machinery under test is identical to the 2-bit configuration.
        let cnv = CnvConfig {
            weight_bits: 4,
            act_bits: 4,
            ..CnvConfig::tiny()
        };
        let mut net = cnv.build_early_exit(10, &ExitsConfig::paper_default(), 5);
        let hist = Trainer::new(TrainConfig {
            epochs: 6,
            ..TrainConfig::fast()
        })
        .fit(&mut net, &data, 1);
        assert!(hist.epoch_losses[5] < hist.epoch_losses[0]);
        // All exits should now do better than chance (10%) on the training set.
        let (pixels, labels) = data.train.gather(&(0..80).collect::<Vec<_>>());
        let x = Activation::new(pixels, 80, vec![3, 32, 32]);
        let outs = net.forward(&x, false);
        for (i, out) in outs.iter().enumerate() {
            let acc = accuracy(out, &labels);
            assert!(acc > 0.13, "exit {i} accuracy {acc} is at chance");
        }
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let data = tiny_data();
        let run = || {
            let mut net = CnvConfig::tiny().build(10, 5);
            Trainer::new(TrainConfig::fast()).fit(&mut net, &data, 7)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "one loss weight per exit")]
    fn rejects_wrong_weight_count() {
        let data = tiny_data();
        let mut net = CnvConfig::tiny().build(10, 5);
        let cfg = TrainConfig {
            exit_loss_weights: Some(vec![1.0, 0.3]),
            epochs: 1,
            ..TrainConfig::fast()
        };
        Trainer::new(cfg).fit(&mut net, &data, 1);
    }
}
