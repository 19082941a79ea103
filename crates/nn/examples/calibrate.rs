//! Internal calibration tool: trains the reproduction-scale CNV on both
//! synthetic datasets and prints accuracy per exit — used to tune dataset
//! noise so accuracy bands land near the paper's (CIFAR-10 ~89 %, GTSRB
//! ~70 %). Run with `cargo run --release -p adapex-nn --example calibrate`.

use adapex_dataset::{DatasetKind, SyntheticConfig};
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::eval::evaluate_exits;
use adapex_nn::train::{TrainConfig, Trainer};
use std::time::Instant;

/// CNV channel width of the calibrated net.
const WIDTH: usize = 16;
/// Training epochs (GTSRB trains four more).
const EPOCHS: usize = 8;
/// CIFAR-10 training samples (GTSRB scales this by its class count).
const TRAIN_N: usize = 2000;

fn main() {
    for kind in [DatasetKind::Cifar10Like, DatasetKind::GtsrbLike] {
        // GTSRB has 4.3x more classes; keep samples-per-class comparable.
        let scale = kind.num_classes() as f64 / 10.0;
        let n = (TRAIN_N as f64 * scale) as usize;
        let extra = if kind == DatasetKind::GtsrbLike { 4 } else { 0 };
        let data = SyntheticConfig::new(kind).with_sizes(n, 500).generate();
        let mut net = CnvConfig::scaled(WIDTH).build_early_exit(
            kind.num_classes(),
            &ExitsConfig::paper_default(),
            42,
        );
        let cfg = TrainConfig {
            epochs: EPOCHS + extra,
            ..TrainConfig::repro_default()
        };
        let t0 = Instant::now();
        let hist = Trainer::new(cfg).fit(&mut net, &data, 7);
        let train_time = t0.elapsed();
        let eval = evaluate_exits(&mut net, &data.test);
        println!(
            "{kind}: train {train_time:.1?} loss {:?} train-acc {:.3}",
            hist.epoch_losses, hist.final_train_accuracy
        );
        for e in 0..eval.num_exits() {
            println!("  exit {e}: standalone acc {:.3}", eval.exit_accuracy(e));
        }
        for ct in [0.05f32, 0.5, 0.95] {
            let r = eval.at_threshold(ct);
            println!(
                "  CT {:>4.0}%: acc {:.3} fractions {:?}",
                ct * 100.0,
                r.accuracy,
                r.exit_fractions.iter().map(|f| (f * 100.0).round()).collect::<Vec<_>>()
            );
        }
    }
}
