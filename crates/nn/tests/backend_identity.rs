//! End-to-end cross-backend identity.
//!
//! `simd_identity`, `conv_grad_identity` and `int2_identity` pin the
//! AVX-512, AVX2 and portable bodies against each other kernel by
//! kernel; this suite pins what that buys at the surfaces callers see.
//! One SGD training step, a full `evaluate_exits` sweep and one
//! `BatchExecutor::run_batch` on the same seeded net and data, plus one
//! training step of a stack with channel counts as filter pruning
//! leaves them (odd, unequal, one conv padded), must come out
//! `to_bits`-identical whether the f32 and int2 dispatchers use the
//! detected backends or are pinned to any backend the host can run —
//! on an AVX-512 host that is forced AVX-512, forced AVX2, which
//! detection would otherwise never dispatch there, and forced portable.
//!
//! The backend overrides are process-global, so this file holds a
//! single test.

use adapex_dataset::{DatasetKind, SyntheticConfig};
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::eval::evaluate_exits;
use adapex_nn::layers::{Activation, BatchNorm, Layer, MaxPool2d, QuantConv2d, QuantLinear, QuantReLU};
use adapex_nn::loss::cross_entropy_with_grad;
use adapex_nn::optim::Sgd;
use adapex_nn::quant::QuantSpec;
use adapex_nn::serve::{BatchExecutor, BatchVerdicts, ExecutorConfig};
use adapex_nn::train::default_exit_weights;
use adapex_tensor::conv::ConvGeometry;
use adapex_tensor::rng::{normal_tensor, rng_from_seed};
use adapex_tensor::simd::Backend;
use adapex_tensor::{int2, simd};

/// Everything observable from the three surfaces, as exact bits.
#[derive(Debug, PartialEq)]
struct Observed {
    trained_params: Vec<u32>,
    eval_correct: Vec<Vec<bool>>,
    eval_confidence: Vec<Vec<u32>>,
    serve_exit: Vec<usize>,
    serve_class: Vec<usize>,
    serve_confidence: Vec<u32>,
    pruned_params: Vec<u32>,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One SGD step of a conv stack shaped like a pruned CNV block chain:
/// 3 → 5 → 7 → 13 → 7 → 5 channels, the third conv "same"-padded, the
/// last one's map too narrow for the flat input-gradient route. Returns
/// the updated parameters' bits.
fn pruned_training_step() -> Vec<u32> {
    let mut rng = rng_from_seed(21);
    let spec = QuantSpec::signed(2);
    let mut block = |c_in: usize, c_out: usize, pad: usize| {
        let geom = ConvGeometry::new(3).with_padding(pad);
        [
            Layer::Conv(QuantConv2d::new(c_in, c_out, geom, spec, &mut rng)),
            Layer::Norm(BatchNorm::new(c_out)),
            Layer::Act(QuantReLU::a2()),
        ]
    };
    let mut layers: Vec<Layer> = [
        &block(3, 5, 0)[..],
        &block(5, 7, 0),
        &[Layer::Pool(MaxPool2d::new(2))],
        &block(7, 13, 1),
        &block(13, 7, 0),
        &block(7, 5, 0),
    ]
    .into_iter()
    .flat_map(|layers| layers.iter().cloned())
    .collect();
    layers.push(Layer::Flatten);
    layers.push(Layer::Linear(QuantLinear::new(5 * 2 * 2, 10, spec, &mut rng)));

    let batch = 6;
    let mut cur = Activation::new(
        normal_tensor(&[batch * 3 * 16 * 16], 0.0, 1.0, &mut rng).into_vec(),
        batch,
        vec![3, 16, 16],
    );
    for layer in layers.iter_mut() {
        cur = layer.forward_owned(cur, true);
    }
    let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();
    let mut grad = cross_entropy_with_grad(&cur, &labels, 1.0).1;
    for layer in layers.iter_mut().rev() {
        grad = layer.backward(&grad);
    }
    let mut params = Vec::new();
    for layer in layers.iter_mut() {
        layer.for_each_param(&mut |p| {
            p.sgd_step(0.02, 0.9, 1e-4);
            params.extend(bits(&p.value));
        });
    }
    params
}

fn run_all_surfaces() -> Observed {
    let data = SyntheticConfig::new(DatasetKind::Cifar10Like)
        .with_sizes(16, 24)
        .generate();
    let mut net =
        CnvConfig::tiny().build_early_exit(data.num_classes(), &ExitsConfig::paper_default(), 3);
    let (c, h, w) = data.train.dims();

    // One SGD step over the whole (16-image) training split.
    let order: Vec<usize> = (0..data.train.len()).collect();
    let (pixels, labels) = data.train.gather(&order);
    let x = Activation::new(pixels, order.len(), vec![c, h, w]);
    let outputs = net.forward(&x, true);
    let grads: Vec<Activation> = outputs
        .iter()
        .zip(default_exit_weights(net.num_exits()))
        .map(|(out, wgt)| cross_entropy_with_grad(out, &labels, wgt).1)
        .collect();
    net.zero_grad();
    net.backward(&grads);
    Sgd::new(0.02, 0.9, 1e-4).step(&mut net, 1.0);
    let mut trained_params = Vec::new();
    net.for_each_param(|p| trained_params.extend(bits(&p.value)));

    let eval = evaluate_exits(&mut net, &data.test);

    let test_order: Vec<usize> = (0..data.test.len()).collect();
    let (pixels, _) = data.test.gather(&test_order);
    let batch = Activation::new(pixels, test_order.len(), vec![c, h, w]);
    let mut verdicts = BatchVerdicts::default();
    BatchExecutor::new(
        &net,
        &ExecutorConfig {
            threshold: 0.3,
            ..ExecutorConfig::default()
        },
    )
    .run_batch(&batch, &mut verdicts);

    Observed {
        trained_params,
        eval_correct: eval.correct,
        eval_confidence: eval.confidence.iter().map(|v| bits(v)).collect(),
        serve_exit: verdicts.exit,
        serve_class: verdicts.class,
        serve_confidence: bits(&verdicts.confidence),
        pruned_params: pruned_training_step(),
    }
}

/// The backends this host can force, best first: the detected one and,
/// [`Backend`] being ordered best first, every one after it.
fn forcible_backends() -> Vec<Backend> {
    int2::override_backend(None);
    let all = [Backend::Avx512, Backend::Avx2, Backend::Portable];
    let detected = int2::active_backend();
    let first = all.iter().position(|&b| b == detected).expect("all backends are listed");
    for missing in &all[..first] {
        println!("backend_identity: {missing:?} unavailable on this host");
    }
    all[first..].to_vec()
}

/// Named for its first form, which forced the portable backend only; it
/// now forces every backend the host has, portable last.
#[test]
fn train_eval_and_serve_are_bit_identical_on_the_portable_backend() {
    let backends = forcible_backends();
    simd::override_backend(None);
    let detected = run_all_surfaces();
    assert!(!detected.trained_params.is_empty());
    assert_eq!(detected.eval_confidence[0].len(), 24);
    assert_eq!(detected.serve_exit.len(), 24);
    println!(
        "backend_identity: detected simd {:?} / int2 {:?}, forcing {backends:?}",
        simd::active_backend(),
        int2::active_backend()
    );
    for backend in backends {
        simd::override_backend(Some(backend));
        int2::override_backend(Some(backend));
        assert_eq!(run_all_surfaces(), detected, "forced {backend:?} vs detected");
    }
    simd::override_backend(None);
    int2::override_backend(None);
}
