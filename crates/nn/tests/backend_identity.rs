//! End-to-end cross-backend identity.
//!
//! `simd_identity` and `int2_identity` pin the AVX-512, AVX2 and portable
//! bodies against each other kernel by kernel; this suite pins what that
//! buys at the surfaces callers see. One SGD training step, a full
//! `evaluate_exits` sweep and one `BatchExecutor::run_batch` on the same
//! seeded net and data must come out `to_bits`-identical whether the
//! f32 and int2 dispatchers use the detected backends or are pinned to
//! any backend the host can run — on an AVX-512 host that is forced
//! AVX-512 (the int2 `VPOPCNTDQ` bodies over the 8-lane f32 kernels),
//! forced AVX2, which detection would otherwise never dispatch there,
//! and forced portable.
//!
//! The backend overrides are process-global, so this file holds a
//! single test.

use adapex_dataset::{DatasetKind, SyntheticConfig};
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::eval::evaluate_exits;
use adapex_nn::layers::Activation;
use adapex_nn::loss::cross_entropy_with_grad;
use adapex_nn::optim::Sgd;
use adapex_nn::serve::{BatchExecutor, BatchVerdicts, ExecutorConfig};
use adapex_nn::train::default_exit_weights;
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
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
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
