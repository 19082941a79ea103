//! Whole-net differentials for the streamlined path.
//!
//! Under `EnginePlan::Auto` a CNV's `run_batch` runs the streamlined
//! plan (BatchNorm + QuantReLU folded into integer thresholds, packed
//! code maps between layers); under `EnginePlan::Int2Always` it runs the
//! layer-by-layer loop over f32 activations. The two must agree in
//! every verdict bit — exit, class, confidence — for any BatchNorm
//! parameters, batch size, threshold and worker count, and a stamped
//! input batch must take the layer path under both — under the detected
//! int2 backend and under every other one the host can force (AVX2 is
//! never detected on an AVX-512 host, portable on neither).
//!
//! `evaluate_exits_with` is that executor at a threshold no exit clears,
//! so its `ExitEvaluation` is held to an oracle that shares neither
//! walk nor scorer with it: the network's own `forward` scored by a
//! test-local softmax and first-max — on the CNVs the plan covers and on
//! a W4A4 net it refuses.
//!
//! The stamped-batch check reads the process-global direct-conv counter,
//! and the backend override is process-global too, so the tests here
//! serialize on one lock.

use adapex_dataset::{Difficulty, LabeledImages};
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::eval::{evaluate_exits_with, EvalConfig, ExitEvaluation};
use adapex_nn::layers::{ActQuant, Activation, Layer};
use adapex_nn::network::EarlyExitNetwork;
use adapex_nn::serve::{BatchExecutor, BatchVerdicts, EnginePlan, ExecutorConfig};
use adapex_tensor::int2::{self, Backend};
use adapex_tensor::rng::rng_from_seed;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Held by every test here (poison-tolerant: a failed test must not
/// cascade).
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Replaces every BatchNorm's parameters and running statistics with
/// draws that include negative and zero γ, large β and tiny variances.
fn randomize_norms(net: &mut EarlyExitNetwork, rng: &mut StdRng) {
    let layers = net
        .backbone
        .iter_mut()
        .chain(net.exits.iter_mut().flat_map(|e| e.layers.iter_mut()));
    for l in layers {
        let Layer::Norm(bn) = l else { continue };
        for c in 0..bn.channels {
            bn.gamma.value[c] = match rng.random_range(0..8u32) {
                0 => 0.0,
                1 | 2 => -rng.random_range(0.1f32..2.5),
                _ => rng.random_range(0.1f32..2.5),
            };
            bn.beta.value[c] = match rng.random_range(0..12u32) {
                0 => 50.0,
                1 => -50.0,
                _ => rng.random_range(-1.5f32..1.5),
            };
            bn.running_mean[c] = rng.random_range(-1.0f32..1.0);
            bn.running_var[c] = match rng.random_range(0..8u32) {
                0 => 1e-10,
                _ => rng.random_range(0.05f32..4.0),
            };
        }
    }
}

fn batch(n: usize, dims: &[usize], rng: &mut StdRng) -> Activation {
    let per: usize = dims.iter().product();
    let data = (0..n * per).map(|_| rng.random::<f32>() * 2.0 - 0.5).collect();
    Activation::new(data, n, dims.to_vec())
}

/// Verdicts of `x`, and whether the executor holds a streamlined plan.
fn run(
    net: &EarlyExitNetwork,
    engine: EnginePlan,
    threshold: f32,
    workers: usize,
    x: &Activation,
) -> (BatchVerdicts, bool) {
    let mut exec = BatchExecutor::new(
        net,
        &ExecutorConfig {
            threshold,
            workers,
            engine,
        },
    );
    let mut out = BatchVerdicts::default();
    exec.run_batch(x, &mut out);
    // A second batch through the same executor: reused scratch and
    // stale packed maps must not leak into verdicts.
    let mut again = BatchVerdicts::default();
    exec.run_batch(x, &mut again);
    assert_eq!(out, again, "executor state leaked between batches");
    (out, exec.streamlined())
}

fn assert_same_bits(a: &BatchVerdicts, b: &BatchVerdicts, tag: &str) {
    assert_eq!(a.exit, b.exit, "exit, {tag}");
    assert_eq!(a.class, b.class, "class, {tag}");
    let bits = |v: &BatchVerdicts| v.confidence.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "confidence, {tag}");
}

/// Thresholds that retire all, some and none of `x` at each early exit,
/// placed from the layer path's own confidences.
fn thresholds_for(net: &EarlyExitNetwork, x: &Activation) -> Vec<f32> {
    let sorted = |mut v: Vec<f32>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("confidences are finite"));
        v
    };
    let at_exit1 = sorted(run(net, EnginePlan::Int2Always, 0.0, 1, x).0.confidence);
    let past_exit1 = at_exit1[at_exit1.len() - 1] + 1e-3;
    let mut cuts = vec![0.0, at_exit1[at_exit1.len() / 2], past_exit1, 2.0];
    let second = run(net, EnginePlan::Int2Always, past_exit1, 1, x).0;
    let at_exit2 = sorted(
        second
            .confidence
            .iter()
            .zip(&second.exit)
            .filter(|(_, &e)| e == 1)
            .map(|(&c, _)| c)
            .collect(),
    );
    if let Some(&mid) = at_exit2.get(at_exit2.len() / 2) {
        cuts.push(mid.max(past_exit1));
    }
    cuts
}

/// The backends this host can force, best first: the detected one and,
/// [`Backend`] being ordered best first, every one after it.
fn forcible_backends() -> Vec<Backend> {
    int2::override_backend(None);
    let all = [Backend::Avx512, Backend::Avx2, Backend::Portable];
    let detected = int2::active_backend();
    let first = all.iter().position(|&b| b == detected).expect("all backends are listed");
    for missing in &all[..first] {
        println!("streamline_agreement: {missing:?} unavailable on this host");
    }
    all[first..].to_vec()
}

/// CNV widths under test, taken in turn case by case: 2 has filter
/// banks of two and four (below the routing floor `Auto` applied until
/// PR 24), 4 is `CnvConfig::tiny()`, 8 is what the library serves.
const WIDTHS: [usize; 3] = [2, 4, 8];

/// One case under one forced int2 backend.
fn check_case(seed: u64, width: usize, backend: Backend) -> Result<(), TestCaseError> {
    int2::override_backend(Some(backend));
    let mut rng = rng_from_seed(seed);
    let cfg = CnvConfig::scaled(width);
    let mut net = cfg.build_early_exit(10, &ExitsConfig::paper_default(), seed ^ 0x5eed);
    randomize_norms(&mut net, &mut rng);
    let final_exit = net.num_exits() - 1;

    for n in [1usize, 7, 16] {
        let x = batch(n, &net.input_dims, &mut rng);
        let cuts = thresholds_for(&net, &x);
        for &threshold in &cuts {
            for workers in [1usize, 3] {
                let tag = format!("n={n} CT={threshold} workers={workers} width={width} {backend:?}");
                let (layers, on_plan) = run(&net, EnginePlan::Int2Always, threshold, workers, &x);
                prop_assert!(!on_plan);
                let (auto, on_plan) = run(&net, EnginePlan::Auto, threshold, workers, &x);
                prop_assert!(on_plan, "CNV must get a streamlined plan");
                assert_same_bits(&auto, &layers, &tag);
                if threshold == 0.0 {
                    prop_assert!(auto.exit.iter().all(|&e| e == 0), "{}", tag);
                }
                if threshold == 2.0 {
                    prop_assert!(auto.exit.iter().all(|&e| e == final_exit), "{}", tag);
                }
            }
        }

        // A stamped batch: conv1 takes its int2 route on the layer
        // path, which the plan's f32 stem would not reproduce — the
        // executor must notice and take the layers under `Auto` too.
        // Verdicts alone cannot tell the two stems apart reliably
        // (both usually land on the same codes); the direct-conv
        // counter can: only the layer path's conv1 bumps it.
        let mut stamped = x.clone();
        for v in &mut stamped.data {
            *v = (*v * 4.0).round().clamp(0.0, 3.0) * 0.25;
        }
        stamped.quant = Some(ActQuant { scale: 0.25, bits: 2 });
        int2::reset_op_counters();
        let (layers, _) = run(&net, EnginePlan::Int2Always, cuts[1], 1, &stamped);
        let layer_calls = int2::direct_conv_calls();
        int2::reset_op_counters();
        let (auto, _) = run(&net, EnginePlan::Auto, cuts[1], 1, &stamped);
        assert_same_bits(&auto, &layers, &format!("stamped n={n} width={width} {backend:?}"));
        prop_assert_eq!(
            int2::direct_conv_calls(),
            layer_calls,
            "a stamped batch left the layer path"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn auto_and_layer_path_verdicts_are_bit_identical(seed in any::<u64>()) {
        let _guard = lock();
        // The cases run in order: each width twice.
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let width = WIDTHS[CASE.fetch_add(1, Ordering::Relaxed) % WIDTHS.len()];
        let backends = forcible_backends();
        println!("streamline_agreement: seed {seed:#x} width={width} under {backends:?}");
        for backend in backends {
            check_case(seed, width, backend)?;
        }
        int2::override_backend(None);
    }
}

/// Pixels no camera sends — NaN, ±∞, ±1e38, −0 and subnormals — through
/// a net whose first stem channel has γ = 0 and β = 0.7: that channel
/// codes β's grid point on every finite accumulator and 0 on ±∞ and NaN,
/// so over the whole f32 line its code is no step function, and the
/// plan's f32 steps hold only on the range where the normalize stays
/// finite. An image with an accumulator outside it must take the
/// layers' epilogue: `Auto` keeps the net on its plan and gives the
/// layer path's verdicts bit for bit, at widths 4 and 8, under every
/// backend the host can force.
#[test]
fn extreme_pixels_and_a_flat_stem_channel_keep_the_layer_path_bits() {
    let _guard = lock();
    const EDGES: [f32; 8] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e38,
        -1e38,
        -0.0,
        1e-40,
        -3e-42,
    ];
    let backends = forcible_backends();
    for width in [4usize, 8] {
        let mut rng = rng_from_seed(0x7a9 ^ width as u64);
        let cfg = CnvConfig::scaled(width);
        let mut net = cfg.build_early_exit(10, &ExitsConfig::paper_default(), 0x7a9);
        randomize_norms(&mut net, &mut rng);
        let Layer::Norm(bn) = &mut net.backbone[1] else {
            unreachable!("the CNV stem's BatchNorm sits at 1")
        };
        (bn.gamma.value[0], bn.beta.value[0]) = (0.0, 0.7);
        let mut x = batch(16, &net.input_dims, &mut rng);
        let per = x.sample_len();
        for (s, img) in x.data.chunks_exact_mut(per).enumerate() {
            match s % 4 {
                // Clean images: the plan's threshold unit.
                0 => {}
                // One edge pixel.
                1 => img[(s * 131) % per] = EDGES[s % EDGES.len()],
                // Every edge, scattered.
                2 => {
                    for (i, v) in img.iter_mut().enumerate().filter(|(i, _)| i % 37 == s % 37) {
                        *v = EDGES[i % EDGES.len()];
                    }
                }
                // Huge but finite everywhere: accumulators overflow.
                _ => {
                    for (i, v) in img.iter_mut().enumerate() {
                        *v = if i % 2 == 0 { 1e38 } else { -1e38 };
                    }
                }
            }
        }
        for &backend in &backends {
            int2::override_backend(Some(backend));
            for threshold in [0.0f32, 0.3, 0.6, 2.0] {
                let tag = format!("width={width} CT={threshold} {backend:?}");
                let (layers, _) = run(&net, EnginePlan::Int2Always, threshold, 1, &x);
                let (auto, on_plan) = run(&net, EnginePlan::Auto, threshold, 1, &x);
                assert!(on_plan, "{tag}: the net must keep its plan");
                assert_same_bits(&auto, &layers, &tag);
            }
        }
        int2::override_backend(None);
    }
}

/// `n` random images with random labels out of ten classes.
fn labeled_images(n: usize, dims: &[usize], rng: &mut StdRng) -> LabeledImages {
    let x = batch(n, dims, rng);
    let mut images = LabeledImages::new(dims[0], dims[1], dims[2]);
    for s in 0..n {
        images.push(x.sample(s), rng.random_range(0..10usize), Difficulty::Easy);
    }
    images
}

/// Predicted class and confidence of one logit row: softmax with the
/// maximum subtracted, an in-order sum, true division, first maximum.
fn score(row: &[f32]) -> (usize, f32) {
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
}

/// The layer-path oracle: one full `EarlyExitNetwork::forward` over all
/// of `images`, every exit's rows scored by [`score`].
fn layer_path_evaluation(net: &EarlyExitNetwork, images: &LabeledImages) -> ExitEvaluation {
    let all: Vec<usize> = (0..images.len()).collect();
    let (pixels, labels) = images.gather(&all);
    let x = Activation::new(pixels, all.len(), net.input_dims.clone());
    let mut eval = ExitEvaluation {
        correct: Vec::new(),
        confidence: Vec::new(),
        samples: images.len(),
    };
    for out in net.clone().forward(&x, false) {
        let (correct, confidence) = labels
            .iter()
            .enumerate()
            .map(|(s, &label)| {
                let (class, conf) = score(out.sample(s));
                (class == label, conf)
            })
            .unzip();
        eval.correct.push(correct);
        eval.confidence.push(confidence);
    }
    eval
}

#[test]
fn evaluate_exits_matches_the_layer_path_scorer() {
    let _guard = lock();
    let w4a4 = CnvConfig {
        weight_bits: 4,
        act_bits: 4,
        ..CnvConfig::tiny()
    };
    let nets = [
        ("tiny", CnvConfig::tiny(), true),
        ("scaled(2)", CnvConfig::scaled(2), true),
        ("scaled(4)", CnvConfig::scaled(4), true),
        ("scaled(8)", CnvConfig::scaled(8), true),
        ("W4A4", w4a4, false),
    ];
    let backends = forcible_backends();
    println!("streamline_agreement: evaluations under {backends:?}");
    for backend in backends {
        int2::override_backend(Some(backend));
        for (i, &(name, cfg, streamlined)) in nets.iter().enumerate() {
            let seed = 0xe7a1 + i as u64;
            let mut rng = rng_from_seed(seed);
            let mut net = cfg.build_early_exit(10, &ExitsConfig::paper_default(), seed);
            randomize_norms(&mut net, &mut rng);
            let exec = BatchExecutor::new(&net, &ExecutorConfig::default());
            assert_eq!(exec.streamlined(), streamlined, "{name}: which walk evaluation takes");
            let images = labeled_images(70, &net.input_dims, &mut rng);
            let want = layer_path_evaluation(&net, &images);
            for batch in [1, 7, 64] {
                for jobs in [1, 3] {
                    let tag = format!("{name} batch={batch} jobs={jobs} {backend:?}");
                    let got = evaluate_exits_with(&mut net, &images, EvalConfig { batch, jobs });
                    assert_eq!(got.samples, want.samples, "samples, {tag}");
                    assert_eq!(got.correct, want.correct, "correct, {tag}");
                    assert_eq!(got.confidence.len(), want.confidence.len(), "exits, {tag}");
                    for (e, (g, w)) in got.confidence.iter().zip(&want.confidence).enumerate() {
                        let bits = |v: &[f32]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(g), bits(w), "exit {e} confidence, {tag}");
                    }
                }
            }
        }
    }
    int2::override_backend(None);
}
