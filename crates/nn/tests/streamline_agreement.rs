//! Whole-net differential for the streamlined serving path.
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
//! The last check reads the process-global direct-conv counter, and the
//! backend override is process-global too, so this file holds a single
//! test.

use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::layers::{ActQuant, Activation, Layer};
use adapex_nn::network::EarlyExitNetwork;
use adapex_nn::serve::{BatchExecutor, BatchVerdicts, EnginePlan, ExecutorConfig};
use adapex_tensor::int2::{self, Backend};
use adapex_tensor::rng::rng_from_seed;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;
use std::sync::atomic::{AtomicUsize, Ordering};

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
        // The file's only test, its cases run in order: each width twice.
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
