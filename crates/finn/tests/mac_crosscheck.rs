//! Cycle-model ↔ engine cross-check: the MAC counts the `finn` IR
//! predicts must match the operations the int2 engine actually executes.
//!
//! The IR's `macs()` counts logical multiply-accumulates; the engine
//! counts both logical MACs and executed popcount word-operations. The
//! two MAC counters must agree **exactly** (per sample, stem conv
//! excluded — it consumes the raw image and stays on the f32 path). The
//! popcount counter relates to MACs by a documented constant factor:
//! each popcount word covers 64 packed codes across 4 plane streams, so
//! `popcount_ops * 16 >= macs`, with equality exactly when every
//! reduction depth is a multiple of 64 — the gap is the zero-padded tail
//! words, which the word-granularity model also counts, not a
//! divergence.
//!
//! The counters sit in the dispatchers, above the backend bodies, so the
//! counts must not depend on which body ran: every check repeats under
//! each int2 backend the host can force.

use std::sync::Mutex;

use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::layers::{Activation, QuantConv2d, QuantReLU};
use adapex_nn::quant::QuantSpec;
use adapex_nn::serve::{BatchExecutor, BatchVerdicts, EnginePlan, ExecutorConfig};
use adapex_tensor::conv::ConvGeometry;
use adapex_tensor::int2::{self, Backend};
use adapex_tensor::rng::{normal_tensor, rng_from_seed};
use finn_dataflow::{IrOp, ModelIr};

/// Serializes the tests: they read process-global counters and flip
/// the process-global backend, so concurrent runs would cross-talk.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

/// Runs `check` under every int2 backend this host can force, best
/// first — the detected one and, [`Backend`] being ordered best first,
/// every one after it — and says which it could not. Call with
/// [`COUNTER_LOCK`] held.
fn under_every_backend(test: &str, mut check: impl FnMut(Backend)) {
    int2::override_backend(None);
    let all = [Backend::Avx512, Backend::Avx2, Backend::Portable];
    let detected = int2::active_backend();
    let first = all.iter().position(|&b| b == detected).expect("all backends are listed");
    for &backend in &all[first..] {
        int2::override_backend(Some(backend));
        check(backend);
    }
    int2::override_backend(None);
    println!("{test}: covered {:?}, unavailable on this host {:?}", &all[first..], &all[..first]);
}

/// One conv layer with a 2-bit-quantized input: engine counters ==
/// the IR node's predictions, hand-checkable (4×6 ch, 3×3 kernel,
/// 10×10 → 8×8; k = 36, so popcounts cover one padded word per output).
/// The direct gather materializes `ceil(k/64)` plane words per output
/// pixel — what packing im2col columns would — so the word-granularity
/// model covers its windowed reads exactly, with no extra formula.
#[test]
fn single_conv_counters_match_ir_prediction() {
    let mut conv = QuantConv2d::new(
        4,
        6,
        ConvGeometry::new(3),
        QuantSpec::signed(2),
        &mut rng_from_seed(5),
    );
    let batch = 3;
    let raw: Vec<f32> = (0..batch * 4 * 10 * 10)
        .map(|i| (i as f32 * 0.311).sin() * 2.0)
        .collect();
    let x = QuantReLU::a2().forward(&Activation::new(raw, batch, vec![4, 10, 10]), false);

    let node = IrOp::Conv {
        c_in: 4,
        c_out: 6,
        kernel: 3,
        stride: 1,
        padding: 0,
        in_hw: (10, 10),
        out_hw: (8, 8),
        weight_bits: 2,
        act_bits: Some(2),
        thresholds: true,
    };
    assert_eq!(node.macs(), 4 * 6 * 9 * 8 * 8);
    assert_eq!(node.int2_popcount_ops(), 4 * 6 * 8 * 8); // ceil(36/64) = 1 word
    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    under_every_backend("single_conv_counters_match_ir_prediction", |backend| {
        int2::reset_op_counters();
        conv.forward(&x, false);
        let (macs, pops) = int2::op_counters();
        assert_eq!(macs, batch as u64 * node.macs(), "{backend:?}");
        assert_eq!(pops, batch as u64 * node.int2_popcount_ops(), "{backend:?}");
        // Prove the engine route ran: one direct call per image.
        assert_eq!(int2::direct_conv_calls(), batch as u64, "{backend:?}");
        // Constant-factor relation: 64 codes / 4 plane streams per word
        // => up to 16 MACs per popcount op; k = 36 < 64 keeps it strict.
        assert!(pops * 16 >= macs);
    });
}

/// Full early-exit network: per-sample engine counters == the IR's
/// `int2_engine_profile` (all matrix nodes minus the stem), for both
/// MACs (exact) and popcount word-ops (exact, padding included on both
/// sides). A constant-factor drift in either the cycle model or the
/// engine instrumentation fails this immediately.
#[test]
fn full_network_engine_counters_match_ir_profile() {
    let mut net = CnvConfig::tiny().build_early_exit(43, &ExitsConfig::paper_default(), 9);
    let ir = ModelIr::from_summary(&net.summarize());
    let (macs_per_sample, pops_per_sample) = ir.int2_engine_profile();
    assert!(macs_per_sample > 0);
    assert!(pops_per_sample * 16 >= macs_per_sample);

    let batch = 5;
    let numel: usize = ir.input_dims.iter().product();
    let mut rng = rng_from_seed(21);
    let x = Activation::new(
        normal_tensor(&[batch * numel], 0.0, 1.0, &mut rng).into_vec(),
        batch,
        ir.input_dims.clone(),
    );

    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    under_every_backend("full_network_engine_counters_match_ir_profile", |backend| {
        int2::reset_op_counters();
        net.forward(&x, false);
        let (macs, pops) = int2::op_counters();
        assert_eq!(
            macs,
            batch as u64 * macs_per_sample,
            "{backend:?}: engine MACs diverge from the cycle model's matrix-node count"
        );
        assert_eq!(
            pops,
            batch as u64 * pops_per_sample,
            "{backend:?}: engine popcount ops diverge from the word-granularity model"
        );
        // The direct route must actually engage on the non-stem convs
        // (the stem consumes the raw image and stays on the f32 path, so
        // it never contributes a call).
        assert!(int2::direct_conv_calls() > 0, "{backend:?}: direct conv path never engaged");
    });
}

/// The serving executor's streamlined path (thresholds folded, packed
/// code maps — what `EnginePlan::Auto` runs on a CNV) executes exactly
/// the operations the IR predicts, like the layer path: same MACs, same
/// popcount words, one direct-conv call per non-stem conv and sample.
/// A threshold no confidence reaches keeps every sample in the net to
/// the final exit, so the per-sample profile applies to the whole batch.
#[test]
fn streamlined_executor_counters_match_ir_profile() {
    let net = CnvConfig::tiny().build_early_exit(43, &ExitsConfig::paper_default(), 9);
    let ir = ModelIr::from_summary(&net.summarize());
    let (macs_per_sample, pops_per_sample) = ir.int2_engine_profile();
    // Backbone convs behind the stem plus one per exit head.
    let convs_per_sample = 5 + net.exits.len() as u64;

    let batch = 6;
    let numel: usize = ir.input_dims.iter().product();
    let mut rng = rng_from_seed(33);
    let x = Activation::new(
        normal_tensor(&[batch * numel], 0.0, 1.0, &mut rng).into_vec(),
        batch,
        ir.input_dims.clone(),
    );

    let _guard = COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    under_every_backend("streamlined_executor_counters_match_ir_profile", |backend| {
        for engine in [EnginePlan::Auto, EnginePlan::Int2Always] {
            let mut exec = BatchExecutor::new(
                &net,
                &ExecutorConfig {
                    threshold: 2.0,
                    workers: 1,
                    engine,
                },
            );
            assert_eq!(exec.streamlined(), engine == EnginePlan::Auto);
            let mut out = BatchVerdicts::default();
            int2::reset_op_counters();
            exec.run_batch(&x, &mut out);
            let (macs, pops) = int2::op_counters();
            let tag = format!("{engine:?} under {backend:?}");
            assert_eq!(macs, batch as u64 * macs_per_sample, "{tag} MACs");
            assert_eq!(pops, batch as u64 * pops_per_sample, "{tag} popcount words");
            assert_eq!(
                int2::direct_conv_calls(),
                batch as u64 * convs_per_sample,
                "{tag} direct-conv calls"
            );
        }
    });
}
