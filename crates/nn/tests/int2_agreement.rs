//! Differential f32↔int2 agreement harness.
//!
//! Every 2-bit matrix layer's code-domain forward can be computed two
//! materially different ways — the bit-packed popcount engine and the
//! f32 GEMM over the same integer code values — and the two must agree
//! on every output **bit**, not just the argmax (see DESIGN.md §11 for
//! the exactness argument). Convs ship both routes and pick per layer
//! (`QuantConv2d::prefer_f32_codes`), so their differentials flip that
//! field on a clone; linear layers ship the engine only, so theirs
//! compares against a test-local f32-over-codes oracle composed from
//! the public primitives. These tests pin that agreement for
//! QuantLinear and QuantConv2d through the real quantizers, for a full
//! early-exit network under `evaluate_exits` (the streamlined plan
//! against the f32-over-codes layer path), and against an independent
//! f64 reference of the fake-quant arithmetic so both implementations
//! can't drift together.

use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::eval::evaluate_exits;
use adapex_nn::layers::{Activation, Layer, QuantConv2d, QuantLinear, QuantReLU};
use adapex_nn::network::EarlyExitNetwork;
use adapex_nn::quant::{quantize_weights_per_row_into, QuantSpec};
use adapex_dataset::{DatasetKind, SyntheticConfig};
use adapex_tensor::conv::ConvGeometry;
use adapex_tensor::gemm::gemm_a_bt;
use adapex_tensor::int2;
use adapex_tensor::rng::rng_from_seed;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// The op counters are process-global: some tests here read them and
/// every test here bumps them, so all serialize on one lock
/// (poison-tolerant: a failed test must not cascade).
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn counter_lock() -> MutexGuard<'static, ()> {
    COUNTER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Eval forward of `conv` on the engine route and, on a clone with
/// `prefer_f32_codes` set, on the f32-over-codes route.
fn conv_on_both_routes(conv: &QuantConv2d, x: &Activation) -> (Activation, Activation) {
    let mut engine = conv.clone();
    let mut f32_codes = conv.clone();
    f32_codes.prefer_f32_codes = true;
    (engine.forward(x, false), f32_codes.forward(x, false))
}

/// The f32-over-codes oracle for a 2-bit linear layer: integer weight
/// and activation codes through the f32 GEMM (exact — every partial sum
/// is an integer below 2^24, never FMA-contracted), then the same
/// requantize+bias epilogue the engine fuses. Returns the layer's
/// fake-quant weights too, for the f64 reference.
fn linear_f32_codes_oracle(lin: &QuantLinear, x: &Activation) -> (Vec<f32>, Vec<f32>) {
    let (m, k, n) = (lin.out_features, lin.in_features, x.n);
    let ascale = x.quant.expect("input carries its 2-bit grid").scale;
    let (mut qw, mut scales, mut wcodes) = (Vec::new(), Vec::new(), Vec::new());
    quantize_weights_per_row_into(&lin.weight.value, k, lin.weight_spec, &mut qw, &mut scales);
    int2::weight_codes_into(&qw, &scales, k, &mut wcodes);
    let mut acodes = x.data.clone();
    int2::act_codes_in_place(&mut acodes, ascale);
    let cs: Vec<f32> = scales.iter().map(|&s| s * ascale).collect();
    let mut y = vec![0.0; n * m];
    gemm_a_bt(n, k, m, &acodes, &wcodes, &mut y);
    int2::requantize_cols(&mut y, &cs, &lin.bias.value);
    (y, qw)
}

/// `net` with every conv layer routed to f32-over-codes.
fn with_f32_code_convs(net: &EarlyExitNetwork) -> EarlyExitNetwork {
    let mut net = net.clone();
    let layers = net
        .backbone
        .iter_mut()
        .chain(net.exits.iter_mut().flat_map(|e| e.layers.iter_mut()));
    for l in layers {
        if let Layer::Conv(c) = l {
            c.prefer_f32_codes = true;
        }
    }
    net
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Raw pre-activation inputs pushed through the real activation
/// quantizer (stamping the 2-bit grid metadata the router needs).
fn quantized_input(raw: Vec<f32>, n: usize, dims: Vec<usize>) -> Activation {
    let x = Activation::new(raw, n, dims);
    QuantReLU::a2().forward(&x, false)
}

/// Independent reference for one linear output in f64: the fake-quant
/// formulation `Σ qw·xq + b`. The code-domain result may differ from
/// this only by its two f32 epilogue roundings and the combined-scale
/// rounding, so agreement within a few ulps pins both implementations
/// to the quantized semantics (a shared code-recovery bug would slip
/// past the bitwise int2↔f32 comparison alone).
fn close_to_fake_quant_ref(got: f32, qw_row: &[f32], xq: &[f32], bias: f32) -> bool {
    let want: f64 = qw_row
        .iter()
        .zip(xq)
        .map(|(&w, &x)| w as f64 * x as f64)
        .sum::<f64>()
        + bias as f64;
    (got as f64 - want).abs() <= 1e-4 * (1.0 + want.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// QuantLinear eval: popcount engine == f32-over-codes oracle, bit
    /// for bit, and both track the fake-quant reference.
    #[test]
    fn linear_int2_and_f32_paths_agree_exactly(
        in_features in 1usize..96,
        out_features in 1usize..24,
        n in 1usize..5,
        seed in 0u64..1_000,
        wseed in 0u64..1_000,
    ) {
        let _guard = counter_lock();
        let mut lin = QuantLinear::new(
            in_features,
            out_features,
            QuantSpec::signed(2),
            &mut rng_from_seed(wseed),
        );
        // Deterministic pseudo-random bias so the epilogue is exercised.
        for (i, b) in lin.bias.value.iter_mut().enumerate() {
            *b = ((i as f32 * 0.37 + 0.1).sin()) * 0.5;
        }
        let raw: Vec<f32> = (0..n * in_features)
            .map(|i| ((i as f32 + seed as f32) * 0.713).sin() * 2.5)
            .collect();
        let x = quantized_input(raw, n, vec![in_features]);

        int2::reset_op_counters();
        let y = lin.forward(&x, false);
        let (macs, _) = int2::op_counters();
        // The layer must actually have run on the engine.
        prop_assert_eq!(macs, (n * in_features * out_features) as u64);
        let (y_oracle, qw) = linear_f32_codes_oracle(&lin, &x);
        prop_assert_eq!(bits(&y.data), bits(&y_oracle));
        // Independent reference: every logit against the f64
        // fake-quant dot product over the layer's quantized weights.
        for s in 0..n {
            for o in 0..out_features {
                prop_assert!(close_to_fake_quant_ref(
                    y.sample(s)[o],
                    &qw[o * in_features..(o + 1) * in_features],
                    x.sample(s),
                    lin.bias.value[o],
                ));
            }
        }
    }

    /// QuantConv2d eval at CNV-like shapes: bitwise route agreement
    /// plus the engine-ran MAC check (the f32 route counts nothing).
    #[test]
    fn conv_int2_and_f32_paths_agree_exactly(
        c_in in 1usize..5,
        c_out in 1usize..9,
        hw in 4usize..9,
        n in 1usize..3,
        seed in 0u64..1_000,
        wseed in 0u64..1_000,
    ) {
        let _guard = counter_lock();
        let mut conv = QuantConv2d::new(
            c_in,
            c_out,
            ConvGeometry::new(3),
            QuantSpec::signed(2),
            &mut rng_from_seed(wseed),
        );
        for (i, b) in conv.bias.value.iter_mut().enumerate() {
            *b = ((i as f32 * 0.71 - 0.2).cos()) * 0.3;
        }
        let raw: Vec<f32> = (0..n * c_in * hw * hw)
            .map(|i| ((i as f32 * 0.917 + seed as f32) * 0.531).sin() * 2.5)
            .collect();
        let x = quantized_input(raw, n, vec![c_in, hw, hw]);

        int2::reset_op_counters();
        let (y_engine, y_f32) = conv_on_both_routes(&conv, &x);
        let (macs, _) = int2::op_counters();
        let pixels = (hw - 2) * (hw - 2);
        prop_assert_eq!(macs, (n * c_out * c_in * 9 * pixels) as u64);
        prop_assert_eq!(bits(&y_engine.data), bits(&y_f32.data));
    }
}

/// Fixed CNV-scale shapes (the proptests stay small for CI time).
#[test]
fn cnv_shape_linear_agrees_exactly() {
    let _guard = counter_lock();
    let mut lin = QuantLinear::new(576, 64, QuantSpec::signed(2), &mut rng_from_seed(7));
    let raw: Vec<f32> = (0..33 * 576).map(|i| (i as f32 * 0.0137).sin() * 3.0).collect();
    let x = quantized_input(raw, 33, vec![576]);
    let y = lin.forward(&x, false);
    let (y_oracle, _) = linear_f32_codes_oracle(&lin, &x);
    assert_eq!(bits(&y.data), bits(&y_oracle));
}

#[test]
fn cnv_shape_conv_agrees_exactly() {
    let _guard = counter_lock();
    let conv = QuantConv2d::new(
        8,
        16,
        ConvGeometry::new(3),
        QuantSpec::signed(2),
        &mut rng_from_seed(11),
    );
    let raw: Vec<f32> = (0..2 * 8 * 16 * 16).map(|i| (i as f32 * 0.0731).cos() * 2.2).collect();
    let x = quantized_input(raw, 2, vec![8, 16, 16]);
    let (y_engine, y_f32) = conv_on_both_routes(&conv, &x);
    assert_eq!(bits(&y_engine.data), bits(&y_f32.data));
}

/// Full-network differential test: a seeded (untrained weights are
/// fine — they still quantize) early-exit CNV evaluated on a seeded
/// GTSRB-like batch must produce identical confidences and correctness
/// masks with its convs on the popcount engine — folded into the
/// streamlined plan, which `evaluate_exits` runs — and, on a clone with
/// `prefer_f32_codes` set, on f32-over-codes — which the plan refuses,
/// so that clone evaluates on the layer path. This is the end-to-end pin
/// for "evaluate_exits routes through int2 without changing a single
/// bit".
#[test]
fn evaluate_exits_is_bit_identical_across_int2_modes() {
    let _guard = counter_lock();
    let data = SyntheticConfig::new(DatasetKind::GtsrbLike)
        .with_sizes(4, 24)
        .generate();
    let mut net = CnvConfig::tiny().build_early_exit(
        data.num_classes(),
        &ExitsConfig::paper_default(),
        3,
    );
    let mut net_f32 = with_f32_code_convs(&net);

    int2::reset_op_counters();
    let eval_engine = evaluate_exits(&mut net, &data.test);
    let calls = int2::direct_conv_calls();
    assert!(calls > 0, "direct conv path never engaged");
    let eval_f32 = evaluate_exits(&mut net_f32, &data.test);
    assert_eq!(int2::direct_conv_calls(), calls, "a conv ignored prefer_f32_codes");

    assert_eq!(eval_engine.samples, eval_f32.samples);
    assert_eq!(eval_engine.correct, eval_f32.correct);
    assert_eq!(eval_engine.confidence.len(), eval_f32.confidence.len());
    for (a, b) in eval_engine.confidence.iter().zip(&eval_f32.confidence) {
        assert_eq!(bits(a), bits(b));
    }
}
