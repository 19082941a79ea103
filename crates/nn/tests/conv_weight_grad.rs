//! The conv weight gradient against the textbook operand order.
//!
//! `QuantConv2d`'s backward computes each image's weight gradient
//! transposed, `dWᵀ = cols · dYᵀ` (`[kk, c_out]`), and folds it into the
//! `[c_out, kk]` gradient at the end of each chunk. This pins that route
//! to `dW = dY · colsᵀ` as `gemm_a_bt_st(c_out, pixels, kk, dy, cols)`
//! computes it, bit for bit, through the same chunking and STE mask, on
//! every conv shape of the width-8 CNV (backbone and exits) at output
//! widths on both sides of the GEMM's scalar branch (`c_out < 4`). Inputs
//! and gradients are dense in ±0.0, where a change of operand order or a
//! skipped zero term would show in the sign of a zero.

use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::layers::{Activation, QuantConv2d};
use adapex_nn::quant::{quantize_weights_per_row, ste_mask, QuantSpec};
use adapex_nn::LayerInfo;
use adapex_tensor::conv::{im2col_into, ConvGeometry};
use adapex_tensor::gemm::gemm_a_bt_st;
use adapex_tensor::rng::rng_from_seed;
use proptest::prelude::*;

/// Images per backward chunk in the layer (its `BWD_CHUNK`).
const CHUNK: usize = 8;
/// Two chunks, the second one short.
const BATCH: usize = CHUNK + 3;
const C_OUTS: [usize; 7] = [1, 2, 3, 5, 8, 16, 32];

/// `(c_in, geometry, in_hw)` of every distinct conv in the width-8 CNV.
fn cnv8_conv_shapes() -> Vec<(usize, ConvGeometry, (usize, usize))> {
    let net = CnvConfig::scaled(8).build_early_exit(10, &ExitsConfig::paper_default(), 1);
    let summary = net.summarize();
    let infos = summary
        .backbone
        .iter()
        .chain(summary.exits.iter().flat_map(|(_, layers)| layers));
    let mut shapes = Vec::new();
    for info in infos {
        if let LayerInfo::Conv { c_in, kernel, stride, padding, in_hw, .. } = *info {
            let geom = ConvGeometry::new(kernel)
                .with_stride(stride)
                .with_padding(padding);
            if !shapes.contains(&(c_in, geom, in_hw)) {
                shapes.push((c_in, geom, in_hw));
            }
        }
    }
    shapes
}

/// `len` values in [-2, 2), a quarter of them ±0.0.
fn dense_in_zeros(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            match (s >> 60) & 7 {
                0 => 0.0,
                1 => -0.0,
                _ => ((s >> 33) as u32 % 4096) as f32 / 1024.0 - 2.0,
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The weight gradient as `dW = dY · colsᵀ`, accumulated per chunk from
/// zero and folded through the STE mask in chunk order.
fn reference_grad(
    conv: &QuantConv2d,
    x: &[f32],
    dy: &[f32],
    (h, w): (usize, usize),
    pixels: usize,
) -> Vec<f32> {
    let kk = conv.c_in * conv.geom.kernel * conv.geom.kernel;
    let c_out = conv.c_out;
    let (sample_in, sample_out) = (conv.c_in * h * w, c_out * pixels);
    let (_, scales) = quantize_weights_per_row(&conv.weight.value, kk, conv.weight_spec);
    let mut grad = vec![0.0f32; c_out * kk];
    let (mut cols, mut dw_img) = (Vec::new(), vec![0.0f32; c_out * kk]);
    for chunk in (0..BATCH).collect::<Vec<_>>().chunks(CHUNK) {
        let mut dw = vec![0.0f32; c_out * kk];
        for &i in chunk {
            let img = &x[i * sample_in..(i + 1) * sample_in];
            im2col_into(img, conv.c_in, h, w, conv.geom, &mut cols);
            let dy_i = &dy[i * sample_out..(i + 1) * sample_out];
            gemm_a_bt_st(c_out, pixels, kk, dy_i, &cols, &mut dw_img);
            for (acc, &v) in dw.iter_mut().zip(&dw_img) {
                *acc += v;
            }
        }
        for (i, (slot, &g)) in grad.iter_mut().zip(&dw).enumerate() {
            *slot += g * ste_mask(conv.weight.value[i], scales[i / kk], conv.weight_spec);
        }
    }
    grad
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn transposed_weight_gradient_matches_dy_times_cols_transposed(seed in any::<u64>()) {
        for (shape, &(c_in, geom, (h, w))) in cnv8_conv_shapes().iter().enumerate() {
            let pixels = geom.output_dim(h).unwrap() * geom.output_dim(w).unwrap();
            for &c_out in &C_OUTS {
                let tag = seed ^ ((shape * 64 + c_out) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut conv = QuantConv2d::new(
                    c_in,
                    c_out,
                    geom,
                    QuantSpec::signed(2),
                    &mut rng_from_seed(tag),
                );
                let x = Activation::new(
                    dense_in_zeros(BATCH * c_in * h * w, tag),
                    BATCH,
                    vec![c_in, h, w],
                );
                let y = conv.forward(&x, true);
                let dy = dense_in_zeros(y.data.len(), tag.rotate_left(17));
                let want = reference_grad(&conv, &x.data, &dy, (h, w), pixels);
                conv.backward_with_workers(&Activation::new(dy, y.n, y.dims.clone()), 1);
                prop_assert_eq!(
                    bits(&conv.weight.grad),
                    bits(&want),
                    "c_in {} in {}x{} c_out {}",
                    c_in,
                    h,
                    w,
                    c_out
                );
            }
        }
    }
}
