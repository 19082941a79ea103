//! Bit-identity of the conv backward kernels with the composition they
//! replace, in `int2_identity`'s idiom.
//!
//! `conv_grad::conv_input_grad` must write what `gemm_at_b_st` (`dCols =
//! Wᵀ·dY`) followed by `col2im_into` writes, and `conv_grad::
//! conv_weight_grad` what `im2col_into` followed by `gemm_a_bt_st`
//! (`dWᵀ = cols·dYᵀ`) writes — bit for bit, every NaN counting as one.
//! Each body this host can run is called directly, then the dispatched
//! entry points under every backend the host can force. The sweep:
//! channel counts as filter pruning leaves them (3, 5, 7, 13) in every
//! input/output pairing, kernels 1, 3 and 5 (unpadded, "same"-padded,
//! strided, and padded past the window), output widths 1–17 and 26–32 against 8, 16 and 32 lanes,
//! output maps one to three rows tall — so the flat route and the pixel
//! route of the input gradient are both taken at many widths — plus
//! CNV-sized maps; `dY` includes ±0.0 everywhere and NaN and ±Inf in
//! every other shape, where a padding tap must multiply a literal zero
//! into NaN as the GEMM does.

use adapex_tensor::conv::{col2im_into, im2col_into, ConvGeometry};
use adapex_tensor::conv_grad::{self, portable};
use adapex_tensor::gemm::{gemm_a_bt_st, gemm_at_b_st};
use adapex_tensor::simd::{self, Backend};

#[cfg(target_arch = "x86_64")]
use adapex_tensor::conv_grad::{avx2, avx512};

fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The detection rule, restated: the AVX-512 backend is the one with
/// `VPOPCNTDQ`.
fn has_avx512() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        has_avx2()
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The backends this host can force, best first.
fn backends() -> Vec<Backend> {
    let mut all = vec![Backend::Portable];
    if has_avx2() {
        all.insert(0, Backend::Avx2);
    }
    if has_avx512() {
        all.insert(0, Backend::Avx512);
    }
    all
}

/// Prints which of the backends `expected` of it a test covered.
fn report_coverage(test: &str, expected: &[&str], covered: &[&str]) {
    let missing: Vec<&str> = expected
        .iter()
        .copied()
        .filter(|b| !covered.contains(b))
        .collect();
    println!(
        "{test}: covered {}{}",
        covered.join(", "),
        if missing.is_empty() {
            String::new()
        } else {
            format!("; unavailable on this host: {}", missing.join(", "))
        }
    );
}

type InputGradFn =
    unsafe fn(&[f32], usize, &[f32], usize, usize, usize, ConvGeometry, &mut [f32], &mut Vec<f32>);
type WeightGradFn =
    unsafe fn(&[f32], usize, usize, usize, ConvGeometry, &[f32], usize, &mut [f32], &mut Vec<f32>);

/// Every body of one kernel this host can run, by backend name.
macro_rules! bodies {
    ($test:expr, $ty:ty, $kernel:ident, [$($module:ident if $has:ident),*]) => {{
        let mut all: Vec<(&'static str, $ty)> = vec![("portable", portable::$kernel as $ty)];
        $(
            #[cfg(target_arch = "x86_64")]
            if $has() {
                all.push((stringify!($module), $module::$kernel as $ty));
            }
        )*
        let names: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
        report_coverage($test, &["portable", $(stringify!($module)),*], &names);
        all
    }};
}

/// One backward problem: shape and operands.
struct Case {
    c_in: usize,
    c_out: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    img: Vec<f32>,
    weight: Vec<f32>,
    dy: Vec<f32>,
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// `len` values in [-2, 2), an eighth of them ±0.0 and, with
/// `specials`, one in sixteen NaN or ±Inf.
fn draw(len: usize, state: &mut u64, specials: bool) -> Vec<f32> {
    (0..len)
        .map(|_| match lcg(state) % 32 {
            0 | 1 => 0.0,
            2 | 3 => -0.0,
            4 if specials => f32::NAN,
            5 if specials => f32::INFINITY,
            6 if specials => f32::NEG_INFINITY,
            _ => (lcg(state) % 4096) as f32 / 1024.0 - 2.0,
        })
        .collect()
}

impl Case {
    /// The case with output map `oh × ow` under `geom`.
    fn new(
        c_in: usize,
        c_out: usize,
        (oh, ow): (usize, usize),
        geom: ConvGeometry,
        seed: u64,
    ) -> Self {
        let dim = |o: usize| (o - 1) * geom.stride + geom.kernel - 2 * geom.padding;
        let (h, w) = (dim(oh), dim(ow));
        assert_eq!(
            (geom.output_dim(h), geom.output_dim(w)),
            (Some(oh), Some(ow))
        );
        let kk = c_in * geom.kernel * geom.kernel;
        let mut state = seed | 1;
        // Weights on a 2-bit fake-quant grid, as the layer caches them.
        let weight = draw(c_out * kk, &mut state, false)
            .into_iter()
            .map(|v| (v * 2.0).round().clamp(-2.0, 1.0) * 0.37)
            .collect();
        Case {
            c_in,
            c_out,
            h,
            w,
            geom,
            img: draw(c_in * h * w, &mut state, false),
            weight,
            dy: draw(c_out * oh * ow, &mut state, seed % 2 == 1),
        }
    }

    fn pixels(&self) -> usize {
        self.geom.output_dim(self.h).unwrap() * self.geom.output_dim(self.w).unwrap()
    }

    fn kk(&self) -> usize {
        self.c_in * self.geom.kernel * self.geom.kernel
    }

    fn label(&self) -> String {
        let g = self.geom;
        format!(
            "c_in {} c_out {} in {}x{} k {} s {} p {}",
            self.c_in, self.c_out, self.h, self.w, g.kernel, g.stride, g.padding
        )
    }

    /// `dX` through `dCols = Wᵀ·dY` and `col2im`.
    fn oracle_dx(&self) -> Vec<f32> {
        let mut dcols = vec![0.0f32; self.kk() * self.pixels()];
        gemm_at_b_st(
            self.kk(),
            self.c_out,
            self.pixels(),
            &self.weight,
            &self.dy,
            &mut dcols,
        );
        let mut dx = Vec::new();
        col2im_into(&dcols, self.c_in, self.h, self.w, self.geom, &mut dx);
        dx
    }

    /// `dWᵀ` through `im2col` and `cols·dYᵀ`.
    fn oracle_dw_t(&self) -> Vec<f32> {
        let mut cols = Vec::new();
        im2col_into(&self.img, self.c_in, self.h, self.w, self.geom, &mut cols);
        let mut dw_t = vec![0.0f32; self.kk() * self.c_out];
        gemm_a_bt_st(
            self.kk(),
            self.pixels(),
            self.c_out,
            &cols,
            &self.dy,
            &mut dw_t,
        );
        dw_t
    }
}

/// The sweep described in the module docs.
fn cases() -> Vec<Case> {
    const CHANNELS: [usize; 4] = [3, 5, 7, 13];
    let geoms = [
        ConvGeometry::new(1),
        ConvGeometry::new(3),
        ConvGeometry::new(3).with_padding(1),
        ConvGeometry::new(5),
        ConvGeometry::new(5).with_padding(2),
        ConvGeometry::new(3).with_stride(2).with_padding(1),
        // Padding wider than the window: outputs whose every tap is
        // padding.
        ConvGeometry::new(1).with_padding(2),
    ];
    let mut all = Vec::new();
    for (wi, ow) in (1..=17).chain(26..=32).enumerate() {
        for (gi, &geom) in geoms.iter().enumerate() {
            let pair = (wi * geoms.len() + gi) % 16;
            let oh = 1 + (wi + gi) % 3;
            let fits = |o: usize| (o - 1) * geom.stride + geom.kernel > 2 * geom.padding;
            let oh = if fits(oh) { oh } else { 5 };
            if !fits(ow) {
                continue;
            }
            let seed = (wi * 97 + gi * 13) as u64;
            all.push(Case::new(
                CHANNELS[pair / 4],
                CHANNELS[pair % 4],
                (oh, ow),
                geom,
                seed,
            ));
        }
    }
    // CNV-sized maps: conv2 and the exit-1 conv, a pruned conv3, conv5
    // and conv6 at width 8, and a padded odd-channel map.
    for (i, &(c_in, c_out, o, pad)) in [
        (8, 8, 28, 0),
        (8, 8, 26, 0),
        (13, 7, 12, 0),
        (16, 32, 3, 0),
        (32, 32, 1, 0),
        (5, 13, 9, 1),
    ]
    .iter()
    .enumerate()
    {
        let geom = ConvGeometry::new(3).with_padding(pad);
        all.push(Case::new(c_in, c_out, (o, o), geom, 1000 + i as u64));
    }
    all
}

/// Equal bit for bit, every NaN counting as one.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

#[test]
fn every_body_equals_the_im2col_gemm_col2im_composition() {
    let input_bodies: Vec<(&str, InputGradFn)> = bodies!(
        "conv_input_grad",
        InputGradFn,
        conv_input_grad,
        [avx2 if has_avx2, avx512 if has_avx512]
    );
    let weight_bodies: Vec<(&str, WeightGradFn)> = bodies!(
        "conv_weight_grad",
        WeightGradFn,
        conv_weight_grad,
        [avx2 if has_avx2, avx512 if has_avx512]
    );
    let mut scratch = vec![f32::NAN; 7];
    for case in cases() {
        let (want_dx, want_dw) = (case.oracle_dx(), case.oracle_dw_t());
        let c = &case;
        for &(name, body) in &input_bodies {
            let mut dx = vec![f32::NAN; want_dx.len()];
            unsafe {
                body(
                    &c.dy,
                    c.c_out,
                    &c.weight,
                    c.c_in,
                    c.h,
                    c.w,
                    c.geom,
                    &mut dx,
                    &mut scratch,
                )
            };
            assert!(same_bits(&dx, &want_dx), "{name} dX, {}", c.label());
        }
        for &(name, body) in &weight_bodies {
            let mut dw = vec![f32::NAN; want_dw.len()];
            unsafe {
                body(
                    &c.img,
                    c.c_in,
                    c.h,
                    c.w,
                    c.geom,
                    &c.dy,
                    c.c_out,
                    &mut dw,
                    &mut scratch,
                )
            };
            assert!(same_bits(&dw, &want_dw), "{name} dWᵀ, {}", c.label());
        }
    }
}

/// The dispatched entry points under every backend the host can force.
/// The override is process-global; this is the one test here that sets
/// it, and any backend another test catches gives the same bits.
#[test]
fn dispatched_kernels_equal_the_composition_under_every_backend() {
    let all = backends();
    println!("dispatched conv_grad: forcing {all:?}");
    let cases = cases();
    for backend in all {
        simd::override_backend(Some(backend));
        let mut scratch = Vec::new();
        for c in &cases {
            let mut dx = vec![f32::NAN; c.c_in * c.h * c.w];
            conv_grad::conv_input_grad(
                &c.dy,
                c.c_out,
                &c.weight,
                c.c_in,
                c.h,
                c.w,
                c.geom,
                &mut dx,
                &mut scratch,
            );
            assert!(
                same_bits(&dx, &c.oracle_dx()),
                "{backend:?} dX, {}",
                c.label()
            );
            let mut dw = vec![f32::NAN; c.kk() * c.c_out];
            conv_grad::conv_weight_grad(
                &c.img,
                c.c_in,
                c.h,
                c.w,
                c.geom,
                &c.dy,
                c.c_out,
                &mut dw,
                &mut scratch,
            );
            assert!(
                same_bits(&dw, &c.oracle_dw_t()),
                "{backend:?} dWᵀ, {}",
                c.label()
            );
        }
    }
    simd::override_backend(None);
}
