//! Bit-identity proptests for the bit-packed int2 engine, mirroring
//! `simd_identity.rs`.
//!
//! Every kernel is pinned three ways: a naive integer reference over the
//! raw codes (inlined here), the portable `count_ones` backend, and every
//! vector backend the host has — the AVX2 `vpshufb`-popcount bodies and
//! the AVX-512 `VPOPCNTDQ` ones — called directly, then once more
//! through the dispatcher under each backend forced in turn. Each test
//! prints the backends it covered; a host lacking one says so instead of
//! passing silently.
//! Coverage includes unaligned (offset) item views, remainder lanes
//! (depths that are not multiples of 64 or 256 packed bits), all-zero
//! planes, and sign-plane edge cases (operands dense in −2, the only
//! code with a set high plane and a clear low plane). The direct-conv
//! kernels are pinned the same way: the `pack_image_int2` bodies
//! against the pre-compare-rule scalar loop kept here as the oracle,
//! the window gathers against packed im2col columns (the oracle
//! composed here from `im2col_into` → `act_codes_in_place` →
//! `pack_acts_cols_int2`), and the row-lane GEMM microkernels against
//! the naive sum at the shapes that cross their lane, tail-row, depth
//! slice and byte-flush boundaries.

use adapex_tensor::conv::{im2col_into, ConvGeometry};
use adapex_tensor::int2::{self, portable, Backend, OutMajor};
use proptest::prelude::*;

#[cfg(target_arch = "x86_64")]
use adapex_tensor::int2::{avx2, avx512};

fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The detection rule, restated: AVX-512F alone is not enough, the
/// bodies count with `VPOPCNTDQ`.
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

/// Serializes the tests that flip `int2::override_backend` and then
/// assert on `active_backend`: the switch is process-global and the test
/// threads share it. Tests that only compute need no lock — whichever
/// backend they catch gives the same bits.
static BACKEND_SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Prints, once per test, which of the backends `expected` of it the
/// test covered, and which this host could not run.
fn report_coverage(test: &str, expected: &[&str], covered: &[&str]) {
    static REPORTED: std::sync::Mutex<Vec<String>> = std::sync::Mutex::new(Vec::new());
    let mut reported = REPORTED.lock().expect("no reporter panics");
    if reported.iter().any(|t| t == test) {
        return;
    }
    reported.push(test.to_string());
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

type PackFn = unsafe fn(&[f32], f32, usize, usize, usize, usize, &mut Vec<u64>);
type GatherFn = unsafe fn(&[u64], usize, usize, usize, ConvGeometry, &mut Vec<u64>);
type GemmFn = unsafe fn(usize, usize, usize, &[u64], &[u64], &[f32], &[f32], &mut [f32], OutMajor);
type ThresholdFn = unsafe fn(&mut [f32], &[int2::CodeSteps], usize, usize, usize, usize, &mut [u64]);
type DotFn = unsafe fn(&[u64], &[u64]) -> i32;

/// Every body of one kernel this host can run, by backend name: the
/// portable one, then `$module::$kernel` for each listed vector module
/// the host has the features for. `test` is reported once.
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

fn pack_bodies(test: &str) -> Vec<(&'static str, PackFn)> {
    // No 512-bit pack body: the AVX-512 backend runs the AVX2 one.
    bodies!(test, PackFn, pack_image_int2, [avx2 if has_avx2])
}

fn gather_bodies(test: &str) -> Vec<(&'static str, GatherFn)> {
    bodies!(test, GatherFn, gather_conv_windows_int2, [avx2 if has_avx2, avx512 if has_avx512])
}

fn gemm_bodies(test: &str) -> Vec<(&'static str, GemmFn)> {
    bodies!(test, GemmFn, gemm_int2, [avx2 if has_avx2, avx512 if has_avx512])
}

fn threshold_bodies(test: &str) -> Vec<(&'static str, ThresholdFn)> {
    bodies!(test, ThresholdFn, threshold_pool_pack_int2, [avx2 if has_avx2, avx512 if has_avx512])
}

fn dot_bodies(test: &str) -> Vec<(&'static str, DotFn)> {
    // The AVX-512 GEMM has no per-pair form: every row runs in lanes.
    bodies!(test, DotFn, dot, [avx2 if has_avx2])
}

/// Weight codes skewed towards the edge cases: `tag` 4 floods −2 (high
/// plane set, low plane clear) and 5 floods 0 (all-zero planes).
fn wcodes(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        (0u8..6, -2i32..2).prop_map(|(tag, v)| match tag {
            4 => -2.0,
            5 => 0.0,
            _ => v as f32,
        }),
        len..=len,
    )
}

/// Activation codes with the same zero-flooding skew.
fn acodes(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        (0u8..6, 0i32..4).prop_map(|(tag, v)| if tag == 5 { 0.0 } else { v as f32 }),
        len..=len,
    )
}

fn naive_dot(w: &[f32], a: &[f32]) -> i32 {
    w.iter().zip(a).map(|(&x, &y)| (x as i32) * (y as i32)).sum()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packed popcount dot product == naive integer dot over the codes,
    /// on both backends, across remainder depths (`k` spans 0..300, so
    /// it crosses the 64-bit word and the AVX2 256-bit block boundary)
    /// and offset (unaligned) item views.
    #[test]
    fn packed_dot_bit_identity(
        k in 0usize..300,
        item in 0usize..3,
        w0 in wcodes(3 * 300),
        a0 in acodes(3 * 300),
    ) {
        // Pack three items and probe a non-zero offset one: the packed
        // view starts mid-buffer, which on AVX2 means unaligned loads.
        let w = &w0[..3 * k];
        let a = &a0[..3 * k];
        let (mut pw, mut pa) = (Vec::new(), Vec::new());
        int2::pack_weights_int2(w, 3, k, &mut pw);
        int2::pack_acts_int2(a, 3, k, &mut pa);
        let wpi = int2::words_per_item(k);
        let pw_item = &pw[item * wpi..(item + 1) * wpi];
        let pa_item = &pa[item * wpi..(item + 1) * wpi];
        let want = naive_dot(&w[item * k..(item + 1) * k], &a[item * k..(item + 1) * k]);
        for (name, dot) in dot_bodies("packed_dot_bit_identity") {
            prop_assert_eq!(unsafe { dot(pw_item, pa_item) }, want, "{} k={}", name, k);
        }
    }

    /// Full `gemm_int2` (every body, both output layouts) against a
    /// naive reference that applies the identical fused epilogue.
    #[test]
    fn gemm_int2_backends_agree_bitwise(
        m in 1usize..12,
        k in 1usize..200,
        n in 1usize..12,
        col_major in any::<bool>(),
        w0 in wcodes(11 * 200),
        a0 in acodes(11 * 200),
    ) {
        let w = &w0[..m * k];
        let a = &a0[..n * k];
        let cs: Vec<f32> = (0..m).map(|i| 0.031 + i as f32 * 0.17).collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.4 - 1.1).collect();
        let (mut pw, mut pa) = (Vec::new(), Vec::new());
        int2::pack_weights_int2(w, m, k, &mut pw);
        int2::pack_acts_int2(a, n, k, &mut pa);
        let major = if col_major { OutMajor::Col } else { OutMajor::Row };

        let want = naive_gemm(m, k, n, w, a, &cs, &bias, major);
        for (name, gemm) in gemm_bodies("gemm_int2_backends_agree_bitwise") {
            let mut got = vec![f32::NAN; m * n];
            unsafe { gemm(m, k, n, &pw, &pa, &cs, &bias, &mut got, major) };
            prop_assert_eq!(bits(&got), bits(&want), "{} gemm_int2", name);
        }
    }

    /// The strided (im2col-column) packer produces exactly the packing
    /// of the transposed contiguous rows.
    #[test]
    fn strided_and_contiguous_packers_agree(
        items in 1usize..9,
        k in 1usize..130,
        cols in acodes(8 * 130),
    ) {
        let cols = &cols[..items * k]; // [k, items] layout
        let mut rows = vec![0.0f32; items * k];
        for kk in 0..k {
            for j in 0..items {
                rows[j * k + kk] = cols[kk * items + j];
            }
        }
        let (mut pc, mut pr) = (Vec::new(), Vec::new());
        int2::pack_acts_cols_int2(cols, items, k, &mut pc);
        int2::pack_acts_int2(&rows, items, k, &mut pr);
        prop_assert_eq!(pc, pr);
    }

    /// Direct conv vs the im2col oracle, operand words **and** output
    /// bits, across stride/padding/kernel/channel combinations: the
    /// once-packed image + window gather must reproduce the packed
    /// im2col columns exactly (remainder depths whenever `c*k*k % 64 ≠
    /// 0`; `pad ≥ k-1` reaches windows made entirely of padding; the
    /// zero-flooded codes exercise empty planes).
    #[test]
    fn direct_conv_bit_identity_with_im2col_route(
        c in 1usize..5,
        h in 1usize..10,
        w in 1usize..10,
        kernel in 1usize..6,
        stride in 1usize..4,
        pad in 0usize..4,
        c_out in 1usize..5,
        a0 in acodes(4 * 9 * 9),
        w0 in wcodes(4 * 4 * 5 * 5 * 5), // c_out * c * kernel² upper bound
    ) {
        let geom = ConvGeometry::new(kernel).with_stride(stride).with_padding(pad);
        // Skip non-fitting windows rather than constraining the strategy.
        let (Some(oh), Some(ow)) = (geom.output_dim(h), geom.output_dim(w)) else {
            return Ok(());
        };
        let kk = c * kernel * kernel;
        let ascale = 2.0f32 / 3.0;
        let acodes_img = &a0[..c * h * w];
        let vals: Vec<f32> = acodes_img.iter().map(|&a| a * ascale).collect();

        // Reference route: f32 im2col, code rounding, column pack.
        let mut cols = Vec::new();
        im2col_into(&vals, c, h, w, geom, &mut cols);
        int2::act_codes_in_place(&mut cols, ascale);
        let mut want_packed = Vec::new();
        int2::pack_acts_cols_int2(&cols, oh * ow, kk, &mut want_packed);

        // Direct route: pack once, gather windows. Operand words equal.
        let (mut image, mut got_packed) = (Vec::new(), Vec::new());
        int2::pack_image_int2(&vals, ascale, c, h, w, pad, &mut image);
        int2::gather_conv_windows_int2(&image, c, h, w, geom, &mut got_packed);
        prop_assert_eq!(&got_packed, &want_packed, "gathered operand words diverge");

        // Full conv outputs bit-identical through the shared GEMM.
        let wc = &w0[..c_out * kk];
        let mut wplanes = Vec::new();
        int2::pack_weights_int2(wc, c_out, kk, &mut wplanes);
        let cs: Vec<f32> = (0..c_out).map(|i| 0.021 + i as f32 * 0.13).collect();
        let bias: Vec<f32> = (0..c_out).map(|i| i as f32 * 0.3 - 0.8).collect();
        let mut want = vec![0.0f32; c_out * oh * ow];
        int2::gemm_int2(
            c_out, kk, oh * ow, &wplanes, &want_packed, &cs, &bias, &mut want, OutMajor::Row,
        );
        let mut got = vec![0.0f32; c_out * oh * ow];
        let (mut img_ws, mut cols_ws) = (Vec::new(), Vec::new());
        int2::conv_int2_direct(
            &vals, ascale, c, h, w, geom, &wplanes, c_out, &cs, &bias, &mut got,
            &mut img_ws, &mut cols_ws,
        );
        prop_assert_eq!(bits(&got), bits(&want), "direct conv output diverges");
    }
}

/// All-zero planes and dense sign planes, pinned deterministically at
/// word-boundary depths on every body — the per-pair dots, and the GEMMs
/// as one-pair products at unit scale (the proptests above reach these
/// through the flooding strategies; this nails the exact edges).
#[test]
fn zero_and_sign_plane_edges() {
    let dots = dot_bodies("zero_and_sign_plane_edges (dot)");
    let gemms = gemm_bodies("zero_and_sign_plane_edges (gemm)");
    for k in [1usize, 63, 64, 65, 128, 192, 256, 257, 512, 513, 4608] {
        let zeros = vec![0.0f32; k];
        let neg2 = vec![-2.0f32; k];
        let threes = vec![3.0f32; k];
        let (mut pw, mut pa) = (Vec::new(), Vec::new());
        int2::pack_acts_int2(&threes, 1, k, &mut pa);
        let check = |pw: &[u64], want: i32, what: &str| {
            for (name, dot) in &dots {
                assert_eq!(unsafe { dot(pw, &pa) }, want, "{name} dot, {what} k={k}");
            }
            for (name, gemm) in &gemms {
                for major in [OutMajor::Row, OutMajor::Col] {
                    let mut got = [f32::NAN];
                    unsafe { gemm(1, k, 1, pw, &pa, &[1.0], &[0.0], &mut got, major) };
                    assert_eq!(got[0], want as f32, "{name} gemm {major:?}, {what} k={k}");
                }
            }
        };

        // all-zero weights x max acts -> 0
        int2::pack_weights_int2(&zeros, 1, k, &mut pw);
        check(&pw, 0, "zero planes");

        // all -2 weights x all 3 acts -> -6k (sign plane fully set)
        int2::pack_weights_int2(&neg2, 1, k, &mut pw);
        check(&pw, -6 * k as i32, "sign plane");

        // Padding tail bits must be clear (they'd otherwise corrupt
        // every popcount): check the last word of each plane of the
        // densest operands packed above.
        let wpp = int2::plane_words(k);
        let tail = k % 64;
        if tail != 0 {
            let mask = !0u64 << tail;
            for plane in 0..2 {
                assert_eq!(pw[plane * wpp + wpp - 1] & mask, 0, "weight tail k={k}");
                assert_eq!(pa[plane * wpp + wpp - 1] & mask, 0, "act tail k={k}");
            }
        }
    }
}

/// Every public dispatched kernel gives the same words and bits under
/// each backend the host can force as under detection — the dispatcher
/// arms themselves, which the direct body calls elsewhere bypass. Flips
/// process-global state, harmlessly: the backends are bit-identical
/// (mirrors `simd_identity::dispatched_equals_forced_portable`, whose
/// name it keeps; portable is the last of the backends forced here).
#[test]
fn dispatched_equals_forced_portable() {
    let _switch = BACKEND_SWITCH.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (m, k, n) = (13, 150, 37);
    let w: Vec<f32> = (0..m * k).map(|i| ((i * 7) % 4) as f32 - 2.0).collect();
    let a: Vec<f32> = (0..n * k).map(|i| ((i * 5) % 4) as f32).collect();
    let cs: Vec<f32> = (0..m).map(|i| 0.01 + i as f32 * 0.05).collect();
    let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.2 - 0.7).collect();
    let (mut pw, mut pa) = (Vec::new(), Vec::new());
    int2::pack_weights_int2(&w, m, k, &mut pw);
    int2::pack_acts_int2(&a, n, k, &mut pa);
    let (c, h, wd) = (8, 11, 21);
    let geom = ConvGeometry::new(3).with_padding(1);
    let img: Vec<f32> = (0..c * h * wd).map(|i| ((i * 11 + i / 7) % 9) as f32 * 0.21).collect();
    let steps: Vec<int2::CodeSteps> = (0..m)
        .map(|i| int2::CodeSteps { sign: if i % 3 == 0 { -1 } else { 1 }, at: [-9.0, i as f32, 40.0] })
        .collect();

    // (gemm rows, gemm cols, packed image, gathered windows, coded map)
    let run = || {
        let (mut row, mut col) = (vec![0.0f32; m * n], vec![0.0f32; m * n]);
        int2::gemm_int2(m, k, n, &pw, &pa, &cs, &bias, &mut row, OutMajor::Row);
        int2::gemm_int2(m, k, n, &pw, &pa, &cs, &bias, &mut col, OutMajor::Col);
        let (mut image, mut windows) = (Vec::new(), Vec::new());
        int2::pack_image_int2(&img, 0.37, c, h, wd, 1, &mut image);
        int2::gather_conv_windows_int2(&image, c, h, wd, geom, &mut windows);
        let mut acc: Vec<f32> = (0..m * 6 * 6).map(|i| ((i * 13) % 101) as f32 - 50.0).collect();
        let mut coded = vec![!0u64; m * 3 * 2 * int2::image_row_words(3, 1)];
        int2::threshold_pool_pack_int2(&mut acc, &steps, 6, 6, 2, 1, &mut coded);
        (bits(&row), bits(&col), image, windows, coded)
    };
    int2::override_backend(None);
    let detected = int2::active_backend();
    assert_eq!(detected, backends()[0], "detection picks the best backend the host has");
    let dispatched = run();
    let mut covered = Vec::new();
    for backend in backends() {
        int2::override_backend(Some(backend));
        assert_eq!(int2::active_backend(), backend);
        assert_eq!(run(), dispatched, "forced {backend:?} vs detected {detected:?}");
        covered.push(format!("{backend:?}").to_lowercase());
    }
    int2::override_backend(None);
    let covered: Vec<&str> = covered.iter().map(String::as_str).collect();
    report_coverage("dispatched_equals_forced_portable", &["avx512", "avx2", "portable"], &covered);
}

/// Forcing a backend the host lacks a CPU feature for panics and names
/// the feature; forcing one it has is accepted.
#[test]
fn forcing_a_missing_backend_panics_naming_the_feature() {
    let _switch = BACKEND_SWITCH.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    for (backend, available) in [(Backend::Avx512, has_avx512()), (Backend::Avx2, has_avx2())] {
        let forced = std::panic::catch_unwind(|| int2::override_backend(Some(backend)));
        int2::override_backend(None);
        match forced {
            Ok(()) => assert!(available, "{backend:?} was accepted on a host without it"),
            Err(panic) => {
                assert!(!available, "{backend:?} was refused on a host that has it");
                let message = panic.downcast_ref::<String>().expect("a formatted panic");
                assert!(
                    message.contains("unavailable on this host: no "),
                    "panic does not name the missing feature: {message}"
                );
                println!("forcing_a_missing_backend: {message}");
            }
        }
    }
}

/// The quantize rule the engine used before the compare rule, kept as
/// the oracle: `round`, `clamp`, low two bits of the integer.
fn legacy_code(x: f32) -> u64 {
    (x.round().clamp(0.0, 3.0) as i32 & 3) as u64
}

/// The pre-vectorization `pack_image_int2` body, kept as the oracle.
fn legacy_pack_image(img: &[f32], ascale: f32, w: usize, pad: usize) -> Vec<u64> {
    let rw = int2::image_row_words(w, pad);
    let mut out = vec![0u64; img.len() / w * 2 * rw];
    for (row, dst) in img.chunks_exact(w).zip(out.chunks_exact_mut(2 * rw)) {
        let (p0, p1) = dst.split_at_mut(rw);
        for (ix, &v) in row.iter().enumerate() {
            let bits = legacy_code(v / ascale);
            let (word, bit) = ((pad + ix) / 64, (pad + ix) % 64);
            p0[word] |= (bits & 1) << bit;
            p1[word] |= (bits >> 1) << bit;
        }
    }
    out
}

/// Every pack body, called directly, against the legacy oracle.
fn assert_pack_matches_legacy(img: &[f32], ascale: f32, c: usize, h: usize, w: usize, pad: usize) {
    let want = legacy_pack_image(img, ascale, w, pad);
    let tag = format!("ascale={ascale} c={c} h={h} w={w} pad={pad}");
    for (name, pack) in pack_bodies("pack_image_matches_legacy_oracle") {
        let mut got = vec![!0u64; 3]; // stale contents must not survive
        unsafe { pack(img, ascale, c, h, w, pad, &mut got) };
        assert_eq!(got, want, "{name} pack, {tag}");
    }
}

/// Values around every rounding tie of the code grid, plus the
/// non-finite and signed-zero cases, for one activation scale.
fn tie_values(ascale: f32) -> Vec<f32> {
    let mut v = vec![
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        -0.3 * ascale,
        -7.0 * ascale,
        f32::MIN_POSITIVE,
        1e-42, // subnormal
        f32::MAX,
        0.3 * ascale,
        1.26 * ascale,
        2.71 * ascale,
        3.49 * ascale,
        3.5 * ascale,
        9.0 * ascale,
    ];
    for tie in [0.5f32, 1.5, 2.5] {
        let t = tie * ascale;
        v.extend([
            t.next_down().next_down(),
            t.next_down(),
            t,
            t.next_up(),
            t.next_up().next_up(),
        ]);
    }
    v
}

/// Compare rule == legacy rule on the ties (±1 ulp), off-grid values,
/// negatives, NaN, ±inf and −0.0, across exact (power-of-two) and
/// inexact scales, widths that are not a multiple of 8, all paddings
/// and rows that cross a word — on both backends.
#[test]
fn pack_image_matches_legacy_oracle_on_ties_and_edges() {
    for ascale in [1.0f32, 0.5, 2.0, 0.25, 2.0 / 3.0, 0.013, 0.37, 7.3e-3] {
        let pool = tie_values(ascale);
        for w in [1usize, 5, 7, 8, 9, 13, 30, 31, 62, 64, 70, 129] {
            for pad in 0..3 {
                let (c, h) = (2, 3);
                // Slide the pool so every value meets every lane.
                let img: Vec<f32> = (0..c * h * w)
                    .map(|i| pool[(i * 7 + w + pad) % pool.len()])
                    .collect();
                assert_pack_matches_legacy(&img, ascale, c, h, w, pad);
            }
        }
    }
}

/// `act_codes_in_place` applies the same rule: code values equal the
/// legacy `round().clamp()` on the same pool (as integers — the legacy
/// expression could return −0.0, which no consumer could tell from 0).
#[test]
fn act_codes_match_legacy_oracle_on_ties_and_edges() {
    for ascale in [1.0f32, 0.5, 2.0 / 3.0, 0.013, 0.37] {
        let pool = tie_values(ascale);
        let mut got = pool.clone();
        int2::act_codes_in_place(&mut got, ascale);
        for (&v, &code) in pool.iter().zip(&got) {
            assert_eq!(
                code as u64,
                legacy_code(v / ascale),
                "v={v:e} ascale={ascale}"
            );
            assert_eq!(
                code.to_bits(),
                (code as u64 as f32).to_bits(),
                "not a canonical code"
            );
        }
    }
}

/// Every f32 bit pattern: compare rule == `round().clamp()`, through
/// `act_codes_in_place` and both pack bodies (scale 1, so `x` is the
/// pattern itself). Under a minute with `--release -- --ignored`.
#[test]
#[ignore = "exhaustive 2^32 sweep"]
fn compare_rule_equals_round_clamp_for_every_f32() {
    const CHUNK: usize = 1 << 20;
    let mut vals = vec![0.0f32; CHUNK];
    let mut codes = vec![0.0f32; CHUNK];
    let (mut pp, mut pa) = (Vec::new(), Vec::new());
    let packs = pack_bodies("compare_rule_equals_round_clamp_for_every_f32");
    for base in (0..1u64 << 32).step_by(CHUNK) {
        for (i, v) in vals.iter_mut().enumerate() {
            *v = f32::from_bits((base + i as u64) as u32);
        }
        codes.copy_from_slice(&vals);
        int2::act_codes_in_place(&mut codes, 1.0);
        portable::pack_image_int2(&vals, 1.0, 1, 1, CHUNK, 0, &mut pp);
        for (name, pack) in &packs {
            unsafe { pack(&vals, 1.0, 1, 1, CHUNK, 0, &mut pa) };
            assert_eq!(pa, pp, "{name} pack diverges from portable in chunk {base:#x}");
        }
        let rw = int2::image_row_words(CHUNK, 0);
        for (i, &v) in vals.iter().enumerate() {
            let want = legacy_code(v);
            assert_eq!(codes[i] as u64, want, "act code of {:#010x}", v.to_bits());
            let packed = (pp[i / 64] >> (i % 64) & 1) | (pp[rw + i / 64] >> (i % 64) & 1) << 1;
            assert_eq!(packed, want, "packed code of {:#010x}", v.to_bits());
        }
    }
}

/// Every gather body, called directly on the shapes that cross their
/// internal boundaries, against packed im2col columns:
/// `ow mod 4` ∈ {0,1,2,3} on both sides of the AVX2 8-pixel pass and
/// `ow` on both sides of the AVX-512 8- and 16-pixel ones (incl.
/// `ow < 8` and ragged row ends), stride 2, vertical padding (skipped
/// rows must still advance the depth walk), the bit-64 depth spill
/// (`kk = 72`), a segment ending exactly on a word boundary (`kk = 64`),
/// operands of 3, 5 and 9 plane words (the AVX-512 body transposes four
/// per plane at a time), kernels 1 and 2 (most segments per word),
/// kernel 5 and rows wider than one word. `out` starts dirty: every
/// operand word must be stored.
#[test]
fn gather_bodies_equal_im2col_packed_columns() {
    let ascale = 2.0f32 / 3.0;
    let gathers = gather_bodies("gather_bodies_equal_im2col_packed_columns");
    for &(c, h, w, k, s, p) in &[
        (8usize, 6usize, 6usize, 3usize, 1usize, 0usize), // ow = 4, kk = 72
        (8, 5, 7, 3, 1, 0),                               // ow = 5
        (8, 5, 8, 3, 1, 0),                               // ow = 6
        (8, 5, 9, 3, 1, 0),                               // ow = 7
        (8, 4, 10, 3, 1, 0),                              // ow = 8: one full vector
        (8, 5, 11, 3, 1, 0),                              // ow = 9: one 8-pixel pass + ragged
        (8, 4, 13, 3, 1, 0),                              // ow = 11
        (8, 3, 17, 3, 1, 0),                              // ow = 15: a ragged 16-pixel pass
        (8, 4, 18, 3, 1, 0),                              // ow = 16
        (8, 3, 19, 3, 1, 0),                              // ow = 17: 16 + 1
        (8, 30, 30, 3, 1, 0),                             // conv2 of the width-8 CNV, ow = 28
        (8, 28, 28, 3, 1, 0),                             // its exit head's conv, ow = 26
        (3, 9, 12, 3, 2, 1),                              // stride 2 with padding, ow = 6
        (2, 11, 21, 3, 2, 0),                             // stride 2, ow = 10
        (2, 7, 41, 3, 2, 1),                              // stride 2, ow = 21
        (4, 6, 9, 3, 1, 2),                               // pad 2: whole kernel rows in padding
        (4, 7, 20, 3, 1, 3),                              // pad >= kernel: all-padding windows
        (4, 9, 9, 5, 1, 2),                               // kernel 5, kk = 100
        (1, 8, 12, 8, 1, 0),  // kk = 64: segments end on the word boundary
        (16, 12, 12, 3, 1, 0), // conv4: kk = 144, three plane words
        (32, 5, 12, 3, 1, 1), // kk = 288: five plane words, a block of 4 and one of 1
        (64, 4, 11, 3, 1, 0), // kk = 576: nine plane words
        (70, 3, 9, 1, 1, 0),  // kernel 1: 64 one-bit segments in word 0
        (40, 4, 9, 2, 1, 0),  // kernel 2: kk = 160
        (2, 3, 70, 3, 1, 1),  // padded row wider than one word
        (1, 2, 130, 2, 3, 0), // three-word rows, stride 3
        (5, 2, 2, 2, 1, 0),   // ow = 1
        (5, 3, 4, 3, 1, 0),   // two output pixels
        (32, 3, 3, 3, 1, 0),  // conv6: one output pixel, kk = 288
    ] {
        let geom = ConvGeometry::new(k).with_stride(s).with_padding(p);
        let (oh, ow) = (
            geom.output_dim(h).expect("fits"),
            geom.output_dim(w).expect("fits"),
        );
        let kk = c * k * k;
        let vals: Vec<f32> = (0..c * h * w)
            .map(|i| (((i * 2654435761usize) >> 7) % 4) as f32 * ascale)
            .collect();
        let mut cols = Vec::new();
        im2col_into(&vals, c, h, w, geom, &mut cols);
        int2::act_codes_in_place(&mut cols, ascale);
        let mut want = Vec::new();
        int2::pack_acts_cols_int2(&cols, oh * ow, kk, &mut want);

        let mut image = Vec::new();
        int2::pack_image_int2(&vals, ascale, c, h, w, p, &mut image);
        let tag = format!("c={c} h={h} w={w} k={k} s={s} p={p}");
        let dirty = vec![!0u64; want.len() + 5];
        for (name, gather) in &gathers {
            let mut got = dirty.clone();
            unsafe { gather(&image, c, h, w, geom, &mut got) };
            assert_eq!(got, want, "{name} gather, {tag}");
        }
    }
}

/// The reference of the GEMM tests: the naive sum over the codes with
/// the identical two-step epilogue.
#[allow(clippy::too_many_arguments)]
fn naive_gemm(
    m: usize,
    k: usize,
    n: usize,
    w: &[f32],
    a: &[f32],
    cs: &[f32],
    bias: &[f32],
    major: OutMajor,
) -> Vec<f32> {
    let mut want = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let s = naive_dot(&w[i * k..(i + 1) * k], &a[j * k..(j + 1) * k]);
            let y = (s as f32) * cs[i] + bias[i];
            match major {
                OutMajor::Row => want[i * n + j] = y,
                OutMajor::Col => want[j * m + i] = y,
            }
        }
    }
    want
}

/// The row-lane microkernels' boundaries, deterministically: every row
/// count from 1 to 40, so every `m mod 4` and `m mod 8` tail (pruned
/// widths) under both lane widths; depths of 1..73 plane words (9 and 72
/// cross the AVX2 byte-accumulator flush, 72 is its interleave buffer's
/// last supported depth and 73 the first unsupported; 7, 8 and 9 sit
/// around the AVX-512 body's eight-word slice, 72 is nine whole slices
/// and 73 leaves a one-word ninth); item counts on both sides of the
/// AVX2 amortization gate and of the AVX-512 sixteen-item row store,
/// up to the 784 pixels of conv2; both output layouts. Every body ==
/// naive, bit for bit, into an output that starts as NaN.
#[test]
fn gemm_row_lane_boundaries_match_naive() {
    let gemms = gemm_bodies("gemm_row_lane_boundaries_match_naive");
    for wpp in [1usize, 2, 3, 5, 7, 8, 9, 72, 73] {
        let k = 64 * wpp - 7;
        // Deep operands keep the tails and drop the rows in between.
        let rows: Vec<usize> = if wpp < 72 { (1..=40).collect() } else { vec![1, 5, 8, 13, 40] };
        for m in rows {
            let items: &[usize] = match (m, wpp) {
                (8 | 13, 2 | 73) => &[1, 2, 7, 8, 9, 784],
                _ if m <= 13 => &[1, 2, 3, 6, 7, 8, 9, 15, 16, 17, 33],
                _ => &[1, 2, 9, 17],
            };
            for &n in items {
                let w: Vec<f32> = (0..m * k)
                    .map(|i| ((i * 7 + i / 5) % 4) as f32 - 2.0)
                    .collect();
                let a: Vec<f32> = (0..n * k).map(|i| ((i * 5 + i / 3) % 4) as f32).collect();
                let cs: Vec<f32> = (0..m).map(|i| 0.031 + i as f32 * 0.17).collect();
                let bias: Vec<f32> = (0..m).map(|i| i as f32 * 0.4 - 1.1).collect();
                let (mut pw, mut pa) = (Vec::new(), Vec::new());
                int2::pack_weights_int2(&w, m, k, &mut pw);
                int2::pack_acts_int2(&a, n, k, &mut pa);
                for major in [OutMajor::Row, OutMajor::Col] {
                    let want = naive_gemm(m, k, n, &w, &a, &cs, &bias, major);
                    for (name, gemm) in &gemms {
                        let mut got = vec![f32::NAN; m * n];
                        unsafe { gemm(m, k, n, &pw, &pa, &cs, &bias, &mut got, major) };
                        assert_eq!(bits(&got), bits(&want), "{name}, m={m} k={k} n={n} {major:?}");
                    }
                }
            }
        }
    }
}

/// Saturated operands at the flush bound: all −2 × all 3 drives every
/// AVX2 byte accumulator to its maximum (`24` per word) for eight words,
/// so an off-by-one in the flush interval would wrap a byte — and every
/// AVX-512 lane count to 64, across its eight-word slices, whose partial
/// sums wait in the output as integers.
#[test]
fn gemm_row_lane_saturated_bytes_do_not_wrap() {
    let gemms = gemm_bodies("gemm_row_lane_saturated_bytes_do_not_wrap");
    for wpp in [8usize, 9, 16, 17, 72] {
        let (m, k, n) = (4, 64 * wpp, 3);
        let (mut pw, mut pa) = (Vec::new(), Vec::new());
        int2::pack_acts_int2(&vec![3.0; n * k], n, k, &mut pa);
        // The negative planes (all −2), then the positive one (all 1).
        for (code, sum) in [(-2.0f32, -6.0f32), (1.0, 3.0)] {
            int2::pack_weights_int2(&vec![code; m * k], m, k, &mut pw);
            for (name, gemm) in &gemms {
                let mut got = vec![0.0f32; m * n];
                unsafe { gemm(m, k, n, &pw, &pa, &[1.0; 4], &[0.0; 4], &mut got, OutMajor::Row) };
                assert!(
                    got.iter().all(|&y| y == sum * k as f32),
                    "{name} wpp={wpp} code={code}: {got:?}"
                );
            }
        }
    }
}

/// A small deterministic generator for the threshold-unit tests below.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// The threshold unit's oracle: code every accumulator on its own,
/// max-pool the *codes* with the layer's floor rule, and pack the
/// pooled map with `pack_image_int2` (itself pinned to the legacy
/// oracle above) at unit scale.
fn threshold_then_pool_then_pack(
    acc: &[f32],
    steps: &[int2::CodeSteps],
    h: usize,
    w: usize,
    pool: usize,
    pad: usize,
) -> Vec<u64> {
    let (c, ph, pw) = (steps.len(), h / pool, w / pool);
    let mut pooled = vec![0.0f32; c * ph * pw];
    for ch in 0..c {
        for py in 0..ph {
            for px in 0..pw {
                let mut best = 0u8;
                for ky in 0..pool {
                    for kx in 0..pool {
                        let s = acc[(ch * h + py * pool + ky) * w + px * pool + kx];
                        best = best.max(steps[ch].code(s));
                    }
                }
                pooled[(ch * ph + py) * pw + px] = f32::from(best);
            }
        }
    }
    let mut out = Vec::new();
    portable::pack_image_int2(&pooled, 1.0, c, ph, pw, pad, &mut out);
    out
}

/// Every threshold-unit body against the oracle: ragged and sub-vector
/// widths (of 8 and of 16 lanes), pooled rows wider than one word and
/// vectors whose bits straddle a word, windows that do not divide the
/// map, both directions (`sign = −1` on never- and always-reached steps
/// too), and 2×2 pools on either side of one 32-column load.
#[test]
fn threshold_pool_pack_bodies_equal_pooled_code_oracle() {
    let mut rng = 0x7e57_u64;
    let units = threshold_bodies("threshold_pool_pack_bodies_equal_pooled_code_oracle");
    for &(c, h, w, pool, pad) in &[
        (1usize, 1usize, 1usize, 1usize, 0usize),
        (3, 5, 3, 1, 1),    // ow < 4
        (2, 4, 7, 1, 0),    // one ragged vector
        (8, 28, 28, 1, 0),  // conv2 of the width-8 CNV
        (8, 26, 26, 13, 0), // its exit head: k = ⌊DIM/2⌋
        (9, 3, 16, 1, 1),   // exactly sixteen lanes
        (9, 3, 17, 1, 0),   // sixteen and one
        (5, 9, 21, 2, 2),   // 2×2, odd extents: last row/column dropped
        (2, 6, 37, 2, 1),   // 2×2, vector body plus scalar tail
        (8, 4, 32, 2, 0),   // 2×2, one full 32-column load
        (8, 4, 34, 2, 1),   // ... and one pair more
        (8, 5, 15, 2, 1),   // 2×2 inside the first of the two vectors
        (3, 8, 8, 4, 0),
        (2, 7, 11, 3, 3),   // 3 does not divide 7 or 11
        (4, 9, 40, 3, 2),   // 3×3, folded row of two and a half vectors
        (1, 3, 70, 1, 0),   // pooled row wider than one word
        (2, 4, 150, 2, 5),  // 75 pooled columns + padding: two words
        (1, 2, 61, 1, 3),   // a vector's bits straddle the word boundary
        (4, 2, 30, 1, 50),  // ... sixteen of them, two bits into the next word
        (4, 4, 60, 2, 70),  // padding alone fills word 0
    ] {
        let acc: Vec<f32> = (0..c * h * w)
            .map(|_| (lcg(&mut rng) % 401) as f32 - 200.0)
            .collect();
        let steps: Vec<int2::CodeSteps> = (0..c)
            .map(|ch| {
                let mut at = [0i32; 3];
                for t in &mut at {
                    *t = (lcg(&mut rng) % 301) as i32 - 150;
                }
                at.sort_unstable();
                let mut at = at.map(|t| t as f32);
                match ch % 4 {
                    2 => at[2] = f32::INFINITY,               // code 3 never reached
                    3 => at = [-1000.0, -1000.0, -1000.0], // constant 3
                    _ => {}
                }
                // Random directions, but both on the edge cases.
                let falls = if ch >= 4 { ch % 8 < 4 } else { lcg(&mut rng) & 1 == 0 };
                int2::CodeSteps { sign: if falls { -1 } else { 1 }, at }
            })
            .collect();
        let want = threshold_then_pool_then_pack(&acc, &steps, h, w, pool, pad);
        let tag = format!("c={c} h={h} w={w} pool={pool} pad={pad}");
        for (name, unit) in &units {
            let mut got = vec![!0u64; want.len()]; // stale words must not survive
            unsafe { unit(&mut acc.clone(), &steps, h, w, pool, pad, &mut got) };
            assert_eq!(got, want, "{name} threshold unit, {tag}");
        }
    }
}

/// `CodeSteps::from_table` reproduces every weakly monotone table —
/// rising, falling, constant, with skipped codes — and refuses the rest.
#[test]
fn code_steps_fold_exactly_the_monotone_tables() {
    let mut rng = 0x57e9_u64;
    for case in 0..400 {
        let len = 1 + (lcg(&mut rng) % 60) as usize;
        let lo = (lcg(&mut rng) % 200) as i32 - 150;
        // Three sorted cut points (possibly equal or out of range) make
        // a rising table; reversing it makes a falling one.
        let mut cuts = [0usize; 3];
        for cut in &mut cuts {
            *cut = (lcg(&mut rng) % (len as u64 + 8)) as usize;
        }
        cuts.sort_unstable();
        let mut table: Vec<f32> = (0..len)
            .map(|i| cuts.iter().filter(|&&cut| i >= cut).count() as f32)
            .collect();
        if case % 2 == 1 {
            table.reverse();
        }
        let steps = int2::CodeSteps::from_table(lo, &table).expect("monotone table");
        for (i, &code) in table.iter().enumerate() {
            assert_eq!(f32::from(steps.code((lo + i as i32) as f32)), code, "case {case} at {i}");
        }
        // A dip (or bump) in the interior is not a step function.
        if len >= 3 && table[0] == table[len - 1] {
            let mut broken = table.clone();
            broken[len / 2] = if table[0] == 3.0 { 0.0 } else { table[0] + 1.0 };
            assert_eq!(int2::CodeSteps::from_table(lo, &broken), None, "case {case}");
        }
    }
    assert_eq!(int2::CodeSteps::from_table(0, &[]), None);
}

/// Code-domain max-pool and the f32 expansion against plain loops over
/// the codes: word-parallel 2×2 (single- and multi-word rows, odd
/// extents, padded input), the generic window, and pack → unpack.
#[test]
fn packed_pool_and_unpack_match_code_loops() {
    let mut rng = 0x9001_u64;
    for &(c, h, w, pool, pad_in, pad_out) in &[
        (8usize, 28usize, 28usize, 2usize, 0usize, 0usize),
        (16, 10, 10, 2, 0, 0),
        (3, 7, 9, 2, 1, 2),    // odd extents, padded both sides
        (2, 4, 140, 2, 3, 1),  // 70 pooled columns: more than 32 per row
        (1, 6, 200, 2, 0, 60), // output straddles a word boundary
        (2, 9, 9, 3, 2, 0),
        (2, 26, 26, 13, 0, 0),
        (1, 5, 5, 1, 1, 3),    // identity pool, re-padded
    ] {
        let codes: Vec<f32> = (0..c * h * w).map(|_| (lcg(&mut rng) % 4) as f32).collect();
        let scale = 0.37f32;
        let vals: Vec<f32> = codes.iter().map(|&q| q * scale).collect();
        let mut image = Vec::new();
        int2::pack_image_int2(&vals, scale, c, h, w, pad_in, &mut image);
        let tag = format!("c={c} h={h} w={w} pool={pool} pads={pad_in}/{pad_out}");

        let mut back = vec![f32::NAN; c * h * w];
        int2::unpack_image_int2(&image, c, h, w, pad_in, scale, &mut back);
        assert_eq!(bits(&back), bits(&vals), "unpack, {tag}");

        let (ph, pw) = (h / pool, w / pool);
        let mut pooled = vec![0.0f32; c * ph * pw];
        for ch in 0..c {
            for py in 0..ph {
                for px in 0..pw {
                    let window = (0..pool * pool).map(|i| {
                        codes[(ch * h + py * pool + i / pool) * w + px * pool + i % pool]
                    });
                    pooled[(ch * ph + py) * pw + px] = window.fold(0.0, f32::max);
                }
            }
        }
        let mut want = Vec::new();
        int2::pack_image_int2(&pooled, 1.0, c, ph, pw, pad_out, &mut want);
        let mut got = vec![!0u64; want.len()];
        let mut ws = vec![!0u64; 1];
        int2::pool_image_int2(&image, c, h, w, pad_in, pool, pad_out, &mut got, &mut ws);
        assert_eq!(got, want, "pool, {tag}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The code-domain conv against the f32 chain it replaces, stage by
    /// stage: `conv_int2_direct` at unit scale yields the accumulators,
    /// each is coded on its own, the codes are max-pooled and packed.
    /// The dispatched run and one under every forced backend must equal
    /// it.
    #[test]
    fn code_domain_conv_equals_direct_conv_then_code_pool_pack(
        c in 1usize..5,
        h in 3usize..11,
        w in 3usize..11,
        kernel in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
        pool in 1usize..4,
        out_pad in 0usize..3,
        c_out in 1usize..6,
        seed in any::<u64>(),
        a0 in acodes(4 * 10 * 10),
        w0 in wcodes(5 * 4 * 3 * 3),
    ) {
        let geom = ConvGeometry::new(kernel).with_stride(stride).with_padding(pad);
        let (Some(oh), Some(ow)) = (geom.output_dim(h), geom.output_dim(w)) else {
            return Ok(());
        };
        if oh < pool || ow < pool {
            return Ok(());
        }
        let kk = c * kernel * kernel;
        let vals = &a0[..c * h * w]; // codes at unit scale
        let mut wplanes = Vec::new();
        int2::pack_weights_int2(&w0[..c_out * kk], c_out, kk, &mut wplanes);
        let mut rng = seed;
        let reach = 6 * kk as u64 + 2;
        let steps: Vec<int2::CodeSteps> = (0..c_out)
            .map(|_| {
                let mut at = [0i32; 3];
                for t in &mut at {
                    *t = (lcg(&mut rng) % reach) as i32 - (reach / 2) as i32;
                }
                at.sort_unstable();
                let at = at.map(|t| t as f32);
                int2::CodeSteps { sign: if lcg(&mut rng) & 1 == 0 { 1 } else { -1 }, at }
            })
            .collect();

        let mut acc = vec![0.0f32; c_out * oh * ow];
        let (mut img_ws, mut cols_ws) = (Vec::new(), Vec::new());
        int2::conv_int2_direct(
            vals, 1.0, c, h, w, geom, &wplanes, c_out, &vec![1.0; c_out], &vec![0.0; c_out],
            &mut acc, &mut img_ws, &mut cols_ws,
        );
        let want = threshold_then_pool_then_pack(&acc, &steps, oh, ow, pool, out_pad);

        let mut image = Vec::new();
        int2::pack_image_int2(vals, 1.0, c, h, w, pad, &mut image);
        let run = || {
            let mut got = vec![!0u64; want.len()];
            let (mut cols, mut acc_ws) = (Vec::new(), Vec::new());
            int2::conv_int2_codes(
                &image, c, h, w, geom, &wplanes, &steps, pool, out_pad, &mut got, &mut cols,
                &mut acc_ws,
            );
            got
        };
        prop_assert_eq!(&run(), &want, "dispatched");
        // Same bits every way, so flipping the process-global backend
        // under the other tests of this binary is harmless.
        let _switch = BACKEND_SWITCH.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        for backend in backends() {
            int2::override_backend(Some(backend));
            let forced = run();
            int2::override_backend(None);
            prop_assert_eq!(&forced, &want, "forced {:?}", backend);
        }
    }
}

/// One stem channel's BatchNorm statistics and QuantReLU grid: the
/// epilogue `conv_f32_codes` folds, restated on the tensor calls the
/// layers make (`BatchNorm::eval_channel` is `normalize_affine` at
/// `1/√(σ² + ε)`, `QuantReLU::quantize_into` a clamp to the clip and
/// `fake_quant_slice` onto the grid).
#[derive(Debug, Clone, Copy)]
struct StemChannel {
    mean: f32,
    var: f32,
    gamma: f32,
    beta: f32,
    clip: f32,
}

impl StemChannel {
    const EPS: f32 = 1e-5;

    fn scale(&self) -> f32 {
        self.clip / 3.0
    }

    /// The layers' epilogue over accumulators `y`: grid values into `q`,
    /// and the normalized values into `z`.
    fn epilogue(&self, y: &[f32], z: &mut [f32], q: &mut [f32]) {
        let inv_std = 1.0 / (self.var + Self::EPS).sqrt();
        adapex_tensor::simd::normalize_affine(z, y, self.mean, inv_std, self.gamma, self.beta);
        for (q, &z) in q.iter_mut().zip(z.iter()) {
            *q = z.clamp(0.0, self.clip);
        }
        adapex_tensor::simd::fake_quant_slice(q, self.scale(), 0.0, 3.0);
    }

    /// The chain `StreamPlan` folds: the code the pack rule gives the
    /// epilogue's value, `None` where the normalize leaves the finite
    /// range.
    fn chain(&self, y: f32) -> Option<u8> {
        let (mut z, mut q) = ([0.0f32], [0.0f32]);
        self.epilogue(&[y], &mut z, &mut q);
        if !z[0].is_finite() {
            return None;
        }
        int2::act_codes_in_place(&mut q, self.scale());
        Some(q[0] as u8)
    }

    /// Random statistics over the edge cases: γ of either sign and zero,
    /// tiny and zero variances, β past the clip.
    fn draw(rng: &mut u64) -> Self {
        let unit = |rng: &mut u64| (lcg(rng) % 10_000) as f32 / 10_000.0;
        let gamma = match lcg(rng) % 6 {
            0 => 0.0,
            1 | 2 => -(0.05 + 2.0 * unit(rng)),
            _ => 0.05 + 2.0 * unit(rng),
        };
        let var = match lcg(rng) % 6 {
            0 => 1e-12,
            1 => 0.0,
            _ => 0.01 + 4.0 * unit(rng),
        };
        StemChannel {
            mean: 4.0 * unit(rng) - 2.0,
            var,
            gamma,
            beta: 6.0 * unit(rng) - 3.0,
            clip: [2.0f32, 1.0, 6.0][(lcg(rng) % 3) as usize],
        }
    }
}

/// Draws for pixels and weights: a value in `[-2, 2)`, the f32 edge case
/// that may replace it, and the die [`with_edges`] rolls.
fn stem_draws(len: usize) -> impl Strategy<Value = Vec<(u16, usize, f32)>> {
    prop::collection::vec((0u16..1000, 0usize..STEM_EDGES.len(), -2.0f32..2.0), len..=len)
}

/// ±0, subnormals, huge and non-finite values.
const STEM_EDGES: [f32; 11] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1e38,
    -1e38,
    -0.0,
    0.0,
    1e-40,
    -3e-42,
    f32::MIN_POSITIVE,
    f32::MAX,
];

/// The values of `draws`, an edge case in place of `per_mille` of them:
/// a case with none mostly stays in every folded range, one with many
/// mostly leaves it.
fn with_edges(draws: &[(u16, usize, f32)], per_mille: u16) -> Vec<f32> {
    draws.iter().map(|&(die, e, v)| if die < per_mille { STEM_EDGES[e] } else { v }).collect()
}

/// Accumulators equal bit for bit, every NaN counting as one.
fn same_accumulators(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

type StemFn = unsafe fn(&[f32], usize, usize, usize, ConvGeometry, &[f32], &[f32], Option<&[[f32; 2]]>, &mut [f32]) -> bool;

fn stem_bodies(test: &str) -> Vec<(&'static str, StemFn)> {
    bodies!(test, StemFn, conv_f32_acc, [avx2 if has_avx2, avx512 if has_avx512])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The stem as a threshold unit against the route it replaces:
    /// `im2col_into` + `gemm_bias_st` for the accumulators, the layers'
    /// epilogue per channel, `pack_image_int2` for the codes. Every body
    /// writes the oracle's accumulators bit for bit and reports whether
    /// they all lie in their channel's folded range; the dispatched
    /// `conv_f32_codes`, under every forced backend, then writes the
    /// oracle's packed codes exactly when they do. With no ranges a body
    /// writes the same accumulators and reports `true`. Kernels 1–5,
    /// strides 1–2, paddings 0–2, 1–4 input and 1–17 output channels,
    /// rows ragged against 8, 16 and 32 lanes, over pixels and weights
    /// that include ±0, subnormals, huge and non-finite values.
    #[test]
    fn stem_conv_codes_equal_im2col_gemm_epilogue_pack(
        c_in in 1usize..5,
        h in 1usize..9,
        w in 1usize..38,
        kernel in 1usize..6,
        stride in 1usize..3,
        pad in 0usize..3,
        c_out in 1usize..18,
        out_pad in 0usize..3,
        seed in any::<u64>(),
        edges in (0usize..4).prop_map(|i| [0u16, 0, 2, 30][i]),
        img0 in stem_draws(4 * 8 * 37),
        w0 in stem_draws(17 * 4 * 25),
    ) {
        let geom = ConvGeometry::new(kernel).with_stride(stride).with_padding(pad);
        let (Some(oh), Some(ow)) = (geom.output_dim(h), geom.output_dim(w)) else {
            return Ok(());
        };
        let (kk, pixels) = (c_in * kernel * kernel, oh * ow);
        let img = &with_edges(&img0[..c_in * h * w], edges)[..];
        // Weights on a fake-quant grid, but for the edge cases.
        let weight: Vec<f32> = with_edges(&w0[..c_out * kk], edges)
            .iter()
            .map(|&v| if v.abs() < 2.0 { (v * 2.0).round() * 0.125 } else { v })
            .collect();
        let mut rng = seed;
        let bias: Vec<f32> = (0..c_out).map(|_| (lcg(&mut rng) % 200) as f32 / 100.0 - 1.0).collect();
        let chans: Vec<StemChannel> = (0..c_out).map(|_| StemChannel::draw(&mut rng)).collect();
        let folds: Vec<(int2::CodeSteps, [f32; 2])> =
            chans.iter().map(|ch| int2::CodeSteps::bisect(|y| ch.chain(y))).collect();
        let steps: Vec<int2::CodeSteps> = folds.iter().map(|f| f.0).collect();
        let domain: Vec<[f32; 2]> = folds.iter().map(|f| f.1).collect();

        // The layer path.
        let mut cols = Vec::new();
        im2col_into(img, c_in, h, w, geom, &mut cols);
        let mut y = vec![0.0f32; c_out * pixels];
        adapex_tensor::gemm::gemm_bias_st(c_out, kk, pixels, &weight, &cols, &bias, &mut y);
        let inside = y.chunks_exact(pixels).zip(&domain).all(|(ys, &[lo, hi])| ys.iter().all(|&v| lo <= v && v <= hi));
        let (mut z, mut q) = (vec![0.0f32; pixels], vec![0.0f32; c_out * pixels]);
        for ((ch, ys), qs) in chans.iter().zip(y.chunks_exact(pixels)).zip(q.chunks_exact_mut(pixels)) {
            ch.epilogue(ys, &mut z, qs);
        }
        // Each channel packed at its own grid step, then interleaved.
        let rw = int2::image_row_words(ow, out_pad);
        let mut want = Vec::with_capacity(c_out * oh * 2 * rw);
        for (ch, qs) in chans.iter().zip(q.chunks_exact(pixels)) {
            let mut packed = Vec::new();
            int2::pack_image_int2(qs, ch.scale(), 1, oh, ow, out_pad, &mut packed);
            want.extend(packed);
        }

        for (name, body) in stem_bodies("stem_conv_codes_equal_im2col_gemm_epilogue_pack") {
            let mut acc = vec![f32::NAN; c_out * pixels];
            let ok = unsafe { body(img, c_in, h, w, geom, &weight, &bias, Some(&domain), &mut acc) };
            prop_assert!(same_accumulators(&acc, &y), "{} accumulators", name);
            prop_assert_eq!(ok, inside, "{} range verdict", name);
            let mut acc = vec![f32::NAN; c_out * pixels];
            let ok = unsafe { body(img, c_in, h, w, geom, &weight, &bias, None, &mut acc) };
            prop_assert!(same_accumulators(&acc, &y), "{} accumulators, no ranges", name);
            prop_assert!(ok, "{} verdict with no ranges", name);
        }
        let _switch = BACKEND_SWITCH.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        for backend in backends() {
            int2::override_backend(Some(backend));
            let (mut got, mut acc_ws) = (vec![!0u64; want.len()], vec![f32::NAN; 3]);
            let ok = int2::conv_f32_codes(
                img, c_in, h, w, geom, &weight, &bias, &steps, &domain, out_pad, &mut got, &mut acc_ws,
            );
            int2::override_backend(None);
            prop_assert_eq!(ok, inside, "{:?} range verdict", backend);
            if ok {
                prop_assert_eq!(&got, &want, "{:?} codes", backend);
            } else {
                // The caller's exact path reads them (the threshold unit
                // clobbers them on the other branch).
                prop_assert!(same_accumulators(&acc_ws, &y), "{:?} accumulators", backend);
            }
        }
    }
}

/// The fold finds the range `chain` is finite on and three steps that
/// reproduce it there, for a rising, a falling and a γ = 0 channel: in
/// the range the steps equal the chain on **every** f32 accumulator,
/// and the chain is finite on all of it. Also the edges the fold
/// refuses: a chain that codes −0 and +0 apart, and one finite nowhere.
/// A few minutes with `--release -- --ignored`.
#[test]
#[ignore = "exhaustive 2^32 sweep per channel"]
fn stem_fold_equals_the_chain_on_every_f32() {
    const CHUNK: usize = 1 << 20;
    let channels = [
        ("γ > 0", StemChannel { mean: 0.3, var: 0.7, gamma: 1.3, beta: 0.2, clip: 2.0 }),
        ("γ < 0", StemChannel { mean: -0.4, var: 2.1, gamma: -0.8, beta: 1.1, clip: 2.0 }),
        ("γ = 0", StemChannel { mean: 0.1, var: 0.5, gamma: 0.0, beta: 0.7, clip: 2.0 }),
    ];
    let (mut ys, mut z, mut q) = (vec![0.0f32; CHUNK], vec![0.0f32; CHUNK], vec![0.0f32; CHUNK]);
    for (name, ch) in channels {
        let (steps, [lo, hi]) = int2::CodeSteps::bisect(|y| ch.chain(y));
        assert!(lo < 0.0 && hi > 0.0, "{name}: range [{lo}, {hi}] around zero");
        let mut covered = 0u64;
        for base in (0..1u64 << 32).step_by(CHUNK) {
            for (i, y) in ys.iter_mut().enumerate() {
                *y = f32::from_bits((base + i as u64) as u32);
            }
            ch.epilogue(&ys, &mut z, &mut q);
            int2::act_codes_in_place(&mut q, ch.scale());
            for ((&y, &z), &code) in ys.iter().zip(&z).zip(&q) {
                if lo <= y && y <= hi {
                    covered += 1;
                    assert!(z.is_finite(), "{name}: not finite at {:#010x} inside the range", y.to_bits());
                    assert_eq!(steps.code(y), code as u8, "{name}: code of {:#010x}", y.to_bits());
                }
            }
        }
        println!("{name}: {steps:?} on [{lo:e}, {hi:e}], {covered} accumulators");
    }
    // Mean 0 with zero variance: ±0 normalize to ∓∞·0 = NaN... and a
    // positive γ with an infinite scale sends −0 and +0 to −∞ and +∞.
    let split = StemChannel { mean: 0.0, var: -StemChannel::EPS, gamma: 1.0, beta: 0.0, clip: 2.0 };
    assert_eq!(int2::CodeSteps::bisect(|y| split.chain(y)).1, [f32::INFINITY, f32::NEG_INFINITY]);
    assert_eq!(int2::CodeSteps::bisect(|_| None).1, [f32::INFINITY, f32::NEG_INFINITY]);
    let zeros_apart = |y: f32| Some(u8::from(y.is_sign_positive()));
    assert_eq!(int2::CodeSteps::bisect(zeros_apart).1, [f32::INFINITY, f32::NEG_INFINITY]);
}
