//! Bit-packed 2-bit integer GEMM: the MVU popcount inner product in software.
//!
//! CNVW2A2 eval runs every matrix layer (except the raw-image stem conv)
//! on signed 2-bit weights × unsigned 2-bit activations. This module
//! executes those layers the way the FINN MVTU RTL does: operands are
//! packed into `u64` bit-plane words and the inner product becomes four
//! AND+popcount streams combined with small shifts.
//!
//! # Bit-plane packing
//!
//! A signed 2-bit weight code `w ∈ {-2,-1,0,1}` is stored as its two's
//! complement bits `(w1, w0)` so that `w = w0 - 2*w1`:
//!
//! ```text
//! -2 = (1,0)   -1 = (1,1)   0 = (0,0)   1 = (0,1)
//! ```
//!
//! An unsigned 2-bit activation code `a ∈ {0..3}` is `a = a0 + 2*a1`.
//! Plane `p` of item `i` packs bit `p` of 64 consecutive codes per word,
//! `k` codes into `W = ceil(k/64)` words, laid out `[plane0 | plane1]`
//! per item (tail bits zero, so padding contributes nothing). The dot
//! product over `k` codes is then exactly
//!
//! ```text
//! S = Σ w·a = pc(w0&a0) + 2·pc(w0&a1) - 2·pc(w1&a0) - 4·pc(w1&a1)
//! ```
//!
//! where `pc` is population count — pure integer arithmetic, so every
//! backend form below is bit-identical by construction, with none of
//! the FMA/ordering care the f32 kernels in [`crate::simd`] need. The
//! portable backend is `u64::count_ones` per (weight item, activation
//! item) pair. The AVX2 backend runs whole groups of four weight rows
//! through a **row-lane microkernel** — the MVU shape: one activation
//! word broadcast to four lanes that each hold a weight row, byte
//! counts from `vpshufb` nibble LUTs (`×1` for activation plane 0, `×2`
//! for plane 1) summed per weight plane and reduced by `vpsadbw` every
//! 8 words (a word adds at most 24 to a byte, `24 · 8 < 256`), so each
//! lane ends up holding its row's `S = P − 2N` with no horizontal sum —
//! and leftover rows, and shapes that cannot amortize interleaving the
//! rows, through a per-pair `dot` (Muła `vpshufb` popcount from four
//! plane words up, plain hardware `POPCNT` below).
//!
//! # Requantize epilogue and exact agreement
//!
//! [`gemm_int2`] fuses the MVTU-style epilogue `y = (S as f32)*cs + bias`
//! (two exactly-rounded f32 steps — the row lanes issue `mulps` then
//! `addps`, never an FMA, so they round exactly like the scalar form;
//! `cs` is the combined weight×activation scale). `|S| ≤ 6k < 2^24` for
//! every shape in play, so `S as f32` is exact — which means an f32
//! GEMM over the *code values* computes the same integer `S` exactly
//! (every partial sum is an integer below 2^24 and the f32 GEMM never
//! contracts to FMA). That f32-over-codes form is the route conv layers
//! below the engine's profitability bar take (see
//! [`conv_engine_profitable`]); the differential suites pin the two
//! implementations against each other bit-for-bit.
//!
//! # One quantize rule
//!
//! Every activation code in the engine — [`act_codes_in_place`] on the
//! linear and f32-over-codes routes, both [`pack_image_int2`] bodies on
//! the direct conv route — comes from three compares on `x = v / scale`:
//!
//! ```text
//! g1 = x ≥ 0.5   g2 = x ≥ 1.5   g3 = x ≥ 2.5
//! code = g1 + g2 + g3      plane0 = g1 ^ g2 ^ g3      plane1 = g2
//! ```
//!
//! which equals `(x.round().clamp(0.0, 3.0) as i32) & 3` for all 2³²
//! f32 bit patterns: `round` is half-away-from-zero, so on `x ≥ 0` it
//! steps exactly at the three thresholds and the clamp holds 3 above;
//! negatives, −0.0 and −∞ clamp to 0 and fail every compare; NaN fails
//! every ordered compare just as `NaN as i32` is 0. The equivalence is
//! verified exhaustively (an `#[ignore]`d sweep in `int2_identity.rs`),
//! and the `round().clamp()` form survives only there, as the oracle.
//! The division is kept — a reciprocal multiply rounds differently.
//!
//! # Direct convolution: pack once, gather windows
//!
//! Packing im2col columns would code and pack every input pixel up to
//! `k²` times (once per window it appears in). The direct path — the
//! software twin of FINN's sliding-window unit feeding a matrix-vector
//! unit — packs each image **once** into per-`(channel, row)` bit planes
//! ([`pack_image_int2`]: eight values per `vdivps` + three `vcmpps` +
//! three `vmovmskps` on AVX2, a masked load for a row's ragged tail)
//! and then lifts every window's operand straight out of the packed
//! rows ([`gather_conv_windows_int2`]). The gather walks `(c, ky)` in
//! depth order: the window's `k`-bit row segment is shifted down to bit
//! 0, masked, shifted up to its depth slot `(c*k + ky)*k mod 64` and
//! OR-ed into the one open operand word per plane held in a register;
//! a word is stored once, when the walk leaves it, and the bits of a
//! segment straddling the boundary open the next word. On AVX2 four
//! output pixels share a vector (`vpsrlvq` of the broadcast row word by
//! `[ox·s … (ox+3)·s]`), eight share each broadcast, and the finished
//! words are scattered item-major; rows wider than one word keep the
//! scalar two-word funnel read. The gathered operand words are
//! **equal** to what `im2col → `[`act_codes_in_place`]` → `
//! [`pack_acts_cols_int2`] would produce — not merely sum-equivalent —
//! so [`conv_int2_direct`] feeds [`gemm_int2`] the operands that
//! composition would (the identity suite keeps it as its oracle), and
//! the op counters live in the dispatcher, above the backends.
//!
//! # Staying in the code domain: the threshold unit
//!
//! [`conv_int2_direct`] hands back f32: the layers behind it run
//! BatchNorm, QuantReLU and a max-pool as three more passes, and the
//! next conv's [`pack_image_int2`] turns the result into the codes it
//! started from. FINN's MVTU does none of that — the accumulator goes
//! through a per-channel multi-threshold and leaves as a 2-bit code on
//! a stream. [`conv_int2_codes`] is that pipeline for the serving
//! executor: the same window gather, the same popcount GEMM (run at unit
//! scale and zero bias, which makes the requantize epilogue the exact
//! identity on `S`), then [`threshold_pool_pack_int2`] — each
//! accumulator is compared against its channel's three integer steps
//! ([`CodeSteps`]: `code = #{j : sign·S ≥ at[j]}`) and the code bits are
//! written as `[plane0 | plane1]` row words in exactly the layout
//! [`gather_conv_windows_int2`] reads, so the next conv gathers from
//! them directly. A max-pool between the two moves in front of the
//! threshold: `max` commutes with a weakly monotone code function, so
//! the unit takes the window's largest `sign·S` (largest `S` for rising
//! steps, smallest for falling ones) and thresholds once. The steps come
//! from the caller, which tabulates its own f32 arithmetic over every
//! reachable `S` ([`CodeSteps::from_table`] folds such a table and
//! refuses one that is not a step function) — this module never decides
//! what a threshold *should* be. A pool an exit head reads in front of
//! cannot be fused; [`pool_image_int2`] runs it on the packed codes as
//! an OR of thermometer planes. [`unpack_image_int2`] expands the few
//! codes an FC layer reads back to grid values. `conv_int2_codes` bumps
//! the op counters exactly as `conv_int2_direct` does: one direct-conv
//! call, and the GEMM's own MAC and popcount-word counts.
//!
//! # Dispatch
//!
//! CPU detection picks the AVX2 or the portable pack, gather, threshold
//! and popcount bodies once per process; the portable bodies are the only
//! path on hosts without AVX2+POPCNT, and [`override_backend`] is how
//! tests and benches reach them elsewhere — same bits either way. Which
//! *route* a layer takes is a property of its shape
//! ([`conv_engine_profitable`], [`MAX_DIRECT_KERNEL`]), never of a
//! process-level switch.

use crate::conv::ConvGeometry;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

pub use crate::simd::Backend;

/// Largest supported reduction depth: `6*k` must stay below 2^24 so the
/// integer accumulator converts to `f32` exactly (and so the f32-over-
/// codes route accumulates exactly). CNV shapes peak at `k = 4608`.
pub const MAX_K: usize = (1 << 24) / 6;

// Cached backend decision: 0 = undecided, 1 = AVX2, 2 = portable,
// 3/4 = explicit override (AVX2/portable) from `override_backend`.
static BACKEND: AtomicU8 = AtomicU8::new(0);

// Logical multiply-accumulate count (m*n*k per GEMM call) and executed
// popcount word-ops (4 per plane-pair word per dot product). The finn
// cycle-model cross-check reads these; eval serving never does, so a
// relaxed atomic per GEMM call is free.
static MAC_OPS: AtomicU64 = AtomicU64::new(0);
static POPCNT_OPS: AtomicU64 = AtomicU64::new(0);

// Direct-conv invocations: engagement probe for the differential and
// allocation suites (did the windowed path actually run?).
static DIRECT_CONV_CALLS: AtomicU64 = AtomicU64::new(0);

fn detect_backend() -> u8 {
    #[cfg(target_arch = "x86_64")]
    {
        // Unlike the f32 kernels, the remainder loop leans on a scalar
        // POPCNT; every AVX2 part ships it, but check anyway.
        if std::arch::is_x86_feature_detected!("avx2")
            && std::arch::is_x86_feature_detected!("popcnt")
        {
            return 1;
        }
    }
    2
}

/// The backend [`gemm_int2`] currently dispatches to.
pub fn active_backend() -> Backend {
    match BACKEND.load(Ordering::Relaxed) {
        1 | 3 => Backend::Avx2,
        2 | 4 => Backend::Portable,
        _ => {
            let b = detect_backend();
            let _ = BACKEND.compare_exchange(0, b, Ordering::Relaxed, Ordering::Relaxed);
            active_backend()
        }
    }
}

/// Pins the popcount dispatch to one backend (`Some`) or restores
/// runtime detection (`None`). Integer arithmetic makes both backends
/// bit-identical, so flipping this never changes results.
///
/// # Panics
///
/// Panics when asked to force AVX2 on a host without AVX2+POPCNT.
pub fn override_backend(backend: Option<Backend>) {
    let v = match backend {
        Some(Backend::Avx2) => {
            assert!(
                detect_backend() == 1,
                "AVX2 int2 backend unavailable on this host"
            );
            3
        }
        Some(Backend::Portable) => 4,
        None => detect_backend(),
    };
    BACKEND.store(v, Ordering::Relaxed);
}

/// Filter count (`c_out`) at which the popcount engine beats the
/// bit-identical f32-over-codes route when every output pixel pays its
/// own quantize+pack pass — the 1×1-kernel case, where a window reuses
/// nothing. Wider kernels divide it by their `k²` window reuse; see
/// [`conv_engine_profitable`].
pub const ENGINE_MIN_ITEMS: usize = 32;

/// Minimum conv filter count for the engine: the once-per-image pack
/// amortizes over every window, so small filter banks already win.
/// Measured per image on 3×3 convs (`bench --simd-only`,
/// `conv_route_crossover` in BENCH_simd.json): the engine beats
/// f32-over-codes 1.7–3.6× at every `c_out` in 2..=8 once `c_in >= 4`;
/// only at `c_in = 2` do the routes come near a tie (1.0–1.7×). Layers
/// with fewer than four filters are that degenerate case in practice,
/// so the floor sits there. See [`conv_engine_profitable`].
pub const ENGINE_MIN_ITEMS_DIRECT: usize = 4;

/// Largest kernel the direct path supports: a window's row segment must
/// come out of one two-word funnel read, so `k` must fit a word. CNV
/// kernels are 3.
pub const MAX_DIRECT_KERNEL: usize = 64;

/// Whether the popcount engine ([`conv_int2_direct`]) is expected to be
/// *faster* than the bit-identical f32-over-codes route for a conv with
/// `c_out` filters of a `kernel × kernel` window — a pure function of
/// the layer's shape.
///
/// Both routes compute identical results (the differential suites pin
/// that), so this is purely a speed model. The f32 route costs `c_out`
/// MACs per window element; the engine costs a quantize+pack tax plus
/// `c_out / 16` popcount word-ops. Activation packing happens **once
/// per image**, so the tax is divided by the `k²` window reuse of every
/// input pixel: the `c_out` threshold is `ENGINE_MIN_ITEMS / k²`,
/// floored at [`ENGINE_MIN_ITEMS_DIRECT`], the smallest filter bank
/// measured to win. `k = 1` self-consistently stays at
/// [`ENGINE_MIN_ITEMS`] (a 1×1 window reuses nothing). Kernels past
/// [`MAX_DIRECT_KERNEL`] cannot be gathered and always take the f32
/// route.
#[inline]
pub fn conv_engine_profitable(c_out: usize, kernel: usize) -> bool {
    kernel <= MAX_DIRECT_KERNEL
        && c_out >= (ENGINE_MIN_ITEMS / (kernel * kernel).max(1)).max(ENGINE_MIN_ITEMS_DIRECT)
}

/// `(logical MACs, popcount word-ops)` executed by [`gemm_int2`] since
/// the last [`reset_op_counters`]. One dot product over `k` codes counts
/// `k` MACs and `4*ceil(k/64)` popcount ops (padding words included —
/// the constant-factor gap between the two is exactly the cycle model's
/// word-granularity rounding).
pub fn op_counters() -> (u64, u64) {
    (
        MAC_OPS.load(Ordering::Relaxed),
        POPCNT_OPS.load(Ordering::Relaxed),
    )
}

/// Direct-conv invocations ([`conv_int2_direct`]) since the last
/// [`reset_op_counters`]: the engagement probe the differential and
/// allocation suites use to prove the windowed path actually ran.
pub fn direct_conv_calls() -> u64 {
    DIRECT_CONV_CALLS.load(Ordering::Relaxed)
}

/// Zeroes the [`op_counters`] and [`direct_conv_calls`]. Not
/// synchronized against concurrent GEMM calls; callers (tests) quiesce
/// the engine first.
pub fn reset_op_counters() {
    MAC_OPS.store(0, Ordering::Relaxed);
    POPCNT_OPS.store(0, Ordering::Relaxed);
    DIRECT_CONV_CALLS.store(0, Ordering::Relaxed);
}

/// Words per plane for a `k`-deep operand.
#[inline]
pub fn plane_words(k: usize) -> usize {
    k.div_ceil(64)
}

/// Packed `u64` words per item (`2` planes of [`plane_words`]).
#[inline]
pub fn words_per_item(k: usize) -> usize {
    2 * plane_words(k)
}

/// Output orientation of [`gemm_int2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutMajor {
    /// `out[i*n + j]`: weight-item-major (conv layout `[c_out, pixels]`).
    Row,
    /// `out[j*m + i]`: act-item-major (linear layout `[batch, out]`).
    Col,
}

/// Packs rows of signed 2-bit weight *codes* (each an exact integer in
/// `{-2,-1,0,1}` stored as `f32`) into two's-complement bit planes.
/// Row `r` reads `codes[r*k..(r+1)*k]` and lands at
/// `out[r*words_per_item(k)..]` as `[plane0 | plane1]`.
pub fn pack_weights_int2(codes: &[f32], items: usize, k: usize, out: &mut Vec<u64>) {
    debug_assert_eq!(codes.len(), items * k);
    debug_assert!(codes
        .iter()
        .all(|&c| (-2.0..=1.0).contains(&c) && c == c.trunc()));
    pack_strided(codes, items, k, k, 1, out);
}

/// Packs rows of unsigned 2-bit activation codes (`{0..3}` as `f32`,
/// row `r` at `codes[r*k..]`) into bit planes, same layout as
/// [`pack_weights_int2`].
pub fn pack_acts_int2(codes: &[f32], items: usize, k: usize, out: &mut Vec<u64>) {
    debug_assert_eq!(codes.len(), items * k);
    debug_assert!(codes
        .iter()
        .all(|&c| (0.0..=3.0).contains(&c) && c == c.trunc()));
    pack_strided(codes, items, k, k, 1, out);
}

/// Packs unsigned 2-bit activation codes from an im2col column buffer:
/// element `(kk, j)` of item `j` lives at `codes[kk*items + j]`
/// (`[k, items]` row-major, i.e. items are columns).
pub fn pack_acts_cols_int2(codes: &[f32], items: usize, k: usize, out: &mut Vec<u64>) {
    debug_assert_eq!(codes.len(), items * k);
    pack_strided(codes, items, k, 1, items, out);
}

/// Shared packer: item `i`, depth index `kk` reads
/// `codes[i*item_stride + kk*depth_stride]`. Codes are two's-complement
/// masked to their low 2 bits, which maps both the signed weight range
/// and the unsigned act range onto the plane identities above.
fn pack_strided(
    codes: &[f32],
    items: usize,
    k: usize,
    item_stride: usize,
    depth_stride: usize,
    out: &mut Vec<u64>,
) {
    let wpp = plane_words(k);
    out.clear();
    out.resize(items * 2 * wpp, 0);
    for i in 0..items {
        let dst = &mut out[i * 2 * wpp..(i + 1) * 2 * wpp];
        let (p0, p1) = dst.split_at_mut(wpp);
        let base = i * item_stride;
        for kk in 0..k {
            let bits = (codes[base + kk * depth_stride] as i32 & 3) as u64;
            let (word, bit) = (kk / 64, kk % 64);
            p0[word] |= (bits & 1) << bit;
            p1[word] |= (bits >> 1) << bit;
        }
    }
}

/// `u64` words per packed image-row plane for [`pack_image_int2`]:
/// enough bits for the `pad + w + pad` padded row, plus one guard word
/// so the window gather's two-word funnel reads never index past the
/// row end.
#[inline]
pub fn image_row_words(w: usize, pad: usize) -> usize {
    (w + 2 * pad).div_ceil(64) + 1
}

/// The engine's one activation quantize rule: the 2-bit code of a
/// pre-scaled value `x = v / scale`, by three compares instead of
/// `x.round().clamp(0, 3)`. The two agree on every f32 bit pattern
/// (see the module doc); this one is branch-free, calls no libm
/// `roundf` and is what `vcmpps` computes eight at a time.
#[inline(always)]
fn act_code(x: f32) -> u8 {
    (x >= 0.5) as u8 + (x >= 1.5) as u8 + (x >= 2.5) as u8
}

/// Sizes `v` to `len` words whose contents the caller overwrites in
/// full: a steady-state call reuses the previous call's words instead
/// of zero-filling them.
fn resize_for_overwrite(v: &mut Vec<u64>, len: usize) {
    if v.len() > len {
        v.truncate(len);
    } else {
        v.resize(len, 0);
    }
}

/// Quantizes and bit-packs one CHW image **once** into per-`(channel,
/// row)` bit planes for the direct conv path.
///
/// Row `(c, y)` lands at `out[(c*h + y) * 2*rw ..]` as
/// `[plane0 | plane1]` with `rw = image_row_words(w, pad)`; input
/// column `ix` sits at bit `pad + ix`, so horizontal padding is the
/// zero bits at each row edge — code 0, exactly the zeros im2col
/// materializes. The quantize step is the same compare rule as
/// [`act_codes_in_place`] (`plane0 = g1^g2^g3` and `plane1 = g2` are
/// the low and high bit of the code), so the packed codes equal the
/// codes of an im2col'd image bit for bit, on both backends.
///
/// # Panics
///
/// Panics when `img` is not `c*h*w` long.
pub fn pack_image_int2(
    img: &[f32],
    ascale: f32,
    c: usize,
    h: usize,
    w: usize,
    pad: usize,
    out: &mut Vec<u64>,
) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_backend` only reports Avx2 after runtime
        // detection of AVX2 (or an override that re-checked it).
        Backend::Avx2 => unsafe { avx2::pack_image_int2(img, ascale, c, h, w, pad, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => portable::pack_image_int2(img, ascale, c, h, w, pad, out),
        Backend::Portable => portable::pack_image_int2(img, ascale, c, h, w, pad, out),
    }
}

/// Checks the image and zero-fills `out` to the packed-image size
/// (both pack bodies OR bits into it); returns the words per row plane.
fn pack_image_setup(
    img: &[f32],
    ascale: f32,
    c: usize,
    h: usize,
    w: usize,
    pad: usize,
    out: &mut Vec<u64>,
) -> usize {
    assert_eq!(
        img.len(),
        c * h * w,
        "pack_image_int2: image length mismatch"
    );
    debug_assert!(ascale > 0.0);
    let rw = image_row_words(w, pad);
    out.clear();
    out.resize(c * h * 2 * rw, 0);
    rw
}

/// Validated shape of one window gather, shared by both backend bodies.
struct GatherShape {
    c: usize,
    h: usize,
    oh: usize,
    ow: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// Words per packed image-row plane ([`image_row_words`]).
    rw: usize,
    /// Words per operand plane (`plane_words(c·k²)`).
    wpp: usize,
    /// Whether a padded row fits one word, so that a window segment is
    /// a single-word shift (no funnel read; the lane-parallel form's
    /// precondition).
    one_word_rows: bool,
    seg_mask: u64,
}

impl GatherShape {
    /// Checks the geometry against the packed image and sizes `out` to
    /// the `oh·ow` operand items, every word of which the gather bodies
    /// then store exactly once.
    fn new(
        image: &[u64],
        c: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        out: &mut Vec<u64>,
    ) -> Self {
        let k = geom.kernel;
        assert!(
            (1..=MAX_DIRECT_KERNEL).contains(&k),
            "direct conv gather requires 1 <= kernel <= {MAX_DIRECT_KERNEL}, got {k}"
        );
        let shape = Self {
            c,
            h,
            oh: geom.output_dim(h).expect("window must fit"),
            ow: geom.output_dim(w).expect("window must fit"),
            kernel: k,
            stride: geom.stride,
            pad: geom.padding,
            rw: image_row_words(w, geom.padding),
            wpp: plane_words(c * k * k),
            one_word_rows: w + 2 * geom.padding <= 64,
            seg_mask: if k == 64 { !0 } else { (1u64 << k) - 1 },
        };
        assert_eq!(
            image.len(),
            c * h * 2 * shape.rw,
            "gather_conv_windows_int2: packed image length mismatch"
        );
        resize_for_overwrite(out, shape.oh * shape.ow * 2 * shape.wpp);
        shape
    }

    /// Offset of the packed plane-0 row feeding kernel row `ky` of
    /// output row `oy` in channel `ci` (plane 1 follows `rw` words
    /// later), or `None` in vertical padding.
    #[inline(always)]
    fn row_base(&self, ci: usize, oy: usize, ky: usize) -> Option<usize> {
        let iy = (oy * self.stride + ky).checked_sub(self.pad)?;
        (iy < self.h).then_some((ci * self.h + iy) * 2 * self.rw)
    }

    /// Assembles the operand item of output pixel `(oy, ox)` into
    /// `item` (`2·wpp` words): the depth walk in scalar form. `FUNNEL`
    /// selects the two-word read that rows wider than a word need; with
    /// one-word rows the window is a plain shift of the row word.
    #[inline(always)]
    fn gather_pixel<const FUNNEL: bool>(
        &self,
        image: &[u64],
        oy: usize,
        ox: usize,
        item: &mut [u64],
    ) {
        let (k, rw, wpp) = (self.kernel, self.rw, self.wpp);
        // The window row occupies bits [ox*s, ox*s + k) of the padded
        // image row.
        let (w0, sh) = (ox * self.stride / 64, ox * self.stride % 64);
        let segment = |row: &[u64]| {
            let bits = if FUNNEL {
                // Funnel shift across the word pair; `<< 1 <<` keeps
                // each shift < 64 when sh == 0 (the upper word then
                // contributes nothing).
                (row[w0] >> sh) | (row[w0 + 1] << 1 << (63 - sh))
            } else {
                row[0] >> sh
            };
            bits & self.seg_mask
        };
        let (mut a0, mut a1) = (0u64, 0u64);
        // `ds` is the bit of the open word the next segment starts at:
        // the depth `(ci*k + ky)*k` modulo 64, kept incrementally.
        let (mut word, mut ds) = (0, 0);
        for ci in 0..self.c {
            for ky in 0..k {
                let (seg0, seg1) = match self.row_base(ci, oy, ky) {
                    Some(base) => (segment(&image[base..]), segment(&image[base + rw..])),
                    None => (0, 0), // vertical padding: all-zero codes
                };
                a0 |= seg0 << ds;
                a1 |= seg1 << ds;
                ds += k;
                if ds >= 64 {
                    item[word] = a0;
                    item[wpp + word] = a1;
                    word += 1;
                    ds -= 64;
                    // Segment bits past the word boundary open the next
                    // word; `k - ds` is in 1..=64, so `>> 1 >>` keeps
                    // the shift in range.
                    a0 = seg0 >> 1 >> (k - ds - 1);
                    a1 = seg1 >> 1 >> (k - ds - 1);
                }
            }
        }
        if ds > 0 {
            item[word] = a0;
            item[wpp + word] = a1;
        }
    }

    /// The whole gather one pixel at a time: the portable body, and the
    /// AVX2 body's route for shapes its lanes do not cover.
    #[inline(always)]
    fn gather_pixels(&self, image: &[u64], out: &mut [u64]) {
        for (p, item) in out.chunks_exact_mut(2 * self.wpp).enumerate() {
            let (oy, ox) = (p / self.ow, p % self.ow);
            if self.one_word_rows {
                self.gather_pixel::<false>(image, oy, ox, item);
            } else {
                self.gather_pixel::<true>(image, oy, ox, item);
            }
        }
    }
}

/// Builds the packed operand for every conv output pixel straight from
/// a [`pack_image_int2`] image — **bit-for-bit** what
/// `im2col_into` → [`act_codes_in_place`] → [`pack_acts_cols_int2`]
/// would produce, without materializing any f32 column.
///
/// Each output pixel's operand is assembled in depth order: per
/// (channel, kernel-row) the window's `k`-bit row segment is shifted
/// out of the packed row into the open operand word at depth slot
/// `(c*k + ky)*k`, and a word is stored once, when the depth walk
/// leaves it. Kernel rows falling in vertical padding contribute zero
/// segments — the zeros im2col writes — and horizontal padding is
/// already zero bits in the packed rows. The AVX2 body builds four
/// pixels per vector. Output layout (items = `oh*ow` pixels of depth
/// `c*k*k`, `[plane0 | plane1]`, zero tail bits) is exactly
/// [`pack_acts_cols_int2`]'s.
///
/// # Panics
///
/// Panics when `geom.kernel` exceeds [`MAX_DIRECT_KERNEL`], the window
/// doesn't fit the input, or `image` is not a packed `c×h×w` image.
pub fn gather_conv_windows_int2(
    image: &[u64],
    c: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    out: &mut Vec<u64>,
) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `pack_image_int2`.
        Backend::Avx2 => unsafe { avx2::gather_conv_windows_int2(image, c, h, w, geom, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => portable::gather_conv_windows_int2(image, c, h, w, geom, out),
        Backend::Portable => portable::gather_conv_windows_int2(image, c, h, w, geom, out),
    }
}

/// Direct int2 convolution of one image: pack once
/// ([`pack_image_int2`]), gather every window's packed operand
/// ([`gather_conv_windows_int2`]), then run the regular popcount GEMM
/// with the fused requantize epilogue. Bit-identical to
/// im2col → code rounding → [`pack_acts_cols_int2`] → [`gemm_int2`]
/// because the gathered operand *words* are equal, not merely the
/// integer sums — and it bumps the same op counters, so the cycle-model
/// cross-checks hold unchanged. `image_ws`/`cols_ws` are
/// caller-provided scratch (pooled workspace buffers in the layers) so
/// steady-state eval stays allocation-free.
///
/// # Panics
///
/// Panics on shape mismatches, a non-fitting window, or a kernel past
/// [`MAX_DIRECT_KERNEL`].
#[allow(clippy::too_many_arguments)]
pub fn conv_int2_direct(
    img: &[f32],
    ascale: f32,
    c_in: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    wplanes: &[u64],
    c_out: usize,
    cs: &[f32],
    bias: &[f32],
    out: &mut [f32],
    image_ws: &mut Vec<u64>,
    cols_ws: &mut Vec<u64>,
) {
    let k = geom.kernel;
    let oh = geom.output_dim(h).expect("window must fit");
    let ow = geom.output_dim(w).expect("window must fit");
    let kk = c_in * k * k;
    DIRECT_CONV_CALLS.fetch_add(1, Ordering::Relaxed);
    pack_image_int2(img, ascale, c_in, h, w, geom.padding, image_ws);
    gather_conv_windows_int2(image_ws, c_in, h, w, geom, cols_ws);
    gemm_int2(c_out, kk, oh * ow, wplanes, cols_ws, cs, bias, out, OutMajor::Row);
}

/// One output channel's map from the integer accumulator `S` to the
/// 2-bit activation code the next layer consumes: the MVTU threshold
/// unit. `code(S) = #{j : sign·S ≥ at[j]}` — three ascending integer
/// steps on `S` itself (`sign = +1`, the code rises with `S`) or on `−S`
/// (`sign = −1`, a negative BatchNorm scale makes it fall). A step that
/// is never reached sits at `i32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeSteps {
    /// `+1` or `−1`: the direction the code moves with `S`.
    pub sign: i32,
    /// Ascending step positions on `sign·S`.
    pub at: [i32; 3],
}

impl CodeSteps {
    /// Folds a tabulated code function into steps: `codes[i]` (an exact
    /// `0.0..=3.0` integer, as [`act_codes_in_place`] leaves it) is the
    /// code at `S = lo + i`. `None` when the table is not weakly
    /// monotone, i.e. no three steps reproduce it.
    pub fn from_table(lo: i32, codes: &[f32]) -> Option<Self> {
        let (&first, &last) = (codes.first()?, codes.last()?);
        let sign = if first <= last { 1 } else { -1 };
        let mut at = [i32::MAX; 3];
        let mut prev = 0usize;
        for step in 0..codes.len() {
            // Walk in the direction `sign·S` ascends.
            let i = if sign > 0 { step } else { codes.len() - 1 - step };
            let code = codes[i] as usize;
            debug_assert!(code <= 3 && codes[i] == code as f32);
            if code < prev {
                return None;
            }
            at[prev..code].fill(sign * (lo + i as i32));
            prev = code;
        }
        Some(CodeSteps { sign, at })
    }

    /// The code at accumulator `s`.
    #[inline]
    pub fn code(&self, s: i32) -> u8 {
        let v = self.sign * s;
        self.at.iter().map(|&t| u8::from(v >= t)).sum()
    }
}

/// Validated shape of one threshold-pool-pack pass, shared by both
/// backend bodies.
struct PoolPackShape {
    h: usize,
    w: usize,
    pool: usize,
    /// Pooled map extent (`⌊h/pool⌋ × ⌊w/pool⌋`, max-pool's floor rule).
    ph: usize,
    pw: usize,
    /// Words per packed output row plane ([`image_row_words`]).
    rw: usize,
}

impl PoolPackShape {
    fn new(
        acc: &[f32],
        channels: usize,
        h: usize,
        w: usize,
        pool: usize,
        pad: usize,
        out: &[u64],
    ) -> Self {
        assert!(pool >= 1, "threshold_pool_pack_int2: pool window must be positive");
        assert_eq!(
            acc.len(),
            channels * h * w,
            "threshold_pool_pack_int2: accumulator map length mismatch"
        );
        let shape = Self {
            h,
            w,
            pool,
            ph: h / pool,
            pw: w / pool,
            rw: image_row_words(w / pool, pad),
        };
        assert_eq!(
            out.len(),
            channels * shape.ph * 2 * shape.rw,
            "threshold_pool_pack_int2: packed output length mismatch"
        );
        shape
    }

    /// Folds the `pool` input rows of pooled row `py` of channel `ch`
    /// into the first of them, element-wise: `row[x] = max ±acc[..][x]`
    /// with the channel's sign applied on the way in (`−0.0` compares
    /// equal to `0.0`, so negating a zero accumulator is harmless). A
    /// plain slice loop — it vectorizes in whichever backend inlines it.
    /// Returns the offset of the folded row in `acc`.
    #[inline(always)]
    fn fold_rows(&self, acc: &mut [f32], ch: usize, py: usize, flip: bool) -> usize {
        let base = (ch * self.h + py * self.pool) * self.w;
        let (row, rest) = acc[base..base + self.pool * self.w].split_at_mut(self.w);
        if flip {
            for v in row.iter_mut() {
                *v = -*v;
            }
        }
        for other in rest.chunks_exact(self.w) {
            for (d, &s) in row.iter_mut().zip(other) {
                let s = if flip { -s } else { s };
                if s > *d {
                    *d = s;
                }
            }
        }
        base
    }

    /// Folds each `pool`-wide column window of a row into `row[px]`, in
    /// place (the write index never passes the read index).
    #[inline(always)]
    fn fold_cols(&self, row: &mut [f32]) {
        if self.pool == 1 {
            return;
        }
        for px in 0..self.pw {
            let mut best = row[px * self.pool];
            for kx in 1..self.pool {
                let v = row[px * self.pool + kx];
                if v > best {
                    best = v;
                }
            }
            row[px] = best;
        }
    }
}

/// The MVTU threshold unit behind the popcount GEMM: turns one image's
/// accumulator map into the packed 2-bit image the next conv's window
/// gather reads, with the max-pool in between folded in.
///
/// `acc` is `[channels, h, w]` exact integer accumulators as `f32`
/// ([`gemm_int2`] with unit scale and zero bias, [`OutMajor::Row`]) and
/// is **clobbered**: each `pool × pool` window is reduced in place to
/// `max sign·S`, then thresholded against the channel's [`CodeSteps`] —
/// pool-then-threshold, which equals threshold-then-max-pool because a
/// weakly monotone code function commutes with `max`. Row `(ch, py)` of
/// the pooled `⌊h/pool⌋ × ⌊w/pool⌋` code map lands at
/// `out[(ch·ph + py) · 2·rw ..]` as `[plane0 | plane1]`, column `px` at
/// bit `pad + px`, every word written — exactly [`pack_image_int2`]'s
/// layout for that map.
///
/// # Panics
///
/// Panics when `acc` or `out` does not match the shape.
pub fn threshold_pool_pack_int2(
    acc: &mut [f32],
    steps: &[CodeSteps],
    h: usize,
    w: usize,
    pool: usize,
    pad: usize,
    out: &mut [u64],
) {
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as in `pack_image_int2`.
        Backend::Avx2 => unsafe { avx2::threshold_pool_pack_int2(acc, steps, h, w, pool, pad, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => portable::threshold_pool_pack_int2(acc, steps, h, w, pool, pad, out),
        Backend::Portable => portable::threshold_pool_pack_int2(acc, steps, h, w, pool, pad, out),
    }
}

/// Direct int2 convolution that never leaves the code domain: gathers
/// every window's operand from an already packed image
/// ([`gather_conv_windows_int2`]), runs the popcount GEMM to raw integer
/// accumulators and sends them through the threshold unit
/// ([`threshold_pool_pack_int2`]) straight into the next layer's packed
/// image. The streamlined twin of [`conv_int2_direct`] → BatchNorm →
/// QuantReLU → max-pool → [`pack_image_int2`]: same gather, same GEMM,
/// same op-counter bumps (one direct-conv call, `c_out·pixels·k` MACs),
/// no f32 activation in between. `cols_ws`/`acc_ws` are caller-provided
/// scratch.
///
/// # Panics
///
/// Panics on shape mismatches, as the three stages do.
#[allow(clippy::too_many_arguments)]
pub fn conv_int2_codes(
    image: &[u64],
    c_in: usize,
    h: usize,
    w: usize,
    geom: ConvGeometry,
    wplanes: &[u64],
    steps: &[CodeSteps],
    pool: usize,
    out_pad: usize,
    out: &mut [u64],
    cols_ws: &mut Vec<u64>,
    acc_ws: &mut Vec<f32>,
) {
    let k = geom.kernel;
    let oh = geom.output_dim(h).expect("window must fit");
    let ow = geom.output_dim(w).expect("window must fit");
    let (c_out, pixels) = (steps.len(), oh * ow);
    DIRECT_CONV_CALLS.fetch_add(1, Ordering::Relaxed);
    gather_conv_windows_int2(image, c_in, h, w, geom, cols_ws);
    // Unit scale and zero bias make the requantize epilogue the exact
    // identity on `S` (|S| < 2^24); both ride behind the map in `acc_ws`.
    // The GEMM overwrites the whole map, so stale contents are fine.
    acc_ws.resize(c_out * (pixels + 2), 0.0);
    let (acc, consts) = acc_ws.split_at_mut(c_out * pixels);
    let (unit, zero) = consts.split_at_mut(c_out);
    unit.fill(1.0);
    zero.fill(0.0);
    gemm_int2(c_out, c_in * k * k, pixels, wplanes, cols_ws, unit, zero, acc, OutMajor::Row);
    threshold_pool_pack_int2(acc, steps, oh, ow, pool, out_pad, out);
}

/// Max-pools a packed 2-bit image without leaving the code domain, for
/// the pool a fused [`threshold_pool_pack_int2`] cannot absorb (an exit
/// head reads the un-pooled map first). Codes are compared as
/// thermometers — `t1 = p0|p1` (code ≥ 1), `t2 = p1`, `t3 = p0&p1` — so
/// the maximum over a window is a bitwise OR: 64 columns per word down
/// the window's rows, then one masked test per pooled pixel across it.
/// `image` is a packed `c×h×w` image with `pad_in`; `out` receives the
/// `⌊h/pool⌋ × ⌊w/pool⌋` map packed with `pad_out`, every word written.
/// `rows_ws` is scratch.
///
/// # Panics
///
/// Panics when `image`/`out` do not match the shapes or `pool` is not in
/// `1..=64`.
#[allow(clippy::too_many_arguments)]
pub fn pool_image_int2(
    image: &[u64],
    c: usize,
    h: usize,
    w: usize,
    pad_in: usize,
    pool: usize,
    pad_out: usize,
    out: &mut [u64],
    rows_ws: &mut Vec<u64>,
) {
    assert!((1..=64).contains(&pool), "pool_image_int2: pool window must be in 1..=64");
    let (ph, pw) = (h / pool, w / pool);
    let (rw_in, rw_out) = (image_row_words(w, pad_in), image_row_words(pw, pad_out));
    assert_eq!(image.len(), c * h * 2 * rw_in, "pool_image_int2: packed image length mismatch");
    assert_eq!(out.len(), c * ph * 2 * rw_out, "pool_image_int2: packed output length mismatch");
    let win_mask = if pool == 64 { !0 } else { (1u64 << pool) - 1 };
    resize_for_overwrite(rows_ws, 3 * rw_in);
    let (t1, rest) = rows_ws.split_at_mut(rw_in);
    let (t2, t3) = rest.split_at_mut(rw_in);
    for (r, dst) in out.chunks_exact_mut(2 * rw_out).enumerate() {
        let top = (r / ph * h + r % ph * pool) * 2 * rw_in;
        for i in 0..rw_in {
            let (mut a1, mut a2, mut a3) = (0, 0, 0);
            for row in image[top..top + pool * 2 * rw_in].chunks_exact(2 * rw_in) {
                let (p0, p1) = (row[i], row[rw_in + i]);
                a1 |= p0 | p1;
                a2 |= p1;
                a3 |= p0 & p1;
            }
            (t1[i], t2[i], t3[i]) = (a1, a2, a3);
        }
        dst.fill(0);
        let (d0, d1) = dst.split_at_mut(rw_out);
        // 64 row bits starting at bit `at`; the guard word keeps the
        // funnel read in bounds.
        let bits_at = |t: &[u64], at: usize| {
            let (i, sh) = (at / 64, at % 64);
            (t[i] >> sh) | (t[i + 1] << 1 << (63 - sh))
        };
        if pool == 2 {
            // Word-parallel: OR each column into its left neighbour and
            // squeeze the even bits together, 32 pooled pixels a word.
            for px in (0..pw).step_by(32) {
                let live = if pw - px >= 32 { !0 >> 32 } else { (1u64 << (pw - px)) - 1 };
                let fold = |t: &[u64]| {
                    let x = bits_at(t, pad_in + 2 * px);
                    even_bits(x | x >> 1) & live
                };
                let (g1, g2, g3) = (fold(t1), fold(t2), fold(t3));
                let (word, bit) = ((pad_out + px) / 64, (pad_out + px) % 64);
                let (b0, b1) = (g1 ^ g2 ^ g3, g2);
                d0[word] |= b0 << bit;
                d1[word] |= b1 << bit;
                if bit > 32 {
                    // The guard word keeps `word + 1` inside the plane.
                    d0[word + 1] |= b0 >> (64 - bit);
                    d1[word + 1] |= b1 >> (64 - bit);
                }
            }
            continue;
        }
        for px in 0..pw {
            let any = |t: &[u64]| u64::from(bits_at(t, pad_in + px * pool) & win_mask != 0);
            let (g1, g2, g3) = (any(t1), any(t2), any(t3));
            let (word, bit) = ((pad_out + px) / 64, (pad_out + px) % 64);
            d0[word] |= (g1 ^ g2 ^ g3) << bit;
            d1[word] |= g2 << bit;
        }
    }
}

/// Bits 0, 2, 4, … of `x`, squeezed into the low 32 bits.
#[inline]
fn even_bits(mut x: u64) -> u64 {
    x &= 0x5555_5555_5555_5555;
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x >> 4) & 0x00ff_00ff_00ff_00ff;
    x = (x | x >> 8) & 0x0000_ffff_0000_ffff;
    (x | x >> 16) & 0x0000_0000_ffff_ffff
}

/// Expands a packed 2-bit image back to grid values, CHW order:
/// `out[(ch·h + y)·w + x] = code · scale` — bit for bit what QuantReLU's
/// `q · scale` wrote for that code. The streamlined path materializes
/// f32 only through this, for the few features an FC tail reads.
///
/// # Panics
///
/// Panics when `image` is not a packed `c×h×w` image or `out` is not
/// `c·h·w` long.
pub fn unpack_image_int2(
    image: &[u64],
    c: usize,
    h: usize,
    w: usize,
    pad: usize,
    scale: f32,
    out: &mut [f32],
) {
    let rw = image_row_words(w, pad);
    assert_eq!(image.len(), c * h * 2 * rw, "unpack_image_int2: packed image length mismatch");
    assert_eq!(out.len(), c * h * w, "unpack_image_int2: output length mismatch");
    if w == 0 {
        return;
    }
    for (row, dst) in image.chunks_exact(2 * rw).zip(out.chunks_exact_mut(w)) {
        let (p0, p1) = row.split_at(rw);
        for (x, v) in dst.iter_mut().enumerate() {
            let (word, bit) = ((pad + x) / 64, (pad + x) % 64);
            let code = (p0[word] >> bit & 1) + 2 * (p1[word] >> bit & 1);
            *v = code as f32 * scale;
        }
    }
}

/// Rounds a quantized activation slice to its integer codes in place:
/// `v = clamp(round(v / scale), 0, 3)`, computed by the engine's one
/// compare rule (the same codes [`pack_image_int2`] packs). Inputs lie
/// on (or within float error of) the quantization grid
/// `{0, s, 2s, 3s}`, so round-to-nearest recovers the code exactly.
/// Plain branch-free scalar ops — deterministic, no dispatch needed.
pub fn act_codes_in_place(v: &mut [f32], scale: f32) {
    debug_assert!(scale > 0.0);
    for x in v {
        *x = f32::from(act_code(*x / scale));
    }
}

/// Recovers signed weight codes from a per-row-scaled quantized weight
/// matrix: `out[r*k + i] = clamp(round(q[r*k + i] / scales[r]), -2, 1)`.
/// Quantized weights are exactly `code * scale` with `code` in
/// `{-2,-1,0,1}` (codes are 0 or ±powers of two), so the division
/// recovers the code exactly.
pub fn weight_codes_into(q: &[f32], scales: &[f32], k: usize, out: &mut Vec<f32>) {
    debug_assert_eq!(q.len(), scales.len() * k);
    out.clear();
    out.reserve(q.len());
    for (row, &s) in q.chunks_exact(k).zip(scales) {
        debug_assert!(s > 0.0);
        out.extend(row.iter().map(|&w| (w / s).round().clamp(-2.0, 1.0)));
    }
}

/// The fused requantize step shared (textually and numerically) by the
/// int2 epilogue and the f32-over-codes epilogues: two exactly-rounded f32
/// operations, never contracted to FMA (`-Cllvm-args` fast-math is never
/// enabled in this workspace).
#[inline(always)]
fn requant(acc: f32, cs: f32, bias: f32) -> f32 {
    (acc * cs) + bias
}

/// Requantizes a weight-item-major (`[m, n]`) f32-over-codes accumulator
/// in place: row `i` becomes `acc*cs[i] + bias[i]` — the exact epilogue
/// [`gemm_int2`] fuses for [`OutMajor::Row`].
pub fn requantize_rows(out: &mut [f32], n: usize, cs: &[f32], bias: &[f32]) {
    debug_assert_eq!(out.len(), cs.len() * n);
    debug_assert_eq!(cs.len(), bias.len());
    for ((row, &c), &b) in out.chunks_exact_mut(n).zip(cs).zip(bias) {
        for v in row {
            *v = requant(*v, c, b);
        }
    }
}

/// Requantizes an act-item-major (`[n, m]`) f32-over-codes accumulator
/// in place: element `i` of every item becomes `acc*cs[i] + bias[i]` —
/// the exact epilogue [`gemm_int2`] fuses for [`OutMajor::Col`].
pub fn requantize_cols(out: &mut [f32], cs: &[f32], bias: &[f32]) {
    debug_assert_eq!(out.len() % cs.len().max(1), 0);
    debug_assert_eq!(cs.len(), bias.len());
    for item in out.chunks_exact_mut(cs.len()) {
        for ((v, &c), &b) in item.iter_mut().zip(cs).zip(bias) {
            *v = requant(*v, c, b);
        }
    }
}

/// Bit-packed integer GEMM with fused requantize epilogue.
///
/// `a` holds `m` packed weight items and `b` holds `n` packed activation
/// items (both `words_per_item(k)` words each, from the packers above).
/// For every pair the popcount dot product `S` is computed exactly and
/// written as `(S as f32)*cs[i] + bias[i]` at `out[i*n + j]`
/// ([`OutMajor::Row`]) or `out[j*m + i]` ([`OutMajor::Col`]).
///
/// On AVX2, groups of four weight rows stream every activation item
/// through the row-lane microkernel (see the module doc); leftover rows
/// and the portable backend walk activation items in blocks of
/// [`crate::gemm`]'s `NC=32` so a weight row streams against a
/// cache-resident B panel. No threading — conv calls this per image
/// inside its own parallel loop, and linear batches are small.
#[allow(clippy::too_many_arguments)]
pub fn gemm_int2(
    m: usize,
    k: usize,
    n: usize,
    a: &[u64],
    b: &[u64],
    cs: &[f32],
    bias: &[f32],
    out: &mut [f32],
    major: OutMajor,
) {
    assert!(k <= MAX_K, "gemm_int2: k={k} overflows the exact-f32 bound");
    let wpi = words_per_item(k);
    assert_eq!(a.len(), m * wpi, "gemm_int2: packed A length mismatch");
    assert_eq!(b.len(), n * wpi, "gemm_int2: packed B length mismatch");
    assert_eq!(cs.len(), m, "gemm_int2: scale length mismatch");
    assert_eq!(bias.len(), m, "gemm_int2: bias length mismatch");
    assert_eq!(out.len(), m * n, "gemm_int2: output length mismatch");
    if m == 0 || n == 0 {
        return;
    }
    MAC_OPS.fetch_add((m * n * k) as u64, Ordering::Relaxed);
    POPCNT_OPS.fetch_add((m * n * 4 * plane_words(k)) as u64, Ordering::Relaxed);
    match active_backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `active_backend` only reports Avx2 after runtime
        // detection of AVX2+POPCNT (or an override that re-checked it).
        Backend::Avx2 => unsafe { avx2::gemm_int2(m, k, n, a, b, cs, bias, out, major) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => portable::gemm_int2(m, k, n, a, b, cs, bias, out, major),
        Backend::Portable => portable::gemm_int2(m, k, n, a, b, cs, bias, out, major),
    }
}

/// The shared blocked loop nest over weight rows `$rows`: only the
/// dot-product kernel differs per backend, and it must be called inside
/// the backend's `target_feature` region to inline, hence a macro
/// rather than a generic.
macro_rules! gemm_int2_body {
    ($dot:path, $rows:expr, $m:expr, $k:expr, $n:expr, $a:expr, $b:expr,
     $cs:expr, $bias:expr, $out:expr, $major:expr) => {{
        // Same B-panel width as the f32 GEMM's NC: a 32-item panel of
        // packed CNV operands is a few KiB and stays L1-resident while
        // every weight row streams over it.
        const BN: usize = 32;
        let wpi = words_per_item($k);
        let mut j0 = 0;
        while j0 < $n {
            let jn = ($n - j0).min(BN);
            for i in $rows {
                let wa = &$a[i * wpi..(i + 1) * wpi];
                let (c, bi) = ($cs[i], $bias[i]);
                for j in j0..j0 + jn {
                    let acc = $dot(wa, &$b[j * wpi..(j + 1) * wpi]);
                    let y = requant(acc as f32, c, bi);
                    match $major {
                        OutMajor::Row => $out[i * $n + j] = y,
                        OutMajor::Col => $out[j * $m + i] = y,
                    }
                }
            }
            j0 += jn;
        }
    }};
}

/// The scalar backend, public (like [`crate::simd::portable`]) so the
/// bit-identity suite can pin it against AVX2 directly.
pub mod portable {
    use super::{
        act_code, pack_image_setup, requant, words_per_item, CodeSteps, ConvGeometry, GatherShape,
        OutMajor, PoolPackShape,
    };

    /// Single-backend entry with the same contract as
    /// [`super::pack_image_int2`]: one division and three compares per
    /// value, no branch and no libm call.
    pub fn pack_image_int2(
        img: &[f32],
        ascale: f32,
        c: usize,
        h: usize,
        w: usize,
        pad: usize,
        out: &mut Vec<u64>,
    ) {
        let rw = pack_image_setup(img, ascale, c, h, w, pad, out);
        if w == 0 {
            return;
        }
        for (row, dst) in img.chunks_exact(w).zip(out.chunks_exact_mut(2 * rw)) {
            let (p0, p1) = dst.split_at_mut(rw);
            for (ix, &v) in row.iter().enumerate() {
                let code = u64::from(act_code(v / ascale));
                let (word, bit) = ((pad + ix) / 64, (pad + ix) % 64);
                p0[word] |= (code & 1) << bit;
                p1[word] |= (code >> 1) << bit;
            }
        }
    }

    /// Single-backend entry with the same contract as
    /// [`super::gather_conv_windows_int2`]: one output pixel at a time.
    pub fn gather_conv_windows_int2(
        image: &[u64],
        c: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        out: &mut Vec<u64>,
    ) {
        GatherShape::new(image, c, h, w, geom, out).gather_pixels(image, out);
    }

    /// Single-backend entry with the same contract as
    /// [`super::threshold_pool_pack_int2`]: one pooled pixel at a time.
    pub fn threshold_pool_pack_int2(
        acc: &mut [f32],
        steps: &[CodeSteps],
        h: usize,
        w: usize,
        pool: usize,
        pad: usize,
        out: &mut [u64],
    ) {
        let shape = PoolPackShape::new(acc, steps.len(), h, w, pool, pad, out);
        let (ph, pw, rw) = (shape.ph, shape.pw, shape.rw);
        for (r, dst) in out.chunks_exact_mut(2 * rw).enumerate() {
            let st = &steps[r / ph];
            let at = st.at.map(|t| t as f32);
            let base = shape.fold_rows(acc, r / ph, r % ph, st.sign < 0);
            let row = &mut acc[base..base + w];
            shape.fold_cols(row);
            dst.fill(0);
            let (p0, p1) = dst.split_at_mut(rw);
            for (px, &v) in row[..pw].iter().enumerate() {
                let code =
                    u64::from(v >= at[0]) + u64::from(v >= at[1]) + u64::from(v >= at[2]);
                let (word, bit) = ((pad + px) / 64, (pad + px) % 64);
                p0[word] |= (code & 1) << bit;
                p1[word] |= (code >> 1) << bit;
            }
        }
    }

    /// `S = pc(w0&a0) + 2·pc(w0&a1) - 2·pc(w1&a0) - 4·pc(w1&a1)` over
    /// `[plane0 | plane1]` packed items.
    #[inline(always)]
    pub fn dot(w: &[u64], a: &[u64]) -> i32 {
        let wpp = w.len() / 2;
        let (w0, w1) = w.split_at(wpp);
        let (a0, a1) = a.split_at(wpp);
        let (mut c00, mut c01, mut c10, mut c11) = (0u32, 0u32, 0u32, 0u32);
        for i in 0..wpp {
            c00 += (w0[i] & a0[i]).count_ones();
            c01 += (w0[i] & a1[i]).count_ones();
            c10 += (w1[i] & a0[i]).count_ones();
            c11 += (w1[i] & a1[i]).count_ones();
        }
        c00 as i32 + 2 * c01 as i32 - 2 * c10 as i32 - 4 * c11 as i32
    }

    /// Single-backend entry with the same contract as
    /// [`super::gemm_int2`] (counters excluded).
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_int2(
        m: usize,
        k: usize,
        n: usize,
        a: &[u64],
        b: &[u64],
        cs: &[f32],
        bias: &[f32],
        out: &mut [f32],
        major: OutMajor,
    ) {
        gemm_int2_body!(dot, 0..m, m, k, n, a, b, cs, bias, out, major);
    }
}

/// The AVX2 backend, public (like [`crate::simd::avx2`]) for the
/// bit-identity suite. All functions require AVX2+POPCNT.
#[cfg(target_arch = "x86_64")]
pub mod avx2 {
    use super::{
        pack_image_setup, plane_words, portable, requant, words_per_item, CodeSteps, ConvGeometry,
        GatherShape, OutMajor, PoolPackShape,
    };
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// `maskload` masks for a row's last `1..=7` values: the window
    /// starting at `8 - rem` has `rem` leading all-ones lanes.
    static TAIL_MASK: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// Single-backend entry with the same contract as
    /// [`super::pack_image_int2`]: eight values become plane bits with
    /// one `vdivps`, three `vcmpps` and three `vmovmskps`. A row's
    /// ragged tail is a masked load whose dead lanes read as `0.0`,
    /// which is code 0 and sets no bit.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pack_image_int2(
        img: &[f32],
        ascale: f32,
        c: usize,
        h: usize,
        w: usize,
        pad: usize,
        out: &mut Vec<u64>,
    ) {
        let rw = pack_image_setup(img, ascale, c, h, w, pad, out);
        if w == 0 {
            return;
        }
        let scale = _mm256_set1_ps(ascale);
        let (t1, t2, t3) = (
            _mm256_set1_ps(0.5),
            _mm256_set1_ps(1.5),
            _mm256_set1_ps(2.5),
        );
        for (row, dst) in img.chunks_exact(w).zip(out.chunks_exact_mut(2 * rw)) {
            let (p0, p1) = dst.split_at_mut(rw);
            for ix in (0..w).step_by(8) {
                let src = row.as_ptr().add(ix);
                let v = if w - ix >= 8 {
                    // SAFETY: lanes `ix..ix + 8` lie inside `row`.
                    _mm256_loadu_ps(src)
                } else {
                    let mask = TAIL_MASK.as_ptr().add(8 - (w - ix));
                    // SAFETY: the mask window `8 - rem..16 - rem` lies
                    // inside TAIL_MASK, and `maskload` touches only the
                    // `rem = w - ix` selected lanes, all inside `row`.
                    _mm256_maskload_ps(src, _mm256_loadu_si256(mask as *const __m256i))
                };
                // Ordered compares: NaN sets no bit, i.e. code 0, as
                // `NaN.round().clamp(0, 3) as i32` gives.
                let x = _mm256_div_ps(v, scale);
                let g1 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(x, t1)) as u64;
                let g2 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(x, t2)) as u64;
                let g3 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(x, t3)) as u64;
                let (b0, b1) = (g1 ^ g2 ^ g3, g2);
                let (word, bit) = ((pad + ix) / 64, (pad + ix) % 64);
                p0[word] |= b0 << bit;
                p1[word] |= b1 << bit;
                if bit > 56 {
                    // The eight bits straddle a word; the guard word of
                    // `image_row_words` keeps `word + 1` in the row.
                    p0[word + 1] |= b0 >> (64 - bit);
                    p1[word + 1] |= b1 >> (64 - bit);
                }
            }
        }
    }

    /// Stores lane `l` of `a0[v]`/`a1[v]` as word `word` of plane 0/1
    /// of operand item `4·v + l` of `items`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline(always)]
    // Indexed on purpose: the iterator forms of the lane loop compile to
    // a 9 % slower gather (7.1 -> 7.8 us at 8x30x30).
    #[allow(clippy::needless_range_loop)]
    unsafe fn store_lanes<const V: usize>(
        items: &mut [u64],
        wpp: usize,
        word: usize,
        a0: [__m256i; V],
        a1: [__m256i; V],
    ) {
        for v in 0..V {
            let mut lanes = [[0u64; 4]; 2];
            // SAFETY: each destination is a 32-byte array.
            _mm256_storeu_si256(lanes[0].as_mut_ptr() as *mut __m256i, a0[v]);
            _mm256_storeu_si256(lanes[1].as_mut_ptr() as *mut __m256i, a1[v]);
            for l in 0..4 {
                let at = (4 * v + l) * 2 * wpp + word;
                items[at] = lanes[0][l];
                items[at + wpp] = lanes[1][l];
            }
        }
    }

    /// Gathers the operand items of the `4·V` output pixels
    /// `(oy, ox..ox + 4·V)`, one pixel per 64-bit lane: the depth walk
    /// of `GatherShape::gather_pixel` with the open operand words of
    /// all pixels in registers. The row word is broadcast and `vpsrlvq`
    /// shifts each lane's window down to bit 0.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `shape` must be `one_word_rows`, validated against
    /// `image` and `out`, with `ox + 4·V <= ow`.
    #[inline(always)]
    unsafe fn gather_lanes<const V: usize>(
        image: &[u64],
        shape: &GatherShape,
        oy: usize,
        ox: usize,
        out: &mut [u64],
    ) {
        let (k, s, rw, wpp) = (shape.kernel, shape.stride, shape.rw, shape.wpp);
        let zero = _mm256_setzero_si256();
        let mask = _mm256_set1_epi64x(shape.seg_mask as i64);
        let lane_step = _mm256_setr_epi64x(0, s as i64, 2 * s as i64, 3 * s as i64);
        // Window start bits: below 64 in every lane because the whole
        // padded row fits one word.
        let mut starts = [zero; V];
        for (v, st) in starts.iter_mut().enumerate() {
            *st = _mm256_add_epi64(_mm256_set1_epi64x(((ox + 4 * v) * s) as i64), lane_step);
        }
        let items = &mut out[(oy * shape.ow + ox) * 2 * wpp..][..4 * V * 2 * wpp];
        let (mut a0, mut a1) = ([zero; V], [zero; V]);
        let (mut word, mut ds) = (0, 0);
        for ci in 0..shape.c {
            for ky in 0..k {
                let (mut seg0, mut seg1) = ([zero; V], [zero; V]);
                if let Some(base) = shape.row_base(ci, oy, ky) {
                    // SAFETY: `row_base` returns `(ci*h + iy) * 2*rw` with
                    // `ci < c` and `iy < h`, and `GatherShape::new`
                    // asserted `image.len() == c*h * 2*rw`, so both plane
                    // words are in bounds. Unchecked because the checks
                    // cost a fifth of this kernel (8.9 -> 7.1 us on the
                    // 8x30x30 shape).
                    let r0 = _mm256_set1_epi64x(*image.get_unchecked(base) as i64);
                    let r1 = _mm256_set1_epi64x(*image.get_unchecked(base + rw) as i64);
                    for v in 0..V {
                        seg0[v] = _mm256_and_si256(_mm256_srlv_epi64(r0, starts[v]), mask);
                        seg1[v] = _mm256_and_si256(_mm256_srlv_epi64(r1, starts[v]), mask);
                    }
                }
                let slot = _mm_cvtsi64_si128(ds as i64);
                for v in 0..V {
                    a0[v] = _mm256_or_si256(a0[v], _mm256_sll_epi64(seg0[v], slot));
                    a1[v] = _mm256_or_si256(a1[v], _mm256_sll_epi64(seg1[v], slot));
                }
                ds += k;
                if ds >= 64 {
                    store_lanes(items, wpp, word, a0, a1);
                    word += 1;
                    ds -= 64;
                    // `k - ds` is in 1..=64; a count of 64 shifts
                    // everything out — the empty spill of a segment
                    // ending on the word boundary.
                    let spill = _mm_cvtsi64_si128((k - ds) as i64);
                    for v in 0..V {
                        a0[v] = _mm256_srl_epi64(seg0[v], spill);
                        a1[v] = _mm256_srl_epi64(seg1[v], spill);
                    }
                }
            }
        }
        if ds > 0 {
            store_lanes(items, wpp, word, a0, a1);
        }
    }

    /// Single-backend entry with the same contract as
    /// [`super::gather_conv_windows_int2`]: eight output pixels per
    /// pass (two vectors), then four; a ragged row end re-gathers the
    /// row's last four pixels (stores are whole words, so the overlap
    /// is harmless). Rows wider than one word, and outputs narrower
    /// than four pixels, take the scalar funnel form.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_conv_windows_int2(
        image: &[u64],
        c: usize,
        h: usize,
        w: usize,
        geom: ConvGeometry,
        out: &mut Vec<u64>,
    ) {
        let shape = GatherShape::new(image, c, h, w, geom, out);
        let ow = shape.ow;
        if !shape.one_word_rows || ow < 4 {
            return shape.gather_pixels(image, out);
        }
        for oy in 0..shape.oh {
            let mut ox = 0;
            while ox + 8 <= ow {
                gather_lanes::<2>(image, &shape, oy, ox, out);
                ox += 8;
            }
            while ox < ow {
                gather_lanes::<1>(image, &shape, oy, ox.min(ow - 4), out);
                ox += 4;
            }
        }
    }

    /// Folds adjacent column pairs of a row into `row[..pw]` in place —
    /// `PoolPackShape::fold_cols` for the 2×2 pool, eight pooled pixels
    /// per pass: even and odd columns are split by `vshufps`, maxed, and
    /// the 64-bit pairs put back in order.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline(always)]
    unsafe fn fold_col_pairs(row: &mut [f32], pw: usize) {
        debug_assert!(2 * pw <= row.len());
        let mut px = 0;
        while px + 8 <= pw {
            let p = row.as_mut_ptr();
            // SAFETY: `2·px + 16 <= 2·pw <= row.len()`; the store at
            // `px..px + 8` lies below everything later passes read.
            let a = _mm256_loadu_ps(p.add(2 * px));
            let b = _mm256_loadu_ps(p.add(2 * px + 8));
            let m = _mm256_max_ps(
                _mm256_shuffle_ps::<0x88>(a, b),
                _mm256_shuffle_ps::<0xDD>(a, b),
            );
            // Pairs arrive as [P0 P1, P4 P5 | P2 P3, P6 P7].
            let m = _mm256_permute4x64_pd::<0xD8>(_mm256_castps_pd(m));
            _mm256_storeu_ps(p.add(px), _mm256_castpd_ps(m));
            px += 8;
        }
        for px in px..pw {
            let (a, b) = (row[2 * px], row[2 * px + 1]);
            row[px] = if b > a { b } else { a };
        }
    }

    /// Single-backend entry with the same contract as
    /// [`super::threshold_pool_pack_int2`]: the row fold vectorizes as
    /// written, the 2×2 pool's column fold is `fold_col_pairs`, and
    /// eight pooled pixels become plane bits with three `vcmpps` and
    /// three `vmovmskps` — [`pack_image_int2`]'s deposit with per-channel
    /// steps in place of the divide.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn threshold_pool_pack_int2(
        acc: &mut [f32],
        steps: &[CodeSteps],
        h: usize,
        w: usize,
        pool: usize,
        pad: usize,
        out: &mut [u64],
    ) {
        let shape = PoolPackShape::new(acc, steps.len(), h, w, pool, pad, out);
        let (ph, pw, rw) = (shape.ph, shape.pw, shape.rw);
        for (r, dst) in out.chunks_exact_mut(2 * rw).enumerate() {
            let st = &steps[r / ph];
            let base = shape.fold_rows(acc, r / ph, r % ph, st.sign < 0);
            let row = &mut acc[base..base + w];
            if pool == 2 {
                fold_col_pairs(row, pw);
            } else {
                shape.fold_cols(row);
            }
            let (t1, t2, t3) = (
                _mm256_set1_ps(st.at[0] as f32),
                _mm256_set1_ps(st.at[1] as f32),
                _mm256_set1_ps(st.at[2] as f32),
            );
            dst.fill(0);
            let (p0, p1) = dst.split_at_mut(rw);
            for px in (0..pw).step_by(8) {
                let src = row.as_ptr().add(px);
                let v = if px + 8 <= w {
                    // SAFETY: lanes `px..px + 8` lie inside `row`.
                    _mm256_loadu_ps(src)
                } else {
                    let mask = TAIL_MASK.as_ptr().add(8 - (w - px));
                    // SAFETY: as in `pack_image_int2`: the mask window
                    // lies inside TAIL_MASK and only the `w - px`
                    // selected lanes, all inside `row`, are touched.
                    _mm256_maskload_ps(src, _mm256_loadu_si256(mask as *const __m256i))
                };
                // Lanes past the pooled row hold stale columns (or the
                // masked load's zeros), which may clear a step: drop them.
                let live = if pw - px >= 8 { 0xff } else { (1u64 << (pw - px)) - 1 };
                let g1 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, t1)) as u64 & live;
                let g2 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, t2)) as u64 & live;
                let g3 = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, t3)) as u64 & live;
                let (b0, b1) = (g1 ^ g2 ^ g3, g2);
                let (word, bit) = ((pad + px) / 64, (pad + px) % 64);
                p0[word] |= b0 << bit;
                p1[word] |= b1 << bit;
                if bit > 56 {
                    // As in `pack_image_int2`: the guard word keeps
                    // `word + 1` inside the row plane.
                    p0[word + 1] |= b0 >> (64 - bit);
                    p1[word + 1] |= b1 >> (64 - bit);
                }
            }
        }
    }

    /// The Muła nibble LUT: `vpshufb` by a nibble yields its popcount.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline(always)]
    unsafe fn nibble_popcnt_lut() -> __m256i {
        _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, //
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        )
    }

    /// Byte-wise popcount of a 256-bit vector via the Muła `vpshufb`
    /// nibble-LUT method, reduced to four u64 lane sums with `vpsadbw`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline(always)]
    unsafe fn popcnt256(v: __m256i) -> __m256i {
        let lut = nibble_popcnt_lut();
        let low = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
        let cnt = _mm256_add_epi8(
            _mm256_shuffle_epi8(lut, lo),
            _mm256_shuffle_epi8(lut, hi),
        );
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Same contract as `portable::dot`. Depths of four or more plane
    /// words run four words per iteration through `popcnt256` and pay
    /// one horizontal sum per stream; shallower items (every CNV conv
    /// below `k = 256`) are the hardware-POPCNT scalar loop alone.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and POPCNT (runtime-checked by the dispatcher).
    #[target_feature(enable = "avx2,popcnt")]
    #[inline]
    pub unsafe fn dot(w: &[u64], a: &[u64]) -> i32 {
        let wpp = w.len() / 2;
        if wpp < 4 {
            return portable::dot(w, a);
        }
        let (w0, w1) = w.split_at(wpp);
        let (a0, a1) = a.split_at(wpp);
        let mut acc00 = _mm256_setzero_si256();
        let mut acc01 = _mm256_setzero_si256();
        let mut acc10 = _mm256_setzero_si256();
        let mut acc11 = _mm256_setzero_si256();
        let mut i = 0;
        while i + 4 <= wpp {
            let vw0 = _mm256_loadu_si256(w0.as_ptr().add(i) as *const __m256i);
            let vw1 = _mm256_loadu_si256(w1.as_ptr().add(i) as *const __m256i);
            let va0 = _mm256_loadu_si256(a0.as_ptr().add(i) as *const __m256i);
            let va1 = _mm256_loadu_si256(a1.as_ptr().add(i) as *const __m256i);
            acc00 = _mm256_add_epi64(acc00, popcnt256(_mm256_and_si256(vw0, va0)));
            acc01 = _mm256_add_epi64(acc01, popcnt256(_mm256_and_si256(vw0, va1)));
            acc10 = _mm256_add_epi64(acc10, popcnt256(_mm256_and_si256(vw1, va0)));
            acc11 = _mm256_add_epi64(acc11, popcnt256(_mm256_and_si256(vw1, va1)));
            i += 4;
        }
        #[inline(always)]
        unsafe fn hsum(v: __m256i) -> i64 {
            let mut lanes = [0i64; 4];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
            lanes[0] + lanes[1] + lanes[2] + lanes[3]
        }
        let (mut c00, mut c01, mut c10, mut c11) =
            (hsum(acc00), hsum(acc01), hsum(acc10), hsum(acc11));
        while i < wpp {
            c00 += (w0[i] & a0[i]).count_ones() as i64;
            c01 += (w0[i] & a1[i]).count_ones() as i64;
            c10 += (w1[i] & a0[i]).count_ones() as i64;
            c11 += (w1[i] & a1[i]).count_ones() as i64;
            i += 1;
        }
        (c00 + 2 * c01 - 2 * c10 - 4 * c11) as i32
    }

    /// Deepest operand (plane words) the row-lane microkernel
    /// interleaves on the stack: `k = 4608`, the deepest CNV layer.
    /// Deeper items take the per-pair [`dot`], whose horizontal sums
    /// are long amortized at that depth.
    const ROW_LANE_MAX_WORDS: usize = 72;

    /// Fewest activation items that amortize interleaving four weight
    /// rows (which costs about one item's lookups) at any supported
    /// depth: against the vectorized [`dot`], measured at `m = 32`, the
    /// row lanes break even at 7 plane words for one item (330 vs 362 ns
    /// at 5 words, 480 vs 461 at 8, 3.8 vs 2.6 us at 72), at 25 words
    /// for two, and tie at 72 words for three.
    const ROW_LANE_MIN_ITEMS: usize = 3;

    /// Depth (plane words) below which even a single activation item
    /// amortizes the interleave — the one-item break-even above. Covers
    /// the `n = 1` conv6 shape (5 words) and every item too shallow for
    /// `dot`'s vector loop.
    const ROW_LANE_ANY_ITEMS_WORDS: usize = 7;

    /// Plane words between `vpsadbw` flushes of the byte accumulators:
    /// one word adds at most `8 + 2·8 = 24` to a byte, and
    /// `24 · 8 = 192 < 256`.
    const FLUSH_WORDS: usize = 8;

    /// The row-lane microkernel: weight rows `i0..i0 + 4` against all
    /// `n` activation items, one row per 64-bit lane.
    ///
    /// The four rows are interleaved once into nibble vectors on the
    /// stack (`[w0 lo, w0 hi, w1 lo, w1 hi]` per plane word). Per
    /// activation word the broadcast nibbles are AND-ed against them
    /// and counted with two `vpshufb` LUTs — `×1` for activation plane
    /// 0, `×2` for plane 1 — summed as bytes per weight plane:
    /// `P = pc(w0&a0) + 2·pc(w0&a1)` and `N = pc(w1&a0) + 2·pc(w1&a1)`.
    /// One `vpsadbw` per [`FLUSH_WORDS`] words turns bytes into lane
    /// sums, `S = P − 2N` is the row's dot product with no horizontal
    /// reduction, and the epilogue is `cvtdq2ps`, `mulps`, `addps` —
    /// the two exactly-rounded steps of [`requant`], never fused.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and `wpp <= ROW_LANE_MAX_WORDS` (the interleave
    /// buffer's size); every slice access is bounds-checked.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn gemm_rows4(
        i0: usize,
        m: usize,
        wpp: usize,
        n: usize,
        a: &[u64],
        b: &[u64],
        cs: &[f32],
        bias: &[f32],
        out: &mut [f32],
        major: OutMajor,
    ) {
        let low = _mm256_set1_epi8(0x0f);
        let lut1 = nibble_popcnt_lut();
        let lut2 = _mm256_add_epi8(lut1, lut1);
        let zero = _mm256_setzero_si256();
        let wpi = 2 * wpp;
        let rows = &a[i0 * wpi..(i0 + 4) * wpi];
        let mut lanes = [MaybeUninit::<__m256i>::uninit(); 4 * ROW_LANE_MAX_WORDS];
        for t in 0..wpp {
            for plane in 0..2 {
                let at = plane * wpp + t;
                let v = _mm256_setr_epi64x(
                    rows[at] as i64,
                    rows[wpi + at] as i64,
                    rows[2 * wpi + at] as i64,
                    rows[3 * wpi + at] as i64,
                );
                lanes[4 * t + 2 * plane].write(_mm256_and_si256(v, low));
                lanes[4 * t + 2 * plane + 1].write(_mm256_and_si256(_mm256_srli_epi16(v, 4), low));
            }
        }
        let cs4 = _mm_loadu_ps(cs[i0..i0 + 4].as_ptr());
        let bias4 = _mm_loadu_ps(bias[i0..i0 + 4].as_ptr());
        let low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
        let (row_stride, item_stride) = match major {
            OutMajor::Row => (n, 1),
            OutMajor::Col => (1, m),
        };
        for (j, item) in b.chunks_exact(wpi).enumerate() {
            let (b0, b1) = item.split_at(wpp);
            let (mut p, mut nn) = (zero, zero);
            let mut t = 0;
            while t < wpp {
                let flush_at = (t + FLUSH_WORDS).min(wpp);
                let (mut pb, mut nb) = (zero, zero);
                while t < flush_at {
                    // SAFETY: the interleave above initialized entries
                    // `0..4 * wpp`, and `t < wpp`.
                    let l = [
                        lanes[4 * t].assume_init(),
                        lanes[4 * t + 1].assume_init(),
                        lanes[4 * t + 2].assume_init(),
                        lanes[4 * t + 3].assume_init(),
                    ];
                    let a0 = _mm256_set1_epi64x(b0[t] as i64);
                    let a1 = _mm256_set1_epi64x(b1[t] as i64);
                    let a0lo = _mm256_and_si256(a0, low);
                    let a0hi = _mm256_and_si256(_mm256_srli_epi16(a0, 4), low);
                    let a1lo = _mm256_and_si256(a1, low);
                    let a1hi = _mm256_and_si256(_mm256_srli_epi16(a1, 4), low);
                    let cnt = |lut, x, y| _mm256_shuffle_epi8(lut, _mm256_and_si256(x, y));
                    pb = _mm256_add_epi8(
                        pb,
                        _mm256_add_epi8(
                            _mm256_add_epi8(cnt(lut1, l[0], a0lo), cnt(lut1, l[1], a0hi)),
                            _mm256_add_epi8(cnt(lut2, l[0], a1lo), cnt(lut2, l[1], a1hi)),
                        ),
                    );
                    nb = _mm256_add_epi8(
                        nb,
                        _mm256_add_epi8(
                            _mm256_add_epi8(cnt(lut1, l[2], a0lo), cnt(lut1, l[3], a0hi)),
                            _mm256_add_epi8(cnt(lut2, l[2], a1lo), cnt(lut2, l[3], a1hi)),
                        ),
                    );
                    t += 1;
                }
                p = _mm256_add_epi64(p, _mm256_sad_epu8(pb, zero));
                nn = _mm256_add_epi64(nn, _mm256_sad_epu8(nb, zero));
            }
            let s = _mm256_sub_epi64(p, _mm256_add_epi64(nn, nn));
            // |S| <= 6k < 2^24: the low dword of each lane is S.
            let s = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(s, low_dwords));
            let y = _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(s), cs4), bias4);
            let mut ys = [0.0f32; 4];
            _mm_storeu_ps(ys.as_mut_ptr(), y);
            for (l, &v) in ys.iter().enumerate() {
                out[(i0 + l) * row_stride + j * item_stride] = v;
            }
        }
    }

    /// Single-backend entry with the same contract as
    /// [`super::gemm_int2`] (counters excluded). Whole groups of four
    /// weight rows go through the row-lane microkernel where the shape
    /// amortizes its interleave; leftover rows (`m mod 4`, pruned
    /// widths) and the remaining shapes run the per-pair [`dot`].
    ///
    /// # Safety
    ///
    /// Requires AVX2 and POPCNT.
    #[target_feature(enable = "avx2,popcnt")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm_int2(
        m: usize,
        k: usize,
        n: usize,
        a: &[u64],
        b: &[u64],
        cs: &[f32],
        bias: &[f32],
        out: &mut [f32],
        major: OutMajor,
    ) {
        let wpp = plane_words(k);
        let amortized = n >= ROW_LANE_MIN_ITEMS || wpp < ROW_LANE_ANY_ITEMS_WORDS;
        let lane_rows = if amortized && (1..=ROW_LANE_MAX_WORDS).contains(&wpp) {
            m / 4 * 4
        } else {
            0
        };
        for i0 in (0..lane_rows).step_by(4) {
            gemm_rows4(i0, m, wpp, n, a, b, cs, bias, out, major);
        }
        gemm_int2_body!(dot, lane_rows..m, m, k, n, a, b, cs, bias, out, major);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dot(w: &[f32], a: &[f32]) -> i32 {
        w.iter().zip(a).map(|(&x, &y)| (x as i32) * (y as i32)).sum()
    }

    fn codes(seed: u64, n: usize, lo: i32, hi: i32) -> Vec<f32> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (lo + (s % (hi - lo + 1) as u64) as i32) as f32
            })
            .collect()
    }

    #[test]
    fn packed_dot_matches_naive_across_depths() {
        for k in [0, 1, 5, 63, 64, 65, 128, 200, 256, 300] {
            let w = codes(k as u64 + 1, k, -2, 1);
            let a = codes(k as u64 + 99, k, 0, 3);
            let (mut pw, mut pa) = (Vec::new(), Vec::new());
            pack_weights_int2(&w, 1, k, &mut pw);
            pack_acts_int2(&a, 1, k, &mut pa);
            assert_eq!(portable::dot(&pw, &pa), naive_dot(&w, &a), "k={k}");
        }
    }

    #[test]
    fn strided_pack_matches_contiguous_pack() {
        let (items, k) = (5, 70);
        let cols = codes(7, items * k, 0, 3); // [k, items] layout
        let mut rows = vec![0.0; items * k]; // [items, k] layout
        for kk in 0..k {
            for j in 0..items {
                rows[j * k + kk] = cols[kk * items + j];
            }
        }
        let (mut pc, mut pr) = (Vec::new(), Vec::new());
        pack_acts_cols_int2(&cols, items, k, &mut pc);
        pack_acts_int2(&rows, items, k, &mut pr);
        assert_eq!(pc, pr);
    }

    #[test]
    fn gemm_int2_matches_naive_reference_in_both_layouts() {
        let (m, k, n) = (5, 70, 9);
        let w = codes(1, m * k, -2, 1);
        let a = codes(2, n * k, 0, 3);
        let cs: Vec<f32> = (0..m).map(|i| 0.25 + i as f32 * 0.125).collect();
        let bias: Vec<f32> = (0..m).map(|i| i as f32 - 2.0).collect();
        let (mut pw, mut pa) = (Vec::new(), Vec::new());
        pack_weights_int2(&w, m, k, &mut pw);
        pack_acts_int2(&a, n, k, &mut pa);
        let mut row = vec![0.0; m * n];
        let mut col = vec![0.0; m * n];
        gemm_int2(m, k, n, &pw, &pa, &cs, &bias, &mut row, OutMajor::Row);
        gemm_int2(m, k, n, &pw, &pa, &cs, &bias, &mut col, OutMajor::Col);
        for i in 0..m {
            for j in 0..n {
                let s = naive_dot(&w[i * k..(i + 1) * k], &a[j * k..(j + 1) * k]);
                let want = (s as f32) * cs[i] + bias[i];
                assert_eq!(row[i * n + j], want);
                assert_eq!(col[j * m + i], want);
            }
        }
    }

    #[test]
    fn op_counters_track_gemm_calls() {
        let (m, k, n) = (3, 130, 4);
        let (mut pw, mut pa) = (Vec::new(), Vec::new());
        pack_weights_int2(&codes(3, m * k, -2, 1), m, k, &mut pw);
        pack_acts_int2(&codes(4, n * k, 0, 3), n, k, &mut pa);
        let mut out = vec![0.0; m * n];
        let (mac0, pc0) = op_counters();
        gemm_int2(m, k, n, &pw, &pa, &[1.0; 3], &[0.0; 3], &mut out, OutMajor::Row);
        let (mac1, pc1) = op_counters();
        assert_eq!(mac1 - mac0, (m * n * k) as u64);
        assert_eq!(pc1 - pc0, (m * n * 4 * plane_words(k)) as u64);
    }

    /// The gathered window operands must equal packed im2col
    /// words exactly, across stride/padding/kernel combinations
    /// (including all-padding windows and depth-slot word spills).
    #[test]
    fn gathered_windows_equal_im2col_packed_columns() {
        use crate::conv::{im2col_into, ConvGeometry};
        let ascale = 2.0f32 / 3.0;
        for &(c, h, w, k, s, p) in &[
            (1usize, 5usize, 5usize, 3usize, 1usize, 0usize),
            (3, 8, 6, 3, 1, 1),
            (2, 7, 7, 3, 2, 1),
            (4, 9, 9, 5, 1, 2),  // kk = 100 > 64: spill into word 1
            (8, 6, 6, 3, 1, 1),  // kk = 72: depth slots straddle bit 64
            (1, 1, 1, 1, 1, 2),  // all-padding windows around a 1×1 input
            (2, 4, 4, 4, 3, 3),  // pad ≥ kernel-1 rows fully in padding
            (1, 70, 70, 3, 1, 0), // rows wider than one word
        ] {
            let geom = ConvGeometry::new(k).with_stride(s).with_padding(p);
            let (oh, ow) = (
                geom.output_dim(h).expect("fits"),
                geom.output_dim(w).expect("fits"),
            );
            let acodes = codes((c * h * w) as u64 + 7, c * h * w, 0, 3);
            let vals: Vec<f32> = acodes.iter().map(|&a| a * ascale).collect();
            // Reference route: im2col over values, code rounding, pack.
            let kk = c * k * k;
            let mut cols = Vec::new();
            im2col_into(&vals, c, h, w, geom, &mut cols);
            act_codes_in_place(&mut cols, ascale);
            let mut want = Vec::new();
            pack_acts_cols_int2(&cols, oh * ow, kk, &mut want);
            // Direct route: pack the image once, gather windows.
            let (mut image, mut got) = (Vec::new(), Vec::new());
            pack_image_int2(&vals, ascale, c, h, w, p, &mut image);
            gather_conv_windows_int2(&image, c, h, w, geom, &mut got);
            assert_eq!(got, want, "c={c} h={h} w={w} k={k} s={s} p={p}");
        }
    }

    #[test]
    fn direct_conv_matches_gemm_over_im2col_and_counts_calls() {
        use crate::conv::{im2col_into, ConvGeometry};
        let (c_in, h, w, c_out) = (3, 8, 8, 5);
        let geom = ConvGeometry::new(3).with_padding(1);
        let kk = c_in * 9;
        let (oh, ow) = (8, 8);
        let ascale = 0.37f32;
        let acodes = codes(11, c_in * h * w, 0, 3);
        let vals: Vec<f32> = acodes.iter().map(|&a| a * ascale).collect();
        let wcodes = codes(12, c_out * kk, -2, 1);
        let mut wplanes = Vec::new();
        pack_weights_int2(&wcodes, c_out, kk, &mut wplanes);
        let cs: Vec<f32> = (0..c_out).map(|i| 0.1 + i as f32 * 0.05).collect();
        let bias: Vec<f32> = (0..c_out).map(|i| i as f32 * 0.25 - 0.5).collect();

        let mut want = vec![0.0; c_out * oh * ow];
        let mut cols = Vec::new();
        im2col_into(&vals, c_in, h, w, geom, &mut cols);
        act_codes_in_place(&mut cols, ascale);
        let mut packed = Vec::new();
        pack_acts_cols_int2(&cols, oh * ow, kk, &mut packed);
        gemm_int2(c_out, kk, oh * ow, &wplanes, &packed, &cs, &bias, &mut want, OutMajor::Row);

        let calls0 = direct_conv_calls();
        let (mac0, pc0) = op_counters();
        let mut got = vec![0.0; c_out * oh * ow];
        let (mut img_ws, mut cols_ws) = (Vec::new(), Vec::new());
        conv_int2_direct(
            &vals, ascale, c_in, h, w, geom, &wplanes, c_out, &cs, &bias, &mut got, &mut img_ws,
            &mut cols_ws,
        );
        let (mac1, pc1) = op_counters();
        assert_eq!(direct_conv_calls() - calls0, 1);
        // Same GEMM shape ⇒ same counter deltas as the im2col composition.
        assert_eq!(mac1 - mac0, (c_out * oh * ow * kk) as u64);
        assert_eq!(pc1 - pc0, (c_out * oh * ow * 4 * plane_words(kk)) as u64);
        let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        let got_bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, want_bits);
    }

    /// Pins the once-per-image profitability crossovers: the k² window
    /// reuse divides the per-pixel packing tax (floored at
    /// `ENGINE_MIN_ITEMS_DIRECT`), 1×1 kernels stay at
    /// `ENGINE_MIN_ITEMS`, and kernels the gather cannot serve never
    /// route to the engine.
    #[test]
    fn conv_profitability_crossover_models_once_per_image_packing() {
        assert!(!conv_engine_profitable(3, 3));
        assert!(conv_engine_profitable(4, 3)); // pruned CNV widths 4..7 route
        assert!(conv_engine_profitable(8, 3));
        assert!(!conv_engine_profitable(3, 5));
        assert!(conv_engine_profitable(4, 5));
        assert!(!conv_engine_profitable(7, 2)); // 32 / k² = 8 above the floor
        assert!(conv_engine_profitable(8, 2));
        assert!(!conv_engine_profitable(31, 1)); // 1×1: no window reuse
        assert!(conv_engine_profitable(32, 1));
        assert!(conv_engine_profitable(4, MAX_DIRECT_KERNEL));
        assert!(!conv_engine_profitable(usize::MAX, MAX_DIRECT_KERNEL + 1));
    }

    #[test]
    fn code_recovery_is_exact_on_the_quant_grid() {
        // Acts: every grid point of a few scales round-trips.
        for scale in [2.0f32 / 3.0, 0.013, 1.0, 7.3e-3] {
            let mut v: Vec<f32> = (0..4).map(|c| c as f32 * scale).collect();
            act_codes_in_place(&mut v, scale);
            assert_eq!(v, [0.0, 1.0, 2.0, 3.0]);
        }
        // Weights: code*scale recovers the code for every signed code.
        let scales = [0.5f32, 0.037, 1.25];
        let q: Vec<f32> = scales
            .iter()
            .flat_map(|&s| [-2.0 * s, -s, 0.0, s])
            .collect();
        let mut out = Vec::new();
        weight_codes_into(&q, &scales, 4, &mut out);
        assert_eq!(out, [-2.0, -1.0, 0.0, 1.0].repeat(3));
    }
}
