//! The streamlined serving plan: BatchNorm + QuantReLU folded into
//! integer thresholds, activations bit-packed from the stem to the exit
//! heads.
//!
//! FINN streamlines a quantized network before it builds hardware: the
//! affine BatchNorm and the uniform activation quantizer behind every
//! matrix layer collapse into a per-channel multi-threshold on the
//! integer accumulator, and modules hand each other low-bit codes on a
//! stream. [`StreamPlan`] is that transformation for the CPU executor,
//! applied to the graph every inference consumer runs: each
//! [`BatchExecutor`](crate::serve::BatchExecutor) builds one, and
//! serving and evaluation (`evaluate_exits`, the executor at a threshold
//! no exit clears) are both executors. It covers every
//! `Conv → Norm → Act [→ Pool]` group in front of the FC tails:
//!
//! - **Threshold folding.** For a post-stem group the popcount GEMM's
//!   accumulator `S` is an integer in `[−6k, 3k]` (`k` the reduction
//!   depth, weights in `−2..=1`, codes in `0..=3`). `fold_thresholds`
//!   pushes *every* such `S` through the arithmetic the layers run —
//!   `requantize_rows` (the GEMM's own epilogue),
//!   [`BatchNorm::eval_channel`], [`QuantReLU::quantize_into`], then the
//!   next layer's `act_codes_in_place` — and records the code that comes
//!   out. Each of those f32 steps is weakly monotone in its input
//!   (rounding preserves order; multiplying by a negative γ reverses
//!   it), so the table is a step function and three integer steps plus a
//!   direction reproduce it exactly ([`CodeSteps::from_table`]). A NaN
//!   (`∞ − ∞`, `0 · ∞`, the root of a negative variance) codes 0 in the
//!   chain and so in the table. Monotonicity is checked, not assumed:
//!   `from_table` refuses a table with a dip, and the net then keeps
//!   the layer path.
//! - **Pool-then-threshold.** A max-pool behind the activation moves in
//!   front of the threshold: `max` commutes with a weakly monotone map,
//!   so the code of the window's largest `sign·S` is the window's
//!   largest code. The exit heads' `k = ⌊DIM/2⌋` pool becomes a running
//!   maximum over accumulators; no code map is ever pooled.
//! - **Packed maps.** A group reads a `[plane0 | plane1]` packed image
//!   (`pack_image_int2`'s layout, padded for its consumer) and writes
//!   one ([`int2::conv_int2_codes`]).
//! - **The stem as a threshold unit.** The stem consumes the caller's
//!   f32 image, so its accumulator is an f32 sum with no integer range
//!   to tabulate — but its code is still a per-channel step function of
//!   it. `fold_stem` finds each channel's three f32 steps by bisection
//!   over the ordered f32 values ([`CodeSteps::bisect`]), running the
//!   same `eval_channel → quantize_into →` pack-rule chain, on the
//!   interval where `eval_channel` stays finite: there every step of the
//!   chain is weakly monotone, the argument `fold_thresholds` makes for
//!   an integer `S`. [`int2::conv_f32_codes`] then runs the direct f32
//!   conv — the layer path's im2col + GEMM accumulators, bit for bit,
//!   with no column buffer — into the threshold unit. An image with an
//!   accumulator outside its channel's interval (an infinite or huge
//!   pixel; a NaN) takes the layer path's epilogue on those same
//!   accumulators instead: off the interval the chain need not be a
//!   step function — a γ = 0 channel codes `β` on every finite
//!   accumulator and 0 on ±∞.
//! - **What still becomes f32.** Only the `≤ 4·c` codes an FC tail reads,
//!   expanded to grid values (`unpack_image_int2`) and stamped, and the
//!   tail — `Flatten → Linear → …` — runs on the layer calls: its first
//!   Linear recovers the same codes from the same values, so everything
//!   behind it sees the layer path's exact inputs. The stem's
//!   accumulators are the one f32 map, in L1-sized scratch.
//!
//! Whether a net gets a plan is a function of the net alone
//! ([`StreamPlan::build`]), and it honours the per-layer route: a conv
//! the plan would fold that has `prefer_f32_codes` set keeps the whole
//! net on the layer path, so a net routes in serving and in evaluation
//! the way its layers say. Nets the plan does not cover, stamped input
//! batches and the non-`Auto` engine plans run the layer-by-layer loop,
//! which is what the differential tests hold this module against.

use crate::layers::{ActQuant, BatchNorm, Layer, QuantConv2d, QuantReLU};
use crate::network::EarlyExitNetwork;
use adapex_tensor::conv::ConvGeometry;
use adapex_tensor::int2::{self, CodeSteps};

/// Shape of one packed 2-bit code map.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CodeMap {
    pub c: usize,
    pub h: usize,
    pub w: usize,
    /// Horizontal padding packed into each row: that of the convs
    /// gathering from it.
    pad: usize,
    /// Grid step of the codes (the producing activation's).
    scale: f32,
}

impl CodeMap {
    /// Packed words per image.
    pub fn words(&self) -> usize {
        self.c * self.h * 2 * int2::image_row_words(self.w, self.pad)
    }

    /// The stamp an f32 expansion of this map carries.
    pub fn quant(&self) -> ActQuant {
        ActQuant {
            scale: self.scale,
            bits: 2,
        }
    }
}

/// The fused first group: f32 image in, packed code map out.
#[derive(Debug)]
struct Stem {
    c_in: usize,
    hw: (usize, usize),
    geom: ConvGeometry,
    qweight: Vec<f32>,
    bias: Vec<f32>,
    /// Each channel's chain folded into f32 steps ...
    steps: Vec<CodeSteps>,
    /// ... and the accumulator range they hold on.
    domain: Vec<[f32; 2]>,
    /// The epilogue of an image outside some channel's range.
    norm: BatchNorm,
    act: QuantReLU,
    out: CodeMap,
}

/// One packed-map-to-packed-map step behind the stem.
#[derive(Debug)]
enum Step {
    /// A folded `Conv → Norm → Act [→ Pool]` group; `pool` is the
    /// max-pool window behind the activation (`1`: none).
    Conv {
        input: CodeMap,
        geom: ConvGeometry,
        planes: Vec<u64>,
        steps: Vec<CodeSteps>,
        pool: usize,
        out: CodeMap,
    },
    /// A max-pool no group could absorb: an exit reads the map in front
    /// of it, so it runs on the packed codes behind the confidence test.
    Pool {
        input: CodeMap,
        kernel: usize,
        out: CodeMap,
    },
}

/// Where a stage's FC tail lives in the network.
#[derive(Debug, Clone, Copy)]
enum Tail {
    Exit { exit: usize, from: usize },
    Backbone { from: usize },
}

impl Tail {
    fn layers(self, net: &mut EarlyExitNetwork) -> &mut [Layer] {
        match self {
            Tail::Exit { exit, from } => &mut net.exits[exit].layers[from..],
            Tail::Backbone { from } => &mut net.backbone[from..],
        }
    }
}

/// Everything between two confidence tests: the backbone steps up to an
/// exit's attachment point, that exit's own conv steps, and its FC tail.
/// The last stage is the rest of the backbone.
#[derive(Debug)]
struct Stage {
    steps: Vec<Step>,
    head: Vec<Step>,
    /// The map survivors carry into the next stage.
    carried: CodeMap,
    /// The map the tail reads.
    feats: CodeMap,
    tail: Tail,
}

/// Per-worker scratch; capacity persists across batches, so a warm
/// executor allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct StreamScratch {
    /// The stem epilogue's normalize buffer, one channel long; only an
    /// image off the folded ranges touches it.
    z: Vec<f32>,
    windows: Vec<u64>,
    acc: Vec<f32>,
    hops: [Vec<u64>; 2],
    stem_out: Vec<u64>,
    head_out: Vec<u64>,
}

/// See the module docs.
#[derive(Debug)]
pub(crate) struct StreamPlan {
    stem: Stem,
    stages: Vec<Stage>,
}

/// A step recognized in a layer list, by position.
#[derive(Debug, Clone, Copy)]
enum StepAt {
    /// `Conv Norm Act` at `at`, with the window of a `Pool` directly
    /// behind it inside the same segment (`1`: none).
    Conv { at: usize, pool: usize },
    Pool { kernel: usize },
}

/// Leading steps of `layers[from..to]`, and the index of the first
/// layer that is not part of one.
fn leading_steps(layers: &[Layer], from: usize, to: usize) -> (Vec<StepAt>, usize) {
    let mut steps = Vec::new();
    let mut at = from;
    loop {
        match &layers[at..to] {
            [Layer::Conv(_), Layer::Norm(_), Layer::Act(_), rest @ ..] => {
                let pool = match rest.first() {
                    Some(Layer::Pool(p)) => Some(p.kernel),
                    _ => None,
                };
                steps.push(StepAt::Conv {
                    at,
                    pool: pool.unwrap_or(1),
                });
                at += 3 + usize::from(pool.is_some());
            }
            [Layer::Pool(p), ..] => {
                steps.push(StepAt::Pool { kernel: p.kernel });
                at += 1;
            }
            _ => return (steps, at),
        }
    }
}

/// The three layers of the group starting at `at`.
fn group_layers(layers: &mut [Layer], at: usize) -> (&mut QuantConv2d, &BatchNorm, &QuantReLU) {
    match &mut layers[at..at + 3] {
        [Layer::Conv(c), Layer::Norm(n), Layer::Act(a)] => (c, n, a),
        _ => unreachable!("leading_steps matched Conv Norm Act here"),
    }
}

/// The row padding a step needs its input map packed with: a conv
/// gathers padded windows, a pool reads any.
fn wanted_pad(layers: &[Layer], step: Option<&StepAt>) -> Option<usize> {
    match step? {
        StepAt::Conv { at, .. } => match &layers[*at] {
            Layer::Conv(c) => Some(c.geom.padding),
            _ => unreachable!("leading_steps matched a conv here"),
        },
        StepAt::Pool { .. } => None,
    }
}

/// Two readers of one map must want the same padding (`None`: any).
fn agree(a: Option<usize>, b: Option<usize>) -> Option<Option<usize>> {
    match (a, b) {
        (Some(x), Some(y)) if x != y => None,
        _ => Some(a.or(b)),
    }
}

/// Whether an FC tail recovers exact codes from the f32 expansion: past
/// reshapes and pools, its first layer must be a 2-bit Linear, which
/// reads its stamped input through `act_codes_in_place` only.
fn tail_reads_codes(tail: &[Layer]) -> bool {
    let first = tail
        .iter()
        .find(|l| !matches!(l, Layer::Flatten | Layer::Pool(_)));
    matches!(first, Some(Layer::Linear(l)) if l.weight_spec.is_int2_weight())
}

/// Checks a group's Norm/Act against its conv and returns the output
/// extent behind the conv and behind the pool.
fn group_extents(
    conv: &QuantConv2d,
    norm: &BatchNorm,
    act: &QuantReLU,
    pool: usize,
    (c, h, w): (usize, usize, usize),
) -> Option<((usize, usize), (usize, usize))> {
    let scale = act.grid_scale();
    if conv.c_in != c
        || norm.channels != conv.c_out
        || act.spec.bits != 2
        || !(scale > 0.0 && scale.is_finite())
    {
        return None;
    }
    let (oh, ow) = (conv.geom.output_dim(h)?, conv.geom.output_dim(w)?);
    pooled_extent((oh, ow), pool).map(|p| ((oh, ow), p))
}

/// Max-pool's floor rule; `None` when the window does not fit.
fn pooled_extent((h, w): (usize, usize), pool: usize) -> Option<(usize, usize)> {
    (pool >= 1 && h >= pool && w >= pool).then(|| (h / pool, w / pool))
}

/// Folds each stem channel's BatchNorm → QuantReLU → code chain into f32
/// steps by bisection ([`CodeSteps::bisect`]): the chain on one
/// accumulator, the layers' own calls, `None` where `eval_channel`
/// leaves the finite range. Returns the steps and their ranges.
fn fold_stem(norm: &BatchNorm, act: &QuantReLU) -> (Vec<CodeSteps>, Vec<[f32; 2]>) {
    let scale = act.grid_scale();
    (0..norm.channels)
        .map(|c| {
            CodeSteps::bisect(|y| {
                let mut z = [0.0f32];
                norm.eval_channel(c, &mut z, &[y]);
                if !z[0].is_finite() {
                    return None;
                }
                let mut q = [0.0f32];
                act.quantize_into(&mut q, &z);
                // The pack rule, as `pack_image_int2` would apply it.
                int2::act_codes_in_place(&mut q, scale);
                Some(q[0] as u8)
            })
        })
        .unzip()
}

/// Folds one group's requantize → BatchNorm → QuantReLU → code chain
/// into per-channel steps by running it on every reachable accumulator.
/// `None` when some channel's table is not a step function.
fn fold_thresholds(
    wscales: &[f32],
    bias: &[f32],
    ascale: f32,
    depth: usize,
    norm: &BatchNorm,
    act: &QuantReLU,
) -> Option<Vec<CodeSteps>> {
    // Weights in −2..=1 times codes in 0..=3, `depth` of them.
    let lo = -6 * i32::try_from(depth).ok()?;
    let reach = 9 * depth + 1;
    let (mut y, mut z) = (vec![0.0f32; reach], vec![0.0f32; reach]);
    (0..wscales.len())
        .map(|c| {
            for (i, v) in y.iter_mut().enumerate() {
                *v = (lo + i as i32) as f32;
            }
            // The conv layer's combined scale, computed as it computes it.
            int2::requantize_rows(&mut y, reach, &[wscales[c] * ascale], &[bias[c]]);
            norm.eval_channel(c, &mut z, &y);
            act.quantize_into(&mut y, &z);
            int2::act_codes_in_place(&mut y, act.grid_scale());
            CodeSteps::from_table(lo, &y)
        })
        .collect()
}

impl Step {
    /// Builds the step at `at`, fed by `input`, its map packed with
    /// `out_pad`.
    fn build(layers: &mut [Layer], at: StepAt, input: CodeMap, out_pad: usize) -> Option<Self> {
        let (at, pool) = match at {
            StepAt::Pool { kernel } => {
                let (h, w) = pooled_extent((input.h, input.w), kernel)?;
                let out = CodeMap {
                    h,
                    w,
                    pad: out_pad,
                    ..input
                };
                return (kernel <= 64).then_some(Step::Pool { input, kernel, out });
            }
            StepAt::Conv { at, pool } => (at, pool),
        };
        let (conv, norm, act) = group_layers(layers, at);
        let (_, (h, w)) = group_extents(conv, norm, act, pool, (input.c, input.h, input.w))?;
        let depth = conv.c_in * conv.geom.kernel * conv.geom.kernel;
        // Only what the engine can run: 2-bit weights, a kernel the
        // window gather serves, a depth the packed operand holds — and
        // only a conv whose own route is the engine.
        if conv.prefer_f32_codes
            || !conv.weight_spec.is_int2_weight()
            || conv.geom.kernel > int2::MAX_DIRECT_KERNEL
            || depth > int2::MAX_K
        {
            return None;
        }
        debug_assert_eq!(conv.geom.padding, input.pad, "map packed for another reader");
        let (c_out, geom) = (conv.c_out, conv.geom);
        let bias = conv.bias.value.clone();
        let (planes, wscales) = conv.int2_weights();
        let steps = fold_thresholds(wscales, &bias, input.scale, depth, norm, act)?;
        Some(Step::Conv {
            input,
            geom,
            planes: planes.to_vec(),
            steps,
            pool,
            out: CodeMap {
                c: c_out,
                h,
                w,
                pad: out_pad,
                scale: act.grid_scale(),
            },
        })
    }

    fn out(&self) -> CodeMap {
        match self {
            Step::Conv { out, .. } | Step::Pool { out, .. } => *out,
        }
    }

    fn run(&self, src: &[u64], dst: &mut [u64], windows: &mut Vec<u64>, acc: &mut Vec<f32>) {
        match self {
            Step::Conv {
                input,
                geom,
                planes,
                steps,
                pool,
                out,
            } => int2::conv_int2_codes(
                src, input.c, input.h, input.w, *geom, planes, steps, *pool, out.pad, dst,
                windows, acc,
            ),
            Step::Pool { input, kernel, out } => int2::pool_image_int2(
                src, input.c, input.h, input.w, input.pad, *kernel, out.pad, dst, windows,
            ),
        }
    }
}

/// Builds a run of steps, each feeding the next; the last one's map is
/// packed with `last_pad`. Returns the steps and the final map (`map`
/// itself for an empty run).
fn build_chain(
    layers: &mut [Layer],
    steps: &[StepAt],
    mut map: CodeMap,
    last_pad: usize,
) -> Option<(Vec<Step>, CodeMap)> {
    let mut chain = Vec::with_capacity(steps.len());
    for (i, &at) in steps.iter().enumerate() {
        let out_pad = match steps.get(i + 1) {
            // A pool reads any padding; none is the cheapest to write.
            Some(next) => wanted_pad(layers, Some(next)).unwrap_or(0),
            None => last_pad,
        };
        let step = Step::build(layers, at, map, out_pad)?;
        map = step.out();
        chain.push(step);
    }
    Some((chain, map))
}

/// Runs `steps` (non-empty) from `src` into `dst`, intermediate maps
/// alternating between the two hop buffers.
fn run_chain(
    steps: &[Step],
    src: &[u64],
    dst: &mut [u64],
    hops: &mut [Vec<u64>; 2],
    windows: &mut Vec<u64>,
    acc: &mut Vec<f32>,
) {
    let (last, inner) = steps.split_last().expect("run_chain needs a step");
    // Hop buffer holding the current input; `None`: still `src`.
    let mut from: Option<usize> = None;
    for step in inner {
        let (ping, pong) = hops.split_at_mut(1);
        let (input, output): (&[u64], &mut Vec<u64>) = match from {
            None => (src, &mut ping[0]),
            Some(0) => (&ping[0], &mut pong[0]),
            Some(_) => (&pong[0], &mut ping[0]),
        };
        output.resize(step.out().words(), 0);
        step.run(input, output, windows, acc);
        from = Some(from.map_or(0, |f| 1 - f));
    }
    last.run(from.map_or(src, |f| &hops[f]), dst, windows, acc);
}

impl StreamPlan {
    /// Builds the plan, or `None` when the net is not one it covers. It
    /// covers a backbone that opens with a pool-free `Conv Norm Act`
    /// group on the raw image and continues in such groups and pools up
    /// to its FC tail, with every exit attached in that stretch; every
    /// group behind the stem a 2-bit conv the engine can run (kernel
    /// within the gather's bound, at any filter count), with a 2-bit
    /// activation and a monotone threshold table, and not routed off the
    /// engine by `prefer_f32_codes`;
    /// readers of one map agreeing on its padding; and every FC tail
    /// opening with a 2-bit Linear.
    pub fn build(net: &mut EarlyExitNetwork) -> Option<Self> {
        let &[c0, h0, w0] = net.input_dims.as_slice() else {
            return None;
        };
        // Backbone segments between attachment points, parsed whole;
        // the last one runs up to the FC tail.
        let mut segments = Vec::with_capacity(net.exits.len() + 1);
        let mut from = 0;
        for e in &net.exits {
            let to = e.attach_after + 1;
            let (steps, end) = leading_steps(&net.backbone, from, to.max(from));
            if end != to {
                return None;
            }
            segments.push(steps);
            from = to;
        }
        let (last_steps, backbone_tail) = leading_steps(&net.backbone, from, net.backbone.len());
        segments.push(last_steps);
        let heads: Vec<(Vec<StepAt>, usize)> = net
            .exits
            .iter()
            .map(|e| leading_steps(&e.layers, 0, e.layers.len()))
            .collect();

        // Padding of the map each segment ends with: what its readers
        // want — the head attached there and the next step down the
        // backbone, looked up back to front because an empty segment
        // (two exits on one map) passes the question on.
        let mut end_pads = vec![0; segments.len()];
        let mut next_wants = wanted_pad(&net.backbone, segments[heads.len()].first());
        for s in (0..heads.len()).rev() {
            let head_wants = wanted_pad(&net.exits[s].layers, heads[s].0.first());
            let wants = agree(head_wants, next_wants)?;
            end_pads[s] = wants.unwrap_or(0);
            next_wants = match segments[s].first() {
                Some(first) => wanted_pad(&net.backbone, Some(first)),
                None => wants,
            };
        }

        let Some((&StepAt::Conv { at, pool: 1 }, after_stem)) = segments[0].split_first() else {
            return None;
        };
        let stem = {
            let pad = match after_stem.first() {
                Some(next) => wanted_pad(&net.backbone, Some(next)).unwrap_or(0),
                None => end_pads[0],
            };
            let (conv, norm, act) = group_layers(&mut net.backbone, at);
            let ((h, w), _) = group_extents(conv, norm, act, 1, (c0, h0, w0))?;
            let (steps, domain) = fold_stem(norm, act);
            Stem {
                c_in: c0,
                hw: (h0, w0),
                geom: conv.geom,
                bias: conv.bias.value.clone(),
                steps,
                domain,
                norm: norm.clone(),
                act: act.clone(),
                out: CodeMap {
                    c: conv.c_out,
                    h,
                    w,
                    pad,
                    scale: act.grid_scale(),
                },
                qweight: conv.f32_weights().to_vec(),
            }
        };

        let mut stages = Vec::with_capacity(segments.len());
        let mut carried = stem.out;
        for (s, segment) in segments.iter().enumerate() {
            let segment = if s == 0 { after_stem } else { segment };
            let (steps, map) = build_chain(&mut net.backbone, segment, carried, end_pads[s])?;
            carried = map;
            let (head, feats, tail) = match heads.get(s) {
                Some((head, from)) => {
                    let layers = &mut net.exits[s].layers;
                    let (head, feats) = build_chain(layers, head, carried, 0)?;
                    (head, feats, Tail::Exit { exit: s, from: *from })
                }
                None => {
                    let from = backbone_tail;
                    (Vec::new(), carried, Tail::Backbone { from })
                }
            };
            if !tail_reads_codes(tail.layers(net)) {
                return None;
            }
            stages.push(Stage {
                steps,
                head,
                carried,
                feats,
                tail,
            });
        }
        Some(StreamPlan { stem, stages })
    }

    /// Whether stage `s` writes a new carried map (stage 0 always does:
    /// the stem's at least); otherwise survivors keep the one they have.
    pub fn advances(&self, s: usize) -> bool {
        s == 0 || !self.stages[s].steps.is_empty()
    }

    /// Confidence tests the plan runs: one per exit, the final one
    /// included.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The map survivors of stage `s` carry on.
    pub fn carried(&self, s: usize) -> CodeMap {
        self.stages[s].carried
    }

    /// The map stage `s`'s FC tail reads, expanded to f32.
    pub fn feats(&self, s: usize) -> CodeMap {
        self.stages[s].feats
    }

    /// Stage `s`'s FC tail inside `net` (a clone of the net the plan
    /// was built from).
    pub fn tail<'n>(&self, s: usize, net: &'n mut EarlyExitNetwork) -> &'n mut [Layer] {
        self.stages[s].tail.layers(net)
    }

    /// Stage 0's backbone part for one image: the fused stem, then the
    /// stage's steps, into `carried`.
    pub fn advance_image(&self, img: &[f32], carried: &mut [u64], sc: &mut StreamScratch) {
        self.run_stem(img, sc);
        match self.stages[0].steps.as_slice() {
            [] => carried.copy_from_slice(&sc.stem_out),
            steps => run_chain(
                steps,
                &sc.stem_out,
                carried,
                &mut sc.hops,
                &mut sc.windows,
                &mut sc.acc,
            ),
        }
    }

    /// Stage `s > 0`'s backbone part for one survivor: its steps, from
    /// the previous stage's map into `carried`.
    pub fn advance_map(&self, s: usize, prev: &[u64], carried: &mut [u64], sc: &mut StreamScratch) {
        let steps = &self.stages[s].steps;
        run_chain(steps, prev, carried, &mut sc.hops, &mut sc.windows, &mut sc.acc);
    }

    /// Stage `s`'s exit head for one image: its conv steps from the
    /// carried map, then the f32 expansion of the result into `feats`.
    pub fn head(&self, s: usize, carried: &[u64], feats: &mut [f32], sc: &mut StreamScratch) {
        let stage = &self.stages[s];
        let m = stage.feats;
        if stage.head.is_empty() {
            return int2::unpack_image_int2(carried, m.c, m.h, m.w, m.pad, m.scale, feats);
        }
        sc.head_out.resize(m.words(), 0);
        run_chain(
            &stage.head,
            carried,
            &mut sc.head_out,
            &mut sc.hops,
            &mut sc.windows,
            &mut sc.acc,
        );
        int2::unpack_image_int2(&sc.head_out, m.c, m.h, m.w, m.pad, m.scale, feats);
    }

    /// The stem on one image, into `sc.stem_out`: the direct f32 conv
    /// into the threshold unit, or — for an image with an accumulator
    /// off its channel's folded range — the layer path's BatchNorm and
    /// QuantReLU on the same accumulators, packed by the call the next
    /// conv would have made on the f32 map.
    fn run_stem(&self, img: &[f32], sc: &mut StreamScratch) {
        let st = &self.stem;
        let m = st.out;
        let ((h, w), acc) = (st.hw, &mut sc.acc);
        sc.stem_out.resize(m.words(), 0);
        if int2::conv_f32_codes(
            img, st.c_in, h, w, st.geom, &st.qweight, &st.bias, &st.steps, &st.domain, m.pad,
            &mut sc.stem_out, acc,
        ) {
            return;
        }
        let spatial = m.h * m.w;
        sc.z.resize(spatial, 0.0);
        for (c, y) in acc.chunks_exact_mut(spatial).enumerate() {
            st.norm.eval_channel(c, &mut sc.z, y);
            st.act.quantize_into(y, &sc.z);
        }
        int2::pack_image_int2(acc, m.scale, m.c, m.h, m.w, m.pad, &mut sc.stem_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnv::{CnvConfig, ExitsConfig};
    use crate::layers::Activation;
    use crate::quant::QuantSpec;
    use adapex_tensor::rng::rng_from_seed;
    use rand::RngExt;

    /// The code the layer calls produce for accumulator `s` of channel
    /// `c`: the conv's requantize step, then the real `BatchNorm` and
    /// `QuantReLU` eval forwards on a one-pixel map, then the next
    /// layer's code recovery from the stamped grid.
    fn chain_codes(
        cs: &[f32],
        bias: &[f32],
        lo: i32,
        reach: usize,
        norm: &mut BatchNorm,
        act: &mut QuantReLU,
    ) -> Vec<f32> {
        let channels = cs.len();
        let mut y = vec![0.0f32; channels * reach];
        for (c, row) in y.chunks_exact_mut(reach).enumerate() {
            for (i, v) in row.iter_mut().enumerate() {
                *v = ((lo + i as i32) as f32 * cs[c]) + bias[c];
            }
        }
        let x = Activation::new(y, 1, vec![channels, reach, 1]);
        let out = act.forward(&norm.forward(&x, false), false);
        let grid = out.quant.expect("QuantReLU stamps its grid");
        let mut codes = out.data.clone();
        int2::act_codes_in_place(&mut codes, grid.scale);
        codes
    }

    /// Satellite (i): for random BatchNorm statistics — γ of either sign
    /// and zero, tiny and NaN-producing variances, huge β — the folded
    /// steps equal the f32 chain on **every** reachable accumulator, a
    /// chain that goes NaN codes 0, and a table `fold_thresholds`
    /// refuses really is not a step function.
    #[test]
    fn folded_steps_equal_the_f32_chain_on_every_accumulator() {
        let mut rng = rng_from_seed(0x57ea);
        let (mut folded, mut refused) = (0, 0);
        for case in 0..60 {
            let channels = 8;
            let depth = [9usize, 27, 72, 144][case % 4];
            let (lo, reach) = (-6 * depth as i32, 9 * depth + 1);
            let ascale = 2.0f32 / 3.0;
            let wscales: Vec<f32> = (0..channels).map(|_| rng.random_range(1e-3f32..0.5)).collect();
            let bias: Vec<f32> = (0..channels).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            let mut norm = BatchNorm::new(channels);
            for c in 0..channels {
                norm.gamma.value[c] = match (case + c) % 5 {
                    0 => 0.0,
                    1 => -rng.random_range(0.05f32..3.0),
                    _ => rng.random_range(0.05f32..3.0),
                };
                norm.beta.value[c] = match (case + c) % 7 {
                    0 => 1e30,
                    1 => -1e30,
                    _ => rng.random_range(-2.0f32..2.0),
                };
                norm.running_mean[c] = rng.random_range(-5.0f32..5.0);
                norm.running_var[c] = match (case + c) % 6 {
                    0 => 1e-12,
                    1 => -1.0, // sqrt of a negative: NaN on every S
                    2 => 0.0,
                    _ => rng.random_range(0.01f32..20.0),
                };
            }
            let mut act = QuantReLU::new(QuantSpec::unsigned(2), [2.0f32, 1.0, 6.0][case % 3]);
            let cs: Vec<f32> = wscales.iter().map(|&s| s * ascale).collect();
            let want = chain_codes(&cs, &bias, lo, reach, &mut norm, &mut act);
            match fold_thresholds(&wscales, &bias, ascale, depth, &norm, &act) {
                Some(steps) => {
                    folded += 1;
                    for (c, table) in want.chunks_exact(reach).enumerate() {
                        for (i, &code) in table.iter().enumerate() {
                            let s = lo + i as i32;
                            assert_eq!(
                                f32::from(steps[c].code(s as f32)),
                                code,
                                "case {case} channel {c} S={s}: {:?}",
                                steps[c]
                            );
                        }
                        if norm.running_var[c] == -1.0 {
                            assert!(table.iter().all(|&q| q == 0.0), "NaN must code 0");
                        }
                    }
                }
                None => {
                    refused += 1;
                    let monotone = |t: &[f32]| {
                        t.windows(2).all(|p| p[0] <= p[1]) || t.windows(2).all(|p| p[0] >= p[1])
                    };
                    assert!(
                        !want.chunks_exact(reach).all(monotone),
                        "case {case}: refused a net whose tables are all step functions"
                    );
                }
            }
        }
        assert!(folded >= 40, "only {folded} cases folded ({refused} refused)");
    }

    /// The stem's folded steps against the real `BatchNorm` and
    /// `QuantReLU` eval forwards and the next layer's code recovery, on
    /// accumulators drawn where a fold could slip: both sides of every
    /// step, ±0, subnormals, the range's ends and what lies past them,
    /// huge and non-finite values, and a spread in between — for random
    /// statistics with γ of either sign and zero, tiny, zero and
    /// negative variances and β past the clip. Inside its range a
    /// channel's steps give the layers' code, bit for bit; a channel
    /// whose chain is finite somewhere gets a range.
    #[test]
    fn stem_steps_equal_the_layer_chain_inside_their_range() {
        let mut rng = rng_from_seed(0x57e3);
        let channels = 8;
        let mut folded = 0;
        for case in 0..40 {
            let mut norm = BatchNorm::new(channels);
            for c in 0..channels {
                norm.gamma.value[c] = match (case + c) % 5 {
                    0 => 0.0,
                    1 => -rng.random_range(0.05f32..3.0),
                    _ => rng.random_range(0.05f32..3.0),
                };
                norm.beta.value[c] = match (case + c) % 7 {
                    0 => 1e30,
                    1 => 0.7,
                    _ => rng.random_range(-2.0f32..2.0),
                };
                norm.running_mean[c] = rng.random_range(-5.0f32..5.0);
                norm.running_var[c] = match (case + c) % 6 {
                    0 => 1e-12,
                    1 => -1.0, // sqrt of a negative: NaN everywhere
                    2 => 0.0,
                    _ => rng.random_range(0.01f32..20.0),
                };
            }
            let mut act = QuantReLU::new(QuantSpec::unsigned(2), [2.0f32, 1.0, 6.0][case % 3]);
            let (steps, domain) = fold_stem(&norm, &act);
            for c in 0..channels {
                let [lo, hi] = domain[c];
                let mut probes = vec![
                    -0.0, 0.0, 1e-40, -1e-40, lo, hi, lo.next_down(), hi.next_up(), 1e30, -1e30,
                    f32::MAX, f32::MIN, f32::INFINITY, f32::NEG_INFINITY, f32::NAN,
                ];
                for t in steps[c].at.into_iter().filter(|t| t.is_finite()) {
                    let y = if steps[c].sign < 0 { -t } else { t };
                    probes.extend([y.next_down(), y, y.next_up()]);
                }
                probes.extend((0..200).map(|_| rng.random_range(-40.0f32..40.0)));
                // Every channel of a one-image map holds the probes.
                let n = probes.len();
                let x = Activation::new(probes.repeat(channels), 1, vec![channels, n, 1]);
                let out = act.forward(&norm.forward(&x, false), false);
                let mut codes = out.data[c * n..(c + 1) * n].to_vec();
                int2::act_codes_in_place(&mut codes, act.grid_scale());
                for (&y, &code) in probes.iter().zip(&codes) {
                    if lo <= y && y <= hi {
                        assert_eq!(
                            f32::from(steps[c].code(y)),
                            code,
                            "case {case} channel {c} y={y:e}: {:?} on [{lo:e}, {hi:e}]",
                            steps[c]
                        );
                    }
                }
                if norm.running_var[c] > 0.0 && norm.beta.value[c] < 1e30 {
                    assert!(lo < hi, "case {case} channel {c}: no range");
                    folded += 1;
                }
            }
        }
        assert!(folded >= 100, "only {folded} channels folded");
    }

    #[test]
    fn plans_cover_the_cnv_family_and_nothing_the_layer_path_routes_elsewhere() {
        let exits = ExitsConfig::paper_default();
        for width in [4, 8] {
            let mut net = CnvConfig::scaled(width).build_early_exit(10, &exits, 3);
            let plan = StreamPlan::build(&mut net).expect("CNV is streamlinable");
            assert_eq!(plan.num_stages(), 3);
            // Exit 1 reads conv2's un-pooled map; survivors carry it and
            // the pool runs on packed codes at the head of stage 2.
            assert_eq!(
                (plan.carried(0).c, plan.carried(0).h, plan.carried(0).w),
                (width, 28, 28)
            );
            assert!(plan.advances(1) && plan.advances(2));
            assert_eq!((plan.feats(0).h, plan.feats(0).w), (2, 2));
            assert_eq!((plan.feats(2).c, plan.feats(2).h), (4 * width, 1));
        }
        // No exits: one stage, the whole backbone.
        let mut plain = CnvConfig::tiny().build(10, 3);
        assert_eq!(StreamPlan::build(&mut plain).map(|p| p.num_stages()), Some(1));
        // Filter count is no bar: a 2-wide net gets the same three stages.
        let mut narrow = CnvConfig::scaled(2).build_early_exit(10, &exits, 3);
        assert_eq!(StreamPlan::build(&mut narrow).map(|p| p.num_stages()), Some(3));
        // Non-2-bit weights or activations: not this plan's nets.
        let w8 = CnvConfig {
            weight_bits: 8,
            ..CnvConfig::tiny()
        };
        assert!(StreamPlan::build(&mut w8.build_early_exit(10, &exits, 3)).is_none());
        let a4 = CnvConfig {
            act_bits: 4,
            ..CnvConfig::tiny()
        };
        assert!(StreamPlan::build(&mut a4.build_early_exit(10, &exits, 3)).is_none());
        // A folded conv routed to f32-over-codes keeps its net on the
        // layers; the stem, never folded, does not.
        let mut routed = CnvConfig::tiny().build_early_exit(10, &exits, 3);
        for at in [0, 3] {
            let Layer::Conv(c) = &mut routed.backbone[at] else {
                unreachable!("CNV convs sit at 0 and 3")
            };
            c.prefer_f32_codes = true;
            assert_eq!(StreamPlan::build(&mut routed).is_some(), at == 0, "conv at {at}");
        }
        // An exit in the FC tail attaches behind no conv group.
        let mut late = CnvConfig::tiny().build_early_exit(10, &exits, 3);
        late.exits[1].attach_after = 22;
        assert!(StreamPlan::build(&mut late).is_none());
    }
}
