//! The two serving workloads: `serve-easy` and `serve-hard-burst`.
//!
//! One width-8 CNV early-exit network, one seeded pool of 2048 images,
//! two operating points. `serve-easy` sets the confidence threshold so
//! ~85 % of the pool retires at exit 1 and offers Poisson arrivals;
//! `serve-hard-burst` sets it so 25 % reach the final exit and (almost)
//! nobody leaves at exit 1, and offers on/off bursts. Throughput and
//! per-exit service costs are measured on the real `BatchExecutor` in a
//! closed loop; latency is measured in virtual time, by replaying a
//! fixed arrival schedule through the real data plane (`ServeSim::run`)
//! against those measured costs and the real per-image exit verdicts —
//! wall-clock tail latency does not repeat on a shared two-core host
//! (README.md has the numbers). A traced run adds a wall-clock
//! open-loop phase as an ungated cross-check and a span-instrumented
//! replica of `run_batch` for the per-layer table.

use crate::gen::{image_pool, Shape, UnitSchedule};
use crate::metrics::RATES;
use crate::pins::ServePins;
use crate::stats::{median, quantile, quantile_of_buckets};
use crate::trace::Tracer;
use crate::{probes, Laps, Run};
use adapex::serve::{
    ClassStats, QueuedRequest, ServeConfig, ServeEngine, ServeReport, ServeSim, ServiceModel,
};
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::layers::{Activation, Layer};
use adapex_nn::network::EarlyExitNetwork;
use adapex_nn::serve::{BatchExecutor, BatchVerdicts, EnginePlan, ExecutorConfig};
use adapex_tensor::int2;
use serde::Serialize as _;
use std::hint::black_box;
use std::time::Instant;

/// Images in the pool.
const POOL: usize = 2048;
/// Closed-loop and service-cost batch size (`ServeConfig::max_batch`).
const BATCH: usize = 16;
/// Pool batches in the closed loop at the workload threshold: half the
/// pool, so that every batch repeats a few dozen times inside a run.
const LOOP_BATCHES: usize = 64;
/// Batches in each of the three service-cost segments (their exit
/// composition is uniform, so fewer are representative).
const COST_BATCHES: usize = 16;
/// Share of the pool `serve-easy` retires at exit 1.
const TARGET_EXIT1: f64 = 0.85;
/// Share of the pool `serve-hard-burst` sends to the final exit.
const TARGET_FINAL: f64 = 0.25;
/// Virtual seconds per replay.
const REPLAY_S: f64 = 300.0;
/// Virtual seconds per bisection probe.
const PROBE_S: f64 = 120.0;
/// gold : best-effort.
const CLASS_WEIGHTS: [f64; 2] = [1.0, 3.0];
/// Images in the verdict check.
const VERDICT_IMAGES: usize = 512;
/// Share of offered requests each class must serve inside its budget
/// for a rate to count as inside the SLO.
const SLO_SHARE: f64 = 0.99;

/// What distinguishes the two workloads.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Threshold that sends 25 % to the final exit and (almost) nobody
    /// out at exit 1, instead of the one that retires 85 % at exit 1.
    hard: bool,
    /// Arrival shape.
    shape: Shape,
}

/// `serve-easy`.
pub const EASY: ServeSpec = ServeSpec {
    name: "serve-easy",
    hard: false,
    shape: Shape::Steady,
};

/// `serve-hard-burst`.
pub const HARD_BURST: ServeSpec = ServeSpec {
    name: "serve-hard-burst",
    hard: true,
    shape: Shape::OnOff { on_s: 0.1 },
};

/// Everything built before the first measured call.
struct Setup {
    net: EarlyExitNetwork,
    /// The pool in batches of [`BATCH`], pool order.
    batches: Vec<Activation>,
    /// The workload's confidence threshold.
    threshold: f32,
    /// The `serve-hard-burst` threshold (also picks the exit-2 images).
    hard_threshold: f32,
    /// Exit each pool image takes at `threshold`, per the executor.
    pool_exit: Vec<usize>,
    /// Pool images whose executor exit differs from the one their
    /// full-forward confidences predict (must be 0).
    mispredicted: usize,
    /// Batches made only of images that retire at exit 2 under
    /// `hard_threshold`: a direct measurement of the exit-2 cost.
    exit2_batches: Vec<Activation>,
    schedule: UnitSchedule,
    exec: BatchExecutor,
}

fn executor(net: &EarlyExitNetwork, threshold: f32) -> BatchExecutor {
    BatchExecutor::new(
        net,
        &ExecutorConfig {
            threshold,
            workers: 1,
            engine: EnginePlan::Auto,
        },
    )
}

/// The benchmark's own softmax readout of one logit row: first-max
/// class and its probability. Three passes and no buffer: `exp` is a
/// pure function, so recomputing it gives the same bits.
fn softmax_top(row: &[f32]) -> (usize, f32) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for &v in row {
        sum += (v - max).exp();
    }
    let (mut class, mut conf) = (0, (row[0] - max).exp() / sum);
    for (k, &v) in row.iter().enumerate().skip(1) {
        let p = (v - max).exp() / sum;
        if p > conf {
            (class, conf) = (k, p);
        }
    }
    (class, conf)
}

/// Exit an image with early-exit confidences `(c1, c2)` takes at
/// threshold `t`.
fn exit_at(t: f32, c1: f32, c2: f32) -> usize {
    if c1 >= t {
        0
    } else if c2 >= t {
        1
    } else {
        2
    }
}

fn setup(spec: &ServeSpec, seed: u64, laps: &mut Laps) -> Setup {
    let net = CnvConfig::scaled(8).build_early_exit(10, &ExitsConfig::paper_default(), 3);
    let per: usize = net.input_dims.iter().product();
    let pixels = image_pool(seed, POOL, per);
    let to_batches = |pixels: &[f32]| -> Vec<Activation> {
        pixels
            .chunks_exact(BATCH * per)
            .map(|c| Activation::new(c.to_vec(), BATCH, net.input_dims.clone()))
            .collect()
    };
    let batches = to_batches(&pixels);
    laps.lap();

    // One full forward per image, read out by the benchmark's own
    // softmax, gives both early-exit confidences; both thresholds are
    // quantiles of them, so the exit split is the same at every seed.
    let mut reference = net.clone();
    let mut conf: Vec<(f32, f32)> = Vec::with_capacity(POOL);
    for x in &batches {
        let logits = reference.forward(x, false);
        conf.extend((0..x.n).map(|i| {
            (
                softmax_top(logits[0].sample(i)).1,
                softmax_top(logits[1].sample(i)).1,
            )
        }));
        laps.lap();
    }
    let quantile_of = |mut v: Vec<f32>, q: f64| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("confidences are finite"));
        v[(q * POOL as f64) as usize]
    };
    let easy_threshold = quantile_of(conf.iter().map(|c| c.0).collect(), 1.0 - TARGET_EXIT1);
    let hard_threshold = quantile_of(conf.iter().map(|c| c.0.max(c.1)).collect(), TARGET_FINAL);
    let threshold = if spec.hard {
        hard_threshold
    } else {
        easy_threshold
    };

    let exit2_pixels: Vec<f32> = conf
        .iter()
        .zip(pixels.chunks_exact(per))
        .filter(|(c, _)| exit_at(hard_threshold, c.0, c.1) == 1)
        .flat_map(|(_, img)| img.iter().copied())
        .collect();
    let exit2_batches = to_batches(&exit2_pixels);
    laps.lap();

    // The exits the replays use are the real executor's; the pass also
    // warms buffer pools and weight caches.
    let mut exec = executor(&net, threshold);
    let mut out = BatchVerdicts::default();
    let mut pool_exit = Vec::with_capacity(POOL);
    for x in &batches {
        exec.run_batch(x, &mut out);
        pool_exit.extend_from_slice(&out.exit);
        laps.lap();
    }
    let mispredicted = pool_exit
        .iter()
        .zip(&conf)
        .filter(|(&e, c)| e != exit_at(threshold, c.0, c.1))
        .count();
    Setup {
        net,
        batches,
        threshold,
        hard_threshold,
        pool_exit,
        mispredicted,
        exit2_batches,
        schedule: UnitSchedule::new(seed, &CLASS_WEIGHTS),
        exec,
    }
}

/// The floor estimator. Host interference here comes in phases that
/// last seconds and slow everything by up to half, so (1) every timed
/// item — a batch at the workload threshold, a batch for one of the
/// three service costs, a traced replica batch — sits in one playlist
/// that is cycled for the whole run, which spreads each item's repeats
/// over every phase the run sees and exposes all quantities to the same
/// noise; and (2) each item is charged its *fastest* repeat, since
/// interference only ever adds time. Summed over a segment of the
/// playlist that is the wall time of one undisturbed pass over it, with
/// every batch counted once: the exit composition is the segment's own,
/// not whatever a quantile of per-batch times would select.
struct Floors {
    /// Fastest wall of each playlist item, seconds.
    best: Vec<f64>,
    /// Completed passes over the playlist.
    passes: usize,
    /// Wall time of the whole loop, seconds.
    wall_s: f64,
}

impl Floors {
    /// How much slower the loop ran than its floors say it could.
    fn disturbance(&self) -> f64 {
        self.wall_s / (self.best.iter().sum::<f64>() * self.passes as f64) - 1.0
    }
}

/// Microseconds per batch over a playlist segment's floors.
fn us_per_batch(best: &[f64]) -> f64 {
    best.iter().sum::<f64>() * 1e6 / best.len() as f64
}

/// Closed loop: calls `run_one(i)` for `i` in `0..n`, cyclically, for
/// `budget_s` seconds and at least two whole passes.
fn time_passes(n: usize, budget_s: f64, mut run_one: impl FnMut(usize)) -> Floors {
    let mut best = vec![f64::INFINITY; n];
    let mut passes = 0;
    let start = Instant::now();
    while passes < 2 || start.elapsed().as_secs_f64() < budget_s {
        for (i, slot) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            run_one(i);
            *slot = slot.min(t0.elapsed().as_secs_f64());
        }
        passes += 1;
    }
    Floors {
        best,
        passes,
        wall_s: start.elapsed().as_secs_f64(),
    }
}

fn time_executor(exec: &mut BatchExecutor, batches: &[Activation], budget_s: f64) -> Floors {
    let mut out = BatchVerdicts::default();
    time_passes(batches.len(), budget_s, |i| {
        exec.run_batch(black_box(&batches[i]), &mut out);
        black_box(&out);
    })
}

/// What the interleaved closed loop measured.
struct ClosedLoop {
    /// Microseconds per batch at the workload threshold.
    offline_us: f64,
    /// Per-exit service cost, microseconds per sample at batch 16:
    /// exit 1 from threshold 0, exit 2 from batches of images known to
    /// retire there, exit 3 from a threshold no confidence reaches.
    costs: [f64; 3],
    /// Microseconds per batch of the traced replica on the workload
    /// segment's batches (traced runs only).
    replica_us: Option<f64>,
    /// Replica batches whose verdicts differ from `run_batch`'s.
    replica_mismatches: u64,
    passes: usize,
    disturbance: f64,
}

/// The interleaved closed loop on the real executor (see [`Floors`]).
fn closed_loop(s: &mut Setup, tracer: &mut Tracer, budget_s: f64) -> ClosedLoop {
    let workload = &s.batches[..LOOP_BATCHES];
    let plain = &s.batches[..COST_BATCHES];
    let exit2 = &s.exit2_batches[..COST_BATCHES];
    let mut exec1 = executor(&s.net, 0.0);
    let mut exec2 = executor(&s.net, s.hard_threshold);
    let mut exec3 = executor(&s.net, 2.0);
    let mut replica = tracer.enabled().then(|| Replica::new(&s.net));
    let (mut out, mut real) = (BatchVerdicts::default(), BatchVerdicts::default());

    // One untimed, untraced pass warms the replica's caches and checks
    // its verdicts against `run_batch`.
    let mut replica_mismatches = 0;
    if let Some(r) = replica.as_mut() {
        let mut untraced = Tracer::new(false);
        for x in workload {
            r.run_batch(x, s.threshold, &mut untraced, 0, &mut out);
            s.exec.run_batch(x, &mut real);
            replica_mismatches += u64::from(out != real);
        }
    }

    // The playlist: (segment, batch). Segments 0-3 run on an executor
    // of their own, segment 4 is the traced replica.
    const REPLICA: usize = 4;
    let mut playlist: Vec<(usize, &Activation)> = Vec::new();
    playlist.extend(workload.iter().map(|x| (0, x)));
    playlist.extend(plain.iter().map(|x| (1, x)));
    playlist.extend(exit2.iter().map(|x| (2, x)));
    playlist.extend(plain.iter().map(|x| (3, x)));
    if replica.is_some() {
        playlist.extend(workload.iter().map(|x| (REPLICA, x)));
    }
    let mut execs = [&mut s.exec, &mut exec1, &mut exec2, &mut exec3];
    let mut batch_id = 0;
    let floors = time_passes(playlist.len(), budget_s, |i| {
        let (segment, x) = playlist[i];
        match replica.as_mut() {
            Some(r) if segment == REPLICA => {
                r.run_batch(black_box(x), s.threshold, tracer, batch_id, &mut out);
                batch_id += 1;
            }
            _ => execs[segment].run_batch(black_box(x), &mut out),
        }
        black_box(&out);
    });
    let segment_us = |k: usize| {
        let best: Vec<f64> = playlist
            .iter()
            .zip(&floors.best)
            .filter(|((segment, _), _)| *segment == k)
            .map(|(_, &wall)| wall)
            .collect();
        us_per_batch(&best)
    };
    ClosedLoop {
        offline_us: segment_us(0),
        costs: [1, 2, 3].map(|k| segment_us(k) / BATCH as f64),
        replica_us: replica.is_some().then(|| segment_us(REPLICA)),
        replica_mismatches,
        passes: floors.passes,
        disturbance: floors.disturbance(),
    }
}

/// The replay's service model: request `id` is pool image `id mod
/// POOL` and takes the exit the real executor gave that image; each
/// exit costs what the closed loop measured.
struct PoolModel<'a> {
    exits: &'a [usize],
    cost_us: [u64; 3],
}

impl ServiceModel for PoolModel<'_> {
    fn num_exits(&self) -> usize {
        self.cost_us.len()
    }
    fn exit_of(&self, id: u64) -> usize {
        self.exits[id as usize % self.exits.len()]
    }
    fn service_us(&self, exit: usize) -> u64 {
        self.cost_us[exit]
    }
}

fn whole_us(costs: [f64; 3]) -> [u64; 3] {
    costs.map(|c| c.round().max(1.0) as u64)
}

/// One virtual-time replay; also returns host nanoseconds per request.
fn replay(
    s: &mut Setup,
    shape: Shape,
    costs: [f64; 3],
    rate: f64,
    horizon_s: f64,
) -> (ServeReport, f64) {
    let arrivals = s.schedule.arrivals(shape, rate, horizon_s);
    let model = PoolModel {
        exits: &s.pool_exit,
        cost_us: whole_us(costs),
    };
    let t0 = Instant::now();
    let report = ServeSim::run(ServeConfig::paper_default(), &model, &arrivals);
    let host_ns_per_req = t0.elapsed().as_nanos() as f64 / arrivals.len().max(1) as f64;
    (report, host_ns_per_req)
}

/// Bucket bounds of the serving report's latency histogram (8
/// sub-buckets per power of two, values below 8 exact), paired with the
/// counts read from its serialized form.
fn histogram_buckets(stats: &ClassStats) -> Result<Vec<(f64, f64, u64)>, String> {
    let value = stats.histogram.to_value();
    let counts = value
        .get("counts")
        .and_then(|c| c.as_array())
        .ok_or("ClassStats.histogram no longer serializes a `counts` array")?;
    let mut out = Vec::new();
    for (i, c) in counts.iter().enumerate() {
        let count = c.as_u64().ok_or("histogram count is not an integer")?;
        if count == 0 {
            continue;
        }
        let (lo, width) = if i < 8 {
            (i as u64, 1)
        } else {
            let (b, sub) = (i as u64 / 8, i as u64 % 8);
            let width = 1u64 << b.saturating_sub(3);
            ((1u64 << b) + sub * width, width)
        };
        out.push((lo as f64, (lo + width) as f64, count));
    }
    // The layout above is private to the program; cross-check it
    // against the program's own readout so a change fails loudly.
    let total: u64 = out.iter().map(|b| b.2).sum();
    if total != stats.completed {
        return Err(format!(
            "histogram holds {total} samples, class completed {}",
            stats.completed
        ));
    }
    if let Some(p99) = stats.p99_us() {
        let rank = ((0.99 * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        let floor = out.iter().find(|b| {
            seen += b.2;
            seen >= rank
        });
        if floor.map(|b| b.0 as u64) != Some(p99) {
            return Err(format!(
                "histogram bucket layout changed: p99_us() = {p99}, expected floor {floor:?}"
            ));
        }
    }
    Ok(out)
}

/// Latency quantiles in milliseconds over `classes`, interpolated
/// inside the histogram bucket (the program's own readout snaps to
/// bucket floors 12.5 % apart). Still only good to about half a
/// bucket, which is why the gated latencies are exact means.
fn latency_ms(classes: &[ClassStats], qs: &[f64]) -> Result<Vec<f64>, String> {
    let mut buckets = Vec::new();
    for c in classes {
        buckets.extend(histogram_buckets(c)?);
    }
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bounds are finite"));
    qs.iter()
        .map(|&q| {
            quantile_of_buckets(&buckets, q)
                .map(|us| us / 1e3)
                .ok_or_else(|| "no request completed".to_string())
        })
        .collect()
}

/// The SLO rule of the rate sweep: every class serves at least 99 % of
/// what it was offered inside its budget (a refused or late request
/// misses, so this is "p99 within budget" with failures counted), at
/// most 0.1 % of all requests are refused, and no backlog is left.
/// Exact counts, no histogram: the rule is continuous in the rate.
fn in_slo(r: &ServeReport, cfg: &ServeConfig) -> bool {
    let served = r
        .per_class
        .iter()
        .all(|c| c.completed_in_budget as f64 >= SLO_SHARE * c.offered as f64);
    let refused = (r.dropped_full + r.shed_infeasible) as f64 / r.offered.max(1) as f64;
    served && refused <= 0.001 && r.residual <= cfg.max_batch as u64
}

/// Highest rate that meets [`in_slo`] between `lo` and `hi`. The rule
/// is not quite monotone in the rate (the gold class dips where the
/// on-phase first reaches capacity, before admission control bites), so
/// the search walks a 4 % grid down from `hi` to the first rate that
/// passes and only then bisects, to 0.25 %, between it and the failing
/// grid point above. Every probe scales the same unit schedule, so two
/// probes differ in the rate and in nothing else. `None` when even `lo`
/// fails.
fn max_rate_in_slo(s: &mut Setup, shape: Shape, costs: [f64; 3], lo: f64, hi: f64) -> Option<f64> {
    let cfg = ServeConfig::paper_default();
    let ok = |rate: f64, s: &mut Setup| in_slo(&replay(s, shape, costs, rate, PROBE_S).0, &cfg);
    let steps = ((hi / lo).ln() / 1.04f64.ln()).ceil() as i32;
    let mut above = hi;
    let mut passing = None;
    for k in (0..=steps).rev() {
        let rate = (lo * 1.04f64.powi(k)).min(hi);
        if ok(rate, s) {
            passing = Some(rate);
            break;
        }
        above = rate;
    }
    let (mut lo, mut hi) = (passing?, above);
    while (hi - lo) / lo > 0.0025 {
        let mid = 0.5 * (lo + hi);
        if ok(mid, s) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// The benchmark's own verdict rule over a batch-1 full forward: first
/// exit whose confidence clears the threshold, final exit otherwise.
fn reference_verdict(logits: &[Activation], threshold: f32) -> (usize, usize, f32) {
    let mut verdict = (0, 0, 0.0);
    for (e, l) in logits.iter().enumerate() {
        let (class, conf) = softmax_top(l.sample(0));
        verdict = (e, class, conf);
        if conf >= threshold {
            break;
        }
    }
    verdict
}

/// Batched staged verdicts against a batch-1 full forward judged by
/// [`reference_verdict`]: exit, class and confidence bits must agree.
fn verdict_mismatches(s: &mut Setup) -> u64 {
    let mut reference = s.net.clone();
    let per = s.batches[0].sample_len();
    let mut out = BatchVerdicts::default();
    let mut mismatches = 0;
    for x in s.batches.iter().take(VERDICT_IMAGES / BATCH) {
        s.exec.run_batch(x, &mut out);
        for i in 0..x.n {
            let single =
                Activation::new(x.data[i * per..(i + 1) * per].to_vec(), 1, x.dims.clone());
            let (exit, class, conf) =
                reference_verdict(&reference.forward(&single, false), s.threshold);
            let same = out.exit[i] == exit
                && out.class[i] == class
                && out.confidence[i].to_bits() == conf.to_bits();
            mismatches += u64::from(!same);
        }
    }
    mismatches
}

/// Span-instrumented replica of the executor's staged forward: the
/// same calls in the same order around `Layer::forward_owned`, with the
/// benchmark's own softmax and compaction in between, so the span table
/// splits a batch's wall time by layer from outside the program.
struct Replica {
    net: EarlyExitNetwork,
    backbone_names: Vec<&'static str>,
    exit_names: Vec<Vec<&'static str>>,
}

fn layer_name(layer: &Layer, conv: &'static str, linear: &'static str) -> &'static str {
    match layer {
        Layer::Conv(_) => conv,
        Layer::Linear(_) => linear,
        Layer::Pool(_) => "pool",
        Layer::Norm(_) => "norm",
        Layer::Act(_) => "act",
        Layer::Flatten => "flatten",
    }
}

impl Replica {
    fn new(net: &EarlyExitNetwork) -> Self {
        let mut net = net.clone();
        // `EnginePlan::Auto`, as the executor applies it.
        for l in net
            .backbone
            .iter_mut()
            .chain(net.exits.iter_mut().flat_map(|e| e.layers.iter_mut()))
        {
            if let Layer::Conv(c) = l {
                c.prefer_f32_codes = !int2::conv_engine_profitable(c.c_out, c.geom.kernel);
            }
        }
        const CONVS: [&str; 6] = ["conv1", "conv2", "conv3", "conv4", "conv5", "conv6"];
        let mut convs = CONVS.iter();
        let backbone_names = net
            .backbone
            .iter()
            .map(|l| match l {
                Layer::Conv(_) => *convs.next().expect("CNV has six backbone convs"),
                other => layer_name(other, "", "fc"),
            })
            .collect();
        const EXIT_CONVS: [&str; 2] = ["exit1_conv", "exit2_conv"];
        let exit_names = net
            .exits
            .iter()
            .zip(EXIT_CONVS)
            .map(|(e, conv)| {
                e.layers
                    .iter()
                    .map(|l| layer_name(l, conv, "exit_fc"))
                    .collect()
            })
            .collect();
        Replica {
            net,
            backbone_names,
            exit_names,
        }
    }

    fn run_batch(
        &mut self,
        x: &Activation,
        threshold: f32,
        tracer: &mut Tracer,
        id: u64,
        out: &mut BatchVerdicts,
    ) {
        let root = tracer.enter("run_batch", id);
        let n = x.n;
        out.exit.clear();
        out.exit.resize(n, 0);
        out.class.clear();
        out.class.resize(n, 0);
        out.confidence.clear();
        out.confidence.resize(n, 0.0);
        let mut cur = x.clone();
        let mut alive: Vec<usize> = (0..n).collect();
        let mut seg_start = 0;
        let final_exit = self.net.exits.len();
        for ei in 0..final_exit {
            let attach = self.net.exits[ei].attach_after;
            for j in seg_start..=attach {
                let g = tracer.enter(self.backbone_names[j], id);
                cur = self.net.backbone[j].forward_owned(cur, false);
                tracer.exit(g);
            }
            seg_start = attach + 1;
            let mut logits = cur.clone();
            for (k, l) in self.net.exits[ei].layers.iter_mut().enumerate() {
                let g = tracer.enter(self.exit_names[ei][k], id);
                logits = l.forward_owned(logits, false);
                tracer.exit(g);
            }
            let sample_len = cur.sample_len();
            let mut keep = 0;
            for s in 0..logits.n {
                let (class, conf) = softmax_top(logits.sample(s));
                let local = alive[s];
                if conf >= threshold {
                    out.exit[local] = ei;
                    out.class[local] = class;
                    out.confidence[local] = conf;
                } else {
                    if keep != s {
                        cur.data
                            .copy_within(s * sample_len..(s + 1) * sample_len, keep * sample_len);
                        alive[keep] = local;
                    }
                    keep += 1;
                }
            }
            if keep == 0 {
                tracer.exit(root);
                return;
            }
            cur.data.truncate(keep * sample_len);
            cur.n = keep;
            alive.truncate(keep);
        }
        for j in seg_start..self.net.backbone.len() {
            let g = tracer.enter(self.backbone_names[j], id);
            cur = self.net.backbone[j].forward_owned(cur, false);
            tracer.exit(g);
        }
        for (s, &local) in alive.iter().enumerate() {
            let (class, conf) = softmax_top(cur.sample(s));
            out.exit[local] = final_exit;
            out.class[local] = class;
            out.confidence[local] = conf;
        }
        tracer.exit(root);
    }
}

/// Wall-clock open loop at `rate` for `budget_s` seconds: a
/// single-threaded driver around the real `ServeEngine` and
/// `run_batch`, following the batcher state machine of `ServeSim::run`
/// on the wall clock. Latency runs from the instant a request was *due*
/// to the end of its batch, so a stall is charged to every request
/// queued behind it. Returns `(latencies_ms, generator_lateness_us)`.
fn wall_open_loop(
    s: &mut Setup,
    shape: Shape,
    costs: [f64; 3],
    rate: f64,
    budget_s: f64,
) -> (Vec<f64>, Vec<f64>) {
    let cfg = ServeConfig::paper_default();
    let arrivals = s.schedule.arrivals(shape, rate, budget_s);
    let exits = costs.len();
    let mut engine = ServeEngine::new(
        cfg.clone(),
        whole_us(costs).to_vec(),
        vec![1.0 / exits as f64; exits],
    );
    let mut batch = Activation::zeros(cfg.max_batch, &s.net.input_dims);
    let mut out = BatchVerdicts::default();
    let (mut latencies, mut lateness) = (
        Vec::with_capacity(arrivals.len()),
        Vec::with_capacity(arrivals.len()),
    );
    let origin = Instant::now();
    let now_us = || origin.elapsed().as_micros() as u64;
    let mut next = 0;
    let offer_due = |engine: &mut ServeEngine, next: &mut usize, lateness: &mut Vec<f64>| {
        let now = now_us();
        while *next < arrivals.len() && arrivals[*next].at_us <= now {
            let a = arrivals[*next];
            engine.offer(*next as u64, a.class, a.at_us);
            lateness.push((now - a.at_us) as f64);
            *next += 1;
        }
    };
    loop {
        offer_due(&mut engine, &mut next, &mut lateness);
        if engine.queued() == 0 {
            if next >= arrivals.len() {
                break;
            }
            std::hint::spin_loop();
            continue;
        }
        // Window: open now, close at the deadline or when full.
        let deadline = now_us() + cfg.batch_deadline_us;
        while engine.queued() < cfg.max_batch && now_us() < deadline {
            offer_due(&mut engine, &mut next, &mut lateness);
            std::hint::spin_loop();
        }
        let members: Vec<QueuedRequest> = engine.close_batch(now_us());
        if members.is_empty() {
            continue;
        }
        batch.n = members.len();
        batch.data.clear();
        for m in &members {
            let img = m.id as usize % POOL;
            batch
                .data
                .extend_from_slice(s.batches[img / BATCH].sample(img % BATCH));
        }
        s.exec.run_batch(&batch, &mut out);
        let finish = now_us();
        engine.complete_batch(&members, finish, &out.exit);
        latencies.extend(members.iter().map(|m| (finish - m.arrival_us) as f64 / 1e3));
    }
    (latencies, lateness)
}

fn exit_shares(exits: &[usize]) -> [f64; 3] {
    let mut share = [0.0; 3];
    for &e in exits {
        share[e] += 1.0 / exits.len() as f64;
    }
    share
}

fn check_exit_split(run: &mut Run, spec: &ServeSpec, pins: &ServePins, share: [f64; 3]) {
    for (e, &got) in share.iter().enumerate() {
        let (lo, hi) = (pins.exit_share_min[e], pins.exit_share_max[e]);
        if got < lo || got > hi {
            run.report.fail(format!(
                "pin serve.{}.exit_share[{e}] drifted: {got:.4} outside [{lo}, {hi}] — the workload changed, its numbers compare with nothing",
                spec.name
            ));
        }
    }
}

/// Runs one serve workload.
pub fn run(spec: &ServeSpec, run: &mut Run) {
    let pins = run
        .pins
        .serve
        .get(spec.name)
        .cloned()
        .expect("serve workloads are pinned");
    let t = run.seconds;
    let traced = run.tracer.enabled();

    let mut s = run.timed_setup(|seed, laps| setup(spec, seed, laps));

    let share = exit_shares(&s.pool_exit);
    check_exit_split(run, spec, &pins, share);
    if s.mispredicted > 0 {
        run.report.fail(format!(
            "{} pool images leave at another exit than their full-forward confidences predict",
            s.mispredicted
        ));
    }

    // Closed loop and service costs on the real executor.
    let measured = closed_loop(
        &mut s,
        &mut run.tracer,
        if traced { 0.55 * t } else { 0.95 * t },
    );
    let costs = measured.costs;
    let offline_rps = BATCH as f64 * 1e6 / measured.offline_us;

    // Virtual-time replays at the three frozen rates.
    let mut reports = Vec::new();
    let mut host_ns_per_req = 0.0;
    for &rate in &pins.rates_rps {
        let (r, host) = replay(&mut s, spec.shape, costs, rate, REPLAY_S);
        run.report.check(r.conservation_holds(), || {
            format!("replay at {rate} rps: offered != completed + dropped + shed + residual")
        });
        host_ns_per_req = host;
        reports.push(r);
    }
    let lat = |run: &mut Run, classes: &[ClassStats], qs: &[f64]| -> Vec<f64> {
        latency_ms(classes, qs).unwrap_or_else(|e| {
            run.report.fail(format!("latency histogram: {e}"));
            vec![f64::MAX; qs.len()]
        })
    };
    let r1 = lat(run, &reports[0].per_class, &[0.5, 0.99, 0.999]);
    let r2 = lat(run, &reports[1].per_class, &[0.5, 0.99, 0.999]);
    let max_rate = max_rate_in_slo(
        &mut s,
        spec.shape,
        costs,
        pins.rates_rps[0],
        pins.rates_rps[2] * 1.5,
    );
    if max_rate.is_none() {
        run.report.fail(format!(
            "r1 = {} rps does not meet the SLO rule",
            pins.rates_rps[0]
        ));
    }
    let goodput_r3 = reports[2].goodput_rps().unwrap_or(0.0);
    let failed_share =
        |r: &ServeReport| (r.offered - r.completed_in_budget) as f64 / r.offered.max(1) as f64;

    // Operations are the deterministic ones: the images of the verdict
    // check and the conservation checks above. Requests that miss their
    // budget in a replay are not counted as failed operations — they
    // depend on the measured service costs, so on a slow host even r1
    // would "fail" — and are reported as `failed_share.r*` instead.
    let mismatches = verdict_mismatches(&mut s);
    run.report.ops(VERDICT_IMAGES as u64, mismatches);
    if mismatches > 0 {
        run.report.fail(format!(
            "{mismatches} of {VERDICT_IMAGES} staged verdicts differ from the batch-1 full forward"
        ));
    }

    run.report.set("rate_per_s", offline_rps);
    let throughput_r3 = reports[2].throughput_rps().unwrap_or(0.0);
    run.report.set("loaded_rate_per_s", throughput_r3);
    // The gated latency is the exact mean; the percentiles beside it are
    // read off 12.5 %-wide histogram buckets and wander by half a bucket
    // as the lumps of the latency distribution cross bucket edges.
    let mean_ms = |r: &ServeReport| {
        let sum_us: u64 = r.per_class.iter().map(|c| c.latency_sum_us).sum();
        sum_us as f64 / r.completed.max(1) as f64 / 1e3
    };
    run.report.set("light_ms", mean_ms(&reports[0]));
    run.report.set("heavy_ms", mean_ms(&reports[1]));
    run.report.alias("mean_ms.r1", mean_ms(&reports[0]), "ms");
    run.report.alias("mean_ms.r2", mean_ms(&reports[1]), "ms");
    run.report.alias("offline_rps", offline_rps, "req/s");
    run.report
        .alias("max_rate_in_slo_rps", max_rate.unwrap_or(0.0), "req/s");
    run.report.alias("p50_ms.r1", r1[0], "ms");
    run.report.alias("p99_ms.r1", r1[1], "ms");
    run.report.alias("p99.9_ms.r1", r1[2], "ms");
    run.report.alias("p50_ms.r2", r2[0], "ms");
    run.report.alias("p99_ms.r2", r2[1], "ms");
    run.report.alias("p99.9_ms.r2", r2[2], "ms");
    run.report
        .alias("throughput_rps.r3", throughput_r3, "req/s");
    run.report.alias("goodput_rps.r3", goodput_r3, "req/s");
    run.report
        .alias("failed_share.r1", failed_share(&reports[0]), "ratio");
    run.report
        .alias("failed_share.r2", failed_share(&reports[1]), "ratio");
    run.report
        .alias("failed_share.r3", failed_share(&reports[2]), "ratio");
    run.report.alias("threshold", s.threshold as f64, "ratio");
    for (e, &got) in share.iter().enumerate() {
        run.report
            .alias(format!("exit_share.exit{}", e + 1), got, "ratio");
    }
    run.report
        .alias("closed_loop_passes", measured.passes as f64, "count");
    run.report
        .alias("closed_loop_disturbance", measured.disturbance, "ratio");

    // Per-layer values that need no spans: counts and costs.
    let loop_share = exit_shares(&s.pool_exit[..LOOP_BATCHES * BATCH]);
    for e in 0..3 {
        run.report
            .set(format!("nn.serve.service_us.exit{}", e + 1), costs[e]);
        run.report
            .set(format!("nn.serve.exit_share.exit{}", e + 1), share[e]);
    }
    let predicted_us: f64 = (0..3).map(|e| loop_share[e] * costs[e]).sum::<f64>() * BATCH as f64;
    run.report.set(
        "nn.serve.model_error",
        (predicted_us / measured.offline_us - 1.0).abs(),
    );
    run.report.set("nn.serve.batch_us.b16", measured.offline_us);
    for (r, name) in reports.iter().zip(RATES) {
        run.report.set(
            format!("core.serve.batch_fill.{name}"),
            r.mean_batch_fill().unwrap_or(0.0),
        );
        run.report
            .set(format!("core.serve.deferrals.{name}"), r.deferrals as f64);
        run.report.set(
            format!("core.serve.dropped_full.{name}"),
            r.dropped_full as f64,
        );
        run.report.set(
            format!("core.serve.shed_infeasible.{name}"),
            r.shed_infeasible as f64,
        );
        run.report.set(
            format!("core.serve.in_budget_share.{name}"),
            1.0 - failed_share(r),
        );
        for (class, key) in r.per_class.iter().zip(["gold_p99_ms", "be_p99_ms"]) {
            let p99 = latency_ms(std::slice::from_ref(class), &[0.99]).map_or(0.0, |v| v[0]);
            run.report.set(format!("core.serve.{key}.{name}"), p99);
        }
    }
    for (class, key) in reports[1].per_class.iter().zip(["gold", "be"]) {
        run.report.set(
            format!("core.serve.queue_high_water.{key}"),
            class.queue_high_water as f64,
        );
    }
    run.report
        .set("core.serve.host_ns_per_req", host_ns_per_req);
    run.report.set("core.serve.p50_ms.r1", r1[0]);
    run.report.set("core.serve.goodput_rps.r3", goodput_r3);
    run.report
        .set("core.serve.max_rate_in_slo_rps", max_rate.unwrap_or(0.0));
    run.report
        .set("core.serve.failed_share.r2", failed_share(&reports[1]));

    if !traced {
        return;
    }

    // The replica's spans fill the layer table.
    let batches = (measured.passes * LOOP_BATCHES) as f64;
    for (name, row) in run.tracer.self_times() {
        let us = row.self_ns as f64 / 1e3;
        if name == "run_batch" {
            run.report.set("nn.serve.stage_self_us", us / batches);
        } else {
            run.report.set(
                format!("nn.layers.{name}.us_per_sample"),
                us / (batches * BATCH as f64),
            );
        }
    }
    run.report.set(
        "nn.serve.verdict_mismatch",
        (mismatches + measured.replica_mismatches) as f64,
    );
    if measured.replica_mismatches > 0 {
        run.report.fail(format!(
            "{} replica batches disagree with run_batch",
            measured.replica_mismatches
        ));
    }
    let replica_us = measured.replica_us.expect("traced runs time the replica");
    run.report.set(
        "bench.trace_overhead",
        replica_us / measured.offline_us - 1.0,
    );

    // Smaller batches of the same images, for the batching gain.
    let per = s.batches[0].sample_len();
    for (b, name) in [(1, "b1"), (4, "b4")] {
        let small: Vec<Activation> = s.batches[..4]
            .iter()
            .flat_map(|x| x.data.chunks_exact(b * per))
            .map(|c| Activation::new(c.to_vec(), b, s.net.input_dims.clone()))
            .collect();
        let floors = time_executor(&mut s.exec, &small, 0.04 * t);
        run.report.set(
            format!("nn.serve.batch_us.{name}"),
            us_per_batch(&floors.best),
        );
    }

    probes::tensor(run, 0.06 * t);
    let before = int2::direct_conv_calls();
    s.exec
        .run_batch(&s.batches[0], &mut BatchVerdicts::default());
    run.report.set(
        "tensor.int2.direct_conv_calls",
        (int2::direct_conv_calls() - before) as f64,
    );

    // Wall-clock cross-check at r2, beside the virtual numbers.
    let (wall_lat, late) = wall_open_loop(&mut s, spec.shape, costs, pins.rates_rps[1], 0.20 * t);
    run.report.set("core.serve.wall_p50_ms", median(&wall_lat));
    run.report
        .set("core.serve.wall_p99_ms", quantile(&wall_lat, 0.99));
    run.report
        .set("core.serve.wall_gen_late_p99_us", quantile(&late, 0.99));
    run.report.alias("virtual_p50_ms.r2", r2[0], "ms");
    run.report.alias("virtual_p99_ms.r2", r2[1], "ms");
    run.report.alias(
        "wall_over_virtual_p50.r2",
        median(&wall_lat) / r2[0],
        "ratio",
    );
}
