//! Serving-runtime bench: emits `BENCH_serving.json`.
//!
//! Two tiers validate the `adapex_serve` data plane:
//!
//! 1. **Real kernels** — a width-8 CNV early-exit net serves generated
//!    requests through [`adapex_nn::serve::BatchExecutor`]. The
//!    baseline is the pre-batching serve path: one request at a time,
//!    full depth (the verdict needs all exit confidences on that path).
//!    The optimized path batches `max_batch` requests through the
//!    staged executor at a confidence threshold calibrated on a
//!    held-out split. Both run the `Auto` engine plan, i.e. the
//!    streamlined executor (folded thresholds, packed code maps). The
//!    same [`interleave`] call also times exit-1 and full-depth batches
//!    under `Auto` and under `Int2Always` — the layer-by-layer loop the
//!    streamlined path replaced — so the report carries that before /
//!    after row from one run of one binary. Verdict bit-identity between
//!    all of these is pinned by the `adapex-nn` tests; here only
//!    throughput differs.
//! 2. **Virtual time** — the measured per-exit service costs feed a
//!    [`PointServiceModel`] and millions of generated arrivals run
//!    through [`ServeSim`] under steady / burst / diurnal-ramp
//!    patterns, giving deterministic per-SLO-class latency
//!    distributions at scales the real tier cannot reach. A fourth,
//!    trace-driven leg replays the committed adversarial scenario's
//!    flash-crowd workload shape (from `tests/golden/scenarios/`)
//!    normalized to the gated load, and checks exit-aware admission
//!    never trails FIFO on it.
//!
//! Gates (asserted):
//! - real-tier sustained throughput ≥ 0.9 × the early-exit bound of the
//!   same run, `service_us[last] / Σ share_e · service_us[e]`: what
//!   retiring each request at its exit is worth when every stage costs
//!   what it measures on its own (exit-1 cost from an all-retire-at-
//!   exit-1 pass, full depth from the batch=1 baseline, exit 2 halfway).
//!   Kernel threads are whatever `ADAPEX_THREADS` or the host gives
//!   (`threads` in the report): the conv layers' work floor keeps
//!   batches this small inline, so the default is the fast setting.
//!   Staging, survivor compaction and batching overhead may eat a tenth
//!   of that bound, not more — a bound, not a constant, because the
//!   factor depends on how much of the net sits before the first exit
//!   (≈ 1.4× while the front convs dominated, more once they do not);
//! - virtual steady tier at gated load (70 % of capacity): p99 within
//!   every SLO class budget;
//! - exit-aware admission beats FIFO goodput under burst overload. The
//!   leg runs with queues sized from the measured capacity — full, they
//!   take 1.2 × the tightest SLO budget to drain — because that is what
//!   FIFO loses on: work queued past its deadline and served anyway. The
//!   config's fixed depths (64 + 256) put the leg in that regime only
//!   while a request costs ≥ 63 µs; a faster executor drains them inside
//!   the 20 ms budget, nothing is doomed, and the two policies tie.
//!
//! Every real-tier rate is the fastest of [`ROUNDS`] timed passes of
//! [`REQUESTS`] requests (after one discarded warm-up pass), the six
//! tiers taking turns pass by pass in one [`interleave`] call — the
//! floor, like every other gate here and the repo benchmark: host noise
//! only ever adds time, and this host's slow phases (1.5–2× for two or
//! three seconds, uneven across tiers) moved a median of three by more
//! than the gate's ≈ 10 % margin. The
//! virtual tier runs [`VIRTUAL_S`] seconds per pattern — tens of millions
//! of requests across the patterns. There are no scale knobs: CI runs this.
//! Run with `cargo run --release -p adapex-bench --bin bench-serving`.

use adapex::serve::{
    generate_arrivals, AdmissionPolicy, Arrival, ArrivalPattern, PointServiceModel, ServeConfig,
    ServeReport, ServeSim,
};
use adapex_edge::builtin_scenario;
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::network::EarlyExitNetwork;
use adapex_nn::serve::{BatchExecutor, BatchVerdicts, EnginePlan, ExecutorConfig};
use adapex_nn::layers::Activation;
use adapex_bench::{interleave, write_report, Gated, ReportHeader, Summary};
use adapex_tensor::rng::rng_from_seed;
use rand::RngExt as _;
use serde::Serialize;

const SEED: u64 = 0x5E17E;
const WIDTH: usize = 8;
/// Calibration target: fraction of requests retiring at the first exit.
const TARGET_EXIT1: f64 = 0.85;
/// Gated load for the latency-SLO check, as a fraction of capacity.
const GATED_LOAD: f64 = 0.7;
/// Overload factor for the admission-policy comparison.
const OVERLOAD: f64 = 1.4;
/// Depth of the overload leg's queues: how many of the tightest SLO
/// budget they take to drain when full, at the measured capacity.
const OVERLOAD_QUEUE_BUDGETS: f64 = 1.2;
/// Real-tier requests per pass.
const REQUESTS: usize = 2_048;
/// Timed passes per tier (after the discarded warm-up pass): enough
/// wall time (≈ 5 s) to outlast a slow phase of the host, so that every
/// tier gets a clean pass.
const ROUNDS: usize = 7;
/// Virtual seconds per arrival pattern.
const VIRTUAL_S: f64 = 300.0;

fn build_net() -> EarlyExitNetwork {
    CnvConfig::scaled(WIDTH).build_early_exit(10, &ExitsConfig::paper_default(), 3)
}

/// Pre-gathered request batches (built outside the timed loops).
fn request_batches(net: &EarlyExitNetwork, total: usize, batch: usize) -> Vec<Activation> {
    let mut rng = rng_from_seed(SEED ^ 0xBA7C);
    let per: usize = net.input_dims.iter().product();
    let mut out = Vec::with_capacity(total.div_ceil(batch));
    let mut remaining = total;
    while remaining > 0 {
        let n = remaining.min(batch);
        let mut pixels = vec![0.0f32; n * per];
        for v in pixels.iter_mut() {
            *v = rng.random::<f32>();
        }
        out.push(Activation::new(pixels, n, net.input_dims.clone()));
        remaining -= n;
    }
    out
}

/// Confidence threshold whose exit-1 retirement rate hits
/// `TARGET_EXIT1` on a calibration split: the `1 - target` quantile of
/// exit-1 confidences.
fn calibrate_threshold(net: &EarlyExitNetwork, samples: usize) -> f32 {
    let batches = request_batches(net, samples, 64);
    let mut exec = BatchExecutor::new(
        net,
        &ExecutorConfig {
            threshold: 0.0, // everyone retires at exit 1
            workers: 1,
            engine: EnginePlan::Auto,
        },
    );
    let mut confs = Vec::with_capacity(samples);
    let mut out = BatchVerdicts::default();
    for x in &batches {
        exec.run_batch(x, &mut out);
        confs.extend_from_slice(&out.confidence);
    }
    confs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let idx = ((1.0 - TARGET_EXIT1) * confs.len() as f64) as usize;
    confs[idx.min(confs.len() - 1)]
}

/// One timed configuration: an executor and the batches it serves.
struct Tier<'a> {
    exec: BatchExecutor,
    batches: &'a [Activation],
}

impl<'a> Tier<'a> {
    fn new(net: &EarlyExitNetwork, engine: EnginePlan, threshold: f32, batches: &'a [Activation]) -> Self {
        let cfg = ExecutorConfig {
            threshold,
            workers: 1,
            engine,
        };
        Tier {
            exec: BatchExecutor::new(net, &cfg),
            batches,
        }
    }

    /// One pass of [`REQUESTS`] requests.
    fn pass(&mut self, out: &mut BatchVerdicts) {
        for x in self.batches {
            self.exec.run_batch(x, out);
        }
    }

    /// Requests per exit over one untimed pass (deterministic).
    fn exit_counts(&mut self) -> Vec<u64> {
        let mut out = BatchVerdicts::default();
        let mut counts = vec![0u64; self.exec.num_exits()];
        for x in self.batches {
            self.exec.run_batch(x, &mut out);
            for &e in &out.exit {
                counts[e] += 1;
            }
        }
        counts
    }
}

/// Microseconds per request of a tier's fastest pass (ns per pass).
fn us_per_request(pass: &Summary) -> f64 {
    pass.best / 1e3 / REQUESTS as f64
}

#[derive(Debug, Serialize)]
struct ClassReport {
    name: String,
    budget_us: u64,
    completed: u64,
    dropped_full: u64,
    shed_infeasible: u64,
    queue_high_water: u64,
    p50_us: Option<u64>,
    p99_us: Option<u64>,
}

#[derive(Debug, Serialize)]
struct PatternReport {
    pattern: String,
    rate_rps: f64,
    requests: usize,
    offered: u64,
    completed: u64,
    goodput_rps: Option<f64>,
    mean_batch_fill: Option<f64>,
    deferrals: u64,
    classes: Vec<ClassReport>,
}

#[derive(Debug, Serialize)]
struct ServingBenchReport {
    header: ReportHeader,
    width: usize,
    num_exits: usize,
    threshold: f32,
    exit1_fraction: f64,
    max_batch: usize,
    rounds: usize,
    requests_per_pass: usize,
    /// Requests/s of the fastest pass: batch 1 at full depth,
    /// `max_batch` at the calibrated threshold, and `max_batch` with
    /// every request retiring at exit 1 (the cost behind
    /// `service_us_per_exit[0]`).
    baseline_rps: f64,
    serve_rps: f64,
    exit1_rps: f64,
    /// `serve_rps / baseline_rps` (gate: >= `speedup_gate`).
    speedup: Gated,
    /// `service_us[last] / Σ share_e · service_us[e]` of this run.
    early_exit_bound: f64,
    /// `0.9 × early_exit_bound`.
    speedup_gate: f64,
    /// Microseconds per request at batch `max_batch`, all requests
    /// retiring at exit 1 / none before the final exit, on the
    /// streamlined executor (`EnginePlan::Auto`) ...
    streamlined_us: [f64; 2],
    /// ... and on the layer-by-layer loop (`EnginePlan::Int2Always`)
    /// in the same interleaved call.
    layer_path_us: [f64; 2],
    /// `layer_path_us / streamlined_us` per column.
    streamlined_gain: [f64; 2],
    service_us_per_exit: Vec<u64>,
    capacity_rps: f64,
    virtual_requests_total: u64,
    patterns: Vec<PatternReport>,
    p99_within_budget: bool,
    /// Per-class queue depths of the overload leg: the config's, scaled
    /// to hold `OVERLOAD_QUEUE_BUDGETS` tightest budgets of work.
    overload_queue_capacity: Vec<usize>,
    fifo_goodput_rps: f64,
    exit_aware_goodput_rps: f64,
    admission_gain: f64,
    /// Trace-driven leg: the committed adversarial scenario's workload
    /// shape at gated load (gate: exit-aware goodput ≥ FIFO goodput).
    scenario: String,
    scenario_goodput_rps: f64,
    scenario_fifo_goodput_rps: f64,
}

fn pattern_report(pattern: &str, rate_rps: f64, requests: usize, r: &ServeReport) -> PatternReport {
    PatternReport {
        pattern: pattern.to_string(),
        rate_rps,
        requests,
        offered: r.offered,
        completed: r.completed,
        goodput_rps: r.goodput_rps(),
        mean_batch_fill: r.mean_batch_fill(),
        deferrals: r.deferrals,
        classes: r
            .per_class
            .iter()
            .enumerate()
            .map(|(c, s)| ClassReport {
                name: format!("class{c}"),
                budget_us: 0, // filled by caller with config in scope
                completed: s.completed,
                dropped_full: s.dropped_full,
                shed_infeasible: s.shed_infeasible,
                queue_high_water: s.queue_high_water,
                p50_us: s.p50_us(),
                p99_us: s.p99_us(),
            })
            .collect(),
    }
}

fn main() {
    let config = ServeConfig::paper_default();
    let max_batch = config.max_batch;
    let class_weights = [1.0, 3.0];

    // --- Real tier. -------------------------------------------------
    let net = build_net();
    let threshold = calibrate_threshold(&net, 512);
    eprintln!(
        "serving: width {WIDTH}, calibrated CT {threshold:.4} (target {TARGET_EXIT1})"
    );

    let single = request_batches(&net, REQUESTS, 1);
    let batched = request_batches(&net, REQUESTS, max_batch);

    // Baseline: batch=1, full depth (a threshold above any confidence,
    // so no sample retires early). Optimized: batched, staged early exit
    // at the calibrated CT. Exit-1 service cost on its own: the same
    // batches with a threshold every confidence clears. Then exit-1 and
    // full-depth batches on both executors — streamlined and layer path.
    let auto = EnginePlan::Auto;
    let layers = EnginePlan::Int2Always;
    let mut tiers = [
        Tier::new(&net, auto, 2.0, &single),
        Tier::new(&net, auto, threshold, &batched),
        Tier::new(&net, auto, 0.0, &batched),
        Tier::new(&net, auto, 2.0, &batched),
        Tier::new(&net, layers, 0.0, &batched),
        Tier::new(&net, layers, 2.0, &batched),
    ];
    assert!(tiers[..4].iter().all(|t| t.exec.streamlined()));
    assert!(tiers[4..].iter().all(|t| !t.exec.streamlined()));
    let mut out = BatchVerdicts::default();
    let passes = interleave(tiers.len(), ROUNDS, 1, |tier| tiers[tier].pass(&mut out));
    let [base, serve, exit1, full, layer_exit1, layer_full] = passes[..] else {
        unreachable!("one summary per tier");
    };

    let rps = |pass: &Summary| 1e6 / us_per_request(pass);
    let (baseline_rps, serve_rps, exit1_rps) = (rps(&base), rps(&serve), rps(&exit1));
    let speedup = Gated::best_ratio(&base, &serve);
    let exit_counts = tiers[1].exit_counts();
    let exit1_fraction = exit_counts[0] as f64 / exit_counts.iter().sum::<u64>() as f64;
    let streamlined_us = [us_per_request(&exit1), us_per_request(&full)];
    let layer_path_us = [us_per_request(&layer_exit1), us_per_request(&layer_full)];
    let streamlined_gain = [0, 1].map(|e| layer_path_us[e] / streamlined_us[e]);
    eprintln!(
        "real tier: baseline {baseline_rps:.0} rps, serve {serve_rps:.0} rps \
         ({:.2}x, spread {:.3}), exit-1 {:.0}%",
        speedup.value,
        speedup.spread,
        exit1_fraction * 100.0
    );
    eprintln!(
        "batch-{max_batch} us/request [exit 1, full depth]: streamlined {streamlined_us:.1?}, \
         layer path {layer_path_us:.1?} ({streamlined_gain:.2?}x)"
    );

    // --- Virtual tier from measured per-exit costs. -----------------
    // Two measured endpoints pin the cost model: the exit-1 cost from
    // the all-retire pass and the full-depth cost from the baseline;
    // exit 2 is interpolated halfway.
    let exits = exit_counts.iter().sum::<u64>() as f64;
    let fractions: Vec<f64> = exit_counts
        .iter()
        .map(|&c| (c as f64 / exits).max(1e-6))
        .collect();
    let cfull_us = us_per_request(&base);
    let c1_us = us_per_request(&exit1).clamp(1.0, cfull_us);
    let c2_us = (c1_us + cfull_us) / 2.0;
    let service_us: Vec<u64> = [c1_us, c2_us, cfull_us]
        .iter()
        .map(|&c| (c.round() as u64).max(1))
        .collect();
    let model = PointServiceModel::new(&fractions, service_us.clone(), SEED);
    let mean_service_us: f64 = fractions
        .iter()
        .zip(&service_us)
        .map(|(f, &s)| f * s as f64)
        .sum::<f64>()
        / fractions.iter().sum::<f64>();
    let capacity_rps = 1e6 / mean_service_us;
    let gated_rps = capacity_rps * GATED_LOAD;
    let early_exit_bound = *service_us.last().expect("at least one exit") as f64 / mean_service_us;
    let speedup_gate = 0.9 * early_exit_bound;
    eprintln!(
        "per-exit service {service_us:?} us: early-exit bound {early_exit_bound:.2}x, \
         gate {speedup_gate:.2}x, measured {:.2}x",
        speedup.value
    );

    let mut patterns = Vec::new();
    let mut virtual_total = 0u64;
    let mut p99_within_budget = true;
    for (name, pat, rate) in [
        ("steady", ArrivalPattern::Steady, gated_rps),
        ("burst", ArrivalPattern::Burst { burst_x: 2.5 }, gated_rps),
        ("ramp", ArrivalPattern::DiurnalRamp, gated_rps),
    ] {
        let arrivals =
            generate_arrivals(pat, rate, VIRTUAL_S, &class_weights, SEED ^ rate as u64);
        let report = ServeSim::run(config.clone(), &model, &arrivals);
        virtual_total += report.offered;
        assert!(report.conservation_holds(), "{name}: requests must balance");
        let mut pr = pattern_report(name, rate, arrivals.len(), &report);
        for (c, cr) in pr.classes.iter_mut().enumerate() {
            cr.name = config.classes[c].name.clone();
            cr.budget_us = config.classes[c].budget_us;
            if name == "steady" {
                let ok = cr.p99_us.is_some_and(|p| p <= cr.budget_us);
                p99_within_budget &= ok;
                eprintln!(
                    "steady p99 {:?} vs budget {} ({}) — {}",
                    cr.p99_us,
                    cr.budget_us,
                    cr.name,
                    if ok { "ok" } else { "MISS" }
                );
            }
        }
        patterns.push(pr);
    }

    // --- Trace-driven leg: the committed adversarial scenario. ------
    // The flash-crowd trace (tests/golden/scenarios/) is normalized to
    // its mean rate and re-scaled to the gated load, so the serving
    // tier sees the same *shape* the edge simulator replays: piecewise-
    // steady arrivals per trace period, peaking at ~1.8x the mean.
    let adv = builtin_scenario("adversarial-flash-faults").expect("shipped scenario");
    let trace = adv.workload.generate(adv.seed);
    let mean_rate = trace.rates.iter().sum::<f64>() / trace.rates.len().max(1) as f64;
    let period_s = trace.config.deviation_period_s;
    let period_us = (period_s * 1e6) as u64;
    let mut scenario_arrivals: Vec<Arrival> = Vec::new();
    for (p, &r) in trace.rates.iter().enumerate() {
        let scaled = gated_rps * r / mean_rate;
        let offset = p as u64 * period_us;
        for mut a in generate_arrivals(
            ArrivalPattern::Steady,
            scaled,
            period_s,
            &class_weights,
            SEED ^ 0xADE ^ p as u64,
        ) {
            a.at_us += offset;
            scenario_arrivals.push(a);
        }
    }
    let scenario_report = ServeSim::run(config.clone(), &model, &scenario_arrivals);
    virtual_total += scenario_report.offered;
    assert!(
        scenario_report.conservation_holds(),
        "scenario leg: requests must balance"
    );
    let mut fifo_scn_cfg = config.clone();
    fifo_scn_cfg.admission = AdmissionPolicy::Fifo;
    let scenario_fifo = ServeSim::run(fifo_scn_cfg, &model, &scenario_arrivals);
    let scenario_goodput = scenario_report.goodput_rps().unwrap_or(0.0);
    let scenario_fifo_goodput = scenario_fifo.goodput_rps().unwrap_or(0.0);
    eprintln!(
        "scenario {} at gated load: {} arrivals, goodput {scenario_goodput:.0} rps \
         (fifo {scenario_fifo_goodput:.0})",
        adv.name,
        scenario_arrivals.len()
    );
    let mut pr = pattern_report(
        "scenario-adversarial",
        gated_rps,
        scenario_arrivals.len(),
        &scenario_report,
    );
    for (c, cr) in pr.classes.iter_mut().enumerate() {
        cr.name = config.classes[c].name.clone();
        cr.budget_us = config.classes[c].budget_us;
    }
    patterns.push(pr);

    // --- Admission policies under burst overload. -------------------
    let overload_arrivals = generate_arrivals(
        ArrivalPattern::Burst { burst_x: 3.0 },
        capacity_rps * OVERLOAD,
        VIRTUAL_S,
        &class_weights,
        SEED ^ 0xAD,
    );
    virtual_total += 2 * overload_arrivals.len() as u64;
    // Every queue scaled alike, so that together they hold
    // OVERLOAD_QUEUE_BUDGETS tightest budgets of work at this run's
    // capacity (see the module doc).
    let mut overload_cfg = config.clone();
    let tightest_s = config.classes.iter().map(|c| c.budget_us).min().expect("a class") as f64 / 1e6;
    let depth: usize = config.classes.iter().map(|c| c.queue_capacity).sum();
    let deepen = OVERLOAD_QUEUE_BUDGETS * tightest_s * capacity_rps / depth as f64;
    for class in &mut overload_cfg.classes {
        class.queue_capacity = ((class.queue_capacity as f64 * deepen).ceil() as usize).max(1);
    }
    let overload_queue_capacity: Vec<usize> =
        overload_cfg.classes.iter().map(|c| c.queue_capacity).collect();
    let mut fifo_cfg = overload_cfg.clone();
    fifo_cfg.admission = AdmissionPolicy::Fifo;
    let fifo = ServeSim::run(fifo_cfg, &model, &overload_arrivals);
    let mut aware_cfg = overload_cfg;
    aware_cfg.admission = AdmissionPolicy::ExitAware;
    let aware = ServeSim::run(aware_cfg, &model, &overload_arrivals);
    let fifo_goodput = fifo.goodput_rps().unwrap_or(0.0);
    let aware_goodput = aware.goodput_rps().unwrap_or(0.0);
    let admission_gain = aware_goodput / fifo_goodput.max(f64::MIN_POSITIVE);
    eprintln!(
        "admission under {OVERLOAD}x overload, queues {overload_queue_capacity:?}: \
         fifo {fifo_goodput:.0} rps goodput, exit-aware {aware_goodput:.0} rps \
         ({admission_gain:.2}x)"
    );

    let report = ServingBenchReport {
        header: ReportHeader::capture(),
        width: WIDTH,
        num_exits: tiers[1].exec.num_exits(),
        threshold,
        exit1_fraction,
        max_batch,
        rounds: ROUNDS,
        requests_per_pass: REQUESTS,
        baseline_rps,
        serve_rps,
        exit1_rps,
        speedup,
        early_exit_bound,
        speedup_gate,
        streamlined_us,
        layer_path_us,
        streamlined_gain,
        service_us_per_exit: service_us,
        capacity_rps,
        virtual_requests_total: virtual_total,
        patterns,
        p99_within_budget,
        fifo_goodput_rps: fifo_goodput,
        exit_aware_goodput_rps: aware_goodput,
        overload_queue_capacity,
        admission_gain,
        scenario: adv.name.clone(),
        scenario_goodput_rps: scenario_goodput,
        scenario_fifo_goodput_rps: scenario_fifo_goodput,
    };
    println!("{}", write_report("serving", &report));
    eprintln!("{virtual_total} virtual requests");

    assert!(
        speedup.value >= speedup_gate,
        "serving speedup gate: {:.2}x < {speedup_gate:.2}x \
         (0.9 x the {early_exit_bound:.2}x early-exit bound of this run)",
        speedup.value
    );
    assert!(p99_within_budget, "steady-tier p99 must fit every SLO budget");
    assert!(
        aware_goodput > fifo_goodput,
        "exit-aware admission must beat FIFO goodput under overload \
         ({aware_goodput:.0} vs {fifo_goodput:.0})"
    );
    assert!(
        scenario_goodput >= scenario_fifo_goodput,
        "exit-aware admission must not trail FIFO on the adversarial scenario \
         ({scenario_goodput:.0} vs {scenario_fifo_goodput:.0})"
    );
}
