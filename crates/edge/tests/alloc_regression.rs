//! Allocation regression tests for the edge serving stack.
//!
//! A counting global allocator wraps `System`. Two hot loops are pinned:
//!
//! 1. The event-driven simulation: a full `EdgeSimulation` run is
//!    measured at two durations. All per-run buffers (trace samples,
//!    event heap) are pre-sized from `SimConfig` and the buffer model
//!    lives in fixed arrays, so the allocation count must be
//!    **independent of the simulated duration**: growing the run 8× in
//!    simulated time adds ticks, monitor fires and rate segments, and
//!    not one allocation. The same engine is then held to the stronger
//!    pin its segment-level physics allows: at an equal *event* count,
//!    8× the ticks may not cost 1.5× the host time.
//!
//! 2. The inference data plane the simulated server models:
//!    `BatchExecutor::run_batch` over an early-exit CNV on the direct
//!    int2 conv route must be zero-alloc per batch once the
//!    pooled workspaces (including the once-packed image bit-planes)
//!    are warm.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex_edge::{EdgeSimulation, FaultPlan, RunSpec, SimConfig, Traffic};
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::layers::Activation;
use adapex_nn::serve::{BatchExecutor, BatchVerdicts, EnginePlan, ExecutorConfig};
use adapex_tensor::int2;
use adapex_tensor::rng::{normal_tensor, rng_from_seed};
use finn_dataflow::ResourceUsage;

/// Counts every allocator entry point on the calling thread; frees are
/// not counted. Per-thread so the harness running other tests'
/// threads cannot pollute the measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn thread_allocs() -> usize {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn entry(id: usize, acc: f64, ips: f64) -> LibraryEntry {
    LibraryEntry {
        id,
        pruning_rate: 0.4 * id as f64,
        achieved_rate: 0.4 * id as f64,
        prune_exits: false,
        mean_exit_accuracy: acc,
        final_exit_accuracy: acc,
        resources: ResourceUsage::zero(),
        exit_resources: ResourceUsage::zero(),
        utilization: (0.1, 0.1, 0.1, 0.0),
        static_ips: ips,
        latency_to_exit_ms: vec![1.0],
        points: vec![
            OperatingPoint {
                confidence_threshold: 0.9,
                accuracy: acc,
                exit_fractions: vec![1.0],
                ips,
                avg_latency_ms: 2.0,
                power_w: 1.2,
                energy_per_inference_mj: 1.2 / ips * 1000.0,
            },
            OperatingPoint {
                confidence_threshold: 0.3,
                accuracy: acc - 0.05,
                exit_fractions: vec![1.0],
                ips: ips * 1.5,
                avg_latency_ms: 1.5,
                power_w: 1.2,
                energy_per_inference_mj: 1.2 / (ips * 1.5) * 1000.0,
            },
        ],
    }
}

fn manager() -> RuntimeManager {
    RuntimeManager::new(
        Library {
            entries: vec![entry(0, 0.88, 700.0), entry(1, 0.78, 1400.0)],
        },
        0.6,
        SelectionPolicy::ReconfigAware,
    )
}

/// Allocations for one full run (workload sampling, engine, result) at
/// the given duration, plus the ticks of virtual time it covers.
fn measure(duration_s: f64, plan: &FaultPlan) -> (usize, u64) {
    let mut cfg = SimConfig::paper_default(145.0);
    cfg.workload.duration_s = duration_s;
    let sim = EdgeSimulation::new(cfg);
    let mut m = manager();
    let before = thread_allocs();
    let (result, stats) = sim.run_stats(&mut m, &RunSpec::new(Traffic::Synthetic, plan, 77));
    let after = thread_allocs();
    assert!(result.processed > 0, "sim must actually run");
    drop(result);
    (after - before, stats.ticks)
}

#[test]
fn sim_loop_allocations_scale_with_events_not_ticks() {
    for plan in [FaultPlan::none(), FaultPlan::canned()] {
        // Warmup: lazy statics, env lookups etc. must not pollute the
        // first measurement.
        let _ = measure(5.0, &plan);

        let (short_allocs, short_ticks) = measure(25.0, &plan);
        let (long_allocs, long_ticks) = measure(200.0, &plan);
        assert!(long_ticks - short_ticks >= 170_000, "8× duration must add ticks");

        // Empirically a whole run costs a handful of allocations (rate
        // trace, fault plan copy, event heap, samples) — the same
        // handful at 25 s and at 200 s, despite 8× the ticks, monitor
        // fires and rate segments. Pin that exactly: any per-event
        // allocation or under-sized buffer regrowth breaks equality.
        eprintln!(
            "plan faults={} short: {short_allocs} allocs/{short_ticks} ticks, \
             long: {long_allocs} allocs/{long_ticks} ticks",
            !plan.is_none()
        );
        assert_eq!(
            long_allocs, short_allocs,
            "allocation count must not grow with run length \
             (per-event allocation or buffer regrowth regression?)"
        );
    }
}

/// The engine pays per event: stretching every period of an episode 8×
/// (duration, monitor period, rate period) keeps its events and
/// multiplies its ticks, and must not move its host time. A per-tick
/// loop anywhere on the run path makes the long episode ~8× slower.
#[test]
fn host_time_follows_events_not_ticks() {
    let fastest = |stretch: f64| {
        let mut cfg = SimConfig::paper_default(145.0);
        cfg.workload.duration_s *= stretch;
        cfg.workload.deviation_period_s *= stretch;
        cfg.monitor_period_s *= stretch;
        let sim = EdgeSimulation::new(cfg);
        let mut stats = None;
        let mut floor = std::time::Duration::MAX;
        for _ in 0..40 {
            let mut m = manager();
            let t0 = std::time::Instant::now();
            let (result, s) = sim.run_stats(&mut m, &RunSpec::synthetic(77));
            floor = floor.min(t0.elapsed());
            assert!(result.processed > 0);
            stats = Some(s);
        }
        (floor, stats.expect("ran"))
    };
    let _ = fastest(1.0); // warm-up
    let (short, short_stats) = fastest(1.0);
    let (long, long_stats) = fastest(8.0);
    assert_eq!(long_stats.ticks, 8 * short_stats.ticks);
    // Reconfigurations last 145 ms at either scale, so the settle events
    // (and only they) may differ with the draws.
    assert!(long_stats.events.abs_diff(short_stats.events) <= 6, "{long_stats:?} vs {short_stats:?}");
    eprintln!("25 s: {short:?} / {short_stats:?}; 200 s: {long:?} / {long_stats:?}");
    assert!(
        long.as_secs_f64() <= 1.5 * short.as_secs_f64(),
        "8x the ticks at the same event count cost {long:?} vs {short:?}"
    );
}

/// The per-frame inference cost the simulator's service-rate model
/// stands in for: serving a batch through an early-exit CNV on the
/// executor's streamlined path (folded thresholds, packed code maps,
/// every conv behind the stem a direct windowed int2 conv) must
/// allocate nothing once the pools and the worker's scratch are warm. Runs here —
/// not only in `adapex-nn` — so the edge stack pins the contract it
/// depends on for latency stability.
#[test]
fn steady_state_direct_conv_serve_batch_does_not_allocate() {
    std::env::set_var("ADAPEX_THREADS", "1");

    let net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 5);
    let batch = 8;
    let per: usize = net.input_dims.iter().product();
    let mut rng = rng_from_seed(31);
    let x = Activation::new(
        normal_tensor(&[batch * per], 0.0, 1.0, &mut rng).into_vec(),
        batch,
        net.input_dims.clone(),
    );
    // High threshold: the untrained net is never confident enough to
    // retire early, so every sample traverses the deep convs — the ones
    // wide enough for the engine (and thus the direct route) to engage.
    let mut exec = BatchExecutor::new(
        &net,
        &ExecutorConfig {
            threshold: 0.95,
            workers: 1,
            engine: EnginePlan::Auto,
        },
    );
    assert!(exec.streamlined(), "Auto must streamline a CNV");
    let mut out = BatchVerdicts::default();

    // Warmup: pooled activations, the worker's packed maps, window
    // scratch and verdict capacities all materialize here.
    for _ in 0..3 {
        exec.run_batch(&x, &mut out);
    }

    int2::reset_op_counters();
    let before = thread_allocs();
    for _ in 0..5 {
        exec.run_batch(&x, &mut out);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state direct-conv serve batches allocated {} times on the {:?} backend",
        after - before,
        int2::active_backend()
    );
    assert!(
        int2::direct_conv_calls() > 0,
        "direct conv path never engaged in serving"
    );
}
