//! Allocation regression test for the kernel hot path.
//!
//! A counting global allocator wraps `System`; after a warmup pass that
//! populates the workspace pools and layer caches, a steady-state training
//! step over the layer stack (forward, loss + gradient, backward, SGD)
//! must perform **zero** heap allocations. This pins down the workspace
//! reuse contract: if a kernel regresses into allocating per batch, this
//! test fails with the allocation count.
//!
//! Scope: the layer-stack hot path (`Layer::forward_owned` / `backward`,
//! `cross_entropy_with_grad`, `Param::sgd_step`) under `ADAPEX_THREADS=1`.
//! Trainer-level orchestration (dataset gather/augment, the per-epoch
//! shuffle, the network container's per-forward `Vec` of exit outputs) is
//! deliberately outside the window: those are per-batch-count, not
//! per-element, costs.
//!
//! The same allocator counts bytes too, which pins the other half of the
//! contract: no training state outlives `Trainer::fit` or survives a
//! clone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use adapex_dataset::{DatasetKind, SyntheticConfig};
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::eval::{evaluate_exits_with, EvalConfig};
use adapex_nn::layers::{
    Activation, BatchNorm, Layer, MaxPool2d, QuantConv2d, QuantLinear, QuantReLU,
};
use adapex_nn::loss::cross_entropy_with_grad;
use adapex_nn::serve::{BatchExecutor, BatchVerdicts, EnginePlan, ExecutorConfig};
use adapex_nn::quant::QuantSpec;
use adapex_nn::train::{TrainConfig, Trainer};
use adapex_tensor::conv::ConvGeometry;
use adapex_tensor::rng::{normal_tensor, rng_from_seed};
use adapex_tensor::workspace::pool_counts;

/// Counts every allocator entry point and the bytes each asks for
/// (a `realloc` counts its new size); frees are not counted (recycling
/// pools may legitimately drop overflow buffers). The counts are
/// per-thread: the measured hot path is single-threaded
/// (`ADAPEX_THREADS=1`), and a global counter would pick up unrelated
/// allocations from the harness starting the *other* test's thread
/// mid-measurement.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Allocations observed on the calling thread so far. `try_with`: the
/// allocator may be entered during TLS teardown, where counting is
/// neither possible nor needed.
fn thread_allocs() -> usize {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes the calling thread has asked the allocator for so far.
fn thread_bytes() -> usize {
    BYTES.try_with(Cell::get).unwrap_or(0)
}

fn count_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Serializes the tests: they share the global workspace pools, and a
/// concurrently running test stealing pooled buffers mid-measurement would
/// register as spurious allocations.
static POOLS: Mutex<()> = Mutex::new(());

/// A miniature CNV-style stack covering every layer kind.
fn build_stack() -> Vec<Layer> {
    let mut rng = rng_from_seed(9);
    let spec = QuantSpec::signed(2);
    vec![
        Layer::Conv(QuantConv2d::new(3, 8, ConvGeometry::new(3), spec, &mut rng)),
        Layer::Norm(BatchNorm::new(8)),
        Layer::Act(QuantReLU::a2()),
        Layer::Pool(MaxPool2d::new(2)),
        Layer::Flatten,
        Layer::Linear(QuantLinear::new(8 * 15 * 15, 10, spec, &mut rng)),
    ]
}

fn train_step(layers: &mut [Layer], x: &Activation, labels: &[usize]) {
    let mut cur = x.clone();
    for l in layers.iter_mut() {
        l.for_each_param(&mut |p| p.zero_grad());
        cur = l.forward_owned(cur, true);
    }
    let (_loss, grad) = cross_entropy_with_grad(&cur, labels, 1.0);
    drop(cur);
    let mut g = grad;
    for l in layers.iter_mut().rev() {
        g = l.backward(&g);
    }
    drop(g);
    for l in layers.iter_mut() {
        l.for_each_param(&mut |p| p.sgd_step(0.01, 0.9, 0.0));
    }
}

fn eval_step(layers: &mut [Layer], x: &Activation) {
    let mut cur = x.clone();
    for l in layers.iter_mut() {
        cur = l.forward_owned(cur, false);
    }
    drop(cur);
}

#[test]
fn steady_state_training_step_does_not_allocate() {
    let _guard = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    // Single-threaded: worker threads would allocate stacks; the kernels'
    // inline (workers == 1) paths are the zero-allocation contract.
    std::env::set_var("ADAPEX_THREADS", "1");

    let mut layers = build_stack();
    let batch = 8;
    let mut rng = rng_from_seed(11);
    let x = Activation::new(
        normal_tensor(&[batch * 3 * 32 * 32], 0.0, 1.0, &mut rng).into_vec(),
        batch,
        vec![3, 32, 32],
    );
    let labels: Vec<usize> = (0..batch).map(|i| i % 10).collect();

    // Warmup: populate workspace pools, layer caches, and quantized-weight
    // caches at the steady-state shapes.
    for _ in 0..3 {
        train_step(&mut layers, &x, &labels);
    }

    let before = thread_allocs();
    for _ in 0..5 {
        train_step(&mut layers, &x, &labels);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state training steps allocated {} times",
        after - before
    );
}

/// A stack whose second conv and the classifier are fed 2-bit-quantized
/// inputs, so the eval forward routes through the int2 code-domain path
/// for both QuantConv2d and QuantLinear (packing buffers and combined
/// scales must come from the pooled workspaces — zero allocs/batch).
fn build_int2_stack() -> Vec<Layer> {
    let mut rng = rng_from_seed(17);
    let spec = QuantSpec::signed(2);
    vec![
        Layer::Conv(QuantConv2d::new(3, 8, ConvGeometry::new(3), spec, &mut rng)),
        Layer::Norm(BatchNorm::new(8)),
        Layer::Act(QuantReLU::a2()),
        Layer::Conv(QuantConv2d::new(8, 8, ConvGeometry::new(3), spec, &mut rng)),
        Layer::Norm(BatchNorm::new(8)),
        Layer::Act(QuantReLU::a2()),
        Layer::Pool(MaxPool2d::new(2)),
        Layer::Flatten,
        Layer::Linear(QuantLinear::new(8 * 6 * 6, 10, spec, &mut rng)),
    ]
}

/// The convs here take the f32-over-codes arm (`prefer_f32_codes` set
/// by hand — the differential reference and the route past the gather's
/// kernel bound) and the classifier the popcount engine; the direct conv
/// route has its own test below.
#[test]
fn steady_state_int2_eval_forward_does_not_allocate() {
    let _guard = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ADAPEX_THREADS", "1");

    let mut layers = build_int2_stack();
    for l in &mut layers {
        if let Layer::Conv(c) = l {
            c.prefer_f32_codes = true;
        }
    }
    let batch = 4;
    let mut rng = rng_from_seed(19);
    let x = Activation::new(
        normal_tensor(&[batch * 3 * 16 * 16], 0.0, 1.0, &mut rng).into_vec(),
        batch,
        vec![3, 16, 16],
    );

    // Warmup: workspace pools, quantized-weight caches AND the derived
    // int2 views (codes + packed planes) all materialize here.
    for _ in 0..3 {
        eval_step(&mut layers, &x);
    }

    adapex_tensor::int2::reset_op_counters();
    let before = thread_allocs();
    for _ in 0..5 {
        eval_step(&mut layers, &x);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state int2 eval forwards allocated {} times on the {:?} backend",
        after - before,
        adapex_tensor::int2::active_backend()
    );
    let (macs, _) = adapex_tensor::int2::op_counters();
    assert!(macs > 0, "int2 engine never engaged in the classifier");
    assert_eq!(
        adapex_tensor::int2::direct_conv_calls(),
        0,
        "a conv ignored prefer_f32_codes"
    );
}

/// Same eval stack, checked for the direct conv route specifically:
/// packing the image once (`Workspace::img_bits`) and gathering windows
/// into the shared packing buffer must come entirely from the pooled
/// workspaces, and the direct-call counter proves that route ran.
#[test]
fn steady_state_direct_conv_eval_forward_does_not_allocate() {
    let _guard = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ADAPEX_THREADS", "1");

    let mut layers = build_int2_stack();
    let batch = 4;
    let mut rng = rng_from_seed(29);
    let x = Activation::new(
        normal_tensor(&[batch * 3 * 16 * 16], 0.0, 1.0, &mut rng).into_vec(),
        batch,
        vec![3, 16, 16],
    );

    // Warmup: img_bits/window buffers size themselves to the steady-state
    // shapes here, alongside the usual pools and weight caches.
    for _ in 0..3 {
        eval_step(&mut layers, &x);
    }

    adapex_tensor::int2::reset_op_counters();
    let before = thread_allocs();
    for _ in 0..5 {
        eval_step(&mut layers, &x);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state direct-conv eval forwards allocated {} times on the {:?} backend",
        after - before,
        adapex_tensor::int2::active_backend()
    );
    assert!(
        adapex_tensor::int2::direct_conv_calls() > 0,
        "direct conv path never engaged in eval"
    );
}

/// The serving hot loop: [`BatchExecutor::run_batch`] (staged forward,
/// exit heads, survivor compaction, verdict writes) must be zero-alloc
/// per batch once the workspace pools, the worker's packed-map scratch
/// and the verdict capacities are warm — on the streamlined path `Auto`
/// runs a CNV on, and on the layer path `Int2Always` keeps.
/// A mid-range threshold keeps both branches live — some samples retire
/// at exit 1 (compaction path), some reach the final exit (tail path).
#[test]
fn steady_state_serve_batch_does_not_allocate() {
    let _guard = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ADAPEX_THREADS", "1");

    let net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), 3);
    let batch = 8;
    let per: usize = net.input_dims.iter().product();
    let mut rng = rng_from_seed(23);
    let x = Activation::new(
        normal_tensor(&[batch * per], 0.0, 1.0, &mut rng).into_vec(),
        batch,
        net.input_dims.clone(),
    );
    for engine in [EnginePlan::Auto, EnginePlan::Int2Always] {
        let mut exec = BatchExecutor::new(
            &net,
            &ExecutorConfig {
                threshold: 0.0,
                workers: 1,
                engine,
            },
        );
        assert_eq!(exec.streamlined(), engine == EnginePlan::Auto);
        let mut out = BatchVerdicts::default();
        // The median exit-1 confidence as threshold: half the batch
        // retires there, half carries on through compaction.
        exec.run_batch(&x, &mut out);
        let mut seen = out.confidence.clone();
        seen.sort_by(|a, b| a.partial_cmp(b).expect("confidences are finite"));
        exec.set_threshold(seen[batch / 2]);

        // Warmup: pooled activations/scratch, quantized-weight caches, and
        // the verdict vectors' capacity all materialize here.
        for _ in 0..3 {
            exec.run_batch(&x, &mut out);
        }
        assert!(out.count_exit(0) > 0, "want the early-retire path live");
        assert!(out.count_exit(0) < batch, "want survivors past exit 1");

        let before = thread_allocs();
        for _ in 0..5 {
            exec.run_batch(&x, &mut out);
        }
        let after = thread_allocs();
        assert_eq!(
            after - before,
            0,
            "steady-state {engine:?} serve batches allocated {} times on the {:?} backend",
            after - before,
            adapex_tensor::int2::active_backend()
        );
    }
}

#[test]
fn steady_state_eval_forward_does_not_allocate() {
    let _guard = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ADAPEX_THREADS", "1");

    let mut layers = build_stack();
    let batch = 4;
    let mut rng = rng_from_seed(13);
    let x = Activation::new(
        normal_tensor(&[batch * 3 * 32 * 32], 0.0, 1.0, &mut rng).into_vec(),
        batch,
        vec![3, 32, 32],
    );

    for _ in 0..3 {
        eval_step(&mut layers, &x);
    }

    let before = thread_allocs();
    for _ in 0..5 {
        eval_step(&mut layers, &x);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state eval forwards allocated {} times",
        after - before
    );
}

/// Bytes one `clone` of `value` allocates on this thread.
fn clone_bytes<T: Clone>(value: &T) -> usize {
    let before = thread_bytes();
    let copy = value.clone();
    let bytes = thread_bytes() - before;
    drop(copy);
    bytes
}

/// A trained network is its weights: `Trainer::fit` frees every backward
/// cache when it returns, so cloning the trained CNV-8 allocates no more
/// than cloning a freshly built one (before the caches were released and
/// left out of clones, 7.76 MB against 0.44 MB at 32×32), and the next
/// backward finds no cached forward.
#[test]
fn no_training_state_survives_fit() {
    let _guard = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ADAPEX_THREADS", "1");

    let data = SyntheticConfig::new(DatasetKind::Cifar10Like)
        .with_sizes(32, 8)
        .with_seed(5)
        .generate();
    let build = || CnvConfig::scaled(8).build_early_exit(10, &ExitsConfig::paper_default(), 3);
    let fresh = build();
    let mut net = build();
    let train = TrainConfig {
        epochs: 1,
        ..TrainConfig::fast()
    };
    Trainer::new(train).fit(&mut net, &data, 1);

    let (trained, untrained) = (clone_bytes(&net), clone_bytes(&fresh));
    assert!(
        trained <= untrained,
        "cloning the trained net allocated {trained} bytes, a fresh one {untrained}"
    );

    let grads: Vec<Activation> = net
        .forward(&Activation::zeros(2, &net.input_dims), false)
        .iter()
        .map(|o| Activation::zeros(o.n, &o.dims))
        .collect();
    let backward = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.backward(&grads)));
    let message = backward.expect_err("a backward after fit found cached training state");
    let text = message.downcast_ref::<String>().map_or("", String::as_str);
    assert!(text.contains("requires cached forward"), "{text}");
}

/// A clone taken between a training forward and its backward carries no
/// cache: for every layer kind with one, the clone's backward panics
/// while the original's runs.
#[test]
fn a_clone_between_forward_and_backward_has_no_cache() {
    let _guard = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ADAPEX_THREADS", "1");

    let mut layers = build_stack();
    let mut rng = rng_from_seed(31);
    let mut cur = Activation::new(
        normal_tensor(&[2 * 3 * 32 * 32], 0.0, 1.0, &mut rng).into_vec(),
        2,
        vec![3, 32, 32],
    );
    for layer in layers.iter_mut().filter(|l| !matches!(l, Layer::Flatten)) {
        let y = layer.forward_owned(cur, true);
        let grad = Activation::zeros(y.n, &y.dims);
        let mut copy = layer.clone();
        let copied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| copy.backward(&grad)));
        let message = copied.expect_err("a clone ran a backward without a forward");
        let text = message.downcast_ref::<String>().map_or("", String::as_str);
        assert!(text.contains("requires cached forward"), "{:?}: {text}", layer.spec());
        layer.backward(&grad);
        cur = if let Layer::Pool(_) = layer {
            // The classifier after the pool takes the flattened map.
            let (data, n, dims) = y.into_parts();
            Activation::new(data, n, vec![dims.iter().product()])
        } else {
            y
        };
    }
}

/// Training and evaluation return every pooled buffer they take: over
/// back-to-back generations of fresh nets the buffer pools hold no more
/// than after the first. Before each batch's pixels and `dims` came from
/// the pools, every training and eval batch left one more buffer in
/// each.
#[test]
fn pools_stay_flat_across_fits() {
    let _guard = POOLS.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var("ADAPEX_THREADS", "1");

    let data = SyntheticConfig::new(DatasetKind::Cifar10Like)
        .with_sizes(48, 24)
        .with_seed(7)
        .generate();
    let generation = |seed: u64| {
        let mut net = CnvConfig::tiny().build_early_exit(10, &ExitsConfig::paper_default(), seed);
        Trainer::new(TrainConfig::fast()).fit(&mut net, &data, seed);
        evaluate_exits_with(&mut net, &data.test, EvalConfig { batch: 8, jobs: 1 });
        pool_counts()
    };
    let counts: Vec<_> = (1..4).map(generation).collect();
    let first = counts[0];
    for next in &counts[1..] {
        assert!(
            next.usize_buffers <= first.usize_buffers && next.f32_buffers <= first.f32_buffers,
            "pools grew from {first:?} to {next:?}"
        );
    }
}
