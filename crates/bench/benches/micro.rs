//! Criterion micro-benchmarks of the reproduction's hot paths: the GEMM
//! kernel, im2col lowering, quantized conv forward, dataflow-aware
//! pruning, accelerator compilation, library search and one edge-sim
//! episode.
//!
//! Run with `cargo bench -p adapex-bench --bench micro`.

use adapex::generator::derive_constraints;
use adapex::runtime::{RuntimeManager, SelectionPolicy};
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::layers::{Activation, QuantConv2d};
use adapex_nn::quant::QuantSpec;
use adapex_prune::{PruneConfig, Pruner};
use adapex_tensor::conv::{im2col, im2col_into, ConvGeometry};
use adapex_tensor::gemm::{gemm, gemm_bias};
use adapex_tensor::rng::{normal_tensor, rng_from_seed};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use finn_dataflow::{compile, FoldingConfig, FpgaDevice, ModelIr};
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    let mut rng = rng_from_seed(1);
    let a = normal_tensor(&[64 * 128], 0.0, 1.0, &mut rng).into_vec();
    let b = normal_tensor(&[128 * 256], 0.0, 1.0, &mut rng).into_vec();
    let mut out = vec![0.0f32; 64 * 256];
    c.bench_function("gemm_64x128x256", |bench| {
        bench.iter(|| gemm(64, 128, 256, black_box(&a), black_box(&b), &mut out));
    });
}

fn bench_gemm_bias(c: &mut Criterion) {
    let mut rng = rng_from_seed(1);
    let a = normal_tensor(&[64 * 128], 0.0, 1.0, &mut rng).into_vec();
    let b = normal_tensor(&[128 * 256], 0.0, 1.0, &mut rng).into_vec();
    let bias = normal_tensor(&[64], 0.0, 1.0, &mut rng).into_vec();
    let mut out = vec![0.0f32; 64 * 256];
    c.bench_function("gemm_bias_64x128x256", |bench| {
        bench.iter(|| {
            gemm_bias(
                64,
                128,
                256,
                black_box(&a),
                black_box(&b),
                black_box(&bias),
                &mut out,
            )
        });
    });
}

fn bench_im2col(c: &mut Criterion) {
    let mut rng = rng_from_seed(2);
    let img = normal_tensor(&[16 * 32 * 32], 0.0, 1.0, &mut rng).into_vec();
    let geom = ConvGeometry::new(3);
    c.bench_function("im2col_16x32x32_k3", |bench| {
        bench.iter(|| im2col(black_box(&img), 16, 32, 32, geom));
    });
    let mut cols = Vec::new();
    c.bench_function("im2col_into_16x32x32_k3", |bench| {
        bench.iter(|| im2col_into(black_box(&img), 16, 32, 32, geom, &mut cols));
    });
}

fn bench_conv_forward(c: &mut Criterion) {
    let mut rng = rng_from_seed(3);
    let mut conv = QuantConv2d::new(8, 16, ConvGeometry::new(3), QuantSpec::signed(2), &mut rng);
    let x = Activation::new(
        normal_tensor(&[4 * 8 * 30 * 30], 0.0, 1.0, &mut rng).into_vec(),
        4,
        vec![8, 30, 30],
    );
    c.bench_function("quant_conv_forward_b4_8to16_30x30", |bench| {
        bench.iter(|| conv.forward(black_box(&x), false));
    });
}

fn bench_pruner(c: &mut Criterion) {
    let net = CnvConfig::scaled(8).build_early_exit(10, &ExitsConfig::paper_default(), 1);
    let ir = ModelIr::from_summary(&net.summarize());
    let folding = FoldingConfig::balanced(&ir, 215_000, 2.0);
    let constraints = derive_constraints(&net, &folding);
    let pruner = Pruner::new(PruneConfig {
        rate: 0.5,
        prune_exits: false,
    });
    c.bench_function("dataflow_aware_prune_w8_rate50", |bench| {
        bench.iter_batched(
            || net.clone(),
            |n| pruner.prune(black_box(&n), &constraints),
            BatchSize::SmallInput,
        );
    });
}

fn bench_compile(c: &mut Criterion) {
    let net = CnvConfig::scaled(8).build_early_exit(10, &ExitsConfig::paper_default(), 1);
    let ir = ModelIr::from_summary(&net.summarize());
    let folding = FoldingConfig::balanced(&ir, 215_000, 2.0);
    let device = FpgaDevice::zcu104();
    c.bench_function("finn_compile_w8_ee", |bench| {
        bench.iter(|| compile(black_box(&ir), &folding, &device, 100.0).expect("compiles"));
    });
}

fn demo_manager() -> RuntimeManager {
    use adapex::library::{LibraryEntry, OperatingPoint};
    // 36 entries x 21 points, shaped like a repro-profile library.
    let entries = (0..36)
        .map(|id| {
            let rate = (id % 18) as f64 * 0.05;
            let acc = 0.8 - rate * 0.25;
            LibraryEntry {
                id,
                pruning_rate: rate,
                achieved_rate: rate,
                prune_exits: id >= 18,
                mean_exit_accuracy: acc,
                final_exit_accuracy: acc,
                resources: finn_dataflow::ResourceUsage::zero(),
                exit_resources: finn_dataflow::ResourceUsage::zero(),
                utilization: (0.1, 0.1, 0.1, 0.0),
                static_ips: 460.0 * (1.0 + rate * 3.0),
                latency_to_exit_ms: vec![1.0, 1.5, 2.0],
                points: (0..21)
                    .map(|p| {
                        let ct = p as f64 * 0.05;
                        OperatingPoint {
                            confidence_threshold: ct,
                            accuracy: acc - 0.05 * (1.0 - ct),
                            exit_fractions: vec![1.0 - ct, ct * 0.3, ct * 0.7],
                            ips: 460.0 * (1.0 + rate * 3.0) * (2.0 - ct).max(1.0),
                            avg_latency_ms: 1.0 + ct,
                            power_w: 1.2,
                            energy_per_inference_mj: 0.3,
                        }
                    })
                    .collect(),
            }
        })
        .collect();
    RuntimeManager::new(
        adapex::library::Library { entries },
        0.6,
        SelectionPolicy::ReconfigAware,
    )
}

fn bench_library_select(c: &mut Criterion) {
    let manager = demo_manager();
    c.bench_function("library_select_756_points", |bench| {
        bench.iter_batched(
            || manager.clone(),
            |mut m| {
                for ips in [400.0, 700.0, 1100.0, 500.0] {
                    black_box(m.decide(ips));
                }
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_edge_episode(c: &mut Criterion) {
    use adapex_edge::{EdgeSimulation, RunSpec, SimConfig};
    let manager = demo_manager();
    let sim = EdgeSimulation::new(SimConfig::paper_default(145.0));
    c.bench_function("edge_sim_25s_episode", |bench| {
        bench.iter_batched(
            || manager.clone(),
            |mut m| black_box(sim.run(&mut m, &RunSpec::synthetic(7))),
            BatchSize::SmallInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gemm, bench_gemm_bias, bench_im2col, bench_conv_forward,
              bench_pruner, bench_compile, bench_library_select, bench_edge_episode
}
criterion_main!(benches);
