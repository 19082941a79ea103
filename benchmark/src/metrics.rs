//! The metric and workload tables: the single place names, units,
//! directions and regression bounds are written down. `BENCHMARK.json`
//! is this module printed (`adapex-benchmark spec`), and a unit test
//! keeps the committed file equal to it.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// One workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadDef {
    /// Name accepted by `--workload`.
    pub name: &'static str,
    /// One line on why the workload exists.
    pub why: &'static str,
}

/// Seconds one run measures for (the driver passes it as `--seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The four workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "serve-easy",
        why: "87% retire at exit 1 under Poisson arrivals: conv1, conv2, the exit-1 head and the batcher do the work, the backbone tail none",
    },
    WorkloadDef {
        name: "serve-hard-burst",
        why: "nobody retires at exit 1 and arrivals come in on/off bursts: stages 2-3, survivor compaction, the exit-2 head and exit-aware shedding carry the cost",
    },
    WorkloadDef {
        name: "fleet-sim",
        why: "200 servers x 100 cameras on the event engine, a sparse and a fault-dense scenario: tensor/nn do nothing, edge::* and RuntimeManager::decide everything",
    },
    WorkloadDef {
        name: "library-gen",
        why: "design-time half: train, prune, retrain, evaluate and compile 12 entries cold (f32 GEMM forward+backward), then regenerate them warm from the artifact cache",
    },
];

/// The end-to-end metrics, defined on every workload (README.md has the
/// per-workload meaning of each slot and the reason they are slots).
pub fn end_to_end() -> Vec<MetricDef> {
    let m = |name: &str, unit, better, bound| MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        m("setup_s", "s", Better::Lower, 0.25),
        m("rate_per_s", "1/s", Better::Higher, 0.10),
        m("loaded_rate_per_s", "1/s", Better::Higher, 0.20),
        m("light_ms", "ms", Better::Lower, 0.15),
        m("heavy_ms", "ms", Better::Lower, 0.20),
        m("peak_rss_mb", "MB", Better::Lower, 0.15),
    ]
}

/// The int2 probe shapes, named after the CNV layer they replay.
pub const INT2_SHAPES: [&str; 4] = ["conv2", "exit1conv", "conv4", "conv6"];

/// Span names of the `run_batch` replica, one per layer kind or conv.
pub const LAYER_SPANS: [&str; 14] = [
    "conv1",
    "conv2",
    "conv3",
    "conv4",
    "conv5",
    "conv6",
    "exit1_conv",
    "exit2_conv",
    "norm",
    "act",
    "pool",
    "fc",
    "exit_fc",
    "flatten",
];

/// The two fleet phases.
pub const PHASES: [&str; 2] = ["sparse", "dense"];

/// The three virtual-replay rates.
pub const RATES: [&str; 3] = ["r1", "r2", "r3"];

/// The per-layer metrics. A layer that does no work on a workload
/// reports 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out: Vec<MetricDef> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(MetricDef {
            name,
            unit,
            better,
            bound: None,
        })
    };
    for family in ["pack_image_ns", "gather_ns", "gemm_ns"] {
        for s in INT2_SHAPES {
            add(format!("tensor.int2.{family}.{s}"), "ns", Lower);
        }
    }
    for family in ["mac_ops", "popcnt_words"] {
        for s in INT2_SHAPES {
            add(format!("tensor.int2.{family}.{s}"), "count", Lower);
        }
    }
    add("tensor.int2.direct_conv_calls".into(), "count", Lower);
    add("tensor.gemm.f32_ns.conv1".into(), "ns", Lower);
    add("tensor.gemm.f32_ns.train_conv2".into(), "ns", Lower);
    add("tensor.conv.im2col_ns.conv1".into(), "ns", Lower);

    for span in LAYER_SPANS {
        add(format!("nn.layers.{span}.us_per_sample"), "us", Lower);
    }
    for b in ["b1", "b4", "b16"] {
        add(format!("nn.serve.batch_us.{b}"), "us", Lower);
    }
    for e in 1..=3 {
        add(format!("nn.serve.service_us.exit{e}"), "us", Lower);
    }
    for e in 1..=3 {
        add(format!("nn.serve.exit_share.exit{e}"), "ratio", Higher);
    }
    add("nn.serve.stage_self_us".into(), "us", Lower);
    add("nn.serve.model_error".into(), "ratio", Lower);
    add("nn.serve.verdict_mismatch".into(), "count", Lower);

    for (family, unit, better) in [
        ("batch_fill", "count", Higher),
        ("deferrals", "count", Lower),
        ("dropped_full", "count", Lower),
        ("shed_infeasible", "count", Lower),
        ("in_budget_share", "ratio", Higher),
        ("gold_p99_ms", "ms", Lower),
        ("be_p99_ms", "ms", Lower),
    ] {
        for r in RATES {
            add(format!("core.serve.{family}.{r}"), unit, better);
        }
    }
    add("core.serve.queue_high_water.gold".into(), "count", Lower);
    add("core.serve.queue_high_water.be".into(), "count", Lower);
    add("core.serve.host_ns_per_req".into(), "ns", Lower);
    add("core.serve.wall_p50_ms".into(), "ms", Lower);
    add("core.serve.wall_p99_ms".into(), "ms", Lower);
    add("core.serve.wall_gen_late_p99_us".into(), "us", Lower);
    // End-to-end in the issue, per-layer here: they exist on the serve
    // workloads only, and an end-to-end metric must exist on all four.
    add("core.serve.p50_ms.r1".into(), "ms", Lower);
    add("core.serve.goodput_rps.r3".into(), "req/s", Higher);
    add("core.serve.max_rate_in_slo_rps".into(), "req/s", Higher);
    add("core.serve.failed_share.r2".into(), "ratio", Lower);

    add("core.runtime.decide_ns".into(), "ns", Lower);
    add("core.runtime.decisions".into(), "count", Lower);
    for p in PHASES {
        add(format!("core.runtime.reconfigs.{p}"), "count", Lower);
    }

    for family in ["events", "ticks"] {
        for p in PHASES {
            add(format!("edge.engine.{family}.{p}"), "count", Lower);
        }
    }
    for family in ["host_ns_per_tick", "host_ns_per_event"] {
        for p in PHASES {
            add(format!("edge.engine.{family}.{p}"), "ns", Lower);
        }
    }
    for p in PHASES {
        add(format!("edge.sim.single_server_ms.{p}"), "ms", Lower);
    }
    add("edge.fleet.placement_us".into(), "us", Lower);
    for p in PHASES {
        add(format!("edge.fleet.jobs2_speedup.{p}"), "ratio", Higher);
    }
    for p in PHASES {
        add(format!("edge.workload_gen.generate_us.{p}"), "us", Lower);
    }
    add("edge.scenario_file.parse_us".into(), "us", Lower);
    for p in PHASES {
        add(format!("edge.sim.qoe.{p}"), "ratio", Higher);
    }
    for p in PHASES {
        add(format!("edge.sim.loss_pct.{p}"), "%", Lower);
    }

    add("dataset.generate_ms".into(), "ms", Lower);
    add("nn.train.epoch_ms".into(), "ms", Lower);
    add("nn.train.samples_per_s".into(), "1/s", Higher);
    add("prune.prune_ms".into(), "ms", Lower);
    add("nn.eval.images_per_s".into(), "1/s", Higher);
    add("finn.compiler.compile_ms".into(), "ms", Lower);
    add("finn.stream_sim.simulate_ms".into(), "ms", Lower);
    add("finn.stream_sim.cycles".into(), "count", Lower);
    add("core.generator.entries".into(), "count", Higher);
    add("core.cache.misses_cold".into(), "count", Lower);
    add("core.cache.hits_warm".into(), "count", Higher);
    add("core.cache.misses_warm".into(), "count", Lower);
    add("core.cache.bytes".into(), "count", Lower);

    add("bench.trace_overhead".into(), "ratio", Lower);
    add("bench.span_count".into(), "count", Lower);
    out
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// `BENCHMARK.json`, byte for byte.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let mut s = String::from("{\n  \"command\": [");
    s.push_str(&command.map(json_str).join(", "));
    s.push_str("],\n  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!(
        "  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n"
    ));
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = end_to_end()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(&m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn tables_meet_the_contract_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let mut names = BTreeSet::new();
        let ok_name = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        let ok_unit = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for m in e2e.iter().chain(&layers) {
            assert!(names.insert(m.name.clone()), "duplicate metric {}", m.name);
            assert!(
                m.name.len() <= 64 && m.name.chars().all(ok_name),
                "name {}",
                m.name
            );
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(!m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(ok_unit));
            if let Some(b) = m.bound {
                assert!(b > 0.0 && b <= 0.25, "bound of {}", m.name);
            }
        }
        for w in WORKLOADS {
            assert!(
                names.insert(w.name.to_string()),
                "name {} used twice",
                w.name
            );
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_this_module_printed() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json"
        );
    }
}
