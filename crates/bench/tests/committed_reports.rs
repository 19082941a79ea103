//! Every committed `BENCH_*.json` at the repo root carries the shared
//! header, and every number a gate reads carries its spread.

use serde_json::Value;
use std::path::Path;

/// Committed report → the paths of its gated values (`a.b` descends
/// into objects; a trailing `?` allows `null`, for a gate the measuring
/// host could not run). A report not listed here fails the test: a new
/// report states what it gates.
const GATED: &[(&str, &[&str])] = &[
    ("BENCH_faults.json", &["qoe_retention", "adversarial.qoe_retention"]),
    ("BENCH_fleet.json", &["ns_per_server_second", "ns_per_event"]),
    ("BENCH_serving.json", &["speedup"]),
    (
        "BENCH_simd.json",
        &[
            "int2_speedup_vs_f32_gemm_full",
            "direct_conv_speedup_vs_im2col_full",
            "avx512_speedup_vs_avx2_gemm_full?",
        ],
    ),
];

fn number(v: &Value, key: &str, what: &str) -> f64 {
    match v.get(key) {
        Some(Value::Float(x)) => *x,
        Some(Value::UInt(x)) => *x as f64,
        Some(Value::Int(x)) => *x as f64,
        other => panic!("{what}: `{key}` is not a number: {other:?}"),
    }
}

fn assert_header(report: &Value, file: &str) {
    let header = report.get("header").unwrap_or_else(|| panic!("{file}: no `header`"));
    let what = format!("{file} header");
    assert_eq!(
        number(header, "schema_version", &what),
        f64::from(adapex_bench::BENCH_SCHEMA_VERSION),
        "{what}: schema_version"
    );
    assert!(number(header, "threads", &what) >= 1.0, "{what}: threads");
    assert!(number(header, "host_cores", &what) >= 1.0, "{what}: host_cores");
    assert!(
        matches!(header.get("cpu_features"), Some(Value::Array(_))),
        "{what}: cpu_features"
    );
    for key in ["simd_backend", "int2_backend"] {
        assert!(
            matches!(header.get(key), Some(Value::String(s)) if !s.is_empty()),
            "{what}: {key}"
        );
    }
}

fn assert_gated(report: &Value, file: &str, path: &str) {
    let (path, nullable) = path.strip_suffix('?').map_or((path, false), |p| (p, true));
    let gated = path.split('.').fold(report, |v, key| {
        v.get(key).unwrap_or_else(|| panic!("{file}: no `{path}`"))
    });
    if nullable && matches!(gated, Value::Null) {
        return;
    }
    let what = format!("{file} {path}");
    assert!(number(gated, "value", &what).is_finite(), "{what}: value");
    let spread = number(gated, "spread", &what);
    assert!(spread.is_finite() && spread >= 0.0, "{what}: spread {spread}");
}

#[test]
fn committed_reports_share_the_header_and_carry_spreads() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut found: Vec<String> = std::fs::read_dir(&root)
        .expect("repo root is readable")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    found.sort();
    let listed: Vec<&str> = GATED.iter().map(|(file, _)| *file).collect();
    assert_eq!(found, listed, "committed reports vs the table in this test");

    for (file, gated) in GATED {
        let text = std::fs::read_to_string(root.join(file)).expect("report is readable");
        let report: Value = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_header(&report, file);
        for path in *gated {
            assert_gated(&report, file, path);
        }
    }
}
