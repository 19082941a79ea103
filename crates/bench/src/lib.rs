//! Shared support for the gate bins and the paper run: the one timer and
//! report header every `BENCH_*.json` is made with, the cached library,
//! and simple table rendering.
//!
//! # How this repo measures
//!
//! The repo benchmark (`benchmark/`, `BENCHMARK.json`) **measures**:
//! end-to-end rates and every per-layer metric come from it, and a
//! performance claim is an alternating-pair median from it — with an
//! A/A leg when two checkouts are compared, because identical binaries
//! have read 8 % apart from two directories on this host. This crate
//! **gates**: `bench`, `bench-serving`, `bench-fleet` and `bench-faults`
//! assert ratios and budgets, every timing among them taken by
//! [`interleave`] — the arms of one comparison alternate round by round,
//! so a slow phase of the host lands on all of them, and the gate reads
//! each arm's fastest sample, since noise only ever adds time — and
//! reported as a [`Gated`] value with its spread under one
//! [`ReportHeader`]. A number no assertion reads is not in a report;
//! history is `git log -p` of the committed reports.
//!
//! # The paper run
//!
//! The `paper` bin regenerates every table and figure of the paper
//! (`cargo run --release -p adapex-bench --bin paper [-- --profile
//! fast]`); it and the examples get their libraries from
//! [`cached_artifacts`], which keeps the generator's content-addressed
//! artifact cache under `target/adapex-cache/`. The cache is keyed by
//! the generator configuration, `CACHE_FORMAT_EPOCH` and
//! `NUMERICS_VERSION`, so a warm run is byte-identical to a cold one and
//! a stale library is never loaded.

use adapex::generator::{Artifacts, GeneratorConfig, LibraryGenerator};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// Schema revision shared by every `BENCH_*.json` report; bump it when
/// renaming or re-typing report fields.
pub const BENCH_SCHEMA_VERSION: u32 = 2;

/// The machine a report was measured on, first field of every
/// `BENCH_*.json`.
#[derive(Debug, Clone, Serialize)]
pub struct ReportHeader {
    /// [`BENCH_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Kernel worker threads (`ADAPEX_THREADS`, else the host's cores).
    pub threads: usize,
    /// `std::thread::available_parallelism` of the measuring host.
    pub host_cores: usize,
    /// [`cpu_features`] of the measuring host.
    pub cpu_features: Vec<&'static str>,
    /// The backend the f32 kernels dispatched to ...
    pub simd_backend: String,
    /// ... and the one the int2 kernels did (two dispatchers, each
    /// caching its own choice; both detect AVX-512, AVX2 or portable).
    pub int2_backend: String,
}

impl ReportHeader {
    /// The header of a report measured by this process, now.
    pub fn capture() -> Self {
        ReportHeader {
            schema_version: BENCH_SCHEMA_VERSION,
            threads: adapex_tensor::parallel::num_threads(),
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_features: cpu_features(),
            simd_backend: format!("{:?}", adapex_tensor::simd::active_backend()),
            int2_backend: format!("{:?}", adapex_tensor::int2::active_backend()),
        }
    }
}

/// What one arm's samples come to. Unit-free: [`interleave`] fills it
/// with nanoseconds per call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Smallest sample.
    pub best: f64,
    /// Middle sample (mean of the middle two of an even count).
    pub median: f64,
    /// Interquartile range over the median (quartiles interpolated
    /// linearly between order statistics); 0 for a single sample.
    pub spread: f64,
}

impl Summary {
    /// Summarises `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite sample set.
    pub fn from_samples(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        assert!(samples.iter().all(|s| s.is_finite()), "non-finite sample in {samples:?}");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quantile = |p: f64| {
            let at = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        };
        let median = quantile(0.5);
        let iqr = quantile(0.75) - quantile(0.25);
        Summary {
            best: sorted[0],
            median,
            spread: if iqr == 0.0 { 0.0 } else { iqr / median },
        }
    }
}

/// A number an assertion reads, as reports carry it: the value and the
/// relative run-to-run spread to read it with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Gated {
    /// The gated value.
    pub value: f64,
    /// Relative spread of the samples behind it; for a ratio of two
    /// arms, the sum of theirs.
    pub spread: f64,
}

impl Gated {
    /// `slow.best / fast.best`: how many times faster the `fast` arm's
    /// fastest batch was.
    pub fn best_ratio(slow: &Summary, fast: &Summary) -> Gated {
        Gated {
            value: slow.best / fast.best,
            spread: slow.spread + fast.spread,
        }
    }
}

/// The one timer. Runs `rounds + 1` rounds over `arms` arms in index
/// order; in a round each arm is timed over one batch of `iters` calls
/// of `call(arm)`. Round 0 warms up and is discarded; the rest become
/// one [`Summary`] per arm, in nanoseconds per call.
///
/// Because the arms alternate, a slow phase of the host hits every arm
/// of a comparison alike instead of whichever ran in it: ratios between
/// arms of one call compare code, ratios between calls compare moments.
pub fn interleave(
    arms: usize,
    rounds: usize,
    iters: usize,
    mut call: impl FnMut(usize),
) -> Vec<Summary> {
    assert!(arms > 0 && rounds > 0 && iters > 0, "nothing to time");
    let mut samples = vec![Vec::with_capacity(rounds); arms];
    for round in 0..=rounds {
        for (arm, samples) in samples.iter_mut().enumerate() {
            let t0 = Instant::now();
            for _ in 0..iters {
                call(arm);
            }
            let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
            if round > 0 {
                samples.push(ns);
            }
        }
    }
    samples.iter().map(|s| Summary::from_samples(s)).collect()
}

/// Writes `report` as pretty JSON to `BENCH_<name>.json` in the current
/// directory and returns the text.
pub fn write_report(name: &str, report: &impl Serialize) -> String {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    eprintln!("wrote {path}");
    json
}

/// The vector CPU features of the measuring host that a kernel backend
/// keys on (or could), in the order detection asks for them. Empty off
/// x86-64.
pub fn cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! detected {
            ($($feature:tt),*) => {
                [$(($feature, std::arch::is_x86_feature_detected!($feature))),*]
            };
        }
        detected!(
            "avx2", "popcnt", "fma", "avx512f", "avx512vpopcntdq", "avx512bw", "avx512vl",
            "avx512dq", "avx512bitalg", "avx512vbmi", "avx512vnni"
        )
        .into_iter()
        .filter_map(|(feature, has)| has.then_some(feature))
        .collect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// The artifact cache directory (`target/adapex-cache` of this
/// workspace), created if missing.
pub fn cache_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/adapex-cache");
    std::fs::create_dir_all(&dir).expect("cache dir is creatable");
    dir
}

/// Generates the library `cfg` describes through the artifact cache in
/// [`cache_dir`], logging progress and the cache's hit/miss line to
/// stderr.
pub fn cached_artifacts(cfg: GeneratorConfig) -> Artifacts {
    let cfg = GeneratorConfig { verbose: true, ..cfg }.with_cache_dir(cache_dir());
    let (art, stats) = LibraryGenerator::new(cfg).generate_with_stats();
    eprintln!("cache: {stats}");
    art
}

/// Renders one aligned table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}"))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Prints a titled, aligned table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    println!(
        "{}",
        row(&header.iter().map(|h| h.to_string()).collect::<Vec<_>>(), &widths)
    );
    for r in rows {
        println!("{}", row(r, &widths));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_fixed_vectors() {
        let of = Summary::from_samples;
        // Odd count: the middle sample; quartiles halfway between
        // neighbours ((1+3)/2 = 2 and (3+9)/2 = 6).
        let odd = of(&[9.0, 1.0, 3.0]);
        assert_eq!((odd.best, odd.median, odd.spread), (1.0, 3.0, 4.0 / 3.0));
        // Even count: the mean of the middle two; quartiles at 1.75, 3.25.
        let even = of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.best, even.median, even.spread), (1.0, 2.5, 1.5 / 2.5));
        // Five samples: quartiles are order statistics.
        let five = of(&[50.0, 10.0, 40.0, 20.0, 30.0]);
        assert_eq!((five.best, five.median, five.spread), (10.0, 30.0, 20.0 / 30.0));
        // One sample, ties, a constant series: no spread.
        assert_eq!(of(&[7.0]), Summary { best: 7.0, median: 7.0, spread: 0.0 });
        assert_eq!(of(&[2.0, 2.0, 2.0, 2.0]).spread, 0.0);
        let ties = of(&[5.0, 1.0, 5.0, 5.0, 1.0]);
        assert_eq!((ties.best, ties.median, ties.spread), (1.0, 5.0, 4.0 / 5.0));
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn summary_of_nothing_panics() {
        Summary::from_samples(&[]);
    }

    #[test]
    fn gated_ratio_divides_the_bests_and_adds_the_spreads() {
        let slow = Summary { best: 30.0, median: 40.0, spread: 0.1 };
        let fast = Summary { best: 10.0, median: 16.0, spread: 0.05 };
        let best = Gated::best_ratio(&slow, &fast);
        assert_eq!(best.value, 3.0);
        assert!((best.spread - 0.15).abs() < 1e-12);
    }

    /// Arms that log their calls: rounds go over the arms in index
    /// order, `iters` calls each, and round 0 is run but not sampled.
    #[test]
    fn interleave_runs_round_robin_and_discards_the_warm_up() {
        use std::time::Duration;
        let mut log = Vec::new();
        let mut round_of_arm0 = 0;
        let summaries = interleave(3, 2, 2, |arm| {
            log.push(arm);
            // Arm 0's warm-up round is the only slow batch of the run.
            if arm == 0 {
                round_of_arm0 += 1;
                if round_of_arm0 <= 2 {
                    std::thread::sleep(Duration::from_millis(30));
                }
            }
        });
        let one_round = [0, 0, 1, 1, 2, 2];
        assert_eq!(log, one_round.repeat(3), "2 timed rounds + the warm-up");
        assert_eq!(summaries.len(), 3);
        assert!(
            summaries[0].median < 15e6,
            "the 30 ms warm-up calls were sampled: {:?}",
            summaries[0]
        );
        // A single arm is a plain repeat loop.
        let mut calls = 0;
        let single = interleave(1, 4, 1, |_| calls += 1);
        assert_eq!((calls, single.len()), (5, 1));
    }

    #[test]
    fn header_describes_this_process() {
        let header = ReportHeader::capture();
        assert_eq!(header.schema_version, BENCH_SCHEMA_VERSION);
        assert!(header.threads >= 1 && header.host_cores >= 1);
        assert!(!header.simd_backend.is_empty() && !header.int2_backend.is_empty());
    }

    #[test]
    fn row_aligns() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
