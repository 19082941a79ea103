//! The repo benchmark: one process per run, one run per workload.
//!
//! ```text
//! adapex-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//! adapex-benchmark repeat [--sets <n>] [--seed <u64>] [--seconds <n>]
//! adapex-benchmark spec
//! ```
//!
//! A run builds its inputs from the seed, measures for `--seconds`
//! seconds, checks what the program computed, prints every metric by
//! name with its unit and, as the last line, the JSON object described
//! in README.md. It exits non-zero when a correctness check fails.
//! Every layer is measured from outside, by timing calls into the
//! program's public functions; the harness shares no code with it.

mod fleet;
mod gen;
mod libgen;
mod metrics;
mod pins;
mod probes;
mod repeat;
mod report;
mod serve;
mod stats;
mod trace;

use pins::Pins;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// State of one run, handed to the workload.
pub struct Run {
    /// `--seed`: every generated input derives from it.
    pub seed: u64,
    /// `--seconds`: how long the measured phases last.
    pub seconds: f64,
    /// Span recorder; disabled unless `--trace 1`.
    pub tracer: Tracer,
    /// Where metrics, operation counts and failed checks go.
    pub report: Report,
    /// The compiled-in `pins.json`.
    pub pins: Pins,
}

/// Stage clock handed to a workload's set-up function: `lap()` ends a
/// stage. Every repeat of a set-up passes the same stages in the same
/// order.
pub struct Laps {
    last: Instant,
    walls: Vec<f64>,
}

impl Laps {
    /// Ends the current stage.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.walls.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

impl Run {
    /// Builds a workload's set-up with `setup(seed, laps)` and reports
    /// `setup_s`. One wall interval of seconds is at the mercy of the
    /// host's slow phases, so set-up is repeated three times, cut into
    /// the stages its `lap()` calls mark, and each stage is charged its
    /// fastest repeat: `setup_s` is the sum of those floors, the same
    /// estimator as the measured phases. The median of the three whole
    /// set-ups is printed beside it. A traced run reports no `setup_s`
    /// and sets up once. Returns the last set-up.
    pub fn timed_setup<T>(&mut self, mut setup: impl FnMut(u64, &mut Laps) -> T) -> T {
        let repeats = if self.tracer.enabled() { 1 } else { 3 };
        let mut floors: Vec<f64> = Vec::new();
        let mut totals = Vec::with_capacity(repeats);
        loop {
            let mut laps = Laps {
                last: Instant::now(),
                walls: Vec::new(),
            };
            let built = setup(self.seed, &mut laps);
            laps.lap();
            totals.push(laps.walls.iter().sum::<f64>());
            if floors.is_empty() {
                floors = laps.walls;
            } else {
                assert_eq!(
                    floors.len(),
                    laps.walls.len(),
                    "set-up stages differ between repeats"
                );
                for (floor, wall) in floors.iter_mut().zip(laps.walls) {
                    *floor = floor.min(wall);
                }
            }
            if totals.len() == repeats {
                self.report.set("setup_s", floors.iter().sum());
                self.report
                    .alias("setup_median_s", stats::median(&totals), "s");
                self.report
                    .alias("setup_stages", floors.len() as f64, "count");
                return built;
            }
        }
    }
}

/// `benchmark/out/`: traces and scratch caches; ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        sets: 2,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => parsed.workload = value("a workload name")?.clone(),
            "--seed" => {
                parsed.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 1.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--sets" => {
                parsed.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if parsed.sets < 2 {
                    return Err("--sets must be at least 2".into());
                }
            }
            // `--trace` alone means `--trace 1`.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    parsed.trace = false;
                }
                Some("1") => {
                    it.next();
                    parsed.trace = true;
                }
                _ => parsed.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn run_workload(args: Args) -> Result<bool, String> {
    let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
    if !names.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    let mut run = Run {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        report: Report::default(),
        pins: Pins::load(),
    };
    match args.workload.as_str() {
        "serve-easy" => serve::run(&serve::EASY, &mut run),
        "serve-hard-burst" => serve::run(&serve::HARD_BURST, &mut run),
        "fleet-sim" => fleet::run(&mut run),
        "library-gen" => libgen::run(&mut run),
        _ => unreachable!("checked against WORKLOADS above"),
    }
    run.report.set("peak_rss_mb", peak_rss_mb());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if args.trace {
        run.report
            .set("bench.span_count", run.tracer.span_count() as f64);
        let path = out_dir().join(format!("trace-{}.jsonl", args.workload));
        run.tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            run.tracer.span_count(),
            path.display()
        );
        println!("# self time by span (span minus children)");
        for (name, row) in run.tracer.self_times() {
            println!(
                "#   {name:<24} self {:>12.3} ms  total {:>12.3} ms  spans {}",
                row.self_ns as f64 / 1e6,
                row.total_ns as f64 / 1e6,
                row.count
            );
        }
        run.report.print(&metrics::per_layer());
    } else {
        run.report.print(&metrics::end_to_end());
    }
    Ok(run.report.correct())
}

fn main() -> ExitCode {
    // Gated phases are single-threaded: whether the host lends the
    // second core is not something a run can repeat. Must happen before
    // the program first asks for its thread count.
    std::env::set_var("ADAPEX_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", metrics::benchmark_json());
            Ok(true)
        }
        Some("repeat") => {
            parse_args(&args[1..]).and_then(|a| repeat::run(a.sets, a.seed, a.seconds))
        }
        _ => parse_args(&args).and_then(run_workload),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("adapex-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
