//! Shared support for the experiment benches: artifact caching and
//! simple table rendering.
//!
//! Generating the full AdaPEx library (two trained base CNNs plus ~50
//! pruned/retrained variants per dataset) takes minutes on one CPU
//! core, so the benches share a JSON artifact cache under
//! `target/adapex-cache/`. Controls:
//!
//! * `ADAPEX_PROFILE=fast|repro` — experiment scale (default `repro`).
//! * `ADAPEX_REGEN=1` — ignore the cache and regenerate.
//! * `ADAPEX_DATASETS=cifar10,gtsrb` — restrict the dataset sweep.
//! * `ADAPEX_REPS=N` — edge-simulation repetitions (default 100, the
//!   paper's count).
//! * `ADAPEX_JOBS=N` — worker threads for the variant sweep (default
//!   0 = available parallelism; artifacts are byte-identical for any
//!   value).
//! * `ADAPEX_CACHE=DIR` — content-addressed artifact cache for the
//!   generator itself (trained checkpoints, evaluations, finished
//!   entries). Unlike the whole-artifact JSON above, it survives
//!   config extensions: adding a pruning rate retrains only the new
//!   variants. Unset = no cache; hits are byte-identical to recompute.

use adapex::generator::{Artifacts, GeneratorConfig, LibraryGenerator};
use adapex_dataset::DatasetKind;
use std::path::PathBuf;

/// Schema revision shared by every `BENCH_*.json` report. Consumers
/// (CI artifact diffing, plotting scripts) key on this to detect
/// layout changes; bump it when renaming or re-typing report fields.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Cores the measuring host offers this process
/// (`std::thread::available_parallelism`), recorded beside `threads`
/// in the reports so a timing can be read against its machine.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The vector CPU features of the measuring host that a kernel backend
/// keys on (or could), in the order detection asks for them; recorded in
/// the kernel reports so a backend column can be read against its
/// machine. Empty off x86-64.
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

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Paper-scale sweep (18 rates × 2 modes × 21 thresholds).
    Repro,
    /// Reduced sweep for quick runs.
    Fast,
}

impl Profile {
    /// Reads `ADAPEX_PROFILE` (default `repro`).
    pub fn from_env() -> Self {
        match std::env::var("ADAPEX_PROFILE").as_deref() {
            Ok("fast") => Profile::Fast,
            _ => Profile::Repro,
        }
    }

    /// Cache-key fragment.
    pub fn id(self) -> &'static str {
        match self {
            Profile::Repro => "repro",
            Profile::Fast => "fast",
        }
    }

    /// Generator configuration for a dataset at this profile.
    pub fn generator_config(self, kind: DatasetKind) -> GeneratorConfig {
        let mut cfg = match self {
            Profile::Repro => GeneratorConfig::repro_default(kind),
            Profile::Fast => GeneratorConfig::fast(kind),
        };
        cfg.verbose = true;
        cfg.jobs = jobs();
        if let Some(dir) = artifact_cache_dir() {
            cfg = cfg.with_cache_dir(dir);
        }
        cfg
    }
}

/// Generator-level artifact cache directory (`ADAPEX_CACHE`), if set.
pub fn artifact_cache_dir() -> Option<PathBuf> {
    std::env::var("ADAPEX_CACHE")
        .ok()
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Sweep worker threads (`ADAPEX_JOBS`, default 0 = auto). The job
/// count only affects wall-clock time, never the generated artifacts.
pub fn jobs() -> usize {
    std::env::var("ADAPEX_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The datasets selected via `ADAPEX_DATASETS` (default: both).
pub fn datasets() -> Vec<DatasetKind> {
    match std::env::var("ADAPEX_DATASETS") {
        Ok(list) => {
            let mut kinds = Vec::new();
            for item in list.split(',') {
                match item.trim() {
                    "cifar10" => kinds.push(DatasetKind::Cifar10Like),
                    "gtsrb" => kinds.push(DatasetKind::GtsrbLike),
                    other => eprintln!("ignoring unknown dataset `{other}`"),
                }
            }
            if kinds.is_empty() {
                vec![DatasetKind::Cifar10Like, DatasetKind::GtsrbLike]
            } else {
                kinds
            }
        }
        Err(_) => vec![DatasetKind::Cifar10Like, DatasetKind::GtsrbLike],
    }
}

/// Edge-simulation repetitions (`ADAPEX_REPS`, default 100 as in the
/// paper).
pub fn repetitions() -> usize {
    std::env::var("ADAPEX_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(100)
}

/// Cache directory (`target/adapex-cache` of this workspace).
pub fn cache_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/adapex-cache");
    std::fs::create_dir_all(&dir).expect("cache dir is creatable");
    dir
}

/// Loads or generates the artifacts for one dataset at the env-selected
/// profile.
pub fn artifacts(kind: DatasetKind) -> Artifacts {
    let profile = Profile::from_env();
    let path = cache_dir().join(format!("artifacts-{}-{}.json", kind.id(), profile.id()));
    let regen = std::env::var("ADAPEX_REGEN").is_ok_and(|v| v == "1");
    if !regen {
        if let Ok(art) = Artifacts::load_json(&path) {
            eprintln!("[cache] loaded {}", path.display());
            return art;
        }
    }
    eprintln!(
        "[cache] generating artifacts for {kind} at profile {} (this trains ~50 CNN variants; minutes on one core)",
        profile.id()
    );
    let art = LibraryGenerator::new(profile.generator_config(kind)).generate();
    art.save_json(&path).expect("cache write");
    eprintln!("[cache] saved {}", path.display());
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
    fn profile_ids() {
        assert_eq!(Profile::Repro.id(), "repro");
        assert_eq!(Profile::Fast.id(), "fast");
    }

    #[test]
    fn cache_dir_exists() {
        assert!(cache_dir().is_dir());
    }

    #[test]
    fn row_aligns() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
