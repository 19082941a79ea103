//! Determinism and incrementality harness for the content-addressed
//! artifact cache: cache hits must reproduce a cold run byte-for-byte
//! (for any job count), a fully-warm re-run must touch no training at
//! all, corruption — a cached evaluation of the wrong shape included —
//! must degrade to recompute, and extending the sweep must reuse every
//! previously-built variant. The dataset is drawn only on demand, so the
//! cases that rebuild from cached checkpoints also check that whichever
//! consumer draws it first sees the same images.

use adapex::generator::{Artifacts, GeneratorConfig, LibraryGenerator};
use adapex::{CacheStats, LibraryEntry};
use adapex_dataset::DatasetKind;
use adapex_nn::eval::ExitEvaluation;
use std::fs;
use std::path::{Path, PathBuf};

/// Self-cleaning scratch directory for one test's cache.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "adapex-cache-test-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp cache dir");
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Fast-profile config trimmed to two variants per sweep (mirrors
/// `parallel_determinism.rs`), optionally cache-backed.
fn scenario(jobs: usize, rates: &[f64], cache: Option<&Path>) -> GeneratorConfig {
    let mut cfg = GeneratorConfig::fast(DatasetKind::Cifar10Like);
    cfg.pruning_rates = rates.to_vec();
    cfg.jobs = jobs;
    if let Some(dir) = cache {
        cfg = cfg.with_cache_dir(dir);
    }
    cfg
}

fn run(cfg: GeneratorConfig) -> (Artifacts, CacheStats, String) {
    let (artifacts, stats) = LibraryGenerator::new(cfg).generate_with_stats();
    let json = serde_json::to_string_pretty(&artifacts).expect("artifacts serialize");
    (artifacts, stats, json)
}

#[test]
fn cache_is_byte_identical_incremental_and_corruption_tolerant() {
    let tmp = TempDir::new("sweep");
    let rates = [0.0, 0.4];

    // Ground truth: the cache-disabled run this PR must not perturb.
    let (_, off_stats, baseline) = run(scenario(1, &rates, None));
    assert_eq!(off_stats, CacheStats::default(), "disabled cache counted probes");

    // Cold run populates the cache and must already match the baseline.
    let (_, cold_stats, cold) = run(scenario(1, &rates, Some(tmp.path())));
    assert_eq!(cold, baseline, "cache-enabled cold run diverged from cache-disabled run");
    assert_eq!(cold_stats.hits(), 0, "cold run cannot hit: {cold_stats:?}");
    assert_eq!(cold_stats.entry_misses, 4, "{cold_stats:?}");

    // Warm sequential run: pure hits, byte-identical artifacts, and no
    // training at all (every finished entry short-circuits, so even the
    // base checkpoints are never probed).
    let (_, warm_stats, warm) = run(scenario(1, &rates, Some(tmp.path())));
    assert_eq!(warm, cold, "warm jobs=1 artifacts diverged from cold run");
    assert!(warm_stats.all_hits(), "warm run missed: {warm_stats:?}");
    assert_eq!(warm_stats.entry_hits, 4, "{warm_stats:?}");
    assert_eq!(warm_stats.checkpoint_hits, 0, "{warm_stats:?}");

    // Warm parallel run: concurrent lookups agree byte-for-byte.
    let (_, par_stats, par) = run(scenario(4, &rates, Some(tmp.path())));
    assert_eq!(par, cold, "warm jobs=4 artifacts diverged from cold run");
    assert!(par_stats.all_hits(), "parallel warm run missed: {par_stats:?}");

    // Corrupt one finished entry on disk: the run must log a miss,
    // rebuild that entry from the finer-grained artifacts, and still
    // produce byte-identical output.
    let entry_file = artifacts(tmp.path(), ".entry.json")
        .into_iter()
        .next()
        .expect("a finished entry is cached");
    fs::write(&entry_file, b"{ definitely not json").unwrap();
    let (_, hurt_stats, hurt) = run(scenario(1, &rates, Some(tmp.path())));
    assert_eq!(hurt, cold, "corrupt-entry recompute diverged from cold run");
    assert_eq!(hurt_stats.entry_misses, 1, "{hurt_stats:?}");
    assert_eq!(hurt_stats.entry_hits, 3, "{hurt_stats:?}");

    // Extended sweep (one new pruning rate): only the new variants are
    // built; every old entry and both base checkpoints are reused.
    let extended_rates = [0.0, 0.4, 0.6];
    let (ext_art, ext_stats, _) = run(scenario(2, &extended_rates, Some(tmp.path())));
    assert_eq!(ext_stats.entry_hits, 4, "{ext_stats:?}");
    assert_eq!(ext_stats.entry_misses, 2, "{ext_stats:?}");
    assert_eq!(
        ext_stats.checkpoint_hits, 2,
        "new variants must reuse both cached base models: {ext_stats:?}"
    );
    assert_eq!(
        ext_stats.checkpoint_misses, 2,
        "only the two new rate-0.6 variants may train: {ext_stats:?}"
    );

    // The shared prefix of the extended library is byte-identical to
    // the original sweep's entries.
    let (orig_art, _, _) = run(scenario(1, &rates, Some(tmp.path())));
    for (o, e) in orig_art.adapex.entries.iter().zip(&ext_art.adapex.entries) {
        assert_eq!(o, e, "extended sweep changed existing adapex entry {}", o.id);
    }
    for (o, e) in orig_art.pr_only.entries.iter().zip(&ext_art.pr_only.entries) {
        assert_eq!(o, e, "extended sweep changed existing pr_only entry {}", o.id);
    }
}

#[test]
fn warm_cache_is_job_count_invariant_for_fresh_populations() {
    // Populate with a parallel sweep, then read back sequentially: the
    // hit path must not depend on which job count *wrote* the cache.
    let tmp = TempDir::new("writer-jobs");
    let rates = [0.0, 0.3];
    let (_, _, cold) = run(scenario(4, &rates, Some(tmp.path())));
    let (_, warm_stats, warm) = run(scenario(1, &rates, Some(tmp.path())));
    assert_eq!(warm, cold, "jobs=4-written cache read back differently at jobs=1");
    assert!(warm_stats.all_hits(), "{warm_stats:?}");
}

#[test]
fn misshapen_cached_evaluations_are_recomputed() {
    // A cached evaluation that parses but does not fit the net — no
    // exits at all, or columns shorter than the sample count they claim
    // — is a corrupt artifact: logged, recomputed, overwritten and
    // counted as an eval miss, never indexed out of bounds.
    let tmp = TempDir::new("misshapen-eval");
    let rates = [0.0, 0.4];
    let (_, _, cold) = run(scenario(1, &rates, Some(tmp.path())));
    let evals = artifacts(tmp.path(), ".eval.json");
    assert_eq!(evals.len(), 5, "the plain model's evaluation and four variants'");

    // The empty shape everywhere. Finished entries still hit, so only
    // the plain model's evaluation — read on every run — is probed.
    for f in &evals {
        fs::write(f, br#"{"correct":[],"confidence":[],"samples":0}"#).unwrap();
    }
    let (_, stats, rerun) = run(scenario(1, &rates, Some(tmp.path())));
    assert_eq!(rerun, cold, "empty-eval recompute diverged from cold run");
    assert_eq!((stats.eval_hits, stats.eval_misses), (0, 1), "{stats:?}");
    assert_eq!(stats.entry_hits, 4, "{stats:?}");

    // Three exits of one sample each, claiming forty, with the finished
    // entries gone: every evaluation is probed and none fits — not the
    // plain model's (one exit), not the variants' (one sample).
    for f in &evals {
        fs::write(
            f,
            br#"{"correct":[[true],[true],[true]],"confidence":[[0.5],[0.5],[0.5]],"samples":40}"#,
        )
        .unwrap();
    }
    for f in artifacts(tmp.path(), ".entry.json") {
        fs::remove_file(f).unwrap();
    }
    let (_, stats, rerun) = run(scenario(1, &rates, Some(tmp.path())));
    assert_eq!(rerun, cold, "short-eval recompute diverged from cold run");
    assert_eq!((stats.eval_hits, stats.eval_misses), (0, 5), "{stats:?}");
    assert_eq!(stats.entry_misses, 4, "{stats:?}");
    assert_eq!(stats.checkpoint_misses, 0, "nothing retrains: {stats:?}");

    // Every slot was overwritten: the next run is all hits.
    let (_, stats, rerun) = run(scenario(1, &rates, Some(tmp.path())));
    assert_eq!(rerun, cold);
    assert!(stats.all_hits(), "{stats:?}");
}

#[test]
fn misshapen_cached_entries_are_rebuilt() {
    // A finished entry that parses but does not fit its sweep position
    // — no operating points, or another variant's id — is a corrupt
    // artifact: logged, rebuilt from the cached checkpoint and
    // evaluation, overwritten and counted as an entry miss.
    let tmp = TempDir::new("misshapen-entry");
    let rates = [0.0, 0.4];
    let (_, _, cold) = run(scenario(1, &rates, Some(tmp.path())));
    let entry_file = artifacts(tmp.path(), ".entry.json")
        .into_iter()
        .next()
        .expect("a finished entry is cached");
    let intact: LibraryEntry = parse(&entry_file);

    let mut pointless = intact.clone();
    pointless.points.clear();
    let mut misplaced = intact;
    misplaced.id += 1;
    for (what, entry) in [("no points", pointless), ("wrong id", misplaced)] {
        fs::write(&entry_file, serde_json::to_string(&entry).unwrap()).unwrap();
        let (_, stats, rerun) = run(scenario(1, &rates, Some(tmp.path())));
        assert_eq!(rerun, cold, "{what}: rebuilt entry diverged from cold run");
        assert_eq!((stats.entry_hits, stats.entry_misses), (3, 1), "{what}: {stats:?}");
        assert_eq!(stats.misses(), 1, "{what}: only the entry rebuilds: {stats:?}");
    }
    let (_, stats, rerun) = run(scenario(1, &rates, Some(tmp.path())));
    assert_eq!(rerun, cold);
    assert!(stats.all_hits(), "the rebuilt slot was overwritten: {stats:?}");
}

#[test]
fn an_evaluation_can_be_the_first_to_draw_the_dataset() {
    // One pruning rate, so the AdaPEx sweep has one variant: the only
    // entry with more than one operating point and the only
    // three-exit evaluation. Without them, both base checkpoints and the
    // variant's checkpoint hit, so nothing trains and the first
    // consumer of the dataset is that variant's evaluation on the test
    // split.
    let tmp = TempDir::new("eval-draws-first");
    let rates = [0.4];
    let (_, _, cold) = run(scenario(1, &rates, Some(tmp.path())));
    for jobs in [1, 4] {
        let entries: Vec<PathBuf> = artifacts(tmp.path(), ".entry.json")
            .into_iter()
            .filter(|f| parse::<LibraryEntry>(f).points.len() > 1)
            .collect();
        let evals: Vec<PathBuf> = artifacts(tmp.path(), ".eval.json")
            .into_iter()
            .filter(|f| parse::<ExitEvaluation>(f).num_exits() == 3)
            .collect();
        assert_eq!((entries.len(), evals.len()), (1, 1), "one AdaPEx variant");
        fs::remove_file(&entries[0]).unwrap();
        fs::remove_file(&evals[0]).unwrap();

        let (_, stats, rerun) = run(scenario(jobs, &rates, Some(tmp.path())));
        assert_eq!(rerun, cold, "jobs={jobs}: evaluation-first draw diverged from cold run");
        assert_eq!((stats.entry_misses, stats.eval_misses), (1, 1), "jobs={jobs}: {stats:?}");
        assert_eq!(stats.misses(), 2, "jobs={jobs}: nothing retrains: {stats:?}");
    }
}

fn parse<T: serde::Deserialize>(file: &Path) -> T {
    serde_json::from_str(&fs::read_to_string(file).unwrap()).unwrap()
}

/// Files under the cache's epoch directory with the given suffix,
/// sorted.
fn artifacts(cache_dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let epoch_dir = fs::read_dir(cache_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.is_dir())
        .expect("cache epoch directory exists");
    let mut files: Vec<PathBuf> = fs::read_dir(&epoch_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .collect();
    files.sort();
    files
}
