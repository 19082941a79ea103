//! A committed fingerprint of training numerics.
//!
//! Every other training test compares two runs of one build, so none of
//! them would notice a change that moves every run the same way — a
//! reordered gradient sum, a kernel that rounds differently, or an
//! optimizer that miscompiles the data generator in one profile only.
//! This one pins the bytes: a small width-8 `LibraryGenerator` run (one
//! epoch, two pruning rates, one worker) must serialize to artifacts
//! whose FNV-1a-64 hash is the constant below, in the test profile and
//! in the release profile alike.
//!
//! A change that is meant to move training numerics re-captures the
//! constants from the failure message, bumps
//! `adapex::cache::NUMERICS_VERSION` and records the new version in
//! `NUMERICS` below, and says why in its description. The three are
//! asserted as one tuple: the hash is blessed *for* a numerics version,
//! so a re-blessed hash under an unchanged version reads as a mistake in
//! review, and the bump retires every cached checkpoint, evaluation and
//! entry trained under the old numerics.

use adapex::generator::{GeneratorConfig, LibraryGenerator};
use adapex::NUMERICS_VERSION;
use adapex_dataset::{DatasetKind, SyntheticConfig};
use adapex_nn::CnvConfig;

/// The `NUMERICS_VERSION` the two constants below were captured under.
const NUMERICS: u32 = 1;
/// FNV-1a-64 of the compact artifact JSON.
const ARTIFACTS_FNV: u64 = 0xae4f_71dd_5a72_7787;
/// Length of that JSON in bytes, for a readable first failure.
const ARTIFACTS_LEN: usize = 5126;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn small_library_generation_matches_its_committed_fingerprint() {
    let kind = DatasetKind::Cifar10Like;
    let mut cfg = GeneratorConfig::fast(kind);
    cfg.dataset = SyntheticConfig::new(kind).with_sizes(80, 40);
    cfg.cnv = CnvConfig::scaled(8);
    cfg.train.epochs = 1;
    cfg.retrain.epochs = 1;
    cfg.pruning_rates = vec![0.0, 0.6];
    cfg.jobs = 1;
    let artifacts = LibraryGenerator::new(cfg).generate();
    let json = serde_json::to_string(&artifacts).expect("artifacts serialize");
    let got = fnv1a64(json.as_bytes());
    assert_eq!(
        (NUMERICS_VERSION, json.len(), got),
        (NUMERICS, ARTIFACTS_LEN, ARTIFACTS_FNV),
        "training fingerprint moved: numerics version {NUMERICS_VERSION}, {} bytes, \
         fnv {got:#018x}",
        json.len()
    );
}
