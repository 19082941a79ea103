//! The `paper` bin's flags are its whole interface: anything else is
//! refused with the usage text, before a library is generated or a
//! file written.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Every path under `dir`, sorted.
fn listing(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("cache dir is readable") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path.clone());
            }
            out.push(path);
        }
    }
    out.sort();
    out
}

fn assert_refused(args: &[&str]) {
    let cache = adapex_bench::cache_dir();
    let before = listing(&cache);
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("paper runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} was accepted");
    assert!(
        stderr.contains("usage: paper [--profile fast|repro] [--jobs N]"),
        "{args:?} printed no usage: {stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed results");
    assert_eq!(
        listing(&cache),
        before,
        "{args:?} wrote under {}",
        cache.display()
    );
}

#[test]
fn an_unknown_profile_is_refused() {
    assert_refused(&["--profile", "quick"]);
}

#[test]
fn a_job_count_that_is_not_a_number_is_refused() {
    assert_refused(&["--jobs", "x"]);
}

#[test]
fn an_unknown_flag_is_refused() {
    assert_refused(&["--bogus"]);
}
