//! Every subcommand refuses an option its usage text does not document,
//! naming it, before any work starts: a misspelt `--duratoin` is an
//! error, not a run at the default duration.

use std::process::Command;

fn assert_refused(args: &[&str], key: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_adapex-cli"))
        .args(args)
        .output()
        .expect("adapex-cli runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} was accepted");
    assert!(
        stderr.contains(&format!("error: unknown option --{key} for {}", args[0])),
        "{args:?} did not name --{key}: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "{args:?} printed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn generate_refuses_a_misspelt_key() {
    assert_refused(
        &["generate", "--dataset", "cifar10", "--ot", "never.json"],
        "ot",
    );
}

#[test]
fn inspect_refuses_a_misspelt_key() {
    assert_refused(&["inspect", "--artifact", "a.json"], "artifact");
}

#[test]
fn report_refuses_a_misspelt_key() {
    assert_refused(
        &["report", "--artifacts", "a.json", "--output", "r.md"],
        "output",
    );
}

#[test]
fn simulate_refuses_a_misspelt_key() {
    assert_refused(&["simulate", "--artifacts", "a.json", "--rep", "3"], "rep");
}

#[test]
fn trace_refuses_a_misspelt_key() {
    assert_refused(
        &["trace", "--artifacts", "a.json", "--no-mitigaton"],
        "no-mitigaton",
    );
}

#[test]
fn serve_refuses_a_misspelt_key() {
    assert_refused(
        &["serve", "--duration", "0.01", "--duratoin", "5"],
        "duratoin",
    );
}

#[test]
fn synth_refuses_a_misspelt_key() {
    assert_refused(&["synth", "--widht", "8"], "widht");
}
