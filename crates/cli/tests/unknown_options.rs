//! Every subcommand refuses an option its usage text does not document,
//! naming it, before any work starts: a misspelt `--duratoin` is an
//! error, not a run at the default duration. A misspelt subcommand is an
//! error too, and a command whose input fails to load prints nothing to
//! stdout.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_adapex-cli"))
        .args(args)
        .output()
        .expect("adapex-cli runs")
}

/// `args` fail with `message` on stderr and nothing on stdout.
fn assert_fails_quietly(args: &[&str], message: &str) -> Output {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} was accepted");
    assert!(stderr.contains(message), "{args:?} did not say `{message}`: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} printed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    out
}

fn assert_refused(args: &[&str], key: &str) {
    assert_fails_quietly(args, &format!("error: unknown option --{key} for {}", args[0]));
}

#[test]
fn a_misspelt_command_is_an_error() {
    let out = assert_fails_quietly(
        &["simulat", "--artifacts", "a.json", "--reps", "3"],
        "error: unknown command simulat",
    );
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn no_command_prints_the_usage() {
    let out = run(&[]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("adapex-cli"));
}

#[test]
fn serve_prints_nothing_before_its_inputs_load() {
    let path = std::env::temp_dir().join(format!("adapex-misspelt-{}.json", std::process::id()));
    std::fs::write(&path, r#"{"schema_version": 1, "nmae": "typo"}"#).unwrap();
    let out = run(&["serve", "--scenario", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert!(!out.status.success(), "a misspelt scenario file was accepted");
    assert!(
        out.stdout.is_empty(),
        "serve printed before failing: {}",
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
