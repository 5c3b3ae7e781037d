//! The gate's command line: usage errors and a root with nothing to
//! analyse exit 2, so neither a retired command nor a mistyped `--root`
//! can read as a clean pass; the real tree passes both source passes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn analysis(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_analysis"))
        .args(args)
        .output()
        .expect("the analysis binary runs")
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("analysis-cli-{name}"))
}

fn assert_usage_exit(args: &[&str], stderr_needle: &str) {
    let out = analysis(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
    assert!(stderr.contains(stderr_needle), "{args:?}: {stderr}");
}

#[test]
fn missing_and_empty_roots_exit_2() {
    let missing = scratch("missing");
    let _ = std::fs::remove_dir_all(&missing);
    let missing = missing.to_str().expect("utf-8 path");
    assert_usage_exit(&["check", "--root", missing], "no crates/*/src/**/*.rs");

    // A tree with sources only outside `crates/` has nothing to gate.
    let empty = scratch("empty");
    let _ = std::fs::remove_dir_all(&empty);
    std::fs::create_dir_all(empty.join("crates/x/src")).expect("scratch dir");
    std::fs::create_dir_all(empty.join("src")).expect("scratch dir");
    std::fs::write(empty.join("src/main.rs"), "fn main() {}\n").expect("scratch file");
    let empty = empty.to_str().expect("utf-8 path");
    assert_usage_exit(&["check", "--root", empty], "no crates/*/src/**/*.rs");
}

#[test]
fn usage_errors_exit_2() {
    assert_usage_exit(&["layout"], "unknown command `layout`");
    assert_usage_exit(&["check", "extra"], "unexpected argument `extra`");
    assert_usage_exit(&["--bogus"], "unknown flag `--bogus`");
    assert_usage_exit(&["check", "--root"], "--root needs a directory");
    // `lint` was a second name for `check`; it is retired.
    assert_usage_exit(&["lint"], "unknown command `lint`");
}

#[test]
fn help_prints_usage_on_stdout_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = analysis(&[flag]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert!(stdout.starts_with("usage: analysis"), "{flag}: {stdout}");
        assert!(!stdout.contains("lint"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}");
    }
}

#[test]
fn check_passes_the_real_tree() {
    let out = analysis(&["check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains("analysis [lint+confine]: 0 finding(s)"),
        "{stdout}"
    );
}
