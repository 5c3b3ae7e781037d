//! CLI for the static analysis gate.
//!
//! ```sh
//! cargo run --release -p analysis -- check    # both passes: lint + confine
//! cargo run --release -p analysis -- lint --root crates/analysis/fixtures/violations
//! ```
//!
//! `lint` is another name for `check`. Exit status: 0 when no findings
//! survive the allowlist, 1 otherwise, 2 on usage errors and on a root
//! with no `crates/*/src/**/*.rs` (a mistyped `--root` must not read as
//! a clean pass). Output is sorted and byte-identical across runs.

use std::path::PathBuf;

use analysis::allow::Allowlist;
use analysis::{confine, lint, Finding};

const USAGE: &str = "usage: analysis [check|lint] [--root DIR]";

/// Parses the command line into the root to analyse, if one was given.
/// `check` and `lint` name the same two passes.
fn parse_args() -> Result<Option<PathBuf>, String> {
    let mut has_command = false;
    let mut root = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => {
                let value = argv.next().ok_or("--root needs a directory")?;
                root = Some(PathBuf::from(value));
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            "check" | "lint" if !has_command => has_command = true,
            cmd if !has_command => return Err(format!("unknown command `{cmd}`")),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    Ok(root)
}

/// The source passes — token lint plus the item-graph confinement
/// check — share one allowlist instance so the stale-entry check is
/// global: an entry unused by *both* passes fails the gate.
fn run_source_passes(root: &std::path::Path) -> (Vec<Finding>, usize) {
    // The audited-exception list lives next to this crate for the real
    // tree; fixture trees may carry their own at their root.
    let candidates = [
        root.join("crates/analysis/allowlist.txt"),
        root.join("allowlist.txt"),
    ];
    let (text, path) = candidates
        .iter()
        .find_map(|p| {
            std::fs::read_to_string(p)
                .ok()
                .map(|t| (t, p.display().to_string()))
        })
        .unwrap_or_default();
    let mut allow = Allowlist::parse(&text);
    let (mut findings, lint_suppressed) = lint::lint_tree_with(root, &mut allow);
    let (confine_findings, confine_suppressed) = confine::check_tree_with(root, &mut allow);
    findings.extend(confine_findings);
    findings.extend(allow.unused_findings(&path));
    findings.sort();
    findings.dedup();
    (findings, lint_suppressed + confine_suppressed)
}

fn main() {
    let root = match parse_args() {
        Ok(root) => root.unwrap_or_else(analysis::workspace_root),
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if !lint::rust_sources(&root)
        .iter()
        .any(|f| f.starts_with("crates/"))
    {
        eprintln!("error: no crates/*/src/**/*.rs under `{}`", root.display());
        std::process::exit(2);
    }

    let (findings, suppressed) = run_source_passes(&root);
    for finding in &findings {
        println!("{finding}");
    }
    println!(
        "analysis [lint+confine]: {} finding(s), {} suppressed by allowlist",
        findings.len(),
        suppressed
    );
    std::process::exit(if findings.is_empty() { 0 } else { 1 });
}
