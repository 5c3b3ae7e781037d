//! CLI for the static analysis gate.
//!
//! ```sh
//! cargo run --release -p analysis -- check    # both passes: lint + confine
//! cargo run --release -p analysis -- check --root crates/analysis/fixtures/violations
//! cargo run --release -p analysis -- --help   # usage line on stdout, exit 0
//! ```
//!
//! Exit status: 0 when no findings survive the allowlist (and for
//! `--help`), 1 otherwise, 2 on usage errors and on a root with no
//! `crates/*/src/**/*.rs` (a mistyped `--root` must not read as a clean
//! pass). Output is sorted and byte-identical across runs.

use std::path::PathBuf;

use analysis::allow::Allowlist;
use analysis::{confine, lint, Finding};

const USAGE: &str = "usage: analysis [check] [--root DIR]";

/// What the command line asks for.
enum Cli {
    /// Run both passes over this root, or the workspace's.
    Check(Option<PathBuf>),
    /// Print the usage line.
    Help,
}

/// Parses the command line.
fn parse_args() -> Result<Cli, String> {
    let mut has_command = false;
    let mut root = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--root" => {
                let value = argv.next().ok_or("--root needs a directory")?;
                root = Some(PathBuf::from(value));
            }
            "--help" | "-h" => return Ok(Cli::Help),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            "check" if !has_command => has_command = true,
            cmd if !has_command => return Err(format!("unknown command `{cmd}`")),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    Ok(Cli::Check(root))
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
        Ok(Cli::Check(root)) => root.unwrap_or_else(analysis::workspace_root),
        Ok(Cli::Help) => {
            println!("{USAGE}");
            return;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
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
