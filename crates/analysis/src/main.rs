//! CLI for the static analysis gate.
//!
//! ```sh
//! cargo run --release -p analysis -- check    # lint + confine + layout
//! cargo run --release -p analysis -- lint     # source passes (lint + confine)
//! cargo run --release -p analysis -- layout   # invariants only
//! cargo run --release -p analysis -- lint --root crates/analysis/fixtures/violations
//! ```
//!
//! Exit status: 0 when no findings survive the allowlist, 1 otherwise,
//! 2 on usage errors. Output is sorted and byte-identical across runs.

use std::path::PathBuf;

use analysis::allow::Allowlist;
use analysis::{confine, layout_check, lint, Finding};

const USAGE: &str = "usage: analysis [check|lint|layout] [--root DIR]";

struct Args {
    command: String,
    root: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut command = None;
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
            cmd if command.is_none() => command = Some(cmd.to_string()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    Ok(Args {
        command: command.unwrap_or_else(|| "check".to_string()),
        root,
    })
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
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let root = args.root.unwrap_or_else(analysis::workspace_root);

    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut passes = Vec::new();
    match args.command.as_str() {
        "lint" => {
            let (f, s) = run_source_passes(&root);
            findings.extend(f);
            suppressed = s;
            passes.extend(["lint", "confine"]);
        }
        "layout" => {
            findings.extend(layout_check::check());
            passes.push("layout");
        }
        "check" => {
            let (f, s) = run_source_passes(&root);
            findings.extend(f);
            suppressed = s;
            findings.extend(layout_check::check());
            passes.extend(["lint", "confine", "layout"]);
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }

    findings.sort();
    for finding in &findings {
        println!("{finding}");
    }
    println!(
        "analysis [{}]: {} finding(s), {} suppressed by allowlist",
        passes.join("+"),
        findings.len(),
        suppressed
    );
    std::process::exit(if findings.is_empty() { 0 } else { 1 });
}
