//! The gate must gate: these tests prove the lint and confinement
//! passes flag every seeded violation in the fixture tree, stay quiet
//! on the real workspace, and print byte-identical diagnostics across
//! runs, that the clippy/rustc configuration carrying the panic,
//! cast, nondeterminism and `unsafe` rules is in place, and that the
//! gate itself depends on no model crate.

use std::path::{Path, PathBuf};

use analysis::allow::Allowlist;
use analysis::{confine, lint};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/violations")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn render(findings: &[analysis::Finding]) -> String {
    findings
        .iter()
        .map(|f| format!("{f}\n"))
        .collect::<String>()
}

#[test]
fn fixtures_trip_every_rule() {
    let report = lint::lint_tree(&fixture_root(), "", "");

    // crates/fsencr/src/batch.rs and crates/secmem/src/metadata.rs
    // fixtures: one bare `Vec::new()` and one bare `VecDeque::new()`
    // each; crates/crypto/src/lanes.rs, crates/faults/src/inject.rs and
    // crates/snapshot/src/lib.rs fixtures: one bare `Vec::new()` each —
    // sized allocations, doc comments and test modules exempt.
    assert!(
        report.findings.iter().all(|f| f.rule == "hot-alloc"),
        "{}",
        render(&report.findings)
    );
    assert_eq!(report.findings.len(), 7, "{}", render(&report.findings));
    assert_eq!(report.suppressed, 0);
}

#[test]
fn fixture_findings_are_allowlistable() {
    let allow = "hot-alloc crates/fsencr/src/batch.rs VecDeque -- fixture audit\n";
    let report = lint::lint_tree(&fixture_root(), allow, "allowlist.txt");
    assert_eq!(report.suppressed, 1);
    assert!(!report
        .findings
        .iter()
        .any(|f| f.path.contains("crates/fsencr/") && f.message.contains("VecDeque")));
    // A stale entry must itself become a finding.
    let stale = "hot-alloc crates/fsencr/src/batch.rs never-matches -- stale\n";
    let report = lint::lint_tree(&fixture_root(), stale, "allowlist.txt");
    assert!(report.findings.iter().any(|f| f.rule == "allowlist-unused"));
}

#[test]
fn fixtures_trip_the_confinement_pass() {
    let report = confine::check_tree(&fixture_root(), "", "");
    let count = |rule: &str| report.findings.iter().filter(|f| f.rule == rule).count();

    // crates/fsencr/src/leak.rs: one raw `poke_line` edge plus the
    // wrapper one call away; crates/workloads/src/ivreuse.rs: one
    // `PadInput` construction and two `line_pad` calls reusing it.
    assert_eq!(
        count("plaintext-confinement"),
        1,
        "{}",
        render(&report.findings)
    );
    assert_eq!(
        count("confinement-reach"),
        1,
        "{}",
        render(&report.findings)
    );
    assert_eq!(count("pad-site"), 3, "{}", render(&report.findings));
    assert_eq!(report.findings.len(), 5, "{}", render(&report.findings));

    // The direct leak names its function so the wrapper finding can be
    // traced back; the wrapper finding names both ends of the path.
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "plaintext-confinement" && f.message.contains("`dump_plain`")));
    assert!(report.findings.iter().any(|f| f.rule == "confinement-reach"
        && f.message.contains("checkpoint_fast")
        && f.message.contains("dump_plain")));
}

#[test]
fn confinement_findings_are_allowlistable_and_stop_reach() {
    // Auditing the direct edge also un-taints the wrapper: only the
    // pad-site findings remain.
    let allow = "plaintext-confinement crates/fsencr/src/leak.rs dump_plain -- fixture audit\n";
    let report = confine::check_tree(&fixture_root(), allow, "allowlist.txt");
    assert_eq!(report.suppressed, 1);
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.rule == "pad-site" && f.path.contains("ivreuse")),
        "{}",
        render(&report.findings)
    );
}

#[test]
fn diagnostics_are_byte_identical_across_runs() {
    let lint_a = render(&lint::lint_tree(&fixture_root(), "", "").findings);
    let lint_b = render(&lint::lint_tree(&fixture_root(), "", "").findings);
    assert!(!lint_a.is_empty());
    assert_eq!(lint_a, lint_b);
    let conf_a = render(&confine::check_tree(&fixture_root(), "", "").findings);
    let conf_b = render(&confine::check_tree(&fixture_root(), "", "").findings);
    assert!(!conf_a.is_empty());
    assert_eq!(conf_a, conf_b);
}

#[test]
fn real_tree_is_clean_with_the_checked_in_allowlist() {
    // Mirrors the CLI: both source passes share one allowlist instance,
    // and the stale-entry check runs once at the end — every checked-in
    // entry must be exercised by *some* pass.
    let root = workspace_root();
    let allowlist_path = root.join("crates/analysis/allowlist.txt");
    let text = std::fs::read_to_string(&allowlist_path).expect("allowlist readable");
    let mut allow = Allowlist::parse(&text);
    let (mut findings, _) = lint::lint_tree_with(&root, &mut allow);
    let (confine_findings, confine_suppressed) = confine::check_tree_with(&root, &mut allow);
    findings.extend(confine_findings);
    findings.extend(allow.unused_findings("crates/analysis/allowlist.txt"));
    assert!(
        findings.is_empty(),
        "the workspace must pass both source passes clean:\n{}",
        render(&findings)
    );
    assert!(
        confine_suppressed > 0,
        "confinement allowlist should be exercised"
    );
}

/// The hot-path crates and the experiment library: their non-test code
/// must be panic-free and free of truncating casts.
const HOT_CRATES: [&str; 10] = [
    "fsencr", "fs", "secmem", "crypto", "nvm", "cache", "obs", "faults", "snapshot", "bench",
];

/// The figure-producing crates: no host clocks, hashed collections or
/// worker identity may reach their output.
const FIGURE_CRATES: [&str; 3] = ["bench", "sim", "obs"];

fn read(rel: &str) -> String {
    std::fs::read_to_string(workspace_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn stock_lint_config_is_in_place() {
    let root_manifest = read("Cargo.toml");
    assert!(
        root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""),
        "the workspace must forbid unsafe code"
    );
    let mut manifests = vec!["Cargo.toml".to_string()];
    let mut members: Vec<String> = std::fs::read_dir(workspace_root().join("crates"))
        .expect("crates/ readable")
        .flatten()
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    members.sort();
    assert!(members.len() >= HOT_CRATES.len(), "{members:?}");
    manifests.extend(members.iter().map(|m| format!("crates/{m}/Cargo.toml")));
    for manifest in &manifests {
        assert!(
            read(manifest).contains("[lints]\nworkspace = true"),
            "{manifest} must inherit the workspace lints"
        );
    }
    for krate in HOT_CRATES {
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        for line in [
            "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]",
            "#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]",
        ] {
            assert!(
                lib.contains(line),
                "crates/{krate}/src/lib.rs lacks `{line}`"
            );
        }
    }
    let test_exemptions = [
        "allow-unwrap-in-tests = true",
        "allow-expect-in-tests = true",
        "allow-panic-in-tests = true",
    ];
    let root_config = read("clippy.toml");
    for key in test_exemptions {
        assert!(root_config.contains(key), "clippy.toml lacks `{key}`");
    }
    for krate in FIGURE_CRATES {
        let config = read(&format!("crates/{krate}/clippy.toml"));
        for needle in test_exemptions.iter().chain(&[
            "disallowed-types",
            "\"std::collections::HashMap\"",
            "\"std::collections::HashSet\"",
            "\"std::time::Instant\"",
            "\"std::time::SystemTime\"",
            "disallowed-methods",
            "\"std::thread::current\"",
        ]) {
            assert!(
                config.contains(needle),
                "crates/{krate}/clippy.toml lacks `{needle}`"
            );
        }
    }
}

#[test]
fn gate_has_no_normal_dependencies() {
    // The gate reads source text only. Runtime invariants of the model
    // are tests in the crates that define them; a dependency here would
    // make building the gate compile the model again.
    let manifest = read("crates/analysis/Cargo.toml");
    let deps: Vec<&str> = manifest
        .split("\n[dependencies]\n")
        .nth(1)
        .expect("crates/analysis/Cargo.toml keeps a `[dependencies]` table")
        .lines()
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.trim().is_empty() && !line.trim_start().starts_with('#'))
        .collect();
    assert!(
        deps.is_empty(),
        "the analysis gate must not depend on {deps:?}"
    );
    for header in manifest
        .lines()
        .filter(|line| line.starts_with('[') && line.contains("dependencies"))
    {
        assert!(
            header == "[dependencies]" || header.starts_with("[dev-dependencies"),
            "crates/analysis/Cargo.toml must not declare `{header}`"
        );
    }
}
