//! The gate must gate: these tests prove the lint and confinement
//! passes flag every seeded violation in the fixture tree, stay quiet
//! on the real workspace, and print byte-identical diagnostics across
//! runs.

use std::path::{Path, PathBuf};

use analysis::allow::Allowlist;
use analysis::{confine, layout_check, lint};

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
    let count = |rule: &str| report.findings.iter().filter(|f| f.rule == rule).count();

    // crates/fsencr fixture: missing forbid, unwrap, expect, panic!,
    // two lossy casts; crates/obs fixture: missing forbid, one unwrap,
    // one lossy cast; crates/faults and crates/snapshot fixtures: one
    // unwrap each; crates/fs fixture: one unwrap and one expect — and
    // nothing from #[cfg(test)] modules, doc comments or string literals.
    assert_eq!(count("forbid-unsafe"), 2, "{}", render(&report.findings));
    assert_eq!(count("no-panic"), 8, "{}", render(&report.findings));
    assert_eq!(count("lossy-cast"), 3, "{}", render(&report.findings));

    // crates/bench fixture: HashMap, HashSet, Instant, SystemTime on
    // two lines each plus one thread::current; crates/obs fixture:
    // HashMap and Instant on two lines each — test modules exempt.
    assert_eq!(count("nondeterminism"), 13, "{}", render(&report.findings));

    // crates/fsencr/src/batch.rs and crates/secmem/src/metadata.rs
    // fixtures: one bare `Vec::new()` and one bare `VecDeque::new()`
    // each; crates/crypto/src/lanes.rs, crates/faults/src/inject.rs and
    // crates/snapshot/src/lib.rs fixtures: one bare `Vec::new()` each —
    // sized allocations, doc comments and test modules exempt.
    assert_eq!(count("hot-alloc"), 7, "{}", render(&report.findings));
    assert_eq!(report.findings.len(), 33, "{}", render(&report.findings));
    assert_eq!(report.suppressed, 0);

    // The observability crate is held to both bars: the obs fixture must
    // appear under hot-path and figure-determinism rules alike.
    for rule in ["no-panic", "lossy-cast", "nondeterminism", "forbid-unsafe"] {
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == rule && f.path.contains("crates/obs/")),
            "obs fixture missing under {rule}:\n{}",
            render(&report.findings)
        );
    }
}

#[test]
fn fixture_findings_are_allowlistable() {
    let allow = "no-panic crates/fsencr/src/lib.rs unwrap -- fixture audit\n";
    let report = lint::lint_tree(&fixture_root(), allow, "allowlist.txt");
    assert_eq!(report.suppressed, 1);
    assert!(!report
        .findings
        .iter()
        .any(|f| f.rule == "no-panic"
            && f.path.contains("crates/fsencr/")
            && f.message.contains("unwrap")));
    // A stale entry must itself become a finding.
    let stale = "no-panic crates/fsencr/src/lib.rs never-matches -- stale\n";
    let report = lint::lint_tree(&fixture_root(), stale, "allowlist.txt");
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "allowlist-unused"));
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
    assert_eq!(count("confinement-reach"), 1, "{}", render(&report.findings));
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
    let allow =
        "plaintext-confinement crates/fsencr/src/leak.rs dump_plain -- fixture audit\n";
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
    let (mut findings, lint_suppressed) = lint::lint_tree_with(&root, &mut allow);
    let (confine_findings, confine_suppressed) = confine::check_tree_with(&root, &mut allow);
    findings.extend(confine_findings);
    findings.extend(allow.unused_findings("crates/analysis/allowlist.txt"));
    assert!(
        findings.is_empty(),
        "the workspace must pass both source passes clean:\n{}",
        render(&findings)
    );
    assert!(lint_suppressed > 0, "lint allowlist should be exercised");
    assert!(
        confine_suppressed > 0,
        "confinement allowlist should be exercised"
    );
}

#[test]
fn real_tree_satisfies_layout_invariants() {
    let findings = layout_check::check();
    assert!(findings.is_empty(), "{}", render(&findings));
}
