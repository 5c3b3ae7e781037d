//! The token lint pass over workspace sources: `hot-alloc`.
//!
//! Bare `Vec::new()` / `VecDeque::new()` are banned in the files whose
//! verification and crypto inner loops are allocation-free by design
//! (see [`ALLOC_FREE_FILES`]): scratch buffers there are preallocated
//! and reused, and an unsized allocation is how a per-call `Vec`
//! regression starts. Sized allocations (`with_capacity`, literal
//! `vec![…]` in cold reporting paths) stay allowed, and so does code
//! under `#[cfg(test)]`. Audited exceptions go in `allowlist.txt`
//! (`rule path needle -- justification` per line); unused entries are
//! themselves reported so the allowlist can never rot.
//!
//! The panic, truncating-cast, host-nondeterminism and `unsafe` rules
//! are stock lints: clippy and rustc enforce them from the workspace
//! manifest, the hot-path crate roots and the `clippy.toml` files.

use std::path::Path;

use crate::lexer::{lex, Token, TokenKind};
use crate::Finding;

/// Files whose inner loops (verification chains, line digests, pad
/// generation, per-write ECC checks and counter packing) must stay
/// allocation-free: scratch lives in the owning struct and is reused
/// across calls.
const ALLOC_FREE_FILES: [&str; 11] = [
    "crates/secmem/src/metadata.rs",
    "crates/secmem/src/ecc.rs",
    "crates/secmem/src/counters.rs",
    "crates/crypto/src/sha256.rs",
    "crates/crypto/src/lanes.rs",
    "crates/crypto/src/ctr.rs",
    "crates/crypto/src/schedule.rs",
    "crates/crypto/src/oracle.rs",
    "crates/fsencr/src/batch.rs",
    "crates/faults/src/inject.rs",
    "crates/snapshot/src/lib.rs",
];

pub use crate::allow::Allowlist;

/// Result of a lint run: surviving findings plus the suppression count.
#[derive(Debug)]
pub struct LintReport {
    /// Findings that survived the allowlist, sorted.
    pub findings: Vec<Finding>,
    /// How many findings the allowlist suppressed.
    pub suppressed: usize,
}

/// Lints every workspace source under `root`.
///
/// `allowlist_text` is the content of the allowlist file (empty string
/// for none); `allowlist_path` is only used to report unused entries.
pub fn lint_tree(root: &Path, allowlist_text: &str, allowlist_path: &str) -> LintReport {
    let mut allow = Allowlist::parse(allowlist_text);
    let (mut findings, suppressed) = lint_tree_with(root, &mut allow);
    findings.extend(allow.unused_findings(allowlist_path));
    findings.sort();
    findings.dedup();
    LintReport {
        findings,
        suppressed,
    }
}

/// Like [`lint_tree`] but runs against a caller-owned [`Allowlist`] and
/// does *not* append stale-entry findings — the caller reports those
/// once, after every pass sharing the allowlist has run.
pub fn lint_tree_with(root: &Path, allow: &mut Allowlist) -> (Vec<Finding>, usize) {
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for rel in rust_sources(root) {
        let abs = root.join(&rel);
        let Ok(src) = std::fs::read_to_string(&abs) else {
            findings.push(Finding {
                path: rel.clone(),
                line: 0,
                rule: "io",
                message: "source file could not be read".to_string(),
            });
            continue;
        };
        for finding in lint_file(&rel, &src) {
            if allow.suppresses(&finding) {
                suppressed += 1;
            } else {
                findings.push(finding);
            }
        }
    }
    findings.sort();
    findings.dedup();
    (findings, suppressed)
}

/// Enumerates `src/**/*.rs` of the root package and of every
/// `crates/*` member, sorted, as `/`-separated relative paths.
pub fn rust_sources(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), "src", &mut files);
    if let Ok(members) = std::fs::read_dir(root.join("crates")) {
        let mut names: Vec<String> = members
            .flatten()
            .filter(|e| e.path().is_dir())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
        names.sort();
        for name in names {
            let rel = format!("crates/{name}/src");
            collect_rs(&root.join(&rel), &rel, &mut files);
        }
    }
    files.sort();
    files
}

fn collect_rs(dir: &Path, rel: &str, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut names: Vec<(String, bool)> = entries
        .flatten()
        .filter_map(|e| {
            let is_dir = e.path().is_dir();
            e.file_name().into_string().ok().map(|n| (n, is_dir))
        })
        .collect();
    names.sort();
    for (name, is_dir) in names {
        let child_rel = format!("{rel}/{name}");
        if is_dir {
            collect_rs(&dir.join(&name), &child_rel, out);
        } else if name.ends_with(".rs") {
            out.push(child_rel);
        }
    }
}

/// Marks every token inside a `#[cfg(test)]`-gated item. Shared with
/// the item-graph confinement pass so both agree on what "test code"
/// means.
pub(crate) fn test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Mask from the attribute to the end of the gated item: either
        // the `;` of a bodiless item or the matching `}` of its body.
        let start = i;
        let mut j = i + 7;
        let mut depth = 0usize;
        let mut entered = false;
        while j < tokens.len() {
            if tokens[j].is_punct('{') {
                depth += 1;
                entered = true;
            } else if tokens[j].is_punct('}') {
                depth = depth.saturating_sub(1);
                if entered && depth == 0 {
                    break;
                }
            } else if tokens[j].is_punct(';') && !entered {
                break;
            }
            j += 1;
        }
        for m in mask.iter_mut().take((j + 1).min(tokens.len())).skip(start) {
            *m = true;
        }
        i = j + 1;
    }
    mask
}

/// Lints one file's source text.
pub fn lint_file(rel: &str, src: &str) -> Vec<Finding> {
    if !ALLOC_FREE_FILES.contains(&rel) {
        return Vec::new();
    }
    let tokens = lex(src);
    let mask = test_mask(&tokens);
    let mut findings = Vec::new();
    for (idx, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || mask[idx] {
            continue;
        }
        if tok.text == "new"
            && idx >= 3
            && tokens[idx - 1].is_punct(':')
            && tokens[idx - 2].is_punct(':')
            && (tokens[idx - 3].is_ident("Vec") || tokens[idx - 3].is_ident("VecDeque"))
            && tokens.get(idx + 1).is_some_and(|n| n.is_punct('('))
        {
            findings.push(Finding {
                path: rel.to_string(),
                line: tok.line,
                rule: "hot-alloc",
                message: format!(
                    "bare `{}::new()` in allocation-free hot-path file; preallocate \
                     (`with_capacity`) or reuse the owning struct's scratch",
                    tokens[idx - 3].text
                ),
            });
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_files_reject_bare_collection_news() {
        let src = "fn f() { let mut v = Vec::new(); let q: VecDeque<u8> = VecDeque::new(); }";
        for file in ALLOC_FREE_FILES {
            let found = lint_file(file, src);
            assert_eq!(found.len(), 2, "{file}: {found:?}");
            assert!(found.iter().all(|f| f.rule == "hot-alloc"));
        }
        // Sized allocations and cold reporting literals stay allowed.
        let fine = "fn f() { let v = Vec::with_capacity(16); let w = vec![1u8, 2]; }";
        assert!(lint_file("crates/secmem/src/metadata.rs", fine).is_empty());
        // The rule is per-file, not per-crate.
        let elsewhere = "fn f() { let v: Vec<u8> = Vec::new(); }";
        assert!(lint_file("crates/secmem/src/layout.rs", elsewhere).is_empty());
        // Test modules, comments and strings are exempt.
        let exempt = "// Vec::new()\nfn f() { let s = \"Vec::new()\"; }\n\
                      #[cfg(test)]\nmod tests { fn t() { let v: Vec<u8> = Vec::new(); } }";
        assert!(lint_file("crates/crypto/src/sha256.rs", exempt).is_empty());
    }

    #[test]
    fn allowlist_suppresses_and_reports_unused() {
        let mut allow = Allowlist::parse(
            "# comment\n\
             hot-alloc crates/secmem/src/ecc.rs Vec::new -- audited\n\
             hot-alloc crates/secmem/src/ecc.rs never-fires -- stale\n",
        );
        let hit = lint_file(
            "crates/secmem/src/ecc.rs",
            "fn f() { let v: Vec<u8> = Vec::new(); }",
        );
        assert_eq!(hit.len(), 1);
        assert!(allow.suppresses(&hit[0]));
        let unused = allow.unused_findings("allowlist.txt");
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, "allowlist-unused");
        assert_eq!(unused[0].line, 3);
    }
}
