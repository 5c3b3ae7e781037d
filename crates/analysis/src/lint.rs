//! The custom lint pass over workspace sources.
//!
//! Four rules, all driven by the token stream from [`crate::lexer`]:
//!
//! * `no-panic` — `.unwrap()`, `.expect(…)` and `panic!(…)` are banned in
//!   non-test code of the hot-path crates (`fsencr`, `fs`, `secmem`,
//!   `crypto`, `nvm`, `cache`, `obs`, `faults`, `snapshot`): the
//!   simulated datapath — and the filesystem state and snapshot codec a
//!   restore depends on — must degrade into typed errors, not abort
//!   mid-figure.
//! * `lossy-cast` — `as {u8,u16,u32,i8,i16,i32}` applied to a
//!   counter/address-width source (an `…addr…`/`…cycle…` identifier or a
//!   `.get()` accessor) silently truncates 64-bit counters; hot-path
//!   crates must use `try_from` or explicit masking instead.
//! * `nondeterminism` — `Instant`, `SystemTime`, `HashMap`, `HashSet`
//!   and `thread::current` are banned in the figure-producing crates
//!   (`bench`, `sim`, `obs`): figure bytes must not depend on wall-clock
//!   time, hash-iteration order or which worker ran a cell. The `obs`
//!   crate is held to both bars — its metrics land in profile bytes and
//!   its record calls sit on the datapath.
//! * `forbid-unsafe` — every crate root (`src/lib.rs`, `src/main.rs`,
//!   `src/bin/*.rs`) must carry `#![forbid(unsafe_code)]`.
//! * `hot-alloc` — bare `Vec::new()` / `VecDeque::new()` are banned in
//!   the files whose verification and crypto inner loops are
//!   allocation-free by design (see [`ALLOC_FREE_FILES`]): scratch
//!   buffers there are preallocated and reused, and an unsized
//!   allocation is how a per-call `Vec` regression starts. Sized
//!   allocations (`with_capacity`, literal `vec![…]` in cold reporting
//!   paths) stay allowed.
//!
//! Code under `#[cfg(test)]` is exempt from `no-panic`, `lossy-cast`,
//! `nondeterminism` and `hot-alloc`. Audited exceptions go in `allowlist.txt`
//! (`rule path needle -- justification` per line); unused entries are
//! themselves reported so the allowlist can never rot.

use std::path::Path;

use crate::lexer::{lex, Token, TokenKind};
use crate::Finding;

/// Crates whose non-test code must be panic-free and cast-safe.
const HOT_CRATES: [&str; 9] =
    ["fsencr", "fs", "secmem", "crypto", "nvm", "cache", "obs", "faults", "snapshot"];

/// Crates whose output is figure bytes and must be deterministic.
const FIGURE_CRATES: [&str; 3] = ["bench", "sim", "obs"];

/// Narrow integer targets a lossy cast can truncate into.
const NARROW: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

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
    LintReport { findings, suppressed }
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

/// The `crates/<name>/…` component of a relative path, or `None` for the
/// root package.
fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    rest.split('/').next()
}

/// Whether `rel` is a crate root that must carry `#![forbid(unsafe_code)]`.
fn is_crate_root(rel: &str) -> bool {
    let tail = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split_once('/'))
        .map_or(rel, |(_, tail)| tail);
    tail == "src/lib.rs"
        || tail == "src/main.rs"
        || (tail.starts_with("src/bin/") && tail.ends_with(".rs") && tail.matches('/').count() == 2)
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
    let tokens = lex(src);
    let mask = test_mask(&tokens);
    let krate = crate_of(rel);
    let hot = krate.is_some_and(|k| HOT_CRATES.contains(&k));
    let figure = krate.is_some_and(|k| FIGURE_CRATES.contains(&k));
    let alloc_free = ALLOC_FREE_FILES.contains(&rel);
    let mut findings = Vec::new();

    if is_crate_root(rel) && !has_forbid_unsafe(&tokens) {
        findings.push(Finding {
            path: rel.to_string(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        });
    }

    for (idx, tok) in tokens.iter().enumerate() {
        if tok.kind != TokenKind::Ident || mask[idx] {
            continue;
        }
        let prev = idx.checked_sub(1).map(|p| &tokens[p]);
        let next = tokens.get(idx + 1);
        if hot {
            match tok.text.as_str() {
                "unwrap" | "expect"
                    if prev.is_some_and(|p| p.is_punct('.'))
                        && next.is_some_and(|n| n.is_punct('(')) =>
                {
                    findings.push(Finding {
                        path: rel.to_string(),
                        line: tok.line,
                        rule: "no-panic",
                        message: format!(
                            "`.{}()` in non-test code of hot-path crate `{}`",
                            tok.text,
                            krate.unwrap_or("?")
                        ),
                    });
                }
                "panic" if next.is_some_and(|n| n.is_punct('!')) => {
                    findings.push(Finding {
                        path: rel.to_string(),
                        line: tok.line,
                        rule: "no-panic",
                        message: format!(
                            "`panic!` in non-test code of hot-path crate `{}`",
                            krate.unwrap_or("?")
                        ),
                    });
                }
                "as" if next.is_some_and(|n| {
                    n.kind == TokenKind::Ident && NARROW.contains(&n.text.as_str())
                }) =>
                {
                    if let Some(source) = lossy_cast_source(&tokens, idx) {
                        findings.push(Finding {
                            path: rel.to_string(),
                            line: tok.line,
                            rule: "lossy-cast",
                            message: format!(
                                "lossy `as {}` on counter/address-width source `{}`",
                                next.map_or("?", |n| n.text.as_str()),
                                source
                            ),
                        });
                    }
                }
                _ => {}
            }
        }
        if alloc_free
            && tok.text == "new"
            && idx >= 3
            && tokens[idx - 1].is_punct(':')
            && tokens[idx - 2].is_punct(':')
            && (tokens[idx - 3].is_ident("Vec") || tokens[idx - 3].is_ident("VecDeque"))
            && next.is_some_and(|n| n.is_punct('('))
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
        if figure {
            let nondet = match tok.text.as_str() {
                "Instant" | "SystemTime" | "HashMap" | "HashSet" => Some(tok.text.clone()),
                "current"
                    if idx >= 3
                        && tokens[idx - 1].is_punct(':')
                        && tokens[idx - 2].is_punct(':')
                        && tokens[idx - 3].is_ident("thread") =>
                {
                    Some("thread::current".to_string())
                }
                _ => None,
            };
            if let Some(what) = nondet {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: tok.line,
                    rule: "nondeterminism",
                    message: format!(
                        "nondeterminism source `{}` in figure-producing crate `{}`",
                        what,
                        krate.unwrap_or("?")
                    ),
                });
            }
        }
    }
    findings
}

/// Whether the token stream contains `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    tokens.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    })
}

/// A narrowing `as` is flagged only when its immediate source looks
/// counter/address-width: a `…addr…`/`…cycle…` identifier right before
/// the `as`, or a `.get()` accessor chain (`LineAddr::get`,
/// `Cycle::get`, `Counter::get` are all 64-bit).
fn lossy_cast_source(tokens: &[Token], as_idx: usize) -> Option<String> {
    if as_idx == 0 {
        return None;
    }
    let prev = &tokens[as_idx - 1];
    if prev.kind == TokenKind::Ident {
        let lower = prev.text.to_lowercase();
        if lower.contains("addr") || lower.contains("cycle") {
            return Some(prev.text.clone());
        }
    }
    if as_idx >= 4
        && prev.is_punct(')')
        && tokens[as_idx - 2].is_punct('(')
        && tokens[as_idx - 3].is_ident("get")
        && tokens[as_idx - 4].is_punct('.')
    {
        return Some(".get()".to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_modules_are_exempt() {
        let src = "
            pub fn hot() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!(\"boom\"); }
            }
        ";
        let findings = lint_file("crates/fsencr/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn hot_crate_panics_are_flagged() {
        let src = "pub fn f() { Some(1).unwrap(); opt.expect(\"no\"); panic!(\"x\"); }";
        let findings = lint_file("crates/secmem/src/x.rs", src);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "no-panic"));
        // The snapshot codec sits under every warm start: a restore must
        // fail as a typed `SnapError`, never abort the harness.
        let snap = lint_file("crates/snapshot/src/codec.rs", src);
        assert_eq!(snap.len(), 3, "{snap:?}");
        assert!(snap.iter().all(|f| f.rule == "no-panic"));
    }

    #[test]
    fn unwrap_or_is_not_unwrap() {
        let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) }";
        assert!(lint_file("crates/fsencr/src/x.rs", src).is_empty());
    }

    #[test]
    fn cold_crates_may_panic() {
        let src = "pub fn f() { panic!(\"fine here\"); }";
        assert!(lint_file("crates/workloads/src/x.rs", src).is_empty());
    }

    #[test]
    fn lossy_casts_need_a_suspicious_source() {
        let flagged = "fn f(a: u64) { let _ = addr as u32; let _ = c.get() as u8; }";
        let findings = lint_file("crates/nvm/src/x.rs", flagged);
        assert_eq!(findings.len(), 2, "{findings:?}");
        let fine = "fn f(v: u16) { let _ = (v & 0x7f) as u8; let _ = x as u64; }";
        assert!(lint_file("crates/nvm/src/x.rs", fine).is_empty());
    }

    #[test]
    fn figure_crates_must_be_deterministic() {
        let src = "use std::collections::HashMap;\nfn f() { let _ = std::thread::current(); }";
        let findings = lint_file("crates/bench/src/x.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "nondeterminism"));
        // thread::sleep and Duration are fine.
        let fine = "fn f() { std::thread::sleep(std::time::Duration::from_micros(1)); }";
        assert!(lint_file("crates/bench/src/x.rs", fine).is_empty());
    }

    #[test]
    fn alloc_free_files_reject_bare_collection_news() {
        let src = "fn f() { let mut v = Vec::new(); let q: VecDeque<u8> = VecDeque::new(); }";
        let findings = lint_file("crates/secmem/src/metadata.rs", src);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "hot-alloc"));
        // The batched region ops ride the same hot loops.
        let batched = lint_file("crates/fsencr/src/batch.rs", src);
        assert_eq!(batched.len(), 2, "{batched:?}");
        assert!(batched.iter().all(|f| f.rule == "hot-alloc"));
        // The pad-uniqueness oracle records on the datapath (one call per
        // fresh pad when enabled): its scratch is audited too.
        let oracle = lint_file("crates/crypto/src/oracle.rs", src);
        assert_eq!(oracle.len(), 2, "{oracle:?}");
        assert!(oracle.iter().all(|f| f.rule == "hot-alloc"));
        // The four-lane digest kernel drives the parallel Merkle
        // rebuild — its scratch is audited too.
        let lanes = lint_file("crates/crypto/src/lanes.rs", src);
        assert_eq!(lanes.len(), 2, "{lanes:?}");
        assert!(lanes.iter().all(|f| f.rule == "hot-alloc"));
        // Every line write records an ECC check and packs counter
        // blocks: both run per write.
        for per_write in ["crates/secmem/src/ecc.rs", "crates/secmem/src/counters.rs"] {
            let found = lint_file(per_write, src);
            assert_eq!(found.len(), 2, "{per_write}: {found:?}");
            assert!(found.iter().all(|f| f.rule == "hot-alloc"));
        }
        // Snapshot encode/decode runs once per warm start over
        // megabyte-scale state: its scratch must be sized up front.
        // (`lib.rs` is a crate root, so the bare source also trips
        // `forbid-unsafe` — count the alloc rule alone.)
        let snap = lint_file("crates/snapshot/src/lib.rs", src);
        let snap_allocs = snap.iter().filter(|f| f.rule == "hot-alloc").count();
        assert_eq!(snap_allocs, 2, "{snap:?}");
        // Sized allocations and cold reporting literals stay allowed.
        let fine = "fn f() { let v = Vec::with_capacity(16); let w = vec![1u8, 2]; }";
        assert!(lint_file("crates/secmem/src/metadata.rs", fine).is_empty());
        // The rule is per-file, not per-crate.
        let elsewhere = "fn f() { let v: Vec<u8> = Vec::new(); }";
        assert!(lint_file("crates/secmem/src/layout.rs", elsewhere).is_empty());
        // And test modules are exempt like every other rule.
        let test_only = "#[cfg(test)]\nmod tests { fn t() { let v: Vec<u8> = Vec::new(); } }";
        assert!(lint_file("crates/crypto/src/sha256.rs", test_only).is_empty());
    }

    #[test]
    fn crate_roots_need_forbid_unsafe() {
        assert_eq!(
            lint_file("crates/fs/src/lib.rs", "pub fn f() {}").len(),
            1
        );
        assert!(lint_file(
            "crates/fs/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}"
        )
        .is_empty());
        // Non-root modules don't need the attribute.
        assert!(lint_file("crates/fs/src/inode.rs", "pub fn f() {}").is_empty());
    }

    #[test]
    fn allowlist_suppresses_and_reports_unused() {
        let mut allow = Allowlist::parse(
            "# comment\n\
             no-panic crates/fsencr/src/x.rs unwrap -- audited\n\
             no-panic crates/fsencr/src/y.rs never-fires -- stale\n",
        );
        let hit = Finding {
            path: "crates/fsencr/src/x.rs".to_string(),
            line: 3,
            rule: "no-panic",
            message: "`.unwrap()` in non-test code of hot-path crate `fsencr`".to_string(),
        };
        assert!(allow.suppresses(&hit));
        let unused = allow.unused_findings("allowlist.txt");
        assert_eq!(unused.len(), 1);
        assert_eq!(unused[0].rule, "allowlist-unused");
        assert_eq!(unused[0].line, 3);
    }
}
