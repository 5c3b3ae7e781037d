//! The plaintext-confinement pass: an item-graph dataflow analysis.
//!
//! The paper's security argument needs every byte that reaches NVM to
//! be encrypted by the memory controller. Token-level linting cannot
//! see a code path that hands plaintext to `Storage::write` or
//! `NvmDevice::poke_line`; this pass can. It parses every workspace
//! source with [`crate::items`], resolves method-call receivers through
//! struct fields, function parameters and `use` aliases, links the
//! per-file item lists into one cross-crate call graph, and enforces
//! four rules:
//!
//! * `plaintext-confinement` — a call edge into a raw NVM write sink
//!   (`write_line`/`write` on an `NvmDevice`/`Storage`-typed receiver,
//!   or the unambiguous raw escapes `poke_line`, `storage_mut`,
//!   `page_mut`, `fill_page`, `discard_page` anywhere) is only legal
//!   inside the `crates/nvm` device implementation or inside the
//!   `MemoryController` encrypt routines (`controller.rs`/`batch.rs`).
//!   Every other edge must carry a checked-in allowlist entry naming
//!   the enclosing function — recovery, the attacker model, the
//!   integrity-metadata engine.
//! * `confinement-reach` — cross-crate reachability: a function that
//!   transitively reaches an *unaudited* raw write (through any chain
//!   of workspace calls) is reported too, so a leak wrapped in helper
//!   functions cannot hide. Audited (allowlisted) boundaries stop the
//!   propagation.
//! * `pad-site` — counter-mode pads may only be minted (a `PadInput`
//!   construction or a `line_pad*`/`ctr_pads_n` call) inside
//!   `crates/crypto` itself or the controller's encrypt routines;
//!   anywhere else risks an IV that repeats one the controller already
//!   issued, which in counter mode forfeits confidentiality outright.
//! * `debug-reach` — `debug_`-prefixed escape hatches defined in this
//!   workspace may only be called from test code or from other
//!   `debug_` functions, unless allowlisted.
//!
//! `#[cfg(test)]` code is exempt from every rule, and findings carry
//! the enclosing function's qualified name so allowlist entries can
//! pin exactly one audited edge.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::allow::Allowlist;
use crate::items::{parse, Callee, FileItems, FnItem, Receiver};
use crate::lint::rust_sources;
use crate::Finding;

/// Raw-write method names unique to the NVM device/storage API; calls
/// are flagged regardless of how the receiver resolves.
const RAW_ALWAYS: [&str; 5] = [
    "poke_line",
    "storage_mut",
    "page_mut",
    "fill_page",
    "discard_page",
];

/// Write methods that exist on many types; flagged only when the
/// receiver resolves to an NVM device/storage type.
const RAW_TYPED: [&str; 2] = ["write_line", "write"];

/// The raw device/storage types the confinement boundary protects.
const NVM_TYPES: [&str; 2] = ["NvmDevice", "Storage"];

/// Functions that mint counter-mode pads.
const PAD_FNS: [&str; 4] = ["line_pad", "line_pad_with", "line_pad_into", "ctr_pads_n"];

/// Files whose `MemoryController` impls form the encryption boundary:
/// raw `write_line`/`write` on NVM receivers is their job.
const WRITE_BOUNDARY_FILES: [&str; 2] = [
    "crates/fsencr/src/controller.rs",
    "crates/fsencr/src/batch.rs",
];

/// Result of a confinement run.
#[derive(Debug)]
pub struct ConfineReport {
    /// Findings that survived the allowlist, sorted.
    pub findings: Vec<Finding>,
    /// How many findings the allowlist suppressed.
    pub suppressed: usize,
}

/// Runs the confinement pass with its own allowlist (standalone use;
/// stale entries are reported). The gate shares one allowlist across
/// passes via [`check_tree_with`] instead.
pub fn check_tree(root: &Path, allowlist_text: &str, allowlist_path: &str) -> ConfineReport {
    let mut allow = Allowlist::parse(allowlist_text);
    let (mut findings, suppressed) = check_tree_with(root, &mut allow);
    findings.extend(allow.unused_findings(allowlist_path));
    findings.sort();
    findings.dedup();
    ConfineReport {
        findings,
        suppressed,
    }
}

/// Runs the confinement pass against a caller-owned [`Allowlist`],
/// without appending stale-entry findings.
pub fn check_tree_with(root: &Path, allow: &mut Allowlist) -> (Vec<Finding>, usize) {
    let mut files: Vec<(String, FileItems)> = Vec::new();
    for rel in rust_sources(root) {
        let Ok(src) = std::fs::read_to_string(root.join(&rel)) else {
            continue; // unreadable files are reported by the lint pass
        };
        files.push((rel, parse(&src)));
    }
    analyze(&files, allow)
}

/// Field registry: struct name → field name → written type name (the
/// last identifier of the field's type), merged across every file.
fn field_registry(files: &[(String, FileItems)]) -> BTreeMap<String, BTreeMap<String, String>> {
    let mut reg: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for (_, items) in files {
        for s in &items.structs {
            let entry = reg.entry(s.name.clone()).or_default();
            for (fname, ty) in &s.fields {
                if let Some(last) = ty.last() {
                    entry.insert(fname.clone(), last.clone());
                }
            }
        }
    }
    reg
}

/// Per-file alias map from `use … as …`: alias → original name.
fn alias_map(items: &FileItems) -> BTreeMap<&str, &str> {
    items
        .uses
        .iter()
        .flat_map(|u| u.aliases.iter())
        .map(|(orig, alias)| (alias.as_str(), orig.as_str()))
        .collect()
}

/// Whether `ty` (after de-aliasing) is a raw NVM device/storage type.
fn is_nvm_type(ty: &str, aliases: &BTreeMap<&str, &str>) -> bool {
    let resolved = aliases.get(ty).copied().unwrap_or(ty);
    NVM_TYPES.contains(&resolved)
}

/// Resolves the written type of a dotted receiver chain, walking struct
/// fields: `self.nvm` under `impl MemoryController` → the type of the
/// controller's `nvm` field. Falls back to a global any-struct field
/// lookup for chains rooted in locals the parser cannot see; ambiguity
/// resolves toward the NVM type (conservative for a security gate).
fn resolve_chain(
    chain: &[String],
    f: &FnItem,
    fields: &BTreeMap<String, BTreeMap<String, String>>,
    aliases: &BTreeMap<&str, &str>,
) -> Option<String> {
    let (head, rest) = chain.split_first()?;
    let mut ty: Option<String> = if head == "self" {
        f.self_ty.clone()
    } else if let Some((_, ty_idents)) = f.params.iter().find(|(n, _)| n == head) {
        ty_idents.last().cloned()
    } else {
        // A local or captured binding: if any struct in the workspace
        // has a field with this name, trust the field's declared type —
        // preferring an NVM type when declarations disagree.
        let mut candidates: BTreeSet<&String> = BTreeSet::new();
        for field_map in fields.values() {
            if let Some(t) = field_map.get(head) {
                candidates.insert(t);
            }
        }
        candidates
            .iter()
            .find(|t| is_nvm_type(t, aliases))
            .or_else(|| candidates.iter().next())
            .map(|t| (*t).clone())
    };
    for seg in rest {
        let owner = ty?;
        ty = fields.get(&owner).and_then(|m| m.get(seg)).cloned();
    }
    ty
}

/// One resolved raw-write call edge.
struct RawEdge<'a> {
    file: &'a str,
    f: &'a FnItem,
    line: u32,
    method: String,
    receiver: String,
}

fn in_nvm_crate(rel: &str) -> bool {
    rel.starts_with("crates/nvm/src/")
}

fn pad_site_approved(rel: &str) -> bool {
    rel.starts_with("crates/crypto/src/") || WRITE_BOUNDARY_FILES.contains(&rel)
}

/// Whether this fn is an approved encrypt-boundary context for typed
/// raw writes (`write_line`/`write` on the device).
fn write_boundary(rel: &str, f: &FnItem) -> bool {
    WRITE_BOUNDARY_FILES.contains(&rel) && f.self_ty.as_deref() == Some("MemoryController")
}

fn analyze(files: &[(String, FileItems)], allow: &mut Allowlist) -> (Vec<Finding>, usize) {
    let fields = field_registry(files);
    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    let mut record = |finding: Finding, allow: &mut Allowlist, out: &mut Vec<Finding>| {
        if allow.suppresses(&finding) {
            suppressed += 1;
            false
        } else {
            out.push(finding);
            true
        }
    };

    // The set of workspace-defined `debug_` escape hatches; calls to
    // identically-named std APIs (e.g. `Formatter::debug_struct`) are
    // not escapes and must not be flagged.
    let debug_fns: BTreeSet<&str> = files
        .iter()
        .flat_map(|(_, items)| items.fns.iter())
        .filter(|f| f.name.starts_with("debug_"))
        .map(|f| f.name.as_str())
        .collect();

    // ---- direct raw-write edges + pad sites + debug reach ----
    let mut raw_edges: Vec<RawEdge<'_>> = Vec::new();
    for (rel, items) in files {
        let aliases = alias_map(items);
        for f in &items.fns {
            if f.in_test {
                continue;
            }
            for call in &f.calls {
                let name = call.callee.name().to_string();
                // Raw NVM write sinks.
                let raw = match &call.callee {
                    Callee::Method(_) => {
                        if RAW_ALWAYS.contains(&name.as_str()) {
                            true
                        } else if RAW_TYPED.contains(&name.as_str()) {
                            match &call.receiver {
                                Some(Receiver::Chain(chain)) => {
                                    resolve_chain(chain, f, &fields, &aliases)
                                        .is_some_and(|ty| is_nvm_type(&ty, &aliases))
                                }
                                _ => false,
                            }
                        } else {
                            false
                        }
                    }
                    Callee::Path(segs) => {
                        (RAW_ALWAYS.contains(&name.as_str()) || RAW_TYPED.contains(&name.as_str()))
                            && segs.len() >= 2
                            && is_nvm_type(&segs[segs.len() - 2], &aliases)
                    }
                    Callee::Bare(_) => false,
                };
                if raw && !in_nvm_crate(rel) {
                    let typed = RAW_TYPED.contains(&name.as_str());
                    if !(typed && write_boundary(rel, f)) {
                        let receiver = match &call.receiver {
                            Some(Receiver::Chain(chain)) => chain.join("."),
                            Some(Receiver::Expr) => "<expr>".to_string(),
                            None => match &call.callee {
                                Callee::Path(segs) => segs[..segs.len() - 1].join("::"),
                                _ => String::new(),
                            },
                        };
                        raw_edges.push(RawEdge {
                            file: rel,
                            f,
                            line: call.line,
                            method: name.clone(),
                            receiver,
                        });
                    }
                }
                // Pad minting outside the crypto/controller boundary.
                if PAD_FNS.contains(&name.as_str()) && !pad_site_approved(rel) {
                    record(
                        Finding {
                            path: rel.clone(),
                            line: call.line,
                            rule: "pad-site",
                            message: format!(
                                "counter-mode pad minted via `{name}(…)` in `{}` outside the \
                                 crypto/controller boundary; a duplicated IV here forfeits \
                                 confidentiality",
                                f.qualified()
                            ),
                        },
                        allow,
                        &mut findings,
                    );
                }
                // Debug escape hatches from non-debug, non-test code.
                if debug_fns.contains(name.as_str()) && !f.name.starts_with("debug_") {
                    record(
                        Finding {
                            path: rel.clone(),
                            line: call.line,
                            rule: "debug-reach",
                            message: format!(
                                "debug escape hatch `{name}(…)` called from non-test `{}`",
                                f.qualified()
                            ),
                        },
                        allow,
                        &mut findings,
                    );
                }
            }
        }
        // `PadInput { … }` struct literals outside the boundary.
        for lit in &items.literals {
            if lit.in_test || lit.name != "PadInput" || pad_site_approved(rel) {
                continue;
            }
            let encl = items
                .fns
                .iter()
                .find(|f| f.span.start <= lit.token && lit.token < f.span.end);
            if encl.is_some_and(|f| f.in_test) {
                continue;
            }
            record(
                Finding {
                    path: rel.clone(),
                    line: lit.line,
                    rule: "pad-site",
                    message: format!(
                        "`PadInput` constructed in `{}` outside the crypto/controller boundary; \
                         a duplicated IV here forfeits confidentiality",
                        encl.map_or_else(|| "<module>".to_string(), FnItem::qualified)
                    ),
                },
                allow,
                &mut findings,
            );
        }
    }

    // Apply the allowlist to the direct edges; survivors both fail the
    // gate and seed the reachability taint below.
    let mut tainted: BTreeSet<(String, String)> = BTreeSet::new();
    for edge in &raw_edges {
        let surfaced = record(
            Finding {
                path: edge.file.to_string(),
                line: edge.line,
                rule: "plaintext-confinement",
                message: format!(
                    "raw NVM write `{}.{}(…)` in `{}` outside the encryption boundary; \
                     route through `MemoryController` or add an audited allowlist entry",
                    edge.receiver,
                    edge.method,
                    edge.f.qualified()
                ),
            },
            allow,
            &mut findings,
        );
        if surfaced {
            tainted.insert((edge.file.to_string(), edge.f.qualified()));
        }
    }

    // ---- cross-crate reachability over the call graph ----
    // callers[callee-key] = set of (file, qualified caller). Keys are
    // deliberately *typed*: a method call only forms an edge when its
    // receiver resolves to a concrete type (`m:Type::name`), and free
    // functions key by bare name (`fn:name`). Unresolvable `.get()` /
    // `.insert()`-style calls form no edge — common method names would
    // otherwise connect the whole workspace and drown the gate in
    // false paths. The *direct* rule above is the load-bearing one;
    // reachability exists to catch leaks hidden behind wrappers.
    let mut callers: BTreeMap<String, BTreeSet<(String, String)>> = BTreeMap::new();
    for (rel, items) in files {
        let aliases = alias_map(items);
        for f in &items.fns {
            if f.in_test {
                continue;
            }
            let caller = (rel.clone(), f.qualified());
            for call in &f.calls {
                let keys: Vec<String> = match &call.callee {
                    Callee::Method(n) => match &call.receiver {
                        Some(Receiver::Chain(chain)) => resolve_chain(chain, f, &fields, &aliases)
                            .map(|ty| {
                                let ty = aliases.get(ty.as_str()).copied().unwrap_or(&ty);
                                format!("m:{ty}::{n}")
                            })
                            .into_iter()
                            .collect(),
                        _ => Vec::new(),
                    },
                    Callee::Path(segs) if segs.len() >= 2 => {
                        let ty = &segs[segs.len() - 2];
                        let ty = aliases.get(ty.as_str()).copied().unwrap_or(ty);
                        // `Type::method(…)` or `module::free_fn(…)` —
                        // register both readings.
                        vec![
                            format!("m:{ty}::{}", segs[segs.len() - 1]),
                            format!("fn:{}", segs[segs.len() - 1]),
                        ]
                    }
                    Callee::Path(segs) => {
                        segs.last().map(|n| format!("fn:{n}")).into_iter().collect()
                    }
                    Callee::Bare(n) => vec![format!("fn:{n}")],
                };
                for key in keys {
                    callers.entry(key).or_default().insert(caller.clone());
                }
            }
        }
    }
    // Keys under which a defined fn is reachable by callers.
    let keys_of = |f: &FnItem| -> Vec<String> {
        match &f.self_ty {
            Some(ty) => vec![format!("m:{ty}::{}", f.name)],
            None => vec![format!("fn:{}", f.name)],
        }
    };
    // Breadth-first taint propagation from the unaudited raw writers.
    let fn_index: BTreeMap<(String, String), (&str, &FnItem)> = files
        .iter()
        .flat_map(|(rel, items)| {
            items
                .fns
                .iter()
                .map(move |f| ((rel.clone(), f.qualified()), (rel.as_str(), f)))
        })
        .collect();
    let mut frontier: Vec<(String, String)> = tainted.iter().cloned().collect();
    let mut reach_findings: Vec<((String, String), String)> = Vec::new();
    while let Some(node) = frontier.pop() {
        let Some((_, f)) = fn_index.get(&node) else {
            continue;
        };
        for key in keys_of(f) {
            let Some(calls) = callers.get(&key) else {
                continue;
            };
            for caller in calls {
                if caller == &node || tainted.contains(caller) {
                    continue;
                }
                tainted.insert(caller.clone());
                reach_findings.push((caller.clone(), node.1.clone()));
                frontier.push(caller.clone());
            }
        }
    }
    for ((file, qualified), via) in reach_findings {
        if let Some((rel, f)) = fn_index.get(&(file.clone(), qualified.clone())) {
            record(
                Finding {
                    path: (*rel).to_string(),
                    line: f.line,
                    rule: "confinement-reach",
                    message: format!(
                        "`{qualified}` reaches an unaudited raw NVM write through `{via}`"
                    ),
                },
                allow,
                &mut findings,
            );
        }
    }

    findings.sort();
    findings.dedup();
    (findings, suppressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<(String, FileItems)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), parse(src)))
            .collect();
        let mut allow = Allowlist::parse("");
        let (findings, _) = analyze(&parsed, &mut allow);
        findings
    }

    #[test]
    fn poke_line_outside_nvm_is_flagged() {
        let findings = run(&[(
            "crates/workloads/src/x.rs",
            "fn leak(nvm: &mut NvmDevice) { nvm.poke_line(a, &plain); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "plaintext-confinement");
        assert!(findings[0].message.contains("`nvm.poke_line(…)`"));
        assert!(findings[0].message.contains("`leak`"));
    }

    #[test]
    fn typed_write_needs_an_nvm_receiver() {
        // `write` on an unknown receiver (io::Write & friends) is fine…
        let fine = run(&[(
            "crates/bench/src/x.rs",
            "fn report(mut out: File) { out.write(b\"row\"); }",
        )]);
        assert!(fine.is_empty(), "{fine:?}");
        // …but `write_line` through a struct field typed NvmDevice is not.
        let bad = run(&[(
            "crates/fs/src/x.rs",
            "struct Dax { nvm: NvmDevice }
             impl Dax { fn flush(&mut self) { self.nvm.write_line(t, a, &d); } }",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("`self.nvm.write_line(…)`"));
        assert!(bad[0].message.contains("Dax::flush"));
    }

    #[test]
    fn controller_encrypt_routines_are_the_boundary() {
        let findings = run(&[(
            "crates/fsencr/src/controller.rs",
            "struct MemoryController { nvm: NvmDevice }
             impl MemoryController {
                 fn write_line(&mut self, a: PhysAddr, p: &[u8; 64]) {
                     self.nvm.write_line(now, a, &cipher);
                 }
             }",
        )]);
        assert!(findings.is_empty(), "{findings:?}");
        // The same edge outside the boundary files is a violation; the
        // field registry is global, so the struct may live elsewhere.
        let findings = run(&[
            (
                "crates/fsencr/src/controller.rs",
                "pub struct MemoryController { nvm: NvmDevice }",
            ),
            (
                "crates/fsencr/src/elsewhere.rs",
                "impl MemoryController {
                     fn shortcut(&mut self, a: PhysAddr) { self.nvm.write_line(now, a, &d); }
                 }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        // poke_line is never auto-approved, even in the boundary files.
        let findings = run(&[(
            "crates/fsencr/src/controller.rs",
            "impl MemoryController {
                 fn recover(&mut self) { self.nvm.poke_line(a, &d); }
             }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("MemoryController::recover"));
    }

    #[test]
    fn nvm_crate_and_test_code_are_exempt() {
        let findings = run(&[
            (
                "crates/nvm/src/device.rs",
                "impl NvmDevice { fn write_line(&mut self) { self.storage.write_line(l, d); } }",
            ),
            (
                "crates/fsencr/src/x.rs",
                "#[cfg(test)]
                 mod tests { fn t(nvm: &mut NvmDevice) { nvm.poke_line(a, &d); } }",
            ),
        ]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn reachability_taints_wrappers_across_files() {
        let findings = run(&[
            (
                "crates/fs/src/leak.rs",
                "pub fn raw_dump(nvm: &mut NvmDevice, d: &[u8; 64]) { nvm.poke_line(a, d); }",
            ),
            (
                "crates/workloads/src/run.rs",
                "pub fn run_workload() { raw_dump(&mut nvm, &plain); }",
            ),
        ]);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"plaintext-confinement"), "{findings:?}");
        assert!(rules.contains(&"confinement-reach"), "{findings:?}");
        let reach = findings
            .iter()
            .find(|f| f.rule == "confinement-reach")
            .expect("reach finding");
        assert!(reach.message.contains("run_workload"));
        assert!(reach.message.contains("raw_dump"));
    }

    #[test]
    fn allowlisted_boundaries_stop_reach_propagation() {
        let parsed: Vec<(String, FileItems)> = [
            (
                "crates/secmem/src/metadata.rs",
                "impl MetadataSystem {
                     pub fn persist_one(&mut self, nvm: &mut NvmDevice) {
                         nvm.write_line(t, a, &bytes);
                     }
                 }",
            ),
            (
                "crates/fsencr/src/spill.rs",
                "impl OttSpill { pub fn insert(&self, meta: &mut MetadataSystem) { meta.persist_one(&mut nvm); } }",
            ),
        ]
        .iter()
        .map(|(rel, src)| (rel.to_string(), parse(src)))
        .collect();
        let mut allow = Allowlist::parse(
            "plaintext-confinement crates/secmem/src/metadata.rs persist_one -- counters and digests only\n",
        );
        let (findings, suppressed) = analyze(&parsed, &mut allow);
        assert_eq!(suppressed, 1);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn pad_sites_are_confined_to_crypto_and_controller() {
        let findings = run(&[(
            "crates/workloads/src/x.rs",
            "fn mint(key: &Key128) -> [u8; 64] {
                 let input = PadInput { page_id: 1, block_in_page: 0, major: 0, minor: 0, domain: PadDomain::Memory };
                 line_pad(key, &input)
             }",
        )]);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.rule == "pad-site"));
        assert!(findings.iter().all(|f| f.message.contains("`mint`")));
        let fine = run(&[(
            "crates/crypto/src/ctr.rs",
            "pub fn line_pad(key: &Key128, input: &PadInput) -> [u8; 64] { line_pad_with(&aes, input) }",
        )]);
        assert!(fine.is_empty(), "{fine:?}");
    }

    #[test]
    fn debug_hatches_resolve_against_workspace_fns_only() {
        // `Formatter::debug_struct` is std, not a workspace escape hatch.
        let fine = run(&[(
            "crates/fsencr/src/x.rs",
            "impl fmt::Debug for T { fn fmt(&self, f: &mut Formatter) -> fmt::Result { f.debug_struct(\"T\").finish() } }",
        )]);
        assert!(fine.is_empty(), "{fine:?}");
        let findings = run(&[
            (
                "crates/fsencr/src/controller.rs",
                "impl MemoryController { pub fn debug_nvm_mut(&mut self) -> &mut NvmDevice { &mut self.nvm } }",
            ),
            (
                "crates/bench/src/x.rs",
                "fn tamper(m: &mut Machine) { m.debug_nvm_mut(); }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "debug-reach");
        assert!(findings[0].message.contains("`tamper`"));
    }

    #[test]
    fn use_aliases_cannot_smuggle_the_device_type() {
        let findings = run(&[(
            "crates/fs/src/x.rs",
            "use fsencr_nvm::NvmDevice as RawDev;
             fn leak(dev: &mut RawDev, d: &[u8; 64]) { dev.write_line(t, a, d); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "plaintext-confinement");
    }
}
