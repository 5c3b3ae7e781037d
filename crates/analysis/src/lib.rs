//! The FsEncr workspace's in-tree static analysis gate.
//!
//! `cargo run -p analysis -- check` is a tier-1 gate (wired into
//! `scripts/verify.sh`) with two passes. Both read source text only:
//! the crate depends on no workspace crate, so building it compiles
//! none of the model.
//!
//! * [`lint`] — the `hot-alloc` token rule, driven by the tiny Rust
//!   [`lexer`] in this crate: no bare `Vec::new()`/`VecDeque::new()` in
//!   the allocation-free hot-path files. Audited exceptions live in the
//!   checked-in `allowlist.txt` (see [`allow`]).
//! * [`confine`] — the security-invariant pass: an item-level parser
//!   ([`items`]) on top of the lexer builds a cross-crate call graph
//!   and enforces plaintext-confinement (raw NVM writes only inside
//!   the `MemoryController` encryption boundary or under an audited
//!   allowlist entry), pad-site confinement (counter-mode IVs minted
//!   only in `crates/crypto`/the controller), and debug-escape-hatch
//!   reachability.
//!
//! The paper's on-media formats (Figures 5–6, Table III) are pinned by
//! tests in the crates that define them: `fsencr-secmem` for the
//! counter blocks and the Merkle layout, `fsencr` for the OTT spill
//! slot, `fsencr-sim` for the Table III defaults.
//!
//! The rest of the gate is stock tooling: rustc forbids `unsafe` through
//! `[workspace.lints]`; clippy denies `unwrap`/`expect`/`panic!` and
//! truncating casts at the hot-path crate roots, and bans host clocks,
//! hashed collections and `thread::current` in the figure-producing
//! crates through their `clippy.toml`. Schedule invariance of the
//! figures is the `schedule_audit` test of `crates/bench`.
//!
//! Diagnostics are sorted and fully deterministic: two runs over the same
//! tree print byte-identical output.

#![warn(missing_docs)]

pub mod allow;
pub mod confine;
pub mod items;
pub mod lexer;
pub mod lint;

/// One diagnostic. The derived `Ord` (path, then line, then rule, then
/// message) is the stable output order of every pass.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// `/`-separated path relative to the analysis root.
    pub path: String,
    /// 1-based source line, or 0 when the finding has no line.
    pub line: u32,
    /// Stable rule identifier (`hot-alloc`, `pad-site`, …).
    pub rule: &'static str,
    /// Human-readable description; allowlist needles match against this.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// The workspace root this crate was compiled in, for default-root runs.
pub fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."))
}
