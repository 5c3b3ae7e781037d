//! The content-addressed store behind the figure harness.
//!
//! Every figure decomposes into independent cells — one `(workload,
//! security mode, machine config)` simulation each — and each cell is a
//! pure function of its inputs: the simulator is deterministic by
//! construction (enforced by the determinism test suites). That makes
//! two things safe to memoize *by content*:
//!
//! * [`Kind::Cell`] — a finished cell's measured [`StatsSnapshot`], keyed
//!   by the cell label and the workload's parameter-complete
//!   [`spec`](fsencr_workloads::driver::Workload::spec). A hit skips the
//!   simulation entirely.
//! * [`Kind::Setup`] — a post-setup [`Machine::save_snapshot`] image,
//!   keyed by the setup-only parameter subset
//!   [`setup_spec`](fsencr_workloads::driver::Workload::setup_spec) and
//!   no label, so one image serves every scale of a cell and setups
//!   shared between workloads (DAX-1/DAX-2; the preloading PMEMKV
//!   benches) are simulated once. A cell that misses the cell entry
//!   restores it and skips straight to measurement.
//!
//! The store is one directory (`CACHE/` under the `harness` binary) with
//! one `<key>.<kind>` file per entry, written as soon as it is produced
//! so later cells of the same run already hit. Both kinds are
//! `fsencr-snap/1` streams: a cell entry is a single `cell` section
//! holding [`StatsSnapshot::snap_save`] (every counter plus the
//! read-latency histogram), so a hit is bit-exact and the codec's
//! chained digest rejects a damaged entry. An entry in any other
//! counter layout fails to decode and is a miss like any other damage.
//! The key ([`key`]) is a SHA-256 over the crate-version salt, the kind,
//! the label, the security mode, the full `Debug` rendering of
//! [`MachineOpts`] and the spec, so any change to any input yields a
//! different file and a stale entry can never be served.
//!
//! The store is an accelerator, never a dependency: a missing file, a
//! damaged entry and a setup image the restore rejects are all misses
//! that fall back to simulating, with byte-identical figures. It is
//! process-global (cells run on pool worker threads) and disabled by
//! default; the `harness` binary enables it for figure subcommands only.
//!
//! [`Machine::save_snapshot`]: fsencr::machine::Machine::save_snapshot

use std::path::PathBuf;
use std::sync::Mutex;

use fsencr::machine::{MachineOpts, SecurityMode};
use fsencr::snapshot::StatsSnapshot;
use fsencr_crypto::sha256;
use fsencr_snapshot::{Dec, Enc, SnapError};

/// Version salt folded into every key: a new crate version invalidates
/// every entry, because any code change may change results.
const SALT: &str = concat!("fsencr-bench/", env!("CARGO_PKG_VERSION"));

/// What a store entry holds; its name is the entry's file extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A finished cell's measured [`StatsSnapshot`].
    Cell,
    /// A post-setup machine snapshot image.
    Setup,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cell => "cell",
            Kind::Setup => "setup",
        }
    }
}

/// The content-addressed key of one entry: hex SHA-256 over the salt,
/// `kind`, `label`, `mode`, the `Debug` rendering of `opts` and `spec`.
///
/// Field separators are `\x1f` (ASCII unit separator), which cannot
/// appear in labels, `Debug` renderings, or spec strings, so distinct
/// inputs cannot collide by concatenation.
pub fn key(kind: Kind, label: &str, mode: SecurityMode, opts: &MachineOpts, spec: &str) -> String {
    hex_sha256(
        &[
            SALT,
            kind.name(),
            label,
            &mode.to_string(),
            &format!("{opts:?}"),
            spec,
        ]
        .join("\x1f"),
    )
}

fn hex_sha256(material: &str) -> String {
    sha256(material.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

struct Store {
    dir: PathBuf,
    /// Hits and misses, indexed by `Kind as usize`.
    hits: [u64; 2],
    misses: [u64; 2],
    stores: u64,
}

impl Store {
    fn path(&self, kind: Kind, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.{}", kind.name()))
    }
}

static STORE: Mutex<Option<Store>> = Mutex::new(None);

/// Runs `f` on the store, or returns `None` while it is disabled. File
/// I/O happens under the lock, so a worker never reads an entry another
/// worker is halfway through writing.
fn with_store<T>(f: impl FnOnce(&mut Store) -> T) -> Option<T> {
    let mut guard = STORE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    guard.as_mut().map(f)
}

/// Enables the store backed by directory `dir` (created on first write)
/// with zeroed counters, or disables it with `None`.
pub fn configure(dir: Option<PathBuf>) {
    let mut guard = STORE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *guard = dir.map(|dir| Store {
        dir,
        hits: [0; 2],
        misses: [0; 2],
        stores: 0,
    });
}

/// Whether a store is currently configured.
pub(crate) fn is_enabled() -> bool {
    with_store(|_| ()).is_some()
}

/// The raw bytes of entry `key`, if the store is enabled and holds it.
/// Not counted: the caller reports with [`count`] once it knows whether
/// the bytes were usable.
pub(crate) fn get(kind: Kind, key: &str) -> Option<Vec<u8>> {
    with_store(|s| std::fs::read(s.path(kind, key)).ok()).flatten()
}

/// Counts a hit or a miss of `kind` (no-op when disabled).
pub(crate) fn count(kind: Kind, hit: bool) {
    with_store(|s| {
        let slot = if hit { &mut s.hits } else { &mut s.misses };
        slot[kind as usize] += 1;
    });
}

/// Writes entry `key` immediately, replacing any damaged one (no-op when
/// disabled; write failures are swallowed — accelerator, not
/// dependency).
pub(crate) fn put(kind: Kind, key: &str, bytes: &[u8]) {
    with_store(|s| {
        if std::fs::create_dir_all(&s.dir).is_ok()
            && std::fs::write(s.path(kind, key), bytes).is_ok()
        {
            s.stores += 1;
        }
    });
}

/// `(hits, misses)` of `kind` since [`configure`].
pub fn counters(kind: Kind) -> (u64, u64) {
    with_store(|s| (s.hits[kind as usize], s.misses[kind as usize])).unwrap_or((0, 0))
}

/// Entries written since [`configure`].
pub fn stores() -> u64 {
    with_store(|s| s.stores).unwrap_or(0)
}

/// Encodes a cell entry: one `cell` section holding the cell's
/// measured [`StatsSnapshot`].
pub(crate) fn encode_cell(s: &StatsSnapshot) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.begin_section("cell");
    s.snap_save(&mut enc);
    enc.end_section();
    enc.finish()
}

/// Decodes a cell entry written by [`encode_cell`], bit-exactly.
///
/// # Errors
///
/// The codec's error for a truncated, damaged or foreign stream,
/// including an entry in any other counter layout.
pub(crate) fn decode_cell(bytes: &[u8]) -> Result<StatsSnapshot, SnapError> {
    let mut dec = Dec::new(bytes)?;
    dec.begin_section("cell")?;
    let stats = StatsSnapshot::snap_load(&mut dec)?;
    dec.end_section()?;
    dec.finish()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsencr::machine::Preset;

    #[test]
    fn keys_separate_every_input() {
        let opts = MachineOpts::small_test();
        let base = key(Kind::Cell, "w", SecurityMode::FsEncr, &opts, "w(n=1)");
        assert_eq!(base.len(), 64);
        assert_ne!(
            base,
            key(Kind::Setup, "w", SecurityMode::FsEncr, &opts, "w(n=1)")
        );
        assert_ne!(
            base,
            key(Kind::Cell, "w2", SecurityMode::FsEncr, &opts, "w(n=1)")
        );
        assert_ne!(
            base,
            key(Kind::Cell, "w", SecurityMode::MemoryOnly, &opts, "w(n=1)")
        );
        assert_ne!(
            base,
            key(Kind::Cell, "w", SecurityMode::FsEncr, &opts, "w(n=2)")
        );
        let other = MachineOpts::preset(Preset::SmallTest)
            .ott_latency_cycles(999)
            .build();
        assert_ne!(
            base,
            key(Kind::Cell, "w", SecurityMode::FsEncr, &other, "w(n=1)")
        );
        // The salt leads the hashed material: the key is exactly this
        // digest, and any other salt gives another key.
        let material =
            |salt: &str| [salt, "cell", "w", "fsencr", &format!("{opts:?}"), "w(n=1)"].join("\x1f");
        assert_eq!(SecurityMode::FsEncr.to_string(), "fsencr");
        assert_eq!(base, hex_sha256(&material(SALT)));
        assert_ne!(base, hex_sha256(&material("fsencr-bench/0.0.0-other")));
    }

    #[test]
    fn cell_round_trip_is_bit_exact_and_damage_is_rejected() {
        let mut stats = StatsSnapshot {
            cycles: 123_456_789_012,
            nvm_reads: 42,
            nvm_writes: 7,
            meta_cache_hits: 9,
            meta_cache_misses: 4,
            ott_hits: 5,
            ott_misses: 3,
            file_accesses: 11,
            tlb_hits: 1,
            tlb_misses: 2,
            ..StatsSnapshot::default()
        };
        for latency in [250, 250, 1200, 40_000] {
            stats.read_latency.record(latency);
        }
        assert_eq!(stats.read_latency.count(), 4);
        let bytes = encode_cell(&stats);
        assert_eq!(decode_cell(&bytes).expect("round trip"), stats);
        for at in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            assert!(
                decode_cell(&flipped).is_err(),
                "flip at byte {at} went unnoticed"
            );
        }
        for len in 0..bytes.len() {
            assert!(decode_cell(&bytes[..len]).is_err(), "truncation to {len}");
        }
        assert!(decode_cell(b"not a snapshot").is_err());
    }

    #[test]
    fn disabled_store_is_inert() {
        configure(None);
        assert!(!is_enabled());
        put(Kind::Cell, "k", b"bytes");
        count(Kind::Cell, true);
        count(Kind::Setup, false);
        assert_eq!(get(Kind::Cell, "k"), None);
        assert_eq!(counters(Kind::Cell), (0, 0));
        assert_eq!(counters(Kind::Setup), (0, 0));
        assert_eq!(stores(), 0);
    }
}
