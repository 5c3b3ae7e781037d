//! Content-addressed cache of experiment-cell results.
//!
//! Every figure decomposes into independent cells — one `(workload,
//! security mode, machine config)` simulation each — and each cell is a
//! pure function of its inputs: the simulator is deterministic by
//! construction (enforced by the determinism test suite). That makes
//! cell results safe to memoize *by content*: the cache key is a SHA-256
//! over everything that feeds the simulation — the crate-version salt,
//! the cell label, the security mode, the full `Debug` rendering of
//! [`MachineOpts`] (which includes every architectural knob), and the
//! workload's parameter-complete [`spec()`](fsencr_workloads::driver::Workload::spec)
//! string. Any change to any of those yields a different key, so a stale
//! entry can never be served; deleting `CACHE_cells.json` (or passing
//! `--no-cache`) always falls back to a full re-simulation with
//! byte-identical output.
//!
//! The cache stores raw [`RunStats`] with the two `f64` rates encoded as
//! `to_bits` integers, so a hit reproduces the simulated result
//! bit-for-bit — figures rendered from cached cells are byte-identical
//! to figures rendered from fresh runs.
//!
//! The store is process-global (cells run on pool worker threads) and
//! disabled by default; the `harness` binary enables it for figure
//! subcommands only. `harness profile` keeps it disabled, because it
//! needs the observer to actually run.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

use fsencr::machine::{MachineOpts, RunStats, SecurityMode};
use fsencr_crypto::sha256;

use crate::jsonio::Json;

/// On-disk schema identifier; bump on any layout change.
pub const SCHEMA: &str = "fsencr-cell-cache/1";

/// Version salt folded into every key: a new crate version invalidates
/// every cached cell, because any code change may change results.
fn version_salt() -> String {
    format!("fsencr-bench/{}", env!("CARGO_PKG_VERSION"))
}

/// The content-addressed key of one experiment cell.
///
/// Field separators are `\x1f` (ASCII unit separator), which cannot
/// appear in labels, `Debug` renderings, or `spec()` strings, so
/// distinct inputs cannot collide by concatenation.
pub fn cell_key(label: &str, mode: SecurityMode, opts: &MachineOpts, spec: &str) -> String {
    let mut material = String::new();
    material.push_str(&version_salt());
    material.push('\x1f');
    material.push_str(label);
    material.push('\x1f');
    material.push_str(&mode.to_string());
    material.push('\x1f');
    material.push_str(&format!("{opts:?}"));
    material.push('\x1f');
    material.push_str(spec);
    let digest = sha256(material.as_bytes());
    let mut hex = String::with_capacity(64);
    for b in digest {
        hex.push_str(&format!("{b:02x}"));
    }
    hex
}

struct Store {
    path: PathBuf,
    cells: BTreeMap<String, RunStats>,
    dirty: bool,
    hits: u64,
    misses: u64,
}

static STORE: Mutex<Option<Store>> = Mutex::new(None);

fn with_store<T>(f: impl FnOnce(&mut Option<Store>) -> T) -> T {
    let mut guard = STORE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    f(&mut guard)
}

/// Enables the cache backed by `path` (loading any compatible existing
/// file), or disables it with `None`. An unreadable, malformed, or
/// schema-mismatched file is treated as empty, never as an error: the
/// cache is an accelerator, not a dependency.
pub fn configure(path: Option<PathBuf>) {
    with_store(|store| {
        *store = path.map(|path| {
            let cells = load(&path).unwrap_or_default();
            Store { path, cells, dirty: false, hits: 0, misses: 0 }
        });
    });
}

/// Whether a cache is currently configured.
pub fn is_enabled() -> bool {
    with_store(|store| store.is_some())
}

/// `(hits, misses)` since [`configure`].
pub fn counters() -> (u64, u64) {
    with_store(|store| store.as_ref().map_or((0, 0), |s| (s.hits, s.misses)))
}

/// Number of cells currently held (loaded + stored this run).
pub fn len() -> usize {
    with_store(|store| store.as_ref().map_or(0, |s| s.cells.len()))
}

/// Fetches the cached result for `key`, if the cache is enabled and has
/// one. Counts a hit or miss.
pub fn lookup(key: &str) -> Option<RunStats> {
    with_store(|store| {
        let s = store.as_mut()?;
        match s.cells.get(key) {
            Some(stats) => {
                s.hits += 1;
                Some(*stats)
            }
            None => {
                s.misses += 1;
                None
            }
        }
    })
}

/// Records a freshly simulated result under `key` (no-op when disabled).
pub fn store(key: &str, stats: &RunStats) {
    with_store(|store| {
        if let Some(s) = store.as_mut() {
            s.cells.insert(key.to_string(), *stats);
            s.dirty = true;
        }
    });
}

/// Writes the cache back to its file if anything changed.
///
/// # Errors
///
/// The I/O failure, rendered; the in-memory cache stays intact.
pub fn persist() -> Result<(), String> {
    with_store(|store| {
        let Some(s) = store.as_mut() else { return Ok(()) };
        if !s.dirty {
            return Ok(());
        }
        std::fs::write(&s.path, render(&s.cells))
            .map_err(|e| format!("writing {}: {e}", s.path.display()))?;
        s.dirty = false;
        Ok(())
    })
}

const U64_FIELDS: &[&str] = &[
    "cycles",
    "nvm_reads",
    "nvm_writes",
    "ott_hits",
    "ott_misses",
    "file_accesses",
    "read_p50",
    "read_p99",
    "meta_hit_rate_bits",
    "tlb_hit_rate_bits",
];

fn field(stats: &RunStats, name: &str) -> u64 {
    match name {
        "cycles" => stats.cycles,
        "nvm_reads" => stats.nvm_reads,
        "nvm_writes" => stats.nvm_writes,
        "ott_hits" => stats.ott_hits,
        "ott_misses" => stats.ott_misses,
        "file_accesses" => stats.file_accesses,
        "read_p50" => stats.read_p50,
        "read_p99" => stats.read_p99,
        "meta_hit_rate_bits" => stats.meta_hit_rate.to_bits(),
        "tlb_hit_rate_bits" => stats.tlb_hit_rate.to_bits(),
        _ => unreachable!("unknown RunStats field {name}"),
    }
}

fn render(cells: &BTreeMap<String, RunStats>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"salt\": \"{}\",\n", version_salt()));
    out.push_str("  \"cells\": {");
    for (i, (key, stats)) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{key}\": {{"));
        for (j, name) in U64_FIELDS.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {}", field(stats, name)));
        }
        out.push('}');
    }
    out.push_str("\n  }\n}\n");
    out
}

fn load(path: &std::path::Path) -> Option<BTreeMap<String, RunStats>> {
    let text = std::fs::read_to_string(path).ok()?;
    let json = Json::parse(&text).ok()?;
    if json.get("schema")?.as_str()? != SCHEMA {
        return None;
    }
    // The salt also lives inside every key; checking it here lets a
    // version bump drop the whole file instead of keeping dead entries.
    if json.get("salt")?.as_str()? != version_salt() {
        return None;
    }
    let mut out = BTreeMap::new();
    for (key, cell) in json.get("cells")?.as_obj()? {
        let get = |name: &str| cell.get(name).and_then(Json::as_u64);
        let stats = RunStats {
            cycles: get("cycles")?,
            nvm_reads: get("nvm_reads")?,
            nvm_writes: get("nvm_writes")?,
            meta_hit_rate: f64::from_bits(get("meta_hit_rate_bits")?),
            ott_hits: get("ott_hits")?,
            ott_misses: get("ott_misses")?,
            file_accesses: get("file_accesses")?,
            tlb_hit_rate: f64::from_bits(get("tlb_hit_rate_bits")?),
            read_p50: get("read_p50")?,
            read_p99: get("read_p99")?,
        };
        out.insert(key.clone(), stats);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        RunStats {
            cycles: 123_456_789_012,
            nvm_reads: 42,
            nvm_writes: 7,
            meta_hit_rate: 0.1 + 0.2, // deliberately non-representable
            ott_hits: 5,
            ott_misses: 3,
            file_accesses: 11,
            tlb_hit_rate: 1.0 / 3.0,
            read_p50: 250,
            read_p99: 1200,
        }
    }

    fn assert_bit_identical(a: &RunStats, b: &RunStats) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.nvm_reads, b.nvm_reads);
        assert_eq!(a.nvm_writes, b.nvm_writes);
        assert_eq!(a.meta_hit_rate.to_bits(), b.meta_hit_rate.to_bits());
        assert_eq!(a.ott_hits, b.ott_hits);
        assert_eq!(a.ott_misses, b.ott_misses);
        assert_eq!(a.file_accesses, b.file_accesses);
        assert_eq!(a.tlb_hit_rate.to_bits(), b.tlb_hit_rate.to_bits());
        assert_eq!(a.read_p50, b.read_p50);
        assert_eq!(a.read_p99, b.read_p99);
    }

    #[test]
    fn render_load_round_trip_is_bit_exact() {
        let mut cells = BTreeMap::new();
        cells.insert(
            cell_key("w", SecurityMode::FsEncr, &MachineOpts::small_test(), "w(n=1)"),
            sample(),
        );
        let text = render(&cells);
        let json = Json::parse(&text).expect("render emits valid JSON");
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let dir = std::env::temp_dir().join(format!("cellcache-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, &text).unwrap();
        let loaded = load(&path).expect("round trip");
        assert_eq!(loaded.len(), 1);
        for (k, v) in &cells {
            assert_bit_identical(v, &loaded[k]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_separate_every_input() {
        let opts = MachineOpts::small_test();
        let base = cell_key("w", SecurityMode::FsEncr, &opts, "w(n=1)");
        assert_eq!(base.len(), 64);
        assert_ne!(base, cell_key("w2", SecurityMode::FsEncr, &opts, "w(n=1)"));
        assert_ne!(base, cell_key("w", SecurityMode::MemoryOnly, &opts, "w(n=1)"));
        assert_ne!(base, cell_key("w", SecurityMode::FsEncr, &opts, "w(n=2)"));
        let other = fsencr::machine::MachineOpts::preset(fsencr::machine::Preset::SmallTest)
            .ott_latency_cycles(999)
            .build();
        assert_ne!(base, cell_key("w", SecurityMode::FsEncr, &other, "w(n=1)"));
    }

    #[test]
    fn schema_or_salt_mismatch_drops_the_file() {
        let dir = std::env::temp_dir().join(format!("cellcache-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let good = render(&BTreeMap::from([("k".to_string(), sample())]));
        std::fs::write(&path, good.replace(SCHEMA, "fsencr-cell-cache/0")).unwrap();
        assert!(load(&path).is_none());
        std::fs::write(&path, good.replace(&version_salt(), "fsencr-bench/0.0.0-other")).unwrap();
        assert!(load(&path).is_none());
        std::fs::write(&path, "not json at all").unwrap();
        assert!(load(&path).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
