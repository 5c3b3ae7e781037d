//! Osiris ECC emulation.
//!
//! Osiris (MICRO'18) observes that the ECC bits stored with every data line
//! can double as a counter-recovery oracle: decrypt the line with a
//! candidate counter, check the ECC, and the counter that yields a clean
//! check is the one that encrypted the line. Real hardware gets this for
//! free from the DIMM's ECC lanes; the simulator emulates the lanes with a
//! side store holding an 8-byte truncated SHA-256 tag of each line's
//! *plaintext*. The tag is written atomically with the data line (it
//! physically rides in the same burst) and is **not** addressable memory —
//! an attacker scanning the DIMM address space never sees it, and it leaks
//! nothing usable (a 64-bit truncated hash of encrypted-at-rest content).
//!
//! Every line write records a tag, so hashing is the store's host-side
//! cost. [`EccStore::record`] parks each `(line, plaintext)` in a fixed
//! four-slot buffer and hashes a full buffer with one four-lane
//! [`ecc_tags4`] call. Pending entries are part of the store's state:
//! every reader sees them exactly as if they had been hashed on record.

use std::collections::HashMap;

use fsencr_crypto::{ecc_tag, ecc_tags4};
use fsencr_nvm::LineAddr;

/// Entries hashed per [`ecc_tags4`] call.
const BATCH: usize = 4;

/// Per-line ECC tags over plaintext, the Osiris recovery oracle.
///
/// # Examples
///
/// ```
/// use fsencr_secmem::EccStore;
/// use fsencr_nvm::LineAddr;
///
/// let mut ecc = EccStore::new();
/// let line = LineAddr::new(0x1000);
/// ecc.record(line, &[1u8; 64]);
/// assert!(ecc.check(line, &[1u8; 64]));
/// assert!(!ecc.check(line, &[2u8; 64]));
/// ```
#[derive(Debug, Clone)]
pub struct EccStore {
    tags: HashMap<u64, [u8; 8]>,
    /// Recorded `(line, plaintext)` pairs not hashed yet, oldest first;
    /// only the first `n_pending` slots are live.
    pending: [(u64, [u8; 64]); BATCH],
    n_pending: usize,
}

impl Default for EccStore {
    fn default() -> Self {
        EccStore {
            tags: HashMap::new(),
            pending: [(0, [0u8; 64]); BATCH],
            n_pending: 0,
        }
    }
}

impl EccStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        EccStore::default()
    }

    fn pending_entries(&self) -> &[(u64, [u8; 64])] {
        &self.pending[..self.n_pending]
    }

    /// The newest pending plaintext of `line`, if it has one.
    fn pending_plaintext(&self, line: u64) -> Option<&[u8; 64]> {
        self.pending_entries()
            .iter()
            .rev()
            .find(|(l, _)| *l == line)
            .map(|(_, plain)| plain)
    }

    /// Pending lines that have no settled tag, each once.
    fn fresh_pending_lines(&self) -> impl Iterator<Item = u64> + '_ {
        let pending = self.pending_entries();
        pending
            .iter()
            .enumerate()
            .filter(move |(i, (l, _))| {
                !self.tags.contains_key(l) && !pending[..*i].iter().any(|(e, _)| e == l)
            })
            .map(|(_, (l, _))| *l)
    }

    /// Records the ECC tag for a line being written with `plaintext`.
    /// Tags are hashed four at a time, in record order, so the last write
    /// to a line wins.
    pub fn record(&mut self, line: LineAddr, plaintext: &[u8; 64]) {
        self.pending[self.n_pending] = (line.get(), *plaintext);
        self.n_pending += 1;
        if self.n_pending == BATCH {
            let [a, b, c, d] = &self.pending;
            let tags = ecc_tags4([&a.1, &b.1, &c.1, &d.1], [a.0, b.0, c.0, d.0]);
            for ((line, _), tag) in self.pending.iter().zip(tags) {
                self.tags.insert(*line, tag);
            }
            self.n_pending = 0;
        }
    }

    /// The number of recorded tags still waiting for a four-lane batch
    /// (0 to 3). Pending tags are visible to every reader; this only
    /// says how many have not been hashed yet.
    pub fn pending(&self) -> usize {
        self.n_pending
    }

    /// Checks a candidate plaintext against the stored tag. Lines that were
    /// never written have no tag and fail the check.
    pub fn check(&self, line: LineAddr, plaintext: &[u8; 64]) -> bool {
        let addr = line.get();
        let stored = match self.pending_plaintext(addr) {
            Some(plain) => Some(ecc_tag(plain, addr)),
            None => self.tags.get(&addr).copied(),
        };
        stored.is_some_and(|t| t == ecc_tag(plaintext, addr))
    }

    /// Whether a tag exists for this line (the line was written at least
    /// once).
    pub fn has_tag(&self, line: LineAddr) -> bool {
        self.tags.contains_key(&line.get()) || self.pending_plaintext(line.get()).is_some()
    }

    /// Drops the tag (page shredding).
    pub fn clear(&mut self, line: LineAddr) {
        let addr = line.get();
        self.tags.remove(&addr);
        let mut kept = 0;
        for i in 0..self.n_pending {
            if self.pending[i].0 != addr {
                self.pending[kept] = self.pending[i];
                kept += 1;
            }
        }
        self.n_pending = kept;
    }

    /// Iterates every tagged line (recovery walks this instead of the
    /// whole address space).
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.tags
            .keys()
            .copied()
            .chain(self.fresh_pending_lines())
            .map(LineAddr::new)
    }

    /// Number of tagged lines.
    pub fn len(&self) -> usize {
        self.tags.len() + self.fresh_pending_lines().count()
    }

    /// Whether no lines are tagged.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty() && self.n_pending == 0
    }

    /// Serializes every tag in sorted line order. Pending entries are
    /// hashed one lane at a time here and written as settled tags.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        let mut entries: Vec<(u64, [u8; 8])> = self.tags.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable_by_key(|(k, _)| *k);
        for (line, plain) in self.pending_entries() {
            let tag = ecc_tag(plain, *line);
            match entries.binary_search_by_key(line, |(k, _)| *k) {
                Ok(i) => entries[i].1 = tag,
                Err(i) => entries.insert(i, (*line, tag)),
            }
        }
        enc.put_u64(entries.len() as u64);
        for (line, tag) in entries {
            enc.put_u64(line);
            enc.put_bytes(&tag);
        }
    }

    /// Restores a store from [`EccStore::snap_save`] bytes; every tag
    /// comes back settled.
    pub fn snap_load(
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<EccStore, fsencr_snapshot::SnapError> {
        let n = dec.get_len()?;
        let mut tags = HashMap::with_capacity(n);
        for _ in 0..n {
            let line = dec.get_u64()?;
            let tag = dec.get_arr8()?;
            tags.insert(line, tag);
        }
        Ok(EccStore {
            tags,
            ..EccStore::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_check() {
        let mut ecc = EccStore::new();
        let line = LineAddr::new(64);
        assert!(!ecc.has_tag(line));
        assert!(!ecc.check(line, &[0u8; 64]));
        ecc.record(line, &[5u8; 64]);
        assert!(ecc.has_tag(line));
        assert!(ecc.check(line, &[5u8; 64]));
        assert!(!ecc.check(line, &[6u8; 64]));
    }

    #[test]
    fn tag_binds_address() {
        // The same plaintext at a different address has a different tag,
        // so recovery can't confuse relocated lines.
        let mut ecc = EccStore::new();
        ecc.record(LineAddr::new(0), &[9u8; 64]);
        assert!(!ecc.check(LineAddr::new(64), &[9u8; 64]));
    }

    #[test]
    fn rewrite_replaces_tag() {
        let mut ecc = EccStore::new();
        let line = LineAddr::new(128);
        ecc.record(line, &[1u8; 64]);
        ecc.record(line, &[2u8; 64]);
        assert!(!ecc.check(line, &[1u8; 64]));
        assert!(ecc.check(line, &[2u8; 64]));
        assert_eq!(ecc.len(), 1);
    }

    /// The store's contract as a plain map: one tag per line, hashed on
    /// record by the streaming SHA-256.
    #[derive(Default)]
    struct Reference {
        tags: HashMap<u64, [u8; 8]>,
    }

    impl Reference {
        fn tag(line: u64, plaintext: &[u8; 64]) -> [u8; 8] {
            let mut msg = [0u8; 72];
            msg[..64].copy_from_slice(plaintext);
            msg[64..].copy_from_slice(&line.to_le_bytes());
            let mut tag = [0u8; 8];
            tag.copy_from_slice(&fsencr_crypto::sha256(&msg)[..8]);
            tag
        }

        fn snap_bytes(&self) -> Vec<u8> {
            let mut entries: Vec<_> = self.tags.iter().map(|(k, v)| (*k, *v)).collect();
            entries.sort_unstable();
            let mut enc = fsencr_snapshot::Enc::new();
            enc.begin_section("ecc");
            enc.put_u64(entries.len() as u64);
            for (line, tag) in entries {
                enc.put_u64(line);
                enc.put_bytes(&tag);
            }
            enc.end_section();
            enc.finish()
        }
    }

    fn snap_bytes(ecc: &EccStore) -> Vec<u8> {
        let mut enc = fsencr_snapshot::Enc::new();
        enc.begin_section("ecc");
        ecc.snap_save(&mut enc);
        enc.end_section();
        enc.finish()
    }

    fn assert_matches(ecc: &EccStore, reference: &Reference, what: &str) {
        assert_eq!(ecc.len(), reference.tags.len(), "{what}: len");
        assert_eq!(ecc.is_empty(), reference.tags.is_empty(), "{what}: is_empty");
        let mut lines: Vec<u64> = ecc.lines().map(|l| l.get()).collect();
        lines.sort_unstable();
        let mut want: Vec<u64> = reference.tags.keys().copied().collect();
        want.sort_unstable();
        assert_eq!(lines, want, "{what}: lines");
        assert_eq!(snap_bytes(ecc), reference.snap_bytes(), "{what}: snap_save");
    }

    #[test]
    fn batched_store_matches_reference_map() {
        // Few lines and few distinct plaintexts, so rewrites, clears of
        // pending lines and matching checks all happen often.
        let plains: Vec<[u8; 64]> = (0..5u8).map(|i| [i.wrapping_mul(0x3d); 64]).collect();
        let lines = [0u64, 64, 128, 4096, 1 << 38, u64::MAX].map(|a| LineAddr::new(a).get());
        let mut ends_pending = [false; BATCH];
        for seed in 0..48u64 {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move |n: usize| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % n as u64) as usize
            };
            let mut ecc = EccStore::new();
            let mut reference = Reference::default();
            let steps = 20 + next(40);
            for step in 0..steps {
                let line = lines[next(lines.len())];
                let plain = &plains[next(plains.len())];
                let what = format!("seed {seed} step {step}");
                match next(10) {
                    0..=4 => {
                        ecc.record(LineAddr::new(line), plain);
                        reference.tags.insert(line, Reference::tag(line, plain));
                    }
                    5 => {
                        ecc.clear(LineAddr::new(line));
                        reference.tags.remove(&line);
                    }
                    6 | 7 => {
                        let want = reference.tags.get(&line) == Some(&Reference::tag(line, plain));
                        assert_eq!(ecc.check(LineAddr::new(line), plain), want, "{what}: check");
                    }
                    8 => {
                        let want = reference.tags.contains_key(&line);
                        assert_eq!(ecc.has_tag(LineAddr::new(line)), want, "{what}: has_tag");
                    }
                    _ => {
                        // A clone carries the pending entries with it.
                        let copy = ecc.clone();
                        assert_eq!(copy.pending(), ecc.pending(), "{what}: clone");
                        assert_matches(&copy, &reference, &what);
                    }
                }
                assert_matches(&ecc, &reference, &what);
            }
            ends_pending[ecc.pending()] = true;
            // A store reloaded from its own image has settled every tag.
            let image = snap_bytes(&ecc);
            let mut dec = fsencr_snapshot::Dec::new(&image).unwrap();
            dec.begin_section("ecc").unwrap();
            let loaded = EccStore::snap_load(&mut dec).unwrap();
            assert_eq!(loaded.pending(), 0);
            assert_matches(&loaded, &reference, &format!("seed {seed} reloaded"));
        }
        assert_eq!(ends_pending, [true; BATCH], "runs must end with 0, 1, 2 and 3 pending");
    }

    #[test]
    fn clear_removes() {
        let mut ecc = EccStore::new();
        let line = LineAddr::new(0);
        ecc.record(line, &[1u8; 64]);
        ecc.clear(line);
        assert!(ecc.is_empty());
        assert!(!ecc.check(line, &[1u8; 64]));
    }
}
