//! The encrypted OTT spill region (Section III-E/G).
//!
//! When the on-chip OTT overflows, the least-recently-used entry is
//! written to a dedicated memory region as a set-associative hash table
//! maintained by the memory controller. The key material is encrypted
//! under the **OTT key**, which never leaves the processor, and the whole
//! region is covered by the Merkle tree — so even an attacker who breaks
//! the general memory encryption learns no file keys, and tampering with
//! spilled entries is detected.
//!
//! On-media format: each 64-byte line holds two 32-byte slots:
//!
//! ```text
//! [0]     state: 0 empty / 1 occupied / 2 tombstone
//! [1..5]  id word: (gid << 14) | fid, little-endian
//! [5..21] AES-ECB(ott_key, file key)
//! [21..32] zero padding
//! ```
//!
//! Collisions are resolved by linear probing; deletions leave tombstones
//! so probe chains stay intact.

use fsencr_crypto::{Aes128, Key128};
use fsencr_nvm::{LineAddr, NvmDevice, LINE_BYTES};
use fsencr_secmem::{MetadataSystem, TamperError};
use fsencr_sim::Cycle;

const SLOT_BYTES: usize = 32;
const SLOTS_PER_LINE: u64 = 2;

const STATE_EMPTY: u8 = 0;
const STATE_OCCUPIED: u8 = 1;
const STATE_TOMBSTONE: u8 = 2;

/// Errors from spill-region operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillError {
    /// Every probe slot is occupied — the region is too small for the
    /// file population.
    Full,
    /// Merkle verification failed while reading the region.
    Tamper(TamperError),
}

impl std::fmt::Display for SpillError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpillError::Full => f.write_str("ott spill region is full"),
            SpillError::Tamper(e) => write!(f, "ott spill region: {e}"),
        }
    }
}

impl std::error::Error for SpillError {}

impl From<TamperError> for SpillError {
    fn from(e: TamperError) -> Self {
        SpillError::Tamper(e)
    }
}

/// The encrypted, integrity-protected key table in memory.
#[derive(Clone)]
pub struct OttSpill {
    base: u64,
    slots: u64,
    aes: Aes128,
}

impl std::fmt::Debug for OttSpill {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OttSpill")
            .field("base", &self.base)
            .field("slots", &self.slots)
            .finish_non_exhaustive()
    }
}

fn id_word(gid: u32, fid: u32) -> u32 {
    debug_assert!(gid < 1 << 18 && fid < 1 << 14);
    (gid << 14) | fid
}

fn hash_ids(gid: u32, fid: u32) -> u64 {
    let mut z = ((gid as u64) << 32 | fid as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl OttSpill {
    /// Creates the spill manager over `[base, base + bytes)` with the
    /// processor-resident OTT key.
    ///
    /// # Panics
    ///
    /// Panics unless the region is line-aligned and non-empty.
    pub fn new(base: u64, bytes: u64, ott_key: &Key128) -> Self {
        assert!(bytes > 0, "spill region must be non-empty");
        assert_eq!(
            bytes % LINE_BYTES as u64,
            0,
            "spill region must be line-aligned"
        );
        assert_eq!(
            base % LINE_BYTES as u64,
            0,
            "spill base must be line-aligned"
        );
        OttSpill {
            base,
            slots: bytes / LINE_BYTES as u64 * SLOTS_PER_LINE,
            aes: Aes128::new(ott_key),
        }
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> u64 {
        self.slots
    }

    fn slot_location(&self, slot: u64) -> (LineAddr, usize) {
        let line = slot / SLOTS_PER_LINE;
        let idx = (slot % SLOTS_PER_LINE) as usize;
        (
            LineAddr::new(self.base + line * LINE_BYTES as u64),
            idx * SLOT_BYTES,
        )
    }

    fn encode_slot(&self, out: &mut [u8], gid: u32, fid: u32, key: &Key128) {
        out[0] = STATE_OCCUPIED;
        out[1..5].copy_from_slice(&id_word(gid, fid).to_le_bytes());
        let enc = self.aes.encrypt_block(*key.as_bytes());
        out[5..21].copy_from_slice(&enc);
        out[21..SLOT_BYTES].fill(0);
    }

    fn decode_key(&self, slot: &[u8]) -> Key128 {
        let mut enc = [0u8; 16];
        enc.copy_from_slice(&slot[5..21]);
        Key128::from_bytes(self.aes.decrypt_block(enc))
    }

    /// Walks `(gid, fid)`'s probe chain from its hash slot, reading one
    /// slot per step, until the id's slot, an empty slot (the chain's
    /// end) or a full lap. Returns what it found and the time after the
    /// last read.
    fn probe(
        &self,
        meta: &mut MetadataSystem,
        nvm: &mut NvmDevice,
        now: Cycle,
        gid: u32,
        fid: u32,
    ) -> Result<(Probe, Cycle), SpillError> {
        let want = id_word(gid, fid).to_le_bytes();
        let start = hash_ids(gid, fid) % self.slots;
        let mut t = now;
        let mut first_free = None;
        for step in 0..self.slots {
            let slot = (start + step) % self.slots;
            let (line, off) = self.slot_location(slot);
            let (bytes, acc) = meta.read_block(nvm, t, line)?;
            t = acc.done;
            match bytes[off] {
                STATE_OCCUPIED if bytes[off + 1..off + 5] == want => {
                    return Ok((Probe::Found { line, off, bytes }, t));
                }
                STATE_OCCUPIED => {}
                state => {
                    first_free = first_free.or(Some(slot));
                    if state == STATE_EMPTY {
                        break;
                    }
                }
            }
        }
        Ok((Probe::Absent { first_free }, t))
    }

    /// Inserts (or updates) the spilled key for `(gid, fid)`.
    ///
    /// # Errors
    ///
    /// [`SpillError::Full`] if no free slot exists on the probe chain,
    /// or a propagated integrity failure.
    pub fn insert(
        &self,
        meta: &mut MetadataSystem,
        nvm: &mut NvmDevice,
        now: Cycle,
        gid: u32,
        fid: u32,
        key: &Key128,
    ) -> Result<Cycle, SpillError> {
        let (line, off, mut bytes, t) = match self.probe(meta, nvm, now, gid, fid)? {
            // Update in place.
            (Probe::Found { line, off, bytes }, t) => (line, off, bytes, t),
            (Probe::Absent { first_free }, t) => {
                let (line, off) = self.slot_location(first_free.ok_or(SpillError::Full)?);
                let (bytes, acc) = meta.read_block(nvm, t, line)?;
                (line, off, bytes, acc.done)
            }
        };
        self.encode_slot(&mut bytes[off..off + SLOT_BYTES], gid, fid, key);
        Ok(meta.write_block(nvm, t, line, bytes)?.done)
    }

    /// Looks up the spilled key for `(gid, fid)`.
    ///
    /// # Errors
    ///
    /// Propagates integrity failures.
    pub fn lookup(
        &self,
        meta: &mut MetadataSystem,
        nvm: &mut NvmDevice,
        now: Cycle,
        gid: u32,
        fid: u32,
    ) -> Result<(Option<Key128>, Cycle), SpillError> {
        match self.probe(meta, nvm, now, gid, fid)? {
            (Probe::Found { off, bytes, .. }, t) => {
                Ok((Some(self.decode_key(&bytes[off..off + SLOT_BYTES])), t))
            }
            (Probe::Absent { .. }, t) => Ok((None, t)),
        }
    }

    /// Removes the spilled key for `(gid, fid)` (file deletion), leaving a
    /// tombstone. Returns whether an entry was removed.
    ///
    /// # Errors
    ///
    /// Propagates integrity failures.
    pub fn remove(
        &self,
        meta: &mut MetadataSystem,
        nvm: &mut NvmDevice,
        now: Cycle,
        gid: u32,
        fid: u32,
    ) -> Result<(bool, Cycle), SpillError> {
        match self.probe(meta, nvm, now, gid, fid)? {
            (
                Probe::Found {
                    line,
                    off,
                    mut bytes,
                },
                t,
            ) => {
                bytes[off..off + SLOT_BYTES].fill(0);
                bytes[off] = STATE_TOMBSTONE;
                Ok((true, meta.write_block(nvm, t, line, bytes)?.done))
            }
            (Probe::Absent { .. }, t) => Ok((false, t)),
        }
    }
}

/// Where a probe walk ended.
enum Probe {
    /// The id's slot: its line, byte offset and the line's bytes.
    Found {
        line: LineAddr,
        off: usize,
        bytes: [u8; LINE_BYTES],
    },
    /// The id is not on its chain; the first empty or tombstoned slot
    /// the walk passed, if any.
    Absent { first_free: Option<u64> },
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsencr_secmem::MetadataLayout;
    use fsencr_sim::config::{NvmConfig, SecurityConfig};

    fn setup() -> (OttSpill, MetadataSystem, NvmDevice) {
        // 16 pages of data + a 512-byte (8 line, 16 slot) spill region.
        let layout = MetadataLayout::new(16 * 4096, 512);
        let base = layout.ott_base();
        let meta = MetadataSystem::new(layout, &SecurityConfig::default());
        let nvm = NvmDevice::new(NvmConfig::default());
        let spill = OttSpill::new(base, 512, &Key128::from_seed(0xA11CE));
        (spill, meta, nvm)
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let (spill, mut meta, mut nvm) = setup();
        let key = Key128::from_seed(7);
        spill
            .insert(&mut meta, &mut nvm, Cycle::ZERO, 3, 5, &key)
            .unwrap();
        let (found, _) = spill
            .lookup(&mut meta, &mut nvm, Cycle::ZERO, 3, 5)
            .unwrap();
        assert_eq!(found, Some(key));
        let (missing, _) = spill
            .lookup(&mut meta, &mut nvm, Cycle::ZERO, 3, 6)
            .unwrap();
        assert_eq!(missing, None);
    }

    #[test]
    fn update_replaces_key() {
        let (spill, mut meta, mut nvm) = setup();
        spill
            .insert(
                &mut meta,
                &mut nvm,
                Cycle::ZERO,
                1,
                1,
                &Key128::from_seed(1),
            )
            .unwrap();
        spill
            .insert(
                &mut meta,
                &mut nvm,
                Cycle::ZERO,
                1,
                1,
                &Key128::from_seed(2),
            )
            .unwrap();
        let (found, _) = spill
            .lookup(&mut meta, &mut nvm, Cycle::ZERO, 1, 1)
            .unwrap();
        assert_eq!(found, Some(Key128::from_seed(2)));
    }

    #[test]
    fn remove_leaves_probe_chain_intact() {
        let (spill, mut meta, mut nvm) = setup();
        // Insert enough entries that some collide and chain.
        for fid in 0..10u32 {
            spill
                .insert(
                    &mut meta,
                    &mut nvm,
                    Cycle::ZERO,
                    1,
                    fid,
                    &Key128::from_seed(fid as u64),
                )
                .unwrap();
        }
        let (removed, _) = spill
            .remove(&mut meta, &mut nvm, Cycle::ZERO, 1, 4)
            .unwrap();
        assert!(removed);
        // Every other entry must still be findable (tombstone, not hole).
        for fid in (0..10u32).filter(|f| *f != 4) {
            let (found, _) = spill
                .lookup(&mut meta, &mut nvm, Cycle::ZERO, 1, fid)
                .unwrap();
            assert_eq!(found, Some(Key128::from_seed(fid as u64)), "fid {fid}");
        }
        let (gone, _) = spill
            .lookup(&mut meta, &mut nvm, Cycle::ZERO, 1, 4)
            .unwrap();
        assert_eq!(gone, None);
        // Tombstone is reusable.
        spill
            .insert(
                &mut meta,
                &mut nvm,
                Cycle::ZERO,
                1,
                4,
                &Key128::from_seed(99),
            )
            .unwrap();
        let (back, _) = spill
            .lookup(&mut meta, &mut nvm, Cycle::ZERO, 1, 4)
            .unwrap();
        assert_eq!(back, Some(Key128::from_seed(99)));
    }

    #[test]
    fn region_fills_up() {
        let (spill, mut meta, mut nvm) = setup();
        assert_eq!(spill.capacity(), 16);
        for fid in 0..16u32 {
            spill
                .insert(
                    &mut meta,
                    &mut nvm,
                    Cycle::ZERO,
                    0,
                    fid,
                    &Key128::from_seed(1),
                )
                .unwrap();
        }
        let err = spill
            .insert(
                &mut meta,
                &mut nvm,
                Cycle::ZERO,
                0,
                99,
                &Key128::from_seed(1),
            )
            .unwrap_err();
        assert_eq!(err, SpillError::Full);
    }

    #[test]
    fn key_material_is_encrypted_on_media() {
        let (spill, mut meta, mut nvm) = setup();
        let key = Key128::from_seed(42);
        spill
            .insert(&mut meta, &mut nvm, Cycle::ZERO, 2, 2, &key)
            .unwrap();
        meta.flush(&mut nvm, Cycle::ZERO);
        // Scan the raw spill region: the plaintext key must not appear.
        let base = spill.base;
        for i in 0..8u64 {
            let line = nvm.peek_line(fsencr_nvm::PhysAddr::new(base + i * 64));
            for window in line.windows(16) {
                assert_ne!(window, key.as_bytes(), "plaintext key leaked to media");
            }
        }
        // But it is recoverable through the controller path.
        let (found, _) = spill
            .lookup(&mut meta, &mut nvm, Cycle::ZERO, 2, 2)
            .unwrap();
        assert_eq!(found, Some(key));
    }

    #[test]
    fn slot_format_matches_the_module_doc() {
        let (spill, mut meta, mut nvm) = setup();
        let key = Key128::from_seed(7);
        let t = spill
            .insert(&mut meta, &mut nvm, Cycle::ZERO, 3, 5, &key)
            .unwrap();
        meta.flush(&mut nvm, t);
        let slots: Vec<[u8; 32]> = (0..8u64)
            .map(|line| nvm.peek_line(fsencr_nvm::PhysAddr::new(spill.base + line * 64)))
            .flat_map(|bytes| [0, 32].map(|off| bytes[off..off + 32].try_into().unwrap()))
            .filter(|slot| *slot != [0u8; 32])
            .collect();
        assert_eq!(slots.len(), 1, "one insert fills exactly one slot");
        let slot = slots[0];
        assert_eq!(slot[0], 1, "state byte: occupied");
        // The ID word (3 << 14) | 5 = 0xc005, little-endian.
        assert_eq!(slot[1..5], [0x05, 0xc0, 0x00, 0x00]);
        // AES-ECB of the file key under the OTT key, never the key itself.
        assert_ne!(slot[5..21], key.as_bytes()[..]);
        let wrapped = Aes128::new(&Key128::from_seed(0xA11CE)).encrypt_block(*key.as_bytes());
        assert_eq!(slot[5..21], wrapped);
        assert_eq!(slot[21..32], [0u8; 11], "zero pad");
        // Only the processor's OTT key unwraps it.
        let wrong = OttSpill::new(spill.base, 512, &Key128::from_seed(0xBAD));
        let (found, _) = wrong.lookup(&mut meta, &mut nvm, t, 3, 5).unwrap();
        assert_ne!(found, Some(key));
    }

    #[test]
    fn spill_and_counter_leaves_stay_covered_through_flush_and_rebuild() {
        // The coverage oracle checks every line the persist paths push
        // to media; the sweeps below re-walk every leaf (OTT spill lines
        // included) and tree node from media to the root.
        let (spill, mut meta, mut nvm) = setup();
        meta.set_coverage_oracle(true);
        let mut t = Cycle::ZERO;
        // Five rounds per counter block: stop-loss 4 forces at least one
        // Osiris write-through per block.
        let counters: Vec<LineAddr> = (0..16u64)
            .map(fsencr_nvm::PageId::new)
            .flat_map(|p| [meta.layout().mecb_addr(p), meta.layout().fecb_addr(p)])
            .collect();
        for round in 0..5u8 {
            for (i, &addr) in counters.iter().enumerate() {
                t = meta
                    .write_block(&mut nvm, t, addr, [i as u8 + round + 1; 64])
                    .unwrap()
                    .done;
            }
        }
        assert!(meta.stats().osiris_persists.get() >= counters.len() as u64);
        t = meta.persist_blocks(&mut nvm, t, &counters).unwrap();
        for (fid, seed) in [(2u32, 11u64), (4, 12)] {
            t = spill
                .insert(&mut meta, &mut nvm, t, 1, fid, &Key128::from_seed(seed))
                .unwrap();
        }
        t = meta.flush(&mut nvm, t);

        let is_spill = |leaf: &LineAddr| (spill.base..spill.base + 512).contains(&leaf.get());
        let leaves: Vec<LineAddr> = meta.layout().leaves().collect();
        assert_eq!(leaves.iter().filter(|l| is_spill(l)).count(), 8);
        for &leaf in &leaves {
            assert!(meta.check_coverage(&nvm, leaf).is_ok(), "{leaf:?}");
        }
        for level in 0..meta.layout().merkle_levels() {
            for idx in 0..meta.layout().nodes_at(level) {
                let node = meta.layout().node_addr(level, idx);
                assert!(meta.check_coverage(&nvm, node).is_ok(), "{node:?}");
            }
        }

        meta.crash();
        meta.rebuild(&mut nvm);
        for &leaf in &leaves {
            assert!(meta.check_coverage(&nvm, leaf).is_ok(), "{leaf:?}");
        }
        let (bytes, _) = meta.read_block(&mut nvm, t, counters[14]).unwrap();
        assert_eq!(bytes, [14 + 5; 64]);
        let (found, _) = spill.lookup(&mut meta, &mut nvm, t, 1, 4).unwrap();
        assert_eq!(found, Some(Key128::from_seed(12)));

        // A tampered media line fails the walk.
        meta.crash();
        let victim = fsencr_nvm::PhysAddr::new(counters[1].get());
        let mut evil = nvm.peek_line(victim);
        evil[0] ^= 0x5a;
        nvm.poke_line(victim, &evil);
        assert!(meta.check_coverage(&nvm, counters[1]).is_err());
    }

    #[test]
    fn costs_time() {
        let (spill, mut meta, mut nvm) = setup();
        let done = spill
            .insert(
                &mut meta,
                &mut nvm,
                Cycle::ZERO,
                1,
                1,
                &Key128::from_seed(1),
            )
            .unwrap();
        assert!(done > Cycle::ZERO);
    }
}
