//! A persistent open-addressing hash table — the Whisper "Hashmap"
//! workload's data structure.
//!
//! Layout:
//!
//! ```text
//! 0      header: magic | capacity | value_size
//! 4096   slots, stride = round64(16 + value_size):
//!        [0..8] key  [8..16] state (0 empty / 1 used)  [16..] value
//! ```
//!
//! Fixed capacity, linear probing, PMDK ordering: the value is persisted
//! before the state word that publishes it.

use fsencr::machine::{Machine, MachineError, MapId};

use super::io;

/// A persistent fixed-capacity hash map with inline values.
#[derive(Debug, Clone, Copy)]
pub struct HashKv {
    map: MapId,
    capacity: u64,
    value_size: u64,
    stride: u64,
}

const HDR_MAGIC: u64 = 0;
const HDR_CAP: u64 = 8;
const HDR_VSIZE: u64 = 16;
const SLOTS_OFF: u64 = 4096;
const MAGIC_V: u64 = 0x4861_7368_4b76_0001;

fn mix(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl HashKv {
    /// Formats a table with `capacity` slots of `value_size`-byte values.
    ///
    /// # Errors
    ///
    /// Machine access failures.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `value_size` is zero.
    pub fn create(
        m: &mut Machine,
        core: usize,
        map: MapId,
        capacity: u64,
        value_size: u64,
    ) -> Result<Self, MachineError> {
        assert!(capacity > 0 && value_size > 0);
        io::write_u64(m, core, map, HDR_MAGIC, MAGIC_V)?;
        io::write_u64(m, core, map, HDR_CAP, capacity)?;
        io::write_u64(m, core, map, HDR_VSIZE, value_size)?;
        m.persist(core, map, 0, 24)?;
        Ok(HashKv {
            map,
            capacity,
            value_size,
            stride: (16 + value_size).div_ceil(64) * 64,
        })
    }

    /// Opens an existing table.
    ///
    /// # Errors
    ///
    /// Machine access failures.
    ///
    /// # Panics
    ///
    /// Panics on a bad magic number.
    pub fn open(m: &mut Machine, core: usize, map: MapId) -> Result<Self, MachineError> {
        assert_eq!(
            io::read_u64(m, core, map, HDR_MAGIC)?,
            MAGIC_V,
            "not a hashmap file"
        );
        let capacity = io::read_u64(m, core, map, HDR_CAP)?;
        let value_size = io::read_u64(m, core, map, HDR_VSIZE)?;
        Ok(HashKv {
            map,
            capacity,
            value_size,
            stride: (16 + value_size).div_ceil(64) * 64,
        })
    }

    /// The configured inline value size.
    pub fn value_size(&self) -> usize {
        self.value_size as usize
    }

    /// The mapping this engine lives on (for `msync` calls).
    pub fn map_id(&self) -> MapId {
        self.map
    }

    fn slot_off(&self, slot: u64) -> u64 {
        SLOTS_OFF + slot * self.stride
    }

    /// Inserts or overwrites `key`.
    ///
    /// # Errors
    ///
    /// Machine failures.
    ///
    /// # Panics
    ///
    /// Panics if the table is full or the value size mismatches.
    pub fn put(
        &self,
        m: &mut Machine,
        core: usize,
        key: u64,
        value: &[u8],
    ) -> Result<(), MachineError> {
        assert_eq!(value.len() as u64, self.value_size, "value size mismatch");
        let start = mix(key) % self.capacity;
        for probe in 0..self.capacity {
            let off = self.slot_off((start + probe) % self.capacity);
            let state = io::read_u64(m, core, self.map, off + 8)?;
            if state == 0 || state == 2 {
                // publish: value first, then key+state. Tombstones are
                // reusable: the live copy of `key` (if any) would have
                // been found earlier on this probe chain only if it was
                // re-inserted after the tombstone; overwriting here keeps
                // exactly one live slot per key because `put` stops at the
                // first free slot *or* live match.
                if state == 2 {
                    // keep probing for a live match first
                    let mut found_live = false;
                    for p2 in (probe + 1)..self.capacity {
                        let off2 = self.slot_off((start + p2) % self.capacity);
                        let s2 = io::read_u64(m, core, self.map, off2 + 8)?;
                        if s2 == 0 {
                            break;
                        }
                        if s2 == 1 && io::read_u64(m, core, self.map, off2)? == key {
                            m.write(core, self.map, off2 + 16, value)?;
                            m.persist(core, self.map, off2 + 16, self.value_size)?;
                            found_live = true;
                            break;
                        }
                    }
                    if found_live {
                        return Ok(());
                    }
                }
                m.write(core, self.map, off + 16, value)?;
                m.persist(core, self.map, off + 16, self.value_size)?;
                io::write_u64(m, core, self.map, off, key)?;
                io::write_u64(m, core, self.map, off + 8, 1)?;
                m.persist(core, self.map, off, 16)?;
                return Ok(());
            }
            if state == 1 && io::read_u64(m, core, self.map, off)? == key {
                m.write(core, self.map, off + 16, value)?;
                m.persist(core, self.map, off + 16, self.value_size)?;
                return Ok(());
            }
        }
        panic!("hash table full");
    }

    /// Removes `key`, leaving a tombstone so probe chains stay intact.
    /// Returns whether it existed.
    ///
    /// # Errors
    ///
    /// Machine failures.
    pub fn remove(&self, m: &mut Machine, core: usize, key: u64) -> Result<bool, MachineError> {
        let start = mix(key) % self.capacity;
        for probe in 0..self.capacity {
            let off = self.slot_off((start + probe) % self.capacity);
            let state = io::read_u64(m, core, self.map, off + 8)?;
            if state == 0 {
                return Ok(false);
            }
            if state == 1 && io::read_u64(m, core, self.map, off)? == key {
                io::write_u64(m, core, self.map, off + 8, 2)?; // tombstone
                m.persist(core, self.map, off + 8, 8)?;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Reads `key`'s value into `buf`; returns whether it exists.
    ///
    /// # Errors
    ///
    /// Machine failures.
    pub fn get(
        &self,
        m: &mut Machine,
        core: usize,
        key: u64,
        buf: &mut Vec<u8>,
    ) -> Result<bool, MachineError> {
        let start = mix(key) % self.capacity;
        for probe in 0..self.capacity {
            let off = self.slot_off((start + probe) % self.capacity);
            let state = io::read_u64(m, core, self.map, off + 8)?;
            if state == 0 {
                return Ok(false);
            }
            if state == 1 && io::read_u64(m, core, self.map, off)? == key {
                buf.resize(self.value_size as usize, 0);
                m.read(core, self.map, off + 16, buf)?;
                return Ok(true);
            }
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsencr::machine::{MachineOpts, SecurityMode};
    use fsencr_fs::{GroupId, Mode, UserId};

    fn setup() -> (Machine, HashKv) {
        let mut opts = MachineOpts::small_test();
        opts.pmem_bytes = 4 << 20;
        let mut m = Machine::new(opts, SecurityMode::FsEncr);
        let h = m
            .create(
                UserId::new(1),
                GroupId::new(1),
                "hash.db",
                Mode::PRIVATE,
                Some("pw"),
            )
            .unwrap();
        let map = m.mmap(&h).unwrap();
        let kv = HashKv::create(&mut m, 0, map, 1024, 128).unwrap();
        (m, kv)
    }

    #[test]
    fn put_get_roundtrip() {
        let (mut m, kv) = setup();
        let v = [7u8; 128];
        kv.put(&mut m, 0, 99, &v).unwrap();
        let mut buf = Vec::new();
        assert!(kv.get(&mut m, 0, 99, &mut buf).unwrap());
        assert_eq!(buf, v);
        assert!(!kv.get(&mut m, 0, 100, &mut buf).unwrap());
    }

    #[test]
    fn overwrite() {
        let (mut m, kv) = setup();
        kv.put(&mut m, 0, 1, &[1u8; 128]).unwrap();
        kv.put(&mut m, 0, 1, &[2u8; 128]).unwrap();
        let mut buf = Vec::new();
        kv.get(&mut m, 0, 1, &mut buf).unwrap();
        assert_eq!(buf, [2u8; 128]);
    }

    #[test]
    fn collisions_probe_linearly() {
        let (mut m, kv) = setup();
        // Insert many keys; with 1024 slots and 300 keys several collide.
        for k in 0..300u64 {
            let mut v = [0u8; 128];
            v[0] = k as u8;
            kv.put(&mut m, 0, k, &v).unwrap();
        }
        let mut buf = Vec::new();
        for k in 0..300u64 {
            assert!(kv.get(&mut m, 0, k, &mut buf).unwrap(), "key {k}");
            assert_eq!(buf[0], k as u8);
        }
    }

    #[test]
    fn reopen_preserves_geometry() {
        let (mut m, kv) = setup();
        kv.put(&mut m, 0, 5, &[9u8; 128]).unwrap();
        let map = kv.map;
        let kv2 = HashKv::open(&mut m, 0, map).unwrap();
        assert_eq!(kv2.value_size(), 128);
        let mut buf = Vec::new();
        assert!(kv2.get(&mut m, 0, 5, &mut buf).unwrap());
    }

    #[test]
    #[should_panic(expected = "value size mismatch")]
    fn wrong_value_size_panics() {
        let (mut m, kv) = setup();
        kv.put(&mut m, 0, 1, &[0u8; 64]).unwrap();
    }
}

#[cfg(test)]
mod remove_tests {
    use super::*;
    use fsencr::machine::{MachineOpts, SecurityMode};
    use fsencr_fs::{GroupId, Mode, UserId};

    fn setup() -> (Machine, HashKv) {
        let mut opts = MachineOpts::small_test();
        opts.pmem_bytes = 4 << 20;
        let mut m = Machine::new(opts, SecurityMode::FsEncr);
        let h = m
            .create(
                UserId::new(1),
                GroupId::new(1),
                "rm.db",
                Mode::PRIVATE,
                Some("pw"),
            )
            .unwrap();
        let map = m.mmap(&h).unwrap();
        let kv = HashKv::create(&mut m, 0, map, 64, 64).unwrap();
        (m, kv)
    }

    #[test]
    fn remove_and_tombstone_chain() {
        let (mut m, kv) = setup();
        // Force collisions in a tiny table.
        for k in 1..=20u64 {
            kv.put(&mut m, 0, k, &[k as u8; 64]).unwrap();
        }
        assert!(kv.remove(&mut m, 0, 7).unwrap());
        assert!(!kv.remove(&mut m, 0, 7).unwrap());
        let mut buf = Vec::new();
        assert!(!kv.get(&mut m, 0, 7, &mut buf).unwrap());
        // Every other key still reachable across tombstones.
        for k in (1..=20u64).filter(|k| *k != 7) {
            assert!(kv.get(&mut m, 0, k, &mut buf).unwrap(), "key {k}");
            assert_eq!(buf[0], k as u8);
        }
    }

    #[test]
    fn reinsert_after_remove_reuses_tombstones() {
        let (mut m, kv) = setup();
        for k in 1..=30u64 {
            kv.put(&mut m, 0, k, &[1u8; 64]).unwrap();
        }
        for k in 1..=30u64 {
            kv.remove(&mut m, 0, k).unwrap();
        }
        // The table must not be "full" of tombstones.
        for k in 1..=30u64 {
            kv.put(&mut m, 0, k, &[2u8; 64]).unwrap();
        }
        let mut buf = Vec::new();
        for k in 1..=30u64 {
            assert!(kv.get(&mut m, 0, k, &mut buf).unwrap());
            assert_eq!(buf, [2u8; 64]);
        }
    }

    #[test]
    fn put_with_tombstone_before_live_slot_keeps_one_copy() {
        let (mut m, kv) = setup();
        // key A and B collide-ish; remove A leaving a tombstone, B lives
        // past it; a put of B must update the live slot, not resurrect a
        // second copy in the tombstone.
        for k in 1..=10u64 {
            kv.put(&mut m, 0, k, &[k as u8; 64]).unwrap();
        }
        kv.remove(&mut m, 0, 3).unwrap();
        for k in (1..=10u64).filter(|k| *k != 3) {
            kv.put(&mut m, 0, k, &[k as u8 + 100; 64]).unwrap();
        }
        let mut buf = Vec::new();
        for k in (1..=10u64).filter(|k| *k != 3) {
            assert!(kv.get(&mut m, 0, k, &mut buf).unwrap());
            assert_eq!(buf[0], k as u8 + 100, "key {k} stale after tombstone");
        }
    }
}
