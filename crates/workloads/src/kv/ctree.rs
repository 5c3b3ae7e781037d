//! A persistent binary search tree — the Whisper "CTree" workload's data
//! structure (a pointer-chasing tree with inline values).
//!
//! Layout:
//!
//! ```text
//! 0      header: magic | root | next_alloc | value_size
//! 4096   nodes, stride = round64(32 + value_size):
//!        [0..8] key  [8..16] left  [16..24] right  [24..32] reserved
//!        [32..] value
//! ```
//!
//! Inserts allocate and persist the node fully before publishing it by
//! writing (and persisting) the parent's link — the standard persistent
//! pointer-publication pattern.

use fsencr::machine::{Machine, MachineError, MapId};

use super::io;

const MAGIC_V: u64 = 0x4354_7265_6500_0001;
const HDR_ROOT: u64 = 8;
const HDR_ALLOC: u64 = 16;
const HDR_VSIZE: u64 = 24;
const NODES_OFF: u64 = 4096;

/// A persistent unbalanced BST with inline values.
#[derive(Debug, Clone, Copy)]
pub struct CtreeKv {
    map: MapId,
    value_size: u64,
    stride: u64,
}

impl CtreeKv {
    /// Formats an empty tree for `value_size`-byte values.
    ///
    /// # Errors
    ///
    /// Machine failures.
    ///
    /// # Panics
    ///
    /// Panics if `value_size` is zero.
    pub fn create(
        m: &mut Machine,
        core: usize,
        map: MapId,
        value_size: u64,
    ) -> Result<Self, MachineError> {
        assert!(value_size > 0);
        io::write_u64(m, core, map, 0, MAGIC_V)?;
        io::write_u64(m, core, map, HDR_ROOT, 0)?;
        io::write_u64(m, core, map, HDR_ALLOC, NODES_OFF)?;
        io::write_u64(m, core, map, HDR_VSIZE, value_size)?;
        m.persist(core, map, 0, 32)?;
        Ok(CtreeKv {
            map,
            value_size,
            stride: (32 + value_size).div_ceil(64) * 64,
        })
    }

    /// Opens an existing tree.
    ///
    /// # Errors
    ///
    /// Machine failures.
    ///
    /// # Panics
    ///
    /// Panics on a bad magic number.
    pub fn open(m: &mut Machine, core: usize, map: MapId) -> Result<Self, MachineError> {
        assert_eq!(io::read_u64(m, core, map, 0)?, MAGIC_V, "not a ctree file");
        let value_size = io::read_u64(m, core, map, HDR_VSIZE)?;
        Ok(CtreeKv {
            map,
            value_size,
            stride: (32 + value_size).div_ceil(64) * 64,
        })
    }

    /// The mapping this engine lives on (for `msync` calls).
    pub fn map_id(&self) -> MapId {
        self.map
    }

    fn alloc_node(&self, m: &mut Machine, core: usize) -> Result<u64, MachineError> {
        let next = io::read_u64(m, core, self.map, HDR_ALLOC)?;
        io::write_u64(m, core, self.map, HDR_ALLOC, next + self.stride)?;
        m.persist(core, self.map, HDR_ALLOC, 8)?;
        Ok(next)
    }

    fn write_node(
        &self,
        m: &mut Machine,
        core: usize,
        off: u64,
        key: u64,
        value: &[u8],
    ) -> Result<(), MachineError> {
        let mut hdr = [0u8; 32];
        hdr[..8].copy_from_slice(&key.to_le_bytes());
        m.write(core, self.map, off, &hdr)?;
        m.write(core, self.map, off + 32, value)?;
        m.persist(core, self.map, off, 32 + self.value_size)
    }

    /// Inserts or overwrites `key`.
    ///
    /// # Errors
    ///
    /// Machine failures.
    ///
    /// # Panics
    ///
    /// Panics on a value-size mismatch.
    pub fn put(
        &self,
        m: &mut Machine,
        core: usize,
        key: u64,
        value: &[u8],
    ) -> Result<(), MachineError> {
        assert_eq!(value.len() as u64, self.value_size, "value size mismatch");
        let root = io::read_u64(m, core, self.map, HDR_ROOT)?;
        if root == 0 {
            let node = self.alloc_node(m, core)?;
            self.write_node(m, core, node, key, value)?;
            io::write_u64(m, core, self.map, HDR_ROOT, node)?;
            m.persist(core, self.map, HDR_ROOT, 8)?;
            return Ok(());
        }
        let mut cur = root;
        loop {
            let k = io::read_u64(m, core, self.map, cur)?;
            if k == key {
                m.write(core, self.map, cur + 32, value)?;
                return m.persist(core, self.map, cur + 32, self.value_size);
            }
            let link_off = if key < k { cur + 8 } else { cur + 16 };
            let child = io::read_u64(m, core, self.map, link_off)?;
            if child == 0 {
                let node = self.alloc_node(m, core)?;
                self.write_node(m, core, node, key, value)?;
                io::write_u64(m, core, self.map, link_off, node)?;
                return m.persist(core, self.map, link_off, 8);
            }
            cur = child;
        }
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
        let mut cur = io::read_u64(m, core, self.map, HDR_ROOT)?;
        while cur != 0 {
            let k = io::read_u64(m, core, self.map, cur)?;
            if k == key {
                buf.resize(self.value_size as usize, 0);
                m.read(core, self.map, cur + 32, buf)?;
                return Ok(true);
            }
            cur = io::read_u64(m, core, self.map, if key < k { cur + 8 } else { cur + 16 })?;
        }
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsencr::machine::{MachineOpts, SecurityMode};
    use fsencr_fs::{GroupId, Mode, UserId};
    use fsencr_sim::SplitMix64;

    fn setup() -> (Machine, CtreeKv) {
        let mut opts = MachineOpts::small_test();
        opts.pmem_bytes = 4 << 20;
        let mut m = Machine::new(opts, SecurityMode::FsEncr);
        let h = m
            .create(UserId::new(1), GroupId::new(1), "ctree.db", Mode::PRIVATE, Some("pw"))
            .unwrap();
        let map = m.mmap(&h).unwrap();
        let kv = CtreeKv::create(&mut m, 0, map, 128).unwrap();
        (m, kv)
    }

    #[test]
    fn put_get_roundtrip() {
        let (mut m, kv) = setup();
        kv.put(&mut m, 0, 10, &[1u8; 128]).unwrap();
        kv.put(&mut m, 0, 5, &[2u8; 128]).unwrap();
        kv.put(&mut m, 0, 15, &[3u8; 128]).unwrap();
        let mut buf = Vec::new();
        for (k, tag) in [(10u64, 1u8), (5, 2), (15, 3)] {
            assert!(kv.get(&mut m, 0, k, &mut buf).unwrap());
            assert_eq!(buf, [tag; 128]);
        }
        assert!(!kv.get(&mut m, 0, 99, &mut buf).unwrap());
    }

    #[test]
    fn overwrite_in_place() {
        let (mut m, kv) = setup();
        kv.put(&mut m, 0, 1, &[1u8; 128]).unwrap();
        kv.put(&mut m, 0, 1, &[9u8; 128]).unwrap();
        let mut buf = Vec::new();
        kv.get(&mut m, 0, 1, &mut buf).unwrap();
        assert_eq!(buf, [9u8; 128]);
    }

    #[test]
    fn random_keys_deep_tree() {
        let (mut m, kv) = setup();
        let mut rng = SplitMix64::new(11);
        let keys: Vec<u64> = (0..300).map(|_| rng.next_u64()).collect();
        for (i, &k) in keys.iter().enumerate() {
            kv.put(&mut m, 0, k, &[(i % 251) as u8; 128]).unwrap();
        }
        let mut buf = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            assert!(kv.get(&mut m, 0, k, &mut buf).unwrap());
            assert_eq!(buf, [(i % 251) as u8; 128]);
        }
    }

    #[test]
    fn reopen() {
        let (mut m, kv) = setup();
        kv.put(&mut m, 0, 7, &[4u8; 128]).unwrap();
        let kv2 = CtreeKv::open(&mut m, 0, kv.map).unwrap();
        let mut buf = Vec::new();
        assert!(kv2.get(&mut m, 0, 7, &mut buf).unwrap());
    }
}
