//! A persistent B+Tree on the DAX mapping — the PMEMKV "BTree" engine
//! analogue.
//!
//! On-file layout (all offsets relative to the mapping):
//!
//! ```text
//! 0       header page: magic | root | next_alloc
//! 4096... 4 KiB nodes and 64-byte-aligned value records, bump-allocated
//! ```
//!
//! Nodes are 4 KiB (one counter block / one page):
//!
//! ```text
//! leaf:     [0] tag=2  [2..4] count  [8..16] next-leaf
//!           entries at 16 + i*20: key u64 | vptr u64 | vlen u32
//! internal: [0] tag=1  [2..4] count
//!           keys at 16 + i*8, children at 16 + CAP*8 + i*8
//! ```
//!
//! Writes follow PMDK ordering: value bytes are persisted before the
//! entry that points at them, and the entry before any parent/header
//! update. Splits are preemptive (full children are split on the way
//! down), so no update ever propagates upward.

use fsencr::machine::{Machine, MachineError, MapId};

use super::io;

const MAGIC: u64 = 0xB7EE_0001;
const NODE_BYTES: u64 = 4096;
const HDR_ROOT: u64 = 8;
const HDR_ALLOC: u64 = 16;

const TAG_INTERNAL: u8 = 1;
const TAG_LEAF: u8 = 2;

const ENTRY_BYTES: u64 = 20;
/// Max entries per leaf.
pub const LEAF_CAP: u16 = 128;
/// Max keys per internal node (children = keys + 1).
pub const INT_CAP: u16 = 128;

const KEYS_OFF: u64 = 16;
const CHILDREN_OFF: u64 = KEYS_OFF + INT_CAP as u64 * 8;
const ENTRIES_OFF: u64 = 16;
const NEXT_LEAF_OFF: u64 = 8;

/// A persistent B+Tree keyed by `u64` with variable-size values.
///
/// Each instance owns one mapped file; the two-threaded benchmarks use
/// one instance per thread (shard-per-thread, the lock-free way pmemkv
/// benchmarks scale).
#[derive(Debug, Clone, Copy)]
pub struct BTreeKv {
    map: MapId,
}

impl BTreeKv {
    /// Formats a fresh tree onto `map` (header + empty root leaf).
    ///
    /// # Errors
    ///
    /// Machine access failures.
    pub fn create(m: &mut Machine, core: usize, map: MapId) -> Result<Self, MachineError> {
        let tree = BTreeKv { map };
        io::write_u64(m, core, map, 0, MAGIC)?;
        io::write_u64(m, core, map, HDR_ALLOC, NODE_BYTES)?;
        let root = tree.alloc_node(m, core)?;
        tree.init_leaf(m, core, root)?;
        io::write_u64(m, core, map, HDR_ROOT, root)?;
        m.persist(core, map, 0, 64)?;
        Ok(tree)
    }

    /// Opens an existing tree on `map`.
    ///
    /// # Errors
    ///
    /// Machine access failures; panics on a bad magic number.
    pub fn open(m: &mut Machine, core: usize, map: MapId) -> Result<Self, MachineError> {
        let magic = io::read_u64(m, core, map, 0)?;
        assert_eq!(magic, MAGIC, "not a btree file");
        Ok(BTreeKv { map })
    }

    /// The mapping this engine lives on (for `msync` calls).
    pub fn map_id(&self) -> MapId {
        self.map
    }

    fn alloc(
        &self,
        m: &mut Machine,
        core: usize,
        bytes: u64,
        align: u64,
    ) -> Result<u64, MachineError> {
        let next = io::read_u64(m, core, self.map, HDR_ALLOC)?;
        let base = next.div_ceil(align) * align;
        io::write_u64(m, core, self.map, HDR_ALLOC, base + bytes)?;
        m.persist(core, self.map, HDR_ALLOC, 8)?;
        Ok(base)
    }

    fn alloc_node(&self, m: &mut Machine, core: usize) -> Result<u64, MachineError> {
        self.alloc(m, core, NODE_BYTES, NODE_BYTES)
    }

    fn init_leaf(&self, m: &mut Machine, core: usize, node: u64) -> Result<(), MachineError> {
        let mut hdr = [0u8; 16];
        hdr[0] = TAG_LEAF;
        m.write(core, self.map, node, &hdr)?;
        m.persist(core, self.map, node, 16)
    }

    fn node_tag(&self, m: &mut Machine, core: usize, node: u64) -> Result<u8, MachineError> {
        let mut b = [0u8; 1];
        m.read(core, self.map, node, &mut b)?;
        Ok(b[0])
    }

    fn node_count(&self, m: &mut Machine, core: usize, node: u64) -> Result<u16, MachineError> {
        io::read_u16(m, core, self.map, node + 2)
    }

    fn set_count(
        &self,
        m: &mut Machine,
        core: usize,
        node: u64,
        count: u16,
    ) -> Result<(), MachineError> {
        io::write_u16(m, core, self.map, node + 2, count)
    }

    fn leaf_key(
        &self,
        m: &mut Machine,
        core: usize,
        node: u64,
        idx: u16,
    ) -> Result<u64, MachineError> {
        io::read_u64(
            m,
            core,
            self.map,
            node + ENTRIES_OFF + idx as u64 * ENTRY_BYTES,
        )
    }

    fn int_key(
        &self,
        m: &mut Machine,
        core: usize,
        node: u64,
        idx: u16,
    ) -> Result<u64, MachineError> {
        io::read_u64(m, core, self.map, node + KEYS_OFF + idx as u64 * 8)
    }

    fn child(
        &self,
        m: &mut Machine,
        core: usize,
        node: u64,
        idx: u16,
    ) -> Result<u64, MachineError> {
        io::read_u64(m, core, self.map, node + CHILDREN_OFF + idx as u64 * 8)
    }

    /// Binary search in a leaf: `Ok(idx)` exact, `Err(idx)` insertion
    /// point — probing keys through the memory system like real code.
    fn leaf_search(
        &self,
        m: &mut Machine,
        core: usize,
        node: u64,
        count: u16,
        key: u64,
    ) -> Result<Result<u16, u16>, MachineError> {
        let (mut lo, mut hi) = (0u16, count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = self.leaf_key(m, core, node, mid)?;
            match k.cmp(&key) {
                std::cmp::Ordering::Equal => return Ok(Ok(mid)),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        Ok(Err(lo))
    }

    /// Child index to descend into: number of separators <= key.
    fn int_search(
        &self,
        m: &mut Machine,
        core: usize,
        node: u64,
        count: u16,
        key: u64,
    ) -> Result<u16, MachineError> {
        let (mut lo, mut hi) = (0u16, count);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = self.int_key(m, core, node, mid)?;
            if k <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Splits full `child` (the `idx`-th child of `parent`), inserting the
    /// separator into `parent`. Preemptive-split invariant: `parent` is
    /// not full.
    fn split_child(
        &self,
        m: &mut Machine,
        core: usize,
        parent: u64,
        idx: u16,
        child: u64,
    ) -> Result<u64, MachineError> {
        let tag = self.node_tag(m, core, child)?;
        let sibling = self.alloc_node(m, core)?;
        let separator;
        if tag == TAG_LEAF {
            let count = self.node_count(m, core, child)?;
            let keep = count / 2;
            let moved = count - keep;
            // Copy upper half to the sibling.
            let mut buf = vec![0u8; moved as usize * ENTRY_BYTES as usize];
            m.read(
                core,
                self.map,
                child + ENTRIES_OFF + keep as u64 * ENTRY_BYTES,
                &mut buf,
            )?;
            let mut hdr = [0u8; 16];
            hdr[0] = TAG_LEAF;
            hdr[2..4].copy_from_slice(&moved.to_le_bytes());
            let next = io::read_u64(m, core, self.map, child + NEXT_LEAF_OFF)?;
            hdr[8..16].copy_from_slice(&next.to_le_bytes());
            m.write(core, self.map, sibling, &hdr)?;
            m.write(core, self.map, sibling + ENTRIES_OFF, &buf)?;
            m.persist(core, self.map, sibling, 16 + buf.len() as u64)?;
            // Shrink the child and chain the sibling after it.
            self.set_count(m, core, child, keep)?;
            io::write_u64(m, core, self.map, child + NEXT_LEAF_OFF, sibling)?;
            m.persist(core, self.map, child, 16)?;
            separator = self.leaf_key(m, core, sibling, 0)?;
        } else {
            let count = self.node_count(m, core, child)?;
            let mid = count / 2;
            separator = self.int_key(m, core, child, mid)?;
            let moved_keys = count - mid - 1;
            // keys (mid+1..count) -> sibling keys 0.., children
            // (mid+1..=count) -> sibling children 0..
            let mut keys = vec![0u8; moved_keys as usize * 8];
            m.read(
                core,
                self.map,
                child + KEYS_OFF + (mid as u64 + 1) * 8,
                &mut keys,
            )?;
            let mut children = vec![0u8; (moved_keys as usize + 1) * 8];
            m.read(
                core,
                self.map,
                child + CHILDREN_OFF + (mid as u64 + 1) * 8,
                &mut children,
            )?;
            let mut hdr = [0u8; 16];
            hdr[0] = TAG_INTERNAL;
            hdr[2..4].copy_from_slice(&moved_keys.to_le_bytes());
            m.write(core, self.map, sibling, &hdr)?;
            m.write(core, self.map, sibling + KEYS_OFF, &keys)?;
            m.write(core, self.map, sibling + CHILDREN_OFF, &children)?;
            m.persist(core, self.map, sibling, NODE_BYTES)?;
            self.set_count(m, core, child, mid)?;
            m.persist(core, self.map, child, 16)?;
        }

        // Insert separator/sibling into the parent at idx.
        let pcount = self.node_count(m, core, parent)?;
        debug_assert!(pcount < INT_CAP);
        let tail_keys = (pcount - idx) as usize * 8;
        if tail_keys > 0 {
            let mut buf = vec![0u8; tail_keys];
            m.read(core, self.map, parent + KEYS_OFF + idx as u64 * 8, &mut buf)?;
            m.write(
                core,
                self.map,
                parent + KEYS_OFF + (idx as u64 + 1) * 8,
                &buf,
            )?;
        }
        let tail_children = (pcount - idx) as usize * 8;
        if tail_children > 0 {
            let mut buf = vec![0u8; tail_children];
            m.read(
                core,
                self.map,
                parent + CHILDREN_OFF + (idx as u64 + 1) * 8,
                &mut buf,
            )?;
            m.write(
                core,
                self.map,
                parent + CHILDREN_OFF + (idx as u64 + 2) * 8,
                &buf,
            )?;
        }
        io::write_u64(
            m,
            core,
            self.map,
            parent + KEYS_OFF + idx as u64 * 8,
            separator,
        )?;
        io::write_u64(
            m,
            core,
            self.map,
            parent + CHILDREN_OFF + (idx as u64 + 1) * 8,
            sibling,
        )?;
        self.set_count(m, core, parent, pcount + 1)?;
        m.persist(core, self.map, parent, NODE_BYTES)?;
        Ok(separator)
    }

    fn is_full(&self, m: &mut Machine, core: usize, node: u64) -> Result<bool, MachineError> {
        let tag = self.node_tag(m, core, node)?;
        let count = self.node_count(m, core, node)?;
        Ok(if tag == TAG_LEAF {
            count >= LEAF_CAP
        } else {
            count >= INT_CAP
        })
    }

    /// Inserts or overwrites `key`.
    ///
    /// # Errors
    ///
    /// Machine access failures (including out-of-space on the mapping).
    pub fn put(
        &self,
        m: &mut Machine,
        core: usize,
        key: u64,
        value: &[u8],
    ) -> Result<(), MachineError> {
        let mut root = io::read_u64(m, core, self.map, HDR_ROOT)?;
        if self.is_full(m, core, root)? {
            let new_root = self.alloc_node(m, core)?;
            let mut hdr = [0u8; 16];
            hdr[0] = TAG_INTERNAL;
            m.write(core, self.map, new_root, &hdr)?;
            io::write_u64(m, core, self.map, new_root + CHILDREN_OFF, root)?;
            m.persist(core, self.map, new_root, NODE_BYTES)?;
            self.split_child(m, core, new_root, 0, root)?;
            io::write_u64(m, core, self.map, HDR_ROOT, new_root)?;
            m.persist(core, self.map, HDR_ROOT, 8)?;
            root = new_root;
        }
        let mut node = root;
        loop {
            if self.node_tag(m, core, node)? == TAG_LEAF {
                return self.insert_into_leaf(m, core, node, key, value);
            }
            let count = self.node_count(m, core, node)?;
            let mut idx = self.int_search(m, core, node, count, key)?;
            let mut child = self.child(m, core, node, idx)?;
            if self.is_full(m, core, child)? {
                let separator = self.split_child(m, core, node, idx, child)?;
                if key >= separator {
                    idx += 1;
                }
                child = self.child(m, core, node, idx)?;
            }
            node = child;
        }
    }

    fn insert_into_leaf(
        &self,
        m: &mut Machine,
        core: usize,
        node: u64,
        key: u64,
        value: &[u8],
    ) -> Result<(), MachineError> {
        let count = self.node_count(m, core, node)?;
        match self.leaf_search(m, core, node, count, key)? {
            Ok(idx) => {
                // Overwrite. Same-size values are updated in place.
                let entry = node + ENTRIES_OFF + idx as u64 * ENTRY_BYTES;
                let vptr = io::read_u64(m, core, self.map, entry + 8)?;
                let vlen = io::read_u32(m, core, self.map, entry + 16)?;
                if vlen as usize == value.len() {
                    m.write(core, self.map, vptr, value)?;
                    m.persist(core, self.map, vptr, value.len() as u64)?;
                } else {
                    let nptr = self.alloc(m, core, value.len() as u64, 64)?;
                    m.write(core, self.map, nptr, value)?;
                    m.persist(core, self.map, nptr, value.len() as u64)?;
                    io::write_u64(m, core, self.map, entry + 8, nptr)?;
                    io::write_u32(m, core, self.map, entry + 16, value.len() as u32)?;
                    m.persist(core, self.map, entry, ENTRY_BYTES)?;
                }
                Ok(())
            }
            Err(idx) => {
                let vptr = self.alloc(m, core, value.len() as u64, 64)?;
                m.write(core, self.map, vptr, value)?;
                m.persist(core, self.map, vptr, value.len() as u64)?;
                // Shift the tail right by one entry.
                let tail = (count - idx) as usize * ENTRY_BYTES as usize;
                if tail > 0 {
                    let mut buf = vec![0u8; tail];
                    m.read(
                        core,
                        self.map,
                        node + ENTRIES_OFF + idx as u64 * ENTRY_BYTES,
                        &mut buf,
                    )?;
                    m.write(
                        core,
                        self.map,
                        node + ENTRIES_OFF + (idx as u64 + 1) * ENTRY_BYTES,
                        &buf,
                    )?;
                }
                let mut entry = [0u8; 20];
                entry[..8].copy_from_slice(&key.to_le_bytes());
                entry[8..16].copy_from_slice(&vptr.to_le_bytes());
                entry[16..20].copy_from_slice(&(value.len() as u32).to_le_bytes());
                m.write(
                    core,
                    self.map,
                    node + ENTRIES_OFF + idx as u64 * ENTRY_BYTES,
                    &entry,
                )?;
                self.set_count(m, core, node, count + 1)?;
                // Persist only what changed: the shifted tail plus header.
                let touched_base = node + ENTRIES_OFF + idx as u64 * ENTRY_BYTES;
                let touched_len = (count as u64 + 1 - idx as u64) * ENTRY_BYTES;
                m.persist(core, self.map, touched_base, touched_len)?;
                m.persist(core, self.map, node, 16)?;
                Ok(())
            }
        }
    }

    /// Deletes `key`, returning whether it existed.
    ///
    /// Deletion removes the leaf entry in place (shift-left + count
    /// decrement) without rebalancing — the common trade in persistent
    /// B+Trees, where structural merges would multiply crash-consistency
    /// states for rare space savings. Emptied leaves stay linked and are
    /// skipped by scans.
    ///
    /// # Errors
    ///
    /// Machine access failures.
    pub fn delete(&self, m: &mut Machine, core: usize, key: u64) -> Result<bool, MachineError> {
        let mut node = io::read_u64(m, core, self.map, HDR_ROOT)?;
        loop {
            let tag = self.node_tag(m, core, node)?;
            let count = self.node_count(m, core, node)?;
            if tag == TAG_LEAF {
                let Ok(idx) = self.leaf_search(m, core, node, count, key)? else {
                    return Ok(false);
                };
                // Shift the tail left over the removed entry.
                let tail = (count - idx - 1) as usize * ENTRY_BYTES as usize;
                if tail > 0 {
                    let mut buf = vec![0u8; tail];
                    m.read(
                        core,
                        self.map,
                        node + ENTRIES_OFF + (idx as u64 + 1) * ENTRY_BYTES,
                        &mut buf,
                    )?;
                    m.write(
                        core,
                        self.map,
                        node + ENTRIES_OFF + idx as u64 * ENTRY_BYTES,
                        &buf,
                    )?;
                }
                self.set_count(m, core, node, count - 1)?;
                let touched = node + ENTRIES_OFF + idx as u64 * ENTRY_BYTES;
                m.persist(core, self.map, touched, tail.max(1) as u64)?;
                m.persist(core, self.map, node, 16)?;
                return Ok(true);
            }
            let idx = self.int_search(m, core, node, count, key)?;
            node = self.child(m, core, node, idx)?;
        }
    }

    /// Reads the value for `key` into `buf`; returns whether it exists.
    ///
    /// # Errors
    ///
    /// Machine access failures.
    pub fn get(
        &self,
        m: &mut Machine,
        core: usize,
        key: u64,
        buf: &mut Vec<u8>,
    ) -> Result<bool, MachineError> {
        let mut node = io::read_u64(m, core, self.map, HDR_ROOT)?;
        loop {
            let tag = self.node_tag(m, core, node)?;
            let count = self.node_count(m, core, node)?;
            if tag == TAG_LEAF {
                return match self.leaf_search(m, core, node, count, key)? {
                    Ok(idx) => {
                        let entry = node + ENTRIES_OFF + idx as u64 * ENTRY_BYTES;
                        let vptr = io::read_u64(m, core, self.map, entry + 8)?;
                        let vlen = io::read_u32(m, core, self.map, entry + 16)? as usize;
                        buf.resize(vlen, 0);
                        m.read(core, self.map, vptr, buf)?;
                        Ok(true)
                    }
                    Err(_) => Ok(false),
                };
            }
            let idx = self.int_search(m, core, node, count, key)?;
            node = self.child(m, core, node, idx)?;
        }
    }

    /// In-order scan: calls `f(key, value)` for every pair. Returns the
    /// number visited.
    ///
    /// # Errors
    ///
    /// Machine access failures.
    pub fn scan<F: FnMut(u64, &[u8])>(
        &self,
        m: &mut Machine,
        core: usize,
        mut f: F,
    ) -> Result<u64, MachineError> {
        // Leftmost leaf.
        let mut node = io::read_u64(m, core, self.map, HDR_ROOT)?;
        while self.node_tag(m, core, node)? == TAG_INTERNAL {
            node = self.child(m, core, node, 0)?;
        }
        let mut visited = 0u64;
        let mut value = Vec::new();
        loop {
            let count = self.node_count(m, core, node)?;
            for idx in 0..count {
                let entry = node + ENTRIES_OFF + idx as u64 * ENTRY_BYTES;
                let key = io::read_u64(m, core, self.map, entry)?;
                let vptr = io::read_u64(m, core, self.map, entry + 8)?;
                let vlen = io::read_u32(m, core, self.map, entry + 16)? as usize;
                value.resize(vlen, 0);
                m.read(core, self.map, vptr, &mut value)?;
                f(key, &value);
                visited += 1;
            }
            let next = io::read_u64(m, core, self.map, node + NEXT_LEAF_OFF)?;
            if next == 0 {
                return Ok(visited);
            }
            node = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsencr::machine::{MachineOpts, SecurityMode};
    use fsencr_fs::{GroupId, Mode, UserId};
    use fsencr_sim::SplitMix64;

    fn setup(mode: SecurityMode) -> (Machine, BTreeKv) {
        let mut opts = MachineOpts::small_test();
        opts.pmem_bytes = 8 << 20;
        let mut m = Machine::new(opts, mode);
        let h = m
            .create(
                UserId::new(1),
                GroupId::new(1),
                "kv.db",
                Mode::PRIVATE,
                Some("pw"),
            )
            .unwrap();
        let map = m.mmap(&h).unwrap();
        let tree = BTreeKv::create(&mut m, 0, map).unwrap();
        (m, tree)
    }

    #[test]
    fn put_get_small() {
        let (mut m, tree) = setup(SecurityMode::FsEncr);
        tree.put(&mut m, 0, 42, b"hello").unwrap();
        let mut buf = Vec::new();
        assert!(tree.get(&mut m, 0, 42, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(!tree.get(&mut m, 0, 43, &mut buf).unwrap());
    }

    #[test]
    fn overwrite_same_size_in_place() {
        let (mut m, tree) = setup(SecurityMode::FsEncr);
        tree.put(&mut m, 0, 1, b"aaaa").unwrap();
        tree.put(&mut m, 0, 1, b"bbbb").unwrap();
        let mut buf = Vec::new();
        tree.get(&mut m, 0, 1, &mut buf).unwrap();
        assert_eq!(buf, b"bbbb");
        // different size allocates a fresh record
        tree.put(&mut m, 0, 1, b"cc").unwrap();
        tree.get(&mut m, 0, 1, &mut buf).unwrap();
        assert_eq!(buf, b"cc");
    }

    #[test]
    fn many_sequential_keys_split_leaves() {
        let (mut m, tree) = setup(SecurityMode::MemoryOnly);
        let n = LEAF_CAP as u64 * 3 + 17;
        for k in 0..n {
            tree.put(&mut m, 0, k, &k.to_le_bytes()).unwrap();
        }
        let mut buf = Vec::new();
        for k in 0..n {
            assert!(tree.get(&mut m, 0, k, &mut buf).unwrap(), "key {k}");
            assert_eq!(buf, k.to_le_bytes());
        }
    }

    #[test]
    fn many_random_keys() {
        let (mut m, tree) = setup(SecurityMode::MemoryOnly);
        let mut rng = SplitMix64::new(9);
        let keys: Vec<u64> = (0..500).map(|_| rng.next_u64() | 1).collect();
        for &k in &keys {
            tree.put(&mut m, 0, k, &k.to_le_bytes()).unwrap();
        }
        let mut buf = Vec::new();
        for &k in &keys {
            assert!(tree.get(&mut m, 0, k, &mut buf).unwrap());
            assert_eq!(buf, k.to_le_bytes());
        }
    }

    #[test]
    fn scan_is_sorted_and_complete() {
        let (mut m, tree) = setup(SecurityMode::MemoryOnly);
        let mut rng = SplitMix64::new(4);
        let mut keys: Vec<u64> = (0..400).map(|_| rng.next_u64() % 100_000).collect();
        keys.sort_unstable();
        keys.dedup();
        for &k in &keys {
            tree.put(&mut m, 0, k, b"v").unwrap();
        }
        let mut seen = Vec::new();
        let visited = tree
            .scan(&mut m, 0, |k, v| {
                assert_eq!(v, b"v");
                seen.push(k);
            })
            .unwrap();
        assert_eq!(visited as usize, keys.len());
        assert_eq!(seen, keys);
    }

    #[test]
    fn large_values() {
        let (mut m, tree) = setup(SecurityMode::FsEncr);
        let big = vec![0x5au8; 4096];
        for k in 0..10u64 {
            tree.put(&mut m, 0, k, &big).unwrap();
        }
        let mut buf = Vec::new();
        assert!(tree.get(&mut m, 0, 5, &mut buf).unwrap());
        assert_eq!(buf, big);
    }

    #[test]
    fn survives_crash_after_persist() {
        let (mut m, tree) = setup(SecurityMode::FsEncr);
        for k in 0..50u64 {
            tree.put(&mut m, 0, k, &[k as u8; 64]).unwrap();
        }
        m.crash();
        let r = m.recover();
        assert_eq!(r.unrecoverable, 0, "{r:?}");
        let h = m
            .open(
                UserId::new(1),
                &[GroupId::new(1)],
                "kv.db",
                fsencr_fs::AccessKind::Read,
                Some("pw"),
            )
            .unwrap();
        let map = m.mmap(&h).unwrap();
        let tree = BTreeKv::open(&mut m, 0, map).unwrap();
        let mut buf = Vec::new();
        for k in 0..50u64 {
            assert!(tree.get(&mut m, 0, k, &mut buf).unwrap(), "key {k}");
            assert_eq!(buf, [k as u8; 64]);
        }
    }
}

#[cfg(test)]
mod delete_tests {
    use super::*;
    use fsencr::machine::{MachineOpts, SecurityMode};
    use fsencr_fs::{GroupId, Mode, UserId};
    use fsencr_sim::SplitMix64;

    fn setup() -> (Machine, BTreeKv) {
        let mut opts = MachineOpts::small_test();
        opts.pmem_bytes = 8 << 20;
        let mut m = Machine::new(opts, SecurityMode::FsEncr);
        let h = m
            .create(
                UserId::new(1),
                GroupId::new(1),
                "del.db",
                Mode::PRIVATE,
                Some("pw"),
            )
            .unwrap();
        let map = m.mmap(&h).unwrap();
        let tree = BTreeKv::create(&mut m, 0, map).unwrap();
        (m, tree)
    }

    #[test]
    fn delete_existing_and_missing() {
        let (mut m, tree) = setup();
        tree.put(&mut m, 0, 1, b"one").unwrap();
        tree.put(&mut m, 0, 2, b"two").unwrap();
        assert!(tree.delete(&mut m, 0, 1).unwrap());
        assert!(!tree.delete(&mut m, 0, 1).unwrap(), "double delete");
        assert!(!tree.delete(&mut m, 0, 99).unwrap(), "missing key");
        let mut buf = Vec::new();
        assert!(!tree.get(&mut m, 0, 1, &mut buf).unwrap());
        assert!(tree.get(&mut m, 0, 2, &mut buf).unwrap());
        assert_eq!(buf, b"two");
    }

    #[test]
    fn delete_half_of_many_keys_across_splits() {
        let (mut m, tree) = setup();
        let n = LEAF_CAP as u64 * 3;
        for k in 0..n {
            tree.put(&mut m, 0, k, &k.to_le_bytes()).unwrap();
        }
        for k in (0..n).filter(|k| k % 2 == 0) {
            assert!(tree.delete(&mut m, 0, k).unwrap(), "key {k}");
        }
        let mut buf = Vec::new();
        for k in 0..n {
            let found = tree.get(&mut m, 0, k, &mut buf).unwrap();
            assert_eq!(found, k % 2 == 1, "key {k}");
        }
        // Scan sees exactly the survivors, in order.
        let mut seen = Vec::new();
        tree.scan(&mut m, 0, |k, _| seen.push(k)).unwrap();
        let expect: Vec<u64> = (0..n).filter(|k| k % 2 == 1).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn delete_then_reinsert() {
        let (mut m, tree) = setup();
        let mut rng = SplitMix64::new(3);
        let keys: Vec<u64> = (0..200).map(|_| rng.next_u64() % 10_000).collect();
        for &k in &keys {
            tree.put(&mut m, 0, k, b"v1").unwrap();
        }
        for &k in &keys {
            tree.delete(&mut m, 0, k).unwrap();
        }
        for &k in &keys {
            tree.put(&mut m, 0, k, b"v2").unwrap();
        }
        let mut buf = Vec::new();
        for &k in &keys {
            assert!(tree.get(&mut m, 0, k, &mut buf).unwrap());
            assert_eq!(buf, b"v2");
        }
    }

    #[test]
    fn deletes_survive_crash() {
        let (mut m, tree) = setup();
        for k in 0..50u64 {
            tree.put(&mut m, 0, k, &[k as u8; 32]).unwrap();
        }
        for k in 0..25u64 {
            tree.delete(&mut m, 0, k).unwrap();
        }
        m.crash();
        assert_eq!(m.recover().unrecoverable, 0);
        let h = m
            .open(
                UserId::new(1),
                &[GroupId::new(1)],
                "del.db",
                fsencr_fs::AccessKind::Read,
                Some("pw"),
            )
            .unwrap();
        let map = m.mmap(&h).unwrap();
        let tree = BTreeKv::open(&mut m, 0, map).unwrap();
        let mut buf = Vec::new();
        for k in 0..50u64 {
            assert_eq!(
                tree.get(&mut m, 0, k, &mut buf).unwrap(),
                k >= 25,
                "key {k}"
            );
        }
    }
}
