//! The machine's cache hierarchy: per-core private L1/L2, shared L3.
//!
//! The hierarchy is **exclusive**: every cached line lives in exactly one
//! cache at a time. Hits in L2/L3 migrate the line up to the requesting
//! core's L1, and L1 victims trickle down (L1 → L2 → L3 → memory). The
//! single-copy invariant keeps multi-core coherence trivial — a local miss
//! snoops the other cores' private caches and migrates any copy found —
//! and makes `clwb` unambiguous, which matters because persistent-memory
//! workloads flush on every transaction.
//!
//! A line's bytes have one home, the hierarchy's [`LineStore`]; each
//! level's ways hold a tag, an LRU stamp, a dirty bit and a 4-byte slot
//! handle. Migrations move handles. Bytes are copied only where a line
//! enters or leaves the hierarchy: a load's return value, `store`,
//! `fill`, a dirty L3 victim, `clwb`, `clflush`, `flush_all` and the
//! snapshot image, whose format is that of a cache holding its bytes.

use fsencr_nvm::{LineAddr, LINE_BYTES};
use fsencr_sim::{config::CpuConfig, Cycle};

use crate::set_assoc::{Cache, Displaced, Eviction};

/// A line travelling between the hierarchy and the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    /// Line address.
    pub addr: LineAddr,
    /// Line contents.
    pub data: [u8; LINE_BYTES],
}

/// Result of a load probe.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// The line contents if some cache held them; `None` means the caller
    /// must fetch from the memory controller and then call
    /// [`Hierarchy::fill`].
    pub data: Option<[u8; LINE_BYTES]>,
    /// Cycles spent probing (and migrating within) the hierarchy.
    pub latency: Cycle,
    /// Dirty lines pushed out of the bottom of the hierarchy; the caller
    /// must write them back to memory.
    pub writebacks: Vec<CacheLine>,
}

/// Handle of a line's bytes in the [`LineStore`].
type Slot = u32;

/// Lines per store chunk: one 4 KiB page of line bytes.
const CHUNK_LINES: usize = 64;

/// No free slot: the end of the free list.
const NO_SLOT: Slot = Slot::MAX;

/// The bytes of every resident line: a slab of 64-byte slots in 4 KiB
/// chunks that are allocated as residency grows and never move, with
/// freed slots on an intrusive free list (a free slot's first four
/// bytes name the next one). Slots are handed out in order, so every
/// chunk before the one holding slot `used` is full.
#[derive(Debug, Clone)]
struct LineStore {
    chunks: Vec<Vec<[u8; LINE_BYTES]>>,
    /// Slots handed out since the last [`LineStore::clear`].
    used: Slot,
    /// Head of the free list.
    free: Slot,
}

impl LineStore {
    fn new() -> Self {
        LineStore {
            chunks: Vec::new(),
            used: 0,
            free: NO_SLOT,
        }
    }

    fn get(&self, slot: Slot) -> &[u8; LINE_BYTES] {
        let s = slot as usize;
        &self.chunks[s / CHUNK_LINES][s % CHUNK_LINES]
    }

    fn get_mut(&mut self, slot: Slot) -> &mut [u8; LINE_BYTES] {
        let s = slot as usize;
        &mut self.chunks[s / CHUNK_LINES][s % CHUNK_LINES]
    }

    /// Stores `data` in a free slot and returns its handle.
    fn alloc(&mut self, data: &[u8; LINE_BYTES]) -> Slot {
        if self.free != NO_SLOT {
            let slot = self.free;
            let line = self.get_mut(slot);
            let mut next = [0u8; 4];
            next.copy_from_slice(&line[..4]);
            *line = *data;
            self.free = Slot::from_le_bytes(next);
            return slot;
        }
        let slot = self.used;
        let chunk = slot as usize / CHUNK_LINES;
        if chunk == self.chunks.len() {
            self.chunks.push(Vec::with_capacity(CHUNK_LINES));
        }
        self.chunks[chunk].push(*data);
        self.used += 1;
        slot
    }

    /// Returns a slot to the free list.
    fn release(&mut self, slot: Slot) {
        let head = self.free;
        self.get_mut(slot)[..4].copy_from_slice(&head.to_le_bytes());
        self.free = slot;
    }

    /// Frees every slot, keeping the chunks for reuse.
    fn clear(&mut self) {
        self.chunks.iter_mut().for_each(Vec::clear);
        self.used = 0;
        self.free = NO_SLOT;
    }
}

/// Every cache in search order: the L1s, the L2s, then the L3.
fn levels<'a>(
    l1: &'a mut [Cache<Slot>],
    l2: &'a mut [Cache<Slot>],
    l3: &'a mut Cache<Slot>,
) -> impl Iterator<Item = &'a mut Cache<Slot>> {
    l1.iter_mut().chain(l2).chain(std::iter::once(l3))
}

/// Private L1/L2 per core plus a shared L3, over one line store.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Vec<Cache<Slot>>,
    l2: Vec<Cache<Slot>>,
    l3: Cache<Slot>,
    lines: LineStore,
}

impl Hierarchy {
    /// Builds the hierarchy for a CPU configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.cores` is zero.
    pub fn new(cfg: &CpuConfig) -> Self {
        assert!(cfg.cores > 0, "need at least one core");
        Hierarchy {
            l1: (0..cfg.cores).map(|_| Cache::new(cfg.l1)).collect(),
            l2: (0..cfg.cores).map(|_| Cache::new(cfg.l2)).collect(),
            l3: Cache::new(cfg.l3),
            lines: LineStore::new(),
        }
    }

    /// Number of cores the hierarchy was built for.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    fn check_core(&self, core: usize) {
        assert!(core < self.l1.len(), "core {core} out of range");
    }

    /// Frees the slot of a replaced payload; passes a victim on.
    fn victim_of(&mut self, displaced: Displaced<Slot>) -> Option<Eviction<Slot>> {
        match displaced {
            Displaced::Nothing => None,
            Displaced::Payload(old) => {
                self.lines.release(old);
                None
            }
            Displaced::Victim(ev) => Some(ev),
        }
    }

    /// Inserts slot `slot` into the given core's L1 and cascades victims
    /// down the hierarchy, collecting memory write-backs.
    fn insert_l1(
        &mut self,
        core: usize,
        addr: LineAddr,
        slot: Slot,
        dirty: bool,
        writebacks: &mut Vec<CacheLine>,
    ) {
        let d1 = self.l1[core].insert(addr, slot, dirty);
        let Some(v1) = self.victim_of(d1) else { return };
        let d2 = self.l2[core].insert(v1.addr, v1.data, v1.dirty);
        let Some(v2) = self.victim_of(d2) else { return };
        let d3 = self.l3.insert(v2.addr, v2.data, v2.dirty);
        let Some(v3) = self.victim_of(d3) else { return };
        if v3.dirty {
            writebacks.push(CacheLine {
                addr: v3.addr,
                data: *self.lines.get(v3.data),
            });
        }
        self.lines.release(v3.data);
    }

    /// Searches the other cores' private caches for `addr`, removing and
    /// returning any copy found.
    fn snoop_remote(&mut self, core: usize, addr: LineAddr) -> Option<Eviction<Slot>> {
        for other in 0..self.l1.len() {
            if other == core {
                continue;
            }
            if let Some(ev) = self.l1[other].invalidate(addr) {
                return Some(ev);
            }
            if let Some(ev) = self.l2[other].invalidate(addr) {
                return Some(ev);
            }
        }
        None
    }

    /// Loads a line for `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn load(&mut self, core: usize, addr: LineAddr) -> LoadOutcome {
        self.check_core(core);
        let mut latency = Cycle::new(self.l1[core].latency_cycles());
        if let Some(&slot) = self.l1[core].lookup(addr) {
            return LoadOutcome {
                data: Some(*self.lines.get(slot)),
                latency,
                writebacks: Vec::new(),
            };
        }

        latency += self.l2[core].latency_cycles();
        let mut found = self.l2[core].take(addr);
        if found.is_none() {
            latency += self.l3.latency_cycles();
            // Remote snoop: another core's private cache may hold the
            // only copy.
            found = self.l3.take(addr).or_else(|| self.snoop_remote(core, addr));
        }
        let mut writebacks = Vec::new();
        let data = found.map(|ev| {
            self.insert_l1(core, addr, ev.data, ev.dirty, &mut writebacks);
            *self.lines.get(ev.data)
        });
        LoadOutcome {
            data,
            latency,
            writebacks,
        }
    }

    /// Installs a line fetched from memory into `core`'s L1 (clean).
    /// Returns the dirty lines pushed out to memory.
    pub fn fill(&mut self, core: usize, addr: LineAddr, data: [u8; LINE_BYTES]) -> Vec<CacheLine> {
        self.check_core(core);
        let mut writebacks = Vec::new();
        let slot = self.lines.alloc(&data);
        self.insert_l1(core, addr, slot, false, &mut writebacks);
        writebacks
    }

    /// Stores a full line. If the line is cached anywhere it is migrated to
    /// `core`'s L1 and overwritten; otherwise it is write-allocated without
    /// a memory fetch (non-temporal-store model). Returns `(hit, latency,
    /// writebacks)`.
    pub fn store(
        &mut self,
        core: usize,
        addr: LineAddr,
        data: [u8; LINE_BYTES],
    ) -> (bool, Cycle, Vec<CacheLine>) {
        self.check_core(core);
        let mut latency = Cycle::new(self.l1[core].latency_cycles());
        let mut writebacks = Vec::new();

        if let Some(slot) = self.l1[core].update(addr).copied() {
            *self.lines.get_mut(slot) = data;
            return (true, latency, writebacks);
        }

        latency += self.l2[core].latency_cycles();
        let mut found = self.l2[core].invalidate(addr);
        if found.is_none() {
            latency += self.l3.latency_cycles();
            found = self
                .l3
                .invalidate(addr)
                .or_else(|| self.snoop_remote(core, addr));
        }
        let slot = match found {
            Some(ev) => {
                *self.lines.get_mut(ev.data) = data;
                ev.data
            }
            // Write-allocate without fetch.
            None => self.lines.alloc(&data),
        };
        self.insert_l1(core, addr, slot, true, &mut writebacks);
        (found.is_some(), latency, writebacks)
    }

    /// `clwb`: if a dirty copy of `addr` exists anywhere, marks it clean
    /// and returns the data for the caller to persist. The line stays
    /// cached.
    pub fn clwb(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let slot = levels(&mut self.l1, &mut self.l2, &mut self.l3).find_map(|c| c.clean(addr))?;
        Some(CacheLine {
            addr,
            data: *self.lines.get(slot),
        })
    }

    /// `clflush`: removes `addr` from every cache; returns the contents if
    /// a dirty copy needed writing back.
    pub fn clflush(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let mut dirty_copy = None;
        let caches = levels(&mut self.l1, &mut self.l2, &mut self.l3);
        for ev in caches.filter_map(|c| c.invalidate(addr)) {
            if ev.dirty {
                dirty_copy = Some(CacheLine {
                    addr,
                    data: *self.lines.get(ev.data),
                });
            }
            self.lines.release(ev.data);
        }
        dirty_copy
    }

    /// Flushes every dirty line in the machine (clean shutdown), returning
    /// them for write-back in address order.
    pub fn flush_all(&mut self) -> Vec<CacheLine> {
        let mut dirty = Vec::new();
        for c in levels(&mut self.l1, &mut self.l2, &mut self.l3) {
            c.drain_dirty_into(&mut dirty);
        }
        let mut out: Vec<CacheLine> = dirty
            .iter()
            .map(|ev| CacheLine {
                addr: ev.addr,
                data: *self.lines.get(ev.data),
            })
            .collect();
        out.sort_by_key(|l| l.addr.get());
        out
    }

    /// Drops all cached state without write-back (power loss).
    pub fn drop_all(&mut self) {
        levels(&mut self.l1, &mut self.l2, &mut self.l3).for_each(Cache::clear);
        self.lines.clear();
    }

    /// Serializes every cache in a fixed order (L1s, L2s, L3), each line
    /// with its bytes from the store.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        enc.put_u64(self.l1.len() as u64);
        for c in self
            .l1
            .iter()
            .chain(&self.l2)
            .chain(std::iter::once(&self.l3))
        {
            c.snap_save_with(enc, |enc, slot| enc.put_bytes(self.lines.get(slot)));
        }
    }

    /// Restores a hierarchy for `cfg` from [`Hierarchy::snap_save`] bytes.
    pub fn snap_load(
        cfg: &CpuConfig,
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<Hierarchy, fsencr_snapshot::SnapError> {
        let cores = dec.get_len()?;
        if cores != cfg.cores || cores == 0 {
            return Err(fsencr_snapshot::SnapError::StateMismatch);
        }
        let mut lines = LineStore::new();
        let mut level = |cfg, dec: &mut fsencr_snapshot::Dec<'_>| {
            Cache::snap_load_with(cfg, dec, |data| lines.alloc(data))
        };
        let l1 = (0..cores)
            .map(|_| level(cfg.l1, dec))
            .collect::<Result<_, _>>()?;
        let l2 = (0..cores)
            .map(|_| level(cfg.l2, dec))
            .collect::<Result<_, _>>()?;
        let l3 = level(cfg.l3, dec)?;
        Ok(Hierarchy { l1, l2, l3, lines })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsencr_sim::config::CacheConfig;

    fn tiny_cfg() -> CpuConfig {
        let mk = |size: usize, ways: usize, lat: u64| CacheConfig {
            size_bytes: size,
            ways,
            block_bytes: 64,
            latency_cycles: lat,
        };
        CpuConfig {
            cores: 2,
            l1: mk(4 * 64, 2, 2),
            l2: mk(8 * 64, 2, 20),
            l3: mk(16 * 64, 4, 32),
        }
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n * 64)
    }

    #[test]
    fn cold_miss_then_fill_then_hit() {
        let mut h = Hierarchy::new(&tiny_cfg());
        let out = h.load(0, line(1));
        assert!(out.data.is_none());
        assert_eq!(out.latency, Cycle::new(2 + 20 + 32));
        let wb = h.fill(0, line(1), [7u8; 64]);
        assert!(wb.is_empty());
        let out = h.load(0, line(1));
        assert_eq!(out.data, Some([7u8; 64]));
        assert_eq!(out.latency, Cycle::new(2));
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut h = Hierarchy::new(&tiny_cfg());
        let (hit, _, _) = h.store(0, line(5), [9u8; 64]);
        assert!(!hit, "cold store write-allocates");
        let out = h.load(0, line(5));
        assert_eq!(out.data, Some([9u8; 64]));
    }

    #[test]
    fn dirty_line_survives_trickle_down_and_comes_back() {
        let mut h = Hierarchy::new(&tiny_cfg());
        h.store(0, line(0), [1u8; 64]);
        // Evict line 0 from L1 set 0 by storing more lines in the same set.
        // L1 has 2 sets => even lines share set 0.
        for i in 1..=8u64 {
            h.store(0, line(i * 2), [i as u8; 64]);
        }
        // Line 0 should now be in L2 or L3, still dirty, still correct.
        let out = h.load(0, line(0));
        assert_eq!(out.data, Some([1u8; 64]));
    }

    #[test]
    fn overflow_reaches_memory_as_writeback() {
        let mut h = Hierarchy::new(&tiny_cfg());
        let mut writebacks = Vec::new();
        // More dirty lines than total hierarchy capacity (4+8+16=28).
        for i in 0..64u64 {
            let (_, _, wb) = h.store(0, line(i), [i as u8; 64]);
            writebacks.extend(wb);
        }
        assert!(!writebacks.is_empty(), "dirty lines must spill to memory");
        // Every write-back carries the data that was stored.
        for wb in &writebacks {
            let n = wb.addr.get() / 64;
            assert_eq!(wb.data, [n as u8; 64]);
        }
    }

    #[test]
    fn exclusive_single_copy_invariant() {
        let mut h = Hierarchy::new(&tiny_cfg());
        h.fill(0, line(3), [3u8; 64]);
        // Load migrates; the line must exist exactly once. Flush-all after
        // a store should produce exactly one write-back for the line.
        h.load(0, line(3));
        h.store(0, line(3), [4u8; 64]);
        let flushed = h.flush_all();
        let copies: Vec<_> = flushed.iter().filter(|l| l.addr == line(3)).collect();
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].data, [4u8; 64]);
    }

    #[test]
    fn cross_core_snoop_migrates_dirty_copy() {
        let mut h = Hierarchy::new(&tiny_cfg());
        h.store(0, line(7), [42u8; 64]);
        // Core 1 must see core 0's dirty private copy.
        let out = h.load(1, line(7));
        assert_eq!(out.data, Some([42u8; 64]));
        // And the copy moved: core 1 now hits in its own L1.
        let out = h.load(1, line(7));
        assert_eq!(out.latency, Cycle::new(2));
    }

    #[test]
    fn cross_core_store_updates_single_copy() {
        let mut h = Hierarchy::new(&tiny_cfg());
        h.store(0, line(9), [1u8; 64]);
        let (hit, _, _) = h.store(1, line(9), [2u8; 64]);
        assert!(hit, "remote copy found by snoop");
        assert_eq!(h.load(0, line(9)).data, Some([2u8; 64]));
        let flushed = h.flush_all();
        assert_eq!(flushed.iter().filter(|l| l.addr == line(9)).count(), 1);
    }

    #[test]
    fn clwb_returns_dirty_data_once_and_keeps_line() {
        let mut h = Hierarchy::new(&tiny_cfg());
        h.store(0, line(2), [5u8; 64]);
        let wb = h.clwb(line(2)).expect("dirty copy");
        assert_eq!(wb.data, [5u8; 64]);
        assert!(h.clwb(line(2)).is_none(), "now clean");
        // still cached
        assert_eq!(h.load(0, line(2)).latency, Cycle::new(2));
    }

    #[test]
    fn clflush_evicts_everywhere() {
        let mut h = Hierarchy::new(&tiny_cfg());
        h.store(0, line(4), [6u8; 64]);
        let wb = h.clflush(line(4)).expect("dirty data returned");
        assert_eq!(wb.data, [6u8; 64]);
        // next load misses
        assert!(h.load(0, line(4)).data.is_none());
        // flushing an uncached line is a no-op
        assert!(h.clflush(line(4)).is_none());
    }

    #[test]
    fn drop_all_loses_unflushed_data() {
        let mut h = Hierarchy::new(&tiny_cfg());
        h.store(0, line(1), [8u8; 64]);
        h.drop_all();
        assert!(h.load(0, line(1)).data.is_none());
    }

    #[test]
    #[should_panic(expected = "core 5 out of range")]
    fn bad_core_panics() {
        let mut h = Hierarchy::new(&tiny_cfg());
        h.load(5, line(0));
    }
}
