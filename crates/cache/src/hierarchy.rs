//! The machine's cache hierarchy: per-core private L1/L2, shared L3.
//!
//! The hierarchy is **exclusive**: every cached line lives in exactly one
//! cache at a time. Hits in L2/L3 migrate the line up to the requesting
//! core's L1, and L1 victims trickle down (L1 → L2 → L3 → memory). The
//! single-copy invariant keeps multi-core coherence trivial — a local miss
//! snoops the other cores' private caches and migrates any copy found —
//! and makes `clwb` unambiguous, which matters because persistent-memory
//! workloads flush on every transaction.

use fsencr_nvm::{LineAddr, LINE_BYTES};
use fsencr_sim::{config::CpuConfig, Cycle};

use crate::set_assoc::Cache;

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

/// Private L1/L2 per core plus a shared L3.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Cache,
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
        }
    }

    /// Number of cores the hierarchy was built for.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    fn check_core(&self, core: usize) {
        assert!(core < self.l1.len(), "core {core} out of range");
    }

    /// Inserts into the given core's L1 and cascades victims down the
    /// hierarchy, collecting memory write-backs.
    fn insert_l1(
        &mut self,
        core: usize,
        addr: LineAddr,
        data: [u8; LINE_BYTES],
        dirty: bool,
        writebacks: &mut Vec<CacheLine>,
    ) {
        if let Some(v1) = self.l1[core].insert(addr, data, dirty) {
            if let Some(v2) = self.l2[core].insert(v1.addr, v1.data, v1.dirty) {
                if let Some(v3) = self.l3.insert(v2.addr, v2.data, v2.dirty) {
                    if v3.dirty {
                        writebacks.push(CacheLine {
                            addr: v3.addr,
                            data: v3.data,
                        });
                    }
                }
            }
        }
    }

    /// Searches the other cores' private caches for `addr`, removing and
    /// returning any copy found (data, dirty).
    fn snoop_remote(&mut self, core: usize, addr: LineAddr) -> Option<([u8; LINE_BYTES], bool)> {
        for other in 0..self.l1.len() {
            if other == core {
                continue;
            }
            if let Some(ev) = self.l1[other].invalidate(addr) {
                return Some((ev.data, ev.dirty));
            }
            if let Some(ev) = self.l2[other].invalidate(addr) {
                return Some((ev.data, ev.dirty));
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
        if let Some(data) = self.l1[core].lookup(addr).copied() {
            return LoadOutcome {
                data: Some(data),
                latency,
                writebacks: Vec::new(),
            };
        }

        latency += self.l2[core].latency_cycles();
        let mut writebacks = Vec::new();
        if self.l2[core].lookup(addr).is_some() {
            // A hit guarantees the line is still resident to invalidate.
            if let Some(ev) = self.l2[core].invalidate(addr) {
                self.insert_l1(core, addr, ev.data, ev.dirty, &mut writebacks);
                return LoadOutcome {
                    data: Some(ev.data),
                    latency,
                    writebacks,
                };
            }
        }

        latency += self.l3.latency_cycles();
        if self.l3.lookup(addr).is_some() {
            if let Some(ev) = self.l3.invalidate(addr) {
                self.insert_l1(core, addr, ev.data, ev.dirty, &mut writebacks);
                return LoadOutcome {
                    data: Some(ev.data),
                    latency,
                    writebacks,
                };
            }
        }

        // Remote snoop: another core's private cache may hold the only copy.
        if let Some((data, dirty)) = self.snoop_remote(core, addr) {
            self.insert_l1(core, addr, data, dirty, &mut writebacks);
            return LoadOutcome {
                data: Some(data),
                latency,
                writebacks,
            };
        }

        LoadOutcome {
            data: None,
            latency,
            writebacks,
        }
    }

    /// Installs a line fetched from memory into `core`'s L1 (clean).
    /// Returns the dirty lines pushed out to memory.
    pub fn fill(&mut self, core: usize, addr: LineAddr, data: [u8; LINE_BYTES]) -> Vec<CacheLine> {
        self.check_core(core);
        let mut writebacks = Vec::new();
        self.insert_l1(core, addr, data, false, &mut writebacks);
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

        if self.l1[core].update(addr, &data) {
            return (true, latency, writebacks);
        }

        latency += self.l2[core].latency_cycles();
        if self.l2[core].invalidate(addr).is_some() {
            self.insert_l1(core, addr, data, true, &mut writebacks);
            return (true, latency, writebacks);
        }

        latency += self.l3.latency_cycles();
        if self.l3.invalidate(addr).is_some() {
            self.insert_l1(core, addr, data, true, &mut writebacks);
            return (true, latency, writebacks);
        }

        if self.snoop_remote(core, addr).is_some() {
            self.insert_l1(core, addr, data, true, &mut writebacks);
            return (true, latency, writebacks);
        }

        // Write-allocate without fetch.
        self.insert_l1(core, addr, data, true, &mut writebacks);
        (false, latency, writebacks)
    }

    /// `clwb`: if a dirty copy of `addr` exists anywhere, marks it clean
    /// and returns the data for the caller to persist. The line stays
    /// cached.
    pub fn clwb(&mut self, addr: LineAddr) -> Option<CacheLine> {
        for l1 in &mut self.l1 {
            if let Some(data) = l1.clean(addr) {
                return Some(CacheLine { addr, data });
            }
        }
        for l2 in &mut self.l2 {
            if let Some(data) = l2.clean(addr) {
                return Some(CacheLine { addr, data });
            }
        }
        self.l3.clean(addr).map(|data| CacheLine { addr, data })
    }

    /// `clflush`: removes `addr` from every cache; returns the contents if
    /// a dirty copy needed writing back.
    pub fn clflush(&mut self, addr: LineAddr) -> Option<CacheLine> {
        let mut dirty_copy = None;
        for l1 in &mut self.l1 {
            if let Some(ev) = l1.invalidate(addr) {
                if ev.dirty {
                    dirty_copy = Some(CacheLine {
                        addr,
                        data: ev.data,
                    });
                }
            }
        }
        for l2 in &mut self.l2 {
            if let Some(ev) = l2.invalidate(addr) {
                if ev.dirty {
                    dirty_copy = Some(CacheLine {
                        addr,
                        data: ev.data,
                    });
                }
            }
        }
        if let Some(ev) = self.l3.invalidate(addr) {
            if ev.dirty {
                dirty_copy = Some(CacheLine {
                    addr,
                    data: ev.data,
                });
            }
        }
        dirty_copy
    }

    /// Flushes every dirty line in the machine (clean shutdown), returning
    /// them for write-back in address order.
    pub fn flush_all(&mut self) -> Vec<CacheLine> {
        let mut out = Vec::new();
        for l1 in &mut self.l1 {
            out.extend(l1.drain_dirty().into_iter().map(|e| CacheLine {
                addr: e.addr,
                data: e.data,
            }));
        }
        for l2 in &mut self.l2 {
            out.extend(l2.drain_dirty().into_iter().map(|e| CacheLine {
                addr: e.addr,
                data: e.data,
            }));
        }
        out.extend(self.l3.drain_dirty().into_iter().map(|e| CacheLine {
            addr: e.addr,
            data: e.data,
        }));
        out.sort_by_key(|l| l.addr.get());
        out
    }

    /// Drops all cached state without write-back (power loss).
    pub fn drop_all(&mut self) {
        for l1 in &mut self.l1 {
            l1.clear();
        }
        for l2 in &mut self.l2 {
            l2.clear();
        }
        self.l3.clear();
    }

    /// Serializes every cache in a fixed order (L1s, L2s, L3).
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        enc.put_u64(self.l1.len() as u64);
        for c in &self.l1 {
            c.snap_save(enc);
        }
        for c in &self.l2 {
            c.snap_save(enc);
        }
        self.l3.snap_save(enc);
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
        let mut l1 = Vec::with_capacity(cores);
        for _ in 0..cores {
            l1.push(Cache::snap_load(cfg.l1, dec)?);
        }
        let mut l2 = Vec::with_capacity(cores);
        for _ in 0..cores {
            l2.push(Cache::snap_load(cfg.l2, dec)?);
        }
        let l3 = Cache::snap_load(cfg.l3, dec)?;
        Ok(Hierarchy { l1, l2, l3 })
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
