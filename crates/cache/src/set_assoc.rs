//! Generic set-associative write-back cache with LRU replacement.

use fsencr_nvm::{LineAddr, LINE_BYTES};
use fsencr_sim::{config::CacheConfig, Counter};

/// A dirty or clean line pushed out of the cache by an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Address of the victim line.
    pub addr: LineAddr,
    /// Its current contents.
    pub data: [u8; LINE_BYTES],
    /// Whether the victim was modified and must be written back.
    pub dirty: bool,
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: Counter,
    /// Lookups that did not.
    pub misses: Counter,
    /// Lines newly installed by [`Cache::insert`].
    pub fills: Counter,
    /// Victims pushed out to make room for a fill.
    pub evictions: Counter,
}

#[derive(Debug, Clone)]
struct Entry {
    tag: u64,
    data: [u8; LINE_BYTES],
    dirty: bool,
    lru: u64,
}

/// Set-associative, write-back, true-LRU cache storing line contents.
///
/// Keys are [`LineAddr`]s; the set index is taken from the line-address
/// bits directly above the block offset, as in a physically-indexed cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Entry>>,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::sets`]) or the block size is not 64 bytes — the
    /// whole machine operates on 64-byte lines.
    pub fn new(cfg: CacheConfig) -> Self {
        assert_eq!(cfg.block_bytes, LINE_BYTES, "machine uses 64-byte lines");
        let sets = cfg.sets();
        Cache {
            cfg,
            sets: (0..sets).map(|_| Vec::with_capacity(cfg.ways)).collect(),
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    fn index_of(&self, addr: LineAddr) -> (usize, u64) {
        let line_no = addr.get() / LINE_BYTES as u64;
        let set = (line_no % self.sets.len() as u64) as usize;
        let tag = line_no / self.sets.len() as u64;
        (set, tag)
    }

    /// Looks up a line, updating LRU and hit/miss statistics.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<&[u8; LINE_BYTES]> {
        let (set, tag) = self.index_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        match self.sets[set].iter_mut().find(|e| e.tag == tag) {
            Some(entry) => {
                entry.lru = stamp;
                self.stats.hits.incr();
                Some(&entry.data)
            }
            None => {
                self.stats.misses.incr();
                None
            }
        }
    }

    /// Looks up a line and, on hit, overwrites its contents and marks it
    /// dirty. Returns whether the line was present.
    pub fn update(&mut self, addr: LineAddr, data: &[u8; LINE_BYTES]) -> bool {
        let (set, tag) = self.index_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        match self.sets[set].iter_mut().find(|e| e.tag == tag) {
            Some(entry) => {
                entry.lru = stamp;
                entry.data = *data;
                entry.dirty = true;
                self.stats.hits.incr();
                true
            }
            None => {
                self.stats.misses.incr();
                false
            }
        }
    }

    /// Checks for presence without disturbing LRU or statistics.
    pub fn probe(&self, addr: LineAddr) -> bool {
        let (set, tag) = self.index_of(addr);
        self.sets[set].iter().any(|e| e.tag == tag)
    }

    /// Reads a line without disturbing LRU or statistics — the
    /// side-effect-free sibling of [`Cache::lookup`], for oracles and
    /// invariant checks that must observe the cache without perturbing
    /// the simulated replacement behaviour they are checking.
    pub fn peek(&self, addr: LineAddr) -> Option<&[u8; LINE_BYTES]> {
        let (set, tag) = self.index_of(addr);
        self.sets[set].iter().find(|e| e.tag == tag).map(|e| &e.data)
    }

    /// Inserts (or overwrites) a line, returning the victim if one had to
    /// be evicted. Does not touch hit/miss statistics, but counts fills
    /// and evictions.
    pub fn insert(&mut self, addr: LineAddr, data: [u8; LINE_BYTES], dirty: bool) -> Option<Eviction> {
        let (set, tag) = self.index_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.cfg.ways;
        let num_sets = self.sets.len() as u64;
        let set_entries = &mut self.sets[set];

        if let Some(entry) = set_entries.iter_mut().find(|e| e.tag == tag) {
            entry.data = data;
            entry.dirty = entry.dirty || dirty;
            entry.lru = stamp;
            return None;
        }

        let mut victim = None;
        if set_entries.len() >= ways {
            // ways >= 1, so a full set always yields an LRU minimum.
            if let Some((idx, _)) = set_entries.iter().enumerate().min_by_key(|(_, e)| e.lru) {
                let evicted = set_entries.swap_remove(idx);
                let line_no = evicted.tag * num_sets + set as u64;
                victim = Some(Eviction {
                    addr: LineAddr::new(line_no * LINE_BYTES as u64),
                    data: evicted.data,
                    dirty: evicted.dirty,
                });
                self.stats.evictions.incr();
            }
        }
        set_entries.push(Entry {
            tag,
            data,
            dirty,
            lru: stamp,
        });
        self.stats.fills.incr();
        victim
    }

    /// Removes a line, returning its contents if it was present.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<Eviction> {
        let (set, tag) = self.index_of(addr);
        let set_entries = &mut self.sets[set];
        let idx = set_entries.iter().position(|e| e.tag == tag)?;
        let entry = set_entries.swap_remove(idx);
        Some(Eviction {
            addr,
            data: entry.data,
            dirty: entry.dirty,
        })
    }

    /// `clwb` semantics: if the line is present and dirty, returns its
    /// contents for write-back and marks it clean, keeping it cached.
    pub fn clean(&mut self, addr: LineAddr) -> Option<[u8; LINE_BYTES]> {
        let (set, tag) = self.index_of(addr);
        let entry = self.sets[set]
            .iter_mut()
            .find(|e| e.tag == tag && e.dirty)?;
        entry.dirty = false;
        Some(entry.data)
    }

    /// Drains every dirty line (marking them clean), for full-cache flushes
    /// at crash or shutdown points.
    pub fn drain_dirty(&mut self) -> Vec<Eviction> {
        let mut out = Vec::new();
        self.drain_dirty_into(&mut out);
        out
    }

    /// [`Self::drain_dirty`] into a caller-provided buffer, appending in
    /// the same set-then-way order. Lets flush loops reuse one scratch
    /// vector instead of allocating per cache per flush.
    pub fn drain_dirty_into(&mut self, out: &mut Vec<Eviction>) {
        let sets_len = self.sets.len() as u64;
        for (set_idx, set) in self.sets.iter_mut().enumerate() {
            for entry in set.iter_mut().filter(|e| e.dirty) {
                entry.dirty = false;
                let line_no = entry.tag * sets_len + set_idx as u64;
                out.push(Eviction {
                    addr: LineAddr::new(line_no * LINE_BYTES as u64),
                    data: entry.data,
                    dirty: true,
                });
            }
        }
    }

    /// Discards everything without write-back (power loss).
    pub fn clear(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Access latency of this cache in cycles.
    pub fn latency_cycles(&self) -> u64 {
        self.cfg.latency_cycles
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of lines currently resident.
    pub fn resident(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Serializes the full cache state. Way order within each set is
    /// preserved verbatim: `insert` evicts via `swap_remove`, so the
    /// in-memory entry order is behavioral and must survive a restore
    /// bit-for-bit.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        enc.put_u64(self.sets.len() as u64);
        for set in &self.sets {
            enc.put_u64(set.len() as u64);
            for entry in set {
                enc.put_u64(entry.tag);
                enc.put_bytes(&entry.data);
                enc.put_bool(entry.dirty);
                enc.put_u64(entry.lru);
            }
        }
        enc.put_u64(self.stamp);
        enc.put_u64(self.stats.hits.get());
        enc.put_u64(self.stats.misses.get());
        enc.put_u64(self.stats.fills.get());
        enc.put_u64(self.stats.evictions.get());
    }

    /// Restores a cache with geometry `cfg` from [`Cache::snap_save`]
    /// bytes. The set count must match the configuration.
    pub fn snap_load(
        cfg: CacheConfig,
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<Cache, fsencr_snapshot::SnapError> {
        let num_sets = dec.get_len()?;
        if num_sets != cfg.sets() {
            return Err(fsencr_snapshot::SnapError::StateMismatch);
        }
        let mut sets = Vec::with_capacity(num_sets);
        for _ in 0..num_sets {
            let ways = dec.get_len()?;
            if ways > cfg.ways {
                return Err(fsencr_snapshot::SnapError::Corrupt("set overfull"));
            }
            let mut set = Vec::with_capacity(cfg.ways);
            for _ in 0..ways {
                let tag = dec.get_u64()?;
                let mut data = [0u8; LINE_BYTES];
                data.copy_from_slice(dec.get_bytes(LINE_BYTES)?);
                let dirty = dec.get_bool()?;
                let lru = dec.get_u64()?;
                set.push(Entry {
                    tag,
                    data,
                    dirty,
                    lru,
                });
            }
            sets.push(set);
        }
        let stamp = dec.get_u64()?;
        let mut stats = CacheStats::default();
        stats.hits.add(dec.get_u64()?);
        stats.misses.add(dec.get_u64()?);
        stats.fills.add(dec.get_u64()?);
        stats.evictions.add(dec.get_u64()?);
        Ok(Cache {
            cfg,
            sets,
            stamp,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 2 sets x 2 ways
        Cache::new(CacheConfig {
            size_bytes: 4 * 64,
            ways: 2,
            block_bytes: 64,
            latency_cycles: 1,
        })
    }

    fn line(n: u64) -> LineAddr {
        LineAddr::new(n * 64)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(c.lookup(line(0)).is_none());
        c.insert(line(0), [7u8; 64], false);
        assert_eq!(c.lookup(line(0)).map(|d| d[0]), Some(7));
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // lines 0, 2, 4 map to set 0 (even line numbers with 2 sets)
        c.insert(line(0), [0u8; 64], false);
        c.insert(line(2), [2u8; 64], false);
        // touch line 0 so line 2 becomes LRU
        assert!(c.lookup(line(0)).is_some());
        let victim = c.insert(line(4), [4u8; 64], false).expect("eviction");
        assert_eq!(victim.addr, line(2));
        assert!(!victim.dirty);
        assert!(c.probe(line(0)));
        assert!(c.probe(line(4)));
        assert!(!c.probe(line(2)));
    }

    #[test]
    fn dirty_eviction_carries_data() {
        let mut c = small();
        c.insert(line(0), [9u8; 64], true);
        c.insert(line(2), [2u8; 64], false);
        let victim = c.insert(line(4), [4u8; 64], false).expect("eviction");
        assert_eq!(victim.addr, line(0));
        assert!(victim.dirty);
        assert_eq!(victim.data, [9u8; 64]);
    }

    #[test]
    fn update_marks_dirty_only_on_hit() {
        let mut c = small();
        assert!(!c.update(line(0), &[1u8; 64]));
        c.insert(line(0), [0u8; 64], false);
        assert!(c.update(line(0), &[1u8; 64]));
        let ev = c.invalidate(line(0)).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.data, [1u8; 64]);
    }

    #[test]
    fn insert_merges_dirty_flag() {
        let mut c = small();
        c.insert(line(0), [1u8; 64], true);
        // re-insert clean: dirty bit must survive (write-back correctness)
        c.insert(line(0), [2u8; 64], false);
        let ev = c.invalidate(line(0)).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.data, [2u8; 64]);
    }

    #[test]
    fn clean_implements_clwb() {
        let mut c = small();
        c.insert(line(0), [5u8; 64], true);
        assert_eq!(c.clean(line(0)), Some([5u8; 64]));
        // second clean: nothing dirty
        assert_eq!(c.clean(line(0)), None);
        // line still resident
        assert!(c.probe(line(0)));
    }

    #[test]
    fn drain_dirty_returns_all_modified_lines() {
        let mut c = small();
        c.insert(line(0), [1u8; 64], true);
        c.insert(line(1), [2u8; 64], false);
        c.insert(line(3), [3u8; 64], true);
        let mut drained = c.drain_dirty();
        drained.sort_by_key(|e| e.addr.get());
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].addr, line(0));
        assert_eq!(drained[1].addr, line(3));
        // subsequent drain is empty
        assert!(c.drain_dirty().is_empty());
        // lines still resident, now clean
        assert!(c.probe(line(0)));
    }

    #[test]
    fn clear_discards_without_writeback() {
        let mut c = small();
        c.insert(line(0), [1u8; 64], true);
        c.clear();
        assert_eq!(c.resident(), 0);
        assert!(!c.probe(line(0)));
    }

    #[test]
    fn capacity_and_residency() {
        let mut c = small();
        for i in 0..8 {
            c.insert(line(i), [i as u8; 64], false);
        }
        assert_eq!(c.resident(), 4);
    }

    #[test]
    fn probe_does_not_touch_stats_or_lru() {
        let mut c = small();
        c.insert(line(0), [0u8; 64], false);
        c.insert(line(2), [2u8; 64], false);
        // probe line 0 (would refresh LRU if it were a lookup)
        assert!(c.probe(line(0)));
        assert_eq!(c.stats().hits.get(), 0);
        // line 0 is still LRU, so it gets evicted
        let victim = c.insert(line(4), [4u8; 64], false).unwrap();
        assert_eq!(victim.addr, line(0));
    }

    #[test]
    fn fills_and_evictions_are_counted() {
        let mut c = small();
        c.insert(line(0), [0u8; 64], false);
        c.insert(line(2), [2u8; 64], false);
        // Overwrite of a resident line is not a new fill.
        c.insert(line(0), [9u8; 64], false);
        assert_eq!(c.stats().fills.get(), 2);
        assert_eq!(c.stats().evictions.get(), 0);
        c.insert(line(4), [4u8; 64], false);
        assert_eq!(c.stats().fills.get(), 3);
        assert_eq!(c.stats().evictions.get(), 1);
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        // Regression guard for tag/set reconstruction with many sets.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 64 * 64,
            ways: 1,
            block_bytes: 64,
            latency_cycles: 1,
        });
        let a = LineAddr::new(0x12340);
        c.insert(a, [1u8; 64], true);
        // Same set, different tag (64 sets, 1 way): + 64*64 bytes
        let b = LineAddr::new(0x12340 + 64 * 64);
        let ev = c.insert(b, [2u8; 64], false).unwrap();
        assert_eq!(ev.addr, a);
    }

    #[test]
    #[should_panic(expected = "64-byte lines")]
    fn wrong_block_size_panics() {
        Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            block_bytes: 128,
            latency_cycles: 1,
        });
    }
}
