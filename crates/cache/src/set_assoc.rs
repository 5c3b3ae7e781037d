//! Generic set-associative write-back cache with LRU replacement.
//!
//! A way holds a tag, an LRU stamp, a dirty bit and a payload `L`: the
//! line's 64 bytes for the security-metadata cache, or a handle into
//! the line store of a [`crate::Hierarchy`], whose levels then move
//! handles rather than bytes.

use fsencr_nvm::{LineAddr, LINE_BYTES};
use fsencr_sim::{config::CacheConfig, Counter};

/// A dirty or clean line pushed out of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction<L = [u8; LINE_BYTES]> {
    /// Address of the victim line.
    pub addr: LineAddr,
    /// Its payload: contents, or a handle to them.
    pub data: L,
    /// Whether the victim was modified and must be written back.
    pub dirty: bool,
}

/// What [`Cache::insert`] pushed aside to place a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Displaced<L = [u8; LINE_BYTES]> {
    /// Nothing: the line went into a free way.
    Nothing,
    /// The line was already resident: its replaced payload.
    Payload(L),
    /// The set was full: its least recently used line.
    Victim(Eviction<L>),
}

impl<L> Displaced<L> {
    /// The evicted line, if the insertion evicted one.
    pub fn victim(self) -> Option<Eviction<L>> {
        match self {
            Displaced::Victim(ev) => Some(ev),
            Displaced::Nothing | Displaced::Payload(_) => None,
        }
    }
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
struct Entry<L> {
    tag: u64,
    lru: u64,
    line: L,
    dirty: bool,
}

/// Set-associative, write-back, true-LRU cache with payload `L` per way.
///
/// Keys are [`LineAddr`]s; the set index is taken from the line-address
/// bits directly above the block offset, as in a physically-indexed cache.
#[derive(Debug, Clone)]
pub struct Cache<L = [u8; LINE_BYTES]> {
    cfg: CacheConfig,
    sets: Vec<Vec<Entry<L>>>,
    stamp: u64,
    stats: CacheStats,
}

impl<L: Copy> Cache<L> {
    /// Creates an empty cache with the given geometry. A set allocates
    /// its ways on first fill, so an empty cache costs one header per
    /// set, whatever its associativity.
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
            sets: (0..sets).map(|_| Vec::new()).collect(),
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "the set index is below the set count, a `usize`"
    )]
    fn index_of(&self, addr: LineAddr) -> (usize, u64) {
        let line_no = addr.get() / LINE_BYTES as u64;
        let sets = self.sets.len() as u64;
        // Every paper geometry has a power-of-two set count: mask and
        // shift instead of two 64-bit divisions on each probe.
        if sets.is_power_of_two() {
            (
                (line_no & (sets - 1)) as usize,
                line_no >> sets.trailing_zeros(),
            )
        } else {
            ((line_no % sets) as usize, line_no / sets)
        }
    }

    fn addr_of(&self, set: usize, tag: u64) -> LineAddr {
        let line_no = tag * self.sets.len() as u64 + set as u64;
        LineAddr::new(line_no * LINE_BYTES as u64)
    }

    /// Looks up a line, updating LRU and hit/miss statistics.
    pub fn lookup(&mut self, addr: LineAddr) -> Option<&L> {
        let (set, tag) = self.index_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        match self.sets[set].iter_mut().find(|e| e.tag == tag) {
            Some(entry) => {
                entry.lru = stamp;
                self.stats.hits.incr();
                Some(&entry.line)
            }
            None => {
                self.stats.misses.incr();
                None
            }
        }
    }

    /// [`Cache::lookup`] then [`Cache::invalidate`] in one scan: the
    /// same stamp and hit/miss effects, and on hit the line leaves the
    /// cache. The migration step of an exclusive hierarchy.
    pub fn take(&mut self, addr: LineAddr) -> Option<Eviction<L>> {
        let (set, tag) = self.index_of(addr);
        self.stamp += 1;
        let set_entries = &mut self.sets[set];
        match set_entries.iter().position(|e| e.tag == tag) {
            Some(idx) => {
                self.stats.hits.incr();
                let entry = set_entries.swap_remove(idx);
                Some(Eviction {
                    addr,
                    data: entry.line,
                    dirty: entry.dirty,
                })
            }
            None => {
                self.stats.misses.incr();
                None
            }
        }
    }

    /// Looks up a line for writing: on hit refreshes LRU, marks the line
    /// dirty and returns its payload for the caller to overwrite.
    pub fn update(&mut self, addr: LineAddr) -> Option<&mut L> {
        let (set, tag) = self.index_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        match self.sets[set].iter_mut().find(|e| e.tag == tag) {
            Some(entry) => {
                entry.lru = stamp;
                entry.dirty = true;
                self.stats.hits.incr();
                Some(&mut entry.line)
            }
            None => {
                self.stats.misses.incr();
                None
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
    pub fn peek(&self, addr: LineAddr) -> Option<&L> {
        let (set, tag) = self.index_of(addr);
        self.sets[set]
            .iter()
            .find(|e| e.tag == tag)
            .map(|e| &e.line)
    }

    /// Inserts (or overwrites) a line and reports what it displaced: the
    /// LRU victim of a full set, or the old payload of a resident line,
    /// whose dirty bit merges with `dirty`. Does not touch hit/miss
    /// statistics, but counts fills and evictions.
    pub fn insert(&mut self, addr: LineAddr, line: L, dirty: bool) -> Displaced<L> {
        let (set, tag) = self.index_of(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let set_entries = &mut self.sets[set];

        // One scan finds a resident copy or else the first LRU way.
        let (mut oldest, mut oldest_lru) = (0, u64::MAX);
        for (idx, entry) in set_entries.iter_mut().enumerate() {
            if entry.tag == tag {
                let old = std::mem::replace(&mut entry.line, line);
                entry.dirty = entry.dirty || dirty;
                entry.lru = stamp;
                return Displaced::Payload(old);
            }
            if entry.lru < oldest_lru {
                (oldest, oldest_lru) = (idx, entry.lru);
            }
        }

        let mut displaced = Displaced::Nothing;
        if set_entries.len() >= self.cfg.ways {
            let evicted = set_entries.swap_remove(oldest);
            displaced = Displaced::Victim(Eviction {
                addr: self.addr_of(set, evicted.tag),
                data: evicted.line,
                dirty: evicted.dirty,
            });
            self.stats.evictions.incr();
        }
        // A set's ways are one allocation, made on first fill; a set
        // restored with fewer ways grows straight to its associativity.
        let set_entries = &mut self.sets[set];
        if set_entries.len() == set_entries.capacity() {
            set_entries.reserve_exact(self.cfg.ways - set_entries.len());
        }
        set_entries.push(Entry {
            tag,
            lru: stamp,
            line,
            dirty,
        });
        self.stats.fills.incr();
        displaced
    }

    /// Removes a line, returning it if it was present.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<Eviction<L>> {
        let (set, tag) = self.index_of(addr);
        let set_entries = &mut self.sets[set];
        let idx = set_entries.iter().position(|e| e.tag == tag)?;
        let entry = set_entries.swap_remove(idx);
        Some(Eviction {
            addr,
            data: entry.line,
            dirty: entry.dirty,
        })
    }

    /// `clwb` semantics: if the line is present and dirty, returns its
    /// payload for write-back and marks it clean, keeping it cached.
    pub fn clean(&mut self, addr: LineAddr) -> Option<L> {
        let (set, tag) = self.index_of(addr);
        let entry = self.sets[set]
            .iter_mut()
            .find(|e| e.tag == tag && e.dirty)?;
        entry.dirty = false;
        Some(entry.line)
    }

    /// Drains every dirty line (marking them clean), for full-cache flushes
    /// at crash or shutdown points.
    pub fn drain_dirty(&mut self) -> Vec<Eviction<L>> {
        let mut out = Vec::new();
        self.drain_dirty_into(&mut out);
        out
    }

    /// [`Self::drain_dirty`] into a caller-provided buffer, appending in
    /// set-then-way order. Lets flush loops reuse one scratch vector
    /// instead of allocating per cache per flush.
    pub fn drain_dirty_into(&mut self, out: &mut Vec<Eviction<L>>) {
        let sets_len = self.sets.len() as u64;
        for (set_idx, set) in self.sets.iter_mut().enumerate() {
            for entry in set.iter_mut().filter(|e| e.dirty) {
                entry.dirty = false;
                let line_no = entry.tag * sets_len + set_idx as u64;
                out.push(Eviction {
                    addr: LineAddr::new(line_no * LINE_BYTES as u64),
                    data: entry.line,
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

    /// Serializes the full cache state: the set count, then only the
    /// resident sets, in ascending index order, each as `(index, len,
    /// entries)`, with `put_line` writing each entry's 64 bytes. Way
    /// order within each set is preserved verbatim: `insert` evicts via
    /// `swap_remove`, so the in-memory entry order is behavioral and
    /// must survive a restore bit-for-bit.
    pub fn snap_save_with(
        &self,
        enc: &mut fsencr_snapshot::Enc,
        mut put_line: impl FnMut(&mut fsencr_snapshot::Enc, L),
    ) {
        enc.put_u64(self.sets.len() as u64);
        let resident = self.sets.iter().filter(|s| !s.is_empty()).count();
        enc.put_u64(resident as u64);
        for (idx, set) in self.sets.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
            enc.put_u64(idx as u64);
            enc.put_u64(set.len() as u64);
            for entry in set {
                enc.put_u64(entry.tag);
                put_line(enc, entry.line);
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

    /// Restores a cache with geometry `cfg` from [`Cache::snap_save_with`]
    /// bytes, with `get_line` turning each entry's 64 bytes into its
    /// payload. The set count must match the configuration; a listed set
    /// must be non-empty, within its ways, and follow the previous
    /// listed index. Only the decoded ways are allocated.
    pub fn snap_load_with(
        cfg: CacheConfig,
        dec: &mut fsencr_snapshot::Dec<'_>,
        mut get_line: impl FnMut(&[u8; LINE_BYTES]) -> L,
    ) -> Result<Self, fsencr_snapshot::SnapError> {
        use fsencr_snapshot::SnapError;
        /// Bytes of one encoded entry: tag, data, dirty flag, LRU stamp.
        const ENTRY_BYTES: usize = 8 + LINE_BYTES + 1 + 8;

        let num_sets = dec.get_len()?;
        if num_sets != cfg.sets() {
            return Err(SnapError::StateMismatch);
        }
        let mut cache = Cache::new(cfg);
        let resident = dec.get_count(8 + 8 + ENTRY_BYTES)?;
        let mut next = 0;
        for _ in 0..resident {
            let idx = dec.get_len()?;
            if idx >= num_sets {
                return Err(SnapError::Corrupt("set index"));
            }
            if idx < next {
                return Err(SnapError::Corrupt("set order"));
            }
            next = idx + 1;
            let ways = dec.get_len()?;
            if ways == 0 {
                return Err(SnapError::Corrupt("empty set"));
            }
            if ways > cfg.ways {
                return Err(SnapError::Corrupt("set overfull"));
            }
            let set = &mut cache.sets[idx];
            set.reserve_exact(ways);
            for _ in 0..ways {
                let tag = dec.get_u64()?;
                let mut data = [0u8; LINE_BYTES];
                data.copy_from_slice(dec.get_bytes(LINE_BYTES)?);
                let dirty = dec.get_bool()?;
                let lru = dec.get_u64()?;
                set.push(Entry {
                    tag,
                    lru,
                    line: get_line(&data),
                    dirty,
                });
            }
        }
        cache.stamp = dec.get_u64()?;
        cache.stats.hits.add(dec.get_u64()?);
        cache.stats.misses.add(dec.get_u64()?);
        cache.stats.fills.add(dec.get_u64()?);
        cache.stats.evictions.add(dec.get_u64()?);
        Ok(cache)
    }
}

impl Cache {
    /// [`Cache::snap_save_with`] for a cache that holds its lines' bytes.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        self.snap_save_with(enc, |enc, line| enc.put_bytes(&line));
    }

    /// [`Cache::snap_load_with`] for a cache that holds its lines' bytes.
    pub fn snap_load(
        cfg: CacheConfig,
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<Cache, fsencr_snapshot::SnapError> {
        Cache::snap_load_with(cfg, dec, |data| *data)
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
        let victim = c
            .insert(line(4), [4u8; 64], false)
            .victim()
            .expect("eviction");
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
        let victim = c
            .insert(line(4), [4u8; 64], false)
            .victim()
            .expect("eviction");
        assert_eq!(victim.addr, line(0));
        assert!(victim.dirty);
        assert_eq!(victim.data, [9u8; 64]);
    }

    #[test]
    fn update_marks_dirty_only_on_hit() {
        let mut c = small();
        assert!(c.update(line(0)).is_none());
        c.insert(line(0), [0u8; 64], false);
        *c.update(line(0)).unwrap() = [1u8; 64];
        let ev = c.invalidate(line(0)).unwrap();
        assert!(ev.dirty);
        assert_eq!(ev.data, [1u8; 64]);
    }

    #[test]
    fn insert_merges_dirty_flag() {
        let mut c = small();
        c.insert(line(0), [1u8; 64], true);
        // re-insert clean: dirty bit must survive (write-back correctness)
        assert_eq!(
            c.insert(line(0), [2u8; 64], false),
            Displaced::Payload([1u8; 64])
        );
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
        let victim = c.insert(line(4), [4u8; 64], false).victim().unwrap();
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
        let ev = c.insert(b, [2u8; 64], false).victim().unwrap();
        assert_eq!(ev.addr, a);
    }

    #[test]
    fn take_is_lookup_then_invalidate() {
        let (mut fused, mut split) = (small(), small());
        for c in [&mut fused, &mut split] {
            c.insert(line(0), [1u8; 64], true);
            c.insert(line(2), [2u8; 64], false);
        }
        for n in [0, 4] {
            let taken = fused.take(line(n));
            let looked = split.lookup(line(n)).is_some();
            assert_eq!(taken, looked.then(|| split.invalidate(line(n))).flatten());
        }
        assert_eq!(fused.take(line(2)).map(|ev| ev.dirty), Some(false));
        split.lookup(line(2));
        split.invalidate(line(2));
        // Same stamp, statistics and ways: the images match.
        let [a, b] = [fused, split].map(|c| {
            let mut enc = fsencr_snapshot::Enc::new();
            c.snap_save(&mut enc);
            enc.finish()
        });
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "64-byte lines")]
    fn wrong_block_size_panics() {
        Cache::<u32>::new(CacheConfig {
            size_bytes: 1024,
            ways: 2,
            block_bytes: 128,
            latency_cycles: 1,
        });
    }
}
