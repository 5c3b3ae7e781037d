//! The Open Tunnel Table (Section III-E).
//!
//! An on-chip, TLB-like structure mapping (Group ID, File ID) to the file
//! encryption key. The paper implements it as eight fully-associative
//! 128-entry sub-tables searched in parallel, with the lookup relaxed to
//! 20 cycles to save power. The model keeps only what that design
//! fixes: one fully-associative LRU table of 8 x 128 = 1024 entries
//! (`SecurityConfig::ott_entries`) with the 20-cycle lookup. Evicted
//! entries are handed back to the caller for spilling into the
//! encrypted OTT memory region.

use fsencr_crypto::Key128;
use fsencr_sim::Counter;

/// Hit/miss/eviction counters for the OTT.
#[derive(Debug, Clone, Copy, Default)]
pub struct OttStats {
    /// Lookups that found the key on-chip.
    pub hits: Counter,
    /// Lookups that must fall back to the spill region.
    pub misses: Counter,
    /// Entries pushed out to the spill region.
    pub evictions: Counter,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    gid: u32,
    fid: u32,
    key: Key128,
    stamp: u64,
}

/// The on-chip key table: one LRU table of `capacity` entries (the
/// paper's 8 x 128 sub-tables modelled as a single 1024-entry table).
///
/// # Examples
///
/// ```
/// use fsencr::OpenTunnelTable;
/// use fsencr_crypto::Key128;
///
/// let mut ott = OpenTunnelTable::new(4, 20);
/// let key = Key128::from_seed(1);
/// assert!(ott.insert(1, 2, key).is_none());
/// assert_eq!(ott.lookup(1, 2), Some(key));
/// assert_eq!(ott.lookup(9, 9), None);
/// ```
#[derive(Debug, Clone)]
pub struct OpenTunnelTable {
    entries: Vec<Entry>,
    capacity: usize,
    latency_cycles: u64,
    stamp: u64,
    stats: OttStats,
}

impl OpenTunnelTable {
    /// Creates an OTT with the given entry capacity and lookup latency.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize, latency_cycles: u64) -> Self {
        assert!(capacity > 0, "OTT needs at least one entry");
        OpenTunnelTable {
            entries: Vec::with_capacity(capacity.min(4096)),
            capacity,
            latency_cycles,
            stamp: 0,
            stats: OttStats::default(),
        }
    }

    /// Lookup latency in cycles (20 in the paper).
    pub fn latency_cycles(&self) -> u64 {
        self.latency_cycles
    }

    /// Looks up the key for `(gid, fid)`, refreshing LRU on hit.
    pub fn lookup(&mut self, gid: u32, fid: u32) -> Option<Key128> {
        self.stamp += 1;
        let stamp = self.stamp;
        match self
            .entries
            .iter_mut()
            .find(|e| e.gid == gid && e.fid == fid)
        {
            Some(e) => {
                e.stamp = stamp;
                self.stats.hits.incr();
                Some(e.key)
            }
            None => {
                self.stats.misses.incr();
                None
            }
        }
    }

    /// Installs (or refreshes) a key. Returns the LRU victim
    /// `(gid, fid, key)` if the table was full — the caller must spill it.
    pub fn insert(&mut self, gid: u32, fid: u32, key: Key128) -> Option<(u32, u32, Key128)> {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.gid == gid && e.fid == fid)
        {
            e.key = key;
            e.stamp = stamp;
            return None;
        }
        let mut victim = None;
        if self.entries.len() >= self.capacity {
            // capacity > 0, so a full table always yields a minimum.
            if let Some((idx, _)) = self.entries.iter().enumerate().min_by_key(|(_, e)| e.stamp) {
                let e = self.entries.swap_remove(idx);
                self.stats.evictions.incr();
                victim = Some((e.gid, e.fid, e.key));
            }
        }
        self.entries.push(Entry {
            gid,
            fid,
            key,
            stamp,
        });
        victim
    }

    /// Removes the entry for `(gid, fid)` (file deletion), returning its
    /// key if present.
    pub fn remove(&mut self, gid: u32, fid: u32) -> Option<Key128> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.gid == gid && e.fid == fid)?;
        Some(self.entries.swap_remove(idx).key)
    }

    /// Drains every entry (moving a DIMM between machines flushes the OTT
    /// to the spill region first — Section VI).
    pub fn drain(&mut self) -> Vec<(u32, u32, Key128)> {
        self.entries
            .drain(..)
            .map(|e| (e.gid, e.fid, e.key))
            .collect()
    }

    /// Behaviour counters.
    pub fn stats(&self) -> &OttStats {
        &self.stats
    }

    /// Serializes the table. Entry order is written verbatim — `insert`
    /// uses `swap_remove`, so the physical order is behavioral state.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        enc.put_u64(self.latency_cycles);
        enc.put_u64(self.stamp);
        enc.put_u64(self.entries.len() as u64);
        for e in &self.entries {
            enc.put_u32(e.gid);
            enc.put_u32(e.fid);
            enc.put_bytes(e.key.as_bytes());
            enc.put_u64(e.stamp);
        }
        enc.put_u64(self.stats.hits.get());
        enc.put_u64(self.stats.misses.get());
        enc.put_u64(self.stats.evictions.get());
    }

    /// Restores a table from [`OpenTunnelTable::snap_save`] bytes.
    /// `capacity` comes from the live configuration.
    pub fn snap_load(
        capacity: usize,
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<OpenTunnelTable, fsencr_snapshot::SnapError> {
        if capacity == 0 {
            return Err(fsencr_snapshot::SnapError::StateMismatch);
        }
        let latency_cycles = dec.get_u64()?;
        let stamp = dec.get_u64()?;
        let n = dec.get_len()?;
        if n > capacity {
            return Err(fsencr_snapshot::SnapError::StateMismatch);
        }
        let mut entries = Vec::with_capacity(capacity.min(4096));
        for _ in 0..n {
            let gid = dec.get_u32()?;
            let fid = dec.get_u32()?;
            let key = Key128::from_bytes(dec.get_arr16()?);
            let stamp = dec.get_u64()?;
            entries.push(Entry {
                gid,
                fid,
                key,
                stamp,
            });
        }
        let mut stats = OttStats::default();
        stats.hits.add(dec.get_u64()?);
        stats.misses.add(dec.get_u64()?);
        stats.evictions.add(dec.get_u64()?);
        Ok(OpenTunnelTable {
            entries,
            capacity,
            latency_cycles,
            stamp,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> Key128 {
        Key128::from_seed(n)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut ott = OpenTunnelTable::new(8, 20);
        assert_eq!(ott.lookup(1, 1), None);
        ott.insert(1, 1, key(1));
        assert_eq!(ott.lookup(1, 1), Some(key(1)));
        assert_eq!(ott.remove(1, 1), Some(key(1)));
        assert_eq!(ott.lookup(1, 1), None);
        assert_eq!(ott.remove(1, 1), None);
    }

    #[test]
    fn reinsert_refreshes_key_without_eviction() {
        let mut ott = OpenTunnelTable::new(2, 20);
        ott.insert(1, 1, key(1));
        assert!(ott.insert(1, 1, key(2)).is_none());
        assert_eq!(ott.lookup(1, 1), Some(key(2)));
        assert_eq!(ott.drain(), vec![(1, 1, key(2))]);
    }

    #[test]
    fn lru_eviction_spills_coldest() {
        let mut ott = OpenTunnelTable::new(2, 20);
        ott.insert(1, 1, key(1));
        ott.insert(2, 2, key(2));
        ott.lookup(1, 1); // refresh (1,1): victim should be (2,2)
        let victim = ott.insert(3, 3, key(3)).expect("eviction");
        assert_eq!(victim, (2, 2, key(2)));
        assert_eq!(ott.stats().evictions.get(), 1);
        assert_eq!(ott.lookup(1, 1), Some(key(1)));
        assert_eq!(ott.lookup(3, 3), Some(key(3)));
    }

    #[test]
    fn same_fid_different_gid_are_distinct() {
        let mut ott = OpenTunnelTable::new(8, 20);
        ott.insert(1, 7, key(1));
        ott.insert(2, 7, key(2));
        assert_eq!(ott.lookup(1, 7), Some(key(1)));
        assert_eq!(ott.lookup(2, 7), Some(key(2)));
    }

    #[test]
    fn drain_returns_everything() {
        let mut ott = OpenTunnelTable::new(8, 20);
        ott.insert(1, 1, key(1));
        ott.insert(2, 2, key(2));
        let drained = ott.drain();
        assert_eq!(drained.len(), 2);
        assert!(ott.drain().is_empty());
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut ott = OpenTunnelTable::new(8, 20);
        ott.insert(1, 1, key(1));
        ott.lookup(1, 1);
        ott.lookup(9, 9);
        assert_eq!(ott.stats().hits.get(), 1);
        assert_eq!(ott.stats().misses.get(), 1);
    }

    #[test]
    fn paper_capacity() {
        // 8 ways x 128 entries
        let mut ott = OpenTunnelTable::new(1024, 20);
        for i in 0..1024u32 {
            assert!(ott.insert(i % 16, i, key(i as u64)).is_none());
        }
        assert!(ott.insert(99, 5000, key(0)).is_some(), "1025th spills");
        assert_eq!(ott.drain().len(), 1024);
        assert_eq!(ott.latency_cycles(), 20);
    }
}
