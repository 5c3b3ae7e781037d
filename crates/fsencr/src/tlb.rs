//! A per-core TLB model.
//!
//! Figure 5 of the paper shows the MMU translating virtual addresses — with
//! the DF-bit riding in the PTE — before requests reach the caches. The
//! TLB caches those translations: hits are free (folded into L1 access),
//! misses charge a page-table walk. DAX's whole value proposition is that
//! after the first fault, file accesses are *just* translations + loads,
//! so the walk cost belongs in the model.

use fsencr_fs::Pte;
use fsencr_nvm::AddrMap;
use fsencr_sim::Counter;

/// Cycles charged for a TLB miss (the page-table walk; most walk levels
/// hit in the data caches).
pub const PAGE_WALK_CYCLES: u64 = 60;

/// Default entry count (a typical L1 DTLB).
pub const TLB_ENTRIES: usize = 64;

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct TlbStats {
    /// Translations served from the TLB.
    pub hits: Counter,
    /// Translations that walked the page table.
    pub misses: Counter,
}

/// A fully-associative, LRU translation lookaside buffer.
///
/// # Examples
///
/// ```
/// use fsencr::tlb::Tlb;
/// use fsencr_fs::Pte;
/// use fsencr_nvm::PageId;
///
/// let mut tlb = Tlb::new(2);
/// let pte = Pte { frame: PageId::new(7), df: true };
/// assert_eq!(tlb.lookup(1), None);
/// tlb.insert(1, pte);
/// assert_eq!(tlb.lookup(1), Some(pte));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: AddrMap<(Pte, u64)>,
    capacity: usize,
    stamp: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        Tlb {
            entries: AddrMap::with_capacity_and_hasher(capacity, Default::default()),
            capacity,
            stamp: 0,
            stats: TlbStats::default(),
        }
    }

    /// Looks up the translation for `vpn`, refreshing LRU.
    pub fn lookup(&mut self, vpn: u64) -> Option<Pte> {
        self.stamp += 1;
        let stamp = self.stamp;
        match self.entries.get_mut(&vpn) {
            Some((pte, lru)) => {
                *lru = stamp;
                self.stats.hits.incr();
                Some(*pte)
            }
            None => {
                self.stats.misses.incr();
                None
            }
        }
    }

    /// Installs a translation, evicting the LRU entry at capacity.
    pub fn insert(&mut self, vpn: u64, pte: Pte) {
        self.stamp += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&vpn) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, lru))| *lru)
                .map(|(v, _)| *v)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(vpn, (pte, self.stamp));
    }

    /// Drops everything (TLB shootdown / context switch / crash).
    pub fn flush(&mut self) {
        self.entries.clear();
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Serializes the TLB: stamp plus entries sorted by `vpn` (lookups
    /// hash and eviction keys on the per-entry LRU stamp, so map order is
    /// not behavioral), then the counters.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        enc.put_u64(self.stamp);
        let mut entries: Vec<(u64, u64, bool, u64)> = self
            .entries
            .iter()
            .map(|(&vpn, &(pte, lru))| (vpn, pte.frame.get(), pte.df, lru))
            .collect();
        entries.sort_unstable_by_key(|&(vpn, _, _, _)| vpn);
        enc.put_u64(entries.len() as u64);
        for (vpn, frame, df, lru) in entries {
            enc.put_u64(vpn);
            enc.put_u64(frame);
            enc.put_bool(df);
            enc.put_u64(lru);
        }
        enc.put_u64(self.stats.hits.get());
        enc.put_u64(self.stats.misses.get());
    }

    /// Restores a TLB from [`Tlb::snap_save`] bytes. `capacity` comes from
    /// the live configuration.
    pub fn snap_load(
        capacity: usize,
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<Tlb, fsencr_snapshot::SnapError> {
        if capacity == 0 {
            return Err(fsencr_snapshot::SnapError::StateMismatch);
        }
        let stamp = dec.get_u64()?;
        let n = dec.get_len()?;
        if n > capacity {
            return Err(fsencr_snapshot::SnapError::StateMismatch);
        }
        let mut entries = AddrMap::with_capacity_and_hasher(capacity, Default::default());
        for _ in 0..n {
            let vpn = dec.get_u64()?;
            let pte = Pte {
                frame: fsencr_nvm::PageId::new(dec.get_u64()?),
                df: dec.get_bool()?,
            };
            let lru = dec.get_u64()?;
            entries.insert(vpn, (pte, lru));
        }
        let mut stats = TlbStats::default();
        stats.hits.add(dec.get_u64()?);
        stats.misses.add(dec.get_u64()?);
        Ok(Tlb {
            entries,
            capacity,
            stamp,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsencr_nvm::PageId;

    fn pte(frame: u64) -> Pte {
        Pte {
            frame: PageId::new(frame),
            df: false,
        }
    }

    #[test]
    fn miss_insert_hit() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup(5), None);
        tlb.insert(5, pte(50));
        assert_eq!(tlb.lookup(5), Some(pte(50)));
        assert_eq!(tlb.stats().hits.get(), 1);
        assert_eq!(tlb.stats().misses.get(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.insert(1, pte(1));
        tlb.insert(2, pte(2));
        tlb.lookup(1); // 2 becomes LRU
        tlb.insert(3, pte(3));
        assert!(tlb.lookup(1).is_some());
        assert!(tlb.lookup(2).is_none());
        assert!(tlb.lookup(3).is_some());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut tlb = Tlb::new(2);
        tlb.insert(1, pte(1));
        tlb.insert(1, pte(9));
        // One entry, not two: a second translation evicts nothing.
        tlb.insert(2, pte(2));
        assert_eq!(tlb.lookup(1), Some(pte(9)));
        assert_eq!(tlb.lookup(2), Some(pte(2)));
    }

    #[test]
    fn flush_drops_every_translation() {
        let mut tlb = Tlb::new(4);
        tlb.insert(1, pte(1));
        tlb.insert(2, pte(2));
        tlb.flush();
        assert!(tlb.lookup(1).is_none());
        assert!(tlb.lookup(2).is_none());
    }

    #[test]
    fn df_bit_travels_with_the_translation() {
        let mut tlb = Tlb::new(2);
        tlb.insert(
            7,
            Pte {
                frame: PageId::new(3),
                df: true,
            },
        );
        assert!(tlb.lookup(7).is_some_and(|p| p.df));
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        Tlb::new(0);
    }
}
