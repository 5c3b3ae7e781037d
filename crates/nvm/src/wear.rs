//! Write-endurance accounting.
//!
//! PCM cells endure a bounded number of writes (~10^8); the paper leans on
//! this twice — Silent-Shredder-style deletion avoids DoD-style multi-pass
//! overwrites, and footnote 4 argues file counters never overflow within a
//! file's lifetime. This module gives the device per-page write counts so
//! those arguments can be *checked*: tests assert that shredding writes
//! nothing to the data pages, and that hot-line traffic stays far from the
//! endurance bound.

use std::cmp::Reverse;

use crate::addr::{AddrMap, LineAddr, PageId};

/// Conservative per-cell write endurance for PCM (Lee et al., ISCA'09).
pub const PCM_ENDURANCE_WRITES: u64 = 100_000_000;

/// Per-page write counters with hot-spot queries.
///
/// # Examples
///
/// ```
/// use fsencr_nvm::{LineAddr, wear::WearTracker};
///
/// let mut w = WearTracker::new();
/// w.record(LineAddr::new(0));
/// w.record(LineAddr::new(64));
/// assert_eq!(w.page_writes(fsencr_nvm::PageId::new(0)), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct WearTracker {
    per_page: AddrMap<u64>,
    total: u64,
}

impl WearTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        WearTracker::default()
    }

    /// Records one 64-byte line write.
    pub fn record(&mut self, line: LineAddr) {
        *self.per_page.entry(line.page().get()).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total line writes recorded.
    pub fn total_writes(&self) -> u64 {
        self.total
    }

    /// Line writes that landed in `page`.
    pub fn page_writes(&self, page: PageId) -> u64 {
        self.per_page.get(&page.get()).copied().unwrap_or(0)
    }

    /// The most-written page and its count, if any writes occurred;
    /// the lowest such page when several tie.
    pub fn hottest_page(&self) -> Option<(PageId, u64)> {
        self.per_page
            .iter()
            .max_by_key(|&(&p, &c)| (c, Reverse(p)))
            .map(|(p, c)| (PageId::new(*p), *c))
    }

    /// Number of distinct pages ever written.
    pub fn pages_touched(&self) -> usize {
        self.per_page.len()
    }

    /// Fraction of the endurance budget consumed by the hottest page,
    /// assuming (pessimistically) that every page write hits one line.
    pub fn worst_wear_fraction(&self) -> f64 {
        self.hottest_page()
            .map(|(_, c)| c as f64 / PCM_ENDURANCE_WRITES as f64)
            .unwrap_or(0.0)
    }

    /// Resets all counters.
    pub fn reset(&mut self) {
        self.per_page.clear();
        self.total = 0;
    }

    /// Serializes the per-page counters in sorted page order.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        let mut entries: Vec<(u64, u64)> = self.per_page.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable();
        enc.put_u64(entries.len() as u64);
        for (page, count) in entries {
            enc.put_u64(page);
            enc.put_u64(count);
        }
        enc.put_u64(self.total);
    }

    /// Restores a tracker from [`WearTracker::snap_save`] bytes.
    pub fn snap_load(
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<WearTracker, fsencr_snapshot::SnapError> {
        let n = dec.get_count(16)?;
        let mut per_page = AddrMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let page = dec.get_u64()?;
            let count = dec.get_u64()?;
            per_page.insert(page, count);
        }
        let total = dec.get_u64()?;
        Ok(WearTracker { per_page, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut w = WearTracker::new();
        for i in 0..10 {
            w.record(LineAddr::new(i * 64)); // page 0
        }
        w.record(LineAddr::new(4096)); // page 1
        assert_eq!(w.total_writes(), 11);
        assert_eq!(w.page_writes(PageId::new(0)), 10);
        assert_eq!(w.page_writes(PageId::new(1)), 1);
        assert_eq!(w.page_writes(PageId::new(2)), 0);
        assert_eq!(w.pages_touched(), 2);
        assert_eq!(w.hottest_page(), Some((PageId::new(0), 10)));
    }

    #[test]
    fn hottest_page_ties_go_to_the_lowest_page() {
        // Many pairs, so that in some the lower page iterates first and
        // in others last, whatever the map's order.
        for lo in 0..8u64 {
            for hi in lo + 1..9 {
                let mut w = WearTracker::new();
                for page in [hi, lo, hi, lo] {
                    w.record(LineAddr::new(page * 4096));
                }
                w.record(LineAddr::new(20 * 4096));
                assert_eq!(w.hottest_page(), Some((PageId::new(lo), 2)), "{lo} vs {hi}");
            }
        }
    }

    #[test]
    fn wear_fraction() {
        let mut w = WearTracker::new();
        assert_eq!(w.worst_wear_fraction(), 0.0);
        for _ in 0..1000 {
            w.record(LineAddr::new(0));
        }
        let frac = w.worst_wear_fraction();
        assert!(frac > 0.0 && frac < 1e-4, "{frac}");
    }

    #[test]
    fn reset() {
        let mut w = WearTracker::new();
        w.record(LineAddr::new(0));
        w.reset();
        assert_eq!(w.total_writes(), 0);
        assert_eq!(w.hottest_page(), None);
    }
}
