//! Page tables with DF-bit support.
//!
//! The single kernel change at the heart of FsEncr: when a DAX page fault
//! maps an encrypted file page, the kernel sets bit 51 of the physical
//! address in the PTE (`(1UL << 51) | pfn`). Every subsequent access to
//! that page carries the DF-bit down to the memory controller for free.

use fsencr_nvm::{AddrMap, PageId, PhysAddr, PAGE_BYTES};

/// A page-table entry: physical frame plus the DF (DAX-file) bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Physical frame number.
    pub frame: PageId,
    /// Whether accesses through this mapping are DAX-file accesses to an
    /// encrypted file (routes them through the file encryption engine).
    pub df: bool,
}

/// A per-process page table.
///
/// # Examples
///
/// ```
/// use fsencr_fs::{PageTable, Pte};
/// use fsencr_nvm::PageId;
///
/// let mut pt = PageTable::new();
/// pt.map(5, Pte { frame: PageId::new(100), df: true });
/// let pa = pt.translate(5 * 4096 + 12).unwrap();
/// assert!(pa.df());
/// assert_eq!(pa.strip_df().get(), 100 * 4096 + 12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    entries: AddrMap<Pte>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> Self {
        PageTable::default()
    }

    /// Installs a mapping for virtual page `vpn`.
    pub fn map(&mut self, vpn: u64, pte: Pte) {
        self.entries.insert(vpn, pte);
    }

    /// Removes every mapping that points at `frame` (used at unlink).
    pub fn unmap_frame(&mut self, frame: PageId) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, pte| pte.frame != frame);
        before - self.entries.len()
    }

    /// Looks up the PTE for a virtual page.
    pub fn pte(&self, vpn: u64) -> Option<Pte> {
        self.entries.get(&vpn).copied()
    }

    /// Translates a virtual byte address to a physical address, DF-bit
    /// included. `None` means page fault.
    pub fn translate(&self, vaddr: u64) -> Option<PhysAddr> {
        let vpn = vaddr / PAGE_BYTES as u64;
        let offset = vaddr % PAGE_BYTES as u64;
        self.entries.get(&vpn).map(|pte| {
            let pa = PhysAddr::new(pte.frame.get() * PAGE_BYTES as u64 + offset);
            if pte.df {
                pa.with_df()
            } else {
                pa
            }
        })
    }

    /// Serializes every mapping in ascending `vpn` order.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        let mut entries: Vec<(u64, u64, bool)> = self
            .entries
            .iter()
            .map(|(&vpn, pte)| (vpn, pte.frame.get(), pte.df))
            .collect();
        entries.sort_unstable_by_key(|&(vpn, _, _)| vpn);
        enc.put_u64(entries.len() as u64);
        for (vpn, frame, df) in entries {
            enc.put_u64(vpn);
            enc.put_u64(frame);
            enc.put_bool(df);
        }
    }

    /// Restores a table from [`PageTable::snap_save`] bytes.
    pub fn snap_load(
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<PageTable, fsencr_snapshot::SnapError> {
        let n = dec.get_count(17)?;
        let mut entries = AddrMap::with_capacity_and_hasher(n, Default::default());
        for _ in 0..n {
            let vpn = dec.get_u64()?;
            let pte = Pte {
                frame: PageId::new(dec.get_u64()?),
                df: dec.get_bool()?,
            };
            entries.insert(vpn, pte);
        }
        Ok(PageTable { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_unmapped_faults() {
        let pt = PageTable::new();
        assert_eq!(pt.translate(0x1000), None);
    }

    #[test]
    fn translate_applies_df_bit_only_when_set() {
        let mut pt = PageTable::new();
        pt.map(
            1,
            Pte {
                frame: PageId::new(7),
                df: false,
            },
        );
        pt.map(
            2,
            Pte {
                frame: PageId::new(8),
                df: true,
            },
        );
        let plain = pt.translate(4096 + 5).unwrap();
        assert!(!plain.df());
        assert_eq!(plain.get(), 7 * 4096 + 5);
        let tagged = pt.translate(2 * 4096).unwrap();
        assert!(tagged.df());
        assert_eq!(tagged.strip_df().get(), 8 * 4096);
    }

    #[test]
    fn unmap_by_frame() {
        let mut pt = PageTable::new();
        pt.map(
            1,
            Pte {
                frame: PageId::new(7),
                df: false,
            },
        );
        pt.map(
            2,
            Pte {
                frame: PageId::new(7),
                df: false,
            },
        );
        pt.map(
            3,
            Pte {
                frame: PageId::new(9),
                df: false,
            },
        );
        assert_eq!(pt.unmap_frame(PageId::new(7)), 2);
        assert_eq!(pt.unmap_frame(PageId::new(7)), 0);
        assert_eq!(pt.pte(3).map(|p| p.frame), Some(PageId::new(9)));
    }

    #[test]
    fn pte_lookup() {
        let mut pt = PageTable::new();
        let pte = Pte {
            frame: PageId::new(3),
            df: true,
        };
        pt.map(9, pte);
        assert_eq!(pt.pte(9), Some(pte));
        assert_eq!(pt.pte(10), None);
    }
}
