//! Physical addressing and the DF-bit.
//!
//! The paper's central software/hardware contract is one spare physical
//! address bit — the **DF-bit** (DAX-File bit) at bit 51 — set by the kernel
//! in the page-table entry when it maps a DAX file page (Section III-C,
//! `(1UL<<51)|pfn`). The memory controller inspects the bit to route the
//! request through the file encryption engine and strips it before the
//! request reaches the DIMM.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Cache-line size in bytes (64 B everywhere in Table III).
pub const LINE_BYTES: usize = 64;

/// Page size in bytes (4 KiB; one counter block covers one page).
pub const PAGE_BYTES: usize = 4096;

/// Mask of a byte's offset within its page.
pub(crate) const PAGE_MASK: u64 = PAGE_BYTES as u64 - 1;

/// 64-byte lines per page.
const LINES_PER_PAGE: u64 = (PAGE_BYTES / LINE_BYTES) as u64;

/// Bit position of the DF (DAX-File) bit inside a physical address.
///
/// Intel IA-32e translates to at most 52 physical bits; bit 51 is unused by
/// any realistic DIMM population, exactly the paper's choice.
pub const DF_BIT: u64 = 1 << 51;

/// A physical byte address, possibly carrying the DF-bit.
///
/// # Examples
///
/// ```
/// use fsencr_nvm::PhysAddr;
///
/// let plain = PhysAddr::new(0x1234);
/// assert!(!plain.df());
/// let tagged = plain.with_df();
/// assert!(tagged.df());
/// assert_eq!(tagged.strip_df(), plain);
/// assert_eq!(tagged.line().get() & fsencr_nvm::DF_BIT, 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw value.
    pub const fn new(addr: u64) -> Self {
        PhysAddr(addr)
    }

    /// Raw address value, including the DF-bit if set.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Whether the DF (DAX-File) bit is set.
    pub const fn df(self) -> bool {
        self.0 & DF_BIT != 0
    }

    /// Returns the address with the DF-bit set — what the kernel writes
    /// into the PTE for a DAX file page.
    pub const fn with_df(self) -> Self {
        PhysAddr(self.0 | DF_BIT)
    }

    /// Returns the address with the DF-bit cleared — what actually goes to
    /// the memory device.
    pub const fn strip_df(self) -> Self {
        PhysAddr(self.0 & !DF_BIT)
    }

    /// The 64-byte-aligned line this byte belongs to (DF-bit stripped).
    pub const fn line(self) -> LineAddr {
        LineAddr((self.0 & !DF_BIT) & !(LINE_BYTES as u64 - 1))
    }

    /// The 4 KiB page this byte belongs to (DF-bit stripped).
    pub const fn page(self) -> PageId {
        PageId((self.0 & !DF_BIT) / PAGE_BYTES as u64)
    }

    /// Adds a byte offset, preserving the DF-bit.
    pub const fn offset(self, delta: u64) -> Self {
        PhysAddr(self.0 + delta)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.df() {
            write!(f, "PhysAddr({:#x}|DF)", self.strip_df().0)
        } else {
            write!(f, "PhysAddr({:#x})", self.0)
        }
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u64> for PhysAddr {
    fn from(addr: u64) -> Self {
        PhysAddr(addr)
    }
}

/// A 64-byte-aligned line address with the DF-bit stripped — the unit the
/// memory controller, caches and NVM banks operate on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(u64);

impl LineAddr {
    /// Creates a line address; the value is forcibly aligned and stripped.
    pub const fn new(addr: u64) -> Self {
        LineAddr((addr & !DF_BIT) & !(LINE_BYTES as u64 - 1))
    }

    /// Raw aligned byte address.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Page containing this line.
    pub const fn page(self) -> PageId {
        PageId(self.0 / PAGE_BYTES as u64)
    }

    /// 64-byte block index within the page, `0..64`.
    pub const fn block_in_page(self) -> u8 {
        ((self.0 / LINE_BYTES as u64) % LINES_PER_PAGE) as u8
    }
}

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineAddr({:#x})", self.0)
    }
}

impl From<PhysAddr> for LineAddr {
    fn from(addr: PhysAddr) -> Self {
        addr.line()
    }
}

/// A physical 4 KiB page frame number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(u64);

impl PageId {
    /// Creates a page ID from a frame number.
    pub const fn new(frame: u64) -> Self {
        PageId(frame)
    }

    /// Frame number.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Base byte address of the page.
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 * PAGE_BYTES as u64)
    }

    /// Iterator over the 64 line addresses inside this page.
    pub fn lines(self) -> impl Iterator<Item = LineAddr> {
        let base = self.0 * PAGE_BYTES as u64;
        (0..(PAGE_BYTES / LINE_BYTES) as u64)
            .map(move |i| LineAddr::new(base + i * LINE_BYTES as u64))
    }
}

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageId({:#x})", self.0)
    }
}

/// The fixed hasher behind [`AddrMap`] and [`AddrSet`]: one multiply
/// by the 64-bit golden ratio and one xor-shift per `u64`, so both the
/// bucket bits (low) and the tag bits (high) of a page number or a
/// 64-byte-aligned line address are mixed.
///
/// It is unkeyed on purpose. Every key is a frame, line or virtual page
/// number that the simulator itself produced, or one read from a
/// snapshot image whose collection counts are bounded by its size and
/// whose bad fields fail typed, so there is no untrusted key stream to
/// defend against HashDoS; in exchange, iteration order is the same in
/// every process.
#[derive(Debug, Clone, Copy, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(le));
        }
    }

    fn write_u64(&mut self, word: u64) {
        let h = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by a raw address number (frame, line or virtual page)
/// under the fixed [`AddrHasher`].
///
/// # Examples
///
/// ```
/// use fsencr_nvm::AddrMap;
///
/// let mut pages: AddrMap<u32> = AddrMap::default();
/// pages.insert(7, 1);
/// assert_eq!(pages.get(&7), Some(&1));
/// ```
pub type AddrMap<V> = HashMap<u64, V, BuildHasherDefault<AddrHasher>>;

/// A set of raw address numbers under the fixed [`AddrHasher`].
pub type AddrSet = HashSet<u64, BuildHasherDefault<AddrHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn df_bit_roundtrip() {
        let a = PhysAddr::new(0xdead_beef);
        assert!(!a.df());
        let tagged = a.with_df();
        assert!(tagged.df());
        assert_eq!(tagged.strip_df(), a);
        // idempotent
        assert_eq!(tagged.with_df(), tagged);
        assert_eq!(a.strip_df(), a);
    }

    #[test]
    fn df_bit_is_bit_51() {
        assert_eq!(DF_BIT, 1u64 << 51);
        let a = PhysAddr::new(DF_BIT | 0x40);
        assert!(a.df());
        assert_eq!(a.strip_df().get(), 0x40);
    }

    #[test]
    fn line_and_page_decomposition() {
        let a = PhysAddr::new(2 * PAGE_BYTES as u64 + 3 * LINE_BYTES as u64 + 7);
        assert_eq!(a.page().get(), 2);
        assert_eq!(a.line().get(), 2 * 4096 + 3 * 64);
        assert_eq!(a.line().block_in_page(), 3);
        assert_eq!(a.line().page().get(), 2);
    }

    #[test]
    fn df_bit_never_leaks_into_line_or_page() {
        let a = PhysAddr::new(0x5000 + 17).with_df();
        assert_eq!(a.line().get() & DF_BIT, 0);
        assert_eq!(a.page().get(), 5);
    }

    #[test]
    fn line_step_and_page_lines() {
        let page = PageId::new(1);
        let lines: Vec<LineAddr> = page.lines().collect();
        assert_eq!(lines.len(), 64);
        assert_eq!(lines[0].get(), 4096);
        assert_eq!(lines[63].get(), 4096 + 63 * 64);
        assert!(lines.iter().all(|l| l.page() == page));
    }

    #[test]
    fn page_base_roundtrip() {
        let p = PageId::new(42);
        assert_eq!(p.base().get(), 42 * 4096);
        assert_eq!(p.base().page(), p);
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", PhysAddr::new(0x40)), "PhysAddr(0x40)");
        assert_eq!(
            format!("{:?}", PhysAddr::new(0x40).with_df()),
            "PhysAddr(0x40|DF)"
        );
        assert_eq!(format!("{:?}", LineAddr::new(0x40)), "LineAddr(0x40)");
    }

    #[test]
    fn offset_preserves_df() {
        let a = PhysAddr::new(0x1000).with_df().offset(4);
        assert!(a.df());
        assert_eq!(a.strip_df().get(), 0x1004);
    }

    #[test]
    fn addr_hasher_is_unkeyed_and_mixes_aligned_addresses() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<AddrHasher>::default();
        let again = BuildHasherDefault::<AddrHasher>::default();
        let mut buckets = HashSet::new();
        for i in 0..4096u64 {
            let line = i * LINE_BYTES as u64;
            assert_eq!(build.hash_one(line), again.hash_one(line));
            buckets.insert(build.hash_one(line) & 4095);
        }
        // Line addresses share their low six bits; the bucket bits must
        // not. A uniform hash fills about 63% of 4096 buckets.
        assert!(buckets.len() > 2400, "{} buckets", buckets.len());
        let mut set = AddrSet::default();
        set.extend([3, 1, 2]);
        let order: Vec<u64> = set.iter().copied().collect();
        let mut twin = AddrSet::default();
        twin.extend([3, 1, 2]);
        assert_eq!(twin.iter().copied().collect::<Vec<u64>>(), order);
    }
}
