//! Physical placement of security metadata.
//!
//! The device is split into four regions:
//!
//! ```text
//! 0 ............... data_bytes        plain data + DAX filesystem pages
//! meta_base ....... (+128 B/page)     counter blocks: MECB then FECB,
//!                                     interleaved per page (Figure 6)
//! ott_base ........ (+ott_bytes)      encrypted spilled-OTT hash table
//! merkle_base ..... (+tree)           8-ary Bonsai Merkle tree nodes
//! ```
//!
//! The Merkle tree covers the counter region *and* the OTT region (Section
//! VI, "Integrity of Filesystem Encryption Counters and OTT"); its leaves
//! are the 64-byte lines of `[meta_base, ott_base + ott_bytes)`.

use fsencr_nvm::{LineAddr, PageId, LINE_BYTES, PAGE_BYTES};

/// Bytes of counter metadata per data page: one MECB + one FECB.
pub const META_PER_PAGE: u64 = 128;

const ARITY: u64 = 8;

/// Which region of the device a line belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineKind {
    /// Plain data or DAX filesystem page.
    Data,
    /// Memory encryption counter block (first line of a page's pair).
    Mecb,
    /// File encryption counter block (second line of a page's pair).
    Fecb,
    /// Encrypted spilled-OTT slot.
    Spill,
    /// Merkle-tree node (the region past the covered leaves).
    Node,
}

/// Region map and Merkle-tree geometry for one device.
///
/// # Examples
///
/// ```
/// use fsencr_secmem::MetadataLayout;
///
/// let layout = MetadataLayout::new(1 << 20, 4096); // 1 MiB data, 4 KiB OTT
/// let page = fsencr_nvm::PageId::new(3);
/// let mecb = layout.mecb_addr(page);
/// let fecb = layout.fecb_addr(page);
/// assert_eq!(fecb.get(), mecb.get() + 64);
/// assert!(layout.is_metadata(mecb));
/// ```
#[derive(Debug, Clone)]
pub struct MetadataLayout {
    data_bytes: u64,
    meta_base: u64,
    ott_base: u64,
    ott_bytes: u64,
    merkle_base: u64,
    covered_bytes: u64,
    /// Bottom-up: `level_geometry[0]` is the parents-of-leaves level.
    level_geometry: Vec<(u64, u64)>, // (base_addr, node_count)
    total_bytes: u64,
}

impl MetadataLayout {
    /// Builds the layout for `data_bytes` of protected data plus an
    /// `ott_bytes` spill region.
    ///
    /// # Panics
    ///
    /// Panics unless `data_bytes` is page-aligned and positive and
    /// `ott_bytes` is line-aligned.
    pub fn new(data_bytes: u64, ott_bytes: u64) -> Self {
        assert!(data_bytes > 0, "need at least one data page");
        assert_eq!(data_bytes % PAGE_BYTES as u64, 0, "data must be page-aligned");
        assert_eq!(ott_bytes % LINE_BYTES as u64, 0, "OTT region must be line-aligned");

        let pages = data_bytes / PAGE_BYTES as u64;
        let meta_base = data_bytes;
        let meta_bytes = pages * META_PER_PAGE;
        let ott_base = meta_base + meta_bytes;
        let covered_bytes = meta_bytes + ott_bytes;
        let merkle_base = ott_base + ott_bytes;

        let leaves = covered_bytes / LINE_BYTES as u64;
        let mut level_geometry = Vec::new();
        let mut nodes = leaves.div_ceil(ARITY).max(1);
        let mut base = merkle_base;
        loop {
            level_geometry.push((base, nodes));
            base += nodes * LINE_BYTES as u64;
            if nodes == 1 {
                break;
            }
            nodes = nodes.div_ceil(ARITY);
        }

        MetadataLayout {
            data_bytes,
            meta_base,
            ott_base,
            ott_bytes,
            merkle_base,
            covered_bytes,
            level_geometry,
            total_bytes: base,
        }
    }

    /// Bytes of protected data (region `[0, data_bytes)`).
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// First byte of the counter region.
    pub fn meta_base(&self) -> u64 {
        self.meta_base
    }

    /// First byte of the encrypted-OTT spill region.
    pub fn ott_base(&self) -> u64 {
        self.ott_base
    }

    /// Size of the encrypted-OTT spill region.
    pub fn ott_bytes(&self) -> u64 {
        self.ott_bytes
    }

    /// First byte of the Merkle-tree node region.
    pub fn merkle_base(&self) -> u64 {
        self.merkle_base
    }

    /// Device capacity the layout requires.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of Merkle-tree levels (root included).
    pub fn merkle_levels(&self) -> usize {
        self.level_geometry.len()
    }

    /// Whether `addr` lies in the data region.
    pub fn is_data(&self, addr: LineAddr) -> bool {
        addr.get() < self.data_bytes
    }

    /// Whether `addr` lies in the Merkle-covered metadata region
    /// (counters or spilled OTT).
    pub fn is_metadata(&self, addr: LineAddr) -> bool {
        addr.get() >= self.meta_base && addr.get() < self.meta_base + self.covered_bytes
    }

    /// Address of the MECB covering `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the data region.
    pub fn mecb_addr(&self, page: PageId) -> LineAddr {
        assert!(
            page.base().get() < self.data_bytes,
            "page {page:?} outside data region"
        );
        LineAddr::new(self.meta_base + page.get() * META_PER_PAGE)
    }

    /// Address of the FECB covering `page` (immediately after its MECB).
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the data region.
    pub fn fecb_addr(&self, page: PageId) -> LineAddr {
        LineAddr::new(self.mecb_addr(page).get() + LINE_BYTES as u64)
    }

    /// The data page whose MECB or FECB lives at `addr`, or `None` when
    /// `addr` is not a counter block.
    pub fn counter_page(&self, addr: LineAddr) -> Option<PageId> {
        let a = addr.get();
        (a >= self.meta_base && a < self.ott_base)
            .then(|| PageId::new((a - self.meta_base) / META_PER_PAGE))
    }

    /// The region `addr` lies in. Counter blocks alternate MECB/FECB at
    /// line granularity; everything at or past `merkle_base` is a node.
    pub fn kind_of(&self, addr: LineAddr) -> LineKind {
        let a = addr.get();
        if a < self.meta_base {
            LineKind::Data
        } else if a < self.ott_base {
            if (a - self.meta_base).is_multiple_of(META_PER_PAGE) {
                LineKind::Mecb
            } else {
                LineKind::Fecb
            }
        } else if a < self.merkle_base {
            LineKind::Spill
        } else {
            LineKind::Node
        }
    }

    /// Leaf index of a covered metadata line.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not in the covered region.
    pub fn leaf_index(&self, addr: LineAddr) -> u64 {
        assert!(self.is_metadata(addr), "{addr:?} not in covered region");
        (addr.get() - self.meta_base) / LINE_BYTES as u64
    }

    /// Address of Merkle node `idx` at `level` (0 = parents of leaves).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn node_addr(&self, level: usize, idx: u64) -> LineAddr {
        let (base, count) = self.level_geometry[level];
        assert!(idx < count, "node {idx} out of range at level {level}");
        LineAddr::new(base + idx * LINE_BYTES as u64)
    }

    /// Inverse of [`MetadataLayout::node_addr`]: which `(level, idx)` a
    /// Merkle-region line is, or `None` for non-tree addresses.
    pub fn node_coords(&self, addr: LineAddr) -> Option<(usize, u64)> {
        for (level, (base, count)) in self.level_geometry.iter().enumerate() {
            let end = base + count * LINE_BYTES as u64;
            if addr.get() >= *base && addr.get() < end {
                return Some((level, (addr.get() - base) / LINE_BYTES as u64));
            }
        }
        None
    }

    /// The bottom-up chain of `(level, node, slot)` from a covered leaf to
    /// the root node.
    pub fn path_of_leaf(&self, leaf: u64) -> Vec<(usize, u64, usize)> {
        let mut path = Vec::with_capacity(self.level_geometry.len());
        let mut child = leaf;
        for level in 0..self.level_geometry.len() {
            let node = child / ARITY;
            let slot = (child % ARITY) as usize;
            path.push((level, node, slot));
            child = node;
        }
        path
    }

    /// Coordinates of the single top node.
    pub fn top(&self) -> (usize, u64) {
        (self.level_geometry.len() - 1, 0)
    }

    /// Iterates every covered leaf address (used by tree rebuilds).
    pub fn leaves(&self) -> impl Iterator<Item = LineAddr> + '_ {
        let base = self.meta_base;
        (0..self.covered_bytes / LINE_BYTES as u64)
            .map(move |i| LineAddr::new(base + i * LINE_BYTES as u64))
    }

    /// Number of nodes at `level`.
    pub fn nodes_at(&self, level: usize) -> u64 {
        self.level_geometry[level].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MetadataLayout {
        // 16 pages of data, 4 KiB OTT region
        MetadataLayout::new(16 * 4096, 4096)
    }

    #[test]
    fn region_ordering() {
        let l = small();
        assert_eq!(l.meta_base(), 16 * 4096);
        assert_eq!(l.ott_base(), l.meta_base() + 16 * 128);
        assert_eq!(l.merkle_base(), l.ott_base() + l.ott_bytes());
        assert!(l.total_bytes() > l.merkle_base());
    }

    #[test]
    fn mecb_fecb_interleave() {
        let l = small();
        for p in 0..16u64 {
            let page = PageId::new(p);
            assert_eq!(l.mecb_addr(page).get(), l.meta_base() + p * 128);
            assert_eq!(l.fecb_addr(page).get(), l.meta_base() + p * 128 + 64);
            assert_eq!(l.counter_page(l.mecb_addr(page)), Some(page));
            assert_eq!(l.counter_page(l.fecb_addr(page)), Some(page));
            assert_eq!(l.kind_of(l.mecb_addr(page)), LineKind::Mecb);
            assert_eq!(l.kind_of(l.fecb_addr(page)), LineKind::Fecb);
        }
        assert_eq!(l.kind_of(LineAddr::new(0)), LineKind::Data);
        assert_eq!(l.kind_of(LineAddr::new(l.ott_base())), LineKind::Spill);
        assert_eq!(l.kind_of(LineAddr::new(l.merkle_base())), LineKind::Node);
        // OTT-spill leaves, tree nodes and data lines are not counters.
        assert_eq!(l.counter_page(LineAddr::new(l.ott_base())), None);
        assert_eq!(l.counter_page(LineAddr::new(l.merkle_base())), None);
        assert_eq!(l.counter_page(LineAddr::new(0)), None);
    }

    #[test]
    #[should_panic(expected = "outside data region")]
    fn mecb_out_of_range_panics() {
        small().mecb_addr(PageId::new(16));
    }

    #[test]
    fn coverage_predicates() {
        let l = small();
        assert!(l.is_data(LineAddr::new(0)));
        assert!(!l.is_data(LineAddr::new(16 * 4096)));
        assert!(l.is_metadata(l.mecb_addr(PageId::new(0))));
        assert!(l.is_metadata(LineAddr::new(l.ott_base())));
        assert!(!l.is_metadata(LineAddr::new(0)));
        // Merkle nodes are not leaves
        let (top_level, _) = l.top();
        assert!(!l.is_metadata(l.node_addr(top_level, 0)));
    }

    #[test]
    fn leaf_indices_are_dense() {
        let l = small();
        // 16 pages * 2 blocks + 64 OTT lines = 96 leaves
        let leaves: Vec<LineAddr> = l.leaves().collect();
        assert_eq!(leaves.len(), 96);
        for (i, leaf) in leaves.iter().enumerate() {
            assert_eq!(l.leaf_index(*leaf), i as u64);
        }
    }

    #[test]
    fn tree_geometry() {
        let l = small();
        // 96 leaves -> 12 -> 2 -> 1
        assert_eq!(l.merkle_levels(), 3);
        assert_eq!(l.nodes_at(0), 12);
        assert_eq!(l.nodes_at(1), 2);
        assert_eq!(l.nodes_at(2), 1);
        assert_eq!(l.top(), (2, 0));
    }

    #[test]
    fn path_of_leaf_reaches_root() {
        let l = small();
        let path = l.path_of_leaf(95);
        assert_eq!(path.len(), 3);
        assert_eq!(path[0], (0, 11, 7));
        assert_eq!(path[1], (1, 1, 3));
        assert_eq!(path[2], (2, 0, 1));
    }

    #[test]
    fn node_coords_roundtrip() {
        let l = small();
        for level in 0..l.merkle_levels() {
            for idx in 0..l.nodes_at(level) {
                let addr = l.node_addr(level, idx);
                assert_eq!(l.node_coords(addr), Some((level, idx)));
            }
        }
        assert_eq!(l.node_coords(LineAddr::new(0)), None);
    }

    #[test]
    fn single_page_layout() {
        let l = MetadataLayout::new(4096, 0);
        // 2 leaves -> 1 node
        assert_eq!(l.merkle_levels(), 1);
        assert_eq!(l.nodes_at(0), 1);
        assert_eq!(l.path_of_leaf(1), vec![(0, 0, 1)]);
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn unaligned_data_panics() {
        MetadataLayout::new(1000, 0);
    }

    #[test]
    fn paper_scale_layout_fits_16_gib() {
        // 12 GiB of data + 256 KiB OTT must fit in the 16 GiB device with
        // nine or fewer tree levels (Table III says 9 levels).
        let l = MetadataLayout::new(12 << 30, 256 << 10);
        assert!(l.total_bytes() <= 16 << 30, "{}", l.total_bytes());
        assert!(l.merkle_levels() <= 9, "{}", l.merkle_levels());
    }
}
