//! The software filesystem-encryption baseline (eCryptfs model).
//!
//! Section II-E of the paper measures eCryptfs stacked over ext4-DAX and
//! finds a 2.7x average slowdown (≈5x for YCSB). The costs come from three
//! places, all modelled here or charged by the machine layer from the
//! outcomes this module reports:
//!
//! 1. **Page-granular cryptography** — every page-cache fill decrypts a
//!    whole 4 KiB page in software; every write-back re-encrypts it
//!    (256 AES blocks each way), regardless of how few bytes the
//!    application touched.
//! 2. **Page-cache copies** — DAX is lost: data is copied between the NVM
//!    file page and a DRAM page-cache page on every fill/write-back.
//! 3. **VFS stacking** — each read/write system call traverses the
//!    syscall boundary plus the stacked-filesystem layers.

use std::collections::{BTreeSet, HashMap};

use crate::inode::Ino;

/// Cost parameters of the software-encryption stack.
///
/// Defaults are calibrated to commodity hardware at the paper's 1 GHz
/// clock: ~1.2 cycles/byte software AES (~20 cycles per 16-byte block),
/// ~700 cycles for a syscall plus stacked-VFS traversal, and ~1500 cycles
/// of kernel page-fault/page-cache management per fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftEncrConfig {
    /// Page-cache capacity in 4 KiB pages.
    pub page_cache_pages: usize,
    /// CPU cycles charged per read/write system call.
    pub syscall_cycles: u64,
    /// CPU cycles per 16-byte AES block in software.
    pub aes_sw_cycles_per_block: u64,
    /// Kernel overhead per page-cache fill (fault path, radix tree, LRU).
    pub fill_overhead_cycles: u64,
}

impl Default for SoftEncrConfig {
    fn default() -> Self {
        SoftEncrConfig {
            page_cache_pages: 256,
            syscall_cycles: 700,
            aes_sw_cycles_per_block: 20,
            fill_overhead_cycles: 1500,
        }
    }
}

impl SoftEncrConfig {
    /// Cycles to encrypt or decrypt one 4 KiB page in software
    /// (256 blocks).
    pub fn page_crypt_cycles(&self) -> u64 {
        256 * self.aes_sw_cycles_per_block
    }
}

/// What happened on a page-cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageCacheOutcome {
    /// The page was not resident: it must be copied in from NVM and
    /// decrypted.
    pub fill: bool,
    /// The DRAM frame (general-memory base address) holding the page.
    pub frame: u64,
    /// A victim `(ino, page, dirty, frame)` was evicted to make room; a
    /// dirty victim must be re-encrypted and copied back to NVM from its
    /// frame before the fill reuses it.
    pub evicted: Option<(Ino, usize, bool, u64)>,
}

/// LRU page cache tracking `(file, page)` residency, dirtiness and the
/// DRAM frame behind each resident page. Released frames go on a free
/// list and are reused last-released-first before any new frame is
/// allocated. Dirty pages are indexed in `(file, page)` order, so a
/// write-back visits only its own file's dirty pages.
///
/// # Examples
///
/// ```
/// use fsencr_fs::{Ino, PageCacheModel};
///
/// let mut pc = PageCacheModel::new(2);
/// let f = Ino::new(1);
/// let first = pc.touch(f, 0, false, || Some(0x1000)).unwrap();
/// assert!(first.fill);
/// let again = pc.touch(f, 0, true, || unreachable!()).unwrap(); // resident (and dirty)
/// assert_eq!((again.fill, again.frame), (false, 0x1000));
/// ```
#[derive(Debug, Clone)]
pub struct PageCacheModel {
    capacity: usize,
    resident: HashMap<(Ino, usize), Entry>,
    /// The resident pages that are dirty.
    dirty: BTreeSet<(Ino, usize)>,
    free: Vec<u64>,
    stamp: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    stamp: u64,
    frame: u64,
}

impl PageCacheModel {
    /// Creates a page cache holding `capacity` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "page cache needs at least one page");
        PageCacheModel {
            capacity,
            resident: HashMap::new(),
            dirty: BTreeSet::new(),
            free: Vec::new(),
            stamp: 0,
        }
    }

    /// Accesses `(ino, page)`, evicting the LRU page and filling as
    /// needed. A miss takes its frame from the free list (the victim's,
    /// if one was evicted) or else from `alloc_frame`; `None` when that
    /// has no frame left, with no page evicted or installed.
    pub fn touch(
        &mut self,
        ino: Ino,
        page: usize,
        write: bool,
        alloc_frame: impl FnOnce() -> Option<u64>,
    ) -> Option<PageCacheOutcome> {
        self.stamp += 1;
        if let Some(e) = self.resident.get_mut(&(ino, page)) {
            e.stamp = self.stamp;
            if write {
                self.dirty.insert((ino, page));
            }
            return Some(PageCacheOutcome {
                fill: false,
                frame: e.frame,
                evicted: None,
            });
        }
        let mut evicted = None;
        if self.resident.len() >= self.capacity {
            let victim = self
                .resident
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(&k, _)| k);
            if let Some(((v_ino, v_page), e)) = victim.and_then(|k| self.resident.remove_entry(&k))
            {
                self.free.push(e.frame);
                let dirty = self.dirty.remove(&(v_ino, v_page));
                evicted = Some((v_ino, v_page, dirty, e.frame));
            }
        }
        // An eviction frees a frame, so `alloc_frame` runs only when
        // nothing was evicted.
        let frame = self.free.pop().or_else(alloc_frame)?;
        self.resident.insert(
            (ino, page),
            Entry {
                stamp: self.stamp,
                frame,
            },
        );
        if write {
            self.dirty.insert((ino, page));
        }
        Some(PageCacheOutcome {
            fill: true,
            frame,
            evicted,
        })
    }

    /// The frame holding `(ino, page)`, if resident; leaves LRU order
    /// alone.
    pub fn frame(&self, ino: Ino, page: usize) -> Option<u64> {
        self.resident.get(&(ino, page)).map(|e| e.frame)
    }

    /// Removes every page of `ino`, returning the dirty ones as
    /// `(page, frame)` in page order — the close write-back set. The
    /// frames are released in page order; their contents stay readable
    /// until the next miss reuses them.
    pub fn flush_file(&mut self, ino: Ino) -> Vec<(usize, u64)> {
        let mut pages: Vec<(usize, u64)> = self
            .resident
            .iter()
            .filter(|((i, _), _)| *i == ino)
            .map(|(&(_, p), e)| (p, e.frame))
            .collect();
        pages.sort_unstable();
        for &(page, frame) in &pages {
            self.resident.remove(&(ino, page));
            self.free.push(frame);
        }
        let dirty = self.take_dirty(ino);
        pages.retain(|(page, _)| dirty.binary_search(page).is_ok());
        pages
    }

    /// `fsync` semantics: returns the dirty pages of `ino` as
    /// `(page, frame)` in page order and marks them clean, keeping them
    /// resident.
    pub fn clean_file(&mut self, ino: Ino) -> Vec<(usize, u64)> {
        self.take_dirty(ino)
            .into_iter()
            .filter_map(|page| Some((page, self.resident.get(&(ino, page))?.frame)))
            .collect()
    }

    /// Removes `ino`'s pages from the dirty index, returning them in
    /// page order.
    fn take_dirty(&mut self, ino: Ino) -> Vec<usize> {
        let pages: Vec<usize> = self
            .dirty
            .range((ino, 0)..=(ino, usize::MAX))
            .map(|&(_, page)| page)
            .collect();
        for &page in &pages {
            self.dirty.remove(&(ino, page));
        }
        pages
    }

    /// Serializes the cache: LRU stamp, resident entries sorted by
    /// `(ino, page)` key, then the free list verbatim. Sorting is safe —
    /// lookups hash, and eviction order depends only on the per-entry
    /// stamps; the free list pops from its tail, so its order is
    /// behavioral.
    pub fn snap_save(&self, enc: &mut fsencr_snapshot::Enc) {
        enc.put_u64(self.stamp);
        let mut entries: Vec<(&(Ino, usize), &Entry)> = self.resident.iter().collect();
        entries.sort_unstable_by_key(|(&key, _)| key);
        enc.put_u64(entries.len() as u64);
        for (&(ino, page), e) in entries {
            enc.put_u32(ino.get());
            enc.put_u64(page as u64);
            enc.put_u64(e.stamp);
            enc.put_bool(self.dirty.contains(&(ino, page)));
            enc.put_u64(e.frame);
        }
        enc.put_u64(self.free.len() as u64);
        for &f in &self.free {
            enc.put_u64(f);
        }
    }

    /// Restores a cache from [`PageCacheModel::snap_save`] bytes.
    /// `capacity` comes from the live configuration; a snapshot holding
    /// more residents than fit is rejected.
    pub fn snap_load(
        capacity: usize,
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<PageCacheModel, fsencr_snapshot::SnapError> {
        use fsencr_snapshot::SnapError;
        if capacity == 0 {
            return Err(SnapError::StateMismatch);
        }
        let stamp = dec.get_u64()?;
        let n = dec.get_len()?;
        if n > capacity {
            return Err(SnapError::StateMismatch);
        }
        let mut resident = HashMap::with_capacity(n);
        let mut dirty = BTreeSet::new();
        for _ in 0..n {
            let ino = Ino::try_new(dec.get_u32()?).ok_or(SnapError::Corrupt("page cache inode"))?;
            let page = dec.get_len()?;
            let stamp = dec.get_u64()?;
            if dec.get_bool()? {
                dirty.insert((ino, page));
            } else {
                dirty.remove(&(ino, page));
            }
            let frame = dec.get_u64()?;
            resident.insert((ino, page), Entry { stamp, frame });
        }
        let n = dec.get_count(8)?;
        let mut free = Vec::with_capacity(n);
        for _ in 0..n {
            free.push(dec.get_u64()?);
        }
        Ok(PageCacheModel {
            capacity,
            resident,
            dirty,
            free,
            stamp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame allocator handing out 0x1000, 0x2000, ...
    fn frames() -> impl FnMut() -> Option<u64> {
        let mut next = 0;
        move || {
            next += 0x1000;
            Some(next)
        }
    }

    #[test]
    fn fill_once_then_resident() {
        let mut pc = PageCacheModel::new(4);
        let mut alloc = frames();
        let f = Ino::new(1);
        assert!(pc.touch(f, 0, false, &mut alloc).unwrap().fill);
        let again = pc.touch(f, 0, false, &mut alloc).unwrap();
        assert_eq!((again.fill, again.frame), (false, 0x1000));
        assert_eq!(pc.frame(f, 0), Some(0x1000));
        assert_eq!(pc.frame(f, 1), None);
    }

    #[test]
    fn lru_eviction_reports_dirtiness_and_hands_over_the_frame() {
        let mut pc = PageCacheModel::new(2);
        let mut alloc = frames();
        let f = Ino::new(1);
        pc.touch(f, 0, true, &mut alloc).unwrap(); // dirty, frame 0x1000
        pc.touch(f, 1, false, &mut alloc).unwrap(); // clean, frame 0x2000
                                                    // touching page 0 keeps it hot; page 1 is the LRU victim
        pc.touch(f, 0, false, &mut alloc).unwrap();
        let out = pc.touch(f, 2, false, &mut alloc).unwrap();
        assert!(out.fill);
        assert_eq!(out.evicted, Some((f, 1, false, 0x2000)));
        assert_eq!(out.frame, 0x2000, "the fill reuses the victim's frame");
        // next eviction takes the dirty page 0
        let out = pc.touch(f, 3, false, &mut alloc).unwrap();
        assert_eq!(out.evicted, Some((f, 0, true, 0x1000)));
        assert_eq!(alloc(), Some(0x3000), "no frame allocated past capacity");
    }

    #[test]
    fn a_miss_without_a_frame_installs_nothing() {
        let mut pc = PageCacheModel::new(2);
        let f = Ino::new(1);
        assert!(pc.touch(f, 0, false, || None).is_none());
        assert_eq!(pc.frame(f, 0), None);
    }

    #[test]
    fn write_marks_dirty_even_after_clean_fill() {
        let mut pc = PageCacheModel::new(2);
        let mut alloc = frames();
        let f = Ino::new(5);
        pc.touch(f, 0, false, &mut alloc).unwrap();
        pc.touch(f, 0, true, &mut alloc).unwrap();
        pc.touch(f, 1, false, &mut alloc).unwrap();
        let out = pc.touch(f, 2, false, &mut alloc).unwrap();
        assert_eq!(out.evicted, Some((f, 0, true, 0x1000)));
    }

    #[test]
    fn clean_and_flush_return_frames_in_page_order() {
        let mut pc = PageCacheModel::new(8);
        let mut alloc = frames();
        let a = Ino::new(1);
        let b = Ino::new(2);
        pc.touch(a, 3, true, &mut alloc).unwrap(); // 0x1000
        pc.touch(a, 1, false, &mut alloc).unwrap(); // 0x2000
        pc.touch(a, 2, true, &mut alloc).unwrap(); // 0x3000
        pc.touch(b, 0, true, &mut alloc).unwrap(); // 0x4000
        assert_eq!(pc.clean_file(a), vec![(2, 0x3000), (3, 0x1000)]);
        assert!(pc.clean_file(a).is_empty(), "clean pages stay resident");
        pc.touch(a, 1, true, &mut alloc).unwrap();
        let flushed = pc.flush_file(a);
        assert_eq!(
            flushed,
            vec![(1, 0x2000)],
            "only dirty pages are written back"
        );
        assert_eq!(pc.frame(a, 2), None, "clean pages leave too");
        assert_eq!(pc.frame(b, 0), Some(0x4000));
        // Released in page order, reused last-released-first.
        for (page, frame) in [(1, 0x1000), (2, 0x3000), (3, 0x2000), (4, 0x5000)] {
            assert_eq!(pc.touch(b, page, false, &mut alloc).unwrap().frame, frame);
        }
    }

    #[test]
    fn dirty_index_follows_clean_evict_and_reload() {
        let mut pc = PageCacheModel::new(3);
        let mut alloc = frames();
        let (a, b, c) = (Ino::new(1), Ino::new(2), Ino::new(3));
        pc.touch(b, 4, true, &mut alloc).unwrap(); // 0x1000
        pc.touch(a, 9, true, &mut alloc).unwrap(); // 0x2000
        pc.touch(c, 0, true, &mut alloc).unwrap(); // 0x3000
        assert_eq!(pc.clean_file(b), vec![(4, 0x1000)]);
        // Evicting a's dirty page reports it dirty and drops the mark:
        // refilled, it is clean.
        pc.touch(b, 4, false, &mut alloc).unwrap();
        pc.touch(c, 0, false, &mut alloc).unwrap();
        let out = pc.touch(b, 5, false, &mut alloc).unwrap();
        assert_eq!(out.evicted, Some((a, 9, true, 0x2000)));
        pc.touch(a, 9, false, &mut alloc).unwrap();
        assert!(pc.clean_file(a).is_empty());
        let mut enc = fsencr_snapshot::Enc::new();
        enc.begin_section("pc");
        pc.snap_save(&mut enc);
        enc.end_section();
        let image = enc.finish();
        let mut dec = fsencr_snapshot::Dec::new(&image).unwrap();
        dec.begin_section("pc").unwrap();
        let mut loaded = PageCacheModel::snap_load(3, &mut dec).unwrap();
        assert_eq!(loaded.clean_file(c), vec![(0, 0x3000)]);
        assert!(loaded.clean_file(a).is_empty() && loaded.clean_file(b).is_empty());
    }

    #[test]
    fn crypt_cost_scales_with_page() {
        let cfg = SoftEncrConfig::default();
        assert_eq!(cfg.page_crypt_cycles(), 256 * cfg.aes_sw_cycles_per_block);
        assert!(cfg.page_crypt_cycles() > 4000, "page crypto must dominate");
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_panics() {
        PageCacheModel::new(0);
    }
}
