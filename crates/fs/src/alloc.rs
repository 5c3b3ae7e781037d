//! Page allocation for the persistent region.
//!
//! A simple first-fit free-list allocator over the page frames of the
//! DAX-formatted region. Frames are handed out lowest-first so that
//! sequential file growth produces sequential physical placement — the
//! locality real extent allocators aim for, and what the row-buffer and
//! counter-block models reward.

use fsencr_nvm::PageId;
use fsencr_snapshot::{Dec, Enc, SnapError};

/// Allocates 4 KiB page frames from a contiguous persistent region.
///
/// # Examples
///
/// ```
/// use fsencr_fs::PageAllocator;
///
/// let mut a = PageAllocator::new(100, 4);
/// let p = a.alloc().unwrap();
/// assert_eq!(p.get(), 100);
/// a.free(p);
/// assert_eq!(a.alloc().unwrap().get(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct PageAllocator {
    base: u64,
    pages: u64,
    /// Min-heap of freed frames (stored negated would be a max-heap; we
    /// use a sorted Vec popped from the end for lowest-first reuse).
    free: Vec<u64>,
    /// Next never-allocated frame.
    next: u64,
}

impl PageAllocator {
    /// Creates an allocator over frames `[base, base + pages)`.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn new(base: u64, pages: u64) -> Self {
        assert!(pages > 0, "region must contain at least one page");
        PageAllocator {
            base,
            pages,
            free: Vec::new(),
            next: 0,
        }
    }

    /// Allocates the lowest available frame, or `None` when full.
    pub fn alloc(&mut self) -> Option<PageId> {
        let frame = if let Some(&lowest) = self.free.last() {
            self.free.pop();
            lowest
        } else if self.next < self.pages {
            let f = self.base + self.next;
            self.next += 1;
            f
        } else {
            return None;
        };
        Some(PageId::new(frame))
    }

    /// Returns a frame to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the frame is outside the region or already free
    /// (double-free).
    #[expect(
        clippy::panic,
        reason = "a double free is a kernel bug, not input: DaxFs frees only frames its \
                  inodes map, and DaxFs::snap_load rejects a frame mapped twice or left \
                  on the free list"
    )]
    pub fn free(&mut self, page: PageId) {
        let frame = page.get();
        assert!(
            frame >= self.base && frame < self.base + self.pages,
            "frame {frame} outside region"
        );
        assert!(
            frame < self.base + self.next,
            "frame {frame} was never allocated"
        );
        match self.free.binary_search_by(|f| frame.cmp(f)) {
            Ok(_) => panic!("double free of frame {frame}"),
            Err(pos) => self.free.insert(pos, frame),
        }
    }

    /// Serializes the allocator: region, high-water mark and the free
    /// list in its held (strictly descending) order.
    pub fn snap_save(&self, enc: &mut Enc) {
        enc.put_u64(self.base);
        enc.put_u64(self.pages);
        enc.put_u64(self.next);
        enc.put_u64(self.free.len() as u64);
        for &f in &self.free {
            enc.put_u64(f);
        }
    }

    /// Restores an allocator from [`PageAllocator::snap_save`] bytes.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] for a region that overflows the frame
    /// space, a high-water mark beyond the region, or a free list that is
    /// not strictly descending inside the allocated prefix.
    pub fn snap_load(dec: &mut Dec<'_>) -> Result<PageAllocator, SnapError> {
        let base = dec.get_u64()?;
        let pages = dec.get_u64()?;
        let next = dec.get_u64()?;
        if base.checked_add(pages).is_none() || next > pages {
            return Err(SnapError::Corrupt("allocator region"));
        }
        let n = dec.get_count(8)?;
        let mut free: Vec<u64> = Vec::with_capacity(n);
        for _ in 0..n {
            let f = dec.get_u64()?;
            let in_prefix = f >= base && f - base < next;
            if !in_prefix || free.last().is_some_and(|&prev| prev <= f) {
                return Err(SnapError::Corrupt("allocator free list"));
            }
            free.push(f);
        }
        Ok(PageAllocator {
            base,
            pages,
            free,
            next,
        })
    }

    /// Whether `frame` is currently handed out: inside the allocated
    /// prefix and not on the free list.
    pub(crate) fn is_allocated(&self, frame: u64) -> bool {
        frame >= self.base
            && frame - self.base < self.next
            && self.free.binary_search_by(|f| frame.cmp(f)).is_err()
    }

    /// Frames still available.
    pub fn available(&self) -> u64 {
        self.pages - (self.next - self.free.len() as u64)
    }

    /// The managed frames as `(first frame, frame count)`.
    pub fn region(&self) -> (u64, u64) {
        (self.base, self.pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_allocation() {
        let mut a = PageAllocator::new(10, 5);
        let frames: Vec<u64> = (0..5).map(|_| a.alloc().unwrap().get()).collect();
        assert_eq!(frames, vec![10, 11, 12, 13, 14]);
        assert!(a.alloc().is_none());
        assert_eq!(a.available(), 0);
    }

    #[test]
    fn freed_frames_are_reused_lowest_first() {
        let mut a = PageAllocator::new(0, 10);
        let pages: Vec<PageId> = (0..10).map(|_| a.alloc().unwrap()).collect();
        a.free(pages[7]);
        a.free(pages[2]);
        a.free(pages[5]);
        assert_eq!(a.alloc().unwrap().get(), 2);
        assert_eq!(a.alloc().unwrap().get(), 5);
        assert_eq!(a.alloc().unwrap().get(), 7);
        assert!(a.alloc().is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = PageAllocator::new(0, 2);
        let p = a.alloc().unwrap();
        a.free(p);
        a.free(p);
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn foreign_frame_panics() {
        let mut a = PageAllocator::new(100, 2);
        a.free(PageId::new(99));
    }

    #[test]
    #[should_panic(expected = "never allocated")]
    fn unallocated_frame_panics() {
        let mut a = PageAllocator::new(0, 10);
        a.alloc();
        a.free(PageId::new(5));
    }

    #[test]
    fn capacity_accounting() {
        let mut a = PageAllocator::new(0, 3);
        assert_eq!(a.region(), (0, 3));
        a.alloc();
        assert_eq!(a.available(), 2);
    }
}
