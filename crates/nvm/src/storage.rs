//! Sparse byte-accurate NVM contents.
//!
//! The storage array holds what is *physically* on the DIMM: ciphertext for
//! encrypted lines, metadata blocks, Merkle nodes. Pages are allocated
//! lazily on first touch so a 16 GiB device costs only what the workload
//! actually uses. Untouched bytes read as zero, matching a freshly
//! manufactured device.
//!
//! Line traffic is heavily page-local (64 consecutive lines share a 4 KiB
//! frame), so the store keeps the most recently accessed frame *out* of
//! the page map in a one-entry memo: a run of line accesses to one page
//! pays a single map probe instead of one per 64-byte line. The page
//! map is an [`AddrMap`] keyed by frame number, so a probe costs one
//! multiply rather than a SipHash round, and its iteration order (e.g.
//! [`Storage::frames`]) is the same in every process.

use fsencr_faults::StuckCells;

use crate::addr::{AddrMap, LineAddr, PageId, PhysAddr, LINE_BYTES, PAGE_BYTES, PAGE_MASK};

/// Sparse page-granular byte store.
///
/// # Examples
///
/// ```
/// use fsencr_nvm::{PhysAddr, Storage};
///
/// let mut s = Storage::new();
/// s.write(PhysAddr::new(10), b"hello");
/// let mut buf = [0u8; 5];
/// s.read(PhysAddr::new(10), &mut buf);
/// assert_eq!(&buf, b"hello");
/// ```
#[derive(Debug, Default, Clone)]
pub struct Storage {
    pages: AddrMap<Box<[u8; PAGE_BYTES]>>,
    /// Most recently accessed resident frame, held out of `pages`. A
    /// frame lives in exactly one of the two places, so every accessor
    /// checks the memo before (or instead of) probing the map.
    last: Option<(u64, Box<[u8; PAGE_BYTES]>)>,
    /// Wear-out overlay installed by the fault injector: stuck bits are
    /// forced on every *line write* through the array — including raw
    /// debug pokes — exactly like physically worn cells. `None` (the
    /// default) costs a single branch per line write.
    stuck: Option<Box<StuckCells>>,
}

impl Storage {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Storage::default()
    }

    /// Number of pages that have been touched.
    pub fn resident_pages(&self) -> usize {
        self.pages.len() + usize::from(self.last.is_some())
    }

    /// Moves `frame` into the memo slot, allocating it on first touch,
    /// and returns its bytes. At most one map insert + one removal per
    /// frame *run*; repeat accesses to the memoized frame are probe-free.
    fn frame_mut(&mut self, frame: u64) -> &mut [u8; PAGE_BYTES] {
        let hit = matches!(&self.last, Some((f, _)) if *f == frame);
        if !hit {
            if let Some((f, page)) = self.last.take() {
                self.pages.insert(f, page);
            }
            let page = self
                .pages
                .remove(&frame)
                .unwrap_or_else(|| Box::new([0u8; PAGE_BYTES]));
            self.last = Some((frame, page));
        }
        // The memo is guaranteed occupied here; the fallback insert is
        // unreachable and exists only to avoid a panicking unwrap.
        let (_, page) = self
            .last
            .get_or_insert_with(|| (frame, Box::new([0u8; PAGE_BYTES])));
        page
    }

    /// Promotes `frame` into the memo slot if it is resident, without
    /// allocating. Read paths use this so untouched pages stay untouched.
    fn promote(&mut self, frame: u64) {
        if matches!(&self.last, Some((f, _)) if *f == frame) {
            return;
        }
        if let Some(page) = self.pages.remove(&frame) {
            if let Some((f, old)) = self.last.take() {
                self.pages.insert(f, old);
            }
            self.last = Some((frame, page));
        }
    }

    /// Borrows a whole resident page (`None` if untouched). Batched
    /// readers call this once per 4 KiB frame and slice lines out of the
    /// borrow instead of paying a map probe per line.
    pub fn page_ref(&self, page: PageId) -> Option<&[u8; PAGE_BYTES]> {
        match &self.last {
            Some((f, p)) if *f == page.get() => Some(p),
            _ => self.pages.get(&page.get()).map(|b| &**b),
        }
    }

    /// Reads `buf.len()` bytes starting at `addr` (DF-bit ignored).
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) {
        let mut pos = addr.strip_df().get();
        let mut remaining = buf;
        while !remaining.is_empty() {
            let frame = pos / PAGE_BYTES as u64;
            let offset = (pos & PAGE_MASK) as usize;
            let take = remaining.len().min(PAGE_BYTES - offset);
            match self.page_ref(PageId::new(frame)) {
                Some(page) => remaining[..take].copy_from_slice(&page[offset..offset + take]),
                None => remaining[..take].fill(0),
            }
            remaining = &mut remaining[take..];
            pos += take as u64;
        }
    }

    /// Writes `data` starting at `addr` (DF-bit ignored).
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        let mut pos = addr.strip_df().get();
        let mut remaining = data;
        while !remaining.is_empty() {
            let frame = pos / PAGE_BYTES as u64;
            let offset = (pos & PAGE_MASK) as usize;
            let take = remaining.len().min(PAGE_BYTES - offset);
            let page = self.frame_mut(frame);
            page[offset..offset + take].copy_from_slice(&remaining[..take]);
            remaining = &remaining[take..];
            pos += take as u64;
        }
    }

    /// Reads one 64-byte line.
    pub fn read_line(&self, line: LineAddr) -> [u8; LINE_BYTES] {
        let pos = line.get();
        let frame = pos / PAGE_BYTES as u64;
        let offset = (pos & PAGE_MASK) as usize;
        let mut buf = [0u8; LINE_BYTES];
        if let Some(page) = self.page_ref(PageId::new(frame)) {
            buf.copy_from_slice(&page[offset..offset + LINE_BYTES]);
        }
        buf
    }

    /// Like [`Storage::read_line`] but refreshes the last-page memo, so a
    /// run of line reads within one page probes the map once. Does not
    /// allocate: untouched pages still read as zero and stay untouched.
    pub fn read_line_hot(&mut self, line: LineAddr) -> [u8; LINE_BYTES] {
        let pos = line.get();
        let frame = pos / PAGE_BYTES as u64;
        let offset = (pos & PAGE_MASK) as usize;
        self.promote(frame);
        let mut buf = [0u8; LINE_BYTES];
        if let Some((f, page)) = &self.last {
            if *f == frame {
                buf.copy_from_slice(&page[offset..offset + LINE_BYTES]);
            }
        }
        buf
    }

    /// Writes one 64-byte line.
    pub fn write_line(&mut self, line: LineAddr, data: &[u8; LINE_BYTES]) {
        let pos = line.get();
        let frame = pos / PAGE_BYTES as u64;
        let offset = (pos & PAGE_MASK) as usize;
        let page = self.frame_mut(frame);
        page[offset..offset + LINE_BYTES].copy_from_slice(data);
        if self.stuck.is_some() {
            // Briefly lift the overlay out of `self` so the stuck masks
            // can be applied to the memoized frame without aliasing it.
            let stuck = self.stuck.take();
            if let Some(cells) = &stuck {
                let page = self.frame_mut(frame);
                cells.apply(pos, &mut page[offset..offset + LINE_BYTES]);
            }
            self.stuck = stuck;
        }
    }

    /// Installs (or clears) the wear-out overlay. Passing `None` heals
    /// every stuck cell — used when the fault injector is disarmed.
    pub fn set_stuck_cells(&mut self, cells: Option<StuckCells>) {
        self.stuck = cells.map(Box::new);
    }

    /// Mutable wear-out overlay, installing an empty one on first use
    /// (the fault injector registers newly worn cells through this).
    pub fn stuck_cells_mut(&mut self) -> &mut StuckCells {
        self.stuck.get_or_insert_with(Default::default)
    }

    /// Iterates the frame numbers of every touched page — what a physical
    /// attacker scanning the DIMM would enumerate.
    pub fn frames(&self) -> impl Iterator<Item = u64> + '_ {
        self.pages
            .keys()
            .copied()
            .chain(self.last.iter().map(|(f, _)| *f))
    }

    /// Returns a copy of a whole page (zeroes if untouched).
    pub fn snapshot_page(&self, page: PageId) -> [u8; PAGE_BYTES] {
        match self.page_ref(page) {
            Some(p) => *p,
            None => [0u8; PAGE_BYTES],
        }
    }

    /// Serializes every resident frame in sorted frame order. The memo
    /// slot is folded in transparently — where a frame physically lives
    /// is a host-side cache detail, not media state. Fails while a
    /// wear-out overlay is installed: stuck cells belong to an armed
    /// fault campaign, which must be disarmed before checkpointing.
    pub fn snap_save(
        &self,
        enc: &mut fsencr_snapshot::Enc,
    ) -> Result<(), fsencr_snapshot::SnapError> {
        if self.stuck.is_some() {
            return Err(fsencr_snapshot::SnapError::InjectorArmed);
        }
        let mut frames: Vec<u64> = Vec::with_capacity(self.resident_pages());
        frames.extend(self.frames());
        frames.sort_unstable();
        enc.put_u64(frames.len() as u64);
        for f in frames {
            enc.put_u64(f);
            match self.page_ref(PageId::new(f)) {
                Some(page) => enc.put_bytes(&page[..]),
                None => enc.put_bytes(&[0u8; PAGE_BYTES]),
            }
        }
        Ok(())
    }

    /// Restores a store from [`Storage::snap_save`] bytes. The memo slot
    /// starts empty and no overlay is installed.
    pub fn snap_load(
        dec: &mut fsencr_snapshot::Dec<'_>,
    ) -> Result<Storage, fsencr_snapshot::SnapError> {
        let n = dec.get_count(8 + PAGE_BYTES)?;
        let mut pages = AddrMap::with_capacity_and_hasher(n, Default::default());
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let frame = dec.get_u64()?;
            if prev.is_some_and(|p| p >= frame) {
                return Err(fsencr_snapshot::SnapError::Corrupt("frame order"));
            }
            prev = Some(frame);
            let bytes = dec.get_bytes(PAGE_BYTES)?;
            let mut page = Box::new([0u8; PAGE_BYTES]);
            page.copy_from_slice(bytes);
            pages.insert(frame, page);
        }
        Ok(Storage {
            pages,
            last: None,
            stuck: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_by_default() {
        let s = Storage::new();
        let mut buf = [0xffu8; 32];
        s.read(PhysAddr::new(123456), &mut buf);
        assert_eq!(buf, [0u8; 32]);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut s = Storage::new();
        let data: Vec<u8> = (0..100).collect();
        s.write(PhysAddr::new(500), &data);
        let mut buf = vec![0u8; 100];
        s.read(PhysAddr::new(500), &mut buf);
        assert_eq!(buf, data);
        assert_eq!(s.resident_pages(), 1);
    }

    #[test]
    fn cross_page_write() {
        let mut s = Storage::new();
        let data = vec![0xabu8; 10000]; // spans 3+ pages
        s.write(PhysAddr::new(4000), &data);
        let mut buf = vec![0u8; 10000];
        s.read(PhysAddr::new(4000), &mut buf);
        assert_eq!(buf, data);
        assert!(s.resident_pages() >= 3);
        // bytes before the write remain zero
        let mut pre = [0u8; 16];
        s.read(PhysAddr::new(3984), &mut pre);
        assert_eq!(pre, [0u8; 16]);
    }

    #[test]
    fn line_interface() {
        let mut s = Storage::new();
        let line = LineAddr::new(8192 + 128);
        let mut data = [0u8; LINE_BYTES];
        for (i, d) in data.iter_mut().enumerate() {
            *d = i as u8;
        }
        s.write_line(line, &data);
        assert_eq!(s.read_line(line), data);
        // adjacent lines untouched
        assert_eq!(s.read_line(LineAddr::new(8192 + 192)), [0u8; LINE_BYTES]);
    }

    #[test]
    fn df_bit_is_transparent() {
        let mut s = Storage::new();
        s.write(PhysAddr::new(64).with_df(), b"secret");
        let mut buf = [0u8; 6];
        s.read(PhysAddr::new(64), &mut buf);
        assert_eq!(&buf, b"secret");
    }

    #[test]
    fn overwrite_replaces() {
        let mut s = Storage::new();
        s.write(PhysAddr::new(0), b"aaaa");
        s.write(PhysAddr::new(2), b"bb");
        let mut buf = [0u8; 4];
        s.read(PhysAddr::new(0), &mut buf);
        assert_eq!(&buf, b"aabb");
    }

    #[test]
    fn memo_survives_interleaved_frames() {
        let mut s = Storage::new();
        // Alternate writes across two frames: each switch flushes the
        // memoized page back into the map without losing data.
        for i in 0..8u8 {
            s.write_line(LineAddr::new(u64::from(i % 2) * 4096), &[i; LINE_BYTES]);
        }
        assert_eq!(s.read_line(LineAddr::new(0)), [6u8; LINE_BYTES]);
        assert_eq!(s.read_line(LineAddr::new(4096)), [7u8; LINE_BYTES]);
        assert_eq!(s.resident_pages(), 2);
        let mut frames: Vec<u64> = s.frames().collect();
        frames.sort_unstable();
        assert_eq!(frames, vec![0, 1]);
    }

    #[test]
    fn hot_reads_do_not_allocate() {
        let mut s = Storage::new();
        assert_eq!(s.read_line_hot(LineAddr::new(64 * 4096)), [0u8; LINE_BYTES]);
        assert_eq!(s.resident_pages(), 0);
        s.write_line(LineAddr::new(0), &[1u8; LINE_BYTES]);
        // A hot read of another resident page promotes it into the memo
        // and keeps frame enumeration intact.
        s.write_line(LineAddr::new(4096), &[2u8; LINE_BYTES]);
        assert_eq!(s.read_line_hot(LineAddr::new(0)), [1u8; LINE_BYTES]);
        assert_eq!(s.resident_pages(), 2);
    }
}
