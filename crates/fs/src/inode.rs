//! Inodes.

use fsencr_crypto::KeyWrap;
use fsencr_nvm::PageId;

use crate::perm::{GroupId, Mode, UserId};

/// An inode number. Limited to 14 bits because the FECB embeds the File
/// ID in 14 bits (Figure 6) — the paper's `mapping->host->i_ino`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ino(u32);

impl Ino {
    /// Exclusive upper bound (14-bit file IDs).
    pub const LIMIT: u32 = 1 << 14;

    /// Creates an inode number.
    ///
    /// # Panics
    ///
    /// Panics if `ino` exceeds 14 bits.
    pub const fn new(ino: u32) -> Self {
        assert!(ino < Ino::LIMIT, "inode number exceeds 14 bits");
        Ino(ino)
    }

    /// Checked constructor for decoded input: `None` at or above
    /// [`Ino::LIMIT`].
    pub const fn try_new(ino: u32) -> Option<Self> {
        if ino < Ino::LIMIT {
            Some(Ino(ino))
        } else {
            None
        }
    }

    /// Raw value.
    pub const fn get(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for Ino {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ino:{}", self.0)
    }
}

/// Per-file encryption material stored in the inode: the wrapped FEK.
/// The plaintext FEK never touches filesystem metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileCrypto {
    /// FEK wrapped under the owner's passphrase-derived KEK.
    pub wrapped_fek: KeyWrap,
}

/// A file's metadata plus its page placement.
#[derive(Debug, Clone)]
pub struct Inode {
    ino: Ino,
    owner: UserId,
    group: GroupId,
    mode: Mode,
    size: u64,
    /// Physical frame per file page index; `None` = hole (never written).
    pages: Vec<Option<PageId>>,
    crypto: Option<FileCrypto>,
}

impl Inode {
    /// Creates a fresh empty inode.
    pub fn new(
        ino: Ino,
        owner: UserId,
        group: GroupId,
        mode: Mode,
        crypto: Option<FileCrypto>,
    ) -> Self {
        Inode {
            ino,
            owner,
            group,
            mode,
            size: 0,
            pages: Vec::new(),
            crypto,
        }
    }

    /// Inode number (the File ID sent to the memory controller).
    pub fn ino(&self) -> Ino {
        self.ino
    }

    /// Owning user.
    pub fn owner(&self) -> UserId {
        self.owner
    }

    /// Owning group (the Group ID sent to the memory controller).
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Permission bits.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Logical file size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Whether the file is encrypted.
    pub fn is_encrypted(&self) -> bool {
        self.crypto.is_some()
    }

    /// The wrapped key material, if encrypted.
    pub fn crypto(&self) -> Option<&FileCrypto> {
        self.crypto.as_ref()
    }

    /// Replaces the wrapped key (key rotation).
    pub fn set_crypto(&mut self, crypto: Option<FileCrypto>) {
        self.crypto = crypto;
    }

    /// Changes permission bits (`chmod`).
    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
    }

    /// Changes ownership (`chown`).
    pub fn set_owner(&mut self, owner: UserId, group: GroupId) {
        self.owner = owner;
        self.group = group;
    }

    /// Grows the logical size to at least `size`.
    pub fn grow_to(&mut self, size: u64) {
        self.size = self.size.max(size);
    }

    /// The frame backing file page `idx`, if allocated.
    pub fn page(&self, idx: usize) -> Option<PageId> {
        self.pages.get(idx).copied().flatten()
    }

    /// Records the frame backing file page `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the page is already mapped (placement is immutable until
    /// truncate/unlink).
    pub fn map_page(&mut self, idx: usize, frame: PageId) {
        if self.pages.len() <= idx {
            self.pages.resize(idx + 1, None);
        }
        assert!(self.pages[idx].is_none(), "page {idx} already mapped");
        self.pages[idx] = Some(frame);
    }

    /// Number of page slots (holes included).
    pub fn page_slots(&self) -> usize {
        self.pages.len()
    }

    /// Iterates the allocated frames (for unlink and shredding).
    pub fn mapped_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.pages.iter().filter_map(|p| *p)
    }

    /// Drops all page mappings, returning the frames for deallocation.
    pub fn take_pages(&mut self) -> Vec<PageId> {
        let frames = self.pages.iter().filter_map(|p| *p).collect();
        self.pages.clear();
        self.size = 0;
        frames
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Inode {
        Inode::new(
            Ino::new(3),
            UserId::new(1),
            GroupId::new(2),
            Mode::PRIVATE,
            None,
        )
    }

    #[test]
    fn fresh_inode_is_empty() {
        let n = node();
        assert_eq!(n.size(), 0);
        assert_eq!(n.page_slots(), 0);
        assert!(!n.is_encrypted());
        assert_eq!(n.page(0), None);
        assert_eq!(n.ino().get(), 3);
        assert_eq!(format!("{}", n.ino()), "ino:3");
    }

    #[test]
    fn page_mapping_with_holes() {
        let mut n = node();
        n.map_page(2, PageId::new(100));
        assert_eq!(n.page_slots(), 3);
        assert_eq!(n.page(0), None);
        assert_eq!(n.page(2), Some(PageId::new(100)));
        n.map_page(0, PageId::new(50));
        let pages: Vec<u64> = n.mapped_pages().map(|p| p.get()).collect();
        assert_eq!(pages, vec![50, 100]);
    }

    #[test]
    #[should_panic(expected = "already mapped")]
    fn double_map_panics() {
        let mut n = node();
        n.map_page(0, PageId::new(1));
        n.map_page(0, PageId::new(2));
    }

    #[test]
    fn take_pages_resets() {
        let mut n = node();
        n.map_page(0, PageId::new(1));
        n.map_page(1, PageId::new(2));
        n.grow_to(5000);
        let taken = n.take_pages();
        assert_eq!(taken.len(), 2);
        assert_eq!(n.size(), 0);
        assert_eq!(n.page_slots(), 0);
    }

    #[test]
    fn grow_is_monotonic() {
        let mut n = node();
        n.grow_to(100);
        n.grow_to(50);
        assert_eq!(n.size(), 100);
    }

    #[test]
    fn chmod_chown() {
        let mut n = node();
        n.set_mode(Mode::WIDE_OPEN);
        assert_eq!(n.mode(), Mode::WIDE_OPEN);
        n.set_owner(UserId::new(9), GroupId::new(8));
        assert_eq!(n.owner(), UserId::new(9));
        assert_eq!(n.group().get(), 8);
    }

    #[test]
    #[should_panic(expected = "exceeds 14 bits")]
    fn ino_limit() {
        assert_eq!(Ino::try_new(Ino::LIMIT), None);
        assert_eq!(Ino::try_new(Ino::LIMIT - 1), Some(Ino::new(Ino::LIMIT - 1)));
        Ino::new(Ino::LIMIT);
    }
}
