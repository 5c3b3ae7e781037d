//! The DAX filesystem: namespace, permissions, placement, keys.
//!
//! `DaxFs` is the kernel-side model. It owns no simulated-memory traffic —
//! the machine layer (crate `fsencr`) performs the actual loads and stores
//! — but it decides everything the kernel decides: which physical frame
//! backs which file page, who may open what, and how file keys are
//! created, wrapped, unwrapped and destroyed.

use std::collections::{BTreeMap, HashMap, HashSet};

use fsencr_crypto::Key128;
use fsencr_nvm::{PageId, PAGE_BYTES};
use fsencr_sim::SplitMix64;
use fsencr_snapshot::{Dec, Enc, SnapError};

use crate::alloc::PageAllocator;
use crate::error::FsError;
use crate::inode::{FileCrypto, Ino, Inode};
use crate::keyring::Keyring;
use crate::perm::{AccessKind, GroupId, Mode, UserId};

/// What `open`/`create` hand back: everything the machine needs to issue
/// the MMIO key-install to the memory controller.
#[derive(Debug, Clone, Copy)]
pub struct FileHandle {
    /// The file's inode number (File ID).
    pub ino: Ino,
    /// The file's group (Group ID).
    pub group: GroupId,
    /// The unwrapped FEK for encrypted files; `None` for plain files.
    pub fek: Option<Key128>,
    /// Whether the handle permits writes (create and `AccessKind::Write`
    /// opens do; read-only opens do not).
    pub writable: bool,
}

/// Result of materialising a file page (DAX page-fault path).
#[derive(Debug, Clone, Copy)]
pub struct PageFault {
    /// The physical frame now backing the page.
    pub frame: PageId,
    /// Whether the PTE must carry the DF-bit (encrypted DAX file).
    pub df: bool,
    /// Group ID to stamp into the page's FECB.
    pub group: GroupId,
    /// File ID to stamp into the page's FECB.
    pub ino: Ino,
    /// Whether the frame was freshly allocated by this fault.
    pub newly_allocated: bool,
}

/// Result of `unlink`: what the machine must tell the controller.
#[derive(Debug, Clone)]
pub struct Unlinked {
    /// Frames to shred and return to the allocator's pool.
    pub freed: Vec<PageId>,
    /// The deleted file's group.
    pub group: GroupId,
    /// The deleted file's inode number.
    pub ino: Ino,
    /// Whether a key must be removed from the OTT.
    pub was_encrypted: bool,
}

/// The DAX-mounted filesystem.
///
/// # Examples
///
/// ```
/// use fsencr_fs::{AccessKind, DaxFs, GroupId, Mode, UserId};
///
/// let mut fs = DaxFs::format(1000, 64, 42);
/// let alice = UserId::new(1);
/// let handle = fs
///     .create(alice, GroupId::new(1), "db.log", Mode::PRIVATE, Some("pw"))
///     .unwrap();
/// assert!(handle.fek.is_some());
/// let again = fs
///     .open(alice, &[GroupId::new(1)], "db.log", AccessKind::Read, Some("pw"))
///     .unwrap();
/// assert_eq!(again.fek, handle.fek);
/// ```
#[derive(Debug)]
pub struct DaxFs {
    inodes: HashMap<u32, Inode>,
    names: BTreeMap<String, u32>,
    alloc: PageAllocator,
    keyring: Keyring,
    /// FEK generator: persisted with the filesystem so a remount never
    /// reissues a key.
    feks: SplitMix64,
    next_ino: u32,
    free_inos: Vec<u32>,
}

impl DaxFs {
    /// Formats a filesystem over frames `[base_page, base_page + pages)`.
    pub fn format(base_page: u64, pages: u64, seed: u64) -> Self {
        DaxFs {
            inodes: HashMap::new(),
            names: BTreeMap::new(),
            alloc: PageAllocator::new(base_page, pages),
            keyring: Keyring::default(),
            feks: SplitMix64::new(seed ^ 0x6b65_7972_696e_6700),
            next_ino: 1, // ino 0 is reserved
            free_inos: Vec::new(),
        }
    }

    /// The kernel keyring (session restore).
    pub fn keyring_mut(&mut self) -> &mut Keyring {
        &mut self.keyring
    }

    /// Read-only keyring access (snapshot serialization).
    pub fn keyring(&self) -> &Keyring {
        &self.keyring
    }

    /// Convenience: derive and store a session KEK for `user`.
    pub fn login(&mut self, user: UserId, passphrase: &str) {
        self.keyring.login(user, passphrase);
    }

    fn generate_fek(&mut self) -> Key128 {
        let mut bytes = [0u8; 16];
        self.feks.fill_bytes(&mut bytes);
        Key128::from_bytes(bytes)
    }

    fn alloc_ino(&mut self) -> Result<Ino, FsError> {
        if let Some(i) = self.free_inos.pop() {
            return Ok(Ino::new(i));
        }
        if self.next_ino >= Ino::LIMIT {
            return Err(FsError::TooManyFiles);
        }
        let i = self.next_ino;
        self.next_ino += 1;
        Ok(Ino::new(i))
    }

    /// Creates a file. With a passphrase, the file is encrypted: a fresh
    /// FEK is generated, wrapped under the owner's passphrase-derived KEK,
    /// and returned in the handle so the machine can install it in the
    /// controller's OTT.
    ///
    /// # Errors
    ///
    /// [`FsError::AlreadyExists`] for duplicate names,
    /// [`FsError::TooManyFiles`] when the 14-bit ID space is exhausted.
    pub fn create(
        &mut self,
        owner: UserId,
        group: GroupId,
        name: &str,
        mode: Mode,
        passphrase: Option<&str>,
    ) -> Result<FileHandle, FsError> {
        if name.is_empty() {
            return Err(FsError::InvalidArgument("empty file name"));
        }
        if self.names.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.alloc_ino()?;
        let (crypto, fek) = match passphrase {
            Some(pw) => {
                let fek = self.generate_fek();
                let kek = Keyring::kek_for(pw, owner);
                let wrapped = fsencr_crypto::KeyWrap::wrap(&kek, &fek);
                (
                    Some(FileCrypto {
                        wrapped_fek: wrapped,
                    }),
                    Some(fek),
                )
            }
            None => (None, None),
        };
        let inode = Inode::new(ino, owner, group, mode, crypto);
        self.inodes.insert(ino.get(), inode);
        self.names.insert(name.to_string(), ino.get());
        Ok(FileHandle {
            ino,
            group,
            fek,
            writable: true,
        })
    }

    fn lookup(&self, name: &str) -> Result<&Inode, FsError> {
        self.names
            .get(name)
            .and_then(|ino| self.inodes.get(ino))
            .ok_or(FsError::NotFound)
    }

    fn check_access(
        inode: &Inode,
        user: UserId,
        groups: &[GroupId],
        kind: AccessKind,
    ) -> Result<(), FsError> {
        if user.is_root() {
            return Ok(());
        }
        let is_owner = inode.owner() == user;
        let in_group = groups.contains(&inode.group());
        if inode.mode().allows(kind, is_owner, in_group) {
            Ok(())
        } else {
            Err(FsError::PermissionDenied)
        }
    }

    /// Opens a file, enforcing both the POSIX mode *and* — for encrypted
    /// files — the passphrase check of Section VI ("a wrong passphrase
    /// will deny the opening of the file" even when the mode would allow
    /// it, e.g. after an accidental `chmod 777`).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::PermissionDenied`],
    /// [`FsError::PassphraseRequired`], or [`FsError::BadPassphrase`].
    pub fn open(
        &self,
        user: UserId,
        groups: &[GroupId],
        name: &str,
        kind: AccessKind,
        passphrase: Option<&str>,
    ) -> Result<FileHandle, FsError> {
        let inode = self.lookup(name)?;
        Self::check_access(inode, user, groups, kind)?;
        let fek = match inode.crypto() {
            Some(c) => {
                let pw = passphrase.ok_or(FsError::PassphraseRequired)?;
                let fek = self
                    .keyring
                    .unwrap_with(pw, inode.owner(), &c.wrapped_fek)
                    .ok_or(FsError::BadPassphrase)?;
                Some(fek)
            }
            None => None,
        };
        Ok(FileHandle {
            ino: inode.ino(),
            group: inode.group(),
            fek,
            writable: kind == AccessKind::Write,
        })
    }

    /// Renames a file (owner or root only).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`], [`FsError::AlreadyExists`], or
    /// [`FsError::PermissionDenied`].
    pub fn rename(&mut self, user: UserId, from: &str, to: &str) -> Result<(), FsError> {
        if to.is_empty() {
            return Err(FsError::InvalidArgument("empty file name"));
        }
        if self.names.contains_key(to) {
            return Err(FsError::AlreadyExists);
        }
        let ino = *self.names.get(from).ok_or(FsError::NotFound)?;
        let inode = self.inodes.get(&ino).ok_or(FsError::NotFound)?;
        if !user.is_root() && inode.owner() != user {
            return Err(FsError::PermissionDenied);
        }
        self.names.remove(from);
        self.names.insert(to.to_string(), ino);
        Ok(())
    }

    /// Materialises file page `page_idx`, allocating a frame on first
    /// touch — the kernel half of the DAX page fault.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when the persistent region is full.
    pub fn ensure_page(&mut self, ino: Ino, page_idx: usize) -> Result<PageFault, FsError> {
        let inode = self.inodes.get_mut(&ino.get()).ok_or(FsError::NotFound)?;
        if let Some(frame) = inode.page(page_idx) {
            return Ok(PageFault {
                frame,
                df: inode.is_encrypted(),
                group: inode.group(),
                ino,
                newly_allocated: false,
            });
        }
        let frame = self.alloc.alloc().ok_or(FsError::NoSpace)?;
        inode.map_page(page_idx, frame);
        inode.grow_to((page_idx as u64 + 1) * PAGE_BYTES as u64);
        Ok(PageFault {
            frame,
            df: inode.is_encrypted(),
            group: inode.group(),
            ino,
            newly_allocated: true,
        })
    }

    /// Deletes a file (owner or root only), freeing its frames.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] or [`FsError::PermissionDenied`].
    pub fn unlink(&mut self, user: UserId, name: &str) -> Result<Unlinked, FsError> {
        let ino = *self.names.get(name).ok_or(FsError::NotFound)?;
        let inode = self.inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
        if !user.is_root() && inode.owner() != user {
            return Err(FsError::PermissionDenied);
        }
        let freed = inode.take_pages();
        let result = Unlinked {
            freed: freed.clone(),
            group: inode.group(),
            ino: inode.ino(),
            was_encrypted: inode.is_encrypted(),
        };
        for frame in freed {
            self.alloc.free(frame);
        }
        self.names.remove(name);
        self.inodes.remove(&ino);
        self.free_inos.push(ino);
        Ok(result)
    }

    /// `chmod` (owner or root only).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] or [`FsError::PermissionDenied`].
    pub fn chmod(&mut self, user: UserId, name: &str, mode: Mode) -> Result<(), FsError> {
        let ino = *self.names.get(name).ok_or(FsError::NotFound)?;
        let inode = self.inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
        if !user.is_root() && inode.owner() != user {
            return Err(FsError::PermissionDenied);
        }
        inode.set_mode(mode);
        Ok(())
    }

    /// `chown` (root only).
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`] or [`FsError::PermissionDenied`].
    pub fn chown(
        &mut self,
        user: UserId,
        name: &str,
        owner: UserId,
        group: GroupId,
    ) -> Result<(), FsError> {
        if !user.is_root() {
            return Err(FsError::PermissionDenied);
        }
        let ino = *self.names.get(name).ok_or(FsError::NotFound)?;
        let inode = self.inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
        inode.set_owner(owner, group);
        Ok(())
    }

    /// Rotates an encrypted file's key: generates a fresh FEK, wraps it
    /// under the (new) passphrase, and returns `(old_fek, new_fek)` so the
    /// controller can keep decrypting old pages while encrypting new
    /// writes (Section VI, "Resetting Filesystem Encryption Counters").
    ///
    /// # Errors
    ///
    /// Standard lookup/permission errors, [`FsError::BadPassphrase`] for a
    /// wrong old passphrase, or [`FsError::InvalidArgument`] for a plain
    /// file.
    pub fn rekey(
        &mut self,
        user: UserId,
        name: &str,
        old_passphrase: &str,
        new_passphrase: &str,
    ) -> Result<(Key128, Key128), FsError> {
        let ino = *self.names.get(name).ok_or(FsError::NotFound)?;
        let new_fek = self.generate_fek();
        let inode = self.inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
        if !user.is_root() && inode.owner() != user {
            return Err(FsError::PermissionDenied);
        }
        let crypto = inode
            .crypto()
            .ok_or(FsError::InvalidArgument("file is not encrypted"))?;
        let old_fek = self
            .keyring
            .unwrap_with(old_passphrase, inode.owner(), &crypto.wrapped_fek)
            .ok_or(FsError::BadPassphrase)?;
        let kek = Keyring::kek_for(new_passphrase, inode.owner());
        let wrapped = fsencr_crypto::KeyWrap::wrap(&kek, &new_fek);
        inode.set_crypto(Some(FileCrypto {
            wrapped_fek: wrapped,
        }));
        Ok((old_fek, new_fek))
    }

    /// Looks up an inode by name.
    pub fn stat(&self, name: &str) -> Option<&Inode> {
        self.names.get(name).and_then(|i| self.inodes.get(i))
    }

    /// Looks up an inode by number.
    pub fn inode(&self, ino: Ino) -> Option<&Inode> {
        self.inodes.get(&ino.get())
    }

    /// Extends the logical size (write past EOF).
    pub fn grow(&mut self, ino: Ino, size: u64) {
        if let Some(inode) = self.inodes.get_mut(&ino.get()) {
            inode.grow_to(size);
        }
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.names.len()
    }

    /// The allocator's region as `(first frame, frame count)`.
    pub fn region(&self) -> (u64, u64) {
        self.alloc.region()
    }

    /// Frames still available in the persistent region.
    pub fn free_pages(&self) -> u64 {
        self.alloc.available()
    }

    /// Iterates `(name, ino)` pairs in name order.
    pub fn list(&self) -> impl Iterator<Item = (&str, Ino)> + '_ {
        self.names.iter().map(|(n, i)| (n.as_str(), Ino::new(*i)))
    }
}

/// Marks a hole in an encoded page-slot list.
const HOLE: u64 = u64::MAX;

impl DaxFs {
    /// Serializes the persistent filesystem metadata: the FEK generator,
    /// the allocator, the inode-number allocator and every file in name
    /// order (ids, mode, size, wrapped key, page placement). Session
    /// keys are volatile and are *not* included — users log in again
    /// after a mount; a machine checkpoint adds them through
    /// [`Keyring::snap_save`].
    pub fn snap_save(&self, enc: &mut Enc) {
        enc.put_u64(self.feks.state());
        self.alloc.snap_save(enc);
        enc.put_u32(self.next_ino);
        enc.put_u64(self.free_inos.len() as u64);
        for &i in &self.free_inos {
            enc.put_u32(i);
        }
        enc.put_u64(self.names.len() as u64);
        for (name, ino) in &self.names {
            let inode = &self.inodes[ino];
            enc.put_str(name);
            enc.put_u32(inode.ino().get());
            enc.put_u32(inode.owner().get());
            enc.put_u32(inode.group().get());
            enc.put_u32(u32::from(inode.mode().bits()));
            enc.put_u64(inode.size());
            enc.put_bool(inode.is_encrypted());
            if let Some(c) = inode.crypto() {
                enc.put_bytes(c.wrapped_fek.ciphertext());
                enc.put_bytes(c.wrapped_fek.tag());
            }
            enc.put_u64(inode.page_slots() as u64);
            for idx in 0..inode.page_slots() {
                enc.put_u64(inode.page(idx).map_or(HOLE, PageId::get));
            }
        }
    }

    /// Restores a filesystem from [`DaxFs::snap_save`] bytes, with no
    /// session keys.
    ///
    /// # Errors
    ///
    /// Decode errors, and [`SnapError::Corrupt`] for any state the
    /// filesystem never produces: an inconsistent allocator, an inode
    /// number that is 0 or not below the inode high-water mark, a
    /// duplicate name or inode, a group or mode out of range, or a page
    /// mapped twice or onto a frame the allocator never handed out.
    pub fn snap_load(dec: &mut Dec<'_>) -> Result<DaxFs, SnapError> {
        let feks = SplitMix64::new(dec.get_u64()?);
        let alloc = PageAllocator::snap_load(dec)?;
        let next_ino = dec.get_u32()?;
        if next_ino == 0 || next_ino > Ino::LIMIT {
            return Err(SnapError::Corrupt("inode high-water mark"));
        }
        let mut seen_inos = HashSet::new();
        let mut claim_ino = |i: u32| i != 0 && i < next_ino && seen_inos.insert(i);
        let n = dec.get_count(4)?;
        let mut free_inos = Vec::with_capacity(n);
        for _ in 0..n {
            let i = dec.get_u32()?;
            if !claim_ino(i) {
                return Err(SnapError::Corrupt("free inode"));
            }
            free_inos.push(i);
        }
        // A file takes at least: empty name, ids, mode, size, crypto tag
        // and an empty page-slot list.
        let n = dec.get_count(8 + 4 * 4 + 8 + 1 + 8)?;
        let mut names = BTreeMap::new();
        let mut inodes = HashMap::with_capacity(n);
        let mut seen_frames = HashSet::new();
        for _ in 0..n {
            let name = std::str::from_utf8(dec.get_blob()?)
                .map_err(|_| SnapError::Corrupt("file name"))?
                .to_string();
            let ino = dec.get_u32()?;
            if !claim_ino(ino) {
                return Err(SnapError::Corrupt("inode number"));
            }
            let owner = UserId::new(dec.get_u32()?);
            let group = dec.get_u32()?;
            if group > GroupId::MAX {
                return Err(SnapError::Corrupt("group"));
            }
            let mode = u16::try_from(dec.get_u32()?)
                .ok()
                .filter(|&bits| bits <= 0o777)
                .ok_or(SnapError::Corrupt("mode"))?;
            let size = dec.get_u64()?;
            let crypto = if dec.get_bool()? {
                let ciphertext = dec.get_arr16()?;
                let tag = dec
                    .get_bytes(32)?
                    .try_into()
                    .map_err(|_| SnapError::Truncated)?;
                Some(FileCrypto {
                    wrapped_fek: fsencr_crypto::KeyWrap::from_parts(ciphertext, tag),
                })
            } else {
                None
            };
            let group = GroupId::new(group);
            let mut inode = Inode::new(Ino::new(ino), owner, group, Mode::new(mode), crypto);
            for idx in 0..dec.get_count(8)? {
                let frame = dec.get_u64()?;
                if frame == HOLE {
                    continue;
                }
                if !alloc.is_allocated(frame) || !seen_frames.insert(frame) {
                    return Err(SnapError::Corrupt("mapped frame"));
                }
                inode.map_page(idx, PageId::new(frame));
            }
            inode.grow_to(size);
            if names.insert(name, ino).is_some() {
                return Err(SnapError::Corrupt("duplicate file name"));
            }
            inodes.insert(ino, inode);
        }
        Ok(DaxFs {
            inodes,
            names,
            alloc,
            keyring: Keyring::default(),
            feks,
            next_ino,
            free_inos,
        })
    }

    /// The on-media image: [`DaxFs::snap_save`] as the one `fs` section
    /// of an `fsencr-snap/1` stream, so a torn or foreign image fails its
    /// digest on [`DaxFs::from_image`].
    pub fn image(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.begin_section("fs");
        self.snap_save(&mut enc);
        enc.end_section();
        enc.finish()
    }

    /// Mounts a [`DaxFs::image`], with no session keys.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] of the stream or of [`DaxFs::snap_load`].
    pub fn from_image(bytes: &[u8]) -> Result<DaxFs, SnapError> {
        let mut dec = Dec::new(bytes)?;
        dec.begin_section("fs")?;
        let fs = DaxFs::snap_load(&mut dec)?;
        dec.end_section()?;
        dec.finish()?;
        Ok(fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> DaxFs {
        DaxFs::format(1000, 16, 7)
    }

    const ALICE: UserId = UserId::new(1);
    const BOB: UserId = UserId::new(2);
    const STAFF: GroupId = GroupId::new(10);

    #[test]
    fn create_open_plain_file() {
        let mut fs = fs();
        let h = fs
            .create(ALICE, STAFF, "notes.txt", Mode::GROUP_RW, None)
            .unwrap();
        assert!(h.fek.is_none());
        let o = fs
            .open(BOB, &[STAFF], "notes.txt", AccessKind::Write, None)
            .unwrap();
        assert_eq!(o.ino, h.ino);
        assert_eq!(fs.file_count(), 1);
    }

    #[test]
    fn duplicate_name_rejected() {
        let mut fs = fs();
        fs.create(ALICE, STAFF, "a", Mode::PRIVATE, None).unwrap();
        assert_eq!(
            fs.create(ALICE, STAFF, "a", Mode::PRIVATE, None)
                .unwrap_err(),
            FsError::AlreadyExists
        );
        assert_eq!(
            fs.create(ALICE, STAFF, "", Mode::PRIVATE, None)
                .unwrap_err(),
            FsError::InvalidArgument("empty file name")
        );
    }

    #[test]
    fn permission_matrix_enforced() {
        let mut fs = fs();
        fs.create(ALICE, STAFF, "secret", Mode::PRIVATE, None)
            .unwrap();
        // group member cannot open 0600
        assert_eq!(
            fs.open(BOB, &[STAFF], "secret", AccessKind::Read, None)
                .unwrap_err(),
            FsError::PermissionDenied
        );
        // owner can
        assert!(fs
            .open(ALICE, &[], "secret", AccessKind::Write, None)
            .is_ok());
        // root bypasses mode bits
        assert!(fs
            .open(UserId::ROOT, &[], "secret", AccessKind::Read, None)
            .is_ok());
    }

    #[test]
    fn encrypted_file_requires_correct_passphrase() {
        let mut fs = fs();
        let h = fs
            .create(ALICE, STAFF, "vault", Mode::WIDE_OPEN, Some("hunter2"))
            .unwrap();
        let fek = h.fek.unwrap();

        assert_eq!(
            fs.open(BOB, &[STAFF], "vault", AccessKind::Read, None)
                .unwrap_err(),
            FsError::PassphraseRequired
        );
        assert_eq!(
            fs.open(BOB, &[STAFF], "vault", AccessKind::Read, Some("guess"))
                .unwrap_err(),
            FsError::BadPassphrase
        );
        let o = fs
            .open(BOB, &[STAFF], "vault", AccessKind::Read, Some("hunter2"))
            .unwrap();
        assert_eq!(o.fek, Some(fek));
    }

    #[test]
    fn chmod_777_does_not_leak_key() {
        // The paper's scenario: mode opens up by accident, but the key
        // check still guards the data.
        let mut fs = fs();
        fs.create(ALICE, STAFF, "vault", Mode::PRIVATE, Some("pw"))
            .unwrap();
        fs.chmod(ALICE, "vault", Mode::WIDE_OPEN).unwrap();
        assert_eq!(
            fs.open(BOB, &[], "vault", AccessKind::Read, Some("wrong"))
                .unwrap_err(),
            FsError::BadPassphrase
        );
    }

    #[test]
    fn chmod_chown_permissions() {
        let mut fs = fs();
        fs.create(ALICE, STAFF, "f", Mode::PRIVATE, None).unwrap();
        assert_eq!(
            fs.chmod(BOB, "f", Mode::WIDE_OPEN).unwrap_err(),
            FsError::PermissionDenied
        );
        assert_eq!(
            fs.chown(ALICE, "f", BOB, STAFF).unwrap_err(),
            FsError::PermissionDenied
        );
        fs.chown(UserId::ROOT, "f", BOB, GroupId::new(11)).unwrap();
        assert_eq!(fs.stat("f").unwrap().owner(), BOB);
    }

    #[test]
    fn page_fault_allocates_once() {
        let mut fs = fs();
        let h = fs
            .create(ALICE, STAFF, "data", Mode::PRIVATE, Some("pw"))
            .unwrap();
        let f1 = fs.ensure_page(h.ino, 0).unwrap();
        assert!(f1.newly_allocated);
        assert!(f1.df, "encrypted file pages carry the DF-bit");
        assert_eq!(f1.group, STAFF);
        let f2 = fs.ensure_page(h.ino, 0).unwrap();
        assert!(!f2.newly_allocated);
        assert_eq!(f2.frame, f1.frame);
        assert_eq!(fs.stat("data").unwrap().size(), 4096);
    }

    #[test]
    fn plain_file_pages_have_no_df_bit() {
        let mut fs = fs();
        let h = fs
            .create(ALICE, STAFF, "plain", Mode::PRIVATE, None)
            .unwrap();
        let f = fs.ensure_page(h.ino, 0).unwrap();
        assert!(!f.df);
    }

    #[test]
    fn region_exhaustion() {
        let mut fs = DaxFs::format(0, 2, 1);
        let h = fs.create(ALICE, STAFF, "big", Mode::PRIVATE, None).unwrap();
        fs.ensure_page(h.ino, 0).unwrap();
        fs.ensure_page(h.ino, 1).unwrap();
        assert_eq!(fs.ensure_page(h.ino, 2).unwrap_err(), FsError::NoSpace);
        assert_eq!(fs.free_pages(), 0);
    }

    #[test]
    fn unlink_frees_frames_and_reuses_ino() {
        let mut fs = fs();
        let h = fs
            .create(ALICE, STAFF, "tmp", Mode::PRIVATE, Some("pw"))
            .unwrap();
        fs.ensure_page(h.ino, 0).unwrap();
        fs.ensure_page(h.ino, 1).unwrap();
        let before_free = fs.free_pages();
        let un = fs.unlink(ALICE, "tmp").unwrap();
        assert_eq!(un.freed.len(), 2);
        assert!(un.was_encrypted);
        assert_eq!(un.ino, h.ino);
        assert_eq!(fs.free_pages(), before_free + 2);
        // ino is recycled
        let h2 = fs
            .create(ALICE, STAFF, "tmp2", Mode::PRIVATE, None)
            .unwrap();
        assert_eq!(h2.ino, h.ino);
    }

    #[test]
    fn unlink_permission() {
        let mut fs = fs();
        fs.create(ALICE, STAFF, "f", Mode::WIDE_OPEN, None).unwrap();
        assert_eq!(fs.unlink(BOB, "f").unwrap_err(), FsError::PermissionDenied);
        assert!(fs.unlink(UserId::ROOT, "f").is_ok());
        assert_eq!(fs.unlink(ALICE, "f").unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn rekey_returns_old_and_new() {
        let mut fs = fs();
        let h = fs
            .create(ALICE, STAFF, "v", Mode::PRIVATE, Some("old"))
            .unwrap();
        let (old_fek, new_fek) = fs.rekey(ALICE, "v", "old", "new").unwrap();
        assert_eq!(Some(old_fek), h.fek);
        assert_ne!(old_fek, new_fek);
        // new passphrase opens, old does not
        assert!(fs
            .open(ALICE, &[], "v", AccessKind::Read, Some("new"))
            .is_ok());
        assert_eq!(
            fs.open(ALICE, &[], "v", AccessKind::Read, Some("old"))
                .unwrap_err(),
            FsError::BadPassphrase
        );
        // wrong old passphrase fails
        assert_eq!(
            fs.rekey(ALICE, "v", "bogus", "x").unwrap_err(),
            FsError::BadPassphrase
        );
    }

    #[test]
    fn rekey_plain_file_rejected() {
        let mut fs = fs();
        fs.create(ALICE, STAFF, "p", Mode::PRIVATE, None).unwrap();
        assert!(matches!(
            fs.rekey(ALICE, "p", "a", "b").unwrap_err(),
            FsError::InvalidArgument(_)
        ));
    }

    #[test]
    fn feks_are_unique_and_seed_deterministic() {
        let feks = |fs: &mut DaxFs| {
            ["x", "y"].map(|n| {
                fs.create(ALICE, STAFF, n, Mode::PRIVATE, Some("pw"))
                    .unwrap()
                    .fek
            })
        };
        let first = feks(&mut fs());
        assert_ne!(first[0], first[1]);
        assert_eq!(feks(&mut fs()), first);
    }

    #[test]
    fn list_is_name_ordered() {
        let mut fs = fs();
        fs.create(ALICE, STAFF, "b", Mode::PRIVATE, None).unwrap();
        fs.create(ALICE, STAFF, "a", Mode::PRIVATE, None).unwrap();
        let names: Vec<&str> = fs.list().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}

#[cfg(test)]
mod image_tests {
    use super::*;

    const ALICE: UserId = UserId::new(1);
    const STAFF: GroupId = GroupId::new(10);

    fn populated() -> DaxFs {
        let mut fs = DaxFs::format(1000, 32, 7);
        let h1 = fs
            .create(ALICE, STAFF, "enc", Mode::PRIVATE, Some("pw"))
            .unwrap();
        fs.ensure_page(h1.ino, 0).unwrap();
        fs.ensure_page(h1.ino, 2).unwrap(); // hole at index 1
        let h2 = fs
            .create(
                UserId::new(2),
                GroupId::new(11),
                "plain",
                Mode::GROUP_RW,
                None,
            )
            .unwrap();
        fs.ensure_page(h2.ino, 0).unwrap();
        // delete a file to exercise free lists
        let h3 = fs.create(ALICE, STAFF, "tmp", Mode::PRIVATE, None).unwrap();
        fs.ensure_page(h3.ino, 0).unwrap();
        fs.unlink(ALICE, "tmp").unwrap();
        fs
    }

    #[test]
    fn image_roundtrip_preserves_everything() {
        let fs = populated();
        let bytes = fs.image();
        let back = DaxFs::from_image(&bytes).unwrap();
        // Every encoded field (ids, mode, size, wrapped key, placement,
        // both free lists, FEK generator) survives: the re-encoding is
        // byte-identical.
        assert_eq!(back.image(), bytes);
        assert_eq!(back.free_pages(), fs.free_pages());
        assert_eq!(back.stat("enc").unwrap().page(1), None, "hole preserved");
        // The wrapped key still unwraps with the right passphrase.
        let h = back
            .open(ALICE, &[STAFF], "enc", AccessKind::Read, Some("pw"))
            .unwrap();
        assert!(h.fek.is_some());
        assert!(back
            .open(ALICE, &[STAFF], "enc", AccessKind::Read, Some("no"))
            .is_err());
    }

    #[test]
    fn restored_fs_never_reissues_feks() {
        let mut fs = populated();
        let mut back = DaxFs::from_image(&fs.image()).unwrap();
        let next_orig = fs
            .create(ALICE, STAFF, "n1", Mode::PRIVATE, Some("x"))
            .unwrap();
        let next_back = back
            .create(ALICE, STAFF, "n1", Mode::PRIVATE, Some("x"))
            .unwrap();
        assert_eq!(next_orig.fek, next_back.fek, "rng state must be preserved");
        assert_eq!(next_orig.ino, next_back.ino, "free inode list preserved");
        // And the new key differs from every existing file's key.
        let h = back
            .open(ALICE, &[STAFF], "enc", AccessKind::Read, Some("pw"))
            .unwrap();
        assert_ne!(next_back.fek, h.fek);
    }

    #[test]
    fn allocator_state_survives() {
        let mut back = DaxFs::from_image(&populated().image()).unwrap();
        // New allocations must not collide with restored placements.
        let used: HashSet<u64> = back
            .list()
            .flat_map(|(_, i)| back.inode(i).unwrap().mapped_pages().map(|p| p.get()))
            .collect();
        let h = back
            .create(ALICE, STAFF, "new", Mode::PRIVATE, None)
            .unwrap();
        let pf = back.ensure_page(h.ino, 0).unwrap();
        assert!(!used.contains(&pf.frame.get()), "fresh frame collided");
    }

    #[test]
    fn long_names_round_trip_whole() {
        let mut fs = DaxFs::format(0, 4, 1);
        fs.create(ALICE, STAFF, &"n".repeat(70_000), Mode::PRIVATE, None)
            .unwrap();
        let back = DaxFs::from_image(&fs.image()).unwrap();
        assert_eq!(
            back.list().map(|(n, _)| n.len()).collect::<Vec<_>>(),
            [70_000]
        );
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let bytes = populated().image();
        // Every bit flip and every truncation errors, never panics.
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x10;
            assert!(DaxFs::from_image(&evil).is_err(), "flip at byte {i}");
            assert!(
                DaxFs::from_image(&bytes[..i]).is_err(),
                "prefix of {i} bytes"
            );
        }
    }

    /// One file as raw encoded fields: name, inode, group, mode and page
    /// slots.
    type RawFile<'a> = (&'a str, u32, u32, u32, &'a [u64]);

    /// The allocator of a valid image: frames `[100, 108)`, of which
    /// 100 to 103 were handed out and 103 was freed again.
    const ALLOC: &[u64] = &[100, 8, 4, 1, 103];

    /// Encodes an image field by field, bypassing every invariant the
    /// public API keeps. `alloc` is the allocator's words: base, pages,
    /// high-water mark, free-list length and free frames.
    fn raw(alloc: &[u64], next_ino: u32, free_inos: &[u32], files: &[RawFile<'_>]) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.begin_section("fs");
        enc.put_u64(0); // FEK generator
        alloc.iter().for_each(|&w| enc.put_u64(w));
        enc.put_u32(next_ino);
        enc.put_u64(free_inos.len() as u64);
        free_inos.iter().for_each(|&i| enc.put_u32(i));
        enc.put_u64(files.len() as u64);
        for &(name, ino, group, mode, slots) in files {
            enc.put_str(name);
            [ino, ALICE.get(), group, mode]
                .iter()
                .for_each(|&w| enc.put_u32(w));
            enc.put_u64(0);
            enc.put_bool(false);
            enc.put_u64(slots.len() as u64);
            slots.iter().for_each(|&frame| enc.put_u64(frame));
        }
        enc.end_section();
        enc.finish()
    }

    #[test]
    fn impossible_states_are_corrupt() {
        let a: RawFile<'_> = ("a", 1, 1, 0o600, &[100, HOLE, 101]);
        let fs = DaxFs::from_image(&raw(ALLOC, 3, &[2], &[a])).unwrap();
        assert_eq!(fs.stat("a").unwrap().page(2), Some(PageId::new(101)));
        assert_eq!(fs.free_pages(), 5);

        let limit = Ino::LIMIT;
        let cases = [
            ("allocator region", raw(&[0, 4, 5, 0], 1, &[], &[])),
            ("allocator region", raw(&[u64::MAX, 2, 0, 0], 1, &[], &[])),
            (
                "allocator free list",
                raw(&[10, 8, 4, 2, 12, 12], 1, &[], &[]),
            ),
            (
                "allocator free list",
                raw(&[10, 8, 4, 2, 11, 12], 1, &[], &[]),
            ),
            ("allocator free list", raw(&[10, 8, 4, 1, 14], 1, &[], &[])),
            ("allocator free list", raw(&[10, 8, 4, 1, 9], 1, &[], &[])),
            ("inode high-water mark", raw(ALLOC, 0, &[], &[])),
            ("inode high-water mark", raw(ALLOC, limit + 1, &[], &[])),
            ("free inode", raw(ALLOC, 3, &[0], &[])),
            ("free inode", raw(ALLOC, 3, &[3], &[])),
            ("free inode", raw(ALLOC, 3, &[2, 2], &[])),
            ("inode number", raw(ALLOC, 3, &[1], &[a])),
            (
                "inode number",
                raw(ALLOC, 3, &[], &[a, ("b", 1, 1, 0o600, &[])]),
            ),
            (
                "inode number",
                raw(ALLOC, 3, &[], &[("b", 0, 1, 0o600, &[])]),
            ),
            (
                "inode number",
                raw(ALLOC, 3, &[], &[("b", 3, 1, 0o600, &[])]),
            ),
            (
                "inode number",
                raw(ALLOC, limit, &[], &[("b", limit, 1, 0o600, &[])]),
            ),
            (
                "duplicate file name",
                raw(ALLOC, 3, &[], &[a, ("a", 2, 1, 0o600, &[])]),
            ),
            (
                "group",
                raw(ALLOC, 3, &[], &[("b", 1, GroupId::MAX + 1, 0o600, &[])]),
            ),
            ("mode", raw(ALLOC, 3, &[], &[("b", 1, 1, 0o1000, &[])])),
            (
                "mapped frame",
                raw(ALLOC, 3, &[], &[("b", 1, 1, 0o600, &[103])]),
            ),
            (
                "mapped frame",
                raw(ALLOC, 3, &[], &[("b", 1, 1, 0o600, &[104])]),
            ),
            (
                "mapped frame",
                raw(ALLOC, 3, &[], &[("b", 1, 1, 0o600, &[99])]),
            ),
            (
                "mapped frame",
                raw(ALLOC, 3, &[], &[a, ("b", 2, 1, 0o600, &[101])]),
            ),
        ];
        for (what, bytes) in cases {
            assert_eq!(
                DaxFs::from_image(&bytes).map(drop),
                Err(SnapError::Corrupt(what)),
                "{what}"
            );
        }
    }
}
