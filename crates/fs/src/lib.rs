//! DAX filesystem substrate.
//!
//! Models the ext4-DAX setup of the paper's evaluation: a persistent
//! region of the NVM is formatted as a filesystem whose file pages are
//! mapped *directly* into application address spaces — no page cache in
//! the data path. The crate provides the operating-system half of the
//! FsEncr co-design:
//!
//! * [`DaxFs`] — inodes, a flat namespace, per-file owner/group/mode with
//!   POSIX-style permission checks, lazy per-page allocation from the
//!   persistent region, and freshly generated per-file keys wrapped by
//!   passphrase-derived KEKs (the fscrypt/eCryptfs key hierarchy).
//! * [`PageTable`] — virtual-to-physical mappings whose PTEs carry the
//!   DF-bit for encrypted DAX file pages, exactly the
//!   `(1UL << 51) | pfn` trick of Section III-C.
//! * [`Keyring`] — the kernel keyring: per-user session KEKs derived from
//!   login passphrases, wrap/unwrap.
//! * [`PageCacheModel`] + [`SoftEncrConfig`] — the *software* filesystem
//!   encryption baseline (eCryptfs): a bounded page cache that owns its
//!   DRAM frames, page-granular encryption on fault and write-back, and
//!   the VFS-stacking overheads that Figure 3 shows dominating DAX-speed
//!   accesses.
//!
//! File *data* lives in the simulated NVM (written by the machine layer);
//! this crate manages metadata, placement and keys.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![warn(missing_docs)]

pub mod alloc;
pub mod error;
pub mod fs;
pub mod inode;
pub mod keyring;
pub mod pagetable;
pub mod perm;
pub mod softencr;

pub use alloc::PageAllocator;
pub use error::FsError;
pub use fs::{DaxFs, FileHandle, PageFault};
pub use inode::{Ino, Inode};
pub use keyring::Keyring;
pub use pagetable::{PageTable, Pte};
pub use perm::{AccessKind, GroupId, Mode, UserId};
pub use softencr::{PageCacheModel, PageCacheOutcome, SoftEncrConfig};
