//! Baseline secure-memory substrate.
//!
//! State-of-the-art secure NVM (Section II of the paper) encrypts every
//! line leaving the processor with counter-mode AES and protects the
//! counters with a Bonsai Merkle tree. This crate implements those
//! mechanisms as reusable pieces that the `fsencr` memory controller
//! composes:
//!
//! * [`MetadataLayout`] — where MECBs, FECBs, the spilled-OTT region and
//!   the Merkle-tree nodes live in physical memory. One FECB follows each
//!   MECB, exactly as Figure 6 describes.
//! * [`CounterBlock`] — the 64-byte split-counter block both engines
//!   share: a major counter plus 64 seven-bit minors, tagged with its
//!   pad domain. The MECB header is a 64-bit major; the FECB header packs
//!   the 18-bit Group ID and 14-bit File ID the controller uses to locate
//!   the file key, then a 32-bit major.
//! * [`MetadataSystem`] — the dedicated metadata cache of Table III plus
//!   functional Merkle verification/update and Osiris-style stop-loss
//!   persistence of counter blocks.
//! * [`EccStore`] — the ECC-bit side channel Osiris repurposes: a
//!   per-line keyless check over the *plaintext* and address that crash
//!   recovery uses as its oracle when replaying counter candidates.
//!
//! # Examples
//!
//! ```
//! use fsencr_crypto::PadDomain;
//! use fsencr_secmem::CounterBlock;
//!
//! let mut fecb = CounterBlock::new(PadDomain::File);
//! fecb.stamp(3, 17); // the owning (Group ID, File ID)
//! assert_eq!(fecb.increment(5), false); // no overflow
//! assert_eq!(fecb.minor(5), 1);
//! let bytes = fecb.to_bytes();
//! assert_eq!(CounterBlock::from_bytes(PadDomain::File, &bytes), fecb);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![cfg_attr(test, allow(clippy::disallowed_methods))]
#![warn(missing_docs)]

pub mod counters;
pub mod ecc;
pub mod layout;
pub mod metadata;

pub use counters::{CounterBlock, MINORS_PER_BLOCK, MINOR_LIMIT};
pub use ecc::EccStore;
pub use layout::{LineKind, MetadataLayout};
pub use metadata::{MetaAccess, MetaStats, MetadataSystem, TamperError};
