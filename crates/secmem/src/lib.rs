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
//! * [`Mecb`] / [`Fecb`] — the 64-byte split-counter block codecs: a
//!   64-bit (MECB) or 32-bit (FECB) major counter plus 64 seven-bit minor
//!   counters; the FECB additionally embeds the 18-bit Group ID and 14-bit
//!   File ID the controller uses to locate the file key.
//! * [`MetadataSystem`] — the dedicated metadata cache of Table III plus
//!   functional Merkle verification/update and Osiris-style stop-loss
//!   persistence of counter blocks.
//! * [`EccStore`] — the ECC-bit side channel Osiris repurposes: a
//!   per-line integrity tag over the *plaintext* that crash recovery uses
//!   as its oracle when replaying counter candidates.
//!
//! # Examples
//!
//! ```
//! use fsencr_secmem::Mecb;
//!
//! let mut mecb = Mecb::new();
//! assert_eq!(mecb.increment(5), false); // no overflow
//! assert_eq!(mecb.minor(5), 1);
//! let bytes = mecb.to_bytes();
//! assert_eq!(Mecb::from_bytes(&bytes), mecb);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod ecc;
pub mod layout;
pub mod metadata;

pub use counters::{Fecb, Mecb, MINORS_PER_BLOCK, MINOR_LIMIT};
pub use ecc::EccStore;
pub use layout::{LineKind, MetadataLayout};
pub use metadata::{
    coverage_enabled, set_coverage_enabled, MetaAccess, MetaStats, MetadataSystem, TamperError,
};
