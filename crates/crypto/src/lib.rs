//! Cryptographic primitives for the FsEncr reproduction.
//!
//! The simulated machine is *functionally* secure: the NVM model stores real
//! ciphertext and the Merkle tree computes real digests, so the security
//! properties the paper argues for (Table I, Section VI) are testable rather
//! than asserted. This crate provides everything the datapath needs:
//!
//! * [`Aes128`] — the AES-128 block cipher (FIPS-197), used by both the
//!   memory encryption engine and the file encryption engine.
//! * [`Sha256`] / [`hmac_sha256`] — FIPS 180-4 hashing for the Bonsai Merkle
//!   tree and MACs.
//! * [`ctr`] — counter-mode one-time-pad generation exactly as in Figure 2
//!   of the paper: the IV packs page ID, block offset, major and minor
//!   counters, and a domain tag separating `OTP_mem` from `OTP_file`.
//! * [`kdf`] — PBKDF2-HMAC-SHA256 for deriving key-encryption keys from
//!   user passphrases, plus a key-wrap for storing file keys at rest.
//!
//! Everything is implemented from the public specifications — the allowed
//! dependency set contains no cryptography crate, and a self-contained
//! implementation keeps the simulated datapath fully inspectable.
//!
//! # Examples
//!
//! ```
//! use fsencr_crypto::{Aes128, Key128};
//!
//! let key = Key128::from_bytes([0u8; 16]);
//! let aes = Aes128::new(&key);
//! let ct = aes.encrypt_block([0u8; 16]);
//! assert_eq!(aes.decrypt_block(ct), [0u8; 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ctr;
pub mod hmac;
pub mod kdf;
pub mod lanes;
pub mod key;
pub mod oracle;
pub mod schedule;
pub mod sha256;

pub use aes::Aes128;
pub use ctr::{ctr_pads_n, line_pad, line_pad_into, line_pad_with, xor_in_place, PadDomain, PadInput};
pub use hmac::hmac_sha256;
pub use kdf::{pbkdf2_hmac_sha256, KeyWrap};
pub use key::Key128;
pub use oracle::{pads_enabled, set_pads_enabled, PadLedger, PadReuse};
pub use schedule::ScheduleCache;
pub use lanes::{digest8_lines4, ecc_tags4, sha256_lines4};
pub use sha256::{digest8_line, ecc_tag, sha256, sha256_line, Sha256};
