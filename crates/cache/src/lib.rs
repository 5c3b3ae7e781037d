//! Cache models for the simulated machine.
//!
//! Two building blocks:
//!
//! * [`Cache`] — a generic set-associative, write-back, LRU cache whose
//!   ways carry a payload: real 64-byte line contents in the dedicated
//!   security-metadata cache of Table III (the simulation is functional,
//!   not just statistical: plaintext lives in caches, ciphertext in the
//!   NVM), slot handles in the data caches.
//! * [`Hierarchy`] — per-core private L1/L2 plus a shared L3 over one
//!   line store, with the write-allocate / write-back policy, full-line
//!   store bypass (modelling non-temporal stores used by
//!   persistent-memory libraries), and `clwb`-style flush operations
//!   that persistent workloads issue. Migrations move slot handles.
//!
//! # Examples
//!
//! ```
//! use fsencr_cache::Cache;
//! use fsencr_sim::config::CacheConfig;
//! use fsencr_nvm::LineAddr;
//!
//! let mut c = Cache::new(CacheConfig {
//!     size_bytes: 4096,
//!     ways: 4,
//!     block_bytes: 64,
//!     latency_cycles: 2,
//! });
//! let line = LineAddr::new(0x40);
//! assert!(c.lookup(line).is_none());
//! c.insert(line, [1u8; 64], false);
//! assert_eq!(c.lookup(line).map(|d| d[0]), Some(1));
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![warn(missing_docs)]

pub mod hierarchy;
pub mod set_assoc;

pub use hierarchy::{CacheLine, Hierarchy, LoadOutcome};
pub use set_assoc::{Cache, CacheStats, Displaced, Eviction};
