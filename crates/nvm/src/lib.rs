//! Byte-accurate PCM main-memory model.
//!
//! This crate is the memory substrate of the FsEncr reproduction. It models
//! the DDR-attached PCM DIMM of Table III at two levels that the rest of the
//! workspace needs:
//!
//! * **Contents** — [`Storage`] is a sparse, page-granular byte array: the
//!   simulated NVM really holds the (cipher)text bytes the encryption
//!   engines produce, so tests can inspect "what an attacker who stole the
//!   DIMM would see".
//! * **Timing** — [`BankTiming`] decodes physical addresses with the
//!   RoRaBaChCo mapping, tracks per-bank open rows with the open-adaptive
//!   page policy, and charges tRCD/tCL/tBURST/tWR plus the PCM array
//!   latencies (60 ns read / 150 ns write).
//!
//! [`NvmDevice`] glues the two together behind a simple
//! `read_line`/`write_line` interface consumed by the memory controller in
//! the `fsencr` crate.
//!
//! # Examples
//!
//! ```
//! use fsencr_nvm::{NvmDevice, PhysAddr, LINE_BYTES};
//! use fsencr_sim::{config::NvmConfig, Cycle};
//!
//! let mut nvm = NvmDevice::new(NvmConfig::default());
//! let addr = PhysAddr::new(0x1000);
//! let done = nvm.write_line(Cycle::ZERO, addr, &[7u8; LINE_BYTES]);
//! let (data, _done2) = nvm.read_line(done, addr);
//! assert_eq!(data, [7u8; LINE_BYTES]);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![warn(missing_docs)]

pub mod addr;
pub mod device;
pub mod error;
pub mod storage;
pub mod timing;
pub mod wear;

pub use addr::{
    AddrHasher, AddrMap, AddrSet, LineAddr, PageId, PhysAddr, DF_BIT, LINE_BYTES, PAGE_BYTES,
};
pub use device::{NvmDevice, NvmStats};
pub use error::NvmError;
pub use storage::Storage;
pub use timing::{AccessKind, BankTiming};
pub use wear::WearTracker;
