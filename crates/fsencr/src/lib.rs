//! **FsEncr** — hardware-assisted filesystem encryption for direct-access
//! NVM filesystems.
//!
//! This crate is the paper's contribution (Zubair, Mohaisen, Awad,
//! HPCA 2022): a memory controller that layers per-file counter-mode
//! encryption *on top of* general memory encryption without giving up DAX.
//! The pieces:
//!
//! * [`OpenTunnelTable`] — the on-chip key table: (Group ID, File ID,
//!   128-bit key) entries, 8 x 128 associative capacity, 20-cycle lookup.
//! * [`OttSpill`] — the encrypted, Merkle-covered memory region that
//!   overflowing OTT entries spill to, keyed by an OTT key that never
//!   leaves the processor.
//! * [`MemoryController`] — the datapath of Figure 7: the DF-bit routes a
//!   request through one pad (`OTP_mem`) or two (`XOR` with `OTP_file`);
//!   pads are generated in parallel with the data fetch; counter blocks
//!   come from the [`fsencr_secmem::MetadataSystem`]; writes increment
//!   minors, handle overflow re-encryption, and keep Osiris stop-loss
//!   persistence honest. Plus the operational surface of Section VI:
//!   secure deletion, key rotation, boot-time authentication, crash
//!   recovery.
//! * [`Machine`] — the full simulated system: workload threads, cache
//!   hierarchy, the controller, the NVM device and the DAX filesystem,
//!   with the software-encryption baseline (eCryptfs model) selectable for
//!   the Figure 3 comparison.
//!
//! # Quick start
//!
//! ```
//! use fsencr::{Machine, MachineOpts, SecurityMode};
//! use fsencr_fs::{GroupId, Mode, UserId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut m = Machine::new(MachineOpts::small_test(), SecurityMode::FsEncr);
//! let user = UserId::new(1);
//! let h = m.create(user, GroupId::new(1), "data.bin", Mode::PRIVATE, Some("pw"))?;
//! let map = m.mmap(&h)?;
//! m.write(0, map, 0, b"hello, persistent world")?;
//! m.persist(0, map, 0, 23)?;
//! let mut buf = [0u8; 23];
//! m.read(0, map, 0, &mut buf)?;
//! assert_eq!(&buf, b"hello, persistent world");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod machine;
pub mod ott;
pub mod plane;
pub mod security;
pub mod snapshot;
pub mod spill;
pub mod tlb;

pub(crate) use controller::batch::RegionRun;
pub use controller::{CtrlStats, IntegrityError, MemError, MemoryController, ModuleEnvelope};
pub use machine::{Machine, MachineOpts, MapId, Preset, RunStats, SecurityMode};
pub use plane::{FaultPlane, InspectPlane, ModuleFault, ModuleInspect};
pub use snapshot::StatsSnapshot;
pub use ott::{OpenTunnelTable, OttStats};
pub use spill::OttSpill;
