//! Deterministic fault injection for the simulated NVM datapath.
//!
//! The paper's central claim is that the memory controller *survives* a
//! misbehaving device: Merkle-rooted metadata detects tampering, Osiris
//! replays counters after crashes, the OTT spill rebuilds key state. This
//! crate supplies the misbehaving device. It is deliberately zero-dep and
//! free of ambient entropy: every fault a campaign injects is derived from
//! a `u64` seed through a [`rng::XorShift64`] stream, so two runs with the
//! same seed produce byte-identical fault schedules — and byte-identical
//! campaign reports — at any worker count.
//!
//! Three pieces:
//!
//! * [`CampaignSpec`] — how many scenarios to run and how many faults of
//!   each kind to plan per scenario; parses from / prints to the compact
//!   `key=value,...` form used by `harness faults --campaign`.
//! * [`FaultPlan`] — the pre-generated, trigger-indexed schedule for one
//!   scenario: bit-rot on the Nth media line *read*, a stuck-at cell armed
//!   on the Nth line *write*, a torn tail in the Nth batched write
//!   *region*, a power cut at the Nth persist *barrier*.
//! * [`FaultInjector`] — the runtime hook object the NVM device consults.
//!   It counts reads / writes / regions / barriers, fires planned events
//!   when their trigger index comes up, and logs every applied fault as a
//!   [`FaultEvent`] so the campaign can audit detection coverage.
//!
//! The injector is *passive*: it never talks to the device, it only
//! mutates line buffers handed to it and answers "suppress this write?".
//! The hook sites (in `fsencr-nvm` and `fsencr`) cost one `Option`
//! branch when no injector is armed, which keeps the disarmed datapath
//! bit-identical to a build without this crate.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]
#![warn(missing_docs)]

pub mod inject;
pub mod plan;
pub mod rng;

pub use inject::{FaultEvent, FaultInjector, StuckCells, StuckMask, WriteOutcome};
pub use plan::{CampaignSpec, FaultKind, FaultPlan, RotEvent, SpecError, StuckEvent, TornEvent};
pub use rng::XorShift64;

/// Bytes per NVM cache line (mirrors `fsencr_nvm::LINE_BYTES`; this crate
/// is zero-dep by design, so the constant is restated here and checked
/// against the device crate in its tests).
pub const LINE_BYTES: usize = 64;
