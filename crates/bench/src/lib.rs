//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section V) on the simulated machine.
//!
//! Each `fig*`/`table*` function builds the workloads of Table II, runs
//! them under the relevant security modes, and returns a [`Figure`] whose
//! rows are the series the paper plots — normalized slowdowns, read/write
//! counts, sensitivity sweeps. The `harness` binary prints them; see
//! `EXPERIMENTS.md` in the repository root for paper-vs-measured notes.
//!
//! All experiments accept a `scale` in `(0, 1]` that shrinks operation
//! counts proportionally for quick smoke runs; `1.0` is the calibrated
//! full size.

#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod experiments;
pub mod faultcamp;
pub mod jsonio;
pub use fsencr_sim::pool;
pub mod profile;
pub mod shell;
pub mod store;
pub mod table;

pub use experiments::*;
pub use table::Figure;
