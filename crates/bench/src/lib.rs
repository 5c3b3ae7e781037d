//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section V) on the simulated machine.
//!
//! Every figure and ablation is a cell grid in one registry
//! ([`figure_names`]): workload rows from Table II, columns of machine
//! options and security modes. [`figures`] runs a grid and returns the
//! [`Figure`]s whose rows are the series the paper plots — normalized
//! slowdowns, read/write counts, sensitivity sweeps; [`table1`] builds
//! Table I. The `harness` binary prints them; see `EXPERIMENTS.md` in the
//! repository root for paper-vs-measured notes.
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
pub mod table;

pub use experiments::*;
pub use table::Figure;
