//! Host-time benchmark of the FsEncr reproduction.
//!
//! It drives the repository's public API from outside: the figure cell
//! lists of `fsencr_bench::profile_cells`, built and run cell by cell
//! (`configure → Machine::new → setup → begin_measurement → run`) on the
//! harness pool, and seeded fault campaigns through
//! `fsencr_bench::faultcamp`. End-to-end metrics are host seconds of
//! whole passes; a separate traced run splits the time by layer. Every
//! pass is checked against recorded simulated output (see [`gates`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod campaign;
pub mod cells;
pub mod gates;
pub mod metrics;
pub mod probes;
pub mod spans;

/// Pool workers, one per core of the two-core host the benchmark was
/// calibrated on.
pub const JOBS: usize = 2;
