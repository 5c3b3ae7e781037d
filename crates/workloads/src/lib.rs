//! Benchmark workloads for the FsEncr evaluation (Table II).
//!
//! Three families, mirroring the paper:
//!
//! * **PMEMKV** — a persistent B+Tree key-value engine implemented
//!   byte-for-byte on the simulated DAX mapping (the `pmemkv` "BTree"
//!   engine analogue), driven by the `db_bench` workloads: `fillseq`,
//!   `fillrandom`, `overwrite`, `readrandom`, `readseq`, each with 64 B
//!   (S) and 4 KiB (L) values, two threads.
//! * **Whisper** — persistent hashmap and ctree data structures plus a
//!   zipfian 50/50 YCSB driver, 128 B values, two threads/workers.
//! * **DAX micro-benchmarks** — the paper's in-house DAX-1..4 stride and
//!   swap kernels used for the sensitivity analysis.
//!
//! The engines are *real* data structures: their nodes, slots and values
//! live in the simulated NVM, reached through mmap'ed DAX files, with
//! PMDK-style `persist` ordering. The originals cannot run on a synthetic
//! machine, so these reimplementations preserve what matters to the
//! memory system: operation mixes, value sizes, pointer-chase depths and
//! flush behaviour.

#![warn(missing_docs)]

pub mod daxmicro;
pub mod driver;
pub mod kv;
pub mod pmemkv;
pub mod whisper;
pub mod zipf;

pub use driver::{run_workload, RunResult, Workload};
pub use zipf::Zipfian;
