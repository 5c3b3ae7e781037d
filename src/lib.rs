//! Workspace façade for the FsEncr reproduction.
//!
//! This root crate exists to host the cross-crate integration tests in
//! `tests/` and the runnable examples in `examples/`; downstream users
//! depend on the member crates directly ([`fsencr`] for the machine and
//! controller, [`fsencr_workloads`] for the persistent engines). The
//! re-exports below make the workspace browsable from one rustdoc root.

pub use fsencr;
pub use fsencr_cache as cache;
pub use fsencr_crypto as crypto;
pub use fsencr_fs as fs;
pub use fsencr_nvm as nvm;
pub use fsencr_secmem as secmem;
pub use fsencr_sim as sim;
pub use fsencr_workloads as workloads;
