//! Seeded violations of the workspace's clippy bans. `scripts/verify.sh`
//! lints this package under `crates/fsencr/clippy.toml` and requires
//! clippy to fail and to name every line marked `// seeded`.

pub mod hot_alloc;
pub mod ivreuse;
pub mod leak;
