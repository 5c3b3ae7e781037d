//! The static gate is stock tooling, and this test pins its
//! configuration. rustc forbids `unsafe` through `[workspace.lints]`;
//! the hot-path crate roots deny clippy's panic and truncating-cast
//! lints; the `clippy.toml` files ban host nondeterminism in the
//! figure-producing crates, raw NVM writes outside `crates/nvm`, pad
//! minting outside `crates/crypto` and bare `Vec`/`VecDeque::new` in
//! the allocation-free crates. Clippy reads only the nearest
//! `clippy.toml`, so those entries are repeated per crate and nothing
//! but this test catches a copy that drifts.

use std::path::Path;

/// The hot-path crates and the experiment library: their non-test code
/// must be panic-free and free of truncating casts.
const HOT_CRATES: [&str; 10] = [
    "fsencr", "fs", "secmem", "crypto", "nvm", "cache", "obs", "faults", "snapshot", "bench",
];

/// The figure-producing crates: no host clocks, hashed collections or
/// worker identity may reach their output.
const FIGURE_CRATES: [&str; 3] = ["bench", "sim", "obs"];

/// Raw device writes: legal only inside `crates/nvm`.
const RAW_WRITES: [&str; 2] = [
    "fsencr_nvm::NvmDevice::poke_line",
    "fsencr_nvm::NvmDevice::write_line",
];

/// Counter-mode pad minting: legal only inside `crates/crypto`.
const PAD_FNS: [&str; 4] = [
    "fsencr_crypto::line_pad",
    "fsencr_crypto::line_pad_with",
    "fsencr_crypto::line_pad_into",
    "fsencr_crypto::ctr_pads_n",
];

/// Unsized collection constructors, banned in the crates whose
/// verification, digest, pad, ECC, injector and codec loops are
/// allocation-free.
const HOT_ALLOC: [&str; 2] = ["std::vec::Vec::new", "std::collections::VecDeque::new"];
const ALLOC_FREE_CRATES: [&str; 5] = ["secmem", "fsencr", "crypto", "faults", "snapshot"];

const TEST_EXEMPTIONS: [&str; 3] = [
    "allow-unwrap-in-tests = true",
    "allow-expect-in-tests = true",
    "allow-panic-in-tests = true",
];

fn read(rel: &str) -> String {
    std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(rel))
        .unwrap_or_else(|e| panic!("{rel}: {e}"))
}

fn members() -> Vec<String> {
    let mut members: Vec<String> =
        std::fs::read_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("crates"))
            .expect("crates/ readable")
            .flatten()
            .filter(|e| e.path().join("Cargo.toml").is_file())
            .filter_map(|e| e.file_name().into_string().ok())
            .collect();
    members.sort();
    members
}

/// The `disallowed-methods` paths of one `clippy.toml`.
fn disallowed_methods(config: &str) -> Vec<&str> {
    config
        .split("disallowed-methods = [")
        .nth(1)
        .map(|list| list.split("\n]").next().unwrap_or(""))
        .unwrap_or("")
        .lines()
        .filter_map(|line| line.split("path = \"").nth(1)?.split('"').next())
        .collect()
}

#[test]
fn stock_lint_config_is_in_place() {
    let root_manifest = read("Cargo.toml");
    assert!(
        root_manifest.contains("[workspace.lints.rust]\nunsafe_code = \"forbid\""),
        "the workspace must forbid unsafe code"
    );
    let members = members();
    assert!(members.len() >= HOT_CRATES.len(), "{members:?}");
    let manifests = std::iter::once("Cargo.toml".to_string())
        .chain(members.iter().map(|m| format!("crates/{m}/Cargo.toml")));
    for manifest in manifests {
        assert!(
            read(&manifest).contains("[lints]\nworkspace = true"),
            "{manifest} must inherit the workspace lints"
        );
    }
    for krate in HOT_CRATES {
        let lib = read(&format!("crates/{krate}/src/lib.rs"));
        for line in [
            "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]",
            "#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]",
        ] {
            assert!(
                lib.contains(line),
                "crates/{krate}/src/lib.rs lacks `{line}`"
            );
        }
    }
    for krate in FIGURE_CRATES {
        let config = read(&format!("crates/{krate}/clippy.toml"));
        for needle in [
            "disallowed-types",
            "\"std::collections::HashMap\"",
            "\"std::collections::HashSet\"",
            "\"std::time::Instant\"",
            "\"std::time::SystemTime\"",
        ] {
            assert!(
                config.contains(needle),
                "crates/{krate}/clippy.toml lacks `{needle}`"
            );
        }
        assert!(
            disallowed_methods(&config).contains(&"std::thread::current"),
            "crates/{krate}/clippy.toml lacks `std::thread::current`"
        );
    }
}

#[test]
fn every_clippy_config_carries_the_security_and_allocation_bans() {
    // The crates that own an exception, or the allocation ban, need a
    // config of their own; every other member inherits the root one.
    for krate in ALLOC_FREE_CRATES.iter().chain(&["nvm", "crypto"]) {
        assert!(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join(format!("crates/{krate}/clippy.toml"))
                .is_file(),
            "crates/{krate} needs its own clippy.toml"
        );
    }
    let configs = std::iter::once("clippy.toml".to_string()).chain(
        members()
            .into_iter()
            .map(|m| format!("crates/{m}/clippy.toml"))
            .filter(|p| Path::new(env!("CARGO_MANIFEST_DIR")).join(p).is_file()),
    );
    for config_path in configs {
        let config = read(&config_path);
        for key in TEST_EXEMPTIONS {
            assert!(config.contains(key), "{config_path} lacks `{key}`");
        }
        let listed = disallowed_methods(&config);
        let alloc_free = ALLOC_FREE_CRATES
            .iter()
            .any(|k| config_path == format!("crates/{k}/clippy.toml"));
        for (entries, expected) in [
            (&RAW_WRITES[..], config_path != "crates/nvm/clippy.toml"),
            (&PAD_FNS[..], config_path != "crates/crypto/clippy.toml"),
            (&HOT_ALLOC[..], alloc_free),
        ] {
            for entry in entries {
                assert_eq!(
                    listed.contains(entry),
                    expected,
                    "{config_path}: `{entry}` must be {} its disallowed-methods",
                    if expected { "in" } else { "absent from" }
                );
            }
        }
    }
}
