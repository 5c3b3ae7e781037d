//! Hostile command lines end in an exit code, never a panic: malformed
//! operands print the usage line and exit 2, and output files that cannot
//! be written are reported and exit 1. A panic would exit 101. The
//! `params` printout of Table III is pinned byte for byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch working directory unique to `name`, so the harness writes
/// nothing into the source tree.
fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fsencr-harness-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn harness(cwd: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn harness")
}

fn assert_exit(out: &Output, code: i32, args: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "harness {args:?}: {stderr}");
}

#[test]
fn malformed_operands_are_usage_errors() {
    let cwd = scratch_dir("usage");
    for args in [
        &["fig3", "1.5"][..],
        &["fig3", "nan"],
        &["fig3", "0"],
        &["profile", "fig3", "0"],
        &["profile", "fig3", "-1"],
        &["bench"],
        &["bench-check"],
        &["--jobs", "0", "fig3", "0.01"],
        &["faults", "--seed", "x"],
        &["faults", "--bogus", "1"],
        &["snapshot", "frob"],
        &["snapshot", "--pages", "x", "save"],
        &["snapshot", "save", "--pages=x"],
    ] {
        let out = harness(&cwd, args);
        assert_exit(&out, 2, args);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: harness"),
            "{args:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn bad_campaign_spec_is_a_usage_error() {
    let cwd = scratch_dir("campaign");
    let args = ["faults", "--campaign", "bogus=1"];
    let out = harness(&cwd, &args);
    assert_exit(&out, 2, &args);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("bad --campaign"),
        "{out:?}"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn unreadable_snapshots_exit_one() {
    let cwd = scratch_dir("snapshot");
    std::fs::write(cwd.join("garbage.snap"), b"not a snapshot").expect("write garbage");
    for args in [
        &["snapshot", "load", "garbage.snap"][..],
        &["snapshot", "info", "missing.snap"],
    ] {
        let out = harness(&cwd, args);
        assert_exit(&out, 1, args);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("[snapshot]"),
            "{args:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn unwritable_outputs_exit_one() {
    let cwd = scratch_dir("unwritable");
    // A directory where a file is expected: the write fails on any host.
    let blocked = cwd.join("blocked");
    std::fs::create_dir_all(&blocked).expect("create blocking dir");
    let out_arg = format!("--out={}", blocked.display());
    let args = [
        "faults",
        "--seed",
        "1",
        "--campaign",
        "scenarios=1,ops=4",
        out_arg.as_str(),
    ];
    let out = harness(&cwd, &args);
    assert_exit(&out, 1, &args);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("[faults] write"),
        "{out:?}"
    );

    std::fs::create_dir_all(cwd.join("PROFILE_fig12-14.json")).expect("create blocking dir");
    let args = ["profile", "fig12-14", "0.001"];
    let out = harness(&cwd, &args);
    assert_exit(&out, 1, &args);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("[profile] write"),
        "{out:?}"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn params_prints_table_iii() {
    let cwd = scratch_dir("params");
    let out = harness(&cwd, &["params"]);
    assert_exit(&out, 0, &["params"]);
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "
=== Table III: simulation parameters ===
CPU: 8 cores @ 1000 MHz, out-of-order x86-64 (modelled request-level)
L1: 32 KiB, 8-way, 64B lines, 2 cycles
L2: 512 KiB, 8-way, 64B lines, 20 cycles
L3: 4096 KiB, 64-way, 64B lines, 32 cycles
NVM: 16 GiB PCM, 2 ranks/ch x 8 banks, 1024 B row buffer, read 60 ns / write 150 ns
timing: tRCD 55 ns, tCL 13 ns, tBURST 5 ns, tWR 150 ns
security: AES 40 ns, metadata cache 512 KiB 8-way, Merkle 8-ary (<= 9 levels), \
OTT 1024 entries @ 20 cycles, Osiris stop-loss 4
"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}
