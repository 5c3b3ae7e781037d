#!/usr/bin/env sh
# Tier-1 verification: everything a change must pass before merging.
# Works fully offline — the workspace has no registry dependencies.
set -eu

cd "$(dirname "$0")/.."

# Self-labeling wall-clock: every section announces itself via `begin`
# and reports its own duration (plus the running total) via `finish`,
# so a slow verify run says *which* section got slow without anyone
# diffing timestamps.
t_start=$(date +%s)
t_section=$t_start
section_label=""
begin() {
    section_label="$1"
    t_section=$(date +%s)
    echo "==> $section_label"
}
finish() {
    now=$(date +%s)
    echo "    [section '$section_label' took $(( now - t_section ))s; total $(( now - t_start ))s]"
}

begin "cargo fmt --all -- --check"
cargo fmt --all -- --check
finish

begin "cargo build --release --workspace"
cargo build --release --workspace
finish

begin "cargo test -q --workspace"
cargo test -q --workspace
finish

# Clippy and rustc carry the panic (unwrap/expect/panic!), truncating-cast,
# nondeterminism (hashed collections, host clocks, thread::current),
# forbid-unsafe, raw-NVM-write, pad-minting and hot-path allocation
# rules; see Cargo.toml, the hot-path crate roots and the clippy.toml
# files. Audited exceptions are `#[expect(clippy::disallowed_methods)]`.
begin "cargo clippy --workspace --all-targets -- -D warnings (no-panic, truncating casts, nondeterminism, forbid-unsafe, raw writes, pads, hot-path allocation)"
cargo clippy --workspace --all-targets -- -D warnings
finish

# The benchmark is a package of its own outside the workspace; it calls
# the public API (observer, crypto, datapath, profile cells), so an API
# edit must keep it compiling.
begin "cargo check benchmark/ (all targets)"
cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets
finish

begin "seeded fault campaign: byte-identical across --jobs, zero undetected corruption"
faults_dir="$(mktemp -d)"
./target/release/harness --jobs 1 faults --seed 42 --campaign "scenarios=4,ops=48" \
    --out "$faults_dir/FAULTS_j1.json"
./target/release/harness --jobs 4 faults --seed 42 --campaign "scenarios=4,ops=48" \
    --out "$faults_dir/FAULTS_j4.json"
if ! cmp -s "$faults_dir/FAULTS_j1.json" "$faults_dir/FAULTS_j4.json"; then
    echo "FAIL: FAULTS report differs between --jobs 1 and --jobs 4" >&2
    diff "$faults_dir/FAULTS_j1.json" "$faults_dir/FAULTS_j4.json" >&2 || true
    exit 1
fi
if ! grep -q '"undetected_in_coverage": 0' "$faults_dir/FAULTS_j1.json"; then
    echo "FAIL: campaign reported undetected in-coverage corruption" >&2
    exit 1
fi
rm -rf "$faults_dir"
finish

begin "snapshot save -> info -> load CLI round trip; two processes save identical images"
snap_dir="$(mktemp -d)"
(
    cd "$snap_dir"
    # Save a post-setup image, list its sections, restore it. Any
    # digest/fingerprint mismatch exits non-zero.
    "$OLDPWD/target/release/harness" snapshot save MACHINE.snap
    "$OLDPWD/target/release/harness" snapshot info MACHINE.snap >/dev/null
    "$OLDPWD/target/release/harness" snapshot load MACHINE.snap >/dev/null
    # A second process must write the same bytes: no section may depend
    # on per-process state such as a randomly keyed hash map's order.
    "$OLDPWD/target/release/harness" snapshot save MACHINE2.snap
    if ! cmp -s MACHINE.snap MACHINE2.snap; then
        echo "FAIL: snapshot images differ between two harness processes" >&2
        "$OLDPWD/target/release/harness" snapshot info MACHINE.snap >info1.txt
        "$OLDPWD/target/release/harness" snapshot info MACHINE2.snap >info2.txt
        diff info1.txt info2.txt >&2 || true
        exit 1
    fi
)
rm -rf "$snap_dir"
finish

# The first 30 lines of harness_full.txt are the committed output of
# `params`, `list` and `table1`. Table I drives the attacker model
# (tampering, theft, foreign OS) through the controller's public surface.
begin "harness params, list and table1 match harness_full.txt"
pinned="$(mktemp)"
head -n 30 harness_full.txt >"$pinned"
if ! (for cmd in params list table1; do ./target/release/harness "$cmd"; done) 2>/dev/null |
    cmp -s - "$pinned"; then
    echo "FAIL: harness params/list/table1 differ from harness_full.txt" >&2
    (for cmd in params list table1; do ./target/release/harness "$cmd"; done) 2>/dev/null |
        diff "$pinned" - >&2 || true
    exit 1
fi
rm -f "$pinned"
finish

# harness_smoke.txt is the committed stdout of `harness --jobs 2 all 0.01`:
# every table, figure and ablation at smoke scale. A change meant to move
# simulated outcomes re-records it and says why.
begin "harness --jobs 2 all 0.01 matches harness_smoke.txt"
smoke="$(mktemp)"
./target/release/harness --jobs 2 all 0.01 >"$smoke" 2>/dev/null
if ! cmp -s "$smoke" harness_smoke.txt; then
    echo "FAIL: harness all 0.01 differs from harness_smoke.txt" >&2
    diff harness_smoke.txt "$smoke" >&2 || true
    exit 1
fi
rm -f "$smoke"
finish

# The security and allocation bans are clippy `disallowed-methods`
# entries. scripts/lint-fixture seeds one violation of each (raw pokes
# and writes, pad minting under a reused IV, a bare `Vec::new()`) on
# lines marked `// seeded`; linted under crates/fsencr/clippy.toml,
# which carries every ban, clippy must fail and name each of them.
begin "clippy rejects the seeded violations in scripts/lint-fixture"
fixture=scripts/lint-fixture
fixture_out="$(mktemp)"
if CLIPPY_CONF_DIR="$PWD/crates/fsencr" cargo clippy --offline -q \
    --manifest-path "$fixture/Cargo.toml" --target-dir target/lint-fixture \
    --message-format short -- -D warnings >"$fixture_out" 2>&1; then
    echo "FAIL: clippy accepted the seeded-violation fixture" >&2
    exit 1
fi
seeded=0
for file in "$fixture"/src/*.rs; do
    for line in $(grep -n '// seeded$' "$file" | cut -d: -f1); do
        seeded=$((seeded + 1))
        if ! grep -q "^src/${file##*/}:$line:.*disallowed method" "$fixture_out"; then
            echo "FAIL: clippy did not flag the seeded violation at ${file##*/}:$line" >&2
            cat "$fixture_out" >&2
            exit 1
        fi
    done
done
# Five seeded lines: two raw writes, two pad mints, one allocation.
flagged=$(grep -c 'error: use of a disallowed method' "$fixture_out" || true)
if [ "$seeded" -ne 5 ] || [ "$flagged" -ne "$seeded" ]; then
    echo "FAIL: expected 5 seeded violations, found $seeded marked and $flagged flagged" >&2
    cat "$fixture_out" >&2
    exit 1
fi
rm -f "$fixture_out"
finish

# Optional deeper checkers: run when the toolchain supports them,
# skip gracefully when it does not (offline container has no
# miri/TSan components by default).
if cargo miri --version >/dev/null 2>&1; then
    begin "cargo miri test -p fsencr-sim pool (optional)"
    cargo miri test -p fsencr-sim pool
    finish
else
    echo "==> miri unavailable; skipping (optional)"
fi
if [ "${FSENCR_TSAN:-0}" = "1" ] && rustc --print target-list >/dev/null 2>&1; then
    begin "ThreadSanitizer pass (FSENCR_TSAN=1)"
    RUSTFLAGS="-Zsanitizer=thread" cargo +nightly test -p fsencr-sim pool ||
        echo "    TSan pass failed or nightly unavailable; non-fatal (optional)"
    finish
else
    echo "==> ThreadSanitizer pass skipped (set FSENCR_TSAN=1 with a nightly toolchain to enable)"
fi

echo "==> verify OK in $(( $(date +%s) - t_start ))s"
