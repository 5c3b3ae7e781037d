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

begin "cargo build --release --workspace"
cargo build --release --workspace
finish

begin "cargo test -q --workspace"
cargo test -q --workspace
finish

# Clippy and rustc carry the panic (unwrap/expect/panic!), truncating-cast,
# nondeterminism (hashed collections, host clocks, thread::current) and
# forbid-unsafe rules; see Cargo.toml, the hot-path crate roots and the
# clippy.toml files.
begin "cargo clippy --workspace --all-targets -- -D warnings (no-panic, truncating casts, nondeterminism, forbid-unsafe)"
cargo clippy --workspace --all-targets -- -D warnings
finish

# The benchmark is a package of its own outside the workspace; it calls
# the public API (observer, crypto, datapath, profile cells), so an API
# edit must keep it compiling.
begin "cargo check benchmark/ (all targets)"
cargo check --offline --manifest-path benchmark/Cargo.toml --all-targets
finish

begin "static analysis gate: cargo run -p analysis -- check"
cargo run --release -q -p analysis -- check
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

begin "snapshot save -> info -> load CLI round trip"
snap_dir="$(mktemp -d)"
(
    cd "$snap_dir"
    # Save a post-setup image, list its sections, restore it. Any
    # digest/fingerprint mismatch exits non-zero.
    "$OLDPWD/target/release/harness" snapshot save MACHINE.snap
    "$OLDPWD/target/release/harness" snapshot info MACHINE.snap >/dev/null
    "$OLDPWD/target/release/harness" snapshot load MACHINE.snap >/dev/null
)
rm -rf "$snap_dir"
finish

begin "static analysis self-test: the gate must fail on the seeded-violation fixtures"
if cargo run --release -q -p analysis -- lint --root crates/analysis/fixtures/violations >/tmp/fsencr_lint_fixture.out 2>&1; then
    echo "FAIL: source passes reported the seeded-violation fixture tree as clean" >&2
    exit 1
fi
# The fixture tree seeds a bare allocation in each class of
# allocation-free file; each must actually be reported.
for seeded in "crates/fsencr/src/batch.rs" "crates/secmem/src/metadata.rs" "crates/crypto/src/lanes.rs" "crates/faults/src/inject.rs" "crates/snapshot/src/lib.rs"; do
    if ! grep -q "$seeded" /tmp/fsencr_lint_fixture.out; then
        echo "FAIL: lint did not flag seeded violations in $seeded" >&2
        exit 1
    fi
done
# The confinement fixtures: a plaintext leak reaching a raw NVM write
# (directly and through a caller) and a counter-free IV-reuse pad site.
# Each must be reported under its confinement rule.
for seeded in "crates/fsencr/src/leak.rs" "crates/workloads/src/ivreuse.rs"; do
    if ! grep -q "$seeded" /tmp/fsencr_lint_fixture.out; then
        echo "FAIL: confinement pass did not flag seeded violations in $seeded" >&2
        exit 1
    fi
done
for rule in "hot-alloc" "plaintext-confinement" "confinement-reach" "pad-site"; do
    if ! grep -q "$rule" /tmp/fsencr_lint_fixture.out; then
        echo "FAIL: seeded fixtures did not trip the $rule rule" >&2
        exit 1
    fi
done
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
