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

begin "region-op equivalence: region ops vs chained and fan-out per-line loops"
cargo test -q -p fsencr --test batch_equivalence
finish

begin "Merkle engine + ECC lanes: lane kernel cross-validation, batched tags, counter packing, region/rebuild equivalence"
cargo test -q -p fsencr-crypto --lib lanes
cargo test -q -p fsencr-secmem --lib ecc
cargo test -q -p fsencr-secmem --lib counters
cargo test -q -p fsencr-secmem --lib matches_per_line
cargo test -q -p fsencr-secmem --lib verify_lines
cargo test -q -p fsencr-secmem --lib parallel_rebuild
finish

begin "snapshot subsystem + store: codec round-trip + warm-start equivalence + store equivalence"
cargo test -q -p fsencr-snapshot
cargo test -q -p fsencr --test snapshot_roundtrip
cargo test -q -p fsencr-workloads --test warm_start
cargo test -q -p fsencr-bench --test store_equivalence
finish

begin "security-oracle replay: figures + rekey + crash recovery under armed oracles"
cargo test -q -p fsencr-bench --test oracle_replay
finish

begin "fault campaign properties: determinism across jobs/schedules, injector neutrality"
cargo test -q -p fsencr-bench --test fault_campaign
finish

begin "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
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

begin "snapshot save -> restore + warm-start figure byte-diff"
snap_dir="$(mktemp -d)"
(
    cd "$snap_dir"
    # The CLI round-trip: save a post-setup image, list its sections,
    # restore it. Any digest/fingerprint mismatch exits non-zero.
    "$OLDPWD/target/release/harness" snapshot save MACHINE.snap
    "$OLDPWD/target/release/harness" snapshot info MACHINE.snap >/dev/null
    "$OLDPWD/target/release/harness" snapshot load MACHINE.snap >/dev/null
    # Figure byte-diff: a cold run populates CACHE/, a warm run at a
    # different worker count (cell entries deleted) restores the setup
    # entries — the printed figures must be byte-identical.
    "$OLDPWD/target/release/harness" --jobs 1 fig12-14 0.01 >fig_cold.txt
    rm -f CACHE/*.cell
    "$OLDPWD/target/release/harness" --jobs 4 fig12-14 0.01 >fig_warm.txt
    if ! cmp -s fig_cold.txt fig_warm.txt; then
        echo "FAIL: warm-started figures differ from cold-setup figures" >&2
        diff fig_cold.txt fig_warm.txt >&2 || true
        exit 1
    fi
)
rm -rf "$snap_dir"
finish

begin "static analysis self-test: the gate must fail on the seeded-violation fixtures"
if cargo run --release -q -p analysis -- lint --root crates/analysis/fixtures/violations >/tmp/fsencr_lint_fixture.out 2>&1; then
    echo "FAIL: source passes reported the seeded-violation fixture tree as clean" >&2
    exit 1
fi
# The fixture tree seeds violations in every guarded crate class,
# including the observability and fault-injection crates; each must
# actually be reported.
for seeded in "crates/bench/src/lib.rs" "crates/fsencr/src/lib.rs" "crates/obs/src/lib.rs" "crates/fsencr/src/batch.rs" "crates/secmem/src/metadata.rs" "crates/crypto/src/lanes.rs" "crates/faults/src/inject.rs" "crates/snapshot/src/lib.rs"; do
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
for rule in "plaintext-confinement" "confinement-reach" "pad-site"; do
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
