#!/usr/bin/env bash
# Smoke test of the benchmark at a tiny scale (--scale-override 0.01; the
# fault campaign shrinks to 40 scenarios). For every workload, untraced and
# traced, it checks that the result line is the last line of stdout, has
# exactly the keys correct/attempted/failed/metrics, reports correct, and
# prints every metric BENCHMARK.json lists (end_to_end untraced, per_layer
# traced) with its unit. Then it checks that bad arguments are refused with
# a typed error and exit code 2, not a panic.
#
# usage: benchmark/smoke.sh        (from anywhere; takes about a minute)
set -euo pipefail
cd "$(dirname "$0")/.."

bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
mkdir -p benchmark/out
out="$(mktemp -d benchmark/out/smoke.XXXXXX)"
trap 'rm -rf "$out"' EXIT

for w in pmemkv whisper dax faults; do
    for trace in 0 1; do
        "${bench[@]}" run --workload "$w" --seed 3 --seconds 1 --trace "$trace" \
            --scale-override 0.01 > "$out/stdout"
        python3 - "$out/stdout" "$w" "$trace" <<'EOF'
import json, sys
path, workload, trace = sys.argv[1], sys.argv[2], sys.argv[3]
last = open(path).read().rstrip("\n").split("\n")[-1]
res = json.loads(last)
assert sorted(res) == ["attempted", "correct", "failed", "metrics"], res.keys()
assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, last
spec = json.load(open("BENCHMARK.json"))
want = spec["per_layer"] if trace == "1" else spec["end_to_end"]
names = {m["name"]: m["unit"] for m in want}
assert set(res["metrics"]) == set(names), set(res["metrics"]) ^ set(names)
for name, unit in names.items():
    got = res["metrics"][name]
    assert got["unit"] == unit, (name, got, unit)
    assert isinstance(got["value"], (int, float)), (name, got)
print(f"ok   {workload:8} trace={trace}: {len(names)} metrics, {res['attempted']} attempted")
EOF
    done
done

# Bad arguments: a typed error on stderr and exit code 2, never a panic.
bad_args=(
    "run --workload nope --seed 1"
    "run --workload dax --seed minus-one"
    "run --workload dax --seed 1 --scale-override 0"
    "run --workload dax --seed 1 --scale-override 2"
    "run --workload dax --seed 1 --trace yes"
    "run --workload dax --seed 1 --seconds 0"
    "run --workload dax"
    "frobnicate"
)
for args in "${bad_args[@]}"; do
    set +e
    # shellcheck disable=SC2086
    "${bench[@]}" $args > "$out/stdout" 2> "$out/stderr"
    code=$?
    set -e
    if [ "$code" -ne 2 ] || grep -q panicked "$out/stderr" || [ -s "$out/stdout" ]; then
        echo "FAIL $args: exit $code" >&2
        cat "$out/stderr" >&2
        exit 1
    fi
    echo "ok   refused ($(head -n 1 "$out/stderr")): $args"
done
echo "smoke: all checks passed"
