#!/usr/bin/env bash
# Runs each workload N times (seeds 1..N) at the checked-out revision and
# reports, per end-to-end metric, the median, the interquartile range as a
# share of the median, max/min, and the bound BENCHMARK.json should carry:
# max(10%, 2 x IQR/median). A (metric, workload) pair whose IQR share
# exceeds 10% needs a larger workload, not a wider bound.
#
# usage: benchmark/calibrate.sh [RUNS] [WORKLOAD...]     (from the repo root)
# Writes benchmark/out/calibration.json next to the printed table.
set -euo pipefail
cd "$(dirname "$0")/.."

runs="${1:-5}"
shift || true
workloads=("$@")
if [ "${#workloads[@]}" -eq 0 ]; then
    workloads=(pmemkv whisper dax faults)
fi
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
mkdir -p benchmark/out
results=benchmark/out/calibration.lines
: > "$results"
# Round-robin over workloads, so a slow spell of the host lands on every
# workload instead of on whichever one happens to run during it.
for seed in $(seq 1 "$runs"); do
    for w in "${workloads[@]}"; do
        line="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            run --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
        echo "$w $line" >> "$results"
        echo "$w seed $seed: $line" >&2
    done
done

python3 - "$results" <<'EOF'
import json, statistics, sys
rows = {}
for raw in open(sys.argv[1]):
    w, line = raw.split(" ", 1)
    res = json.loads(line)
    if not res["correct"]:
        print(f"{w}: a run was incorrect: {line.strip()}")
    for name, m in res["metrics"].items():
        rows.setdefault((w, name), []).append(m["value"])
out = {}
print(f"{'workload':10} {'metric':14} {'median':>12} {'iqr/med':>8} {'max/min':>8} {'bound':>6}")
for (w, name), v in sorted(rows.items()):
    med = statistics.median(v)
    q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    iqr = (q[2] - q[0]) / med if med else 0.0
    spread = max(v) / min(v) if min(v) else 0.0
    bound = max(0.10, 2 * iqr)
    out.setdefault(w, {})[name] = {"median": med, "iqr_share": iqr, "max_over_min": spread, "bound": bound, "values": v}
    flag = "  <- spread > 10%" if iqr > 0.10 else ""
    print(f"{w:10} {name:14} {med:12.4f} {iqr:8.2%} {spread:8.3f} {bound:6.2f}{flag}")
json.dump(out, open("benchmark/out/calibration.json", "w"), indent=2)
EOF
