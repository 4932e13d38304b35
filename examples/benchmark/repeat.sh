#!/usr/bin/env bash
# Repeatability of the benchmark: runs each workload RUNS times untraced and
# prints, per end-to-end metric, the median, the quartiles, the
# interquartile range and (max - min), both as shares of the median.
# Quartiles are Python's statistics.quantiles(values, n=4).
#
#   examples/benchmark/repeat.sh [workload...]
#
# Environment: RUNS (default 5), SEED (default 1), VARY_SEED=1 to use seeds
# SEED, SEED+1, ... instead of one seed.
# Run records are kept in .bench_run/repeat/.
set -euo pipefail
cd "$(dirname "$0")/../.."

runs=${RUNS:-5}
seed=${SEED:-1}
vary=${VARY_SEED:-0}
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(personalize-paper serve-open serve-saturate aoa-render)
fi

echo "machine: nproc=$(nproc) cpu=$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ *//')"
echo "runs=$runs seed=$seed vary_seed=$vary"
cargo build --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml
mkdir -p .bench_run/repeat
for w in "${workloads[@]}"; do
  out=".bench_run/repeat/$w.jsonl"
  : > "$out"
  for i in $(seq 0 $((runs - 1))); do
    s=$seed
    if [ "$vary" = 1 ]; then s=$((seed + i)); fi
    cargo run --release --offline --quiet --manifest-path examples/benchmark/Cargo.toml -- \
      --workload "$w" --seed "$s" --trace 0 | tail -n 1 >> "$out"
  done
  python3 - "$w" "$out" <<'EOF'
import json, statistics, sys
workload, path = sys.argv[1], sys.argv[2]
rows = [json.loads(line) for line in open(path)]
bad = [r for r in rows if not r["correct"] or r["failed"]]
print(f"== {workload}: {len(rows)} runs, {len(bad)} wrong or failing")
print(f"  {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'range/med':>9}")
for name in rows[0]["metrics"]:
    values = [r["metrics"][name]["value"] for r in rows]
    unit = rows[0]["metrics"][name]["unit"]
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    print(f"  {name:<18} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {(q3 - q1) / med:>8.4f} {(max(values) - min(values)) / med:>9.4f}  {unit}")
EOF
done
