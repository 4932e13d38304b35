#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
# A deleted or renamed item must not leave a dangling doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== unused uniq-* dependencies =="
# Every uniq-* crate a manifest depends on must be named as uniq_* in that
# package's src/, tests/ or benches/ (the root package: src/, tests/ and
# examples/*.rs); a dependency nothing names only slows the build.
unused_deps=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  if [ "$dir" = . ]; then srcs="src tests examples/*.rs"; else srcs="$dir/src $dir/tests $dir/benches"; fi
  for dep in $(awk '/^\[/ { on = /^\[(dev-|build-)?dependencies\]$/ } on && /^uniq-/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
    grep -rqw "${dep//-/_}" $srcs 2>/dev/null \
      || { echo "$manifest lists $dep, which no source names" >&2; unused_deps=1; }
  done
done
[ "$unused_deps" -eq 0 ]

echo "== pool-free substrate crates =="
# The numeric and simulation crates take no thread pool: fan-out and the
# tables built on it belong to uniq-core and the crates above it.
for crate in dsp geometry optim imu acoustics subjects; do
  if awk '/^\[/ { on = /^\[(dev-)?dependencies\]$/ } on && /^uniq-par[ .=]/' \
    "crates/$crate/Cargo.toml" | grep -q .; then
    echo "crates/$crate/Cargo.toml lists uniq-par" >&2
    exit 1
  fi
done

echo "== uniq-analyzer (line-local rules + call-graph dataflow, 10s budget) =="
# Hard gate: exits nonzero on any unsuppressed error-severity finding,
# line-local or interprocedural (determinism taint, panic reachability,
# lock order, hot-path allocation). The run self-times via the obs
# stopwatch and warns on stderr past the wall-time budget; the JSON
# findings report (schema 1) lands in bench_results/ for tooling.
cargo run -q -p uniq-analyzer -- check \
  --out bench_results/analyzer_findings.json --budget-seconds 10
# Warn tier: public items nothing outside their own file's tests uses
# (`dead-pub`) are printed, never fatal.
dead_pub=$(grep -o '"dead-pub":[0-9]*' bench_results/analyzer_findings.json | cut -d: -f2 || true)
if [ "${dead_pub:-0}" -gt 0 ]; then
  echo "warning: $dead_pub dead public item(s)"
fi

echo "== cargo test (UNIQ_THREADS=1) =="
UNIQ_THREADS=1 cargo test -q --workspace

echo "== cargo test (UNIQ_THREADS=4) =="
UNIQ_THREADS=4 cargo test -q --workspace

echo "== benchmark package (build + unit tests) =="
# examples/benchmark is its own package outside the workspace, with path
# dependencies on the layer crates: build and test it here so an API
# change in a layer crate cannot break it unnoticed.
cargo test --release --offline -q --manifest-path examples/benchmark/Cargo.toml

echo "== benchmark correctness smoke (every workload) =="
# A numerics change can break the benchmark's own quality gates
# (personalized beats the template, localization under 8°) while every
# unit test passes, and a serve or store change can break the serve
# workloads' checks (served fingerprints recomputed by the library, the
# cohort read back through the store): run every workload briefly and
# require the closing JSON line to report "correct":true.
for workload in personalize-paper aoa-render serve-saturate serve-open; do
  last=$(cargo run --release --offline -q --manifest-path examples/benchmark/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
  case "$last" in
    *'"correct":true'*) echo "$workload: correct" ;;
    *) echo "benchmark $workload failed its correctness gate: $last" >&2; exit 1 ;;
  esac
done

echo "== release build (profiling + baseline gate binaries) =="
cargo build --release -q -p uniq-cli -p uniq-bench

echo "== AoA figures are bit-stable (fig21, fig22 CSVs match the committed ones) =="
# Eq. 9's bound pruning skips only templates that cannot win, and Eq. 11's
# lag-domain cost equals its spectrum form to round-off, so no estimate
# moves: regenerating the two AoA figures must reproduce the committed
# CSVs byte for byte.
target/release/experiments fig21 fig22 > /dev/null
git diff --exit-code -- 'bench_results/fig21_*.csv' 'bench_results/fig22*.csv' \
  || { echo "fig21/fig22 CSVs changed: an AoA estimate moved" >&2; exit 1; }

echo "== profile smoke (--profile registry table + stage coverage) =="
ci_tmp="$(mktemp -d)"
trap 'rm -rf "$ci_tmp"' EXIT
target/release/uniq personalize --seed 6 --out "$ci_tmp/hrtf" \
  --anechoic --grid 15 --profile \
  --profile-out "$ci_tmp/profile.json" --flame-out "$ci_tmp/flame.txt" \
  > "$ci_tmp/profile.log"
grep -q "per-stage wall clock:" "$ci_tmp/profile.log"
target/release/baseline verify-profile "$ci_tmp/profile.json"
test -s "$ci_tmp/flame.txt"

echo "== fusion work counters (seed 6, identical at 1 and 4 threads) =="
# Objective evaluation, residual evaluation and Gauss-Newton step counts
# are pure functions of the workload, unlike wall time, so they must
# agree exactly across pool sizes.
for threads in 1 4; do
  UNIQ_THREADS=$threads target/release/uniq personalize --seed 6 \
    --anechoic --grid 15 --snr 45 --out "$ci_tmp/work_hrtf" \
    --profile-out "$ci_tmp/work_$threads.json" > /dev/null
  grep -o '"fusion\.\([a-z_]*_evals\|gn_iterations\)": [0-9]*' \
    "$ci_tmp/work_$threads.json" > "$ci_tmp/work_$threads.txt"
done
[ "$(wc -l < "$ci_tmp/work_1.txt")" -eq 3 ] \
  || { echo "profile JSON lacks the fusion work counters" >&2; exit 1; }
cmp -s "$ci_tmp/work_1.txt" "$ci_tmp/work_4.txt" \
  || { echo "fusion work counters differ between 1 and 4 threads" >&2; exit 1; }

echo "== paper-config determinism (seed 801, 1 deg grid, identical at 1 and 4 threads) =="
# The paper configuration, where each critical-ray arc holds ~25
# near-field entries: the .uhrtf bytes must not depend on the pool size.
for threads in 1 4; do
  UNIQ_THREADS=$threads target/release/uniq personalize --seed 801 --grid 1 \
    --out "$ci_tmp/paper_$threads.uhrtf" > /dev/null
done
cmp "$ci_tmp/paper_1.uhrtf" "$ci_tmp/paper_4.uhrtf" \
  || { echo "paper-config .uhrtf differs between 1 and 4 threads" >&2; exit 1; }

echo "== composed smoke (every observability flag on one faulted run) =="
# One run under --trace --profile --memprof and a fault plan: the table,
# the JSON, the Prometheus text and the flame all come from the one
# registry, so they must agree on the personalize span count.
target/release/uniq personalize --seed 6 --anechoic --grid 15 --snr 45 \
  --trace --profile --memprof --fault-plan drop@2 \
  --telemetry-out "$ci_tmp/all.prom" --profile-out "$ci_tmp/all.json" \
  --flame-out "$ci_tmp/all.folded" > "$ci_tmp/all.log" 2> "$ci_tmp/all.err"
grep -q "degradation:" "$ci_tmp/all.log"
grep -q "alloc-b" "$ci_tmp/all.log"
grep -q "per-stage wall clock:" "$ci_tmp/all.err"
if grep -q "warning: unused option" "$ci_tmp/all.err"; then
  echo "composed run left an option unread" >&2
  exit 1
fi
table_count=$(awk '$1 == "personalize" { print $2; exit }' "$ci_tmp/all.log")
prom_count=$(awk '$1 == "uniq_personalize_ns_count" { print $2 }' "$ci_tmp/all.prom")
[ -n "$table_count" ] && [ "$table_count" = "$prom_count" ] \
  || { echo "table ($table_count) and Prometheus ($prom_count) disagree" >&2; exit 1; }
target/release/baseline verify-profile "$ci_tmp/all.json"
grep -q "^personalize " "$ci_tmp/all.folded"

echo "== memprof smoke (allocation attribution, 1 and 4 threads) =="
# --memprof must attribute allocations to pipeline stages at any pool
# size, write the snapshot JSON, and compose with --profile (alloc
# columns in the latency table). The bytes-weighted flame must be the
# same at both pool sizes, but for the pool's own (unattributed) bytes.
for threads in 1 4; do
  UNIQ_THREADS=$threads target/release/uniq personalize --seed 6 \
    --out "$ci_tmp/mp_hrtf" --anechoic --grid 15 --memprof \
    --alloc-out "$ci_tmp/alloc_$threads.json" \
    --alloc-flame-out "$ci_tmp/alloc_flame_$threads.txt" > "$ci_tmp/memprof.log"
  grep -q "per-stage allocations:" "$ci_tmp/memprof.log"
  grep -q "fusion" "$ci_tmp/memprof.log"
  test -s "$ci_tmp/alloc_$threads.json"
  grep -v '^(unattributed) ' "$ci_tmp/alloc_flame_$threads.txt" | sort \
    > "$ci_tmp/alloc_flame_$threads.sorted"
done
test -s "$ci_tmp/alloc_flame_1.sorted"
cmp -s "$ci_tmp/alloc_flame_1.sorted" "$ci_tmp/alloc_flame_4.sorted" || {
  echo "allocation flame differs between 1 and 4 threads:" >&2
  diff "$ci_tmp/alloc_flame_1.sorted" "$ci_tmp/alloc_flame_4.sorted" | head -n 20 >&2
  exit 1
}
target/release/uniq personalize --seed 6 --out "$ci_tmp/mp_hrtf" \
  --anechoic --grid 15 --memprof --profile > "$ci_tmp/memprof_prof.log"
grep -q "alloc-b" "$ci_tmp/memprof_prof.log"

echo "== allocator overhead (--memprof vs bare personalize) =="
# The counting allocator must be effectively free: even with recording
# on, the measured run stays near the bare run (which pays one relaxed
# atomic load per allocation). Eleven bare/--memprof pairs, alternating
# which side runs first, so a slow spell on a shared machine lands on
# both sides; the step judges the median of the per-pair ratios. The 5%
# target is warn-tier, 25% is the hard CI ceiling.
run_ns() {
  local t0 t1
  t0=$(date +%s%N)
  "$@" > /dev/null
  t1=$(date +%s%N)
  echo $((t1 - t0))
}
bare=(env UNIQ_THREADS=1 target/release/uniq personalize \
  --seed 6 --out "$ci_tmp/ov_hrtf" --anechoic --grid 15)
ratios=""
for pair in $(seq 1 11); do
  if [ $((pair % 2)) -eq 1 ]; then
    bare_ns=$(run_ns "${bare[@]}")
    prof_ns=$(run_ns "${bare[@]}" --memprof)
  else
    prof_ns=$(run_ns "${bare[@]}" --memprof)
    bare_ns=$(run_ns "${bare[@]}")
  fi
  ratios="$ratios $(awk -v b="$bare_ns" -v p="$prof_ns" 'BEGIN { printf "%.4f", p / b }')"
done
overhead_pct=$(echo "$ratios" | tr ' ' '\n' | sed '/^$/d' | sort -g \
  | awk '{ r[NR] = $1 } END { printf "%.1f", (r[6] - 1.0) * 100.0 }')
echo "allocator overhead: ${overhead_pct}% (median of 11 pairs; memprof/bare ratios:${ratios})"
if ! awk -v o="$overhead_pct" 'BEGIN { exit !(o < 25.0) }'; then
  echo "allocator overhead ${overhead_pct}% exceeds the 25% CI ceiling" >&2
  exit 1
fi
awk -v o="$overhead_pct" 'BEGIN { exit !(o < 5.0) }' \
  || echo "warning: allocator overhead ${overhead_pct}% exceeds the 5% target"

echo "== fault-matrix smoke (every fault class, 1 and 4 threads) =="
# Each injectable fault class at its default (preset) intensity must
# degrade gracefully: personalize --fault-plan completes with exit 0 and
# prints a populated degradation report, at both pool sizes.
fault_plans="drop@2 truncate:0.5@3 clip:0.35 snr:-12@4 \
  gyro-dropout:0.45:0.05 gyro-sat:12 jitter:0.05 dup@5 reorder@6"
for plan in $fault_plans; do
  for threads in 1 4; do
    UNIQ_THREADS=$threads target/release/uniq personalize --seed 6 \
      --anechoic --grid 15 --snr 45 --fault-plan "$plan" \
      > "$ci_tmp/faults.log"
    grep -q "degradation:" "$ci_tmp/faults.log"
  done
done
# A failing faulted run must propagate its nonzero exit status.
if target/release/uniq personalize --seed 6 --anechoic \
  --fault-plan bogus-class >/dev/null 2>&1; then
  echo "personalize --fault-plan swallowed a failure exit status" >&2
  exit 1
fi
# The empty plan runs the one pipeline a clean run takes (under the
# default degradation policy instead of the clean one): both ledger
# records must carry the same personalize_fingerprint.
target/release/uniq personalize --seed 6 --anechoic --grid 15 --snr 45 \
  --out "$ci_tmp/clean_hrtf" --history "$ci_tmp/empty_plan.jsonl" > /dev/null
target/release/uniq personalize --seed 6 --anechoic --grid 15 --snr 45 \
  --fault-plan none --history "$ci_tmp/empty_plan.jsonl" > /dev/null
fingerprints=$(grep -o '"personalize_fingerprint": *"0x[0-9a-f]*"' \
  "$ci_tmp/empty_plan.jsonl" | sed 's/.*"\(0x[0-9a-f]*\)"/\1/')
[ "$(echo "$fingerprints" | wc -l)" -eq 2 ] \
  && [ "$(echo "$fingerprints" | sort -u | wc -l)" -eq 1 ] \
  || { echo "--fault-plan none diverged from the clean run: $fingerprints" >&2; exit 1; }
# A parseable-looking plan with a non-finite parameter is a parse error
# (exit 1, "error: --fault-plan: ..."), never a panic (exit 101).
status=0
target/release/uniq personalize --seed 6 --anechoic --grid 15 \
  --fault-plan snr:nan > /dev/null 2> "$ci_tmp/nan_plan.err" || status=$?
[ "$status" -eq 1 ] && grep -q "^error: --fault-plan:" "$ci_tmp/nan_plan.err" \
  || { echo "--fault-plan snr:nan: exit $status, not a parse error" >&2; exit 1; }

echo "== trace-report smoke (causal tree reconstruction, 1, 2 and 4 threads) =="
# A personalize run's JSONL trace must rebuild into a complete causal
# tree (exit 0 = no orphans) whose report names the critical path,
# regardless of pool size, and the registry's flame must hold the same
# call paths at every pool size. Pool size 2 (one worker plus the caller)
# is where a waiting caller runs the largest share of its map's jobs.
for threads in 1 2 4; do
  UNIQ_THREADS=$threads target/release/uniq personalize --seed 6 \
    --out "$ci_tmp/trace_hrtf" --anechoic --grid 15 \
    --metrics-out "$ci_tmp/trace_$threads.jsonl" \
    --flame-out "$ci_tmp/flame_$threads.txt" \
    --telemetry-out "$ci_tmp/telemetry_$threads.prom" > /dev/null
  cut -d' ' -f1 "$ci_tmp/flame_$threads.txt" | sort > "$ci_tmp/flame_$threads.paths"
  target/release/uniq trace report "$ci_tmp/trace_$threads.jsonl" \
    > "$ci_tmp/trace_report.log"
  grep -q "critical path:" "$ci_tmp/trace_report.log"
  grep -q "uniq_personalize_ns_count" "$ci_tmp/telemetry_$threads.prom"
  # Every line but span_end (which carries wall time) — ids, depths,
  # counters, metrics — must be the same at every pool size.
  grep -v '"event":"span_end"' "$ci_tmp/trace_$threads.jsonl" | sort \
    > "$ci_tmp/trace_$threads.sorted"
done
test -s "$ci_tmp/flame_1.paths"
for threads in 2 4; do
  cmp -s "$ci_tmp/trace_1.sorted" "$ci_tmp/trace_$threads.sorted" || {
    echo "trace lines differ between 1 and $threads threads:" >&2
    diff "$ci_tmp/trace_1.sorted" "$ci_tmp/trace_$threads.sorted" | head -n 20 >&2
    exit 1
  }
  cmp -s "$ci_tmp/flame_1.paths" "$ci_tmp/flame_$threads.paths" || {
    echo "flame call paths differ between 1 and $threads threads:" >&2
    diff "$ci_tmp/flame_1.paths" "$ci_tmp/flame_$threads.paths" | head -n 20 >&2
    exit 1
  }
done

echo "== store smoke (put/get/verify round trip, 1 and 4 threads) =="
# The content-addressed store must round-trip the personalized HRTF
# bit-exactly: put at both pool sizes lands on the same content key
# (one blob + one dedup hit), get succeeds and verify walks every blob
# clean. `.uhrtf` is the only HRTF file format: personalize --out with
# the same flags writes the stored blob byte for byte, info/render/aoa
# read it, and importing it back is a dedup hit.
UNIQ_THREADS=1 target/release/uniq store put --store "$ci_tmp/store" \
  --seed 6 --anechoic --grid 15 --snr 45 --history "$ci_tmp/history.jsonl" \
  > "$ci_tmp/store_put_1.log"
grep -q "^key " "$ci_tmp/store_put_1.log"
UNIQ_THREADS=4 target/release/uniq store put --store "$ci_tmp/store" \
  --seed 6 --anechoic --grid 15 --snr 45 --history "$ci_tmp/history.jsonl" \
  > "$ci_tmp/store_put_4.log"
grep -q "deduplicated" "$ci_tmp/store_put_4.log"
store_key="$(awk '/^key /{print $2}' "$ci_tmp/store_put_1.log")"
target/release/uniq store ls --store "$ci_tmp/store" | grep -q "$store_key"
target/release/uniq store verify --store "$ci_tmp/store"
target/release/uniq personalize --seed 6 --anechoic --grid 15 --snr 45 \
  --out "$ci_tmp/x.uhrtf" > /dev/null
target/release/uniq store get --store "$ci_tmp/store" --key "$store_key" \
  --out "$ci_tmp/store_get.uhrtf" > /dev/null
cmp "$ci_tmp/x.uhrtf" "$ci_tmp/store_get.uhrtf" \
  || { echo "personalize --out and store put wrote different bytes" >&2; exit 1; }
target/release/uniq info --table "$ci_tmp/x.uhrtf" > "$ci_tmp/x_info.log"
grep -q "head parameters" "$ci_tmp/x_info.log"
target/release/uniq render --table "$ci_tmp/x.uhrtf" --theta 60 --signal music \
  --duration 0.2 --out "$ci_tmp/x.wav" > /dev/null
test -s "$ci_tmp/x.wav"
# A test signal too long to synthesize is a typed error (exit 1), never
# a panic (exit 101).
status=0
target/release/uniq render --table "$ci_tmp/x.uhrtf" --duration 1e300 \
  --out "$ci_tmp/huge.wav" > /dev/null 2> "$ci_tmp/huge.err" || status=$?
[ "$status" -eq 1 ] && grep -q "^error:" "$ci_tmp/huge.err" \
  || { echo "render --duration 1e300: exit $status, not an error" >&2; exit 1; }
target/release/uniq aoa --table "$ci_tmp/x.uhrtf" --theta 60 --signal speech \
  > "$ci_tmp/x_aoa.log"
grep -q "estimated" "$ci_tmp/x_aoa.log"
target/release/uniq store import --store "$ci_tmp/store" \
  --table "$ci_tmp/x.uhrtf" > "$ci_tmp/import.log"
grep -q "deduplicated" "$ci_tmp/import.log"
# A truncated file is a load error (exit 1, "cannot load"), never a
# panic (exit 101).
head -c 1000 "$ci_tmp/x.uhrtf" > "$ci_tmp/truncated.uhrtf"
status=0
target/release/uniq info --table "$ci_tmp/truncated.uhrtf" \
  > /dev/null 2> "$ci_tmp/truncated.err" || status=$?
[ "$status" -eq 1 ] && grep -q "cannot load" "$ci_tmp/truncated.err" \
  || { echo "info --table on a truncated file: exit $status, not a load error" >&2; exit 1; }
# A missing key must be a typed failure (exit 1), not a crash.
if target/release/uniq store get --store "$ci_tmp/store" \
  --key 0000000000000000 >/dev/null 2>&1; then
  echo "store get succeeded on a key that does not exist" >&2
  exit 1
fi

echo "== serve smoke (live server + loadgen drain, 1 and 4 threads) =="
# A live sharded server must publish its ephemeral port, serve a seeded
# population through the closed-loop harness with zero fingerprint
# conflicts (loadgen exits nonzero on any), answer the repeat prefix
# from the result cache, drain on the shutdown request, and print the
# same population fingerprint at every pool size.
for threads in 1 4; do
  rm -f "$ci_tmp/serve_addr"
  UNIQ_THREADS=$threads target/release/uniq serve --addr 127.0.0.1:0 \
    --shards 2 --grid 15 --snr 45 --anechoic \
    --store "$ci_tmp/serve_store_$threads" \
    --addr-file "$ci_tmp/serve_addr" > "$ci_tmp/serve_$threads.log" &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$ci_tmp/serve_addr" ] && break
    sleep 0.1
  done
  [ -s "$ci_tmp/serve_addr" ] || { echo "serve never published an address" >&2; exit 1; }
  UNIQ_THREADS=$threads target/release/uniq loadgen \
    --addr "$(cat "$ci_tmp/serve_addr")" --subjects 4 --clients 2 \
    --shutdown > "$ci_tmp/loadgen_$threads.log"
  wait "$serve_pid"
  grep -q "serve drained" "$ci_tmp/serve_$threads.log"
  grep -q " 2 cached," "$ci_tmp/loadgen_$threads.log"
  grep -q "loadgen.request" "$ci_tmp/loadgen_$threads.log"
done
# Determinism across pool sizes: both runs served the same population and
# must print the same fingerprint — with server and harness agreeing.
fp() { awk '/population fingerprint/{print $NF}' "$1" | head -1; }
[ "$(fp "$ci_tmp/loadgen_1.log")" = "$(fp "$ci_tmp/loadgen_4.log")" ] \
  || { echo "serve fingerprint differs across pool sizes" >&2; exit 1; }
[ "$(fp "$ci_tmp/serve_1.log")" = "$(fp "$ci_tmp/loadgen_1.log")" ] \
  || { echo "server and loadgen disagree on the population fingerprint" >&2; exit 1; }

echo "== baseline determinism (two runs, bit-identical quality and work counters) =="
target/release/baseline run --out "$ci_tmp/fresh_a.json" --history "$ci_tmp/history.jsonl"
target/release/baseline run --out "$ci_tmp/fresh_b.json" --history "$ci_tmp/history.jsonl"
target/release/baseline quality-identical "$ci_tmp/fresh_a.json" "$ci_tmp/fresh_b.json"

echo "== regression gate (fresh_b vs BENCH_BASELINE.json and the run ledger) =="
# The one gate: fresh_b is judged against the blessed document and every
# "baseline" line of the ledger (both runs above appended one). Quality
# within 2%, and fingerprints, work counters, alloc and serve counts
# exactly, against each reference: a finding exits 1. Timings are judged
# against the references' median and only print warnings.
target/release/baseline compare --baseline BENCH_BASELINE.json \
  --fresh "$ci_tmp/fresh_b.json" --history "$ci_tmp/history.jsonl"

echo "== regression gate negative control (one fingerprint digit flipped) =="
sed -E 's/("personalize_fingerprint": "0x[0-9a-f]{15})0"/\11"/; t
s/("personalize_fingerprint": "0x[0-9a-f]{15})[1-9a-f]"/\10"/' \
  "$ci_tmp/fresh_b.json" > "$ci_tmp/doctored.json"
if cmp -s "$ci_tmp/fresh_b.json" "$ci_tmp/doctored.json"; then
  echo "negative control left the fingerprint unchanged" >&2
  exit 1
fi
if target/release/baseline compare --baseline BENCH_BASELINE.json \
  --fresh "$ci_tmp/doctored.json" --history "$ci_tmp/history.jsonl" \
  > "$ci_tmp/doctored.log"; then
  echo "the regression gate accepted a doctored fingerprint" >&2
  exit 1
fi
grep -q "QUALITY REGRESSION: quality.personalize_fingerprint" "$ci_tmp/doctored.log"

echo "== baseline compare vs BENCH_BASELINE.json (UNIQ_THREADS=4) =="
UNIQ_THREADS=4 target/release/baseline compare --baseline BENCH_BASELINE.json

echo "CI green."
