#!/usr/bin/env bash
# One command, two scales: builds the benchmark, runs every workload
# untraced (end-to-end metrics) and traced (per-layer metrics), prints
# every metric by name, and writes benchmark/out/result.json.
#
#   benchmark/run.sh [--seed S] [--smoke]
set -euo pipefail
cd "$(dirname "$0")/.."

seed=1
smoke=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --smoke) smoke="--smoke"; shift ;;
    *) echo "usage: benchmark/run.sh [--seed S] [--smoke]" >&2; exit 2 ;;
  esac
done

cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/bench"
out=benchmark/out
status=0
files=()
for workload in collect_wide serve_wide retrain_heavy lossy_sharded; do
  for trace in 0 1; do
    # The last line is the driver's JSON; the listing above it says the same.
    "$bin" --workload "$workload" --seed "$seed" --trace "$trace" --out "$out" $smoke \
      | sed '$d' || status=1
    if [ "$trace" = 1 ]; then mode=trace; else mode=run; fi
    files+=("$out/$mode-$workload.json")
  done
done

{
  printf '{"seed":%s,"smoke":%s,"results":[' "$seed" "$([ -n "$smoke" ] && echo true || echo false)"
  sep=""
  for f in "${files[@]}"; do
    printf '%s' "$sep"
    cat "$f"
    sep=","
  done
  printf ']}\n'
} > "$out/result.json"
echo "wrote $out/result.json"
exit "$status"
