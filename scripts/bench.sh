#!/usr/bin/env bash
# Quick-mode benchmark run: criterion micro-benchmarks for the per-step
# primitives (k-means, Hungarian matching, pipeline tick) plus the
# controller scaling report, which records the N=1000/K=10/d=2 tick, the
# k-means vector scan and the flat-vs-hierarchical ticks in
# BENCH_controller.json at the repo root, the forecast-training hot-path
# report, which records the LSTM fit, the cold-vs-warm auto-ARIMA grid and
# the staggered-retraining tick profile in BENCH_forecast.json, and the
# forecast read-plane query report, which records the cached-table per-read
# speedup over the recompute path plus multi-reader throughput in
# BENCH_query.json.
#
# The report binaries are built with RUSTFLAGS="-C target-cpu=native" (into
# their own target dir, target/native, so the portable build cache is
# untouched), so the committed JSONs reflect the host's real vector width.
# Parity guards run in the same binaries, so the bitwise contracts are
# re-checked under native codegen on every refresh.
#
# Usage: scripts/bench.sh [--full]
#   default    quick mode (few timing reps; minutes, not hours)
#   --full     more timing reps for stabler numbers
set -euo pipefail
cd "$(dirname "$0")/.."

REPS=32
FC_RETRAINS=6
if [[ "${1:-}" == "--full" ]]; then
  REPS=256
  FC_RETRAINS=16
fi

# Native-codegen build environment for the report binaries only.
NATIVE_TARGET_DIR="target/native"
NATIVE_RUSTFLAGS="-C target-cpu=native"

report() {
  local bin="$1"
  RUSTFLAGS="$NATIVE_RUSTFLAGS" CARGO_TARGET_DIR="$NATIVE_TARGET_DIR" \
    cargo run --release -p utilcast-bench --bin "$bin"
}

echo "==> cargo bench --bench micro (kmeans, hungarian, pipeline tick)"
cargo bench -p utilcast-bench --bench micro

echo "==> scaling_report (writes BENCH_controller.json, ${REPS} reps, native codegen)"
UTILCAST_STEPS="$REPS" report scaling_report

echo "==> forecast_report (writes BENCH_forecast.json, ${FC_RETRAINS} retrains, native codegen)"
UTILCAST_STEPS="$FC_RETRAINS" report forecast_report

echo "==> query_report (writes BENCH_query.json, native codegen)"
report query_report

echo "Benchmarks complete. Summary:"
grep -E '"(tick|flat_tick|hier_tick)_micros"|"speedup_vs_flat"' BENCH_controller.json
grep -E '"speedup"|"(mean|max|cluster_retrain)_micros"' BENCH_forecast.json
grep -E '"speedup"|"reads_per_sec"' BENCH_query.json
