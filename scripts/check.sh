#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 build + test suite, every
# workspace crate's own suite, and the end-to-end benchmark's tests + smoke.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# Lint in baseline-diff mode by default: only findings not recorded in
# lint-baseline.txt fail the gate, so local iteration is not blocked on
# someone else's accepted audit backlog. LINT_FULL=1 runs the full scan
# (what CI's lint job enforces — the baseline is expected to stay empty).
if [ "${LINT_FULL:-0}" = "1" ]; then
  echo "==> cargo run -q -p utilcast-lint (full scan)"
  cargo run -q -p utilcast-lint
else
  echo "==> cargo run -q -p utilcast-lint -- --baseline (LINT_FULL=1 for the full scan)"
  cargo run -q -p utilcast-lint -- --baseline
fi

echo "==> cargo clippy --all-targets -- -D warnings -D clippy::perf"
cargo clippy --all-targets -- -D warnings -D clippy::perf

# Rustdoc with warnings as errors, so a dangling or private intra-doc link
# fails the gate. The utilcast packages are named one by one: the vendored
# stand-ins (`proptest` has an ambiguous `vec` link) are not held to it.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps (utilcast packages)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p utilcast -p utilcast-linalg -p utilcast-clustering -p utilcast-timeseries \
  -p utilcast-datasets -p utilcast-core -p utilcast-gaussian -p utilcast-simnet \
  -p utilcast-bench -p utilcast-lint

echo "==> cargo build --release"
cargo build --release

# The workspace's members include the root package `utilcast`, so this
# runs the tier-1 suite (`cargo test -q` at the root) as well as the
# crates' own suites, which hold every plane's oracle: the k-means block
# scan against the row scan and the nested exact descent (clustering),
# the fused LSTM path against
# the scalar loops and the ARIMA CSS evaluator against its allocating
# twin (timeseries), the Nelder–Mead rewrite (linalg), the transmitter bank
# against a per-node fleet and the Eq. 12 resolve kernel against its
# allocating twin (core), the frame drivers against the per-node
# reference loop and the controller's per-node-order property,
# crash/restore replay, the chaos suite and SimReport equality at any
# thread and shard count (simnet).
echo "==> cargo test --workspace -q"
cargo test --workspace -q

# The LSTM suites once more, optimised: the differential suite's bitwise
# contract under release codegen (where the gate loops vectorise), and the
# default-configuration half of the owned-vs-libm quality gate, which is
# skipped in unoptimised builds.
echo "==> cargo test --release -q -p utilcast-timeseries --lib lstm::"
cargo test --release -q -p utilcast-timeseries --lib lstm::

# The vendored serde / serde_derive / serde_json stand-ins carry their own
# tests (value-tree round trips, the printer's pinned output, the parser's
# depth cap and surrogate checks); name them so they run even if the
# workspace's member list stops reaching vendor/.
echo "==> cargo test -q -p serde -p serde_derive -p serde_json"
cargo test -q -p serde -p serde_derive -p serde_json

# The end-to-end benchmark is a workspace of its own (benchmark/), so
# nothing above builds or tests it. Its unit tests cover the estimator,
# generator and spans; the smoke run drives all four workloads, traced and
# untraced, through its built-in checks — table bitwise equal to the
# recompute path, crash/restore replay, replay agreement of every
# deterministic output — and exits non-zero if any of them fails.
echo "==> benchmark tests (cd benchmark && cargo test --offline -q)"
(cd benchmark && cargo test --offline -q)

echo "==> benchmark smoke (benchmark/run.sh --smoke)"
benchmark/run.sh --smoke

# Smoke-run the forecast hot-path benchmark at tiny scale: proves the
# bench binary stays runnable without spending real timing reps. The
# output directory is redirected so the committed BENCH_forecast.json
# numbers are never clobbered by a smoke run.
echo "==> bench smoke (forecast_report, tiny scale)"
SMOKE_DIR="$(mktemp -d)"
UTILCAST_BENCH_DIR="$SMOKE_DIR" UTILCAST_NODES=64 UTILCAST_STEPS=2 \
  cargo run --release -q -p utilcast-bench --bin forecast_report
rm -rf "$SMOKE_DIR"

# Smoke-run the controller scaling benchmark (hierarchical tier) at tiny
# scale. Exercises scaling_report's built-in single-shard parity guard:
# the binary exits non-zero unless the shards<=1 hierarchical
# configuration reproduces the seed SimReport bit-for-bit at several
# thread counts and the sharded configuration is thread-count invariant.
echo "==> bench smoke (scaling_report, tiny scale + single-shard parity guard)"
SMOKE_DIR="$(mktemp -d)"
UTILCAST_BENCH_DIR="$SMOKE_DIR" UTILCAST_NODES=64 UTILCAST_STEPS=2 \
  cargo run --release -q -p utilcast-bench --bin scaling_report
rm -rf "$SMOKE_DIR"

# Smoke-run the forecast read-plane benchmark at tiny scale. Exercises
# query_report's built-in parity guard: the binary exits non-zero unless
# the cached forecast table is bitwise identical to the recompute path at
# every sampled tick — across retrain and fallback boundaries and across
# a serialized snapshot/restore split — and the headline per-read speedup
# clears the 100x acceptance bar.
echo "==> bench smoke (query_report, tiny scale + table/recompute parity guard)"
SMOKE_DIR="$(mktemp -d)"
UTILCAST_BENCH_DIR="$SMOKE_DIR" UTILCAST_NODES=256 UTILCAST_STEPS=2 \
  cargo run --release -q -p utilcast-bench --bin query_report
rm -rf "$SMOKE_DIR"

echo "All checks passed."
