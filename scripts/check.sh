#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 build + test suite, every
# workspace crate's own suite, and the end-to-end benchmark's tests + smoke.
# Run from anywhere inside the repository.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# The repo's own analyzer: panic-reachability, determinism taint, the
# arithmetic audit, float-eq, determinism and hygiene, with parse coverage
# gated at 100% — the same full scan CI's lint job runs.
echo "==> cargo run -q -p utilcast-lint"
cargo run -q -p utilcast-lint

# Every workspace member's every target: lib, bins, examples, unit-test
# modules, tests/ and benches. The library crate roots' clippy warn set
# (unwrap/expect, panic!/unreachable!, todo!/unimplemented!, dbg!) is the
# panic- and stub-freedom check, so -D warnings makes it a gate.
echo "==> cargo clippy --workspace --all-targets -- -D warnings -D clippy::perf"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::perf

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

# The ARIMA differential suite once more, optimised: its release-only
# sweep holds the stability certificate to the impulse-response loop on
# 1.6 million seeded and boundary lanes (the debug suite runs a smoke of
# it, and the debug_assert backstop on every evaluation it makes).
echo "==> cargo test --release -q -p utilcast-timeseries --lib arima::differential"
cargo test --release -q -p utilcast-timeseries --lib arima::differential

# The root LSTM goldens once more, optimised: the tier-1 suite runs them
# only in debug, and the forecast's fixed-width inference kernel vectorises
# under -O, so its pinned forecast and refit-replay bits are held under
# release codegen too.
echo "==> cargo test --release -q --test lstm_golden --test lstm_refit"
cargo test --release -q --test lstm_golden --test lstm_refit

# The checkpoint codec suite once more, optimised: the table-driven base64
# codec and the container's word loops and checksum lanes vectorise under
# -O, so the bitwise round trips and replays from the converted fixtures'
# containers, the refusal of the JSON-map fixtures by name, and the
# hostile-input properties (truncations and bit flips of the container's
# bytes; truncations, bit flips and symbol swaps of its base64 text and of
# the JSON-map text; and a report frame's) are held under release codegen
# too.
echo "==> cargo test --release -q --test checkpoint_codec"
cargo test --release -q --test checkpoint_codec

# The container's own suite, optimised, for the same reason: the
# byte-form round trips, the frame checks, the base64 carriage (every bit
# pattern, padding, a bad alphabet, arbitrary text, output sized from the
# input), `Matrix::decode`'s shape check and the claimed-length allocation
# bound under release codegen.
echo "==> cargo test --release -q -p utilcast-linalg"
cargo test --release -q -p utilcast-linalg

# The Eq. 12 resolve contract under optimised codegen: the differential
# suite holds the table kernel (stateless and reusing its term cache across
# refreshes, and its in-cell certificate, which returns a deviation within
# half the distance to the nearest competitor on its side unclipped) and
# the diagonal interval widths to the oracle's bits, probing deviations at
# that midpoint and 1 and 4 ulps either side of it, where the certificate
# ends and `α` starts to clip; a release build may vectorise or reorder
# what a debug build does not.
echo "==> cargo test --release -q -p utilcast-core --lib oracle::"
cargo test --release -q -p utilcast-core --lib oracle::

# The scalar cluster step under optimised codegen: the clustering suite
# holds the lean scalar descent (label checks, blocked midpoint count,
# labels in place) to the descent it replaced, and core's cluster and stage
# tests hold the in-place step (laned Eq. 10 counts, identity certificate,
# recycled buffers) to the old one and the stage's outputs to theirs; the
# blocked loops vectorise only under -O. The allocation tests run
# alongside: a warm scalar step, and a table build with its Eq. 12 resolve,
# allocate nothing that grows with N.
echo "==> cargo test --release -q -p utilcast-clustering"
cargo test --release -q -p utilcast-clustering
echo "==> cargo test --release -q -p utilcast-core --lib -- cluster:: stage::"
cargo test --release -q -p utilcast-core --lib -- cluster:: stage::
echo "==> cargo test --release -q -p utilcast-core --test stage_step_alloc"
cargo test --release -q -p utilcast-core --test stage_step_alloc
echo "==> cargo test --release -q -p utilcast-core --test alloc_free"
cargo test --release -q -p utilcast-core --test alloc_free

# The warm-refit quality gate: chains of LSTM refits against cold fits at
# the same lengths. Its distribution half is skipped in unoptimised builds.
echo "==> cargo test --release -q -p utilcast-timeseries --test lstm_warm"
cargo test --release -q -p utilcast-timeseries --test lstm_warm

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

# The report-bin smoke legs below redirect their output, so they must
# leave every committed result as it is. What git sees under results/ and
# of the BENCH_*.json files (status, and a digest of the diff, so a
# rewrite of an already-modified file counts too) is recorded here and
# compared after the last leg.
results_state() {
  git status --porcelain -- results 'BENCH_*.json'
  git diff --no-ext-diff -- results 'BENCH_*.json' | cksum
}
RESULTS_BEFORE="$(results_state)"

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

echo "==> committed results untouched by the smoke legs"
if [ "$(results_state)" != "$RESULTS_BEFORE" ]; then
  echo "error: a smoke leg rewrote a committed result:" >&2
  git status --porcelain -- results 'BENCH_*.json' >&2
  exit 1
fi

echo "All checks passed."
