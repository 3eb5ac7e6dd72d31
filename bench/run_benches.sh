#!/usr/bin/env bash
# Build the Release bench suite and emit machine-readable perf records for
# the tier-1 hot paths, so every PR leaves a perf trajectory to compare
# against (see docs/perf.md for methodology).
#
# Usage: bench/run_benches.sh [extra google-benchmark flags...]
# Output: BENCH_field_solver.json, BENCH_physics_engine.json,
#         BENCH_control.json at the repo root.
#
# Each row is run 5 times; the JSON keeps every repetition beside
# google-benchmark's mean, median, stddev and CV rows. The pooled rows swing
# by several times between back-to-back runs on a shared host, so one run
# says little; tools/bench_diff.py OLD NEW compares two recordings' medians
# against their spread and their deterministic counters exactly. A later
# --benchmark_repetitions=N among the extra flags overrides the 5.
#
# Accuracy column: the solver records are not timing-only — bm_vcycle_warm
# and bm_incremental carry an `oracle_max_err` counter (max-|dphi| of the
# benched solution against a freshly solved full-grid oracle) so the perf
# trajectory can never trade correctness for speed silently. bm_incremental
# also records `window_fraction`, the mean dirty-window volume over the
# full-grid volume (the per-tick work ratio behind its speedup).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-bench}
MIN_TIME=${MIN_TIME:-0.2}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DBIOCHIP_BENCH=ON \
  -DBIOCHIP_EXAMPLES=OFF

# Hard Release guard: a stale BUILD_DIR keeps its cached build type, and
# Debug/unset numbers silently poison the BENCH_*.json perf trajectory.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")
if [ "$build_type" != "Release" ]; then
  echo "error: $BUILD_DIR is configured as '${build_type:-<unset>}', not" \
    "Release — delete it (or set BUILD_DIR) and rerun" >&2
  exit 1
fi
echo "library_build_type=$build_type ($BUILD_DIR)"

cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target bench_field_solver bench_physics_engine bench_control

for bench in bench_field_solver bench_physics_engine bench_control; do
  out="BENCH_${bench#bench_}.json"
  "$BUILD_DIR/$bench" \
    --benchmark_out="$out" \
    --benchmark_out_format=json \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_repetitions=5 \
    --benchmark_context=library_build_type="$build_type" \
    "$@"
  echo "wrote $out (library_build_type=$build_type)"
done
