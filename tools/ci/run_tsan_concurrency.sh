#!/usr/bin/env bash
# CI helper: build the concurrency-labeled test slice under ThreadSanitizer
# and run it. Uses a dedicated build tree (default build-tsan/) so the
# regular build's cache and artifacts are untouched.
#
# Usage: tools/ci/run_tsan_concurrency.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DIMC_SANITIZE=thread
cmake --build "${build_dir}" -j "${jobs}" \
  --target imc_concurrency_tests --target imc_engine_tests \
  --target imc_delta_tests

# halt_on_error makes any race fail the ctest invocation instead of just
# printing a report; second_deadlock_stack improves lock-order diagnostics.
# The engine label rides along: warm-start resume and solve_many exercise
# the thread pool through the same deterministic-parallel sweeps, and the
# engine golden pins (both labels carry engine_test.cpp) run parallel
# growth and parallel selection at 1, 2 and 8 workers — the engine's whole
# concurrent surface, since its stages themselves run one after another
# (DESIGN.md §15). The delta label rides along because
# invalidate_and_repair fans regeneration chunks out over the same thread
# pool and then merges them into one CSR index rebuild (DESIGN.md §16).
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}" \
  ctest --test-dir "${build_dir}" -L 'concurrency|engine|delta' \
  --output-on-failure -j "${jobs}"
