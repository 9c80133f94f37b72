#!/usr/bin/env bash
# Configure, build and run the test suite — the tree's single pre-commit
# gate.
#
#   ./scripts/check.sh                     # RelWithDebInfo, all tests
#   ./scripts/check.sh --sanitize          # ASan+UBSan build in build-san/
#   ./scripts/check.sh --tsan              # TSan build in build-tsan/, runs
#                                          # the batch/sweep tests
#   ./scripts/check.sh --perfbench         # build perfbench/ against this
#                                          # tree's src/ and run its tests
#                                          # (a src/ API change that breaks
#                                          # the benchmark fails here)
#   ./scripts/check.sh --labels unit       # only tests with a matching
#                                          # ctest label (unit|integration|
#                                          # golden|faults|perf|chaos|diag|
#                                          # simcore|pop|popobs|origin;
#                                          # regex accepted)
#   BUILD_DIR=out ./scripts/check.sh       # custom build directory
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
CMAKE_ARGS=()
CTEST_ARGS=()
LABELS=""
NAME_FILTER=""
PERFBENCH=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    --sanitize)
      BUILD_DIR="${BUILD_DIR}-san"
      CMAKE_ARGS+=(-DVODX_SANITIZE=address,undefined)
      export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"
      export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
      ;;
    --tsan)
      # Thread-safety proof for the multi-threaded engines: build
      # everything under ThreadSanitizer and run the batch/sweep suites,
      # the population runner (one worker thread per tower), the content
      # cache sweep workers share, and the chaos engine (cells fan out over
      # parallel_map and share the campaign config and its test hook).
      BUILD_DIR="${BUILD_DIR}-tsan"
      CMAKE_ARGS+=(-DVODX_SANITIZE=thread)
      export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
      NAME_FILTER='^(BatchPool|SweepEngine|SweepDeterminism|SeedSensitivity|FaultSweepDeterminism|PopulationDeterminism|PopulationTimeline|PopulationOriginStopRace|ContentCache|ChaosEngine)'
      ;;
    --perfbench)
      PERFBENCH=1
      ;;
    --labels)
      [[ $# -ge 2 ]] || { echo "error: --labels needs a regex" >&2; exit 2; }
      LABELS="$2"
      shift
      ;;
    *)
      echo "usage: $0 [--sanitize] [--tsan] [--perfbench]" \
           "[--labels <regex>]" >&2
      exit 2
      ;;
  esac
  shift
done

if [[ "$PERFBENCH" == 1 ]]; then
  # The benchmark is its own CMake project over ../src; perfbench/run.py and
  # perfbench/test_bench.py use this build directory.
  cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build .bench_build/perfbench -j "$(nproc)"
  exec python3 perfbench/test_bench.py
fi

[[ -n "$LABELS" ]] && CTEST_ARGS+=(-L "$LABELS")
[[ -n "$NAME_FILTER" ]] && CTEST_ARGS+=(-R "$NAME_FILTER")

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
  "${CTEST_ARGS[@]}"
