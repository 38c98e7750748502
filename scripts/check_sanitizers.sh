#!/usr/bin/env bash
# Configure and run the test suite under sanitizers, each in its own build
# tree. Stage 1 (build-sanitize/): AddressSanitizer + UBSan over the full
# suite — the memory-safety gate. Stage 2 (build-tsan/): ThreadSanitizer
# over the kernels and integration labels and the ChaosSweep::Rank tests
# (the code that actually touches the thread pool), skipped with a notice
# if the toolchain lacks TSan.
# Any report aborts the run.
#
# The static pass (scripts/run_static_analysis.sh + check_kernel_odr.sh +
# check_determinism_lint.sh + check_units_lint.sh, or `scripts/run_tests.sh
# static`) is the cheaper first gate: Clang thread-safety annotations catch
# lock misuse at compile time that TSan can only catch if a test happens to
# race, and the units lint catches dimension mixups no sanitizer sees at
# all (they are well-defined arithmetic on the wrong number).
set -euo pipefail
cd "$(dirname "$0")/.."

# Fail fast on unit-layer regressions before paying for two sanitizer
# builds: the grep lint plus its own selftest are near-free.
scripts/check_units_lint.sh
scripts/check_units_lint.sh --selftest

BUILD_DIR=build-sanitize

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCCPERF_SANITIZE=ON \
  -DCCPERF_BUILD_TESTS=ON -DCCPERF_BUILD_BENCH=OFF -DCCPERF_BUILD_EXAMPLES=OFF
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error so the first sanitizer report fails the suite loudly.
export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

# Robustness suites first (fault replay, snapshot corruption, fuzzing — the
# sdc-labeled silent-corruption suites ride along under this label): they
# are the tests most likely to walk into UB, so surface their reports
# before the long tail of the full suite.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -L robustness

echo "ASAN+UBSAN ROBUSTNESS GREEN"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" -LE robustness

echo "ASAN+UBSAN GREEN"

# --- Stage 2: ThreadSanitizer over the threaded kernels ---------------------
TSAN_PROBE=$(mktemp -d)
trap 'rm -rf "$TSAN_PROBE"' EXIT
echo 'int main() { return 0; }' > "$TSAN_PROBE/probe.cpp"
if ! ${CXX:-c++} -fsanitize=thread "$TSAN_PROBE/probe.cpp" \
     -o "$TSAN_PROBE/probe" 2>/dev/null || ! "$TSAN_PROBE/probe"; then
  echo "TSAN UNAVAILABLE in this toolchain — skipping thread-race stage"
  echo "SANITIZERS GREEN"
  exit 0
fi

TSAN_DIR=build-tsan

cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCCPERF_SANITIZE_THREAD=ON \
  -DCCPERF_BUILD_TESTS=ON -DCCPERF_BUILD_BENCH=OFF -DCCPERF_BUILD_EXAMPLES=OFF
cmake --build "$TSAN_DIR" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1"

# Only the labels that exercise the thread pool; the full suite under TSan
# is prohibitively slow and the remainder is single-threaded by design.
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" \
  -L 'kernels|integration'

# ChaosSweep::Rank is the one cloud sweep that fans out over the pool, and
# the cloud suites carry the cloud/robustness labels, so select its tests by
# name; --no-tests=error fails the stage if a rename ever drops them.
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$(nproc)" \
  --no-tests=error -R '^ChaosTest\.Rank'

echo "TSAN GREEN"
echo "SANITIZERS GREEN"
