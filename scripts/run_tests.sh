#!/usr/bin/env bash
# Build and run the test suite, optionally restricted to a CTest label.
#
#   scripts/run_tests.sh            # full suite
#   scripts/run_tests.sh kernels    # math kernels, threading, layer primitives
#   scripts/run_tests.sh cloud      # cloud cost/latency model + simulator
#   scripts/run_tests.sh integration
#   scripts/run_tests.sh fuzz
#   scripts/run_tests.sh robustness # fault replay, snapshot/restore, fuzzing
#   scripts/run_tests.sh sdc        # silent-data-corruption layer: ABFT
#                                   # kernels, weight-CRC scrubbing, SDC
#                                   # policy model + serving/enumeration
#   scripts/run_tests.sh static     # lint gates: clang-tidy, kernel ODR/ISA
#                                   # leak check, determinism lint, units
#                                   # lint, units negative-compile proof,
#                                   # reachability lint
#   scripts/run_tests.sh golden     # ccperf_calc frontiers vs tests/golden/
#
# Labels are assigned in tests/CMakeLists.txt via
# ccperf_add_test(... LABELS x y); a suite may carry several. The static
# label wraps the scripts/{run_static_analysis,check_kernel_odr,
# check_determinism_lint,check_units_lint,check_reachability}.sh gates as
# ctest entries, plus the common/units.h negative-compile proof stamped at
# configure time.
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL="${1:-}"

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DCCPERF_BUILD_TESTS=ON
cmake --build build -j "$(nproc)"

if [[ -n "$LABEL" ]]; then
  ctest --test-dir build --output-on-failure -j "$(nproc)" -L "$LABEL"
else
  ctest --test-dir build --output-on-failure -j "$(nproc)"
fi
