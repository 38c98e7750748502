#!/usr/bin/env bash
# Build everything, run the full test suite, every figure/table bench and
# every example — the repository's one-shot verification entry point.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja \
  -DCCPERF_BUILD_TESTS=ON -DCCPERF_BUILD_BENCH=ON -DCCPERF_BUILD_EXAMPLES=ON \
  -DCCPERF_BUILD_TOOLS=ON
cmake --build build

echo "== tests =="
ctest --test-dir build --output-on-failure

echo "== static analysis =="
scripts/run_static_analysis.sh build      # clang-tidy (skips w/o the tool)
scripts/check_kernel_odr.sh build         # ISA/ODR leak check on kernel TUs
scripts/check_determinism_lint.sh         # banned nondeterminism constructs
scripts/check_units_lint.sh               # raw-double unit leaks in public headers

echo "== benchmark =="
# The benchmark's own test: builds perfbench/ (into $CARGO_TARGET_DIR or
# .bench_build/), runs a 1-s `serve` replay at seed 2020 against
# perfbench/reference/ and checks the result line against BENCHMARK.json,
# so a drift in the serving report fails here.
python3 perfbench/test_perfbench.py

echo "== benches (paper tables & figures) =="
for b in build/bench/bench_*; do
  [ -x "$b" ] || continue
  echo "--- $b"
  "$b"
done

echo "== tools =="
# Full-space enumeration smoke: >= 10^6 configs through the streamed sweep
# engine (the scale gates live in bench_ext_enumeration_scale above).
build/tools/ccperf_calc --top 10
build/tools/ccperf_calc --no-spot --variants 10 --sort tar --terse --top 5
build/tools/ccperf_calc --list-metrics
# SDC axis smoke: rank by *delivered* accuracy under silent-corruption
# policies (off/none/abft/scrub/reexec — cloud/sdc.h).
build/tools/ccperf_calc --sdc --variants 5 --top 5

echo "== examples =="
build/examples/quickstart
build/examples/sweet_spot_finder caffenet
build/examples/pareto_explorer caffenet 500000 6 100
build/examples/social_media_filter 100000000
build/examples/model_compressor
build/examples/calibration_workflow
build/examples/train_and_prune 6
build/examples/fault_tolerant_serving
build/examples/chaos_drill
build/examples/quantized_serving

echo "ALL GREEN"
