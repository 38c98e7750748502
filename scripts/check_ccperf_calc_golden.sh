#!/usr/bin/env bash
# Golden gate for ccperf_calc: reruns the full frontier of the default space
# and of its SDC variant (`--top 0 --terse`, 480 rows each), and the top 50
# rows by CAR of both spaces without the frontier filter (`--no-filter --top
# 50 --terse`), and byte-compares each with tests/golden/ccperf_calc_*.txt.
# The frontiers run twice more against the same files: once serially, and
# once in odd 4099-id blocks whose edges (and so the pool's chunk edges)
# fall inside runs of ids that share cost stages.
# The sweep is seeded and bitwise deterministic, so any difference means the
# enumerator, the cost model, the Pareto filter or the top-N stream changed
# what it computes. A change that means to move these rows rewrites the
# files with the same commands and says why.
#
# Usage: scripts/check_ccperf_calc_golden.sh
#   BUILD_DIR (default: build) is the build tree holding tools/ccperf_calc.
set -euo pipefail
cd "$(dirname "$0")/.."

CALC="${BUILD_DIR:-build}/tools/ccperf_calc"
if [ ! -x "$CALC" ]; then
  echo "check_ccperf_calc_golden: $CALC is not built"
  exit 1
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
status=0
check() {  # check <golden name> <ccperf_calc flags>...
  local golden="tests/golden/ccperf_calc_$1.txt"
  shift
  "$CALC" "$@" > "$tmp"
  if cmp -s "$golden" "$tmp"; then
    echo "check_ccperf_calc_golden: $* matches $golden"
  else
    echo "check_ccperf_calc_golden: $* differs from $golden:"
    diff "$golden" "$tmp" | head -20 || true
    status=1
  fi
}
check default --top 0 --terse
check sdc --top 0 --terse --sdc
check default --top 0 --terse --serial
check sdc --top 0 --terse --sdc --block 4099
check no_filter --no-filter --top 50 --terse
check no_filter_sdc --no-filter --top 50 --terse --sdc
exit "$status"
