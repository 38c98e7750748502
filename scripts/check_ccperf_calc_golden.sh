#!/usr/bin/env bash
# Golden gate for ccperf_calc: reruns the full frontier of the default space
# and of its SDC variant (`--top 0 --terse`, 480 rows each) and byte-compares
# them with tests/golden/ccperf_calc_{default,sdc}.txt. The sweep is seeded
# and bitwise deterministic, so any difference means the enumerator, the
# cost model or the Pareto filter changed what it computes. A change that
# means to move the frontier rewrites both files with the same commands and
# says why.
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
for space in default sdc; do
  flags=(--top 0 --terse)
  if [ "$space" = sdc ]; then flags+=(--sdc); fi
  golden="tests/golden/ccperf_calc_$space.txt"
  "$CALC" "${flags[@]}" > "$tmp"
  if cmp -s "$golden" "$tmp"; then
    echo "check_ccperf_calc_golden: $space frontier matches $golden"
  else
    echo "check_ccperf_calc_golden: $space frontier differs from $golden:"
    diff "$golden" "$tmp" | head -20 || true
    status=1
  fi
done
exit "$status"
