#!/usr/bin/env bash
# Units lint: greps the public headers of the cloud and core layers for
# fresh raw-double declarations whose names carry a unit suffix
# (_hours/_seconds/_usd/_per_hour). Those are exactly the values the strong
# unit layer (src/common/units.h) types as Hours/Seconds/Usd/UsdPerHour —
# a new `double deadline_hours` parameter reintroduces the silent 3600x /
# currency mixups the Quantity wrappers exist to reject at compile time.
#
# Scope: src/cloud/*.h and src/core/*.h only — the package boundary where
# callers hand values in. Sim-internal dynamics (serving queues, fault
# timelines, measurement records) deliberately stay raw double and are
# grandfathered in scripts/units_lint_allowlist.txt (format:
# <path>:<identifier>, '#' comments). Every entry is a standing exception:
# do not add to it for new API surface — take a typed Quantity instead.
# An entry that matches no declaration is stale and fails the lint too, so
# the allowlist shrinks with the code it excuses.
#
# Self-test: --selftest seeds a violation into a temp header and a stale
# entry into a temp allowlist and asserts the lint catches both, so a
# regressed regex or stale check fails CI instead of silently passing.
#
# Usage: scripts/check_units_lint.sh [--selftest]
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST="scripts/units_lint_allowlist.txt"
REGEX='double[[:space:]]+[A-Za-z_][A-Za-z0-9_]*_(hours|seconds|usd|per_hour)([^A-Za-z0-9_]|$)'

scan() {  # scan <dir>...  -> hits on stdout (path:line:content)
  grep -rnE "$REGEX" "$@" --include='*.h' || true
}

entries() {  # entries <allowlist> -> one <path>:<identifier> per line
  [ -f "$1" ] || return 0
  grep -v -E '^[[:space:]]*(#|$)' "$1" || true
}

allowed() {  # allowed <file> <identifier>
  entries "$ALLOWLIST" | grep -q -F -x "$1:$2"
}

identifier_of() {  # extract the offending identifier from a hit line
  sed -E "s/.*double[[:space:]]+([A-Za-z_][A-Za-z0-9_]*_(hours|seconds|usd|per_hour)).*/\1/" <<< "$1"
}

stale() {  # stale <allowlist> <hits> -> entries that match no hit
  local declared
  declared="$(while IFS= read -r hit; do
    if [ -n "$hit" ]; then echo "${hit%%:*}:$(identifier_of "$hit")"; fi
  done <<< "$2")"
  LC_ALL=C comm -23 <(entries "$1" | LC_ALL=C sort -u) \
                    <(LC_ALL=C sort -u <<< "$declared")
}

if [ "${1:-}" = "--selftest" ]; then
  tmpdir="$(mktemp -d)"
  trap 'rm -rf "$tmpdir"' EXIT
  mkdir -p "$tmpdir/cloud"
  cat > "$tmpdir/cloud/seeded.h" <<'EOF'
#pragma once
struct Seeded {
  double deadline_hours = 0.0;  // seeded violation: must be Hours
};
EOF
  seeded_hits="$(scan "$tmpdir")"
  if [ -z "$seeded_hits" ]; then
    echo "check_units_lint: SELFTEST FAIL — seeded violation not detected"
    exit 1
  fi
  # The first entry excuses the seeded field; the second matches nothing.
  printf '%s\n' "$tmpdir/cloud/seeded.h:deadline_hours" \
                "$tmpdir/cloud/seeded.h:retired_seconds" \
    > "$tmpdir/allowlist.txt"
  if [ "$(stale "$tmpdir/allowlist.txt" "$seeded_hits")" != \
       "$tmpdir/cloud/seeded.h:retired_seconds" ]; then
    echo "check_units_lint: SELFTEST FAIL — seeded stale allowlist entry" \
         "not reported alone"
    exit 1
  fi
  echo "check_units_lint: selftest OK — seeded raw-double unit field and" \
       "stale allowlist entry caught"
  exit 0
fi

status=0
hits="$(scan src/cloud src/core)"
if [ -n "$hits" ]; then
  while IFS= read -r hit; do
    file="${hit%%:*}"
    ident="$(identifier_of "$hit")"
    if allowed "$file" "$ident"; then
      continue
    fi
    if [ "$status" -eq 0 ]; then
      echo "check_units_lint: FAIL — raw double with a unit-suffixed name in"
      echo "  a public cloud/core header. Use the strong types from"
      echo "  common/units.h (Seconds/Hours/Usd/UsdPerHour/RatePerHour)"
      echo "  instead of adding to the allowlist."
    fi
    status=1
    echo "  [$ident] $hit"
  done <<< "$hits"
fi

stale_entries="$(stale "$ALLOWLIST" "$hits")"
if [ -n "$stale_entries" ]; then
  echo "check_units_lint: FAIL — $ALLOWLIST entries that match no"
  echo "  declaration; delete them:"
  sed 's/^/  /' <<< "$stale_entries"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "check_units_lint: OK — no fresh raw-double unit-suffixed" \
       "declarations in src/cloud/*.h or src/core/*.h"
fi
exit "$status"
