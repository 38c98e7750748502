#!/usr/bin/env bash
# ODR/ISA-leak checker for the kernel translation units.
#
# gemm.cpp, quant.cpp, sparse_kernels.cpp and common/crc32.cpp are built
# with CCPERF_KERNEL_FLAGS (-march=native -funroll-loops); every other TU
# uses the portable flag set. If a weak (vague-linkage) symbol — an inline
# function, template instantiation, or inline variable — is emitted both
# by a kernel TU and by a generic TU, the linker keeps ONE copy, chosen
# arbitrarily. That either leaks AVX-512/AVX code into generic call sites
# (illegal instruction on older hosts) or silently discards the tuned
# copy. Both are invisible at compile time, so we police it on the built
# objects:
#
#   1. No weak symbol defined in a kernel TU may also be defined in any
#      generic TU (modulo the structural allowlist — EH scaffolding that
#      carries no ISA-specific code).
#   2. ccperf::kernel:: (kernel_tile.h) is a TU-local contract: its
#      symbols must not appear — defined OR referenced — in generic TUs,
#      because the packed-buffer layout it describes is keyed off the
#      ISA macros of the including TU.
#
# Kernel sources are discovered from the CCPERF_KERNEL_FLAGS
# set_source_files_properties() calls in src/*/CMakeLists.txt — ALL such
# calls per file, so adding a kernel TU (even via a second call, as PR 9
# almost did for quant.cpp) automatically extends the check. Non-kernel
# tensor TUs (abft.cpp, corruption.cpp, ...) build with portable flags on
# purpose: their floating-point checksum sums must round identically on
# every host, so they belong on the generic side of this check. The CRC-32
# in common/crc32.cpp is a kernel all the same: its carry-less-multiply
# folds and table lookups are exact integer arithmetic, so the host ISA
# changes its speed and never its bits, and common_snapshot_test pins it
# bitwise against a bit-at-a-time oracle.
#
# Usage: scripts/check_kernel_odr.sh [build-dir]   (or BUILD_DIR env)
#        scripts/check_kernel_odr.sh --selftest
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${BUILD_DIR:-build}}"
ALLOWLIST="scripts/kernel_odr_allowlist.txt"

# --- selftest: seed a weak-symbol leak and assert the nm pipeline sees it --
if [ "${1:-}" = "--selftest" ]; then
  if ! command -v nm > /dev/null 2>&1 || ! command -v c++ > /dev/null 2>&1; then
    echo "check_kernel_odr: selftest needs nm + c++ — SKIPPED"
    exit 0
  fi
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
  cat > "$tmp/leak.h" <<'EOF'
#pragma once
inline int seeded_odr_leak(int x) { return x * 2; }
EOF
  printf '#include "leak.h"\nint ka(int x) { return seeded_odr_leak(x); }\n' \
    > "$tmp/kernel_tu.cpp"
  printf '#include "leak.h"\nint gb(int x) { return seeded_odr_leak(x); }\n' \
    > "$tmp/generic_tu.cpp"
  # -fkeep-inline-functions forces an out-of-line (weak) copy even when
  # the optimizer would inline the call away.
  c++ -std=c++20 -O0 -fkeep-inline-functions \
    -c "$tmp/kernel_tu.cpp" -o "$tmp/kernel_tu.o"
  c++ -std=c++20 -O0 -fkeep-inline-functions \
    -c "$tmp/generic_tu.cpp" -o "$tmp/generic_tu.o"
  nm --defined-only "$tmp/kernel_tu.o" | awk '$2 ~ /^[WVu]$/ {print $3}' |
    sort -u > "$tmp/kernel.syms"
  nm --defined-only "$tmp/generic_tu.o" |
    awk '$2 ~ /^[WVuTtDdBbRr]$/ {print $3}' | sort -u > "$tmp/generic.syms"
  if ! comm -12 "$tmp/kernel.syms" "$tmp/generic.syms" |
       grep -q seeded_odr_leak; then
    echo "check_kernel_odr: SELFTEST FAIL — seeded weak-symbol leak not" \
         "detected; the nm classification or comm pipeline regressed"
    exit 1
  fi
  echo "check_kernel_odr: selftest OK — seeded weak-symbol leak caught"
  exit 0
fi

if ! command -v nm > /dev/null 2>&1; then
  echo "check_kernel_odr: nm not found — SKIPPED"
  exit 0
fi
if [ ! -d "$BUILD_DIR" ]; then
  echo "check_kernel_odr: build dir '$BUILD_DIR' missing (build first) — SKIPPED"
  exit 0
fi

# --- discover kernel sources from the build system -------------------------
kernel_sources=()
for cml in src/*/CMakeLists.txt; do
  grep -q CCPERF_KERNEL_FLAGS "$cml" || continue
  # Join lines so each multi-line set_source_files_properties(...) call can
  # be matched as one string; ${CCPERF_KERNEL_FLAGS} contains no ')'.
  # grep -o yields EVERY matching call — a second call in the same file
  # (e.g. a kernel TU added later with its own flag block) used to be
  # dropped by a head -1 here, silently exempting it from the check.
  calls=$(tr '\n' ' ' < "$cml" |
          grep -o 'set_source_files_properties([^)]*CCPERF_KERNEL_FLAGS[^)]*)' || true)
  [ -n "$calls" ] || continue
  while IFS= read -r call; do
    for word in $call; do
      case "$word" in
        *.cpp) kernel_sources+=("$(dirname "$cml")/${word#set_source_files_properties(}") ;;
      esac
    done
  done <<< "$calls"
done
if [ "${#kernel_sources[@]}" -eq 0 ]; then
  echo "check_kernel_odr: FAIL — no CCPERF_KERNEL_FLAGS sources found;" \
       "the kernel flag plumbing moved and this script must follow it"
  exit 1
fi

# --- map sources to built objects ------------------------------------------
kernel_objects=()
for src in "${kernel_sources[@]}"; do
  name=$(basename "$src")
  obj=$(find "$BUILD_DIR/src" -name "${name}.o" -path "*CMakeFiles*" | head -1)
  if [ -z "$obj" ]; then
    echo "check_kernel_odr: object for $src not built — SKIPPED"
    exit 0
  fi
  kernel_objects+=("$obj")
done

generic_objects=$(find "$BUILD_DIR/src" -name '*.cpp.o' -path "*CMakeFiles*" |
                  grep -v -F -f <(printf '%s\n' "${kernel_objects[@]}"))

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Weak-ish definitions: W/V (weak), u (GNU unique). Lowercase w is an
# undefined weak reference, not a definition.
weak_defs() { nm --defined-only "$1" | awk '$2 ~ /^[WVu]$/ {print $3}'; }

allow() {
  if [ -f "$ALLOWLIST" ]; then
    grep -v -E '^\s*(#|$)' "$ALLOWLIST" || true
  fi
}

status=0

# --- check 1: weak-symbol intersection kernel TU x generic TUs -------------
# shellcheck disable=SC2086  # generic_objects is a newline list of paths
nm --defined-only $generic_objects | awk '$2 ~ /^[WVuTtDdBbRr]$/ {print $3}' |
  sort -u > "$tmp/generic.syms"
for obj in "${kernel_objects[@]}"; do
  weak_defs "$obj" | sort -u > "$tmp/kernel.syms"
  allow | sort -u > "$tmp/allow.syms"
  shared=$(comm -12 "$tmp/kernel.syms" "$tmp/generic.syms" |
           comm -23 - "$tmp/allow.syms" || true)
  if [ -n "$shared" ]; then
    status=1
    echo "check_kernel_odr: FAIL — weak symbols defined in kernel TU $obj"
    echo "  are also defined by generic TUs; the linker will merge them"
    echo "  and may leak -march=native code into generic call sites:"
    printf '%s\n' "$shared" | c++filt | sed 's/^/    /'
  fi
done

# --- check 2: ccperf::kernel:: must stay inside kernel TUs -----------------
# Mangled prefix for namespace ccperf::kernel.
leaks=$(nm $generic_objects 2>/dev/null | grep -o '_ZN6ccperf6kernel[A-Za-z0-9_]*' |
        sort -u || true)
if [ -n "$leaks" ]; then
  status=1
  echo "check_kernel_odr: FAIL — ccperf::kernel:: symbols appear in generic"
  echo "  TUs; kernel_tile.h layouts are keyed off the including TU's ISA"
  echo "  macros and must never cross the kernel TU boundary:"
  printf '%s\n' "$leaks" | c++filt | sed 's/^/    /'
fi

if [ "$status" -eq 0 ]; then
  echo "check_kernel_odr: OK — ${#kernel_objects[@]} kernel TU(s) share no" \
       "weak symbols with generic TUs; ccperf::kernel:: is TU-local"
fi
exit "$status"
