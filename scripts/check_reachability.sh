#!/usr/bin/env bash
# Reachability lint: every function the library defines is linked by some
# program, or is named in scripts/reachability_allowlist.txt with the reason
# it stays.
#
# Programs are the executables of a build without tests: the benches, the
# examples, ccperf_calc and the perfbench driver. Tests do not count as
# callers; a function only tests call stays only as an oracle, as fault
# detection or injection, or as an accessor a test needs to check other
# code.
#
# The probe build ($BUILD_DIR/reachability, Debug) compiles with
# -ffunction-sections -fdata-sections and links with -Wl,--gc-sections, so
# each executable keeps only the functions its main reaches. It also
# compiles with -fno-inline: the kernel TUs build at -O3 even in Debug, and
# a function whose only call is inlined inside its own TU would leave no
# reference behind and read as unreached.
#
# A library function is unreached when its T (global text) symbol in the
# src/ archives is a T or t symbol of no executable. The lint fails on an
# unreached function the allowlist does not name, and on an allowlist entry
# that names no unreached function (deleted, or reached by a program now),
# so the allowlist shrinks with the code it excuses.
#
# Allowlist format: `<name> | <reason>`, '#' starts a comment. <name> is the
# c++filt name with std::string for std::__cxx11::basic_string<char, ...>,
# std::span<T> for a dynamic-extent span and no [abi:cxx11] tags. <reason>
# is one of
#   oracle: <Suite.Name>  a reference implementation that test compares with
#   safety                fault detection or fault injection
#   test: <Suite.Name>    an accessor that test uses to check other code
#   language              kept by the language: a virtual destructor, an
#                         overload a template instantiation may pick
# and a named test must be defined in tests/*.cpp.
#
# Self-test: --selftest builds a two-file archive and a program with the
# probe's flags, at -O2 so that calls would inline without -fno-inline, and
# checks that exactly the seeded uncalled function is reported (not the
# helper whose only call sits in its own TU), and that a seeded stale entry
# and a seeded entry without a reason are caught.
#
# Usage: scripts/check_reachability.sh [--selftest]   (BUILD_DIR env,
#        default build; the probe builds in $BUILD_DIR/reachability)
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOWLIST="scripts/reachability_allowlist.txt"
PROBE_CXX_FLAGS="-fno-inline -ffunction-sections -fdata-sections"
PROBE_LINK_FLAGS="-Wl,--gc-sections"

if ! command -v nm > /dev/null 2>&1 || ! command -v c++filt > /dev/null 2>&1
then
  echo "check_reachability: nm and c++filt are needed — SKIPPED"
  exit 0
fi

# unreached <archive-dir> <executable>... -> the demangled T symbols of the
# archives under <archive-dir> that no executable defines, one per line.
unreached() {
  local dir="$1"
  shift
  LC_ALL=C comm -23 \
    <(find "$dir" -name '*.a' -exec nm --defined-only {} + |
      awk '$2 == "T" {print $3}' | LC_ALL=C sort -u) \
    <(nm --defined-only "$@" 2> /dev/null |
      awk '$2 == "T" || $2 == "t" {print $3}' | LC_ALL=C sort -u) |
    c++filt |
    sed -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
        -e 's/, 18446744073709551615ul>/>/g' \
        -e 's/\[abi:cxx11\]//g' |
    LC_ALL=C sort -u
}

entries() {  # entries <allowlist> -> its `<name> | <reason>` lines
  grep -v -E '^[[:space:]]*(#|$)' "$1" || true
}

names() {  # names <allowlist> -> the names of its entries, sorted
  entries "$1" | sed -E 's/ \| [^|]*$//' | LC_ALL=C sort -u
}

unexplained() {  # unexplained <allowlist> -> entries without a valid reason
  local entry reason test_name
  while IFS= read -r entry; do
    [ -n "$entry" ] || continue
    reason="${entry##* | }"
    case "$entry" in *" | "*) ;; *) reason="" ;; esac
    case "$reason" in
      safety | language) ;;
      "oracle: "* | "test: "*)
        test_name="${reason#*: }"
        if ! grep -q -E "TEST(_F|_P)?\\(${test_name%%.*}, ${test_name#*.}\\)" \
               tests/*.cpp; then
          echo "$entry  (no test $test_name in tests/)"
        fi
        ;;
      *) echo "$entry" ;;
    esac
  done < <(entries "$1")
}

if [ "${1:-}" = "--selftest" ]; then
  cxx="${CXX:-c++}"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  # Scale's only call is in Entry, in its own TU: at -O2 it would inline
  # and leave its own copy unreferenced. Chain reaches Entry across TUs.
  cat > "$tmp/a.cpp" <<'EOF'
int Scale(int x) { return x * 3; }
int Entry(int x) { return Scale(x) + 1; }
EOF
  cat > "$tmp/b.cpp" <<'EOF'
int Entry(int x);
int Chain(int x) { return Entry(x) - 2; }
int Uncalled(int x) { return x ^ 0x5a; }
EOF
  cat > "$tmp/main.cpp" <<'EOF'
int Chain(int x);
int main(int argc, char**) { return Chain(argc); }
EOF
  mkdir "$tmp/lib"
  for src in a b main; do
    # shellcheck disable=SC2086  # the flag strings split on purpose
    "$cxx" -O2 $PROBE_CXX_FLAGS -c "$tmp/$src.cpp" -o "$tmp/$src.o"
  done
  ar rcs "$tmp/lib/libseeded.a" "$tmp/a.o" "$tmp/b.o"
  # shellcheck disable=SC2086
  "$cxx" $PROBE_LINK_FLAGS "$tmp/main.o" "$tmp/lib/libseeded.a" -o "$tmp/prog"
  found="$(unreached "$tmp/lib" "$tmp/prog")"
  if [ "$found" != "Uncalled(int)" ]; then
    echo "check_reachability: SELFTEST FAIL — expected exactly" \
         "'Uncalled(int)' unreached, got:"
    sed 's/^/  /' <<< "$found"
    exit 1
  fi
  printf '%s\n' "Uncalled(int) | safety" "Retired(int) | safety" \
    > "$tmp/allowlist.txt"
  if [ "$(LC_ALL=C comm -13 <(echo "$found") <(names "$tmp/allowlist.txt"))" \
       != "Retired(int)" ]; then
    echo "check_reachability: SELFTEST FAIL — seeded stale allowlist entry" \
         "not reported alone"
    exit 1
  fi
  printf '%s\n' "Uncalled(int) | because" > "$tmp/allowlist.txt"
  if [ "$(unexplained "$tmp/allowlist.txt")" != "Uncalled(int) | because" ]
  then
    echo "check_reachability: SELFTEST FAIL — an entry without a valid" \
         "reason was not reported"
    exit 1
  fi
  echo "check_reachability: selftest OK — seeded uncalled function, stale" \
       "entry and missing reason caught; a helper inlined in its own TU is not"
  exit 0
fi

BUILD_DIR="${BUILD_DIR:-build}"
probe="$BUILD_DIR/reachability"
mkdir -p "$probe"
log="$probe/probe.log"
if ! { cmake -S . -B "$probe" -DCCPERF_BUILD_TESTS=OFF \
         -DCMAKE_BUILD_TYPE=Debug \
         -DCMAKE_CXX_FLAGS="$PROBE_CXX_FLAGS" \
         -DCMAKE_EXE_LINKER_FLAGS="$PROBE_LINK_FLAGS" \
         -DCMAKE_PROJECT_ccperf_INCLUDE="$PWD/perfbench/build.cmake" &&
       cmake --build "$probe" -j "$(nproc)"; } > "$log" 2>&1; then
  echo "check_reachability: FAIL — the probe build failed ($log):"
  tail -n 30 "$log" | sed 's/^/  /'
  exit 1
fi

mapfile -t programs < <(find "$probe" -type f -perm -u+x \
                          ! -path '*/CMakeFiles/*' | LC_ALL=C sort)
if [ "${#programs[@]}" -eq 0 ]; then
  echo "check_reachability: FAIL — the probe build in $probe made no programs"
  exit 1
fi
found="$(unreached "$probe/src" "${programs[@]}")"
allowed="$(names "$ALLOWLIST")"

status=0
missing="$(LC_ALL=C comm -23 <(echo "$found") <(echo "$allowed") | sed '/^$/d')"
if [ -n "$missing" ]; then
  echo "check_reachability: FAIL — library functions no program links."
  echo "  Delete them, or allowlist each with its reason in $ALLOWLIST:"
  sed 's/^/  /' <<< "$missing"
  status=1
fi
stale="$(LC_ALL=C comm -13 <(echo "$found") <(echo "$allowed") | sed '/^$/d')"
if [ -n "$stale" ]; then
  echo "check_reachability: FAIL — $ALLOWLIST entries that name no"
  echo "  unreached function; delete them:"
  sed 's/^/  /' <<< "$stale"
  status=1
fi
bad="$(unexplained "$ALLOWLIST")"
if [ -n "$bad" ]; then
  echo "check_reachability: FAIL — $ALLOWLIST entries without a valid"
  echo "  reason (oracle: <Suite.Name>, safety, test: <Suite.Name>, language):"
  sed 's/^/  /' <<< "$bad"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "check_reachability: OK — ${#programs[@]} programs link every library" \
       "function but the $(grep -c . <<< "$allowed") allowlisted ones"
fi
exit "$status"
