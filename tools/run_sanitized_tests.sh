#!/bin/sh
# Builds and runs the full test suite under AddressSanitizer,
# UndefinedBehaviorSanitizer and ThreadSanitizer (the CI entry point for
# the robustness suite; CI runs each as its own matrix leg).
#
#   tools/run_sanitized_tests.sh [address|undefined|thread ...]
#
# With no arguments, runs ASan, UBSan, then TSan (the concurrency suite
# is only meaningful under the last one). Each sanitizer gets its own
# build directory (build-asan/, build-ubsan/, build-tsan/) so incremental
# rebuilds stay fast. Exits non-zero on the first failing suite.
set -e

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SANITIZERS="${*:-address undefined thread}"

# shellcheck disable=SC2086 # word splitting of the sanitizer list is intended
for SAN in $SANITIZERS; do
  case "$SAN" in
    address) DIR="$ROOT/build-asan" ;;
    undefined) DIR="$ROOT/build-ubsan" ;;
    thread) DIR="$ROOT/build-tsan" ;;
    *)
      echo "unknown sanitizer '$SAN' (expected address|undefined|thread)" >&2
      exit 2
      ;;
  esac
  echo "=== $SAN: configuring $DIR ==="
  cmake -B "$DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DTREELATTICE_SANITIZE="$SAN"
  echo "=== $SAN: building ==="
  cmake --build "$DIR" -j "$(nproc 2>/dev/null || echo 4)"
  echo "=== $SAN: running ctest ==="
  # halt_on_error makes UBSan failures fatal instead of log-only.
  (cd "$DIR" && \
    ASAN_OPTIONS=detect_leaks=1 \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --output-on-failure -j "$(nproc 2>/dev/null || echo 4)")
  echo "=== $SAN: OK ==="
done
