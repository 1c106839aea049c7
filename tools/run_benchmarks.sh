#!/bin/sh
# Runs every bench binary with --json, collecting machine-readable run
# records (name, params, wall time, metrics-registry snapshot) under one
# output directory.
#
#   tools/run_benchmarks.sh [build_dir] [out_dir] [extra bench flags...]
#
# Defaults: build_dir=build, out_dir=<build_dir>/bench_results. Extra flags
# (e.g. --scale=0 --queries=10) are passed to every Run-style bench.
set -eu

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-$BUILD_DIR/bench_results}"
[ $# -ge 1 ] && shift
[ $# -ge 1 ] && shift

BENCH_DIR="$BUILD_DIR/bench"
if [ ! -d "$BENCH_DIR" ]; then
  echo "error: $BENCH_DIR not found (build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 2
fi
mkdir -p "$OUT_DIR"

failures=0
for bin in "$BENCH_DIR"/bench_*; do
  [ -x "$bin" ] || continue
  name=$(basename "$bin")
  out_json="$OUT_DIR/BENCH_$name.json"
  echo "=== $name -> $out_json"
  if "$bin" --json="$out_json" "$@" > "$OUT_DIR/$name.log" 2>&1; then
    :
  else
    rc=$?
    echo "    FAILED (exit $rc); log: $OUT_DIR/$name.log" >&2
    failures=$((failures + 1))
  fi
done

# The TCP transport sweep gets its own record: bench_ext_serve --net-only
# drives the epoll front end over loopback at 1/100/1k/10k concurrent
# connections (fd-limit-gated legs skip themselves with a notice).
if [ -x "$BENCH_DIR/bench_ext_serve" ]; then
  out_json="$OUT_DIR/BENCH_serve_net.json"
  echo "=== bench_ext_serve --net-only -> $out_json"
  if "$BENCH_DIR/bench_ext_serve" --net-only --json="$out_json" "$@" \
      > "$OUT_DIR/bench_ext_serve_net.log" 2>&1; then
    :
  else
    rc=$?
    echo "    FAILED (exit $rc); log: $OUT_DIR/bench_ext_serve_net.log" >&2
    failures=$((failures + 1))
  fi
fi

echo "results in $OUT_DIR ($failures failure(s))"
[ "$failures" -eq 0 ]
