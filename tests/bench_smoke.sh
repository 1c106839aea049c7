#!/bin/sh
# Smoke run of the figure, table and extension benches: each runs at a
# tiny scale (--scale=40 --queries=3) with TMPDIR on a fresh directory,
# and must exit 0 and leave that directory empty. It checks that every
# bench still runs end to end, not the numbers it prints. Invoked by ctest
# with the bench binaries' paths as arguments.
set -e

[ $# -gt 0 ] || { echo "usage: $0 <bench binary>..." >&2; exit 2; }
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT
mkdir "$WORKDIR/tmp"

failures=0
for bin in "$@"; do
  name=$(basename "$bin")
  if ! TMPDIR="$WORKDIR/tmp" "$bin" --scale=40 --queries=3 \
      > "$WORKDIR/$name.log" 2>&1; then
    echo "FAIL: $name exited non-zero; its output:" >&2
    cat "$WORKDIR/$name.log" >&2
    failures=$((failures + 1))
  fi
  if [ -n "$(ls -A "$WORKDIR/tmp")" ]; then
    echo "FAIL: $name left files in its temp directory:" >&2
    ls -A "$WORKDIR/tmp" >&2
    rm -rf "$WORKDIR/tmp" && mkdir "$WORKDIR/tmp"
    failures=$((failures + 1))
  fi
done

echo "bench_smoke: $# benches, $failures failure(s)"
[ "$failures" -eq 0 ]
