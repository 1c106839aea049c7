#!/bin/sh
# Golden wire transcript of `treelattice serve` on stdin (ctest label:
# serve). A single-worker server answers the fixed request script in
# tests/golden/serve_script.ndjson; every response line must match
# tests/golden/serve_stdin.golden byte for byte after the same
# normalization transport_test's TCP leg applies: lines sorted by their
# first "req" id, every "wall_micros" value masked to "*". stdin and TCP
# speak one line protocol, so the stdin golden must also number its lines
# as tests/golden/serve_tcp.golden does: the same "id"/"req" pairs, line
# by line (estimates differ, since transport_test's TCP leg summarizes
# another document). Invoked by ctest with the binary path as $1 and the
# golden directory as $2.
set -e

CLI="$1"
GOLDEN="$2"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

cat > "$WORKDIR/doc.xml" <<'EOF'
<r>
  <a><b><c/></b><c/></a>
  <a><b/><b><c/><c/></b></a>
  <a><c/></a>
  <a/>
  <b><c/></b>
</r>
EOF

"$CLI" build "$WORKDIR/doc.xml" --out="$WORKDIR/doc.summary" --level=2 \
    > /dev/null
"$CLI" serve "$WORKDIR/doc.summary" --workers=1 \
    < "$GOLDEN/serve_script.ndjson" > "$WORKDIR/out" 2> "$WORKDIR/err"

# Every request line gets exactly one response line.
want=$(grep -c . "$GOLDEN/serve_script.ndjson")
got=$(grep -c . "$WORKDIR/out" || true)
if [ "$got" -ne "$want" ]; then
  echo "expected $want response lines, got $got; stderr:" >&2
  cat "$WORKDIR/err" >&2
  exit 1
fi

sed 's/"wall_micros":[-+.0-9eE]*/"wall_micros":"*"/g' "$WORKDIR/out" \
  | sed 's/^\([^r]*"req":\)\([0-9]*\)/\2 \1\2/' \
  | sort -n -k1,1 \
  | sed 's/^[0-9]* //' > "$WORKDIR/transcript"

if ! diff -u "$GOLDEN/serve_stdin.golden" "$WORKDIR/transcript"; then
  echo "stdin wire transcript differs from $GOLDEN/serve_stdin.golden" >&2
  exit 1
fi

# Every "id"/"req" pair of a line, in order, prefixed by its line number.
numbering() {
  awk '{
    rest = $0; pairs = ""
    while (match(rest, /"id":[0-9]+,"req":[0-9]+/)) {
      pairs = pairs " " substr(rest, RSTART, RLENGTH)
      rest = substr(rest, RSTART + RLENGTH)
    }
    print NR ":" pairs
  }' "$1"
}
numbering "$GOLDEN/serve_stdin.golden" > "$WORKDIR/stdin.ids"
numbering "$GOLDEN/serve_tcp.golden" > "$WORKDIR/tcp.ids"
if ! diff -u "$WORKDIR/stdin.ids" "$WORKDIR/tcp.ids"; then
  echo "serve_stdin.golden and serve_tcp.golden number their lines" \
       "differently" >&2
  exit 1
fi
echo "serve golden: $want responses match"
