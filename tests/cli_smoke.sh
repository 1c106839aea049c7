#!/bin/sh
# End-to-end smoke test of the treelattice CLI: build a summary from XML,
# inspect and verify it, estimate twig + XPath queries (with --explain),
# and compare against exact counts. Also exercises the crash-safety
# surface: a deliberately truncated summary must be flagged by `verify`
# and either salvaged or cleanly refused by `estimate`. Invoked by ctest
# with the binary path as $1.
set -e

CLI="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

cat > "$WORKDIR/doc.xml" <<'EOF'
<catalog>
  <items>
    <item><name/><price/></item>
    <item><name/><price/></item>
    <item><name/></item>
  </items>
  <vendors><vendor><name/></vendor></vendors>
</catalog>
EOF

# build: writes a single v2 container, no .dict sidecar
"$CLI" build "$WORKDIR/doc.xml" --out="$WORKDIR/doc.summary" --level=3 \
    > "$WORKDIR/build.out"
grep -q "parsed 13 elements" "$WORKDIR/build.out"
grep -q "dict embedded" "$WORKDIR/build.out"
test -f "$WORKDIR/doc.summary"
test ! -f "$WORKDIR/doc.summary.dict"
test ! -f "$WORKDIR/doc.summary.tmp"

# stats
"$CLI" stats "$WORKDIR/doc.summary" > "$WORKDIR/stats.out"
grep -q "TLSUMMARY v2" "$WORKDIR/stats.out"
grep -q "max level:        3" "$WORKDIR/stats.out"
grep -q "dict:             embedded" "$WORKDIR/stats.out"

# verify: freshly built summary is intact, per-level lines present
"$CLI" verify "$WORKDIR/doc.summary" > "$WORKDIR/verify.out"
grep -q "RESULT: intact" "$WORKDIR/verify.out"
grep -q "level 1" "$WORKDIR/verify.out"
grep -q "level 3" "$WORKDIR/verify.out"
grep -q "end marker" "$WORKDIR/verify.out"

# estimate: twig syntax and XPath syntax, exact in-lattice values
"$CLI" estimate "$WORKDIR/doc.summary" "item(name,price)" \
    > "$WORKDIR/est1.out"
grep -q "2.00" "$WORKDIR/est1.out"
"$CLI" estimate "$WORKDIR/doc.summary" "item[name][price]" --explain \
    > "$WORKDIR/est2.out"
grep -q "2.00" "$WORKDIR/est2.out"
grep -q "summary" "$WORKDIR/est2.out"

# estimate --batch: one call over every query gives the same estimates as
# one call per query, a duplicate included
set -- "item(name,price)" "catalog(items(item(name)),vendors)" \
    "item(name,price)" "items/item[name]"
"$CLI" estimate "$WORKDIR/doc.summary" "$@" --estimator=voting --json \
    > "$WORKDIR/single.json"
"$CLI" estimate "$WORKDIR/doc.summary" "$@" --estimator=voting --json \
    --batch > "$WORKDIR/batch.json"
pairs() {
  sed 's/^{"query":"\([^"]*\)".*"estimate":\([^,}]*\).*/\1 \2/' "$1"
}
test "$(pairs "$WORKDIR/single.json" | wc -l)" -eq 4
test "$(pairs "$WORKDIR/single.json")" = "$(pairs "$WORKDIR/batch.json")"
# --batch --json keeps the batch fields
test "$(grep -c '"batch_size":4,' "$WORKDIR/batch.json")" -eq 4
grep -q '"batch_wall_micros":' "$WORKDIR/batch.json"
# --batch --explain prints one trace per query (a trace's root line is the
# only unindented line ending in its "[...]" tag)
"$CLI" estimate "$WORKDIR/doc.summary" "item(name,price)" \
    "catalog(items(item(name)),vendors)" --batch --explain \
    > "$WORKDIR/batch_explain.out"
test "$(grep -c '^[^ ].*\]$' "$WORKDIR/batch_explain.out")" -eq 2
# --explain records the call that answers: for a query that decomposes,
# the root line (its only unindented line ending in "]") carries the
# --json estimate to all 17 digits under voting, and lists its votes
q="catalog(items(item(name,price),item(name)),vendors)"
"$CLI" estimate "$WORKDIR/doc.summary" "$q" --estimator=voting --json \
    > "$WORKDIR/voting.json"
"$CLI" estimate "$WORKDIR/doc.summary" "$q" --estimator=voting --explain \
    > "$WORKDIR/voting_explain.out"
want=$(sed 's/.*"estimate":\([^,}]*\).*/\1/' "$WORKDIR/voting.json")
got=$(sed -n 's/^[^ ].* ~*= \([^ ]*\)   \[.*\]$/\1/p' \
    "$WORKDIR/voting_explain.out")
if [ -z "$want" ] || [ "$got" != "$want" ]; then
  echo "explain root '$got' is not the voting estimate '$want'" >&2
  exit 1
fi
grep -q "^  vote 2 = T1 \* T2 / overlap" "$WORKDIR/voting_explain.out"
# --estimator=fixed has no decomposition to explain: exit 2 with a message
rc=0
"$CLI" estimate "$WORKDIR/doc.summary" "$q" --estimator=fixed --explain \
    > "$WORKDIR/fixed_explain.out" 2> "$WORKDIR/fixed_explain.err" || rc=$?
test "$rc" -eq 2
grep -q "explain" "$WORKDIR/fixed_explain.err"
# --estimator=fixed answers with and without --batch
for mode in --json --batch; do
  "$CLI" estimate "$WORKDIR/doc.summary" "item(name,price)" \
      --estimator=fixed "$mode" > "$WORKDIR/fixed.out"
  grep -q "fixed-size" "$WORKDIR/fixed.out"
  grep -q '2' "$WORKDIR/fixed.out"
done

# Every spelling of a twig gets one estimate: three orders of the same
# children under every estimator, alone and as one batch. The document is
# a random walk that opens a child labelled a-f or closes the current
# element, driven by a Park-Miller generator (integer arithmetic, exact in
# every awk), so its 3-lattice leaves these size-8 twigs to decompose.
awk 'BEGIN {
  x = 7; depth = 0; n = 0
  printf "<r>"
  while (n < 3000) {
    x = (x * 16807) % 2147483647
    if (depth > 0 && (x % 3 == 0 || depth >= 6)) {
      printf "</%s>", open[depth--]
    } else {
      x = (x * 16807) % 2147483647
      open[++depth] = substr("abcdef", x % 6 + 1, 1)
      printf "<%s>", open[depth]
      n++
    }
  }
  while (depth > 0) printf "</%s>", open[depth--]
  print "</r>"
}' > "$WORKDIR/random.xml"
"$CLI" build "$WORKDIR/random.xml" --out="$WORKDIR/random.summary" \
    --level=3 > /dev/null
for estimator in recursive voting voting-median fixed; do
  for batch in "" --batch; do
    "$CLI" estimate "$WORKDIR/random.summary" "a(e(f,a),c,b(c,d))" \
        "a(b(c,d),e(f,a),c)" "a(c,e(a,f),b(d,c))" \
        --estimator=$estimator --json $batch > "$WORKDIR/spellings.json"
    estimates=$(sed 's/.*"estimate":\([^,}]*\).*/\1/' \
        "$WORKDIR/spellings.json" | sort -u)
    if [ "$(wc -l < "$WORKDIR/spellings.json")" -ne 3 ] ||
        [ "$(echo "$estimates" | wc -l)" -ne 1 ]; then
      echo "--estimator=$estimator $batch: spellings estimate" \
          $estimates >&2
      exit 1
    fi
  done
done

# truth
"$CLI" truth "$WORKDIR/doc.xml" "item(name,price)" > "$WORKDIR/truth.out"
grep -q "2" "$WORKDIR/truth.out"

# truth refuses a query past the exact counter's limit, a node with more
# than 20 non-leaf children of one label, instead of printing 0 as its
# count
BC=$(printf '<b><c/></b>%.0s' $(seq 22))
printf '<r><a>%s</a><a>%s</a><a>%s</a></r>\n' "$BC" "$BC" "$BC" \
    > "$WORKDIR/wide.xml"
rc=0
"$CLI" truth "$WORKDIR/wide.xml" "a($(printf 'b(c),%.0s' $(seq 20))b(c))" \
    > "$WORKDIR/wide.out" 2> "$WORKDIR/wide.err" || rc=$?
test "$rc" -eq 1
grep -q "the exact counter's limit is 20" "$WORKDIR/wide.err"

# pruned build
"$CLI" build "$WORKDIR/doc.xml" --out="$WORKDIR/pruned.summary" --level=3 \
    --prune-delta=0 > "$WORKDIR/build2.out"
grep -q "pruned" "$WORKDIR/build2.out"

# truncated summary: verify must flag it, estimate must salvage (warning
# on stderr, estimates still served from the intact prefix) or refuse
SIZE=$(wc -c < "$WORKDIR/doc.summary")
head -c $((SIZE - 30)) "$WORKDIR/doc.summary" > "$WORKDIR/truncated.summary"
if "$CLI" verify "$WORKDIR/truncated.summary" > "$WORKDIR/verify2.out"; then
  echo "expected verify to flag truncated summary" >&2
  exit 1
fi
grep -q "RESULT: CORRUPT" "$WORKDIR/verify2.out"
if "$CLI" estimate "$WORKDIR/truncated.summary" "name" \
    > "$WORKDIR/est3.out" 2> "$WORKDIR/est3.err"; then
  grep -q "warning" "$WORKDIR/est3.err"   # salvage mode announces itself
  grep -q "4.00" "$WORKDIR/est3.out"      # level 1 survived: exact count
else
  grep -q "." "$WORKDIR/est3.err"         # refusal must say why
fi

# garbage file: verify and estimate both refuse cleanly
head -c 100 /dev/urandom > "$WORKDIR/garbage.summary" 2>/dev/null \
  || dd if=/dev/zero of="$WORKDIR/garbage.summary" bs=100 count=1 2>/dev/null
if "$CLI" verify "$WORKDIR/garbage.summary" 2>/dev/null; then
  echo "expected verify to reject garbage" >&2
  exit 1
fi
if "$CLI" estimate "$WORKDIR/garbage.summary" "name" 2>/dev/null; then
  echo "expected estimate to reject garbage" >&2
  exit 1
fi

# telemetry: --metrics file on build, with nonzero mining/io counters
"$CLI" build "$WORKDIR/doc.xml" --out="$WORKDIR/doc2.summary" --level=3 \
    --metrics="$WORKDIR/build_metrics.json" > /dev/null
grep -q '"mining.patterns_inserted":' "$WORKDIR/build_metrics.json"
grep -q '"io.bytes_written":' "$WORKDIR/build_metrics.json"
if grep -q '"mining.patterns_inserted":0,' "$WORKDIR/build_metrics.json"; then
  echo "expected nonzero mining.patterns_inserted" >&2
  exit 1
fi

# telemetry: Prometheus rendering
"$CLI" stats "$WORKDIR/doc.summary" --metrics=- --metrics-format=prom \
    > "$WORKDIR/prom.out"
grep -q "# TYPE treelattice_summary_loads counter" "$WORKDIR/prom.out"

# telemetry: estimate --json emits one record per query with counters, and
# --metrics=- appends the registry dump (nonzero summary hits, depth
# histogram populated)
"$CLI" estimate "$WORKDIR/doc.summary" "item(name,price)" \
    "catalog(items(item(name)),vendors)" --json --metrics=- \
    > "$WORKDIR/est_json.out"
grep -q '"query":"item(name,price)"' "$WORKDIR/est_json.out"
grep -q '"estimator":"recursive"' "$WORKDIR/est_json.out"
grep -q '"estimate":2' "$WORKDIR/est_json.out"
grep -q '"wall_micros":' "$WORKDIR/est_json.out"
grep -q '"summary_hits":' "$WORKDIR/est_json.out"
grep -q '"estimator.summary_hits":[1-9]' "$WORKDIR/est_json.out"
grep -q '"estimator.decomposition_depth":{"count":[1-9]' "$WORKDIR/est_json.out"

# telemetry: --trace writes a Chrome trace_event file
"$CLI" build "$WORKDIR/doc.xml" --out="$WORKDIR/doc3.summary" --level=3 \
    --trace="$WORKDIR/build_trace.json" > /dev/null
grep -q '"traceEvents":\[' "$WORKDIR/build_trace.json"
grep -q '"ph":"X"' "$WORKDIR/build_trace.json"
grep -q '"name":"mining.build"' "$WORKDIR/build_trace.json"

# telemetry: TREELATTICE_OBS=off leaves counters at zero
TREELATTICE_OBS=off "$CLI" estimate "$WORKDIR/doc.summary" \
    "item(name,price)" --metrics="$WORKDIR/off_metrics.json" > /dev/null
grep -q '"estimator.summary_hits":0' "$WORKDIR/off_metrics.json"

# bad --metrics-format is rejected
if "$CLI" stats "$WORKDIR/doc.summary" --metrics=- --metrics-format=xml \
    2>/dev/null; then
  echo "expected rejection of bad metrics format" >&2
  exit 1
fi

# serve: newline-delimited queries in, one JSON response per request out,
# graceful drain on EOF (the full fault-injected soak lives in
# serve_smoke.sh under the `serve` ctest label)
printf 'item(name,price)\nitem[name][price]\n#stats\n' \
  | "$CLI" serve "$WORKDIR/doc.summary" --workers=2 \
  > "$WORKDIR/serve.out" 2> "$WORKDIR/serve.err"
test "$(grep -c '^{"id":' "$WORKDIR/serve.out")" -eq 2
grep -q '"ok":true' "$WORKDIR/serve.out"
grep -q '"rung":"primary"' "$WORKDIR/serve.out"
grep -q '^{"stats":' "$WORKDIR/serve.out"
grep -q "serve: drained" "$WORKDIR/serve.err"

# serve: a numeric flag that does not parse completely or lies outside its
# range (a negative size, a slow-log ring too large to reserve, a worker
# count past int) is refused with exit 2 and a message naming the flag,
# before anything runs
for flag in --queue=-1 --cache-capacity=-1 --max-steps=-1 \
    --slow-log-size=-1 --slow-log-size=1000000000000 --max-frame-bytes=-1 \
    --write-high-water=-1 --max-conns=-1 --workers=4294967297 \
    --workers=abc --queue=12x --max-frame-bytes=1MB --deadline-ms=5ms; do
  rc=0
  "$CLI" serve "$WORKDIR/doc.summary" "$flag" < /dev/null \
      > "$WORKDIR/flag.out" 2> "$WORKDIR/flag.err" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "expected exit 2 for serve $flag, got $rc" >&2
    exit 1
  fi
  grep -q -- "${flag%%=*} must be" "$WORKDIR/flag.err"
done

# build: a --level past the summary's level cap is refused the same way,
# before any mining
rc=0
"$CLI" build "$WORKDIR/doc.xml" --out="$WORKDIR/level.summary" \
    --level=4294967298 > "$WORKDIR/flag.out" 2> "$WORKDIR/flag.err" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "expected exit 2 for build --level=4294967298, got $rc" >&2
  exit 1
fi
grep -q -- "--level must be" "$WORKDIR/flag.err"

# error handling: bad inputs exit non-zero
if "$CLI" estimate "$WORKDIR/doc.summary" "a//b" 2>/dev/null; then
  echo "expected failure on descendant axis" >&2
  exit 1
fi
if "$CLI" build /nonexistent.xml --out="$WORKDIR/x" 2>/dev/null; then
  echo "expected failure on missing file" >&2
  exit 1
fi
if "$CLI" bogus-command 2>/dev/null; then
  echo "expected usage failure" >&2
  exit 1
fi

echo "CLI smoke test passed"
