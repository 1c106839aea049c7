#!/bin/sh
# Asserts the telemetry overhead budget (DESIGN.md "Observability"): the
# estimator microbenchmarks with metrics enabled must stay within 5% of
# the same binary with TREELATTICE_OBS=off.
# A second leg repeats the check end to end over TCP: bench_ext_serve's
# net sweep — with the full introspection plane riding along (admin
# listener, per-request stage tracing, slow-query ring) — must keep its
# throughput within the same budget of the OBS=off run.
#
#   tools/check_metrics_overhead.sh [build_dir]
#
# Environment: FILTER (default the estimator benchmarks), MIN_TIME
# (default 0.2s per benchmark, to tame noise), BENCH_RUNS (default 3; each
# side's best total is compared, to tame scheduler noise), NET_REQUESTS
# (default 20000 per TCP run), NET_RUNS (default 5; likewise best-of on
# each side).
set -eu

BUILD_DIR="${1:-build}"
BIN="$BUILD_DIR/bench/bench_micro"
SERVE_BIN="$BUILD_DIR/bench/bench_ext_serve"
BUDGET_PCT=5
FILTER="${FILTER:-BM_Estimate}"
MIN_TIME="${MIN_TIME:-0.2}"
BENCH_RUNS="${BENCH_RUNS:-3}"
NET_REQUESTS="${NET_REQUESTS:-20000}"
NET_RUNS="${NET_RUNS:-5}"

if [ ! -x "$BIN" ]; then
  echo "error: $BIN not found (build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 2
fi

# Sums the cpu_time column of google-benchmark's CSV output.
run_total() {
  TREELATTICE_OBS="$1" "$BIN" \
    --benchmark_filter="$FILTER" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=csv 2>/dev/null |
    awk -F, '/^"/ { total += $4; n += 1 } END {
      if (n == 0) { print "0 0" } else { printf "%.0f %d\n", total, n }
    }'
}

# Best (lowest) total over BENCH_RUNS runs: a single sample conflates
# scheduler noise with instrumentation cost, and the *minimum* on each
# side is the cleanest estimate of what the code itself costs.
best_total() {
  mode=$1
  best=""; best_n=0
  i=0
  while [ "$i" -lt "$BENCH_RUNS" ]; do
    # shellcheck disable=SC2046 # run_total prints "total n"; splitting is intended
    set -- $(run_total "$mode")
    if [ -z "$best" ] || [ "$1" -lt "$best" ]; then
      best=$1; best_n=$2
    fi
    i=$((i + 1))
  done
  echo "$best $best_n"
}

echo "=== baseline: TREELATTICE_OBS=off ($FILTER, best of $BENCH_RUNS) ==="
# shellcheck disable=SC2046 # best_total prints "total n"; splitting is intended
set -- $(best_total off)
off_total=$1; off_n=$2
echo "    $off_n benchmarks, total cpu $off_total ns"

echo "=== instrumented: TREELATTICE_OBS=on ==="
# shellcheck disable=SC2046 # as above
set -- $(best_total on)
on_total=$1; on_n=$2
echo "    $on_n benchmarks, total cpu $on_total ns"

if [ "$off_n" -eq 0 ] || [ "$off_n" != "$on_n" ]; then
  echo "FAIL: benchmark sets differ (off=$off_n, on=$on_n)" >&2
  exit 1
fi

awk -v off="$off_total" -v on="$on_total" -v tol="$BUDGET_PCT" 'BEGIN {
  overhead = 100.0 * (on - off) / off
  printf "overhead: %+.2f%% (budget %s%%)\n", overhead, tol
  exit (overhead <= tol) ? 0 : 1
}' || { echo "FAIL: telemetry overhead exceeds ${BUDGET_PCT}%" >&2; exit 1; }

echo "OK: estimator telemetry overhead within budget"

# --- TCP leg: serving throughput with the introspection plane live -------

if [ ! -x "$SERVE_BIN" ]; then
  echo "warn: $SERVE_BIN not found; skipping TCP overhead leg" >&2
  exit 0
fi

# Best req/s over NET_RUNS runs of the 100-connection leg (field 3 of the
# net_c100 row; the sweep enables the admin plane and slow-query ring).
best_net_qps() {
  best=0
  i=0
  while [ "$i" -lt "$NET_RUNS" ]; do
    qps=$(TREELATTICE_OBS="$1" "$SERVE_BIN" --net-only \
        --net-requests="$NET_REQUESTS" --net-max-conns=100 2>/dev/null |
      awk '$1 == "net_c100" { print $3 }')
    [ -n "$qps" ] || { echo 0; return; }
    best=$(awk -v a="$best" -v b="$qps" 'BEGIN { print (b > a) ? b : a }')
    i=$((i + 1))
  done
  echo "$best"
}

echo "=== TCP baseline: TREELATTICE_OBS=off (net_c100, best of $NET_RUNS) ==="
off_qps=$(best_net_qps off)
echo "    $off_qps req/s"

echo "=== TCP instrumented: TREELATTICE_OBS=on ==="
on_qps=$(best_net_qps on)
echo "    $on_qps req/s"

awk -v off="$off_qps" -v on="$on_qps" -v tol="$BUDGET_PCT" 'BEGIN {
  if (off <= 0 || on <= 0) { print "FAIL: TCP leg produced no throughput"; exit 1 }
  loss = 100.0 * (off - on) / off
  printf "tcp qps loss: %+.2f%% (budget %s%%)\n", loss, tol
  exit (loss <= tol) ? 0 : 1
}' || { echo "FAIL: TCP telemetry overhead exceeds ${BUDGET_PCT}%" >&2; exit 1; }

echo "OK: TCP telemetry overhead within budget"
