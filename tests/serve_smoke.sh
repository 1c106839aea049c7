#!/bin/sh
# Soak test for `treelattice serve` (ctest label: serve): 200+ queries
# streamed through a live server while the summary file on disk is
# corrupted and reloaded, a deliberately tiny queue is overflowed, and a
# SIGTERM lands mid-stream. The server must never die, every stdout line
# must be well-formed JSON, failed reloads must keep the old snapshot
# serving, and both EOF and SIGTERM must drain cleanly. Phase 4 repeats
# the soak over TCP (--listen) with a mixed single/batch stream, injected
# socket faults, RST-slamming chaos connections, and a mid-soak SIGTERM —
# exactly-once per-query delivery must hold end to end. Invoked by ctest
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

"$CLI" build "$WORKDIR/doc.xml" --out="$WORKDIR/doc.summary" --level=3 \
    > /dev/null
cp "$WORKDIR/doc.summary" "$WORKDIR/doc.summary.good"

# Every stdout line the server emits must parse as JSON. Prefer a real
# parser when python3 is around (it is wherever the lint suite runs);
# otherwise fall back to a shape check.
assert_all_json() {
  if command -v python3 > /dev/null 2>&1; then
    python3 - "$1" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    for n, line in enumerate(f, 1):
        line = line.strip()
        if not line:
            continue
        try:
            json.loads(line)
        except ValueError:
            sys.exit(f"line {n} is not valid JSON: {line[:120]}")
PYEOF
  else
    if grep -v '^{.*}$' "$1" | grep -q .; then
      echo "non-JSON line in $1" >&2
      exit 1
    fi
  fi
}

# Waits up to 10 s for stderr file $1 to contain the line fragment $2.
wait_stderr() {
  n=0
  while ! grep -q "$2" "$1" 2> /dev/null; do
    n=$((n + 1))
    if [ "$n" -ge 100 ]; then
      echo "server never printed '$2'; stderr:" >&2
      cat "$1" >&2
      exit 1
    fi
    sleep 0.1
  done
}

# The server loads the summary at startup; wait for its ready line before
# touching the file on disk, or the corruption below races the startup
# load and the server (correctly) refuses to start at all.
wait_ready() {
  wait_stderr "$1" "serve: ready"
}

# --- phase 1: 200-query soak with injected reload faults -----------------

# --queue=256: the whole 201-query burst fits, so a slow host (sanitizers,
# parallel ctest) cannot turn this reload soak into a shedding test; the
# shed path is phase 2's.
mkfifo "$WORKDIR/in"
"$CLI" serve "$WORKDIR/doc.summary" --workers=4 --deadline-ms=100 \
    --reload-backoff-ms=0 --queue=256 \
    < "$WORKDIR/in" > "$WORKDIR/soak.out" 2> "$WORKDIR/soak.err" &
SERVE_PID=$!
exec 3> "$WORKDIR/in"
wait_ready "$WORKDIR/soak.err"

i=0
while [ "$i" -lt 100 ]; do
  echo "item(name,price)" >&3
  i=$((i + 1))
done

# Corrupt the file on disk: the strict hot reload must fail and the old
# snapshot must keep answering the next 100 queries.
head -c 64 /dev/urandom > "$WORKDIR/doc.summary" 2>/dev/null \
  || dd if=/dev/zero of="$WORKDIR/doc.summary" bs=64 count=1 2>/dev/null
echo "#reload" >&3

i=0
while [ "$i" -lt 100 ]; do
  case $((i % 4)) in
    0) echo "item(name,price)" >&3 ;;
    1) echo "/catalog/items/item[name]" >&3 ;;
    2) echo '{"query":"item(name)","deadline_ms":50,"max_steps":100000}' >&3 ;;
    3) echo "((((not a query" >&3 ;;
  esac
  i=$((i + 1))
done

# Heal the file; this reload must succeed and bump the snapshot version.
# Wait for the failed reload first: a server lagging behind this script
# would otherwise read the healed file on its first #reload.
wait_stderr "$WORKDIR/soak.err" "serve: reload failed"
cp "$WORKDIR/doc.summary.good" "$WORKDIR/doc.summary"
echo "#reload" >&3
echo "item(name,price)" >&3
echo "#stats" >&3

exec 3>&-   # EOF: graceful drain
wait "$SERVE_PID"

grep -q "serve: reload failed" "$WORKDIR/soak.err"
grep -q "serve: reloaded" "$WORKDIR/soak.err"
grep -q "serve: drained" "$WORKDIR/soak.err"
assert_all_json "$WORKDIR/soak.out"

# Exactly one response per request (201 queries), plus the stats record.
RESPONSES=$(grep -c '^{"id":' "$WORKDIR/soak.out")
test "$RESPONSES" -eq 201
grep -q '^{"stats":' "$WORKDIR/soak.out"
# The malformed queries answered with structured JSON errors, not crashes.
grep -q '"ok":false,"error":{"code":' "$WORKDIR/soak.out"
# Known-good queries kept answering after the failed reload. Both greps
# read response lines only: the #reload acks carry "ok" and
# "snapshot_version" too.
OK_COUNT=$(grep -c '^{"id":.*"ok":true' "$WORKDIR/soak.out")
test "$OK_COUNT" -ge 150
# The healed reload produced a version-2 snapshot for the final query.
grep -q '^{"id":.*"snapshot_version":2' "$WORKDIR/soak.out"

# --- phase 2: queue overflow sheds instead of growing or crashing --------

i=0
while [ "$i" -lt 30 ]; do
  echo "item(name,price)"
  i=$((i + 1))
done | "$CLI" serve "$WORKDIR/doc.summary" --workers=1 --queue=2 \
    --worker-delay-ms=20 > "$WORKDIR/shed.out" 2> "$WORKDIR/shed.err"

assert_all_json "$WORKDIR/shed.out"
SHED_RESPONSES=$(grep -c '^{"id":' "$WORKDIR/shed.out")
test "$SHED_RESPONSES" -eq 30
grep -q '"code":"ResourceExhausted"' "$WORKDIR/shed.out"
grep -q "serve: drained" "$WORKDIR/shed.err"

# --- phase 2b: stdin is framed as a TCP connection is -------------------

# A line longer than 64 KiB is one request with one response (a valid
# query whose one label is 70,000 bytes; it estimates 0).
LABEL=$(head -c 70000 /dev/zero | tr '\0' x)
printf 'item(%s)\n' "$LABEL" \
  | "$CLI" serve "$WORKDIR/doc.summary" --workers=1 \
  > "$WORKDIR/long.out" 2> "$WORKDIR/long.err"
assert_all_json "$WORKDIR/long.out"
test "$(grep -c '^{"id":' "$WORKDIR/long.out")" -eq 1
grep -q '"ok":true' "$WORKDIR/long.out"

# --max-frame-bytes bounds a stdin line too: a 2,000-byte line under a
# 1,000-byte limit gets the TCP path's error, and the next line, the last
# one and without its newline, is still answered.
LABEL=$(head -c 2000 /dev/zero | tr '\0' x)
printf 'item(%s)\nitem(name,price)' "$LABEL" \
  | "$CLI" serve "$WORKDIR/doc.summary" --workers=1 --max-frame-bytes=1000 \
  > "$WORKDIR/frame.out" 2> "$WORKDIR/frame.err"
assert_all_json "$WORKDIR/frame.out"
test "$(grep -c '^{"id":' "$WORKDIR/frame.out")" -eq 2
grep -q '"message":"request line exceeds max frame size of 1000 bytes"' \
    "$WORKDIR/frame.out"
test "$(grep -c '"query":"item(name,price)","ok":true' "$WORKDIR/frame.out")" \
    -eq 1

# The front door caps a query at 4,096 nodes: a 20,000-leaf star, a
# 40,002-byte line inside the frame limit, gets an error naming the limit
# (uncapped, its recursion nested 20,000 frames and overflowed the stack),
# and the next line is answered.
STAR="a($(yes b | head -n 20000 | paste -sd, -))"
printf '%s\na(b)\n' "$STAR" \
  | "$CLI" serve "$WORKDIR/doc.summary" --workers=1 \
  > "$WORKDIR/star.out" 2> "$WORKDIR/star.err"
assert_all_json "$WORKDIR/star.out"
test "$(grep -c '^{"id":' "$WORKDIR/star.out")" -eq 2
grep -q '"message":"query has 20001 nodes; the limit is 4096"' \
    "$WORKDIR/star.out"
test "$(grep -c '"query":"a(b)","ok":true' "$WORKDIR/star.out")" -eq 1

# --- phase 3: SIGTERM mid-stream drains instead of dropping --------------

mkfifo "$WORKDIR/in2"
"$CLI" serve "$WORKDIR/doc.summary" --workers=2 \
    < "$WORKDIR/in2" > "$WORKDIR/term.out" 2> "$WORKDIR/term.err" &
SERVE_PID=$!
exec 3> "$WORKDIR/in2"
wait_ready "$WORKDIR/term.err"
i=0
while [ "$i" -lt 10 ]; do
  echo "item(name)" >&3
  i=$((i + 1))
done
# Give the server a moment to admit the batch, then signal it.
sleep 1
kill -TERM "$SERVE_PID"
RC=0
wait "$SERVE_PID" || RC=$?
exec 3>&-
test "$RC" -eq 0
grep -q "serve: drained" "$WORKDIR/term.err"
assert_all_json "$WORKDIR/term.out"
TERM_RESPONSES=$(grep -c '^{"id":' "$WORKDIR/term.out")
test "$TERM_RESPONSES" -eq 10

# --- phase 4: TCP soak — faults, resets, and a mid-soak SIGTERM ----------
# 200 pipelined queries over a real socket — 150 single lines mixed with
# 10 batch array lines of 5 queries each (DESIGN.md §14) — while injected
# short reads/writes and EAGAIN storms batter every syscall and chaos
# connections slam RSTs, an oversized frame, malformed batches, and
# garbage at the server; then SIGTERM lands with a second mixed wave
# still in flight. The main client must get exactly one response per
# QUERY (zero drops, zero dupes; each batch line answered by exactly one
# array line), and the server's own drain accounting must conserve
# per-query: admitted == delivered + orphaned.

if command -v python3 > /dev/null 2>&1; then
  # --queue=256: the whole 200-query burst lands at once over TCP; the
  # admission-shed path has its own coverage (phase 2, transport_test).
  # --worker-delay-ms=2 makes every query cross the 1 ms slow threshold
  # deterministically; without it the /slowz assertion below hinges on
  # queue-wait luck on a fast machine.
  "$CLI" serve "$WORKDIR/doc.summary" --listen=127.0.0.1:0 --workers=4 \
      --queue=256 --drain-ms=3000 --max-frame-bytes=4096 \
      --worker-delay-ms=2 \
      --net-fault-seed=42 --net-fault-short=0.2 --net-fault-eagain=0.1 \
      --admin=127.0.0.1:0 --slow-threshold-ms=1 --slow-log-size=64 \
      > /dev/null 2> "$WORKDIR/tcp.err" &
  SERVE_PID=$!

  python3 - "$WORKDIR/tcp.err" "$SERVE_PID" <<'PYEOF'
import json, os, re, signal, socket, struct, sys, time

err_path, pid = sys.argv[1], int(sys.argv[2])

# Wait for the listening lines and extract both ephemeral ports.
port = admin_port = None
deadline = time.time() + 10
while time.time() < deadline and (port is None or admin_port is None):
    try:
        with open(err_path) as f:
            text = f.read()
        m = re.search(r"listening on [\d.]+:(\d+)", text)
        if m:
            port = int(m.group(1))
        m = re.search(r"admin on [\d.]+:(\d+)", text)
        if m:
            admin_port = int(m.group(1))
    except FileNotFoundError:
        pass
    time.sleep(0.05)
assert port is not None, "server never printed its port"
assert admin_port is not None, "server never printed its admin port"

def admin_get(target):
    """One-shot HTTP GET against the admin plane; returns (status, body)."""
    s = socket.create_connection(("127.0.0.1", admin_port), timeout=10)
    s.sendall(b"GET %s HTTP/1.1\r\nHost: smoke\r\n\r\n" % target.encode())
    raw = b""
    while True:
        chunk = s.recv(65536)
        if not chunk:
            break
        raw += chunk
    s.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body

def connect():
    return socket.create_connection(("127.0.0.1", port), timeout=10)

def read_line(sock):
    """The next response line; short writes may split it across recvs."""
    line = b""
    while not line.endswith(b"\n"):
        chunk = sock.recv(4096)
        if not chunk:
            break
        line += chunk
    return line

def rst(sock):
    """Abortive close: SO_LINGER(0) turns close() into an RST."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))
    sock.close()

main = connect()
# 150 singles (ids 1..150) + 10 batch lines of 5 (ids 151..200): one
# mixed stream, 200 queries total.
stream = b"".join(
    b'{"query": "item(name,price)", "id": %d}\n' % i
    for i in range(1, 151))
stream += b"".join(
    b"[" + b",".join(
        b'{"query": "item(name)", "id": %d}' % (151 + 5 * k + j)
        for j in range(5)) + b"]\n"
    for k in range(10))
main.sendall(stream)

seen = set()
batch_lines = 0
buf = b""
deadline = time.time() + 60
chaos_done = False
while len(seen) < 200:
    assert time.time() < deadline, f"timed out with {len(seen)}/200 responses"
    chunk = main.recv(65536)
    assert chunk, f"EOF with only {len(seen)}/200 responses"
    buf += chunk
    while b"\n" in buf:
        line, buf = buf.split(b"\n", 1)
        record = json.loads(line)
        if isinstance(record, list):
            # One array line per batch line, positional: exactly the 5
            # consecutive ids of one submitted batch, in order.
            batch_lines += 1
            ids = [item["id"] for item in record]
            assert ids == list(range(ids[0], ids[0] + 5)), ids
            assert ids[0] >= 151 and (ids[0] - 151) % 5 == 0, ids
            items = record
        else:
            items = [record]
        for item in items:
            assert item["ok"], item
            rid = item["id"]
            assert rid not in seen, f"duplicate response id {rid}"
            seen.add(rid)
    if len(seen) >= 50 and not chaos_done:
        chaos_done = True
        # Chaos mid-soak: resets with requests in flight, an oversized
        # frame, malformed batch lines, and garbage — none of it may
        # disturb the main stream.
        for _ in range(3):
            c = connect()
            c.sendall(b'{"query": "item(name)"}\n' * 5)
            rst(c)
        c = connect()
        c.sendall(b"x" * 10000 + b"\n")
        assert b'"error"' in read_line(c)  # oversized -> error, not close
        c.close()
        c = connect()
        c.sendall(b"[]\n")                 # empty batch -> error line
        assert b'"error"' in read_line(c)
        c.close()
        c = connect()
        c.sendall(b'["item(name)", 42]\n')  # bad element -> error line
        assert b'"error"' in read_line(c)
        c.close()
        c = connect()
        c.sendall(b"{{{{not json\n")
        c.close()
assert seen == set(range(1, 201)), "response ids mismatch"
assert batch_lines == 10, f"expected 10 batch response lines, saw {batch_lines}"

# Admin plane mid-soak: all four endpoints must answer while the serving
# port is still live, and the slow-query ring (threshold 1 ms) must have
# caught real traffic with its stage timeline and shape features.
status, body = admin_get("/healthz")
assert status == 200 and json.loads(body)["ok"], (status, body)
status, body = admin_get("/metrics")
assert status == 200 and b"treelattice_" in body, (status, body[:200])
status, body = admin_get("/statusz")
statusz = json.loads(body)
assert status == 200 and statusz["snapshot_version"] >= 1, statusz
status, body = admin_get("/slowz")
slowz = json.loads(body)
assert status == 200, (status, body[:200])
entries = slowz["slowz"]["entries"]
assert entries, "no slow queries at a 2 ms worker delay"
for entry in entries:
    assert entry["req"] > 0 and "stages_micros" in entry, entry
# Both stream shapes must be represented: single entries carry the twig
# shape, batch entries carry the query count of their line.
singles_seen = [e for e in entries if e.get("batch_size", 1) <= 1]
batches_seen = [e for e in entries if e.get("batch_size", 1) > 1]
assert singles_seen and singles_seen[0]["shape"]["size"] >= 1, entries[:2]
assert batches_seen and batches_seen[0]["batch_size"] == 5, entries[:2]
print(f"admin plane: 4 endpoints ok, {len(slowz['slowz']['entries'])} "
      "slow queries captured")

# Second wave — 30 singles + 4 batches of 5 — then SIGTERM while it is
# in flight: the drain must answer everything admitted (whole batches
# included) and close cleanly (EOF, no RST, no hang).
wave = b"".join(
    b'{"query": "item(name)", "id": %d}\n' % i
    for i in range(1000, 1030))
wave += b"".join(
    b"[" + b",".join(
        b'{"query": "item(name)", "id": %d}' % (1030 + 5 * k + j)
        for j in range(5)) + b"]\n"
    for k in range(4))
main.sendall(wave)
time.sleep(0.1)
os.kill(pid, signal.SIGTERM)
drained = 0
while True:
    try:
        chunk = main.recv(65536)
    except ConnectionResetError:
        sys.exit("connection reset during drain")
    if not chunk:
        break
    buf += chunk
    while b"\n" in buf:
        line, buf = buf.split(b"\n", 1)
        record = json.loads(line)
        items = record if isinstance(record, list) else [record]
        for item in items:
            assert 1000 <= item["id"] < 1050, item
            drained += 1
main.close()
print(f"tcp soak: 200 answered, {drained} of the in-flight wave drained")
PYEOF

  RC=0
  wait "$SERVE_PID" || RC=$?
  test "$RC" -eq 0
  grep -q "serve: drained" "$WORKDIR/tcp.err"

  # The server's own accounting must conserve requests exactly-once, and
  # the chaos connections must have registered as resets.
  python3 - "$WORKDIR/tcp.err" <<'PYEOF'
import re, sys

with open(sys.argv[1]) as f:
    text = f.read()
m = re.search(
    r"serve: drained \(accepted=(\d+) rejected=(\d+) admitted=(\d+) "
    r"delivered=(\d+) orphaned=(\d+) resets=(\d+)", text)
assert m, f"no drain tally in stderr:\n{text}"
accepted, rejected, admitted, delivered, orphaned, resets = map(
    int, m.groups())
assert admitted == delivered + orphaned, m.group(0)
assert delivered >= 200, m.group(0)
assert resets >= 3, m.group(0)
print("tcp drain tally conserves:", m.group(0))
PYEOF
else
  echo "python3 not found; skipping TCP soak leg" >&2
fi

# --- phase 5: a write high-water mark under 4 bytes -------------------------
# Its low mark, a quarter of it, is 0: reading must still resume once each
# answer has left, so three sequential exchanges on one connection are all
# answered (not only the first, with the rest waiting for the idle timeout).

if command -v python3 > /dev/null 2>&1; then
  "$CLI" serve "$WORKDIR/doc.summary.good" --listen=127.0.0.1:0 \
      --write-high-water=0 > /dev/null 2> "$WORKDIR/hw.err" &
  HW_PID=$!
  RC=0
  python3 - "$WORKDIR/hw.err" <<'PYEOF' || RC=$?
import re, socket, sys, time

port = None
deadline = time.time() + 10
while time.time() < deadline and port is None:
    try:
        with open(sys.argv[1]) as f:
            m = re.search(r"listening on [\d.]+:(\d+)", f.read())
        if m:
            port = int(m.group(1))
    except FileNotFoundError:
        pass
    time.sleep(0.05)
assert port is not None, "server never printed its port"
# Each answer must arrive within 3 s; socket.timeout fails the phase.
sock = socket.create_connection(("127.0.0.1", port), timeout=3)
buf = b""
for i in range(3):
    sock.sendall(b"item(name)\n")
    while b"\n" not in buf:
        chunk = sock.recv(4096)
        assert chunk, f"connection closed before answer {i + 1}"
        buf += chunk
    buf = buf.split(b"\n", 1)[1]
sock.close()
print("write-high-water=0: 3 of 3 sequential exchanges answered")
PYEOF
  kill -TERM "$HW_PID"
  wait "$HW_PID" || true
  test "$RC" -eq 0
fi

echo "serve smoke test passed"
