#!/usr/bin/env python3
"""Server memory growth under lines that each name a label the summary lacks.

Starts `treelattice serve --listen --workers=1 --cache-capacity=0` on a small
summary, sends 200,000 pipelined 128-byte lines over one connection, 16 at a
time, and prints the server's VmRSS (from /proc) after a 1,000-line warm-up
and after the last answer. The lines are

  unknown  {"query":"item(q<7 digits>zzz...)"}   a new label on every line
  known    {"query":"item(name)","pad":"zzz..."}  labels the summary holds

  python3 tools/serve_label_rss.py build/tools/treelattice unknown
"""

import os
import re
import socket
import subprocess
import sys
import tempfile
import time

DOC = ("<catalog><items><item><name/><price/></item><item><name/></item>"
       "</items><vendors><vendor><name/></vendor></vendors></catalog>")
REQUESTS, WARMUP, INFLIGHT = 200000, 1000, 16


def line(kind, i):
    head, tail = (('{"query":"item(q%07d' % i, ')"}') if kind == "unknown"
                  else ('{"query":"item(name)","pad":"', '"}'))
    return (head + "z" * (127 - len(head) - len(tail)) + tail + "\n").encode()


def rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        return int(re.search(r"VmRSS:\s+(\d+)", f.read()).group(1)) / 1024.0


def send(sock, reader, kind, first, count):
    sent = answered = 0
    while answered < count:
        while sent < count and sent - answered < INFLIGHT:
            sock.sendall(line(kind, first + sent))
            sent += 1
        if not reader.readline():
            sys.exit("connection closed after %d answers" % answered)
        answered += 1


def main():
    if len(sys.argv) != 3 or sys.argv[2] not in ("unknown", "known"):
        sys.exit(__doc__)
    cli, kind = sys.argv[1:]
    with tempfile.TemporaryDirectory() as work:
        doc, summary, err = (os.path.join(work, n)
                             for n in ("doc.xml", "doc.summary", "serve.err"))
        with open(doc, "w") as f:
            f.write(DOC)
        subprocess.run([cli, "build", doc, "--out=" + summary], check=True,
                       stdout=subprocess.DEVNULL)
        with open(err, "w") as err_file:
            proc = subprocess.Popen(
                [cli, "serve", summary, "--listen=127.0.0.1:0", "--workers=1",
                 "--cache-capacity=0"], stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err_file)
        try:
            for _ in range(200):
                with open(err) as f:
                    port = re.search(r"listening on [\d.]+:(\d+)", f.read())
                if port:
                    break
                time.sleep(0.05)
            sock = socket.create_connection(("127.0.0.1", int(port.group(1))))
            reader = sock.makefile("rb")
            send(sock, reader, kind, 0, WARMUP)
            before = rss_mb(proc.pid)
            send(sock, reader, kind, WARMUP, REQUESTS)
            after = rss_mb(proc.pid)
            sock.close()
        finally:
            proc.terminate()
            proc.wait(timeout=10)
    print("%s: %d requests, VmRSS %.1f -> %.1f MB, growth %.2f MB" %
          (kind, REQUESTS, before, after, after - before))


if __name__ == "__main__":
    main()
