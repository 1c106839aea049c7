#!/usr/bin/env python3
"""The verdict rule of tools/check_metrics_overhead.py, on fixed pairs.

Feeds the gate's verdict function made-up (off, on) cpu_us_per_query pairs
and runs no benchmark:

  * a median on/off ratio of 1.03 is within the 5% budget;
  * 1.19, higher in 10 of 10 pairs, is over it;
  * 1.08, higher in only 6 of 10 pairs, is unresolved;
  * a failed run fails the gate, whatever the other pairs read.

Exit status: 0 pass, 1 fail.
"""

import importlib.util
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(os.path.dirname(HERE), "tools", "check_metrics_overhead.py")
sys.dont_write_bytecode = True  # the test leaves no __pycache__ in the checkout

spec = importlib.util.spec_from_file_location("check_metrics_overhead", TOOL)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def pairs(ratios, off=40.0):
    return [(off, off * r) for r in ratios]


def main():
    cases = [
        ("within", pairs([1.03] * 10), "within", 1.03, 10),
        ("over", pairs([1.15, 1.17, 1.19, 1.19, 1.19, 1.19, 1.21, 1.23, 1.25, 1.3]),
         "over", 1.19, 10),
        ("unresolved", pairs([0.9, 0.95, 0.97, 0.99, 1.08, 1.08, 1.1, 1.12, 1.2, 1.3]),
         "unresolved", 1.08, 6),
        ("failed run", pairs([1.02] * 9) + [(40.0, None)], "failed", 1.02, 9),
    ]
    failures = 0
    for name, given, want, want_ratio, want_higher in cases:
        label, ratio, higher, _ = gate.verdict(given)
        ok = label == want and abs(ratio - want_ratio) < 1e-9 and higher == want_higher
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {label}, on/off {ratio:.3f}, "
              f"on higher in {higher}")
        failures += not ok
    # Only "within" passes the gate.
    if gate.verdict(pairs([1.02] * 9) + [(None, 40.0)])[0] == "within":
        print("FAIL failed run: a pair with a failed side passes the gate")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
