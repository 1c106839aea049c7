#!/usr/bin/env python3
"""Smoke test of the TreeLattice benchmark: a tiny-scale pass of each workload.

For every workload, a plain and a traced run must pass their output checks
and print every metric BENCHMARK.json names, with its unit. Then each output
check is made to fire: the run is given a deliberately corrupted reference
or expectation and must exit non-zero, naming the check that failed.

Run from the repository root (takes about a minute):

  python3 perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SMOKE = ["--smoke", "--seconds", "1"]
CHECK_TEXT = {
    "reference": "check failed: reference",
    "conservation": "check failed: conservation",
    "hit_ratio": "check failed: cache hit ratio",
}


def run(workload, seed, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed)] + SMOKE + list(extra)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = run(workload, 7, "--trace", str(trace))
            where = f"{workload} --trace {trace}"
            if out.returncode != 0:
                problems.append(f"{where}: exit {out.returncode}\n{out.stderr[-1500:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ: missing "
                                f"{sorted(set(want) - set(got))}, extra "
                                f"{sorted(set(got) - set(want))}, units "
                                f"{sorted(n for n in want if n in got and got[n] != want[n])}")
            for name in want:
                if f"{name} " not in out.stdout:
                    problems.append(f"{where}: report line for {name} missing")
            print(f"ok   {where}", flush=True)

        checks = ["reference", "conservation"]
        if workload != "optimizer":
            checks.append("hit_ratio")
        for check in checks:
            out = run(workload, 7, "--corrupt", check)
            where = f"{workload} --corrupt {check}"
            if out.returncode == 0 or CHECK_TEXT[check] not in out.stderr:
                problems.append(f"{where}: exit {out.returncode}, the check did not "
                                f"fire\n{out.stderr[-1500:]}")
            else:
                print(f"ok   {where} fails as it should", flush=True)

    for p in problems:
        print("FAIL " + p)
    print("smoke test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
