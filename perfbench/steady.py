#!/usr/bin/env python3
"""Steadiness (A-vs-A) check of the TreeLattice benchmark on one build.

Runs every workload --runs times, interleaved, each run with its own seed,
and prints each end-to-end metric's median, quartiles and spread (the
interquartile range as a share of the median) next to its bound in
BENCHMARK.json. With --sets 2 it runs two interleaved sets and also prints
how far the second set's median moved from the first's: the noise floor a
change must beat.

  python3 perfbench/steady.py --runs 10
  python3 perfbench/steady.py --runs 5 --workloads serve_hot --sets 2

A summary is written to .bench_build/perfbench/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402  (perfbench/run.py)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    values = {(s, w): {} for s in range(args.sets) for w in workloads}
    failures = []
    seed = args.seed_base
    for i in range(args.runs):
        for w in workloads:
            order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
            for s in order:
                seed += 1
                result = one_run(w, seed, spec["run_seconds"])
                if result is None or not result["correct"]:
                    failures.append((w, seed))
                    print(f"run {i} {w} seed {seed}: FAILED", flush=True)
                    continue
                for name, m in result["metrics"].items():
                    values[(s, w)].setdefault(name, []).append(m["value"])
                print(f"run {i} {w} seed {seed}: " + " ".join(
                    f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                    flush=True)

    summary = {"runs": args.runs, "sets": args.sets, "failures": failures, "metrics": []}
    print(f"\n{'workload':<11} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for name, bound in bounds.items():
            vals = values[(0, w)].get(name, [])
            if len(vals) < 2:
                continue
            q1, med, q3, sp = spread(vals)
            verdict = ("steady" if sp <= bound / 3 else
                       "within bound" if sp <= bound else "NOISY")
            if name == "setup_s":
                verdict += " (spread not gated)"
            row = {"workload": w, "metric": name, "median": med, "q1": q1, "q3": q3,
                   "spread": sp, "bound": bound, "values": vals}
            line = (f"{w:<11} {name:<16} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                    f"{sp:>7.3f} {bound:>6.2f}  {verdict}")
            if args.sets == 2 and len(values[(1, w)].get(name, [])) >= 2:
                med2 = statistics.median(values[(1, w)][name])
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                worse = (med2 - med) / med if better == "lower" else (med - med2) / med
                row["second_median"] = med2
                line += f"; set 2 median {med2:.5g} ({worse:+.3f} worse"
                line += ", OUT OF BOUND)" if worse > bound else ")"
            summary["metrics"].append(row)
            print(line)
    out = os.path.join(bench.build_dir(), "steadiness.json")
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"\n{len(failures)} failed runs; summary in {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
