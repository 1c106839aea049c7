#!/usr/bin/env python3
"""Telemetry-overhead gate: perfbench's workloads with TREELATTICE_OBS off and on.

Runs every workload in BENCHMARK.json as 10 pairs. A pair is two runs of one
seed, one with telemetry off and one with it on; pairs alternate which side
runs first, and every run lasts the benchmark's run_seconds. Pairs share the
host's state, so their on/off ratio drops most of the host's drift.

For each workload it prints the off and on medians and quartiles of
cpu_us_per_query, how many pairs read higher with telemetry on, each serve
run's client.throughput_qps (from the run record perfbench writes), and one
verdict on the median of the per-pair on/off ratios:

  within      the median ratio is at most 1.05 (the 5% budget);
  over        the median ratio is above 1.05 and on reads higher in at
              least 9 of 10 pairs;
  unresolved  anything else;
  failed      a run failed or failed its output checks.

The exit code is 0 only when every workload is within. A full run takes about
30 minutes, so the gate stays out of CI, like every wall-clock check.

  python3 tools/check_metrics_overhead.py
  python3 tools/check_metrics_overhead.py --workloads serve_cold
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as bench  # noqa: E402  (perfbench/run.py)
from steady import one_run, spread  # noqa: E402  (perfbench/steady.py)

PAIRS = 10
SEED_BASE = 3000
BUDGET_RATIO = 1.05
METRIC = "cpu_us_per_query"
THROUGHPUT = "client.throughput_qps"


def verdict(pairs):
    """Judges one workload's pairs, each (off, on) cpu_us_per_query, with
    None for a side whose run failed. Returns (verdict, median on/off
    ratio or None, pairs where on read higher, complete pairs)."""
    complete = [(off, on) for off, on in pairs if off is not None and on is not None]
    higher = sum(on > off for off, on in complete)
    ratio = statistics.median(on / off for off, on in complete) if complete else None
    if len(complete) < len(pairs) or not complete:
        label = "failed"
    elif ratio <= BUDGET_RATIO:
        label = "within"
    elif 10 * higher >= 9 * len(complete):  # on higher in >= 9 of 10 pairs
        label = "over"
    else:
        label = "unresolved"
    return label, ratio, higher, len(complete)


def record_throughput(workload, seed):
    """client.throughput_qps from the run record of the run just finished;
    both sides of a pair write the same path, so read it straight away."""
    path = os.path.join(bench.build_dir(), "runs", f"{workload}-seed{seed}-trace0.record.json")
    try:
        with open(path) as f:
            return json.load(f)["per_layer"][THROUGHPUT]["value"]
    except (OSError, KeyError, ValueError):
        return None


def measure(workload, seed, seconds, obs):
    """One run with TREELATTICE_OBS=obs: (cpu_us_per_query or None, qps)."""
    os.environ["TREELATTICE_OBS"] = obs
    result = one_run(workload, seed, seconds)
    if result is None or not result["correct"]:
        return None, None
    qps = record_throughput(workload, seed) if workload.startswith("serve") else None
    return result["metrics"][METRIC]["value"], qps


def quartiles(values):
    if len(values) < 2:
        return "n/a"
    q1, med, q3, _ = spread(values)
    return f"{med:.2f} [{q1:.2f}-{q3:.2f}]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset of BENCHMARK.json's workloads")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else known
    if unknown := set(workloads) - set(known):
        parser.error(f"unknown workloads: {', '.join(sorted(unknown))}")
    bench.build()

    pairs = {w: [] for w in workloads}
    qps = {w: {"off": [], "on": []} for w in workloads}
    for i in range(PAIRS):
        seed = SEED_BASE + i
        for w in workloads:
            sides = ("off", "on") if i % 2 == 0 else ("on", "off")
            cpu = {}
            for obs in sides:
                cpu[obs], rate = measure(w, seed, spec["run_seconds"], obs)
                if rate is not None:
                    qps[w][obs].append(rate)
            pairs[w].append((cpu["off"], cpu["on"]))
            shown = {k: "FAILED" if v is None else f"{v:.2f}" for k, v in cpu.items()}
            line = f"pair {i} {w} seed {seed} ({sides[0]} first): off {shown['off']} on {shown['on']} us"
            if None not in cpu.values():
                line += f", on/off {cpu['on'] / cpu['off']:.3f}"
            print(line, flush=True)

    print(f"\n{METRIC}, median [q1-q3] of {PAIRS} pairs; budget on/off <= {BUDGET_RATIO}")
    print(f"{'workload':<11} {'off (us)':>22} {'on (us)':>22} {'on higher':>10} "
          f"{'on/off':>7}  verdict")
    passed = True
    for w in workloads:
        label, ratio, higher, n = verdict(pairs[w])
        passed = passed and label == "within"
        off = [p[0] for p in pairs[w] if p[0] is not None]
        on = [p[1] for p in pairs[w] if p[1] is not None]
        shown = "n/a" if ratio is None else f"{ratio:.3f}"
        print(f"{w:<11} {quartiles(off):>22} {quartiles(on):>22} {f'{higher}/{n}':>10} "
              f"{shown:>7}  {label}")
    for w in workloads:
        for obs in ("off", "on"):
            if qps[w][obs]:
                print(f"{w} {THROUGHPUT} {obs}: " + " ".join(f"{v:.0f}" for v in qps[w][obs]))
    print("PASS: telemetry within budget" if passed else "FAIL: telemetry overhead gate")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
