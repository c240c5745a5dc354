#!/usr/bin/env python3
"""Checks that the benchmark is steady: two interleaved sets of runs agree.

    python3 perfbench/steady.py [--workloads a,b] [--trace 0]

For each workload it makes five pairs of runs (set A and set B, each run
with its own seed counting up from 1000, alternating which set goes first)
through run.py, each run as long as BENCHMARK.json's run_seconds. For
every metric it prints each set's median, the spread (quartile distance
over median, with quartiles from statistics.quantiles, n=4) of each set
and of all ten runs pooled, and whether:

  * every one of these spreads is within the metric's bound, and
  * set B's median is not worse than set A's by more than the bound.

It also checks that the share of failed operations is the same in the two
sets. Bounds, directions and the run length come from BENCHMARK.json at the
repository root. Exits 1 when anything disagrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_PER_SET = 5
FIRST_SEED = 1000


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    began = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    elapsed = time.monotonic() - began
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steady.py: {workload} seed {seed} exited "
                 f"{done.returncode} without a result")
    return json.loads(lines[-1]), elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def worse_by(better, base, other):
    """Share by which `other` is worse than `base`."""
    if base == 0:
        return 0.0 if other == base else float("inf")
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def main():
    sys.stdout.reconfigure(line_buffering=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    ok = True
    seconds = spec["run_seconds"]
    seed = FIRST_SEED
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        wall = []
        for pair in range(RUNS_PER_SET):
            for name in ("AB" if pair % 2 == 0 else "BA"):
                result, elapsed = run_once(workload, seed, seconds, args.trace)
                seed += 1
                wall.append(elapsed)
                sets[name].append(result)
        print(f"\n== {workload}: {RUNS_PER_SET} runs per set, "
              f"{min(wall):.1f}-{max(wall):.1f} s per run")
        shares = {}
        for name, results in sets.items():
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            if not all(r["correct"] for r in results):
                print(f"  set {name}: a run reported correct=false")
                ok = False
            shares[name] = [r["failed"] / r["attempted"] for r in results]
            print(f"  set {name}: {failed} of {attempted} operations failed")
        if len(set(shares["A"] + shares["B"])) > 1:
            print("  failed shares differ between runs")
            ok = False
        print(f"  {'metric':30s} {'median A':>11s} {'median B':>11s} "
              f"{'spread A':>8s} {'spread B':>8s} {'pooled':>8s} "
              f"{'B-A':>7s} {'bound':>6s}  verdict")
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            _, _, spread_a = spread(a)
            _, _, spread_b = spread(b)
            _, _, pooled = spread(a + b)
            med_a, med_b = statistics.median(a), statistics.median(b)
            bound = metric.get("bound")
            line = (f"  {name:30s} {med_a:11.5g} {med_b:11.5g} "
                    f"{spread_a:8.3f} {spread_b:8.3f} {pooled:8.3f}")
            if bound is None:
                print(line)
                continue
            shift = worse_by(metric["better"], med_a, med_b)
            verdict = []
            if max(spread_a, spread_b, pooled) > bound:
                verdict.append("SPREAD")
            if shift > bound:
                verdict.append("SHIFT")
            if not verdict and max(spread_a, spread_b, pooled) > bound / 3:
                verdict.append("ok (spread above a third of bound)")
            ok = ok and not any(v in ("SPREAD", "SHIFT") for v in verdict)
            print(f"{line} {shift:7.3f} {bound:6.2f}  "
                  f"{' '.join(verdict) or 'ok'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
