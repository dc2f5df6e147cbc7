#!/usr/bin/env python3
"""Run each workload repeatedly and report how steady its metrics are.

Run from the root of a checkout of the repository:

    python3 perfbench/steadiness.py --runs 10 [--workload nt_grid ...]

Run i (1, 2, ..., --runs) uses seed i and BENCHMARK.json's
run_seconds. For every end-to-end metric of BENCHMARK.json it prints the median over the
runs, the spread (distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them) as a share of that
median, and the metric's bound. A spread above a third of the bound
is marked; setup_s is exempt from the spread rule but still shown.
It also prints the share of failed cells, which must be the same in
every run. Exits 1 when a run fails or reports correct = false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()

    ok = True
    for workload in args.workload or names:
        results = []
        for seed in range(1, args.runs + 1):
            r = run_once(workload, seed, bench["run_seconds"], 0)
            if r is None or not r["correct"]:
                print(f"{workload}: run with seed {seed} failed: {r}")
                ok = False
                continue
            results.append(r)
        if len(results) < 2:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: {len(results)} runs, failed share "
              f"{sorted(shares)}")
        print(f"  {'metric':<18} {'median':>14} {'IQR/median':>11} "
              f"{'bound':>6}")
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                mark = "  <-- above bound/3"
            print(f"  {m['name']:<18} {med:>14.6g} {spread:>11.4f} "
                  f"{m['bound']:>6}{mark}")
            if args.verbose:
                print("      " + " ".join(f"{v:.4g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
