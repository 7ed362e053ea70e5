#!/usr/bin/env python3
"""Run every workload repeatedly, interleaved, and report each metric's spread.

    python3 perfbench/steadiness.py --runs 10 --seconds 50
    python3 perfbench/steadiness.py --runs 5 --workloads chaos_week

Run i of every workload uses seed (--first-seed + i); the workloads take
turns, so slow drift of the host spreads over all of them. For each metric
the script prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread: (q3 - q1) / median. The bounds
in BENCHMARK.json are set from this output: each end-to-end bound is at
least three times the spread seen here, except setup_s, whose bound only
gates the shift of its median. The share of failed operations must be the
same in every run of a workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_week", "dense_fig9", "chaos_week"]
GATED = ["dense_fig9", "chaos_week"]  # the workloads in BENCHMARK.json


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workloads", nargs="+", default=GATED,
                        choices=WORKLOADS)
    args = parser.parse_args()

    results = {w: [] for w in args.workloads}
    for i in range(args.runs):
        for w in args.workloads:
            r = run_once(w, args.first_seed + i, args.seconds, args.trace)
            results[w].append(r)
            print("run %2d %-11s seed %d correct %s failed %d/%d" % (
                i + 1, w, args.first_seed + i, r["correct"], r["failed"],
                r["attempted"]), flush=True)

    print("\n%-11s %-30s %12s %12s %12s %8s" % (
        "workload", "metric", "median", "q1", "q3", "spread"))
    for w, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print("%-11s %-30s %12.6g %12.6g %12.6g %8.4f" % (
                w, name, med, q1, q3, spread))
        print("%-11s failed share %s, all correct: %s" % (
            w, ", ".join("%.6f" % s for s in shares),
            all(r["correct"] for r in runs)))


if __name__ == "__main__":
    main()
