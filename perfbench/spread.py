#!/usr/bin/env python3
"""Measures run-to-run spread of the benchmark's end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/spread.py --workload web-3m --runs 10 [--first-seed 1]
        [--seconds 20]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...),
printing each run's values on stderr, and then prints, per end-to-end
metric, the median, the first and third quartiles
(statistics.quantiles with n=4) and the spread (Q3 - Q1) / median next to
the metric's bound from BENCHMARK.json. A spread under a third of the
bound is steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        run = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=ROOT)
        result = json.loads(run.stdout.rstrip("\n").split("\n")[-1])
        if run.returncode != 0 or not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run failed ({run.returncode}) {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), file=sys.stderr)

    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        samples = values[name]
        median = statistics.median(samples)
        q1, _, q3 = statistics.quantiles(samples, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        flag = "" if spread < metric["bound"] / 3 else "  <-- above bound/3"
        print(f"{name:<20} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
              f"{spread:>8.4f} {metric['bound']:>6}{flag}")


if __name__ == "__main__":
    main()
