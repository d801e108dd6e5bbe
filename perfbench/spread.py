#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 perfbench/spread.py --runs 10 --first-seed 100 [--workloads design,audit]

Runs `run.py --trace 0` once per seed (seeds first-seed .. first-seed+runs-1)
for each workload, one run at a time, and prints for every end-to-end
metric the median, the quartiles (statistics.quantiles, n=4) and the
interquartile range as a share of the median, next to the metric's bound.
"""
from __future__ import annotations

import argparse
import statistics
import sys

from report import SPEC, run_once


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    args = parser.parse_args(argv)

    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            _, result = run_once(workload, seed, SPEC["run_seconds"], 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} checks failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4f}" for n, m in result["metrics"].items()), flush=True)
        for metric in SPEC["end_to_end"]:
            q1, median, q3 = statistics.quantiles(values[metric["name"]], n=4)
            share = (q3 - q1) / median
            worst = max(worst, share / metric["bound"])
            print(f"{workload:<10} {metric['name']:<12} median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {share:.1%} bound {metric['bound']:.0%}", flush=True)
    print(f"largest spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
