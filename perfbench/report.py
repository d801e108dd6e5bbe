#!/usr/bin/env python3
"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/report.py --seed 1 [--seconds N]

--seconds defaults to BENCHMARK.json's run_seconds.  For each workload
this runs `run.py --trace 0` (end-to-end metrics) and then `run.py
--trace 1` (per-layer metrics) as separate processes, one after the other.  It prints the end-to-end metrics with their units, the
per-layer table, each layer's share of the traced pass, and the tracing
overhead (traced minus untraced pass time, raw and reference-normalised).
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
FLOAT_KERNELS = ("mask_probabilities", "distortion_pmf_flip", "distortion_pmf_forced", "trial_distortions")
INT_KERNELS = ("distance_counts", "reach_matrix")


def parse_output(stdout: str):
    """The printed lines of one run.py run, and its JSON result (the last line).

    Returns ({name: (value, unit)} for `metric`/`layer` lines and
    {"env <key>"/"outcome <key>": (text, "")} for the others, result).
    """
    lines = stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind in ("metric", "layer"):
            name, _, value_unit = rest.partition(" = ")
            value, _, unit = value_unit.rpartition(" ")
            printed[name] = (float(value), unit)
        elif kind in ("env", "outcome"):
            printed[kind + " " + rest.split(" ")[0]] = (rest, "")
    return printed, json.loads(lines[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int, small: bool = False):
    """Run run.py as its own process; its standard error passes through."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + (["--small"] if small else [])
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited with {done.returncode}")
    return parse_output(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    names = WORKLOADS

    untraced, traced = {}, {}
    for workload in names:
        untraced[workload] = run_once(workload, args.seed, args.seconds, 0)
        traced[workload] = run_once(workload, args.seed, args.seconds, 1)

    first = untraced[names[0]][0]
    print(f"seed {args.seed}, {args.seconds:g} s per run")
    print(next(v for k, (v, _) in first.items() if k.startswith("env")))
    print("\n## End-to-end (tracing off)\n")
    print(f"{'workload':<10} {'metric':<18} {'value':>16}  unit")
    for workload in names:
        printed, result = untraced[workload]
        for name, (value, unit) in printed.items():
            if name.startswith("outcome"):
                print(f"{workload:<10} {value}")
            elif not name.startswith("env"):
                print(f"{workload:<10} {name:<18} {value:>16.6g}  {unit}")
        print(f"{workload:<10} {'checks':<18} {result['attempted'] - result['failed']:>10}/{result['attempted']:<5}"
              f"  passed (correct={result['correct']})")

    print("\n## Per layer (separate traced run; .s = self seconds per pass)\n")
    layer_rows = [k for k in traced[names[0]][0] if not k.startswith(("env", "outcome"))]
    print(f"{'metric':<38} " + " ".join(f"{w:>14}" for w in names) + "  unit")
    for name in layer_rows:
        unit = traced[names[0]][0][name][1]
        cells = " ".join(f"{traced[w][0][name][0]:>14.6g}" for w in names)
        print(f"{name:<38} {cells}  {unit}")

    print("\n## Share of the traced pass, by the groups each workload is meant to stress\n")
    groups = {  # (layer shares, self-seconds metrics)
        "codegen.solve_perbit": ([], ["codegen.solve_perbit.s"]),
        "channel_sim + float kernels": (["channel_sim.share"], [f"kernels.{k}.s" for k in FLOAT_KERNELS]),
        "setgen + combinatorics + int kernels": (
            ["setgen.share", "combinatorics.share"], [f"kernels.{k}.s" for k in INT_KERNELS]),
    }
    print(f"{'group':<38} " + " ".join(f"{w:>14}" for w in names))
    for group, (shares, seconds) in groups.items():
        cells = []
        for workload in names:
            layer = traced[workload][0]
            share = sum(layer[m][0] for m in shares)
            share += sum(layer[m][0] for m in seconds) / layer["trace.pass_s"][0]
            cells.append(f"{share:>14.1%}")
        print(f"{group:<38} " + " ".join(cells))

    print("\n## Tracing overhead (traced minus untraced; pass_ref divides out CPU speed swings)\n")
    for workload in names:
        off, on = untraced[workload][0], traced[workload][0]
        raw = on["trace.pass_s"][0] - off["pass_s"][0]
        ref = on["trace.pass_ref"][0] - off["pass_ref"][0]
        print(f"{workload:<10} pass_s {raw:+.4f} s ({raw / off['pass_s'][0]:+.1%})   "
              f"pass_ref {ref:+.3f} ({ref / off['pass_ref'][0]:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
