#!/usr/bin/env python3
"""Benchmark for vdbcode: run one workload and print its metrics.

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

Workloads: design, audit, enumerate (see workloads.py).  The package is
imported from `src/` of the checkout this file sits in; without it the
benchmark exits with code 2 and prints no result.

Set-up (a fresh interpreter importing the package, input generation, and
a warm-up pass over the workload's small inputs, which runs every code
path once) is timed SETUP_REPEATS times.  The loop then runs passes until
--seconds have gone (at least MIN_PASSES) and reports the median pass
time.  The oracle checks of each pass run after its timer has stopped.

The CPU speed of a small shared machine can swing by a factor of 1.5 to 2
over seconds to minutes, which moves every raw time with it.  So a fixed
reference loop (interpreter and numpy work, about 0.03 s) is timed before
the first set-up, after every set-up, at the start of every pass and after
each step of a pass, and each set-up or step time is divided by the mean
of the reference times around it (see per_reference).  `pass_ref` is the
median over passes of the summed step ratios, and `setup_s` the median
ratio over set-ups scaled by REFERENCE_NOMINAL_S, so it reads as seconds at
that reference speed.  The raw `pass_s` and `setup_raw_s` are printed next
to them.  `--trace 0` wraps only
`channel_sim.simulate` (for trials per second) and prints the end-to-end
metrics; `--trace 1` wraps every layer and prints the per-layer metrics.
The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 9
REFERENCE_REACH = 2
# The reference loop's median time on the machine the bounds were set on
# (2 vCPUs); setup_s is set-up time in seconds at that speed.
REFERENCE_NOMINAL_S = 0.03
MIN_PASSES = 3
MAX_LOOP_SECONDS = 120.0

END_TO_END = [("setup_s", "s"), ("pass_ref", "ref-loops"), ("peak_rss_mb", "MB")]

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import vdbcode; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time `import vdbcode` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def reference_arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    big = rng.integers(0, 1 << 16, size=1 << 19)
    return rng.integers(0, 1 << 12, size=1 << 12), big, np.empty_like(big)


def reference_seconds(arrays) -> float:
    """Time a fixed mix of work, the speed reference.

    An interpreter loop, numpy on 32 KB arrays that stay in cache, and numpy
    streaming over 4 MB arrays into a preallocated buffer, so that the mix
    slows down with each kind of contention the workloads meet.  Nothing
    large is allocated: with 4 MB temporaries the loop's speed followed the
    allocator's state, and the first pass after set-up read about 20 % low.
    """
    import numpy as np

    small, big, buf = arrays
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    for mask in range(1, 121):
        np.bincount(np.abs(small - (small ^ (mask * 0x111 & 0xFFF))), minlength=1 << 12)
    for mask in range(1, 6):
        np.bitwise_xor(big, mask * 0x1111, out=buf)
        np.subtract(big, buf, out=buf)
        np.abs(buf, out=buf)
        total += int(buf.sum())
    return time.perf_counter() - start


def per_reference(times, refs) -> list[float]:
    """Each time over the mean reference time around it.

    `refs` has one more entry than `times`: refs[i] is timed just before
    times[i] and refs[i + 1] just after it.  A single reference time jitters
    by over 10 % (coefficient of variation), so each time is divided by
    the mean of the REFERENCE_REACH references on either side of it (fewer
    at the ends).
    """
    reach = REFERENCE_REACH
    return [t / statistics.fmean(refs[max(0, i + 1 - reach):i + 1 + reach]) for i, t in enumerate(times)]


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def environment(nproc: int) -> dict:
    import importlib.util

    import numpy

    import vdbcode

    return {
        "backend": getattr(vdbcode, "BACKEND", "numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": nproc,
        "caches": cache_sizes(),
        "VDBCODE_THREADS": os.environ.get("VDBCODE_THREADS"),
    }


def lru_caches():
    from vdbcode import combinatorics

    names = ("z_exact_table", "_y_star_counts")
    return [getattr(combinatorics, n) for n in names if hasattr(getattr(combinatorics, n, None), "cache_clear")]


def one_pass(run, run_pass, check_pass, tracer, pass_id: int) -> tuple[float, float]:
    """One timed pass from cold package caches, as each CLI invocation starts.

    Returns the pass time (the sum of its step times) and the sum over
    steps of each step time divided by the mean of the reference times
    just before and after it.  The oracle checks of the pass run after
    that, untraced.
    """
    caches = lru_caches()
    for cache in caches:
        cache.cache_clear()
    tracer.pass_id = pass_id
    run.steps = []
    before = run.reference() if run.reference else 0.0
    with tracer.span("bench.pass"):
        run.checks.run(f"pass {pass_id}", run_pass, run)
    for cache in caches:
        info = cache.cache_info()
        tracer.count("combinatorics.cache_hits", info.hits)
        tracer.count("combinatorics.cache_misses", info.misses)
    with tracer.paused():
        run.checks.run(f"checks of pass {pass_id}", check_pass, run)
    step_s = [t for t, _ in run.steps]
    ratio = sum(per_reference(step_s, [before] + [r for _, r in run.steps])) if run.reference else 0.0
    return sum(step_s), ratio


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("design", "audit", "enumerate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "vdbcode" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    threads = min(int(os.environ.get("VDBCODE_THREADS") or 4), 4, nproc)
    os.environ["VDBCODE_THREADS"] = str(max(1, threads))
    sys.path.insert(0, str(SRC))

    import layers
    import workloads
    from spans import Tracer

    print("env " + json.dumps(environment(nproc), sort_keys=True))
    setup, run_pass, check_pass = workloads.WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    tracer = Tracer()
    layers.instrument(tracer, full=bool(args.trace))
    arrays = reference_arrays()
    reference_seconds(arrays)  # the first call pays numpy's one-time costs
    try:
        import_s, gen_s, warmup_s, setup_refs = [], [], [], [reference_seconds(arrays)]
        for _ in range(SETUP_REPEATS):
            import_s.append(import_seconds())
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            start = time.perf_counter()
            run = workloads.Run(work, args.seed, args.small, tracer)
            setup(run)
            gen_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            warm = workloads.Run(work / "warmup", args.seed, True, tracer, run.checks)
            warm.work.mkdir()
            setup(warm)
            one_pass(warm, run_pass, check_pass, tracer, 0)
            warmup_s.append(time.perf_counter() - start)
            setup_refs.append(reference_seconds(arrays))
        tracer.reset()

        def reference() -> float:
            with tracer.span("reference"):
                return reference_seconds(arrays)

        run.reference = reference
        times, ratios = [], []
        loop_start = time.perf_counter()
        while True:
            pass_s, ratio = one_pass(run, run_pass, check_pass, tracer, len(times) + 1)
            times.append(pass_s)
            ratios.append(ratio)
            elapsed = time.perf_counter() - loop_start
            done = len(times) >= MIN_PASSES and elapsed + times[-1] / 2 >= args.seconds
            if done or elapsed >= MAX_LOOP_SECONDS:
                break
    finally:
        tracer.unwrap_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    checks = run.checks
    for failure, times_seen in Counter(checks.failures).items():
        print(f"check failed ({times_seen}x): {failure}", file=sys.stderr)
    pass_s = statistics.median(times)
    pass_ref = statistics.median(ratios)
    setup_times = [sum(parts) for parts in zip(import_s, gen_s, warmup_s)]
    sim_s = tracer.inclusive_times().get("channel_sim.simulate", 0.0)
    trials = tracer.counters.get("channel_sim.simulate.trials", 0.0)
    measured = {
        "setup_s": statistics.median(per_reference(setup_times, setup_refs)) * REFERENCE_NOMINAL_S,
        "setup_raw_s": statistics.median(setup_times),
        "pass_ref": pass_ref,
        "pass_s": pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "check_fail_frac": checks.failed / checks.attempted if checks.attempted else 1.0,
        "trials_per_s": trials / sim_s if sim_s else 0.0,
    }
    extras = [("setup_raw_s", "s"), ("pass_s", "s"), ("check_fail_frac", "ratio")]
    if trials:
        extras.append(("trials_per_s", "1/s"))
    if args.workload == "design":
        measured.update(run.outcome)
        extras += [("verdict_mismatch", "count"), ("design_p_mean", "p")]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} pass_times "
          + " ".join(f"{t:.4f}" for t in times) + " pass_refs " + " ".join(f"{r:.3f}" for r in ratios)
          + " setup_ref_times " + " ".join(f"{r:.4f}" for r in setup_refs)
          + " setup_times " + " ".join(f"{i:.3f}+{g:.3f}+{w:.3f}" for i, g, w in zip(import_s, gen_s, warmup_s)))
    if args.trace:
        values = layers.per_layer_metrics(tracer, len(times), sum(times), {
            "setup.import_s": statistics.median(import_s),
            "setup.gen_s": statistics.median(gen_s),
            "setup.warmup_s": statistics.median(warmup_s),
            "trace.pass_s": pass_s,
            "trace.pass_ref": pass_ref,
            "codegen.perbit_p_mean": run.outcome.get("design_p_mean", 0.0),
            "codegen.verdict_mismatch": run.outcome.get("verdict_mismatch", 0),
            "channel_sim.trials_per_s": measured["trials_per_s"],
        })
        result = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}
        for name, unit in layers.PER_LAYER:
            print(f"layer {name} = {values[name]!r} {unit}")
    else:
        result = {name: {"value": measured[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END + extras:
            print(f"metric {name} = {measured[name]!r} {unit}")
    if "single_error_agreed" in run.outcome:
        print(f"outcome single_error_agreed = {run.outcome['single_error_agreed']}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
