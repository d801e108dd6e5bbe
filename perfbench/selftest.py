#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny inputs (about a minute).

    python3 perfbench/selftest.py

Checks that
- BENCHMARK.json lists exactly the metrics run.py prints, with their units;
- every workload, untraced and traced, prints each of its metrics by name
  with its unit and ends with a well-formed, correct JSON result;
- a corrupted oracle input (a placement set with a mask removed), and a
  program that drops a mask from one placement set, are each counted in
  check_fail_frac without aborting the run;
- without the package source next to it the benchmark exits non-zero and
  prints no result.
Exits 0 when every check holds.
"""
from __future__ import annotations

import io
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

EXTRAS = {  # metrics printed besides the end-to-end ones, with units
    "design": {"setup_raw_s": "s", "pass_s": "s", "check_fail_frac": "ratio", "trials_per_s": "1/s",
               "verdict_mismatch": "count", "design_p_mean": "p"},
    "audit": {"setup_raw_s": "s", "pass_s": "s", "check_fail_frac": "ratio", "trials_per_s": "1/s"},
    "enumerate": {"setup_raw_s": "s", "pass_s": "s", "check_fail_frac": "ratio"},
}

problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def units_of(printed: dict) -> dict[str, str]:
    return {name: unit for name, (_, unit) in printed.items() if not name.startswith(("env ", "outcome "))}


def check_descriptor() -> None:
    spec = report.SPEC
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end differs from run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER,
           "BENCHMARK.json per_layer differs from layers.PER_LAYER")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_workload(workload: str, trace: int) -> None:
    label = f"{workload} trace={trace}"
    try:
        printed, result = report.run_once(workload, 7, 0.5, trace, small=True)
    except RuntimeError as exc:
        expect(False, f"{label}: {exc}")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {set(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{label}: checks failed")
    wanted = dict(layers.PER_LAYER) if trace else dict(run.END_TO_END)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, f"{label}: JSON metrics {sorted(set(got) ^ set(wanted))} differ")
    if not trace:
        wanted.update(EXTRAS[workload])
    expect(units_of(printed) == wanted, f"{label}: printed metrics differ")


def run_in_process(argv: list[str]) -> tuple[int, dict, dict]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = run.main(argv)
    printed, result = report.parse_output(out.getvalue())
    return code, result, units_of(printed)


def check_corruption() -> None:
    from vdbcode import setgen

    argv = ["--workload", "enumerate", "--seed", "7", "--seconds", "0.2", "--small"]

    def drop_one(sets: dict) -> dict:
        m = min(sets)
        sets[m] = sets[m][1:]
        return sets

    # 1. The oracle input read back from the CLI output loses a mask.
    original_read = workloads.read_sets
    workloads.read_sets = lambda path: drop_one(original_read(path))
    try:
        code, result, _ = run_in_process(argv)
    finally:
        workloads.read_sets = original_read
    expect(code == 0 and result["failed"] > 0 and not result["correct"]
           and result["attempted"] > result["failed"],
           f"corrupted oracle input not counted: exit {code}, {result}")

    # 2. The program's fast construction loses a mask from one set.
    original_fast = setgen.sets_fast

    def faulty_sets_fast(L, k):
        good = original_fast(L, k)
        m = min(m for m, s in good.sets.items() if s)
        return setgen.PlacementSets(L, k, {**good.sets, m: frozenset(sorted(good.sets[m])[1:])})

    setgen.sets_fast = faulty_sets_fast
    try:
        code, result, printed = run_in_process(argv)
    finally:
        setgen.sets_fast = original_fast
    expect(code == 0 and result["failed"] > 0 and "check_fail_frac" in printed,
           f"faulty sets_fast not counted: exit {code}, {result}")


def check_missing_source() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "design", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           f"without src/: exit {done.returncode}, stdout {done.stdout[-200:]!r}")


def main() -> int:
    check_descriptor()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_corruption()
    check_missing_source()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
