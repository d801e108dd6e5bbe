"""The benchmark's workloads: input generation, one pass, and oracle checks.

Each workload is a closed loop with one client: the next pass starts when
the previous one ends, and every pass repeats the same work on the same
inputs.  All inputs come from the workload seed; the package sees only the
generated files and objects.

design     `cli.main` encode (iid and per-bit), verify, simulate and one
           replay over reciprocal budgets (5,3), (6,6), (7,7), (8,3),
           seeded random monotone budgets at L = 5 and 6, and iid-only
           budgets up to L = 12.  `codegen.solve_perbit` dominates, so a
           solver change shows here.  The reciprocal (8,3) case keeps the
           known k < L escape visible: `solve_perbit` returns all 1.0, which
           `verify` passes and `simulate` fails.
audit      Ready-made seeded tables, upset models and a synthetic sensor
           trace: `ingest_trace`, `simulate` in three modes (uniform,
           empirical PMF, cap_weight=3), exact flip and forced laws and the
           single-error form.  `channel_sim` and the float kernels do almost
           all the work and no solver runs, so a solver change should not
           move it.
enumerate  `sets --method both` at L = 12 and 16, bounds and divisibility at
           L = 16, a `y_star` sweep and `placement_mass` at L = 12.  The
           integer kernels and the signed-digit recursion dominate; the
           L = 16 reach-matrix chunks are far larger than L2, the L = 12
           ones fit in it.

Each workload has a set-up, a pass (the program's work only, timed) and
the oracle checks of that pass, which read the outputs the pass left in
`run.outputs` and run after the timer stops.  The checks behind
`check_fail_frac` are oracle agreements only.  Solver and simulator
verdicts (including the k < L escape) are measurements.
"""
from __future__ import annotations

import io
import math
import time
from collections.abc import Callable
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

from vdbcode import channel_sim, cli, codegen, combinatorics
from vdbcode.core import SYMMETRIC, WordSpec, distortion_range

# Simulated laws are compared with exact ones at these family-wise false
# alarm odds per table; the band is never narrower than criterion 6's 4 sigma.
FAMILY_ALPHA = 1e-6
MIN_SIGMA = 4.0
# Tail points with fewer expected trials on either side than this are left
# to the support check, where the normal approximation does not hold.
MIN_EXPECTED = 20

# Worked L=3, k=2 example; its iid solve must give p = 0.2180 +/- 0.001.
EXAMPLE_BOUNDS = {1: 22 / 30, 2: 14 / 30, 3: 6 / 30, 4: 4 / 30, 5: 2 / 30, 6: 2 / 30}
EXAMPLE_P = 0.2180
EXAMPLE_TOL = 0.001

PARAMS = {
    "design": {
        False: {
            "reciprocal": [(5, 3), (6, 6), (7, 7), (8, 3)],
            "random": [5, 6],
            "iid_only": [(10, 3), (12, 3)],
            "trials": 200_000,
            "replay": "recip-6-6",
        },
        True: {
            "reciprocal": [(4, 2), (4, 4)],
            "random": [3],
            "iid_only": [(6, 3)],
            "trials": 20_000,
            "replay": "recip-4-4",
        },
    },
    "audit": {
        False: {"rows": 100_000, "bits": 12, "bits_single": 10, "bits_flip": 14,
                "trials": (1_000_000, 1_000_000, 500_000), "cap": 3},
        True: {"rows": 5_000, "bits": 8, "bits_single": 6, "bits_flip": 9,
               "trials": (50_000, 50_000, 20_000), "cap": 3},
    },
    "enumerate": {
        False: {"L": (12, 16), "k": 3, "sample": 2048},
        True: {"L": (6, 8), "k": 3, "sample": 64},
    },
}


class Checks:
    """Oracle agreements attempted and failed; a failure never aborts a pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def run(self, name: str, step, *args):
        """Run one step; an exception it raises counts as one failed check."""
        try:
            return step(*args)
        except Exception as exc:  # the pass must go on and report it
            self.record(f"{name}: {type(exc).__name__}: {exc}", False)
            return None


@dataclass
class Run:
    work: Path
    seed: int
    small: bool
    tracer: object
    checks: Checks = field(default_factory=Checks)
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    outcome: dict = field(default_factory=dict)
    # Times the speed reference loop; None leaves the steps unreferenced.
    reference: Callable[[], float] | None = None
    # (seconds, reference seconds just after) of each step of the current pass
    steps: list[tuple[float, float]] = field(default_factory=list)

    @property
    def params(self) -> dict:
        return self.inputs["params"]

    def step(self, name: str, fn, *args, **kwargs):
        """Run and time one step of a pass, then time the reference loop.

        All of a pass's work runs in steps, so the pass time is the sum of
        its step times.  An exception counts as one failed check.
        """
        start = time.perf_counter()
        result = self.checks.run(name, lambda: fn(*args, **kwargs))
        elapsed = time.perf_counter() - start
        self.steps.append((elapsed, self.reference() if self.reference else 0.0))
        return result


def run_cli(run: Run, *argv) -> int:
    """Call `cli.main` in process; its printed text and files count as output."""
    argv = [str(a) for a in argv]
    text = io.StringIO()
    with redirect_stdout(text), redirect_stderr(text):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    written = len(text.getvalue().encode())
    if "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        for path in (out, Path(f"{out}.manifest.json")):
            if path.exists():
                written += path.stat().st_size
    run.tracer.count("cli.bytes_out", written)
    return code


def law_agrees(sim_mass: dict, exact_mass: dict, trials: int, L: int) -> bool:
    """Simulated distortion law against an exact one.

    Every simulated distortion must be possible, and the tails Pr(M > m) at
    m = 0 and every power of two must sit inside a z-sigma binomial band,
    z from a Sidak correction over the points checked (at least 4).
    """
    n = 1 << L
    sim = np.zeros(n)
    exact = np.zeros(n)
    for m, p in sim_mass.items():
        sim[m] = p
    for m, p in exact_mass.items():
        exact[m] = p
    if np.any((sim > 0) & (exact == 0)):
        return False
    sim_tail = sim[::-1].cumsum()[::-1]
    exact_tail = exact[::-1].cumsum()[::-1]
    points = [m for m in [0] + [1 << i for i in range(L)] if m + 1 < n]
    usable = []
    for m in points:
        f = exact_tail[m + 1]
        if min(f, 1.0 - f) * trials >= MIN_EXPECTED:
            usable.append((sim_tail[m + 1], f))
    if not usable:
        return True
    z = max(MIN_SIGMA, NormalDist().inv_cdf(1.0 - FAMILY_ALPHA / (2 * len(usable))))
    return all(abs(s - f) <= z * math.sqrt(f * (1.0 - f) / trials) for s, f in usable)


def read_distribution(path: Path) -> dict[int, float]:
    masses = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#") and line != "m,mass,tail":
            m, mass, _ = line.split(",")
            if float(mass):
                masses[int(m)] = float(mass)
    return masses


def read_sets(path: Path) -> dict[int, list[int]]:
    """The `m,<mask>` rows of a vdb-sets-v1 file, grouped by m."""
    sets: dict[int, list[int]] = {}
    for line in path.read_text().splitlines()[3:]:
        m, mask = line.split(",")
        sets.setdefault(int(m), []).append(int(mask, 2))
    return sets


def _m_max(L: int, k: int) -> int:
    return distortion_range(WordSpec(L, SYMMETRIC), k)[1]


# ---------------------------------------------------------------------------
# design


@dataclass
class Case:
    name: str
    L: int
    k: int
    perbit: bool
    sim_seeds: dict


def _random_budget(rng, L: int, k: int) -> codegen.TailConstraint:
    """A monotone budget c / (m+1)**a with per-m jitter, seeded."""
    m = np.arange(1, _m_max(L, k) + 1)
    a, c = rng.uniform(0.8, 1.2), rng.uniform(0.7, 1.0)
    f = c / (m + 1.0) ** a * rng.uniform(0.9, 1.1, m.size)
    f = np.minimum.accumulate(np.clip(f, 0.0, 1.0))
    return codegen.TailConstraint.from_table(L, k, {int(i): float(v) for i, v in zip(m, f)})


def setup_design(run: Run) -> None:
    params = PARAMS["design"][run.small]
    rng = np.random.default_rng([run.seed, 1])
    budgets = [("example", codegen.TailConstraint.from_table(3, 2, EXAMPLE_BOUNDS), True)]
    budgets += [(f"recip-{L}-{k}", codegen.TailConstraint.reciprocal(L, k), True)
                for L, k in params["reciprocal"]]
    budgets += [(f"random-{L}-{L}", _random_budget(rng, L, L), True) for L in params["random"]]
    budgets += [(f"recip-{L}-{k}", codegen.TailConstraint.reciprocal(L, k), False)
                for L, k in params["iid_only"]]
    cases = []
    for name, constraint, perbit in budgets:
        (run.work / f"{name}.constraint.txt").write_text(codegen.serialize_constraint(constraint))
        seeds = {mode: int(rng.integers(0, 2**31)) for mode in (codegen.MODE_IID, codegen.MODE_PERBIT)}
        cases.append(Case(name, constraint.L, constraint.k, perbit, seeds))
    run.inputs.update(params=params, cases=cases)


def _design_table(run: Run, case: Case, mode: str) -> dict[str, int]:
    """Encode, verify and simulate one table; returns each command's exit code."""
    constraint = run.work / f"{case.name}.constraint.txt"
    out = run.work / f"{case.name}.{mode}.table.txt"
    codes = {"encode": run_cli(run, "encode", "--constraint", constraint, "--mode", mode, "--out", out)}
    if codes["encode"] == 0:
        codes["verify"] = run_cli(run, "verify", "--constraint", constraint, "--table", out)
        codes["simulate"] = run_cli(run, "simulate", "--table", out, "--constraint", constraint,
                                    "--trials", run.params["trials"], "--seed", case.sim_seeds[mode],
                                    "--out", run.work / f"{case.name}.{mode}.sim.csv")
    return codes


def _replay(run: Run, name: str) -> tuple[int, bytes]:
    out = run.work / f"{name}.{codegen.MODE_PERBIT}.table.txt"
    before = out.read_bytes()
    return run_cli(run, "replay", "--manifest", f"{out}.manifest.json"), before


def design_pass(run: Run) -> None:
    tables = []
    for case in run.inputs["cases"]:
        modes = (codegen.MODE_IID, codegen.MODE_PERBIT) if case.perbit else (codegen.MODE_IID,)
        for mode in modes:
            codes = run.step(f"{case.name} {mode}", _design_table, run, case, mode)
            if codes is not None:
                tables.append((case, mode, codes))
    run.outputs = {"tables": tables, "replay": run.step("replay", _replay, run, run.params["replay"])}


def _check_design_table(run: Run, case: Case, mode: str, codes: dict[str, int]):
    """Oracle checks of one encoded table; returns the table, or None if encode failed."""
    checks = run.checks
    if not checks.record(f"{case.name} encode {mode} exit {codes['encode']}", codes["encode"] == 0):
        return None
    checks.record(f"{case.name} {mode} table fails verify", codes["verify"] == 0)
    table = codegen.load_table(run.work / f"{case.name}.{mode}.table.txt")
    if case.name == "example" and mode == codegen.MODE_IID:
        checks.record(f"example iid p={table.p}", abs(table.p - EXAMPLE_P) <= EXAMPLE_TOL)
    code = codes["simulate"]
    if checks.record(f"{case.name} simulate {mode} exit {code}", code in (0, 1)):
        dist = read_distribution(run.work / f"{case.name}.{mode}.sim.csv")
        checks.record(f"{case.name} {mode} simulated law vs exact",
                      law_agrees(dist, channel_sim.exact_distortion(table).mass, run.params["trials"], table.L))
    return table


def design_check(run: Run) -> None:
    checks = run.checks
    p_values, mismatch = [], 0
    for case, mode, codes in run.outputs["tables"]:
        table = checks.run(f"{case.name} {mode} checks", _check_design_table, run, case, mode, codes)
        mismatch += codes.get("verify") == 0 and codes.get("simulate") == 1
        if table is not None and mode == codegen.MODE_PERBIT and case.k == case.L:
            p_values.extend(table.p_vec)
    if run.outputs["replay"] is not None:
        code, before = run.outputs["replay"]
        out = run.work / f"{run.params['replay']}.{codegen.MODE_PERBIT}.table.txt"
        checks.record(f"replay of {out.name} exit {code} or bytes differ",
                      code == 0 and out.read_bytes() == before)
    run.outcome["design_p_mean"] = float(np.mean(p_values)) if p_values else 0.0
    run.outcome["verdict_mismatch"] = mismatch


# ---------------------------------------------------------------------------
# audit


def _sensor_trace(rng, rows: int) -> np.ndarray:
    """Two tones, a random-walk drift, white noise and rare spikes, in [-1, 1)."""
    t = np.arange(rows)
    x = 0.45 * np.sin(2 * np.pi * t / rng.uniform(2000, 4000))
    x += 0.2 * np.sin(2 * np.pi * t / rng.uniform(150, 300) + rng.uniform(0, 2 * np.pi))
    drift = np.cumsum(rng.normal(0.0, 0.002, rows))
    x += drift - drift.mean() + rng.normal(0.0, 0.03, rows)
    spikes = rng.random(rows) < 0.002
    x[spikes] += rng.normal(0.0, 0.5, int(spikes.sum()))
    return np.clip(x, -1.0, np.nextafter(1.0, 0.0))


def _pmf_of(values: np.ndarray, L: int) -> dict[int, float]:
    """The PMF `ingest_trace` must produce: count / total per value."""
    counts = np.bincount(values, minlength=1 << L)
    total = int(counts.sum())
    return {v: int(c) / total for v, c in enumerate(counts) if c}


def _capped_law(p_vec, cap: int, value_probs: np.ndarray) -> dict[int, float]:
    """Exact distortion law of the flip channel conditioned on <= cap flips."""
    L = len(p_vec)
    n = 1 << L
    x = np.arange(n)
    masks = [e for e in range(n) if bin(e).count("1") <= cap]
    weights = np.array([math.prod(p if e >> i & 1 else 1.0 - p for i, p in enumerate(p_vec))
                        for e in masks])
    weights /= weights.sum()
    law = np.zeros(n)
    for e, w in zip(masks, weights):
        law += np.bincount(np.abs(x - (x ^ e)), weights=value_probs * w, minlength=n)
    return {m: float(v) for m, v in enumerate(law) if v}


def setup_audit(run: Run) -> None:
    params = PARAMS["audit"][run.small]
    rng = np.random.default_rng([run.seed, 2])
    bits, bits_single, bits_flip = params["bits"], params["bits_single"], params["bits_flip"]
    x = _sensor_trace(rng, params["rows"])
    half = 1 << (bits - 1)
    col_signed = np.floor(x * half).astype(np.int64)
    col_unsigned = np.minimum(np.floor((x + 1.0) / 2.0 * (1 << bits_single)), (1 << bits_single) - 1).astype(np.int64)
    lines = ["t,adc_signed,adc_unsigned"]
    lines += [f"{t},{a},{b}" for t, a, b in zip(range(x.size), col_signed.tolist(), col_unsigned.tolist())]
    trace = run.work / "trace.csv"
    trace.write_text("\n".join(lines) + "\n")

    files = {}
    for name, L in (("flip", bits_flip), ("pmf", bits)):
        k = 3
        table = codegen.CodeTable.perbit(L, k, rng.uniform(0.02, 0.3, L).tolist())
        files[name] = (run.work / f"{name}.table.txt", run.work / f"{name}.constraint.txt")
        files[name][0].write_text(codegen.serialize_table(table))
        files[name][1].write_text(codegen.serialize_constraint(codegen.TailConstraint.reciprocal(L, k)))
    for name, L in (("forced", bits), ("single", bits_single)):
        model = channel_sim.UpsetModel(
            L, tuple(rng.uniform(0.0, 0.05, L).tolist()), tuple(rng.uniform(0.0, 1.0, L).tolist())
        )
        files[name] = run.work / f"{name}.upsets.txt"
        files[name].write_text(channel_sim.serialize_upsets(model))

    pmf = _pmf_of(col_signed + half, bits)
    value_probs = np.zeros(1 << bits)
    for v, p in pmf.items():
        value_probs[v] = p
    pmf_table = codegen.load_table(files["pmf"][0])
    run.inputs.update(
        params=params,
        trace=trace,
        files=files,
        expected_pmf=pmf,
        expected_pmf_single=_pmf_of(col_unsigned, bits_single),
        capped_law=_capped_law(pmf_table.p_vec, params["cap"], value_probs),
        sim_seeds=[int(s) for s in rng.integers(0, 2**31, size=3)],
    )


def _ingest(run: Run, column: int, bits: int, offset: int):
    with open(run.inputs["trace"], encoding="utf-8", newline="") as fh:
        return channel_sim.ingest_trace(fh, column, bits, offset, skip_header=1)


def _load_pair(table_path: Path, constraint_path: Path):
    return codegen.load_table(table_path), codegen.load_constraint(constraint_path)


def audit_pass(run: Run) -> None:
    """Ingest, the exact laws and `simulate`; each law is kept as (simulated, exact, trials, L)."""
    params, files, step = run.params, run.inputs["files"], run.step
    bits = params["bits"]
    pmf = step("ingest", _ingest, run, 1, bits, 1 << (bits - 1))
    pmf_single = step("ingest single", _ingest, run, 2, params["bits_single"], 0)
    t_uniform, t_pmf, t_cap = params["trials"]
    s_uniform, s_pmf, s_cap = run.inputs["sim_seeds"]
    laws = {}
    run.outputs = {"pmf": pmf, "pmf_single": pmf_single, "laws": laws}

    def keep(name, sim, exact, trials, L):
        """Keep a law whose steps all succeeded; `exact` is a distribution or a mass dict."""
        if sim is not None and exact is not None:
            laws[name] = (sim.distribution.mass, getattr(exact, "mass", exact), trials, L)

    flip = step("load flip table", _load_pair, *files["flip"])
    if flip is not None:
        table, constraint = flip
        exact = step("exact uniform", channel_sim.exact_distortion, table)
        sim = step("simulate uniform", channel_sim.simulate, table, constraint, t_uniform, s_uniform)
        keep("uniform", sim, exact, t_uniform, table.L)
    flip = step("load pmf table", _load_pair, *files["pmf"])
    if pmf is not None and flip is not None:
        table, constraint = flip
        exact = step("exact trace pmf", channel_sim.exact_distortion, table, pmf)
        sim = step("simulate trace pmf", channel_sim.simulate, table, constraint, t_pmf, s_pmf,
                   value_source=pmf)
        keep("trace pmf", sim, exact, t_pmf, table.L)
        sim = step("simulate capped", channel_sim.simulate, table, constraint, t_cap, s_cap,
                   value_source=pmf, cap_weight=params["cap"])
        keep("capped", sim, run.inputs["capped_law"], t_cap, table.L)
    if pmf is not None:
        step("forced law", lambda: channel_sim.exact_distortion(channel_sim.load_upsets(files["forced"]), pmf))
    if pmf_single is not None:
        report = step("single-error form", lambda: channel_sim.analytic_single_error(
            pmf_single, channel_sim.load_upsets(files["single"]))[1])
        if report is not None:
            run.outcome["single_error_agreed"] = report.agreed


def audit_check(run: Run) -> None:
    checks, outputs = run.checks, run.outputs
    for key, expected in (("pmf", "expected_pmf"), ("pmf_single", "expected_pmf_single")):
        if outputs[key] is not None:
            checks.record(f"ingest {key} differs from its histogram", outputs[key].mass == run.inputs[expected])
    for name, (sim_mass, exact_mass, trials, L) in outputs["laws"].items():
        checks.record(f"{name} simulated law vs exact", law_agrees(sim_mass, exact_mass, trials, L))


# ---------------------------------------------------------------------------
# enumerate


def setup_enumerate(run: Run) -> None:
    params = PARAMS["enumerate"][run.small]
    rng = np.random.default_rng([run.seed, 3])
    small_L, large_L = params["L"]
    k = params["k"]
    m_large = _m_max(large_L, k)
    run.inputs.update(
        params=params,
        y_star_ms={
            small_L: list(range(1, _m_max(small_L, k) + 1)),
            large_L: sorted(rng.choice(np.arange(1, m_large + 1), size=params["sample"],
                                       replace=False).tolist()),
        },
        mass_table=codegen.CodeTable.perbit(small_L, k, rng.uniform(0.01, 0.3, small_L).tolist()),
    )


def _y_star_sweep(L: int, k: int, ms: list[int]) -> list[int]:
    return [combinatorics.y_star(L, k, m) for m in ms]


def enumerate_pass(run: Run) -> None:
    params, step = run.params, run.step
    small_L, large_L = params["L"]
    k = params["k"]
    outputs = run.outputs = {"sets": {}, "y_star": {}}
    for L in params["L"]:
        outputs["sets"][L] = step(f"sets L={L}", run_cli, run, "sets", "--L", L, "--k", k, "--method", "both",
                                  "--out", run.work / f"sets-{L}.txt")
    outputs["bounds"] = step("bounds", combinatorics.bounds_dataset, large_L, k)
    outputs["divisibility"] = step("divisibility", combinatorics.divisibility_report, large_L, k)
    for L in params["L"]:
        outputs["y_star"][L] = step(f"y_star sweep L={L}", _y_star_sweep, L, k, run.inputs["y_star_ms"][L])
    outputs["masses"] = step("placement mass", channel_sim.placement_mass, run.inputs["mass_table"])


def _check_y_star(run: Run, L: int, counts: list[int]) -> None:
    sizes = {m: len(s) for m, s in read_sets(run.work / f"sets-{L}.txt").items()}
    run.checks.record(f"y_star({L},{run.params['k']},m) differs from |S_m|",
                      counts == [sizes.get(m, 0) for m in run.inputs["y_star_ms"][L]])


def _check_placement_mass(run: Run, masses: dict) -> None:
    table = run.inputs["mass_table"]
    sets = read_sets(run.work / f"sets-{table.L}.txt")
    gap = max(abs(mass - codegen.constraint_lhs(sets.get(m, ()), table.p_vec, table.L))
              for m, mass in masses.items())
    run.checks.record(f"placement_mass differs from constraint_lhs by {gap}", gap <= 1e-12)


def enumerate_check(run: Run) -> None:
    checks, outputs = run.checks, run.outputs
    for L, code in outputs["sets"].items():
        if code is not None:
            checks.record(f"sets --method both at L={L} exit {code}", code == 0)
    if outputs["bounds"] is not None:
        checks.record("bound ordering", all(r.z_exact <= r.z_tight <= r.z_loose for r in outputs["bounds"]))
    if outputs["divisibility"] is not None:
        checks.record("divisibility violations", outputs["divisibility"].clean)
    for L, counts in outputs["y_star"].items():
        if counts is not None:
            checks.run(f"y_star check L={L}", _check_y_star, run, L, counts)
    if outputs["masses"] is not None:
        checks.run("placement mass check", _check_placement_mass, run, outputs["masses"])


# name: (set-up, timed pass, oracle checks of the pass just run)
WORKLOADS = {
    "design": (setup_design, design_pass, design_check),
    "audit": (setup_audit, audit_pass, audit_check),
    "enumerate": (setup_enumerate, enumerate_pass, enumerate_check),
}
