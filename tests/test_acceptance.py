"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with -s to see them live).

Runtime budgets are asserted on the steady-state operation; the kernels
are warmed once up front so first-call set-up is not billed to any
criterion.
"""
import time
from itertools import permutations

import numpy as np
import pytest

from vdbcode import (
    CodeTable,
    TailConstraint,
    analytic_single_error,
    constraint_lhs,
    divisibility_report,
    exact_distortion,
    placement_mass,
    sets_bruteforce,
    sets_fast,
    simulate,
    solve_iid,
    solve_perbit,
    verify_table,
    y_star,
    z_bound_loose,
    z_bound_tight,
)
from vdbcode.channel_sim import EmpiricalPMF, UpsetModel
from vdbcode.combinatorics import z_exact_table
from vdbcode.setgen import serialize_sets
from conftest import bin_sigmas, law_bins, sidak_z, uniform_pmf

REFERENCE_PERBIT_L3K2 = (0.4485, 0.4011, 0.2266)
REPORTED_L3K3 = (0.25, 0.44, 0.31)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # load numpy's code paths and fill the lru caches outside the timed sections
    sets_bruteforce(3, 2)
    exact_distortion(CodeTable.iid(3, 2, 0.1))
    exact_distortion(UpsetModel(2, (0.1, 0.0), (1.0, 0.0)))
    simulate(CodeTable.iid(3, 2, 0.1), TailConstraint.from_table(3, 2, {1: 1.0}), 64, seed=0)


def _report(number: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail} ({elapsed:.2f}s, budget {budget:g}s)", flush=True)


def test_criterion_1_iid_solver_regression(example_constraint):
    start = time.perf_counter()
    table = solve_iid(example_constraint)
    elapsed = time.perf_counter() - start
    ok = abs(table.p - 0.2180) <= 0.001
    _report(1, ok, f"iid solver returns p={table.p:.4f} (target 0.2180 +/- 0.001)", elapsed, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_perbit_feasibility(example_constraint):
    start = time.perf_counter()
    reference_report = verify_table(CodeTable.perbit(3, 2, REFERENCE_PERBIT_L3K2), example_constraint)
    ours = solve_perbit(example_constraint)
    ours_report = verify_table(ours, example_constraint)
    elapsed = time.perf_counter() - start
    reference_ok = reference_report.passed and reference_report.worst >= -1e-3
    ours_ok = ours_report.passed and all(
        c in ("blocked", "at-domain-boundary") for c in ours.metadata["certificate"]
    )
    _report(
        2,
        reference_ok and ours_ok,
        f"reference per-bit point worst margin {reference_report.worst:.2e}; "
        f"solver point {tuple(round(p, 4) for p in ours.p_vec)} certified locally maximal",
        elapsed,
        5.0,
    )
    assert reference_ok
    assert ours_ok
    assert elapsed < 5.0


def test_criterion_3_monte_carlo_reproduction(reciprocal_constraint):
    start = time.perf_counter()
    iid_table = CodeTable.iid(3, 3, 0.29)
    assert verify_table(iid_table, reciprocal_constraint).passed
    iid_flip = simulate(iid_table, reciprocal_constraint, 10_000, seed=0)
    iid_cap = simulate(iid_table, reciprocal_constraint, 10_000, seed=0, cap_weight=3)

    # The bit-significance order of the reported {0.25, 0.44, 0.31} is
    # unstated: check every assignment, record which are feasible and
    # which also keep the simulated distribution inside the bounds.
    orders = {}
    for perm in permutations(REPORTED_L3K3):
        table = CodeTable.perbit(3, 3, perm)
        if not verify_table(table, reciprocal_constraint).passed:
            orders[perm] = "infeasible"
            continue
        result = simulate(table, reciprocal_constraint, 10_000, seed=0)
        orders[perm] = "pass" if result.passed else "feasible, tail exceeded"
    elapsed = time.perf_counter() - start

    passing = [perm for perm, status in orders.items() if status == "pass"]
    ok = iid_flip.passed and iid_cap.passed and bool(passing)
    recorded = "; ".join(f"(p0,p1,p2)={perm}: {status}" for perm, status in orders.items())
    _report(
        3,
        ok,
        "10,000-trial masses and tails within constraint + 3 sigma "
        f"[iid p=0.29 flip: {'pass' if iid_flip.passed else 'FAIL'}, "
        f"cap-weight: {'pass' if iid_cap.passed else 'FAIL'}]; "
        f"reported per-bit point: {recorded}",
        elapsed,
        2.0,
    )
    assert iid_flip.passed and iid_cap.passed
    assert passing
    assert elapsed < 2.0


def test_criterion_4_bound_ordering_sweep():
    start = time.perf_counter()
    violations = []
    for k in (3, 4):
        z = z_exact_table(8, k)
        for m in range(1, z.size):
            if not z[m] <= z_bound_tight(8, k, m) <= z_bound_loose(8, m):
                violations.append(("order", k, m))
        report = divisibility_report(8, k)
        violations += [("divisibility", k, m) for m in report.violations]
    elapsed = time.perf_counter() - start
    ok = not violations
    _report(4, ok, f"L=8, k in {{3,4}}: exact <= tight <= loose and no divisibility violations", elapsed, 30.0)
    assert ok, violations
    assert elapsed < 30.0


def test_criterion_5_set_construction_equivalence():
    start = time.perf_counter()
    mismatches = []
    for L in range(1, 11):
        for k in range(1, L + 1):
            fast = sets_fast(L, k)
            brute = sets_bruteforce(L, k)
            if fast != brute:
                mismatches.append((L, k, "sets"))
                continue
            for m, s in fast.sets.items():
                if len(s) != y_star(L, k, m):
                    mismatches.append((L, k, m))
    family = sets_fast(3, 2)
    serialized_ok = serialize_sets(family).splitlines()[3:] == [
        "1,001", "1,011", "2,010", "2,110", "3,011", "3,101", "4,100", "5,101", "6,110"
    ]
    cards_ok = list(family.cardinalities().values()) == [2, 2, 2, 1, 1, 1]
    elapsed = time.perf_counter() - start
    ok = not mismatches and serialized_ok and cards_ok
    _report(
        5,
        ok,
        "fast == brute for all L <= 10, |S_m| == Y*, worked family <2,2,2,1,1,1> reproduced",
        elapsed,
        60.0,
    )
    assert not mismatches, mismatches[:5]
    assert serialized_ok and cards_ok
    assert elapsed < 60.0


def test_criterion_6_analytic_simulation_consistency():
    rng = np.random.default_rng(2026)
    trials = 100_000
    start = time.perf_counter()
    worst_lhs_gap = 0.0
    bins = []
    for _ in range(20):
        L = int(rng.integers(2, 9))
        k = int(rng.integers(1, L + 1))
        table = CodeTable.perbit(L, k, tuple(float(v) for v in rng.uniform(0.0, 0.6, size=L)))

        sets = sets_fast(L, k)
        masses = placement_mass(table)
        for m, s in sets.sets.items():
            gap = abs(masses[m] - constraint_lhs(s, table.p_vec))
            worst_lhs_gap = max(worst_lhs_gap, gap)
            assert gap <= 1e-12, (L, k, m, gap)

        exact = exact_distortion(table)
        vacuous = TailConstraint.from_table(L, k, {1: 1.0})
        result = simulate(table, vacuous, trials, seed=int(rng.integers(0, 2**31)))
        bins += [(L, k, b) for b in law_bins(result.distribution.mass, exact.mass, trials)]
    z = sidak_z(len(bins))
    sigmas = bin_sigmas([b for _, _, b in bins], trials)
    outside = [(L, k, b, sigma) for (L, k, b), sigma in zip(bins, sigmas) if sigma > z]
    elapsed = time.perf_counter() - start
    _report(
        6,
        not outside,
        f"20 random tables: placement mass == lhs (worst gap {worst_lhs_gap:.1e} <= 1e-12), "
        f"100k-trial laws on the exact support and all {len(bins)} bins within "
        f"z={z:.2f} (worst {max(sigmas):.2f} sigma)",
        elapsed,
        120.0,
    )
    assert not outside, outside[:5]
    assert elapsed < 120.0


def test_criterion_7_single_error_oracle_check():
    start = time.perf_counter()
    q = 0.2
    point, point_report = analytic_single_error(
        EmpiricalPMF(3, {0: 1.0}), UpsetModel(3, (q, 0.0, 0.0), (1.0, 0.0, 0.0))
    )
    none, none_report = analytic_single_error(
        EmpiricalPMF(3, {0: 1.0}), UpsetModel(3, (0.0,) * 3, (0.0,) * 3)
    )
    uniform, uniform_report = analytic_single_error(
        uniform_pmf(3), UpsetModel(3, (0.3, 0.0, 0.0), (0.5, 0.0, 0.0))
    )
    elapsed = time.perf_counter() - start

    mandatory = (
        point_report.agreed
        and abs(point.at(1) - q) <= 1e-9
        and abs(point.at(0) - (1 - q)) <= 1e-9
        and none_report.agreed
        and abs(none.at(0) - 1.0) <= 1e-9
    )
    uniform_outcome = (
        "agrees" if uniform_report.agreed else f"divergence reported ({uniform_report.max_abs:.3f})"
    )
    _report(
        7,
        mandatory,
        f"trivial point-mass and zero-upset cases agree to 1e-9; uniform case {uniform_outcome}",
        elapsed,
        1.0,
    )
    assert mandatory
    assert uniform_report.rows  # comparison always produced
    assert elapsed < 1.0
