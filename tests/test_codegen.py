import math
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from vdbcode import (
    CodeTable,
    ParameterError,
    TailConstraint,
    constraint_lhs,
    sets_fast,
    solve_iid,
    solve_perbit,
    verify_table,
)
from vdbcode import codegen
from vdbcode.core import SYMMETRIC, WordSpec, distortion_range, format_lines, reject_repeat
from vdbcode.codegen import (
    PERBIT_TOL,
    InfeasibleConstraintError,
    _Rows,
    load_constraint,
    load_table,
    parse_constraint,
    parse_table,
    serialize_constraint,
    serialize_table,
)
from conftest import EXAMPLE_BOUNDS

REFERENCE_PERBIT = (0.4485, 0.4011, 0.2266)


# ---------------------------------------------------------------------------
# constraint_lhs


def test_lhs_matches_worked_polynomials():
    # m=1 at L=3,k=2: p(1-p)^2 + p^2(1-p); m=4: p_2(1-p_1)(1-p_0)
    for p in (0.1, 0.218, 0.5, 0.9):
        got = constraint_lhs({0b001, 0b011}, [p, p, p])
        want = p * (1 - p) ** 2 + p**2 * (1 - p)
        assert got == pytest.approx(want, abs=1e-15)
    p0, p1, p2 = 0.3, 0.5, 0.7
    assert constraint_lhs({0b100}, [p0, p1, p2]) == pytest.approx(
        p2 * (1 - p1) * (1 - p0), abs=1e-15
    )


def test_lhs_zero_probabilities():
    assert constraint_lhs({0b001, 0b011, 0b111}, [0.0, 0.0, 0.0]) == 0.0
    assert constraint_lhs(set(), [0.3, 0.4, 0.5]) == 0.0


def test_lhs_iid_specialization_many_random_tables():
    # all-equal p_vec must agree with the weight-grouped closed form
    rng = np.random.default_rng(7)
    for L, k in [(4, 2), (6, 3), (8, 4)]:
        ps = sets_fast(L, k)
        for _ in range(5):
            p = float(rng.random())
            for m, s in ps.sets.items():
                weights = {}
                for e in s:
                    w = bin(e).count("1")
                    weights[w] = weights.get(w, 0) + 1
                closed = sum(c * p**w * (1 - p) ** (L - w) for w, c in weights.items())
                assert abs(constraint_lhs(s, [p] * L) - closed) <= 1e-12


def test_lhs_total_over_all_weights_is_one():
    # the full mask space carries the whole product measure
    L = 6
    rng = np.random.default_rng(3)
    p_vec = rng.random(L)
    total = constraint_lhs(range(1 << L), p_vec)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_lhs_accuracy_against_fsum_oracle():
    rng = np.random.default_rng(5)
    L = 12
    p_vec = [float(v) for v in rng.random(L)]
    masks = [e for e in range(1 << L) if bin(e).count("1") <= 3]
    exact_terms = []
    for e in masks:
        term = 1.0
        for i in range(L):
            term *= p_vec[i] if (e >> i) & 1 else 1 - p_vec[i]
        exact_terms.append(term)
    assert abs(constraint_lhs(masks, p_vec) - math.fsum(exact_terms)) <= 1e-12


# ---------------------------------------------------------------------------
# Array evaluation of the placement sets (the sorted (m, mask) arrays read by
# the solvers and verify)


@pytest.mark.parametrize("L,k", [(3, 1), (3, 2), (5, 3), (6, 6), (8, 3)])
def test_array_lhs_matches_constraint_lhs(L, k):
    sets = sets_fast(L, k)
    c = TailConstraint.reciprocal(L, k)
    rows = _Rows(c)
    assert rows.keys.tolist() == sorted(sets.sets)
    assert np.array_equal(rows.keys[rows.index], sets.ms)
    assert rows.bounds.tolist() == [1.0 / (m + 1) for m in rows.keys.tolist()]
    rng = np.random.default_rng(L * 10 + k)
    for _ in range(4):
        p_vec = rng.random(L)
        lhs = rows.lhs(p_vec)
        for j, m in enumerate(rows.keys.tolist()):
            assert abs(lhs[j] - constraint_lhs(sets.sets[m], p_vec, L)) <= 1e-12
    if (L, k) == (3, 1):
        # binning the pairs by m itself gives S_3, which has no pairs, an lhs of 0
        rows.index = sets.ms
        assert 3 not in rows.keys and rows.lhs(p_vec)[3] == 0.0


# Every float is a dyadic rational, so Fractions give each mask probability
# and each row sum exactly: the ground truth for the round-off bounds that
# `_Rows.lhs` and `_Rows.allowance` rest on.
def _exact_row_sums(groups, p_vec):
    p = [Fraction(v) for v in p_vec]

    def prob(e):
        out = Fraction(1)
        for i, v in enumerate(p):
            out *= v if e >> i & 1 else 1 - v
        return out

    probs = {e: prob(e) for s in groups.values() for e in s}
    return {m: sum(probs[e] for e in s) for m, s in groups.items()}


@pytest.mark.parametrize("L,k", [(3, 3), (5, 2), (6, 3), (8, 3)])
def test_row_sums_and_margins_within_round_off_of_exact_rationals(L, k):
    # Seeded tables drawn uniform, as u**8 (small p, where relative error
    # shows) and as 1 - u**8 (p near 1), and the solvers' own outputs.  Each
    # row's lhs lies within gamma_n * lhs of its exact sum (n = 2L + n_m,
    # gamma_n = n*u / (1 - n*u), taken exactly here), and each computed
    # margin F(m) - lhs(m) within `_Rows.allowance` of the exact margin.
    sets, c = sets_fast(L, k), TailConstraint.reciprocal(L, k)
    rows = _Rows(c)
    groups = sets.sets
    iid = solve_iid(c)
    u = np.random.default_rng(L * 10 + k).random((8, L))
    tables = [*u, *u**8, *(1 - u**8), solve_perbit(c).p_vec, iid.p_vec]
    tables.append([iid.metadata["first_infeasible_p"]] * L)
    unit = Fraction(1, 1 << 53)
    for p_vec in tables:
        exact = _exact_row_sums(groups, p_vec)
        lhs = rows.lhs(p_vec)
        allowance = rows.allowance(lhs)
        margins, passed = rows.margins(p_vec)
        exact_margins = []
        for j, m in enumerate(rows.keys.tolist()):
            n = 2 * L + len(groups[m])
            gamma = n * unit / (1 - n * unit)
            assert abs(Fraction(lhs[j]) - exact[m]) <= gamma * exact[m]
            exact_margins.append(Fraction(c.bounds_at(m)) - exact[m])
            assert abs(Fraction(margins[m]) - exact_margins[-1]) <= Fraction(allowance[j])
        # so a table that meets every bound exactly always passes
        assert passed or min(exact_margins) < 0


def _bisection_limit(sets, c, p_vec, i, tol):
    """The per-coordinate step as bisection against constraint_lhs."""
    def feasible(v):
        trial = list(p_vec)
        trial[i] = v
        return all(constraint_lhs(s, trial, sets.L) <= c.bounds_at(m) for m, s in sets.sets.items())

    if feasible(1.0):
        return 1.0
    lo, hi = p_vec[i], 1.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("L,k", [(3, 2), (5, 3), (6, 6)])
def test_coordinate_limit_matches_bisection(L, k):
    sets = sets_fast(L, k)
    c = TailConstraint.reciprocal(L, k)
    rows = _Rows(c)
    p_vec = np.full(L, 0.5 * solve_iid(c).p)
    for i in range(L):
        limit, _ = rows.limit(p_vec, i)
        lo = _bisection_limit(sets, c, p_vec, i, PERBIT_TOL)
        assert lo <= limit <= lo + PERBIT_TOL


def reference_coordinate_limit(rows, p, i):
    """The coordinate step from two lhs evaluations, at p_i = 0 and p_i = 1: (a, slope, limit, m)."""
    trial = p.copy()
    trial[i] = 0.0
    a = rows.lhs(trial)
    trial[i] = 1.0
    slope = rows.lhs(trial) - a
    rising = np.flatnonzero(slope > 0.0)
    if rising.size == 0:
        return a, slope, 1.0, None
    limits = (rows.bounds[rising] - a[rising]) / slope[rising]
    j = int(np.argmin(limits))
    if limits[j] >= 1.0:
        return a, slope, 1.0, None
    return a, slope, float(limits[j]), int(rows.keys[rising[j]])


def _random_monotone_budget(rng, L, k):
    m_max = TailConstraint.reciprocal(L, k).m_max
    f = np.minimum.accumulate(rng.uniform(0.0, 1.0) * rng.uniform(0.3, 1.0, m_max))
    return TailConstraint.from_table(L, k, {m + 1: float(v) for m, v in enumerate(f)})


def _design_budgets():
    """The benchmark's design budgets: the worked example, reciprocal ones and seeded c / (m+1)**a."""
    budgets = [TailConstraint.from_table(3, 2, EXAMPLE_BOUNDS)]
    budgets += [TailConstraint.reciprocal(L, k) for L, k in [(3, 3), (5, 3), (6, 6), (7, 7), (8, 3)]]
    rng = np.random.default_rng([1, 1])
    for L in (5, 6):
        m = np.arange(1, TailConstraint.reciprocal(L, L).m_max + 1)
        a, c = rng.uniform(0.8, 1.2), rng.uniform(0.7, 1.0)
        f = np.minimum.accumulate(np.clip(c / (m + 1.0) ** a * rng.uniform(0.9, 1.1, m.size), 0.0, 1.0))
        budgets.append(TailConstraint.from_table(L, L, {int(i): float(v) for i, v in zip(m, f)}))
    return budgets


def test_coordinate_limit_equals_the_two_table_reference():
    # One table at p_i = 1, read at masks | 2**i, must give the same floats as the two tables did.
    rng = np.random.default_rng(21)
    budgets = _design_budgets()
    for _ in range(60):
        L = int(rng.integers(2, 10))
        budgets.append(_random_monotone_budget(rng, L, int(rng.integers(1, L + 1))))
    for c in budgets:
        rows = _Rows(c)
        points = [np.full(c.L, solve_iid(c).p), np.asarray(solve_perbit(c).p_vec)]
        for _ in range(4):
            p = rng.uniform(0.0, 1.0, c.L)
            p[rng.random(c.L) < 0.25] = 0.0
            p[rng.random(c.L) < 0.25] = 1.0
            points.append(p)
        for p in points:
            for i in range(c.L):
                a, slope, limit, m = reference_coordinate_limit(rows, p, i)
                got_a, got_slope = rows.affine(p, i)
                assert np.array_equal(got_a, a) and np.array_equal(got_slope, slope)
                assert rows.limit(p, i) == (limit, m)


def test_solve_perbit_equals_the_two_table_reference(monkeypatch):
    budgets = _design_budgets()
    tables = [solve_perbit(c) for c in budgets]
    monkeypatch.setattr(_Rows, "limit", lambda rows, p, i: reference_coordinate_limit(rows, p, i)[2:])
    for c, table in zip(budgets, tables):
        want = solve_perbit(c)
        assert table.p_vec == want.p_vec and table.metadata == want.metadata


# ---------------------------------------------------------------------------
# solve_iid


def _assert_iid_bracket(c):
    """solve_iid's p is feasible on [0, p] and, unless it is 1, within 1e-6 (relative) of an infeasible point."""
    table = solve_iid(c)
    for p in np.linspace(0.0, table.p, 51):
        assert verify_table(CodeTable.iid(c.L, c.k, float(p)), c).passed
    hi = table.metadata["first_infeasible_p"]
    if table.p == 1.0:
        assert hi is None
        return table
    assert table.p < hi and hi - table.p <= 1e-6 * hi
    # some row exceeds F at hi, by more than round-off can explain
    report = verify_table(CodeTable.iid(c.L, c.k, hi), c)
    assert report.worst < 0 and not report.passed
    return table


@pytest.mark.parametrize("target", [0.0315, 0.0325, 0.3205])
def test_solve_iid_brackets_single_root(example_sets, target):
    # only S_1 (mass p(1-p), rising below 1/2) binds, at exactly `target`
    p1 = constraint_lhs(example_sets.sets[1], [target] * 3)
    c = TailConstraint(3, 2, [1, 2], [p1, 1.0])
    table = _assert_iid_bracket(c)
    assert table.p <= target <= table.metadata["first_infeasible_p"]


@pytest.mark.parametrize("L", range(3, 13))
def test_solve_iid_bracket_reciprocal(L):
    _assert_iid_bracket(TailConstraint.reciprocal(L, 3))


@pytest.mark.parametrize("L,k", [(11, 3), (12, 3), (12, 12)])
def test_verify_fails_excess_under_1e9_at_first_infeasible_p(L, k):
    # the excess at first_infeasible_p is below 1e-9 here; only an allowance
    # scaled to each row's round-off tells it from a feasible margin
    c = TailConstraint.reciprocal(L, k)
    table = solve_iid(c)
    report = verify_table(CodeTable.iid(L, k, table.metadata["first_infeasible_p"]), c)
    assert -1e-9 <= report.worst < 0 and not report.passed
    assert verify_table(table, c).passed


@pytest.mark.parametrize("solve", [solve_iid, solve_perbit])
def test_failed_self_check_names_the_worst_row_in_one_line(monkeypatch, example_constraint, solve):
    margins = solve(example_constraint).metadata["margins"]
    worst = min(margins, key=margins.get)
    # a negative allowance fails every row, as a real excess would
    monkeypatch.setattr(_Rows, "allowance", lambda rows, lhs: np.full(lhs.shape, -2.0))
    with pytest.raises(InfeasibleConstraintError) as info:
        solve(example_constraint)
    assert str(info.value) == (
        f"solver output failed re-verification: worst margin m={worst}: {margins[worst]!r}"
    )


@pytest.mark.parametrize("L,k,bounds,want", [
    # each S_m is one weight-1 mask of mass p(1-p)^2, which exceeds F only
    # on (0.333114, 0.333552), a window narrower than 1e-3
    (3, 1, {m: 0.1481481 for m in range(1, 5)}, 0.333114),
    (12, 3, None, 0.000490685),
    (16, 3, None, 3.05306e-05),
    (16, 6, None, 3.05306e-05),
])
def test_solve_iid_certified_answers(L, k, bounds, want):
    c = TailConstraint.reciprocal(L, k) if bounds is None else TailConstraint.from_table(L, k, bounds)
    table = solve_iid(c)
    assert table.p == pytest.approx(want, rel=2e-6)
    assert verify_table(table, c).passed


def _halves(coeffs, t):
    """De Casteljau at t: the Bernstein coefficients of the same polynomial on [0, t] and on [t, 1]."""
    left, right = [], []
    while coeffs:
        left.append(coeffs[0])
        right.append(coeffs[-1])
        coeffs = [(1 - t) * a + t * b for a, b in zip(coeffs, coeffs[1:])]
    return left, right[::-1]


def _halvings_to_certify(coeffs, depth=0):
    """How deep halving must go until every piece's coefficients are <= 0; None if it cannot.

    A piece with a positive end coefficient exceeds the bound at that end,
    and a piece still open at depth 40 counts as not certified.
    """
    if all(c <= 0 for c in coeffs):
        return depth
    if coeffs[0] > 0 or coeffs[-1] > 0 or depth == 40:
        return None
    depths = [_halvings_to_certify(half, depth + 1) for half in _halves(coeffs, Fraction(1, 2))]
    return None if None in depths else max(depths)


@pytest.mark.parametrize("L,k", [(3, 2), (3, 3), (4, 4), (5, 5), (6, 6), (8, 3), (8, 8)])
def test_solve_iid_certificate_holds_in_exact_rationals(L, k):
    # With all p_i = p, row m's mass minus F(m) has Bernstein coefficients
    # n_mw / C(L, w) - F(m) on [0, 1], n_mw counting the weight-w masks of
    # S_m.  De Casteljau at the returned p gives them on [0, p], all in
    # Fractions, and halving until every piece's coefficients are <= 0
    # proves the row within F(m) on all of [0, p] (Lane & Riesenfeld,
    # "Bounds on a polynomial", BIT 21, 1981).  One look at the
    # coefficients on [0, p] is not enough: at reciprocal (4, 4) one row's
    # coefficients reach +0.0032, and that row needs one halving.  At
    # first_infeasible_p some row cannot be certified.
    sets = sets_fast(L, k)
    c = TailConstraint.from_table(3, 2, EXAMPLE_BOUNDS) if (L, k) == (3, 2) else TailConstraint.reciprocal(L, k)
    table = solve_iid(c)
    rows = []
    for m, masks in sets.sets.items():
        counts = [0] * (L + 1)
        for e in masks:
            counts[e.bit_count()] += 1
        bound = Fraction(c.bounds_at(m))
        rows.append([Fraction(n, math.comb(L, w)) - bound for w, n in enumerate(counts)])
    halvings = [_halvings_to_certify(_halves(coeffs, Fraction(table.p))[0]) for coeffs in rows]
    assert None not in halvings
    assert (max(halvings) > 0) == ((L, k) == (4, 4))
    beyond = Fraction(table.metadata["first_infeasible_p"])
    assert None in [_halvings_to_certify(_halves(coeffs, beyond)[0]) for coeffs in rows]


def test_solve_iid_worked_example(example_constraint):
    table = solve_iid(example_constraint)
    assert table.p == pytest.approx(0.2180, abs=1e-3)
    assert table.mode == "iid"
    assert verify_table(table, example_constraint).passed


def test_solve_iid_vacuous_constraint():
    ones = TailConstraint.from_table(3, 2, {m: 1.0 for m in range(1, 7)})
    assert solve_iid(ones).p == 1.0


def test_solve_iid_zero_bound():
    zero = TailConstraint.from_table(3, 2, {1: 0.0})
    assert solve_iid(zero).p == 0.0


def test_solve_iid_zero_bound_on_weight_two_masks(example_sets):
    # S_3 holds only weight-2 masks, so F(3) - mass(S_3) and its first
    # derivative vanish at p = 0; the answer is still exactly 0, not a
    # subnormal number reached by halving towards 0
    assert set(map(int.bit_count, example_sets.sets[3])) == {2}
    zero = TailConstraint(3, 2, [3], [0.0])
    assert solve_iid(zero).p == 0.0


def test_solve_iid_maximality_certificate(example_constraint):
    table = _assert_iid_bracket(example_constraint)
    hi = table.metadata["first_infeasible_p"]
    assert not verify_table(CodeTable.iid(3, 2, hi), example_constraint).passed


def test_solve_iid_maximality_randomized():
    rng = np.random.default_rng(11)
    for _ in range(10):
        bounds = {m: float(rng.uniform(0.05, 1.0)) for m in range(1, 13)}
        # enforce a nonincreasing staircase
        running = 1.0
        for m in sorted(bounds):
            running = min(running, bounds[m])
            bounds[m] = running
        _assert_iid_bracket(TailConstraint.from_table(4, 2, bounds))


def test_solve_iid_deterministic(example_constraint):
    a = solve_iid(example_constraint)
    b = solve_iid(example_constraint)
    assert a.p == b.p and a.metadata == b.metadata


def test_solvers_handle_empty_placement_sets():
    # at L=3, k=1 no single flip produces m=3, so S_3 is empty and its
    # constraint is vacuous: it gets no margin
    sets = sets_fast(3, 1)
    assert 3 not in sets.sets
    c = TailConstraint(3, 1, [1, 3, 4], [0.3, 0.0, 0.3])
    iid = solve_iid(c)
    assert iid.p > 0  # the zero bound at the empty m=3 never binds
    perbit = solve_perbit(c)
    report = verify_table(perbit, c)
    assert report.passed and sorted(report.margins) == [1, 2, 4]


# ---------------------------------------------------------------------------
# solve_perbit


def test_reference_perbit_point_is_feasible(example_constraint):
    table = CodeTable.perbit(3, 2, REFERENCE_PERBIT)
    report = verify_table(table, example_constraint)
    assert report.passed
    assert report.worst >= -1e-3


def test_solve_perbit_feasible_and_certified(example_constraint):
    table = solve_perbit(example_constraint)
    assert verify_table(table, example_constraint).passed
    assert all(c in ("blocked", "at-domain-boundary") for c in table.metadata["certificate"])


def test_solve_perbit_dominates_iid(example_constraint):
    iid = solve_iid(example_constraint)
    perbit = solve_perbit(example_constraint)
    assert all(p >= iid.p - PERBIT_TOL for p in perbit.p_vec)


def test_solve_perbit_local_maximality(example_constraint):
    table = solve_perbit(example_constraint)
    for i, p in enumerate(table.p_vec):
        if p >= 1.0:
            continue
        bumped = list(table.p_vec)
        bumped[i] = min(1.0, p + 4 * PERBIT_TOL)
        assert not verify_table(CodeTable.perbit(3, 2, bumped), example_constraint).passed


def _assert_binding_blocks(c, table, tol):
    binding = table.metadata["binding"]
    assert len(binding) == c.L
    for i, (p, m) in enumerate(zip(table.p_vec, binding)):
        if p >= 1.0:
            assert m is None
            continue
        bumped = list(table.p_vec)
        bumped[i] = p + 4 * tol
        assert verify_table(CodeTable.perbit(c.L, c.k, bumped), c).margins[m] < 0


def test_solve_perbit_binding_example(example_constraint):
    table = solve_perbit(example_constraint)
    _assert_binding_blocks(example_constraint, table, PERBIT_TOL)


def _seeded_l5_budget():
    rng = np.random.default_rng(2024)
    L = 5
    m = np.arange(1, 2**L)
    f = np.minimum.accumulate(0.8 / (m + 1.0) * rng.uniform(0.9, 1.1, m.size))
    return TailConstraint.from_table(L, L, {int(i): float(v) for i, v in zip(m, f)})


def test_solve_perbit_binding_seeded_budget():
    c = _seeded_l5_budget()
    table = solve_perbit(c)
    assert all(b is not None for b in table.metadata["binding"])
    _assert_binding_blocks(c, table, PERBIT_TOL)


@pytest.mark.parametrize("case", ["example", "seeded-5", "reciprocal-6-6"])
def test_solve_perbit_certificate_matches_bump_check(example_constraint, case):
    # the certificate comes from the coordinate limit; evaluating every row
    # with p_i raised by 4*tol must give the same verdict
    if case == "example":
        c = example_constraint
    elif case == "seeded-5":
        c = _seeded_l5_budget()
    else:
        c = TailConstraint.reciprocal(6, 6)
    table = solve_perbit(c)
    rows = _Rows(c)
    want = []
    for i, p in enumerate(table.p_vec):
        if p >= 1.0:
            want.append("at-domain-boundary")
            continue
        trial = np.array(table.p_vec)
        trial[i] = min(1.0, p + 4.0 * PERBIT_TOL)
        blocked = trial[i] >= 1.0 or np.any(rows.lhs(trial) > rows.bounds)
        want.append("blocked" if blocked else "open")
    assert table.metadata["certificate"] == tuple(want)


def test_solve_perbit_binding_none_at_domain_boundary():
    ones = TailConstraint.from_table(3, 2, {m: 1.0 for m in range(1, 7)})
    table = solve_perbit(ones)
    assert table.p_vec == (1.0, 1.0, 1.0)
    assert table.metadata["binding"] == (None, None, None)


def test_solve_perbit_zero_bounds():
    zero = TailConstraint.from_table(3, 3, {1: 0.0})
    table = solve_perbit(zero)
    assert table.p_vec == (0.0, 0.0, 0.0)


def test_solve_perbit_deterministic(example_constraint):
    a = solve_perbit(example_constraint)
    b = solve_perbit(example_constraint)
    assert a.p_vec == b.p_vec


def test_reported_l3k3_point_feasible_in_some_order(reciprocal_constraint):
    feasible = [
        perm
        for perm in permutations((0.25, 0.44, 0.31))
        if verify_table(CodeTable.perbit(3, 3, perm), reciprocal_constraint).passed
    ]
    assert feasible  # at least one bit-order assignment satisfies the bound


# ---------------------------------------------------------------------------
# verify_table


def test_verify_reference_iid_point(example_constraint):
    report = verify_table(CodeTable.iid(3, 2, 0.2180), example_constraint)
    assert report.passed and all(v >= 0 for v in report.margins.values())


def test_verify_half_fails(example_constraint):
    report = verify_table(CodeTable.iid(3, 2, 0.5), example_constraint)
    assert not report.passed
    assert report.margins[5] < 0  # p^2(1-p) = 0.125 > 2/30


def test_verify_zero_table_margins_equal_bounds(example_constraint):
    report = verify_table(CodeTable.iid(3, 2, 0.0), example_constraint)
    assert report.passed
    for m, margin in report.margins.items():
        assert margin == pytest.approx(EXAMPLE_BOUNDS[m])


@pytest.mark.parametrize("L,k", [(4, 2), (3, 3), (3, 1)])
def test_verify_refuses_a_table_of_another_word(example_constraint, L, k):
    with pytest.raises(ParameterError) as info:
        verify_table(CodeTable.iid(L, k, 0.1), example_constraint)
    assert str(info.value) == f"table is (L={L}, k={k}) but constraint is (L=3, k=2)"


# ---------------------------------------------------------------------------
# TailConstraint validation and file format


def test_constraint_requires_unit_interval():
    with pytest.raises(ParameterError):
        TailConstraint.from_table(3, 2, {1: 1.5})
    with pytest.raises(ParameterError):
        TailConstraint.from_table(3, 2, {1: -0.1})


def test_constraint_monotonicity_enforced_by_default():
    with pytest.raises(ParameterError):
        TailConstraint.from_table(3, 2, {1: 0.2, 2: 0.5})
    # a budget built from its rows may rise
    c = TailConstraint(3, 2, [1, 2], [0.2, 0.5])
    assert c.bounds_at(2) == 0.5


def test_constraint_gap_inheritance():
    c = TailConstraint.from_table(3, 2, {5: 0.25, 2: 0.5})
    assert c.ms.tolist() == [2, 5] and c.values.tolist() == [0.5, 0.25]
    assert c.bounds_at(np.arange(1, 7)).tolist() == [1.0, 0.5, 0.5, 0.5, 0.25, 0.25]


def test_constraint_extension_beyond_range():
    c = TailConstraint.from_table(3, 2, EXAMPLE_BOUNDS)
    assert c.bounds_at(7) == EXAMPLE_BOUNDS[6]
    assert c.bounds_at(np.array([1, 6, 7, 100])).tolist() == [EXAMPLE_BOUNDS[1]] + [EXAMPLE_BOUNDS[6]] * 3


def test_parse_constraint_fractions_and_decimals():
    c = parse_constraint(
        "format=vdb-constraint-v1\nL=3\nk=2\n1,22/30\n2,0.25\n"
    )
    assert c.bounds_at(1) == pytest.approx(22 / 30)
    assert c.bounds_at(2) == 0.25
    assert c.bounds_at(6) == 0.25


def test_parse_constraint_reports_line_numbers():
    with pytest.raises(ParameterError, match="line 4"):
        parse_constraint("format=vdb-constraint-v1\nL=3\nk=2\n1,abc\n")
    with pytest.raises(ParameterError, match="line 5"):
        parse_constraint("format=vdb-constraint-v1\nL=3\nk=2\n1,0.5\n1,0.25\n")
    with pytest.raises(ParameterError, match="line 4"):
        parse_constraint("format=vdb-constraint-v1\nL=3\nk=2\n1,1.5\n")
    with pytest.raises(ParameterError, match="line 4: bad row '1,1/0'"):
        parse_constraint("format=vdb-constraint-v1\nL=3\nk=2\n1,1/0\n")
    with pytest.raises(ParameterError, match="line 2: rows before L=/k= headers"):
        parse_constraint("format=vdb-constraint-v1\n1,0.5\nL=3\nk=2\n")
    with pytest.raises(ParameterError, match="line 3: rows before L=/k= headers"):
        parse_constraint("format=vdb-constraint-v1\nL=3\n1,0.5\nk=2\n")
    with pytest.raises(ParameterError, match="line 2: bad header 'L=three'"):
        parse_constraint("format=vdb-constraint-v1\nL=three\nk=2\n1,0.5\n")
    with pytest.raises(ParameterError, match="missing format/L/k headers"):
        parse_constraint("format=vdb-constraint-v1\n")


def test_parse_constraint_rejects_monotonicity_violation():
    text = "format=vdb-constraint-v1\nL=3\nk=2\n1,0.1\n2,0.9\n"
    with pytest.raises(ParameterError, match="increases"):
        parse_constraint(text)


def test_constraint_roundtrip(tmp_path, example_constraint):
    path = tmp_path / "c.txt"
    path.write_text(serialize_constraint(example_constraint))
    loaded = load_constraint(path)
    assert np.array_equal(loaded.ms, example_constraint.ms)
    assert np.array_equal(loaded.values, example_constraint.values)


GAPPED_ROWS = {2: 0.5, 5: 0.25, 9: 0.2, 20: 0.125, 28: 0.1}
GAPPED_TEXT = "format=vdb-constraint-v1\nL=5\nk=3\n2,1/2\n# gap\n5,0.25\n9,0.2\n20,1/8\n28,0.1\n"


def test_from_table_and_parse_constraint_give_same_array():
    c = TailConstraint.from_table(5, 3, GAPPED_ROWS)
    parsed = parse_constraint(GAPPED_TEXT)
    assert np.array_equal(parsed.ms, c.ms) and np.array_equal(parsed.values, c.values)
    assert c.ms.dtype == np.int64 and c.values.dtype == np.float64 and c.m_max == 28
    assert c.ms.tolist() == list(GAPPED_ROWS) and c.values.tolist() == list(GAPPED_ROWS.values())
    assert c.bounds_at(np.arange(1, 5)).tolist() == [1.0, 0.5, 0.5, 0.5]
    assert c.bounds_at(np.arange(20, 29)).tolist() == [0.125] * 8 + [0.1]
    assert c.bounds_at(29) == 0.1
    assert c.bounds_at(np.array([27, 28, 29, 1000])).tolist() == [0.125, 0.1, 0.1, 0.1]


def test_monotonicity_tolerance():
    assert TailConstraint.from_table(3, 2, {1: 0.5, 2: 0.5 + 1e-16}).bounds_at(2) == 0.5 + 1e-16
    with pytest.raises(ParameterError, match="from m=1 .* to m=2"):
        TailConstraint.from_table(3, 2, {1: 0.5, 2: 0.5 + 1e-12})


@pytest.mark.parametrize("L,k", [(3, 2), (5, 3), (6, 6), (12, 3)])
def test_reciprocal_bounds_are_one_over_m_plus_one(L, k):
    c = TailConstraint.reciprocal(L, k)
    assert c.ms.tolist() == list(range(1, c.m_max + 1))
    assert c.bounds_at(c.ms).tolist() == [1.0 / (m + 1) for m in range(1, c.m_max + 1)]


def test_constraint_serialize_parse_roundtrip_is_exact():
    recip = TailConstraint.reciprocal(12, 3)
    parsed = parse_constraint(serialize_constraint(recip))
    assert np.array_equal(parsed.ms, recip.ms) and np.array_equal(parsed.values, recip.values)
    rows = {1: 0.3, 4: 0.7, 7: 0.1, 19: 0.9, 28: 1 / 3}
    rising = TailConstraint(5, 3, list(rows), list(rows.values()))
    text = serialize_constraint(rising)
    with pytest.raises(ParameterError, match="increases"):
        parse_constraint(text)


def reference_parse_constraint(text_lines: list[str]) -> TailConstraint:
    """The constraint parsed one line at a time, each error naming its line.

    A transcription of the former codegen._parse_constraint_lines, which
    read the headers and the rows in one walk; parse_constraint must give
    the same rows or the same message for every text.
    """
    header: dict[str, int] = {}
    given: dict[int, float] = {}
    lines: dict[str | int, int] = {}  # the line of each header and of each row's m
    m_max = None
    for lineno, line in format_lines(text_lines, codegen.CONSTRAINT_FORMAT):
        key, _, value = line.partition("=")
        if key in ("L", "k"):
            reject_repeat(lines, key, lineno, "{}= header")
            try:
                header[key] = int(value)
            except ValueError:
                raise ParameterError(f"line {lineno}: bad header {line!r}") from None
            continue
        if m_max is None:
            if len(header) < 2:
                raise ParameterError(f"line {lineno}: rows before L=/k= headers")
            _, m_max = distortion_range(WordSpec(header["L"], SYMMETRIC), header["k"])
        m_text, _, bound_text = line.partition(",")
        try:
            m = int(m_text)
            bound = reference_bound(bound_text.strip())
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"line {lineno}: bad row {line!r}") from None
        reject_repeat(lines, m, lineno, "bound for m={}")
        if not 1 <= m <= m_max:
            raise ParameterError(f"line {lineno}: m={m} outside [1, {m_max}]")
        if not 0.0 <= bound <= 1.0:
            raise ParameterError(f"line {lineno}: bound {bound_text} outside [0, 1]")
        given[m] = bound
    if len(header) < 2:
        raise ParameterError("constraint file missing format/L/k headers")
    rows = sorted(given.items())
    for (below, low), (m, high) in zip(rows, rows[1:]):
        if high > low + 1e-15:
            raise ParameterError(
                f"line {lines[m]}: bound at m={m} ({high}) increases from "
                f"m={below} ({low}) at line {lines[below]}"
            )
    return TailConstraint.from_table(header["L"], header["k"], given)


def reference_bound(text: str) -> float:
    return float(Fraction(text)) if "/" in text else float(text)


def constraint_outcome(parse, source):
    try:
        c = parse(source)
        return c.ms.tolist(), c.values.tolist()
    except ParameterError as exc:
        return str(exc)


@pytest.fixture
def row_walks(monkeypatch):
    """The number of times parse_constraint has fallen back to its row walk."""
    walks = []
    walk = codegen._parse_constraint_rows
    monkeypatch.setattr(codegen, "_parse_constraint_rows", lambda *args: walks.append(1) or walk(*args))
    return walks


def test_parse_constraint_row_block_read_as_arrays_or_by_line_gives_same_bounds(row_walks):
    plain = serialize_constraint(TailConstraint.reciprocal(12, 3))
    expected = constraint_outcome(parse_constraint, plain)
    assert not row_walks  # a plain reciprocal file is one loadtxt read
    lines = plain.splitlines()
    commented = "\n".join(lines[:50] + ["# a comment among the rows"] + lines[50:]) + "\n"
    crlf = plain.replace("\n", "\r\n")
    for text, walked in ((commented, 1), (crlf, 0), (plain.replace("2,0.3333333333333333", "2,1/3"), 1)):
        del row_walks[:]
        assert constraint_outcome(parse_constraint, text) == expected
        assert len(row_walks) == walked


@pytest.mark.parametrize("rows", [
    " 1 , 0.5 \n2,0.25", "+1,0.5\n02,.25", "1,5e-1\n6,-0.0", "1,0.5\n\n\n3,0.5", "1,0.5\n   \n3,0.5",
    "1.0,0.5", "1e0,0.5", "1,nan", "1,inf", "1,-1e-300", "1,0.5,", "1,0.5,0.2", "1", "1,", ",0.5",
    "1_0,0.5", "1,0_5", "\u0661,0.5", "99999999999999999999,0.5", "1,0x1", "1,0.5\r\n2,0.25\r\n",
    "1,0.5\x0c2,0.25", "6,0.5\n1,0.75", "1,0.5\n1,0.5", "1,0.25\n2,0.5", "1,0.5\nL=3",
])
def test_parse_constraint_matches_line_by_line_parse(rows):
    text = f"format=vdb-constraint-v1\nL=3\nk=2\n{rows}\n"
    reference = constraint_outcome(reference_parse_constraint, text.splitlines())
    assert constraint_outcome(parse_constraint, text) == reference


def random_constraint_line(rng, m_max: int) -> str:
    """One line of a constraint text: mostly a row, sometimes a header, a comment, a blank or junk."""
    kind = rng.random()
    if kind < 0.08:
        return f"{rng.choice(['L', 'k'])}={rng.choice(['3', '2', '4', 'x', '', '3.0', '30', '-1', ' 3'])}"
    if kind < 0.13:
        return str(rng.choice(["# note", "", "   ", "#", "format=vdb-constraint-v1", "m,F", '"1",0.5', "1;0.5"]))
    m = str(int(rng.integers(-1, m_max + 3)))
    if kind < 0.16:
        m = str(rng.choice(["99999999999999999999", "-99999999999999999999", "1_0", "1.0", "\u0661", " 2 "]))
    bound = rng.random()
    text = str(rng.choice([repr(bound), f"{bound:.2f}", f"{int(rng.integers(0, 9))}/{int(rng.integers(0, 9))}",
                           "nan", "1.5", "-0.0", "1e-1", " 0.5 ", "", "0.5,0.1"]))
    return f"{m},{text}"


def test_parse_constraint_matches_the_line_walk_on_random_texts():
    # 3000 seeded texts at (3, 2): headers among rows, repeats, comments, CR/CRLF, fractions,
    # m beyond int64, bad headers and a missing format line.  Each gives the reference's rows or message.
    rng = np.random.default_rng(32)
    outcomes = set()
    for _ in range(3000):
        lines = [] if rng.random() < 0.05 else ["format=vdb-constraint-v1"]
        if rng.random() < 0.3:
            lines.insert(0, str(rng.choice(["# budget", "", "L=3"])))
        headers = ["L=3", "k=2"] if rng.random() < 0.85 else [random_constraint_line(rng, 6) for _ in range(2)]
        lines += headers
        if rng.random() < 0.5:
            ms = np.sort(rng.choice(np.arange(1, 7), int(rng.integers(1, 7)), replace=False))
            lines += [f"{m},{v!r}" for m, v in zip(ms.tolist(), np.sort(rng.random(ms.size))[::-1].tolist())]
        lines += [random_constraint_line(rng, 6) for _ in range(int(rng.integers(0, 4)))]
        text = str(rng.choice(["\n", "\r\n", "\r"])).join(lines) + str(rng.choice(["\n", ""]))
        reference = constraint_outcome(reference_parse_constraint, text.splitlines())
        assert constraint_outcome(parse_constraint, text) == reference, text
        outcomes.add(reference if isinstance(reference, str) else "rows")
    assert "rows" in outcomes and len(outcomes) > 50  # both accepted texts and many distinct messages


def test_constraint_bounds_are_read_only():
    c = TailConstraint.from_table(3, 2, EXAMPLE_BOUNDS)
    for column in (c.ms, c.values):
        with pytest.raises(ValueError):
            column[0] = 0
    given_ms, given_values = np.arange(1, 7), np.full(6, 0.5)
    c = TailConstraint(3, 2, given_ms, given_values)
    given_ms[0], given_values[0] = 2, 0.0
    assert given_ms.flags.writeable and given_values.flags.writeable
    assert c.ms[0] == 1 and c.values[0] == 0.5


def test_constraint_array_validation():
    with pytest.raises(ParameterError, match="one bound per row"):
        TailConstraint(3, 2, np.arange(1, 7), np.full(5, 0.5))
    with pytest.raises(ParameterError, match="one bound per row"):
        TailConstraint(3, 2, np.arange(1, 3), [[0.5, 0.5]])
    with pytest.raises(ParameterError, match="constraint m must be an int, got \\[1, 2\\]"):
        TailConstraint(3, 2, [[1, 2]], [[0.5, 0.5]])
    with pytest.raises(ParameterError, match="m=3"):
        TailConstraint(3, 2, np.arange(1, 7), [1.0, 0.5, np.nan, 0.5, 0.5, 0.5])
    with pytest.raises(ParameterError, match="m=3 is -0.1, outside \\[0, 1\\]"):
        TailConstraint(3, 2, [1, 3], [0.5, -0.1])
    with pytest.raises(ParameterError, match="constraint m must be in \\[1, 6\\], got 7"):
        TailConstraint(3, 2, [1, 7], [0.5, 0.5])
    with pytest.raises(ParameterError, match="constraint m must be in \\[1, 6\\], got 0"):
        TailConstraint(3, 2, [0, 1], [0.5, 0.5])
    for ms in ([1, 1], [2, 1]):
        with pytest.raises(ParameterError, match="strictly ascending"):
            TailConstraint(3, 2, ms, [0.5, 0.5])
    with pytest.raises(ParameterError, match="constraint m must be in \\[1, 6\\], got 9"):
        TailConstraint.from_table(3, 2, {9: 0.5})
    # the int64 conversion read 1.5 as m=1 and "1" and True as m=1
    for ms, shown in (([1.5], "1.5"), (["1"], "'1'"), ([True], "True"), (np.array([True]), "True")):
        with pytest.raises(ParameterError, match=f"^constraint m must be an int, got {shown}$"):
            TailConstraint(3, 2, ms, [0.5])
    assert TailConstraint(3, 2, [], []).ms.size == 0


def step_fill_reference(m_max, ms, values, refuse_rise=True):
    """F(1)..F(m_max) as a dense array, the way a budget was held before it kept only its rows.

    A transcription of the former codegen._step_fill: a gap takes the value
    of the nearest row below it, 1.0 before the first row, and (with
    refuse_rise) a rise of more than 1e-15 from one m to the next is an
    error.  A budget built directly from its dense array could rise.
    """
    outside = ms[(ms < 1) | (ms > m_max)]
    if outside.size:
        raise ParameterError(f"constraint m={outside[0]} outside [1, {m_max}]")
    order = np.argsort(ms)
    below = np.searchsorted(ms[order], np.arange(1, m_max + 1), side="right")
    filled = np.concatenate(([1.0], values[order]))[below]
    rises = np.flatnonzero(filled[1:] > filled[:-1] + 1e-15)
    if refuse_rise and rises.size:
        m = int(rises[0]) + 1
        raise ParameterError(f"bound increases from m={m} ({filled[m - 1]}) to m={m + 1} ({filled[m]})")
    return filled


def test_bounds_at_equals_the_dense_step_fill_at_every_m():
    # 300 seeded budgets at (3, 2)..(12, 3): a random subset of the rows,
    # falling (ties included) and given as a dict in shuffled order, and the
    # same rows in drawn order built directly, which may rise.  Every m in
    # 1..2*m_max reads the dense array's F(min(m, m_max)).
    rng = np.random.default_rng(29)
    for _ in range(300):
        L, k = int(rng.integers(3, 13)), int(rng.integers(2, 4))
        m_max = TailConstraint.reciprocal(L, k).m_max
        n = int(rng.integers(0, m_max + 1))
        ms = np.sort(rng.choice(np.arange(1, m_max + 1), n, replace=False))
        drawn = rng.random(n)
        if rng.random() < 0.5:
            drawn = np.round(drawn, 1)
        falling = np.sort(drawn)[::-1]
        shuffled = rng.permutation(n)
        table = dict(zip(ms[shuffled].tolist(), falling[shuffled].tolist()))
        m = np.arange(1, 2 * m_max + 1)
        for c, dense in (
            (TailConstraint.from_table(L, k, table), step_fill_reference(m_max, ms, falling)),
            (TailConstraint(L, k, ms, drawn), step_fill_reference(m_max, ms, drawn, refuse_rise=False)),
        ):
            assert c.m_max == m_max and c.ms.tolist() == ms.tolist()
            assert np.array_equal(c.bounds_at(m), dense[np.minimum(m, m_max) - 1])
            assert [c.bounds_at(v) for v in (1, m_max, 2 * m_max)] == [dense[0], dense[-1], dense[-1]]


def test_constraint_rows_refuse_what_the_dense_array_refused(row_walks):
    # from_table and both parse paths still refuse a bound outside [0, 1],
    # an m outside [1, m_max], a repeated m (parse only) and a rise
    # (the row walk names the line of an m outside the range, from_table its value)
    for rows, message, parse_message in [
        ({1: 1.5}, "outside \\[0, 1\\]", "outside \\[0, 1\\]"),
        ({2: 0.5, 9: 0.2}, "constraint m must be in \\[1, 6\\], got 9", "line 5: m=9 outside"),
        ({1: 0.2, 4: 0.5}, "increases", "increases"),
    ]:
        with pytest.raises(ParameterError, match=message):
            TailConstraint.from_table(3, 2, rows)
        text = "format=vdb-constraint-v1\nL=3\nk=2\n" + "".join(f"{m},{v}\n" for m, v in rows.items())
        with pytest.raises(ParameterError, match=parse_message):
            parse_constraint(text)
    repeated = "format=vdb-constraint-v1\nL=3\nk=2\n2,0.5\n2,0.5\n"
    with pytest.raises(ParameterError, match="line 5: duplicate bound for m=2"):
        parse_constraint(repeated)
    assert len(row_walks) == 4  # loadtxt reads each block, the checks refuse it, and the walk names the line


def test_three_row_budget_at_24_3_parses_in_under_1_mb():
    # A dense array over m = 1..m_max would be 14.7 M floats (118 MB) here.
    text = "format=vdb-constraint-v1\nL=24\nk=3\n1,0.5\n64,0.05\n4096,0.001\n"
    tracemalloc.start()
    try:
        c = parse_constraint(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert c.m_max == 7 << 21 and c.ms.tolist() == [1, 64, 4096]
    assert c.bounds_at(np.array([1, 63, 64, 4095, 4096, c.m_max])).tolist() == [0.5, 0.5, 0.05, 0.05, 0.001, 0.001]
    assert serialize_constraint(c) == text


def test_rise_across_a_gap_names_the_row_below():
    # the row below m=4096 is m=64, not m=4095
    with pytest.raises(ParameterError) as info:
        TailConstraint.from_table(20, 3, {1: 0.5, 64: 0.05, 4096: 0.1})
    assert str(info.value) == "bound increases from m=64 (0.05) to m=4096 (0.1)"


@pytest.mark.parametrize("m,build", [
    (2**70, lambda m: TailConstraint.from_table(3, 2, {m: 0.5})),
    (-(2**70), lambda m: TailConstraint.from_table(3, 2, {1: 0.5, m: 0.25})),
    (2**63, lambda m: TailConstraint.from_table(3, 2, {np.uint64(m): 0.5})),
    (2**70, lambda m: TailConstraint(3, 2, [m], [0.5])),
    (2**63, lambda m: TailConstraint(3, 2, np.array([m], dtype=np.uint64), [0.5])),
], ids=["from_table", "from_table-negative", "from_table-uint64", "list", "uint64-array"])
def test_m_beyond_int64_is_outside_the_range(m, build):
    # no overflow out of the int64 conversion, no "must be ints" for Python
    # ints and no uint64 m wrapped to a negative one
    with pytest.raises(ParameterError) as info:
        build(m)
    assert str(info.value) == f"constraint m must be in [1, 6], got {m}"


@pytest.mark.parametrize("key", [1.5, "1", True, 2.0, None])
def test_from_table_rejects_keys_that_are_not_ints(key):
    # the int64 conversion read 1.5 as m=1 and "1" as m=1
    with pytest.raises(ParameterError, match=f"^constraint m must be an int, got {re.escape(repr(key))}$"):
        TailConstraint.from_table(3, 2, {key: 0.5, 3: 0.25})


def test_from_table_takes_numpy_int_keys():
    c = TailConstraint.from_table(3, 2, {np.int64(3): 0.25, 1: 0.5})
    assert c.ms.tolist() == [1, 3] and c.values.tolist() == [0.5, 0.25]


def test_monotonicity_error_names_both_lines_briefly():
    lines = serialize_constraint(TailConstraint.reciprocal(12, 3)).splitlines()
    assert lines[100] == "98,0.010101010101010102"
    lines[100] = "98,0.9"
    with pytest.raises(ParameterError) as info:
        parse_constraint("\n".join(lines))
    message = str(info.value)
    assert message.startswith("line 101:") and "m=97" in message and "line 100" in message
    assert len(message) < 300
    gapped = "format=vdb-constraint-v1\nL=3\nk=2\n1,0.2\n# gap\n4,0.5\n"
    with pytest.raises(ParameterError, match="line 6: .* m=1 .* line 4"):
        parse_constraint(gapped)


def test_parse_constraint_rejects_m_outside_range_on_its_line():
    with pytest.raises(ParameterError, match="line 5: m=7 outside"):
        parse_constraint("format=vdb-constraint-v1\nL=3\nk=2\n1,0.5\n7,0.25\n")
    with pytest.raises(ParameterError, match="line 4: m=0 outside"):
        parse_constraint("format=vdb-constraint-v1\nL=3\nk=2\n0,0.5\n")


def test_parse_constraint_rejects_repeated_header():
    with pytest.raises(ParameterError, match="line 5: duplicate L= header \\(first at line 2\\)"):
        parse_constraint("format=vdb-constraint-v1\nL=3\nk=2\n1,0.5\nL=4\n")
    with pytest.raises(ParameterError, match="line 4: duplicate k= header \\(first at line 3\\)"):
        parse_constraint("format=vdb-constraint-v1\nL=3\nk=2\nk=2\n1,0.5\n")


# ---------------------------------------------------------------------------
# CodeTable file format


def test_table_roundtrip_iid(tmp_path):
    table = CodeTable.iid(3, 2, 0.2180625, {"margins": {2: 0.25, 1: 0.5}})
    path = tmp_path / "t.txt"
    path.write_text(serialize_table(table))
    assert path.read_text().endswith("\n# margin m=1: 0.5\n# margin m=2: 0.25\n")
    loaded = load_table(path)
    assert loaded.mode == "iid" and loaded.p == 0.2180625 and (loaded.L, loaded.k) == (3, 2)


def test_table_roundtrip_perbit(tmp_path):
    table = CodeTable.perbit(3, 2, REFERENCE_PERBIT)
    path = tmp_path / "t.txt"
    path.write_text(serialize_table(table))
    assert load_table(path).p_vec == REFERENCE_PERBIT


def test_parse_table_errors():
    with pytest.raises(ParameterError):
        parse_table("format=vdb-table-v1\nL=3\nk=2\nmode=iid\n")  # missing p
    with pytest.raises(ParameterError):
        parse_table("format=vdb-table-v1\nL=3\nk=2\nmode=perbit\np_0=0.1\n")
    with pytest.raises(ParameterError):
        parse_table("format=nope\n")
    with pytest.raises(ParameterError, match="line 2: bad line 'L=three'"):
        parse_table("format=vdb-table-v1\nL=three\nk=2\nmode=iid\np=0.1\n")
    with pytest.raises(ParameterError, match="line 3: bad line 'k=2.5'"):
        parse_table("format=vdb-table-v1\nL=3\nk=2.5\nmode=iid\np=0.1\n")
    with pytest.raises(ParameterError, match="unknown mode 'both'"):
        parse_table("format=vdb-table-v1\nL=3\nk=2\nmode=both\np=0.1\n")
    with pytest.raises(ParameterError, match="missing header 'mode'"):
        parse_table("format=vdb-table-v1\nL=3\nk=2\np=0.1\n")


@pytest.mark.parametrize("L", ["2000000", str(1 << 63), "-1", "0"])
def test_perbit_table_checks_the_word_length_before_sizing_a_list(L):
    # L=2000000 built an 80 MB range list and then asked for p_0..p_1999999 lines,
    # and L >= 2**63 raised OverflowError
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=f"^word_length must be in \\[1, 24\\], got {L}$"):
            parse_table(f"format=vdb-table-v1\nL={L}\nk=2\nmode=perbit\np_0=0.1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ParameterError, match="^perbit table needs p_0..p_2 lines$"):
        parse_table("format=vdb-table-v1\nL=3\nk=2\nmode=perbit\np_0=0.1\n")


@pytest.mark.parametrize("mode,lines,stray", [
    ("iid", ["p=0.1", "p_0=0.9", "p_1=0.9", "p_2=0.9"], "line 6: p_0= line"),
    ("perbit", ["p_0=0.1", "p_1=0.2", "p_2=0.3", "p=0.9"], "line 8: p= line"),
], ids=["iid", "perbit"])
def test_parse_table_rejects_the_other_modes_lines(mode, lines, stray):
    # such a line was dropped, whichever mode the table named
    text = "\n".join(["format=vdb-table-v1", "L=3", "k=2", f"mode={mode}"] + lines) + "\n"
    with pytest.raises(ParameterError, match=f"{stray} in a mode={mode} table"):
        parse_table(text)


def test_parse_table_rejects_repeated_lines():
    with pytest.raises(ParameterError, match="line 6: duplicate p= line \\(first at line 5\\)"):
        parse_table("format=vdb-table-v1\nL=3\nk=2\nmode=iid\np=0.1\np=0.2\n")
    perbit = "format=vdb-table-v1\nL=3\nk=2\nmode=perbit\np_0=0.1\np_1=0.2\np_2=0.3\n"
    assert parse_table(perbit).p_vec == (0.1, 0.2, 0.3)
    with pytest.raises(ParameterError, match="line 8: duplicate p_1= line \\(first at line 6\\)"):
        parse_table(perbit + "p_01=0.9\n")


def test_code_table_validation():
    with pytest.raises(ParameterError):
        CodeTable.iid(3, 2, 1.5)
    with pytest.raises(ParameterError):
        CodeTable.perbit(3, 2, (0.1, 0.2))  # wrong arity
    with pytest.raises(ParameterError, match="k must be in \\[1, 2\\], got 5"):
        parse_table("format=vdb-table-v1\nL=2\nk=5\nmode=perbit\np_0=0.1\np_1=0.2\n")
    with pytest.raises(ParameterError, match="word_length must be in \\[1, 24\\], got 30"):
        CodeTable.iid(30, 3, 0.1)
    with pytest.raises(ParameterError, match="unknown table mode 'both'"):
        CodeTable("both", 3, 2, (0.1,) * 3)
    with pytest.raises(ParameterError, match="p is only defined for iid tables"):
        CodeTable.perbit(3, 2, REFERENCE_PERBIT).p
