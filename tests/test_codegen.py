from itertools import permutations

import numpy as np
import pytest

from vdbcode import (
    CodeTable,
    ParameterError,
    SolverOptions,
    TailConstraint,
    constraint_lhs,
    sets_fast,
    solve_iid,
    solve_perbit,
    verify_table,
)
from vdbcode.codegen import (
    _constraint_index,
    _parse_constraint_arrays,
    _parse_constraint_lines,
    _coordinate_limit,
    _lhs,
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
    import math

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
    keys, bounds, m_idx = _constraint_index(sets, c)
    assert keys.tolist() == sorted(sets.sets)
    assert np.array_equal(keys[m_idx], sets.ms)
    assert bounds.tolist() == [c.bounds[m - 1] for m in keys.tolist()]
    rng = np.random.default_rng(L * 10 + k)
    for _ in range(4):
        p_vec = rng.random(L)
        lhs = _lhs(sets, m_idx, p_vec)
        for j, m in enumerate(keys.tolist()):
            assert abs(lhs[j] - constraint_lhs(sets.sets[m], p_vec, L)) <= 1e-12
    if (L, k) == (3, 1):
        # binning the rows by m itself gives S_3, which has no pairs, an lhs of 0
        assert 3 not in keys and _lhs(sets, sets.ms, p_vec)[3] == 0.0


def _bisection_limit(sets, c, p_vec, i, tol):
    """The per-coordinate step as bisection against constraint_lhs."""
    def feasible(v):
        trial = list(p_vec)
        trial[i] = v
        return all(constraint_lhs(s, trial, sets.L) <= c.bounds[m - 1] for m, s in sets.sets.items())

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
    keys, bounds, m_idx = _constraint_index(sets, c)
    tol = SolverOptions().tol
    p_vec = np.full(L, 0.5 * solve_iid(sets, c).p)
    for i in range(L):
        limit, _ = _coordinate_limit(sets, keys, bounds, m_idx, p_vec, i)
        lo = _bisection_limit(sets, c, p_vec, i, tol)
        assert lo <= limit <= lo + tol


@pytest.mark.parametrize("target", [0.0315, 0.0325, 0.3205])
def test_solve_iid_grid_block_edges(example_sets, target):
    # only S_1 (mass p(1-p), rising below 1/2) binds, at exactly `target`;
    # the first infeasible grid point is the last point of the first scan
    # block, the first point of the second, and the first of the eleventh
    sets = example_sets
    p1 = constraint_lhs(sets.sets[1], [target] * 3)
    c = TailConstraint.from_table(3, 2, {1: p1, 2: 1.0}, allow_nonmonotone=True)
    opts = SolverOptions()
    table = solve_iid(sets, c, opts)
    hi = table.metadata["first_infeasible_p"]
    assert table.p <= target <= hi and hi - table.p <= opts.tol


# ---------------------------------------------------------------------------
# solve_iid


def test_solve_iid_worked_example(example_sets, example_constraint):
    table = solve_iid(example_sets, example_constraint)
    assert table.p == pytest.approx(0.2180, abs=1e-3)
    assert table.mode == "iid"
    assert verify_table(example_sets, example_constraint, table).passed


def test_solve_iid_vacuous_constraint(example_sets):
    ones = TailConstraint.from_table(3, 2, {m: 1.0 for m in range(1, 7)})
    assert solve_iid(example_sets, ones).p == 1.0


def test_solve_iid_zero_bound(example_sets):
    zero = TailConstraint.from_table(3, 2, {1: 0.0})
    assert solve_iid(example_sets, zero).p == 0.0


def test_solve_iid_maximality_certificate(example_sets, example_constraint):
    opts = SolverOptions()
    table = solve_iid(example_sets, example_constraint, opts)
    hi = table.metadata["first_infeasible_p"]
    assert hi is not None and hi - table.p <= 4 * opts.tol
    bumped = CodeTable.iid(3, 2, hi)
    assert not verify_table(example_sets, example_constraint, bumped).passed


def test_solve_iid_maximality_randomized():
    rng = np.random.default_rng(11)
    ps = sets_fast(4, 2)
    opts = SolverOptions()
    for _ in range(10):
        bounds = {m: float(rng.uniform(0.05, 1.0)) for m in range(1, 13)}
        # enforce a nonincreasing staircase
        running = 1.0
        for m in sorted(bounds):
            running = min(running, bounds[m])
            bounds[m] = running
        c = TailConstraint.from_table(4, 2, bounds)
        table = solve_iid(ps, c, opts)
        assert verify_table(ps, c, table).passed
        hi = table.metadata["first_infeasible_p"]
        if table.p < 1.0:
            assert hi is not None and hi - table.p <= 4 * opts.tol
            assert not verify_table(ps, c, CodeTable.iid(4, 2, hi)).passed


@pytest.mark.parametrize("field,value", [
    ("tol", 0.0), ("tol", -1.0), ("tol", float("nan")), ("tol", float("inf")),
    ("grid_step", 0.0), ("grid_step", -0.1), ("grid_step", float("nan")), ("grid_step", 1.5),
])
def test_solver_options_reject_values_the_solvers_cannot_use(field, value):
    # tol <= 0 never ended the bisection; grid_step 0 divided by zero and
    # a negative step scanned an empty grid
    with pytest.raises(ParameterError, match=field):
        SolverOptions(**{field: value})


def test_solve_iid_deterministic(example_sets, example_constraint):
    a = solve_iid(example_sets, example_constraint)
    b = solve_iid(example_sets, example_constraint)
    assert a.p == b.p and a.metadata == b.metadata


def test_solve_iid_rejects_mismatched_dimensions(example_constraint):
    with pytest.raises(ParameterError):
        solve_iid(sets_fast(4, 2), example_constraint)


def test_solvers_handle_empty_placement_sets():
    # at L=3, k=1 no single flip produces m=3, so S_3 is empty and its
    # constraint is vacuous: it gets no margin
    sets = sets_fast(3, 1)
    assert 3 not in sets.sets
    c = TailConstraint.from_table(3, 1, {1: 0.3, 2: 0.3, 3: 0.0, 4: 0.3}, allow_nonmonotone=True)
    iid = solve_iid(sets, c)
    assert iid.p > 0  # the zero bound at the empty m=3 never binds
    perbit = solve_perbit(sets, c)
    report = verify_table(sets, c, perbit)
    assert report.passed and sorted(report.margins) == [1, 2, 4]


# ---------------------------------------------------------------------------
# solve_perbit


def test_reference_perbit_point_is_feasible(example_sets, example_constraint):
    table = CodeTable.perbit(3, 2, REFERENCE_PERBIT)
    report = verify_table(example_sets, example_constraint, table)
    assert report.passed
    assert report.worst >= -1e-3


def test_solve_perbit_feasible_and_certified(example_sets, example_constraint):
    table = solve_perbit(example_sets, example_constraint)
    assert verify_table(example_sets, example_constraint, table).passed
    assert all(c in ("blocked", "at-domain-boundary") for c in table.metadata["certificate"])


def test_solve_perbit_dominates_iid(example_sets, example_constraint):
    opts = SolverOptions()
    iid = solve_iid(example_sets, example_constraint, opts)
    perbit = solve_perbit(example_sets, example_constraint, opts)
    assert all(p >= iid.p - opts.tol for p in perbit.p_vec)


def test_solve_perbit_local_maximality(example_sets, example_constraint):
    opts = SolverOptions()
    table = solve_perbit(example_sets, example_constraint, opts)
    for i, p in enumerate(table.p_vec):
        if p >= 1.0:
            continue
        bumped = list(table.p_vec)
        bumped[i] = min(1.0, p + 4 * opts.tol)
        assert not verify_table(example_sets, example_constraint, CodeTable.perbit(3, 2, bumped)).passed


def _assert_binding_blocks(sets, c, table, tol):
    binding = table.metadata["binding"]
    assert len(binding) == sets.L
    for i, (p, m) in enumerate(zip(table.p_vec, binding)):
        if p >= 1.0:
            assert m is None
            continue
        bumped = list(table.p_vec)
        bumped[i] = p + 4 * tol
        assert verify_table(sets, c, CodeTable.perbit(sets.L, sets.k, bumped)).margins[m] < 0


def test_solve_perbit_binding_example(example_sets, example_constraint):
    opts = SolverOptions()
    table = solve_perbit(example_sets, example_constraint, opts)
    _assert_binding_blocks(example_sets, example_constraint, table, opts.tol)


def test_solve_perbit_binding_seeded_budget():
    rng = np.random.default_rng(2024)
    L = 5
    sets = sets_fast(L, L)
    m = np.arange(1, max(sets.sets) + 1)
    f = np.minimum.accumulate(0.8 / (m + 1.0) * rng.uniform(0.9, 1.1, m.size))
    c = TailConstraint.from_table(L, L, {int(i): float(v) for i, v in zip(m, f)})
    opts = SolverOptions()
    table = solve_perbit(sets, c, opts)
    assert all(b is not None for b in table.metadata["binding"])
    _assert_binding_blocks(sets, c, table, opts.tol)


def test_solve_perbit_binding_none_at_domain_boundary(example_sets):
    ones = TailConstraint.from_table(3, 2, {m: 1.0 for m in range(1, 7)})
    table = solve_perbit(example_sets, ones)
    assert table.p_vec == (1.0, 1.0, 1.0)
    assert table.metadata["binding"] == (None, None, None)


def test_solve_perbit_zero_bounds(sets_l3k3):
    zero = TailConstraint.from_table(3, 3, {1: 0.0})
    table = solve_perbit(sets_l3k3, zero)
    assert table.p_vec == (0.0, 0.0, 0.0)


def test_solve_perbit_deterministic(example_sets, example_constraint):
    a = solve_perbit(example_sets, example_constraint)
    b = solve_perbit(example_sets, example_constraint)
    assert a.p_vec == b.p_vec


def test_reported_l3k3_point_feasible_in_some_order(sets_l3k3, reciprocal_constraint):
    feasible = [
        perm
        for perm in permutations((0.25, 0.44, 0.31))
        if verify_table(sets_l3k3, reciprocal_constraint, CodeTable.perbit(3, 3, perm)).passed
    ]
    assert feasible  # at least one bit-order assignment satisfies the bound


# ---------------------------------------------------------------------------
# verify_table


def test_verify_reference_iid_point(example_sets, example_constraint):
    report = verify_table(example_sets, example_constraint, CodeTable.iid(3, 2, 0.2180))
    assert report.passed and all(v >= 0 for v in report.margins.values())


def test_verify_half_fails(example_sets, example_constraint):
    report = verify_table(example_sets, example_constraint, CodeTable.iid(3, 2, 0.5))
    assert not report.passed
    assert report.margins[5] < 0  # p^2(1-p) = 0.125 > 2/30


def test_verify_zero_table_margins_equal_bounds(example_sets, example_constraint):
    report = verify_table(example_sets, example_constraint, CodeTable.iid(3, 2, 0.0))
    assert report.passed
    for m, margin in report.margins.items():
        assert margin == pytest.approx(EXAMPLE_BOUNDS[m])


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
    c = TailConstraint.from_table(3, 2, {1: 0.2, 2: 0.5}, allow_nonmonotone=True)
    assert c.bounds[2 - 1] == 0.5


def test_constraint_gap_inheritance():
    c = TailConstraint.from_table(3, 2, {2: 0.5, 5: 0.25})
    assert c.bounds.tolist() == [1.0, 0.5, 0.5, 0.5, 0.25, 0.25]


def test_constraint_extension_beyond_range():
    c = TailConstraint.from_table(3, 2, EXAMPLE_BOUNDS)
    assert c.bounds_at(7) == EXAMPLE_BOUNDS[6]
    assert c.bounds_at(np.array([1, 6, 7, 100])).tolist() == [EXAMPLE_BOUNDS[1]] + [EXAMPLE_BOUNDS[6]] * 3


def test_parse_constraint_fractions_and_decimals():
    c = parse_constraint(
        "format=vdb-constraint-v1\nL=3\nk=2\n1,22/30\n2,0.25\n"
    )
    assert c.bounds[1 - 1] == pytest.approx(22 / 30)
    assert c.bounds[2 - 1] == 0.25
    assert c.bounds[6 - 1] == 0.25


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
    assert parse_constraint(text, allow_nonmonotone=True).bounds[2 - 1] == 0.9


def test_constraint_roundtrip(tmp_path, example_constraint):
    path = tmp_path / "c.txt"
    path.write_text(serialize_constraint(example_constraint))
    loaded = load_constraint(path)
    assert np.array_equal(loaded.bounds, example_constraint.bounds)


GAPPED_ROWS = {2: 0.5, 5: 0.25, 9: 0.2, 20: 0.125, 28: 0.1}
GAPPED_TEXT = "format=vdb-constraint-v1\nL=5\nk=3\n2,1/2\n# gap\n5,0.25\n9,0.2\n20,1/8\n28,0.1\n"


def test_from_table_and_parse_constraint_give_same_array():
    c = TailConstraint.from_table(5, 3, GAPPED_ROWS)
    parsed = parse_constraint(GAPPED_TEXT)
    assert np.array_equal(parsed.bounds, c.bounds)
    assert c.bounds.dtype == np.float64 and c.m_max == c.bounds.size == 28
    assert c.bounds[:4].tolist() == [1.0, 0.5, 0.5, 0.5]
    assert c.bounds[19:].tolist() == [0.125] * 8 + [0.1]
    assert c.bounds_at(29) == 0.1
    assert c.bounds_at(np.array([27, 28, 29, 1000])).tolist() == [0.125, 0.1, 0.1, 0.1]


def test_monotonicity_tolerance():
    assert TailConstraint.from_table(3, 2, {1: 0.5, 2: 0.5 + 1e-16}).bounds[1] == 0.5 + 1e-16
    with pytest.raises(ParameterError, match="from m=1 .* to m=2"):
        TailConstraint.from_table(3, 2, {1: 0.5, 2: 0.5 + 1e-12})


@pytest.mark.parametrize("L,k", [(3, 2), (5, 3), (6, 6), (12, 3)])
def test_reciprocal_bounds_are_one_over_m_plus_one(L, k):
    c = TailConstraint.reciprocal(L, k)
    assert c.bounds.tolist() == [1.0 / (m + 1) for m in range(1, c.m_max + 1)]


def test_constraint_serialize_parse_roundtrip_is_exact():
    recip = TailConstraint.reciprocal(12, 3)
    assert np.array_equal(parse_constraint(serialize_constraint(recip)).bounds, recip.bounds)
    rows = {1: 0.3, 4: 0.7, 7: 0.1, 19: 0.9, 28: 1 / 3}
    rising = TailConstraint.from_table(5, 3, rows, allow_nonmonotone=True)
    text = serialize_constraint(rising)
    with pytest.raises(ParameterError, match="increases"):
        parse_constraint(text)
    assert np.array_equal(parse_constraint(text, allow_nonmonotone=True).bounds, rising.bounds)


def test_parse_constraint_row_block_read_as_arrays_or_by_line_gives_same_bounds():
    plain = serialize_constraint(TailConstraint.reciprocal(12, 3))
    lines = plain.splitlines()
    commented = "\n".join(lines[:50] + ["# a comment among the rows"] + lines[50:]) + "\n"
    assert _parse_constraint_arrays(plain.splitlines(), False) is not None
    assert _parse_constraint_arrays(commented.splitlines(), False) is None
    crlf = plain.replace("\n", "\r\n")
    for text in (commented, crlf, plain.replace("2,0.3333333333333333", "2,1/3")):
        assert np.array_equal(parse_constraint(text).bounds, parse_constraint(plain).bounds)


def constraint_outcome(parse, source):
    try:
        return parse(source, allow_nonmonotone=False).bounds.tolist()
    except ParameterError as exc:
        return str(exc)


@pytest.mark.parametrize("rows", [
    " 1 , 0.5 \n2,0.25", "+1,0.5\n02,.25", "1,5e-1\n6,-0.0", "1,0.5\n\n\n3,0.5", "1,0.5\n   \n3,0.5",
    "1.0,0.5", "1e0,0.5", "1,nan", "1,inf", "1,-1e-300", "1,0.5,", "1,0.5,0.2", "1", "1,", ",0.5",
    "1_0,0.5", "1,0_5", "\u0661,0.5", "99999999999999999999,0.5", "1,0x1", "1,0.5\r\n2,0.25\r\n",
    "1,0.5\x0c2,0.25", "6,0.5\n1,0.75", "1,0.5\n1,0.5", "1,0.25\n2,0.5", "1,0.5\nL=3",
])
def test_parse_constraint_matches_line_by_line_parse(rows):
    text = f"format=vdb-constraint-v1\nL=3\nk=2\n{rows}\n"
    reference = constraint_outcome(_parse_constraint_lines, text.splitlines())
    assert constraint_outcome(parse_constraint, text) == reference
    fast = _parse_constraint_arrays(text.splitlines(), False)
    assert fast is None or fast.bounds.tolist() == reference


def test_constraint_bounds_are_read_only():
    c = TailConstraint.from_table(3, 2, EXAMPLE_BOUNDS)
    with pytest.raises(ValueError):
        c.bounds[0] = 0.0
    given = np.full(6, 0.5)
    c = TailConstraint(3, 2, given)
    given[0] = 0.0
    assert given.flags.writeable and c.bounds[0] == 0.5


def test_constraint_array_validation():
    with pytest.raises(ParameterError, match="F\\(1\\)..F\\(6\\)"):
        TailConstraint(3, 2, np.full(5, 0.5))
    with pytest.raises(ParameterError, match="m=3"):
        TailConstraint(3, 2, np.array([1.0, 0.5, np.nan, 0.5, 0.5, 0.5]))
    with pytest.raises(ParameterError, match="m=9 outside"):
        TailConstraint.from_table(3, 2, {9: 0.5})


@pytest.mark.parametrize("key", [1.5, "1", True, 2.0])
def test_from_table_rejects_keys_that_are_not_ints(key):
    # the int64 conversion read 1.5 as m=1 and "1" as m=1
    with pytest.raises(ParameterError, match=f"constraint m={key!r} is not an int"):
        TailConstraint.from_table(3, 2, {key: 0.5, 3: 0.25})


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
    table = CodeTable.iid(3, 2, 0.2180625)
    path = tmp_path / "t.txt"
    path.write_text(serialize_table(table, {1: 0.5, 2: 0.25}))
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
