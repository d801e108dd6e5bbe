import csv
import io
import itertools
import math

import numpy as np
import pytest

from vdbcode import (
    CodeTable,
    ParameterError,
    TailConstraint,
    analytic_single_error,
    constraint_lhs,
    exact_distortion,
    ingest_trace,
    placement_mass,
    sets_fast,
    simulate,
    tail_of,
)
from vdbcode.channel_sim import (
    DistortionDistribution,
    EmpiricalPMF,
    UpsetModel,
    format_distribution_csv,
    format_pmf_csv,
    load_pmf_csv,
    parse_pmf_csv,
    parse_upsets,
    serialize_upsets,
    check_against_constraint,
    single_error_oracle,
    _column_array,
)
from conftest import EXAMPLE_BOUNDS, bin_sigmas, law_bins, sidak_z


def flip_oracle(p_vec, value_probs):
    """Independent all-outcomes enumeration of the flip-channel f_M."""
    L = len(p_vec)
    out = {}
    for x in range(1 << L):
        if not value_probs[x]:
            continue
        for e in range(1 << L):
            prob = 1.0
            for i in range(L):
                prob *= p_vec[i] if (e >> i) & 1 else 1 - p_vec[i]
            m = abs(x - (x ^ e))
            out[m] = out.get(m, 0.0) + value_probs[x] * prob
    return out


# ---------------------------------------------------------------------------
# exact_distortion


def test_exact_distortion_no_errors_is_point_mass():
    d = exact_distortion(CodeTable.iid(3, 3, 0.0))
    assert d.mass == {0: 1.0}


def test_exact_distortion_matches_independent_oracle():
    table = CodeTable.iid(3, 3, 0.29)
    d = exact_distortion(table)
    oracle = flip_oracle(table.p_vec, [1 / 8] * 8)
    for m in range(8):
        assert d.at(m) == pytest.approx(oracle.get(m, 0.0), abs=1e-14)


def test_exact_distortion_perbit_and_nonuniform_values():
    table = CodeTable.perbit(3, 2, (0.4485, 0.4011, 0.2266))
    pmf = EmpiricalPMF(3, {0: 0.5, 5: 0.25, 7: 0.25})
    d = exact_distortion(table, pmf)
    oracle = flip_oracle(table.p_vec, pmf.to_array())
    for m in range(8):
        assert d.at(m) == pytest.approx(oracle.get(m, 0.0), abs=1e-14)


def test_exact_distortion_forced_full_masking():
    # forcing every bit to the value it already holds distorts nothing
    model = UpsetModel(3, (1.0, 1.0, 1.0), (1.0, 0.0, 1.0))
    d = exact_distortion(model, EmpiricalPMF.point_mass(3, 0b101))
    assert d.at(0) == pytest.approx(1.0)


def test_exact_distortion_forced_vs_manual():
    # one upset site forcing bit 0 high: uniform values flip half the time
    model = UpsetModel(3, (0.4, 0.0, 0.0), (1.0, 0.0, 0.0))
    d = exact_distortion(model, "uniform")
    assert d.at(1) == pytest.approx(0.2)
    assert d.at(0) == pytest.approx(0.8)


@pytest.mark.parametrize("values", ["uniform", EmpiricalPMF(4, {0: 0.5, 6: 0.3, 15: 0.2})])
def test_exact_distortion_flip_is_fair_forced_channel(values):
    # Flipping bit i with probability p_i is upsetting it with probability
    # 2 p_i toward a fair-coin target: half of the upsets are masked.  The
    # doubling and halving are exact in binary, so the laws are identical.
    p = (0.05, 0.5, 0.2, 0.0)
    flip = exact_distortion(CodeTable.perbit(4, 2, p), values)
    forced = exact_distortion(UpsetModel(4, tuple(2 * q for q in p), (0.5,) * 4), values)
    assert flip.mass == forced.mass


def test_exact_distortion_rejects_large_words():
    with pytest.raises(ParameterError):
        exact_distortion(CodeTable.iid(17, 2, 0.1))


def test_exact_distortion_rejects_a_pmf_of_another_word_length():
    with pytest.raises(ParameterError, match="PMF is 2-bit but table is 3-bit"):
        exact_distortion(CodeTable.iid(3, 2, 0.1), EmpiricalPMF.point_mass(2, 1))


# ---------------------------------------------------------------------------
# placement_mass vs constraint_lhs (dual routes to the same quantity)


@pytest.mark.parametrize("L,k", [(3, 2), (3, 3), (5, 2), (6, 4)])
def test_placement_mass_equals_constraint_lhs(L, k):
    rng = np.random.default_rng(L * 10 + k)
    ps = sets_fast(L, k)
    for _ in range(3):
        table = CodeTable.perbit(L, k, tuple(float(v) for v in rng.random(L)))
        pm = placement_mass(table)
        for m, s in ps.sets.items():
            assert abs(pm[m] - constraint_lhs(s, table.p_vec)) <= 1e-12


# ---------------------------------------------------------------------------
# simulate


def test_check_against_constraint_rows_extend_last_bound():
    # support reaches m=9 beyond m_max=6 of (3, 2): rows run to 9 and
    # every m > m_max is checked against F(6)
    c = TailConstraint.from_table(3, 2, EXAMPLE_BOUNDS)
    trials = 1000
    d = DistortionDistribution({0: 0.85, 2: 0.05, 9: 0.10}, "monte_carlo", trials=trials)
    columns, passed = check_against_constraint(d, c, trials)
    tails = tail_of(d)
    want = []
    for m in range(1, 10):
        bound = EXAMPLE_BOUNDS[min(m, 6)]
        slack = 3.0 * math.sqrt(bound * (1.0 - bound) / trials)
        mass, tail = d.at(m), tails[m]
        want.append((m, mass, tail, bound, slack, mass <= bound + slack, tail <= bound + slack))
    names = ("m", "mass", "tail", "bound", "slack", "mass_ok", "tail_ok")
    got = list(zip(*(getattr(columns, name).tolist() for name in names)))
    assert got == want
    assert not columns.mass_ok[8] and not columns.tail_ok[6]  # 0.10 > 2/30 + slack
    assert passed is False


def test_simulate_zero_table_trivially_passes(example_constraint):
    table = CodeTable.iid(3, 2, 0.0)
    result = simulate(table, example_constraint, 500, seed=1)
    assert result.passed
    assert result.distribution.mass == {0: 1.0}


def test_simulate_is_seed_deterministic(reciprocal_constraint):
    table = CodeTable.iid(3, 3, 0.29)
    a = simulate(table, reciprocal_constraint, 10_000, seed=5)
    b = simulate(table, reciprocal_constraint, 10_000, seed=5)
    assert a.distribution.mass == b.distribution.mass
    c = simulate(table, reciprocal_constraint, 10_000, seed=6)
    assert c.distribution.mass != a.distribution.mass


def test_simulate_converges_to_exact(reciprocal_constraint):
    table = CodeTable.iid(3, 3, 0.29)
    trials = 100_000
    result = simulate(table, reciprocal_constraint, trials, seed=0)
    exact = exact_distortion(table)
    for m in range(8):
        f = exact.at(m)
        slack = 4.0 * math.sqrt(f * (1 - f) / trials)
        assert abs(result.distribution.at(m) - f) <= slack


def test_simulate_perbit_table_matches_exact(example_constraint):
    table = CodeTable.perbit(3, 2, (0.4485, 0.4011, 0.2266))
    trials = 10_000
    result = simulate(table, example_constraint, trials, seed=2)
    bins = law_bins(result.distribution.mass, exact_distortion(table).mass, trials)
    assert max(bin_sigmas(bins, trials)) <= sidak_z(len(bins))


def test_simulate_cap_weight_never_exceeds_bound():
    # with the weight cap the distortion cannot leave the <=k range
    c = TailConstraint.from_table(4, 2, {m: 1.0 for m in range(1, 13)})
    table = CodeTable.iid(4, 2, 0.6)
    result = simulate(table, c, 20_000, seed=3, cap_weight=2)
    assert max(result.distribution.mass) <= 12
    uncapped = simulate(table, c, 20_000, seed=3)
    assert max(uncapped.distribution.mass) > 12


def test_simulate_cap_weight_at_word_length_is_uncapped():
    # a cap of L rejects nothing, so the same seed gives the same trials
    c = TailConstraint.from_table(4, 2, {m: 1.0 for m in range(1, 13)})
    table = CodeTable.iid(4, 2, 0.6)
    capped = simulate(table, c, 70_000, seed=8, cap_weight=4)
    uncapped = simulate(table, c, 70_000, seed=8)
    assert capped.distribution.mass == uncapped.distribution.mass


def capped_flip_oracle(p_vec, cap, value_probs):
    """Flip-channel f_M conditioned on <= cap flips, by a plain product per mask."""
    L = len(p_vec)
    joint = {}
    for e in range(1 << L):
        if bin(e).count("1") > cap:
            continue
        prob = 1.0
        for i in range(L):
            prob *= p_vec[i] if (e >> i) & 1 else 1 - p_vec[i]
        for x in range(1 << L):
            if value_probs[x]:
                m = abs(x - (x ^ e))
                joint[m] = joint.get(m, 0.0) + value_probs[x] * prob
    total = math.fsum(joint.values())
    return {m: v / total for m, v in joint.items() if v}


def test_simulate_cap_weight_matches_conditional_law():
    trials = 200_000
    spread = np.random.default_rng(12).random(64)
    spread[[0, 5, 17, 40, 41, 63]] = 0.0
    spread /= spread.sum()
    cases = [
        (CodeTable.perbit(4, 2, (0.5, 0.3, 0.6, 0.2)), 2, None),
        (
            CodeTable.perbit(6, 3, (0.45, 0.1, 0.35, 0.6, 0.25, 0.5)),
            3,
            EmpiricalPMF(6, {v: float(p) for v, p in enumerate(spread) if p}),
        ),
    ]
    bins = []
    for table, cap, pmf in cases:
        c = TailConstraint.from_table(table.L, table.k, {1: 1.0})
        source = "uniform" if pmf is None else pmf
        result = simulate(table, c, trials, seed=21, value_source=source, cap_weight=cap)
        values = (pmf or EmpiricalPMF.uniform(table.L)).to_array()
        exact = capped_flip_oracle(table.p_vec, cap, values)
        bins += law_bins(result.distribution.mass, exact, trials)
    assert max(bin_sigmas(bins, trials)) <= sidak_z(len(bins))


def test_simulate_rejects_impossible_weight_caps():
    c = TailConstraint.from_table(4, 2, {m: 1.0 for m in range(1, 13)})
    with pytest.raises(ParameterError, match="cap_weight"):
        simulate(CodeTable.iid(4, 2, 0.3), c, 100, seed=0, cap_weight=-1)
    # all p_i = 1: the only mask with mass has weight 4
    with pytest.raises(ParameterError, match="weight <= 2"):
        simulate(CodeTable.iid(4, 2, 1.0), c, 100, seed=0, cap_weight=2)
    # a cap of 4 admits that mask
    simulate(CodeTable.iid(4, 2, 1.0), c, 100, seed=0, cap_weight=4)


def test_simulate_empirical_value_source(reciprocal_constraint):
    pmf = EmpiricalPMF(3, {0: 0.9, 7: 0.1})
    table = CodeTable.iid(3, 3, 0.1)
    result = simulate(table, reciprocal_constraint, 50_000, seed=4, value_source=pmf)
    exact = exact_distortion(table, pmf)
    for m in range(8):
        f = exact.at(m)
        slack = 4.0 * math.sqrt(f * (1 - f) / 50_000) + 1e-3
        assert abs(result.distribution.at(m) - f) <= slack


def test_simulate_parameter_validation(reciprocal_constraint):
    table = CodeTable.iid(3, 3, 0.29)
    with pytest.raises(ParameterError):
        simulate(table, reciprocal_constraint, 0, seed=0)
    with pytest.raises(ParameterError):
        simulate(table, reciprocal_constraint, 10, seed=-1)
    with pytest.raises(ParameterError):
        simulate(CodeTable.iid(4, 2, 0.1), reciprocal_constraint, 10, seed=0)
    with pytest.raises(ParameterError, match="PMF is 4-bit but table is 3-bit"):
        simulate(table, reciprocal_constraint, 10, seed=0, value_source=EmpiricalPMF.uniform(4))



# ---------------------------------------------------------------------------
# simulate histograms across chunk boundaries


def capped_support(L, cap):
    """Every distortion |x - (x ^ e)| over all words x and masks e of weight <= cap."""
    masks = np.array([e for e in range(1 << L) if bin(e).count("1") <= cap])
    words = np.arange(1 << L)[:, None]
    return set(np.unique(np.abs(words - (words ^ masks))).tolist())


@pytest.mark.parametrize("L", [3, 8, 12])
@pytest.mark.parametrize("trials", [1, 65_535, 65_537, 200_000])
def test_simulate_histogram_counts_sum_to_trials_on_the_exact_support(L, trials):
    rng = np.random.default_rng(L)
    table = CodeTable.perbit(L, min(3, L), tuple(float(v) for v in rng.uniform(0.02, 0.4, L)))
    law = rng.random(1 << L) ** 3
    law[rng.random(law.size) < 0.3] = 0.0
    law /= law.sum()
    pmf = EmpiricalPMF(L, {v: float(q) for v, q in enumerate(law) if q})
    c = TailConstraint.from_table(L, table.k, {1: 1.0})
    for source, cap in (("uniform", None), (pmf, None), ("uniform", 2)):
        result = simulate(table, c, trials, seed=L + trials, value_source=source, cap_weight=cap)
        mass = result.distribution.mass
        counts = np.array(list(mass.values())) * trials
        assert np.allclose(counts, np.rint(counts), rtol=0, atol=1e-6)
        assert int(np.rint(counts).sum()) == trials
        if cap is None:
            exact = exact_distortion(table, source)
            assert all(exact.at(m) > 0 for m in mass)
        else:
            assert set(mass) <= capped_support(L, cap)
        again = simulate(table, c, trials, seed=L + trials, value_source=source, cap_weight=cap)
        assert again.distribution.mass == mass


# The counts `simulate` drew here when the multinomial sampler went in.  A change
# to the sampler or to numpy's multinomial stream moves them; so must GENERATOR_ID.
PINNED_COUNTS = {
    0: 33986, 1: 15760, 2: 8902, 3: 3421, 4: 3831, 5: 362,
    6: 927, 7: 290, 8: 1839, 9: 450, 10: 119, 12: 113,
}


def test_simulate_counts_are_pinned_for_a_seed():
    # Two chunks (65,536 + 4,464 trials); the value law's last value and, under the
    # cap, every mask above 0b0111 have mass zero, so both laws are trimmed.
    table = CodeTable.perbit(4, 4, (0.3, 0.2, 0.1, 0.05))
    pmf = EmpiricalPMF(4, {0: 0.25, 3: 0.125, 6: 0.25, 9: 0.125, 12: 0.25})
    c = TailConstraint.from_table(4, 4, {1: 1.0})
    trials = 70_000
    result = simulate(table, c, trials, seed=2024, value_source=pmf, cap_weight=2)
    counts = {m: round(f * trials) for m, f in result.distribution.mass.items()}
    assert counts == PINNED_COUNTS


# ---------------------------------------------------------------------------
# tail_of


def test_tail_of_point_mass_at_zero():
    d = DistortionDistribution({0: 1.0}, "exact_enumeration")
    assert tail_of(d) == {0: 0.0}


def test_tail_of_uniform_two_point():
    d = DistortionDistribution({0: 0.5, 1: 0.5}, "exact_enumeration")
    tails = tail_of(d)
    assert tails[0] == pytest.approx(0.5)
    assert tails[1] == 0.0


def test_tail_of_step_distribution():
    # a 99/100-at-4, 1/100-at-10 mass gives the 1/100 tail plateau on
    # 4 <= m < 10 and zero from 10 up
    d = DistortionDistribution({4: 0.99, 10: 0.01}, "exact_enumeration")
    tails = tail_of(d)
    assert tails[0] == pytest.approx(1.0)
    assert tails[3] == pytest.approx(1.0)
    assert tails[4] == pytest.approx(1 / 100)
    assert tails[9] == pytest.approx(1 / 100)
    assert tails[10] == 0.0


def test_tail_of_nonincreasing_and_start():
    table = CodeTable.iid(3, 3, 0.29)
    d = exact_distortion(table)
    tails = tail_of(d)
    assert tails[0] == pytest.approx(1.0 - d.at(0))
    values = [tails[m] for m in sorted(tails)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# single-error analytics


def test_analytic_single_error_point_mass_single_site():
    # transmitted value always 0; bit 0 upset to 1 with probability q
    q = 0.2
    pmf = EmpiricalPMF.point_mass(3, 0)
    upsets = UpsetModel(3, (q, 0.0, 0.0), (1.0, 0.0, 0.0))
    dist, report = analytic_single_error(pmf, upsets)
    assert dist.at(1) == pytest.approx(q, abs=1e-15)
    assert dist.at(0) == pytest.approx(1 - q, abs=1e-15)
    assert report.agreed and report.max_abs <= 1e-9


def test_analytic_single_error_no_upsets():
    pmf = EmpiricalPMF.point_mass(3, 5)
    upsets = UpsetModel(3, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    dist, report = analytic_single_error(pmf, upsets)
    assert dist.mass == {0: 1.0}
    assert report.agreed


def test_analytic_single_error_rejects_words_beyond_the_exact_cap():
    # 2**17 values: the cap is checked before the quadratic correlation and any allocation
    pmf = EmpiricalPMF.point_mass(17, 5)
    upsets = UpsetModel(17, (0.01,) * 17, (0.5,) * 17)
    with pytest.raises(ParameterError, match="single-error form supports L <= 16, got 17"):
        analytic_single_error(pmf, upsets)


def test_analytic_single_error_uniform_reports_divergence():
    # the transcribed formula leaks masked mass into m >= 1 for
    # spread-out value laws; the comparison must expose it
    pmf = EmpiricalPMF.uniform(3)
    upsets = UpsetModel(3, (0.3, 0.0, 0.0), (0.5, 0.0, 0.0))
    dist, report = analytic_single_error(pmf, upsets)
    assert report.rows  # comparison always produced
    oracle = single_error_oracle(pmf, upsets)
    assert oracle.at(1) == pytest.approx(0.15)
    if not report.agreed:
        assert report.max_abs > 1e-9


def loop_single_error(pmf, upsets):
    """Loop transcription of the single-upset formula, one (a, i) at a time."""
    L = pmf.L
    n = 1 << L
    fv = pmf.to_array()
    bracket = np.zeros(n, dtype=np.float64)
    for a in range(n):
        acc = 0.0
        for i in range(L):
            hi = a + (1 << i)
            lo = a - (1 << i)
            if hi < n:
                acc += fv[hi] * upsets.force_probability(i, 0)
            if lo >= 0:
                acc += fv[lo] * upsets.force_probability(i, 1)
            acc += fv[a] * upsets.force_probability(i, (a >> i) & 1)
        bracket[a] = acc
    mass = {}
    for m in range(1, n):
        total = 0.0
        for a in range(n):
            if a - m >= 0:
                total += bracket[a] * fv[a - m]
            if a + m < n:
                total += bracket[a] * fv[a + m]
        if total:
            mass[m] = float(total)
    mass[0] = 1.0 - math.fsum(v for m, v in mass.items() if m != 0)
    return mass


@pytest.mark.parametrize("L", [2, 4, 6])
def test_analytic_single_error_matches_loop_form(L):
    rng = np.random.default_rng(20 + L)
    values = rng.random(1 << L)
    values[rng.random(1 << L) < 0.3] = 0.0
    values /= values.sum()
    pmf = EmpiricalPMF(L, {v: float(p) for v, p in enumerate(values) if p})
    upsets = UpsetModel(L, tuple(rng.uniform(0, 0.3, L)), tuple(rng.random(L)))
    dist, _ = analytic_single_error(pmf, upsets)
    ref = loop_single_error(pmf, upsets)
    assert set(dist.mass) == set(ref)
    for m, v in ref.items():
        assert dist.at(m) == pytest.approx(v, rel=0, abs=1e-15)


def test_single_error_forms_reject_mismatched_word_lengths():
    pmf = EmpiricalPMF.point_mass(3, 5)
    upsets = UpsetModel(2, (0.1, 0.1), (0.5, 0.5))
    for form in (single_error_oracle, analytic_single_error):
        with pytest.raises(ParameterError, match="different word lengths"):
            form(pmf, upsets)


def test_single_error_oracle_masking():
    # downward force on a bit that is already 0 is masked
    pmf = EmpiricalPMF.point_mass(2, 0)
    upsets = UpsetModel(2, (0.7, 0.0), (0.0, 0.0))
    d = single_error_oracle(pmf, upsets)
    assert d.mass == {0: 1.0}


# ---------------------------------------------------------------------------
# trace ingestion


def test_ingest_trace_example_rows():
    pmf = ingest_trace(io.StringIO("1,9\n1,8\n2,7\n"), column=0, L=3)
    assert pmf.mass == {1: pytest.approx(2 / 3), 2: pytest.approx(1 / 3)}
    assert pmf.sample_count == 3


def test_ingest_trace_empty_stream():
    with pytest.raises(ParameterError, match="no samples"):
        ingest_trace(io.StringIO(""), column=0, L=3)


def test_ingest_trace_parse_error_reports_row_and_column():
    with pytest.raises(ParameterError, match="row 2, column 1"):
        ingest_trace(io.StringIO("1,2\n1,x\n"), column=1, L=3)
    with pytest.raises(ParameterError, match="row 1: no column 3"):
        ingest_trace(io.StringIO("1,2\n"), column=3, L=3)


def test_ingest_trace_range_and_clamp():
    with pytest.raises(ParameterError, match="row 1"):
        ingest_trace(io.StringIO("9\n"), column=0, L=3)
    pmf = ingest_trace(io.StringIO("9\n-2\n1\n1\n"), column=0, L=3, clamp=True)
    assert pmf.mass == {7: 0.25, 0: 0.25, 1: 0.5}


def test_ingest_trace_offset_and_header_skip():
    pmf = ingest_trace(
        io.StringIO("t,acc\n-3,0\n-3,0\n5,0\n"), column=0, L=4, signed_offset=8, skip_header=1
    )
    assert pmf.mass == {5: pytest.approx(2 / 3), 13: pytest.approx(1 / 3)}


def test_ingest_trace_large_synthetic_trace_matches_histogram():
    # a sensor-sized trace; the PMF must match a directly built histogram
    rng = np.random.default_rng(42)
    samples = rng.integers(0, 256, size=29_978)
    text = "".join(f"{int(v)},0\n" for v in samples)
    pmf = ingest_trace(io.StringIO(text), column=0, L=8)
    counts = np.bincount(samples, minlength=256)
    assert pmf.sample_count == 29_978
    for v in range(256):
        assert pmf.mass.get(v, 0.0) == pytest.approx(counts[v] / 29_978, abs=1e-15)
    mode = int(np.argmax(counts))
    assert max(pmf.mass, key=pmf.mass.get) == mode


def reference_ingest(lines, column, L, signed_offset=0, *, clamp=False, skip_header=0):
    """The row walk that `ingest_trace`'s array read must agree with: `csv.reader`, `int()`, a dict."""
    n = 1 << L
    counts = {}
    rows = csv.reader(lines)
    for rownum in itertools.count(1):
        try:
            row = next(rows)
        except StopIteration:
            break
        except csv.Error as exc:
            raise ParameterError(f"row {rownum}: {exc}") from None
        if rownum <= skip_header or not row:
            continue
        if column >= len(row):
            raise ParameterError(f"row {rownum}: no column {column} (row has {len(row)})")
        text = row[column].strip()
        try:
            value = int(text) + signed_offset
        except ValueError:
            raise ParameterError(f"row {rownum}, column {column}: cannot parse {text!r} as integer") from None
        if not clamp and not 0 <= value < n:
            raise ParameterError(f"row {rownum}: value {value} outside [0, {n}) after offset {signed_offset}")
        value = min(max(value, 0), n - 1)
        counts[value] = counts.get(value, 0) + 1
    return EmpiricalPMF.from_counts(L, counts)


BIG = str(1 << 70)
INGEST_EDGE_CASES = [
    # (input: text, or a list of lines as a file opened with newline="" yields them; column; keywords)
    ("1,9\n1,8\n2,7\n", 0, {}),
    (" 5 ,1\n\t6\t,2\n\xa07,3\n5\x0b,4\n", 0, {}),
    ("+5\n-0\n+0\n007\n", 0, {}),
    ("-3\n-8\n7\n", 0, {"signed_offset": 8}),
    ("1\r\n2\r\n3\r\n", 0, {}),
    (["1\r", "2\r", "3\r"], 0, {}),
    ("1\r2\r", 0, {}),
    ("1\n\n2\n\n\n3\n", 0, {}),
    ("1\n   \n2\n", 0, {}),
    ("1\n\t\n", 0, {}),
    ('"5"\n"6",x\n"5" \n', 0, {}),
    ('"1,2",3\n4,5\n', 1, {}),
    ('"a\nb",3\n4,5\n', 1, {}),
    ('"1\n2",3\n', 0, {}),
    ('1\n"5\n2\n', 0, {}),
    (' "5"\n', 0, {}),
    ('5"\n', 0, {}),
    ('"a\nb",c\n1,2\n', 0, {"skip_header": 1}),
    ('"a\n1\n2\n', 0, {"skip_header": 1}),
    ("t,v\n1,2\n3,4\n", 1, {"skip_header": 1}),
    ("t,v\nx,y\n3,4\n", 1, {"skip_header": 2}),
    ("1\n2\n", 0, {"skip_header": 5}),
    ("", 0, {}),
    ("\n\n", 0, {}),
    ("nan\n", 0, {}),
    ("inf\n", 0, {}),
    ("1e3\n", 0, {"clamp": True}),
    ("5.0\n", 0, {}),
    ("0x10\n", 0, {}),
    ("#5\n", 0, {}),
    ("\ufeff5\n", 0, {}),
    ("1,\n", 1, {}),
    (",5\n", 0, {}),
    ("1\n", 1, {}),
    ("1,2\n3\n", 1, {}),
    ("1,2,3\n4,5\n6,7,8,9\n", 1, {}),
    ("1_0\n", 0, {"clamp": True}),
    ("\u0663\n", 0, {}),
    (f"{BIG}\n1\n", 0, {}),
    (f"{BIG}\n-{BIG}\n1\n", 0, {"clamp": True}),
    ("9223372036854775807\n1\n", 0, {"clamp": True, "signed_offset": 1}),
    ("-9223372036854775808\n", 0, {"clamp": True, "signed_offset": -1}),
    ("-1\n-2\n", 0, {"clamp": True, "signed_offset": 1 << 63}),
    ("9\n-2\n1\n1\n", 0, {"clamp": True}),
    ("9\n", 0, {}),
]


def ingest_outcome(fn, source, column, kwargs):
    lines = source if isinstance(source, list) else io.StringIO(source).readlines()
    try:
        pmf = fn(iter(lines), column, 3, **kwargs)
    except Exception as exc:  # the same exception type and message is the requirement
        return type(exc).__name__, str(exc)
    return pmf.mass, pmf.sample_count


@pytest.mark.parametrize("source,column,kwargs", INGEST_EDGE_CASES)
def test_ingest_trace_matches_row_walk(source, column, kwargs):
    assert ingest_outcome(ingest_trace, source, column, kwargs) == ingest_outcome(
        reference_ingest, source, column, kwargs
    )


@pytest.mark.parametrize("text,row", [("1\r2\r", 1), ("5\n1\r2\r\n3\n", 2), ("t\n5\n1\r2\n", 3)])
def test_ingest_trace_names_the_row_csv_cannot_split(text, row):
    # io.StringIO keeps a bare "\r" inside its line, which csv.reader refuses
    with pytest.raises(ParameterError, match=f"^row {row}: new-line character seen in unquoted field"):
        ingest_trace(io.StringIO(text), 0, 3, skip_header=1 if text.startswith("t") else 0)


def test_ingest_trace_reads_a_plain_trace_as_one_array():
    rng = np.random.default_rng(7)
    lines = ["t,v\n"] + [f"{i},{v}\r\n" for i, v in enumerate(rng.integers(-40, 300, 5000))]
    assert _column_array(lines, 1, 1, 40) is not None
    assert ingest_trace(lines, 1, 9, 40, skip_header=1) == reference_ingest(lines, 1, 9, 40, skip_header=1)


# ---------------------------------------------------------------------------
# file formats


def test_distribution_csv_contents():
    d = DistortionDistribution({0: 0.75, 2: 0.25}, "monte_carlo", trials=4, seed=7, generator="pcg64")
    text = format_distribution_csv(d)
    lines = text.splitlines()
    assert "# provenance=monte_carlo" in lines
    assert "# trials=4" in lines and "# seed=7" in lines and "# generator=pcg64" in lines
    assert lines[4] == "m,mass,tail"
    assert lines[5] == "0,0.75,0.25"
    assert lines[6] == "1,0.0,0.25"
    assert lines[7] == "2,0.25,0.0"


def test_pmf_csv_roundtrip():
    pmf = EmpiricalPMF(3, {1: 2 / 3, 2: 1 / 3}, sample_count=3)
    loaded = parse_pmf_csv(format_pmf_csv(pmf))
    assert loaded.L == 3 and loaded.sample_count == 3
    assert loaded.mass == pytest.approx(pmf.mass)


def test_pmf_csv_file_roundtrip(tmp_path):
    from vdbcode.channel_sim import write_pmf_csv

    pmf = EmpiricalPMF.uniform(2)
    path = tmp_path / "pmf.csv"
    write_pmf_csv(pmf, path)
    assert load_pmf_csv(path).mass == pytest.approx(pmf.mass)


def test_upsets_roundtrip():
    model = UpsetModel(3, (0.1, 0.0, 0.5), (1.0, 0.0, 0.25))
    loaded = parse_upsets(serialize_upsets(model))
    assert loaded == model


def test_pmf_csv_rejects_bad_and_repeated_entries():
    with pytest.raises(ParameterError, match="line 1: bad header '# L=three'"):
        parse_pmf_csv("# L=three\nvalue,mass\n0,1.0\n")
    with pytest.raises(ParameterError, match="line 2: bad header '# sample_count=2.5'"):
        parse_pmf_csv("# L=3\n# sample_count=2.5\nvalue,mass\n0,1.0\n")
    # without the check the last row would win and these rows, summing to 1.5, would load
    with pytest.raises(ParameterError, match="line 5: duplicate row for value 1 \\(first at line 3\\)"):
        parse_pmf_csv("# L=3\nvalue,mass\n1,0.5\n2,0.5\n1,0.5\n")
    with pytest.raises(ParameterError, match="line 3: duplicate '# L=' header \\(first at line 1\\)"):
        parse_pmf_csv("# L=3\nvalue,mass\n# L=2\n0,1.0\n")
    with pytest.raises(ParameterError, match="word_length must be in \\[1, 24\\], got 40"):
        parse_pmf_csv("# L=40\nvalue,mass\n0,1.0\n")
    with pytest.raises(ParameterError, match="line 3: bad row '0;1.0'"):
        parse_pmf_csv("# L=3\nvalue,mass\n0;1.0\n")
    with pytest.raises(ParameterError, match="PMF file missing '# L=' header"):
        parse_pmf_csv("value,mass\n0,1.0\n")


@pytest.mark.parametrize("count", ["0", "-5"])
def test_pmf_csv_rejects_non_positive_sample_count(count):
    with pytest.raises(ParameterError, match=f"sample_count must be a positive int, got {count}"):
        parse_pmf_csv(f"# L=3\n# sample_count={count}\nvalue,mass\n0,1.0\n")


def test_upsets_rejects_bad_and_repeated_entries():
    with pytest.raises(ParameterError, match="line 2: bad header 'L=three'"):
        parse_upsets("format=vdb-upsets-v1\nL=three\n0,0.1,0.5\n")
    with pytest.raises(ParameterError, match="line 5: duplicate row for bit 0 \\(first at line 3\\)"):
        parse_upsets("format=vdb-upsets-v1\nL=3\n0,0.1,0.5\n1,0.2,0.5\n0,0.3,0.5\n")
    with pytest.raises(ParameterError, match="line 4: duplicate L= header \\(first at line 2\\)"):
        parse_upsets("format=vdb-upsets-v1\nL=3\n0,0.1,0.5\nL=4\n")
    with pytest.raises(ParameterError, match="line 3: bad row '0,0.1,0.5,0.9'"):
        parse_upsets("format=vdb-upsets-v1\nL=3\n0,0.1,0.5,0.9\n")
    with pytest.raises(ParameterError, match="word_length must be in \\[1, 24\\], got 30"):
        parse_upsets("format=vdb-upsets-v1\nL=30\n0,0.1,0.5\n")
    with pytest.raises(ParameterError, match="upsets file missing L= header"):
        parse_upsets("format=vdb-upsets-v1\n0,0.1,0.5\n")
    with pytest.raises(ParameterError, match="bit 3 outside \\[0, 3\\)"):
        parse_upsets("format=vdb-upsets-v1\nL=3\n3,0.1,0.5\n")


def test_pmf_validation():
    with pytest.raises(ParameterError):
        EmpiricalPMF(3, {0: 0.5})  # does not sum to 1
    with pytest.raises(ParameterError):
        EmpiricalPMF(3, {9: 1.0})  # out of range
    with pytest.raises(ParameterError, match="value 0 has mass nan"):
        EmpiricalPMF(2, {0: math.nan, 1: 0.5})
    with pytest.raises(ParameterError, match="value 1 has mass -0.5"):
        EmpiricalPMF(2, {0: 1.5, 1: -0.5})  # sums to 1
    with pytest.raises(ParameterError, match="value 0 has mass inf"):
        EmpiricalPMF(2, {0: math.inf, 1: -math.inf})


def test_upset_model_and_distortion_law_validation():
    with pytest.raises(ParameterError, match="need 3 per-bit entries"):
        UpsetModel(3, (0.1, 0.1), (0.5, 0.5, 0.5))
    with pytest.raises(ParameterError, match="need 3 per-bit entries"):
        UpsetModel(3, (0.1,) * 3, (0.5,) * 4)
    with pytest.raises(ParameterError, match="upset_prob\\[1\\]=1.5 outside \\[0, 1\\]"):
        UpsetModel(3, (0.1, 1.5, 0.1), (0.5,) * 3)
    with pytest.raises(ParameterError, match="forced_one_prob\\[2\\]=-0.1 outside \\[0, 1\\]"):
        UpsetModel(3, (0.1,) * 3, (0.5, 0.5, -0.1))
    with pytest.raises(ParameterError, match="masses sum to 0.75, not 1"):
        DistortionDistribution({0: 0.5, 3: 0.25}, "exact")
