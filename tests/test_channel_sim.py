import csv
import io
import itertools
import math
import pickle
import re
import tracemalloc
from collections import defaultdict
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction

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
from vdbcode import channel_sim
from vdbcode.codegen import parse_table, serialize_table
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
    _alias_table,
    _chunk_masks,
    _column_array,
    _law,
    _word_draw,
)
from vdbcode._kernels import mask_probabilities
from conftest import EXAMPLE_BOUNDS, bin_sigmas, law_bins, sidak_z, uniform_pmf


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
    d = exact_distortion(model, EmpiricalPMF(3, {0b101: 1.0}))
    assert d.at(0) == pytest.approx(1.0)


def test_exact_distortion_forced_vs_manual():
    # one upset site forcing bit 0 high: uniform values flip half the time
    model = UpsetModel(3, (0.4, 0.0, 0.0), (1.0, 0.0, 0.0))
    d = exact_distortion(model)
    assert d.at(1) == pytest.approx(0.2)
    assert d.at(0) == pytest.approx(0.8)


@pytest.mark.parametrize("values", [pytest.param(None, id="uniform"), EmpiricalPMF(4, {0: 0.5, 6: 0.3, 15: 0.2})])
def test_exact_distortion_flip_is_fair_forced_channel(values):
    # Flipping bit i with probability p_i is upsetting it with probability
    # 2 p_i toward a fair-coin target: half of the upsets are masked.  The
    # doubling and halving are exact in binary, so the laws are identical.
    p = (0.05, 0.5, 0.2, 0.0)
    flip = exact_distortion(CodeTable.perbit(4, 2, p), values)
    forced = exact_distortion(UpsetModel(4, tuple(2 * q for q in p), (0.5,) * 4), values)
    assert flip.mass == forced.mass


def exact_fold_oracle(force_to_one, force_to_zero, value_probs):
    """f_M in Fractions over every (word, per-bit outcome) pair, from the floats the fold reads.

    Given word x, bit i moves with probability force_to_one[i] when it is
    0 and force_to_zero[i] when it is 1; outcome e is the set of bits
    that moved, and the distortion is |x - (x ^ e)|.
    """
    L = len(force_to_one)
    q = [[Fraction(v) for v in force_to_one], [Fraction(v) for v in force_to_zero]]
    out = defaultdict(Fraction)
    for x, fx in enumerate(value_probs):
        if not fx:
            continue
        probs = [Fraction(fx)]  # probs[e] over the bits folded so far; bit i of e: bit i moved
        for i in range(L):
            qi = q[x >> i & 1][i]
            probs = [v * (1 - qi) for v in probs] + [v * qi for v in probs]
        for e, prob in enumerate(probs):
            out[abs(x - (x ^ e))] += prob
    return out


@pytest.mark.parametrize("L", range(1, 7))
def test_exact_distortion_within_round_off_of_exact_rationals(L):
    # Every float is a dyadic rational, so the oracle's law is exact.  All
    # the fold's terms are nonnegative, and each final term is a value mass
    # times one factor per bit.  Folding bit i, a term that stays put takes
    # at most four roundings: 1 - q, the product, the sum of the two
    # staying products, and the add onto the moved mass sharing its entry;
    # a moved term takes two (product, add).  The closing fold of -m onto
    # +m adds one, so n = 4L + 1 and every mass lies within
    # gamma_n = n*u / (1 - n*u) of exact, u = 2**-53 (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2nd ed., Lemma 3.1).
    rng = np.random.default_rng(600 + L)
    u = rng.random((3, L))
    weights = rng.random(1 << L) * (rng.random(1 << L) < 0.7)
    weights[rng.integers(1 << L)] += 1.0
    pmf = EmpiricalPMF(L, {v: w / weights.sum() for v, w in enumerate(weights.tolist()) if w})
    models = [CodeTable.perbit(L, L, p.tolist()) for p in (u[0], u[0] ** 8, 1 - u[0] ** 8)]
    models += [UpsetModel(L, tuple(u[1].tolist()), tuple(u[2].tolist())),
               UpsetModel(L, (1.0,) * L, tuple(rng.choice([0.0, 0.5, 1.0], L).tolist()))]
    unit = Fraction(1, 1 << 53)
    n = 4 * L + 1
    gamma = n * unit / (1 - n * unit)
    for model in models:
        if isinstance(model, CodeTable):
            q1 = q0 = model.p_vec
        else:
            q1, q0 = model.force_to_one().tolist(), model.force_to_zero().tolist()
        for values, value_probs in ((None, [0.5**L] * (1 << L)), (pmf, pmf.to_array().tolist())):
            exact = exact_fold_oracle(q1, q0, value_probs)
            computed = exact_distortion(model, values).mass
            for m in exact.keys() | computed.keys():
                assert abs(Fraction(computed.get(m, 0.0)) - exact[m]) <= gamma * exact[m]


def test_exact_distortion_rejects_large_words():
    with pytest.raises(ParameterError):
        exact_distortion(CodeTable.iid(17, 2, 0.1))


def test_exact_distortion_rejects_a_pmf_of_another_word_length():
    with pytest.raises(ParameterError, match="PMF is 2-bit but table is 3-bit"):
        exact_distortion(CodeTable.iid(3, 2, 0.1), EmpiricalPMF(2, {1: 1.0}))


def test_exact_distortion_takes_none_or_a_pmf():
    # None is the uniform law; the string "uniform" is not a value source.
    table = CodeTable.iid(3, 2, 0.1)
    assert exact_distortion(table) == exact_distortion(table, None) == exact_distortion(table, uniform_pmf(3))
    for source in ("uniform", {0: 1.0}):
        with pytest.raises(ParameterError, match=re.escape(f"unknown value source {source!r}")):
            exact_distortion(table, source)


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
    """Flip-channel f_M conditioned on <= cap flips: a plain product per mask, all words at once."""
    L = len(p_vec)
    masks = [e for e in range(1 << L) if bin(e).count("1") <= cap]
    probs = []
    for e in masks:
        prob = 1.0
        for i in range(L):
            prob *= p_vec[i] if (e >> i) & 1 else 1 - p_vec[i]
        probs.append(prob)
    x = np.flatnonzero(value_probs)[:, None]
    joint = np.bincount(
        np.abs(x - (x ^ np.array(masks))).ravel(),
        weights=(np.asarray(value_probs)[x] * np.array(probs)).ravel(),
    )
    total = math.fsum(joint.tolist())
    return {m: v / total for m, v in enumerate(joint.tolist()) if v}


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
        result = simulate(table, c, trials, seed=21, value_source=pmf, cap_weight=cap)
        values = (pmf or uniform_pmf(table.L)).to_array()
        exact = capped_flip_oracle(table.p_vec, cap, values)
        bins += law_bins(result.distribution.mass, exact, trials)
    assert max(bin_sigmas(bins, trials)) <= sidak_z(len(bins))


@pytest.mark.parametrize("L", [12, 14])
def test_simulate_law_over_several_chunks(L):
    # 300,000 trials are five chunks of at most 2**16, so each chunk reads its own slice
    # of the run's mask layout; uniform words, a value PMF and a weight cap each match
    # their exact law within one Sidak band.
    trials = 300_000
    rng = np.random.default_rng(40 + L)
    table = CodeTable.perbit(L, 3, tuple(float(v) for v in rng.uniform(0.02, 0.3, L)))
    law = np.exp(-0.5 * ((np.arange(1 << L) - (1 << (L - 1))) / (1 << (L - 3))) ** 2)
    law[rng.random(law.size) < 0.2] = 0.0
    law /= law.sum()
    pmf = EmpiricalPMF(L, {v: float(q) for v, q in enumerate(law) if q})
    c = TailConstraint.from_table(L, 3, {1: 1.0})
    cap = 3 if L == 12 else 2
    cases = [
        (None, None, exact_distortion(table).mass),
        (pmf, None, exact_distortion(table, pmf).mass),
        (pmf, cap, capped_flip_oracle(table.p_vec, cap, pmf.to_array())),
    ]
    bins = []
    for seed, (source, cap_weight, exact) in enumerate(cases):
        result = simulate(table, c, trials, seed, source, cap_weight=cap_weight)
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
        simulate(table, reciprocal_constraint, 10, seed=0, value_source=uniform_pmf(4))
    with pytest.raises(ParameterError, match="unknown value source 'uniform'"):
        simulate(table, reciprocal_constraint, 10, seed=0, value_source="uniform")
    for trials in (2**63, 2**64 + 5):  # the run's mask counts are one int64 multinomial draw
        with pytest.raises(ParameterError, match=r"below 2\*\*63, the int64 limit"):
            simulate(table, reciprocal_constraint, trials, seed=0)
    for kw, message in (({"trials": 1000.0}, "trials must be an int, got 1000.0"),
                        ({"trials": True}, "trials must be an int, got True"),
                        ({"seed": 1.5}, "seed must be an int, got 1.5"),
                        ({"cap_weight": 1.5}, "cap_weight must be an int, got 1.5")):
        with pytest.raises(ParameterError, match=re.escape(message)):
            simulate(table, reciprocal_constraint, **{"trials": 10, "seed": 0, **kw})



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
    for source, cap in ((None, None), (pmf, None), (None, 2)):
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


# The counts `simulate` drew here when masks of at most one set bit stopped drawing
# words.  A change to the sampler or to numpy's multinomial stream moves them; so
# must GENERATOR_ID.
PINNED_COUNTS = {
    0: 34071, 1: 15712, 2: 8791, 3: 3458, 4: 3827, 5: 422,
    6: 920, 7: 292, 8: 1735, 9: 492, 10: 132, 12: 148,
}
# Uniform words with no cap, drawn at the same time.
PINNED_UNIFORM_COUNTS = {
    0: 33712, 1: 16092, 2: 8825, 3: 2775, 4: 3812, 5: 946, 6: 647, 7: 563,
    8: 1725, 9: 424, 10: 253, 11: 78, 12: 113, 13: 14, 14: 21,
}


def pinned_run_counts(source, cap):
    # Two chunks (65,536 + 4,464 trials) of one table and seed.
    table = CodeTable.perbit(4, 4, (0.3, 0.2, 0.1, 0.05))
    c = TailConstraint.from_table(4, 4, {1: 1.0})
    trials = 70_000
    result = simulate(table, c, trials, seed=2024, value_source=source, cap_weight=cap)
    return {m: round(f * trials) for m, f in result.distribution.mass.items()}


def test_simulate_counts_are_pinned_for_a_seed():
    # Values 1, 2, 4, 5, 7, 8, 10, 11, 13, 14 and 15 have mass zero, and under the
    # cap every mask above 0b0111 too, so the value law ends in zero mass and the
    # mask law is trimmed.
    pmf = EmpiricalPMF(4, {0: 0.25, 3: 0.125, 6: 0.25, 9: 0.125, 12: 0.25})
    assert pinned_run_counts(pmf, 2) == PINNED_COUNTS


def test_simulate_uniform_counts_are_pinned_for_a_seed():
    assert pinned_run_counts(None, None) == PINNED_UNIFORM_COUNTS


def reference_chunk_counts(table, trials, seed, value_probs=None, cap_weight=None):
    """`simulate`'s draws as a plain loop that forms |w - (w ^ e)| in new arrays.

    The run's mask counts are one multinomial draw.  Each mask of at most one set
    bit adds its count at its own value; the other masks are laid out at once and
    sliced per chunk.  A chunk's words are the low 8, 16 or 32 bits (by L) of each
    raw 64-bit output first, then the next ones up, kept to their low L bits.
    Under a value law each such word v is an alias-table column: a next raw output
    per word, as the double `Generator.random` makes of it, keeps v when below t[v]
    and gives a[v] otherwise.  No word is drawn when no mask needs one.
    """
    L = table.L
    n = 1 << L
    mask_law = mask_probabilities(np.asarray(table.p_vec, dtype=np.float64))
    if cap_weight is not None:
        mask_law[np.bitwise_count(np.arange(n)) > cap_weight] = 0.0
    mask_law = _law(mask_law)
    rng = np.random.Generator(np.random.PCG64(seed))
    drawn = rng.multinomial(trials, mask_law)
    counts = np.zeros(n, dtype=np.int64)
    multibit = []
    for e, n_e in enumerate(drawn.tolist()):
        if bin(e).count("1") <= 1:
            counts[e] += n_e
        else:
            multibit.append(e)
    run_masks = np.repeat(np.array(multibit, dtype=np.int64), drawn[multibit])
    if not run_masks.size:
        return counts
    if value_probs is not None:
        t, a = _alias_table(value_probs / value_probs.sum())
    bits = 8 if L <= 8 else 16 if L <= 16 else 32
    chunk = max(1 << 16, n)
    for start in range(0, run_masks.size, chunk):
        size = min(chunk, run_masks.size - start)
        raw = rng.bit_generator.random_raw(-(-size * bits // 64))
        shifts = np.arange(0, 64, bits, dtype=np.uint64)
        pieces = (raw[:, None] >> shifts) & np.uint64((1 << bits) - 1)
        words = pieces.ravel()[:size].astype(np.int64) & (n - 1)
        if value_probs is not None:
            u = (rng.bit_generator.random_raw(size) >> np.uint64(11)).astype(np.float64) * 2.0**-53
            words = np.where(u < t[words], words, a[words])
        masks = run_masks[start : start + size]
        counts += np.bincount(np.abs(words - (words ^ masks)), minlength=n)
    return counts


def test_chunk_masks_join_to_the_run_layout():
    # Runs cross chunk edges, mask 5's run spans several chunks, and zero counts sit
    # at both ends and on chunk edges; ids with every zero count in, and only the
    # drawn ids, give the same slices.
    rng = np.random.default_rng(9)
    cases = [np.array([0, 0, 5, 0, 1, 17, 0, 2, 0, 0, 9, 0, 0])]
    cases += [rng.integers(1, 5, 40) * (rng.random(40) < 0.4) for _ in range(30)]
    for counts in cases:
        total = int(counts.sum())
        want = np.repeat(np.arange(counts.size), counts)
        drawn = np.flatnonzero(counts)
        for ids, sizes in ((np.arange(counts.size), counts), (drawn, counts[drawn])):
            ends = np.cumsum(sizes)
            for chunk in (1, 2, 3, 5, 7, total):
                starts = range(0, total, chunk)
                parts = [_chunk_masks(ids, ends, start, min(start + chunk, total)) for start in starts]
                assert [part.size for part in parts] == [min(chunk, total - start) for start in starts]
                assert np.array_equal(np.concatenate(parts), want)


def alias_test_laws(L, rng):
    """Normalised laws over 2**L values that stress the alias table's rounding and zeros."""
    n = 1 << L
    laws = [rng.random(n), rng.random(n) ** 12]
    for points in (1, 2, 3):
        law = np.zeros(n)
        law[rng.choice(n, min(points, n), replace=False)] = rng.random(min(points, n)) + 0.1
        laws.append(law)
    laws.append(np.ones(n))  # exactly uniform: every q is 1, so there is no small
    laws.append(1.0 + rng.choice([-1.0, 0.0, 1.0], n) * 1e-15)  # q within 1e-15 of 1
    ends = rng.random(n)
    ends[: max(1, n // 8)] = 0.0
    ends[-max(1, n // 8) :] = 0.0
    if ends.any():
        laws.append(ends)  # zeros at both ends
    laws = [law / law.sum() for law in laws]
    laws.append(np.full(n, (1.0 - 1e-15) / n))  # every q below 1: rounding left no large
    return laws


@pytest.mark.parametrize("L", range(1, 17))
def test_alias_table_rebuilds_the_law(L):
    n = 1 << L
    for law in alias_test_laws(L, np.random.default_rng(L)):
        t, a = _alias_table(law)
        assert t.shape == a.shape == (n,)
        assert ((t >= 0.0) & (t <= 1.0)).all()
        rebuilt = t / n + np.bincount(a, weights=(1.0 - t) / n, minlength=n)
        assert np.abs(rebuilt - law).max() <= 1e-12
        zero = law == 0.0
        assert (t[zero] == 0.0).all()
        assert not zero[a].any()  # a zero-mass value is never an alias target


def searchsorted_alias_table(law):
    """The alias table as two `searchsorted` calls: the reference for the one-sort build."""
    n = law.size
    q = law * n
    small = q < 1.0
    if small.all():
        small[np.argmax(q)] = False
    smalls = np.flatnonzero(small)
    larges = np.flatnonzero(~small)
    deficits = np.concatenate(([0.0], np.cumsum(1.0 - q[smalls])))
    surplus = np.cumsum(q[larges] - 1.0)
    t = np.ones(n)
    a = np.arange(n)
    t[smalls] = q[smalls]
    a[smalls] = larges[np.minimum(np.searchsorted(surplus, deficits[:-1], side="right"), larges.size - 1)]
    spill = deficits[np.searchsorted(deficits[:-1], surplus[:-1], side="left")] - surplus[:-1]
    j = np.flatnonzero(spill > 0)
    t[larges[j]] = np.maximum(1.0 - spill[j], 0.0)
    a[larges[j]] = larges[j + 1]
    return t, a


@pytest.mark.parametrize("L", [*range(1, 13), 16, 20])
def test_alias_table_equals_searchsorted_reference(L):
    # q = law * 2**L of halves and of zeros and twos is exact, so surplus
    # ends and deficit starts meet on the same doubles and ties are hit.
    rng = np.random.default_rng(100 + L)
    n = 1 << L
    halves, zeros_twos = (rng.permutation(np.repeat(pair, n // 2 or 1)[:n]) for pair in ([0.5, 1.5], [0.0, 2.0]))
    laws = [rng.random(n) ** 3, rng.integers(0, 4, n).astype(float), halves, zeros_twos]
    laws = [law / law.sum() for law in laws]
    if L <= 16:
        laws += alias_test_laws(L, np.random.default_rng(L))  # uniform, point masses, zeros, rounding
    for law in laws:
        t, a = _alias_table(law)
        want_t, want_a = searchsorted_alias_table(law)
        assert np.array_equal(t, want_t) and np.array_equal(a, want_a)


def test_raw_threshold_is_generator_random():
    # (u >> 11) < ceil(t * 2**53) on a raw output u is `Generator.random() < t`,
    # thresholds at 0, 1 and exactly on the drawn doubles included.
    draws = 200_000
    u = np.random.Generator(np.random.PCG64(31)).random(draws)
    raw = np.random.PCG64(31).random_raw(draws)
    t = np.random.default_rng(32).random(draws)
    t[:1000], t[1000:2000], t[2000:3000] = 0.0, 1.0, u[2000:3000]
    cut = np.ceil(t * 2.0**53).astype(np.uint64)
    assert np.array_equal((raw >> np.uint64(11)) < cut, u < t)


def test_alias_word_draw_matches_the_value_law():
    # 31 chunks of 2**16 words at L = 12 from a skewed law with zero-mass values:
    # every word has positive mass and the counts sit in one Sidak band.
    L = 12
    rng = np.random.default_rng(12)
    law = rng.random(1 << L) ** 6
    law[rng.random(law.size) < 0.3] = 0.0
    law /= law.sum()
    draw = _word_draw(np.random.Generator(np.random.PCG64(2025)), law, L)
    counts = sum(np.bincount(draw(1 << 16), minlength=1 << L) for _ in range(31))
    trials = 31 << 16
    seen = np.flatnonzero(counts)
    drawn = dict(zip(seen.tolist(), (counts[seen] / trials).tolist()))
    exact = {v: float(law[v]) for v in np.flatnonzero(law)}
    bins = law_bins(drawn, exact, trials)
    assert max(bin_sigmas(bins, trials)) <= sidak_z(len(bins))


@pytest.mark.parametrize("L", [3, 8, 12, 16, 17])
@pytest.mark.parametrize("trials", [1, 65_537, 150_001])
def test_simulate_counts_equal_the_reference_chunk_loop(L, trials):
    # The chunked layout, the raw-bit words and |2(w & e) - e| give the reference's counts.
    rng = np.random.default_rng(100 + L)
    table = CodeTable.perbit(L, L, tuple(float(v) for v in rng.uniform(0.01, 0.5, L)))
    law = rng.random(1 << L)
    law[rng.random(law.size) < 0.5] = 0.0
    law /= law.sum()
    pmf = EmpiricalPMF(L, {v: float(q) for v, q in enumerate(law) if q})
    c = TailConstraint.from_table(L, L, {1: 1.0})
    for source, probs, cap in ((None, None, None), (pmf, pmf.to_array(), None), (None, None, 2)):
        counts = reference_chunk_counts(table, trials, 7 * L + trials, probs, cap)
        seen = np.flatnonzero(counts)
        want = dict(zip(seen.tolist(), (counts[seen] / trials).tolist()))
        got = simulate(table, c, trials, 7 * L + trials, source, cap_weight=cap).distribution.mass
        assert got == want


SINGLE_BIT_PMF = EmpiricalPMF(4, {0: 0.5, 5: 0.25, 15: 0.25})


@pytest.mark.parametrize(
    "table",
    [CodeTable.iid(4, 4, 0.0), CodeTable.perbit(4, 4, (0.3, 0, 0, 0)), CodeTable.perbit(4, 4, (0, 0, 1, 0))],
)
@pytest.mark.parametrize("source", [pytest.param(None, id="uniform"), SINGLE_BIT_PMF])
def test_single_bit_masks_draw_no_words(monkeypatch, table, source):
    # Every mask these tables can draw is 0 or 2**i, which moves any word by itself,
    # so the counts are the mask multinomial's and no word is drawn.
    def no_words(*args):
        raise AssertionError("a word was drawn")

    monkeypatch.setattr(channel_sim, "_word_draw", no_words)
    trials, seed = 150_001, 17
    c = TailConstraint.from_table(4, 4, {1: 1.0})
    got = simulate(table, c, trials, seed, source).distribution.mass
    law = _law(mask_probabilities(np.asarray(table.p_vec, dtype=np.float64)))
    drawn = np.random.Generator(np.random.PCG64(seed)).multinomial(trials, law)
    assert {m: round(f * trials) for m, f in got.items()} == {e: n for e, n in enumerate(drawn.tolist()) if n}


@pytest.mark.parametrize("source", [pytest.param(None, id="uniform"), SINGLE_BIT_PMF])
def test_only_multibit_masks_draw_words(monkeypatch, source):
    # Masks 0, 1 and 2 draw no word; each draw of mask 3 takes one, and 2**16 of
    # them fill the first chunk.  Distortions 0 and 2 come only from masks 0 and 2.
    real = channel_sim._word_draw
    asked = []

    def spy(rng, value_law, L):
        draw = real(rng, value_law, L)

        def counted(size):
            asked.append(size)
            return draw(size)

        return counted

    monkeypatch.setattr(channel_sim, "_word_draw", spy)
    table = CodeTable.perbit(4, 4, (0.5, 0.5, 0, 0))
    trials, seed = 300_001, 23
    c = TailConstraint.from_table(4, 4, {1: 1.0})
    got = simulate(table, c, trials, seed, source).distribution.mass
    counts = {m: round(f * trials) for m, f in got.items()}
    law = _law(mask_probabilities(np.asarray(table.p_vec, dtype=np.float64)))
    drawn = np.random.Generator(np.random.PCG64(seed)).multinomial(trials, law).tolist()
    assert asked == [1 << 16, trials - sum(drawn[:3]) - (1 << 16)]
    assert (counts[0], counts[2]) == (drawn[0], drawn[2])
    assert counts[1] + counts[3] == drawn[1] + drawn[3]


# ---------------------------------------------------------------------------
# tail_of


def test_tail_of_point_mass_at_zero():
    d = DistortionDistribution({0: 1.0}, "exact_enumeration")
    tails = tail_of(d)
    assert tails.dtype == np.float64
    assert tails.tolist() == [0.0]


def test_tail_of_uniform_two_point():
    d = DistortionDistribution({0: 0.5, 1: 0.5}, "exact_enumeration")
    assert tail_of(d).tolist() == [0.5, 0.0]


def test_tail_of_step_distribution():
    # a 99/100-at-4, 1/100-at-10 mass gives the 1/100 tail plateau on
    # 4 <= m < 10 and zero from 10 up
    d = DistortionDistribution({4: 0.99, 10: 0.01}, "exact_enumeration")
    want = np.array([1.0] * 4 + [0.01] * 6 + [0.0])
    np.testing.assert_array_equal(tail_of(d), want)


def test_tail_of_is_the_running_sum_from_the_top():
    # Pr(M > m) for m = 0..top, each entry the loop's sum f(top) + ... + f(m + 1)
    d = exact_distortion(CodeTable.iid(3, 3, 0.29))
    tails = tail_of(d)
    top = int(d.keys.max())
    want, acc = [0.0] * (top + 1), 0.0
    for m in range(top, 0, -1):
        acc += d.at(m)
        want[m - 1] = acc
    np.testing.assert_array_equal(tails, np.array(want))
    assert tails[0] == pytest.approx(1.0 - d.at(0))
    assert (np.diff(tails) <= 0).all()


# ---------------------------------------------------------------------------
# single-error analytics


def test_analytic_single_error_point_mass_single_site():
    # transmitted value always 0; bit 0 upset to 1 with probability q
    q = 0.2
    pmf = EmpiricalPMF(3, {0: 1.0})
    upsets = UpsetModel(3, (q, 0.0, 0.0), (1.0, 0.0, 0.0))
    dist, report = analytic_single_error(pmf, upsets)
    assert dist.at(1) == pytest.approx(q, abs=1e-15)
    assert dist.at(0) == pytest.approx(1 - q, abs=1e-15)
    assert report.agreed and report.max_abs <= 1e-9


def test_analytic_single_error_no_upsets():
    pmf = EmpiricalPMF(3, {5: 1.0})
    upsets = UpsetModel(3, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    dist, report = analytic_single_error(pmf, upsets)
    assert dist.mass == {0: 1.0}
    assert report.agreed


def test_analytic_single_error_uniform_reports_divergence():
    # a spread-out value law: each upset of bit 0 that is not masked moves
    # the value by exactly 1, so the form and the oracle agree on 0.15
    pmf = uniform_pmf(3)
    upsets = UpsetModel(3, (0.3, 0.0, 0.0), (0.5, 0.0, 0.0))
    dist, report = analytic_single_error(pmf, upsets)
    assert report.agreed
    assert set(report.rows) == {0, 1}
    assert dist.at(1) == 0.15
    assert single_error_oracle(pmf, upsets).at(1) == pytest.approx(0.15)


def random_pmf_and_upsets(rng, L):
    """A PMF on a random subset of the L-bit values and an upset model, some odds exactly 0 or 1."""
    values = rng.permutation(1 << L)[: int(rng.integers(1, (1 << L) + 1))]
    weights = rng.random(values.size) + 0.01
    pmf = EmpiricalPMF(L, dict(zip(values.tolist(), (weights / weights.sum()).tolist())))
    upset = np.where(rng.random(L) < 0.2, 0.0, rng.uniform(0.0, 0.3, L))
    forced_one = np.where(rng.random(L) < 0.3, rng.integers(0, 2, L), rng.random(L))
    return pmf, UpsetModel(L, tuple(upset.tolist()), tuple(forced_one.astype(float).tolist()))


@pytest.mark.parametrize("L", range(1, 9))
def test_analytic_single_error_matches_per_bit_fold(L):
    # Bit i's term is the exact fold's mass at 2**i with only bit i upset,
    # times the odds that no other bit is upset.
    for seed in range(5):
        pmf, upsets = random_pmf_and_upsets(np.random.default_rng([30, L, seed]), L)
        dist, report = analytic_single_error(pmf, upsets)
        assert report.agreed and report.max_abs <= 1e-15
        assert all(m == 0 or m & (m - 1) == 0 for m in dist.mass)
        for i in range(L):
            alone = tuple(u if j == i else 0.0 for j, u in enumerate(upsets.upset_prob))
            fold = exact_distortion(UpsetModel(L, alone, upsets.forced_one_prob), pmf).at(1 << i)
            others = math.prod(1.0 - u for j, u in enumerate(upsets.upset_prob) if j != i)
            assert dist.at(1 << i) == pytest.approx(fold * others, rel=0, abs=1e-15)


def test_analytic_single_error_runs_on_a_sparse_20_bit_pmf():
    # the form costs O(|V| L), so a 20-bit word needs no 2**20 table
    L = 20
    pmf = EmpiricalPMF(L, {0: 0.4, 5: 0.1, (1 << 19) | 3: 0.3, (1 << L) - 1: 0.2})
    upsets = UpsetModel(L, tuple(0.001 * (i + 1) for i in range(L)), tuple(i / (L - 1) for i in range(L)))
    dist, report = analytic_single_error(pmf, upsets)
    assert report.agreed and report.max_abs <= 1e-15
    oracle = single_error_oracle(pmf, upsets)
    assert set(dist.mass) == set(oracle.mass) == {0} | {1 << i for i in range(L)}
    for m, v in oracle.mass.items():
        assert dist.at(m) == pytest.approx(v, rel=0, abs=1e-15)


def test_single_error_forms_reject_mismatched_word_lengths():
    pmf = EmpiricalPMF(3, {5: 1.0})
    upsets = UpsetModel(2, (0.1, 0.1), (0.5, 0.5))
    for form in (single_error_oracle, analytic_single_error):
        with pytest.raises(ParameterError, match="different word lengths"):
            form(pmf, upsets)


def test_single_error_oracle_masking():
    # downward force on a bit that is already 0 is masked
    pmf = EmpiricalPMF(2, {0: 1.0})
    upsets = UpsetModel(2, (0.7, 0.0), (0.0, 0.0))
    d = single_error_oracle(pmf, upsets)
    assert d.mass == {0: 1.0}


def triple_loop_single_error_oracle(pmf, upsets):
    """The oracle's masses as a triple loop over (value, bit, other bit), in the oracle's order."""
    L = pmf.L
    no_upset = [1.0 - upsets.upset_prob[i] for i in range(L)]
    mass = {}
    for a, pa in pmf.mass.items():
        for i in range(L):
            others = 1.0
            for j in range(L):
                if j != i:
                    others *= no_upset[j]
            bit, f1 = 1 - ((a >> i) & 1), upsets.forced_one_prob[i]
            flip_prob = upsets.upset_prob[i] * (f1 if bit else 1.0 - f1)
            if flip_prob:
                m = 1 << i
                mass[m] = mass.get(m, 0.0) + pa * flip_prob * others
    mass[0] = 1.0 - math.fsum(v for m, v in mass.items() if m != 0)
    return mass


@pytest.mark.parametrize("seed", range(40))
def test_single_error_oracle_bit_exact_against_triple_loop(seed):
    rng = np.random.default_rng([7, seed])
    L = int(rng.integers(1, 9))
    pmf, upsets = random_pmf_and_upsets(rng, L)
    got = single_error_oracle(pmf, upsets).mass
    want = triple_loop_single_error_oracle(pmf, upsets)
    assert got == want
    assert list(got) == list(want)
    assert all(type(m) is int and type(v) is float for m, v in got.items())
    report = analytic_single_error(pmf, upsets)[1]
    assert report.agreed and report.max_abs <= 1e-15


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
    return pmf_of_counts(L, counts)


def pmf_of_counts(L, counts):
    """The PMF of the sample counts {value: count}, each mass count / total."""
    total = sum(counts.values())
    if not total:
        raise ParameterError("no samples")
    return EmpiricalPMF(L, {v: c / total for v, c in counts.items()}, sample_count=total)


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
    return stream_outcome(fn, iter(lines), column, kwargs)


def stream_outcome(fn, stream, column, kwargs):
    try:
        pmf = fn(stream, column, 3, **kwargs)
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
    assert _column_array(lines[1:], 1, 40) is not None
    assert ingest_trace(lines, 1, 9, 40, skip_header=1) == reference_ingest(lines, 1, 9, 40, skip_header=1)


@pytest.mark.parametrize("source,column,kwargs", INGEST_EDGE_CASES)
def test_ingest_trace_streams_a_file_as_the_row_walk_reads_its_lines(tmp_path, source, column, kwargs):
    # A file opened with newline="" splits a bare "\r" into lines of its own, unlike io.StringIO.
    path = tmp_path / "trace.csv"
    path.write_text("".join(source), encoding="utf-8", newline="")
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
        fh.seek(0)
        assert channel_sim._position(fh) == 0  # the seekable path, no list of lines
        got = stream_outcome(ingest_trace, fh, column, kwargs)
    assert got == stream_outcome(reference_ingest, lines, column, kwargs)


class NoSeekBack(io.TextIOWrapper):
    def seek(self, *args):
        pytest.fail("the stream was sought back to be read again")


def test_ingest_trace_raises_a_decode_error_from_loadtxt_without_reading_again():
    # 4096 rows fill the first 8 KB decode buffer, so the bad byte is met while loadtxt iterates.
    data = b"t,v\n" + b"1,2\n" * 4096 + b"1,\xe9\n"
    with NoSeekBack(io.BytesIO(data), encoding="utf-8", newline="") as fh:
        assert channel_sim._position(fh) == 0
        with pytest.raises(UnicodeDecodeError, match="can.t decode byte 0xe9"):
            ingest_trace(fh, 1, 3, skip_header=1)


@pytest.mark.parametrize("kwargs,message", [
    ({"column": 1, "skip_header": 1 << 64}, "no samples"),
    ({"column": 1 << 64, "skip_header": 1}, "row 2: no column 18446744073709551616 (row has 2)"),
])
@pytest.mark.parametrize("as_file", [False, True])
def test_ingest_trace_takes_a_column_or_header_count_beyond_int64(tmp_path, kwargs, message, as_file):
    # islice refuses a stop past sys.maxsize and loadtxt a usecols past an index: neither may escape
    text = "t,v\n1,2\n3,4\n"
    path = tmp_path / "trace.csv"
    path.write_text(text, newline="")
    with open(path, encoding="utf-8", newline="") as fh:
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            ingest_trace(fh if as_file else text.splitlines(keepends=True), L=3, **kwargs)


def test_ingest_trace_lists_a_text_file_advanced_by_next(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("t,v\n1,2\n3,4\n3,5\n", newline="")
    with open(path, encoding="utf-8", newline="") as fh:
        assert next(fh) == "t,v\n"
        with pytest.raises(OSError, match="telling position disabled by next"):
            fh.tell()
        pmf = ingest_trace(fh, 1, 3)
    assert pmf == EmpiricalPMF(3, {2: 1 / 3, 4: 1 / 3, 5: 1 / 3}, sample_count=3)


@pytest.mark.parametrize("header,row,message", [
    ("t,v", "3,x", "row 3, column 1: cannot parse 'x' as integer"),  # loadtxt fails
    ("t,v", "3,9", "row 3: value 9 outside [0, 8) after offset 0"),  # loadtxt reads an out-of-range value
    ('"t",v', "3,x", "row 3, column 1: cannot parse 'x' as integer"),  # a quoted header goes to the walk
])
def test_ingest_trace_numbers_rows_from_where_the_stream_stands(tmp_path, header, row, message):
    path = tmp_path / "trace.csv"
    path.write_text(f"# logger 2\n# 100 Hz\n{header}\n1,2\n{row}\n5,6\n", newline="")
    with open(path, encoding="utf-8", newline="") as fh:
        fh.readline()
        fh.readline()
        assert channel_sim._position(fh) is not None  # readline, unlike next, leaves tell() working
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            ingest_trace(fh, 1, 3, skip_header=1)


@pytest.mark.parametrize("rows", [7, 8])  # 2**L = 8: np.unique below, bincount from 8 samples on
def test_ingest_trace_histogram_on_either_side_of_2_to_the_L_samples(rows):
    values = np.random.default_rng(rows).integers(0, 8, rows)
    seen, counts = np.unique(values, return_counts=True)
    pmf = ingest_trace(io.StringIO("".join(f"{v}\n" for v in values.tolist())), 0, 3)
    assert pmf == pmf_of_counts(3, dict(zip(seen.tolist(), counts.tolist())))


@pytest.mark.parametrize("kwargs,message", [
    ({"signed_offset": 0.5}, "signed_offset must be an int, got 0.5"),
    ({"column": True}, "column must be an int, got True"),
    ({"column": 1.5}, "column must be an int, got 1.5"),
    ({"skip_header": 1.0}, "skip_header must be an int, got 1.0"),
])
def test_ingest_trace_refuses_arguments_that_are_not_integers(kwargs, message):
    args = {"column": 1, "skip_header": 1, **kwargs}
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        ingest_trace(io.StringIO("t,v\n1,2\n3,4\n"), L=3, **args)


def test_ingest_trace_takes_numpy_integers_as_ints():
    # An int64 offset of 1 would wrap the top int64 value to the bottom one; as an int it clamps to 7.
    text = f"t,v\n1,{(1 << 63) - 1}\n3,4\n"
    got = ingest_trace(io.StringIO(text), np.int64(1), 3, np.int64(1), clamp=True, skip_header=np.int8(1))
    assert got == ingest_trace(io.StringIO(text), 1, 3, 1, clamp=True, skip_header=1)
    assert got.mass == {7: 0.5, 5: 0.5}


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

    pmf = uniform_pmf(2)
    path = tmp_path / "pmf.csv"
    write_pmf_csv(pmf, path)
    assert load_pmf_csv(path).mass == pytest.approx(pmf.mass)


def test_upsets_roundtrip():
    model = UpsetModel(3, (0.1, 0.0, 0.5), (1.0, 0.0, 0.25))
    loaded = parse_upsets(serialize_upsets(model))
    assert loaded == model


def test_writers_round_trip_models_built_from_numpy_scalars():
    # repr of a numpy float is "np.float64(0.1)", which no reader takes
    p = np.array([0.1, 0.2, 0.3])
    for table, p_vec in ((CodeTable.iid(3, 2, p[0]), (0.1,) * 3), (CodeTable.perbit(3, 2, p), (0.1, 0.2, 0.3))):
        assert parse_table(serialize_table(table)).p_vec == p_vec
    model = UpsetModel(3, tuple(p), tuple(p[::-1]))
    assert parse_upsets(serialize_upsets(model)) == UpsetModel(3, (0.1, 0.2, 0.3), (0.3, 0.2, 0.1))
    pmf = EmpiricalPMF(2, {np.int64(0): np.float64(0.75), np.int64(3): np.float64(0.25)}, np.int64(4))
    assert format_pmf_csv(pmf) == "# L=2\n# sample_count=4\nvalue,mass\n0,0.75\n3,0.25\n"
    assert parse_pmf_csv(format_pmf_csv(pmf)) == EmpiricalPMF(2, {0: 0.75, 3: 0.25}, 4)


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
    with pytest.raises(ParameterError, match=f"sample_count must be >= 1, got {count}"):
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


@pytest.mark.parametrize("L", ["2000000", str(1 << 63), "-1", "0"])
def test_upsets_check_the_word_length_before_sizing_lists(L):
    # L=2000000 built 64 MB of lists and tuples before UpsetModel refused it, and L >= 2**63 raised OverflowError
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=f"^word_length must be in \\[1, 24\\], got {L}$"):
            parse_upsets(f"format=vdb-upsets-v1\nL={L}\n0,0.1,0.5\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_pmf_to_array_is_the_value_loop():
    rng = np.random.default_rng(17)
    values = rng.choice(1 << 10, size=300, replace=False)
    weights = rng.random(300)
    pmf = EmpiricalPMF(10, dict(zip(values.tolist(), (weights / weights.sum()).tolist())))
    want = np.zeros(1 << 10)
    for v, p in pmf.mass.items():
        want[v] = p
    assert pmf.to_array().tobytes() == want.tobytes()


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
    for key in (2.5, 2.0, True):
        with pytest.raises(ParameterError, match=f"value must be an int, got {key!r}"):
            EmpiricalPMF(3, {key: 1.0})
    assert EmpiricalPMF(3, {np.int64(2): 1.0}).to_array()[2] == 1.0
    assert EmpiricalPMF(3, {2: 1.0}, sample_count=np.int64(5)).sample_count == 5
    for count in (True, 1.5):
        with pytest.raises(ParameterError, match=f"sample_count must be an int, got {count!r}"):
            EmpiricalPMF(3, {2: 1.0}, sample_count=count)


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
    for mass in ({0: math.nan}, {0: 0.5, 1: math.nan}, {0: math.inf}):
        with pytest.raises(ParameterError, match="masses sum to (nan|inf), not 1"):
            DistortionDistribution(mass, "exact")


# ---------------------------------------------------------------------------
# laws held as arrays, with the dict view built on first read


def _items(mapping):
    """A law's entries in order, each mass as its exact bits."""
    return [(k, float(v).hex()) for k, v in mapping.items()]


def _spy(monkeypatch, owner, name):
    """Wrap owner.name so that every value it returns is appended to the returned list."""
    real, seen = getattr(owner, name), []

    def spy(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(owner, name, spy)
    return seen


def _random_pmf(L, seed, support=None):
    rng = np.random.default_rng(seed)
    n = 1 << L
    values = rng.permutation(n)[: support or n]  # unsorted, so the mapping's order is kept
    weights = rng.random(values.size)
    return EmpiricalPMF(L, dict(zip(values.tolist(), (weights / weights.sum()).tolist())))


def _random_table(L, seed, k=None):
    p = np.random.default_rng(seed).uniform(0.01, 0.3, L)
    return CodeTable.perbit(L, k or min(L, 3), p.tolist())


@pytest.mark.parametrize("L", [3, 8, 12])
@pytest.mark.parametrize("mode", ["uniform", "pmf", "capped"])
def test_simulate_mass_is_the_dict_built_from_its_counts(monkeypatch, L, mode):
    table = _random_table(L, L)
    constraint = TailConstraint.reciprocal(L, table.k)
    counts = _spy(monkeypatch, channel_sim, "_distortion_counts")
    source = None if mode == "uniform" else _random_pmf(L, L + 1, support=(1 << L) // 2)
    trials = 30_000
    result = simulate(table, constraint, trials, 5, source, cap_weight=2 if mode == "capped" else None)
    (arr,) = counts
    seen = np.flatnonzero(arr)
    assert _items(result.distribution.mass) == _items(dict(zip(seen.tolist(), (arr[seen] / trials).tolist())))


@pytest.mark.parametrize("L", [3, 8, 12])
@pytest.mark.parametrize("model", ["table", "upsets"])
def test_exact_distortion_mass_is_the_dict_built_from_the_fold(monkeypatch, L, model):
    rng = np.random.default_rng(L)
    if model == "table":
        model = _random_table(L, L)
    else:
        model = UpsetModel(L, tuple(rng.uniform(0, 0.1, L).tolist()), tuple(rng.uniform(0, 1, L).tolist()))
    folds = _spy(monkeypatch, channel_sim._kernels, "distortion_pmf_forced")
    for source in (None, _random_pmf(L, L + 2, support=max(1, (1 << L) // 3))):
        d = exact_distortion(model, source)
        arr = folds[-1]
        seen = np.flatnonzero(arr)
        assert _items(d.mass) == _items(dict(zip(seen.tolist(), arr[seen].tolist())))


@pytest.mark.parametrize("L", [3, 8, 12])
def test_analytic_single_error_mass_is_the_dict_built_from_its_terms(L):
    pmf = _random_pmf(L, L, support=max(2, (1 << L) // 5))
    rng = np.random.default_rng(L)
    upsets = UpsetModel(L, tuple(rng.uniform(0, 0.05, L).tolist()), tuple(rng.uniform(0, 1, L).tolist()))
    d, _ = analytic_single_error(pmf, upsets)
    # The law built as a dict from the PMF's dict: the powers of two with mass, then the rest at m = 0.
    values = np.fromiter(pmf.mass, dtype=np.int64, count=len(pmf.mass))
    probs = np.fromiter(pmf.mass.values(), dtype=np.float64, count=len(pmf.mass))
    planes = (values[:, None] >> np.arange(L)) & 1
    flips = probs @ np.where(planes, upsets.force_to_zero(), upsets.force_to_one())
    others = np.where(np.eye(L, dtype=bool), 1.0, 1.0 - np.asarray(upsets.upset_prob)).prod(axis=1)
    terms = flips * others
    seen = np.flatnonzero(terms)
    want = dict(zip((1 << seen).tolist(), terms[seen].tolist()))
    want[0] = 1.0 - math.fsum(want.values())
    assert _items(d.mass) == _items(want)


@pytest.mark.parametrize("L", [3, 8, 12])
@pytest.mark.parametrize("side", ["bincount", "unique"])
def test_ingest_trace_mass_is_the_dict_built_from_its_counts(L, side):
    n = 1 << L
    rows = 2 * n if side == "bincount" else n // 2 + 1
    values = np.random.default_rng(L).integers(0, n, rows)
    pmf = ingest_trace(io.StringIO("".join(f"{v}\n" for v in values.tolist())), 0, L)
    seen, counts = np.unique(values, return_counts=True)
    want = {v: c / rows for v, c in zip(seen.tolist(), counts.tolist())}
    assert _items(pmf.mass) == _items(want)
    assert pmf.sample_count == rows


@pytest.mark.parametrize("L", [3, 8, 12])
def test_parse_pmf_csv_mass_keeps_the_file_order(L):
    pmf = _random_pmf(L, L)
    want = pmf.mass
    text = f"# L={L}\nvalue,mass\n" + "".join(f"{v},{p!r}\n" for v, p in want.items())
    got = parse_pmf_csv(text)
    assert _items(got.mass) == _items(want)
    assert list(got.keys) == list(want) and got == pmf


def test_law_arrays_are_read_only_and_the_view_is_built_on_each_read():
    pmf = EmpiricalPMF(3, {5: 0.25, 0: 0.75}, sample_count=4)
    assert pmf.keys.dtype == np.int64 and pmf.masses.dtype == np.float64
    assert not pmf.keys.flags.writeable and not pmf.masses.flags.writeable
    assert pmf.mass is not pmf.mass and pmf.mass == {5: 0.25, 0: 0.75} and list(pmf.mass) == [5, 0]
    pmf.mass[5] = 1.0  # a caller's edit of the dict leaves the law as it was
    assert pmf.mass[5] == 0.25
    with pytest.raises(FrozenInstanceError):
        pmf.L = 4
    with pytest.raises(FrozenInstanceError):
        pmf.keys = np.array([1])
    d = DistortionDistribution({2: 0.5, 0: 0.5}, "exact_enumeration")
    assert d.at(2) == 0.5 and d.at(1) == 0.0 and d.at(0) == 0.5
    with pytest.raises(FrozenInstanceError):
        d.provenance = "monte_carlo"


def test_laws_compare_by_content_in_any_order_and_pickle():
    pmf = EmpiricalPMF(3, {5: 0.25, 0: 0.75}, sample_count=4)
    assert pmf == EmpiricalPMF(3, {0: 0.75, 5: 0.25}, 4)
    assert pmf == EmpiricalPMF.from_arrays(3, np.array([0, 5]), np.array([0.75, 0.25]), 4)
    assert pmf != EmpiricalPMF(3, {0: 0.75, 5: 0.25})
    assert pmf != EmpiricalPMF(3, {0: 0.75, 6: 0.25}, 4)
    assert pmf != EmpiricalPMF(4, {0: 0.75, 5: 0.25}, 4)
    d = DistortionDistribution({0: 0.5, 2: 0.5}, "monte_carlo", trials=2, seed=1, generator="g")
    assert d == DistortionDistribution.from_arrays([2, 0], [0.5, 0.5], "monte_carlo", 2, 1, "g")
    assert d != DistortionDistribution({0: 0.5, 2: 0.5}, "monte_carlo", trials=2, seed=2, generator="g")
    for law in (pmf, d):
        again = pickle.loads(pickle.dumps(law))
        assert again == law and _items(again.mass) == _items(law.mass)
        assert not again.keys.flags.writeable and not again.masses.flags.writeable
    assert repr(pmf) == "EmpiricalPMF(keys=array([5, 0]), masses=array([0.25, 0.75]), L=3, sample_count=4)"
    # A mapping's masses pass check_real, then are read with float(), as the dict form read them.
    assert EmpiricalPMF(3, {5: Fraction(1, 4), 0: Decimal("0.75")}, 4) == pmf
    assert EmpiricalPMF(3, {5: np.float32(0.25), 0: np.float16(0.75)}, 4) == pmf
    assert EmpiricalPMF(3, {0: np.int64(1)}) == EmpiricalPMF(3, {0: 1.0})


def test_from_arrays_copies_and_checks_its_arrays():
    values, masses = np.array([1, 3]), np.array([0.5, 0.5])
    pmf = EmpiricalPMF.from_arrays(2, values, masses)
    values[0] = 2
    assert values.flags.writeable and pmf.keys.tolist() == [1, 3]
    assert EmpiricalPMF.from_arrays(2, np.array([1, 3], dtype=object), [0.5, 0.5]) == pmf
    for args, message in (
        (([1, 4], [0.5, 0.5]), "value must be in [0, 3], got 4"),
        (([-1, 1], [0.5, 0.5]), "value must be in [0, 3], got -1"),
        (([1.0, 2.0], [0.5, 0.5]), "value must be an int, got 1.0"),
        ((np.array([1.0, 2.0]), [0.5, 0.5]), "value must be an int, got 1.0"),
        (([True, False], [0.5, 0.5]), "value must be an int, got True"),
        ((np.array([True, False]), [0.5, 0.5]), "value must be an int, got True"),
        (([1, 2], [1.0]), "need one mass per value, got shapes (2,) and (1,)"),
        (([1, 2], [math.nan, 0.5]), "value 1 has mass nan, not a finite number >= 0"),
        (([1, 2], [0.5, 0.25]), "masses sum to 0.75, not 1"),
        (([3, 1, 3], [0.25, 0.5, 0.25]), "value 3 is listed twice"),
        (([2**70, 1], [0.5, 0.5]), "value must be in [0, 3], got 1180591620717411303424"),
        (([1, 2], [0.5, "x"]), "masses must be real numbers, got an array of <U32"),
    ):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            EmpiricalPMF.from_arrays(2, *args)
    with pytest.raises(ParameterError, match="^m must be in \\[0, 9223372036854775807\\], got -2$"):
        DistortionDistribution.from_arrays([0, -2], [0.5, 0.5], "exact_enumeration")
    with pytest.raises(ParameterError, match="^no samples$"):
        ingest_trace(io.StringIO("t,v\n"), 1, 3, skip_header=1)


@pytest.mark.parametrize("mass,message", [
    ({0: 1.5, 1: -0.5}, "m 1 has mass -0.5, not a finite number >= 0"),
    ({True: 1.0}, "m must be an int, got True"),
    ({0.5: 1.0}, "m must be an int, got 0.5"),
    ({-3: 1.0}, "m must be in [0, 9223372036854775807], got -3"),
    ({2**63: 1.0}, "m must be in [0, 9223372036854775807], got 9223372036854775808"),
    ({0: math.inf, 1: -math.inf}, "masses sum to nan, not 1"),
    ({0: 1e308, 1: 1e308}, "masses sum to inf, not 1"),
    ({0: 10**400}, "masses must be real numbers (int too large to convert to float)"),
    ({0: 1j}, "mass of m 0 must be a real number, got 1j"),
    ({0: 0.5, 1: np.complex128(0.5)}, "mass of m 1 must be a real number, got np.complex128(0.5+0j)"),
    ({0: "x"}, "mass of m 0 must be a real number, got 'x'"),
    ({0: "1.0"}, "mass of m 0 must be a real number, got '1.0'"),
    ({0: b"0.5", 1: 0.5}, "mass of m 0 must be a real number, got b'0.5'"),
    ({0: None}, "mass of m 0 must be a real number, got None"),
    ({0: None, 1: 1.0}, "mass of m 0 must be a real number, got None"),
    ({0: [1.0]}, "mass of m 0 must be a real number, got [1.0]"),
])
def test_distortion_law_refuses_each_bad_entry(mass, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        DistortionDistribution(mass, "exact_enumeration")


@pytest.mark.parametrize("mass,got", [({0: "1.0"}, "'1.0'"), ({0: b"0.5", 1: 0.5}, "b'0.5'"), ({0: None, 1: 1.0}, "None")])
def test_pmf_mapping_masses_follow_check_real(mass, got):
    with pytest.raises(ParameterError, match=f"^mass of value 0 must be a real number, got {re.escape(got)}$"):
        EmpiricalPMF(3, mass)


def test_single_error_remainder_below_zero_by_round_off_is_kept():
    # A PMF may total 1 + 1e-9; with bit 0 always upset to 1, f_M(1) is that total and the
    # m = 0 remainder 1 - f_M(1) is about -5e-10.  The law keeps it, as the dict form did.
    pmf = EmpiricalPMF(1, {0: 1.0 + 5e-10})
    d, report = analytic_single_error(pmf, UpsetModel(1, (1.0,), (1.0,)))
    assert _items(d.mass) == _items({1: 1.0 + 5e-10, 0: 1.0 - (1.0 + 5e-10)})
    assert -1e-9 < d.at(0) < 0 and report.agreed
    oracle = single_error_oracle(pmf, UpsetModel(1, (1.0,), (1.0,)))
    assert _items(oracle.mass) == _items(d.mass)
    # A law given whole holds every mass to >= 0, however small the dip.
    for dip in (5e-10, 2e-9):
        with pytest.raises(ParameterError, match=f"^m 0 has mass {-dip!r}, not a finite number >= 0$"):
            DistortionDistribution({1: 1.0 + dip, 0: -dip}, "exact_enumeration")


def test_single_error_remainder_past_minus_1e9_is_kept_at_the_pmf_total_edge():
    # The PMF's fsum is the largest double within 1e-9 of 1, 1 + n ulps, but the running sum
    # over values 0, 2, 4 rounds up twice (each a tie to even, n being odd) and lands one ulp
    # past it.  With bit 0 always forced to 1, f_M(1) is that running sum in the oracle, so its
    # m = 0 rest is -(n + 1) ulps, below -1e-9.  The analytic form takes f_M(1) as a dot
    # product, whose order is the BLAS's, so only its rest's definition is checked.
    ulp, n = 2.0**-52, math.floor(1e-9 / 2.0**-52)
    masses = [0.25 + 3 * ulp / 4, 0.25, 0.5 + (4 * n - 2) * ulp / 4]
    high = 1.0 + n * ulp
    assert math.fsum(masses) == high and (masses[0] + masses[1]) + masses[2] == high + ulp
    pmf = EmpiricalPMF(3, dict(zip([0, 2, 4], masses)))
    upsets = UpsetModel(3, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    oracle = single_error_oracle(pmf, upsets)
    assert _items(oracle.mass) == _items({1: high + ulp, 0: -(n + 1) * ulp}) and oracle.at(0) < -1e-9
    analytic, report = analytic_single_error(pmf, upsets)
    assert list(analytic.mass) == [1, 0] and analytic.at(0) == 1.0 - analytic.at(1) and report.agreed
    # The masses a producer gives are held to >= 0 all the same; only the rest is not.
    with pytest.raises(ParameterError, match="^m 1 has mass -0.5, not a finite number >= 0$"):
        DistortionDistribution._with_rest_at_zero([1, 2], [-0.5, 1.0], "exact_enumeration")


def test_law_total_is_decided_as_fsum_decides_at_the_edge():
    # The doubles farthest from 1 within 1e-9 are accepted as totals, the next ones out are refused.
    high = 1.0 + math.floor(1e-9 / 2**-52) * 2**-52
    low = 1.0 - math.floor(1e-9 / 2**-53) * 2**-53
    for total, ok in ((high, True), (np.nextafter(high, 2.0), False), (low, True), (np.nextafter(low, 0.0), False)):
        masses = [0.5, total - 0.5]
        assert (abs(math.fsum(masses) - 1.0) <= 1e-9) == ok
        for build in (lambda: EmpiricalPMF.from_arrays(1, [0, 1], masses),
                      lambda: DistortionDistribution(dict(enumerate(masses)), "exact_enumeration")):
            if ok:
                build()
            else:
                with pytest.raises(ParameterError, match="^masses sum to"):
                    build()
