import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from vdbcode import (
    CodeTable,
    DistortionDistribution,
    EmpiricalPMF,
    ParameterError,
    PlacementSets,
    TailConstraint,
    UpsetModel,
    WordSpec,
    bounds_dataset,
    distortion_range,
    exact_distortion,
    ingest_trace,
    sets_bruteforce,
    sets_fast,
    simulate,
    y_star,
)
from vdbcode import core
from vdbcode.core import check_ints


def test_wordspec_validation():
    with pytest.raises(ParameterError):
        WordSpec(0)
    with pytest.raises(ParameterError):
        WordSpec(25)
    with pytest.raises(ParameterError):
        WordSpec(3, "weird")
    with pytest.raises(ParameterError):
        WordSpec(3, "asymmetric")


def test_distortion_range_examples():
    assert distortion_range(WordSpec(3), 2) == (1, 6)
    assert distortion_range(WordSpec(1), 1) == (1, 1)


def test_distortion_range_k_validation():
    with pytest.raises(ParameterError):
        distortion_range(WordSpec(3), 0)
    with pytest.raises(ParameterError):
        distortion_range(WordSpec(3), 4)


# The entry points take (L, k), the word models L alone; a bool or
# non-integral word length or k is a ParameterError, not a TypeError later
# on or an `L=True` header its own parser refuses.
ENTRY_POINTS = [
    sets_fast,
    sets_bruteforce,
    TailConstraint.reciprocal,
    lambda L, k: CodeTable.iid(L, k, 0.1),
    lambda L, k: y_star(L, k, 1),
    bounds_dataset,
]
WORD_MODELS = [
    lambda L: EmpiricalPMF(L, {0: 1.0}),
    lambda L: UpsetModel(L, (0.1,) * 4, (0.5,) * 4),
]


@pytest.mark.parametrize("L,k", [(True, True), (True, 1), (4, True), (4.0, 2), (4, 2.0), (np.float64(4), 2)])
def test_bool_and_float_word_lengths_and_k_are_parameter_errors(L, k):
    for build in ENTRY_POINTS:
        with pytest.raises(ParameterError):
            build(L, k)


@pytest.mark.parametrize("bad", [True, np.True_, 4.0, np.float64(4)])
def test_word_spec_and_models_refuse_bool_and_float(bad):
    with pytest.raises(ParameterError):
        WordSpec(bad)
    with pytest.raises(ParameterError):
        distortion_range(WordSpec(4), bad)
    for build in WORD_MODELS:
        with pytest.raises(ParameterError):
            build(bad)


def test_numpy_integer_word_lengths_and_k_are_accepted():
    L, k = np.int64(4), np.uint8(2)
    assert distortion_range(WordSpec(L), k) == (1, 12)
    assert sets_fast(L, k) == sets_bruteforce(4, 2)
    assert TailConstraint.reciprocal(L, k).m_max == 12
    assert CodeTable.iid(L, k, 0.1).p_vec == (0.1,) * 4
    assert y_star(L, k, 1) == y_star(4, 2, 1)
    assert len(bounds_dataset(L, k)) == 12
    assert EmpiricalPMF(L, {0: 1.0}).to_array().size == 16
    assert UpsetModel(L, (0.1,) * 4, (0.5,) * 4).L == 4


@pytest.mark.parametrize("L", range(1, 9))
def test_distortion_range_matches_bruteforce(L):
    # Over all pairs at Hamming distance exactly k the max integer
    # distance is 2**(L-k) * (2**k - 1); over pairs at distance <= k the
    # min is 1 on the symmetric channel.
    for k in range(1, L + 1):
        at_k = [
            abs(x - y)
            for x in range(1 << L)
            for y in range(1 << L)
            if (x ^ y).bit_count() == k
        ]
        up_to_k = [
            abs(x - y)
            for x in range(1 << L)
            for y in range(1 << L)
            if 1 <= (x ^ y).bit_count() <= k
        ]
        m_min, m_max = distortion_range(WordSpec(L), k)
        assert max(at_k) == m_max
        assert min(up_to_k) == m_min == 1


# Every integer array the API takes goes through core.check_ints: each entry
# point refuses each of these with check_int's message, where numpy's int64
# conversion would read True as 1, 1.0 as 1 and "1" as 1, and would overflow
# on 2**70 or wrap a uint64 2**63.  (L, k) = (3, 2): m in [1, 6], values and
# masks below 8.
INT_ARRAY_ENTRY_POINTS = {
    "TailConstraint": ("constraint m", 1, 6, lambda ms: TailConstraint(3, 2, ms, np.full(len(ms), 0.5))),
    "from_table": ("constraint m", 1, 6, lambda ms: TailConstraint.from_table(3, 2, dict.fromkeys(list(ms), 0.5))),
    "EmpiricalPMF": ("value", 0, 7, lambda vs: EmpiricalPMF(3, dict.fromkeys(list(vs), 1.0 / len(vs)))),
    "EmpiricalPMF.from_arrays": (
        "value", 0, 7, lambda vs: EmpiricalPMF.from_arrays(3, vs, np.full(len(vs), 1.0 / len(vs))),
    ),
    "DistortionDistribution": (
        "m", 0, 2**63 - 1, lambda ms: DistortionDistribution(dict.fromkeys(list(ms), 1.0 / len(ms)), "exact_enumeration"),
    ),
    "DistortionDistribution.from_arrays": (
        "m", 0, 2**63 - 1,
        lambda ms: DistortionDistribution.from_arrays(ms, np.full(len(ms), 1.0 / len(ms)), "exact_enumeration"),
    ),
    "PlacementSets m": ("m", 1, 6, lambda ms: PlacementSets(3, 2, {m: [1] for m in list(ms)})),
    "PlacementSets empty m": ("m", 1, 6, lambda ms: PlacementSets(3, 2, {m: [] for m in list(ms)})),
    "PlacementSets mask": ("mask", 1, 7, lambda masks: PlacementSets(3, 2, {1: masks})),
}


def _bad_int_arrays(lo, hi):
    """(values, the end of check_int's message) for each refused form, the out-of-range int just outside [lo, hi]."""
    out_of_range = hi + 1 if hi < 2**63 - 1 else -1
    return [
        ([True, 3], "must be an int, got True"),
        ([1.0], "must be an int, got 1.0"),
        (["1"], "must be an int, got '1'"),
        ([2**70], f"must be in [{lo}, {hi}], got {2**70}"),
        ([out_of_range], f"must be in [{lo}, {hi}], got {out_of_range}"),
        (np.array([2**63], dtype=np.uint64), f"must be in [{lo}, {hi}], got {2**63}"),
    ]


@pytest.mark.parametrize("form", range(6), ids=["bool", "float", "str", "2**70", "out-of-range", "uint64-2**63"])
@pytest.mark.parametrize("entry", list(INT_ARRAY_ENTRY_POINTS))
def test_every_integer_array_entry_point_refuses_with_check_ints_message(entry, form):
    name, lo, hi, build = INT_ARRAY_ENTRY_POINTS[entry]
    values, message = _bad_int_arrays(lo, hi)[form]
    with pytest.raises(ParameterError, match=f"^{re.escape(f'{name} {message}')}$"):
        build(values)


def test_check_ints_checks_an_integer_array_as_one_array_and_the_rest_by_entry():
    given = np.array([3, 1], dtype=np.uint8)
    out = check_ints("m", given, 1, 6)
    assert out.dtype == np.int64 and out.tolist() == [3, 1] and out is not given
    assert check_ints("m", [np.int64(2), 5], 1, 6).tolist() == [2, 5]
    assert check_ints("m", np.array([2**63 - 1], dtype=object), 0, 2**63 - 1).tolist() == [2**63 - 1]
    assert check_ints("m", {4: None}.keys(), 1, 6).tolist() == [4]
    assert check_ints("m", [], 1, 6).dtype == np.int64
    with pytest.raises(ParameterError, match=r"^m must be an int, got \[1, 2\]$"):
        check_ints("m", np.array([[1, 2]]), 1, 6)


def test_laws_built_by_the_producers_are_checked_as_arrays(monkeypatch):
    # The producers hand numpy int arrays to the laws, so no key goes
    # through check_int one at a time, however large the support.
    names = []
    real = core.check_int
    monkeypatch.setattr(core, "check_int", lambda name, *args: names.append(name) or real(name, *args))
    table = CodeTable.perbit(8, 3, [0.05] * 8)
    pmf = ingest_trace([f"{v}\n" for v in range(0, 256, 3)] * 2, 0, 8)
    laws = [pmf, exact_distortion(table), exact_distortion(table, pmf)]
    laws += [simulate(table, TailConstraint.reciprocal(8, 3), 20_000, 1, value_source=pmf).distribution]
    assert all(law.keys.size > 50 for law in laws)
    assert "value" not in names and "m" not in names


# Probabilities that are not real numbers are a ParameterError naming the
# entry, where a comparison raised a bare TypeError or numpy's float64
# conversion parsed a string.
NOT_REAL = ["x", "0.1", b"0.1", None, 0.5j, np.complex128(0.5)]
REAL = [0.25, 0, 1, True, np.float32(0.25), np.int64(0), np.float64(0.5), Fraction(1, 4), Decimal("0.25")]


def _probability_builds(p):
    return [
        lambda: CodeTable.perbit(3, 2, [p, 0, 0]),
        lambda: CodeTable.iid(3, 2, p),
        lambda: UpsetModel(3, (p, 0, 0), (0, 0, 0)),
        lambda: UpsetModel(3, (0, 0, 0), [0, p, 0]),
        lambda: TailConstraint(3, 2, [1, 2], [p, 0.25]),
        lambda: TailConstraint.from_table(3, 2, {1: 1.0, 2: p}),
    ]


@pytest.mark.parametrize("p", NOT_REAL, ids=repr)
def test_probabilities_that_are_not_real_numbers_are_refused_by_name(p):
    names = ["p_0", "p_0", "upset_prob[0]", "forced_one_prob[1]", "bound", "bound"]
    for build, name in zip(_probability_builds(p), names):
        with pytest.raises(ParameterError, match=f"^{re.escape(name)} must be a real number, got {re.escape(repr(p))}$"):
            build()
    with pytest.raises(ParameterError, match="^bound must be a real number, got '0.5'$"):
        TailConstraint(3, 2, [1, 2], ["0.5", b"0.25"])


@pytest.mark.parametrize("p", REAL, ids=repr)
def test_probabilities_accept_every_real_number(p):
    for build in _probability_builds(p):
        build()


def test_upset_model_holds_tuples():
    from_lists = UpsetModel(3, [0.1, 0, 0], [0, 0, 0])
    from_tuples = UpsetModel(3, (0.1, 0, 0), (0, 0, 0))
    assert from_lists.upset_prob == (0.1, 0, 0) and from_lists.forced_one_prob == (0, 0, 0)
    assert from_lists == from_tuples and hash(from_lists) == hash(from_tuples)
    assert UpsetModel(3, np.array([0.1, 0, 0]), (0, 0, 0)) == from_tuples
