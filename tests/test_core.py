import numpy as np
import pytest

from vdbcode import (
    CodeTable,
    EmpiricalPMF,
    ParameterError,
    TailConstraint,
    UpsetModel,
    WordSpec,
    bounds_dataset,
    distortion_range,
    sets_bruteforce,
    sets_fast,
    y_star,
)


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
