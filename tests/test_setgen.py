import re
import tracemalloc
from itertools import product
from math import comb

import numpy as np
import pytest

from vdbcode import (
    ParameterError,
    PlacementSets,
    sets_bruteforce,
    sets_fast,
    _kernels,
    y_star,
)
from vdbcode.setgen import serialize_sets

REFERENCE_FAMILY_L3K2 = {
    1: {0b001, 0b011},
    2: {0b010, 0b110},
    3: {0b011, 0b101},
    4: {0b100},
    5: {0b101},
    6: {0b110},
}


def test_bruteforce_matches_reference_family():
    ps = sets_bruteforce(3, 2)
    assert {m: set(s) for m, s in ps.sets.items()} == REFERENCE_FAMILY_L3K2
    assert list(ps.cardinalities().values()) == [2, 2, 2, 1, 1, 1]


def test_bruteforce_single_bit():
    ps = sets_bruteforce(1, 1)
    assert ps.sets == {1: frozenset({0b1})}


@pytest.mark.parametrize("L,k", [(1, 1), (3, 1), (16, 3)])
def test_bruteforce_memory_is_one_word_sweep(L, k):
    # One sweep per distinct shape e >> b, over 2**(t - b) words for a
    # mask with top bit t and lowest bit b, into one 2**L `seen` row, its
    # at most 2**(w - 1) distances kept for every shift of the shape; a
    # (masks x 2**L) bool reach matrix at (16, 3) would hold 696 * 65536
    # entries, about 45 MB.  (3, 1) has an empty S_3, which must still give
    # no rows.
    tracemalloc.start()
    try:
        ps = sets_bruteforce(L, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert ps == sets_fast(L, k)
    if L < 4:
        assert ps.ms.tolist() == [1 << i for i in range(L)]


def test_bruteforce_l3k3_includes_full_mask():
    ps = sets_bruteforce(3, 3)
    assert 0b111 in ps.sets[1]  # (-, -, +) realizes distortion 1


def test_placement_sets_mapping_contract():
    # callers outside the package (the benchmark harness among them) build
    # families from a mapping, read .sets and sum cardinalities()
    ps = PlacementSets(3, 1, {1: {0b001}, 2: {0b010}, 3: frozenset(), 4: {0b100}})
    assert ps == sets_bruteforce(3, 1) == sets_fast(3, 1)
    assert ps.sets == {1: {0b001}, 2: {0b010}, 4: {0b100}}  # S_3 is empty: no key
    for L, k in [(3, 2), (8, 3)]:
        ps = sets_fast(L, k)
        assert PlacementSets(L, k, ps.sets) == ps
        assert all(ps.sets.values())
        assert ps.cardinalities() == {m: len(s) for m, s in ps.sets.items()}
        assert sum(ps.cardinalities().values()) == ps.ms.size == ps.masks.size


def test_sets_fast_worked_examples():
    assert sets_fast(3, 2).sets[1] == {0b001, 0b011}
    assert sets_fast(3, 2).sets[4] == {0b100}
    assert 0b111 in sets_fast(3, 3).sets[7]  # (+, +, +)
    assert sets_fast(3, 1).sets.get(7, frozenset()) == frozenset()  # beyond m_max = 4
    assert sets_fast(1, 1).sets == {1: frozenset({0b1})}


def _signed_values(mask):
    """|sum_i s_i 2**i| over every sign pattern on the mask's bits."""
    powers = [1 << i for i in range(mask.bit_length()) if (mask >> i) & 1]
    return {abs(sum(s * q for s, q in zip(signs, powers)))
            for signs in product((-1, 1), repeat=len(powers))}


def test_signed_digit_reps_value_and_weight_postconditions():
    # every (m, mask) row carries a signed-binary expansion of m of weight <= k
    for L in range(1, 9):
        values = {e: _signed_values(e) for e in range(1, 1 << L)}
        for k in sorted({1, min(2, L), L}):
            for m, masks in sets_fast(L, k).sets.items():
                for mask in masks:
                    assert 0 < mask < 1 << L
                    assert bin(mask).count("1") <= k
                    assert m in values[mask]


def _exhaustive_supports(L, value, max_weight):
    # independent oracle: walk all 3**L digit vectors
    return {
        sum(1 << i for i, d in enumerate(digits) if d)
        for digits in product((-1, 0, 1), repeat=L)
        if sum(d << i for i, d in enumerate(digits)) == value
        and sum(1 for d in digits if d) <= max_weight
    }


def test_signed_digit_reps_against_exhaustive_digit_search():
    ps = sets_fast(6, 3)
    for m in (1, 5, 21, 63):
        assert ps.sets.get(m, frozenset()) == _exhaustive_supports(6, m, 3)


def test_signed_digit_reps_mirror():
    # the expansions of -m are the sign mirrors of those of +m: same supports
    ps = sets_fast(4, 3)
    for m in (1, 5, 11):
        assert ps.sets[m] == _exhaustive_supports(4, -m, 3) == _exhaustive_supports(4, m, 3)


def test_sets_fast_parameter_errors():
    with pytest.raises(ParameterError):
        sets_fast(3, 0)
    with pytest.raises(ParameterError):
        sets_fast(3, 4)  # k > L


def test_placement_sets_refuse_masks_beyond_l_bits():
    # serialize_sets writes L digits per mask, so a mask of more bits,
    # or none, would be written as another mask
    for stray in (0, 0b1000, -1):
        with pytest.raises(ParameterError):
            PlacementSets(3, 2, {1: {0b001, stray}})
    with pytest.raises(ParameterError):
        PlacementSets(True, 1, {1: {1}})
    # the int64 conversion read m = 1.5 and mask 1.5 as 1, and no m was checked against m_max = 6
    for sets, message in (({1.5: [1]}, "m must be an int, got 1.5"), ({100: [2]}, "m must be in [1, 6], got 100"),
                          ({0: [2]}, "m must be in [1, 6], got 0"), ({1: [1.5]}, "mask must be an int, got 1.5"),
                          ({1: ["1"]}, "mask must be an int, got '1'")):
        with pytest.raises(ParameterError, match=re.escape(message)):
            PlacementSets(3, 2, sets)


def test_sets_fast_row_count():
    # each (m, mask) pair comes out once: no pair lost, none merged
    for L in range(1, 17):
        for k in range(1, min(L, 4) + 1):
            total = sum(sets_fast(L, k).cardinalities().values())
            assert total == sum(comb(L, w) * 2 ** (w - 1) for w in range(1, k + 1)), (L, k)


def test_rows_follow_the_mapping():
    ps = PlacementSets(3, 2, {m: frozenset(s) for m, s in REFERENCE_FAMILY_L3K2.items()})
    pairs = list(zip(ps.ms.tolist(), ps.masks.tolist()))
    assert pairs == sorted((m, e) for m, s in REFERENCE_FAMILY_L3K2.items() for e in s)
    assert ps.ms.dtype == ps.masks.dtype == np.int64
    assert sets_bruteforce(3, 1).ms.tolist() == [1, 2, 4]  # S_3 is empty: no rows
    with pytest.raises(ValueError):
        ps.masks[0] = 0
    with pytest.raises(ValueError):
        ps.ms[0] = 0


@pytest.mark.parametrize("L, k", [(3, 1), (6, 6), (8, 3), (12, 12), (16, 3), (16, 6)])
def test_rows_are_in_lexsort_order(L, k):
    # The rows each kernel gives, put in (m, mask) order by np.lexsort.
    for build, kernel in ((sets_fast, _kernels.signed_sums), (sets_bruteforce, _kernels.reach_pairs)):
        ms, masks = (np.concatenate(a) for a in zip(*(kernel(L, w) for w in range(1, k + 1))))
        order = np.lexsort((masks, ms))
        ps = build(L, k)
        np.testing.assert_array_equal(ps.ms, ms[order])
        np.testing.assert_array_equal(ps.masks, masks[order])


def test_a_mask_listed_twice_keeps_both_rows():
    ps = PlacementSets(3, 2, {3: [0b101, 0b011, 0b101], 1: [0b001]})
    assert ps.ms.tolist() == [1, 3, 3, 3]
    assert ps.masks.tolist() == [0b001, 0b011, 0b101, 0b101]


def test_fast_equals_bruteforce_small():
    for L in range(1, 8):
        for k in range(1, L + 1):
            assert sets_fast(L, k) == sets_bruteforce(L, k)


def test_fast_equals_bruteforce_wide_word():
    for L, k in [(12, 2), (12, 12), (14, 3), (16, 3), (16, 5), (18, 2), (18, 3), (20, 3), (22, 3)]:
        assert sets_fast(L, k) == sets_bruteforce(L, k)


def test_cardinalities_match_y_star():
    for L, k in [(3, 2), (4, 3), (6, 2), (5, 5)]:
        ps = sets_bruteforce(L, k)
        for m, s in ps.sets.items():
            assert len(s) == y_star(L, k, m)


def test_every_mask_is_realizable():
    # each mask in sets[m] moves some carrier word by exactly m when its
    # bits are flipped
    for L, k in [(3, 2), (3, 3), (5, 2), (6, 3)]:
        ps = sets_fast(L, k)
        for m, masks in ps.sets.items():
            for mask in masks:
                hits = sum(abs(x - (x ^ mask)) == m for x in range(1 << L))
                assert hits > 0, (L, k, m, bin(mask))


def test_serialize_golden_l3k2():
    text = serialize_sets(sets_fast(3, 2))
    assert text == (
        "format=vdb-sets-v1\n"
        "L=3\n"
        "k=2\n"
        "1,001\n"
        "1,011\n"
        "2,010\n"
        "2,110\n"
        "3,011\n"
        "3,101\n"
        "4,100\n"
        "5,101\n"
        "6,110\n"
    )


def serialize_sets_by_row(ps):
    """serialize_sets written one f-string per row."""
    lines = ["format=vdb-sets-v1", f"L={ps.L}", f"k={ps.k}"]
    lines += [f"{m},{mask:0{ps.L}b}" for m, mask in zip(ps.ms.tolist(), ps.masks.tolist())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("L,k", [(1, 1), (3, 2), (3, 3), (8, 8), (12, 3), (16, 3), (20, 3), (12, 12)])
def test_serialize_equals_the_row_by_row_form(L, k):
    ps = sets_fast(L, k)
    assert serialize_sets(ps) == serialize_sets_by_row(ps)


def test_serialize_roundtrip():
    # the rows after the format, L and k headers rebuild the family
    for L, k in [(1, 1), (3, 2), (5, 3)]:
        ps = sets_fast(L, k)
        lines = serialize_sets(ps).splitlines()
        assert lines[:3] == ["format=vdb-sets-v1", f"L={L}", f"k={k}"]
        sets = {}
        for row in lines[3:]:
            m, mask = row.split(",")
            assert len(mask) == L
            sets.setdefault(int(m), set()).add(int(mask, 2))
        assert PlacementSets(L, k, sets) == ps
