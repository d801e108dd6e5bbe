import pytest

from vdbcode import ParameterError, PlacementInfeasibleError, WordSpec, distortion_range
from vdbcode.core import ErrorPlacement, apply_flip_errors, hamming_distance, integer_distance


def test_to_integer_examples():
    # a word's integer value is the word itself; validate_word returns it
    assert WordSpec(8).validate_word(0b00101010) == 42
    assert WordSpec(5).validate_word(0) == 0
    assert WordSpec(3).validate_word(0b111) == 7


def test_to_integer_range_check():
    with pytest.raises(ParameterError):
        WordSpec(3).validate_word(8)
    with pytest.raises(ParameterError):
        WordSpec(3).validate_word(-1)


def test_wordspec_validation():
    with pytest.raises(ParameterError):
        WordSpec(0)
    with pytest.raises(ParameterError):
        WordSpec(25)
    with pytest.raises(ParameterError):
        WordSpec(3, "weird")
    with pytest.raises(ParameterError):
        WordSpec(3, "asymmetric")


def test_hamming_distance_examples():
    assert hamming_distance(42, 32) == 2
    assert hamming_distance(7, 7) == 0
    assert hamming_distance(0b000, 0b111) == 3


def test_integer_distance_examples():
    assert integer_distance(42, 32) == 10
    assert integer_distance(5, 5) == 0
    assert integer_distance(0b011, 0b100) == 1


def test_distances_agree_with_direct_computation():
    # independent recomputation over every pair of 6-bit words
    for x in range(64):
        for y in range(64):
            assert integer_distance(x, y) == abs(x - y)
            assert hamming_distance(x, y) == sum(
                ((x >> i) & 1) != ((y >> i) & 1) for i in range(6)
            )


@pytest.mark.parametrize("L", range(1, 9))
def test_integer_distance_matches_bitwise_value_recomputation(L):
    # rebuild each word's value from its bits and difference those
    values = [sum(((x >> i) & 1) << i for i in range(L)) for x in range(1 << L)]
    for x in range(1 << L):
        assert values[x] == x
    for x in range(0, 1 << L, max(1, (1 << L) // 64)):
        for y in range(1 << L):
            assert integer_distance(x, y) == abs(values[x] - values[y])


def test_distortion_range_examples():
    assert distortion_range(WordSpec(3), 2) == (1, 6)
    assert distortion_range(WordSpec(1), 1) == (1, 1)


def test_distortion_range_k_validation():
    with pytest.raises(ParameterError):
        distortion_range(WordSpec(3), 0)
    with pytest.raises(ParameterError):
        distortion_range(WordSpec(3), 4)


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
            if hamming_distance(x, y) == k
        ]
        up_to_k = [
            abs(x - y)
            for x in range(1 << L)
            for y in range(1 << L)
            if 1 <= hamming_distance(x, y) <= k
        ]
        m_min, m_max = distortion_range(WordSpec(L), k)
        assert max(at_k) == m_max
        assert min(up_to_k) == m_min == 1


def test_apply_flip_errors_single_positive():
    out = apply_flip_errors(0b010, ErrorPlacement(0b001), {0: 1})
    assert out == 0b011


def test_apply_flip_errors_two_downward():
    out = apply_flip_errors(0b111, ErrorPlacement(0b110), {1: -1, 2: -1})
    assert out == 0b001
    assert integer_distance(0b111, out) == 6


def test_apply_flip_errors_distance_one_pattern():
    # the (-, +) pattern on bits (0, 1) realizes distortion 1; valid
    # carriers need bit0=1 and bit1=0
    signs = {0: -1, 1: 1}
    carriers = []
    for x in range(8):
        try:
            out = apply_flip_errors(x, ErrorPlacement(0b011), signs)
        except PlacementInfeasibleError:
            continue
        carriers.append(x)
        assert integer_distance(x, out) == 1
        assert hamming_distance(x, out) == 2
    assert carriers == [0b001, 0b101]


def test_apply_flip_errors_rejects_inconsistent_sign():
    with pytest.raises(PlacementInfeasibleError):
        apply_flip_errors(0b000, ErrorPlacement(0b001), {0: -1})
    with pytest.raises(PlacementInfeasibleError):
        apply_flip_errors(0b001, ErrorPlacement(0b001), {0: 1})


def test_apply_flip_errors_rejects_mismatched_support():
    with pytest.raises(ParameterError):
        apply_flip_errors(0b001, ErrorPlacement(0b011), {0: -1})


def test_apply_flip_errors_hamming_equals_weight():
    # every consistent sign assignment flips exactly weight(e) bits and
    # moves the value by |sum of signed powers|
    for x in range(16):
        for mask in range(1, 16):
            positions = [i for i in range(4) if (mask >> i) & 1]
            signs = {i: (-1 if (x >> i) & 1 else 1) for i in positions}
            out = apply_flip_errors(x, ErrorPlacement(mask), signs)
            assert hamming_distance(x, out) == ErrorPlacement(mask).weight
            assert integer_distance(x, out) == abs(sum(s << i for i, s in signs.items()))


def test_error_placement_weight():
    assert ErrorPlacement(0b1011).weight == 3
    assert ErrorPlacement(0b1011).positions() == (0, 1, 3)
