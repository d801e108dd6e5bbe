import pytest

from vdbcode import ParameterError, WordSpec, distortion_range


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
