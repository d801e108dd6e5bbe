"""Each numpy kernel against a plain-Python loop transcription of it:
integer kernels bit for bit, the PMF kernels to round-off."""
import numpy as np
import pytest

from vdbcode import _kernels
from vdbcode.combinatorics import masks_of_weight, masks_up_to_weight


# ---------------------------------------------------------------------------
# loop references, one word and one mask at a time


def ref_distance_counts(L, masks):
    n = 1 << L
    counts = np.zeros(n, dtype=np.int64)
    for j in range(masks.shape[0]):
        e = int(masks[j])
        for x in range(n):
            counts[abs(x - (x ^ e))] += 1
    return counts


def ref_reach_matrix(L, masks):
    n = 1 << L
    reach = np.zeros((masks.shape[0], n), dtype=np.bool_)
    for j in range(masks.shape[0]):
        e = int(masks[j])
        for x in range(n):
            reach[j, abs(x - (x ^ e))] = True
    return reach


def ref_mask_probabilities(probs):
    L = probs.shape[0]
    out = np.empty(1 << L, dtype=np.float64)
    out[0] = 1.0
    size = 1
    for i in range(L):
        p = probs[i]
        for j in range(size - 1, -1, -1):
            v = out[j]
            out[j] = v * (1.0 - p)
            out[size + j] = v * p
        size *= 2
    return out


def ref_distortion_pmf_flip(flip_probs, value_probs):
    n = value_probs.shape[0]
    mask_p = ref_mask_probabilities(flip_probs)
    pmf = np.zeros(n, dtype=np.float64)
    for x in range(n):
        vp = value_probs[x]
        if vp == 0.0:
            continue
        for e in range(n):
            pmf[abs(x - (x ^ e))] += vp * mask_p[e]
    return pmf


def ref_distortion_pmf_forced(force_to_one, force_to_zero, value_probs):
    n = value_probs.shape[0]
    L = force_to_one.shape[0]
    pmf = np.zeros(n, dtype=np.float64)
    flip = np.empty(L, dtype=np.float64)
    for x in range(n):
        vp = value_probs[x]
        if vp == 0.0:
            continue
        for i in range(L):
            flip[i] = force_to_zero[i] if (x >> i) & 1 else force_to_one[i]
        mask_p = ref_mask_probabilities(flip)
        for e in range(n):
            pmf[abs(x - (x ^ e))] += vp * mask_p[e]
    return pmf


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("L,k", [(3, 2), (6, 3)])
def test_distance_counts_matches_loop(L, k):
    masks = masks_of_weight(L, k)
    assert np.array_equal(_kernels.distance_counts(L, masks), ref_distance_counts(L, masks))


@pytest.mark.parametrize("L,k", [(3, 2), (6, 3)])
def test_reach_matrix_matches_loop(L, k):
    masks = masks_up_to_weight(L, k)
    assert np.array_equal(_kernels.reach_matrix(L, masks), ref_reach_matrix(L, masks))


def test_mask_probabilities_matches_loop_bitwise():
    rng = np.random.default_rng(1)
    for L in (1, 4, 8):
        probs = rng.random(L)
        assert np.array_equal(_kernels.mask_probabilities(probs), ref_mask_probabilities(probs))


@pytest.mark.parametrize("L", [2, 4, 6])
def test_distortion_pmf_flip_matches_loop(L):
    rng = np.random.default_rng(2 + L)
    probs = rng.random(L)
    values = rng.random(1 << L)
    values[rng.random(1 << L) < 0.25] = 0.0  # exercise the zero-mass skip
    values /= values.sum()
    np.testing.assert_allclose(
        _kernels.distortion_pmf_flip(probs, values),
        ref_distortion_pmf_flip(probs, values),
        rtol=0,
        atol=1e-14,
    )


@pytest.mark.parametrize("L", [2, 4, 6])
def test_distortion_pmf_forced_matches_loop(L):
    rng = np.random.default_rng(3 + L)
    f1 = rng.random(L) * 0.5
    f0 = rng.random(L) * 0.5
    values = rng.random(1 << L)
    values[rng.random(1 << L) < 0.25] = 0.0
    values /= values.sum()
    np.testing.assert_allclose(
        _kernels.distortion_pmf_forced(f1, f0, values),
        ref_distortion_pmf_forced(f1, f0, values),
        rtol=0,
        atol=1e-14,
    )

