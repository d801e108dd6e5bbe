"""Each numpy kernel against a plain-Python loop transcription of it:
integer kernels bit for bit, the distortion-law kernel to round-off.
The submask kernel is checked against the word-sweep loops, alone and
through the Z counts built on it; the Y* counts, read off the
signed-digit placement sets, are checked against the same sweep."""
import numpy as np
import pytest

from vdbcode import _kernels
from vdbcode.combinatorics import _y_star_counts, z_exact_table


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


def ref_masks(L, weights):
    """Every L-bit mask whose weight is in `weights`, ascending."""
    return np.array([e for e in range(1 << L) if bin(e).count("1") in weights], dtype=np.int64)


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


@pytest.mark.parametrize("L,w", [(1, 1), (3, 2), (6, 3), (8, 4), (8, 8)])
def test_mask_powers_match_loop(L, w):
    powers = _kernels.mask_powers(L, w)
    assert np.array_equal(powers.sum(axis=1), ref_masks(L, (w,)))
    for row in powers.tolist():
        mask = sum(row)
        assert row == [1 << i for i in range(L) if mask >> i & 1]


@pytest.mark.parametrize("L,w", [(1, 1), (3, 2), (6, 3), (8, 4)])
def test_submask_distances_match_loop(L, w):
    # Each mask's entries, counted 2**(L - w) times each, are its word sweep.
    masks, dist = _kernels.submask_distances(L, w)
    assert np.array_equal(masks, ref_masks(L, (w,)))
    assert dist.shape == (masks.size, 1 << w)
    for j in range(masks.size):
        counts = np.bincount(dist[j], minlength=1 << L) << (L - w)
        assert np.array_equal(counts, ref_distance_counts(L, masks[j : j + 1]))


@pytest.mark.parametrize("L,k", [(3, 2), (6, 3), (8, 4)])
def test_submask_counts_match_loop(L, k):
    z = ref_distance_counts(L, ref_masks(L, (k,)))
    table = z_exact_table(L, k)
    assert np.array_equal(table, z[: table.size])
    assert table.sum() == z.sum()
    y = ref_reach_matrix(L, ref_masks(L, range(1, k + 1))).sum(axis=0)
    counts = _y_star_counts(L, k)
    assert np.array_equal(counts, y[: counts.size])
    assert counts.sum() == y.sum()


@pytest.mark.parametrize("L,k", [(3, 2), (6, 3)])
def test_reach_matrix_matches_loop(L, k):
    masks = ref_masks(L, range(1, k + 1))
    assert np.array_equal(_kernels.reach_matrix(L, masks), ref_reach_matrix(L, masks))


def test_mask_probabilities_matches_loop_bitwise():
    rng = np.random.default_rng(1)
    for L in (1, 4, 8):
        probs = rng.random(L)
        assert np.array_equal(_kernels.mask_probabilities(probs), ref_mask_probabilities(probs))


PMF_LENGTHS = [1, 2, 3, 4, 5, 6, 8]


def value_laws(rng, L):
    """A dense law with some zero masses, a point mass and a sparse law."""
    n = 1 << L
    dense = rng.random(n)
    dense[rng.random(n) < 0.25] = 0.0
    dense[rng.integers(n)] += 1.0
    point = np.zeros(n)
    point[rng.integers(n)] = 1.0
    sparse = np.zeros(n)
    sparse[rng.choice(n, size=min(3, n), replace=False)] = rng.random(min(3, n)) + 0.1
    return [law / law.sum() for law in (dense, point, sparse)]


def force_laws(rng, L):
    """Random per-bit laws, and one with some entries at exactly 0 and 1."""
    q = rng.random(L)
    edge = rng.random(L)
    edge[0] = 0.0
    edge[L // 2] = 1.0
    return [q, edge]


def assert_pmf_matches(pmf, ref):
    np.testing.assert_allclose(pmf, ref, rtol=0, atol=1e-14)
    # Impossible distortions must come out as exact zeros (the support
    # check of the acceptance suite relies on them).
    assert np.array_equal(pmf == 0.0, ref == 0.0)


@pytest.mark.parametrize("L", PMF_LENGTHS)
def test_distortion_pmf_flip_matches_loop(L):
    # The flip channel is the forced channel with equal force laws.
    rng = np.random.default_rng(2 + L)
    for probs in force_laws(rng, L):
        for values in value_laws(rng, L):
            assert_pmf_matches(
                _kernels.distortion_pmf_forced(probs, probs, values),
                ref_distortion_pmf_flip(probs, values),
            )


@pytest.mark.parametrize("L", PMF_LENGTHS)
def test_distortion_pmf_forced_matches_loop(L):
    rng = np.random.default_rng(3 + L)
    f1, f0 = rng.random(L) * 0.5, rng.random(L) * 0.5
    e1, e0 = rng.random(L) * 0.5, rng.random(L) * 0.5
    e1[0] = e0[0] = 0.0  # never upset
    e1[L // 2], e0[L // 2] = 1.0, 0.0  # always forced to 1
    e0[-1] = 1.0 - e1[-1]  # always upset
    for q1, q0 in ((f1, f0), (e1, e0)):
        for values in value_laws(rng, L):
            assert_pmf_matches(
                _kernels.distortion_pmf_forced(q1, q0, values),
                ref_distortion_pmf_forced(q1, q0, values),
            )
