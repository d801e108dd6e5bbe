"""Each numpy kernel against a plain-Python loop transcription of it:
integer kernels bit for bit, the distortion-law kernel to round-off.
The signed-sum kernel is checked against the word-sweep loops, alone and
through the Z counts and the Y* counts read off it (Y* through the
signed-digit placement sets).  The reach-pairs kernel, which sweeps each
mask shape once for all its shifts, is also checked at wider words against
a sweep per mask."""
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


def ref_reach_pairs_per_mask(L, w):
    """reach_pairs with one word sweep per mask: no mask reuses another's hits."""
    words = np.arange(1 << (L - 1), dtype=np.int64)
    moved = np.empty_like(words)
    seen = np.zeros(1 << L, dtype=np.bool_)
    masks = _kernels.mask_powers(L, w).sum(axis=1)
    ms = []
    for e in masks.tolist():
        low = (e & -e).bit_length() - 1
        f = e >> low
        top = 1 << (f.bit_length() - 1)
        x, d = words[:top], moved[:top]
        np.bitwise_xor(x, f, out=d)
        np.subtract(d, x, out=d)
        seen[d] = True
        hit = np.flatnonzero(seen[: 2 * top])
        seen[hit] = False
        ms.append(hit << low)
    return np.concatenate(ms), np.repeat(masks, [m.size for m in ms])


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
def test_signed_sums_match_loop(L, w):
    # Each mask's m values, counted 2 * 2**(L - w) times each (the mirror
    # -m, and the words carrying each sign pattern), are its word sweep.
    ms, masks = _kernels.signed_sums(L, w)
    assert ms.shape == masks.shape
    assert np.all(np.diff(masks) >= 0)
    assert np.array_equal(np.unique(masks), ref_masks(L, (w,)))
    for e in ref_masks(L, (w,)):
        counts = np.bincount(ms[masks == e], minlength=1 << L) << (L - w + 1)
        assert np.array_equal(counts, ref_distance_counts(L, np.array([e])))


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


@pytest.mark.parametrize(
    "L,w", [(1, 1), (3, 2), (5, 5), (6, 3), (8, 4), (9, 2), (10, 3), (11, 2), (12, 1)]
)
def test_reach_pairs_match_loop(L, w):
    # The true cells of the loop's reach matrix, row-major: masks ascending,
    # each mask's m ascending.  A mask with top bit t and lowest bit b is
    # reached through its shape e >> b, swept once over 2**(t - b) words for
    # all its shifts, distances scaled by 2**b; (1, 1) is a one-word sweep,
    # (5, 5) has w = L, and in (9, 2), (10, 3), (11, 2) and (12, 1) the
    # masks' top and lowest bits run through many or all positions, (12, 1)
    # one one-word sweep shared by every shift 2**b up to 2**(L - 1).
    masks = ref_masks(L, (w,))
    rows, ms = np.nonzero(ref_reach_matrix(L, masks))
    got_ms, got_masks = _kernels.reach_pairs(L, w)
    assert got_ms.dtype == got_masks.dtype == np.int64
    assert np.array_equal(got_ms, ms)
    assert np.array_equal(got_masks, masks[rows])


@pytest.mark.parametrize(
    "L,w",
    [(L, w) for L in range(13, 17) for w in range(1, 5)]
    + [(16, 5), (18, 3), (20, 2)]
    + [(12, w) for w in range(1, 13)],
)
def test_reach_pairs_equal_the_per_mask_sweep(L, w):
    # Sharing one sweep among the shifts of a shape changes no array,
    # dtype or order; at these sizes many masks share a shape, and masks
    # of one span t - b but different shapes must not share hits.
    got, ref = _kernels.reach_pairs(L, w), ref_reach_pairs_per_mask(L, w)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


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
