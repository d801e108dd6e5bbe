"""Hot enumeration kernels, in plain numpy.

A word x moved by error mask e lands at distance
|x - (x ^ e)| = |2 * (x & e) - e|, so the distance depends on x only
through the submask s = x & e, and each of the 2**w submasks of a
weight-w mask is x & e for exactly 2**(L - w) words.  The submask kernel
folds a mask's bits in one at a time and so counts every (word, mask)
pair without sweeping the words; only the reach-matrix kernel, which
serves the brute-force placement sets, sweeps all 2**L words.  The
distortion-law kernel likewise folds the word one bit at a time instead
of sweeping (word, mask) pairs.  Each kernel pushes its loop through
broadcast arrays and is deterministic:

    submask_distances(L, w)        (masks, dist): the weight-w masks e,
                                   ascending, and int64 [len(masks), 2**w]
                                   with dist[j, c] = |2s - e| for the
                                   submask s of masks[j] holding the mask's
                                   i-th lowest set bit iff bit i of c is
                                   set; each entry stands for 2**(L - w)
                                   words
    reach_matrix(L, masks)         bool [len(masks), 2**L]; [j, m] is set iff
                                   some word x has |x - (x ^ masks[j])| = m;
                                   a word-by-word sweep, kept as the
                                   brute-force oracle of the placement sets
    mask_probabilities(probs)      float64 [2**L]; the product measure of mask e,
                                   with bit i of e set <-> factor probs[i]
    distortion_pmf_forced(q1, q0, f_V)
                                   float64 [2**L]; exact f_M of the forced-value
                                   channel (q1/q0: per-bit force-to-1/0 laws)
                                   under the value law f_V, in O(L * 2**L) time
                                   and O(2**L) memory; q1 = q0 = p is the
                                   independent bit-flip channel
"""
from __future__ import annotations

from itertools import combinations

import numpy as np


# diff[:, c] is 2s - e over the mask bits folded so far.  Folding the
# mask's i-th lowest set bit b puts the columns that leave b out of s
# (-b) before those that take it in (+b), so bit i of c marks b.
def submask_distances(L: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    powers = np.left_shift(1, np.array(list(combinations(range(L), w)), dtype=np.int64))
    masks = powers.sum(axis=1)
    order = np.argsort(masks)
    masks, powers = masks[order], powers[order]
    diff = np.zeros((masks.size, 1), dtype=np.int64)
    for i in range(w):
        bit = powers[:, i : i + 1]
        diff = np.concatenate([diff - bit, diff + bit], axis=1)
    return masks, np.abs(diff)


def reach_matrix(L: int, masks: np.ndarray) -> np.ndarray:
    n = 1 << L
    x = np.arange(n, dtype=np.int64)
    reach = np.zeros((masks.shape[0], n), dtype=np.bool_)
    for j, e in enumerate(masks.astype(np.int64)):
        m = np.abs(x - (x ^ e))
        reach[j, m] = True
    return reach


def mask_probabilities(probs: np.ndarray) -> np.ndarray:
    out = np.ones(1, dtype=np.float64)
    for p in probs:
        out = np.concatenate([out * (1.0 - p), out * p])
    return out


# Given the carrier word, bit i moves independently: a 0 bit rises by 2**i
# when forced to 1, a 1 bit drops by 2**i when forced to 0 (a matching
# force is masked).  acc[r, c] is the mass of words whose unfolded high
# bits are r and whose folded low bits moved the value by c - (2**i - 1);
# folding bit i halves the rows and widens the deviation range by 2**(i+1).
def distortion_pmf_forced(
    force_to_one: np.ndarray, force_to_zero: np.ndarray, value_probs: np.ndarray
) -> np.ndarray:
    acc = value_probs.reshape(-1, 1)
    for i, (q1, q0) in enumerate(zip(force_to_one, force_to_zero)):
        s = 1 << i
        width = acc.shape[1]
        zero, one = acc[0::2], acc[1::2]
        nxt = np.zeros((zero.shape[0], width + 2 * s), dtype=np.float64)
        nxt[:, s : s + width] += zero * (1.0 - q1) + one * (1.0 - q0)
        nxt[:, 2 * s :] += zero * q1
        nxt[:, :width] += one * q0
        acc = nxt
    row = acc[0]
    n = value_probs.shape[0]
    pmf = row[n - 1 :].copy()
    pmf[1:] += row[n - 2 :: -1]
    return pmf
