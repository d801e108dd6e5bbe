"""Hot enumeration kernels, in plain numpy.

The counting kernels sweep 2**L words against a set of error masks; the
distortion-law kernel folds the word one bit at a time instead of
sweeping (word, mask) pairs.  Each kernel pushes its loop through
broadcast arrays and is deterministic:

    distance_counts(L, masks)      int64 histogram of |x - (x ^ e)| over all
                                   2**L words x and every mask e in `masks`
    reach_matrix(L, masks)         bool [len(masks), 2**L]; [j, m] is set iff
                                   some word x has |x - (x ^ masks[j])| = m
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

import numpy as np


def distance_counts(L: int, masks: np.ndarray) -> np.ndarray:
    n = 1 << L
    counts = np.zeros(n, dtype=np.int64)
    x = np.arange(n, dtype=np.int64)
    for e in masks.astype(np.int64):
        m = np.abs(x - (x ^ e))
        counts += np.bincount(m, minlength=n)
    return counts


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
