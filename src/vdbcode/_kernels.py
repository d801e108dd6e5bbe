"""Hot enumeration kernels, in plain numpy.

Everything here is exhaustive counting over word/mask spaces: 2**L words
crossed with error masks, or 4**L (word, mask) outcomes for the exact
distortion sweep.  Each kernel pushes its loop through broadcast arrays
and is deterministic:

    distance_counts(L, masks)      int64 histogram of |x - (x ^ e)| over all
                                   2**L words x and every mask e in `masks`
    reach_matrix(L, masks)         bool [len(masks), 2**L]; [j, m] is set iff
                                   some word x has |x - (x ^ masks[j])| = m
    mask_probabilities(probs)      float64 [2**L]; the product measure of mask e,
                                   with bit i of e set <-> factor probs[i]
    distortion_pmf_flip(p, f_V)    float64 [2**L]; exact f_M of the independent
                                   bit-flip channel under the value law f_V
    distortion_pmf_forced(q1, q0, f_V)
                                   float64 [2**L]; exact f_M of the forced-value
                                   channel (q1/q0: per-bit force-to-1/0 laws)

The PMF kernels call `mask_probabilities` through this module's public
name, so a wrapper installed on that name sees their inner calls too.
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


# Flip probabilities do not depend on the carrier word, so the mask
# measure is computed once and scattered over |x - (x ^ e)|.
def distortion_pmf_flip(flip_probs: np.ndarray, value_probs: np.ndarray) -> np.ndarray:
    n = value_probs.shape[0]
    mask_p = mask_probabilities(flip_probs)
    pmf = np.zeros(n, dtype=np.float64)
    masks = np.arange(n, dtype=np.int64)
    for x in range(n):
        vp = value_probs[x]
        if vp == 0.0:
            continue
        m = np.abs(x - (x ^ masks))
        pmf += vp * np.bincount(m, weights=mask_p, minlength=n)
    return pmf


# Given the carrier word, each bit still flips independently: a 0 bit flips
# when forced to 1, a 1 bit flips when forced to 0 (a matching force is
# masked), so the mask measure is rebuilt per word.
def distortion_pmf_forced(
    force_to_one: np.ndarray, force_to_zero: np.ndarray, value_probs: np.ndarray
) -> np.ndarray:
    n = value_probs.shape[0]
    L = force_to_one.shape[0]
    pmf = np.zeros(n, dtype=np.float64)
    masks = np.arange(n, dtype=np.int64)
    for x in range(n):
        vp = value_probs[x]
        if vp == 0.0:
            continue
        bits = (x >> np.arange(L)) & 1
        flip = np.where(bits == 0, force_to_one, force_to_zero)
        mask_p = mask_probabilities(flip)
        m = np.abs(x - (x ^ masks))
        pmf += vp * np.bincount(m, weights=mask_p, minlength=n)
    return pmf

