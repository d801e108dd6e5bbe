"""Hot enumeration kernels, in plain numpy.

A word x moved by error mask e lands at x ^ e, a change of
sum_{i in e} s_i * 2**i with s_i = +1 for a 0->1 flip and -1 for a 1->0
flip, and each sign pattern on a weight-w mask is the bit pattern on e
of exactly 2**(L - w) words.  The signed-sum kernel lists those changes
from the mask side and so covers every (word, mask) pair without
sweeping the words; only the reach-pairs kernel, which serves the
brute-force placement sets, sweeps the words, once per mask shape
e >> b (b the mask's lowest bit), shared by every shift of that shape.
The distortion-law kernel likewise folds the word one bit at a time
instead of sweeping (word, mask) pairs.  Each kernel is deterministic:

    mask_powers(L, w)              int64 [C(L, w), w]; row j holds the powers
                                   2**i of the bits of the j-th weight-w
                                   L-bit mask, masks ascending, powers
                                   ascending; the one builder of weight-w
                                   masks (a row's sum is its mask)
    signed_sums(L, w)              (ms, masks), two int64 arrays with one
                                   entry per weight-w mask e (ascending)
                                   and sign pattern on e with + on its top
                                   bit: m = sum_i s_i * 2**i > 0 and e;
                                   the one enumeration of sign patterns,
                                   read by the placement sets and Z
    reach_pairs(L, w)              (ms, masks), int64, one entry per weight-w
                                   mask e (ascending) and m (ascending) with
                                   |x - (x ^ e)| = m for some word x; a word
                                   sweep that visits each unordered pair
                                   {x, x ^ e} once, from the word with e's
                                   top bit t clear; the bits above t and
                                   below e's lowest bit b are equal in x and
                                   x ^ e and cancel in the distance, so it
                                   sweeps 2**(t - b) words against the
                                   shape e >> b, once per distinct shape,
                                   and every shift of that shape reuses
                                   its distances scaled by 2**b; O(2**L)
                                   memory plus at most 2**(w - 1) distances
                                   per shape, kept as the brute-force
                                   oracle of the placement sets
    mask_probabilities(probs)      float64 [2**L]; the product measure of mask e,
                                   with bit i of e set <-> factor probs[i],
                                   multiplied from bit 0 up; read by
                                   simulate and placement_mass (the solvers
                                   take the same products from their own
                                   masks, in the same order)
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


# Lexicographic combinations of the bit positions taken high to low come
# out in descending mask order (the highest differing bit decides), so
# reversing both axes gives ascending masks with ascending powers.
def mask_powers(L: int, w: int) -> np.ndarray:
    bits = np.array(list(combinations(range(L - 1, -1, -1), w)), dtype=np.int64)
    return np.left_shift(1, bits[::-1, ::-1])


# Row j of the patterns holds the signs of pattern j; bit w-1 of
# j < 2**(w-1) is 0, so the top (last) bit of every mask gets +.
def signed_sums(L: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    powers = mask_powers(L, w)
    signs = 1 - 2 * ((np.arange(1 << (w - 1))[:, None] >> np.arange(w)) & 1)
    return (powers @ signs.T).ravel(), np.repeat(powers.sum(axis=1), signs.shape[0])


# Each unordered pair {x, x ^ e} is visited once, from the word x with
# the mask's top bit t clear: x ^ e agrees with x above t and has bit t
# set, so (x ^ e) - x > 0.  The bits above t and below e's lowest bit b
# are the same in x and x ^ e and cancel in the difference, so the
# 2**(t - b) words j < 2**(t - b), swept against the shape f = e >> b,
# reach every distance the mask reaches, as ((j ^ f) - j) * 2**b; each
# unscaled distance is below 2**(t - b + 1).  Every shift f << b of one
# shape reaches the same distances times 2**b, so each distinct f is
# swept once and its hits, at most 2**(w - 1), are kept for the shifts
# that follow.  `moved` and `seen` are reused for every sweep; `seen` is
# cleared at just the entries one sweep set.
def reach_pairs(L: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    words = np.arange(1 << (L - 1), dtype=np.int64)
    moved = np.empty_like(words)
    seen = np.zeros(1 << L, dtype=np.bool_)
    masks = mask_powers(L, w).sum(axis=1)
    shapes: dict[int, np.ndarray] = {}
    ms = []
    for e in masks.tolist():
        low = (e & -e).bit_length() - 1
        f = e >> low
        hit = shapes.get(f)
        if hit is None:
            top = 1 << (f.bit_length() - 1)
            x, d = words[:top], moved[:top]
            np.bitwise_xor(x, f, out=d)
            np.subtract(d, x, out=d)
            seen[d] = True
            hit = shapes[f] = np.flatnonzero(seen[: 2 * top])
            seen[hit] = False
        ms.append(hit << low)
    return np.concatenate(ms), np.repeat(masks, [m.size for m in ms])


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
