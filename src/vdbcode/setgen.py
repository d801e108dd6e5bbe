"""Construction of the per-distortion placement-set family.

For each integer distortion m, the placement set S_m holds every error
mask of weight <= k that can change some word's value by exactly m.  Two
independent constructions are provided: the brute-force route enumerates
all (word, mask) pairs, while the fast route enumerates from the mask
side: every mask of weight <= k with every sign pattern on its bits
(top sign +) gives one (m, mask) pair, m = sum_i s_i * 2**i, since a mask
realizes m precisely when m has a signed-binary expansion living on it.
Their exact agreement is the correctness anchor for the fast route.
PlacementSets holds the family as sorted (m, mask) arrays, one row per
pair, which the solvers evaluate directly; an empty S_m has no rows.
serialize_sets writes the output-only vdb-sets-v1 text.
"""
from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from . import _kernels
from .core import WordSpec, check_ints, distortion_range

SETS_FORMAT = "vdb-sets-v1"


class PlacementSets:
    """The placement sets as (m, mask) pairs: row r puts masks[r] in S_{ms[r]}.

    `ms` and `masks` are read-only int64 arrays sorted by (m, mask); an m
    whose S_m is empty has no rows.  PlacementSets(L, k, {m: masks})
    builds the family from a mapping; each m must be in [1, m_max] and each
    mask a nonzero L-bit word, as serialize_sets writes exactly L digits of it.
    """

    def __init__(self, L: int, k: int, sets: Mapping[int, Iterable[int]]) -> None:
        _, m_max = distortion_range(WordSpec(L), k)
        groups = [list(s) for s in sets.values()]
        ms = np.repeat(check_ints("m", sets.keys(), 1, m_max), [len(g) for g in groups])
        masks = check_ints("mask", chain.from_iterable(groups), 1, (1 << L) - 1)
        self._freeze(L, k, ms, masks)

    def _freeze(self, L: int, k: int, ms: np.ndarray, masks: np.ndarray) -> PlacementSets:
        order = np.lexsort((masks, ms))
        self.L, self.k, self.ms, self.masks = L, k, ms[order], masks[order]
        self.ms.flags.writeable = self.masks.flags.writeable = False
        return self

    @property
    def sets(self) -> dict[int, frozenset[int]]:
        """S_m for every m with a nonempty S_m."""
        keys, starts = np.unique(self.ms, return_index=True)
        groups = np.split(self.masks, starts[1:])
        return {m: frozenset(g.tolist()) for m, g in zip(keys.tolist(), groups)}

    def cardinalities(self) -> dict[int, int]:
        """|S_m| for every m with a nonempty S_m, ascending in m."""
        keys, counts = np.unique(self.ms, return_counts=True)
        return dict(zip(keys.tolist(), counts.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlacementSets):
            return NotImplemented
        same = (self.L, self.k) == (other.L, other.k) and np.array_equal(self.ms, other.ms)
        return same and np.array_equal(self.masks, other.masks)


def _from_pairs(L: int, k: int, ms: np.ndarray, masks: np.ndarray) -> PlacementSets:
    """The family of the pairs (ms[r], masks[r]), given in any order."""
    return PlacementSets.__new__(PlacementSets)._freeze(L, k, ms, masks)


def sets_bruteforce(L: int, k: int) -> PlacementSets:
    """Placement sets by exhaustive enumeration of all (word, mask) pairs.

    Every pair at Hamming distance <= k is one {x, x ^ e}; the
    differing-bit mask e joins the set of the pair's integer distance.
    `_kernels.reach_pairs` takes each unordered pair once, from the word
    with e's top bit t clear.  The bits above t and below e's lowest bit
    b are equal in x and x ^ e and cancel in the distance, so only
    2**(t - b) words are swept against the shape e >> b.  Each distinct
    shape is swept once, and every shift of it takes its distances
    scaled by 2**b; memory stays O(2**L) plus the pairs found.
    """
    distortion_range(WordSpec(L), k)  # validates L and k
    ms, masks = zip(*(_kernels.reach_pairs(L, w) for w in range(1, k + 1)))
    return _from_pairs(L, k, np.concatenate(ms), np.concatenate(masks))


def sets_fast(L: int, k: int) -> PlacementSets:
    """Placement sets enumerated from the mask side; equals sets_bruteforce.

    Flipping the bits of a mask e moves a word by sum_{i in e} s_i * 2**i,
    with s_i = +1 for a 0->1 flip and -1 for a 1->0 flip, and every sign
    pattern occurs for some word.  So e lies in S_m exactly when some
    signed-binary expansion of m (digits -1/0/+1, digit i weighing 2**i)
    has support e.  The top digit outweighs all lower ones together
    (2**t > 2**t - 1), so it fixes the expansion's sign: the patterns with
    a + on top give every m > 0 that e carries, and their sign mirrors
    give the -m on the same support.  Two patterns on one support never
    share a value (their difference has a lowest nonzero digit of +-2), so
    each (m, e) pair comes out exactly once, sum_{w<=k} C(L, w) * 2**(w-1)
    pairs in all, and no dedup is needed.  `_kernels.signed_sums` lists
    the patterns of one weight.
    """
    distortion_range(WordSpec(L), k)  # validates L and k
    ms, masks = zip(*(_kernels.signed_sums(L, w) for w in range(1, k + 1)))
    return _from_pairs(L, k, np.concatenate(ms), np.concatenate(masks))


# Row r's digits are bits L-1..0 of masks[r] as ASCII '0'/'1', one byte
# each, so the n x L digit matrix viewed as S{L} holds one row's digit
# string per entry, and one %-format writes every row.
def serialize_sets(ps: PlacementSets) -> str:
    """Text form: header lines, then one `m,mask` row per member, sorted."""
    bits = (ps.masks[:, None] >> np.arange(ps.L - 1, -1, -1)) & 1
    digits = (bits.astype(np.uint8) + ord("0")).view(f"S{ps.L}").ravel()
    rows = chain.from_iterable(zip(ps.ms.tolist(), digits.tolist()))
    body = b"%d,%s\n" * ps.ms.size % tuple(rows)
    return f"format={SETS_FORMAT}\nL={ps.L}\nk={ps.k}\n" + body.decode("ascii")
