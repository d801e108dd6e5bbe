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
"""
from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from . import _kernels
from .core import ParameterError, SYMMETRIC, WordSpec, distortion_range, format_lines

SETS_FORMAT = "vdb-sets-v1"


def reach_chunk_rows(L: int) -> int:
    """Masks per reach-matrix chunk, keeping each chunk around 64 MB."""
    return max(1, (1 << 26) >> L)


class PlacementSets:
    """The placement sets as (m, mask) pairs: row r puts masks[r] in S_{ms[r]}.

    `ms` and `masks` are read-only int64 arrays sorted by (m, mask); an m
    whose S_m is empty has no rows.  PlacementSets(L, k, {m: masks})
    builds the family from a mapping.
    """

    def __init__(self, L: int, k: int, sets: Mapping[int, Iterable[int]]) -> None:
        pairs = np.array([(m, e) for m, s in sets.items() for e in s], dtype=np.int64)
        self._freeze(L, k, *pairs.reshape(-1, 2).T)

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

    Every ordered pair at Hamming distance <= k is one (x, x ^ e); the
    differing-bit mask e joins the set of the pair's integer distance.
    Masks are processed in chunks to bound the reach-matrix memory, and
    each chunk's (mask, m) pairs are the true cells of its reach matrix.
    """
    distortion_range(WordSpec(L, SYMMETRIC), k)  # validates L and k
    masks = np.concatenate([_kernels.mask_powers(L, w).sum(axis=1) for w in range(1, k + 1)])
    m_parts, mask_parts = [], []
    step = reach_chunk_rows(L)
    for start in range(0, masks.size, step):
        chunk = masks[start : start + step]
        rows, ms = np.nonzero(_kernels.reach_matrix(L, chunk))
        m_parts.append(ms.astype(np.int64, copy=False))
        mask_parts.append(chunk[rows])
    return _from_pairs(L, k, np.concatenate(m_parts), np.concatenate(mask_parts))


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
    distortion_range(WordSpec(L, SYMMETRIC), k)  # validates L and k
    ms, masks = zip(*(_kernels.signed_sums(L, w) for w in range(1, k + 1)))
    return _from_pairs(L, k, np.concatenate(ms), np.concatenate(masks))


def values_at_distance(s: int, m: int, L: int) -> set[int]:
    """The L-bit values at integer distance exactly m from s."""
    spec = WordSpec(L, SYMMETRIC)
    spec.validate_word(s)
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    return {v for v in (s - m, s + m) if 0 <= v < (1 << L)}


def serialize_sets(ps: PlacementSets) -> str:
    """Text form: header lines, then one `m,mask` row per member, sorted."""
    lines = [f"format={SETS_FORMAT}", f"L={ps.L}", f"k={ps.k}"]
    lines += [f"{m},{mask:0{ps.L}b}" for m, mask in zip(ps.ms.tolist(), ps.masks.tolist())]
    return "\n".join(lines) + "\n"


def _parse_header(lines: Iterator[tuple[int, str]]) -> dict[str, str]:
    header = {}
    for key in ("L", "k"):
        lineno, line = next(lines)
        name, _, value = line.partition("=")
        if name != key:
            raise ParameterError(f"line {lineno}: expected {key}=<int>")
        header[key] = value
    return header


def parse_sets(text: str) -> PlacementSets:
    lines = format_lines(text, SETS_FORMAT)
    try:
        header = _parse_header(lines)
    except StopIteration:
        raise ParameterError("truncated sets file") from None
    try:
        L, k = int(header["L"]), int(header["k"])
    except ValueError:
        raise ParameterError(f"sets file has non-integer L/k headers: {header}") from None
    _, m_max = distortion_range(WordSpec(L, SYMMETRIC), k)
    first_seen: dict[tuple[int, int], int] = {}
    for lineno, line in lines:
        m_text, _, mask_text = line.partition(",")
        try:
            m = int(m_text)
            mask = int(mask_text, 2)
        except ValueError:
            raise ParameterError(f"line {lineno}: bad row {line!r}") from None
        if not 1 <= m <= m_max:
            raise ParameterError(f"line {lineno}: m={m} outside [1, {m_max}]")
        if not 0 <= mask < 1 << L:
            raise ParameterError(f"line {lineno}: mask {mask_text} is not an L={L}-bit mask")
        if mask.bit_count() > k:
            raise ParameterError(f"line {lineno}: mask {mask_text} has weight above k={k}")
        first = first_seen.setdefault((m, mask), lineno)
        if first != lineno:
            raise ParameterError(f"line {lineno}: duplicate row {line!r} (first at line {first})")
    return _from_pairs(L, k, *np.array(list(first_seen), dtype=np.int64).reshape(-1, 2).T)
