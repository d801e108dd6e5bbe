"""Construction of the per-distortion placement-set family.

For each integer distortion m, the placement set S_m holds every error
mask of weight <= k that can change some word's value by exactly m.  Two
independent constructions are provided: the brute-force route enumerates
all (word, mask) pairs, while the fast route enumerates from the mask
side: every mask of weight <= k with every sign pattern on its bits
(top sign +) gives one (m, mask) pair, m = sum_i s_i * 2**i, since a mask
realizes m precisely when m has a signed-binary expansion living on it.
Their exact agreement is the correctness anchor for the fast route.
PlacementSets keeps the mapping m -> S_m and derives from it, once, the
sorted (m, mask) rows that the solvers evaluate.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator, NamedTuple

import numpy as np

from . import _kernels
from .combinatorics import masks_up_to_weight, reach_chunk_rows
from .core import ParameterError, SYMMETRIC, WordSpec, distortion_range

SETS_FORMAT = "vdb-sets-v1"


class SetRows(NamedTuple):
    """Placement sets flattened to one row per (m, mask) pair, sorted by (m, mask).

    `ms` holds every distortion key in ascending order, empty sets
    included; row r pairs `ms[m_idx[r]]` with the mask `masks[r]`.
    """

    ms: np.ndarray
    m_idx: np.ndarray
    masks: np.ndarray


@dataclass(frozen=True)
class PlacementSets:
    """Map from distortion m to the set of masks that can realize it."""

    L: int
    k: int
    sets: dict[int, frozenset[int]]

    def cardinalities(self) -> dict[int, int]:
        return {m: len(s) for m, s in sorted(self.sets.items())}

    @cached_property
    def rows(self) -> SetRows:
        """The (m, mask) pairs of .sets as read-only arrays, built once."""
        ms = sorted(self.sets)
        sizes = [len(self.sets[m]) for m in ms]
        masks = np.fromiter(
            (e for m in ms for e in sorted(self.sets[m])), dtype=np.int64, count=sum(sizes)
        )
        rows = SetRows(np.array(ms, dtype=np.int64), np.repeat(np.arange(len(ms)), sizes), masks)
        for array in rows:
            array.flags.writeable = False
        return rows


def _range_for(L: int, k: int) -> tuple[int, int]:
    return distortion_range(WordSpec(L, SYMMETRIC), k)


def sets_bruteforce(L: int, k: int) -> PlacementSets:
    """Placement sets by exhaustive enumeration of all (word, mask) pairs.

    Every ordered pair at Hamming distance <= k is one (x, x ^ e); the
    differing-bit mask e joins the set of the pair's integer distance.
    Masks are processed in chunks to bound the reach-matrix memory.
    """
    _, m_max = _range_for(L, k)
    masks = masks_up_to_weight(L, k)
    collected: dict[int, set[int]] = {m: set() for m in range(1, m_max + 1)}
    step = reach_chunk_rows(L)
    for start in range(0, masks.size, step):
        chunk = masks[start : start + step]
        reach = _kernels.reach_matrix(L, chunk)
        for m in range(1, m_max + 1):
            collected[m].update(int(e) for e in chunk[reach[:, m]])
    return PlacementSets(L, k, {m: frozenset(s) for m, s in collected.items()})


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
    pairs in all, and no dedup is needed.
    """
    _, m_max = _range_for(L, k)
    m_parts, mask_parts = [], []
    for w in range(1, k + 1):
        # One row per mask of weight w: the powers 2**i of its bits, ascending.
        powers = np.left_shift(1, np.array(list(combinations(range(L), w)), dtype=np.int64))
        # Row j holds the signs of pattern j; bit w-1 of j < 2**(w-1) is 0,
        # so the top (last) position always gets +.
        signs = 1 - 2 * ((np.arange(1 << (w - 1))[:, None] >> np.arange(w)) & 1)
        m_parts.append((powers @ signs.T).ravel())
        mask_parts.append(np.repeat(powers.sum(axis=1), signs.shape[0]))
    ms, masks = np.concatenate(m_parts), np.concatenate(mask_parts)
    order = np.argsort(ms, kind="stable")
    ms, masks = ms[order], masks[order]
    cuts = np.flatnonzero(np.diff(ms)) + 1
    sets = dict.fromkeys(range(1, m_max + 1), frozenset())
    for m, group in zip(ms[np.r_[0, cuts]].tolist(), np.split(masks, cuts)):
        sets[m] = frozenset(group.tolist())
    return PlacementSets(L, k, sets)


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
    for m in sorted(ps.sets):
        for mask in sorted(ps.sets[m]):
            lines.append(f"{m},{mask:0{ps.L}b}")
    return "\n".join(lines) + "\n"


def _parse_header(lines: Iterator[tuple[int, str]], expected_format: str) -> dict[str, str]:
    header = {}
    lineno, first = next(lines)
    if first != f"format={expected_format}":
        raise ParameterError(f"line {lineno}: expected format={expected_format}")
    for key in ("L", "k"):
        lineno, line = next(lines)
        name, _, value = line.partition("=")
        if name != key:
            raise ParameterError(f"line {lineno}: expected {key}=<int>")
        header[key] = value
    return header


def parse_sets(text: str) -> PlacementSets:
    lines = (
        (i, line.strip())
        for i, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#")
    )
    try:
        header = _parse_header(lines, SETS_FORMAT)
    except StopIteration:
        raise ParameterError("truncated sets file") from None
    try:
        L, k = int(header["L"]), int(header["k"])
    except ValueError:
        raise ParameterError(f"sets file has non-integer L/k headers: {header}") from None
    _, m_max = _range_for(L, k)
    sets: dict[int, set[int]] = {m: set() for m in range(1, m_max + 1)}
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
        sets[m].add(mask)
    return PlacementSets(L, k, {m: frozenset(s) for m, s in sets.items()})
