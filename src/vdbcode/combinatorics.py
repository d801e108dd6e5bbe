"""Exact pair counts, placement counts, and the closed-form bounds.

Z(L, k, m) counts ordered word pairs at Hamming distance exactly k whose
unsigned values differ by exactly m.  Y*(L, k, m) counts the distinct
error masks of weight at most k that can realize distortion m for some
carrier word.  Both are exact counts over every (word, mask) pair, taken
by submask: the pair (x, x ^ e) lies at distance |2 * (x & e) - e|, and
each submask s of a weight-w mask e is x & e for exactly 2**(L - w)
words x.  So Z is the histogram of |2s - e| over the weight-k masks and
their submasks, times 2**(L - k), and the placement pairs behind Y* are
the distinct |2s - e| of each mask of weight 1..k.  The counts share no
code with the signed-digit placement sets, and the word-by-word
brute-force sets remain the oracle for both.  The two closed-form upper
bounds on Z are cheap to evaluate and the dataset generator emits the
exact/tight/loose comparison rows.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels
from .core import ParameterError, SYMMETRIC, WordSpec, distortion_range

logger = logging.getLogger(__name__)

CLASS_ZERO = "zero"
CLASS_ONE = "one"
CLASS_MULTIPLE = "multiple"
CLASS_VIOLATION = "violation"

BOUNDS_CSV_HEADER = ("m", "z_exact", "z_tight", "z_loose")


@dataclass(frozen=True)
class CountTable:
    """Per-m counts over the full distortion range of (L, k)."""

    L: int
    k: int
    entries: dict[int, int]

    def __getitem__(self, m: int) -> int:
        return self.entries[m]


def _check_params(L: int, k: int) -> tuple[int, int]:
    spec = WordSpec(L, SYMMETRIC)
    return distortion_range(spec, k)


def masks_of_weight(L: int, k: int) -> np.ndarray:
    """All L-bit masks with exactly k set bits, ascending."""
    masks = []
    for bits in combinations(range(L), k):
        e = 0
        for i in bits:
            e |= 1 << i
        masks.append(e)
    return np.array(sorted(masks), dtype=np.int64)


def masks_up_to_weight(L: int, k: int) -> np.ndarray:
    """All nonzero L-bit masks with at most k set bits, ascending."""
    parts = [masks_of_weight(L, j) for j in range(1, k + 1)]
    return np.sort(np.concatenate(parts))


@lru_cache(maxsize=128)
def z_exact_table(L: int, k: int) -> CountTable:
    """Exact Z counts for every m in the distortion range.

    Each |2s - e| over a weight-k mask e and its submasks s stands for
    the 2**(L - k) words x with x & e = s.
    """
    m_min, m_max = _check_params(L, k)
    _, dist = _kernels.submask_distances(L, k)
    counts = np.bincount(dist.ravel(), minlength=m_max + 1) << (L - k)
    entries = dict(zip(range(m_min, m_max + 1), counts[m_min : m_max + 1].tolist()))
    return CountTable(L, k, entries)


def z_exact(L: int, k: int, m: int) -> int:
    """Ordered pairs at Hamming distance exactly k and integer distance m."""
    m_min, m_max = _check_params(L, k)
    if not 1 <= m <= m_max:
        raise ParameterError(f"m must be in [1, {m_max}], got {m}")
    return z_exact_table(L, k).entries.get(m, 0)


def z_bound_loose(L: int, m: int) -> int:
    """Triangle bound 2**(L+1) - 2m."""
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    return (1 << (L + 1)) - 2 * m


def z_bound_tight(L: int, k: int, m: int) -> int:
    """Staircase bound: the loose bound rounded down to a multiple of 2**(L-k+1)."""
    _check_params(L, k)
    v = z_bound_loose(L, m)
    return v - (v % (1 << (L - k + 1)))


def placement_pairs(L: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (m, mask) with a mask of weight 1..k that realizes m, by mask.

    Returns int64 arrays (ms, masks), one entry per pair, in ascending
    mask order and ascending m within a mask.  A mask e realizes
    m = |2s - e| for each submask s; s and e ^ s give the same m, so each
    mask's values are sorted and deduplicated.
    """
    m_parts, mask_parts = [], []
    for w in range(1, k + 1):
        masks, dist = _kernels.submask_distances(L, w)
        dist = np.sort(dist, axis=1)
        first = np.ones(dist.shape, dtype=np.bool_)
        first[:, 1:] = dist[:, 1:] != dist[:, :-1]
        m_parts.append(dist[first])
        mask_parts.append(np.broadcast_to(masks[:, None], dist.shape)[first])
    ms, masks = np.concatenate(m_parts), np.concatenate(mask_parts)
    order = np.argsort(masks, kind="stable")
    return ms[order], masks[order]


@lru_cache(maxsize=128)
def _y_star_counts(L: int, k: int) -> np.ndarray:
    return np.bincount(placement_pairs(L, k)[0], minlength=1 << L)


def y_star(L: int, k: int, m: int) -> int:
    """Distinct placements of <= k errors that can realize distortion m."""
    m_min, m_max = _check_params(L, k)
    if not 1 <= m <= m_max:
        raise ParameterError(f"m must be in [1, {m_max}], got {m}")
    return int(_y_star_counts(L, k)[m])


@dataclass(frozen=True)
class DivisibilityReport:
    """Classification of every Z count as zero, one, or a 2**(L-k+1) multiple."""

    L: int
    k: int
    classes: dict[int, str]

    @property
    def violations(self) -> list[int]:
        return [m for m, c in sorted(self.classes.items()) if c == CLASS_VIOLATION]

    @property
    def clean(self) -> bool:
        return not self.violations


def divisibility_report(L: int, k: int) -> DivisibilityReport:
    """Check the observed structure of Z counts for one (L, k).

    A violation marks a count that is neither 0, 1, nor a multiple of
    2**(L-k+1); it is reported (and logged), not raised, since the
    underlying claim is an empirical observation rather than a theorem.
    """
    table = z_exact_table(L, k)
    modulus = 1 << (L - k + 1)
    classes = {}
    for m, z in table.entries.items():
        if z == 0:
            classes[m] = CLASS_ZERO
        elif z == 1:
            classes[m] = CLASS_ONE
        elif z % modulus == 0:
            classes[m] = CLASS_MULTIPLE
        else:
            classes[m] = CLASS_VIOLATION
            logger.warning("divisibility violation: L=%d k=%d m=%d count=%d", L, k, m, z)
    return DivisibilityReport(L, k, classes)


class BoundsRow(NamedTuple):
    m: int
    z_exact: int
    z_tight: int
    z_loose: int


def bounds_dataset(L: int, k: int) -> list[BoundsRow]:
    """Exact-vs-bounds comparison rows for every m in the distortion range.

    The bounds are z_bound_loose and z_bound_tight, taken over all m at once.
    """
    table = z_exact_table(L, k)  # validates L and k
    ms = sorted(table.entries)
    loose = (1 << (L + 1)) - 2 * np.array(ms, dtype=np.int64)
    tight = loose - loose % (1 << (L - k + 1))
    z = [table.entries[m] for m in ms]
    return list(map(BoundsRow, ms, z, tight.tolist(), loose.tolist()))


def write_bounds_csv(rows: Iterable[BoundsRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOUNDS_CSV_HEADER)
        writer.writerows(rows)
