"""Exact pair counts, placement counts, and the closed-form bounds.

Z(L, k, m) counts ordered word pairs at Hamming distance exactly k whose
unsigned values differ by exactly m.  It is an exact count over every
(word, mask) pair, taken by submask: the pair (x, x ^ e) lies at
distance |2 * (x & e) - e|, and each submask s of a weight-k mask e is
x & e for exactly 2**(L - k) words x.  So Z is the histogram of |2s - e|
over the weight-k masks and their submasks, times 2**(L - k), held as one
read-only array indexed by m.  Y*(L, k, m) counts the distinct error
masks of weight at most k that can realize distortion m, which is |S_m|:
one bincount over the m column of the placement sets.  The word-by-word
brute-force sets remain the oracle for both.  The two closed-form upper
bounds on Z are cheap to evaluate and the dataset generator emits the
exact/tight/loose comparison rows.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from . import _kernels, setgen
from .core import ParameterError, SYMMETRIC, WordSpec, distortion_range

logger = logging.getLogger(__name__)

BOUNDS_CSV_HEADER = ("m", "z_exact", "z_tight", "z_loose")


def _check_params(L: int, k: int) -> tuple[int, int]:
    spec = WordSpec(L, SYMMETRIC)
    return distortion_range(spec, k)


@lru_cache(maxsize=128)
def z_exact_table(L: int, k: int) -> np.ndarray:
    """Exact Z counts z[m] for m = 0..m_max, as a read-only int64 array.

    Each |2s - e| over a weight-k mask e and its submasks s stands for
    the 2**(L - k) words x with x & e = s.  No pair is at distance 0.
    """
    _, m_max = _check_params(L, k)
    _, dist = _kernels.submask_distances(L, k)
    z = np.bincount(dist.ravel(), minlength=m_max + 1) << (L - k)
    z.flags.writeable = False
    return z


def z_exact(L: int, k: int, m: int) -> int:
    """Ordered pairs at Hamming distance exactly k and integer distance m."""
    m_min, m_max = _check_params(L, k)
    if not 1 <= m <= m_max:
        raise ParameterError(f"m must be in [1, {m_max}], got {m}")
    return int(z_exact_table(L, k)[m])


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


@lru_cache(maxsize=128)
def _y_star_counts(L: int, k: int) -> np.ndarray:
    """|S_m| for m = 0..m_max, as a read-only int64 array."""
    _, m_max = _check_params(L, k)
    counts = np.bincount(setgen.sets_fast(L, k).ms, minlength=m_max + 1)
    counts.flags.writeable = False
    return counts


def y_star(L: int, k: int, m: int) -> int:
    """Distinct placements of <= k errors that can realize distortion m."""
    m_min, m_max = _check_params(L, k)
    if not 1 <= m <= m_max:
        raise ParameterError(f"m must be in [1, {m_max}], got {m}")
    return int(_y_star_counts(L, k)[m])


@dataclass(frozen=True)
class DivisibilityReport:
    """The m whose Z count is neither 0, 1, nor a multiple of 2**(L-k+1), ascending."""

    L: int
    k: int
    violations: tuple[int, ...]

    @property
    def clean(self) -> bool:
        return not self.violations


def divisibility_report(L: int, k: int) -> DivisibilityReport:
    """Check the observed structure of Z counts for one (L, k).

    A violation marks a count that is neither 0, 1, nor a multiple of
    2**(L-k+1); it is reported (and logged), not raised, since the
    underlying claim is an empirical observation rather than a theorem.
    """
    z = z_exact_table(L, k)
    violations = np.flatnonzero((z > 1) & (z % (1 << (L - k + 1)) != 0)).tolist()
    for m in violations:
        logger.warning("divisibility violation: L=%d k=%d m=%d count=%d", L, k, m, z[m])
    return DivisibilityReport(L, k, tuple(violations))


class BoundsRow(NamedTuple):
    m: int
    z_exact: int
    z_tight: int
    z_loose: int


def bounds_dataset(L: int, k: int) -> list[BoundsRow]:
    """Exact-vs-bounds comparison rows for every m in the distortion range.

    The bounds are z_bound_loose and z_bound_tight, taken over all m at once.
    """
    z = z_exact_table(L, k)  # validates L and k
    ms = np.arange(1, z.size, dtype=np.int64)
    loose = (1 << (L + 1)) - 2 * ms
    tight = loose - loose % (1 << (L - k + 1))
    return list(map(BoundsRow, ms.tolist(), z[1:].tolist(), tight.tolist(), loose.tolist()))


def write_bounds_csv(rows: Iterable[BoundsRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BOUNDS_CSV_HEADER)
        writer.writerows(rows)
