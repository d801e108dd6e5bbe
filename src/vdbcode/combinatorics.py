"""Exact pair counts, placement counts, and the closed-form bounds.

Z(L, k, m) counts ordered word pairs at Hamming distance exactly k whose
unsigned values differ by exactly m.  Z and the placement sets S_m are
one object counted two ways.  The pair (x, x ^ e), e of weight k, moves
the value by sum_{i in e} s_i * 2**i, the signs set by x's bits on e.  A
weight-k mask in S_m reaches +m with one sign pattern and -m with its
mirror (`setgen.sets_fast`), and each pattern is the bit pattern on e of
2**(L - k) words, so Z(L, k, m) = 2**(L - k + 1) * #{weight-k masks in
S_m}: a bincount of the weight-k signed sums of `_kernels.signed_sums`,
shifted left by L - k + 1 and held as one read-only array indexed by m.
Y*(L, k, m) counts the distinct error masks of weight at most k that
can realize distortion m, which is |S_m|: one bincount over the m column
of the placement sets.  The word-by-word brute-force sets remain the
oracle for both.  The two closed-form upper bounds on Z are cheap to
evaluate, and `bounds_dataset` sets the exact count beside both as a
`BoundsTable`: four read-only int64 columns (m, z_exact, z_tight,
z_loose) over m = 1..m_max, which yields `BoundsRow`s when iterated and
which `write_bounds_csv` writes block by block from the columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from . import _kernels, setgen
from .core import ParameterError, SYMMETRIC, WordSpec, distortion_range

BOUNDS_CSV_HEADER = ("m", "z_exact", "z_tight", "z_loose")


def _check_params(L: int, k: int) -> tuple[int, int]:
    spec = WordSpec(L, SYMMETRIC)
    return distortion_range(spec, k)


# The cached tables validate L and k when they are built, and span
# m = 0..m_max, so a lookup needs only the range check on m.  The caches
# are typed, so a float or bool L never hits an int entry.
def _at_m(table: np.ndarray, m: int) -> int:
    if not 1 <= m < table.size:
        raise ParameterError(f"m must be in [1, {table.size - 1}], got {m}")
    return int(table[m])


@lru_cache(maxsize=128, typed=True)
def z_exact_table(L: int, k: int) -> np.ndarray:
    """Exact Z counts z[m] for m = 0..m_max, as a read-only int64 array.

    z[m] = 2**(L - k + 1) * #{weight-k masks in S_m}: each signed sum
    with + on top stands for its mirror too, and each sign pattern for
    the 2**(L - k) words that carry it.  No pair is at distance 0.
    """
    _, m_max = _check_params(L, k)
    ms, _ = _kernels.signed_sums(L, k)
    z = np.bincount(ms, minlength=m_max + 1) << (L - k + 1)
    z.flags.writeable = False
    return z


def z_exact(L: int, k: int, m: int) -> int:
    """Ordered pairs at Hamming distance exactly k and integer distance m."""
    return _at_m(z_exact_table(L, k), m)


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


@lru_cache(maxsize=128, typed=True)
def _y_star_counts(L: int, k: int) -> np.ndarray:
    """|S_m| for m = 0..m_max, as a read-only int64 array."""
    _, m_max = _check_params(L, k)
    counts = np.bincount(setgen.sets_fast(L, k).ms, minlength=m_max + 1)
    counts.flags.writeable = False
    return counts


def y_star(L: int, k: int, m: int) -> int:
    """Distinct placements of <= k errors that can realize distortion m."""
    return _at_m(_y_star_counts(L, k), m)


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
    """Check the divisibility of the Z counts for one (L, k).

    A violation marks a count that is neither 0, 1, nor a multiple of
    2**(L-k+1).  Since z_exact_table builds every count as a multiple of
    2**(L-k+1), divisibility holds by construction and the report
    is always clean.
    """
    z = z_exact_table(L, k)
    violations = np.flatnonzero((z > 1) & (z % (1 << (L - k + 1)) != 0)).tolist()
    return DivisibilityReport(L, k, tuple(violations))


class BoundsRow(NamedTuple):
    m: int
    z_exact: int
    z_tight: int
    z_loose: int


# Rows are turned into Python objects one block at a time, so iterating a
# table or writing it holds one block's lists, not one object per m.
_BLOCK_ROWS = 1 << 14
# csv.writer's bytes for one row of ints: comma-separated, CRLF-terminated.
_CSV_ROW = "%d,%d,%d,%d\r\n"


@dataclass(frozen=True, eq=False)
class BoundsTable:
    """Exact Z beside both bounds for m = 1..m_max, one read-only int64 column each.

    `len` is m_max.  Iterating yields one `BoundsRow` of Python ints per
    m, ascending, built lazily block by block.
    """

    m: np.ndarray
    z_exact: np.ndarray
    z_tight: np.ndarray
    z_loose: np.ndarray

    def __post_init__(self) -> None:
        for column in self._columns():
            column.flags.writeable = False

    def _columns(self) -> tuple[np.ndarray, ...]:
        return self.m, self.z_exact, self.z_tight, self.z_loose

    def __len__(self) -> int:
        return self.m.size

    def _blocks(self) -> Iterator[np.ndarray]:
        """The rows as [n, 4] int64 blocks of at most _BLOCK_ROWS rows, m ascending."""
        for start in range(0, len(self), _BLOCK_ROWS):
            yield np.stack([c[start : start + _BLOCK_ROWS] for c in self._columns()], axis=1)

    def __iter__(self) -> Iterator[BoundsRow]:
        for block in self._blocks():
            yield from map(BoundsRow._make, block.tolist())


def bounds_dataset(L: int, k: int) -> BoundsTable:
    """Exact-vs-bounds comparison columns for every m in the distortion range.

    The bounds are z_bound_loose and z_bound_tight, taken over all m at
    once; z_exact is a view of z_exact_table(L, k) from m = 1.
    """
    z = z_exact_table(L, k)  # validates L and k
    ms = np.arange(1, z.size, dtype=np.int64)
    loose = (1 << (L + 1)) - 2 * ms
    tight = loose - loose % (1 << (L - k + 1))
    return BoundsTable(ms, z[1:], tight, loose)


def write_bounds_csv(table: BoundsTable, path) -> None:
    """The table as CSV, header first: the bytes csv.writer writes, CRLF line ends included."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(BOUNDS_CSV_HEADER) + "\r\n")
        for block in table._blocks():
            fh.write(_CSV_ROW * len(block) % tuple(block.ravel().tolist()))
