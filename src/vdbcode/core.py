"""Word model, parameter domain and text-line helpers.

Words are unsigned integers read as L-bit vectors, bit i carrying weight
2**i.  Flipping the bits of a mask e moves x to x ^ e: popcount(e) bits
differ, while the values differ by |x - (x ^ e)|, which depends wildly on
which positions are hit; that gap is the whole point of the package.
`check_int` is the one rule for the integer arguments the package takes,
`check_ints` its form for integer arrays, and `check_real` the rule for
the probabilities; WordSpec and distortion_range fix the (L, k) domain
with `check_int`; the line
helpers of the text-format parsers and the `np.loadtxt` read their fast
paths share live here too.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Iterator, Sequence

import numpy as np

SYMMETRIC = "symmetric"

# Exhaustive enumeration over all 2**L words (and over error masks) is the
# validation strategy throughout; the ceiling keeps that tractable.
MAX_WORD_LENGTH = 24


class ParameterError(ValueError):
    """A parameter is outside its documented domain."""


def format_lines(lines: Sequence[str], fmt: str) -> Iterator[tuple[int, str]]:
    """Numbered, stripped lines of a text file's `splitlines()` after its leading format=<fmt> line.

    Blank lines and # comments are skipped; the first other line must be format=<fmt>.
    """
    saw_format = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if saw_format:
            yield lineno, line
        elif line != f"format={fmt}":
            raise ParameterError(f"line {lineno}: expected format={fmt}")
        else:
            saw_format = True


def reject_repeat(seen: dict, key, lineno: int, what: str) -> None:
    """Record that line `lineno` names `key`; a second line naming it is a ParameterError.

    `what` describes the entry, {} standing for the key, and is formatted only for the error.
    """
    first = seen.setdefault(key, lineno)
    if first != lineno:
        raise ParameterError(f"line {lineno}: duplicate {what.format(key)} (first at line {first})")


def read_csv_array(lines: Iterable[str], **kw) -> np.ndarray | None:
    """One `np.loadtxt` of comma-separated `lines`, no comment character, `ndmin=1`; None where it refuses them.

    `kw` goes to `loadtxt` (dtype, usecols, quotechar).  numpy < 2.3 reads "5.0" or "1e3" as an int with a
    DeprecationWarning where `int()` refuses them, so that warning is a refusal too, as is an OverflowError
    (a `usecols` beyond an index).  No lines give an empty array without numpy's warning.  A
    UnicodeDecodeError met while a file is read is raised: a line walk would only decode the file again.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            return np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, **kw)
    except UnicodeDecodeError:  # a ValueError too
        raise
    except (ValueError, OverflowError, DeprecationWarning):
        return None


def is_int(value) -> bool:
    """Whether `value` is an integer (numpy's too), bool and float excluded."""
    return type(value) is int or not isinstance(value, bool) and isinstance(value, Integral)


def check_int(name: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """A ParameterError unless `value` is an integer (see `is_int`) >= lo and, if hi is given, <= hi."""
    if not is_int(value):
        raise ParameterError(f"{name} must be an int, got {value!r}")
    if hi is not None and not lo <= value <= hi:
        raise ParameterError(f"{name} must be in [{lo}, {hi}], got {value}")
    if lo is not None and value < lo:
        raise ParameterError(f"{name} must be >= {lo}, got {value}")


def check_ints(name: str, values, lo: int, hi: int) -> np.ndarray:
    """`values` as a new 1-D int64 array, a ParameterError unless each entry passes `check_int(name, entry, lo, hi)`.

    [lo, hi] must lie within int64.  A 1-D integer ndarray is range-checked as an array.  Anything else (a
    list, a mapping's keys, a bool, float, string or object array) is checked one entry at a time, so a bool
    or a Python int beyond int64 is named as `check_int` names it.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "iu":
        outside = (values < lo) | (values > hi)
        if outside.any():
            check_int(name, values[np.argmax(outside)].item(), lo, hi)
        return values.astype(np.int64)
    entries = values.tolist() if isinstance(values, np.ndarray) else list(values)
    for value in entries:
        check_int(name, value, lo, hi)
    return np.array(entries, dtype=np.int64)


def check_real(name: str, value) -> None:
    """A ParameterError unless `value` is a real number: one that orders against a float, and no str, bytes or complex."""
    if not isinstance(value, (str, bytes, complex, np.complexfloating)):
        try:
            value < 0.0  # a TypeError unless value orders against a float
            return
        except TypeError:
            pass
    raise ParameterError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class WordSpec:
    """Word length plus channel polarity; defines the universe of words.

    Only the symmetric channel (errors flip a bit either way) is supported.
    """

    word_length: int
    polarity: str = SYMMETRIC

    def __post_init__(self) -> None:
        check_int("word_length", self.word_length, 1, MAX_WORD_LENGTH)
        if self.polarity != SYMMETRIC:
            raise ParameterError(f"unknown polarity {self.polarity!r}")


def distortion_range(spec: WordSpec, k: int) -> tuple[int, int]:
    """Range of integer distortions reachable with up to k bit errors.

    The maximum is hit when all k errors share a polarity and sit in the
    top k bit positions.  A run of k errors with the most significant one
    opposing the rest yields distortion 1.
    """
    L = spec.word_length
    check_int("k", k, 1, L)
    m_max = (1 << (L - k)) * ((1 << k) - 1)
    return 1, m_max
