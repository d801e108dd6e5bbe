"""Word model, parameter domain and text-line helpers.

Words are unsigned integers read as L-bit vectors, bit i carrying weight
2**i.  Flipping the bits of a mask e moves x to x ^ e: popcount(e) bits
differ, while the values differ by |x - (x ^ e)|, which depends wildly on
which positions are hit; that gap is the whole point of the package.
WordSpec and distortion_range fix the (L, k) domain the other modules
validate; the line helpers of the text-format parsers live here too.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Iterator, Sequence

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


def _require_int(name: str, value) -> None:
    """A ParameterError unless `value` is an integer (numpy's too), bool and float excluded."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, Integral)):
        raise ParameterError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class WordSpec:
    """Word length plus channel polarity; defines the universe of words.

    Only the symmetric channel (errors flip a bit either way) is supported.
    """

    word_length: int
    polarity: str = SYMMETRIC

    def __post_init__(self) -> None:
        _require_int("word_length", self.word_length)
        if not 1 <= self.word_length <= MAX_WORD_LENGTH:
            raise ParameterError(
                f"word_length must be in [1, {MAX_WORD_LENGTH}], got {self.word_length}"
            )
        if self.polarity != SYMMETRIC:
            raise ParameterError(f"unknown polarity {self.polarity!r}")


def distortion_range(spec: WordSpec, k: int) -> tuple[int, int]:
    """Range of integer distortions reachable with up to k bit errors.

    The maximum is hit when all k errors share a polarity and sit in the
    top k bit positions.  A run of k errors with the most significant one
    opposing the rest yields distortion 1.
    """
    L = spec.word_length
    _require_int("k", k)
    if not 1 <= k <= L:
        raise ParameterError(f"k must be in [1, {L}], got {k}")
    m_max = (1 << (L - k)) * ((1 << k) - 1)
    return 1, m_max
