"""Word model and distance functions.

Words are unsigned integers read as L-bit vectors, bit i carrying weight
2**i.  Two distances matter: the Hamming distance (how many bits differ)
and the integer distance (how far apart the unsigned values are).  The
same number of bit errors can produce wildly different integer distances
depending on which positions are hit, which is the whole point of
treating the two separately.  The line helpers shared by the text-format
parsers live here too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

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


class PlacementInfeasibleError(ValueError):
    """A signed error placement is inconsistent with the carrier word."""


@dataclass(frozen=True)
class WordSpec:
    """Word length plus channel polarity; defines the universe of words.

    Only the symmetric channel (errors flip a bit either way) is supported.
    """

    word_length: int
    polarity: str = SYMMETRIC

    def __post_init__(self) -> None:
        if not 1 <= self.word_length <= MAX_WORD_LENGTH:
            raise ParameterError(
                f"word_length must be in [1, {MAX_WORD_LENGTH}], got {self.word_length}"
            )
        if self.polarity != SYMMETRIC:
            raise ParameterError(f"unknown polarity {self.polarity!r}")

    @property
    def word_count(self) -> int:
        return 1 << self.word_length

    def validate_word(self, word: int) -> int:
        if not 0 <= word < self.word_count:
            raise ParameterError(
                f"word {word} out of range for {self.word_length}-bit words"
            )
        return word


@dataclass(frozen=True)
class ErrorPlacement:
    """Bit mask marking the positions where channel errors occur."""

    mask: int

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ParameterError("mask must be nonnegative")

    @property
    def weight(self) -> int:
        return self.mask.bit_count()

    def positions(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.mask.bit_length()) if (self.mask >> i) & 1)


def hamming_distance(x: int, y: int) -> int:
    """Number of bit positions in which x and y differ."""
    return (x ^ y).bit_count()


def integer_distance(x: int, y: int) -> int:
    """Absolute difference of the unsigned-integer values of x and y."""
    return abs(x - y)


def distortion_range(spec: WordSpec, k: int) -> tuple[int, int]:
    """Range of integer distortions reachable with up to k bit errors.

    The maximum is hit when all k errors share a polarity and sit in the
    top k bit positions.  A run of k errors with the most significant one
    opposing the rest yields distortion 1.
    """
    L = spec.word_length
    if not 1 <= k <= L:
        raise ParameterError(f"k must be in [1, {L}], got {k}")
    m_max = (1 << (L - k)) * ((1 << k) - 1)
    return 1, m_max


def apply_flip_errors(x: int, placement: ErrorPlacement, signs: Mapping[int, int]) -> int:
    """Invert the marked bits of x, checking sign consistency per position.

    A sign of -1 at position i means a 1->0 error there and requires
    x_i = 1; +1 means 0->1 and requires x_i = 0.  The signed placement
    then has a well-defined integer distortion |sum_i sign_i * 2**i|
    independent of the rest of x.
    """
    support = {i for i in range(placement.mask.bit_length()) if (placement.mask >> i) & 1}
    if set(signs) != support:
        raise ParameterError(
            f"sign positions {sorted(signs)} do not match mask positions {sorted(support)}"
        )
    result = x
    for i, sign in signs.items():
        if sign not in (-1, 1):
            raise ParameterError(f"sign at bit {i} must be -1 or +1, got {sign}")
        bit = (x >> i) & 1
        if sign == -1 and bit != 1:
            raise PlacementInfeasibleError(f"negative flip at bit {i} requires a 1 bit")
        if sign == 1 and bit != 0:
            raise PlacementInfeasibleError(f"positive flip at bit {i} requires a 0 bit")
        result ^= 1 << i
    return result
