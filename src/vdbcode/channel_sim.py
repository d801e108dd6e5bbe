"""Channel simulation and distortion-distribution analytics.

Monte Carlo validation draws words and error masks, and checks the
observed distortion masses and tails against the constraint with
binomial 3-sigma slack.  Masks are drawn from the code table's product
law `_kernels.mask_probabilities(p_vec)`, restricted to masks of weight
<= cap and renormalised when a weight cap is given, so the capped and
uncapped channels are one sampling path.  A run's mask counts are one
multinomial draw.  A mask with at most one set bit moves every word by
itself, so its trials take their distortion from that draw and draw no
word; the other masks are laid out in ascending order and read one chunk
at a time.  Words are raw generator bits: uniform words as they come,
and words under a value PMF through a Walker alias table, one more raw
output per word choosing between its column and the alias.  The
exact counterpart folds the value law through the word one bit at a
time, each bit adding an independent signed step, and is the ground
truth the simulator converges to.  The forced-value channel (errors
overwrite a bit with a target value, so matching targets are masked) is
covered by the same exact fold plus the single-error analytic form: one
upset moves the value by exactly 2**i, so that form is one matrix
product over the value PMF's bit planes, and it is checked against a
restricted enumeration rather than trusted.

A value PMF and a distortion law are each two read-only arrays over their
support, int64 keys and float64 masses, built straight from the numpy
results that produce them and read as arrays by every consumer; their
`mass` dict is built from the arrays on each read.
"""
from __future__ import annotations

import csv
import itertools
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Iterable, Mapping, Union

import numpy as np

from . import _kernels, setgen
from .codegen import CodeTable, TailConstraint
from .core import (
    ParameterError, WordSpec, check_int, check_ints, check_real, distortion_range, format_lines, read_csv_array,
    reject_repeat,
)

GENERATOR_ID = "pcg64-run-alias-multibit"
UPSETS_FORMAT = "vdb-upsets-v1"

PROVENANCE_MONTE_CARLO = "monte_carlo"
PROVENANCE_EXACT = "exact_enumeration"
PROVENANCE_SINGLE_ERROR = "analytic_single_error"

MODE_FLIP = "independent-flip"
MODE_CAPPED = "cap-weight"

_CHUNK_SIZE = 1 << 16
_MAX_EXACT_L = 16
_INT64 = np.iinfo(np.int64)
_TOLERANCE = 1e-9  # how far a law's total may stray from 1


@dataclass(frozen=True, eq=False, init=False)
class _Law:
    """A law over integer keys, held as two read-only arrays over its support.

    `keys` (int64) and `masses` (float64) list the support in the order it
    was given: a mapping's order, or the producer's (ascending, but for a
    single-error law's m = 0, listed last).  Neither
    is ever 2**L long unless the support is.  `mass` is the same law as a
    plain dict {key: mass} in that order, built from the arrays on each
    read; nothing in the package reads it, and it is kept for callers that
    read a law as a dict, the benchmark among them.
    Two laws are equal when their other fields are and they give each key
    the same mass, in whatever order.
    """

    # compare=False marks the fields that __eq__ does not compare as plain values.
    keys: np.ndarray = field(compare=False)
    masses: np.ndarray = field(compare=False)
    _KEY: ClassVar[str] = "key"  # the keys' name in messages

    def _build(self, keys, masses, hi: int, floored: int | None = None, **others) -> _Law:
        """Set the fields `others` and the law `keys` -> `masses`, validate it, freeze it and return self.

        The keys must be distinct ints in [0, hi) (`check_ints`), the masses
        real numbers, one per key; `_check` then checks the masses, holding
        the first `floored` of them (default: all) to >= 0.
        """
        keys = check_ints(self._KEY, keys, 0, hi - 1)
        try:
            masses = np.asarray(masses)
        except ValueError as exc:  # ragged
            raise ParameterError(f"masses must be real numbers ({exc})") from None
        if masses.size and masses.dtype.kind not in "biuf":
            raise ParameterError(f"masses must be real numbers, got an array of {masses.dtype}")
        masses = masses.astype(np.float64)
        if keys.shape != masses.shape:
            raise ParameterError(f"need one mass per {self._KEY}, got shapes {keys.shape} and {masses.shape}")
        if not (keys[1:] > keys[:-1]).all():  # the producers' keys ascend, so only other orders pay for the sort
            ordered = np.sort(keys)
            twice = ordered[1:][ordered[1:] == ordered[:-1]]
            if twice.size:
                raise ParameterError(f"{self._KEY} {twice[0]} is listed twice")
        self.__setstate__({**others, "keys": keys, "masses": masses})  # sets the fields as unpickling does
        self._check(floored)
        return self

    def __setstate__(self, state: dict) -> None:  # a pickle gives the arrays back writeable
        self.__dict__.update(state)
        self.keys.setflags(write=False)
        self.masses.setflags(write=False)

    def _check_masses(self, n: int | None) -> None:
        """A ParameterError unless each of the first `n` masses (all, if None) is finite and >= 0."""
        ok = (self.masses[:n] >= 0) & (self.masses[:n] < math.inf)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ParameterError(
                f"{self._KEY} {self.keys[i]} has mass {self.masses[i].item()!r}, not a finite number >= 0"
            )

    @property
    def mass(self) -> dict[int, float]:
        return dict(zip(self.keys.tolist(), self.masses.tolist()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = ([getattr(law, f.name) for f in fields(law) if f.compare] for law in (self, other))
        return mine == theirs and self.mass == other.mass


def _mapping_masses(mapping: Mapping[int, float]) -> np.ndarray:
    """`mapping`'s masses as float64, in its order: anything `float()` takes, so Fraction and Decimal work too."""
    try:
        return np.fromiter(mapping.values(), np.float64, len(mapping))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParameterError(f"masses must be real numbers ({exc})") from None


def _check_total(masses: np.ndarray) -> None:
    """A ParameterError unless `math.fsum(masses)` is within 1e-9 of 1; a NaN, inf or overflowing sum fails."""
    try:
        total = math.fsum(masses.tolist())
    except ValueError:  # inf + -inf
        total = math.nan
    except OverflowError:
        total = math.inf
    if not abs(total - 1.0) <= _TOLERANCE:  # a NaN total fails too
        raise ParameterError(f"masses sum to {total}, not 1")


@dataclass(frozen=True, eq=False, init=False)
class EmpiricalPMF(_Law):
    """Probability mass function over L-bit values.

    `EmpiricalPMF(L, mapping, sample_count)` takes {value: mass};
    `from_arrays` takes the values and masses as two arrays.  Either way
    each value is an int in [0, 2**L), each mass a finite number >= 0, and
    the masses sum to 1 within 1e-9.
    """

    L: int
    sample_count: int | None
    _KEY: ClassVar[str] = "value"

    def __init__(self, L: int, mass: Mapping[int, float], sample_count: int | None = None) -> None:
        WordSpec(L)
        self._build(mass.keys(), _mapping_masses(mass), 1 << L, L=L, sample_count=sample_count)

    @classmethod
    def from_arrays(cls, L: int, values, masses, sample_count: int | None = None) -> "EmpiricalPMF":
        WordSpec(L)
        return cls.__new__(cls)._build(values, masses, 1 << L, L=L, sample_count=sample_count)

    def _check(self, floored: int | None) -> None:
        self._check_masses(floored)
        _check_total(self.masses)
        if self.sample_count is not None:
            check_int("sample_count", self.sample_count, 1)

    def to_array(self) -> np.ndarray:
        arr = np.zeros(1 << self.L, dtype=np.float64)
        arr[self.keys] = self.masses
        return arr

    @classmethod
    def uniform(cls, L: int) -> "EmpiricalPMF":
        n = 1 << L
        return cls.from_arrays(L, np.arange(n), np.full(n, 1.0 / n))

    @classmethod
    def point_mass(cls, L: int, value: int) -> "EmpiricalPMF":
        return cls(L, {value: 1.0})


@dataclass(frozen=True)
class UpsetModel:
    """Forced-value channel: per-bit upset probability and target-bit law, held as tuples."""

    L: int
    upset_prob: tuple[float, ...]
    forced_one_prob: tuple[float, ...]

    def __post_init__(self) -> None:
        WordSpec(self.L)
        for name in ("upset_prob", "forced_one_prob"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.upset_prob) != self.L or len(self.forced_one_prob) != self.L:
            raise ParameterError(f"need {self.L} per-bit entries")
        for name, probs in (("upset_prob", self.upset_prob), ("forced_one_prob", self.forced_one_prob)):
            for i, p in enumerate(probs):
                check_real(f"{name}[{i}]", p)
                if not 0.0 <= p <= 1.0:
                    raise ParameterError(f"{name}[{i}]={p} outside [0, 1]")

    def force_to_one(self) -> np.ndarray:
        return np.asarray(self.upset_prob) * np.asarray(self.forced_one_prob)

    def force_to_zero(self) -> np.ndarray:
        return np.asarray(self.upset_prob) * (1.0 - np.asarray(self.forced_one_prob))


@dataclass(frozen=True, eq=False, init=False)
class DistortionDistribution(_Law):
    """PMF over integer distortion m, with provenance metadata.

    `DistortionDistribution(mapping, provenance, ...)` takes {m: mass};
    `from_arrays` takes the m and masses as two arrays.  Either way each m
    is an int in [0, 2**63), each mass a finite number >= 0, and the masses
    sum to 1 within 1e-9.
    """

    provenance: str
    trials: int | None
    seed: int | None
    generator: str | None
    _KEY: ClassVar[str] = "m"

    def __init__(
        self,
        mass: Mapping[int, float],
        provenance: str,
        trials: int | None = None,
        seed: int | None = None,
        generator: str | None = None,
    ) -> None:
        self._build(
            mass.keys(), _mapping_masses(mass), 1 << 63,
            provenance=provenance, trials=trials, seed=seed, generator=generator,
        )

    @classmethod
    def from_arrays(
        cls, ms, masses, provenance: str, trials: int | None = None, seed: int | None = None,
        generator: str | None = None,
    ) -> "DistortionDistribution":
        return cls.__new__(cls)._build(
            ms, masses, 1 << 63, provenance=provenance, trials=trials, seed=seed, generator=generator
        )

    @classmethod
    def _with_rest_at_zero(cls, ms, masses, provenance: str) -> "DistortionDistribution":
        """The law with `masses` at `ms` and the rest, 1 minus their fsum, at m = 0, listed last.

        Only the given masses are held to >= 0.  The rest dips below 0 by
        round-off when the value PMF behind the masses totals up to
        1 + 1e-9, as a PMF may, and that law is kept as it is.
        """
        ms = np.append(np.asarray(ms, dtype=np.int64), 0)
        masses = np.asarray(masses, dtype=np.float64)
        masses = np.append(masses, 1.0 - math.fsum(masses.tolist()))
        return cls.__new__(cls)._build(
            ms, masses, 1 << 63, ms.size - 1, provenance=provenance, trials=None, seed=None, generator=None
        )

    def _check(self, floored: int | None) -> None:
        _check_total(self.masses)  # first, so a NaN or infinite mass reads as the sum it makes
        self._check_masses(floored)

    def at(self, m: int) -> float:
        hit = np.flatnonzero(self.keys == m)
        return self.masses[hit[0]].item() if hit.size else 0.0


def _mass_and_tail(d: DistortionDistribution, top: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Masses f(m) and tails Pr(M > m) for m = 0..top (default: the support's top), as float64 arrays.

    The tail is a running sum from the top of the support down (cumsum
    adds in sequence), so every entry is bit-for-bit that loop's value.
    """
    if top is None:
        top = int(d.keys.max())
    mass = np.zeros(top + 1, dtype=np.float64)
    mass[d.keys] = d.masses
    tail = np.zeros(top + 1, dtype=np.float64)
    tail[:-1] = np.cumsum(mass[:0:-1])[::-1]
    return mass, tail


def tail_of(d: DistortionDistribution) -> dict[int, float]:
    """Complementary cumulative masses Pr(M > m) for m = 0..max support."""
    _, tail = _mass_and_tail(d)
    return dict(enumerate(tail.tolist()))


# ---------------------------------------------------------------------------
# Monte Carlo simulation


@dataclass(frozen=True, eq=False)
class CheckColumns:
    """The constraint check for m = 1..top, one array per quantity, indexed by m - 1."""

    m: np.ndarray
    mass: np.ndarray
    tail: np.ndarray
    bound: np.ndarray
    slack: np.ndarray
    mass_ok: np.ndarray
    tail_ok: np.ndarray


@dataclass(frozen=True)
class SimulationResult:
    distribution: DistortionDistribution
    columns: CheckColumns
    passed: bool
    mode: str


def _value_probs(value_source: Union[str, EmpiricalPMF], L: int) -> np.ndarray | None:
    if isinstance(value_source, EmpiricalPMF):
        if value_source.L != L:
            raise ParameterError(f"PMF is {value_source.L}-bit but table is {L}-bit")
        return value_source.to_array()
    if value_source == "uniform":
        return None
    raise ParameterError(f"unknown value source {value_source!r}")


def _law(weights: np.ndarray) -> np.ndarray:
    """The mask law: `weights` up to its last positive entry, scaled to sum to 1.

    `Generator.multinomial` gives its last category whatever its binomial
    steps leave, so a law that ended in zero-mass entries could draw one.
    A value law needs no trim: its alias table gives zero-mass values
    t = 0 and never names them as an alias.
    """
    law = weights[: weights.size - int(np.argmax(weights[::-1] > 0))]
    return law / law.sum()


def _chunk_masks(ids: np.ndarray, ends: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Slice [start, stop) of `np.repeat(ids, counts)`, where `ends = np.cumsum(counts)`.

    Mask ids[j] fills trials ends[j-1]..ends[j]-1.  Only the runs that meet
    the slice are read: run lo is the first to end after `start`, run hi
    the first to reach `stop`, and both are clipped at the slice's ends.
    """
    lo = int(np.searchsorted(ends, start, side="right"))
    hi = int(np.searchsorted(ends, stop, side="left"))
    run_ends = ends[lo : hi + 1]
    reps = np.empty_like(run_ends)
    reps[0] = run_ends[0] - start
    np.subtract(run_ends[1:], run_ends[:-1], out=reps[1:])
    reps[-1] -= run_ends[-1] - stop
    return np.repeat(ids[lo : hi + 1], reps)


def _alias_table(law: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table of `law`, a normalised array over 2**L values.

    Column v keeps v with probability t[v] and gives a[v] otherwise, so
    value v has mass (t[v] + sum of 1 - t[u] over u with a[u] = v) / 2**L.
    With q = 2**L * law, the smalls (q < 1) lay their deficits 1 - q end
    to end and the larges (q >= 1) their surpluses q - 1; each small is
    topped up by the large whose surplus covers the start of its deficit,
    and a large whose surplus runs out inside a small's deficit is topped
    up, by the rest of that deficit, from the next large.  This is Vose's
    two-pointer walk (IEEE TSE 17(9), 1991) as one merge of the sorted
    surplus ends with the sorted deficit starts.  A zero-mass value gets
    t = 0 and is never an alias.
    """
    n = law.size
    q = law * n
    small = q < 1.0
    if small.all():  # rounding left no large
        small[np.argmax(q)] = False
    smalls = np.flatnonzero(small)
    larges = np.flatnonzero(~small)
    deficits = np.concatenate(([0.0], np.cumsum(1.0 - q[smalls])))  # small i spans deficits[i:i + 2]
    surplus = np.cumsum(q[larges] - 1.0)  # large j's surplus ends at surplus[j]
    # Both runs ascend, so a stable sort merges them in order, each keeping
    # its own order; surplus ends go first on a tie.  Small i's start then
    # has the surplus ends <= it before it, and large j's end the deficit
    # starts < it: the searchsorted counts, sides "right" and "left".
    is_start = np.argsort(np.concatenate((surplus, deficits[:-1])), kind="stable") >= larges.size
    ends_below = np.flatnonzero(is_start) - np.arange(smalls.size)
    starts_below = np.flatnonzero(~is_start) - np.arange(larges.size)
    t = np.ones(n)
    a = np.arange(n)
    t[smalls] = q[smalls]
    a[smalls] = larges[np.minimum(ends_below, larges.size - 1)]
    # The last small to start below a large's surplus end may end past it; the last large never spills.
    spill = deficits[starts_below[:-1]] - surplus[:-1]
    j = np.flatnonzero(spill > 0)
    t[larges[j]] = np.maximum(1.0 - spill[j], 0.0)  # spill <= 1 up to rounding
    a[larges[j]] = larges[j + 1]
    return t, a


def _word_draw(rng: np.random.Generator, value_law: np.ndarray | None, L: int) -> Callable[[int], np.ndarray]:
    """`draw(size)`: the next `size` iid L-bit words from `rng`, uniform or from `value_law`.

    Uniform words are raw generator output cut little-endian into the
    narrowest unsigned ints that hold L bits; their bits at or above L
    stay set, for w & e drops them.  Under a value law the same words,
    kept to their low L bits, pick alias-table columns, and one more raw
    64-bit output per word keeps the column or gives its alias.
    """
    word_type = np.dtype(f"<u{1 if L <= 8 else 2 if L <= 16 else 4}")

    def raw_words(size: int) -> np.ndarray:
        # astype is a no-op on a little-endian host and keeps the words host-independent.
        raw = rng.bit_generator.random_raw(-(-size * word_type.itemsize // 8))
        return raw.astype("<u8", copy=False).view(word_type)[:size]

    if value_law is None:
        return raw_words
    t, alias = _alias_table(value_law)
    # (u >> 11) < ceil(t * 2**53) is `Generator.random() < t` on the raw output u.
    cut = np.ceil(t * 2.0**53).astype(np.uint64)
    pick = np.concatenate((alias, np.arange(1 << L))).astype(word_type)  # pick[v] = a[v], pick[v + 2**L] = v
    del t, alias

    def alias_words(size: int) -> np.ndarray:
        col = raw_words(size).astype(np.intp)
        col &= (1 << L) - 1
        u = rng.bit_generator.random_raw(size)
        u >>= 11
        col += (u < cut[col]).astype(np.intp) << L
        return pick[col]

    return alias_words


def _distortion_counts(
    rng: np.random.Generator, trials: int, mask_law: np.ndarray, value_law: np.ndarray | None, L: int
) -> np.ndarray:
    """Counts of |w - (w ^ e)| over `trials` (word, mask) pairs, indexed by distortion.

    The sampler of `simulate`: one multinomial draw of the run's mask
    counts.  A mask e with at most one set bit moves every word by e,
    since |w - w| = 0 and |w - (w ^ 2**i)| = 2**i, so its draws are
    counted at distortion e with no word.  The other masks keep their
    ascending layout, which each chunk reads its slice of, paired with
    `_word_draw` words; the draw (and a value law's alias table) is made
    only if some mask needs a word.  Besides the 2**L histogram and that
    table, memory holds one chunk and the masks drawn.
    """
    drawn = rng.multinomial(trials, mask_law)
    single = np.concatenate(([0], 1 << np.arange(L)))
    single = single[single < drawn.size]
    counts = np.zeros(1 << L, dtype=np.int64)
    counts[single] = drawn[single]
    drawn[single] = 0
    ids = np.flatnonzero(drawn)
    ends = np.cumsum(drawn[ids])
    del drawn  # 2**L counts; the loop needs only the masks drawn
    if not ids.size:  # every mask drawn has at most one set bit
        return counts
    rest = int(ends[-1])
    draw_words = _word_draw(rng, value_law, L)
    # A chunk's histogram costs O(2**L), so it holds at least 2**L trials.
    chunk = max(_CHUNK_SIZE, 1 << L)
    for start in range(0, rest, chunk):
        stop = min(start + chunk, rest)
        words = draw_words(stop - start)
        masks = _chunk_masks(ids, ends, start, stop)
        # |w - (w ^ e)| = |2(w & e) - e|; bits of w at or above L drop out of w & e.
        d = np.bitwise_and(words, masks)
        np.left_shift(d, 1, out=d)
        np.subtract(d, masks, out=d)
        np.abs(d, out=d)
        hist = np.bincount(d)
        counts[: hist.size] += hist
    return counts


def simulate(
    table: CodeTable,
    constraint: TailConstraint,
    trials: int,
    seed: int,
    value_source: Union[str, EmpiricalPMF] = "uniform",
    cap_weight: int | None = None,
) -> SimulationResult:
    """Monte Carlo channel run followed by the constraint check.

    Each trial pairs a word with an error mask and records the integer
    distortion |w - (w ^ mask)|.  Masks follow the product law of
    `_kernels.mask_probabilities(p_vec)` (bit i flips independently with
    probability p_i); with `cap_weight` the law is restricted to masks of
    at most that many set bits and renormalised, which is the channel
    conditioned on <= cap_weight upsets.  The check requires every per-m
    mass and every tail Pr(M > m) to stay within the constraint plus
    3-sigma binomial slack.  Trials come from one PCG64 stream seeded
    with `seed`, so a seed fixes the result.  `trials` must be below
    2**63, numpy's int64 limit for a multinomial draw.

    The run's mask counts are one `Generator.multinomial` draw from the
    mask law: the counts of n iid draws from a law are multinomial (numpy
    draws them as conditional binomials, Devroye 1986, ch. XI), and a sum
    of independent multinomials with one law is one multinomial, so one
    draw per run has the law the per-chunk draws had.  A mask e with at
    most one set bit needs no word: |w - (w ^ e)| = e for every w, so its
    trials are counted at distortion e straight from the draw.  The other
    masks are laid out in ascending order and read in chunks of
    max(2**16, 2**L) trials, and words are drawn for them only, so a run
    whose masks all have at most one set bit draws none.  Uniform words
    are raw PCG64 output, which NEP 19 keeps stable across numpy
    versions, cut little-endian into unsigned ints of 1, 2 or 4 bytes,
    the narrowest that hold L bits; each bit is a fair coin, and the bits
    at or above L drop out of w & e.  Under a value PMF the words come
    from a Walker alias table (Walker, ACM TOMS 3(3), 1977; Vose, IEEE
    TSE 17(9), 1991), built at most once per run and only if some trial
    needs a word: the same raw-bit word, kept to its low L bits, picks a
    column v uniformly, and one more raw 64-bit output u keeps v when
    (u >> 11) < ceil(t[v] * 2**53), which is `Generator.random() < t[v]`,
    and gives the alias a[v] otherwise.  The words are iid and
    independent of the masks, so pairing them with sorted masks leaves
    the law of the distortion histogram that of iid pairs; a trial that
    skips the word draw gets the distortion any word would give it.

    The distortion is computed as |2(w & e) - e|, which equals
    |w - (w ^ e)| since w ^ e = w + e - 2(w & e).
    """
    check_int("trials", trials, 1)
    if trials > _INT64.max:
        raise ParameterError(f"trials must be below 2**63, the int64 limit of a multinomial, got {trials}")
    check_int("seed", seed, 0)
    if cap_weight is not None:
        check_int("cap_weight", cap_weight, 0)
    if (table.L, table.k) != (constraint.L, constraint.k):
        raise ParameterError(
            f"table is (L={table.L}, k={table.k}) but constraint is (L={constraint.L}, k={constraint.k})"
        )
    n = 1 << table.L
    mask_law = _kernels.mask_probabilities(np.asarray(table.p_vec, dtype=np.float64))
    if cap_weight is not None:
        mask_law[np.bitwise_count(np.arange(n)) > cap_weight] = 0.0
        if not mask_law.any():
            raise ParameterError(f"no error mask of weight <= {cap_weight} has positive probability")
    mask_law = _law(mask_law)
    value_probs = _value_probs(value_source, table.L)
    value_law = None if value_probs is None else value_probs / value_probs.sum()

    rng = np.random.Generator(np.random.PCG64(seed))
    counts = _distortion_counts(rng, trials, mask_law, value_law, table.L)

    seen = np.flatnonzero(counts)
    dist = DistortionDistribution.from_arrays(
        seen, counts[seen] / trials, PROVENANCE_MONTE_CARLO, trials=trials, seed=seed, generator=GENERATOR_ID
    )
    mode = MODE_FLIP if cap_weight is None else f"{MODE_CAPPED}<={cap_weight}"
    columns, passed = check_against_constraint(dist, constraint, trials)
    return SimulationResult(dist, columns, passed, mode)


def check_against_constraint(
    dist: DistortionDistribution, constraint: TailConstraint, trials: int
) -> tuple[CheckColumns, bool]:
    """Per-m mass and tail checks with 3-sigma binomial slack, for m = 1..top.

    top is the larger of the support's top and the constraint's m_max;
    an m beyond m_max is checked against F(m_max).
    """
    top = max(int(dist.keys.max()), constraint.m_max)
    mass, tail = _mass_and_tail(dist, top)
    ms = np.arange(1, top + 1)
    bound = constraint.bounds_at(ms)
    slack = 3.0 * np.sqrt(bound * (1.0 - bound) / trials)
    mass_ok = mass[1:] <= bound + slack
    tail_ok = tail[1:] <= bound + slack
    columns = CheckColumns(ms, mass[1:], tail[1:], bound, slack, mass_ok, tail_ok)
    return columns, bool((mass_ok & tail_ok).all())


# ---------------------------------------------------------------------------
# Exact oracles


def exact_distortion(
    model: Union[CodeTable, UpsetModel], value_source: Union[str, EmpiricalPMF] = "uniform"
) -> DistortionDistribution:
    """Exact f_M, folding the word's value law through one bit at a time.

    Given the word, each bit moves the value by an independent step: a
    flip under a `CodeTable` (probability p_i either way), a force to the
    other value under an `UpsetModel`.  The law is that sum of steps,
    computed exactly by `_kernels.distortion_pmf_forced`.
    """
    L = model.L
    if L > _MAX_EXACT_L:
        raise ParameterError(f"exact enumeration supports L <= {_MAX_EXACT_L}, got {L}")
    value_probs = _value_probs(value_source, L)
    if value_probs is None:
        value_probs = np.full(1 << L, 1.0 / (1 << L))
    if isinstance(model, CodeTable):
        force_to_one = force_to_zero = np.asarray(model.p_vec, dtype=np.float64)
    else:
        force_to_one, force_to_zero = model.force_to_one(), model.force_to_zero()
    pmf = _kernels.distortion_pmf_forced(force_to_one, force_to_zero, value_probs)
    seen = np.flatnonzero(pmf)
    return DistortionDistribution.from_arrays(seen, pmf[seen], PROVENANCE_EXACT)


def placement_mass(table: CodeTable) -> dict[int, float]:
    """Per-m probability of drawing an error placement that can realize m.

    A mask's full probability is credited to every distortion it can
    produce, which is exactly the left-hand side the solvers constrain,
    summed with the same bincount over the rows of `sets_fast`.  The rows
    are sorted by (m, mask), so each m's masses are summed in ascending
    mask order.
    """
    _, m_max = distortion_range(WordSpec(table.L), table.k)
    sets = setgen.sets_fast(table.L, table.k)
    terms = _kernels.mask_probabilities(np.asarray(table.p_vec, dtype=np.float64))[sets.masks]
    out = np.bincount(sets.ms, weights=terms, minlength=m_max + 1)
    return dict(enumerate(out[1:].tolist(), start=1))


# ---------------------------------------------------------------------------
# Single-error analytic form (forced-value channel)


@dataclass(frozen=True)
class DivergenceReport:
    rows: dict[int, tuple[float, float]]
    max_abs: float
    agreed: bool


def single_error_oracle(pmf: EmpiricalPMF, upsets: UpsetModel) -> DistortionDistribution:
    """Distortion from enumerating the exactly-one-upset outcomes.

    Masses for m >= 1 come from unmasked single upsets; everything else
    (no upset, masked upsets, multi-upset outcomes) is attributed to m=0.
    """
    if pmf.L != upsets.L:
        raise ParameterError("PMF and upset model have different word lengths")
    L = pmf.L
    no_upset = [1.0 - u for u in upsets.upset_prob]
    # others[i]: the odds that no bit but i is upset, multiplied in ascending j.
    others = [math.prod(no_upset[:i] + no_upset[i + 1 :]) for i in range(L)]
    # Bit i of a value a is forced to the other value: to 1 when a_i = 0, to 0 when a_i = 1.
    forced = (upsets.force_to_one().tolist(), upsets.force_to_zero().tolist())
    mass: dict[int, float] = {}
    for a, pa in zip(pmf.keys.tolist(), pmf.masses.tolist()):
        for i in range(L):
            flip_prob = forced[(a >> i) & 1][i]
            if flip_prob:
                m = 1 << i
                mass[m] = mass.get(m, 0.0) + pa * flip_prob * others[i]
    return DistortionDistribution._with_rest_at_zero(list(mass), list(mass.values()), PROVENANCE_EXACT)


def analytic_single_error(
    pmf: EmpiricalPMF, upsets: UpsetModel
) -> tuple[DistortionDistribution, DivergenceReport]:
    """Single-upset analytic distortion law, with its oracle comparison.

    One upset moves the value by exactly 2**i, so for each bit i

        f_M(2**i) = prod_(j != i) (1 - u_j) * sum_a f_V(a) q_i(1 - a_i)

    where u_j is the upset probability of position j and q_i(b) the
    probability that position i is upset and forced to b; the remaining
    mass is assigned to m=0.  The sum runs over the PMF's bit planes in
    one matrix product, O(|V| L), so no word-length cap applies.  The
    result ships with a per-m comparison against the enumeration oracle.
    """
    if pmf.L != upsets.L:
        raise ParameterError("PMF and upset model have different word lengths")
    L = pmf.L
    planes = (pmf.keys[:, None] >> np.arange(L)) & 1
    # Bit i is forced to the other value: to 0 when a_i = 1, to 1 when a_i = 0.
    flips = pmf.masses @ np.where(planes, upsets.force_to_zero(), upsets.force_to_one())
    others = np.where(np.eye(L, dtype=bool), 1.0, 1.0 - np.asarray(upsets.upset_prob)).prod(axis=1)
    terms = flips * others
    seen = np.flatnonzero(terms)
    analytic = DistortionDistribution._with_rest_at_zero(1 << seen, terms[seen], PROVENANCE_SINGLE_ERROR)

    oracle = single_error_oracle(pmf, upsets)
    ms = sorted(set(analytic.keys.tolist()) | set(oracle.keys.tolist()))
    rows = {m: (analytic.at(m), oracle.at(m)) for m in ms}
    max_abs = max((abs(a - b) for a, b in rows.values()), default=0.0)
    return analytic, DivergenceReport(rows, max_abs, max_abs <= 1e-9)


# ---------------------------------------------------------------------------
# Trace ingestion and file formats


def ingest_trace(
    stream: Iterable[str],
    column: int,
    L: int,
    signed_offset: int = 0,
    *,
    clamp: bool = False,
    skip_header: int = 0,
) -> EmpiricalPMF:
    """Histogram a CSV column of integers into an L-bit value PMF.

    The column is read as one int64 array by `np.loadtxt`
    (`core.read_csv_array`, `"` quotes) and range-checked as an array.
    Whenever that fails, the rows are walked one at a time with
    `csv.reader` and `int()`, the reference semantics: that walk names the
    first bad row, and it accepts what `loadtxt` refuses, such as `1_0`,
    non-ASCII digits and integers beyond int64.  `loadtxt` skips lines
    where `csv.reader` skips rows, so a skipped header holding a quote,
    which may open a row spanning lines, is read by the walk too.

    Every input is read through one source: the stream itself when it can
    be sought back (`seekable()`, and `tell()` works, which it does not on
    a text file advanced by `next()`), so no line outlives its parse, and
    otherwise an iterator over its listed lines, as for a list, a
    generator or a pipe.  The header lines are taken off that source and
    `loadtxt` iterates the rest.  If the walk is needed, a stream is
    sought back to where it stood and listed, so rows are numbered from
    that position.  The counts are a `bincount` over all 2**L values when
    there are at least as many samples, and an `np.unique` otherwise, so
    the histogram never takes more memory than the samples.
    """
    WordSpec(L)
    check_int("column", column, 0)
    check_int("skip_header", skip_header, 0)
    check_int("signed_offset", signed_offset)
    signed_offset = int(signed_offset)  # a numpy integer would wrap where int() grows
    n = 1 << L
    start = _position(stream)
    if start is None:
        lines = list(stream)
    source = iter(lines) if start is None else stream
    header = list(itertools.islice(source, min(skip_header, sys.maxsize)))  # no stream holds more lines
    values = None
    if not any('"' in line for line in header):
        values = _column_array(source, column, signed_offset)
    if values is None or not clamp and values.size and (values.min() < 0 or values.max() >= n):
        if start is not None:
            stream.seek(start)
            lines = list(stream)
        values = _column_rows(lines, column, n, signed_offset, clamp, skip_header)
    values = np.clip(values, 0, n - 1).astype(np.int64, copy=False)  # the walk may give uint64 or Python ints
    if not values.size:
        raise ParameterError("no samples")
    # A bincount spans all 2**L values, so it is taken only when the samples are at least as many;
    # otherwise np.unique keeps the counts within the samples' memory.
    if n <= values.size:
        counts = np.bincount(values, minlength=n)
        seen = np.flatnonzero(counts)
        counts = counts[seen]
    else:
        seen, counts = np.unique(values, return_counts=True)
    return EmpiricalPMF.from_arrays(L, seen, counts / values.size, sample_count=values.size)


def _position(stream) -> int | None:
    """Where `stream` stands if it can be sought back there, else None."""
    try:
        return stream.tell() if stream.seekable() else None
    except (AttributeError, OSError):  # not a file, or a text file whose iteration disabled tell()
        return None


def _column_array(lines: Iterable[str], column: int, offset: int) -> np.ndarray | None:
    """The column plus `offset` as int64, parsed by `np.loadtxt`; None where it fails or would overflow."""
    values = read_csv_array(lines, dtype=np.int64, usecols=column, quotechar='"')
    if values is None:
        return None
    low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
    if not all(_INT64.min <= x <= _INT64.max for x in (offset, low + offset, high + offset)):
        return None  # int64 would wrap where int() grows
    return values + offset


def _column_rows(lines: list[str], column: int, n: int, offset: int, clamp: bool, skip: int) -> np.ndarray:
    """The column plus `offset`, one `csv.reader` row and one `int()` at a time; the first bad row raises."""
    values = []
    rownum = 0
    try:
        for rownum, row in enumerate(csv.reader(lines), start=1):
            if rownum <= skip or not row:
                continue
            if column >= len(row):
                raise ParameterError(f"row {rownum}: no column {column} (row has {len(row)})")
            text = row[column].strip()
            try:
                value = int(text) + offset
            except ValueError:
                raise ParameterError(
                    f"row {rownum}, column {column}: cannot parse {text!r} as integer"
                ) from None
            if not clamp and not 0 <= value < n:
                raise ParameterError(f"row {rownum}: value {value} outside [0, {n}) after offset {offset}")
            values.append(value)
    except csv.Error as exc:  # e.g. a bare "\r" inside a line of a stream not read in universal-newline mode
        raise ParameterError(f"row {rownum + 1}: {exc}") from None
    return np.array(values)


def format_distribution_csv(d: DistortionDistribution) -> str:
    lines = [f"# provenance={d.provenance}"]
    if d.trials is not None:
        lines.append(f"# trials={d.trials}")
    if d.seed is not None:
        lines.append(f"# seed={d.seed}")
    if d.generator is not None:
        lines.append(f"# generator={d.generator}")
    lines.append("m,mass,tail")
    mass, tail = _mass_and_tail(d)
    lines += [f"{m},{f!r},{t!r}" for m, (f, t) in enumerate(zip(mass.tolist(), tail.tolist()))]
    return "\n".join(lines) + "\n"


def write_distribution_csv(d: DistortionDistribution, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_distribution_csv(d))


def format_pmf_csv(pmf: EmpiricalPMF) -> str:
    lines = [f"# L={pmf.L}"]
    if pmf.sample_count is not None:
        lines.append(f"# sample_count={pmf.sample_count}")
    lines.append("value,mass")
    order = np.argsort(pmf.keys)
    lines += [f"{v},{p!r}" for v, p in zip(pmf.keys[order].tolist(), pmf.masses[order].tolist())]
    return "\n".join(lines) + "\n"


def write_pmf_csv(pmf: EmpiricalPMF, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_pmf_csv(pmf))


def parse_pmf_csv(text: str) -> EmpiricalPMF:
    header: dict[str, int] = {}
    mass: dict[int, float] = {}
    seen: dict[str | int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key in ("L", "sample_count"):
                reject_repeat(seen, key, lineno, "'# {}=' header")
                try:
                    header[key] = int(value)
                except ValueError:
                    raise ParameterError(f"line {lineno}: bad header {line!r}") from None
            continue
        if line == "value,mass":
            continue
        v_text, _, p_text = line.partition(",")
        try:
            v, p = int(v_text), float(p_text)
        except ValueError:
            raise ParameterError(f"line {lineno}: bad row {line!r}") from None
        reject_repeat(seen, v, lineno, "row for value {}")
        mass[v] = p
    if "L" not in header:
        raise ParameterError("PMF file missing '# L=' header")
    return EmpiricalPMF(header["L"], mass, header.get("sample_count"))


def load_pmf_csv(path) -> EmpiricalPMF:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pmf_csv(fh.read())


def serialize_upsets(model: UpsetModel) -> str:
    lines = [f"format={UPSETS_FORMAT}", f"L={model.L}"]
    lines += [
        f"{i},{float(model.upset_prob[i])!r},{float(model.forced_one_prob[i])!r}" for i in range(model.L)
    ]
    return "\n".join(lines) + "\n"


def parse_upsets(text: str) -> UpsetModel:
    L = None
    rows: dict[int, tuple[float, float]] = {}
    seen: dict[str | int, int] = {}
    for lineno, line in format_lines(text.splitlines(), UPSETS_FORMAT):
        if line.startswith("L="):
            reject_repeat(seen, "L", lineno, "L= header")
            try:
                L = int(line[2:])
            except ValueError:
                raise ParameterError(f"line {lineno}: bad header {line!r}") from None
            continue
        try:
            bit_text, upset_text, forced_one_text = line.split(",")
            bit = int(bit_text)
            rows[bit] = (float(upset_text), float(forced_one_text))
        except ValueError:
            raise ParameterError(f"line {lineno}: bad row {line!r}") from None
        reject_repeat(seen, bit, lineno, "row for bit {}")
    if L is None:
        raise ParameterError("upsets file missing L= header")
    WordSpec(L)  # before L sizes a list
    upset = [0.0] * L
    forced_one = [0.0] * L
    for bit, (u, f1) in rows.items():
        if not 0 <= bit < L:
            raise ParameterError(f"bit {bit} outside [0, {L})")
        upset[bit] = u
        forced_one[bit] = f1
    return UpsetModel(L, tuple(upset), tuple(forced_one))


def load_upsets(path) -> UpsetModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_upsets(fh.read())
