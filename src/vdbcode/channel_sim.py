"""Channel simulation and distortion-distribution analytics.

Monte Carlo validation draws words and error masks, and checks the
observed distortion masses and tails against the constraint with
binomial 3-sigma slack.  Masks are drawn from the code table's product
law `_kernels.mask_probabilities(p_vec)`, restricted to masks of weight
<= cap and renormalised when a weight cap is given, so the capped and
uncapped channels are one sampling path; each chunk's mask counts (and
word counts, under a value PMF) are one multinomial draw.  The exact
counterpart folds the value law through the word one bit at a time, each
bit adding an independent signed step, and is the ground truth the
simulator converges to.  The forced-value channel (errors overwrite a
bit with a target value, so matching targets are masked) is covered by
the same exact fold plus the single-error analytic form, which is
checked against a restricted enumeration rather than trusted.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

import numpy as np

from . import _kernels, setgen
from .codegen import CodeTable, TailConstraint
from .core import ParameterError, SYMMETRIC, WordSpec, distortion_range, format_lines, reject_repeat

GENERATOR_ID = "pcg64-multinomial"
UPSETS_FORMAT = "vdb-upsets-v1"

PROVENANCE_MONTE_CARLO = "monte_carlo"
PROVENANCE_EXACT = "exact_enumeration"
PROVENANCE_SINGLE_ERROR = "analytic_single_error"

MODE_FLIP = "independent-flip"
MODE_CAPPED = "cap-weight"

_CHUNK_SIZE = 1 << 16
_MAX_EXACT_L = 16


@dataclass(frozen=True)
class EmpiricalPMF:
    """Probability mass function over L-bit values."""

    L: int
    mass: dict[int, float]
    sample_count: int | None = None

    def __post_init__(self) -> None:
        WordSpec(self.L, SYMMETRIC)
        n = 1 << self.L
        for v, p in self.mass.items():
            if not 0 <= v < n:
                raise ParameterError(f"value {v} outside [0, {n})")
            if not 0.0 <= p < math.inf:
                raise ParameterError(f"value {v} has mass {p!r}, not a finite number >= 0")
        total = math.fsum(self.mass.values())
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"masses sum to {total}, not 1")
        count = self.sample_count
        if count is not None and not (type(count) is int and count >= 1):  # bool is no count
            raise ParameterError(f"sample_count must be a positive int, got {count!r}")

    def to_array(self) -> np.ndarray:
        arr = np.zeros(1 << self.L, dtype=np.float64)
        for v, p in self.mass.items():
            arr[v] = p
        return arr

    @classmethod
    def uniform(cls, L: int) -> "EmpiricalPMF":
        n = 1 << L
        return cls(L, {v: 1.0 / n for v in range(n)})

    @classmethod
    def point_mass(cls, L: int, value: int) -> "EmpiricalPMF":
        return cls(L, {value: 1.0})

    @classmethod
    def from_counts(cls, L: int, counts: Mapping[int, int]) -> "EmpiricalPMF":
        total = sum(counts.values())
        if total <= 0:
            raise ParameterError("no samples")
        return cls(L, {v: c / total for v, c in counts.items() if c}, sample_count=total)


@dataclass(frozen=True)
class UpsetModel:
    """Forced-value channel: per-bit upset probability and target-bit law."""

    L: int
    upset_prob: tuple[float, ...]
    forced_one_prob: tuple[float, ...]

    def __post_init__(self) -> None:
        WordSpec(self.L, SYMMETRIC)
        if len(self.upset_prob) != self.L or len(self.forced_one_prob) != self.L:
            raise ParameterError(f"need {self.L} per-bit entries")
        for name, probs in (("upset_prob", self.upset_prob), ("forced_one_prob", self.forced_one_prob)):
            for i, p in enumerate(probs):
                if not 0.0 <= p <= 1.0:
                    raise ParameterError(f"{name}[{i}]={p} outside [0, 1]")

    def force_probability(self, i: int, bit: int) -> float:
        """Probability that position i is upset and forced to `bit`."""
        if bit == 1:
            return self.upset_prob[i] * self.forced_one_prob[i]
        return self.upset_prob[i] * (1.0 - self.forced_one_prob[i])

    def force_to_one(self) -> np.ndarray:
        return np.array([self.force_probability(i, 1) for i in range(self.L)])

    def force_to_zero(self) -> np.ndarray:
        return np.array([self.force_probability(i, 0) for i in range(self.L)])


@dataclass(frozen=True)
class DistortionDistribution:
    """PMF over integer distortion m, with provenance metadata."""

    mass: dict[int, float]
    provenance: str
    trials: int | None = None
    seed: int | None = None
    generator: str | None = None

    def __post_init__(self) -> None:
        total = math.fsum(self.mass.values())
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"masses sum to {total}, not 1")

    def at(self, m: int) -> float:
        return self.mass.get(m, 0.0)


def _mass_and_tail(d: DistortionDistribution, top: int) -> tuple[np.ndarray, np.ndarray]:
    """Masses f(m) and tails Pr(M > m) for m = 0..top, as float64 arrays.

    The tail is a running sum from the top of the support down (cumsum
    adds in sequence), so every entry is bit-for-bit that loop's value.
    """
    mass = np.zeros(top + 1, dtype=np.float64)
    mass[list(d.mass)] = list(d.mass.values())
    tail = np.zeros(top + 1, dtype=np.float64)
    tail[:-1] = np.cumsum(mass[:0:-1])[::-1]
    return mass, tail


def tail_of(d: DistortionDistribution) -> dict[int, float]:
    """Complementary cumulative masses Pr(M > m) for m = 0..max support."""
    if not d.mass:
        return {}
    _, tail = _mass_and_tail(d, max(d.mass))
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
    """`weights` up to its last positive entry, scaled to sum to 1.

    `Generator.multinomial` gives its last category whatever its binomial
    steps leave, so a law that ended in zero-mass entries could draw one.
    """
    law = weights[: weights.size - int(np.argmax(weights[::-1] > 0))]
    return law / law.sum()


def simulate(
    table: CodeTable,
    constraint: TailConstraint,
    trials: int,
    seed: int,
    value_source: Union[str, EmpiricalPMF] = "uniform",
    cap_weight: int | None = None,
) -> SimulationResult:
    """Monte Carlo channel run followed by the constraint check.

    Each trial draws a word and an error mask and records the integer
    distortion |w - (w ^ mask)|.  Masks follow the product law of
    `_kernels.mask_probabilities(p_vec)` (bit i flips independently with
    probability p_i); with `cap_weight` the law is restricted to masks of
    at most that many set bits and renormalised, which is the channel
    conditioned on <= cap_weight upsets.  The check requires every per-m
    mass and every tail Pr(M > m) to stay within the constraint plus
    3-sigma binomial slack.  Trials come from one PCG64 stream seeded
    with `seed`, drawn in chunks of max(2**16, 2**L) trials, so a seed
    fixes the result.

    A chunk's mask counts are one `Generator.multinomial` draw from the
    mask law, which is how the counts of that many iid draws are
    distributed; the masks are laid out in ascending order.  Words are
    `Generator.integers` (uniform) or, under a value PMF, one multinomial
    draw of counts laid out in a random permutation: given its counts, an
    iid sequence is a uniformly random arrangement of them.  The words are
    iid and independent of the masks, so pairing them with sorted masks
    leaves the law of the distortion histogram that of iid pairs.
    """
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if cap_weight is not None and cap_weight < 0:
        raise ParameterError(f"cap_weight must be >= 0, got {cap_weight}")
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
    value_law = None if value_probs is None else _law(value_probs)

    rng = np.random.Generator(np.random.PCG64(seed))
    counts = np.zeros(n, dtype=np.int64)
    # A multinomial draw costs O(2**L), so a chunk holds at least 2**L trials.
    chunk = max(_CHUNK_SIZE, n)
    for start in range(0, trials, chunk):
        size = min(chunk, trials - start)
        if value_law is None:
            words = rng.integers(0, n, size=size, dtype=np.int64)
        else:
            words = rng.permutation(np.repeat(np.arange(value_law.size), rng.multinomial(size, value_law)))
        masks = np.repeat(np.arange(mask_law.size), rng.multinomial(size, mask_law))
        counts += np.bincount(np.abs(words - (words ^ masks)), minlength=n)

    seen = np.flatnonzero(counts)
    mass = dict(zip(seen.tolist(), (counts[seen] / trials).tolist()))
    dist = DistortionDistribution(
        mass, PROVENANCE_MONTE_CARLO, trials=trials, seed=seed, generator=GENERATOR_ID
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
    top = max(max(dist.mass, default=0), constraint.m_max)
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
    mass = {int(m): float(p) for m, p in enumerate(pmf) if p}
    return DistortionDistribution(mass, PROVENANCE_EXACT)


def placement_mass(table: CodeTable) -> dict[int, float]:
    """Per-m probability of drawing an error placement that can realize m.

    A mask's full probability is credited to every distortion it can
    produce, which is exactly the left-hand side the solvers constrain,
    summed with the same bincount over the rows of `sets_fast`.  The rows
    are sorted by (m, mask), so each m's masses are summed in ascending
    mask order.
    """
    _, m_max = distortion_range(WordSpec(table.L, SYMMETRIC), table.k)
    sets = setgen.sets_fast(table.L, table.k)
    terms = _kernels.mask_probabilities(np.asarray(table.p_vec, dtype=np.float64))[sets.masks]
    out = np.bincount(sets.ms, weights=terms, minlength=m_max + 1)
    return {m: float(out[m]) for m in range(1, m_max + 1)}


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
    no_upset = [1.0 - upsets.upset_prob[i] for i in range(L)]
    mass: dict[int, float] = {}
    for a, pa in pmf.mass.items():
        for i in range(L):
            others = 1.0
            for j in range(L):
                if j != i:
                    others *= no_upset[j]
            a_i = (a >> i) & 1
            flip_prob = upsets.force_probability(i, 1 - a_i)
            if flip_prob:
                m = 1 << i
                mass[m] = mass.get(m, 0.0) + pa * flip_prob * others
    mass[0] = 1.0 - math.fsum(v for m, v in mass.items() if m != 0)
    return DistortionDistribution(mass, PROVENANCE_EXACT)


def analytic_single_error(
    pmf: EmpiricalPMF, upsets: UpsetModel
) -> tuple[DistortionDistribution, DivergenceReport]:
    """Single-upset analytic distortion law, with its oracle comparison.

    Evaluates, for each m >= 1,

        f_M(m) = sum_a B(a) * (f_V(a - m) + f_V(a + m))
        B(a) = sum_i f_V(a + 2**i) q_i(0) + sum_i f_V(a - 2**i) q_i(1)
               + f_V(a) * sum_i q_i(a_i)

    where q_i(b) is the probability position i is upset and forced to b;
    the remaining mass is assigned to m=0.  The transcription is
    known-suspect for spread-out value distributions (the masked-upset
    term leaks into m >= 1), so the result always ships with a
    per-m comparison against the single-upset enumeration oracle.
    """
    if pmf.L != upsets.L:
        raise ParameterError("PMF and upset model have different word lengths")
    L = pmf.L
    if L > _MAX_EXACT_L:
        # The correlation below takes time quadratic in 2**L.
        raise ParameterError(f"the single-error form supports L <= {_MAX_EXACT_L}, got {L}")
    n = 1 << L
    fv = pmf.to_array()

    q0 = upsets.force_to_zero()
    q1 = upsets.force_to_one()
    a = np.arange(n)
    bracket = np.zeros(n, dtype=np.float64)
    for i in range(L):
        s = 1 << i
        bracket[:-s] += fv[s:] * q0[i]
        bracket[s:] += fv[:-s] * q1[i]
        bracket += fv * np.where((a >> i) & 1, q1[i], q0[i])

    # corr[n - 1 + d] = sum_a B(a) f_V(a - d), for d = -(n - 1)..(n - 1).
    corr = np.correlate(bracket, fv, "full")
    totals = corr[n:] + corr[n - 2 :: -1]
    mass: dict[int, float] = {}
    for m, total in enumerate(totals, start=1):
        if total:
            mass[m] = float(total)
    mass[0] = 1.0 - math.fsum(v for m, v in mass.items() if m != 0)
    analytic = DistortionDistribution(mass, PROVENANCE_SINGLE_ERROR)

    oracle = single_error_oracle(pmf, upsets)
    ms = sorted(set(analytic.mass) | set(oracle.mass))
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

    The column is read as one int64 array by `np.loadtxt` (comma
    delimiter, `"` quotes, no comment character) and range-checked as an
    array.  Whenever that fails, the rows are walked one at a time with
    `csv.reader` and `int()`, the reference semantics: that walk names the
    first bad row, and it accepts what `loadtxt` refuses, such as `1_0`,
    non-ASCII digits and integers beyond int64.  `loadtxt` skips lines
    where `csv.reader` skips rows, so a skipped header holding a quote,
    which may open a row spanning lines, is read by the walk too.
    """
    WordSpec(L, SYMMETRIC)
    if column < 0:
        raise ParameterError(f"column must be >= 0, got {column}")
    if skip_header < 0:
        raise ParameterError(f"skip_header must be >= 0, got {skip_header}")
    n = 1 << L
    lines = list(stream)
    values = None
    if not any('"' in line for line in lines[:skip_header]):
        values = _column_array(lines, column, skip_header, signed_offset)
    if values is None or not clamp and values.size and (values.min() < 0 or values.max() >= n):
        values = _column_rows(lines, column, n, signed_offset, clamp, skip_header)
    # np.unique keeps memory at the sample count; a bincount would span all 2**L values.
    seen, counts = np.unique(np.clip(values, 0, n - 1), return_counts=True)
    return EmpiricalPMF.from_counts(L, dict(zip(seen.tolist(), counts.tolist())))


_INT64 = np.iinfo(np.int64)


def _column_array(lines: list[str], column: int, skip: int, offset: int) -> np.ndarray | None:
    """The column plus `offset` as int64, parsed by `np.loadtxt`; None where it fails or would overflow."""
    try:
        with warnings.catch_warnings():
            # numpy < 2.3 parses "5.0" or "1e3" as an int with a DeprecationWarning; int() refuses them.
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("ignore", UserWarning)  # no data: an empty column, "no samples" below
            values = np.loadtxt(
                lines, dtype=np.int64, delimiter=",", usecols=column, skiprows=skip,
                comments=None, quotechar='"', ndmin=1,
            )
    except (ValueError, DeprecationWarning):
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
    mass, tail = _mass_and_tail(d, max(d.mass, default=0))
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
    lines += [f"{v},{pmf.mass[v]!r}" for v in sorted(pmf.mass)]
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
        f"{i},{model.upset_prob[i]!r},{model.forced_one_prob[i]!r}" for i in range(model.L)
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
