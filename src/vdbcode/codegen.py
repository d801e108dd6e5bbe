"""Code-table solvers: maximal channel error probabilities under a tail bound.

A TailConstraint assigns each distortion m a probability budget F(m),
held as the rows it was given, between which F is a step function; a
budget costs its rows, not its m_max.  A code table is feasible when,
for every m, the total probability of the error placements that can
realize m stays within F(m):

    sum over masks e in S_m of  prod_i p_i**e_i (1-p_i)**(1-e_i)  <=  F(m)

The solvers and verify_table take only the budget: the family S_m is
fixed by its (L, k), and one row object, _Rows, builds it with
setgen.sets_fast and evaluates every left-hand side at once from the
family's own masks, with no 2**L table: each distinct mask's product is
taken once, and one bincount over the sorted (m, mask) arrays sums those
products per m.  An empty S_m carries no mass and can never bind, so only
the nonempty S_m are rows, given margins and reported.

The i.i.d. solver maximizes a single p.  Its constraint polynomials are
not monotone in p (mass can flow back out of S_m as p grows), so the
feasible set along p is generally a union of intervals; it returns the
supremum of the interval attached to p=0, the operating point reached
from the error-free side.  It certifies every constraint on [0, p] from
Bernstein coefficients and brackets the end of that interval to 1e-6
relative (see solve_iid).  The per-bit solver maximizes p_0..p_{L-1} by
coordinate ascent from that point.  With the other coordinates fixed each
constraint is affine in p_i, so each coordinate step is a closed-form
minimum over the rising constraints, and the m that attains it is the one
blocking p_i.  Coordinate ascent finds a local maximum, and which one
depends on the path taken.  constraint_lhs
evaluates one placement set on its own and serves as the independent
oracle for the array evaluation.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import setgen
from .core import (
    ParameterError, WordSpec, check_ints, check_real, distortion_range, format_lines, read_csv_array, reject_repeat,
)

CONSTRAINT_FORMAT = "vdb-constraint-v1"
TABLE_FORMAT = "vdb-table-v1"

MODE_IID = "iid"
MODE_PERBIT = "perbit"

class InfeasibleConstraintError(RuntimeError):
    """A solver's own table failed re-verification against the constraint."""


@dataclass(frozen=True, eq=False)
class TailConstraint:
    """Per-m probability budget over the full distortion range of (L, k), held as its rows.

    F(m) is values[j] for the last row with ms[j] <= m, 1.0 below ms[0]: ms,
    given as integers, is read-only int64, strictly ascending within [1,
    m_max], and values is read-only float64 in [0, 1].  A budget built here
    may rise from one row to the next; from_table and the parsers refuse that.
    """

    L: int
    k: int
    ms: np.ndarray
    values: np.ndarray
    m_max: int = field(init=False)

    def __post_init__(self) -> None:
        _, m_max = distortion_range(WordSpec(self.L), self.k)
        ms, values = check_ints("constraint m", self.ms, 1, m_max), _bounds(self.values)
        if ms.shape != values.shape:
            raise ParameterError(f"constraint needs one bound per row, got m {ms.shape} and bounds {values.shape}")
        if (ms[1:] <= ms[:-1]).any():
            raise ParameterError("constraint rows need m strictly ascending")
        bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
        if bad.size:
            raise ParameterError(f"bound at m={ms[bad[0]]} is {values[bad[0]]}, outside [0, 1]")
        ms.flags.writeable = values.flags.writeable = False
        for name, value in (("ms", ms), ("values", values), ("m_max", m_max)):
            object.__setattr__(self, name, value)

    def bounds_at(self, ms: int | np.ndarray) -> float | np.ndarray:
        """F(m) for every m >= 1 of `ms` (a scalar or an array), each m > m_max taking F(m_max)."""
        return np.concatenate(([1.0], self.values))[np.searchsorted(self.ms, ms, side="right")]

    @classmethod
    def from_table(cls, L: int, k: int, bounds: Mapping[int, float]) -> "TailConstraint":
        """F from rows {m: F(m)} in any order, m an int; F may not rise by more than 1e-15 from one row to the next."""
        _, m_max = distortion_range(WordSpec(L), k)
        ms, values = check_ints("constraint m", bounds.keys(), 1, m_max), _bounds(list(bounds.values()))
        order = np.argsort(ms)
        return _falling(cls(L, k, ms[order], values[order]))

    @classmethod
    def reciprocal(cls, L: int, k: int) -> "TailConstraint":
        """The 1/(m+1) budget used throughout the Monte Carlo validation, one row per m."""
        _, m_max = distortion_range(WordSpec(L), k)
        return cls(L, k, np.arange(1, m_max + 1), 1.0 / np.arange(2, m_max + 2))


def _bounds(values) -> np.ndarray:
    """`values` as a new float64 array; a non-numeric array's entries must each pass `check_real`."""
    given = np.asarray(values)
    if given.dtype.kind not in "biuf":
        for value in np.asarray(values, dtype=object).ravel().tolist():
            check_real("bound", value)
    return given.astype(np.float64)


def _falling(c: TailConstraint) -> TailConstraint:
    """c, once no row's bound exceeds the row before it by more than 1e-15."""
    rises = np.flatnonzero(c.values[1:] > c.values[:-1] + 1e-15)
    if rises.size:
        j = int(rises[0]) + 1
        raise ParameterError(f"bound increases from m={c.ms[j - 1]} ({c.values[j - 1]}) to m={c.ms[j]} ({c.values[j]})")
    return c


def parse_constraint(text: str) -> TailConstraint:
    """Parse the vdb-constraint-v1 text format, reporting line numbers.

    The `L=`/`k=` headers are scanned once, up to the first row.  The
    block of `m,F(m)` rows from there on is read with one `np.loadtxt`
    (`core.read_csv_array`) into int64 m and float64 F(m), sorted by m and
    handed to the TailConstraint checks and the rise check; every file
    that `serialize_constraint` writes is read this way.  Only a block
    that `loadtxt` refuses, such as one holding fractions, comments or
    headers, or one that fails a check, is walked one row at a time
    (`_parse_constraint_rows`).  The walk is the reference: it names the
    offending line, and it accepts what `loadtxt` refuses, such as `1_0`,
    non-ASCII digits, m beyond int64 and fractions.
    """
    lines = text.splitlines()
    header: dict[str, int] = {}
    seen: dict[str | int, int] = {}  # the line of each header and of each row's m
    rows = format_lines(lines, CONSTRAINT_FORMAT)
    for lineno, line in rows:
        key, _, value = line.partition("=")
        if key not in ("L", "k"):
            break
        reject_repeat(seen, key, lineno, "{}= header")
        try:
            header[key] = int(value)
        except ValueError:
            raise ParameterError(f"line {lineno}: bad header {line!r}") from None
    else:
        if len(header) < 2:
            raise ParameterError("constraint file missing format/L/k headers")
        return TailConstraint.from_table(header["L"], header["k"], {})
    if len(header) < 2:
        raise ParameterError(f"line {lineno}: rows before L=/k= headers")
    L, k = header["L"], header["k"]
    _, m_max = distortion_range(WordSpec(L), k)
    block = read_csv_array(lines[lineno - 1 :], dtype=[("m", np.int64), ("bound", np.float64)])
    if block is not None:
        order = np.argsort(block["m"])
        try:
            return _falling(TailConstraint(L, k, block["m"][order], block["bound"][order]))
        except ParameterError:
            pass
    return _parse_constraint_rows(itertools.chain([(lineno, line)], rows), L, k, m_max, seen)


def _parse_constraint_rows(
    rows: Iterable[tuple[int, str]], L: int, k: int, m_max: int, seen: dict[str | int, int]
) -> TailConstraint:
    """The numbered row lines parsed one at a time, each error naming its line; `seen` holds the headers' lines."""
    given: dict[int, float] = {}
    for lineno, line in rows:
        key = line.partition("=")[0]
        if key in ("L", "k"):
            reject_repeat(seen, key, lineno, "{}= header")  # both are already seen, so this raises
        m_text, _, bound_text = line.partition(",")
        try:
            m = int(m_text)
            bound = _parse_bound(bound_text)
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"line {lineno}: bad row {line!r}") from None
        reject_repeat(seen, m, lineno, "bound for m={}")
        if not 1 <= m <= m_max:
            raise ParameterError(f"line {lineno}: m={m} outside [1, {m_max}]")
        if not 0.0 <= bound <= 1.0:
            raise ParameterError(f"line {lineno}: bound {bound_text} outside [0, 1]")
        given[m] = bound
    # F rises only at a row, and F(m) comes from the nearest row at or below m.
    ordered = sorted(given.items())
    for (below, low), (m, high) in zip(ordered, ordered[1:]):
        if high > low + 1e-15:
            raise ParameterError(
                f"line {seen[m]}: bound at m={m} ({high}) increases from "
                f"m={below} ({low}) at line {seen[below]}"
            )
    return TailConstraint.from_table(L, k, given)


def _parse_bound(text: str) -> float:
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def serialize_constraint(c: TailConstraint) -> str:
    """The constraint file: the headers, then one `m,F(m)` line per row the budget holds."""
    lines = [f"format={CONSTRAINT_FORMAT}", f"L={c.L}", f"k={c.k}"]
    lines += [f"{m},{b!r}" for m, b in zip(c.ms.tolist(), c.values.tolist())]
    return "\n".join(lines) + "\n"


def load_constraint(path) -> TailConstraint:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_constraint(fh.read())


# ---------------------------------------------------------------------------
# Code tables


# Coordinate-ascent sweeps solve_perbit makes at most, and its stopping move
# (also the step of its local-maximality certificate, 4 * PERBIT_TOL).
MAX_SWEEPS = 200
PERBIT_TOL = 1e-4


@dataclass(frozen=True)
class CodeTable:
    """Solver output: one probability per bit (all equal in iid mode)."""

    mode: str
    L: int
    k: int
    p_vec: tuple[float, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in (MODE_IID, MODE_PERBIT):
            raise ParameterError(f"unknown table mode {self.mode!r}")
        distortion_range(WordSpec(self.L), self.k)
        if len(self.p_vec) != self.L:
            raise ParameterError(f"expected {self.L} probabilities, got {len(self.p_vec)}")
        for i, p in enumerate(self.p_vec):
            check_real(f"p_{i}", p)
            if not 0.0 <= p <= 1.0:
                raise ParameterError(f"p_{i}={p} outside [0, 1]")

    @property
    def p(self) -> float:
        if self.mode != MODE_IID:
            raise ParameterError("p is only defined for iid tables")
        return self.p_vec[0]

    @classmethod
    def iid(cls, L: int, k: int, p: float, metadata: dict | None = None) -> "CodeTable":
        WordSpec(L)  # a float L fails here, not in (p,) * L
        return cls(MODE_IID, L, k, (p,) * L, metadata or {})

    @classmethod
    def perbit(cls, L: int, k: int, p_vec: Sequence[float], metadata: dict | None = None) -> "CodeTable":
        return cls(MODE_PERBIT, L, k, tuple(p_vec), metadata or {})


def serialize_table(table: CodeTable) -> str:
    """The table file, with `# sweeps=`, `# first_infeasible_p=` and `# margin` lines from its metadata."""
    lines = [f"format={TABLE_FORMAT}", f"L={table.L}", f"k={table.k}", f"mode={table.mode}"]
    if table.mode == MODE_IID:
        lines.append(f"p={float(table.p)!r}")
    else:
        lines += [f"p_{i}={float(p)!r}" for i, p in enumerate(table.p_vec)]
    for key in ("sweeps", "first_infeasible_p"):
        if key in table.metadata:
            lines.append(f"# {key}={table.metadata[key]}")
    margins = table.metadata.get("margins", {})
    lines += [f"# margin m={m}: {margins[m]!r}" for m in sorted(margins)]
    return "\n".join(lines) + "\n"


def parse_table(text: str) -> CodeTable:
    header: dict[str, int | str] = {}
    p_lines: dict[int, float] = {}
    p_single: float | None = None
    seen: dict[str, int] = {}
    for lineno, line in format_lines(text.splitlines(), TABLE_FORMAT):
        key, _, value = line.partition("=")
        try:
            if key in ("L", "k", "mode"):
                header[key] = value if key == "mode" else int(value)
            elif key == "p":
                p_single = float(value)
            elif key.startswith("p_"):
                key = f"p_{int(key[2:])}"
                p_lines[int(key[2:])] = float(value)
            else:
                raise ValueError(key)
        except ValueError:
            raise ParameterError(f"line {lineno}: bad line {line!r}") from None
        reject_repeat(seen, key, lineno, "{}= line")
    try:
        L, k, mode = header["L"], header["k"], header["mode"]
    except KeyError as exc:
        raise ParameterError(f"table file missing header {exc}") from None
    if mode not in (MODE_IID, MODE_PERBIT):
        raise ParameterError(f"unknown mode {mode!r}")
    for key, lineno in seen.items():
        # an iid table holds only p=, a perbit table only p_i= lines
        if key.startswith("p") and (key == "p") != (mode == MODE_IID):
            raise ParameterError(f"line {lineno}: {key}= line in a mode={mode} table")
    if mode == MODE_IID:
        if p_single is None:
            raise ParameterError("iid table missing p= line")
        return CodeTable.iid(L, k, p_single)
    WordSpec(L)  # before L sizes a list
    if sorted(p_lines) != list(range(L)):
        raise ParameterError(f"perbit table needs p_0..p_{L - 1} lines")
    return CodeTable.perbit(L, k, [p_lines[i] for i in range(L)])


def load_table(path) -> CodeTable:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_table(fh.read())


# ---------------------------------------------------------------------------
# Constraint evaluation


def constraint_lhs(placements: Iterable[int], p_vec: Sequence[float], L: int | None = None) -> float:
    """Total probability of the given masks under independent per-bit errors.

    Each mask contributes prod_i p_i**e_i (1-p_i)**(1-e_i).  Evaluated
    with vectorized products and a pairwise-summed reduction, which keeps
    the absolute error well under 1e-12 for L <= 24 (the total never
    exceeds 1).
    """
    p = np.asarray(p_vec, dtype=np.float64)
    if L is None:
        L = len(p)
    masks = np.fromiter((int(e) for e in placements), dtype=np.int64)
    if masks.size == 0:
        return 0.0
    terms = np.ones(masks.size, dtype=np.float64)
    for i in range(L):
        bit = (masks >> i) & 1
        terms *= np.where(bit == 1, p[i], 1.0 - p[i])
    return float(np.sum(terms))


# Unit round-off of float64.
_U = 2.0**-53

# The iid walk stops on an interval narrower than this fraction of its
# right end, so p and first_infeasible_p agree to about six digits.
_IID_REL_WIDTH = 1e-6


class _Rows:
    """The nonempty S_m of c's (L, k) as rows: m ascending, F(m), and the row index of every (m, mask) pair.

    The pairs come from setgen.sets_fast, sorted by m, so each S_m is one
    run of pairs.  A row is evaluated from its own masks: each distinct
    mask's product is taken once and summed into every row that holds it.
    """

    def __init__(self, c: TailConstraint) -> None:
        sets = setgen.sets_fast(c.L, c.k)
        first = np.ones(sets.ms.size, dtype=bool)
        np.not_equal(sets.ms[1:], sets.ms[:-1], out=first[1:])
        self.L = c.L
        self.masks = sets.masks
        self.keys = sets.ms[first]
        self.bounds = c.bounds_at(self.keys)
        self.index = np.cumsum(first) - 1
        distinct, self._distinct_index = np.unique(self.masks, return_inverse=True)
        self._bits = ((distinct >> np.arange(c.L)[:, None]) & 1).astype(bool)  # L x distinct masks
        # A row's lhs sums n_m products of L factors: at most L roundings of
        # 1 - p_i, L - 1 of products and n_m - 1 of sums, so it lies within
        # gamma_n * lhs of the exact value for n = 2L + n_m, gamma_n =
        # n*u / (1 - n*u), u = 2**-53 (Higham, Accuracy and Stability of
        # Numerical Algorithms, 2nd ed., 3.1 and 4.2); F - lhs adds u * F.
        n = 2 * c.L + np.bincount(self.index)
        self._gamma = n * _U / (1.0 - n * _U)

    def lhs(self, p_vec: Sequence[float]) -> np.ndarray:
        """Placement mass of every row under independent per-bit errors.

        Each mask's factors p_i or 1 - p_i are multiplied from bit 0 up, the
        order of _kernels.mask_probabilities, so every product is that
        table's entry bit for bit; each row sums its products in pair order.
        """
        p = np.asarray(p_vec, dtype=np.float64)[:, None]
        probs = np.multiply.reduce(np.where(self._bits, p, 1.0 - p), axis=0)
        return np.bincount(self.index, weights=probs[self._distinct_index])

    def allowance(self, lhs: np.ndarray) -> np.ndarray:
        """The most that round-off can take from each row's computed margin F(m) - lhs(m)."""
        return self._gamma * lhs + _U * self.bounds

    def margins(self, p_vec: Sequence[float]) -> tuple[dict[int, float], bool]:
        """Every row's margin F(m) - lhs(m), and whether none is below minus its allowance."""
        lhs = self.lhs(p_vec)
        margins = self.bounds - lhs
        passed = bool((margins >= -self.allowance(lhs)).all())
        return dict(zip(self.keys.tolist(), margins.tolist())), passed

    def checked_margins(self, p_vec: Sequence[float]) -> dict[int, float]:
        """The margins of a solver's own table, which must pass as verify_table passes them."""
        margins, passed = self.margins(p_vec)
        if not passed:
            m = min(margins, key=margins.get)
            raise InfeasibleConstraintError(
                f"solver output failed re-verification: worst margin m={m}: {margins[m]!r}"
            )
        return margins

    def limit(self, p: np.ndarray, i: int) -> tuple[float, int | None]:
        """Largest feasible p_i with the other coordinates of p fixed, and the m that sets it.

        Every row is affine in p_i, a + p_i * slope with a = lhs(p_i = 0) and
        slope = lhs(p_i = 1) - a, so only the rows with a positive slope bound
        p_i from above, at (F_m - a_m) / slope_m.  Returns (1.0, None) when
        no m binds before the domain boundary.
        """
        trial = p.copy()
        trial[i] = 0.0
        a = self.lhs(trial)
        trial[i] = 1.0
        slope = self.lhs(trial) - a
        rising = np.flatnonzero(slope > 0.0)
        if rising.size == 0:
            return 1.0, None
        limits = (self.bounds[rising] - a[rising]) / slope[rising]
        j = int(np.argmin(limits))
        if limits[j] >= 1.0:
            return 1.0, None
        return float(limits[j]), int(self.keys[rising[j]])

    def iid_walk(self) -> tuple[float, float | None]:
        """solve_iid's Bernstein walk: p and first_infeasible_p (None when all of [0, 1] is certified)."""
        width = self.L + 1
        cells = self.index * width + np.bitwise_count(self.masks)
        profile = np.bincount(cells, minlength=self.keys.size * width).reshape(-1, width)
        # Coefficients c on [a, b] are c @ left on [a, mid] and c @ right on
        # [mid, b]: left-half coefficient i is sum_j C(i, j) c_j / 2**i, and
        # the right half mirrors it.
        pascal = np.array([[math.comb(i, j) for j in range(width)] for i in range(width)], dtype=np.float64)
        left = (pascal / 2.0 ** np.arange(width)[:, None]).T
        right = left[::-1, ::-1]

        # Each stack entry is an interval with its parent's coefficients and
        # the halving matrix that maps them onto it; the top is leftmost.
        coeffs = profile / pascal[-1] - self.bounds[:, None]
        stack = [(0.5, 1.0, coeffs, right), (0.0, 0.5, coeffs, left)]
        while stack:
            a, b, parent, half = stack.pop()
            coeffs = parent @ half
            coeffs = coeffs[(coeffs > 0.0).any(axis=1)]
            if not len(coeffs):
                continue
            # Only a row with c_0 = (its value at a) >= 0 can have a positive first nonzero coefficient.
            if b - a <= _IID_REL_WIDTH * b or (
                coeffs[:, 0].max() >= 0.0
                and (coeffs[np.arange(len(coeffs)), (coeffs != 0.0).argmax(axis=1)] > 0.0).any()
            ):
                return a, b
            mid = (a + b) / 2.0
            stack += [(mid, b, coeffs, right), (a, mid, coeffs, left)]
        return 1.0, None


# ---------------------------------------------------------------------------
# Solvers


def solve_iid(c: TailConstraint) -> CodeTable:
    """Largest single error probability on the feasible interval at p=0.

    With all p_i equal, S_m's mass minus F(m) is a polynomial of degree L
    in p whose Bernstein coefficients on [0, 1] are n_mw / C(L, w) - F(m),
    n_mw counting the weight-w masks of S_m.  A row whose coefficients on
    an interval are all <= 0 stays within F(m) there (the convex-hull
    property), and de Casteljau halving gives the coefficients on each
    half (Lane & Riesenfeld, "Bounds on a polynomial", BIT 21, 1981).  The
    solver walks [0, 1] from the left, halving each interval on which some
    row is not certified, until it reaches an interval [a, b] where either
    some row's first nonzero coefficient is positive, so that the row
    exceeds F(m) just right of a and a is the answer exactly, or
    b - a <= 1e-6 * b.  It returns p = a, every row certified on [0, p],
    with b as metadata["first_infeasible_p"]: within 1e-6 of p,
    relatively, unless p is exact.  If the walk certifies all of [0, 1],
    p is exactly 1 and first_infeasible_p is None.  The returned table is
    re-verified by direct constraint evaluation.
    """
    rows = _Rows(c)
    p, first_infeasible = rows.iid_walk()
    metadata = {"first_infeasible_p": first_infeasible, "margins": rows.checked_margins((p,) * c.L)}
    return CodeTable.iid(c.L, c.k, p, metadata)


def solve_perbit(c: TailConstraint) -> CodeTable:
    """Coordinate-ascent maximization of the per-bit probabilities.

    Starts from solve_iid's p, walked on its own rows (_Rows.iid_walk),
    and repeatedly maximizes one p_i with the rest held fixed, sweeping i
    from the most significant bit down, until a full sweep moves no
    coordinate by more than PERBIT_TOL (1e-4) or MAX_SWEEPS (200) sweeps
    have run; it takes no options.  With all other coordinates fixed
    every constraint is affine in p_i, so each step is exact: two row
    evaluations, at p_i = 0 and p_i = 1, give every m's intercept and
    slope (see _Rows.limit), and p_i rises to the
    smallest (F_m - a_m) / slope_m over the m with a positive slope, or
    to 1 when none binds sooner.  The metadata holds "sweeps", the
    margins it re-verified, a local-maximality "certificate" (each p_i is
    1 or becomes infeasible within 4 * PERBIT_TOL) and, per bit, the m
    that blocks it at the returned point ("binding", None at the domain
    boundary).  Which local maximum is reached depends on the sweep order
    and the steps taken on the way.
    """
    rows = _Rows(c)
    p = np.full(c.L, rows.iid_walk()[0], dtype=np.float64)
    for sweeps in range(1, MAX_SWEEPS + 1):
        largest_move = 0.0
        for i in range(c.L - 1, -1, -1):
            # Round-off can put the limit a hair below the current value.
            limit = max(p[i], rows.limit(p, i)[0])
            largest_move = max(largest_move, limit - p[i])
            p[i] = limit
        if largest_move <= PERBIT_TOL:
            break

    certificate, binding = [], []
    for i in range(c.L):
        if p[i] >= 1.0:
            certificate.append("at-domain-boundary")
            binding.append(None)
            continue
        # Every row is affine in p_i, so p_i + 4*PERBIT_TOL breaks a row exactly when it passes the limit.
        limit, m = rows.limit(p, i)
        bump = min(1.0, p[i] + 4.0 * PERBIT_TOL)
        certificate.append("blocked" if bump >= 1.0 or limit < bump else "open")
        binding.append(m)
    p_vec = tuple(float(v) for v in p)
    metadata = {
        "sweeps": sweeps,
        "certificate": tuple(certificate),
        "binding": tuple(binding),
        "margins": rows.checked_margins(p_vec),
    }
    return CodeTable.perbit(c.L, c.k, p_vec, metadata)


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class VerifyReport:
    margins: dict[int, float]
    passed: bool

    @property
    def worst(self) -> float:
        return min(self.margins.values(), default=math.inf)


def verify_table(table: CodeTable, c: TailConstraint) -> VerifyReport:
    """Per-m margins F(m) - lhs(m); passes when no margin is below minus its round-off allowance."""
    if (table.L, table.k) != (c.L, c.k):
        raise ParameterError(f"table is (L={table.L}, k={table.k}) but constraint is (L={c.L}, k={c.k})")
    return VerifyReport(*_Rows(c).margins(table.p_vec))
