"""Code-table solvers: maximal channel error probabilities under a tail bound.

A TailConstraint assigns each distortion m a probability budget F(m).  A
code table is feasible when, for every m, the total probability of the
error placements that can realize m stays within F(m):

    sum over masks e in S_m of  prod_i p_i**e_i (1-p_i)**(1-e_i)  <=  F(m)

The solvers and verify_table evaluate every left-hand side at once: they
read the placement sets' sorted (m, mask) arrays and sum the product
measure over all masks per m with one bincount.  An empty S_m carries no
mass and can never bind, so only the nonempty S_m are constrained, given
margins and reported.

The i.i.d. solver maximizes a single p.  Its constraint polynomials are
not monotone in p (mass can flow back out of S_m as p grows), so the
feasible set along p is generally a union of intervals; it returns the
supremum of the interval attached to p=0, the operating point reached
from the error-free side, by a grid scan and bisection.  The per-bit
solver maximizes p_0..p_{L-1} by coordinate ascent from that point.  With
the other coordinates fixed each constraint is affine in p_i, so each
coordinate step is a closed-form minimum over the rising constraints, and
the m that attains it is the one blocking p_i.  Coordinate ascent finds a
local maximum, and which one depends on the path taken.  constraint_lhs
evaluates one placement set on its own and serves as the independent
oracle for the array evaluation.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import _kernels
from .core import ParameterError, SYMMETRIC, WordSpec, distortion_range, format_lines, reject_repeat
from .setgen import PlacementSets

CONSTRAINT_FORMAT = "vdb-constraint-v1"
TABLE_FORMAT = "vdb-table-v1"

MODE_IID = "iid"
MODE_PERBIT = "perbit"

VERIFY_MARGIN = -1e-9


class InfeasibleConstraintError(RuntimeError):
    """No probability satisfies the constraint (requires a negative bound)."""


@dataclass(frozen=True, eq=False)
class TailConstraint:
    """Per-m probability budget over the full distortion range of (L, k).

    F is held once, as the read-only float64 array `bounds` with
    bounds[m - 1] = F(m) for m = 1..m_max (the same m - 1 indexing as the
    Monte Carlo check columns); m_max is its length.
    """

    L: int
    k: int
    bounds: np.ndarray

    def __post_init__(self) -> None:
        _, m_max = distortion_range(WordSpec(self.L, SYMMETRIC), self.k)
        bounds = np.array(self.bounds, dtype=np.float64)
        if bounds.shape != (m_max,):
            raise ParameterError(f"constraint needs F(1)..F({m_max}), got shape {bounds.shape}")
        outside = np.flatnonzero(~((bounds >= 0.0) & (bounds <= 1.0)))
        if outside.size:
            m = int(outside[0]) + 1
            raise ParameterError(f"bound at m={m} is {bounds[m - 1]}, outside [0, 1]")
        bounds.flags.writeable = False
        object.__setattr__(self, "bounds", bounds)

    @property
    def m_max(self) -> int:
        return self.bounds.size

    def bounds_at(self, ms: int | np.ndarray) -> float | np.ndarray:
        """F(m) for every m >= 1 of `ms` (a scalar or an array), each m > m_max taking F(m_max)."""
        return self.bounds[np.minimum(ms, self.m_max) - 1]

    @classmethod
    def from_table(
        cls, L: int, k: int, bounds: Mapping[int, float], *, allow_nonmonotone: bool = False
    ) -> "TailConstraint":
        """F from rows {m: F(m)}, m an int: a gap takes the bound of the nearest row below, 1.0 before the first."""
        _, m_max = distortion_range(WordSpec(L, SYMMETRIC), k)
        stray = next((m for m in bounds if isinstance(m, bool) or not isinstance(m, int)), None)
        if stray is not None:
            raise ParameterError(f"constraint m={stray!r} is not an int")
        ms = np.fromiter(bounds.keys(), dtype=np.int64, count=len(bounds))
        outside = ms[(ms < 1) | (ms > m_max)]
        if outside.size:
            raise ParameterError(f"constraint m={outside[0]} outside [1, {m_max}]")
        values = np.fromiter(bounds.values(), dtype=np.float64, count=len(bounds))
        filled = _step_fill(m_max, ms, values)
        m = None if allow_nonmonotone else _first_rise(filled)
        if m is not None:
            raise ParameterError(
                f"bound increases from m={m} ({filled[m - 1]}) to m={m + 1} ({filled[m]}); "
                "pass allow_nonmonotone to accept"
            )
        return cls(L, k, filled)

    @classmethod
    def reciprocal(cls, L: int, k: int) -> "TailConstraint":
        """The 1/(m+1) budget used throughout the Monte Carlo validation."""
        _, m_max = distortion_range(WordSpec(L, SYMMETRIC), k)
        return cls(L, k, 1.0 / np.arange(2, m_max + 2))


def _step_fill(m_max: int, ms: np.ndarray, values: np.ndarray) -> np.ndarray:
    """F(1)..F(m_max) from rows F(ms) = values, the ms distinct and in [1, m_max].

    A gap takes the value of the nearest row below it, 1.0 before the first row.
    """
    order = np.argsort(ms)
    below = np.searchsorted(ms[order], np.arange(1, m_max + 1), side="right")
    return np.concatenate(([1.0], values[order]))[below]


def _first_rise(bounds: np.ndarray) -> int | None:
    """The first m with F(m+1) > F(m) + 1e-15, or None when F never rises."""
    rises = np.flatnonzero(bounds[1:] > bounds[:-1] + 1e-15)
    return int(rises[0]) + 1 if rises.size else None


def parse_constraint(text: str, *, allow_nonmonotone: bool = False) -> TailConstraint:
    """Parse the vdb-constraint-v1 text format, reporting line numbers.

    After the few header lines, the block of `m,F(m)` rows is read with
    one `np.loadtxt` into int64 m and float64 F(m), and the range, repeat,
    [0, 1] and monotonicity checks run on those arrays; every file that
    `serialize_constraint` writes is read this way.  A block holding `/`,
    `#`, `=` or `"` (fractions, comments, or headers among the rows), and
    any block that `loadtxt` refuses or that fails a check, is parsed line
    by line instead (`_parse_constraint_lines`).  That path is the
    reference: it names the offending line, and it accepts what `loadtxt`
    refuses, such as `1_0`, non-ASCII digits, m beyond int64 and fractions.
    """
    lines = text.splitlines()
    c = _parse_constraint_arrays(lines, allow_nonmonotone)
    return c if c is not None else _parse_constraint_lines(lines, allow_nonmonotone)


def _parse_constraint_arrays(lines: list[str], allow_nonmonotone: bool) -> TailConstraint | None:
    """The constraint from one `np.loadtxt` of its row block; None where the line-by-line parse must run."""
    header: dict[str, int] = {}
    for lineno, line in format_lines(lines, CONSTRAINT_FORMAT):
        key, _, value = line.partition("=")
        if key not in ("L", "k"):
            break
        if key in header:
            return None
        try:
            header[key] = int(value)
        except ValueError:
            return None
    else:
        return None  # no rows
    if len(header) < 2:
        return None
    _, m_max = distortion_range(WordSpec(header["L"], SYMMETRIC), header["k"])
    block = lines[lineno - 1 :]
    joined = "\n".join(block)
    if any(mark in joined for mark in '/#="'):
        return None
    try:
        with warnings.catch_warnings():
            # numpy < 2.3 parses "5.0" as an int with a DeprecationWarning; int() refuses it.
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(
                block, dtype=[("m", np.int64), ("bound", np.float64)], delimiter=",",
                comments=None, ndmin=1,
            )
    except (ValueError, DeprecationWarning):
        return None
    ms, bounds = rows["m"], rows["bound"]
    ascending = np.sort(ms)
    if (
        ascending[0] < 1
        or ascending[-1] > m_max
        or (ascending[1:] == ascending[:-1]).any()
        or not ((bounds >= 0.0) & (bounds <= 1.0)).all()
    ):
        return None
    filled = _step_fill(m_max, ms, bounds)
    if not allow_nonmonotone and _first_rise(filled) is not None:
        return None
    return TailConstraint(header["L"], header["k"], filled)


def _parse_constraint_lines(text_lines: list[str], allow_nonmonotone: bool) -> TailConstraint:
    """The constraint parsed one line at a time, each error naming its line."""
    header: dict[str, int] = {}
    given: dict[int, float] = {}
    lines: dict[str | int, int] = {}  # the line of each header and of each row's m
    m_max = None
    for lineno, line in format_lines(text_lines, CONSTRAINT_FORMAT):
        key, _, value = line.partition("=")
        if key in ("L", "k"):
            reject_repeat(lines, key, lineno, "{}= header")
            try:
                header[key] = int(value)
            except ValueError:
                raise ParameterError(f"line {lineno}: bad header {line!r}") from None
            continue
        if m_max is None:
            if len(header) < 2:
                raise ParameterError(f"line {lineno}: rows before L=/k= headers")
            _, m_max = distortion_range(WordSpec(header["L"], SYMMETRIC), header["k"])
        m_text, _, bound_text = line.partition(",")
        try:
            m = int(m_text)
            bound = _parse_bound(bound_text)
        except (ValueError, ZeroDivisionError):
            raise ParameterError(f"line {lineno}: bad row {line!r}") from None
        reject_repeat(lines, m, lineno, "bound for m={}")
        if not 1 <= m <= m_max:
            raise ParameterError(f"line {lineno}: m={m} outside [1, {m_max}]")
        if not 0.0 <= bound <= 1.0:
            raise ParameterError(f"line {lineno}: bound {bound_text} outside [0, 1]")
        given[m] = bound
    if len(header) < 2:
        raise ParameterError("constraint file missing format/L/k headers")
    c = TailConstraint.from_table(header["L"], header["k"], given, allow_nonmonotone=True)
    m = None if allow_nonmonotone else _first_rise(c.bounds)
    if m is not None:
        # F rises only at a row, and F(m) comes from the nearest row at or below m.
        below = max(r for r in given if r <= m)
        raise ParameterError(
            f"line {lines[m + 1]}: bound at m={m + 1} ({c.bounds[m]}) increases from "
            f"m={below} ({c.bounds[m - 1]}) at line {lines[below]}; pass allow_nonmonotone to accept"
        )
    return c


def _parse_bound(text: str) -> float:
    text = text.strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def serialize_constraint(c: TailConstraint) -> str:
    lines = [f"format={CONSTRAINT_FORMAT}", f"L={c.L}", f"k={c.k}"]
    lines += [f"{m},{b!r}" for m, b in enumerate(c.bounds.tolist(), start=1)]
    return "\n".join(lines) + "\n"


def load_constraint(path, *, allow_nonmonotone: bool = False) -> TailConstraint:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_constraint(fh.read(), allow_nonmonotone=allow_nonmonotone)


# ---------------------------------------------------------------------------
# Code tables


# Coordinate-ascent sweeps solve_perbit makes at most.
MAX_SWEEPS = 200


@dataclass(frozen=True)
class SolverOptions:
    """Bisection tolerance of the solvers and step of the iid grid scan."""

    tol: float = 1e-4
    grid_step: float = 1e-3

    def __post_init__(self) -> None:
        if not 0.0 < self.tol < math.inf:
            raise ParameterError(f"tol must be finite and > 0, got {self.tol}")
        if not 0.0 < self.grid_step <= 1.0:
            raise ParameterError(f"grid_step must be in (0, 1], got {self.grid_step}")


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
        distortion_range(WordSpec(self.L, SYMMETRIC), self.k)
        if len(self.p_vec) != self.L:
            raise ParameterError(f"expected {self.L} probabilities, got {len(self.p_vec)}")
        for i, p in enumerate(self.p_vec):
            if not 0.0 <= p <= 1.0:
                raise ParameterError(f"p_{i}={p} outside [0, 1]")

    @property
    def p(self) -> float:
        if self.mode != MODE_IID:
            raise ParameterError("p is only defined for iid tables")
        return self.p_vec[0]

    @classmethod
    def iid(cls, L: int, k: int, p: float, metadata: dict | None = None) -> "CodeTable":
        return cls(MODE_IID, L, k, (p,) * L, metadata or {})

    @classmethod
    def perbit(cls, L: int, k: int, p_vec: Sequence[float], metadata: dict | None = None) -> "CodeTable":
        return cls(MODE_PERBIT, L, k, tuple(p_vec), metadata or {})


def serialize_table(table: CodeTable, margins: Mapping[int, float] | None = None) -> str:
    lines = [f"format={TABLE_FORMAT}", f"L={table.L}", f"k={table.k}", f"mode={table.mode}"]
    if table.mode == MODE_IID:
        lines.append(f"p={table.p!r}")
    else:
        lines += [f"p_{i}={p!r}" for i, p in enumerate(table.p_vec)]
    for key in ("grid_step", "tol", "sweeps", "first_infeasible_p"):
        if key in table.metadata:
            lines.append(f"# {key}={table.metadata[key]}")
    if margins:
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


def _constraint_index(sets: PlacementSets, c: TailConstraint) -> tuple[np.ndarray, ...]:
    """The m of every nonempty S_m (ascending), F(m) at each, and each row's index among them."""
    if (sets.L, sets.k) != (c.L, c.k):
        raise ParameterError(
            f"placement sets are (L={sets.L}, k={sets.k}) but constraint is (L={c.L}, k={c.k})"
        )
    keys, m_idx = np.unique(sets.ms, return_inverse=True)
    return keys, c.bounds_at(keys), m_idx


def _lhs(sets: PlacementSets, m_idx: np.ndarray, p_vec: Sequence[float]) -> np.ndarray:
    """Placement mass of every nonempty S_m under independent per-bit errors."""
    probs = _kernels.mask_probabilities(np.asarray(p_vec, dtype=np.float64))
    return np.bincount(m_idx, weights=probs[sets.masks])


def _margins(keys: np.ndarray, bounds: np.ndarray, lhs: np.ndarray) -> dict[int, float]:
    return dict(zip(keys.tolist(), (bounds - lhs).tolist()))


def _coordinate_limit(
    sets: PlacementSets, keys: np.ndarray, bounds: np.ndarray, m_idx: np.ndarray, p: np.ndarray, i: int
) -> tuple[float, int | None]:
    """Largest feasible p_i with the other coordinates of p fixed.

    Each left-hand side is affine in p_i: lhs(p_i) = a + p_i * slope,
    with a = lhs(p_i=0) and slope = lhs(p_i=1) - a.  Only the m with a
    positive slope bound p_i from above, at (F_m - a_m) / slope_m.
    Returns the limit and the m that sets it, or (1.0, None) when no
    m binds before the domain boundary.
    """
    trial = p.copy()
    trial[i] = 0.0
    a = _lhs(sets, m_idx, trial)
    trial[i] = 1.0
    slope = _lhs(sets, m_idx, trial) - a
    rising = np.flatnonzero(slope > 0.0)
    if rising.size == 0:
        return 1.0, None
    limits = (bounds[rising] - a[rising]) / slope[rising]
    j = int(np.argmin(limits))
    if limits[j] >= 1.0:
        return 1.0, None
    return float(limits[j]), int(keys[rising[j]])


# Grid points per iid feasibility evaluation: enough to amortize the
# matrix product, small enough that the usual early stop wastes little.
_IID_BLOCK = 32


# ---------------------------------------------------------------------------
# Solvers


def solve_iid(sets: PlacementSets, c: TailConstraint, opts: SolverOptions | None = None) -> CodeTable:
    """Largest single error probability on the feasible interval at p=0.

    With all p_i equal, S_m's mass is sum_w n_mw p**w (1-p)**(L-w), where
    n_mw counts the weight-w masks of S_m.  The grid upward from 0 is
    evaluated against these profiles a block at a time, stopping at the
    block holding the first infeasible point; the bracketing step is then
    bisected down to opts.tol and the feasible end returned.  If the whole
    grid is feasible the answer is exactly 1.  The returned table is
    re-verified by direct constraint evaluation.
    """
    opts = opts or SolverOptions()
    keys, bounds, m_idx = _constraint_index(sets, c)
    # profile[j, w] counts the weight-w masks of S_{keys[j]}.
    width = sets.L + 1
    cells = m_idx * width + np.bitwise_count(sets.masks)
    profile = np.bincount(cells, minlength=keys.size * width).reshape(-1, width).astype(np.float64)
    w = np.arange(width)[:, None]

    def infeasible(ps: np.ndarray) -> np.ndarray:
        basis = ps[None, :] ** w * (1.0 - ps[None, :]) ** (sets.L - w)
        return np.any(profile @ basis > bounds[:, None], axis=0)

    if infeasible(np.zeros(1))[0]:
        raise InfeasibleConstraintError("p=0 violates the constraint (negative bound?)")

    steps = int(math.ceil(1.0 / opts.grid_step))
    grid = np.minimum(np.arange(1, steps + 1) * opts.grid_step, 1.0)
    first = None
    for start in range(0, steps, _IID_BLOCK):
        bad = np.flatnonzero(infeasible(grid[start : start + _IID_BLOCK]))
        if bad.size:
            first = start + int(bad[0])
            break
    metadata = {"grid_step": opts.grid_step, "tol": opts.tol, "solver": "grid+bisect"}
    if first is None:
        p_star = 1.0
        metadata["first_infeasible_p"] = None
    else:
        lo, hi = (float(grid[first - 1]) if first else 0.0), float(grid[first])
        while hi - lo > opts.tol:
            mid = (lo + hi) / 2.0
            if infeasible(np.array([mid]))[0]:
                hi = mid
            else:
                lo = mid
        p_star = lo
        metadata["first_infeasible_p"] = hi
    margins = _margins(keys, bounds, _lhs(sets, m_idx, (p_star,) * sets.L))
    if not _margins_pass(margins):
        raise InfeasibleConstraintError(f"solver output failed re-verification: {margins}")
    metadata["margins"] = margins
    return CodeTable.iid(sets.L, sets.k, p_star, metadata)


def solve_perbit(sets: PlacementSets, c: TailConstraint, opts: SolverOptions | None = None) -> CodeTable:
    """Coordinate-ascent maximization of the per-bit probabilities.

    Starts from the iid solution and repeatedly maximizes one p_i with
    the rest held fixed, sweeping i from the most significant bit down,
    until a full sweep moves no coordinate by more than opts.tol.  With
    all other coordinates fixed every constraint is affine in p_i, so each
    step is exact: two evaluations give every m's intercept and slope, and
    p_i rises to the smallest (F_m - a_m) / slope_m over the m with a
    positive slope, or to 1 when none binds sooner.  The result carries a
    local-maximality certificate (each p_i is 1 or becomes infeasible
    within 4*tol) and, per bit, the m that blocks it at the returned point
    ("binding", None at the domain boundary).  Which local maximum is
    reached depends on the sweep order and the steps taken on the way.
    """
    opts = opts or SolverOptions()
    start = solve_iid(sets, c, opts)
    keys, bounds, m_idx = _constraint_index(sets, c)

    p = np.full(sets.L, start.p, dtype=np.float64)
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        largest_move = 0.0
        for i in range(sets.L - 1, -1, -1):
            # Round-off can put the limit a hair below the current value.
            limit = max(p[i], _coordinate_limit(sets, keys, bounds, m_idx, p, i)[0])
            largest_move = max(largest_move, limit - p[i])
            p[i] = limit
        if largest_move <= opts.tol:
            break

    certificate, binding = [], []
    for i in range(sets.L):
        if p[i] >= 1.0:
            certificate.append("at-domain-boundary")
            binding.append(None)
            continue
        trial = p.copy()
        trial[i] = min(1.0, p[i] + 4.0 * opts.tol)
        blocked = trial[i] >= 1.0 or np.any(_lhs(sets, m_idx, trial) > bounds)
        certificate.append("blocked" if blocked else "open")
        binding.append(_coordinate_limit(sets, keys, bounds, m_idx, p, i)[1])
    p_vec = tuple(float(v) for v in p)
    margins = _margins(keys, bounds, _lhs(sets, m_idx, p_vec))
    if not _margins_pass(margins):
        raise InfeasibleConstraintError(f"solver output failed re-verification: {margins}")
    metadata = {
        "grid_step": opts.grid_step,
        "tol": opts.tol,
        "sweeps": sweeps,
        "solver": "coordinate-ascent",
        "start_p": start.p,
        "certificate": tuple(certificate),
        "binding": tuple(binding),
        "margins": margins,
    }
    return CodeTable.perbit(sets.L, sets.k, p_vec, metadata)


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class VerifyReport:
    margins: dict[int, float]
    passed: bool

    @property
    def worst(self) -> float:
        return min(self.margins.values(), default=math.inf)


def _margins_pass(margins: dict[int, float]) -> bool:
    return all(v >= VERIFY_MARGIN for v in margins.values())


def verify_table(sets: PlacementSets, c: TailConstraint, table: CodeTable) -> VerifyReport:
    """Per-m margins F(m) - lhs(m); passes when none is materially negative."""
    keys, bounds, m_idx = _constraint_index(sets, c)
    if (table.L, table.k) != (sets.L, sets.k):
        raise ParameterError(
            f"table is (L={table.L}, k={table.k}) but sets are (L={sets.L}, k={sets.k})"
        )
    margins = _margins(keys, bounds, _lhs(sets, m_idx, table.p_vec))
    return VerifyReport(margins, _margins_pass(margins))
