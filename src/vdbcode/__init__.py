"""Probabilistic value-deviation-bounded code tables.

Construction of per-distortion error-placement sets, exact combinatorics
and bounds for them, solvers for maximal per-bit channel error
probabilities under a distortion-tail constraint, and Monte Carlo /
exhaustive validation of the resulting code tables.
"""

__version__ = "0.1.0"

from .core import (
    ParameterError,
    SYMMETRIC,
    WordSpec,
    distortion_range,
)
from .combinatorics import (
    bounds_dataset,
    divisibility_report,
    y_star,
    z_bound_loose,
    z_bound_tight,
    z_exact,
)
from .setgen import (
    PlacementSets,
    sets_bruteforce,
    sets_fast,
)
from .codegen import (
    CodeTable,
    InfeasibleConstraintError,
    TailConstraint,
    constraint_lhs,
    solve_iid,
    solve_perbit,
    verify_table,
)
from .channel_sim import (
    DistortionDistribution,
    EmpiricalPMF,
    UpsetModel,
    analytic_single_error,
    exact_distortion,
    ingest_trace,
    placement_mass,
    simulate,
    tail_of,
)

__all__ = [
    "CodeTable",
    "DistortionDistribution",
    "EmpiricalPMF",
    "InfeasibleConstraintError",
    "ParameterError",
    "PlacementSets",
    "SYMMETRIC",
    "TailConstraint",
    "UpsetModel",
    "WordSpec",
    "analytic_single_error",
    "bounds_dataset",
    "constraint_lhs",
    "distortion_range",
    "divisibility_report",
    "exact_distortion",
    "ingest_trace",
    "placement_mass",
    "sets_bruteforce",
    "sets_fast",
    "simulate",
    "solve_iid",
    "solve_perbit",
    "tail_of",
    "verify_table",
    "y_star",
    "z_bound_loose",
    "z_bound_tight",
    "z_exact",
]
