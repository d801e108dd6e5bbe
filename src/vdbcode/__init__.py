"""Probabilistic value-deviation-bounded code tables.

Construction of per-distortion error-placement sets, exact combinatorics
and bounds for them, solvers for maximal per-bit channel error
probabilities under a distortion-tail constraint, and Monte Carlo /
exhaustive validation of the resulting code tables.
"""

__version__ = "0.1.0"

from .core import (
    ErrorPlacement,
    ParameterError,
    PlacementInfeasibleError,
    SYMMETRIC,
    WordSpec,
    apply_flip_errors,
    distortion_range,
    hamming_distance,
    integer_distance,
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
    values_at_distance,
)
from .codegen import (
    CodeTable,
    InfeasibleConstraintError,
    SolverOptions,
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
    "ErrorPlacement",
    "InfeasibleConstraintError",
    "ParameterError",
    "PlacementInfeasibleError",
    "PlacementSets",
    "SYMMETRIC",
    "SolverOptions",
    "TailConstraint",
    "UpsetModel",
    "WordSpec",
    "analytic_single_error",
    "apply_flip_errors",
    "bounds_dataset",
    "constraint_lhs",
    "distortion_range",
    "divisibility_report",
    "exact_distortion",
    "hamming_distance",
    "ingest_trace",
    "integer_distance",
    "placement_mass",
    "sets_bruteforce",
    "sets_fast",
    "simulate",
    "solve_iid",
    "solve_perbit",
    "tail_of",
    "values_at_distance",
    "verify_table",
    "y_star",
    "z_bound_loose",
    "z_bound_tight",
    "z_exact",
]
