import math
from statistics import NormalDist

import pytest

from vdbcode import TailConstraint, sets_fast

# Worked L=3, k=2 example used across the solver and CLI tests.
EXAMPLE_BOUNDS = {1: 22 / 30, 2: 14 / 30, 3: 6 / 30, 4: 4 / 30, 5: 2 / 30, 6: 2 / 30}

EXAMPLE_CONSTRAINT_TEXT = """\
format=vdb-constraint-v1
L=3
k=2
1,22/30
2,14/30
3,6/30
4,4/30
5,2/30
6,2/30
"""

RECIPROCAL_CONSTRAINT_TEXT = """\
format=vdb-constraint-v1
L=3
k=3
1,1/2
2,1/3
3,1/4
4,1/5
5,1/6
6,1/7
7,1/8
"""


@pytest.fixture(scope="session")
def example_constraint():
    return TailConstraint.from_table(3, 2, EXAMPLE_BOUNDS)


@pytest.fixture(scope="session")
def example_sets():
    return sets_fast(3, 2)


@pytest.fixture(scope="session")
def reciprocal_constraint():
    return TailConstraint.reciprocal(3, 3)


# Calibrated comparison of a simulated law with an exact one.  Values the
# simulation should hit fewer than MIN_EXPECTED_HITS times are pooled into
# one bin, so the normal approximation holds; the z of every bin a test
# checks is Sidak-corrected for that test's whole family of bins.
MIN_EXPECTED_HITS = 20
FAMILY_ALPHA = 1e-6


def law_bins(simulated, exact, trials):
    """(simulated mass, exact mass) bins; fails if a simulated value is impossible."""
    impossible = sorted(m for m, s in simulated.items() if s and not exact.get(m, 0.0))
    assert not impossible, f"simulated values with exact mass 0: {impossible[:10]}"
    bins, pooled_sim, pooled_exact = [], 0.0, 0.0
    for m, f in exact.items():
        if f * trials >= MIN_EXPECTED_HITS:
            bins.append((simulated.get(m, 0.0), f))
        else:
            pooled_sim += simulated.get(m, 0.0)
            pooled_exact += f
    if pooled_exact:
        bins.append((pooled_sim, pooled_exact))
    return bins


def sidak_z(n_bins):
    """Two-sided z for n_bins checks at family-wise level FAMILY_ALPHA, never below 4."""
    per_bin = -math.expm1(math.log1p(-FAMILY_ALPHA) / n_bins)
    return max(4.0, NormalDist().inv_cdf(1.0 - per_bin / 2.0))


def bin_sigmas(bins, trials):
    """|simulated - exact| of each bin in binomial standard deviations."""
    out = []
    for s, f in bins:
        sd = math.sqrt(f * (1.0 - f) / trials)
        out.append(abs(s - f) / sd if sd else (0.0 if s == f else math.inf))
    return out
