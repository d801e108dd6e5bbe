import csv
import math
from pathlib import Path

import numpy as np
import pytest

from vdbcode import (
    ParameterError,
    bounds_dataset,
    divisibility_report,
    y_star,
    z_bound_loose,
    z_bound_tight,
    z_exact,
)
from vdbcode.combinatorics import (
    BOUNDS_CSV_HEADER,
    write_bounds_csv,
    z_exact_table,
)
from vdbcode.setgen import sets_bruteforce

DATA = Path(__file__).parent / "data"


def pair_oracle(L, k):
    """Independent ordered-pair count, no shared code with the package."""
    counts = {}
    for x in range(1 << L):
        for y in range(1 << L):
            if bin(x ^ y).count("1") == k:
                m = abs(x - y)
                counts[m] = counts.get(m, 0) + 1
    return counts


def test_z_exact_small_examples():
    assert z_exact(3, 1, 1) == 8
    assert z_exact(3, 1, 3) == 0
    assert z_exact(8, 3, 1) == 64


def test_z_exact_against_golden_table():
    with open(DATA / "z_exact_L8_k3.csv") as fh:
        golden = {int(row["m"]): int(row["count"]) for row in csv.DictReader(fh)}
    z = z_exact_table(8, 3)
    assert z.size == max(golden) + 1 and z[0] == 0
    assert {m: int(z[m]) for m in range(1, z.size)} == golden


@pytest.mark.parametrize("L,k", [(4, 1), (4, 2), (5, 3), (6, 2)])
def test_z_exact_matches_pair_oracle(L, k):
    oracle = pair_oracle(L, k)
    z = z_exact_table(L, k)
    for m, count in enumerate(z.tolist()):
        assert count == oracle.get(m, 0)
    assert sum(oracle.values()) == z.sum()


def test_z_exact_parameter_errors():
    with pytest.raises(ParameterError):
        z_exact(3, 0, 1)
    with pytest.raises(ParameterError):
        z_exact(3, 2, 7)  # m_max is 6
    with pytest.raises(ParameterError):
        z_exact(3, 2, 0)


def test_z_bound_loose_examples():
    assert z_bound_loose(8, 1) == 510
    assert z_bound_loose(3, 6) == 4
    assert z_bound_loose(8, 256) == 0


def test_z_bound_tight_examples():
    assert z_bound_tight(3, 1, 1) == 8
    assert z_bound_tight(8, 3, 1) == 448
    assert z_bound_tight(8, 4, 1) == 480


def test_y_star_examples():
    assert y_star(3, 2, 1) == 2
    assert y_star(3, 2, 4) == 1
    assert y_star(3, 3, 1) == 3


def test_y_star_cardinalities_l3k2():
    assert [y_star(3, 2, m) for m in range(1, 7)] == [2, 2, 2, 1, 1, 1]


def test_y_star_matches_bruteforce_sets_wide_word():
    sizes = sets_bruteforce(16, 3).cardinalities()
    m_max = 2**13 * 7
    assert [y_star(16, 3, m) for m in range(1, m_max + 1)] == [
        sizes.get(m, 0) for m in range(1, m_max + 1)
    ]
    assert z_exact_table(12, 3).sum() == math.comb(12, 3) * 2**12


@pytest.mark.parametrize("L", range(1, 8))
def test_y_star_bounded_by_mask_count(L):
    for k in range(1, L + 1):
        total = sum(math.comb(L, j) for j in range(1, k + 1))
        m_max = 2 ** (L - k) * (2**k - 1)
        for m in range(1, m_max + 1):
            assert y_star(L, k, m) <= total


@pytest.mark.parametrize("L", range(1, 9))
def test_bound_ordering_and_sum(L):
    for k in range(1, L + 1):
        z = z_exact_table(L, k)
        for m in range(1, z.size):
            assert z[m] <= z_bound_tight(L, k, m) <= z_bound_loose(L, m)
            assert z[m] % 2 == 0  # ordered pairs come in mirror twos
        assert z.sum() == (1 << L) * math.comb(L, k)


@pytest.mark.parametrize("L", range(1, 9))
def test_divisibility_no_violations_small(L):
    for k in range(1, L + 1):
        report = divisibility_report(L, k)
        assert report.clean, report.violations


def test_divisibility_violations_l3k1():
    report = divisibility_report(3, 1)
    assert report.violations == ()
    # every nonzero count is a multiple of 2**(L-k+1) = 8
    z = z_exact_table(3, 1)
    for m in range(1, z.size):
        if z[m]:
            assert z[m] % 8 == 0


def test_divisibility_l1k1():
    assert z_exact(1, 1, 1) == 2
    assert divisibility_report(1, 1).violations == ()
    # the one count is a multiple of 2**(L-k+1) = 2, not a 0 or 1
    assert z_exact_table(1, 1).tolist() == [0, 2]


def test_z_exact_table_is_read_only():
    z = z_exact_table(8, 3)
    with pytest.raises(ValueError):
        z[1] = 0
    assert not z.flags.writeable
    assert z.dtype == np.int64


def test_bounds_dataset_row_count():
    assert len(bounds_dataset(3, 2)) == 6
    rows = bounds_dataset(8, 3)
    assert len(rows) == 224
    assert all(r.z_exact <= r.z_tight <= r.z_loose for r in rows)


@pytest.mark.parametrize("L,k", [(1, 1), (5, 2), (8, 3), (10, 10)])
def test_bounds_dataset_matches_scalar_bounds(L, k):
    rows = bounds_dataset(L, k)
    assert [r.m for r in rows] == list(range(1, 2 ** (L - k) * (2**k - 1) + 1))
    for r in rows:
        assert (r.z_exact, r.z_tight, r.z_loose) == (
            z_exact(L, k, r.m), z_bound_tight(L, k, r.m), z_bound_loose(L, r.m)
        )
        assert all(type(v) is int for v in (r.m, r.z_exact, r.z_tight, r.z_loose))


def test_bounds_csv_output(tmp_path):
    path = tmp_path / "bounds.csv"
    write_bounds_csv(bounds_dataset(3, 2), path)
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert tuple(header) == BOUNDS_CSV_HEADER
    assert rows[0] == ["1", "4", "12", "14"]
    assert rows[-1] == ["6", "4", "4", "4"]
    assert len(rows) == 6
