"""Census totals against exhaustive ideal counts over small fields."""

from collections import Counter

import pytest

from hbcells.census import brute_force_ideal_count, cell_census
from hbcells.errors import DomainError
from hbcells.hilbert_burch import CellKind


def test_census_d1():
    c = cell_census(1)
    assert len(c.records) == 1
    assert c.total_string() == "q^2"
    assert c.evaluate(2) == 4


def test_census_d2():
    c = cell_census(2)
    assert c.total_string() == "q^4 + q^3"
    assert c.evaluate(2) == 24


def test_census_d3_has_partition_many_cells():
    c = cell_census(3)
    assert len(c.records) == 3
    assert c.evaluate(2) == sum(2 ** dims[list(dims)[0]] for _, dims in c.records)


def test_census_json():
    data = cell_census(2).to_json()
    assert data["total"] == "q^4 + q^3"
    assert [cell["m"] for cell in data["cells"]] == [[0, 1, 1], [0, 2]]
    assert data["cells"][1]["dims"] == {"V0": 4, "V1": 2, "V2": 1, "V3": 1}


def test_brute_force_trivial_count():
    assert brute_force_ideal_count(1, 2) == 4  # the points of the affine plane


@pytest.mark.parametrize("d,q", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_brute_force_matches_census(d, q):
    assert brute_force_ideal_count(d, q) == cell_census(d).evaluate(q)


def test_brute_force_matches_census_gf4():
    assert brute_force_ideal_count(1, 4) == 16
    assert brute_force_ideal_count(2, 4) == cell_census(2).evaluate(4) == 320


def test_brute_force_refuses_large_colength():
    with pytest.raises(DomainError, match="colength"):
        brute_force_ideal_count(4, 2)


def _euler_product(shift, top):
    """z^0..z^top of prod_(k>=1) 1/(1 - q^(k+shift) z^k), as {q-exponent: count}."""
    series = [Counter({0: 1})] + [Counter() for _ in range(top)]
    for k in range(1, top + 1):
        # times 1/(1 - u z^k): s_j += u s_(j-k), ascending in j
        for j in range(k, top + 1):
            for e, c in series[j - k].items():
                series[j][e + k + shift] += c
    return series


@pytest.mark.parametrize("kind,shift", [
    (CellKind.V0, 1),    # all ideals
    (CellKind.V1, 0),    # support on the line y = 0
    (CellKind.V2, -1),   # punctual: support at the origin
])
def test_census_matches_ellingsrud_stromme(kind, shift):
    # Ellingsrud-Stroemme: sum_d sum_E q^dim V(E) z^d is an Euler product
    top = 16
    series = _euler_product(shift, top)
    for d in range(1, top + 1):
        assert Counter(dims[kind] for _, dims in cell_census(d).records) == series[d], d
