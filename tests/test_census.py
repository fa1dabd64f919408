"""Census totals against exhaustive ideal counts over small fields."""

import itertools
import random
import time
from collections import Counter

import pytest

from hbcells import census, generic_cells, groebner, poly
from hbcells.census import (BRUTE_FORCE_POINT_LIMIT, CENSUS_STAIRCASE_LIMIT,
                            brute_force_ideal_count, cell_census)
from hbcells.errors import DomainError
from hbcells.field import GF
from hbcells.generic_cells import generic_family, instantiate
from hbcells.groebner import _pairs_of, is_groebner_basis, normal_form, s_polynomial
from hbcells.hilbert_burch import CellKind
from hbcells.poly import _Packing, _reducers, _top, _widening
from hbcells.staircase import enumerate_staircases


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


def test_staircase_count_is_the_partition_number():
    assert [census._staircase_count(d, 10**9) for d in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert all(census._staircase_count(d, 10**9) == len(enumerate_staircases(d))
               for d in range(1, 21))
    assert census._staircase_count(100, 10**9) == 190_569_292
    # the recurrence stops at the first count over the cap
    assert census._staircase_count(10**12, CENSUS_STAIRCASE_LIMIT) == 10_143


def test_census_refuses_a_colength_over_the_staircase_budget(monkeypatch):
    enumerated = []
    monkeypatch.setattr(census, "enumerate_staircases", lambda d: enumerated.append(d) or [])
    start = time.perf_counter()
    for d in (33, 100, 10**12):
        with pytest.raises(DomainError, match=r"colength \d+ has 10143 staircases or more, "
                                              r"over the budget of 10000"):
            cell_census(d)
    assert time.perf_counter() - start < 1 and enumerated == []


def test_census_runs_the_largest_colength_within_the_budget():
    c = cell_census(32)
    assert len(c.records) == sum(c.total.values()) == 8_349 <= CENSUS_STAIRCASE_LIMIT
    assert c.total_string().startswith("q^64 + q^63 + 2*q^62")


def test_brute_force_trivial_count():
    assert brute_force_ideal_count(1, 2) == 4  # the points of the affine plane


@pytest.mark.parametrize("d,q", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_brute_force_matches_census(d, q):
    assert brute_force_ideal_count(d, q) == cell_census(d).evaluate(q)


@pytest.mark.parametrize("q,count", [(3, 1053), (4, 5376), (5, 19375)])
def test_brute_force_matches_census_at_colength_3(q, count):
    # (3, 5) has 406,875 points, the most the point budget lets through
    assert brute_force_ideal_count(3, q) == cell_census(3).evaluate(q) == count


def test_brute_force_matches_census_gf4():
    assert brute_force_ideal_count(1, 4) == 16
    assert brute_force_ideal_count(2, 4) == cell_census(2).evaluate(4) == 320


@pytest.mark.parametrize("d,q", [(4, 2), (4, 3), (5, 2)])
def test_the_walk_counts_the_census_past_the_refusal(d, q):
    # _accepted, summed over the staircases as brute_force_ideal_count sums it,
    # called directly where that refuses d > 3
    negs = [-v for v in GF(q).elements()]
    count = 0
    for E in enumerate_staircases(d):
        standard = E.standard_monomials()
        members = [(lead, generic_cells._support(lead, standard))
                   for lead in E.generators(minimal=True)]
        leads = [lead for lead, _ in members]
        pairs = _pairs_of(leads)
        count += _widening(lambda P: census._accepted(members, pairs, negs, P),
                           2, max(map(max, leads)))
    assert count == cell_census(d).evaluate(q)


def test_brute_force_refuses_large_colength():
    with pytest.raises(DomainError, match="colength"):
        brute_force_ideal_count(4, 2)


@pytest.mark.parametrize("d,q", [(d, q) for d in (1, 2) for q in (2, 3, 4, 5)] + [(3, 2), (3, 3)])
def test_brute_force_matches_the_literal_criterion_per_staircase(d, q, monkeypatch):
    # the product of the option tables gives, point by point and in order, the
    # packed reducers of the instantiated family, at the width chosen for them,
    # and each staircase counts what is_groebner_basis accepts
    field = GF(q)
    elems = field.elements()
    negs = [-v for v in elems]
    for E in enumerate_staircases(d):
        family = generic_family(E.generators(minimal=True), 2, graded=False)
        values = list(itertools.product(elems, repeat=family.nparams))
        widths = {_widening(lambda P: P.width, 2, _top(instantiate(family, v, field)))
                  for v in values}
        assert len(widths) == 1, E
        P = _Packing(2, widths.pop())
        members = [(lead, [m for m, _ in support]) for lead, support in family.members]
        assert list(itertools.product(*census._tables(members, negs, P))) == [
            tuple(_reducers(P, instantiate(family, v, field))) for v in values]
        built = []
        tables_of = census._tables
        monkeypatch.setattr(census, "_tables", lambda ms, ns, P: built.append(P.width)
                            or tables_of(ms, ns, P))
        monkeypatch.setattr(census, "enumerate_staircases", lambda d, E=E: [E])
        assert brute_force_ideal_count(d, q) == sum(
            is_groebner_basis(instantiate(family, v, field)) for v in values), E
        assert built == [P.width]
        monkeypatch.undo()


def test_brute_force_builds_no_generic_family_and_scans_no_monomial_ideal(monkeypatch):
    # the census members are read off the staircase, so neither the generic
    # family nor a monomial ideal's standard monomials are reached
    expected = {(d, q): cell_census(d).evaluate(q) for d in (1, 2, 3) for q in (2, 3)}

    def refuse(*args, **kwargs):
        raise AssertionError("reached")

    monkeypatch.setattr(groebner.MonomialIdeal, "standard_monomials", refuse)
    monkeypatch.setattr(generic_cells, "generic_family", refuse)
    for (d, q), count in expected.items():
        assert brute_force_ideal_count(d, q) == count, (d, q)


@pytest.mark.parametrize("q", [2, 3])
def test_a_pair_reduces_by_the_suffix_of_its_lower_member(q):
    # member f_i has lead x^(t-i) y^(m_i), so no term of the S-pair of (i, j),
    # i < j, nor of its reduction, is divisible by the lead of f_0..f_(i-1):
    # the suffix f_i..f_t leaves the same remainder as the whole basis
    field = GF(q)
    rng = random.Random(q)
    nonzero = Counter()
    for d in range(1, 7):
        for E in enumerate_staircases(d):
            family = generic_family(E.generators(minimal=True), 2, graded=False)
            pairs = _pairs_of([lead for lead, _ in family.members])
            assert all(i < j for _, i, j in pairs), E
            for _ in range(40):
                values = [rng.choice(field.elements()) for _ in range(family.nparams)]
                gs = instantiate(family, values, field)
                for L, i, j in pairs:
                    assert L == tuple(map(max, gs[i].lt, gs[j].lt))
                    spoly = s_polynomial(gs[i], gs[j])
                    full = normal_form(spoly, gs)
                    assert normal_form(spoly, gs[i:]) == full, (E, values, i, j)
                    nonzero[bool(full)] += 1
    assert nonzero[True] > 500 and nonzero[False] > 20, nonzero


def test_brute_force_point_budget(monkeypatch):
    def points(d, q):
        return sum(q ** generic_family(E.generators(minimal=True), 2, graded=False).nparams
                   for E in enumerate_staircases(d))

    assert points(3, 5) == 406_875 <= BRUTE_FORCE_POINT_LIMIT < points(3, 7) == 5_884_851
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"5884851 points.*census\.BRUTE_FORCE_POINT_LIMIT"):
        brute_force_ideal_count(3, 7)
    with pytest.raises(DomainError, match="4611686014132420609 points"):
        brute_force_ideal_count(1, 2147483647)  # q^2 points: refused, not enumerated
    assert time.perf_counter() - start < 5
    # checked before any option table is built; a count equal to the budget runs
    # and builds only the tables the walk reads: none at colength 2, where no
    # staircase has a pair, and the three of (x^2, xy, y^2) at colength 3
    built = []
    tables_of = census._tables

    def spy(*args):
        tables = tables_of(*args)
        built.extend(map(len, tables))
        return tables

    monkeypatch.setattr(census, "_tables", spy)
    for d, count in ((2, 24), (3, 336)):
        assert points(d, 2) == count
        monkeypatch.setattr(census, "BRUTE_FORCE_POINT_LIMIT", count - 1)
        with pytest.raises(DomainError, match=f"{count} points"):
            brute_force_ideal_count(d, 2)
        assert built == []
    monkeypatch.setattr(census, "BRUTE_FORCE_POINT_LIMIT", 24)
    assert brute_force_ideal_count(2, 2) == 24 and built == []
    monkeypatch.setattr(census, "BRUTE_FORCE_POINT_LIMIT", 336)
    assert brute_force_ideal_count(3, 2) == cell_census(3).evaluate(2) == 112
    assert built == [8, 8, 4]


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


@pytest.mark.parametrize("q", [2, 3])
def test_an_overflow_mid_walk_counts_again_at_twice_the_width(q, monkeypatch):
    # from the narrowest width that fits the leads, the third criterion check
    # reports an overflow, as an exponent past its field would: the walk
    # restarts at twice the width and none of its partial count is kept
    widths, checks = [], []
    tables_of, holds = census._tables, census._criterion_holds

    def check(s, pairs, guard):
        checks.append(guard)
        if len(checks) == 3:
            raise poly._Overflow
        return holds(s, pairs, guard)

    monkeypatch.setattr(poly, "_start_width", lambda top: top.bit_length() + 1)
    monkeypatch.setattr(census, "_tables",
                        lambda ms, negs, P: widths.append(P.width) or tables_of(ms, negs, P))
    monkeypatch.setattr(census, "_criterion_holds", check)
    assert brute_force_ideal_count(3, q) == cell_census(3).evaluate(q)
    # three staircases, whose largest exponents 3, 2 and 3 fit in 2 bits and a
    # guard; the second makes the third check and runs again with 6-bit fields
    assert widths == [3, 3, 6, 3]
