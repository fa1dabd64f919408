"""Buchberger engine: S-polynomials, reduction, reduced bases, oracles."""

import collections
import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from hbcells import census, groebner, poly
from hbcells.errors import DomainError
from hbcells.field import GF, QQ
from hbcells.generic_cells import generic_family, instantiate
from hbcells.groebner import (MonomialIdeal, buchberger_reduced, colength,
                              graded_beta0_profile, graded_minimal_generators, is_groebner_basis,
                              leading_term_ideal, normal_form, reduce,
                              s_polynomial)
from hbcells.hilbert_burch import (CellKind, canonical_matrix, cell_kinds_of_ideal,
                                   cell_matrix_from_parameters, minors_ideal,
                                   random_cell_matrix, slot_set, validate_cell_matrix)
from hbcells.linalg import echelon_insert
from hbcells.poly import (Polynomial, exact_quotient, mono_divides, mono_lcm, mono_mul,
                          monomials_of_degree, parse_polynomial)
from hbcells.staircase import Staircase, enumerate_staircases, staircase_from_monomial_ideal

import tuple_kernel
from tuple_kernel import mono_div


def P(text, field=QQ):
    return parse_polynomial(text, ("x", "y"), field)


# -- S-polynomials ----------------------------------------------------------

def test_spoly_hand_expansion():
    s = s_polynomial(P("x - y"), P("y^2"))
    assert s == P("-y^3")


def test_spoly_identical():
    assert s_polynomial(P("x^2 + y"), P("x^2 + y")).is_zero


def test_spoly_coprime_monomials():
    assert s_polynomial(P("x^2"), P("y^2")).is_zero


def test_spoly_zero_input():
    with pytest.raises(ValueError):
        s_polynomial(Polynomial.zero(QQ, 2), P("x"))


def _mul_term(f, mono, c):
    """f times the single nonzero term c * x^mono."""
    return Polynomial._raw(f.field, f.nvars,
                           tuple((mono_mul(m, mono), c * cc) for m, cc in f.terms))


def _spoly_by_division(f, g):
    """(L/Lt f) f / Lc f - (L/Lt g) g / Lc g, written out with field division."""
    field = f.field
    L = mono_lcm(f.lt, g.lt)
    a = _mul_term(f, mono_div(L, f.lt), field.div(field.one, f.lc))
    b = _mul_term(g, mono_div(L, g.lt), field.div(field.one, g.lc))
    return a - b


@pytest.mark.parametrize("field", [QQ, GF(7), GF(4)], ids=["QQ", "GF7", "GF4"])
def test_spoly_matches_the_division_formula(field):
    rng = random.Random(5)
    seen = {"non-monic": 0, "equal leads": 0, "coprime leads": 0}
    for trial in range(300):
        f, g = _random_poly(rng, field), _random_poly(rng, field)
        if trial % 3 == 1 and not f.is_zero:  # the same lead, another tail
            g = Polynomial(field, 2, {f.lt: _random_unit(rng, field), **dict(g.terms[1:])})
        if trial % 3 == 2:  # leads x^a and y^b
            f = f + Polynomial.monomial(field, 2, (4, 0), _random_unit(rng, field))
            g = g + Polynomial.monomial(field, 2, (0, 4), _random_unit(rng, field))
        if f.is_zero or g.is_zero:
            continue
        s = s_polynomial(f, g)
        assert s == _spoly_by_division(f, g)
        assert all(c for _, c in s.terms) and s.terms == tuple(sorted(s.terms, reverse=True))
        seen["non-monic"] += f.lc != field.one or g.lc != field.one
        seen["equal leads"] += f.lt == g.lt
        seen["coprime leads"] += mono_lcm(f.lt, g.lt) == mono_mul(f.lt, g.lt)
    assert min(seen.values()) >= 20, seen


def test_monomial_ideal_rejects_malformed_generators():
    for gens in ([(1, 2, 3)], [(1, 0), (1, 0, 1)], [(1,)], [(-1, 2), (3, 0)]):
        with pytest.raises(DomainError, match="needs 2 nonnegative exponents"):
            MonomialIdeal(2, gens)
    with pytest.raises(TypeError):
        MonomialIdeal(2, [(1.5, 2)])
    assert MonomialIdeal(2, [[2, 0], range(2)]) == MonomialIdeal(2, [(2, 0), (0, 1)])


def test_s_pairs_reject_mixed_fields():
    f, g = P("x + 1"), P("x + 2", GF(5))
    for op in (s_polynomial, lambda a, b: is_groebner_basis([a, b]),
               lambda a, b: buchberger_reduced([a, b])):
        for a, b in ((f, g), (g, f)):
            with pytest.raises(DomainError, match="do not mix"):
                op(a, b)


def test_reduction_rejects_a_dividend_over_another_field():
    f, g = P("x + 1"), P("x + 2", GF(5))
    for op in (lambda a, b: normal_form(a, [b]), lambda a, b: reduce(a, [b]), exact_quotient):
        for a, b in ((f, g), (g, f)):
            with pytest.raises(DomainError, match="do not mix"):
                op(a, b)
    assert normal_form(P("x + 1", GF(5)), [g]) == P("4", GF(5))
    assert normal_form(f, []) == f


def test_polynomials_in_different_numbers_of_variables_do_not_mix():
    a, c = P("x"), parse_polynomial("x*z - y", ("x", "y", "z"))
    for op in (operator.add, operator.sub, operator.mul, s_polynomial,
               lambda f, g: reduce(f, [g]), lambda f, g: normal_form(f, [g]), exact_quotient,
               lambda f, g: is_groebner_basis([f, g]), lambda f, g: buchberger_reduced([f, g])):
        for f, g in ((a, c), (c, a)):
            with pytest.raises(DomainError, match=f"in {f.nvars} and in {g.nvars} variables"):
                op(f, g)
    with pytest.raises(DomainError, match="needs 2 nonnegative exponents"):
        leading_term_ideal([a, c])


def test_a_refused_basis_leaves_the_lead_memo_as_it_was():
    # the fields and variable counts are checked before the pair rule reads the
    # leads: a basis mixing 2 and 3 variables used to leave a memo entry of
    # truncated lead tuples behind its DomainError
    a, c = P("x"), parse_polynomial("x*z - y", ("x", "y", "z"))
    groebner._lead_facts.cache_clear()
    for fs in ([a, c], [c, a], [P("x + 1"), P("y + 2", GF(5))]):
        with pytest.raises(DomainError, match="do not mix"):
            is_groebner_basis(fs)
    assert groebner._lead_facts.cache_info().currsize == 0
    assert is_groebner_basis([a, P("y")])
    assert groebner._lead_facts.cache_info().currsize == 1


# -- reduction ----------------------------------------------------------------

def test_normal_form_rejects_a_zero_basis_element():
    with pytest.raises(ValueError, match="the zero polynomial has no leading term"):
        normal_form(P("x"), [P("y"), Polynomial.zero(QQ, 2)])


def test_reduce_single_step():
    r, qs = reduce(P("y^3"), [P("y^2")])
    assert r.is_zero and qs[0] == P("y")


def test_reduce_accumulates_quotients():
    f = P("x^2 + x*y")
    basis = [P("x - y")]
    r, qs = reduce(f, basis)
    assert r == P("2*y^2")
    assert f == qs[0] * basis[0] + r


def test_reduce_already_reduced():
    f = P("y + 1")
    r, qs = reduce(f, [P("x^2")])
    assert r == f and qs[0].is_zero


def test_reduce_non_monic_basis_over_gf7():
    F = GF(7)
    f = P("3*x^3*y + 5*x*y^2 + 2*y + 1", F)
    basis = [P("2*x*y + 3", F), P("4*y^2 + x", F)]
    r, qs = reduce(f, basis)
    assert not r.is_zero
    assert f == sum((q * b for q, b in zip(qs, basis)), r)
    for mono, _ in r.terms:
        assert not any(mono_divides(b.lt, mono) for b in basis)


def test_reduce_remainder_irreducible():
    rng = random.Random(4)
    for _ in range(40):
        f = _random_poly(rng)
        basis = [g for g in (_random_poly(rng) for _ in range(3)) if not g.is_zero]
        if not basis:
            continue
        r, qs = reduce(f, basis)
        assert f == sum((q * b for q, b in zip(qs, basis)), r)
        for mono, _ in r.terms:
            assert not any(mono_divides(b.lt, mono) for b in basis)
        for q, b in zip(qs, basis):
            if not q.is_zero and not f.is_zero:
                assert tuple(a + c for a, c in zip(q.lt, b.lt)) <= f.lt


def _random_unit(rng, field):
    return field.of(rng.choice([-3, -2, -1, 1, 2, 3])) if field.char == 0 else rng.choice(field.elements()[1:])


def _random_poly(rng, field=QQ):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        mono = (rng.randint(0, 3), rng.randint(0, 3))
        c = field.of(rng.randint(-4, 4)) if field.char == 0 else rng.choice(field.elements())
        terms[mono] = terms.get(mono, field.zero) + c
    return Polynomial(field, 2, terms)


# -- reduced Groebner bases ---------------------------------------------------

@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_is_groebner_basis_agrees_with_leading_term_ideals(field):
    # G is a Groebner basis exactly when its leads generate Lt(I)
    rng = random.Random(23)
    answers = []
    while len(answers) < 100:
        gens = [g for g in (_random_poly(rng, field) for _ in range(rng.randint(1, 4))) if not g.is_zero]
        if not gens:
            continue
        gb = buchberger_reduced(gens)
        if len(answers) % 2:  # a basis with other leading coefficients and a redundant member
            gens = [g.scale(_random_unit(rng, field)) for g in gb]
            gens.append(gens[0] * P("x + 2*y", field) + gens[-1].scale(_random_unit(rng, field)))
        expected = leading_term_ideal(gens) == leading_term_ideal(gb)
        assert is_groebner_basis(gens) == expected, gens
        answers.append(expected)
    assert answers.count(False) >= 20


def test_buchberger_already_reduced_pair():
    gb = buchberger_reduced([P("x - y"), P("y^2")])
    assert gb == [P("x - y"), P("y^2")]
    assert leading_term_ideal(gb) == MonomialIdeal(2, [(1, 0), (0, 2)])


def test_buchberger_monomial_ideal_fixed():
    gens = [P("x^2"), P("x*y"), P("y^2")]
    assert buchberger_reduced(gens) == sorted(gens, key=lambda g: g.lt, reverse=True)


def test_buchberger_point_ideal():
    gb = buchberger_reduced([P("x - 3"), P("y - 2")])
    assert gb == [P("x - 3"), P("y - 2")]
    assert leading_term_ideal(gb) == MonomialIdeal(2, [(1, 0), (0, 1)])


def test_buchberger_needs_a_generator():
    with pytest.raises(ValueError):
        buchberger_reduced([Polynomial.zero(QQ, 2)])


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_buchberger_idempotent_order_independent_spolys_vanish(field):
    rng = random.Random(11)
    done = 0
    while done < 25:
        gens = [g for g in (_random_poly(rng, field) for _ in range(3)) if not g.is_zero]
        if not gens:
            continue
        gb = buchberger_reduced(gens)
        assert buchberger_reduced(gb) == gb
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger_reduced(shuffled) == gb
        assert is_groebner_basis(gb)
        for i in range(len(gb)):
            for j in range(i + 1, len(gb)):
                assert normal_form(s_polynomial(gb[i], gb[j]), gb).is_zero
        # reduced: monic, and no term of one element divisible by another's lead
        for g in gb:
            assert g.lc == field.one
            for h in gb:
                if h is g:
                    continue
                assert not any(mono_divides(h.lt, m) for m, _ in g.terms)
        done += 1


def test_unit_ideal():
    gb = buchberger_reduced([P("x - 1"), P("x")])
    assert gb == [P("1")]
    E = leading_term_ideal(gb)
    assert E.gens == ((0, 0),) and colength(E) == 0


def _all_pairs_criterion(fs):
    """Buchberger's criterion on every pair, through the public S-polynomial and division."""
    fs = [f for f in fs if not f.is_zero]
    return all(normal_form(s_polynomial(f, g), fs).is_zero
               for f, g in itertools.combinations(fs, 2))


def _random_sparse(rng, field, nvars):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        mono = tuple(rng.randint(0, 2) for _ in range(nvars))
        terms[mono] = rng.choice(field.elements()) if field.char else field.of(rng.randint(-3, 3))
    return Polynomial(field, nvars, terms)


def _variants(rng, field, gb):
    """Truncated, duplicated, redundant and perturbed versions of a reduced basis."""
    nvars = gb[0].nvars
    x = Polynomial.variable(field, nvars, rng.randrange(nvars))
    out = [gb, gb[:-1], gb[1:], gb + [gb[0]], [gb[-1]] + gb,
           gb + [gb[0] * x + gb[-1].scale(_random_unit(rng, field))]]
    for g in gb:  # one member's tail gains a term
        below = [m for m in itertools.product(range(3), repeat=nvars) if m < g.lt]
        if below:
            c = _random_unit(rng, field)
            bumped = g + Polynomial.monomial(field, nvars, rng.choice(below), c)
            out.append([bumped if h is g else h for h in gb])
    return out


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(4)], ids=["QQ", "GF2", "GF3", "GF4"])
def test_is_groebner_basis_agrees_with_the_all_pairs_criterion(field, nvars):
    # the Gebauer-Moeller pairs decide exactly what every pair decides, on
    # bases with redundant, repeated and perturbed members as well
    rng = random.Random(31 * nvars + (field.size if field.char else 0))
    verdicts = collections.Counter()
    while sum(verdicts.values()) < 1000:
        gens = [g for g in (_random_sparse(rng, field, nvars) for _ in range(rng.randint(2, 3)))
                if not g.is_zero]
        if not gens:
            continue
        gb = buchberger_reduced(gens)
        if len(gb) < 2:  # one member: every variant below is a Groebner basis
            continue
        for fs in _variants(rng, field, gb) + [gens]:
            expected = _all_pairs_criterion(fs)
            assert is_groebner_basis(fs) == expected, fs
            verdicts[expected] += 1
    assert verdicts[True] >= 100 and verdicts[False] >= 100, verdicts


def test_pairs_of_staircase_leads_are_the_adjacent_pairs():
    # the syzygies of x^(t-i) y^(m_i) are the columns of M0(E): consecutive
    # minimal generators, and none for the coprime (x^a, y^b); the census
    # reads the same family members off the staircase
    for d in range(1, 13):
        for E in enumerate_staircases(d):
            leads = E.generators(minimal=True)
            family = generic_family(leads, 2, graded=False)
            standard = E.standard_monomials()  # as brute_force_ideal_count reads the family
            supports = [(lead, census._support(lead, standard)) for lead in leads]
            assert supports == [(lead, [m for m, _ in s]) for lead, s in family.members], E
            assert [lead for lead, _ in family.members] == leads
            pairs = [(i, j) for _, i, j in groebner._pairs_of(leads)]
            if len(leads) == 2:
                assert pairs == [], E
            else:
                assert pairs == [(k - 1, k) for k in range(1, len(leads))], E


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_lead_facts_equal_a_direct_pass(nvars):
    # the memoized pairs are those of a plain _gm_update loop, and the minimal
    # indices pick MonomialIdeal's generators, the first of equal leads
    rng = random.Random(nvars)
    for _ in range(300):
        leads = tuple(tuple(rng.randint(0, 3) for _ in range(nvars))
                      for _ in range(rng.randint(1, 7)))
        direct = []
        for t in range(1, len(leads)):
            direct = groebner._gm_update(leads, t, direct)
        pairs, minimal = groebner._lead_facts(leads)
        assert list(pairs) == direct == groebner._pairs_of(list(leads)), leads
        assert [leads[i] for i in minimal] == sorted(MonomialIdeal(nvars, leads).gens), leads
        assert all(leads.index(leads[i]) == i for i in minimal), leads


def test_pairs_of_returns_a_fresh_list():
    leads = [(3, 0), (2, 1), (0, 2)]
    first = groebner._pairs_of(leads)
    expected = list(first)
    first.clear()
    assert groebner._pairs_of(leads) == expected == [((3, 1), 0, 1), ((2, 2), 1, 2)]


# -- colength -----------------------------------------------------------------

def test_colength_examples():
    assert colength(MonomialIdeal(2, [(3, 0), (1, 3), (0, 5)])) == 11
    assert colength(MonomialIdeal(2, [(1, 0), (0, 1)])) == 1
    assert colength(MonomialIdeal(2, [(2, 0)])) == math.inf


def test_colength_matches_enumeration():
    for d in range(1, 15):
        for E in enumerate_staircases(d):
            ideal = E.monomial_ideal()
            assert colength(ideal) == d
            assert len(ideal.standard_monomials()) == d
    rng = random.Random(9)
    for _ in range(40):
        d = rng.randint(15, 30)
        E = rng.choice(enumerate_staircases(d))
        assert colength(E.monomial_ideal()) == d


def _box_standard_monomials(ideal):
    """Reference: scan the box under the pure powers, None when one is missing."""
    bounds = [ideal.pure_power_exponent(i) for i in range(ideal.nvars)]
    if None in bounds:
        return None
    return [m for m in itertools.product(*(range(b) for b in bounds)) if not ideal.contains(m)]


def test_colength_and_standard_monomials_match_the_box_scan():
    rng = random.Random(23)
    for nvars in (2, 3, 4):
        for _ in range(150):
            gens = [tuple(rng.randint(0, 5) for _ in range(nvars))
                    for _ in range(rng.randint(1, 6))]
            # most draws get every pure power, some miss one
            gens += [tuple(rng.randint(1, 6) if k == i else 0 for k in range(nvars))
                     for i in range(nvars) if rng.random() < 0.9]
            ideal = MonomialIdeal(nvars, gens)
            reference = _box_standard_monomials(ideal)
            if reference is None:
                assert colength(ideal) == math.inf
                with pytest.raises(DomainError, match="infinite colength"):
                    ideal.standard_monomials()
            else:
                assert ideal.standard_monomials() == reference  # lex order kept
                assert colength(ideal) == len(reference)


def test_colength_edge_ideals():
    for nvars in (1, 2, 3):
        unit = MonomialIdeal(nvars, [(0,) * nvars])
        assert colength(unit) == 0 and unit.standard_monomials() == []
        assert colength(MonomialIdeal(nvars, [])) == math.inf
    assert MonomialIdeal(1, [(4,)]).standard_monomials() == [(0,), (1,), (2,), (3,)]


def test_colength_costs_the_standard_monomials_not_their_box():
    # 64,000,000 standard monomials in 160,000 slices along z, counted
    # without visiting them one by one
    assert colength(MonomialIdeal(3, [(400, 0, 0), (0, 400, 0), (0, 0, 400)])) == 400 ** 3
    # a box of 10^12 monomials holding 3,000 standard ones
    big = MonomialIdeal(3, [(10 ** 4, 0, 0), (0, 10 ** 4, 0), (0, 0, 10 ** 4), (1, 1, 0),
                            (1, 0, 1), (0, 1, 1)])
    assert colength(big) == 3 * 10 ** 4 - 2
    assert len(big.standard_monomials()) == 3 * 10 ** 4 - 2


# -- the last-result memo -----------------------------------------------------

@pytest.fixture
def builds(monkeypatch):
    """Start from an empty memo and record every Buchberger computation."""
    built = []
    inner = groebner._reduced_basis
    monkeypatch.setattr(groebner, "_last", (None, ()))
    monkeypatch.setattr(groebner, "_reduced_basis", lambda start: built.append(start) or inner(start))
    return built


def test_chart_round_trip_builds_one_basis(builds):
    E = Staircase((0, 1, 3, 4, 4))
    for kind in CellKind:
        N = random_cell_matrix(E, kind, 7)
        fs = minors_ideal(N)
        gb = buchberger_reduced(fs)
        assert staircase_from_monomial_ideal(leading_term_ideal(gb)) == E
        assert canonical_matrix(fs) == (E, N)
        assert cell_kinds_of_ideal(fs) == {k for k in CellKind if validate_cell_matrix(N, k)[0]}
    assert len(builds) == len(CellKind)


def test_chart_round_trip_runs_one_gebauer_moeller_pass(monkeypatch):
    # every ideal of the cell has the leads x^(t-i) y^(m_i): the pairs and the
    # minimal leads are worked out once for all kinds and draws
    E = Staircase((0, 1, 3, 4, 4))
    updates = []
    inner = groebner._gm_update
    monkeypatch.setattr(groebner, "_gm_update",
                        lambda leads, t, pairs: updates.append(t) or inner(leads, t, pairs))
    fresh = functools.lru_cache(maxsize=groebner.LEAD_CACHE_SIZE)(groebner._lead_facts.__wrapped__)
    monkeypatch.setattr(groebner, "_lead_facts", fresh)
    for kind in CellKind:
        for seed in range(3):
            N = random_cell_matrix(E, kind, seed)
            fs = minors_ideal(N)
            assert canonical_matrix(fs) == (E, N)
            assert cell_kinds_of_ideal(fs) == {k for k in CellKind
                                               if validate_cell_matrix(N, k)[0]}
    assert updates == list(range(1, E.t + 1))  # one pass over the t + 1 minors
    assert fresh.cache_info().misses == 1


def test_memo_returns_a_fresh_list(builds):
    gens = [P("x^2 + 2*y"), P("x*y + 3")]
    gb = buchberger_reduced(gens)
    expected = [P("x - 2/3*y^2"), P("y^3 + 9/2")]
    assert gb == expected
    gb.append(P("x"))
    gb.reverse()
    again = buchberger_reduced(gens)
    assert again == expected and again is not gb
    again.clear()
    assert buchberger_reduced(gens) == expected
    assert len(builds) == 1


def test_memo_hits_on_rebuilt_equal_generators(builds):
    gb = buchberger_reduced([P("x^2 + 2*y"), P("x*y + 3")])
    assert buchberger_reduced([P("x^2 + 2*y"), Polynomial.zero(QQ, 2), P("x*y + 3")]) == gb
    assert len(builds) == 1


def test_memo_recomputes_for_other_order_field_or_reassigned_terms(builds):
    gens = [P("x^2 + 2*y"), P("x*y + 3")]
    gb = buchberger_reduced(gens)
    assert buchberger_reduced(gens[::-1]) == gb
    assert len(builds) == 2
    # the same integer terms over GF(7): equal term tuples, another field
    F = GF(7)
    gens7 = [P("x^2 + 2*y", F), P("x*y + 3", F)]
    assert [g.terms for g in gens7] == [g.terms for g in gens]
    assert buchberger_reduced(gens7) == [P("x + 4*y^2", F), P("y^3 + 1", F)]
    assert buchberger_reduced(gens) == gb
    assert len(builds) == 4
    # a generator changed in place is a different key
    object.__setattr__(gens[1], "terms", P("x*y").terms)
    assert buchberger_reduced(gens) == [P("x^2 + 2*y"), P("x*y"), P("y^2")]
    assert len(builds) == 5


def test_memo_is_left_alone_by_an_all_zero_input(builds):
    gens = [P("x - 3"), P("y - 2")]
    gb = buchberger_reduced(gens)
    with pytest.raises(ValueError):
        buchberger_reduced([Polynomial.zero(QQ, 2)])
    with pytest.raises(ValueError):
        buchberger_reduced([])
    assert groebner._last[1] == tuple(gb)
    assert buchberger_reduced(gens) == gb
    assert len(builds) == 1


# -- graded minimal generator oracle ------------------------------------------

def test_graded_generators_square_of_max_ideal():
    gens = [P("x^2"), P("x*y"), P("y^2")]
    assert graded_minimal_generators(gens, 2) == 3
    assert graded_minimal_generators(gens, 3) == 0


def test_graded_generators_mixed_degrees():
    gens = [P("x - y"), P("y^2")]
    assert graded_minimal_generators(gens, 1) == 1
    assert graded_minimal_generators(gens, 2) == 1


def test_graded_generators_staircase_top():
    gens = [P("x^3"), P("x*y^3"), P("y^5")]
    assert graded_minimal_generators(gens, 5) == 1
    assert graded_minimal_generators(gens, 3) == 1
    assert graded_minimal_generators(gens, 4) == 1


def test_graded_generators_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        graded_minimal_generators([P("x - 1")], 1)


def _beta0_profile_by_tuples(gens, up_to=None):
    """Reference: the generator-count oracle with rows keyed by exponent tuples."""
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return {}
    nvars = gens[0].nvars
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.total_degree(), []).append(g)
    top = max(by_degree) if up_to is None else max(max(by_degree), up_to)
    variables = [tuple(1 if k == i else 0 for k in range(nvars)) for i in range(nvars)]
    profile = {}
    basis = []
    for j in range(min(by_degree), top + 1):
        echelon = {}
        for row in basis:
            for v in variables:
                tuple_kernel.echelon_insert(echelon, {mono_mul(m, v): c for m, c in row.items()})
        before = len(echelon)
        for g in by_degree.get(j, []):
            tuple_kernel.echelon_insert(echelon, dict(g.terms))
        if len(echelon) > before:
            profile[j] = len(echelon) - before
        basis = list(echelon.values())
    return profile


def test_packed_oracle_matches_the_tuple_oracle_on_the_criterion_05_sweep():
    # the points of criterion 05 in tests/test_acceptance.py, same seed
    rng = random.Random(20260809)
    for d in range(1, 13):
        for E in enumerate_staircases(d):
            slots = slot_set(E)
            for _ in range(50):
                p = {s: rng.randint(-3, 3) for s in slots}
                fs = minors_ideal(cell_matrix_from_parameters(E, p))
                assert graded_beta0_profile(fs) == _beta0_profile_by_tuples(fs), (E.m, p)


def _random_homogeneous(rng, field, nvars, deg):
    monos = monomials_of_degree(nvars, deg)
    terms = {m: field.of(rng.randint(-2, 2)) for m in rng.sample(monos, min(len(monos), 3))}
    return Polynomial(field, nvars, terms)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["QQ", "GF3"])
@pytest.mark.parametrize("nvars", [1, 3, 4])
def test_packed_oracle_matches_the_tuple_oracle_in_more_variables(field, nvars):
    rng = random.Random(31 * nvars + field.char)
    nonzero = 0
    for _ in range(60):
        gens = [_random_homogeneous(rng, field, nvars, rng.randint(0 if nvars == 1 else 1, 4))
                for _ in range(rng.randint(1, 4))]
        top = max(g.total_degree() for g in gens)
        for up_to in (None, top + 1, top + 3):
            profile = graded_beta0_profile(gens, up_to)
            assert profile == _beta0_profile_by_tuples(gens, up_to), (gens, up_to)
            nonzero += bool(profile)
        # past the top degree, no new minimal generator appears
        assert graded_minimal_generators(gens, top + 3) == 0
    assert nonzero >= 100


def test_packed_oracle_at_degree_zero():
    one = Polynomial.constant(QQ, 2, 1)
    assert graded_beta0_profile([one]) == {0: 1}
    assert graded_beta0_profile([one, P("x")], up_to=3) == {0: 1}


def test_oracle_rejects_mixed_inputs():
    x1 = parse_polynomial("x1", ("x1", "x2", "x3"), QQ)
    with pytest.raises(DomainError, match="in 2 and in 3 variables"):
        graded_beta0_profile([P("x"), x1])
    with pytest.raises(DomainError, match="do not mix"):
        graded_beta0_profile([P("x"), P("y", GF(3))])
    with pytest.raises(DomainError, match="do not mix"):
        graded_minimal_generators([P("x", GF(3)), P("y")], 1)


def test_echelon_insert_against_a_shifted_pivot():
    shared = {3: 2, 1: 4}
    pivot = {5: (shared, 2)}  # the row 2*e5 + 4*e3, stored as ``shared`` under shift 2
    echelon = dict(pivot)
    # ints cross-multiply: 2*row - 3*pivot = 2*e4, divided by its content
    assert echelon_insert(echelon, {5: 3, 4: 1, 3: 6}, 5) == 4
    assert echelon[4] == ({4: 1}, 0) and shared == {3: 2, 1: 4}
    # a row holding a Fraction is not divided by its content
    echelon = dict(pivot)
    assert echelon_insert(echelon, {5: 3, 4: Fraction(3, 2), 3: 6}) == 4
    assert [(c, type(c)) for c in echelon[4][0].values()] == [(3, Fraction)]
    # a field element pivot divides: row - (3/2)*pivot is 0 over GF(5)
    F = GF(5)
    echelon = {5: ({3: F.of(2), 1: F.of(4)}, 2)}
    assert echelon_insert(echelon, {5: F.of(3), 3: F.of(1)}) is None
    assert echelon_insert(echelon, {}) is None and len(echelon) == 1


def _spy_on_the_kernel(monkeypatch):
    """Record each row the oracle's kernel calls store, and whether the call knew its lead.

    Each stored row has shift 0, and a row of ints, which the kernel divides by its
    content, has entries under 64 bits: the spy fails at the first that does not, before
    a run whose rows compound takes minutes.  A row holding a Fraction is not divided."""
    stored, known = [], []

    def spy(echelon, row, lead=None):
        known.append(lead is not None)
        got = echelon_insert(echelon, row, lead)
        if got is not None:
            row, shift = echelon[got]
            assert shift == 0
            ints = [c for c in row.values() if type(c) is int]
            assert len(ints) < len(row) or max(abs(c) for c in ints).bit_length() < 64
            stored.append(row)
        return got

    monkeypatch.setattr(groebner, "echelon_insert", spy)
    return stored, known


def test_oracle_rows_stay_primitive(monkeypatch):
    # the integer rows multiplied from degree to degree are divided by their content
    # when reduced, so their entries stay small: a kernel that never divided them let
    # them reach 75,329 bits on these 60 ideals (those of the 4-QQ case above)
    stored, _ = _spy_on_the_kernel(monkeypatch)
    rng = random.Random(31 * 4)
    for _ in range(60):
        gens = [_random_homogeneous(rng, QQ, 4, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        graded_beta0_profile(gens, max(g.total_degree() for g in gens) + 3)
    assert len(stored) > 1000
    assert max(abs(c).bit_length() for row in stored for c in row.values()) < 64


def _random_homogeneous_mixed(rng, field, nvars, deg):
    """A random homogeneous polynomial of up to five terms; over QQ some coefficients
    are Fractions."""
    monos = monomials_of_degree(nvars, deg)
    terms = {}
    for m in rng.sample(monos, min(len(monos), rng.randint(1, 5))):
        if field.char:
            terms[m] = rng.choice(field.elements())
        elif rng.random() < 0.3:
            terms[m] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        else:
            terms[m] = rng.randint(-5, 5)
    return Polynomial(field, nvars, terms)


@pytest.mark.parametrize("field", [QQ, GF(3), GF(4)], ids=["QQ", "GF3", "GF4"])
@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_oracle_matches_the_tuple_oracle_where_multiples_collide(field, nvars, monkeypatch):
    # the multiples of a degree's rows stand uncopied on their leads, and only those
    # whose lead is taken are written out and reduced; the tuple oracle reduces every one
    stored, known = _spy_on_the_kernel(monkeypatch)
    rng = random.Random(100 * nvars + field.size if field.char else nvars)
    fractions = 0
    for _ in range(40):
        gens = [_random_homogeneous_mixed(rng, field, nvars, rng.randint(1, 3))
                for _ in range(rng.randint(1, 4))]
        fractions += any(type(c) is Fraction for g in gens for _, c in g.terms)
        top = max([g.total_degree() for g in gens if not g.is_zero], default=0)
        for up_to in (None, top + 2):
            assert graded_beta0_profile(gens, up_to) == _beta0_profile_by_tuples(gens, up_to), \
                (gens, up_to)
    assert sum(known) >= 100  # multiples whose lead was taken, reduced
    assert field.char or fractions >= 10



# -- the packed kernel against the tuple kernel ---------------------------------

def _exact(p):
    """The terms of a polynomial with each coefficient's type: equal means byte-identical."""
    return [(m, type(c), c) for m, c in p.terms]


def _random_terms(rng, field, nvars, most):
    """Up to ``most`` random terms, exponents at most 3."""
    terms = {}
    for _ in range(rng.randint(1, most)):
        mono = tuple(rng.randint(0, 3) for _ in range(nvars))
        terms[mono] = rng.choice(field.elements()) if field.char else field.of(rng.randint(-5, 5))
    return Polynomial(field, nvars, terms)


@pytest.mark.parametrize("nvars", [2, 3, 4])
@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(4)], ids=["QQ", "GF2", "GF3", "GF4"])
def test_the_packed_kernel_equals_the_tuple_kernel(field, nvars):
    # every entry point of the kernel gives what the tuple kernel gives, term
    # for term and coefficient type for coefficient type
    rng = random.Random(101 * nvars + (field.size if field.char else 0))
    seen = collections.Counter()
    while seen["cases"] < 60:
        f = _random_terms(rng, field, nvars, 4)
        basis = [g for g in (_random_terms(rng, field, nvars, 4) for _ in range(rng.randint(1, 3)))
                 if not g.is_zero]
        # binomials: their bases stay binomial, so Buchberger ends fast in four variables
        gens = [g for g in (_random_terms(rng, field, nvars, 2) for _ in range(rng.randint(2, 3)))
                if not g.is_zero]
        if not basis or not gens:
            continue
        seen["cases"] += 1
        assert _exact(normal_form(f, basis)) == _exact(tuple_kernel.normal_form(f, basis))
        (r, qs), (ref_r, ref_qs) = reduce(f, basis), tuple_kernel.reduce(f, basis)
        assert [_exact(p) for p in (r, *qs)] == [_exact(p) for p in (ref_r, *ref_qs)]
        g = basis[0]
        for h in (f, f * g):
            q, ref = exact_quotient(h, g), tuple_kernel.exact_quotient(h, g)
            assert (q is None and ref is None) or _exact(q) == _exact(ref)
            seen["exact"] += q is not None
        if not f.is_zero:
            assert _exact(s_polynomial(f, g)) == _exact(tuple_kernel.s_polynomial(f, g))
        gb = buchberger_reduced(gens)
        assert [_exact(p) for p in gb] == [_exact(p) for p in tuple_kernel.buchberger_reduced(gens)]
        for fs in (basis, gens, gens + gb[:1], gb):
            verdict = is_groebner_basis(fs)
            assert verdict == tuple_kernel.is_groebner_basis(fs)
            seen[verdict] += 1
    assert seen["exact"] >= 60 and seen[False] >= 15 and seen[True] >= 60, seen


@pytest.fixture
def kernel_widths(monkeypatch):
    """The field widths of the kernel's runs, in order."""
    widths = []
    inner = poly._normal_form_dict

    def spy(work, reducers, guard, quots=None, zero_test=False):
        widths.append((guard & -guard).bit_length())  # the guard of the lowest field
        return inner(work, reducers, guard, quots, zero_test)

    for module in (poly, groebner):
        monkeypatch.setattr(module, "_normal_form_dict", spy)
    return widths


def test_the_kernel_widens_its_fields_when_an_exponent_outgrows_them(kernel_widths):
    # x^3 by x - y^100 reaches y^300, past the 127 that an 8-bit field holds
    f, g = P("x^3"), P("x - y^100")
    assert normal_form(f, [g]) == tuple_kernel.normal_form(f, [g]) == P("y^300")
    assert kernel_widths == [8, 16]
    del kernel_widths[:]
    rem, quots = reduce(f, [g])
    assert (rem, quots) == tuple_kernel.reduce(f, [g])
    assert quots == [P("x^2 + x*y^100 + y^200")]
    assert kernel_widths == [8, 16]
    del kernel_widths[:]
    gb = buchberger_reduced([P("x^3 - y^300"), g])
    assert gb == tuple_kernel.buchberger_reduced([P("x^3 - y^300"), g]) == [g]
    assert set(kernel_widths) == {10}  # y^300 sets the start, and nothing outgrows it
    del kernel_widths[:]
    # the S-pair of x - y^100 and x^2 reduces to -y^200
    assert not is_groebner_basis([g, P("x^2")])
    assert not tuple_kernel.is_groebner_basis([g, P("x^2")])
    assert kernel_widths == [8, 16]
    del kernel_widths[:]
    assert exact_quotient(f, g) is tuple_kernel.exact_quotient(f, g) is None
    assert kernel_widths == [8, 16]
    assert exact_quotient(P("x^3 - y^300"), g) == P("x^2 + x*y^100 + y^200")
    # an S-polynomial is checked too: y^100 * (x - y^120) - x * (y^100 + 1) has y^220
    assert s_polynomial(P("x - y^120"), P("y^100 + 1")) == P("-x - y^220")
    # in three variables too, where keys unpack field by nonzero field
    f3, g3, r3 = (parse_polynomial(t, ("x", "y", "z")) for t in ("x^3", "x - z^100", "z^300"))
    del kernel_widths[:]
    rem, quots = reduce(f3, [g3])
    assert (rem, quots) == tuple_kernel.reduce(f3, [g3]) and rem == r3
    assert kernel_widths == [8, 16]


def test_the_criterion_stops_before_a_key_that_would_overflow(kernel_widths, monkeypatch):
    # the S-pair of y - z^100 and x*y + x*z + y*z^30 is -x*z^100 - x*z - y*z^30:
    # no lead divides x*z^100, so the verdict is False before y*z^30 reduces to
    # z^130, past the 127 that an 8-bit field holds, and the run is not restarted
    fs = [parse_polynomial(t, ("x", "y", "z")) for t in ("y - z^100", "x*y + x*z + y*z^30")]
    assert not is_groebner_basis(fs)
    assert kernel_widths == [8]
    assert not tuple_kernel.is_groebner_basis(fs)
    del kernel_widths[:]
    assert normal_form(s_polynomial(*fs), fs) == parse_polynomial(
        "-x*z^100 - x*z - z^130", ("x", "y", "z"))  # the full remainder needs 16 bits
    assert kernel_widths == [8, 16]
    del kernel_widths[:]
    monkeypatch.setattr(poly, "_start_width", lambda top: 16)
    assert not is_groebner_basis(fs)  # the wide-field verdict
    assert kernel_widths == [16]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=["QQ", "GF2", "GF3"])
def test_the_early_stop_gives_the_full_verdict_on_non_bases(field):
    # random points of the census families, most of them no Groebner basis: the
    # criterion stops at the first term no lead divides, the tuple kernel
    # reduces every S-pair to its last term, and the verdicts agree
    rng = random.Random(47 + (field.size if field.char else 0))
    verdicts = collections.Counter()
    for d in range(3, 7):
        for E in enumerate_staircases(d):
            family = generic_family(E.generators(minimal=True), 2, graded=False)
            for _ in range(8):
                values = [rng.choice(field.elements()) if field.char else field.of(rng.randint(-2, 2))
                          for _ in range(family.nparams)]
                fs = instantiate(family, values, field)
                verdict = is_groebner_basis(fs)
                assert verdict == tuple_kernel.is_groebner_basis(fs), fs
                verdicts[verdict] += 1
    assert verdicts[False] >= 100 and verdicts[True] >= 10, verdicts


def test_the_lead_memo_skips_a_long_lead_list():
    # an entry keeps O(leads) pairs: a list above the limit is worked out afresh
    def leads(n):
        return tuple((n - i, i) for i in range(n + 1))  # x^n, x^(n-1) y, ..., y^n

    n = groebner.LEAD_MEMO_LIMIT
    groebner._lead_facts.cache_clear()
    long_facts = groebner._facts_of(leads(n))  # n + 1 leads: over the limit
    assert groebner._lead_facts.cache_info().currsize == 0
    assert long_facts == groebner._lead_facts.__wrapped__(leads(n))
    assert [(i, j) for _, i, j in long_facts[0]] == [(i, i + 1) for i in range(n)]
    assert groebner._facts_of(leads(n - 1)) is groebner._facts_of(leads(n - 1))
    assert groebner._lead_facts.cache_info().currsize == 1
