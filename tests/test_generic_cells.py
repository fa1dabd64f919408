"""Generic cell equations, linear elimination, and their soundness."""

import hashlib
import itertools
import json
import math
import random
from collections.abc import Sequence

import pytest

from fractions import Fraction

from hbcells import generic_cells, poly
from hbcells.errors import DomainError
from hbcells.field import GF, QQ
from hbcells.generic_cells import (ParameterEquations, affine_space_check,
                                   back_substitute, buchberger_equations,
                                   cell_report, eliminate_linear, generic_family,
                                   instantiate, prune_multiples)
from hbcells.groebner import (MonomialIdeal, buchberger_reduced,
                              is_groebner_basis, leading_term_ideal)
from hbcells.hilbert_burch import CellKind, cell_dimension
from hbcells.poly import Polynomial, _Packing, monomials_of_degree, polynomial_to_str
from hbcells.staircase import Staircase, enumerate_staircases
from tuple_kernel import normal_form_dict, s_pair

EX21 = [(0, 0, 4), (0, 4, 0), (1, 2, 1), (3, 0, 1)]                      # n=3
EX22 = [(0, 0, 0, 2), (0, 1, 0, 1), (0, 2, 0, 0), (1, 0, 0, 1)]          # n=4
EX23 = [(0, 0, 0, 2), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 0), (2, 0, 0, 0)]


def single_parameter_factor(eq):
    """Index of a parameter dividing every monomial of eq, or None."""
    supports = [{k for k, e in enumerate(mono) if e} for mono, _ in eq.terms]
    return min(set.intersection(*supports), default=None) if supports else None


# -- family construction -------------------------------------------------------

def test_family_parameter_counts_match_displays():
    assert generic_family(EX22, 4, graded=True).nparams == 8
    assert generic_family(EX21, 3, graded=True).nparams == 17
    assert generic_family(EX23, 4, graded=True).nparams == 16


def test_family_supports_match_display_22():
    fam = generic_family(EX22, 4, graded=True)
    by_lead = {lead: [m for m, _ in support] for lead, support in fam.members}
    x2x4 = (0, 1, 0, 1)
    assert by_lead[x2x4] == [(0, 0, 2, 0), (0, 0, 1, 1)]          # x3^2, x3 x4
    assert by_lead[(0, 0, 0, 2)] == []
    assert by_lead[(0, 2, 0, 0)] == [(0, 1, 1, 0), (0, 0, 2, 0), (0, 0, 1, 1)]
    assert by_lead[(1, 0, 0, 1)] == [(0, 1, 1, 0), (0, 0, 2, 0), (0, 0, 1, 1)]


def test_ungraded_family_point_cell():
    fam = generic_family([(1, 0), (0, 1)], 2, graded=False)
    assert fam.nparams == 2
    assert all(support == (((0, 0), k),) for k, (_, support) in enumerate(fam.members))


def test_ungraded_family_needs_finite_colength():
    with pytest.raises(DomainError):
        generic_family([(1, 0)], 2, graded=False)


def test_ungraded_family_budget_counts_box_monomials_and_parameters(monkeypatch):
    # (x1^9, x2^9, x3^9): a box of 729 monomials and 819 parameters
    gens = [(9, 0, 0), (0, 9, 0), (0, 0, 9)]
    assert generic_family(gens, 3, graded=False).nparams == 819
    monkeypatch.setattr(generic_cells, "FAMILY_LIMIT", 728)
    with pytest.raises(DomainError, match="ungraded family has an exponent box of 729 monomials"):
        generic_family(gens, 3, graded=False)
    monkeypatch.setattr(generic_cells, "FAMILY_LIMIT", 800)
    with pytest.raises(DomainError, match="ungraded family has 810 parameters or more"):
        generic_family(gens, 3, graded=False)  # 729 + 81 after the second member
    # the graded family scans the 55 monomials of degree 9, not the box, and
    # has 52 + 8 parameters
    assert generic_family(gens, 3, graded=True).nparams == 60
    monkeypatch.setattr(generic_cells, "FAMILY_LIMIT", 54)
    with pytest.raises(DomainError, match="graded family has a degree scan of 55 monomials"):
        generic_family(gens, 3, graded=True)
    monkeypatch.setattr(generic_cells, "FAMILY_LIMIT", 55)
    with pytest.raises(DomainError, match="graded family has 60 parameters or more"):
        generic_family(gens, 3, graded=True)


def test_graded_family_budget_refuses_a_huge_degree_before_scanning(monkeypatch):
    # (x^99999999999, y): the monomials of both degrees are counted, not listed
    monkeypatch.setattr(generic_cells, "monomials_of_degree", None)
    with pytest.raises(DomainError, match="graded family has a degree scan of 100000000002 "
                                          r"monomials, over the budget of 2500 \(generic_cells"):
        generic_family([(99999999999, 0), (0, 1)], 2, graded=True)
    with pytest.raises(DomainError, match="degree scan of 3000003 monomials"):
        generic_family([(3000000, 0), (0, 1)], 2, graded=True)


def test_monomial_family_has_no_equations():
    fam = generic_family([(2, 0), (1, 1), (0, 2)], 2, graded=True)
    assert fam.nparams == 0
    eqs = buchberger_equations(fam)
    assert len(eqs) == 0 and list(eqs) == []


# -- the three worked examples ---------------------------------------------------

def test_example_22_structure():
    fam, rep = cell_report(EX22, 4, graded=True)
    assert fam.nparams == 8
    assert len(rep.eliminated) == 3
    assert len(rep.survivors) == 5
    assert len(rep.residual) == 2
    assert rep.residual_degrees() == (2, 2)
    assert not affine_space_check(rep)


def test_example_23_structure():
    fam, rep = cell_report(EX23, 4, graded=True)
    assert fam.nparams == 16
    assert len(rep.eliminated) == 8
    assert len(rep.survivors) == 8
    assert len(rep.residual) == 3
    assert not affine_space_check(rep)


def test_example_21_structure():
    fam, rep = cell_report(EX21, 3, graded=True)
    assert fam.nparams == 17
    assert len(rep.eliminated) == 2
    assert len(rep.survivors) == 15
    assert len(rep.residual) == 1
    factor = single_parameter_factor(rep.residual[0])
    assert factor is not None and factor in rep.survivors


# -- elimination mechanics ----------------------------------------------------------

def test_elimination_is_sound():
    for gens, n in ((EX21, 3), (EX22, 4), (EX23, 4)):
        fam = generic_family(gens, n, graded=True)
        eqs = buchberger_equations(fam)
        rep = eliminate_linear(eqs, fam.nparams, fam.names)
        # replaying the recorded substitutions on the original equations
        # reproduces the residual set (plus zeros)
        replayed = set()
        for eq in eqs:
            for k, expr in rep.eliminated:
                eq = eq.substitute(k, expr)
            if not eq.is_zero:
                replayed.add(eq.monic())
        residual = set(rep.residual)
        assert residual <= replayed
        # anything extra is a multiple of a residual equation
        from hbcells.poly import exact_quotient
        for eq in replayed - residual:
            assert any(exact_quotient(eq, r) is not None for r in residual)


# md5 over json.dumps(report.to_json(with_log=True), sort_keys=True) of every
# report in test_elimination_reports_are_unchanged, in its order.  A faster
# eliminate_linear must keep every report, substitution log included,
# byte-identical.
ELIMINATION_DIGEST = "f319ffe05fe331d09a9e573265d4cc00"


def test_elimination_reports_are_unchanged():
    cases = [(E.generators(minimal=True), 2, graded)
             for d in range(1, 9) for E in enumerate_staircases(d)
             for graded in (True, False)]
    cases += [(list(gens), 3, True) for size in range(1, 4)
              for gens in itertools.combinations(monomials_of_degree(3, 3), size)]
    digest = hashlib.md5()
    for gens, n, graded in cases:
        _, rep = cell_report(gens, n, graded)
        digest.update(json.dumps(rep.to_json(with_log=True), sort_keys=True).encode())
    assert digest.hexdigest() == ELIMINATION_DIGEST


def _normalize(eqs):
    """Monic leading coefficients, zero drops, order-preserving dedupe."""
    seen = set()
    out = []
    for eq in eqs:
        if eq.is_zero:
            continue
        eq = eq.monic()
        if eq not in seen:
            seen.add(eq)
            out.append(eq)
    return out


def _reference_elimination(eqs, nparams, trace=None):
    """The elimination written the direct way: monic equations, ``substitute``.

    At every step it rescans the equations in order for the first one with a
    parameter that occurs only as a bare linear term, takes the smallest such
    parameter, substitutes minus the rest of the equation over its coefficient
    into every equation holding it, and renormalizes the whole list.
    ``trace``, a list when given, gets one entry per step: the a_k-degrees of
    the other equations holding a_k, how many of those vanish, and whether two
    equations are equal up to a scalar after the substitution.
    """
    def eligible(eq):
        linear, blocked = [], set()
        for mono, _ in eq.terms:
            support = [k for k, e in enumerate(mono) if e]
            if len(support) == 1 and mono[support[0]] == 1:
                linear.append(support[0])
            else:
                blocked.update(support)
        return min((k for k in linear if k not in blocked), default=None)

    eqs = _normalize(list(eqs))
    eliminated = []
    while True:
        pick = next(((k, eq) for eq in eqs if (k := eligible(eq)) is not None), None)
        if pick is None:
            return eliminated, prune_multiples(eqs)
        k, eq = pick
        lam = tuple(int(v == k) for v in range(nparams))
        c = eq.coefficient(lam)
        expr = (eq - Polynomial.monomial(QQ, nparams, lam, c)).scale(QQ.div(-1, c))
        eliminated.append((k, expr))
        rewritten = [e.substitute(k, expr) if any(m[k] for m, _ in e.terms) else e for e in eqs]
        if trace is not None:
            held = [(max(m[k] for m, _ in e.terms), new) for e, new in zip(eqs, rewritten)
                    if e is not eq and any(m[k] for m, _ in e.terms)]
            nonzero = [new for new in rewritten if not new.is_zero]
            trace.append(([deg for deg, _ in held], sum(new.is_zero for _, new in held),
                          len(_normalize(nonzero)) < len(nonzero)))
        eqs = _normalize(rewritten)


def _reference_json(names, eliminated, residual):
    """``EliminationReport.to_json(with_log=True)`` written from the reference Polynomials."""
    gone = dict(eliminated)
    return {"initial": len(names),
            "eliminated": [names[k] for k, _ in eliminated],
            "surviving": [name for k, name in enumerate(names) if k not in gone],
            "residual": [polynomial_to_str(eq, names) for eq in residual],
            "residual_degrees": [eq.total_degree() for eq in residual],
            "substitutions": [{"param": names[k], "expr": polynomial_to_str(expr, names)}
                              for k, expr in eliminated]}


def _assert_matches_reference(eqs, nparams, names=None, trace=None):
    rep = eliminate_linear(eqs, nparams, names)
    eliminated, residual = _reference_elimination(eqs, nparams, trace)
    assert rep.eliminated == tuple(eliminated)
    assert rep.residual == tuple(residual)
    assert rep.survivors == tuple(k for k in range(nparams) if k not in dict(eliminated))
    names = tuple(f"a{k + 1}" for k in range(nparams)) if names is None else names
    assert rep.to_json(with_log=True) == _reference_json(names, eliminated, residual)
    return rep


def _random_system(rng):
    nparams = rng.randint(1, 6)

    def coefficient():
        c = rng.choice([1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-3, 4), Fraction(7, 6)])
        return QQ.of(c)

    def monomial():
        if rng.random() < 0.4:
            k = rng.randrange(nparams)
            return tuple(int(v == k) for v in range(nparams))
        return tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(nparams))

    eqs = []
    for _ in range(rng.randint(1, 7)):
        eqs.append(Polynomial(QQ, nparams, [(monomial(), coefficient())
                                            for _ in range(rng.randint(1, 4))]))
        roll = rng.random()
        if roll < 0.2:
            eqs.append(eqs[rng.randrange(len(eqs))].scale(coefficient()))  # equal up to a scalar
        elif roll < 0.3:
            eqs.append(Polynomial.zero(QQ, nparams))
    rng.shuffle(eqs)
    return eqs, nparams


def test_elimination_matches_the_direct_algorithm_on_random_systems():
    rng = random.Random(2024)
    seen = {"eliminated": 0, "residual": 0, "fraction": 0, "non-monic": 0, "zero": 0, "scaled": 0}
    for _ in range(300):
        eqs, nparams = _random_system(rng)
        rep = _assert_matches_reference(eqs, nparams)
        seen["eliminated"] += len(rep.eliminated)
        seen["residual"] += bool(rep.residual)
        seen["fraction"] += any(isinstance(c, Fraction) for eq in eqs for _, c in eq.terms)
        seen["non-monic"] += any(eq and eq.lc != 1 for eq in eqs)
        seen["zero"] += any(eq.is_zero for eq in eqs)
        seen["scaled"] += len(_normalize(eqs)) < len([eq for eq in eqs if eq])
    assert min(seen.values()) >= 20, seen


def _many_parameter_system(rng):
    """7-12 parameters: equations with a bare linear term and pivots off +-1, multiples
    of them, which vanish when their pivot is substituted, and sums q + p*u, which
    become q up to a scalar when p's pivot is."""
    nparams = rng.randint(7, 12)

    def coefficient():
        return QQ.of(rng.choice([1, -1, 2, -2, 3, -5, 7, Fraction(1, 2), Fraction(-3, 4)]))

    def monomial(avoid=None):
        mono = [0] * nparams
        for k in rng.sample([k for k in range(nparams) if k != avoid], rng.randint(1, 2)):
            mono[k] = rng.choice((1, 1, 2))
        return tuple(mono)

    eqs = []
    for _ in range(rng.randint(2, 5)):
        k = rng.randrange(nparams)
        terms = {tuple(int(v == k) for v in range(nparams)): coefficient()}
        for _ in range(rng.randint(0, 3)):
            terms[monomial(avoid=k)] = coefficient()
        if rng.random() < 0.5:
            terms[(0,) * nparams] = coefficient()
        eqs.append(Polynomial(QQ, nparams, terms))
    for _ in range(rng.randint(1, 4)):
        p, q = rng.choice(eqs), rng.choice(eqs)
        u = Polynomial.monomial(QQ, nparams, monomial(), coefficient())
        eqs.append(p * u if rng.random() < 0.4 else q + p * u)
    rng.shuffle(eqs)
    return eqs, nparams


def test_elimination_rewrites_match_the_direct_algorithm_with_many_parameters(monkeypatch):
    # every pivot of the benchmark families is c = +-1, so the c^deg scaling and
    # the restarts are met here: half the systems start at the narrowest fields
    # that fit their input, so a product in a step outgrows them
    rng = random.Random(3030)
    narrow, runs = [False], []
    start, packed = poly._start_width, generic_cells._eliminate_packed
    monkeypatch.setattr(poly, "_start_width",
                        lambda top: top.bit_length() + 1 if narrow[0] else start(top))
    monkeypatch.setattr(generic_cells, "_eliminate_packed",
                        lambda eqs, P: runs.append(P.width) or packed(eqs, P))
    seen = dict.fromkeys(("c not +-1", "c = -1", "a_k-degree >= 2", "a_k-degree >= 2, c not +-1",
                          "rewritten to 0", "made equal", "restart"), 0)
    for _ in range(400):
        eqs, nparams = _many_parameter_system(rng)
        narrow[0], trace = rng.random() < 0.5, []
        runs.clear()
        rep = _assert_matches_reference(eqs, nparams, trace=trace)
        assert len(trace) == len(rep.steps)
        for (_, c, _), (degrees, zeros, equal) in zip(rep.steps, trace):
            seen["c not +-1"] += abs(c) != 1 and bool(degrees)
            seen["c = -1"] += c == -1 and bool(degrees)
            seen["a_k-degree >= 2"] += sum(deg >= 2 for deg in degrees)
            seen["a_k-degree >= 2, c not +-1"] += abs(c) != 1 and any(deg >= 2 for deg in degrees)
            seen["rewritten to 0"] += zeros
            seen["made equal"] += equal
        # the input fits the first width, so a restart is raised by a product in a step
        seen["restart"] += len(runs) - 1
    assert min(seen.values()) >= 20, seen


def test_elimination_matches_the_direct_algorithm_on_residual_families():
    for gens, n in ((EX21, 3), (EX22, 4), (EX23, 4)):
        fam = generic_family(gens, n, graded=True)
        rep = _assert_matches_reference(buchberger_equations(fam), fam.nparams)
        assert rep.residual


def test_elimination_widens_exponent_fields_when_they_overflow(monkeypatch):
    widths = []
    packed = generic_cells._eliminate_packed

    def spy(eqs, P):
        widths.append(P.width)
        return packed(eqs, P)

    monkeypatch.setattr(generic_cells, "_eliminate_packed", spy)
    # every packed path starts at the narrowest fields that fit its input
    monkeypatch.setattr(poly, "_start_width", lambda top: top.bit_length() + 1)
    P = lambda terms: Polynomial(QQ, 3, terms)
    # a1 -> a2^3 turns a1^3 + a3 into a2^9 + a3, past the 3-bit fields that fit a2^3
    eqs = [P({(1, 0, 0): 1, (0, 3, 0): -1}), P({(3, 0, 0): 2, (0, 0, 1): 1})]
    rep = _assert_matches_reference(eqs, 3)
    assert len(widths) == 2 and widths[0] == 3 and widths[0] < widths[1]
    assert rep.to_json(with_log=True)["substitutions"] == [
        {"param": "a1", "expr": "a2^3"}, {"param": "a3", "expr": "-2*a2^9"}]
    assert rep.survivors == (1,) and not rep.residual
    # packed input widens too, from its own width: the equations of
    # (x^3, x^2 y, y^4) leave buchberger_equations at 4 bits and need 8 here
    widths.clear()
    fam = generic_family([(3, 0), (2, 1), (0, 4)], 2, graded=False)
    eqs = buchberger_equations(fam)
    assert isinstance(eqs, ParameterEquations)
    _assert_matches_reference(eqs, fam.nparams)
    assert len(widths) >= 2 and widths[0] == eqs.packing.width and widths == sorted(set(widths))


def _coprime(a, b):
    return not any(i and j for i, j in zip(a, b))


def _reference_equations(family, all_pairs=False):
    """The S-pair reduction written with Polynomial coefficients in the parameters.

    Each member becomes a monic (lead, tail) pair whose tail coefficients are
    the Polynomials -a_k; every S-pair (``tuple_kernel.s_pair``) of two members
    whose leads share a variable, or of any two members with ``all_pairs``, is
    divided by the members with the tuple kernel, and the remainder coefficients, in
    decreasing monomial order, go through ``_normalize``.
    """
    npar = family.nparams

    def minus_a(k):
        return Polynomial.monomial(QQ, npar, tuple(int(v == k) for v in range(npar)), -1)

    reducers = [(lead,
                 [(mono, minus_a(k)) for mono, k in support])
                for lead, support in family.members]
    eqs = []
    for a, b in itertools.combinations(reducers, 2):
        if not all_pairs and _coprime(a[0], b[0]):
            continue
        rem = normal_form_dict(s_pair(a, b), reducers)
        eqs.extend(rem[mono] for mono in sorted(rem, reverse=True))
    return _normalize(eqs)


def _generic_elim_families():
    """The families of the generic_elim benchmark, and EX21, EX22 and EX23."""
    cases = [(E.generators(minimal=True), 2, graded)
             for d in range(1, 8) for E in enumerate_staircases(d) for graded in (True, False)]
    cases += [(list(gens), 3, True) for size in range(1, 4)
              for gens in itertools.combinations(monomials_of_degree(3, 3), size)]
    cases += [(EX21, 3, True), (EX22, 4, True), (EX23, 4, True)]
    return [generic_family(*case) for case in cases]


def test_buchberger_equations_match_the_polynomial_coefficient_reduction():
    seen = {"families": 0, "equations": 0, "fraction": 0}
    for fam in _generic_elim_families():
        eqs = buchberger_equations(fam)
        reference = _reference_equations(fam)
        assert list(eqs) == reference
        assert [eq.to_str(fam.names) for eq in eqs] == [eq.to_str(fam.names) for eq in reference]
        assert all(eq.field is QQ and eq.nvars == fam.nparams for eq in eqs)
        seen["families"] += 1
        seen["equations"] += len(eqs)
        seen["fraction"] += any(isinstance(c, Fraction) for eq in eqs for _, c in eq.terms)
    assert seen == {"families": 266, "equations": 1614, "fraction": 11}, seen


def test_coprime_pairs_add_no_equation_to_the_report():
    # the product criterion: the all-pairs list only adds equations, and the
    # elimination ends the same, substitution log included
    dropped = 0
    for fam in _generic_elim_families():
        eqs = buchberger_equations(fam)
        full = _reference_equations(fam, all_pairs=True)
        rest = iter(eq.to_str(fam.names) for eq in full)
        assert all(eq.to_str(fam.names) in rest for eq in eqs), fam.E.gens
        dropped += len(full) - len(eqs)
        assert (eliminate_linear(full, fam.nparams, fam.names).to_json(with_log=True)
                == eliminate_linear(eqs, fam.nparams, fam.names).to_json(with_log=True))
    assert dropped == 1904 - 1614


@pytest.mark.parametrize("q, expected", [
    (2, {"families": 50, "points": 20683, "groebner": 7591}),
    (3, {"families": 38, "points": 4936, "groebner": 4924}),
])
def test_equations_vanish_exactly_at_the_groebner_points_over_small_fields(q, expected):
    # every 2-variable family of colength <= 6 with at most 5,000 points over F_q
    F = GF(q)
    seen = {"families": 0, "points": 0, "groebner": 0}
    for d in range(1, 7):
        for E in enumerate_staircases(d):
            for graded in (True, False):
                fam = generic_family(E.generators(minimal=True), 2, graded)
                if q ** fam.nparams > 5000:
                    continue
                eqs = buchberger_equations(fam)
                unpack = eqs.packing.unpack
                rows = [[(unpack(key), c) for key, c in terms] for terms in eqs.rows]
                for point in itertools.product(range(q), repeat=fam.nparams):
                    vanish = all(sum(c * math.prod(v ** e for v, e in zip(point, mono))
                                     for mono, c in terms) % q == 0 for terms in rows)
                    members = instantiate(fam, [F.of(v) for v in point], F)
                    assert vanish == is_groebner_basis(members), (E.m, graded, point)
                    seen["points"] += 1
                    seen["groebner"] += vanish
                seen["families"] += 1
    assert seen == expected


def test_buchberger_equations_hold_no_integral_fraction():
    count = 0
    for d in range(1, 8):
        for E in enumerate_staircases(d):
            for graded in (True, False):
                fam = generic_family(E.generators(minimal=True), 2, graded)
                for eq in buchberger_equations(fam):
                    count += 1
                    assert not any(isinstance(c, Fraction) and c.denominator == 1
                                   for _, c in eq.terms), eq.terms
    assert count == 347


def test_buchberger_equations_widen_exponent_fields_when_they_overflow(monkeypatch):
    widths = []
    packed = generic_cells._buchberger_packed

    def spy(family, P):
        widths.append(P.width)
        return packed(family, P)

    monkeypatch.setattr(generic_cells, "_buchberger_packed", spy)
    monkeypatch.setattr(poly, "_start_width", lambda top: top.bit_length() + 1)
    # each run starts from 3-bit fields, the narrowest that fit the family's
    # exponents; the x-monomials of an S-pair outgrow them in the first family,
    # and a parameter exponent outgrows them before any x-exponent in the second
    for gens, nvars in (([(2, 1, 0), (1, 1, 1)], 3),
                        ([(1, 0, 0, 1, 0), (0, 1, 0, 1, 0), (0, 0, 1, 0, 1)], 5)):
        fam = generic_family(gens, nvars, graded=True)
        expected = _reference_equations(fam)
        assert max(max(mono) for eq in expected for mono, _ in eq.terms) >= 2
        widths.clear()
        eqs = buchberger_equations(fam)
        assert len(widths) >= 2 and widths[0] == 3 and widths == sorted(set(widths))
        assert list(eqs) == expected
        assert [eq.to_str(fam.names) for eq in eqs] == [eq.to_str(fam.names) for eq in expected]


def test_equations_read_as_an_immutable_sequence_of_monic_polynomials():
    fam = generic_family(EX22, 4, graded=True)
    eqs = buchberger_equations(fam)
    reference = _reference_equations(fam)
    assert isinstance(eqs, ParameterEquations) and isinstance(eqs, Sequence)
    assert len(eqs) == len(reference) > 1
    assert [eqs[i] for i in range(len(eqs))] == list(eqs) == reference
    assert eqs[-1] == reference[-1]
    assert isinstance(eqs[1:], ParameterEquations) and list(eqs[1:]) == reference[1:]
    assert reference[0] in eqs and eqs.index(reference[1]) == 1
    with pytest.raises(IndexError):
        eqs[len(eqs)]
    assert eqs != reference  # compared by identity, as the records are


def test_reports_from_the_narrowest_fields_equal_the_default_ones(monkeypatch):
    # one seam sets the start width of every packed stage: from the narrowest
    # fields that fit each family the equations restart wider, and no report moves
    families = _generic_elim_families()
    expected = [cell_report(fam.E, fam.nvars, fam.graded)[1].to_json(with_log=True)
                for fam in families]
    runs = []
    packed = generic_cells._buchberger_packed
    monkeypatch.setattr(generic_cells, "_buchberger_packed",
                        lambda family, P: runs.append(P.width) or packed(family, P))
    monkeypatch.setattr(poly, "_start_width", lambda top: top.bit_length() + 1)
    for fam, report in zip(families, expected):
        assert cell_report(fam.E, fam.nvars, fam.graded)[1].to_json(with_log=True) == report
    assert len(runs) - len(families) == 162


def test_packed_and_polynomial_entry_points_agree():
    for fam in _generic_elim_families():
        eqs = buchberger_equations(fam)
        packed = eliminate_linear(eqs, fam.nparams, fam.names)
        plain = eliminate_linear(list(eqs), fam.nparams, fam.names)
        assert packed.to_json(with_log=True) == plain.to_json(with_log=True)


def test_cell_report_packs_no_parameter_monomial(monkeypatch):
    packed, built, unpacked = [], [], []
    pack, polynomial = generic_cells._Packing.pack, generic_cells._Packing.polynomial
    unpack = generic_cells._Packing.unpack
    fam = generic_family(EX22, 4, graded=True)
    # x-monomials are packed too; a parameter monomial has nparams entries
    monkeypatch.setattr(generic_cells._Packing, "pack",
                        lambda P, mono: (len(mono) == fam.nparams and packed.append(mono))
                        or pack(P, mono))
    monkeypatch.setattr(generic_cells._Packing, "polynomial",
                        lambda P, terms, den: built.append(terms) or polynomial(P, terms, den))
    monkeypatch.setattr(generic_cells._Packing, "unpack",
                        lambda P, key: unpacked.append(key) or unpack(P, key))
    _, rep = cell_report(EX22, 4, graded=True)
    assert packed == []
    # Polynomials are built for the 2 residual equations only
    assert len(built) == len(rep.residual) == 2
    # the log stays packed: its JSON and names unpack no key and build nothing
    built.clear(), unpacked.clear()
    data = rep.to_json(with_log=True)
    assert len(data["substitutions"]) == len(rep.eliminated_names) == len(rep.steps) == 3
    assert built == [] and unpacked == []
    # reading the log builds its 3 expressions, equal to the text written off the keys
    eliminated = rep.eliminated
    assert len(built) == len(eliminated) == 3
    assert [expr.to_str(rep.names) for _, expr in eliminated] == [
        entry["expr"] for entry in data["substitutions"]]


def test_packed_log_text_equals_the_built_polynomials():
    # the substitution log is written off its packed keys; the text must be
    # polynomial_to_str of the Polynomials that report.eliminated builds
    rng = random.Random(2027)
    seen = {"fraction": 0, "negative c": 0, "empty rest": 0, "a10": 0, "custom names": 0}
    for _ in range(300):
        nparams = rng.randint(1, 14)
        P = _Packing(nparams, rng.choice((3, 8, 16)))
        steps = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(nparams)
            keys = {P.pack(tuple(rng.choice((0, 0, 0, 1, 2, 3)) * (v != k) for v in range(nparams)))
                    for _ in range(rng.choice((0, 1, 2, 4)))}
            rest = tuple((key, rng.choice((1, -1, 2, -3, 6, -10, 21)))
                         for key in sorted(keys, reverse=True))
            steps.append((k, rng.choice((1, -1, 2, -3, 4, -6, 7)), rest))
        custom = rng.random() < 0.3
        names = (tuple(f"{rng.choice(('p', 'q_', 'lam'))}{k}" for k in range(nparams)) if custom
                 else tuple(f"a{k + 1}" for k in range(nparams)))
        rep = generic_cells.EliminationReport(names, P, tuple(steps), ())
        written = [entry["expr"] for entry in rep.to_json(with_log=True)["substitutions"]]
        assert written == [polynomial_to_str(expr, names) for _, expr in rep.eliminated]
        assert [entry["param"] for entry in rep.to_json(with_log=True)["substitutions"]] == [
            names[k] for k, _, _ in steps] == list(rep.eliminated_names)
        seen["fraction"] += any(isinstance(c, Fraction) for _, e in rep.eliminated for _, c in e.terms)
        seen["negative c"] += any(c < 0 for _, c, _ in steps)
        seen["empty rest"] += "0" in written
        seen["a10"] += any("a10" in text for text in written) and not custom
        seen["custom names"] += custom and any(text != "0" for text in written)
    assert min(seen.values()) >= 20, seen


def test_packed_log_text_with_wide_exponents_and_long_coefficients():
    # the log's monomials are written straight off their keys: exponents of several
    # digits up to the field maximum (127 at width 8), coefficients over 10^6 and
    # fractions whose denominator does not divide the numerator, on 10-16 parameters
    rng = random.Random(3031)
    seen = dict.fromkeys(("field maximum", "exponent >= 10", "coefficient > 10^6", "fraction",
                          "a10 or later"), 0)
    for _ in range(200):
        nparams = rng.randint(10, 16)
        P = _Packing(nparams, rng.choice((8, 16)))
        steps = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randrange(nparams)
            keys = set()
            for _ in range(rng.randint(0, 5)):
                mono = [0] * nparams
                for j in rng.sample([j for j in range(nparams) if j != k], rng.randint(1, 3)):
                    mono[j] = rng.choice((1, 2, rng.randint(10, P.fmask), P.fmask))
                keys.add(P.pack(mono))
            sizes = (1, 6, 10**6 + 3, rng.randint(10**6, 10**12))
            rest = tuple((key, rng.choice((1, -1)) * rng.choice(sizes))
                         for key in sorted(keys, reverse=True))
            steps.append((k, rng.choice((1, -1, 3, -4, 10**6 + 1, -(10**7 + 9))), rest))
        names = tuple(f"a{k + 1}" for k in range(nparams))
        rep = generic_cells.EliminationReport(names, P, tuple(steps), ())
        written = [entry["expr"] for entry in rep.to_json(with_log=True)["substitutions"]]
        assert written == [polynomial_to_str(expr, names) for _, expr in rep.eliminated]
        terms = [term for _, expr in rep.eliminated for term in expr.terms]
        seen["field maximum"] += any(P.fmask in mono for mono, _ in terms)
        seen["exponent >= 10"] += any(max(mono) >= 10 for mono, _ in terms)
        seen["coefficient > 10^6"] += any(abs(c) > 10**6 for _, c in terms)
        seen["fraction"] += any(isinstance(c, Fraction) for _, c in terms)
        seen["a10 or later"] += any(e and k >= 9 for mono, _ in terms for k, e in enumerate(mono))
    assert min(seen.values()) >= 20, seen


def test_elimination_with_ten_or_more_parameters_and_custom_names():
    rng = random.Random(1012)
    seen = {"a10 logged": 0, "fraction": 0}
    for _ in range(60):
        nparams = rng.randint(10, 13)
        eqs = []
        for _ in range(rng.randint(2, 6)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                if rng.random() < 0.5:
                    k = rng.randrange(nparams)
                    mono = tuple(int(v == k) for v in range(nparams))
                else:
                    mono = tuple(rng.choice((0,) * 8 + (1, 2)) for _ in range(nparams))
                terms[mono] = QQ.of(rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))))
            eqs.append(Polynomial(QQ, nparams, terms))
        names = tuple(f"b_{k}" for k in range(nparams)) if rng.random() < 0.5 else None
        rep = _assert_matches_reference(eqs, nparams, names)
        log = rep.to_json(with_log=True)["substitutions"]
        seen["a10 logged"] += names is None and any("a10" in e["expr"] or e["param"] == "a10"
                                                    for e in log)
        seen["fraction"] += any("/" in e["expr"] for e in log)
    assert min(seen.values()) >= 5, seen


class _Tagged(int):
    """An int coefficient that notes its row in ``log`` when it is multiplied.

    Substituting into a row multiplies each of its coefficients by a power of c,
    with the coefficient on the left, so the log names every row rewritten.
    """

    def __new__(cls, value, row, log):
        self = super().__new__(cls, value)
        self.row, self.log = row, log
        return self

    def __mul__(self, other):
        self.log.add(self.row)
        return int(self) * other


def test_the_picked_equation_is_never_substituted():
    # r0 = a1 + a2 gives a1 = -a2, rewritten into r1 = a1*a3 + 1 only; then
    # r2 = a2^2 + a3 gives a3 = -a2^2, rewritten into the new r1 only
    P = _Packing(3, 8)
    rewritten = set()
    rows = {"r0": [((1, 0, 0), 1), ((0, 1, 0), 1)],
            "r1": [((1, 0, 1), 1), ((0, 0, 0), 1)],
            "r2": [((0, 2, 0), 1), ((0, 0, 1), 1)]}
    eqs = ParameterEquations(P, tuple(
        tuple((P.pack(mono), _Tagged(c, name, rewritten)) for mono, c in terms)
        for name, terms in rows.items()))
    rep = eliminate_linear(eqs, 3)
    assert rep.to_json(with_log=True) == {
        "initial": 3, "eliminated": ["a1", "a3"], "surviving": ["a2"],
        "residual": ["a2^3 + 1"], "residual_degrees": [3],
        "substitutions": [{"param": "a1", "expr": "-a2"}, {"param": "a3", "expr": "-a2^2"}]}
    assert rewritten == {"r1"}


def test_elimination_rejects_equations_in_another_number_of_variables():
    eq = Polynomial(QQ, 3, {(0, 0, 1): 1, (1, 0, 0): 1})
    with pytest.raises(DomainError, match="3 variables, expected 2 parameters"):
        eliminate_linear([eq], 2)  # used to drop a3 and report a1 = -1
    assert eliminate_linear([eq], 3).to_json(with_log=True)["substitutions"] == [
        {"param": "a1", "expr": "-a3"}]


def test_elimination_rejects_packed_equations_in_another_number_of_parameters():
    fam = generic_family(EX22, 4, graded=True)
    eqs = buchberger_equations(fam)
    for nparams in (fam.nparams - 1, fam.nparams + 1):
        with pytest.raises(DomainError, match=f"8 parameters, expected {nparams}"):
            eliminate_linear(eqs, nparams)


def test_elimination_rejects_a_name_count_other_than_nparams():
    eq = Polynomial(QQ, 2, {(1, 0): 1, (0, 1): 1})
    for names in (("p",), ("p", "q", "r")):
        with pytest.raises(DomainError, match=f"{len(names)} parameter names, expected 2"):
            eliminate_linear([eq], 2, names)
    assert eliminate_linear([eq], 2, ("p", "q")).eliminated_names == ("p",)


def test_elimination_needs_equations_over_qq():
    F = GF(5)
    linear = Polynomial(F, 2, {(1, 0): 1, (0, 2): 2})   # a1 is eligible
    no_pick = Polynomial(F, 2, {(1, 1): 1, (0, 0): 1})  # nothing is eligible
    for eqs in ([linear], [no_pick], [Polynomial(QQ, 2, {(1, 0): 1}), no_pick]):
        with pytest.raises(DomainError):
            eliminate_linear(eqs, 2)


def test_elimination_never_inverts_parameters():
    fam, rep = cell_report(EX23, 4, graded=True)
    for k, expr in rep.eliminated:
        for mono, c in expr.terms:
            assert mono[k] == 0  # the eliminated parameter is gone from its expression


def test_points_of_residual_variety_give_the_expected_cell():
    rng = random.Random(40)
    for gens, n in ((EX22, 4), (EX21, 3)):
        fam = generic_family(gens, n, graded=True)
        eqs = buchberger_equations(fam)
        rep = eliminate_linear(eqs, fam.nparams, fam.names)
        E = MonomialIdeal(n, gens)
        # survivors all zero is a point of the residual variety
        values = back_substitute(rep)
        members = instantiate(fam, values)
        assert is_groebner_basis(members)
        assert leading_term_ideal(buchberger_reduced(members)) == E


def test_back_substitute_over_qq_gives_ints_where_integral():
    # the logged expressions are evaluated by Polynomial.evaluate, which
    # gives an int wherever a rational value is integral
    fam, rep = cell_report(Staircase((0, 1, 2)).generators(minimal=True), 2, graded=False)
    values = back_substitute(rep, {k: Fraction(1, 2) for k in rep.survivors})
    eliminated = [values[k] for k, _ in rep.eliminated]
    assert eliminated == [Fraction(-1, 4), 0, 0]
    assert [type(v) for v in eliminated] == [Fraction, int, int]


def test_graded_n2_consistency_small():
    for d in range(1, 7):
        for E in enumerate_staircases(d):
            fam, rep = cell_report(E.generators(minimal=True), 2, graded=True)
            assert affine_space_check(rep), E.m
            assert len(rep.survivors) == cell_dimension(E, CellKind.V3)


def test_ungraded_n2_consistency_small():
    for d in range(1, 7):
        for E in enumerate_staircases(d):
            fam, rep = cell_report(E.generators(minimal=True), 2, graded=False)
            assert affine_space_check(rep), E.m
            assert len(rep.survivors) == cell_dimension(E, CellKind.V0)


def test_random_points_of_affine_cells_pass_buchberger():
    rng = random.Random(13)
    for d in (3, 5):
        for E in enumerate_staircases(d):
            fam, rep = cell_report(E.generators(minimal=True), 2, graded=False)
            assert affine_space_check(rep)
            survivor_values = {k: QQ.of(rng.randint(-3, 3)) for k in rep.survivors}
            values = back_substitute(rep, survivor_values)
            members = instantiate(fam, values)
            assert is_groebner_basis(members)
            assert leading_term_ideal(buchberger_reduced(members)) == E.monomial_ideal()


def test_instantiate_over_finite_field():
    F = GF(3)
    E = Staircase((0, 2))
    fam = generic_family(E.generators(minimal=True), 2, graded=False)
    values = [F.of(1), F.of(2), F.of(0), F.of(1)]
    members = instantiate(fam, values, field=F)
    assert all(m.field is F for m in members)
    assert is_groebner_basis(members)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(4), GF(5)], ids=["QQ", "GF2", "GF4", "GF5"])
def test_instantiate_gives_canonical_terms(field):
    rng = random.Random(3)
    for d in range(1, 5):
        for E in enumerate_staircases(d):
            for graded in (False, True):
                fam = generic_family(E.generators(minimal=True), 2, graded=graded)
                for _ in range(5):
                    if field.char:
                        values = [rng.choice(field.elements()) for _ in range(fam.nparams)]
                    else:
                        values = [QQ.of(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(fam.nparams)]
                    for p, (lead, _) in zip(instantiate(fam, values, field), fam.members):
                        assert p.field is field and p.nvars == 2 and p.lt == lead
                        assert p.terms == Polynomial(field, 2, p.terms).terms
                        assert all(c for _, c in p.terms)


def test_report_json():
    fam, rep = cell_report(EX22, 4, graded=True)
    data = rep.to_json()
    assert data["initial"] == 8
    assert len(data["eliminated"]) == 3
    assert len(data["surviving"]) == 5
    assert data["residual_degrees"] == [2, 2]
