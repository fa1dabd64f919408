"""Generic cell equations, linear elimination, and their soundness."""

import hashlib
import itertools
import json
import random

import pytest

from hbcells.errors import DomainError
from hbcells.field import GF, QQ
from hbcells.generic_cells import (affine_space_check, back_substitute,
                                   buchberger_equations, cell_report,
                                   eliminate_linear, generic_family,
                                   instantiate, single_parameter_factor)
from hbcells.groebner import (MonomialIdeal, buchberger_reduced,
                              is_groebner_basis, leading_term_ideal)
from hbcells.hilbert_burch import CellKind, cell_dimension
from hbcells.poly import Polynomial, monomials_of_degree
from hbcells.staircase import Staircase, enumerate_staircases

EX21 = [(0, 0, 4), (0, 4, 0), (1, 2, 1), (3, 0, 1)]                      # n=3
EX22 = [(0, 0, 0, 2), (0, 1, 0, 1), (0, 2, 0, 0), (1, 0, 0, 1)]          # n=4
EX23 = [(0, 0, 0, 2), (0, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 0), (2, 0, 0, 0)]


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


def test_monomial_family_has_no_equations():
    fam = generic_family([(2, 0), (1, 1), (0, 2)], 2, graded=True)
    assert fam.nparams == 0
    assert buchberger_equations(fam) == []


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
