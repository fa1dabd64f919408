"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything here is exact arithmetic; tolerances are zero throughout.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import random
import time

from hbcells.betti import (betti_numbers, g_dim, graded_matrix, lex_codim,
                           resolution_degrees, stratum_descriptor)
from hbcells.census import brute_force_ideal_count, cell_census
from hbcells.generic_cells import affine_space_check, cell_report
from hbcells.groebner import (buchberger_reduced, graded_beta0_profile,
                              leading_term_ideal)
from hbcells.hilbert_burch import (CellKind, canonical_frame, canonical_matrix,
                                   cell_dimension, cell_kinds_of_ideal,
                                   cell_matrix_from_parameters, minors_ideal,
                                   random_cell_matrix, slot_set,
                                   validate_cell_matrix)
from hbcells.poly import monomials_of_degree
from hbcells.staircase import (HSeries, Staircase, enumerate_staircases,
                               staircase_from_monomial_ideal)
from test_generic_cells import single_parameter_factor


def _report(name, fn):
    start = time.time()
    try:
        fn()
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}  ({time.time() - start:.1f}s)")


def test_criterion_01_frame_reproduction():
    def check():
        E = Staircase((0, 3, 3, 5))
        frame = canonical_frame(E)
        assert [[p.to_str() for p in row] for row in frame.M0] == [
            ["y^3", "0", "0"], ["-x", "1", "0"], ["0", "-x", "y^2"], ["0", "0", "-x"]]
        assert frame.U == ((3, 2, 3), (1, 0, 1), (2, 1, 2), (1, 0, 1))
        assert set(frame.S) == {(2, 1), (3, 1), (4, 1), (4, 3)}
        assert [cell_dimension(E, k) for k in CellKind] == [16, 11, 8, 4]

    _report("01 canonical frame, slot set and dimensions for m=(0,3,3,5)", check)


def test_criterion_02_bijection_property_suite():
    def check():
        counter = itertools.count(1)
        for d in range(1, 13):
            for E in enumerate_staircases(d):
                for kind in CellKind:
                    for _ in range(20):
                        seed = next(counter)
                        N = random_cell_matrix(E, kind, seed)
                        fs = minors_ideal(N)
                        # (a) independent Buchberger oracle recovers E
                        gb = buchberger_reduced(fs)
                        assert staircase_from_monomial_ideal(leading_term_ideal(gb)) == E, (
                            E.m, kind, seed)
                        # (b) the inverse map returns N exactly
                        assert canonical_matrix(fs) == (E, N), (E.m, kind, seed)
                        # (c) ideal-side predicates == matrix-side membership
                        membership = {k for k in CellKind if validate_cell_matrix(N, k)[0]}
                        assert cell_kinds_of_ideal(fs) == membership, (E.m, kind, seed)

    _report("02 matrix<->ideal bijection suite (colength <= 12, 20 draws per kind)", check)


def test_criterion_03_global_point_count():
    def check():
        assert cell_census(2).total == {4: 1, 3: 1}  # q^4 + q^3
        for d in (1, 2, 3):
            census = cell_census(d)
            for q in (2, 3):
                assert census.evaluate(q) == brute_force_ideal_count(d, q), (d, q)

    _report("03 cell census equals exhaustive ideal count (d <= 3, q in {2,3})", check)


def test_criterion_04_resolution_strand_reproduction():
    def check():
        E = Staircase.from_d((1, 2, 1, 0, 1, 2))
        rd = resolution_degrees(E)
        assert rd.a == (6, 6, 7, 7, 6, 6, 7)
        assert rd.b == (7, 8, 8, 7, 7, 8)
        assert rd.w(7) == (3, 4, 7) and rd.v(7) == (1, 4, 5)
        gm = graded_matrix(E, 7)
        assert gm.entries == ((("p", 3, 1), ("zero",), ("zero",)),
                              (("p", 4, 1), ("one",), ("zero",)),
                              (("p", 7, 1), ("zero",), ("p", 7, 5)))
        assert gm.star_entries == ((("p", 3, 1), ("zero",)),
                                   (("p", 7, 1), ("p", 7, 5)))
        assert stratum_descriptor(E, 7, 1).condition_strings() == ["p1*p7"]
        assert stratum_descriptor(E, 7, 2).condition_strings() == ["p1", "p3", "p7"]
        assert cell_dimension(E, CellKind.V3) == 8

    _report("04 degree-7 strand displays and strata for d=(1,2,1,0,1,2)", check)


def test_criterion_05_rank_formula_vs_generator_oracle():
    def check():
        rng = random.Random(20260809)
        for d in range(1, 13):
            for E in enumerate_staircases(d):
                slots = slot_set(E)
                for _ in range(50):
                    p = {s: rng.randint(-3, 3) for s in slots}
                    fs = minors_ideal(cell_matrix_from_parameters(E, p))
                    table = betti_numbers(E, p)
                    formula = {j: b0 for j, (b0, _) in table.items() if b0}
                    assert graded_beta0_profile(fs) == formula, (E.m, p)

    _report("05 rank formula matches generator-count oracle (colength <= 12, 50 draws)", check)


def test_criterion_06_dimension_formulas_agree():
    def check():
        def all_h(total_max):
            out = []
            for c in range(1, total_max + 1):
                prefix = tuple(range(1, c + 1))
                if sum(prefix) > total_max:
                    break

                def tails(bound, budget):
                    yield ()
                    for v in range(min(bound, budget), 0, -1):
                        for rest in tails(v, budget - v):
                            yield (v,) + rest

                out.extend(prefix + tail for tail in tails(c, total_max - sum(prefix)))
            return out

        series = all_h(14)
        assert len(series) > 100
        for h in series:
            hs = HSeries(h)
            assert g_dim(hs, "bella") == g_dim(hs, "brutta"), h
        assert g_dim(HSeries((1, 2, 1)), "bella") == 2
        assert g_dim(HSeries((1, 2, 3, 2, 1)), "bella") == 4

    _report("06 closed dimension formula equals slot count (all h, total <= 14)", check)


def test_criterion_07_lex_segment_strata_example():
    def check():
        L = Staircase((0, 1, 2, 4, 5, 6, 7, 9, 10))
        assert cell_dimension(L, CellKind.V3) == 22
        g9, g10 = graded_matrix(L, 9), graded_matrix(L, 10)
        assert g9.shape == (4, 2) and g10.shape == (2, 4)
        p9 = [tag[1:] for row in g9.entries for tag in row]
        p10 = [tag[1:] for row in g10.entries for tag in row]
        assert all(tag[0] == "p" for row in g9.entries for tag in row)
        assert all(tag[0] == "p" for row in g10.entries for tag in row)
        assert len(set(p9)) == 8 and len(set(p10)) == 8
        assert not (set(p9) & set(p10))
        assert lex_codim(L, 9, 3) == 3

    _report("07 22-dimensional lex segment cell with 4x2 / 2x4 strand matrices", check)


def test_criterion_08_generic_cell_examples():
    def check():
        fam, rep = cell_report([(0, 0, 0, 2), (0, 1, 0, 1), (0, 2, 0, 0), (1, 0, 0, 1)],
                               4, graded=True)
        assert fam.nparams == 8
        assert len(rep.eliminated) == 3
        assert len(rep.residual) == 2
        assert rep.residual_degrees() == (2, 2)

        fam, rep = cell_report([(0, 0, 0, 2), (0, 1, 0, 1), (1, 0, 0, 1),
                                (1, 1, 0, 0), (2, 0, 0, 0)], 4, graded=True)
        assert fam.nparams == 16
        assert len(rep.eliminated) == 8
        assert len(rep.residual) == 3

        fam, rep = cell_report([(0, 0, 4), (0, 4, 0), (1, 2, 1), (3, 0, 1)],
                               3, graded=True)
        assert fam.nparams == 17
        assert len(rep.eliminated) == 2
        assert len(rep.residual) == 1
        assert single_parameter_factor(rep.residual[0]) is not None

    _report("08 four-variable and three-variable cell equation structure", check)


def test_criterion_09_cross_module_survivor_counts():
    def check():
        for d in range(1, 10):
            for E in enumerate_staircases(d):
                gens = E.generators(minimal=True)
                for graded, kind in ((True, CellKind.V3), (False, CellKind.V0)):
                    fam, rep = cell_report(gens, 2, graded)
                    assert affine_space_check(rep), (E.m, graded)
                    assert len(rep.survivors) == cell_dimension(E, kind), (E.m, graded)

    _report("09 elimination survivor counts equal cell dimensions (colength <= 9)", check)


def test_criterion_10_degree3_three_variable_cells_affine():
    def check():
        monos = monomials_of_degree(3, 3)
        for size in range(1, 7):
            for gens in itertools.combinations(monos, size):
                fam, rep = cell_report(list(gens), 3, graded=True)
                assert affine_space_check(rep), gens

    _report("10 every cell of degree-3 monomial ideals in 3 variables is affine", check)
