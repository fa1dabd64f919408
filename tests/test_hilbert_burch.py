"""The bijection between cell matrices and ideals, and everything around it."""

import hashlib
import json
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from hbcells import hilbert_burch
from hbcells.errors import DomainError
from hbcells.field import GF, QQ
from hbcells.groebner import buchberger_reduced, leading_term_ideal, normal_form
from hbcells.hilbert_burch import (CellKind, CellMatrix, _y_coefficients,
                                   canonical_frame, canonical_matrix, cell_dimension,
                                   cell_kinds_of_ideal,
                                   cell_matrix_from_parameters, minors_ideal,
                                   random_cell_matrix, slot_set,
                                   validate_cell_matrix)
from hbcells.poly import Polynomial, UniPoly, _convolve, parse_ideal, parse_polynomial
from hbcells.staircase import (Staircase, enumerate_staircases,
                               staircase_from_monomial_ideal)

E335 = Staircase((0, 3, 3, 5))


def P(text):
    return parse_polynomial(text, ("x", "y"))


# -- frame -------------------------------------------------------------------

def test_frame_matrix_display():
    fr = canonical_frame(E335)
    rows = [[p.to_str() for p in row] for row in fr.M0]
    assert rows == [["y^3", "0", "0"],
                    ["-x", "1", "0"],
                    ["0", "-x", "y^2"],
                    ["0", "0", "-x"]]
    assert fr.U == ((3, 2, 3), (1, 0, 1), (2, 1, 2), (1, 0, 1))
    assert set(fr.S) == {(2, 1), (3, 1), (4, 1), (4, 3)}


def test_frame_minors_are_the_generators():
    for d in range(1, 9):
        for E in enumerate_staircases(d):
            fs = minors_ideal(CellMatrix.zero(E))
            assert [f.lt for f in fs] == E.generators()
            assert all(len(f.terms) == 1 and f.lc == 1 for f in fs)


def test_frame_smallest_staircase():
    fr = canonical_frame(Staircase((0, 1)))
    assert [[p.to_str() for p in row] for row in fr.M0] == [["y"], ["-x"]]
    assert fr.S == ()  # u_21 = 1 = d_1 fails the strict bound


# -- dimensions ----------------------------------------------------------------

def test_dimensions_worked_example():
    dims = [cell_dimension(E335, k) for k in CellKind]
    assert dims == [16, 11, 8, 4]


def test_dimensions_point():
    assert cell_dimension(Staircase((0, 1)), CellKind.V0) == 2


def test_dimensions_section4_example():
    assert cell_dimension(Staircase((0, 1, 3, 4, 4, 5, 7)), CellKind.V3) == 8


def test_dimension_sums_match_slot_count():
    for d in range(1, 11):
        for E in enumerate_staircases(d):
            assert cell_dimension(E, CellKind.V0) == d + E.y_power
            assert cell_dimension(E, CellKind.V1) == d
            assert cell_dimension(E, CellKind.V2) == d - E.t
            assert cell_dimension(E, CellKind.V3) == len(slot_set(E))


def test_dimensions_count_free_coefficients():
    # the formulas must equal the literal number of free slots in each shape
    from hbcells.hilbert_burch import _run_end
    for d in range(1, 13):
        for E in enumerate_staircases(d):
            t = E.t
            t0 = sum((t + 2 - j) * E.d[j - 1] for j in range(1, t + 1))
            diag = sum(E.d)
            constants = sum(_run_end(E, j) + 1 - j
                            for j in range(1, t + 1) if E.d[j - 1] > 0)
            assert cell_dimension(E, CellKind.V0) == t0
            assert cell_dimension(E, CellKind.V1) == t0 - diag
            assert cell_dimension(E, CellKind.V2) == t0 - diag - constants


# -- cell matrix shape and membership -----------------------------------------

def test_shape_violations_rejected():
    z = UniPoly.zero(QQ)
    # degree too large in column 1 (d_1 = 3)
    entries = [[UniPoly(QQ, (0, 0, 0, 1)), z, z], [z] * 3, [z] * 3, [z] * 3]
    with pytest.raises(ValueError):
        CellMatrix(E335, entries)
    # nonzero above the diagonal
    entries = [[z, z, UniPoly(QQ, (1,))], [z] * 3, [z] * 3, [z] * 3]
    with pytest.raises(ValueError):
        CellMatrix(E335, entries)
    # column with d_j = 0 must vanish
    entries = [[z] * 3, [z, UniPoly(QQ, (1,)), z], [z] * 3, [z] * 3]
    with pytest.raises(ValueError):
        CellMatrix(E335, entries)


# sha256 of repr([[list(e.coeffs) for e in row] for row in N.entries]) over the
# draws of the test below, in its order: recorded when a cell matrix still
# stored every entry, so the draws and the dense view are those of that store
DENSE_ROWS_DIGEST = {
    "QQ": "e68700520cd2be5e20bcbd147692418ccc105dccc3491b0ec6f50c0460b3057e",
    "GF(3)": "e2132148d56a955114e984227599eb03e4ec8aad270e300dcccaa7bb8d4061d4",
}


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_random_cell_matrix_passes_the_validating_constructor(field):
    # random_cell_matrix builds its result unchecked: every draw must meet the
    # bounds that CellMatrix.__init__ checks, and lie in the cell it was drawn from;
    # the store holds the nonzero entries of the dense rows, column-major
    h = hashlib.sha256()
    for d in range(1, 9):
        for E in enumerate_staircases(d):
            for kind in CellKind:
                for seed in range(3):
                    N = random_cell_matrix(E, kind, seed, field)
                    rows = N.entries
                    h.update(repr([[list(e.coeffs) for e in row] for row in rows]).encode())
                    checked = CellMatrix(E, rows, field)
                    assert checked == N and hash(checked) == hash(N), (E.m, kind, seed)
                    assert checked.entries == rows
                    assert validate_cell_matrix(N, kind)[0], (E.m, kind, seed)
                    assert all(n for _, n in N.nonzeros)
                    keys = [key for key, _ in N.nonzeros]
                    assert keys == sorted(keys, key=lambda key: key[::-1])
                    assert [[N.n(i, j) for j in range(1, E.t + 1)]
                            for i in range(1, E.t + 2)] == list(map(list, rows))
                    assert CellMatrix.from_json(N.to_json(), field) == N
    assert h.hexdigest() == DENSE_ROWS_DIGEST[repr(field)]


def test_validate_t3_display():
    # entries p21 y, p31 y^2, p41 y, p43 y
    N = cell_matrix_from_parameters(E335, {(2, 1): 5, (3, 1): -1, (4, 1): 2, (4, 3): 7})
    assert N.n(2, 1) == UniPoly(QQ, (0, 5))
    assert N.n(3, 1) == UniPoly(QQ, (0, 0, -1))
    for kind in CellKind:
        ok, report = validate_cell_matrix(N, kind)
        assert ok, report


def test_validate_zero_matrix_everywhere():
    N = CellMatrix.zero(E335)
    assert all(validate_cell_matrix(N, k)[0] for k in CellKind)


def test_validate_diagonal_violation():
    z = UniPoly.zero(QQ)
    entries = [[UniPoly(QQ, (1,)), z, z], [z] * 3, [z] * 3, [z] * 3]
    N = CellMatrix(E335, entries)
    for kind in (CellKind.V1, CellKind.V2, CellKind.V3):
        ok, report = validate_cell_matrix(N, kind)
        assert not ok and "(1,1)" in report
    assert validate_cell_matrix(N, CellKind.V0)[0]


def test_validate_constant_term_rows():
    # T2 forbids constant terms exactly in n21, n31, n43 for this staircase
    z = UniPoly.zero(QQ)
    for (i, j) in ((2, 1), (3, 1), (4, 3)):
        entries = [[z] * 3 for _ in range(4)]
        entries[i - 1][j - 1] = UniPoly(QQ, (1,))
        N = CellMatrix(E335, entries)
        assert validate_cell_matrix(N, CellKind.V1)[0]
        ok, report = validate_cell_matrix(N, CellKind.V2)
        assert not ok and f"({i},{j})" in report
    # n41 may carry a constant term and stay in T2
    entries = [[z] * 3 for _ in range(4)]
    entries[3][0] = UniPoly(QQ, (1,))
    assert validate_cell_matrix(CellMatrix(E335, entries), CellKind.V2)[0]


# -- the store of nonzero entries ----------------------------------------------

def test_the_zero_matrix_stores_nothing_and_reads_zero_everywhere():
    N = CellMatrix.zero(E335, GF(3))
    assert N.nonzeros == () and N == CellMatrix(E335, [[[]] * 3] * 4, GF(3))
    assert N.n(4, 1) == UniPoly.zero(GF(3)) and N.entries == ((UniPoly.zero(GF(3)),) * 3,) * 4
    assert cell_matrix_from_parameters(E335, dict.fromkeys(slot_set(E335), 0)).nonzeros == ()
    for i, j in ((0, 1), (5, 1), (1, 0), (1, 4)):
        with pytest.raises(IndexError):
            N.n(i, j)


def test_the_checks_keep_their_messages():
    z = UniPoly.zero(QQ)
    above = "entry (1,3) above the diagonal must vanish"
    degree = "entry (1,1) has degree 3, needs < d_1 = 3"
    with pytest.raises(ValueError, match=f"^{re.escape(above)}$"):
        CellMatrix(E335, [[z, z, UniPoly(QQ, (1,))], [z] * 3, [z] * 3, [z] * 3])
    with pytest.raises(ValueError, match=f"^{re.escape(degree)}$"):
        CellMatrix(E335, [[UniPoly(QQ, (0, 0, 0, 1)), z, z], [z] * 3, [z] * 3, [z] * 3])
    # the first violation in row order, as the dense constructor found it
    with pytest.raises(ValueError, match=f"^{re.escape(above)}$"):
        CellMatrix(E335, [[z, z, UniPoly(QQ, (1,))], [z, UniPoly(QQ, (1,)), z], [z] * 3, [z] * 3])
    data = {"m": [0, 3, 3, 5], "N": [[[], [], [1]], [[]] * 3, [[]] * 3, [[]] * 3]}
    with pytest.raises(ValueError, match=f"^{re.escape(above)}$"):
        CellMatrix.from_json(data)
    data["N"][0] = [[0, 0, 0, 1], [], []]
    with pytest.raises(ValueError, match=f"^{re.escape(degree)}$"):
        CellMatrix.from_json(data)
    with pytest.raises(ValueError, match=r"^cell matrix must be 4 x 3$"):
        CellMatrix.from_json({"m": [0, 3, 3, 5], "N": [[[]] * 3] * 3})
    with pytest.raises(DomainError, match=r"^entry \(2,1\) over another field GF\(3\) in a matrix over QQ$"):
        CellMatrix(E335, [[z] * 3, [UniPoly(GF(3), (1,)), z, z], [z] * 3, [z] * 3])


def _dense_report(N, kind):
    """validate_cell_matrix as a dense column-major scan of every entry through n(i, j)."""
    E, t, d = N.E, N.E.t, N.E.d
    if kind == CellKind.V0:
        return True, None
    if kind in (CellKind.V1, CellKind.V2):
        for i in range(1, t + 1):
            if N.n(i, i):
                return False, f"condition (1) fails at ({i},{i}): diagonal entry is nonzero"
        if kind == CellKind.V1:
            return True, None
        for j in range(1, t + 1):
            if d[j - 1] > 0:
                for i in range(j + 1, hilbert_burch._run_end(E, j) + 2):
                    if any(N.n(i, j).coeffs[:1]):  # a nonzero constant term
                        return False, f"condition (2) fails at ({i},{j}): constant term must vanish"
        return True, None
    U, slots = hilbert_burch.degree_matrix(E), set(slot_set(E))
    for j in range(1, t + 1):
        for i in range(j, t + 2):
            n = N.n(i, j)
            if (i, j) in slots:
                u = U[i - 1][j - 1]
                if any(c for k, c in enumerate(n.coeffs) if k != u):
                    return False, (f"condition (3) fails at ({i},{j}): "
                                   f"entry must be a scalar multiple of y^{u}")
            elif n:
                return False, f"condition (3) fails at ({i},{j}): entry outside S(E) must vanish"
    return True, None


def test_validation_reports_the_first_violation_of_a_dense_scan():
    z = UniPoly.zero(QQ)
    one, yy = UniPoly(QQ, (1,)), UniPoly(QQ, (0, 0, 1))
    # two violations of each condition (d = (3, 0, 2)): the first in column-major order is reported
    cases = {
        CellKind.V1: ([[one, z, z], [z] * 3, [z, z, one], [z] * 3], "(1,1)"),
        CellKind.V2: ([[z] * 3, [z] * 3, [one, z, z], [one, z, one]], "(3,1)"),  # n41 may hold one
        CellKind.V3: ([[z] * 3, [yy, z, z], [z] * 3, [one, z, z]], "(2,1)"),
    }
    for kind, (entries, first) in cases.items():
        N = CellMatrix(E335, entries)
        ok, report = validate_cell_matrix(N, kind)
        assert not ok and first in report and (ok, report) == _dense_report(N, kind), kind
    for d in range(1, 7):
        for E in enumerate_staircases(d):
            for seed in range(2):
                for drawn in CellKind:
                    N = random_cell_matrix(E, drawn, seed)
                    for kind in CellKind:
                        assert validate_cell_matrix(N, kind) == _dense_report(N, kind), (E.m, seed)


# -- minors --------------------------------------------------------------------

def test_minors_one_column():
    E = Staircase((0, 2))
    z = UniPoly.zero(QQ)
    N = CellMatrix(E, [[z], [UniPoly(QQ, (3, -2))]])  # n21 = 3 - 2y
    f0, f1 = minors_ideal(N)
    assert f0 == P("x - 3 + 2*y")
    assert f1 == P("y^2")
    assert leading_term_ideal(buchberger_reduced([f0, f1])).gens == ((1, 0), (0, 2))


def test_minors_homogeneous_t3_point():
    N = cell_matrix_from_parameters(E335, {(2, 1): 1, (3, 1): 0, (4, 1): 0, (4, 3): 0})
    fs = minors_ideal(N)
    assert all(f.is_homogeneous() for f in fs)
    gb = buchberger_reduced(fs)
    assert staircase_from_monomial_ideal(leading_term_ideal(gb)) == E335


def test_minors_monic_with_expected_leads():
    rng = random.Random(17)
    for _ in range(25):
        E = rng.choice(enumerate_staircases(rng.randint(1, 9)))
        N = random_cell_matrix(E, CellKind.V0, rng.randint(0, 10**6))
        for i, f in enumerate(minors_ideal(N)):
            assert f.lt == (E.t - i, E.m[i])
            assert f.lc == 1


def test_minor_columns_are_syzygies():
    rng = random.Random(3)
    for _ in range(15):
        E = rng.choice(enumerate_staircases(rng.randint(1, 8)))
        N = random_cell_matrix(E, CellKind.V0, rng.randint(0, 10**6))
        fs = minors_ideal(N)
        fr = canonical_frame(E)
        for j in range(E.t):
            col = Polynomial.zero(QQ, 2)
            for i in range(E.t + 1):
                entry = fr.M0[i][j] + N.entries[i][j].to_polynomial(2)
                col = col + entry * fs[i]
            assert col.is_zero


def test_last_minor_is_product_of_diagonal():
    rng = random.Random(31)
    for _ in range(15):
        E = rng.choice(enumerate_staircases(rng.randint(1, 8)))
        N = random_cell_matrix(E, CellKind.V0, rng.randint(0, 10**6))
        fs = minors_ideal(N)
        prod = Polynomial.constant(QQ, 2, 1)
        for i in range(1, E.t + 1):
            h = Polynomial.monomial(QQ, 2, (0, E.d[i - 1])) + N.n(i, i).to_polynomial(2)
            prod = prod * h
        assert fs[-1] == prod


def _cofactor_det(rows, field):
    """Determinant of a square matrix of Polynomials, expanding along the first row."""
    if not rows:
        return Polynomial.constant(field, 2, field.one)
    det = Polynomial.zero(field, 2)
    for j, a in enumerate(rows[0]):
        if a:
            term = a * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]], field)
            det = det - term if j % 2 else det + term
    return det


def _fraction_entries(N, seed):
    """N with every nonzero coefficient replaced by a Fraction c/q, 1 <= q <= 4."""
    rng = random.Random(seed)
    entries = [[UniPoly(QQ, [Fraction(c, rng.randint(1, 4)) if c else 0 for c in e.coeffs])
                for e in row] for row in N.entries]
    return CellMatrix(N.E, entries, QQ)


@pytest.mark.parametrize("case", ["QQ-int", "QQ-fraction", "GF5", "GF4"])
def test_minors_match_cofactor_expansion(case):
    # every coefficient of every minor, and its type, against the definition:
    # f_i = (-1)^(t-i) det(M0 + N without row i+1), in Polynomial arithmetic
    field = {"GF5": GF(5), "GF4": GF(4)}.get(case, QQ)
    count = 0
    seen = set()
    for d in range(1, 8):
        for E in enumerate_staircases(d):
            t = E.t
            for kind in CellKind:
                N = random_cell_matrix(E, kind, count, field=field)
                if case == "QQ-fraction":
                    N = _fraction_entries(N, count)
                M0 = canonical_frame(E, field).M0
                M = [[M0[r][c] + N.entries[r][c].to_polynomial(2) for c in range(t)]
                     for r in range(t + 1)]
                expected = []
                for i in range(t + 1):
                    det = _cofactor_det(M[:i] + M[i + 1:], field)
                    expected.append(-det if (t - i) % 2 else det)
                fs = minors_ideal(N)
                assert [f.terms for f in fs] == [g.terms for g in expected], (E, kind)
                types = [[type(c) for _, c in f.terms] for f in fs]
                assert types == [[type(c) for _, c in g.terms] for g in expected], (E, kind)
                seen.update(ty for row in types for ty in row)
                count += 1
    assert count == 4 * 44  # 44 staircases of colength <= 7
    assert seen == {"QQ-int": {int}, "QQ-fraction": {int, Fraction}}.get(case, {type(field.one)})


# -- canonical matrix (the inverse) ---------------------------------------------

def test_canonicalize_point_ideal():
    E, N = canonical_matrix(parse_ideal("x-3, y-2", ("x", "y")))
    assert E.m == (0, 1)
    assert N.n(1, 1) == UniPoly(QQ, (-2,))
    assert N.n(2, 1) == UniPoly(QQ, (3,))
    f0, f1 = minors_ideal(N)
    assert {f0, f1} == {P("x - 3"), P("y - 2")}


def test_canonicalize_monomial_ideal_gives_zero():
    for d in range(1, 9):
        for E in enumerate_staircases(d):
            gens = [Polynomial.monomial(QQ, 2, g) for g in E.generators(minimal=True)]
            E2, N = canonical_matrix(gens)
            assert E2 == E and N == CellMatrix.zero(E)


def test_round_trip_is_exact():
    rng = random.Random(1234)
    for trial in range(200):
        E = rng.choice(enumerate_staircases(rng.randint(1, 12)))
        kind = rng.choice(list(CellKind))
        N = random_cell_matrix(E, kind, trial)
        fs = minors_ideal(N)
        E2, N2 = canonical_matrix(fs)
        assert (E2, N2) == (E, N)


def test_round_trip_other_generators():
    # generators that are NOT the minors still canonicalize to the same ideal
    gens = parse_ideal("x^2 - y^3, x*y", ("x", "y"))
    E, N = canonical_matrix(gens)
    assert buchberger_reduced(minors_ideal(N)) == buchberger_reduced(gens)
    E2, N2 = canonical_matrix(minors_ideal(N))
    assert (E2, N2) == (E, N)


def test_round_trip_scrambled_generators():
    # invertible recombinations of the minors present the same ideal, so the
    # canonical matrix must come back bit-identical
    rng = random.Random(555)
    for trial in range(40):
        E = rng.choice(enumerate_staircases(rng.randint(2, 9)))
        N = random_cell_matrix(E, rng.choice(list(CellKind)), trial)
        gens = minors_ideal(N)
        for _ in range(6):
            i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
            if i != j:
                c = QQ.of(rng.randint(-2, 2))
                gens[i] = gens[i] + gens[j].scale(c)
        rng.shuffle(gens)
        gens = [g.scale(QQ.of(rng.choice((1, 2, -3)))) for g in gens]
        assert canonical_matrix(gens) == (E, N)


@pytest.mark.parametrize("n", [100, 200])
def test_round_trip_at_large_t_on_a_power_of_x(n):
    # (x^n, y) has t = n and the zero matrix; minors_ideal and the inverse agree
    E = Staircase((0,) + (1,) * n)
    zero = CellMatrix.zero(E)
    assert canonical_matrix(parse_ideal(f"x^{n}, y", ("x", "y"))) == (E, zero)
    fs = minors_ideal(zero)
    assert fs[0] == P(f"x^{n}") and fs[-1] == P("y")
    assert canonical_matrix(fs) == (E, zero)


def test_the_chart_of_a_power_of_x_takes_memory_linear_in_t():
    # (x^n, y) has t = n and the zero matrix: a dense (t+1) x t store of
    # n = 20,000 would hold 400 million entries, and n = 2,000 alone took 65 MB
    peaks = {}
    for n in (2000, 20000):
        gens = parse_ideal(f"x^{n}, y", ("x", "y"))
        tracemalloc.start()
        try:
            E, N = canonical_matrix(gens)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert E.t == n and N.nonzeros == ()
    assert peaks[20000] < 50e6 and peaks[20000] < 20 * peaks[2000], peaks


def test_round_trip_at_large_t_on_sparse_cells():
    # staircases with t >= 100 and a few steps, a few nonzero slots of S(E) each
    rng = random.Random(2024)
    seen = 0
    for trial in range(6):
        d = [0] * rng.randint(100, 130)
        d[0] = rng.randint(1, 3)
        for k in rng.sample(range(1, len(d)), 6):
            d[k] = rng.randint(1, 2)
        E = Staircase.from_d(d)
        slots = slot_set(E)
        picks = rng.sample(slots, min(4, len(slots)))
        N = cell_matrix_from_parameters(E, {s: rng.choice((-2, -1, 1, 2, 3)) for s in picks})
        assert N != CellMatrix.zero(E)
        assert canonical_matrix(minors_ideal(N)) == (E, N), (d, picks)
        seen += len(picks)
    assert seen >= 12


def test_minors_of_a_power_of_x_take_linearly_many_products(monkeypatch):
    # on (x^n, y) only column 1 can be nonzero: the recurrence visits the
    # nonzero entries only and multiplies by a zero diagonal as an exponent
    # shift, so its k[y] products grow linearly in n
    calls = [0]

    def counting(a, b, zero):
        calls[0] += 1
        return _convolve(a, b, zero)

    monkeypatch.setattr(hilbert_burch, "_convolve", counting)
    counts = {}
    for n in (100, 200, 400):
        E = Staircase((0,) + (1,) * n)
        for name, N in (("zero", CellMatrix.zero(E)), ("V0", random_cell_matrix(E, CellKind.V0, n))):
            calls[0] = 0
            fs = minors_ideal(N)
            counts[name, n] = calls[0]
            assert len(fs) == n + 1 and fs[-1].lt == (0, 1)
            if n == 100:
                monkeypatch.setattr(hilbert_burch, "_convolve", _convolve)
                assert canonical_matrix(fs) == (E, N)
                monkeypatch.setattr(hilbert_burch, "_convolve", counting)
    for name in ("zero", "V0"):
        assert [counts[name, n] <= 3 * n for n in (100, 200, 400)] == [True] * 3, counts
        assert counts[name, 400] - counts[name, 200] <= 2 * (counts[name, 200] - counts[name, 100]) + 2
    assert counts["V0", 100] >= 100  # column 1 of the V0 draw is nonzero


def test_canonicalize_rejects_bad_ideals():
    with pytest.raises(DomainError):
        canonical_matrix(parse_ideal("x^2", ("x", "y")))  # infinite colength
    with pytest.raises(DomainError):
        canonical_matrix(parse_ideal("x - 1, x", ("x", "y")))  # unit ideal
    with pytest.raises(ValueError):
        canonical_matrix([Polynomial.zero(QQ, 2)])


def test_y_coefficients_shape():
    # staircase m = (0, 1): f_0 = x and f_1 = y, as k[y] lists per nonzero power of x
    fs = [{1: [1]}, {0: [0, 1]}]
    g = {0: [0, 1, 1], 1: [0, 1]}  # x*y + y^2 + y
    assert _y_coefficients(g, fs, 0, QQ) == {0: [0, 1], 1: [1, 1]}
    with pytest.raises(DomainError):
        _y_coefficients({0: [1]}, fs, 1, QQ)  # 1 is left as a remainder by y
    # staircase m = (1, 2): f_0 = x*y, f_1 = y^2; x is left as a remainder
    with pytest.raises(DomainError):
        _y_coefficients({1: [1]}, [{1: [0, 1]}, {0: [0, 0, 1]}], 0, QQ)
    # zero powers of x cost nothing and give no quotient
    assert _y_coefficients({0: [0, 0], 1: []}, fs, 0, QQ) == {}


def test_round_trip_characteristic_two():
    # signs collapse mod 2; minors and normalization must still agree
    F2 = GF(2)
    rng = random.Random(0)
    for trial in range(25):
        E = rng.choice(enumerate_staircases(rng.randint(1, 7)))
        kind = rng.choice(list(CellKind))
        N = random_cell_matrix(E, kind, trial, field=F2)
        fs = minors_ideal(N)
        gb = buchberger_reduced(fs)
        assert staircase_from_monomial_ideal(leading_term_ideal(gb)) == E
        assert canonical_matrix(fs) == (E, N)
        member = {k for k in CellKind if validate_cell_matrix(N, k)[0]}
        assert cell_kinds_of_ideal(fs) == member


def test_round_trip_gf4():
    F4 = GF(4)
    rng = random.Random(1)
    for trial in range(10):
        E = rng.choice(enumerate_staircases(rng.randint(1, 6)))
        N = random_cell_matrix(E, CellKind.V0, trial, field=F4)
        assert canonical_matrix(minors_ideal(N)) == (E, N)


def test_canonicalize_rational_coefficients():
    gens = parse_ideal("2*x - 6*y^2 + 1/3, 5*y^3 - 7", ("x", "y"))
    E, N = canonical_matrix(gens)
    assert E.m == (0, 3)
    assert buchberger_reduced(minors_ideal(N)) == buchberger_reduced(gens)


def test_canonical_matrix_over_prime_field():
    F = GF(5)
    gens = parse_ideal("x^2 - y, y^2 + x*y + 2", ("x", "y"), F)
    E, N = canonical_matrix(gens)
    assert E.m == (0, 4)
    assert buchberger_reduced(minors_ideal(N)) == buchberger_reduced(gens)


# -- kind predicates -------------------------------------------------------------

def test_kinds_examples():
    assert cell_kinds_of_ideal(parse_ideal("x-3, y-2", ("x", "y"))) == {CellKind.V0}
    assert cell_kinds_of_ideal(parse_ideal("x-y, y^2", ("x", "y"))) == set(CellKind)
    assert cell_kinds_of_ideal(parse_ideal("x-y^2, y^3", ("x", "y"))) == {
        CellKind.V0, CellKind.V1, CellKind.V2}


def test_v2_by_iterated_x_multiplication_matches_reducing_x_to_the_colength():
    # V2 is a gcd of the g(x, 0); reducing x^colength in one go must agree
    seen = {True: 0, False: 0}
    for d in range(1, 10):
        for E in enumerate_staircases(d):
            for kind in CellKind:
                fs = minors_ideal(random_cell_matrix(E, kind, d))
                kinds = cell_kinds_of_ideal(fs)
                if CellKind.V1 not in kinds:
                    continue
                xd = Polynomial.monomial(QQ, 2, (E.colength, 0))
                in_ideal = normal_form(xd, buchberger_reduced(fs)).is_zero
                assert (CellKind.V2 in kinds) == in_ideal, (E.m, kind)
                seen[in_ideal] += 1
    assert min(seen.values()) >= 50, seen


def _v2_by_iterated_x(gb, E):
    """Reference V2 test: r <- NF(x*r) from r = 1 reaches 0 within colength steps."""
    field = gb[0].field
    x = Polynomial.variable(field, 2, 0)
    r = Polynomial.constant(field, 2, field.one)
    for _ in range(E.colength):
        r = normal_form(x * r, gb)
        if r.is_zero:
            return True
    return False


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3)], ids=str)
def test_v2_gcd_matches_the_iterated_x_reference(field):
    # every staircase of colength <= 8, every kind, three draws
    seen = {True: 0, False: 0}
    for d in range(1, 9):
        for E in enumerate_staircases(d):
            for kind in CellKind:
                for draw in range(3):
                    fs = minors_ideal(random_cell_matrix(E, kind, 100 * d + draw, field=field))
                    kinds = cell_kinds_of_ideal(fs)
                    if CellKind.V1 not in kinds:
                        continue
                    ref = _v2_by_iterated_x(buchberger_reduced(fs), E)
                    assert (CellKind.V2 in kinds) == ref, (E.m, kind, draw)
                    seen[ref] += 1
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("text, field, v2", [
    ("x^2 - x, y", QQ, False),          # roots 0 and 1
    ("x^2 + 1, y", QQ, False),          # no root over QQ, none at the origin
    ("x^2 + 1, y", GF(2), False),       # (x + 1)^2
    ("x^3 - x*y, x*y^2, y^3", QQ, True),
    ("x^2 - 2*x*y + y, y^2", QQ, True),
    ("x^3 - x^2 + x*y, y^2", QQ, False),  # x^2 (x - 1) on y = 0
])
def test_v2_on_hand_picked_ideals(text, field, v2):
    fs = parse_ideal(text, ("x", "y"), field)
    gb = buchberger_reduced(fs)
    E = staircase_from_monomial_ideal(leading_term_ideal(gb))
    kinds = cell_kinds_of_ideal(fs)
    assert CellKind.V1 in kinds
    assert (CellKind.V2 in kinds) == v2 == _v2_by_iterated_x(gb, E)


def test_kinds_error_on_infinite_colength():
    with pytest.raises(DomainError):
        cell_kinds_of_ideal(parse_ideal("y^2", ("x", "y")))


def test_kind_predicates_match_membership():
    rng = random.Random(77)
    for trial in range(80):
        E = rng.choice(enumerate_staircases(rng.randint(1, 8)))
        kind = rng.choice(list(CellKind))
        N = random_cell_matrix(E, kind, 10_000 + trial)
        membership = {k for k in CellKind if validate_cell_matrix(N, k)[0]}
        assert cell_kinds_of_ideal(minors_ideal(N)) == membership


# -- random matrices ---------------------------------------------------------------

def test_random_matrix_is_deterministic_and_valid():
    for kind in CellKind:
        a = random_cell_matrix(E335, kind, 42)
        b = random_cell_matrix(E335, kind, 42)
        assert a == b
        assert validate_cell_matrix(a, kind)[0]
    assert random_cell_matrix(E335, CellKind.V0, 1) != random_cell_matrix(E335, CellKind.V0, 2)


def test_random_t3_populates_only_slots():
    N = random_cell_matrix(E335, CellKind.V3, 5)
    nonzero = {(i, j) for i in range(1, 5) for j in range(1, 4) if N.n(i, j)}
    assert nonzero <= set(slot_set(E335))


def test_random_matrix_finite_field():
    F = GF(3)
    N = random_cell_matrix(E335, CellKind.V0, 9, field=F)
    fs = minors_ideal(N)
    gb = buchberger_reduced(fs)
    assert staircase_from_monomial_ideal(leading_term_ideal(gb)) == E335
    E2, N2 = canonical_matrix(fs)
    assert (E2, N2) == (E335, N)


def test_random_matrix_over_small_fields_is_pinned():
    # The draws over GF(q) are pinned to those of rng.choice(field.elements()):
    # randrange(q) reads the same random stream.  SHA-256 of the JSON matrices
    # for every staircase of colength <= 5, every kind and seeds 0-4.
    h = hashlib.sha256()
    for q in (2, 3, 4, 5, 7):
        for d in range(1, 6):
            for E in enumerate_staircases(d):
                for kind in CellKind:
                    for seed in range(5):
                        h.update(json.dumps(random_cell_matrix(E, kind, seed, GF(q)).to_json()).encode())
    assert h.hexdigest() == "90c866dccd6098500f4c58c807915c91f6ba06b1371d5879a1c8fc8c1a3041a7"
    N = random_cell_matrix(Staircase((0, 1, 3)), CellKind.V0, 7, GF(4))
    assert N.to_json()["N"] == [[[2], []], [[1], []], [[3], [0, 2]]]


def test_random_matrix_over_a_large_prime_does_not_list_the_field(monkeypatch):
    F = GF(2**31 - 1)
    monkeypatch.setattr(F, "elements", lambda: pytest.fail("listed every element of the field"))
    start = time.perf_counter()
    N = random_cell_matrix(Staircase((0, 2)), CellKind.V0, 1, F)
    assert time.perf_counter() - start < 0.5
    assert validate_cell_matrix(N, CellKind.V0)[0] and N.n(2, 1).degree == 1


# -- JSON ----------------------------------------------------------------------------

def test_cell_matrix_json_round_trip():
    N = random_cell_matrix(E335, CellKind.V0, 7)
    data = json.loads(json.dumps(N.to_json()))
    assert CellMatrix.from_json(data) == N
    assert data["m"] == [0, 3, 3, 5]


def test_cell_matrix_json_round_trip_finite_fields():
    for q in (3, 4):
        F = GF(q)
        N = random_cell_matrix(E335, CellKind.V0, 11, field=F)
        data = json.loads(json.dumps(N.to_json()))
        assert CellMatrix.from_json(data, F) == N


def test_latex_emission_mentions_degrees():
    tex = CellMatrix.zero(E335).to_latex()
    assert tex.startswith(r"\begin{array}")
    assert "y^3" in tex and "-x" in tex
    # degree borders: syzygy degrees 6,5,6 on top, generator degrees on the left
    assert " & 6 & 5 & 6" in tex
    assert "\n3 & y^3" in tex


def test_latex_builds_no_dense_frame(monkeypatch):
    # to_latex reads 2t entries of M0(E) and builds only those: neither the
    # (t+1) x t frame nor U(E) is made, and the text is the same
    matrices = [random_cell_matrix(E335, kind, 5) for kind in CellKind]
    expected = [N.to_latex() for N in matrices]

    def refuse(*args):
        raise AssertionError("to_latex built a dense frame")

    monkeypatch.setattr(hilbert_burch, "canonical_frame", refuse)
    monkeypatch.setattr(hilbert_burch, "degree_matrix", refuse)
    assert [N.to_latex() for N in matrices] == expected
