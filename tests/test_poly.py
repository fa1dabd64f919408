"""Core arithmetic: fields, monomial order, polynomials, parsing."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbcells.betti import betti_numbers
import hbcells.field as field_mod
from hbcells.errors import DomainError, ParseError
from hbcells.field import GF, QQ, PrimeField, scalar_from_json, scalar_to_json
from hbcells.hilbert_burch import CellMatrix, slot_set
from hbcells.poly import (Polynomial, UniPoly, divide_univariate, exact_quotient,
                          lex_compare, parse_polynomial, polynomial_to_str)
from hbcells.staircase import Staircase

GF5 = GF(5)


def poly_of(text, field=QQ, names=("x", "y")):
    return parse_polynomial(text, names, field)


# -- scalars ----------------------------------------------------------------

def test_qq_prefers_ints():
    assert QQ.of(6, 3) == 2 and isinstance(QQ.of(6, 3), int)
    assert QQ.of(3, 2) == Fraction(3, 2)
    assert QQ.div(1, 2) == Fraction(1, 2)
    assert QQ.div(4, 2) == 2 and isinstance(QQ.div(4, 2), int)
    with pytest.raises(ZeroDivisionError):
        QQ.div(1, 0)


def test_prime_field_arithmetic():
    a = GF5.of(3)
    b = GF5.of(4)
    assert a + b == 2
    assert a * b == 2
    assert -a == 2
    assert a / b == GF5.of(3) * GF5.of(4) ** -1
    assert (a / b) * b == a
    assert not GF5.zero and GF5.one
    with pytest.raises(ZeroDivisionError):
        _ = a / GF5.zero
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(2**31 + 11)


def test_gf4_is_a_field():
    F4 = GF(4)
    elems = F4.elements()
    assert len(elems) == 4
    for a in elems:
        assert a + a == F4.zero  # characteristic 2
        if a:
            assert a * (F4.one / a) == F4.one
    w = elems[2]
    assert w * w == w + F4.one  # w^2 = w + 1


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(4), GF5, GF(7)], ids=repr)
def test_finite_field_eq_implies_equal_hash(field):
    for a in field.elements():
        for n in range(-2 * field.size, 2 * field.size):
            if a == n:
                assert n == a and hash(a) == hash(n)
        for b in field.elements():
            assert (a == b) == (a.val == b.val)
            if a == b:
                assert hash(a) == hash(b)
    assert field.one == 1 and field.zero == 0


def test_finite_field_int_equality_is_canonical():
    assert GF5.of(1) == 1 and GF5.of(1) != 6 and GF5.of(4) != -1
    assert GF5.of(6) == 1
    assert len({GF5.of(1), 1, 6}) == 2
    w = GF(4).elements()[2]
    assert w != 2 and w != 0


def test_scalar_from_json_rejects_zero_denominators():
    for field, v in ((QQ, "1/0"), (GF5, "1/5"), (GF5, "3/10"), (GF(4), "1/2"), (GF(2), "1/2")):
        with pytest.raises(ValueError, match="zero denominator"):
            scalar_from_json(field, v)
    assert scalar_from_json(QQ, "3/6") == Fraction(1, 2)
    assert scalar_from_json(QQ, "4/2") == 2 and type(scalar_from_json(QQ, "4/2")) is int
    assert scalar_from_json(GF5, "1/3") == GF5.of(2)


def test_scalar_json_accepts_only_ints_and_fraction_strings():
    for v in (1.5, 2.0, True, None, [1]):
        with pytest.raises(ValueError, match="not a field element"):
            scalar_from_json(QQ, v)
    for v in ("1_0/ 2", " 3", "3 ", "\u0663", "1_000", "3/-4", "3/", "/3", "1/2/3", "", "+",
              "3\n", "0x10", "\uff13"):
        with pytest.raises(ValueError, match="not a field element"):
            scalar_from_json(QQ, v)
    assert scalar_from_json(QQ, "-3/4") == Fraction(-3, 4) and scalar_from_json(QQ, "+7") == 7
    assert scalar_to_json(Fraction(6, 2)) == 3 and scalar_to_json(Fraction(0)) == 0
    assert scalar_to_json(Fraction(3, 2)) == "3/2"


def test_gf_gives_one_shared_field_per_order():
    assert GF(5) is GF(5) and GF(4) is GF(4) and GF(2) is not GF(4)
    f = parse_polynomial("x+1", ("x", "y"), GF(5))
    g = parse_polynomial("x+1", ("x", "y"), GF(5))
    assert f == g and hash(f) == hash(g)
    assert f + g == parse_polynomial("2*x+2", ("x", "y"), GF(5))
    assert GF(4).of(3) == GF(4).of(1)


def test_gf_returns_a_known_order_without_testing_primality(monkeypatch):
    first = GF(2147483647)
    tested = []
    monkeypatch.setattr(field_mod, "_is_prime", lambda p: tested.append(p) or True)
    assert GF(2147483647) is first and GF(5) is GF5 and tested == []
    # a look-up by value alone would take 5.0 for 5; non-int orders keep being
    # refused, 4.0 as well, though 4.0 == 4 is the order of QuarticField
    monkeypatch.undo()
    for q in (5.0, 6, True, 2.0, "5", 4.0, "4", Fraction(4)):
        with pytest.raises(ValueError, match="field order must be a prime below 2"):
            GF(q)


# GF(4) = GF(2)[w]/(w^2 + w + 1) on the encoding 0, 1, w = 2, w + 1 = 3
GF4_ADD = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
GF4_MUL = [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]


def _reference_ops(field):
    """(add, sub, mul, neg, inv) on indices, written apart from the field code."""
    if field.size == 4:
        inv = {b: c for b in range(1, 4) for c in range(1, 4) if GF4_MUL[b][c] == 1}
        return (lambda a, b: GF4_ADD[a][b], lambda a, b: GF4_ADD[a][b],
                lambda a, b: GF4_MUL[a][b], lambda a: a, inv.__getitem__)
    p = field.size
    return (lambda a, b: (a + b) % p, lambda a, b: (a - b) % p, lambda a, b: a * b % p,
            lambda a: -a % p, lambda b: pow(b, -1, p))


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(4), GF5, GF(7), GF(101)], ids=repr)
def test_tabled_field_arithmetic_is_exact_on_interned_elements(field):
    add, sub, mul, neg, inv = _reference_ops(field)
    at = field.decode  # the element of an index (``of`` maps an int into GF(4) mod 2)
    for a in field.elements():
        assert a is at(a.val) and a is field.of(a) and -a is at(neg(a.val))
        for k in range(-2, 4):
            if a or k >= 0:
                want = field.one
                for _ in range(abs(k)):
                    want = at(mul(want.val, a.val if k > 0 else inv(a.val)))
                assert a ** k is want
        for b in field.elements():
            n = b.val  # an int operand goes through ``of``
            assert a + b is at(add(a.val, b.val)) and a + n is a + field.of(n) is n + a
            assert a - b is at(sub(a.val, b.val)) and a - n is a - field.of(n)
            assert n - a is field.of(n) - a
            assert a * b is at(mul(a.val, b.val)) and a * n is a * field.of(n) is n * a
            if b:
                assert a / b is at(mul(a.val, inv(b.val)))
            if field.of(n):
                assert a / n is a / field.of(n) and a.val / field.of(n) is field.of(a.val) / n
    assert 101 <= field_mod.TABLE_LIMIT < 2147483647  # GF(101) by table, GF(2^31 - 1) computed


def test_computed_field_arithmetic_matches_the_residues():
    p = 2147483647
    F = GF(p)
    rng = random.Random(2147)
    for _ in range(200):
        x, y = rng.randrange(p), rng.randrange(1, p)
        a, b = F.of(x), F.of(y)
        assert (a + b).val == (x + y) % p and (a - b).val == (x - y) % p
        assert (a * b).val == x * y % p and (-a).val == -x % p
        assert (a / b).val == x * pow(y, -1, p) % p and (b ** -2).val == pow(y, -2, p)
        assert (a ** 3).val == pow(x, 3, p) and (y - a).val == (y - x) % p


@pytest.mark.parametrize("q", [5, 2147483647])
def test_finite_field_elements_are_immutable(q):
    one = GF(q).one
    for name, value in (("val", 0), ("field", QQ), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(one, name, value)
        with pytest.raises(AttributeError):
            delattr(one, name)
    assert GF(q).one == 1 and GF(q).one.field is GF(q)
    # a copy of an immutable value is the value itself, as for an int
    assert copy.copy(one) is one and copy.deepcopy([one])[0] is one


@pytest.mark.parametrize("field", [QQ, GF(2), GF(4), GF(5), GF(2147483647), PrimeField(5)], ids=repr)
def test_a_copy_of_a_field_is_the_field(field):
    assert copy.copy(field) is field and copy.deepcopy(field) is field
    f = poly_of("x+1", field)
    assert f + copy.deepcopy(f) == f + f and copy.deepcopy([f, f.field])[1] is field


@pytest.mark.parametrize("q", [2, 4, 5, 251, 257, 2147483647])
def test_gf_and_its_elements_unpickle_to_themselves(q):
    F = GF(q)
    assert pickle.loads(pickle.dumps(F)) is F
    for e in (F.zero, F.one, F.decode(3)):
        back = pickle.loads(pickle.dumps(e))
        assert back == e and back.field is F
        if q <= field_mod.TABLE_LIMIT:
            assert back is e  # the interned element
    f = poly_of("x+1", F)
    assert f + pickle.loads(pickle.dumps(f)) == f + f
    assert pickle.loads(pickle.dumps(QQ)) is QQ


def test_a_field_built_apart_refuses_pickling():
    apart = PrimeField(5)
    for value in (apart, apart.one, poly_of("x+1", apart)):
        with pytest.raises(TypeError, match=r"built apart from GF\(5\) cannot be pickled"):
            pickle.dumps(value)


def test_mixing_finite_field_elements_raises_domain_error():
    with pytest.raises(DomainError):
        GF(5).one + PrimeField(5).one  # a separately built field of the same order
    with pytest.raises(DomainError):
        GF(4).one * GF(2).one
    ops = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b)
    for a, b in ((GF5.one, PrimeField(5).one), (GF(101).one, GF(2147483647).one)):
        for op in ops:
            for x, y in ((a, b), (b, a)):
                with pytest.raises(DomainError):
                    op(x, y)
    with pytest.raises(DomainError):
        poly_of("x+1", PrimeField(5)) + poly_of("x+1", GF5)


def test_unipoly_arithmetic_rejects_mixed_fields():
    a, b = UniPoly(QQ, [1, 2]), UniPoly(GF5, [GF5.of(3)])
    for op in (lambda f, g: f + g, lambda f, g: f - g, lambda f, g: f * g, divide_univariate):
        for f, g in ((a, b), (b, a), (UniPoly(GF(2), [GF(2).one] * 2), UniPoly(GF(4), [GF(4).one]))):
            with pytest.raises(DomainError, match="do not mix"):
                op(f, g)
    c = UniPoly(GF5, [GF5.one, GF5.one])
    assert (c + b).coeffs == (4, 1) and (c - b).coeffs == (3, 1) and (c * b).coeffs == (3, 3)
    assert divide_univariate(c, b) == (UniPoly(GF5, [GF5.of(2)] * 2), UniPoly.zero(GF5))


def test_unipoly_maps_ints_into_a_finite_field():
    three = UniPoly(GF5, [GF5.of(3), GF5.one])
    diff = UniPoly(GF5, [1, 1]) - UniPoly(GF5, [3])
    assert diff == three and hash(diff) == hash(three)
    assert all(c.field is GF5 for c in diff.coeffs)
    assert [c.val for c in UniPoly(GF5, [7, Fraction(1, 2)]).coeffs] == [2, 3]
    assert UniPoly(GF5, [1, 5]).degree == 0 and UniPoly(GF(4), [2]).is_zero
    # QQ keeps its ints and Fractions as they are
    assert UniPoly(QQ, [7, Fraction(1, 2)]).coeffs == (7, Fraction(1, 2))
    assert type(UniPoly(QQ, [7]).coeffs[0]) is int


def test_polynomial_maps_ints_into_a_finite_field():
    two = Polynomial(GF5, 2, {(0, 0): GF5.of(2), (1, 0): GF5.one})
    built = Polynomial(GF5, 2, {(0, 0): 7, (1, 0): 1})
    assert built == two and hash(built) == hash(two)
    assert all(c.field is GF5 for _, c in built.terms)
    assert [c.val for _, c in Polynomial(GF5, 2, [((1, 0), Fraction(1, 2))]).terms] == [3]
    # a coefficient that is zero in the field is dropped, also after summing
    assert Polynomial(GF5, 2, [((1, 0), 5), ((0, 1), 1)]).terms == (((0, 1), GF5.one),)
    assert Polynomial(GF5, 2, [((1, 0), 2), ((1, 0), 3)]).is_zero
    assert Polynomial(GF(4), 1, {(1,): 2}).is_zero
    # QQ keeps its ints and Fractions as they are
    assert Polynomial(QQ, 1, {(1,): Fraction(1, 2), (0,): 7}).terms == (((1,), Fraction(1, 2)), ((0,), 7))


# Every constructor that takes a scalar c into a field F, each through F.of.
E02 = Staircase((0, 2))
DOORS = {
    "Polynomial": lambda F, c: Polynomial(F, 2, {(0, 1): c, (1, 0): 1}),
    "Polynomial.constant": lambda F, c: Polynomial.constant(F, 2, c),
    "Polynomial.monomial": lambda F, c: Polynomial.monomial(F, 2, (1, 0), c),
    "Polynomial.scale": lambda F, c: Polynomial.variable(F, 2, 0).scale(c),
    "UniPoly": lambda F, c: UniPoly(F, [1, c]),
    "CellMatrix": lambda F, c: CellMatrix(E02, [[[c]], [[1, c]]], F),
    "betti_numbers": lambda F, c: betti_numbers(E02, dict.fromkeys(slot_set(E02), c), F),
}


@pytest.mark.parametrize("door", DOORS.values(), ids=DOORS.keys())
@pytest.mark.parametrize("c, mapped", [
    (GF(3).one, None),
    (PrimeField(5).one, None),  # a separately built field of the same order
    (7, GF5.of(2)),
    (Fraction(1, 2), GF5.of(3)),
    (GF5.of(4), GF5.of(4)),
], ids=["GF(3)", "PrimeField(5)", "int", "Fraction", "GF(5)"])
def test_a_scalar_enters_a_finite_field_only_through_its_door(door, c, mapped):
    if mapped is None:
        with pytest.raises(DomainError):
            door(GF5, c)
    else:
        assert door(GF5, c) == door(GF5, mapped)


@pytest.mark.parametrize("door", DOORS.values(), ids=DOORS.keys())
def test_a_scalar_enters_qq_only_through_its_door(door):
    for c in (GF(3).one, GF5.of(2), 0.5):
        with pytest.raises(DomainError):
            door(QQ, c)
    assert door(QQ, Fraction(4, 2)) == door(QQ, 2)
    assert door(QQ, Fraction(1, 2)) == door(QQ, QQ.of(1, 2))


def test_qq_constructors_keep_ints_and_make_integral_fractions_ints():
    assert UniPoly(QQ, [Fraction(4, 2), 3]).coeffs == (2, 3)
    assert _types(Polynomial(QQ, 1, {(1,): Fraction(4, 2)})) == [(2, int)]
    assert _types(Polynomial.constant(QQ, 1, Fraction(6, 3))) == [(2, int)]
    assert _types(Polynomial.monomial(QQ, 1, (1,), Fraction(-3, 1))) == [(-3, int)]


def test_a_cell_matrix_refuses_an_entry_over_another_field():
    entries = [[UniPoly(GF(3), [1])], [UniPoly(GF(3), [2])]]
    with pytest.raises(DomainError):
        CellMatrix(E02, entries, QQ)
    with pytest.raises(DomainError):
        CellMatrix(E02, entries, GF5)
    assert CellMatrix(E02, entries, GF(3)).n(2, 1) == UniPoly(GF(3), [2])


def test_a_separately_built_field_of_the_same_order_is_another_field():
    # the entries pass no coefficient through ``field.of``, so only the
    # field comparison at the door can refuse them
    apart = PrimeField(5)
    assert apart != GF5 and GF(5) == GF5 and hash(apart) == hash(GF5)
    entries = [[UniPoly(apart, [1])], [UniPoly(apart, [2])]]
    with pytest.raises(DomainError, match="another field"):
        CellMatrix(E02, entries, GF5)
    with pytest.raises(DomainError, match="do not mix"):
        poly_of("x+1", apart) * poly_of("x+1", GF5)


def _types(p):
    return [(c, type(c)) for _, c in p.terms]


def test_monic_and_fraction_scale_give_ints_where_integral():
    def P(lead, const):
        return Polynomial(QQ, 1, {(1,): lead, (0,): const})

    ints = [(1, int), (2, int)]
    assert _types(P(2, 4).monic()) == ints
    assert _types(P(Fraction(1, 3), Fraction(2, 3)).monic()) == ints
    assert _types(P(Fraction(-2, 3), 2).monic()) == [(1, int), (-3, int)]
    assert _types(P(3, 6).scale(Fraction(1, 3))) == ints
    # a non-integral product stays a Fraction
    assert _types(P(2, 3).monic()) == [(1, int), (Fraction(3, 2), Fraction)]
    # int scalars and finite fields keep their arithmetic
    assert _types(P(2, 3).scale(-2)) == [(-4, int), (-6, int)]
    assert Polynomial(GF5, 1, {(1,): 2, (0,): 4}).monic().terms == (((1,), GF5.one), ((0,), GF5.of(2)))


def test_arithmetic_over_qq_gives_ints_where_integral():
    p = Polynomial(QQ, 1, {(1,): Fraction(1, 2), (0,): 3})
    doubled = [(1, int), (6, int)]
    assert _types(p.scale(2)) == doubled
    assert _types(p * 2) == doubled
    assert _types(2 * p) == doubled
    assert _types(p + p) == doubled
    assert _types(p * Polynomial(QQ, 1, {(0,): 2})) == doubled
    q = Polynomial(QQ, 1, {(1,): Fraction(3, 2), (0,): 3})
    assert _types(q - p) == [(1, int)]
    # (x/2 + 3)^2: the cross term 3x is integral, x^2/4 is not
    assert _types(p * p) == [(Fraction(1, 4), Fraction), (3, int), (9, int)]


def test_substitute_and_evaluate_over_qq_give_ints_where_integral():
    p = Polynomial(QQ, 2, {(1, 0): Fraction(1, 2)})
    assert _types(p.substitute(0, Polynomial(QQ, 2, {(0, 1): 2}))) == [(1, int)]
    assert _types(p.substitute(0, Polynomial(QQ, 2, {(0, 1): 1}))) == [(Fraction(1, 2), Fraction)]
    value = p.evaluate([2, 0])
    assert value == 1 and type(value) is int
    assert p.evaluate([1, 0]) == Fraction(1, 2)
    assert type(Polynomial(QQ, 2, {(1, 1): 3}).evaluate([Fraction(1, 3), 1])) is int
    # finite fields keep their elements
    q = Polynomial(GF5, 2, {(1, 0): 2})
    assert q.evaluate([GF5.of(3), GF5.zero]) == GF5.one
    assert q.substitute(0, Polynomial(GF5, 2, {(0, 1): 3})).terms == (((0, 1), GF5.one),)


# -- lex order --------------------------------------------------------------

def test_lex_ignores_degree():
    assert lex_compare((1, 0), (0, 5)) == 1  # x > y^5


def test_lex_reflexive():
    assert lex_compare((2, 1), (2, 1)) == 0


def test_lex_chain_from_generator_order():
    # x^3 > x^2 y^3 > x y^3 > y^5
    chain = [(3, 0), (2, 3), (1, 3), (0, 5)]
    for a, b in zip(chain, chain[1:]):
        assert lex_compare(a, b) == 1


def test_lex_mismatched_arity():
    with pytest.raises(ValueError):
        lex_compare((1, 0), (1, 0, 0))


@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
                min_size=3, max_size=3),
       st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)))
def test_lex_total_order_and_multiplicative(monos, c):
    a, b, cc = monos
    # totality / antisymmetry
    assert lex_compare(a, b) == -lex_compare(b, a)
    # compatibility with multiplication
    prod = lambda m: tuple(x + y for x, y in zip(m, c))
    assert lex_compare(a, b) == lex_compare(prod(a), prod(b))
    # transitivity through sorting
    srt = sorted(monos)
    assert lex_compare(srt[0], srt[1]) <= 0 and lex_compare(srt[1], srt[2]) <= 0


# -- polynomial ring axioms -------------------------------------------------

def _random_poly(rng, field, nvars=2, max_terms=5, max_exp=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(nvars))
        if field.char == 0:
            c = field.of(rng.randint(-6, 6))
        else:
            c = rng.choice(field.elements())
        terms[mono] = terms.get(mono, field.zero) + c
    return Polynomial(field, nvars, terms)


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
def test_ring_axioms(field):
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = (_random_poly(rng, field) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Polynomial.zero(field, 2)


def test_no_zero_terms_stored():
    p = poly_of("y^2 + y^2") - poly_of("2*y^2")
    assert p.is_zero and p.terms == ()


def test_leading_data():
    p = poly_of("x^3 - 1/2*x*y^3 + y^5")
    assert p.lt == (3, 0) and p.lc == 1
    assert p.coefficient((1, 3)) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        _ = Polynomial.zero(QQ, 2).lt


def test_substitute_and_evaluate():
    p = poly_of("x^2*y + x - 3")
    q = p.substitute(0, poly_of("y + 1"))
    expected = poly_of("y^3 + 2*y^2 + 2*y - 2")
    assert q == expected
    assert p.evaluate([2, 5]) == 4 * 5 + 2 - 3
    # a variable that does not occur
    p = poly_of("x^2 + 3*x - 1")
    assert p.substitute(1, poly_of("x + 1")) == p
    # a term free of x cancels against a substituted one
    assert poly_of("x^2 - 2*x*y + y^2").substitute(0, poly_of("y")).is_zero
    # powers of the replacement beyond the first
    assert (poly_of("x^3*y + x").substitute(0, poly_of("y - 1"))
            == poly_of("y^4 - 3*y^3 + 3*y^2 - 1"))


def test_substitute_thirty_variables_against_evaluate():
    rng = random.Random(30)
    nvars = 30

    def sparse(nterms, max_exp):
        terms = {}
        for _ in range(nterms):
            mono = [0] * nvars
            for v in rng.sample(range(nvars), 3):
                mono[v] = rng.randint(0, max_exp)
            terms[tuple(mono)] = QQ.of(rng.randint(-5, 5), rng.randint(1, 3))
        return Polynomial(QQ, nvars, terms)

    for _ in range(10):
        p, r = sparse(12, 3), sparse(4, 2)
        i = rng.randrange(nvars)
        q = p.substitute(i, r)
        for _ in range(3):
            point = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nvars)]
            moved = list(point)
            moved[i] = r.evaluate(point)
            assert q.evaluate(point) == p.evaluate(moved)


def test_polynomials_over_different_fields_do_not_mix():
    a, b = poly_of("x + 1"), poly_of("x + 1", GF5)
    assert a != b and b != a
    assert poly_of("x + 1", GF5) == poly_of("x + 1", GF5)
    for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: b * a):
        with pytest.raises(DomainError):
            op()


def test_exact_quotient():
    f = poly_of("x^2 - y^2")
    g = poly_of("x - y")
    assert exact_quotient(f, g) == poly_of("x + y")
    assert exact_quotient(f, poly_of("x + 1")) is None
    assert exact_quotient(Polynomial.zero(QQ, 2), g).is_zero
    # the lead divides but a later term does not
    assert exact_quotient(poly_of("x^2 + y"), poly_of("x")) is None
    q = exact_quotient(poly_of("3/2*x*y"), poly_of("1/2*x"))
    assert q == poly_of("3*y") and isinstance(q.lc, int)


def test_polynomial_truthiness():
    assert not Polynomial.zero(QQ, 2)
    assert poly_of("x - 1")


# -- univariate division ----------------------------------------------------

def test_divide_univariate_basic():
    f = UniPoly(QQ, (1, 0, 0, 1))  # y^3 + 1
    h = UniPoly(QQ, (0, 0, 1))     # y^2
    q, r = divide_univariate(f, h)
    assert q == UniPoly(QQ, (0, 1)) and r == UniPoly(QQ, (1,))


def test_divide_univariate_zero_dividend():
    q, r = divide_univariate(UniPoly.zero(QQ), UniPoly(QQ, (0, 1)))
    assert q.is_zero and r.is_zero


def test_divide_univariate_derived():
    # f = y^2 + 2y, h = y + 1 -> q = y + 1, r = -1; check f = h*q + r
    f = UniPoly(QQ, (0, 2, 1))
    h = UniPoly(QQ, (1, 1))
    q, r = divide_univariate(f, h)
    assert q == UniPoly(QQ, (1, 1)) and r == UniPoly(QQ, (-1,))
    assert h * q + r == f


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divide_univariate(UniPoly(QQ, (1,)), UniPoly.zero(QQ))


def test_zero_degree_sentinel():
    assert UniPoly.zero(QQ).degree == -math.inf
    assert UniPoly(QQ, (5,)).degree == 0


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
def test_divmod_property(field):
    rng = random.Random(23)
    for _ in range(120):
        draw = ((lambda: field.of(rng.randint(-5, 5))) if field.char == 0
                else (lambda: rng.choice(field.elements())))
        f = UniPoly(field, [draw() for _ in range(rng.randint(0, 6))])
        h = UniPoly(field, [draw() for _ in range(rng.randint(1, 4))])
        if h.is_zero:
            continue
        q, r = divmod(f, h)
        assert h * q + r == f
        assert r.is_zero or r.degree < h.degree
        # uniqueness: any other (q', r') with the same contract matches
        assert divmod(f - r, h)[1].is_zero


# -- parsing / printing -----------------------------------------------------

def test_parse_examples():
    p = poly_of("x^2*y - 3/2")
    assert dict(p.terms) == {(2, 1): 1, (0, 0): Fraction(-3, 2)}
    p = poly_of("x - y - 1")
    assert len(p.terms) == 3
    p = poly_of("y^2 + y^2")
    assert p == poly_of("2*y^2")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        poly_of("x + z")
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        poly_of("x ^")
    with pytest.raises(ParseError):
        poly_of("1/0")
    for q, text in ((5, "x - 1/5"), (5, "2/10*y"), (4, "x + 1/2"), (2, "1/4")):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_polynomial(text, ("x", "y"), GF(q))
    assert parse_polynomial("1/3", ("x", "y"), GF(5)) == parse_polynomial("2", ("x", "y"), GF(5))
    with pytest.raises(ParseError):
        poly_of("x y")  # juxtaposition products are not part of the grammar
    with pytest.raises(ParseError):
        poly_of("")


def test_canonical_printing():
    assert poly_of("y^5 - 1/2*x*y^3 + x^3").to_str() == "x^3 - 1/2*x*y^3 + y^5"
    assert polynomial_to_str(Polynomial.zero(QQ, 2)) == "0"
    assert poly_of("-x + 2").to_str() == "-x + 2"


def test_printing_refuses_fewer_names_than_variables():
    # zipping exponents with a short names tuple would print x3 here as the constant 1
    p = Polynomial(QQ, 3, {(0, 0, 1): 1, (1, 0, 0): 2})
    with pytest.raises(ValueError, match="2 names for 3 variables"):
        p.to_str(("a", "b"))
    with pytest.raises(ValueError):
        polynomial_to_str(p, ())
    assert p.to_str(("a", "b", "c")) == "2*a + c"
    assert p.to_str(("a", "b", "c", "d")) == "2*a + c"


@pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])
def test_print_parse_round_trip(field):
    rng = random.Random(99)
    names = ("x", "y")
    for _ in range(150):
        p = _random_poly(rng, field)
        assert parse_polynomial(p.to_str(), names, field) == p


@settings(max_examples=80)
@given(st.lists(st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                          st.fractions(max_denominator=7)), max_size=6))
def test_print_parse_round_trip_hypothesis(items):
    p = Polynomial(QQ, 2, [(m, QQ.of(c)) for m, c in items])
    assert parse_polynomial(p.to_str(), ("x", "y")) == p
