"""Differential test of the Buchberger oracle against sympy's lex bases.

Everything in the package is checked against ``buchberger_reduced``, so it
is itself checked here against an independent implementation: sympy's
``groebner(..., order='lex')`` over QQ and with ``modulus=p``, on random
ideals in two and three variables.  Skipped when sympy is not installed.
"""

import itertools
import random

import pytest

from hbcells.field import GF, QQ
from hbcells.groebner import buchberger_reduced
from hbcells.poly import Polynomial

sympy = pytest.importorskip("sympy")


def _random_ideal(rng, field, nvars):
    """Two or three generators of up to four terms, total degree <= 3 (<= 2 in 3 variables)."""
    top = 3 if nvars == 2 else 2
    monos = [m for m in itertools.product(range(top + 1), repeat=nvars) if sum(m) <= top]
    while True:
        gens = [Polynomial(field, nvars, [(rng.choice(monos), field.of(rng.randint(-5, 5)))
                                          for _ in range(rng.randint(1, 4))])
                for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero]
        if gens:
            return gens


def _to_sympy(g, symbols):
    """The generator as a sympy expression; its coefficients are ints or GF(p) elements."""
    return sympy.Add(*(getattr(c, "val", c) * sympy.Mul(*(s**e for s, e in zip(symbols, mono)))
                       for mono, c in g.terms))


def _sympy_basis(gens, field):
    nvars = gens[0].nvars
    symbols = sympy.symbols(f"x0:{nvars}")
    options = {"domain": "QQ"} if field is QQ else {"modulus": field.p}
    G = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols, order="lex", **options)
    basis = [Polynomial(field, nvars, [(m, field.of(int(c.p), int(c.q)))
                                       for m, c in p.monic().terms()])
             for p in G.polys]
    return sorted(basis, key=lambda g: g.lt, reverse=True)


@pytest.mark.parametrize("nvars", [2, 3])
@pytest.mark.parametrize("field", [QQ, GF(7), GF(101)], ids=repr)
def test_buchberger_matches_sympy_lex_basis(field, nvars):
    rng = random.Random(1000 * nvars + getattr(field, "p", 0))
    for _ in range(60):
        gens = _random_ideal(rng, field, nvars)
        assert buchberger_reduced(gens) == _sympy_basis(gens, field), gens
