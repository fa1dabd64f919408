"""Generic Groebner cell equations in any number of variables.

For a monomial ideal E in k[x_1..x_n] the generic family attaches to each
minimal generator m the polynomial f_m = m - sum a_k m' over the standard
monomials m' below m (same degree in the graded variant).  Requiring the
family to be a Groebner basis turns Buchberger's criterion into polynomial
equations in the parameters a_k; parameters occurring linearly with scalar
coefficient and nowhere else in their equation can be eliminated greedily.
When nothing survives, the cell is an affine space whose dimension is the
number of surviving parameters.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from operator import lshift, or_

from .errors import DomainError
from .field import QQ
from .groebner import MonomialIdeal
from .poly import Polynomial, _normal_form_dict, _s_pair, exact_quotient, mono_degree


class GenericFamily:
    """The parametrized candidate reduced Groebner basis of a cell.

    ``members`` holds one entry per minimal generator, sorted by decreasing
    leading monomial: (lead, support) where support is a tuple of
    (monomial, parameter_index) pairs in decreasing monomial order.
    """

    __slots__ = ("E", "nvars", "graded", "members", "pairs", "names")

    def __init__(self, E, graded, members, pairs):
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "nvars", E.nvars)
        object.__setattr__(self, "graded", graded)
        object.__setattr__(self, "members", tuple(members))
        object.__setattr__(self, "pairs", tuple(pairs))
        object.__setattr__(self, "names", tuple(f"a{k + 1}" for k in range(len(pairs))))

    @property
    def nparams(self):
        return len(self.pairs)

    def member_reducers(self):
        """Members as monic (lead, tail) pairs, coefficients in the parameter ring."""
        npar = self.nparams
        out = []
        for lead, support in self.members:
            tail = []
            for mono, k in support:
                lam = tuple(1 if v == k else 0 for v in range(npar))
                tail.append((mono, Polynomial.monomial(QQ, npar, lam, -1)))
            out.append((lead, tail))
        return out


def generic_family(gens, nvars, graded):
    """Build the generic family over the minimal generators of (gens).

    In graded mode the support of f_m is every standard monomial of the
    same degree below m; ungraded mode takes every standard monomial below
    m under lex, which requires finite colength.
    """
    E = gens if isinstance(gens, MonomialIdeal) else MonomialIdeal(nvars, gens)
    if graded:
        degrees = sorted({mono_degree(g) for g in E.gens})
        from .poly import monomials_of_degree
        standard = [m for deg in degrees for m in monomials_of_degree(E.nvars, deg)
                    if not E.contains(m)]
    else:
        if E.colength() == float("inf"):
            raise DomainError("the ungraded family needs finite colength")
        standard = E.standard_monomials()
    standard.sort(reverse=True)

    members = []
    pairs = []
    for lead in sorted(E.gens, reverse=True):
        support = []
        for m in standard:
            if m >= lead:
                continue
            if graded and mono_degree(m) != mono_degree(lead):
                continue
            support.append((m, len(pairs)))
            pairs.append((lead, m))
        members.append((lead, tuple(support)))
    return GenericFamily(E, graded, members, pairs)


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


def prune_multiples(eqs):
    """Drop equations that are proper polynomial multiples of another one.

    Such equations are redundant for the variety the system cuts out;
    order is preserved and the result is deterministic.
    """
    kept = []
    for i, eq in enumerate(eqs):
        redundant = any(j != i and other.total_degree() < eq.total_degree()
                        and exact_quotient(eq, other) is not None
                        for j, other in enumerate(eqs))
        if not redundant:
            kept.append(eq)
    return kept


def buchberger_equations(family):
    """The parameter equations making the family a Groebner basis.

    Every S-pair (``poly._s_pair``) is reduced with the leading coefficients
    kept monic (no parameter is ever inverted): the reducer is the member
    whose leading monomial divides the current monomial, the lex-largest
    such leading monomial when there is a choice (``members`` is sorted that
    way).  Each coefficient polynomial of the final remainder is one equation.
    """
    reducers = family.member_reducers()
    eqs = []
    for a, b in itertools.combinations(reducers, 2):
        rem = _normal_form_dict(_s_pair(a, b), reducers)
        for mono in sorted(rem, reverse=True):
            eqs.append(rem[mono])
    return _normalize(eqs)


class EliminationReport:
    """Outcome of the greedy linear elimination."""

    __slots__ = ("names", "eliminated", "survivors", "residual")

    def __init__(self, names, eliminated, survivors, residual):
        object.__setattr__(self, "names", tuple(names))
        object.__setattr__(self, "eliminated", tuple(eliminated))
        object.__setattr__(self, "survivors", tuple(survivors))
        object.__setattr__(self, "residual", tuple(residual))

    @property
    def initial_count(self):
        return len(self.names)

    @property
    def eliminated_names(self):
        return tuple(self.names[k] for k, _ in self.eliminated)

    @property
    def survivor_names(self):
        return tuple(self.names[k] for k in self.survivors)

    def residual_degrees(self):
        return tuple(int(eq.total_degree()) for eq in self.residual)

    def residual_strings(self):
        return tuple(eq.to_str(self.names) for eq in self.residual)

    def to_json(self, with_log=False):
        data = {
            "initial": self.initial_count,
            "eliminated": list(self.eliminated_names),
            "surviving": list(self.survivor_names),
            "residual": list(self.residual_strings()),
            "residual_degrees": list(self.residual_degrees()),
        }
        if with_log:
            data["substitutions"] = [
                {"param": self.names[k], "expr": expr.to_str(self.names)}
                for k, expr in self.eliminated]
        return data


def _primitive(acc):
    """The primitive form of a nonzero {key: int} dict: a term tuple in decreasing
    key order with integer content 1 and a positive leading coefficient."""
    terms = sorted(acc.items(), reverse=True)
    g = math.gcd(*acc.values())
    if terms[0][1] < 0:
        g = -g
    return tuple(terms) if g == 1 else tuple((key, c // g) for key, c in terms)


def _eliminate_packed(eqs, nparams, width):
    """One run of the elimination on packed keys with ``width``-bit exponent fields.

    A monomial a^e is the int sum e_k << shifts[k], a1 in the top field, so int
    order is lex order and a product is ``+``.  The top bit of each field is a
    guard: it stays clear while every exponent fits, and the run returns None
    as soon as a product sets it.  Otherwise it returns the eliminated
    (k, expression) pairs and the monic equations left, as Polynomials.
    """
    shifts = [(nparams - 1 - k) * width for k in range(nparams)]
    up = width - 1
    lows = sum(1 << s for s in shifts)
    guard = lows << up
    fill = guard - lows  # 2^(width-1) - 1 in every field
    fmask = (1 << up) - 1

    def row(terms):
        """(terms, support, pick): support has the guard bit of every parameter
        in the equation, pick is the key a_k of its eligible parameter or 0."""
        supp = blocked = 0
        linear = []
        for key, _ in terms:
            bits = (key + fill) & guard
            supp |= bits
            if key & (key - 1) == 0 and key & lows:
                linear.append(key)
            else:
                blocked |= bits
        for key in linear:
            if not (key << up) & blocked:
                return terms, supp, key
        return terms, supp, 0

    rows, seen = [], set()
    for eq in eqs:
        if not eq.terms:
            continue
        den = math.lcm(*(c.denominator for _, c in eq.terms))
        terms = _primitive({sum(map(lshift, mono, shifts)): c.numerator * (den // c.denominator)
                            for mono, c in eq.terms})
        if terms not in seen:
            seen.add(terms)
            rows.append(row(terms))

    def polynomial(terms):
        return Polynomial._raw(QQ, nparams, tuple(
            (tuple((key >> s) & fmask for s in shifts), v) for key, v in terms))

    steps = []
    while True:
        pick = next((r for r in rows if r[2]), None)
        if pick is None:
            return ([(k, polynomial(rest).scale(QQ.div(-1, c))) for k, c, rest in steps],
                    [polynomial(terms).monic() for terms, _, _ in rows])
        terms, _, key_k = pick
        shift = key_k.bit_length() - 1
        c = next(v for key, v in terms if key == key_k)
        rest = tuple((key, v) for key, v in terms if key != key_k)
        steps.append((nparams - 1 - shift // width, c, rest))
        mine = key_k << up
        powers = [None, {key: -v for key, v in rest}]  # powers[e] is (-rest)^e
        cpow = [1]
        out, seen = [], set()
        for r in rows:
            terms = r[0]
            if r[1] & mine:
                exps = [(key >> shift) & fmask for key, _ in terms]
                deg = max(exps)
                while len(powers) <= deg:
                    prod = {}
                    for k1, v1 in powers[-1].items():
                        for k2, v2 in powers[1].items():
                            k3 = k1 + k2
                            prod[k3] = prod.get(k3, 0) + v1 * v2
                    prod = {key: v for key, v in prod.items() if v}
                    if reduce(or_, prod, 0) & guard:
                        return None
                    powers.append(prod)
                while len(cpow) <= deg:
                    cpow.append(cpow[-1] * c)
                # c^deg * eq(a_k = -rest/c): a term with a_k^e takes (-rest)^e * c^(deg-e)
                acc = {}
                for (key, v), e in zip(terms, exps):
                    v *= cpow[deg - e]
                    if e:
                        base = key - (e << shift)
                        for pk, pv in powers[e].items():
                            pk += base
                            acc[pk] = acc.get(pk, 0) + v * pv
                    else:
                        acc[key] = acc.get(key, 0) + v
                acc = {key: v for key, v in acc.items() if v}
                if not acc:
                    continue
                # the summands had clear guards, so an overflow sets a guard bit
                # and cannot carry into the next field
                if reduce(or_, acc) & guard:
                    return None
                r = row(_primitive(acc))
                terms = r[0]
            if terms not in seen:
                seen.add(terms)
                out.append(r)
        rows = out


def eliminate_linear(eqs, nparams, names=None):
    """Iterate the linear elimination of parameters from the equations.

    Scans equations in order and parameters by index, replacing the first
    eligible parameter by minus the rest of its equation (divided by the
    scalar coefficient); repeats until nothing is eligible.  Only the
    equations that contain the parameter are rewritten; the others pass
    through unchanged, and the dedupe still runs over the whole list, so the
    first of two equal equations is kept.

    Equations are held as primitive integer polynomials on packed exponent
    keys (``_eliminate_packed``): eliminating a_k from c*a_k + rest multiplies
    each equation by c^deg and substitutes -rest, so no coefficient is divided.
    Equal up to a scalar means equal primitive forms, so the choices are those
    of monic equations.  The run restarts with wider exponent fields when an
    exponent outgrows them.  Equations must be over QQ.
    """
    names = tuple(f"a{k + 1}" for k in range(nparams)) if names is None else tuple(names)
    eqs = list(eqs)
    if any(eq.field != QQ for eq in eqs):
        raise DomainError("linear elimination needs equations over QQ")
    top = max((max(mono, default=0) for eq in eqs for mono, _ in eq.terms), default=0)
    width = top.bit_length() + 2
    while (done := _eliminate_packed(eqs, nparams, width)) is None:
        width *= 2
    eliminated, residual = done
    gone = {k for k, _ in eliminated}
    survivors = [k for k in range(nparams) if k not in gone]
    return EliminationReport(names, eliminated, survivors, prune_multiples(residual))


def affine_space_check(report):
    """True when no residual equations remain (the cell is an affine space)."""
    return not report.residual


def cell_report(gens, nvars, graded):
    """Family, equations and elimination in one call."""
    family = generic_family(gens, nvars, graded)
    eqs = buchberger_equations(family)
    return family, eliminate_linear(eqs, family.nparams, family.names)


def instantiate(family, values, field=QQ):
    """Specialize the family at a parameter point over ``field``."""
    if len(values) != family.nparams:
        raise ValueError("need one value per parameter")
    one, nvars = field.one, family.nvars
    out = []
    for lead, support in family.members:
        terms = [(lead, one)]
        for mono, k in support:
            v = values[k]
            if v:
                terms.append((mono, -v))
        out.append(Polynomial._raw(field, nvars, tuple(terms)))
    return out


def back_substitute(report, survivor_values=None, field=QQ):
    """Full parameter vector from survivor values via the recorded chain."""
    n = len(report.names)
    vals = [None] * n
    sv = dict(survivor_values or {})
    for k in report.survivors:
        vals[k] = sv.get(k, field.zero)
    for k, expr in reversed(report.eliminated):
        vals[k] = expr.evaluate(vals)
    return vals


def single_parameter_factor(eq):
    """Index of a parameter dividing every monomial of eq, or None."""
    common = None
    for mono, _ in eq.terms:
        support = {k for k, e in enumerate(mono) if e}
        common = support if common is None else common & support
        if not common:
            return None
    return min(common) if common else None
