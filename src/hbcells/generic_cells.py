"""Generic Groebner cell equations in any number of variables.

For a monomial ideal E in k[x_1..x_n] the generic family attaches to each
minimal generator m the polynomial f_m = m - sum a_k m' over the standard
monomials m' below m (same degree in the graded variant).  Requiring the
family to be a Groebner basis turns Buchberger's criterion into polynomial
equations in the parameters a_k; parameters occurring linearly with scalar
coefficient and nowhere else in their equation can be eliminated greedily.
When nothing survives, the cell is an affine space whose dimension is the
number of surviving parameters.  Both stages hold the equations as one
``ParameterEquations``, integer polynomials on packed parameter monomials;
a Polynomial is built only for the residual equations, and when an equation
or the substitution log is read.
Both run under ``poly._widening``, the one rule for packed field widths, and
the S-pair reductions pack their x-monomials at the same width.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial, reduce
from operator import or_

from .errors import DomainError
from .field import QQ
from . import poly
from .groebner import MonomialIdeal
from .poly import (Polynomial, _Overflow, _Packing, _widening, exact_quotient, mono_lcm,
                   monomials_of_degree)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class GenericFamily:
    """The parametrized candidate reduced Groebner basis of a cell.

    ``members`` holds one entry per minimal generator, sorted by decreasing
    leading monomial: (lead, support) where support is a tuple of
    (monomial, parameter_index) pairs in decreasing monomial order; the
    parameter indices run through 0..nparams-1.
    """

    E: MonomialIdeal
    nvars: int
    graded: bool
    members: tuple
    nparams: int
    names: tuple


# Budget of the generic family: the most monomials its standard monomials are
# scanned from (the exponent box under the pure powers when ungraded, every
# monomial of each generator degree when graded), and the most parameters.
# (x1^13, x2^13, x3^13) has a box of 2,197 monomials and 2,379 parameters,
# and its Groebner-basis check runs in about 4 s on one core.
FAMILY_LIMIT = 2500


def _over_budget(graded, what):
    return DomainError(f"the {'graded' if graded else 'ungraded'} family has {what}, over the "
                       f"budget of {FAMILY_LIMIT} (generic_cells.FAMILY_LIMIT)")


def _support(lead, standard):
    """The support of ``lead`` in the generic family: the monomials of ``standard`` (in
    increasing lex order, the standard monomials, or those of the lead's degree when
    graded) below the lead, in decreasing lex order."""
    return standard[:bisect.bisect(standard, lead)][::-1]


def generic_family(gens, nvars, graded):
    """Build the generic family over the minimal generators of (gens).

    In graded mode the support of f_m is every standard monomial of the
    same degree below m; ungraded mode takes every standard monomial below
    m under lex, which requires finite colength.  A family whose scan (the
    monomials of every generator degree, or the exponent box) or parameter
    count exceeds ``FAMILY_LIMIT`` raises DomainError before its standard
    monomials are enumerated or its parameters are all built.
    """
    E = gens if isinstance(gens, MonomialIdeal) else MonomialIdeal(nvars, gens)
    if graded:
        degrees = sorted({sum(g) for g in E.gens})
        scan = sum(math.comb(deg + E.nvars - 1, E.nvars - 1) for deg in degrees)
        if scan > FAMILY_LIMIT:
            raise _over_budget(graded, f"a degree scan of {scan} monomials")
        by_degree = {deg: [m for m in reversed(monomials_of_degree(E.nvars, deg))
                           if not E.contains(m)] for deg in degrees}
    else:
        bounds = [E.pure_power_exponent(i) for i in range(E.nvars)]
        if None in bounds:
            raise DomainError("the ungraded family needs finite colength")
        box = math.prod(bounds)
        if box > FAMILY_LIMIT:
            raise _over_budget(graded, f"an exponent box of {box} monomials")
        standard = E.standard_monomials()

    members, k = [], 0
    for lead in sorted(E.gens, reverse=True):
        support = _support(lead, by_degree[sum(lead)] if graded else standard)
        members.append((lead, tuple(zip(support, range(k, k + len(support))))))
        k += len(support)
        if k > FAMILY_LIMIT:
            raise _over_budget(graded, f"{k} parameters or more")
    return GenericFamily(E, E.nvars, graded, tuple(members), k,
                         tuple(f"a{i + 1}" for i in range(k)))


def prune_multiples(eqs):
    """Drop equations that are proper polynomial multiples of another one.

    Such equations are redundant for the variety the system cuts out;
    order is preserved and the result is deterministic.
    """
    return [eq for i, eq in enumerate(eqs)
            if not any(j != i and other.total_degree() < eq.total_degree()
                       and exact_quotient(eq, other) is not None
                       for j, other in enumerate(eqs))]


def _primitive(acc):
    """The primitive form of a {key: int} dict, zero values dropped: a term tuple in
    decreasing key order with integer content 1 and a positive leading coefficient,
    () when every value is 0."""
    terms = [t for t in acc.items() if t[1]]
    if not terms:
        return ()
    terms.sort(reverse=True)
    g = math.gcd(*acc.values())
    if terms[0][1] < 0:
        g = -g
    return tuple(terms) if g == 1 else tuple([(key, c // g) for key, c in terms])


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ParameterEquations(Sequence):
    """Distinct parameter equations: ``rows`` holds each as a primitive term tuple
    (``_primitive``) on the keys of ``packing``, guard bits clear.  Reading an
    equation builds its monic QQ Polynomial; ``eliminate_linear`` takes the rows."""

    packing: _Packing
    rows: tuple

    @classmethod
    def from_polynomials(cls, eqs, nparams):
        """Pack QQ Polynomials in ``nparams`` variables, dropping zeros and scalar repeats."""
        eqs = list(eqs)
        if any(eq.field != QQ for eq in eqs):
            raise DomainError("linear elimination needs equations over QQ")
        if (bad := next((eq.nvars for eq in eqs if eq.nvars != nparams), None)) is not None:
            raise DomainError(f"an equation in {bad} variables, expected {nparams} parameters")
        top = max((max(mono, default=0) for eq in eqs for mono, _ in eq.terms), default=0)
        P = _Packing(nparams, poly._start_width(top))
        rows = {}  # an ordered set
        for eq in eqs:
            if eq.terms:
                den = math.lcm(*(c.denominator for _, c in eq.terms))
                rows.setdefault(_primitive({P.pack(mono): c.numerator * (den // c.denominator)
                                            for mono, c in eq.terms}))
        return cls(P, tuple(rows))

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ParameterEquations(self.packing, self.rows[i])
        terms = self.rows[i]
        return self.packing.polynomial(terms, terms[0][1])


def _buchberger_packed(family, P):
    """One run of the S-pair reductions, parameter monomials packed on P and x-monomials
    on ``_Packing(nvars, P.width)``.

    A coefficient is an integer polynomial in the parameters, a {key: int} dict.
    Every member's tail coefficient is -a_k, one key, so reducing the coefficient
    c at x-monomial m by a member adds c shifted by a_k's key into the coefficient
    at u*tm for each tail term.  A pair whose leads are coprime is skipped: its
    S-pair reduces to 0 at every point (Buchberger's product criterion).  Returns
    the distinct equations in primitive form; raises ``_Overflow`` as soon as an
    x-monomial taken from the work dict, or its coefficient, has a guard bit set.
    """
    X = _Packing(family.nvars, P.width)
    xguard, guard = X.guard, P.guard
    members = [(X.pack(lead),
                [(X.pack(mono), 1 << P.shifts[k]) for mono, k in support])
               for lead, support in family.members]
    leads = [lead for lead, _ in family.members]
    rows = {}  # an ordered set
    for (xa, (la, ta)), (xb, (lb, tb)) in itertools.combinations(zip(leads, members), 2):
        L = X.pack(mono_lcm(xa, xb))
        if L == la + lb:
            continue  # coprime leads: the S-pair reduces to 0 (product criterion)
        ua, ub = L - la, L - lb
        # u_a*tail_a - u_b*tail_b; two members share no parameter, so nothing cancels
        work = {ua + m: {a: -1} for m, a in ta}
        for m, a in tb:
            work.setdefault(ub + m, {})[a] = 1
        while work:
            m = max(work)
            c = work.pop(m)
            if m & xguard or reduce(or_, c) & guard:
                raise _Overflow
            mg = m | xguard
            for lead, tail in members:
                if (mg - lead) & xguard == xguard:
                    u = m - lead
                    for tm, a in tail:
                        key = u + tm
                        d = work.get(key)
                        if d is None:
                            work[key] = {ck + a: cv for ck, cv in c.items()}
                            continue
                        for ck, cv in c.items():
                            ck += a
                            cv += d.get(ck, 0)
                            if cv:
                                d[ck] = cv
                            else:
                                del d[ck]
                        if not d:
                            del work[key]
                    break
            else:
                # a remainder coefficient, in decreasing x-monomial order: one equation
                rows.setdefault(_primitive(c))
    return ParameterEquations(P, tuple(rows))


def buchberger_equations(family):
    """The parameter equations making the family a Groebner basis.

    Every S-pair of two members whose leads share a variable is reduced with
    the leading coefficients kept monic (no parameter is ever inverted); a
    pair with coprime leads adds no condition (the product criterion) and is
    skipped, so the list is shorter than the all-pairs one, and on the
    families the tests check both give the same elimination report.  The
    reducer is the member whose leading monomial divides the current
    monomial, the lex-largest such leading monomial when there is a choice
    (``members`` is sorted that way), the rule of ``poly._normal_form_dict``.
    Each coefficient of the final remainder is one equation; zeros and repeats
    up to a scalar are dropped, order kept.

    The x-monomials and the coefficients, integer polynomials in the parameters,
    are on packed keys of one width (``_buchberger_packed``) that
    ``poly._widening`` picks from the family's largest exponent and widens when
    an exponent outgrows it; the result is ``ParameterEquations``.
    """
    top = max((max(m) for lead, support in family.members
               for m in (lead, *(mono for mono, _ in support))), default=0)
    return _widening(partial(_buchberger_packed, family), family.nparams, top)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class EliminationReport:
    """Outcome of the greedy linear elimination.

    ``steps`` is the substitution log as it was made, one (k, c, rest) per
    eliminated parameter: a_k = rest / (-c), with rest an int term tuple on the
    keys of ``packing``.  ``eliminated`` builds it as (k, Polynomial) pairs on
    read; the JSON writes it off the keys.
    """

    names: tuple
    packing: _Packing
    steps: tuple
    residual: tuple

    @property
    def initial_count(self):
        return len(self.names)

    @property
    def eliminated(self):
        P = self.packing
        return tuple((k, P.polynomial(rest, -c)) for k, c, rest in self.steps)

    @property
    def survivors(self):
        gone = {k for k, _, _ in self.steps}
        return tuple(k for k in range(len(self.names)) if k not in gone)

    @property
    def eliminated_names(self):
        return tuple(self.names[k] for k, _, _ in self.steps)

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
            names, to_str = self.names, self.packing.to_str
            data["substitutions"] = [{"param": names[k], "expr": to_str(rest, -c, names)}
                                     for k, c, rest in self.steps]
        return data


def _eliminate_packed(eqs, P):
    """One run of the elimination on the rows of ``ParameterEquations``, repacked on P
    when its width is not theirs (int order is lex order at every width).

    A step rewrites each row that holds a_k in one pass over its terms: the
    a_k-free terms go straight into the accumulator, each a_k^e term takes the
    e-th power of -rest/sign(c), kept per step as a term list, and a term is
    scaled by a power of |c| only when |c| is not 1.  ``_primitive`` drops the
    zeros, sorts and divides out the content on one list, and ``row`` reads the
    new keys once.  The dedupe compares a row only with the rows on its support,
    and only on the support of a rewritten row.

    The run raises ``_Overflow`` as soon as a product sets a guard bit.  Otherwise
    it returns P, the substitution log as packed (k, c, rest) steps, and the
    monic equations left, as Polynomials.
    """
    rows = eqs.rows
    if P.width != eqs.packing.width:
        unpack = eqs.packing.unpack
        rows = [tuple((P.pack(unpack(key)), v) for key, v in terms) for terms in rows]
    nparams, width, up = P.nvars, P.width, P.width - 1
    lows, guard, fmask = P.lows, P.guard, P.fmask
    fill = guard - lows  # 2^(width-1) - 1 in every field

    def row(terms):
        """(terms, support, pick): support has the guard bit of every parameter
        in the equation, pick is the key a_k of its eligible parameter or 0.
        Raises ``_Overflow`` when a key has a guard bit set: the summands of a
        rewritten key had clear guards, so an overflow cannot carry into the
        next field."""
        blocked = 0
        linear = []
        for key, _ in terms:
            if key & (key - 1) == 0 and key & lows:
                linear.append(key)
            else:
                blocked |= key
        supp = blocked | sum(linear)
        if supp & guard:
            raise _Overflow
        supp = (supp + fill) & guard
        blocked = (blocked + fill) & guard
        for key in linear:
            if not (key << up) & blocked:
                return terms, supp, key
        return terms, supp, 0

    rows = list(map(row, rows))
    steps = []
    while True:
        for pick in rows:
            if pick[2]:
                break
        else:
            return P, tuple(steps), [P.polynomial(terms, terms[0][1]) for terms, _, _ in rows]
        terms, _, key_k = pick
        shift = key_k.bit_length() - 1
        i = [key for key, _ in terms].index(key_k)
        c, rest = terms[i][1], terms[:i] + terms[i + 1:]
        steps.append((nparams - 1 - shift // width, c, rest))
        mine = key_k << up
        # c^deg * row(a_k = -rest/c) for a row of a_k-degree deg is sign(c)^deg times
        # the sum of v * |c|^(deg-e) * q^e * u over its terms v*a_k^e*u, q = -rest/sign(c),
        # so both have one primitive form.  powers[e] is q^e as a term list.
        m = abs(c)
        powers = [None, [(key, -v) for key, v in rest] if c > 0 else list(rest)]
        out, rewritten = [], set()  # the supports of the rewritten rows
        for r in rows:
            if r is pick:
                continue  # c*a_k + rest at a_k = -rest/c is 0
            if r[1] & mine:
                acc, subs, deg = {}, [], 1
                for key, v in r[0]:
                    e = (key >> shift) & fmask
                    if not e:
                        acc[key] = v
                        continue
                    subs.append((key - (e << shift), v, e))
                    if e > deg:
                        deg = e
                if m != 1:
                    md = m**deg
                    acc = {key: v * md for key, v in acc.items()}
                    subs = [(base, v * m**(deg - e), e) for base, v, e in subs]
                while len(powers) <= deg:
                    prod = {}
                    for k1, v1 in powers[-1]:
                        for k2, v2 in powers[1]:
                            k3 = k1 + k2
                            prod[k3] = prod.get(k3, 0) + v1 * v2
                    prod = [t for t in prod.items() if t[1]]
                    if reduce(or_, [key for key, _ in prod], 0) & guard:
                        raise _Overflow
                    powers.append(prod)
                for base, v, e in subs:
                    for key, pv in powers[e]:
                        key += base
                        acc[key] = acc.get(key, 0) + v * pv
                terms = _primitive(acc)
                if not terms:
                    continue
                r = row(terms)
                rewritten.add(r[1])
            out.append(r)
        # the first of equal rows is kept.  Only a rewritten row can equal another, and
        # equal rows share a support, so only rows on a rewritten support are compared
        if not rewritten:
            rows = out
            continue
        rows, kept = [], {}  # rewritten support -> the term tuples kept on it
        for r in out:
            if r[1] in rewritten:
                on = kept.setdefault(r[1], [])
                if r[0] in on:
                    continue
                on.append(r[0])
            rows.append(r)


def eliminate_linear(eqs, nparams, names=None):
    """Iterate the linear elimination of parameters from the equations.

    Scans equations in order and parameters by index, replacing the first
    eligible parameter by minus the rest of its equation (divided by the
    scalar coefficient); repeats until nothing is eligible.  Only the
    equations that contain the parameter are rewritten; the others pass
    through unchanged, and the dedupe still runs over the whole list, so the
    first of two equal equations is kept.

    Equations are held as primitive integer polynomials on packed exponent
    keys (``_eliminate_packed``): eliminating a_k from c*a_k + rest rewrites
    each other equation of a_k-degree deg, in one pass over its terms, into the
    primitive form of c^deg times its value at a_k = -rest/c, so no coefficient
    is divided, and the picked one, which would become 0, is dropped.  The log
    stays packed in the report, and its text is written off the keys.
    Equal up to a scalar means equal primitive forms, so the choices are those
    of monic equations.  ``poly._widening`` runs it from the width of ``eqs``, and
    again wider when an exponent outgrows it.  ``eqs`` is used as it is when
    packed, else packed by ``ParameterEquations.from_polynomials``; equations not
    over QQ or not in ``nparams`` variables, or names not ``nparams`` long, raise
    DomainError.
    """
    names = tuple(f"a{k + 1}" for k in range(nparams)) if names is None else tuple(names)
    if len(names) != nparams:
        raise DomainError(f"{len(names)} parameter names, expected {nparams}")
    if not isinstance(eqs, ParameterEquations):
        eqs = ParameterEquations.from_polynomials(eqs, nparams)
    elif eqs.packing.nvars != nparams:
        raise DomainError(f"equations in {eqs.packing.nvars} parameters, expected {nparams}")
    P, steps, residual = _widening(partial(_eliminate_packed, eqs), nparams, eqs.packing.fmask)
    return EliminationReport(names, P, steps, tuple(prune_multiples(residual)))


def affine_space_check(report):
    """True when no residual equations remain (the cell is an affine space)."""
    return not report.residual


def cell_report(gens, nvars, graded):
    """Family, equations and elimination in one call."""
    family = generic_family(gens, nvars, graded)
    return family, eliminate_linear(buchberger_equations(family), family.nparams, family.names)


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
