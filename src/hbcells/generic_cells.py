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


def _eligible_parameter(eq):
    """First parameter occurring only as a bare linear term of eq."""
    linear = []
    blocked = set()
    for mono, _ in eq.terms:
        support = [k for k, e in enumerate(mono) if e]
        if len(support) == 1 and mono[support[0]] == 1:
            linear.append(support[0])
        else:
            blocked.update(support)
    for k in sorted(linear):
        if k not in blocked:
            return k
    return None


def eliminate_linear(eqs, nparams, names=None):
    """Iterate the linear elimination of parameters from the equations.

    Scans equations in order and parameters by index, replacing the first
    eligible parameter by minus the rest of its equation (divided by the
    scalar coefficient); repeats until nothing is eligible.  Only the
    equations that contain the parameter are rewritten; the others pass
    through unchanged (they are already monic), and the dedupe still runs
    over the whole list, so the first of two equal equations is kept.
    """
    names = tuple(f"a{k + 1}" for k in range(nparams)) if names is None else tuple(names)
    eqs = _normalize(list(eqs))
    eliminated = []
    while True:
        pick = None
        for eq in eqs:
            k = _eligible_parameter(eq)
            if k is not None:
                pick = (k, eq)
                break
        if pick is None:
            break
        k, eq = pick
        lam = tuple(1 if v == k else 0 for v in range(nparams))
        c = eq.coefficient(lam)
        rest = eq - Polynomial.monomial(QQ, nparams, lam, c)
        expr = rest.scale(QQ.div(-1, c))
        eliminated.append((k, expr))
        eqs = _normalize([e.substitute(k, expr) if any(m[k] for m, _ in e.terms) else e
                          for e in eqs])
    gone = {k for k, _ in eliminated}
    survivors = [k for k in range(nparams) if k not in gone]
    return EliminationReport(names, eliminated, survivors, prune_multiples(eqs))


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
