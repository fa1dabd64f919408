"""Buchberger engine over exact fields.

S-polynomials, multivariate division, reduced Groebner bases, leading term
ideals, colength, and a rank-based count of graded minimal generators.
Every S-pair set comes from one rule on lead monomials, the Gebauer-Moeller
update (product and chain criteria).  What depends on the leads alone -- the
pairs kept over a lead list and its minimal leads -- is memoized per lead
tuple (``_lead_facts``), so the many ideals of one Groebner cell share it.
This module is the independent verification oracle for everything the
cell machinery produces, so it never consults the structured formulas it
is used to check.

Every division here is the kernel ``poly._normal_form_dict`` (imported under
that name) and every S-polynomial ``poly._s_pair``, both on the packed
``.monic()`` forms that ``poly._reducers`` builds once per basis, inside one
``poly._widening`` run that chooses the field width.  Leads stay exponent
tuples where the lead memos key on them, and only the outputs are unpacked.
Lead lists too long to be shared by many ideals skip the memos
(``LEAD_MEMO_LIMIT``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import DomainError
from .linalg import echelon_insert
from .poly import (_division, _integral, _normal_form_dict, _Overflow, _Packing, _reducers,
                   _s_half, _s_pair, _start_width, _top, _widening, mono_divides, mono_lcm,
                   mono_mul)


# ---------------------------------------------------------------------------
# monomial ideals

@dataclass(frozen=True, slots=True, init=False, repr=False)
class MonomialIdeal:
    """A monomial ideal stored by its minimal generators."""

    nvars: int
    gens: tuple

    def __init__(self, nvars, gens):
        """Exponents are read with ``operator.index``; each generator needs ``nvars`` of them,
        none negative (DomainError)."""
        gens = sorted({tuple(map(operator.index, g)) for g in gens})
        if bad := [g for g in gens if len(g) != nvars or min(g, default=0) < 0]:
            raise DomainError(f"a generator needs {nvars} nonnegative exponents, got {bad[0]}")
        minimal = []  # in ascending lex order a proper divisor comes first
        for g in gens:
            for h in minimal:
                if mono_divides(h, g):
                    break
            else:
                minimal.append(g)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "gens", tuple(reversed(minimal)))

    def contains(self, mono):
        return any(mono_divides(g, mono) for g in self.gens)

    def pure_power_exponent(self, i):
        """Least e with x_i^e in the ideal, or None."""
        best = None
        for g in self.gens:
            if all(e == 0 for k, e in enumerate(g) if k != i):
                if best is None or g[i] < best:
                    best = g[i]
        return best

    def _slices(self):
        """The standard monomials as slices along the last variable, in lex order.

        Yields (prefix, c) for each prefix of the other exponents under
        which the standard monomials are prefix + (b,) for 0 <= b < c,
        c > 0: c is the least last exponent among the generators whose
        other exponents divide the prefix.  Raising an exponent only
        shrinks the slices, so each variable is raised until its slices
        are empty, and the walk costs what the standard monomials cost, not
        their exponent box.  Needs every pure power in the ideal.
        """
        last = self.nvars - 1

        def walk(active, prefix):
            k = len(prefix)
            if k == last:
                c = min([g[k] for g in active])
                if c:
                    yield prefix, c
                return
            for e in itertools.count():
                empty = True
                for piece in walk([g for g in active if g[k] <= e], prefix + (e,)):
                    empty = False
                    yield piece
                if empty:
                    return

        return walk(self.gens, ())

    def colength(self):
        """Number of standard monomials; math.inf when infinite, 0 for the unit ideal."""
        if not self.gens:
            return math.inf
        if self.gens[0] == (0,) * self.nvars:
            return 0  # unit ideal
        if any(self.pure_power_exponent(i) is None for i in range(self.nvars)):
            return math.inf
        return sum([c for _, c in self._slices()])

    def standard_monomials(self):
        """All monomials outside the ideal (finite colength required), in lex order."""
        if any(self.pure_power_exponent(i) is None for i in range(self.nvars)):
            raise DomainError("the ideal has infinite colength")
        if not self.nvars:
            return [] if self.gens else [()]
        return [prefix + (b,) for prefix, c in self._slices() for b in range(c)]

    def __repr__(self):
        from .poly import default_names, mono_to_str
        names = default_names(self.nvars)
        inside = ", ".join(mono_to_str(g, names) or "1" for g in self.gens)
        return f"MonomialIdeal({inside})"


def colength(E):
    """Standard monomial count of a monomial ideal (inf flag when infinite)."""
    return E.colength()


# ---------------------------------------------------------------------------
# division and S-polynomials

def s_polynomial(f, g):
    """(L/Lt f) f / Lc f - (L/Lt g) g / Lc g with L = lcm of leading terms."""
    if f.is_zero or g.is_zero:
        raise ValueError("S-polynomials need nonzero inputs")
    L = mono_lcm(f.lt, g.lt)

    def run(P):
        a, b = _reducers(P, [f, g])
        key = P.pack(L)
        work = _s_pair(a, _s_half(b, key), key)
        if any([key & P.guard for key in work]):
            raise _Overflow
        return P.to_polynomial(f.field, work)

    return _widening(run, f.nvars, _top([f, g]))


def reduce(f, basis):
    """Multivariate division: f = sum q_i b_i + r, no term of r reducible.

    Returns (remainder, quotients).  Each step reduces by the first basis
    element whose leading term divides the current monomial.  ``f`` and the
    basis must be over one field (DomainError otherwise).
    """
    basis = list(basis)
    if any(g.is_zero for g in basis):
        raise ValueError("reduction basis contains the zero polynomial")
    field = f.field
    rem, quots = _division(f, basis, quotients=True)
    return rem, [q.scale(field.div(field.one, g.lc)) for q, g in zip(quots, basis)]


def normal_form(f, basis):
    """Remainder of ``f`` on division by ``basis``."""
    return _division(f, basis)[0]


# ---------------------------------------------------------------------------
# Buchberger

def _gm_update(leads, t, pairs):
    """Gebauer-Moeller update of the pairs (L, i, j) of ``leads[:t]`` as ``leads[t]`` joins:
    the chain criterion prunes the old pairs; minimal lcms and the product criterion, the new."""
    lf = leads[t]
    kept = [(L, i, j) for L, i, j in pairs if not mono_divides(lf, L)
            or mono_lcm(leads[i], lf) == L or mono_lcm(leads[j], lf) == L]
    groups = {}
    for i in range(t):
        groups.setdefault(mono_lcm(leads[i], lf), []).append(i)
    minimal = []
    for L, group in sorted(groups.items()):
        if not any([mono_divides(M, L) for M in minimal]):
            minimal.append(L)
            if L not in [mono_mul(leads[i], lf) for i in group]:
                kept.append((L, group[0], t))
    return kept


# The lead-only facts below are memoized on the lead tuple: every ideal of one
# Groebner cell has the same leads, and callers visit many of them.  Bounded,
# so a long run over many lead lists does not grow the memo without end.
LEAD_CACHE_SIZE = 1024

# The longest lead list the lead memos keep, and the most steps of a kept
# staircase.  An entry costs O(leads) memory or more and lives as long as the
# memo: kept, a dropped staircase of x^10000000 holds the process at 169 MB.
# At 64, an entry of staircase leads and its staircase take about 20 KB, so
# full memos of them hold about 20 MB, near the size of the process itself
# (at 256, about 80 MB).  The lead lists that many ideals share are far
# shorter: a chart round trip of colength d has at most d + 1 leads, and the
# benchmark's charts stop at colength 9, the acceptance tests' at 12.  A longer
# list is worked out on each call: at 400 leads, a repeated chart round trip
# takes 0.26 s instead of 0.04 s.
LEAD_MEMO_LIMIT = 64


@functools.lru_cache(maxsize=LEAD_CACHE_SIZE)
def _lead_facts(leads):
    """What a tuple of lead monomials fixes on its own: the pairs (L, i, j) that the
    Gebauer-Moeller update keeps as ``leads`` join in order, and the indices of the minimal
    leads (divisible by no other; the first of equal ones), in ascending lead order.
    Callers go through ``_facts_of``, which skips the memo above ``LEAD_MEMO_LIMIT`` leads."""
    pairs = []
    for t in range(1, len(leads)):
        pairs = _gm_update(leads, t, pairs)
    minimal = []
    for i in sorted(range(len(leads)), key=leads.__getitem__):
        if not any([mono_divides(leads[j], leads[i]) for j in minimal]):
            minimal.append(i)
    return tuple(pairs), tuple(minimal)


def _facts_of(leads):
    """``_lead_facts`` of a lead tuple, memoized up to ``LEAD_MEMO_LIMIT`` leads."""
    return (_lead_facts if len(leads) <= LEAD_MEMO_LIMIT else _lead_facts.__wrapped__)(leads)


def _pairs_of(leads):
    """The pairs that the Gebauer-Moeller update keeps as ``leads`` join in order: Buchberger's
    criterion needs only these.  For a staircase's minimal generators, the adjacent pairs.
    A new list each call, so a caller may consume it."""
    return list(_facts_of(tuple(leads))[0])


# The key and basis of the last buchberger_reduced computation: one entry,
# so a basis is reused only while consecutive calls pass the same generators.
_last = (None, ())


def buchberger_reduced(gens):
    """The unique reduced Groebner basis (lex) of the ideal of ``gens``.

    Normal selection strategy (lex-smallest lcm first) with the product
    and chain criteria; auto-reduction at the end.  Output is sorted by
    decreasing leading term, every element monic.

    The last result is remembered: a call whose nonzero generators have the
    same field, number of variables and terms, in the same order, as the
    previous call's returns the same basis without recomputing it.  Every
    call returns a new list, so a caller may sort or extend it.
    """
    global _last
    start = [g for g in gens if not g.is_zero]
    if not start:
        raise ValueError("need at least one nonzero generator")
    key = (start[0].field, start[0].nvars, tuple(g.terms for g in start))
    last_key, gb = _last
    if key != last_key:
        gb = _reduced_basis(start)
        _last = (key, gb)
    return list(gb)


def _reduced_basis(start):
    """Buchberger's algorithm on a nonempty list of nonzero generators.

    The basis is held as packed monic (lead, tail) reducers, with the leads
    also kept as tuples for the pair rule; Polynomials are built for the output only.
    """
    field = start[0].field

    def run(P):
        guard, pack, unpack = P.guard, P.pack, P.unpack
        reducers = _reducers(P, start)
        leads = [g.terms[0][0] for g in start]
        facts = _facts_of(tuple(leads))
        pairs = list(facts[0])
        while pairs:
            L, i, j = pair = min(pairs)
            pairs.remove(pair)
            L = pack(L)
            rem = _normal_form_dict(_s_pair(reducers[i], _s_half(reducers[j], L), L), reducers, guard)
            if rem:
                (lead, c), *tail = sorted(rem.items(), reverse=True)
                inv = field.div(field.one, c)
                reducers.append((lead, tuple([(m, _integral(inv * v)) for m, v in tail])))
                leads.append(unpack(lead))
                pairs = _gm_update(leads, len(leads) - 1, pairs)
        if len(leads) > len(start):  # new leads joined: the minimal ones are among all of them
            facts = _facts_of(tuple(leads))
        # minimalize: drop elements whose lead is divisible by another lead
        minimal = [reducers[i] for i in facts[1]]
        # interreduce tails (no lead divides a term below it, so its own reducer never acts)
        out = []
        for lead, tail in reversed(minimal):
            rem = _normal_form_dict(dict(tail), minimal, guard)
            rem[lead] = field.one
            out.append(P.to_polynomial(field, rem))
        return tuple(out)

    return _widening(run, start[0].nvars, _top(start))


def is_groebner_basis(fs):
    """Check Buchberger's criterion on the pairs that the Gebauer-Moeller update keeps.

    The inputs are checked first (one field, one number of variables), so the pair
    rule never reads the leads of a refused basis into its memo."""
    fs = [f for f in fs if not f.is_zero]
    for f in fs[1:]:
        fs[0]._same_field(f)
    pairs = _pairs_of([f.lt for f in fs])

    def run(P):
        reducers = _reducers(P, fs)
        halves = [(L := P.pack(M), i, _s_half(reducers[j], L)) for M, i, j in pairs]
        return _criterion_holds(reducers, halves, P.guard)

    return _widening(run, fs[0].nvars if fs else 0, _top(fs))


def _criterion_holds(reducers, pairs, guard):
    """Whether the S-pair of every pair (L, i, half) of packed monic (lead, tail) reducers
    reduces to 0: the S-pair of reducers[i] and a reducer b with ``half = _s_half(b, L)``,
    the lcm L packed too.  Each half is copied, so it may serve many calls, and each
    reduction stops at the first term that no lead divides (``zero_test``)."""
    for L, i, half in pairs:
        if _normal_form_dict(_s_pair(reducers[i], half.copy(), L), reducers, guard, zero_test=True):
            return False
    return True


def leading_term_ideal(gb):
    """Minimal monomial generators of Lt(I) for a Groebner basis."""
    gb = [g for g in gb if not g.is_zero]
    if not gb:
        raise ValueError("empty basis")
    return MonomialIdeal(gb[0].nvars, [g.lt for g in gb])


# ---------------------------------------------------------------------------
# graded minimal generator oracle

def graded_beta0_profile(gens, up_to=None):
    """Number of minimal generators per degree, by exact rank sweeps.

    For a homogeneous ideal I given by homogeneous ``gens``, computes
    beta_{0,j} = dim I_j - dim (R_1 * I_{j-1})_j for every j up to the
    largest generator degree (or ``up_to``), maintaining an echelon basis
    of each graded piece.  Purely linear algebra: no Groebner machinery.
    The generators must share one field and one number of variables
    (DomainError).

    The rows are keyed by packed monomials (``poly._Packing``) with fields
    of ``poly._start_width(top)`` bits.  No exponent exceeds ``top``, so no
    field overflows and the sweep needs no ``poly._widening``; within one
    degree, int order is lex order, and multiplying by a variable adds a
    constant.  So a variable's multiples of an echelon basis have distinct
    leads, each known: a multiple whose lead is free is stored as the row it
    multiplies under a larger shift (``linalg.echelon_insert``), uncopied,
    and only a multiple whose lead is taken is written out and reduced.
    """
    gens = [g for g in gens if not g.is_zero]
    for g in gens[1:]:
        gens[0]._same_field(g)
    by_degree = {}
    for g in gens:
        degrees = {sum(m) for m, _ in g.terms}
        if len(degrees) > 1:
            raise ValueError("graded generator counts need homogeneous generators")
        by_degree.setdefault(degrees.pop(), []).append(g)
    if not by_degree:
        return {}
    top = max(by_degree)
    if up_to is not None:
        top = max(top, up_to)
    P = _Packing(gens[0].nvars, _start_width(top))
    variables = [1 << s for s in P.shifts]
    profile = {}
    echelon = {}  # the echelon basis of the current graded piece: lead -> (row, shift)
    for j in range(min(by_degree), top + 1):
        basis, echelon = echelon, {}
        for v in variables:  # x_1 first: its multiples all land on free leads
            for lead, (row, s) in basis.items():
                lead, s = lead + v, s + v
                if lead in echelon:
                    echelon_insert(echelon, {m + s: c for m, c in row.items()}, lead)
                else:
                    echelon[lead] = (row, s)
        before = len(echelon)
        for g in by_degree.get(j, ()):
            echelon_insert(echelon, dict(P.pack_terms(g.terms)))
        beta = len(echelon) - before
        if beta:
            profile[j] = beta
    return profile


def graded_minimal_generators(gens, j):
    """beta_{0,j}: minimal generators of degree j of a homogeneous ideal."""
    return graded_beta0_profile(gens, up_to=j).get(j, 0)
