"""Point-count validation of the cell dimension formulas.

Summing q^dim over the cells of a fixed colength must give the number of
all colength-d ideals of F_q[x,y].  The independent count enumerates, for
every staircase, all parameter points of the generic (ungraded) family
over F_q and keeps those passing Buchberger's criterion verbatim: each
ideal has a unique reduced Groebner basis, so each is counted exactly
once and no dimension formula enters the oracle side.

The family is read off the staircase's minimal generators and standard
monomials, with no monomial-ideal scan, by the support rule of
``generic_family`` (``generic_cells._support``).  The points are
enumerated member by member: each member with n parameters has a table of
its q^n monic (lead, tail) forms, built once per staircase on packed
monomials, and a point is one choice from every table.
The criterion of ``groebner.is_groebner_basis`` runs through the same helper
and the same kernel, on the staircase's adjacent pairs, which the
Gebauer-Moeller update keeps for its leads: each pair once per choice of the
suffix it reduces by (``_accepted``).  The half of its S-pair that the suffix
fixes (``poly._s_half``) is built once per suffix, and each reduction stops at
the first term that no lead divides.  The members below the lowest pair
are in no check, so their points are counted, and their tables never built.
``BRUTE_FORCE_POINT_LIMIT`` bounds the number of points, and
``CENSUS_STAIRCASE_LIMIT`` the number of staircases of a census.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import DomainError
from .field import GF
from .generic_cells import _support
from .groebner import _criterion_holds, _pairs_of
from .hilbert_burch import CellKind, cell_dimension
from .poly import _s_half, _widening
from .staircase import enumerate_staircases


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CellCensus:
    """Per-staircase cell dimensions and the q-polynomial total."""

    d: int
    records: tuple
    total: dict

    def evaluate(self, q):
        """The predicted number of colength-d ideals over F_q."""
        return sum(c * q**e for e, c in self.total.items())

    def total_string(self):
        parts = []
        for e in sorted(self.total, reverse=True):
            c = self.total[e]
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}q^{e}" if e != 1 else f"{head}q")
        return " + ".join(parts)

    def to_json(self):
        return {
            "d": self.d,
            "cells": [{"m": list(E.m),
                       "dims": {str(k): v for k, v in sorted(dims.items(), key=lambda kv: kv[0].value)}}
                      for E, dims in self.records],
            "total": self.total_string(),
        }


# The most staircases cell_census enumerates: colength 32 has 8,349 and runs
# in about 0.5 s, colength 33 has 10,143 and is refused.
CENSUS_STAIRCASE_LIMIT = 10_000


def _staircase_count(d, cap):
    """p(d), the number of staircases of colength d, by Euler's pentagonal
    recurrence; it stops at the first p(n) > cap, n <= d, and returns that."""
    p = [1]
    for n in range(1, d + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= n:
            sign = 1 if k % 2 else -1
            total += sign * (p[n - g] + (p[n - g - k] if g + k <= n else 0))
            k += 1
        p.append(total)
        if total > cap:
            break
    return p[-1]


def cell_census(d):
    """The dimensions of the four cells of every staircase of colength d.

    A colength with more than ``CENSUS_STAIRCASE_LIMIT`` staircases raises
    DomainError before any is enumerated.
    """
    if (count := _staircase_count(d, CENSUS_STAIRCASE_LIMIT)) > CENSUS_STAIRCASE_LIMIT:
        raise DomainError(
            f"the census at colength {d} has {count} staircases or more, over the budget "
            f"of {CENSUS_STAIRCASE_LIMIT} (census.CENSUS_STAIRCASE_LIMIT)")
    records = []
    total = {}
    for E in enumerate_staircases(d):
        dims = {kind: cell_dimension(E, kind) for kind in CellKind}
        records.append((E, dims))
        e = dims[CellKind.V0]
        total[e] = total.get(e, 0) + 1
    return CellCensus(d, tuple(records), total)


# The most points brute_force_ideal_count enumerates, summed over the
# staircases: every colength d <= 3 over F_q, q <= 5, fits; the largest,
# (d, q) = (3, 5), has 406,875 points.
BRUTE_FORCE_POINT_LIMIT = 500_000


def _tables(members, negs, P):
    """The option tables of family ``members``, on the keys of the packing ``P``.

    Each member (lead, support) with n support monomials, so n parameters,
    gets a table of its q^n forms: a tail is ((m, -v), ...) in support order
    with the zero values dropped, as ``_reducers(P, instantiate(...))`` builds
    it; ``negs`` lists -v for the field elements v in the order of
    ``field.elements()``.  Parameters are numbered member by member, so the
    product of the tables runs through the points in the order of
    ``itertools.product(elems, repeat=...)``.
    """
    pack = P.pack
    tables = []
    for lead, support in members:
        lead, monos = pack(lead), [pack(m) for m in support]
        tables.append([
            (lead, tuple([(m, v) for m, v in zip(monos, values) if v]))
            for values in itertools.product(negs, repeat=len(monos))])
    return tables


def _accepted(members, pairs, negs, P):
    """The number of points of ``members`` whose S-pairs ``pairs`` (L, i, j), i < j, reduce to 0.

    Member f_i has lead x^(t-i) y^(m_i), and no term of the S-pair of (i, j)
    or of its reduction has x-degree above t - i: only f_i, ..., f_t divide
    its terms, so it reduces as by all members.  The walk chooses f_t down
    to the lowest member in a pair, checks the pairs of f_k on the suffix
    (f_k, ..., f_t) as soon as f_k is chosen, and prunes the subtree when one
    fails; the half of each S-pair that the suffix fixes is built once for
    all q^n forms of f_k.  Below the lowest pair, as for (x^a, y^b) with none, every
    completion is accepted: those members' q^(their parameter count) points
    are counted, and their tables are not built.
    """
    low = min([i for _, i, _ in pairs], default=len(members))
    free = len(negs) ** sum([len(support) for _, support in members[:low]])
    tables = _tables(members[low:], negs, P)
    checks = [[] for _ in tables]
    for L, i, j in pairs:
        checks[i - low].append((P.pack(L), j - i - 1))
    guard = P.guard

    def walk(k, suffix):
        if k < 0:
            return free
        halves = [(L, 0, _s_half(suffix[j], L)) for L, j in checks[k]]
        count = 0
        for f in tables[k]:
            s = (f, *suffix)
            if _criterion_holds(s, halves, guard):
                count += walk(k - 1, s)
        return count

    return walk(len(tables) - 1, ())


def brute_force_ideal_count(d, q):
    """Count every ideal of colength d in F_q[x,y] by exhaustive Buchberger.

    Kept to d <= 3: the parameter spaces grow as q^N with N up to 8 already
    at colength 3.  The points of all staircases together, the sum of q^N
    over the families read off them (``generic_cells._support``), are bounded by
    ``BRUTE_FORCE_POINT_LIMIT``: a larger count raises DomainError before
    any option table is built.  The points of a staircase come from its
    members' option tables (``_tables``), built on packed monomials at the
    width that ``poly._widening`` chooses for the instantiated family, and
    ``_accepted`` counts those passing the criterion of ``is_groebner_basis``
    on the pairs of ``groebner._pairs_of``, found once per staircase.
    """
    if d < 1:
        raise ValueError("colength must be at least 1")
    if d > 3:
        raise DomainError(
            f"brute-force counting is limited to colength <= 3 (got {d}): "
            "the enumeration grows like q^N with N the full parameter count")
    field = GF(q)
    families = []
    for E in enumerate_staircases(d):
        standard = E.standard_monomials()
        families.append([(lead, _support(lead, standard)) for lead in E.generators(minimal=True)])
    points = sum(q ** sum([len(support) for _, support in members]) for members in families)
    if points > BRUTE_FORCE_POINT_LIMIT:
        raise DomainError(
            f"brute-force counting at colength {d} over F_{q} has {points} points, over the "
            f"budget of {BRUTE_FORCE_POINT_LIMIT} (census.BRUTE_FORCE_POINT_LIMIT)")
    negs = [-v for v in field.elements()]
    count = 0
    for members in families:
        leads = [lead for lead, _ in members]
        # the width of _reducers(instantiate(...)): no tail exponent is above the leads'
        count += _widening(functools.partial(_accepted, members, _pairs_of(leads), negs),
                           2, max(map(max, leads)))
    return count
