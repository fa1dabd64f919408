"""The division kernel on exponent-tuple monomials: the reference of the packed one.

This is the kernel of ``hbcells.poly`` written the plain way, every monomial
an exponent tuple and every step a ``mono_*`` helper, and the Groebner
entry points built on it.  The tests compare the library's packed kernel
with it, and use it where they divide with coefficients that are not field
elements (parameter polynomials).  ``echelon_insert`` is the elimination
kernel of ``hbcells.linalg`` written the same way, and ``graded_sweep`` the
degree sweep on it that the tuple references of the generator-count oracle
read.
"""

from operator import sub

from hbcells.groebner import _gm_update, _pairs_of
from hbcells.poly import Polynomial, _integral, mono_divides, mono_lcm, mono_mul


def mono_div(a, b):
    """Exponent-wise a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def normal_form_dict(work, reducers, quots=None):
    """Divide the term dict ``work`` (consumed) by monic (lead, tail) pairs.

    Each step cancels the largest remaining monomial with the first reducer
    whose lead divides it.  Returns the remainder dict; with ``quots`` (one
    dict per reducer) the quotient terms are recorded as ``quots[k][u] = c``.
    """
    rem = {}
    while work:
        m = max(work)
        c = work.pop(m)
        for k, (lead, tail) in enumerate(reducers):
            if mono_divides(lead, m):
                u = mono_div(m, lead)
                if quots is not None:
                    quots[k][u] = c
                for tm, tc in tail:
                    key = mono_mul(u, tm)
                    v = work.get(key)
                    v = -(c * tc) if v is None else v - c * tc
                    if v:
                        work[key] = v
                    else:
                        work.pop(key, None)
                break
        else:
            rem[m] = c
    return rem


def s_pair(a, b):
    """The S-polynomial of monic (lead, tail) pairs as a new term dict."""
    (la, ta), (lb, tb) = a, b
    L = mono_lcm(la, lb)
    ua, ub = mono_div(L, la), mono_div(L, lb)
    work = {mono_mul(ua, m): c for m, c in ta}
    for m, c in tb:
        key = mono_mul(ub, m)
        v = work.pop(key, None)
        v = -c if v is None else v - c
        if v:
            work[key] = v
    return work


def reducers(basis):
    """The (lead, tail) pairs of the monic forms of ``basis``, in order."""
    return [(g.lt, g.terms[1:]) for g in map(Polynomial.monic, basis)]


def normal_form(f, basis):
    return Polynomial.from_dict(f.field, f.nvars, normal_form_dict(dict(f.terms), reducers(basis)))


def reduce(f, basis):
    field, nv = f.field, f.nvars
    quots = [{} for _ in basis]
    rem = normal_form_dict(dict(f.terms), reducers(basis), quots)
    return (Polynomial.from_dict(field, nv, rem),
            [Polynomial.from_dict(field, nv, qd).scale(field.div(field.one, g.lc))
             for qd, g in zip(quots, basis)])


def exact_quotient(f, g):
    quots = [{}]
    if normal_form_dict(dict(f.terms), reducers([g]), quots):
        return None
    field, lc = f.field, g.lc
    return Polynomial.from_dict(field, f.nvars, {u: field.div(c, lc) for u, c in quots[0].items()})


def s_polynomial(f, g):
    return Polynomial.from_dict(f.field, f.nvars, s_pair(*reducers([f, g])))


def is_groebner_basis(fs):
    rs = reducers([f for f in fs if not f.is_zero])
    return not any(normal_form_dict(s_pair(rs[i], rs[j]), rs)
                   for _, i, j in _pairs_of([lead for lead, _ in rs]))


def buchberger_reduced(gens):
    """The reduced Groebner basis, with the pair rule of ``hbcells.groebner``."""
    start = [g for g in gens if not g.is_zero]
    field, nvars = start[0].field, start[0].nvars
    rs = reducers(start)
    leads = [lead for lead, _ in rs]
    pairs = _pairs_of(leads)
    while pairs:
        _, i, j = pair = min(pairs)
        pairs.remove(pair)
        rem = normal_form_dict(s_pair(rs[i], rs[j]), rs)
        if rem:
            (lead, c), *tail = sorted(rem.items(), reverse=True)
            inv = field.div(field.one, c)
            rs.append((lead, tuple([(m, _integral(inv * v)) for m, v in tail])))
            leads.append(lead)
            pairs = _gm_update(leads, len(leads) - 1, pairs)
    minimal = []
    for i in sorted(range(len(leads)), key=leads.__getitem__):
        if not any(mono_divides(leads[j], leads[i]) for j in minimal):
            minimal.append(i)
    minimal = [rs[i] for i in minimal]
    basis = []
    for lead, tail in reversed(minimal):
        rem = normal_form_dict(dict(tail), minimal)
        rem[lead] = field.one
        basis.append(Polynomial.from_dict(field, nvars, rem))
    return basis


def echelon_insert(echelon, row):
    """Reduce ``row`` against an echelon dict (lead -> row) and insert it.

    The library's elimination kernel written the plain way, rows keyed by any
    ordered labels: each step replaces ``row`` by b*row - a*pivot, no row is
    shared or divided by its content.  Returns the new pivot label, or None
    when the row reduces to zero.  ``row`` is consumed.
    """
    while row:
        lead = max(row)
        pivot = echelon.get(lead)
        if pivot is None:
            echelon[lead] = row
            return lead
        a = row[lead]
        b = pivot[lead]
        new = {}
        for k, v in row.items():
            new[k] = b * v
        for k, v in pivot.items():
            w = new.get(k)
            w = -(a * v) if w is None else w - a * v
            if w:
                new[k] = w
            else:
                new.pop(k, None)
        row = new
    return None


def graded_sweep(gens, top):
    """The dimensions of the graded pieces of the ideal of ``gens``, one degree at a time.

    ``gens`` are nonzero homogeneous polynomials, at least one.  For each degree j
    from the least generator degree to ``top``, yields (j, dim (R_1 I_(j-1))_j,
    dim I_j): the echelon basis of degree j - 1 times every variable, each multiple
    reduced on ``echelon_insert``, then the generators of degree j.
    """
    by_degree = {}
    for g in gens:
        by_degree.setdefault(g.total_degree(), []).append(g)
    nvars = gens[0].nvars
    variables = [tuple(1 if k == i else 0 for k in range(nvars)) for i in range(nvars)]
    basis = []
    for j in range(min(by_degree), top + 1):
        echelon = {}
        for row in basis:
            for v in variables:
                echelon_insert(echelon, {mono_mul(m, v): c for m, c in row.items()})
        before = len(echelon)
        for g in by_degree.get(j, []):
            echelon_insert(echelon, dict(g.terms))
        yield j, before, len(echelon)
        basis = list(echelon.values())
