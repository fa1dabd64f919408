"""Canonical Hilbert-Burch matrices and Groebner cell matrix spaces.

For a staircase E the frame consists of the bidiagonal matrix M0(E) with
diagonal y^(d_i) and subdiagonal -x, the integer degree matrix U(E) with
u_ij = m_j - m_{i-1} + i - j, and the slot set S(E) of positions (i,j)
below the diagonal with 0 <= u_ij < d_j.

A cell matrix N is a (t+1) x t array of k[y] polynomials with n_ij = 0
above the diagonal and deg n_ij < d_j elsewhere.  Four nested shapes are
distinguished:

  V0: no extra condition;
  V1: zero diagonal;
  V2: zero diagonal and no constant terms in rows j+1..k+1 of column j,
      where k is the last index of the m-run through j;
  V3: only slots in S(E), each a scalar multiple of y^(u_ij).

The signed maximal minors of M0(E) + N generate an ideal with leading
term ideal E; conversely every such ideal arises from exactly one N, and
``canonical_matrix`` reconstructs it by normalizing the column syzygies
of a reduced Groebner basis.

A ``CellMatrix`` stores its nonzero entries only, keyed by (i, j) in
column-major order.  Its producers build and check only those, and its
readers (the minors, validation, JSON and LaTeX) walk only those, so a
matrix costs what its nonzero entries cost, in time and in memory;
``entries`` is a dense view for display.
"""

from __future__ import annotations

import bisect
import enum
import functools
import random
import re
from dataclasses import dataclass
from itertools import chain

from .errors import DomainError
from .field import QQ, scalar_from_json, scalar_to_json
from .groebner import buchberger_reduced
from .poly import Polynomial, UniPoly, _add_into, _convolve, _divmod, _integral
from .staircase import Staircase, _staircase_from_leads


class CellKind(enum.Enum):
    V0 = "V0"
    V1 = "V1"
    V2 = "V2"
    V3 = "V3"

    def __str__(self):
        return self.value


# slot_set and betti.resolution_degrees, with its strands, depend on the staircase
# alone and are immutable, so they are memoized: callers visit many points of
# one cell.  Bounded in count, and each entry holds O(t + |S(E)|), never U(E).
FRAME_CACHE_SIZE = 1024


def _border_degrees(E):
    """Generator degrees a_i = t+1-i+m_(i-1) and syzygy degrees b_j = a_(j+1)+1, 0-indexed lists."""
    a = [E.t - i + E.m[i] for i in range(E.t + 1)]
    return a, [v + 1 for v in a[1:]]


def degree_matrix(E):
    """U(E), dense: u_ij = b_j - a_i, built on each call (for display only)."""
    a, b = _border_degrees(E)
    return tuple(tuple([bj - ai for bj in b]) for ai in a)


def _slot_degree(E, i, j):
    """u_ij = m_j - m_(i-1) + i - j if (i, j) is a slot of S(E), else None."""
    if 1 <= j < i <= E.t + 1 and 0 <= (u := E.m[j] - E.m[i - 1] + i - j) < E.d[j - 1]:
        return u
    return None


@functools.lru_cache(maxsize=FRAME_CACHE_SIZE)
def slot_set(E):
    """S(E) in column-major order, in O(t + |S(E)|) steps up to a log factor.

    u_ij = c_j - G(i) with c_j = m_j - j and G(i) = m_(i-1) - i, so column j
    holds the rows i > j with c_j - d_j < G(i) <= c_j, read off the rows of
    each value of G by bisection.  G falls by at most 1 a row, so every value
    from G(j+1) = c_j - 1 down to the least G(i), i > j, is taken by a row
    past j: the walk over a column's values stops there, and each value it
    visits but c_j yields a slot.
    """
    m, t = E.m, E.t
    at = {}  # G(i) -> its rows i, rising
    for i in range(1, t + 2):
        at.setdefault(m[i - 1] - i, []).append(i)
    low = [0] * (t + 1)  # low[j] = min G(i) over i > j
    low[t] = m[t] - t - 1
    for j in range(t - 1, 0, -1):
        low[j] = min(low[j + 1], m[j] - j - 1)
    out = []
    for j, dj in enumerate(E.d, 1):
        if dj:
            c = m[j] - j
            column = []
            for g in range(max(c - dj + 1, low[j]), c + 1):
                rows = at.get(g)
                if rows:
                    column.extend(rows[bisect.bisect_right(rows, j):])
            column.sort()
            out.extend((i, j) for i in column)
    return tuple(out)


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class CanonicalFrame:
    """M0(E), U(E) and S(E) bundled, entries of M0 as bivariate polynomials."""

    E: Staircase
    M0: tuple
    U: tuple
    S: tuple
    field: object


def canonical_frame(E, field=QQ):
    """The frame of E: M0(E) over ``field``, U(E) and S(E)."""
    t = E.t
    rows = [[Polynomial.zero(field, 2)] * t for _ in range(t + 1)]
    minus_x = Polynomial.monomial(field, 2, (1, 0), -field.one)
    for j in range(t):
        rows[j][j], rows[j + 1][j] = Polynomial.monomial(field, 2, (0, E.d[j])), minus_x
    return CanonicalFrame(E, tuple(map(tuple, rows)), degree_matrix(E), slot_set(E), field)


def _check_kind(kind):
    """Raise ValueError unless ``kind`` is a ``CellKind`` member."""
    if not isinstance(kind, CellKind):
        raise ValueError(f"unknown cell kind {kind!r}")


def cell_dimension(E, kind):
    """Dimensions of the four cells attached to E."""
    _check_kind(kind)
    if kind == CellKind.V0:
        return E.colength + E.y_power
    if kind == CellKind.V1:
        return E.colength
    if kind == CellKind.V2:
        return E.colength - E.t
    return len(slot_set(E))


def _run_end(E, j):
    """Largest v in [j, t] with m_v = m_j."""
    k = j
    while k < E.t and E.m[k + 1] == E.m[j]:
        k += 1
    return k


def _checked_nonzeros(E, cells, field):
    """The store of a cell matrix: the nonzero entries of ``cells``, in column-major order.

    ``cells`` yields (i, j, entry), an entry a ``UniPoly`` or scalars for one.
    A zero entry passes every check, so the checks (the field, zero above the
    diagonal, degree < d_j) run once per nonzero entry, in the order of ``cells``.
    """
    d = E.d
    out = []
    for i, j, n in cells:
        if not isinstance(n, UniPoly):
            n = UniPoly(field, n)
        if not n:
            continue
        if n.field is not field and n.field != field:
            raise DomainError(
                f"entry ({i},{j}) over another field {n.field!r} in a matrix over {field!r}")
        if i < j:
            raise ValueError(f"entry ({i},{j}) above the diagonal must vanish")
        if n.degree >= d[j - 1]:
            raise ValueError(
                f"entry ({i},{j}) has degree {n.degree}, needs < d_{j} = {d[j - 1]}")
        out.append(((i, j), n))
    out.sort(key=lambda e: e[0][::-1])
    return tuple(out)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class CellMatrix:
    """A point of T0(E): the perturbation N added to M0(E).

    Stored by its nonzero entries only: ``nonzeros`` holds ((i, j), n_ij)
    pairs, 1-indexed, in column-major order, each n_ij a nonzero ``UniPoly``.
    ``n(i, j)`` reads any entry and ``entries`` is the dense (t+1) x t view.
    A frozen value: equal matrices have the same staircase, nonzero entries
    and field.
    """

    E: Staircase
    nonzeros: tuple
    field: object

    def __init__(self, E, entries, field=QQ):
        t = E.t
        if len(entries) != t + 1 or any(len(row) != t for row in entries):
            raise ValueError(f"cell matrix must be {t + 1} x {t}")
        cells = ((i, j, n) for i, row in enumerate(entries, 1) for j, n in enumerate(row, 1))
        self._set(E, _checked_nonzeros(E, cells, field), field)

    def _set(self, E, nonzeros, field):
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "nonzeros", nonzeros)
        object.__setattr__(self, "field", field)

    @classmethod
    def _raw(cls, E, nonzeros, field):
        """Trusted constructor: ``nonzeros`` is already a column-major store meeting the bounds."""
        self = object.__new__(cls)
        self._set(E, tuple(nonzeros), field)
        return self

    @classmethod
    def zero(cls, E, field=QQ):
        return cls._raw(E, (), field)

    def n(self, i, j):
        """Entry n_ij, 1-indexed."""
        t = self.E.t
        if not (1 <= i <= t + 1 and 1 <= j <= t):
            raise IndexError(f"no entry ({i},{j}) in a {t + 1} x {t} cell matrix")
        return dict(self.nonzeros).get((i, j)) or UniPoly.zero(self.field)

    @property
    def entries(self):
        """The dense rows of N, zero entries included, built on each call."""
        t = self.E.t
        z = UniPoly.zero(self.field)
        rows = [[z] * t for _ in range(t + 1)]
        for (i, j), n in self.nonzeros:
            rows[i - 1][j - 1] = n
        return tuple(map(tuple, rows))

    def __repr__(self):
        return f"CellMatrix(E={self.E}, entries={[list(map(UniPoly.to_str, row)) for row in self.entries]})"

    def to_json(self):
        t = self.E.t
        rows = [list([] for _ in range(t)) for _ in range(t + 1)]
        for (i, j), n in self.nonzeros:
            rows[i - 1][j - 1] = list(map(scalar_to_json, n.coeffs))
        return {"m": list(self.E.m), "N": rows}

    @classmethod
    def from_json(cls, data, field=QQ):
        decode = functools.partial(scalar_from_json, field)
        rows = [
            [list(map(decode, cell)) for cell in row]
            for row in data["N"]]
        return cls(Staircase(data["m"]), rows, field)

    def to_latex(self):
        """Bordered display of M0(E) + N with generator/syzygy degrees."""
        E, t = self.E, self.E.t
        a, b = _border_degrees(E)
        # the entries of M0 + N off the diagonal, the subdiagonal and N's nonzeros are 0;
        # M0 has y^(d_j) on the diagonal and -x below it
        field = self.field
        minus_x = Polynomial.monomial(field, 2, (1, 0), -field.one)
        M = {}
        for j in range(1, t + 1):
            M[j, j] = Polynomial.monomial(field, 2, (0, E.d[j - 1]))
            M[j + 1, j] = minus_x
        for key, n in self.nonzeros:
            M[key] = M[key] + n.to_polynomial(2) if key in M else n.to_polynomial(2)
        cells = [["0"] * t for _ in range(t + 1)]
        for (i, j), p in M.items():
            cells[i - 1][j - 1] = re.sub(r"\^(\d\d+)", r"^{\1}", p.to_str()).replace("*", "")
        lines = [r"\begin{array}{r|" + "c" * t + "}"]
        lines.append(" & " + " & ".join(str(v) for v in b) + r" \\ \hline")
        for i in range(t + 1):
            lines.append(f"{a[i]} & " + " & ".join(cells[i]) + r" \\")
        lines.append(r"\end{array}")
        return "\n".join(lines)


def validate_cell_matrix(N, kind):
    """Membership of N in T_kind(E): (ok, report) with the first violation.

    Only a nonzero entry can violate a condition: each walks N's column-major store.
    """
    _check_kind(kind)
    E = N.E
    if kind == CellKind.V0:
        return True, None
    if kind in (CellKind.V1, CellKind.V2):
        for (i, j), _ in N.nonzeros:
            if i == j:
                return False, f"condition (1) fails at ({i},{i}): diagonal entry is nonzero"
        if kind == CellKind.V1:
            return True, None
        for (i, j), n in N.nonzeros:
            if i > j and n.coeffs[0] and i <= _run_end(E, j) + 1:
                return False, f"condition (2) fails at ({i},{j}): constant term must vanish"
        return True, None
    for (i, j), n in N.nonzeros:  # V3
        if (u := _slot_degree(E, i, j)) is None:
            return False, f"condition (3) fails at ({i},{j}): entry outside S(E) must vanish"
        if any(c for k, c in enumerate(n.coeffs) if k != u):
            return False, (f"condition (3) fails at ({i},{j}): "
                           f"entry must be a scalar multiple of y^{u}")
    return True, None


# ---------------------------------------------------------------------------
# the bijection

def minors_ideal(N):
    """Signed maximal minors f_0..f_t of M0(E) + N, solved from the column relations.

    Column k gives h_k f_(k-1) = x f_k - sum_(j>=k) n_(j+1,k) f_j with
    h_k = y^(d_k) + n_kk, and f_t = h_1...h_t.  Each f_i is (powers, x_shift,
    y_shift), x^x_shift y^y_shift times {power of x: dense k[y] list}, where
    y_shift sums d_c over the monomial h_c = y^(d_c), c <= i.  An empty column
    with a monomial diagonal shifts the dict of f_k, nothing copied; any other
    builds the right side once, from N's nonzeros, and divides each power of x
    by h_k exactly, or lowers y_shift by d_k when h_k is monomial.
    """
    E, field = N.E, N.field
    t, d = E.t, E.d
    zero, one = field.zero, field.one

    # h[c] = y^(d_c) + n_cc as a list, or None for the monomial y^(d_c);
    # below[c]: the (row, coefficients) of the nonzeros under n_cc
    h = [None] * (t + 1)
    below = {}
    for (r, c), n in N.nonzeros:
        if r == c:
            h[c] = list(n.coeffs) + [zero] * (d[c - 1] - len(n.coeffs)) + [one]
        else:
            below.setdefault(c, []).append((r, n.coeffs))

    ys, top = 0, [one]  # f_t = y^ys top
    for c in range(1, t + 1):
        if h[c] is None:
            ys += d[c - 1]
        else:
            top = _convolve(top, h[c], zero)
    # no dict or list is changed once it is stored, since the f of an
    # empty column share them
    f = [None] * t + [({0: top}, 0, ys)]
    for k in range(t, 0, -1):
        powers, xs, ys = f[k]
        col = below.get(k)
        if col is None and h[k] is None:
            f[k - 1] = (powers, xs + 1, ys - d[k - 1])
            continue
        # x f_k - sum n_(j+1,k) f_j, over y^ys
        acc = {a + xs + 1: list(p) for a, p in powers.items()}
        for row, n in col or ():
            pj, xj, yj = f[row - 1]
            e = [zero] * (yj - ys) + list(n)
            for a, p in pj.items():
                _add_into(acc.setdefault(a + xj, []), _convolve(p, e, zero), True, zero)
        if h[k] is None:
            f[k - 1] = (acc, 0, ys - d[k - 1])
        else:
            f[k - 1] = ({a: _divmod(p, h[k], field)[0] for a, p in acc.items()}, 0, ys)

    fs, last = [], None
    for powers, xs, ys in f:
        # the (a, j, c) terms of a dict in decreasing order, ints where
        # integral, written once for the consecutive f that share it
        if powers is not last:
            last = powers
            template = [(a, j, _integral(p[j])) for a in sorted(powers, reverse=True)
                        for p in (powers[a],) for j in range(len(p) - 1, -1, -1) if p[j]]
        fs.append(Polynomial._raw(field, 2, tuple([((a + xs, j + ys), c) for a, j, c in template])))
    return fs


def _x_columns(p):
    """p in k[x,y] as {power of x: dense k[y] coefficient list}, nonzero columns only."""
    out = {}
    for (a, b), c in p.terms:
        if a not in out:  # the first term of a column has its top power of y
            out[a] = [p.field.zero] * (b + 1)
        out[a][b] = c
    return out


def _y_coefficients(g, fs, lowest, field):
    """Write g as sum of k[y]-multiples of f_lowest..f_t (Groebner cell shape).

    ``g`` (consumed) and the f_i map powers of x to dense k[y] lists; f_i
    has lead x^(t-i) y^(m_i) and g has x-degree at most t - lowest.  With
    m nondecreasing, f_(t-a) is the only reducer of the x^a terms, so the
    division is one k[y] divmod per nonzero power of x, from the top, by
    the monic top coefficient of f_(t-a).  A remainder means g does not
    have the expected shape.  Returns {i: quotient of f_i} for the nonzero
    quotients, all in k[y], which is what makes the cell matrix entries
    unique.
    """
    zero = field.zero
    t = len(fs) - 1
    coefs = {}
    while g:
        a = max(g)
        ga = g.pop(a)
        if not any(ga):
            continue
        f = fs[t - a]
        q, r = _divmod(ga, f[a], field)
        if r:
            raise DomainError("generators do not define an ideal with the expected staircase")
        for b, c in f.items():
            if b < a:
                _add_into(g.setdefault(b, []), _convolve(q, c, zero), True, zero)
        coefs[t - a] = q
    return coefs


def canonical_matrix(gens):
    """The inverse of the minors map: reconstruct (E, N) from generators.

    Computes the reduced Groebner basis, seeds representatives f_i with
    leading terms x^(t-i) y^(m_i), then for k = t..1 normalizes the column
    relation y^(d_k) f_{k-1} - x f_k + sum n_(j+1,k) f_j = 0 by univariate
    division against y^(d_k) + n_kk, folding quotients into f_{k-1}.  Each
    f_i holds its nonzero powers of x only, each a dense k[y] list as in
    ``minors_ideal``, and zero quotients are skipped, so the fold costs
    what the nonzero entries cost, and so does the matrix, which holds
    only its nonzero entries.  The division guarantees the degree bounds,
    so the matrix is built without re-checking them.
    """
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    if gens[0].nvars != 2:
        raise ValueError("canonical matrices live in k[x,y]")
    field = gens[0].field
    zero, one = field.zero, field.one
    gb = buchberger_reduced(gens)
    E = _staircase_from_leads([g.lt for g in gb])
    t, d = E.t, E.d
    # the leads of the reduced basis are the minimal generators x^(t-i) y^(m_i)
    by_lead = {g.lt: _x_columns(g) for g in gb}
    fs = [None] * t + [by_lead[(0, E.m[t])]]
    columns = []  # the nonzeros of columns t..1, each column from the diagonal down
    for k in range(t, 0, -1):
        dk = d[k - 1]
        if not dk:
            # m_(k-1) = m_k: f_(k-1) = x f_k, and column k of N vanishes
            fs[k - 1] = {a + 1: c for a, c in fs[k].items()}
            continue
        # relation: y^(d_k) f_{k-1} - x f_k + sum n_(j+1,k) f_j = 0, with
        # f_(k-1) seeded by the basis element of lead x^(t-k+1) y^(m_(k-1))
        fs[k - 1] = seed = by_lead[(t - k + 1, E.m[k - 1])]
        g = {a: [zero] * dk + c for a, c in seed.items()}
        for a, c in fs[k].items():
            _add_into(g.setdefault(a + 1, []), c, True, zero)
        coefs = _y_coefficients(g, fs, k - 1, field)
        nkk = [-c for c in coefs.pop(k - 1, ())]
        if len(nkk) > dk:
            raise DomainError("column normalization failed: diagonal degree too large")
        column = [((k, k), UniPoly._raw(field, nkk))] if nkk else []
        h = nkk + [zero] * (dk - len(nkk)) + [one]
        newf = {a: list(c) for a, c in seed.items()}
        # coefs holds rows k+1.. in rising order: _y_coefficients works down the powers of x
        for j, qj in coefs.items():
            q, r = _divmod([-c for c in qj], h, field)
            if r:
                column.append(((j + 1, k), UniPoly._raw(field, r)))
            if q:
                for a, c in fs[j].items():
                    _add_into(newf.setdefault(a, []), _convolve(q, c, zero), False, zero)
        fs[k - 1] = newf
        columns.append(column)
    return E, CellMatrix._raw(E, chain.from_iterable(reversed(columns)), field)


def _x_power_gcd(gb, field):
    """Whether gcd_i g_i(x, 0) over the basis ``gb`` is a power of x (Euclid by ``_divmod``)."""
    gcd = []
    for g in gb:
        low = [(a, c) for (a, b), c in g.terms if not b]
        r = [field.zero] * (low[0][0] + 1) if low else []
        for a, c in low:
            r[a] = c
        while r:
            gcd, r = r, _divmod(gcd, r, field)[1]
    return not any(gcd[:-1])


def cell_kinds_of_ideal(gens):
    """Which cells the ideal of ``gens`` belongs to, read off the ideal itself.

    V0 requires Lt(I) to have finite colength and radical (x,y); V1 asks
    the monic generator of I \\cap k[y] to be a pure power of y; V2 asks
    the radical to be (x,y); V3 asks the reduced basis to be homogeneous.
    All checks are independent of any cell matrix.  Under V1, y is
    nilpotent modulo I, so rad I = rad(I + (y)) and I + (y) = (p(x), y)
    with p the gcd of the g(x, 0) over the reduced basis: V2 holds exactly
    when p is a power of x, one k[x] Euclid run by ``_divmod``.
    """
    gb = buchberger_reduced(gens)
    E = _staircase_from_leads([g.lt for g in gb])
    kinds = {CellKind.V0}
    f_last = next(g for g in gb if g.lt == (0, E.y_power))
    if len(f_last.terms) == 1:
        kinds.add(CellKind.V1)
        if _x_power_gcd(gb, f_last.field):
            kinds.add(CellKind.V2)
    if all(g.is_homogeneous() for g in gb):
        kinds.add(CellKind.V3)
    return kinds


def cell_matrix_from_parameters(E, assignment, field=QQ):
    """The T3 matrix with entry p_ij y^(u_ij) at each slot (i,j) of S(E)."""
    cells = []
    for (i, j), value in assignment.items():
        if (u := _slot_degree(E, i, j)) is None:
            raise ValueError(f"({i},{j}) is not a slot of S(E)")
        cells.append((i, j, UniPoly.y_power(field, u, value)))
    return CellMatrix._raw(E, _checked_nonzeros(E, cells, field), field)


def random_cell_matrix(E, kind, seed, field=QQ):
    """A deterministic pseudo-random element of T_kind(E).

    Over a finite field every allowed coefficient slot is uniform; over the
    rationals slots draw small integers.  Slots are visited column-major.
    The entries meet the shape and degree bounds by construction, so the
    matrix is built by the trusted constructor from its nonzero draws.
    """
    _check_kind(kind)
    rng = random.Random(seed)
    if field.char == 0:
        draw = lambda: field.of(rng.randint(-4, 4))
    else:
        draw = lambda: field.decode(rng.randrange(field.size))
    if kind == CellKind.V3:
        drawn = [((i, j), UniPoly.y_power(field, _slot_degree(E, i, j), draw())) for i, j in slot_set(E)]
    else:
        drawn = []
        for j, dj in enumerate(E.d, 1):
            if not dj:
                continue
            kend = _run_end(E, j)
            for i in range(j if kind == CellKind.V0 else j + 1, E.t + 2):
                coeffs = [draw() for _ in range(dj)]
                if kind == CellKind.V2 and i <= kend + 1:
                    coeffs[0] = field.zero
                drawn.append(((i, j), UniPoly._raw(field, coeffs)))
    return CellMatrix._raw(E, [(key, n) for key, n in drawn if n], field)
