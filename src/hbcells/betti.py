"""Graded Betti numbers and Betti strata of the homogeneous cells.

The minors of M0(E) + N resolve their ideal by the matrix itself, with
generator degrees a_i = t+1-i+m_{i-1} and syzygy degrees b_i = a_{i+1}+1.
The degree-j strand is governed by the scalar submatrix M(p)_j with rows
w_j = {i : a_i = j} and columns v_j = {i : b_i = j}; its entries are 0, 1
or single parameters, and beta_{0,j} = #w_j - rank M(p)_j.  Removing the
rows and columns through the 1-entries gives the star matrix whose rank
conditions cut out the Betti strata.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import DomainError
from .field import QQ
from .linalg import echelon_insert
from .poly import Polynomial
from .staircase import HSeries, Staircase, lex_segment_from_hseries
from .hilbert_burch import FRAME_CACHE_SIZE, _border_degrees, _slot_degree, slot_set


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class ResolutionDegrees:
    """Generator degrees a (length t+1), syzygy degrees b (length t) and the M(p)_j they carry."""

    E: Staircase
    a: tuple
    b: tuple
    _pieces: dict  # degree j -> GradedPieceMatrix, in increasing j

    def w(self, j):
        """Row indices (1-based) of generators of degree j."""
        return self._pieces[j].rows if j in self._pieces else ()

    def v(self, j):
        """Column indices (1-based) of syzygies of degree j."""
        return self._pieces[j].cols if j in self._pieces else ()

    def degrees(self):
        return list(self._pieces)


@functools.lru_cache(maxsize=FRAME_CACHE_SIZE)
def resolution_degrees(E):
    """The degrees a_i = t+1-i+m_(i-1) and b_i = a_(i+1)+1 of the resolution of E,
    with M(p)_j of each degree j they carry (``graded_matrix`` reads it here)."""
    a, b = map(tuple, _border_degrees(E))
    rows, cols = {}, {}
    for degrees, out in ((a, rows), (b, cols)):
        for i, j in enumerate(degrees, 1):
            out.setdefault(j, []).append(i)
    return ResolutionDegrees(E, a, b, {
        j: _piece(E, j, tuple(rows.get(j, ())), tuple(cols.get(j, ())))
        for j in sorted(rows.keys() | cols.keys())})


def _entry_tag(E, i1, i2):
    """The entry of M(p)_j in row i1, column i2: u = 0 there, so a slot of S(E) is a parameter."""
    if i1 == i2:
        return ("one",)
    if _slot_degree(E, i1, i2) is not None:
        return ("p", i1, i2)
    return ("zero",)


def _strand(E, rows, cols):
    """The tags of M(p)_j on ``rows`` x ``cols``, one tuple per row."""
    out = []
    for i1 in rows:
        out.append(tuple([_entry_tag(E, i1, i2) for i2 in cols]))
    return tuple(out)


def _tag_text(tag):
    """An entry of M(p)_j as displayed: 1, 0 or p_{i1 i2}."""
    if tag[0] == "p":
        return f"p_{{{tag[1]}{tag[2]}}}"
    return "1" if tag[0] == "one" else "0"


def _numeric(entries, assignment, one):
    """Each row of tags as a dict column -> value, zero values dropped."""
    for row in entries:
        values = {}
        for k, tag in enumerate(row):
            v = one if tag[0] == "one" else assignment[tag[1:]] if tag[0] == "p" else 0
            if v:
                values[k] = v
        yield values


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class GradedPieceMatrix:
    """The scalar matrix M(p)_j and its star reduction, entries symbolic.

    Entries are tags: ("zero",), ("one",), or ("p", i1, i2) where (i1, i2)
    indexes S(E).  The star form drops the rows and columns through the
    1-entries (indices in both w_j and v_j).
    """

    E: Staircase
    j: int
    rows: tuple
    cols: tuple
    entries: tuple
    star_rows: tuple
    star_cols: tuple
    star_entries: tuple

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))

    @property
    def star_shape(self):
        return (len(self.star_rows), len(self.star_cols))

    def parameters(self):
        """The S(E) slots appearing in this graded piece."""
        return [tag[1:] for row in self.entries for tag in row if tag[0] == "p"]

    def symbolic_star(self, param_index):
        """Star entries as polynomials in the S(E) parameter space."""
        n = len(param_index)
        rows = []
        for row in self.star_entries:
            cells = []
            for tag in row:
                if tag[0] == "p":
                    mono = tuple(1 if k == param_index[tag[1:]] else 0 for k in range(n))
                    cells.append(Polynomial.monomial(QQ, n, mono))
                else:
                    cells.append(Polynomial.zero(QQ, n))
            rows.append(cells)
        return rows

    def to_json(self):
        index = {s: k + 1 for k, s in enumerate(slot_set(self.E))}

        def tag_json(tag):
            return ["p", index[tag[1:]]] if tag[0] == "p" else [tag[0]]

        return {"j": self.j, "rows": list(self.rows), "cols": list(self.cols),
                "entries": [tag_json(tag) for row in self.entries for tag in row],
                "star_rows": list(self.star_rows), "star_cols": list(self.star_cols),
                "star_entries": [tag_json(tag) for row in self.star_entries for tag in row]}

    def to_latex(self):
        """Bordered display of M(p)_j with the degree j on both borders."""
        ncols = len(self.cols)
        lines = [r"\begin{array}{r|" + "c" * max(ncols, 1) + "}"]
        lines.append(" & " + " & ".join([str(self.j)] * ncols) + r" \\ \hline")
        for row in self.entries:
            lines.append(f"{self.j} & " + " & ".join(map(_tag_text, row)) + r" \\")
        lines.append(r"\end{array}")
        return "\n".join(lines)


def _piece(E, j, rows, cols):
    """M(p)_j on the rows w_j and columns v_j, and its star reduction."""
    shared = set(rows).intersection(cols)
    srows = tuple(i for i in rows if i not in shared)
    scols = tuple(i for i in cols if i not in shared)
    return GradedPieceMatrix(E, j, rows, cols, _strand(E, rows, cols),
                             srows, scols, _strand(E, srows, scols))


def graded_matrix(E, j):
    """M(p)_j of E and its star reduction, read off ``resolution_degrees(E)``."""
    piece = resolution_degrees(E)._pieces.get(j)
    return piece if piece is not None else GradedPieceMatrix(E, j, (), (), (), (), (), ())


@dataclass(frozen=True, slots=True, init=False, repr=False)
class BettiTable:
    """Degree j -> (beta_0j, beta_1j) for the degrees carrying the resolution."""

    data: dict

    __hash__ = None  # data is a dict

    def __init__(self, data):
        object.__setattr__(self, "data", dict(data))

    def beta0(self, j):
        return self.data.get(j, (0, 0))[0]

    def beta1(self, j):
        return self.data.get(j, (0, 0))[1]

    def items(self):
        return sorted(self.data.items())

    def __repr__(self):
        inside = ", ".join(f"{j}: ({b0}, {b1})" for j, (b0, b1) in self.items())
        return f"BettiTable({{{inside}}})"

    def to_json(self):
        return [{"j": j, "beta0": b0, "beta1": b1} for j, (b0, b1) in self.items()]


def betti_numbers(E, assignment, field=QQ):
    """Graded Betti numbers of the ideal cut out by the parameter point.

    ``assignment`` maps every slot of S(E) to a scalar.  Ranks are exact.
    """
    slots = slot_set(E)
    missing = [s for s in slots if s not in assignment]
    if missing:
        raise ValueError(f"assignment misses S(E) slots {missing}")
    known = set(slots)
    unknown = [s for s in assignment if s not in known]
    if unknown:
        raise ValueError(f"assignment has slots outside S(E): {unknown}")
    assignment = {s: field.of(v) for s, v in assignment.items()}
    data = {}
    for j, gm in resolution_degrees(E)._pieces.items():
        echelon = {}
        r = sum(echelon_insert(echelon, row) is not None
                for row in _numeric(gm.entries, assignment, field.one))
        b0, b1 = len(gm.rows) - r, len(gm.cols) - r
        if b0 or b1:
            data[j] = (b0, b1)
    return BettiTable(data)


def _det(rows):
    n = len(rows)
    if n == 0:
        raise ValueError("empty determinant")
    if n == 1:
        return rows[0][0]
    total = None
    for k in range(n):
        cell = rows[0][k]
        if cell.is_zero:
            continue
        sub = [row[:k] + row[k + 1:] for row in rows[1:]]
        term = cell * _det(sub)
        if k % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total if total is not None else rows[0][0]  # zero polynomial


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class StratumDescriptor:
    """The determinantal description of one Betti stratum.

    Holds the graded piece, the star matrix, the rank bound
    beta_{0,j}(E) - u, and the vanishing minors of the next size as
    polynomials in the parameters p_1..p_#S (column-major names).
    """

    E: Staircase
    j: int
    u: int
    matrix: GradedPieceMatrix
    rank_bound: int
    conditions: tuple
    param_names: tuple

    def condition_strings(self):
        return [c.to_str(self.param_names) for c in self.conditions]

    def to_json(self):
        data = self.matrix.to_json()
        data["u"] = self.u
        data["rank_bound"] = self.rank_bound
        data["conditions"] = self.condition_strings()
        return data


# The most Laplace terms stratum_descriptor expands, C(r, s) C(c, s) s! for the
# s x s minors of an r x c star matrix.  At 15-22 us a term (2 CPUs, Python 3.11.7),
# the 4-minors of an 8 x 8 star (117,600 terms) take 1.9 s and those of a 9 x 9 star
# (381,024) 8.4 s.  The tests and the benchmark expand a dozen terms at most.
STRATUM_TERM_LIMIT = 150_000


def stratum_descriptor(E, j, u):
    """The stratum of at least u minimal generators of degree j over the cell of E.

    A stratum whose minors take more than ``STRATUM_TERM_LIMIT`` Laplace terms
    raises DomainError before any minor is expanded.
    """
    if u < 0:
        raise ValueError("stratum level u must be nonnegative")
    gm = graded_matrix(E, j)
    slots = slot_set(E)
    index = {s: k for k, s in enumerate(slots)}
    beta0_E = len(gm.star_rows)
    bound = beta0_E - u
    sym = gm.symbolic_star(index)
    nr, nc = gm.star_shape
    conditions = []
    if bound < 0:
        conditions = [Polynomial.constant(QQ, len(slots), 1)]
    elif bound < min(nr, nc):
        size = bound + 1
        terms = math.comb(nr, size) * math.comb(nc, size) * math.factorial(size)
        if terms > STRATUM_TERM_LIMIT:
            raise DomainError(
                f"the stratum of j = {j}, u = {u} on a {nr} x {nc} star matrix takes {terms} "
                f"Laplace terms, over the budget of {STRATUM_TERM_LIMIT} (betti.STRATUM_TERM_LIMIT)")
        for rsel in itertools.combinations(range(nr), size):
            for csel in itertools.combinations(range(nc), size):
                minor = _det([list(map(sym[r].__getitem__, csel)) for r in rsel])
                if not minor.is_zero:
                    conditions.append(minor)
    return StratumDescriptor(E, j, u, gm, bound, tuple(conditions),
                             tuple(f"p{k + 1}" for k in range(len(slots))))


def strata_descriptors(E, beta):
    """Descriptors for the intersection over all degrees (beta: j -> u)."""
    return [stratum_descriptor(E, j, u) for j, u in sorted(beta.items())]


def lex_codim(E, j, u):
    """Codimension of the stratum of >= u degree-j generators, lex-segment E.

    Valid for beta_0 - beta_1 <= u <= beta_0 (of the lex segment itself);
    equals (beta_1 - beta_0 + u) * u, the generic determinantal value.
    """
    if not E.is_lex_segment:
        raise DomainError(f"{E} is not a lex segment")
    beta0, beta1 = graded_matrix(E, j).star_shape
    if not (beta0 - beta1 <= u <= beta0):
        raise DomainError(
            f"u={u} outside [{max(beta0 - beta1, 0)}, {beta0}]: stratum empty or full")
    return (beta1 - beta0 + u) * u


def g_dim(h, method):
    """Dimension of the space of graded ideals with Hilbert function h.

    ``bella`` evaluates h_c + sum_{j=c}^{s} p_j p_{j+1} with p the first
    difference of h (entries past s read as 0); ``brutta`` counts S(L) of
    the lex segment.  The two agree for every admissible h.
    """
    if not isinstance(h, HSeries):
        h = HSeries(h)
    if method == "bella":
        p = h.first_difference
        total = h.at(h.c)
        for j in range(h.c, h.s + 1):
            total += p[j] * p[j + 1]
        return total
    if method == "brutta":
        return len(slot_set(lex_segment_from_hseries(h)))
    raise ValueError(f"unknown g_dim method {method!r} (want 'bella' or 'brutta')")
