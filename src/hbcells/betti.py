"""Graded Betti numbers and Betti strata of the homogeneous cells.

The minors of M0(E) + N resolve their ideal by the matrix itself, with
generator degrees a_i = t+1-i+m_{i-1} and syzygy degrees b_i = a_{i+1}+1.
The degree-j strand is governed by the scalar submatrix M(p)_j with rows
w_j = {i : a_i = j} and columns v_j = {i : b_i = j}; its entries are 0, 1
or single parameters, and beta_{0,j} = #w_j - rank M(p)_j.  Removing the
rows and columns through the 1-entries gives the star matrix whose rank
conditions cut out the Betti strata.  An index i in both w_j and v_j has
d_i = 0, so column i of S(E) holds no slot and column i of M(p)_j is the
unit vector e_i: rank M(p)_j = #shared + rank star, and beta_{0,j} is
#star rows - rank star over any field.
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
    """The frame record of E: everything the Betti layer reads that depends on E alone.

    Generator degrees a (length t+1) and syzygy degrees b (length t); the slots of
    S(E) in column-major order, ``index`` mapping each to its 0-based place and
    ``names`` the parameter names p1..p#S; and the M(p)_j of each degree j that
    carries a row or a column, each piece with its derived forms built once.
    """

    E: Staircase
    a: tuple
    b: tuple
    slots: tuple
    index: dict  # slot -> its 0-based place in ``slots``
    names: tuple
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
    the slots of S(E) with their index and names, and M(p)_j of each degree j they
    carry (``graded_matrix`` and ``stratum_descriptor`` read it here)."""
    a, b = map(tuple, _border_degrees(E))
    rows, cols = {}, {}
    for degrees, out in ((a, rows), (b, cols)):
        for i, j in enumerate(degrees, 1):
            out.setdefault(j, []).append(i)
    slots = slot_set(E)
    index = {s: k for k, s in enumerate(slots)}
    return ResolutionDegrees(E, a, b, slots, index, tuple(f"p{k + 1}" for k in range(len(slots))), {
        j: _piece(E, j, tuple(rows.get(j, ())), tuple(cols.get(j, ())), index)
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


def _support(row, index):
    """The parameters of a row of tags, as (column, slot index) pairs."""
    return tuple([(k, index[tag[1:]]) for k, tag in enumerate(row) if tag[0] == "p"])


def _json_tags(strand, index):
    """The tags of a strand row by row as JSON writes them: ["one"], ["zero"] or ["p", K]
    for the K-th slot of S(E)."""
    return tuple([("p", index[tag[1:]] + 1) if tag[0] == "p" else tag
                  for row in strand for tag in row])


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class GradedPieceMatrix:
    """The scalar matrix M(p)_j and its star reduction, entries symbolic.

    Entries are tags: ("zero",), ("one",), or ("p", i1, i2) where (i1, i2)
    indexes S(E).  The star form drops the rows and columns through the
    1-entries (indices in both w_j and v_j).

    The forms its readers need are derived from the tags once, when
    ``resolution_degrees`` builds the piece: ``_star_supports`` holds each star
    row's (column, slot index) pairs, which ``betti_numbers`` ranks and the
    minors of ``stratum_descriptor`` expand; ``_json`` and ``_star_json`` the
    tags as ``to_json`` writes them, tuples that ``json`` writes as arrays.
    """

    E: Staircase
    j: int
    rows: tuple
    cols: tuple
    entries: tuple
    star_rows: tuple
    star_cols: tuple
    star_entries: tuple
    _star_supports: tuple = ()
    _json: tuple = ()
    _star_json: tuple = ()

    @property
    def shape(self):
        return (len(self.rows), len(self.cols))

    @property
    def star_shape(self):
        return (len(self.star_rows), len(self.star_cols))

    def parameters(self):
        """The S(E) slots appearing in this graded piece."""
        return [tag[1:] for row in self.entries for tag in row if tag[0] == "p"]

    def to_json(self):
        return {"j": self.j, "rows": list(self.rows), "cols": list(self.cols),
                "entries": list(self._json),
                "star_rows": list(self.star_rows), "star_cols": list(self.star_cols),
                "star_entries": list(self._star_json)}

    def to_latex(self):
        """Bordered display of M(p)_j with the degree j on both borders."""
        ncols = len(self.cols)
        lines = [r"\begin{array}{r|" + "c" * max(ncols, 1) + "}"]
        lines.append(" & " + " & ".join([str(self.j)] * ncols) + r" \\ \hline")
        for row in self.entries:
            lines.append(f"{self.j} & " + " & ".join(map(_tag_text, row)) + r" \\")
        lines.append(r"\end{array}")
        return "\n".join(lines)


def _piece(E, j, rows, cols, index):
    """M(p)_j on the rows w_j and columns v_j, its star reduction, and their derived forms
    over the slot ``index``.  The star's tags are read off the strand's; with no index in
    both w_j and v_j the star is the strand itself, and shares its JSON tags."""
    entries = _strand(E, rows, cols)
    tags = _json_tags(entries, index)
    if shared := set(rows).intersection(cols):
        keep = [k for k, i in enumerate(cols) if i not in shared]
        star = tuple([
            tuple([row[k] for k in keep]) for i, row in zip(rows, entries) if i not in shared])
        srows = tuple(i for i in rows if i not in shared)
        scols = tuple(cols[k] for k in keep)
        star_tags = _json_tags(star, index)
    else:
        srows, scols, star, star_tags = rows, cols, entries, tags
    supports = tuple([_support(row, index) for row in star])
    return GradedPieceMatrix(E, j, rows, cols, entries, srows, scols, star, supports,
                             tags, star_tags)


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

    ``assignment`` maps every slot of S(E) to a scalar.  Ranks are exact.  Each
    piece's star is ranked at the point, its rows read off the supports that
    ``stratum_descriptor`` expands; the shared indices add as many rows and
    columns as rank, so beta_{0,j} = #star rows - rank, beta_{1,j} = #star cols - rank.
    """
    rd = resolution_degrees(E)
    missing = [s for s in rd.slots if s not in assignment]
    if missing:
        raise ValueError(f"assignment misses S(E) slots {missing}")
    unknown = [s for s in assignment if s not in rd.index]
    if unknown:
        raise ValueError(f"assignment has slots outside S(E): {unknown}")
    values = [field.of(assignment[s]) for s in rd.slots]
    data = {}
    for j, gm in rd._pieces.items():
        echelon = {}
        r = 0
        for params in gm._star_supports:
            r += echelon_insert(echelon, {k: values[s] for k, s in params if values[s]}) is not None
        b0, b1 = len(gm.star_rows) - r, len(gm.star_cols) - r
        if b0 or b1:
            data[j] = (b0, b1)
    return BettiTable(data)


def _minors(supports, n, size):
    """The nonzero size x size minors of a star matrix over n slots, from its rows' supports.

    ``supports`` holds each star row's (column, slot index) pairs.  Each entry is 0 or its
    own parameter, so a minor has one signed squarefree monomial per nonzero transversal,
    and none cancel; a row with no parameter is in none, so there are no minors at all
    when fewer than ``size`` rows hold one.  The walk picks a column per row from the row's
    support and signs by the inversions of the picks.  Minors come out in
    ``itertools.combinations`` order over the rows, then the columns.
    """
    held = [row for row in supports if row]
    if len(held) < size:
        return []

    def walk(depth, cols, params, inv):
        if depth < size:
            for c, p in rows[depth]:
                if c not in cols:
                    walk(depth + 1, cols + (c,), params + (p,), inv + sum(b > c for b in cols))
        else:
            mono = [0] * n
            for p in params:
                mono[p] = 1
            minors.setdefault(tuple(sorted(cols)), {})[tuple(mono)] = -1 if inv & 1 else 1

    out = []
    for rows in itertools.combinations(held, size):
        minors = {}
        walk(0, (), (), 0)
        out.extend(Polynomial.from_dict(QQ, n, minors[cols]) for cols in sorted(minors))
    return out


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


# The most Laplace terms C(r, s) C(c, s) s! that the s x s minors of an r x c star
# matrix may take.  At 3-4 us a nonzero transversal (2 CPUs, Python 3.11.7), the 4-minors
# of an 8 x 8 star (117,600 terms, 58,800 nonzero) take 0.2 s and the 6-minors of a 9 x 9
# star (381,024 terms, 211,680 nonzero) 0.9 s.  Tests and benchmark write a dozen at most.
STRATUM_TERM_LIMIT = 150_000


def stratum_descriptor(E, j, u):
    """The stratum of at least u minimal generators of degree j over the cell of E.

    Its conditions are the nonzero (beta_{0,j}(E) - u + 1)-minors of the star matrix, each
    written from its transversals.  A stratum whose minors take more than
    ``STRATUM_TERM_LIMIT`` Laplace terms raises DomainError before any minor is written.
    """
    if u < 0:
        raise ValueError("stratum level u must be nonnegative")
    rd = resolution_degrees(E)
    gm = graded_matrix(E, j)
    n = len(rd.slots)
    nr, nc = gm.star_shape
    bound = nr - u
    conditions = [Polynomial.constant(QQ, n, 1)] if bound < 0 else []
    if 0 <= bound < min(nr, nc):
        size = bound + 1
        terms = math.comb(nr, size) * math.comb(nc, size) * math.factorial(size)
        if terms > STRATUM_TERM_LIMIT:
            raise DomainError(
                f"the stratum of j = {j}, u = {u} on a {nr} x {nc} star matrix takes {terms} "
                f"Laplace terms, over the budget of {STRATUM_TERM_LIMIT} (betti.STRATUM_TERM_LIMIT)")
        conditions = _minors(gm._star_supports, n, size)
    return StratumDescriptor(E, j, u, gm, bound, tuple(conditions), rd.names)


def strata_descriptors(E, beta):
    """Descriptors for the intersection over all degrees (beta: j -> u)."""
    return [stratum_descriptor(E, j, u) for j, u in sorted(beta.items())]


def lex_codim(E, j, u):
    """Codimension of the stratum of >= u degree-j generators, lex-segment E.

    Valid for beta_0 - beta_1 <= u <= beta_0 (of the lex segment itself);
    equals (beta_1 - beta_0 + u) * u, the generic determinantal value.
    """
    if u < 0:
        raise ValueError("stratum level u must be nonnegative")
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
