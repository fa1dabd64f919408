"""Staircases of finite-colength monomial ideals in k[x,y].

A monomial ideal E of finite colength with radical (x,y) is recorded by
the vector m = (m_0, ..., m_t) with t the least x-power in E and
m_i the least j with x^(t-i) y^j in E.  The correspondence
E <-> m <-> d (d_i = m_i - m_{i-1}) <-> partition of the colength is a
bijection; this module implements it together with Hilbert functions,
lex-segment construction from a Hilbert series, and enumeration by
colength.
"""

from __future__ import annotations

import itertools
import operator

from .errors import DomainError
from .groebner import MonomialIdeal


class Staircase:
    """The vector (m_0, ..., m_t) of a finite-colength monomial ideal.

    Entries must be integers: anything else (``1.5``, ``"1"``) raises
    ``TypeError`` rather than being truncated.
    """

    __slots__ = ("m",)

    def __init__(self, m):
        m = tuple(map(operator.index, m))
        if len(m) < 2:
            raise DomainError("a staircase needs t >= 1 (the unit ideal has none)")
        if m[0] != 0:
            raise DomainError(f"m_0 must be 0, got {m[0]}")
        if m[1] <= 0:
            raise DomainError(f"m_1 must be positive, got {m[1]}")
        for i in range(1, len(m) - 1):
            if m[i + 1] < m[i]:
                raise DomainError(f"m must be nondecreasing: m_{i + 1}={m[i + 1]} < m_{i}={m[i]}")
        object.__setattr__(self, "m", m)

    @classmethod
    def from_d(cls, d):
        m = [0]
        for v in d:
            m.append(m[-1] + operator.index(v))
        return cls(m)

    @property
    def t(self):
        return len(self.m) - 1

    @property
    def d(self):
        return tuple(self.m[i] - self.m[i - 1] for i in range(1, len(self.m)))

    @property
    def colength(self):
        return sum(self.m)

    @property
    def y_power(self):
        """min{j : y^j in E}."""
        return self.m[-1]

    @property
    def is_lex_segment(self):
        return all(v > 0 for v in self.d)

    def contains(self, mono):
        a, b = mono
        if a >= self.t:
            return True
        return b >= self.m[self.t - a]

    def generators(self, minimal=False):
        """The monomials x^(t-i) y^(m_i); minimal drops i with m_{i+1} = m_i."""
        t = self.t
        out = []
        for i in range(t + 1):
            if minimal and i < t and self.m[i + 1] == self.m[i]:
                continue
            out.append((t - i, self.m[i]))
        return out

    def monomial_ideal(self):
        return MonomialIdeal(2, self.generators(minimal=True))

    def standard_monomials(self):
        return [(a, b) for a in range(self.t) for b in range(self.m[self.t - a])]

    def hilbert_function(self):
        """h_j = number of standard monomials of degree j."""
        if self.colength == 0:
            return ()
        counts = {}
        for a in range(self.t):
            for b in range(self.m[self.t - a]):
                counts[a + b] = counts.get(a + b, 0) + 1
        return tuple(counts.get(j, 0) for j in range(max(counts) + 1))

    def __eq__(self, other):
        if not isinstance(other, Staircase):
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __lt__(self, other):
        return self.m < other.m

    def __repr__(self):
        return f"Staircase(m={list(self.m)})"

    def __str__(self):
        return f"m=[{','.join(str(v) for v in self.m)}]"

    def to_json(self):
        return {"m": list(self.m)}


def staircase_from_monomial_ideal(E):
    """Inverse of :meth:`Staircase.monomial_ideal`."""
    if E.nvars != 2:
        raise ValueError("staircases live in k[x,y]")
    t = E.pure_power_exponent(0)
    my = E.pure_power_exponent(1)
    if t is None or my is None:
        raise DomainError("the monomial ideal has infinite colength")
    if t == 0:
        raise DomainError("the unit ideal has no staircase")
    # m_i = min{b : (a, b) a generator, a <= t - i}: the least y-exponent of
    # each x-degree below t, then a running minimum upward in a
    least = [my] * t
    for a, b in E.gens:
        if a < t and b < least[a]:
            least[a] = b
    return Staircase([0, *reversed(list(itertools.accumulate(least, min)))])


class HSeries:
    """Hilbert function of a graded Artinian quotient of k[x,y].

    Valid vectors look like (1, 2, ..., c, h_c, ..., h_s) with
    c >= h_c >= ... >= h_s > 0.  The first difference p and the initial
    degree c are derived on construction; entries beyond s read as 0.
    """

    __slots__ = ("h",)

    def __init__(self, h):
        h = tuple(int(v) for v in h)
        if not h:
            raise DomainError("empty Hilbert function")
        if h[0] != 1:
            raise DomainError(f"h_0 = 1 violated: h_0 = {h[0]}")
        s = len(h) - 1
        if h[s] <= 0:
            raise DomainError(f"h_s > 0 violated: h_{s} = {h[s]}")
        c = s + 1
        for j, v in enumerate(h):
            if v != j + 1:
                c = j
                break
        if c <= s and h[c] > c:
            raise DomainError(f"c >= h_c violated: h_{c} = {h[c]} > c = {c}")
        for j in range(max(c, 1), s + 1):
            if h[j] <= 0:
                raise DomainError(f"h_j > 0 violated: h_{j} = {h[j]}")
            if h[j] > h[j - 1]:
                raise DomainError(
                    f"h_{j - 1} >= h_{j} violated: {h[j - 1]} < {h[j]} (past the initial degree)")
        object.__setattr__(self, "h", h)

    @property
    def s(self):
        return len(self.h) - 1

    @property
    def c(self):
        """Initial degree: least j with h_j < j + 1 (h_j = 0 past s)."""
        for j, v in enumerate(self.h):
            if v != j + 1:
                return j
        return self.s + 1

    def at(self, j):
        return self.h[j] if 0 <= j <= self.s else 0

    @property
    def first_difference(self):
        """p_j = h_j - h_{j-1} for j = 0..s+1 (coefficients of (1-z)h(z))."""
        return tuple(self.at(j) - self.at(j - 1) for j in range(self.s + 2))

    @property
    def total(self):
        return sum(self.h)

    def __eq__(self, other):
        if not isinstance(other, HSeries):
            return NotImplemented
        return self.h == other.h

    def __hash__(self):
        return hash(self.h)

    def __repr__(self):
        return f"HSeries({list(self.h)})"


def lex_segment_from_hseries(hs):
    """The lex-segment ideal L with Hilbert function ``hs``.

    Degree j of L is spanned by the (j+1-h_j) lex-largest monomials, so
    x^a y^b lies in L exactly when a >= h_{a+b}.
    """
    if not isinstance(hs, HSeries):
        hs = HSeries(hs)
    t = hs.c
    m = [0]
    for i in range(1, t + 1):
        a = t - i
        b = 0
        while a < hs.at(a + b):
            b += 1
        m.append(b)
    L = Staircase(m)
    assert L.is_lex_segment
    return L


def enumerate_staircases(d):
    """All staircases of colength d, in increasing lex order of m.

    The m-vectors (0, m_1 <= ... <= m_t) with positive parts summing to d
    are exactly the partitions of d, so the count is the partition number.
    """
    if d < 1:
        raise ValueError("colength must be at least 1")

    def parts(remaining, minimum):
        if remaining == 0:
            yield ()
            return
        for p in range(minimum, remaining + 1):
            for rest in parts(remaining - p, p):
                yield (p,) + rest

    return sorted(Staircase((0,) + tail) for tail in parts(d, 1))
