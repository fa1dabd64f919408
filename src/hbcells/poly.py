"""Monomials, multivariate polynomials under lex order, and k[y] polynomials.

The public types hold monomials as plain exponent tuples, one entry per
ring variable.  The lexicographic order induced by x1 > x2 > ... > xn
coincides with Python's native tuple comparison, which keeps the hot
comparison paths free of any custom code.  Inside the division kernel a
monomial is one int (:class:`_Packing`), and only results are unpacked.

A :class:`Polynomial` is an immutable association of monomials to nonzero
coefficients, stored as a term tuple sorted in decreasing lex order so the
leading term is ``terms[0]``.  A :class:`UniPoly` is a dense univariate
polynomial in y, used for the entries of cell matrices.  Both are frozen
dataclasses: assigning an attribute raises ``AttributeError``, and equality
and the hash cover every field, the coefficient field included, so equal
coefficients over two fields make unequal polynomials.

Multivariate division over a field happens in one kernel,
:func:`_normal_form_dict`, which divides a term dict by monic polynomials
(no coefficient is inverted in its loop); Groebner reduction and exact
quotients go through it, and S-polynomials through :func:`_s_pair`.  Both
run on packed monomials, so a product is ``+``, a quotient ``-`` and a
divisibility test one subtraction.  :func:`_widening` is the one rule for
the width of every packed computation: it starts at :func:`_start_width` of
the largest input exponent and runs the computation again with fields twice
as wide when it raises :class:`_Overflow`.  Besides the kernel, the census
walk and the generic-cell equations and their elimination (whose
coefficients are parameter polynomials, with their own packed reduction in
``generic_cells``) run under it.
Dense k[y] coefficient lists have three kernels of their own:
:func:`_convolve` (product), :func:`_divmod` (division with remainder) and
:func:`_add_into` (accumulate).  ``UniPoly`` arithmetic and both directions
of the Hilbert-Burch chart, the minors of a cell matrix and the canonical
matrix of an ideal, are built on them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le, lshift

from .errors import DomainError, ParseError
from .field import QQ


# ---------------------------------------------------------------------------
# monomials

def lex_compare(a, b):
    """Return -1, 0 or 1 comparing exponent tuples in lex order."""
    if len(a) != len(b):
        raise ValueError(f"monomials live in different rings: {a} vs {b}")
    if a == b:
        return 0
    return 1 if a > b else -1


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True when a divides b."""
    return all(map(le, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def monomials_of_degree(nvars, deg):
    """All degree-``deg`` monomials in ``nvars`` variables, lex-descending."""
    if nvars == 1:
        return [(deg,)]
    out = []
    for e in range(deg, -1, -1):
        out.extend((e,) + rest for rest in monomials_of_degree(nvars - 1, deg - e))
    return out


def default_names(nvars):
    if nvars == 1:
        return ("y",)
    if nvars == 2:
        return ("x", "y")
    return tuple(f"x{i + 1}" for i in range(nvars))


def mono_to_str(mono, names):
    """A monomial's text from its exponent tuple, zero exponents skipped."""
    return "*".join(name if e == 1 else f"{name}^{e}" for e, name in zip(mono, names) if e > 0)


# ---------------------------------------------------------------------------
# multivariate polynomials

def _over(v, den):
    """The int ``v / den`` when ``den`` divides ``v``, else the Fraction."""
    return v // den if v % den == 0 else Fraction(v, den)


def _integral(c):
    """A rational ``c`` as an int when it is integral; any other scalar unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _same_field(a, b):
    """Raise DomainError unless ``a`` and ``b`` live over the same field."""
    if b.field is not a.field and b.field != a.field:
        raise DomainError(f"polynomials over {a.field!r} and over another field {b.field!r} do not mix")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Polynomial:
    """Immutable exact multivariate polynomial with lex term order."""

    field: object
    nvars: int
    terms: tuple

    def __init__(self, field, nvars, terms):
        """``terms``: mapping or iterable of (monomial, coefficient) pairs.

        Every coefficient enters the field through ``field.of``.
        """
        items = terms.items() if hasattr(terms, "items") else terms
        acc = {}
        for mono, c in items:
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong arity for {nvars} variables")
            c = field.of(c)
            if mono in acc:
                c = acc[mono] + c
            if c:
                acc[mono] = c
            else:
                acc.pop(mono, None)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", tuple(sorted(acc.items(), reverse=True)))

    @classmethod
    def _raw(cls, field, nvars, sorted_terms):
        """Trusted constructor: ``sorted_terms`` already canonical."""
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", sorted_terms)
        return self

    @classmethod
    def from_dict(cls, field, nvars, d):
        return cls._raw(field, nvars, tuple(sorted(((m, c) for m, c in d.items() if c), reverse=True)))

    @classmethod
    def _from_sum(cls, field, nvars, d):
        """``from_dict`` for the result of arithmetic: over QQ an integral Fraction becomes an int."""
        if not field.char and Fraction in map(type, d.values()):
            d = {m: _integral(c) for m, c in d.items()}
        return cls.from_dict(field, nvars, d)

    @classmethod
    def zero(cls, field, nvars):
        return cls._raw(field, nvars, ())

    @classmethod
    def constant(cls, field, nvars, c):
        c = field.of(c)
        if not c:
            return cls.zero(field, nvars)
        return cls._raw(field, nvars, (((0,) * nvars, c),))

    @classmethod
    def monomial(cls, field, nvars, mono, c=None):
        c = field.one if c is None else field.of(c)
        if not c:
            return cls.zero(field, nvars)
        return cls._raw(field, nvars, ((tuple(mono), c),))

    @classmethod
    def variable(cls, field, nvars, i):
        mono = tuple(1 if k == i else 0 for k in range(nvars))
        return cls._raw(field, nvars, ((mono, field.one),))

    # -- basic queries ------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    @property
    def lt(self):
        """Leading monomial."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0][0]

    @property
    def lc(self):
        """Leading coefficient."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def coefficient(self, mono):
        for m, c in self.terms:
            if m == mono:
                return c
        return self.field.zero

    def total_degree(self):
        """Max total degree, or -inf for the zero polynomial."""
        if not self.terms:
            return -math.inf
        return max(sum(m) for m, _ in self.terms)

    def is_homogeneous(self):
        return len({sum(m) for m, _ in self.terms}) <= 1

    # -- arithmetic ---------------------------------------------------------

    def _same_field(self, other):
        """Raise DomainError unless ``other`` lives over the same field, in as many variables."""
        if other.field is not self.field or other.nvars != self.nvars:
            _same_field(self, other)
            if other.nvars != self.nvars:
                raise DomainError(f"polynomials in {self.nvars} and in {other.nvars} variables do not mix")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._same_field(other)
        d = dict(self.terms)
        for m, c in other.terms:
            v = d.get(m)
            v = c if v is None else v + c
            if v:
                d[m] = v
            else:
                del d[m]
        return Polynomial._from_sum(self.field, self.nvars, d)

    def __sub__(self, other):
        return self + -other if isinstance(other, Polynomial) else NotImplemented

    def __neg__(self):
        return Polynomial._raw(self.field, self.nvars, tuple((m, -c) for m, c in self.terms))

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._same_field(other)
            if len(self.terms) > len(other.terms):
                self, other = other, self
            d = {}
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    m = tuple(map(add, m1, m2))
                    v = d.get(m)
                    v = c1 * c2 if v is None else v + c1 * c2
                    if v:
                        d[m] = v
                    else:
                        del d[m]
            return Polynomial._from_sum(self.field, self.nvars, d)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        r = Polynomial.constant(self.field, self.nvars, self.field.one)
        for _ in range(e):
            r = r * self
        return r

    def scale(self, c):
        """c * self.  Over QQ the product is an int wherever it is integral."""
        c = self.field.of(c)
        if not c:
            return Polynomial.zero(self.field, self.nvars)
        if self.field.char:
            terms = tuple((m, c * cc) for m, cc in self.terms)
        else:
            terms = tuple((m, _integral(c * cc)) for m, cc in self.terms)
        return Polynomial._raw(self.field, self.nvars, terms)

    def monic(self):
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == self.field.one:
            return self
        return self.scale(self.field.div(self.field.one, lc))

    def substitute(self, i, replacement):
        """Substitute ``replacement`` (a Polynomial) for variable i.

        Terms free of variable i go into the result under their own monomial;
        only the others are expanded against the powers of ``replacement``.
        Over QQ an integral coefficient of the result is an int.
        """
        powers = [replacement]  # powers[e - 1] is replacement^e
        acc = {}
        for m, c in self.terms:
            e = m[i]
            if not e:
                v = acc.get(m)
                v = c if v is None else v + c
                if v:
                    acc[m] = v
                else:
                    del acc[m]
                continue
            while e > len(powers):
                powers.append(powers[-1] * replacement)
            rest = m[:i] + (0,) + m[i + 1:]
            for pm, pc in powers[e - 1].terms:
                key = tuple(map(add, pm, rest))
                v = acc.get(key)
                v = pc * c if v is None else v + pc * c
                if v:
                    acc[key] = v
                else:
                    del acc[key]
        return Polynomial._from_sum(self.field, self.nvars, acc)

    def evaluate(self, values):
        """Evaluate at a full point (one value per variable); over QQ an int where integral."""
        total = self.field.zero
        for m, c in self.terms:
            v = c
            for e, x in zip(m, values):
                if e:
                    v = v * x**e
            total = total + v
        return _integral(total)

    # -- structure ----------------------------------------------------------

    def __repr__(self):
        return f"Polynomial({self.to_str()})"

    def __str__(self):
        return self.to_str()

    def to_str(self, names=None):
        return polynomial_to_str(self, names)


def polynomial_to_str(p, names=None):
    """Canonical text form: terms in decreasing lex order, a/b coefficients."""
    names = default_names(p.nvars) if names is None else names
    if len(names) < p.nvars:
        raise ValueError(f"{len(names)} names for {p.nvars} variables")
    return terms_to_str(p.terms, names, mono_to_str)


def terms_to_str(terms, names, mono_str):
    """The text of (monomial, coefficient) terms in decreasing order, "0" for none.

    ``mono_str(mono, names)`` writes a monomial's text: ``mono_to_str`` off an
    exponent tuple in ``polynomial_to_str``, ``_Packing.mono_str`` straight off a
    packed key.  The sign, the coefficient and the layout of each term are
    written here only.
    """
    out = []
    for mono, c in terms:
        mag = str(c)
        sign = "-" if mag[0] == "-" else "+"
        if sign == "-":
            mag = mag[1:]
        ms = mono_str(mono, names)
        if not ms:
            body = mag
        elif mag == "1":
            body = ms
        else:
            body = f"{mag}*{ms}"
        if not out:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out) or "0"


# ---------------------------------------------------------------------------
# univariate polynomials in y

@dataclass(frozen=True, slots=True, init=False, repr=False)
class UniPoly:
    """Dense univariate polynomial over an exact field, variable ``y``.

    Every coefficient enters the field through ``field.of``.
    """

    field: object
    coeffs: tuple

    def __init__(self, field, coeffs):
        self._set(field, list(map(field.of, coeffs)))

    @classmethod
    def _raw(cls, field, cs):
        """Trusted constructor: ``cs`` is a list of elements of ``field``, trimmed in place."""
        self = object.__new__(cls)
        self._set(field, cs)
        return self

    def _set(self, field, cs):
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls, field):
        return cls._raw(field, [])

    @classmethod
    def y_power(cls, field, k, c=None):
        return cls._raw(field, [field.zero] * k + [field.one if c is None else field.of(c)])

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree; -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    _same_field = _same_field

    def __add__(self, other):
        self._same_field(other)
        out = list(self.coeffs)
        _add_into(out, other.coeffs, False, self.field.zero)
        return UniPoly(self.field, out)

    def __sub__(self, other):
        self._same_field(other)
        out = list(self.coeffs)
        _add_into(out, other.coeffs, True, self.field.zero)
        return UniPoly(self.field, out)

    def __neg__(self):
        return UniPoly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            self._same_field(other)
            return UniPoly(self.field, _convolve(self.coeffs, other.coeffs, self.field.zero))
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return UniPoly.zero(self.field)
        return UniPoly(self.field, tuple(c * x for x in self.coeffs))

    def __divmod__(self, other):
        return divide_univariate(self, other)

    def to_polynomial(self, nvars=2):
        """Embed into a multivariate ring with y as the last variable."""
        pad = (0,) * (nvars - 1)
        terms = [(pad + (k,), c) for k, c in enumerate(self.coeffs) if c]
        return Polynomial._raw(self.field, nvars, tuple(reversed(terms)))

    def to_str(self):
        return polynomial_to_str(self.to_polynomial(nvars=1))

    def __repr__(self):
        return f"UniPoly({self.to_str()})"


def _convolve(a, b, zero):
    """Coefficients of the product of two dense coefficient sequences.

    The one k[y] product kernel: ``a`` and ``b`` list coefficients from the
    constant term up, and so does the result (a list, empty when either
    input is).  ``zero`` seeds every slot and zero coefficients are
    skipped, so int inputs give int outputs and a Fraction appears only
    where a nonzero Fraction took part.
    """
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    b = [(j, c) for j, c in enumerate(b) if c]
    for i, c in enumerate(a):
        if c:
            for j, e in b:
                out[i + j] += c * e
    return out


def _divmod(a, b, field):
    """Lists q, r with a = b*q + r and len(r) < len(b): the one k[y] division kernel.

    ``b`` ends in a nonzero coefficient; q and r have no trailing zeros.  As
    in :func:`_convolve` zeros are skipped: int a by monic b stays int.
    """
    db = len(b) - 1
    inv = field.one if b[-1] == field.one else field.div(field.one, b[-1])
    tail = [(j, e) for j, e in enumerate(b[:-1]) if e]
    r = list(a)
    q = [field.zero] * max(len(r) - db, 0)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            c = c * inv
            q[i - db] = c
            for j, e in tail:
                r[i - db + j] -= c * e
    del r[db:]
    for p in (q, r):
        while p and not p[-1]:
            p.pop()
    return q, r


def _add_into(acc, p, negate, zero):
    """acc += p, or acc -= p, in place: the one k[y] accumulate kernel; zeros of p are skipped."""
    if len(acc) < len(p):
        acc.extend([zero] * (len(p) - len(acc)))
    for j, c in enumerate(p):
        if c:
            acc[j] = acc[j] - c if negate else acc[j] + c


# ---------------------------------------------------------------------------
# packed monomials and the division kernel

class _Overflow(Exception):
    """An exponent outgrew its packed field: the run starts again with wider fields."""


class _Packing:
    """Monomials in ``nvars`` variables packed into one int each, with ``width``-bit fields.

    x^e is the sum of e_k << shifts[k], x1 in the top field, so int order is
    lex order, a product is ``+``, a quotient ``-`` and x_k alone is
    ``1 << shifts[k]``.  The top bit of each field is a guard: it stays clear
    while every exponent is below 2^(width-1), and a run that sees it set
    starts again with wider fields.  With every guard set in m, ``(m | guard)
    - lead`` clears the guard of exactly the fields where lead's exponent
    exceeds m's, so lead divides m when ``((m | guard) - lead) & guard == guard``.
    """

    __slots__ = ("nvars", "width", "shifts", "lows", "guard", "fmask")

    def __init__(self, nvars, width):
        self.nvars, self.width = nvars, width
        self.shifts = list(range((nvars - 1) * width, -1, -width))
        self.lows = ((1 << nvars * width) - 1) // ((1 << width) - 1)  # a 1 in every field
        self.guard = self.lows << (width - 1)
        self.fmask = (1 << (width - 1)) - 1

    def pack(self, mono):
        return sum(map(lshift, mono, self.shifts))

    def pack_terms(self, terms):
        """A list of (key, coefficient) pairs from (monomial, coefficient) pairs, in order."""
        if self.nvars == 2:  # k[x, y]: two fields, packed without a loop over them
            w = self.width
            return [((a << w) + b, c) for (a, b), c in terms]
        pack = self.pack
        return [(pack(m), c) for m, c in terms]

    def mono_str(self, key, names):
        """``mono_to_str`` of a key's exponent tuple, written off its nonzero fields, x1 first."""
        n, width = self.nvars, self.width
        text = ""
        while key:
            field = (key.bit_length() - 1) // width
            shift = field * width
            e = key >> shift
            key -= e << shift
            part = names[n - 1 - field] if e == 1 else f"{names[n - 1 - field]}^{e}"
            text = f"{text}*{part}" if text else part
        return text

    def unpack(self, key):
        """The exponent tuple of a key."""
        mask = (1 << self.width) - 1
        return tuple([(key >> shift) & mask for shift in self.shifts])

    def polynomial(self, terms, den):
        """The QQ Polynomial of an int term tuple in decreasing key order, over ``den``."""
        unpack = self.unpack
        return Polynomial._raw(QQ, self.nvars, tuple(
            (unpack(key), _over(v, den)) for key, v in terms))

    def to_str(self, terms, den, names):
        """``polynomial(terms, den).to_str(names)``, with no Polynomial built: ``mono_str``
        writes each monomial straight off its key, ``terms_to_str`` the rest."""
        return terms_to_str([(key, _over(v, den)) for key, v in terms], names, self.mono_str)

    def to_polynomial(self, field, d):
        """The Polynomial over ``field`` of a {key: coefficient} dict with nonzero coefficients.

        In k[x, y] a key with clear guards is x's exponent times 2^width plus
        y's, so one ``divmod`` unpacks it.
        """
        terms = sorted(d.items(), reverse=True)
        if self.nvars == 2:
            base = 1 << self.width
            return Polynomial._raw(field, 2, tuple([(divmod(key, base), c) for key, c in terms]))
        unpack = self.unpack
        return Polynomial._raw(field, self.nvars, tuple([(unpack(key), c) for key, c in terms]))


def _start_width(top):
    """The first field width for exponents up to ``top``: they fit, and at least 8 bits."""
    return max(8, top.bit_length() + 1)


def _top(polys):
    """The largest exponent in the terms of ``polys``, 0 when there is none."""
    monos = [m for p in polys for m, _ in p.terms]
    return max(map(max, monos)) if monos and monos[0] else 0


def _widening(run, nvars, top):
    """``run(P)`` for a packing P of ``nvars`` variables whose fields fit exponents up to ``top``.

    The width starts at ``_start_width(top)``, and each ``_Overflow`` that
    ``run`` raises starts it again with fields twice as wide.  This is the
    boundary that chooses the width, so an overflow never escapes it.
    """
    width = _start_width(top)
    while True:
        try:
            return run(_Packing(nvars, width))
        except _Overflow:
            width *= 2


def _normal_form_dict(work, reducers, guard, quots=None, zero_test=False):
    """Divide the term dict ``work`` (consumed) by monic polynomials, on packed monomials.

    ``reducers`` lists the (lead, tail) pairs of monic polynomials on the keys
    of one ``_Packing`` whose guard bits are ``guard`` (``_reducers``), and
    ``work`` is keyed the same way.  Each step cancels the largest remaining
    monomial with the first reducer whose lead divides it, so the order of
    the list fixes the preference.  Returns the remainder dict.  When
    ``quots`` (one dict per reducer) is given, the quotient terms are
    recorded as ``quots[k][u] = c``; for a fixed reducer ``u`` strictly
    decreases, so no term is written twice.  With ``zero_test`` it returns
    the first term that no lead divides, alone: every key written after it
    is below it, so it is never cancelled, and the remainder is nonzero.

    A key made here or by ``_s_pair`` is a sum of two keys with clear guards,
    so it is exact even when a guard is set (no field carries into the next).
    Every key is checked when it is taken, before it is divided or kept, and
    a set guard raises ``_Overflow``; a key that cancels first, or that lies
    below a term that ``zero_test`` returns, is never used.
    """
    rem = {}
    while work:
        m = max(work)
        if m & guard:
            raise _Overflow
        c = work.pop(m)
        mg = m | guard
        for k, (lead, tail) in enumerate(reducers):
            if (mg - lead) & guard == guard:
                u = m - lead
                if quots is not None:
                    quots[k][u] = c
                c = -c
                for tm, tc in tail:
                    key = u + tm
                    v = work.get(key)
                    if v is None:
                        work[key] = c * tc  # nonzero: a field has no zero divisors
                    elif v := v + c * tc:
                        work[key] = v
                    else:
                        del work[key]
                break
        else:
            if zero_test:
                return {m: c}
            rem[m] = c
    return rem


def _reducers(P, basis, f=None):
    """The (lead, tail) pairs of the monic forms of ``basis`` on the keys of ``P``, in order.

    They must all be over one field, the field of ``f`` when it is given
    (the polynomial to be divided); otherwise this raises DomainError.
    """
    basis = list(map(Polynomial.monic, basis))
    ref = basis[0] if f is None and basis else f
    for g in basis:
        ref._same_field(g)
    out = []
    for g in basis:
        if g.is_zero:
            raise ValueError("the zero polynomial has no leading term")
        terms = P.pack_terms(g.terms)
        out.append((terms[0][0], tuple(terms[1:])))
    return out


def _s_half(b, L):
    """-u_b*tail_b with u_b = L - lead_b, as a new term dict: the half of an S-pair that the
    monic (lead, tail) pair ``b`` fixes, so one half serves ``b`` against many ``a``."""
    lb, tb = b
    ub = L - lb
    return {ub + m: -c for m, c in tb}


def _s_pair(a, half, L):
    """The S-polynomial of monic (lead, tail) pairs a and b whose leads have the lcm ``L``, all
    packed, from ``half = _s_half(b, L)``, which it consumes and returns: the one S-pair kernel.

    It is u_a*tail_a - u_b*tail_b with u = L - lead; the leads cancel, nothing is
    divided.  A key may have a guard set; the kernel checks each key it takes.
    """
    la, ta = a
    ua = L - la
    for m, c in ta:
        key = ua + m
        v = half.get(key)
        if v is None:
            half[key] = c
        elif v := v + c:
            half[key] = v
        else:
            del half[key]
    return half


def _division(f, basis, quotients=False):
    """Divide ``f`` by the monic forms of ``basis`` in the kernel: the remainder and, with
    ``quotients``, the list of quotients by those monic forms (else None), as Polynomials."""
    basis = list(basis)

    def run(P):
        quots = [{} for _ in basis] if quotients else None
        rem = _normal_form_dict(dict(P.pack_terms(f.terms)), _reducers(P, basis, f), P.guard, quots)
        return (P.to_polynomial(f.field, rem),
                None if quots is None else [P.to_polynomial(f.field, q) for q in quots])

    return _widening(run, f.nvars, _top([f, *basis]))


def exact_quotient(f, g):
    """f / g when g divides f exactly, else None.

    Division by a single polynomial is unique, so a zero remainder is
    exactly divisibility.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    rem, (q,) = _division(f, [g], quotients=True)
    return None if rem else q.scale(f.field.div(f.field.one, g.lc))


def divide_univariate(f, h):
    """Division with remainder in k[y]: f = h*q + r, r = 0 or deg r < deg h."""
    if h.is_zero:
        raise ZeroDivisionError("univariate division by the zero polynomial")
    f._same_field(h)
    q, r = _divmod(f.coeffs, h.coeffs, f.field)
    return UniPoly(f.field, q), UniPoly(f.field, r)


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        if m.group(1) is not None:
            tokens.append(("num", m.group(1), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            ch = m.group(3)
            if ch not in "+-*/^":
                raise ParseError(f"unexpected character {ch!r}", m.start(3))
            tokens.append((ch, ch, m.start(3)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def parse_polynomial(text, variables, field=QQ):
    """Parse the canonical text grammar into a :class:`Polynomial`.

    Terms are separated by ``+``/``-``; a term is a ``*``-separated product
    of rational numbers (``3``, ``3/2``) and powers ``name^e`` of the given
    variables, whose names must be distinct (``ValueError`` otherwise).
    Printing and reparsing is the identity.
    """
    names = list(variables)
    index = {n: i for i, n in enumerate(names)}
    if len(index) < len(names):
        raise ValueError(f"a variable name repeats in {names!r}")
    nvars = len(names)
    tokens = _tokenize(text)
    k = 0

    def peek():
        return tokens[k]

    def take(kind=None):
        nonlocal k
        tok = tokens[k]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}" if tok[0] != "end"
                             else f"unexpected end of input (expected {kind})", tok[2])
        k += 1
        return tok

    def parse_factor():
        """Returns (scalar, exponent-vector) for one factor."""
        kind, val, pos = peek()
        if kind == "num":
            take()
            num = int(val)
            if peek()[0] == "/":
                take()
                dk, dv, dpos = take("num")
                try:
                    return field.of(num, int(dv)), (0,) * nvars
                except DomainError:
                    raise ParseError(f"zero denominator over {field!r}", dpos) from None
            return field.of(num), (0,) * nvars
        if kind == "name":
            take()
            if val not in index:
                raise ParseError(f"unknown variable {val!r}", pos)
            e = 1
            if peek()[0] == "^":
                take()
                _, ev, _ = take("num")
                e = int(ev)
            mono = tuple(e if i == index[val] else 0 for i in range(nvars))
            return field.one, mono
        raise ParseError(f"expected a number or variable, found {val!r}" if kind != "end"
                         else "unexpected end of input", pos)

    def parse_term():
        coeff, mono = parse_factor()
        while peek()[0] == "*":
            take()
            c2, m2 = parse_factor()
            coeff = coeff * c2
            mono = mono_mul(mono, m2)
        return coeff, mono

    acc = {}
    sign = 1
    kind, _, pos = peek()
    if kind in "+-":
        sign = -1 if kind == "-" else 1
        take()
    while True:
        coeff, mono = parse_term()
        if sign < 0:
            coeff = -coeff
        v = acc.get(mono, field.zero) + coeff
        if v:
            acc[mono] = v
        else:
            acc.pop(mono, None)
        kind, val, pos = peek()
        if kind == "end":
            break
        if kind not in "+-":
            raise ParseError(f"expected '+', '-' or end of input, found {val!r}", pos)
        sign = -1 if kind == "-" else 1
        take()
    return Polynomial.from_dict(field, nvars, acc)


def parse_ideal(text, variables, field=QQ):
    """Parse a comma-separated list of polynomials."""
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError("empty ideal description", 0)
    return [parse_polynomial(p, variables, field) for p in parts]
