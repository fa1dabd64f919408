"""Exact coefficient fields: rationals and small finite fields.

Rational coefficients are plain ``int`` or ``fractions.Fraction`` values,
with ints preferred whenever a value is integral (integer arithmetic is
much cheaper and the hot paths -- minors, Groebner reductions by monic
polynomials -- never leave the integers).  Finite field elements are small
immutable wrapper objects with operator overloading, so polynomial code is
written once against ordinary ``+ - * /`` and truthiness for zero tests.

A field of order q <= ``TABLE_LIMIT`` (256) builds its q elements once, with
tables of their sums, differences, products and negatives, and hands out
only those: an operation on two of its elements is one list index and makes
no object.  A larger field, such as GF(2147483647), computes each operation
and makes a new element.

A scalar enters a field only through ``field.of``: an element of the field
is returned as it is, an ``int`` or a ``Fraction`` is mapped into the field,
and anything else raises ``DomainError``, an element of another field (one
of the same order built apart included) too.

A copy of a field or of an element is the object itself.  ``QQ``, ``GF(q)``
and their elements unpickle to themselves; a field built apart from ``GF``
cannot be pickled, as it would come back as another field.

Division of two raw ints would produce a float, so any coefficient
division must go through ``field.div``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError


def _itself(self, memo=None):
    """``__copy__`` and ``__deepcopy__`` of a value that is never copied."""
    return self


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class RationalField:
    """The rationals.  Elements are ``int`` or ``Fraction``."""

    char = 0
    zero = 0
    one = 1

    @staticmethod
    def of(num, den=1):
        """``num/den`` in QQ, an int when integral; ``DomainError`` for a scalar that is not rational."""
        if type(num) is int and den == 1:
            return num
        if not isinstance(num, (int, Fraction)):
            raise DomainError(f"{num!r} ({type(num).__name__}) is not a scalar of QQ")
        q = Fraction(num, den)
        return q.numerator if q.denominator == 1 else q

    @staticmethod
    def div(a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        q = Fraction(a) / Fraction(b)
        return q.numerator if q.denominator == 1 else q

    decode = of  # JSON decoding coincides with coercion
    __copy__ = __deepcopy__ = _itself

    def __reduce__(self):
        return "QQ"  # the module attribute

    # Field hashes are ints, not salted str hashes, so the hash of a value
    # that holds its field repeats from one process to the next.
    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash(0)

    def __repr__(self):
        return "QQ"


#: The default coefficient field.
QQ = RationalField()


class FFElement:
    """An element of a finite field, encoded by an index in [0, q); immutable.

    An element of a field above ``TABLE_LIMIT`` computes each operation
    through its field and makes a new object; a field of order at most the
    limit hands out ``_TabledElement`` objects only.
    """

    __slots__ = ("val", "field")

    def __init__(self, val, field):
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "field", field)

    # Elements hash by value, and a small field shares each one with every
    # computation over it: assigning to one would change them all.
    def __setattr__(self, name, value):
        raise AttributeError(f"field elements are immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"field elements are immutable: cannot delete {name!r}")

    # immutable, so a copy is the element itself, interned where it was
    __copy__ = __deepcopy__ = _itself

    def __reduce__(self):
        return self.field.decode, (self.val,)

    def _coerce(self, other):
        if type(other) is type(self) and other.field is self.field:  # the hot path, inline
            return other
        return self.field.of(other) if isinstance(other, (FFElement, int, Fraction)) else NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FFElement(self.field._add(self.val, o.val), self.field)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FFElement(self.field._sub(self.val, o.val), self.field)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FFElement(self.field._sub(o.val, self.val), self.field)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FFElement(self.field._mul(self.val, o.val), self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FFElement(self.field._mul(self.val, self.field._inv(o.val)), self.field)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FFElement(self.field._mul(o.val, self.field._inv(self.val)), self.field)

    def __neg__(self):
        return FFElement(self.field._sub(0, self.val), self.field)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return (self.field.one / self) ** (-e)
        r = self.field.one
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, FFElement):
            return self.field is other.field and self.val == other.val
        if isinstance(other, int):
            # only the canonical value, so that equal objects hash alike
            return other == self.val and self.field.of(other).val == other
        return NotImplemented

    def __hash__(self):
        return hash(self.val)

    def __repr__(self):
        return str(self.val)


class _TabledElement(FFElement):
    """An interned element a of a field of order at most ``TABLE_LIMIT``.

    ``_sum``, ``_diff`` and ``_prod`` are its rows of the field's tables
    (index b holds the element a + b, a - b, a * b) and ``_neg`` is -a, so
    an operation with an element of the same field is one list index and
    makes no object.  Any other operand goes through ``field.of`` first.
    """

    __slots__ = ("_sum", "_diff", "_prod", "_neg")

    def __add__(self, other):
        if type(other) is _TabledElement and other.field is self.field:
            return self._sum[other.val]
        o = self._coerce(other)
        return o if o is NotImplemented else self._sum[o.val]

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is _TabledElement and other.field is self.field:
            return self._diff[other.val]
        o = self._coerce(other)
        return o if o is NotImplemented else self._diff[o.val]

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o._diff[self.val]

    def __mul__(self, other):
        if type(other) is _TabledElement and other.field is self.field:
            return self._prod[other.val]
        o = self._coerce(other)
        return o if o is NotImplemented else self._prod[o.val]

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self._prod[self.field._inv(o.val)]

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else o._prod[self.field._inv(self.val)]

    def __neg__(self):
        return self._neg


#: The largest field order computed by table; above it, as for
#: GF(2147483647), each operation is computed.  A field of order q keeps
#: 3 q^2 table entries: GF(251), the largest field below the limit, builds
#: them in about 26 ms and holds 1.7 MB (2 CPUs, Python 3.11.7), less than
#: importing the package takes, while GF(997) would take 0.3 s and 27 MB.
TABLE_LIMIT = 256


class _FiniteField:
    """What GF(p) and GF(4) share: elements are ``FFElement`` indices in [0, size).

    A field of order at most ``TABLE_LIMIT`` builds its elements once, with
    their tables, and every element it hands out is one of them.
    """

    def __init__(self, char, size):
        self.char = char
        self.size = size
        self._elements = self._tabled_elements() if size <= TABLE_LIMIT else None
        self.zero = self._element(0)
        self.one = self._element(1)

    def _tabled_elements(self):
        elems = [_TabledElement(v, self) for v in range(self.size)]
        for a, e in enumerate(elems):
            for name, op in (("_sum", self._add), ("_diff", self._sub), ("_prod", self._mul)):
                object.__setattr__(e, name, [elems[op(a, b)] for b in range(self.size)])
            object.__setattr__(e, "_neg", elems[self._sub(0, a)])
        return elems

    def _element(self, v):
        """The element of index v in [0, size): the interned one in a tabled field."""
        return FFElement(v, self) if self._elements is None else self._elements[v]

    def of(self, num, den=1):
        """``num/den`` in the field; ``DomainError`` for a scalar of another field."""
        if isinstance(num, FFElement):
            if num.field is not self:
                raise DomainError(f"elements of {num.field!r} and of another field {self!r} do not mix")
            return num if den == 1 else num / self.of(den)
        if isinstance(num, Fraction):
            num, den = num.numerator * den, num.denominator
        elif not isinstance(num, int):
            raise DomainError(f"{num!r} ({type(num).__name__}) is not a scalar of {self!r}")
        return self._element(self._index(num, den))

    def div(self, a, b):
        return self.of(a) / b

    def elements(self):
        return [self._element(v) for v in range(self.size)]

    def decode(self, v):
        return self._element(v % self.size)

    # A finite field equals itself only (``GF`` hands out one object per
    # order); the hash is the order, so it repeats from one process to the next.
    def __hash__(self):
        return hash(self.size)

    def __repr__(self):
        return f"GF({self.size})"

    __copy__ = __deepcopy__ = _itself

    def __reduce__(self):
        if _FIELDS.get(self.size) is not self:
            raise TypeError(f"a field {self!r} built apart from GF({self.size}) cannot be pickled: "
                            "it would unpickle as another field")
        return GF, (self.size,)


class PrimeField(_FiniteField):
    """GF(p) for a prime p < 2**31."""

    def __init__(self, p):
        if not isinstance(p, int) or not 2 <= p < 2**31 or not _is_prime(p):
            raise ValueError(f"field order must be a prime below 2**31, got {p!r}")
        self.p = p  # the tables of super().__init__ compute with it
        super().__init__(p, p)

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return pow(a, -1, self.p)

    def _index(self, num, den):
        return self._mul(num % self.p, self._inv(den % self.p)) if den != 1 else num % self.p


class QuarticField(_FiniteField):
    """GF(4) = GF(2)[w]/(w^2+w+1), elements encoded 0,1,w=2,w+1=3."""

    def __init__(self):
        super().__init__(2, 4)

    @staticmethod
    def _add(a, b):
        return a ^ b

    _sub = _add

    @staticmethod
    def _mul(a, b):
        if a == 0 or b == 0:
            return 0
        # multiply (a0 + a1 w)(b0 + b1 w) with w^2 = w + 1
        a0, a1 = a & 1, a >> 1
        b0, b1 = b & 1, b >> 1
        c0 = (a0 & b0) ^ (a1 & b1)
        c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
        return c0 | (c1 << 1)

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in GF(4)")
        return {1: 1, 2: 3, 3: 2}[a]

    def _index(self, num, den):
        if den % 2 == 0:
            raise ZeroDivisionError("denominator vanishes in GF(4)")
        return num % 2


# One shared field object per order: elements of a field only combine with
# elements of the same object, so two calls of GF(q) must give the same one.
_FIELDS = {}


def GF(q):
    """The finite field of order q, one shared object per order; q must be prime or 4."""
    if type(q) is int and q in _FIELDS:  # 5.0 == 5 and hashes alike, so only an int looks up
        return _FIELDS[q]
    field = QuarticField() if isinstance(q, int) and q == 4 else PrimeField(q)
    return _FIELDS.setdefault(field.size, field)


def scalar_to_json(c):
    """Encode a field element as a JSON-friendly value: an int or "a/b"."""
    if isinstance(c, FFElement):
        return c.val
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return c


#: An optional sign, ASCII digits, and at most one "/" with ASCII digits.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def scalar_from_json(field, v):
    """Decode the output of :func:`scalar_to_json`: an int or an "a/b" string.

    Raises ``ValueError`` for any other value (floats, booleans, and strings
    with spaces, underscores or non-ASCII digits included) and for a
    denominator that is zero in ``field``.
    """
    if isinstance(v, str) and _RATIONAL.fullmatch(v):
        num, _, den = v.partition("/")
        try:
            return field.of(int(num), int(den) if den else 1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r} over {field!r}") from None
    if isinstance(v, int) and not isinstance(v, bool):
        return field.decode(v)
    raise ValueError(f"{v!r} is not a field element (want an integer or an 'a/b' string)")
