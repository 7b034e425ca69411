"""Exact arithmetic over the quadratic field Q(sqrt(2)).

Every quantity is stored as (p + q*sqrt(2))/d for ints p, q, d with d > 0
and gcd(p, q, d) = 1.  That form is canonical, so equality compares three
ints.  Order, sign and floor are decided by integer arithmetic alone;
floats appear only in ``__float__``, for rendering.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, sqrt
from typing import Union

Rat = Fraction

QNumLike = Union["QNum", int, Fraction, str]


@lru_cache(maxsize=4096)
def _rational_hash(p: int, d: int) -> int:
    """hash(Fraction(p, d)) for p/d in lowest terms with d > 1, worked out
    as Fraction.__hash__ does it, so that dict keys that mix the two
    work."""
    try:
        h = hash(hash(abs(p)) * pow(d, -1, sys.hash_info.modulus))
    except ValueError:  # d is a multiple of the modulus
        h = sys.hash_info.inf
    h = h if p >= 0 else -h
    return -2 if h == -1 else h


def _sign(p: int, q: int) -> int:
    """Sign of p + q*sqrt(2): with opposite signs, that of p^2 - 2 q^2,
    which is never 0 because sqrt(2) is irrational."""
    if q == 0:
        return (p > 0) - (p < 0)
    sq = 1 if q > 0 else -1
    if p == 0 or (p > 0) == (q > 0) or p * p < 2 * q * q:
        return sq
    return -sq


class QNum:
    """An immutable element (p + q*sqrt(2))/d of Q(sqrt(2)).

    ``QNum(a, b)`` is a + b*sqrt(2) for ints or Fractions a, b; ``QNum(s)``
    parses the grammar of ``parse_qnum``.  The rational parts are the
    read-only Fraction properties ``a`` and ``b``.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a: QNumLike = 0, b: QNumLike = 0):
        if type(a) is int and type(b) is int:
            self._p, self._q, self._d = a, b, 1
            return
        if isinstance(a, (str, QNum)):
            if b != 0:
                raise ValueError(f"{a!r} already fixes both parts")
            x = parse_qnum(a) if isinstance(a, str) else a
            self._p, self._q, self._d = x._p, x._q, x._d
            return
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError(f"QNum takes no float: {a!r}, {b!r}")
        a, b = Fraction(a), Fraction(b)
        d = lcm(a.denominator, b.denominator)  # no prime divides p, q and d
        self._p, self._q, self._d = (a.numerator * (d // a.denominator),
                                     b.numerator * (d // b.denominator), d)

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(2)."""
        return Fraction(self._q, self._d)

    @staticmethod
    def of(x: QNumLike) -> "QNum":
        """Coerce an int, Fraction, str, or QNum to a QNum."""
        return x if type(x) is QNum else QNum(x)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is QNum else _coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _reduced(self._p + o._p, self._q + o._q, d1)
        return _reduced(self._p * d2 + o._p * d1, self._q * d2 + o._q * d1,
                        d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if type(other) is QNum else _coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self._d, o._d
        if d1 == d2:
            return _reduced(self._p - o._p, self._q - o._q, d1)
        return _reduced(self._p * d2 - o._p * d1, self._q * d2 - o._q * d1,
                        d1 * d2)

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = other if type(other) is QNum else _coerce(other)
        if o is None:
            return NotImplemented
        p1, q1, p2, q2 = self._p, self._q, o._p, o._q
        return _reduced(p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2,
                        self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if type(other) is QNum else _coerce(other)
        if o is None:
            return NotImplemented
        # 1/(p + q*sqrt2) = (p - q*sqrt2)/(p^2 - 2 q^2); the norm vanishes
        # only at 0 because sqrt2 is irrational.
        p1, q1, p2, q2 = self._p, self._q, o._p, o._q
        n, d2 = (p2 * p2 - 2 * q2 * q2) * self._d, o._d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        if n < 0:
            n, d2 = -n, -d2
        return _reduced((p1 * p2 - 2 * q1 * q2) * d2,
                        (q1 * p2 - p1 * q2) * d2, n)

    def __rtruediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out, base = _make(1, 0, 1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __neg__(self):
        return _make(-self._p, -self._q, self._d)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if _sign(self._p, self._q) < 0 else self

    # -- exact sign and order ---------------------------------------------

    def sign(self) -> int:
        """Sign of self, decided exactly from integers."""
        return _sign(self._p, self._q)

    def is_rational(self) -> bool:
        return self._q == 0

    def __eq__(self, other):
        if type(other) is int:
            return self._d == 1 and self._q == 0 and self._p == other
        o = other if type(other) is QNum else _coerce(other)
        if o is None:
            return NotImplemented
        return self._p == o._p and self._q == o._q and self._d == o._d

    def __lt__(self, other):
        s = _cmp(self, other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = _cmp(self, other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = _cmp(self, other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = _cmp(self, other)
        return NotImplemented if s is None else s >= 0

    def __hash__(self):
        p, q, d = self._p, self._q, self._d
        if q:
            return hash((p, q, d))
        if d == 1:
            return hash(p)
        return _rational_hash(p, d)

    def __bool__(self):
        return self._p != 0 or self._q != 0

    # -- floor / fractional part ------------------------------------------

    def __float__(self) -> float:
        return self._p / self._d + self._q / self._d * sqrt(2)

    def floor(self) -> int:
        """Largest integer <= self: (p + floor(q*sqrt2)) // d, where
        floor(q*sqrt2) is isqrt(2 q^2), or -isqrt(2 q^2) - 1 for q < 0."""
        q = self._q
        if q == 0:
            return self._p // self._d
        s = isqrt(2 * q * q)
        return (self._p + (s if q > 0 else -s - 1)) // self._d

    def mod1(self) -> "QNum":
        """Fractional part, in [0, 1)."""
        n = self.floor()
        if n == 0:
            return self
        return _make(self._p - n * self._d, self._q, self._d)

    # -- text form ----------------------------------------------------------

    def __str__(self) -> str:
        return format_qnum(self)

    def __repr__(self) -> str:
        return f"QNum({format_qnum(self)!r})"


_new = object.__new__


def _make(p: int, q: int, d: int) -> QNum:
    """A QNum from parts already in canonical form; checks nothing."""
    x = _new(QNum)
    x._p, x._q, x._d = p, q, d
    return x


def _reduced(p: int, q: int, d: int) -> QNum:
    """A QNum from parts with d > 0, divided by their common factor."""
    g = gcd(p, q, d)
    return _make(p, q, d) if g == 1 else _make(p // g, q // g, d // g)


def _coerce(x) -> QNum | None:
    """A non-QNum x as a QNum, or None for a type that does not mix."""
    if type(x) is int:
        return _make(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        x = Fraction(x)
        return _make(x.numerator, 0, x.denominator)
    return None


def _cmp(x: QNum, y) -> int | None:
    """Sign of x - y, found without building x - y; None if y does not mix."""
    if type(y) is not QNum:
        if type(y) is int:
            return _sign(x._p - y * x._d, x._q)
        y = _coerce(y)
        if y is None:
            return None
    d1, d2 = x._d, y._d
    if d1 == d2:
        return _sign(x._p - y._p, x._q - y._q)
    return _sign(x._p * d2 - y._p * d1, x._q * d2 - y._q * d1)


_COEFF = r"(?:[0-9]+(?:/[0-9]+)?(?:\*sqrt2)?|sqrt2)"
_NUMBER_RE = re.compile(rf"([+-]?{_COEFF})([+-]{_COEFF})?")


def parse_qnum(text: str) -> QNum:
    """Parse ``R``, ``R*sqrt2``, or a two-term sum in either order.

    Accepted shapes (whitespace is ignored): ``19/100``, ``-3``,
    ``77/7752*sqrt2``, ``19/100 + 77/7752*sqrt2``,
    ``77/7752*sqrt2 + 19/100``, and the ``-`` separated variants.
    """
    m = _NUMBER_RE.fullmatch("".join(text.split()))
    if m is None:
        raise ValueError(f"{text!r} is not R, R*sqrt2 or their sum")
    parts: dict[bool, Fraction] = {}  # is the term's factor sqrt2 -> coeff
    for term in filter(None, m.groups()):
        irrational = term.endswith("sqrt2")
        if irrational in parts:
            raise ValueError(f"two {'sqrt2' if irrational else 'rational'} "
                             f"terms in {text!r}")
        coeff = term.removesuffix("sqrt2").removesuffix("*")
        try:
            parts[irrational] = Fraction(
                coeff + "1" if coeff in ("", "+", "-") else coeff)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return QNum(parts.get(False, 0), parts.get(True, 0))


def format_qnum(x: QNumLike) -> str:
    """Canonical text form: rational part first, then the sqrt2 term."""
    x = QNum.of(x)
    p, q, d = x._p, x._q, x._d
    if q == 0:  # the canonical form has gcd(p, d) = 1
        return str(p) if d == 1 else f"{p}/{d}"
    if p == 0:
        return f"{_ratio(q, d)}*sqrt2"
    return f"{_ratio(p, d)} {'+' if q > 0 else '-'} {_ratio(abs(q), d)}*sqrt2"


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, as str(Fraction(n, d)) writes it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"
