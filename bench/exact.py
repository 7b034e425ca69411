"""An evaluator for exported function tables, written apart from groupcut.

Numbers of Q(sqrt2) are plain pairs ``(a, b)`` of Fractions meaning
a + b*sqrt2.  Order is decided by comparing a^2 with 2*b^2 on integers, and
the floor uses ``math.isqrt``, so no float takes part in any decision.  The
benchmark checks groupcut's answers against this module; it shares no code
with the package.
"""

from __future__ import annotations

import bisect
import math
import re
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))

MINUS, AT, PLUS = -1, 0, 1


def num(a, b=0):
    return (Fraction(a), Fraction(b))


def add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def mul(p, q):
    return (p[0] * q[0] + 2 * p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def div(p, q):
    n = q[0] * q[0] - 2 * q[1] * q[1]
    if n == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt2)")
    return ((p[0] * q[0] - 2 * p[1] * q[1]) / n,
            (p[1] * q[0] - p[0] * q[1]) / n)


def sign(p) -> int:
    a, b = p
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    # opposite signs: compare a^2 with 2 b^2 on integers
    lhs = a.numerator ** 2 * b.denominator ** 2
    rhs = 2 * b.numerator ** 2 * a.denominator ** 2
    return sa if lhs > rhs else sb


def cmp(p, q) -> int:
    return sign(sub(p, q))


class Key:
    """Sort key ordering pairs by their real value."""

    __slots__ = ("p",)

    def __init__(self, p):
        self.p = p

    def __lt__(self, other):
        return cmp(self.p, other.p) < 0

    def __eq__(self, other):
        return self.p == other.p


def floor(p) -> int:
    """Largest integer <= a + b*sqrt2, from integer square roots."""
    a, b = p
    d = a.denominator * b.denominator // math.gcd(a.denominator,
                                                   b.denominator)
    A = a.numerator * (d // a.denominator)
    B = b.numerator * (d // b.denominator)
    r = math.isqrt(2 * B * B)  # floor(|B| sqrt2); never exact unless B == 0
    fb = r if B >= 0 else (-r - 1 if B else 0)
    # A + B sqrt2 lies in [A + fb, A + fb + 1), and A + fb + 1 <= d (n + 1)
    # for n = (A + fb) // d, so no value of that range reaches n + 1
    return (A + fb) // d


def mod1(p):
    return sub(p, num(floor(p)))


# -- text form ----------------------------------------------------------------

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(\*?sqrt2)?")


def parse(text: str):
    """Parse the exact-number grammar: ``p/q``, ``p/q*sqrt2`` or a sum."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty number")
    a = Fraction(0)
    b = Fraction(0)
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad number {text!r}")
        c = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(1) == "-":
            c = -c
        if m.group(3):
            b += c
        else:
            a += c
        pos = m.end()
    return (a, b)


def fmt(p) -> str:
    a, b = p
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*sqrt2"
    if b > 0:
        return f"{a} + {b}*sqrt2"
    return f"{a} - {-b}*sqrt2"


# -- tables -------------------------------------------------------------------


class Table:
    """A periodic function given by rows (x, left, value, right) in [0, 1)."""

    def __init__(self, rows, f, specials=()):
        self.rows = [tuple(r) for r in rows]
        self.f = f
        self.specials = list(specials)
        self._keys = [Key(r[0]) for r in self.rows]
        self._cache = {}
        n = len(self.rows)
        self.slopes = []
        for i, (x, _, _, right) in enumerate(self.rows):
            if i + 1 < n:
                nx, nleft = self.rows[i + 1][0], self.rows[i + 1][1]
            else:
                nx, nleft = ONE, self.rows[0][1]
            self.slopes.append(div(sub(nleft, right), sub(nx, x)))

    def limit(self, t, side: int = AT):
        """Value (side 0) or one-sided limit (side -1/+1) at t, mod 1."""
        key = (t, side)
        got = self._cache.get(key)
        if got is not None:
            return got
        t = mod1(t)
        i = bisect.bisect_right(self._keys, Key(t)) - 1
        x, left, value, right = self.rows[i]
        if t != x:
            out = add(right, mul(self.slopes[i], sub(t, x)))
        elif side == AT:
            out = value
        elif side == PLUS:
            out = right
        else:
            out = left
        self._cache[key] = out
        return out


def parse_table(text: str) -> Table:
    """Read the text that ``groupcut catalog export`` writes."""
    f = None
    specials = []
    rows = []
    in_rows = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_rows:
            cells = line.split("|")
            if len(cells) != 4:
                raise ValueError(f"bad row {raw!r}")
            rows.append(tuple(parse(c) for c in cells))
            continue
        if line.replace(" ", "") == "x|left|value|right":
            in_rows = True
        elif line.startswith("f:"):
            f = parse(line[2:])
        elif line.startswith("special_intervals:"):
            body = line[len("special_intervals:"):]
            for chunk in body.split(")"):
                chunk = chunk.replace("(", "").strip()
                if chunk:
                    lo, hi = chunk.split(",")
                    specials.append((parse(lo), parse(hi)))
    if f is None or not rows:
        raise ValueError("table needs an f: line and rows")
    return Table(rows, f, specials)
