"""Periodic piecewise linear functions with one-sided limits.

A function is stored as rows (x, left, value, right), one per breakpoint
in [0, 1).  ``left``/``right`` are the one-sided limits, which may differ
from ``value`` at a discontinuity.  The left limit of row 0 is, by
periodicity, the limit at 1 from below.  Slopes are derived, not stored.

All coordinates are QNum; every evaluation is exact.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .exactnum import QNum, QNumLike, format_qnum, parse_qnum

MINUS = -1
AT = 0
PLUS = 1

SIDE_NAMES = {"minus": MINUS, "at": AT, "plus": PLUS}


@dataclass(frozen=True)
class BreakpointRow:
    x: QNum
    left: QNum
    value: QNum
    right: QNum

    @staticmethod
    def of(x: QNumLike, left: QNumLike, value: QNumLike,
           right: QNumLike) -> "BreakpointRow":
        return BreakpointRow(QNum.of(x), QNum.of(left), QNum.of(value),
                             QNum.of(right))


class PwlFunction:
    """An exact periodic piecewise linear function on R/Z."""

    def __init__(self, rows: Iterable[BreakpointRow], f: QNumLike,
                 name: str = "",
                 special_intervals: Sequence[tuple[QNumLike, QNumLike]] = ()):
        # a row of QNums is kept as it is; any other entry is coerced, so
        # that a float fails here rather than in the first evaluation
        rows = tuple(r if type(r.x) is type(r.left) is type(r.value)
                     is type(r.right) is QNum
                     else BreakpointRow.of(r.x, r.left, r.value, r.right)
                     for r in rows)
        if not rows:
            raise ValueError("need at least one breakpoint row")
        if rows[0].x != 0:
            raise ValueError("first breakpoint must be 0")
        for r in rows:
            if not (0 <= r.x < 1):
                raise ValueError(f"breakpoint {r.x} outside [0,1)")
        for r, s in zip(rows, rows[1:]):
            if not r.x < s.x:
                raise ValueError("breakpoints must be strictly increasing")
        f = QNum.of(f)
        if not (0 < f < 1):
            raise ValueError(f"f must lie in (0,1), got {f}")
        si = tuple((QNum.of(lo), QNum.of(hi)) for lo, hi in special_intervals)
        for lo, hi in si:
            if not lo < hi:
                raise ValueError("special interval endpoints out of order")
            if not (0 <= lo and hi <= 1):
                raise ValueError(f"special interval ({lo}, {hi}) is not "
                                 f"inside [0, 1]")
        spans = sorted(si)  # open intervals may share an endpoint only
        for (lo, hi), (lo2, hi2) in zip(spans, spans[1:]):
            if lo2 < hi:
                raise ValueError(f"special intervals ({lo}, {hi}) and "
                                 f"({lo2}, {hi2}) overlap")
        self.rows = rows
        self.f = f
        self.name = name
        self.special_intervals = si
        self._analysis = None  # only additive_face_report touches it

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def continuous_from_values(points: Sequence[tuple[QNumLike, QNumLike]],
                               f: QNumLike, name: str = "") -> "PwlFunction":
        """Continuous function interpolating (x, value) points.

        ``points`` lists breakpoints in [0,1); the wrap-around segment runs
        from the last point to (1, value at 0).
        """
        rows = [BreakpointRow.of(x, v, v, v) for x, v in points]
        return PwlFunction(rows, f, name=name)

    # -- derived structure ---------------------------------------------------

    @cached_property
    def breakpoints(self) -> tuple[QNum, ...]:
        return tuple(r.x for r in self.rows)

    @cached_property
    def slopes(self) -> tuple[QNum, ...]:
        """Slope of each open piece (x_i, x_{i+1}); the last piece ends at 1."""
        out = []
        rows = self.rows
        for i, r in enumerate(rows):
            if i + 1 < len(rows):
                nxt_x, nxt_left = rows[i + 1].x, rows[i + 1].left
            else:
                nxt_x, nxt_left = QNum(1), rows[0].left
            out.append((nxt_left - r.right) / (nxt_x - r.x))
        return tuple(out)

    def piece_bounds(self, i: int) -> tuple[QNum, QNum]:
        lo = self.rows[i].x
        hi = self.rows[i + 1].x if i + 1 < len(self.rows) else QNum(1)
        return lo, hi

    def locate(self, x: QNum) -> tuple[str, int]:
        """('breakpoint', i) if x is row i's abscissa, else ('piece', i)."""
        x = QNum.of(x).mod1()
        i = bisect.bisect_right(self.breakpoints, x) - 1
        if self.rows[i].x == x:
            return ("breakpoint", i)
        return ("piece", i)

    @cached_property
    def is_continuous(self) -> bool:
        return all(r.left == r.value == r.right for r in self.rows)

    # -- evaluation -----------------------------------------------------------

    def limit(self, x: QNumLike, side: int = AT) -> QNum:
        """Value (side=0) or one-sided limit (side=-1/+1) at x, mod 1."""
        x = QNum.of(x).mod1()
        i = bisect.bisect_right(self.breakpoints, x) - 1
        r = self.rows[i]
        if r.x != x:  # interior of an open piece: all three sides agree
            return r.right + self.slopes[i] * (x - r.x)
        return r.value if side == AT else r.right if side == PLUS else r.left

    def eval(self, x: QNumLike) -> QNum:
        return self.limit(x, AT)

    __call__ = eval

    def delta(self, x: QNumLike, y: QNumLike) -> QNum:
        """Subadditivity slack pi(x) + pi(y) - pi(x+y), all mod 1."""
        x = QNum.of(x)
        y = QNum.of(y)
        return self.eval(x) + self.eval(y) - self.eval(x + y)

    # -- pointwise arithmetic -------------------------------------------------

    def refine(self, points: Iterable[QNum]) -> "PwlFunction":
        """The same function with breakpoints at ``points`` too.

        Returns ``self`` when every point already is a breakpoint.
        """
        xs = set(self.breakpoints)
        new = {QNum.of(x) for x in points} - xs
        if not new:
            return self
        rows = [BreakpointRow(x, self.limit(x, MINUS), self.limit(x, AT),
                              self.limit(x, PLUS))
                for x in sorted(xs | new)]
        return PwlFunction(rows, self.f, name=self.name,
                           special_intervals=self.special_intervals)

    def _combine(self, other: "PwlFunction", op) -> "PwlFunction":
        if not isinstance(other, PwlFunction):
            raise TypeError("can only combine with another PwlFunction")
        if self.f != other.f:
            raise ValueError("cannot combine functions with different f")
        a = self.refine(other.breakpoints)
        b = other.refine(self.breakpoints)
        rows = [BreakpointRow(r.x, op(r.left, s.left), op(r.value, s.value),
                              op(r.right, s.right))
                for r, s in zip(a.rows, b.rows)]
        return PwlFunction(rows, self.f)

    def __add__(self, other):
        return self._combine(other, lambda p, q: p + q)

    def __sub__(self, other):
        return self._combine(other, lambda p, q: p - q)

    def scale(self, c: QNumLike) -> "PwlFunction":
        c = QNum.of(c)
        rows = [BreakpointRow(r.x, c * r.left, c * r.value, c * r.right)
                for r in self.rows]
        return PwlFunction(rows, self.f)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def __neg__(self):
        return self.scale(-1)

    # -- canonical form and equality -------------------------------------------

    def canonical(self) -> "PwlFunction":
        """Drop breakpoints where the function is continuous and straight."""
        keep = [self.rows[0]]
        slopes = self.slopes
        for i in range(1, len(self.rows)):
            r = self.rows[i]
            fake = (r.left == r.value == r.right
                    and slopes[i - 1] == slopes[i])
            if not fake:
                keep.append(r)
        return PwlFunction(keep, self.f, name=self.name,
                           special_intervals=self.special_intervals)

    def __eq__(self, other):
        if not isinstance(other, PwlFunction):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return a.f == b.f and a.rows == b.rows

    __hash__ = None  # mutable caches inside; not meant for dict keys

    def __repr__(self):
        label = self.name or "<anonymous>"
        return (f"PwlFunction({label}, f={self.f}, "
                f"{len(self.rows)} breakpoints)")


# -- text serialization ---------------------------------------------------------

_COLUMNS = "x | left | value | right"


def to_text(fn: PwlFunction) -> str:
    """Serialize a function; parse_text inverts this bit-exactly."""
    lines = [f"name: {fn.name}", f"f: {format_qnum(fn.f)}"]
    if fn.special_intervals:
        spans = " ".join(f"({format_qnum(lo)}, {format_qnum(hi)})"
                         for lo, hi in fn.special_intervals)
        lines.append(f"special_intervals: {spans}")
    lines.append(_COLUMNS)
    for r in fn.rows:
        lines.append(" | ".join(format_qnum(v)
                                for v in (r.x, r.left, r.value, r.right)))
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> PwlFunction:
    name = ""
    f = None
    specials: list[tuple[QNum, QNum]] = []
    rows: list[BreakpointRow] = []
    in_rows = False
    seen = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not in_rows:
            if line.replace(" ", "") == _COLUMNS.replace(" ", ""):
                in_rows = True
                continue
            key, _, val = line.partition(":")
            key = key.strip()
            val = val.strip()
            if key in seen:
                raise ValueError(f"header field {key!r} is given twice")
            seen.add(key)
            if key == "name":
                name = val
            elif key == "f":
                f = parse_qnum(val)
            elif key == "special_intervals":
                for chunk in val.replace("(", " ").split(")"):
                    chunk = chunk.strip()
                    if not chunk:
                        continue
                    lo_s, _, hi_s = chunk.partition(",")
                    specials.append((parse_qnum(lo_s), parse_qnum(hi_s)))
            else:
                raise ValueError(f"unknown header field {key!r}")
            continue
        cells = [c.strip() for c in line.split("|")]
        if len(cells) != 4:
            raise ValueError(f"breakpoint row needs 4 columns: {raw!r}")
        rows.append(BreakpointRow(*(parse_qnum(c) for c in cells)))
    if f is None:
        raise ValueError("missing f header")
    if not in_rows:
        raise ValueError("missing column header line")
    return PwlFunction(rows, f, name=name, special_intervals=specials)


def save(fn: PwlFunction, path) -> None:
    with open(path, "w") as fh:
        fh.write(to_text(fn))


def load(path) -> PwlFunction:
    with open(path) as fh:
        return parse_text(fh.read())
