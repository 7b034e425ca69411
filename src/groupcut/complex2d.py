"""The two-dimensional polyhedral complex induced by a breakpoint set.

For breakpoints B of a periodic piecewise linear function, the 1-D
complex over [0,1] has the points of B together with 1 as vertices and the closed
intervals between consecutive points as edges.  The induced 2-D complex
consists of all nonempty sets

    F(I, J, K) = {(x, y) : x in I, y in J, x+y in K}

where I, J range over the 1-D faces in [0,1] and K over the 1-D faces
of the doubled complex in [0,2].  Each face is a polytope with at most
six sides in the three directions x, y, x+y; its extreme points are
computed exactly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cmp_to_key

from .exactnum import QNum, format_qnum

Point = tuple[QNum, QNum]


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval [a, b]; a == b encodes a single point."""

    a: QNum
    b: QNum

    def __post_init__(self):
        object.__setattr__(self, "a", QNum.of(self.a))
        object.__setattr__(self, "b", QNum.of(self.b))
        if self.a > self.b:
            raise ValueError(f"interval endpoints out of order: "
                             f"[{self.a}, {self.b}]")

    @property
    def is_point(self) -> bool:
        return self.a == self.b

    def contains(self, t) -> bool:
        return self.a <= t <= self.b

    def relint_meets_open(self, lo, hi) -> bool:
        """Does the relative interior meet the open interval (lo, hi)?"""
        if self.is_point:
            return lo < self.a < hi
        return self.a < hi and lo < self.b

    def __str__(self) -> str:
        if self.is_point:
            return "{%s}" % format_qnum(self.a)
        return "[%s, %s]" % (format_qnum(self.a), format_qnum(self.b))


@dataclass(frozen=True, slots=True)
class Face2D:
    """A face F(I, J, K) with its extreme points, exactly computed."""

    I: Interval
    J: Interval
    K: Interval
    vertices: tuple[Point, ...]  # lexicographically sorted
    dim: int
    p1: Interval  # projection on x
    p2: Interval  # projection on y
    p3: Interval  # projection on x+y

    @property
    def triple_key(self):
        return (self.I.a, self.I.b, self.J.a, self.J.b, self.K.a, self.K.b)

    def label(self) -> str:
        return f"F({self.I}, {self.J}, {self.K})"

    def __str__(self) -> str:
        return self.label()


def polygon_vertices(I: Interval, J: Interval, K: Interval) -> tuple[Point, ...]:
    """Extreme points of {x in I, y in J, x+y in K}, sorted.

    Every extreme point is the meet of two boundary lines from distinct
    constraint directions, so it is a box corner satisfying the sum
    constraint or a sum-line intersection with a box edge.
    """
    a1, b1, a2, b2 = I.a, I.b, J.a, J.b
    a3, b3 = K.a, K.b
    xs = (a1,) if I.is_point else (a1, b1)
    ys = (a2,) if J.is_point else (a2, b2)
    gs = (a3,) if K.is_point else (a3, b3)
    pts: dict[Point, None] = {}
    for x in xs:
        for y in ys:
            s = x + y
            if a3 <= s <= b3:
                pts[(x, y)] = None
    for g in gs:
        for x in xs:
            y = g - x
            if a2 <= y <= b2:
                pts[(x, y)] = None
        for y in ys:
            x = g - y
            if a1 <= x <= b1:
                pts[(x, y)] = None
    return tuple(sorted(pts))


def make_face(I: Interval, J: Interval, K: Interval) -> Face2D | None:
    """Build F(I, J, K), or None when the constraint set is empty."""
    verts = polygon_vertices(I, J, K)
    return _face(I, J, K, verts, {}.setdefault) if verts else None


def _face(I: Interval, J: Interval, K: Interval, verts: tuple[Point, ...],
          same) -> Face2D:
    """F(I, J, K) from its extreme points; same(x, x) is the kept x."""
    dim = 0 if len(verts) == 1 else (1 if len(verts) == 2 else 2)
    xs = [p[0] for p in verts]
    ys = [p[1] for p in verts]
    ss = [p[0] + p[1] for p in verts]
    lo, hi = min(ss), max(ss)
    return Face2D(I, J, K, verts, dim, _span(I, min(xs), max(xs)),
                  _span(J, min(ys), max(ys)),
                  _span(K, same(lo, lo), same(hi, hi)))


def _span(whole: Interval, a: QNum, b: QNum) -> Interval:
    """[a, b] inside ``whole``; ``whole`` itself when they are equal."""
    return whole if a == whole.a and b == whole.b else Interval(a, b)


def _one_dim_faces(points: list[QNum]) -> tuple[Interval, ...]:
    faces = []
    for i, p in enumerate(points):
        faces.append(Interval(p, p))
        if i + 1 < len(points):
            faces.append(Interval(p, points[i + 1]))
    return tuple(faces)


class Complex2D:
    """All faces F(I, J, K) over one period, deduplicated by point set."""

    def __init__(self, breakpoints):
        bk = [QNum.of(b) for b in breakpoints]
        if not bk or bk[0] != 0:
            raise ValueError("breakpoints must start at 0")
        for p, q in zip(bk, bk[1:]):
            if not p < q:
                raise ValueError("breakpoints must be strictly increasing")
        if bk[-1] >= 1:
            raise ValueError("breakpoints must lie in [0,1)")
        self.points_x: tuple[QNum, ...] = tuple(bk) + (QNum(1),)
        self.faces_x = _one_dim_faces(list(self.points_x))
        points_k = list(self.points_x) + [p + 1 for p in bk[1:]] + [QNum(2)]
        self.points_k: tuple[QNum, ...] = tuple(points_k)
        self.faces_k = _one_dim_faces(points_k)
        self._enumerate()

    def _enumerate(self) -> None:
        ka = [K.a for K in self.faces_k]
        kb = [K.b for K in self.faces_k]
        by_pointset: dict[tuple[Point, ...], Face2D] = {}
        # many faces, few distinct coordinates: share one object for each
        same = {}.setdefault
        for I in self.faces_x:
            for J in self.faces_x:
                lo = I.a + J.a
                hi = I.b + J.b
                i0 = bisect.bisect_left(kb, lo)
                i1 = bisect.bisect_right(ka, hi)
                for K in self.faces_k[i0:i1]:
                    # triples come in increasing triple_key order, so the
                    # first triple of a point set is its representative
                    verts = polygon_vertices(I, J, K)
                    if verts and verts not in by_pointset:
                        verts = tuple((same(x, x), same(y, y))
                                      for x, y in verts)
                        by_pointset[verts] = _face(I, J, K, verts, same)
        self._by_pointset = by_pointset
        self.faces: tuple[Face2D, ...] = tuple(by_pointset.values())

    # -- lookup -------------------------------------------------------------

    def locate_x(self, t: QNum) -> Interval:
        """The 1-D face over [0,1] whose relative interior holds t."""
        if not (0 <= t <= 1):
            raise ValueError(f"{t} outside [0,1]")
        i = bisect.bisect_right(self.points_x, t) - 1
        if i == len(self.points_x) - 1:  # t == 1
            return self.faces_x[2 * i]
        if self.points_x[i] == t:
            return self.faces_x[2 * i]
        return self.faces_x[2 * i + 1]

    def locate_k(self, s: QNum) -> Interval:
        if not (0 <= s <= 2):
            raise ValueError(f"{s} outside [0,2]")
        i = bisect.bisect_right(self.points_k, s) - 1
        if i == len(self.points_k) - 1:  # s == 2
            return self.faces_k[2 * i]
        if self.points_k[i] == s:
            return self.faces_k[2 * i]
        return self.faces_k[2 * i + 1]

    def face_of_point(self, x, y) -> Face2D:
        """The unique face whose relative interior contains (x, y)."""
        x = QNum.of(x)
        y = QNum.of(y)
        face = make_face(self.locate_x(x), self.locate_x(y),
                         self.locate_k(x + y))
        if face is None:
            raise ArithmeticError(f"no face of the complex holds ({x}, {y})")
        return self._by_pointset[face.vertices]

    def find_face(self, I: Interval, J: Interval, K: Interval) -> Face2D:
        face = make_face(I, J, K)
        if face is None:
            raise ValueError(f"F({I}, {J}, {K}) is empty")
        got = self._by_pointset.get(face.vertices)
        if got is None:
            raise ValueError(f"F({I}, {J}, {K}) is not a face of this complex")
        return got

    @property
    def piece_intervals(self) -> list[Interval]:
        """The closed 1-D pieces [p_i, p_{i+1}] over [0,1]."""
        return [f for f in self.faces_x if not f.is_point]


def n_f(face: Face2D, specials) -> int:
    """How many projections of relint(F) meet the special open intervals.

    The third projection lives in [0,2]; it is also tested against the
    intervals shifted by one period.
    """
    count = 0
    for i, proj in enumerate((face.p1, face.p2, face.p3)):
        hit = any(proj.relint_meets_open(lo, hi) for lo, hi in specials)
        if not hit and i == 2:
            hit = any(proj.relint_meets_open(lo + 1, hi + 1)
                      for lo, hi in specials)
        if hit:
            count += 1
    return count


def centroid(points) -> Point:
    n = len(points)
    sx = sum((p[0] for p in points), QNum(0))
    sy = sum((p[1] for p in points), QNum(0))
    return (sx / n, sy / n)


def ccw_hull_order(points) -> list[Point]:
    """Extreme points of a convex polygon in counterclockwise order."""
    pts = sorted(points)
    if len(pts) <= 2:
        return pts
    pivot = pts[0]

    def cmp(p, q):
        cross = ((p[0] - pivot[0]) * (q[1] - pivot[1])
                 - (p[1] - pivot[1]) * (q[0] - pivot[0]))
        s = cross.sign()
        if s != 0:
            return -s  # positive cross: p precedes q counterclockwise
        dp = (p[0] - pivot[0]) ** 2 + (p[1] - pivot[1]) ** 2
        dq = (q[0] - pivot[0]) ** 2 + (q[1] - pivot[1]) ** 2
        return -1 if dp < dq else 1

    return [pivot] + sorted(pts[1:], key=cmp_to_key(cmp))
