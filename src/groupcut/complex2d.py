"""The two-dimensional polyhedral complex induced by a breakpoint set.

For breakpoints B of a periodic piecewise linear function, the 1-D
complex over [0,1] has the points of B together with 1 as vertices and the closed
intervals between consecutive points as edges.  The induced 2-D complex
consists of all nonempty sets

    F(I, J, K) = {(x, y) : x in I, y in J, x+y in K}

where I, J range over the 1-D faces in [0,1] and K over the 1-D faces
of the doubled complex in [0,2].  Each face is a polytope with at most
six sides in the three directions x, y, x+y; its extreme points are
computed exactly.  The complex is enumerated on integer ranks: each sum
of two breakpoints is ranked once against the points of [0,2], and every
vertex and projection test compares ranks.  The complex keeps that rank
table and the integer key of each distinct vertex, and works out every
face's keys again for each slack sweep that asks (``Complex2D.keys``), so
the analyses of any number of functions over one breakpoint set read one
complex.
"""

from __future__ import annotations

import bisect
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, cmp_to_key, partial
from itertools import pairwise
from operator import itemgetter

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


class Face2D(tuple):
    """A face F(I, J, K) with its extreme points, exactly computed.

    A face is the tuple (I, J, K, p1, p2, p3, *vertices): one object per
    face, with no separate vertex tuple to keep.  p1, p2 and p3 are its
    projections on x, y and x + y; its vertices are sorted.
    """

    __slots__ = ()

    def __new__(cls, I: Interval, J: Interval, K: Interval, vertices,
                p1: Interval, p2: Interval, p3: Interval):
        return tuple.__new__(cls, (I, J, K, p1, p2, p3, *vertices))

    I = property(itemgetter(0))
    J = property(itemgetter(1))
    K = property(itemgetter(2))
    p1 = property(itemgetter(3))
    p2 = property(itemgetter(4))
    p3 = property(itemgetter(5))

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self[6:]

    @property
    def dim(self) -> int:
        return min(len(self) - 7, 2)

    @property
    def triple_key(self):
        return (self.I.a, self.I.b, self.J.a, self.J.b, self.K.a, self.K.b)

    def label(self) -> str:
        return f"F({self.I}, {self.J}, {self.K})"

    def __str__(self) -> str:
        return self.label()

    def __repr__(self) -> str:
        return f"Face2D({self.label()}, vertices={self.vertices})"


_face = partial(tuple.__new__, Face2D)


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
    if not verts:
        return None
    xs = [p[0] for p in verts]
    ys = [p[1] for p in verts]
    ss = [p[0] + p[1] for p in verts]
    return Face2D(I, J, K, verts, Interval(min(xs), max(xs)),
                  Interval(min(ys), max(ys)), Interval(min(ss), max(ss)))


def _cell_at(points, t) -> int:
    """Position of the 1-D face over ``points`` whose relint holds t."""
    if not (points[0] <= t <= points[-1]):
        raise ValueError(f"{t} outside [{points[0]},{points[-1]}]")
    i = bisect.bisect_left(points, t)
    return 2 * i if points[i] == t else 2 * i - 1


def _one_dim_faces(points: list[QNum]) -> tuple[Interval, ...]:
    """Face 2i is the point {p_i}, face 2i + 1 the edge [p_i, p_{i+1}]."""
    faces = []
    for i, p in enumerate(points):
        faces.append(Interval(p, p))
        if i + 1 < len(points):
            faces.append(Interval(p, points[i + 1]))
    return tuple(faces)


def _enumerate(cx: Complex2D):
    """The faces over the grid P (points_x) and G (points_k), in order,
    the rank table and the key of each distinct vertex.

    Each sum P[i] + P[j] is ranked once against G: 2k + 1 when it equals
    G[k], else twice the number of points of G below it.  The sum lies in
    [G[ka], G[kb]] iff 2 ka + 1 <= rank <= 2 kb + 1, so every test of
    ``polygon_vertices`` is an int compare.  A coordinate is keyed by
    indices: an x or y key v < n is P[v] and n + k n + j is G[k] - P[j],
    a sum key w < m is G[w] and m + i n + j is P[i] + P[j].  A vertex is
    keyed x_key * W + y_key, with its coordinate put on a breakpoint
    whenever it equals one, so equal keys are equal points and point sets
    deduplicate on sorted keys.  Values are built once per distinct key,
    and each distinct value is one object (``diagram._encode`` relies on it).
    Sum keys are offset by W where they share one key space with x and y
    keys: in ``value``, in the projection spans and in ``Complex2D.keys``.
    """
    P, G, faces_x, faces_k = cx.points_x, cx.points_k, cx.faces_x, cx.faces_k
    n, m = len(P), len(G)
    rank = [0] * (n * n)  # rank[i*n + j]: rank of P[i] + P[j] against G
    for i in range(n):
        for j in range(i, n):
            s = P[i] + P[j]
            k = bisect.bisect_left(G, s)
            rank[i * n + j] = rank[j * n + i] = (2 * k + 1 if G[k] == s
                                                 else 2 * k)
    W = n + m * n
    found: dict[tuple[int, ...], tuple[int, int, int]] = {}
    for fi in range(2 * n - 1):  # in increasing (fi, fj, fk) order
        _add_faces(found, rank, n, W, fi, range(2 * n - 1), range(2 * m - 1))

    same = {g: g for g in G}.setdefault  # one object per distinct value
    values: dict[int, QNum] = {}

    def value(key):  # a sum key w is passed as W + w
        v = values.get(key)
        if v is None:
            v = cx.coordinate(key)[0]
            v = values[key] = same(v, v)
        return v

    # the projection intervals, each distinct value once, by position
    intervals = list(faces_x + faces_k)
    by_value = {}
    for i, iv in enumerate(intervals):
        by_value.setdefault((iv.a, iv.b), i)
    spans: dict[tuple[int, int], int] = {}

    def span(a, b):
        i = spans.get((a, b))
        if i is None:
            lo, hi = value(a), value(b)
            i = by_value.get((lo, hi))
            if i is None:
                i = by_value[lo, hi] = len(intervals)
                intervals.append(Interval(lo, hi))
            spans[a, b] = i
        return i

    point_at: dict[int, Point] = {}  # vertex key -> its point
    point_of: dict[int, int] = {}  # vertex key -> position in point_at
    # the face store's arrays (see _FaceStore)
    triples, proj, starts, verts = (array("Q"), array("I"), array("I", [0]),
                                    array("I"))
    nx, nk = len(faces_x), len(faces_k)
    for key, (fi, fj, fk) in found.items():
        for vk in key:
            if vk not in point_of:
                x, y = divmod(vk, W)
                point_of[vk] = len(point_at)
                point_at[vk] = (value(x), value(y))
        triples.append((fi * nx + fj) * nk + fk)
        verts.extend(map(point_of.__getitem__,
                         sorted(key, key=point_at.__getitem__)))
        starts.append(len(verts))
    for x0, x1, y0, y1, s0, s1 in _end_keys(rank, n, m, triples, nx, nk):
        proj.extend((span(x0, x1), span(y0, y1), span(s0, s1)))
    store = _FaceStore(faces_x, faces_k, intervals, list(point_at.values()),
                       triples, proj, starts, verts)
    return store, rank, array("q", point_at)


def _add_faces(found, rank, n, W, fi, fjs, fks) -> None:
    """Set ``found[keys] = (fi, fj, fk)`` for each nonempty F(I, J, K), I
    the cell fi over P, J a cell fj in fjs over P and K a cell fk in fks
    over G, with keys its sorted vertex keys (``_enumerate``), unless
    ``found`` has them: the first triple tried represents a point set."""
    ia, ib = fi >> 1, (fi + 1) >> 1
    xs = (ia, ib) if ia != ib else (ia,)
    for fj in fjs:
        ja, jb = fj >> 1, (fj + 1) >> 1
        ys = (ja, jb) if ja != jb else (ja,)
        lo, hi = rank[ia * n + ja], rank[ib * n + jb]
        # the K with K.b >= P[ia] + P[ja] and K.a <= P[ib] + P[jb]
        for fk in range(max(fks.start, (lo >> 1) * 2 - 1),
                        min(fks.stop, hi + (hi & 1))):
            ka, kb = fk >> 1, (fk + 1) >> 1
            ta, tb = 2 * ka + 1, 2 * kb + 1
            verts = set()
            for i in xs:
                for j in ys:
                    if ta <= rank[i * n + j] <= tb:
                        verts.add(i * W + j)
            for t, k in ((ta, ka), (tb, kb)) if ka != kb else ((ta, ka),):
                for i in xs:  # x = P[i], y = G[k] - P[i] in J
                    ra, rb = rank[i * n + ja], rank[i * n + jb]
                    if ra <= t <= rb:
                        verts.add(i * W + (ja if ra == t else jb if rb == t
                                           else n + k * n + i))
                for j in ys:  # y = P[j], x = G[k] - P[j] in I
                    ra, rb = rank[ia * n + j], rank[ib * n + j]
                    if ra <= t <= rb:
                        verts.add((ia if ra == t else ib if rb == t
                                   else n + k * n + j) * W + j)
            if verts:
                key = tuple(sorted(verts))
                if key not in found:
                    found[key] = (fi, fj, fk)


def _end_keys(rank, n, m, triples, nx, nk):
    """Per packed triple, the end keys x0, x1, y0, y1, s0, s1 of its face's
    projections p1 = I & (K - J), p2 = J & (K - I) and p3 = K & (I + J); an
    end on a breakpoint is keyed as that breakpoint."""
    W = n + m * n
    for t in triples:
        ij, fk = divmod(t, nk)
        fi, fj = divmod(ij, nx)
        ia, ib, ja, jb = fi >> 1, (fi + 1) >> 1, fj >> 1, (fj + 1) >> 1
        ka, kb = fk >> 1, (fk + 1) >> 1
        ta, tb = 2 * ka + 1, 2 * kb + 1
        r0, r1 = rank[ia * n + ja], rank[ib * n + jb]
        rx, ry = rank[ib * n + ja], rank[ia * n + jb]
        yield (ia if ry >= ta else ib if r1 == ta else n + ka * n + jb,
               ib if rx <= tb else ia if r0 == tb else n + kb * n + ja,
               ja if rx >= ta else jb if r1 == ta else n + ka * n + ib,
               jb if ry <= tb else ja if r0 == tb else n + kb * n + ia,
               W + (ka if r0 <= ta else r0 >> 1 if r0 & 1
                    else m + ia * n + ja),
               W + (kb if r1 >= tb else r1 >> 1 if r1 & 1
                    else m + ib * n + jb))


class _FaceStore(Sequence):
    """The faces of a complex, each built when read from a few indices.

    A face is kept as the positions of its I, J and K among the 1-D
    faces, packed as (fi * len(faces_x) + fj) * len(faces_k) + fk in
    ``triples``, of its three projections among the distinct intervals
    (``proj``) and of its vertices among the distinct points
    (``verts[starts[n]:starts[n + 1]]``): about 30 bytes, where a built
    kzh face takes 112.  Faces are in increasing (I, J, K) order.
    """

    __slots__ = ("_faces_x", "_faces_k", "_intervals", "_points",
                 "_triples", "_proj", "_starts", "_verts")

    def __init__(self, faces_x, faces_k, intervals, points, triples, proj,
                 starts, verts):
        self._faces_x, self._faces_k = faces_x, faces_k
        self._intervals, self._points = intervals, points
        self._triples, self._proj = triples, proj
        self._starts, self._verts = starts, verts

    def position(self, fi: int, fj: int, fk: int) -> int | None:
        """Where the face of the triple (fi, fj, fk) is, if one is."""
        t = (fi * len(self._faces_x) + fj) * len(self._faces_k) + fk
        n = bisect.bisect_left(self._triples, t)
        return n if n < len(self) and self._triples[n] == t else None

    def ids(self):
        """intervals, points, proj, starts, verts: face n has projections
        intervals[i] for i in proj[3n:3n + 3] and vertices points[v] for v
        in verts[starts[n]:starts[n + 1]]; equal ids are equal values."""
        return (self._intervals, self._points, self._proj, self._starts,
                self._verts)

    def cells(self):
        """Per face, in order, the positions (fi, fj, fk) of its I and J
        in faces_x and of its K in faces_k."""
        nx, nk = len(self._faces_x), len(self._faces_k)
        for t in self._triples:
            ij, k = divmod(t, nk)
            yield (*divmod(ij, nx), k)

    def __len__(self) -> int:
        return len(self._triples)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self.at(range(len(self))[i]))
        return next(self.at((range(len(self))[i],)))

    def __iter__(self):
        return self.at(range(len(self)))

    def at(self, positions):
        """The faces at these positions, built one by one."""
        fx, fk, iv, pts = (self._faces_x, self._faces_k, self._intervals,
                           self._points)
        t, p, s, verts = self._triples, self._proj, self._starts, self._verts
        nk = len(fk)
        for n in positions:
            ij, k = divmod(t[n], nk)
            i, j = divmod(ij, len(fx))
            yield _face((fx[i], fx[j], fk[k], iv[p[3 * n]], iv[p[3 * n + 1]],
                         iv[p[3 * n + 2]],
                         *map(pts.__getitem__, verts[s[n]:s[n + 1]])))


class Complex2D:
    """All faces F(I, J, K) over one period, deduplicated by point set;
    ``faces``, a sequence of Face2D, builds each face when it is read."""

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
        self.faces, self._rank, self._vertex_keys = _enumerate(self)

    def keys(self):
        """The faces' integer keys, worked out anew for each sweep: coords,
        the x, y and x + y keys of each distinct point, and for each face
        in order its projection-end keys x0, x1, y0, y1, s0, s1 and the
        positions of its vertices among the points.  Equal keys are equal
        coordinates, and a coordinate on a breakpoint is keyed as one, so
        a vertex's side on a projection is an int compare with the ends.
        """
        rank, n, m = self._rank, len(self.points_x), len(self.points_k)
        W = n + m * n
        coords = []
        for vk in self._vertex_keys:
            x, y = divmod(vk, W)
            if x >= n or y >= n:  # on the line x + y = G[k]
                s = (max(x, y) - n) // n
            else:
                r = rank[x * n + y]
                s = r >> 1 if r & 1 else m + x * n + y
            coords.append((x, y, W + s))
        starts, verts = self.faces._starts, self.faces._verts
        return coords, zip(
            _end_keys(rank, n, m, self.faces._triples, len(self.faces_x),
                      len(self.faces_k)),
            (verts[a:b] for a, b in pairwise(starts)))

    def coordinate(self, key: int) -> tuple[QNum, int | None]:
        """The coordinate of a key (a sum key w as W + w), and the index,
        mod 1, of the breakpoint it is, or None inside a piece."""
        P, G = self.points_x, self.points_k
        n, m = len(P), len(G)
        W = n + m * n
        if key < n:
            return P[key], key % (n - 1)
        if key < W:
            k, j = divmod(key - n, n)
            return G[k] - P[j], None
        if key < W + m:
            return G[key - W], (key - W) % (n - 1)
        i, j = divmod(key - W - m, n)
        return P[i] + P[j], None

    # -- lookup -------------------------------------------------------------

    def _position(self, fi: int, fj: int, fk: int) -> int:
        """Position in ``faces`` of the face with the points of F(I, J, K)
        for cells fi, fj, fk.  A stored triple represents its own points.
        Any other shares its vertex keys with the first triple tried within
        two cells of it per coordinate, as both hold the set's projections."""
        if (n := self.faces.position(fi, fj, fk)) is not None:
            return n
        nx, nk, size = len(self.faces_x), len(self.faces_k), len(self.points_x)
        args = (self._rank, size, size + len(self.points_k) * size)
        mine, near = {}, {}
        _add_faces(mine, *args, fi, range(fj, fj + 1), range(fk, fk + 1))
        if not mine:
            raise ValueError(f"F({self.faces_x[fi]}, {self.faces_x[fj]}, "
                             f"{self.faces_k[fk]}) is empty")
        for i in range(max(fi - 2, 0), min(fi + 3, nx)):
            _add_faces(near, *args, i, range(max(fj - 2, 0), min(fj + 3, nx)),
                       range(max(fk - 2, 0), min(fk + 3, nk)))
        n = self.faces.position(*near[next(iter(mine))])
        if n is None:
            raise ArithmeticError(f"cells {fi, fj, fk} have no stored face")
        return n

    @cached_property
    def _cells(self) -> dict[Interval, int]:
        """Each 1-D face over [0, 2] -> its position in ``faces_k``; the
        faces over [0, 1] come first, at their positions in ``faces_x``."""
        return {iv: c for c, iv in enumerate(self.faces_k)}

    def _find(self, I: Interval, J: Interval, K: Interval) -> int:
        """Position in ``faces`` of F(I, J, K) for 1-D faces I, J over
        [0, 1] and K over [0, 2] of this complex."""
        cells, nx = self._cells, len(self.faces_x)
        fi, fj, fk = cells.get(I, nx), cells.get(J, nx), cells.get(K)
        if fi >= nx or fj >= nx or fk is None:
            raise ValueError(f"F({I}, {J}, {K}) is not a face of the complex")
        return self._position(fi, fj, fk)

    def face_of_point(self, x, y) -> Face2D:
        """The unique face whose relative interior contains (x, y)."""
        x, y = QNum.of(x), QNum.of(y)
        return self.faces[self._position(_cell_at(self.points_x, x),
                                         _cell_at(self.points_x, y),
                                         _cell_at(self.points_k, x + y))]

    def find_face(self, I: Interval, J: Interval, K: Interval) -> Face2D:
        return self.faces[self._find(I, J, K)]


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
