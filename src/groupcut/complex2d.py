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
table and one coordinate space: its distinct values sorted, so that each
point's x, y and x + y and each interval's ends are ranks, which every
slack sweep reads, so the analyses of any number of functions over one
breakpoint set read one complex.
"""

from __future__ import annotations

import bisect
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, cmp_to_key, partial
from itertools import chain, product
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


def _narrow(values) -> array:
    """The ints of values, none negative, in the narrowest array type that
    holds them all."""
    top = max(values, default=0)
    return array(next(c for c in "BHIQ" if top < 256 ** array(c).itemsize),
                 values)


def _enumerate(cx: Complex2D):
    """The faces over the grid P (points_x) and G (points_k), in order,
    the rank table, and the rank space of the coordinates: the distinct
    values sorted, per value the index mod 1 of the breakpoint it is (the
    number of breakpoints inside a piece), the x, y and x + y ranks of
    each point and the end ranks of each interval of the store.

    Each sum P[i] + P[j] is ranked once against G: 2k + 1 when it equals
    G[k], else twice the number of points of G below it.  The sum lies in
    [G[ka], G[kb]] iff 2 ka + 1 <= rank <= 2 kb + 1, so every test of
    ``polygon_vertices`` is an int compare, and so is the test that skips
    a triple repeating an earlier one's points (``_add_faces``).  A
    coordinate is keyed by indices: an x or y key v < n is P[v] and
    n + k n + j is G[k] - P[j], a sum key w < m is G[w] and m + i n + j is
    P[i] + P[j], offset by W where it shares one key space with x and y
    keys.  A vertex is keyed x_key * W + y_key, with its coordinate put on
    a breakpoint whenever it equals one, so equal keys are equal points
    and point sets deduplicate on sorted keys (``_vertex_keys``).  Each
    key is decoded once, each distinct value is one object (``_encode``
    relies on it), and the distinct values are sorted once: a face's
    vertices are ordered by the ranks of their x and y values, and a
    projection is found by the ranks of its ends.
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
    found, ends = _add_faces(rank, n, m)
    # each distinct vertex key -> its position among the points
    point_of = {vk: i for i, vk in enumerate(dict.fromkeys(chain(*found)))}
    keys = []  # per point its x, y and x + y keys
    for vk in point_of:
        x, y = divmod(vk, W)
        if x >= n or y >= n:  # on the line x + y = G[k]
            s = (max(x, y) - n) // n
        else:
            r = rank[x * n + y]
            s = r >> 1 if r & 1 else m + x * n + y
        keys += (x, y, W + s)
    distinct = {g: g for g in G}  # one object per distinct value
    value = {}
    for c in set(keys).union(ends):
        if c < n:
            v = P[c]
        elif c < W:
            k, j = divmod(c - n, n)
            v = G[k] - P[j]
        elif c < W + m:
            v = G[c - W]
        else:
            i, j = divmod(c - W - m, n)
            v = P[i] + P[j]
        value[c] = distinct.setdefault(v, v)
    values = sorted(distinct)
    # the rank of each distinct value, by id as each is one object
    order = {id(v): r for r, v in enumerate(values)}
    at = {c: order[id(v)] for c, v in value.items()}  # key -> value's rank
    ranks = [at[c] for c in keys]
    points = [(value[x], value[y]) for x, y in zip(keys[::3], keys[1::3])]
    place = [x * len(values) + y for x, y in zip(ranks[::3], ranks[1::3])]
    starts, verts = [0], []
    for key in found:
        verts.extend(sorted(map(point_of.__getitem__, key),
                            key=place.__getitem__))
        starts.append(len(verts))
    # the projection intervals, each distinct value once, by position
    intervals = list(faces_x + faces_k)
    spans = [(order[id(iv.a)], order[id(iv.b)]) for iv in intervals]
    by_ends: dict[tuple[int, int], int] = {}
    for i, span in enumerate(spans):
        by_ends.setdefault(span, i)
    proj = []
    pairs = iter(ends)
    for a, b in zip(pairs, pairs):
        span = (at[a], at[b])
        i = by_ends.setdefault(span, len(intervals))
        if i == len(intervals):
            intervals.append(Interval(value[a], value[b]))
            spans.append(span)
        proj.append(i)
    row = {id(g): k % (n - 1) for k, g in enumerate(G)}
    rows = [row.get(id(v), n - 1) for v in values]
    store = _FaceStore(faces_x, faces_k, intervals, points,
                       *map(_narrow, (found.values(), proj, starts, verts)))
    return (store, rank, values,
            *map(_narrow, (rows, ranks, list(chain(*spans)))))


def _add_faces(rank, n, m) -> tuple[dict[tuple[int, ...], int], list[int]]:
    """Each nonempty point set F(I, J, K), as its sorted vertex keys
    (``_enumerate``) -> the first triple (fi, fj, fk) in increasing order
    that has it, for the cells I, J over P and K over G, packed as
    (fi * (2n - 1) + fj) * (2m - 1) + fk; and per set, in order, the end
    keys x0, x1, y0, y1, s0, s1 of the projections p1 = I & (K - J),
    p2 = J & (K - I) and p3 = K & (I + J) of that triple, an end on a
    breakpoint keyed as that breakpoint.  Both are recorded when a set is
    first found, from the ranks of its triple, and a set's keys from its
    box I x J, worked out once (``_box``), by int compares and adds.

    A triple is skipped before its vertex set is built when ranks prove
    that an earlier triple has its points: an edge cell on which the set
    lies at its lower end (then the point cell below has the same set),
    or a point cell onto which the edge cell below it projects.  Any other
    repeat is found in the dict.
    """
    W, nx, nk = n + m * n, 2 * n - 1, 2 * m - 1
    found: dict[tuple[int, ...], int] = {}
    ends: list[int] = []
    for fi in range(nx):
        ia, ib = fi >> 1, (fi + 1) >> 1
        for fj in range(nx):
            ja, jb = fj >> 1, (fj + 1) >> 1
            lo, hi = rank[ia * n + ja], rank[ib * n + jb]
            rx, ry = rank[ib * n + ja], rank[ia * n + jb]
            low = ia == ib > 0 or ja == jb > 0  # a point I or J after 0
            box = _box(rank, n, W, fi, fj)
            # the K with K.b >= P[ia] + P[ja] and K.a < P[ib] + P[jb]: the
            # edge K with K.a = P[ib] + P[jb] has the points of {K.a}
            for fk in range(max(0, (lo >> 1) * 2 - 1), hi):
                ka, kb = fk >> 1, (fk + 1) >> 1
                ta, tb = 2 * ka + 1, 2 * kb + 1
                # skipped when an earlier triple has the same points: for
                # an edge I (J) whose set lies at x = P[ia] (y = P[ja]),
                # the point cell below it; for a point K = {G[ka]} with no
                # sum below G[ka], or with I or J a point whose edge cell
                # below reaches only G[ka], the edge cell below K, I or J
                if (lo == tb and (rx > tb or ry > tb)
                        or ka == kb and (ka and lo == ta or low and hi == ta)):
                    continue
                key = _vertex_keys(box, fk)
                if key and key not in found:
                    found[key] = (fi * nx + fj) * nk + fk
                    ends += (ia if ry >= ta else ib if hi == ta
                             else n + ka * n + jb,
                             ib if rx <= tb else ia if lo == tb
                             else n + kb * n + ja,
                             ja if rx >= ta else jb if hi == ta
                             else n + ka * n + ib,
                             jb if ry <= tb else ja if lo == tb
                             else n + kb * n + ia,
                             W + (ka if lo <= ta else lo >> 1 if lo & 1
                                  else m + ia * n + ja),
                             W + (kb if hi >= tb else hi >> 1 if hi & 1
                                  else m + ib * n + jb))
    return found, ends


def _box(rank, n, W, fi, fj) -> tuple[int, ...]:
    """The box I x J for cells fi, fj over P, as ``_vertex_keys`` reads it:
    its corner sums' ranks and corner keys, the keys where its sides meet
    x + y = G[0], and the key steps n, n W from G[k] to G[k + 1].  A point
    I (J) gives its corners at P[ib] (P[jb]) rank -1, so no key repeats."""
    ia, ib, ja, jb = fi >> 1, (fi + 1) >> 1, fj >> 1, (fj + 1) >> 1
    pi, pj = ia == ib, ja == jb
    lo, rx = rank[ia * n + ja], -1 if pi else rank[ib * n + ja]
    ry = -1 if pj else rank[ia * n + jb]
    hi = -1 if pi or pj else rank[ib * n + jb]
    return (lo, rx, ry, hi, ia * W + ja, ia * W + jb, ib * W + ja,
            ib * W + jb, ia * W + n + ia, ib * W + n + ib, (n + ja) * W + ja,
            (n + jb) * W + jb, n, n * W)


def _vertex_keys(box, fk) -> tuple[int, ...]:
    """The sorted vertex keys of F(I, J, K) for a ``_box`` I x J and cell
    fk over G: the box corners whose sum is in K and the points where a
    line x + y = G[k] through an end of K crosses the inside of a side,
    made in key order (x = P[ia], x = P[ib], then by G[k] - P[j])."""
    lo, rx, ry, hi, c00, c01, c10, c11, x0, x1, y0, y1, dx, dy = box
    # the crossings of K.b at rank tc: 0, below every rank, for a point K
    ta, tb, tc = fk | 1, (fk + 1) | 1, (fk + 1) | 1 if fk & 1 else 0
    kx, ky = (fk >> 1) * dx, (fk >> 1) * dy
    keys = []
    if ta <= lo <= tb: keys.append(c00)
    if ta <= ry <= tb: keys.append(c01)
    if lo < ta < ry: keys.append(x0 + kx)
    if lo < tc < ry: keys.append(x0 + kx + dx)
    if ta <= rx <= tb: keys.append(c10)
    if ta <= hi <= tb: keys.append(c11)
    if rx < ta < hi: keys.append(x1 + kx)
    if rx < tc < hi: keys.append(x1 + kx + dx)
    if lo < ta < rx: keys.append(y0 + ky)
    if ry < ta < hi: keys.append(y1 + ky)
    if lo < tc < rx: keys.append(y0 + ky + dy)
    if ry < tc < hi: keys.append(y1 + ky + dy)
    return tuple(keys)


class _FaceStore(Sequence):
    """The faces of a complex, each built when read from a few indices.

    A face is kept as the positions of its I, J and K among the 1-D
    faces, packed as (fi * len(faces_x) + fj) * len(faces_k) + fk in
    ``triples``, of its three projections among the distinct intervals
    (``proj``) and of its vertices among the distinct points
    (``verts[starts[n]:starts[n + 1]]``), each array of the narrowest type
    that holds its values: about 16 bytes on kzh, where a built face
    takes 112.  Faces are in increasing (I, J, K) order.
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
    ``faces``, a sequence of Face2D, builds each face when it is read.
    A sweep reads its rank space, which ``_enumerate`` describes."""

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
        (self.faces, self._rank, self._values, self._value_rows,
         self._point_ranks, self._interval_ranks) = _enumerate(self)

    # -- lookup -------------------------------------------------------------

    def _position(self, fi: int, fj: int, fk: int) -> int:
        """Position in ``faces`` of the face with the points of F(I, J, K)
        for cells fi, fj, fk.  A stored triple represents its own points.
        Any other shares its vertex keys with the first triple that has
        them, which lies within two cells of it per coordinate, as both
        hold the set's projections."""
        if (n := self.faces.position(fi, fj, fk)) is not None:
            return n
        nx, nk, size = len(self.faces_x), len(self.faces_k), len(self.points_x)
        box = partial(_box, self._rank, size, size + len(self.points_k) * size)
        mine = _vertex_keys(box(fi, fj), fk)
        if not mine:
            raise ValueError(f"F({self.faces_x[fi]}, {self.faces_x[fj]}, "
                             f"{self.faces_k[fk]}) is empty")
        near = product(*(range(max(c - 2, 0), min(c + 3, top))
                         for c, top in ((fi, nx), (fj, nx), (fk, nk))))
        n = self.faces.position(*next(
            c for c in near if _vertex_keys(box(*c[:2]), c[2]) == mine))
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
