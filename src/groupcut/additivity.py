"""Limit subadditivity slacks, minimality, and additivity classification.

The subadditivity slack of pi at (x, y) is pi(x) + pi(y) - pi(x+y).  On a
face F of the 2-D complex this extends to boundary points by one-sided
limits: the slack at a vertex uses, in each of the three projections, the
limit taken from within the relative interior of the projection of F.
Since pi is affine on the relative interior of every projection, the
extension is affine on F, so everything about the face is decided by its
finitely many vertex slacks:

  * the face is additive (slack identically zero on relint F, hence the
    relint lies in the additivity domain E(pi)) iff all vertex slacks are 0;
  * a nonadditive face with some zero vertex slack carries pure limit
    additivities (the E_F data living only on the boundary);
  * for a subadditive function, nonnegativity of all vertex slacks over
    all faces certifies subadditivity everywhere.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import compress, pairwise, product
from typing import NamedTuple

from .complex2d import Complex2D, Face2D, _narrow, n_f
from .exactnum import QNum
from .pwl import AT, MINUS, PLUS, PwlFunction

ADDITIVE = "additive"
LIMIT_ADDITIVE = "limit_additive"
NON_ADDITIVE = "non_additive"

# the 27 side triples, the sides of a vertex code c being _SIDES[c % 27];
# triple t is _SIDES[9 * (t[0] + 1) + 3 * (t[1] + 1) + t[2] + 1]
_SIDES = tuple(product((MINUS, AT, PLUS), repeat=3))


def _sides(face: Face2D, u, v, s) -> tuple[int, int, int]:
    """Limit directions (for x, y, x+y) of the face at its point (u, v).

    A coordinate sitting at the lower end of the face's projection is
    approached from above (plus), at the upper end from below (minus);
    anywhere else the genuine value is used (a singleton projection, or
    an interior point of a projection, which never hits a breakpoint).
    """
    out = []
    for t, proj in ((u, face.p1), (v, face.p2), (s, face.p3)):
        if t == proj.a:
            out.append(AT if t == proj.b else PLUS)
        elif t == proj.b:
            out.append(MINUS)
        else:
            out.append(AT)
    return tuple(out)


def _slack(limit, u, v, s, sides) -> QNum:
    s1, s2, s3 = sides
    return limit(u, s1) + limit(v, s2) - limit(s, s3)


def slack_at(fn: PwlFunction, face: Face2D, vertex) -> QNum:
    """The face-limit slack of fn at a point of the face."""
    u, v = vertex
    s = u + v
    if not (face.p1.contains(u) and face.p2.contains(v)
            and face.p3.contains(s)):
        raise ValueError(f"point ({u}, {v}) not in {face.label()}")
    return _slack(fn.limit, u, v, s, _sides(face, u, v, s))


@dataclass(frozen=True, slots=True)
class SlackRecord:
    vertex: tuple[QNum, QNum]
    slack: QNum
    sides: tuple[int, int, int]


class FaceClassification(NamedTuple):
    """(face, slack_sides, status) of one face.

    ``slack_sides`` is slack_0, sides_0, slack_1, sides_1, ...: vertex i
    of the face has its slack at 2i and its side triple at 2i + 1.
    ``status`` is ADDITIVE, LIMIT_ADDITIVE or NON_ADDITIVE.
    """

    face: Face2D
    slack_sides: tuple
    status: str

    @property
    def slacks(self) -> tuple[SlackRecord, ...]:
        data = self.slack_sides
        return tuple(SlackRecord(v, data[2 * i], data[2 * i + 1])
                     for i, v in enumerate(self.face.vertices))

    @property
    def zero_vertices(self) -> tuple[tuple[QNum, QNum], ...]:
        return tuple(v for v, slack in zip(self.face.vertices,
                                           self.slack_sides[::2])
                     if slack == 0)


_classified = partial(tuple.__new__, FaceClassification)


class _Classifications(Sequence):
    """The classification of each face of a complex, built when read.

    Faces share their vertex slacks and sides: kzh's 18,155 faces have
    6,243 kinds.  So each face keeps only the index of its kind, a kind
    its vertices' codes 27 * slack index + side code (``_SIDES``) in one
    flat array, and each distinct slack value is kept once.  A kept
    analysis holds no object per kind; ``slack_sides`` is decoded only
    when a classification is read.
    """

    __slots__ = ("_faces", "_kind", "_kind_starts", "_codes", "_slacks",
                 "_status")

    def __init__(self, faces, kind, kind_starts, codes, slacks, status):
        self._faces = faces
        self._kind = kind  # per face, the index of its kind
        # kind k has the codes codes[kind_starts[k]:kind_starts[k + 1]]
        self._kind_starts, self._codes = kind_starts, codes
        self._slacks, self._status = slacks, status  # status per kind

    def __len__(self) -> int:
        return len(self._faces)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        return self._decode(self._faces[i], self._kind[i])

    def __iter__(self):
        return map(self._decode, self._faces, self._kind)

    def _decode(self, face, k) -> FaceClassification:
        a, b = self._kind_starts[k], self._kind_starts[k + 1]
        slacks = self._slacks
        return _classified((face, tuple(
            x for c in self._codes[a:b]
            for x in (slacks[c // 27], _SIDES[c % 27])), self._status[k]))

    def positions(self, status: str) -> list[int]:
        """The positions of the faces with this status, in order."""
        hit = [s == status for s in self._status]
        return list(compress(range(len(self._kind)),
                             map(hit.__getitem__, self._kind)))

    def kinds(self):
        """kind, starts, codes, slacks, status: face n is of kind k =
        kind[n], with the status status[k], and its vertex i has the code
        c = codes[starts[k] + i], the slack slacks[c // 27] and the side
        triple ``_SIDES[c % 27]``."""
        return (self._kind, self._kind_starts, self._codes, self._slacks,
                self._status)

    def first_negative(self) -> FaceClassification | None:
        """The first face with a negative vertex slack, or None; each
        distinct slack is tested once, then each kind's codes."""
        negative = [slack < 0 for slack in self._slacks]
        if any(negative):
            codes = self._codes
            bad = [any(negative[c // 27] for c in codes[a:b])
                   for a, b in pairwise(self._kind_starts)]
            for i, k in enumerate(self._kind):
                if bad[k]:
                    return self[i]
        return None


@dataclass
class AdditivityReport:
    fn: PwlFunction
    complex: Complex2D
    faces: Sequence[FaceClassification]
    # only covering.components touches it
    _covering: object = field(default=None, init=False, repr=False,
                              compare=False)

    @cached_property
    def n_f(self) -> bytes:
        """n_F of each face against the function's special intervals,
        parallel to ``faces``; each n_F is 0 to 3, so one byte holds it.
        Without special intervals every n_F is 0, and no face is built."""
        specials = self.fn.special_intervals
        if not specials:
            return bytes(len(self.faces))
        return bytes(n_f(face, specials) for face in self.complex.faces)

    def classification_of(self, face: Face2D) -> FaceClassification:
        return self.faces[self.complex._find(face.I, face.J, face.K)]


def _sweep(fn: PwlFunction, cx: Complex2D) -> _Classifications:
    """Classify every face of cx in the rank space of its coordinates.

    The limits of each distinct coordinate value are read once: a
    breakpoint's (left, value, right) from its row, and any other value,
    which lies inside a piece, by one affine evaluation that holds for all
    three sides.  A vertex's sides are int compares of its ranks with the
    end ranks of the face's projections.  Its slack is two QNum operations
    on limits, done once per distinct triple of limit values, and slack
    values and kinds, the codes of a face's vertices, are shared by value:
    kzh's 40,627 slacks take 5,975 such triples, 388 values and 6,243
    kinds.  A kind's status is read off a zero flag per distinct slack.
    """
    rows = fn.rows
    lim_index: dict[QNum, int] = {}  # each distinct limit value -> index
    ids = []  # 3 rank + side + 1 -> index of that limit
    for t, r in zip(cx._values, cx._value_rows):
        if r < len(rows):
            triple = (rows[r].left, rows[r].value, rows[r].right)
        else:
            v = fn.limit(t, AT)
            triple = (v, v, v)
        ids += (lim_index.setdefault(v, len(lim_index)) for v in triple)
    lims = list(lim_index)
    M = len(lims)
    coords = list(zip(*[iter(cx._point_ranks)] * 3))  # x, y, x + y ranks
    spans = list(zip(*[iter(cx._interval_ranks)] * 2))  # end ranks
    _, _, proj, starts, verts = cx.faces.ids()

    slack_index: dict[QNum, int] = {}  # each distinct slack -> its index
    zero: list[bool] = []  # per distinct slack, is it 0
    by_limits: dict[int, int] = {}  # limit indices -> slack index
    shared: dict[tuple[int, ...], int] = {}  # a kind's codes -> its index
    flat: list[int] = []  # the codes of every kind, kind after kind
    kind_starts, status, kind = [0], [], []
    for (p1, p2, p3), (lo, hi) in zip(zip(*[iter(proj)] * 3),
                                      pairwise(starts)):
        (x0, x1), (y0, y1), (s0, s1) = spans[p1], spans[p2], spans[p3]
        # side + 1 of a coordinate at the lower end of its projection:
        # plus on a proper interval, at on a point
        lx, ly, ls = 1 + (x0 != x1), 1 + (y0 != y1), 1 + (s0 != s1)
        codes = []
        for p in verts[lo:hi]:
            x, y, s = coords[p]
            sx = lx if x == x0 else 0 if x == x1 else 1
            sy = ly if y == y0 else 0 if y == y1 else 1
            ss = ls if s == s0 else 0 if s == s1 else 1
            a, b, c = ids[3 * x + sx], ids[3 * y + sy], ids[3 * s + ss]
            if a > b:  # the slack is symmetric in x and y
                a, b = b, a
            k = (a * M + b) * M + c
            n = by_limits.get(k)
            if n is None:
                slack = lims[a] + lims[b] - lims[c]
                n = by_limits[k] = slack_index.setdefault(slack, len(zero))
                if n == len(zero):
                    zero.append(slack == 0)
            # the slack index and side triple of the vertex, as one int
            codes.append(27 * n + 9 * sx + 3 * sy + ss)
        codes = tuple(codes)
        k = shared.get(codes)
        if k is None:
            k = shared[codes] = len(status)
            flat += codes
            kind_starts.append(len(flat))
            zeros = sum(zero[c // 27] for c in codes)
            status.append(ADDITIVE if zeros == len(codes) else
                          LIMIT_ADDITIVE if zeros else NON_ADDITIVE)
        kind.append(k)
    return _Classifications(cx.faces, *map(_narrow, (kind, kind_starts, flat)),
                            list(slack_index), status)


def additive_face_report(fn: PwlFunction) -> AdditivityReport:
    """Classify every face of fn's complex by its vertex slacks.

    This is the function's one analysis: it is built on the first call,
    kept on the function, and read by every later consumer.
    """
    report = fn._analysis
    if report is None:
        cx = Complex2D(fn.breakpoints)
        report = fn._analysis = AdditivityReport(fn, cx, _sweep(fn, cx))
    return report


def _analyses(fns, kin=()) -> list[AdditivityReport]:
    """The analyses of functions over one breakpoint set, on one complex:
    that of the first analysed function of fns, or else of kin, over these
    breakpoints, or else the one ``additive_face_report`` builds."""
    bks = fns[0].breakpoints
    if any(g.breakpoints != bks for g in fns):
        raise ValueError("the functions have different breakpoints")
    cx = next((g._analysis.complex for g in (*fns, *kin)
               if g._analysis is not None and g.breakpoints == bks), None)
    for g in fns:
        if g._analysis is None and cx is not None:
            g._analysis = AdditivityReport(g, cx, _sweep(g, cx))
        cx = additive_face_report(g).complex
    return [g._analysis for g in fns]


# -- minimality ------------------------------------------------------------


@dataclass
class MinimalityReport:
    minimal: bool
    failure: str | None = None
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.minimal

    def __str__(self) -> str:
        if self.minimal:
            return "minimal"
        parts = ", ".join(f"{k}={v}" for k, v in (self.witness or {}).items())
        return f"not minimal: {self.failure} ({parts})"


def minimality_test(fn: PwlFunction) -> MinimalityReport:
    """Exact minimality check: pi(0)=0, bounds, symmetry, subadditivity.

    Symmetry pi(x) + pi(f-x) = 1 is checked for values and both one-sided
    limit pairings on the mesh refined by f-reflected breakpoints; both
    sides are affine between consecutive mesh points, so this is complete.
    Subadditivity is certified last, by the vertex slacks of every face of
    the 2-D complex (the slack is affine per face), read from the
    function's analysis; the cheap checks come first so that a function
    failing them never pays for the analysis.
    """
    return _minimality(fn, ())


def _minimality(fn: PwlFunction, kin) -> MinimalityReport:
    # minimality_test, analysing fn, if it gets that far, by _analyses
    f = fn.f

    if fn.eval(0) != 0:
        return MinimalityReport(False, "value_at_zero",
                                {"value": fn.eval(0)})

    for r in fn.rows:
        for side, t in (("left", r.left), ("value", r.value),
                        ("right", r.right)):
            if not (0 <= t <= 1):
                return MinimalityReport(False, "bounds",
                                        {"x": r.x, "limit": side, "value": t})

    mesh = sorted({b for b in fn.breakpoints}
                  | {(f - b).mod1() for b in fn.breakpoints})
    for t in mesh:
        partner = f - t
        checks = (
            ("value", fn.eval(t) + fn.eval(partner)),
            ("plus", fn.limit(t, PLUS) + fn.limit(partner, MINUS)),
            ("minus", fn.limit(t, MINUS) + fn.limit(partner, PLUS)),
        )
        for kind, total in checks:
            if total != 1:
                return MinimalityReport(
                    False, "symmetry",
                    {"x": t, "pairing": kind, "sum": total})

    fc = _analyses((fn,), kin)[0].faces.first_negative()
    if fc is not None:
        vertex, slack = next((v, s) for v, s in zip(fc.face.vertices,
                                                    fc.slack_sides[::2])
                             if s < 0)
        return MinimalityReport(False, "subadditivity",
                                {"face": fc.face.label(), "vertex": vertex,
                                 "slack": slack})

    return MinimalityReport(True)


# -- E(pi) comparison --------------------------------------------------------


@dataclass(frozen=True)
class EContainmentResult:
    relation: str  # equal | strict_subset | strict_superset | incomparable
    witness_only_in_first: Face2D | None = None
    witness_only_in_second: Face2D | None = None


def e_containment(fn1: PwlFunction, fn2: PwlFunction) -> EContainmentResult:
    """Compare the additivity domains E(fn1) and E(fn2) exactly.

    Both E-sets are unions of relative interiors of additive faces of the
    common refined complex, so set comparison reduces to comparing the
    two collections of additive faces.  Refining a function to the merged
    breakpoints leaves its values and limits alone, so the analyses of the
    two refined functions classify the faces of that one complex.
    """
    for fn in (fn1, fn2):
        if not isinstance(fn, PwlFunction):
            raise TypeError(
                f"e_containment needs piecewise linear inputs, got "
                f"{type(fn).__name__}; non-PWL functions are compared at "
                f"the face level by their dedicated verification suite")
    r1, r2 = _analyses((fn1.refine(fn2.breakpoints),
                        fn2.refine(fn1.breakpoints)))
    a1, a2 = (set(r.faces.positions(ADDITIVE)) for r in (r1, r2))
    only1, only2 = a1 - a2, a2 - a1
    relation = ("incomparable" if only1 and only2 else "strict_superset"
                if only1 else "strict_subset" if only2 else "equal")
    faces = r1.complex.faces  # in (I, J, K), that is triple_key, order
    return EContainmentResult(relation, faces[min(only1)] if only1 else None,
                              faces[min(only2)] if only2 else None)
