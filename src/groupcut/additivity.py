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

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import compress, product
from typing import NamedTuple

from .complex2d import Complex2D, Face2D, n_f
from .exactnum import QNum
from .pwl import AT, MINUS, PLUS, PwlFunction

ADDITIVE = "additive"
LIMIT_ADDITIVE = "limit_additive"
NON_ADDITIVE = "non_additive"

# the 27 side triples, which the sweep's slack records share; triple t is
# _SIDES[9 * (t[0] + 1) + 3 * (t[1] + 1) + t[2] + 1]
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

    Faces share their (slack_sides, status): kzh's 18,155 faces have
    6,243.  So each face keeps only the index of its pair, and a kept
    analysis holds no object per classification.
    """

    __slots__ = ("_faces", "_kind", "_slack_sides", "_status")

    def __init__(self, faces, kind, slack_sides, status):
        self._faces = faces
        self._kind = kind  # per face, the index into the next two
        self._slack_sides = slack_sides
        self._status = status

    def __len__(self) -> int:
        return len(self._faces)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        k = self._kind[i]
        return _classified((self._faces[i], self._slack_sides[k],
                            self._status[k]))

    def __iter__(self):
        kind = self._kind
        return map(_classified, zip(self._faces,
                                    map(self._slack_sides.__getitem__, kind),
                                    map(self._status.__getitem__, kind)))

    def positions(self, status: str) -> list[int]:
        """The positions of the faces with this status, in order."""
        hit = [s == status for s in self._status]
        return list(compress(range(len(self._kind)),
                             map(hit.__getitem__, self._kind)))

    def kinds(self):
        """Per face the index of its slack tuple, and the slack tuples."""
        return self._kind, self._slack_sides

    def statuses(self) -> list[str]:
        """The status of each slack tuple of ``kinds``."""
        return self._status

    def first_negative(self) -> FaceClassification | None:
        """The first face with a negative vertex slack, or None; the shared
        slack tuples are searched first."""
        negative = {k for k, data in enumerate(self._slack_sides)
                    if any(slack < 0 for slack in data[::2])}
        if negative:
            for i, k in enumerate(self._kind):
                if k in negative:
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


def classify_face(fn: PwlFunction, face: Face2D) -> FaceClassification:
    """Classify one face by ``fn.limit`` at each vertex: the reference
    that the key sweep of ``additive_face_report`` is tested against."""
    data = []
    for u, v in face.vertices:
        s = u + v
        sides = _sides(face, u, v, s)
        data += (_slack(fn.limit, u, v, s, sides), sides)
    return FaceClassification(face, tuple(data), _status(data[::2]))


def _status(slacks) -> str:
    zeros = sum(slack == 0 for slack in slacks)
    if zeros == len(slacks):
        return ADDITIVE
    return LIMIT_ADDITIVE if zeros else NON_ADDITIVE


def _sweep(fn: PwlFunction, cx: Complex2D) -> _Classifications:
    """Classify every face of cx on the integer keys of its enumeration.

    The limits of each key are read once: a breakpoint's (left, value,
    right) from its row, and any other coordinate, which lies inside a
    piece, by one affine evaluation that holds for all three sides.  A
    vertex's sides are int compares of its keys with the face's
    projection-end keys.  Its slack is two QNum operations on limits, done
    once per distinct triple of limit values, and slack values and slack
    tuples are shared by value: kzh's 40,627 slacks take 5,975 such
    triples, 388 values and 6,243 slack tuples.
    """
    coords, faces = cx.keys()
    rows = fn.rows
    lim_index: dict[QNum, int] = {}  # each distinct limit value -> index
    keys = {key for xys in coords for key in xys}
    ids = [0] * (3 * max(keys) + 3)  # 3 key + side + 1 -> index
    for key in keys:
        t, r = cx.coordinate(key)
        if r is None:
            v = fn.limit(t, AT)
            triple = (v, v, v)
        else:
            triple = (rows[r].left, rows[r].value, rows[r].right)
        for side, v in enumerate(triple):
            ids[3 * key + side] = lim_index.setdefault(v, len(lim_index))
    lims = list(lim_index)
    M = len(lims)

    slacks: list[QNum] = []  # the distinct slack values
    slack_index: dict[QNum, int] = {}
    by_limits: dict[int, int] = {}  # limit indices -> slacks index

    def slack_of(a: int, b: int, c: int) -> int:
        slack = lims[a] + lims[b] - lims[c]
        n = slack_index.get(slack)
        if n is None:
            n = slack_index[slack] = len(slacks)
            slacks.append(slack)
        return n

    # a face's slack codes -> the index of its slack_sides and status
    shared: dict[tuple[int, ...], int] = {}
    slack_sides: list[tuple] = []
    status: list[str] = []
    kind = array("I")
    for (x0, x1, y0, y1, s0, s1), points in faces:
        # side + 1 of a coordinate at the lower end of its projection:
        # plus on a proper interval, at on a point
        lx, ly, ls = 1 + (x0 != x1), 1 + (y0 != y1), 1 + (s0 != s1)
        codes = []
        for p in points:
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
                n = by_limits[k] = slack_of(a, b, c)
            # the slack index and side triple of the vertex, as one int
            codes.append(27 * n + 9 * sx + 3 * sy + ss)
        codes = tuple(codes)
        k = shared.get(codes)
        if k is None:
            k = shared[codes] = len(slack_sides)
            data = tuple(x for c in codes
                         for x in (slacks[c // 27], _SIDES[c % 27]))
            slack_sides.append(data)
            status.append(_status(data[::2]))
        kind.append(k)
    return _Classifications(cx.faces, kind, slack_sides, status)


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
