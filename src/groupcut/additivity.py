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

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .complex2d import Complex2D, Face2D, n_f
from .exactnum import QNum
from .pwl import AT, MINUS, PLUS, PwlFunction

ADDITIVE = "additive"
LIMIT_ADDITIVE = "limit_additive"
NON_ADDITIVE = "non_additive"

# the 27 side triples, so that slack records share them
_SIDE_TRIPLES = {t: t for t in product((MINUS, AT, PLUS), repeat=3)}


def vertex_sides(face: Face2D, vertex) -> tuple[int, int, int]:
    """Limit directions (for x, y, x+y) of the face at one of its points.

    A coordinate sitting at the lower end of the face's projection is
    approached from above (plus), at the upper end from below (minus);
    anywhere else the genuine value is used (a singleton projection, or
    an interior point of a projection, which never hits a breakpoint).
    """
    u, v = vertex
    return _sides(face, u, v, u + v)


def _sides(face: Face2D, u, v, s) -> tuple[int, int, int]:
    out = []
    for t, proj in ((u, face.p1), (v, face.p2), (s, face.p3)):
        if t == proj.a:
            out.append(AT if t == proj.b else PLUS)
        elif t == proj.b:
            out.append(MINUS)
        else:
            out.append(AT)
    return _SIDE_TRIPLES[tuple(out)]


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


@dataclass(frozen=True, slots=True)
class FaceClassification:
    face: Face2D
    # slack_0, sides_0, slack_1, sides_1, ...: vertex i of the face has its
    # slack at 2i and its side triple at 2i + 1
    slack_sides: tuple
    status: str  # ADDITIVE / LIMIT_ADDITIVE / NON_ADDITIVE

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


@dataclass
class AdditivityReport:
    fn: PwlFunction
    complex: Complex2D
    faces: tuple[FaceClassification, ...]
    # only covering.components touches it
    _covering: object = field(default=None, init=False, repr=False,
                              compare=False)

    @cached_property
    def n_f(self) -> tuple[int, ...]:
        """n_F of each face against the function's special intervals,
        parallel to ``faces``."""
        specials = self.fn.special_intervals
        return tuple(n_f(fc.face, specials) for fc in self.faces)

    @property
    def additive_faces(self) -> list[Face2D]:
        return [fc.face for fc in self.faces if fc.status == ADDITIVE]

    @property
    def limit_additive_faces(self) -> list[Face2D]:
        return [fc.face for fc in self.faces if fc.status == LIMIT_ADDITIVE]

    def classification_of(self, face: Face2D) -> FaceClassification:
        n = self.complex.face_index.get(face.vertices)
        if n is None:
            raise ValueError(f"{face.label()} is not a face of the complex")
        return self.faces[n]


def classify_face(fn: PwlFunction, face: Face2D) -> FaceClassification:
    return _classify(fn.limit, face, {}.setdefault)


def _classify(limit, face: Face2D, same) -> FaceClassification:
    """classify_face by limit(x, side); same(x, x) is the kept x of an
    equal slack value or slack tuple."""
    data = []
    zeros = 0
    for u, v in face.vertices:
        s = u + v
        sides = _sides(face, u, v, s)
        slack = _slack(limit, u, v, s, sides)
        zeros += slack == 0
        data += (same(slack, slack), sides)
    if zeros == len(face.vertices):
        status = ADDITIVE
    elif zeros > 0:
        status = LIMIT_ADDITIVE
    else:
        status = NON_ADDITIVE
    data = tuple(data)
    return FaceClassification(face, same(data, data), status)


def additive_face_report(fn: PwlFunction) -> AdditivityReport:
    """Classify every face of fn's complex by its vertex slacks.

    This is the function's one analysis: it is built on the first call,
    kept on the function, and read by every later consumer.
    """
    report = fn._analysis
    if report is None:
        cx = Complex2D(fn.breakpoints)
        # 40,627 slacks of kzh take 388 values and its 18,155 faces 6,243
        # slack tuples: share one object for each
        same = {}.setdefault
        # the sweep's own limits, dropped when it ends: kzh asks 121,881
        # limits at 3,679 (coordinate, side) pairs, each reduced mod 1 once
        limits = {}

        def limit(x, side):
            got = limits.get((x, side))
            if got is None:
                got = limits[x, side] = fn.uncached_limit(x.mod1(), side)
            return got

        report = AdditivityReport(
            fn, cx, tuple(_classify(limit, F, same) for F in cx.faces))
        fn._analysis = report
    return report


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

    for fc in additive_face_report(fn).faces:
        for vertex, slack in zip(fc.face.vertices, fc.slack_sides[::2]):
            if slack < 0:
                return MinimalityReport(
                    False, "subadditivity",
                    {"face": fc.face.label(), "vertex": vertex,
                     "slack": slack})

    return MinimalityReport(True)


# -- E(pi) comparison --------------------------------------------------------


@dataclass(frozen=True)
class EContainmentResult:
    relation: str  # equal | strict_subset | strict_superset | incomparable
    witness_only_in_first: Face2D | None = None
    witness_only_in_second: Face2D | None = None

    def __str__(self):
        return self.relation


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
    a1, a2 = ({fc.face.triple_key: fc.face
               for fc in additive_face_report(g).faces
               if fc.status == ADDITIVE}
              for g in (fn1.refine(fn2.breakpoints),
                        fn2.refine(fn1.breakpoints)))
    only1 = sorted(set(a1) - set(a2))
    only2 = sorted(set(a2) - set(a1))
    w1 = a1[only1[0]] if only1 else None
    w2 = a2[only2[0]] if only2 else None
    if not only1 and not only2:
        return EContainmentResult("equal")
    if not only1:
        return EContainmentResult("strict_subset", None, w2)
    if not only2:
        return EContainmentResult("strict_superset", w1, None)
    return EContainmentResult("incomparable", w1, w2)
