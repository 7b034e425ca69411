"""Exact linear systems for perturbation spaces, and epsilon constants.

A minimality-preserving perturbation of a piecewise linear function is
parametrized here by a finite list of named variables: a slope ``s<k>``
per covering component, a value ``v<i>`` per breakpoint, and a midpoint
value ``m<j>`` per piece outside the special intervals.  The symmetry
relations (value and midpoint pairs through f must cancel) are either
substituted away (``eliminate_symmetry=True``) or appended as extra
equations.  Each selected additive face contributes one equation saying
the perturbed slack at its selected vertex stays zero.  Nullity zero of
the resulting system certifies that no nonzero perturbation of this
shape survives all the additivity constraints.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .exactnum import QNum
from .pwl import AT, PLUS, PwlFunction
from .additivity import (ADDITIVE, _analyses, _minimality,
                         additive_face_report, minimality_test)
from .covering import components as covering_components

class LinearSystem:
    """Rows of exact linear equations ``sum coef*var = 0``.

    A row is (label, coefficients), the coefficients a mapping from
    variable names to QNums, ints or Fractions.  Rows that share one
    mapping, as the equal rows of ``build_system`` do, are eliminated once.
    The labels and the mappings are kept apart, so that a system of
    ``build_system`` formats its labels only when they are read.
    """

    def __init__(self, variables, rows):
        rows = list(rows)
        self._init(variables, [label for label, _ in rows],
                   [coeffs for _, coeffs in rows])

    def _init(self, variables, labels, coeffs) -> None:
        self.variables: tuple[str, ...] = tuple(variables)
        self._labels: Sequence[str] = labels
        self._coeffs: list[Mapping[str, QNum]] = coeffs
        self._order = {n: k for k, n in enumerate(self.variables)}
        if len(self._order) != self.n_vars:
            raise ValueError(f"duplicate variable names in {self.variables}")
        for i, coeffs in _distinct(self._coeffs):
            unknown = coeffs.keys() - self._order.keys()
            if unknown:
                raise ValueError(f"row {labels[i]!r} names "
                                 f"{', '.join(sorted(map(str, unknown)))}, "
                                 f"not among the variables")
            bad = [c for c in coeffs.values()
                   if not isinstance(c, (int, Fraction, QNum))]
            if bad:
                raise TypeError(f"row {labels[i]!r} has the coefficient "
                                f"{bad[0]!r}, not an int, Fraction or QNum")

    @property
    def rows(self) -> list[tuple[str, Mapping[str, QNum]]]:
        """The (label, coefficients) rows, in order, built on each read."""
        return list(zip(self._labels, self._coeffs))

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def n_rows(self) -> int:
        return len(self._coeffs)

    def matrix(self) -> list[list[QNum]]:
        zero = QNum(0)
        out = []
        for coeffs in self._coeffs:
            row = [zero] * self.n_vars
            for name, c in coeffs.items():
                row[self._order[name]] = c
            out.append(row)
        return out

    @cached_property
    def rank(self) -> int:
        """Rank over Q(sqrt2), by elimination on the distinct rows, each
        kept sparse as {column: coefficient}.  A pivot row is scaled to 1
        at its least column and holds only the columns after it, so
        reducing a row by pivots raises its least column; elimination
        stops once every column has a pivot."""
        order, pivots = self._order, {}
        for _, coeffs in _distinct(self._coeffs):
            if len(pivots) == self.n_vars:
                break
            row = {order[n]: c for n, c in coeffs.items() if c}
            while row:
                col = min(row)
                factor = row.pop(col)
                pivot = pivots.get(col)
                if pivot is None:
                    inv = 1 / QNum.of(factor)  # exact for an int too
                    pivots[col] = {j: a * inv for j, a in row.items()}
                    break
                for j, a in pivot.items():
                    c = row.get(j)
                    c = -(factor * a) if c is None else c - factor * a
                    if c:
                        row[j] = c
                    else:
                        del row[j]
        return len(pivots)

    @property
    def nullspace_dim(self) -> int:
        return self.n_vars - self.rank

    def drop_row(self, i: int) -> "LinearSystem":
        if not 0 <= i < self.n_rows:
            raise IndexError(f"no row {i} in a system of {self.n_rows} rows")
        return LinearSystem(self.variables, self.rows[:i] + self.rows[i + 1:])


def _distinct(coeffs):
    """(i, mapping) for the first row i of each mapping, by identity, in
    order."""
    first = {}
    for i, row in enumerate(coeffs):
        first.setdefault(id(row), (i, row))
    return first.values()


class _RowLabels(Sequence):
    """The label F(I,J,K)(u,v) of each row of ``build_system``, formatted
    when read.  A face row keeps eight indices into the distinct number
    texts, the ends of I, J and K and the vertex: 16 bytes (32 past 65,536
    numbers) where its label would be a string of about 85.  The labels
    of ``tail`` follow."""

    __slots__ = ("_texts", "_at", "_tail")

    def __init__(self, texts: list[str], at: array, tail: list[str]):
        self._texts, self._at, self._tail = texts, at, tail

    def __len__(self) -> int:
        return len(self._at) // 8 + len(self._tail)

    def __getitem__(self, i: int) -> str:
        k = 8 * range(len(self))[i]
        if k >= len(self._at):
            return self._tail[(k - len(self._at)) // 8]
        a, b, c, d, e, g, u, v = map(self._texts.__getitem__,
                                     self._at[k:k + 8])
        return f"F({_span(a, b)},{_span(c, d)},{_span(e, g)})({u},{v})"


def _span(a: str, b: str) -> str:
    """An Interval's text, from the texts of its ends, with no spaces."""
    return "{%s}" % a if a == b else f"[{a},{b}]"


def drop_one_ranks(system: LinearSystem) -> list[int]:
    """Rank of the system with each row left out in turn."""
    if system.rank == system.n_rows:
        # independent rows stay independent when one of them is dropped
        return [system.n_rows - 1] * system.n_rows
    return [system.drop_row(i).rank for i in range(system.n_rows)]


# -- building the system -------------------------------------------------------


class _Parametrization:
    def __init__(self, fn: PwlFunction, special_intervals, eliminate: bool):
        self.fn = fn
        self.n = len(fn.breakpoints)

        self.special_pieces = set()
        for lo, hi in special_intervals:
            lo, hi = QNum.of(lo), QNum.of(hi)
            kind, j = fn.locate(lo)
            if kind != "breakpoint" or fn.piece_bounds(j) != (lo, hi):
                raise ValueError(
                    f"special interval ({lo}, {hi}) is not a single piece")
            self.special_pieces.add(j)

        # one slope variable per covering component, in component order
        comps = covering_components(additive_face_report(fn)).components
        component = {span: k for k, comp in enumerate(comps)
                     for span in comp}
        self.slope_name = {}
        for j in range(self.n):
            if j not in self.special_pieces:
                lo, hi = fn.piece_bounds(j)
                k = component.get((lo, hi))
                if k is None:
                    raise ValueError(f"piece {j} ({lo}, {hi}) is in no "
                                     f"covering component")
                self.slope_name[j] = f"s{k}"

        self.mids = [(lo + hi) / 2
                     for lo, hi in map(fn.piece_bounds, range(self.n))]

        mirror_bk = []
        for m in ((fn.f - x).mod1() for x in fn.breakpoints):
            kind, k = fn.locate(m)
            if kind != "breakpoint":
                raise ValueError(f"mirror point {m} is not a breakpoint; "
                                 f"the breakpoint set is not symmetric in f")
            mirror_bk.append(k)
        # x -> f - x reverses the cyclic order of a symmetric breakpoint
        # set, so piece j's mirror starts at the mirror of its upper end
        mirror_piece = mirror_bk[1:] + mirror_bk[:1]
        for j in self.special_pieces:
            if mirror_piece[j] not in self.special_pieces:
                raise ValueError("special intervals are not symmetric")
        # per kind ("v" or "m"), each variable's mirror through f, or None
        # where symmetry forces the variable to zero: the values at 0 and f,
        # and a value or midpoint that is its own mirror
        self.mirror = {
            "v": {
                i: None if x == 0 or x == fn.f or k == i else k
                for i, (x, k) in enumerate(zip(fn.breakpoints, mirror_bk))},
            "m": {j: None if k == j else k
                  for j, k in enumerate(mirror_piece)
                  if j not in self.special_pieces},
        }

        # each variable in terms of the kept ones: substituted, a pair
        # keeps its lower variable and a forced variable is dropped
        variables = [f"s{k}" for k in range(len(comps))]
        self.sub = {}
        for kind, mirror in self.mirror.items():
            self.sub[kind] = sub = {}
            for i, k in mirror.items():
                if eliminate and k is None:
                    sub[i] = {}
                elif eliminate and k < i:
                    sub[i] = {f"{kind}{k}": QNum(-1)}
                else:
                    variables.append(f"{kind}{i}")
                    sub[i] = {variables[-1]: QNum(1)}
        self.variables = tuple(variables)

    def symmetry_rows(self) -> list[tuple[str, dict[str, QNum]]]:
        """Explicit symmetry equations, used when nothing was substituted:
        a forced variable is zero, and a mirror pair sums to zero."""
        one = QNum(1)
        rows = []
        for kind, mirror in self.mirror.items():
            for i, k in mirror.items():
                if k is None or i < k:
                    names = [f"{kind}{j}" for j in (i, k) if j is not None]
                    rows.append(("symmetry " + "+".join(names),
                                 dict.fromkeys(names, one)))
        return rows

    def expansion(self, t, side: int) -> dict[str, QNum]:
        """Coefficients of the perturbation's one-sided limit at t."""
        red = QNum.of(t).mod1()
        kind, idx = self.fn.locate(red)
        if kind == "breakpoint":
            if side == AT:
                return self.sub["v"][idx]
            if side == PLUS:
                j, tau = idx, red
            elif idx > 0:
                j, tau = idx - 1, red
            else:
                j, tau = self.n - 1, QNum(1)
        else:
            j, tau = idx, red  # one affine formula on the open piece
        if j in self.special_pieces:
            raise ValueError(
                f"equation would touch special piece {j}; the parametrization "
                f"does not model the special intervals")
        out = dict(self.sub["m"][j])
        name = self.slope_name[j]
        out[name] = out.get(name, QNum(0)) + (tau - self.mids[j])
        return out


def build_system(fn: PwlFunction, special_intervals, selected_faces,
                 *, eliminate_symmetry: bool = True) -> LinearSystem:
    """Linear system for perturbations of fn from selected additive faces.

    ``selected_faces`` is a sequence of (face, vertex) pairs; every face
    must be additive (an equation derived from a non-additive face would
    not be valid, so that is an error), and every vertex one of the
    face's vertices, whose limit sides the face's classification holds.
    Returns the system with one row per pair, plus explicit symmetry rows
    when ``eliminate_symmetry`` is off.  Each (coordinate, side) is
    expanded once, equal rows share one read-only mapping, and a row's
    label is formatted only when it is read.
    """
    param = _Parametrization(fn, special_intervals, eliminate_symmetry)
    report = additive_face_report(fn)

    coeff_rows = []
    numbers: dict[QNum, int] = {}  # each number of a label -> its index
    at = []  # per row the indices of I.a, I.b, J.a, J.b, K.a, K.b, u, v
    terms = {}  # (coordinate, side, sign) -> sign times its expansion
    shared = {}  # a row's sorted (name, coefficient) pairs -> its mapping
    same = {}.setdefault  # one object per distinct coefficient value
    for face, vertex in selected_faces:
        cls = report.classification_of(face)
        if cls.status != ADDITIVE:
            raise ValueError(
                f"selected face {face.label()} is {cls.status}, not additive")
        u, v = (QNum.of(vertex[0]), QNum.of(vertex[1]))
        try:
            i = cls.face.vertices.index((u, v))
        except ValueError:
            raise ValueError(f"({u}, {v}) is not a vertex of "
                             f"{face.label()}") from None
        s1, s2, s3 = cls.slack_sides[2 * i + 1]
        coeffs: dict[str, QNum] = {}
        for key in ((u, s1, 1), (v, s2, 1), (u + v, s3, -1)):
            term = terms.get(key)
            if term is None:
                t, side, sign = key
                term = terms[key] = {
                    n: c if sign > 0 else -c
                    for n, c in param.expansion(t, side).items()}
            for name, c in term.items():
                old = coeffs.get(name)
                coeffs[name] = c if old is None else old + c
        key = tuple(sorted((n, c) for n, c in coeffs.items() if c))
        row = shared.get(key)
        if row is None:
            row = shared[key] = MappingProxyType(
                {n: same(c, c) for n, c in key})
        coeff_rows.append(row)
        at += (numbers.setdefault(q, len(numbers)) for q in (
            face.I.a, face.I.b, face.J.a, face.J.b, face.K.a, face.K.b, u, v))

    sym = [] if eliminate_symmetry else param.symmetry_rows()
    coeff_rows += [coeffs for _, coeffs in sym]
    labels = _RowLabels([str(q).replace(" ", "") for q in numbers],
                        array("H" if len(numbers) <= 1 << 16 else "I", at),
                        [label for label, _ in sym])
    system = LinearSystem.__new__(LinearSystem)
    system._init(param.variables, labels, coeff_rows)
    return system


# -- epsilon constants -----------------------------------------------------------


@dataclass(frozen=True)
class EpsilonResult:
    m: QNum      # smallest positive vertex slack of the base function
    M: QNum      # largest |perturbed slack| over all complex vertices
    C: QNum      # slope bound of the perturbation
    eps: QNum


def _vertex_slacks(fn: PwlFunction, pert: PwlFunction) -> dict:
    """(point id, slack of fn) -> slack of pert, at each vertex of each
    face of the common refined complex; fn may jump, so one point can have
    several slacks, while the continuous pert has one.  Raises where an
    additivity of fn is not shared by pert."""
    base, bar = _analyses((fn.refine(pert.breakpoints),
                           pert.refine(fn.breakpoints)))
    (k1, t1), (k2, t2) = base.faces.kinds(), bar.faces.kinds()
    s1, s2 = [d[::2] for d in t1], [d[::2] for d in t2]
    _, points, _, starts, verts = base.complex.faces.ids()
    slacks = {}
    for n, a, b in zip(range(len(k1)), k1, k2):
        slacks.update(zip(zip(verts[starts[n]:starts[n + 1]], s1[a]), s2[b]))
    unshared = [p for (p, dpi), dbar in slacks.items()
                if dpi == 0 and dbar != 0]
    if unshared:
        u, v = min(points[p] for p in unshared)
        raise ValueError(
            f"additivity of the base at ({u},{v}) is not shared by the "
            f"perturbation; containment of additivities fails")
    return slacks


def lipschitz_epsilon(fn: PwlFunction, pert: PwlFunction) -> EpsilonResult:
    """Scale below which fn +/- eps*pert stays minimal, by slack margins.

    Requires fn minimal, pert continuous (jump discontinuities in the
    perturbation are not handled by this bound), pert(f) = 0, and every
    additivity of fn shared by pert, on the common refined complex.  The
    constant is min(m/M, m/(8C)): vertex slacks shrink by at most eps*M,
    and between vertices the perturbed slack function is Lipschitz with
    constant at most 4C while the base slack grows at rate at least m/2
    away from its zero set.
    """
    if not isinstance(pert, PwlFunction):
        raise TypeError("perturbation must be piecewise linear")
    if not pert.is_continuous:
        raise ValueError("perturbation has jumps; this bound needs a "
                         "continuous perturbation")
    if fn.f != pert.f:
        raise ValueError("cannot combine functions with different f")
    if not minimality_test(fn):
        raise ValueError("base function is not minimal")
    if pert.eval(fn.f):
        raise ValueError("perturbation does not vanish at f")

    slacks = _vertex_slacks(fn, pert)
    m = min((dpi for _, dpi in slacks if dpi > 0), default=None)
    if m is None:
        raise ValueError("base function has no positive vertex slack")
    M = max(map(abs, slacks.values()))
    if M == 0:
        raise ValueError("perturbation is additive at every complex vertex; "
                         "the bound degenerates")
    # C > 0: a continuous pert with no slope is constant, 0 at f, so M = 0
    C = max(abs(s) for s in pert.slopes)
    eps = min(m / M, m / (8 * C))
    return EpsilonResult(m=m, M=M, C=C, eps=eps)


def scaling_epsilon(fn: PwlFunction, pert: PwlFunction) -> QNum:
    """Largest eps with fn - eps*pert still subadditive at vertices.

    Both functions must be continuous, and every additivity of fn must be
    shared by pert (otherwise no positive scale works and the ratio below
    would be meaningless).
    """
    for g, what in ((fn, "base function"), (pert, "perturbation")):
        if not isinstance(g, PwlFunction):
            raise TypeError(f"{what} must be piecewise linear")
        if not g.is_continuous:
            raise ValueError(f"{what} has jumps; scaling needs continuity")
    if fn.f != pert.f:
        raise ValueError("cannot combine functions with different f")

    slacks = _vertex_slacks(fn, pert)
    best = min((dpi / dbar for (_, dpi), dbar in slacks.items() if dbar > 0),
               default=None)
    if best is None:
        raise ValueError("perturbation never strains subadditivity; "
                         "no finite scale is determined")
    return best


@dataclass(frozen=True)
class EffectiveResult:
    plus: object   # minimality report of fn + eps*pert
    minus: object  # minimality report of fn - eps*pert

    def __bool__(self):
        return bool(self.plus) and bool(self.minus)


def verify_effective(fn: PwlFunction, pert: PwlFunction, eps) -> EffectiveResult:
    """Check that fn +/- eps*pert are both minimal, on one complex."""
    if not isinstance(pert, PwlFunction):
        raise TypeError("perturbation must be piecewise linear to verify "
                        "minimality exactly")
    shifted = pert.scale(QNum.of(eps))
    plus, minus = fn + shifted, fn - shifted
    return EffectiveResult(plus=_minimality(plus, (fn, pert)),
                           minus=_minimality(minus, (fn, pert, plus)))
