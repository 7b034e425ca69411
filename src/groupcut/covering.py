"""Interval covering and connectivity induced by additive faces.

An additive two-dimensional face forces any effective perturbation to be
affine, with one common slope, on the interiors of its three projections
(interval lemma).  An additive edge with one singleton projection relates
the perturbation's values on its two proper projections: a translation
(singleton x or y) or a reflection (singleton x+y); both preserve the
perturbation's slope, the reflection because the orientation flip and the
value negation cancel.

The covering pass marks projection interiors as covered, merges strictly
overlapping covered sub-intervals inside each piece, and propagates full
intervals across moves until a fixed point.  Pieces are then grouped into
slope components with a union-find over faces and moves.  Pieces never
fully covered are reported uncovered.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .additivity import ADDITIVE, AdditivityReport
from .complex2d import Face2D
from .exactnum import QNum

Span = tuple[QNum, QNum]  # an open interval


@dataclass(frozen=True)
class Move:
    kind: str  # "translation" | "reflection"
    param: QNum  # the shift amount, or the reflection center
    src: Span
    dst: Span
    face: Face2D

    def __str__(self):
        a, b = self.src
        c, d = self.dst
        return (f"{self.kind}[{self.param}] "
                f"({a}, {b}) <-> ({c}, {d})")


@dataclass
class CoveredComponent:
    intervals: list[Span]  # fully covered open pieces


@dataclass
class CoveringResult:
    components: list[CoveredComponent]
    uncovered: list[Span]
    moves: list[Move]


def _reduce_span(a: QNum, b: QNum) -> Span:
    """Shift a span from [1,2] back into the period; spans never straddle 1."""
    if a >= 1:
        return (a - 1, b - 1)
    return (a, b)


def directly_covered(report: AdditivityReport) -> list[Span]:
    """Projection interiors of all additive two-dimensional faces."""
    out: list[Span] = []
    seen = set()
    for fc in report.faces.having(ADDITIVE):
        if fc.face.dim != 2:
            continue
        for proj in (fc.face.p1, fc.face.p2, fc.face.p3):
            span = _reduce_span(proj.a, proj.b)
            if span not in seen:
                seen.add(span)
                out.append(span)
    return out


def edge_connections(report: AdditivityReport) -> list[Move]:
    """Moves carried by additive one-dimensional faces."""
    moves: list[Move] = []
    for fc in report.faces.having(ADDITIVE):
        if fc.face.dim != 1:
            continue
        F = fc.face
        singletons = [p.is_point for p in (F.p1, F.p2, F.p3)]
        # an edge of the complex is vertical, horizontal, or antidiagonal
        if not any(singletons):
            raise ArithmeticError(f"{F.label()} is not an edge of a complex")
        if singletons[2]:
            center = F.p3.a
            moves.append(Move("reflection", center,
                              (F.p1.a, F.p1.b), (F.p2.a, F.p2.b), F))
        elif singletons[0]:
            shift = F.p1.a
            moves.append(Move("translation", shift,
                              (F.p2.a, F.p2.b),
                              _reduce_span(F.p3.a, F.p3.b), F))
        else:
            shift = F.p2.a
            moves.append(Move("translation", shift,
                              (F.p1.a, F.p1.b),
                              _reduce_span(F.p3.a, F.p3.b), F))
    return moves


class _PieceCover:
    """Union of open sub-intervals of one piece, merged on strict overlap."""

    def __init__(self, lo: QNum, hi: QNum):
        self.lo = lo
        self.hi = hi
        self.parts: list[Span] = []

    def add(self, a: QNum, b: QNum) -> bool:
        if not (self.lo <= a < b <= self.hi):
            raise ValueError(f"({a}, {b}) not within ({self.lo}, {self.hi})")
        merged_a, merged_b = a, b
        keep = []
        for (pa, pb) in self.parts:
            # open intervals join only when they genuinely overlap
            if pa < merged_b and merged_a < pb:
                merged_a = min(merged_a, pa)
                merged_b = max(merged_b, pb)
            else:
                keep.append((pa, pb))
        new = keep + [(merged_a, merged_b)]
        new.sort()
        changed = new != self.parts
        self.parts = new
        return changed

    def contains(self, a: QNum, b: QNum) -> bool:
        return any(pa <= a and b <= pb for pa, pb in self.parts)

    @property
    def full(self) -> bool:
        return self.parts == [(self.lo, self.hi)]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[max(ri, rj)] = min(ri, rj)
        return True


def components(report: AdditivityReport) -> CoveringResult:
    """Propagate covering to a fixed point and group pieces by slope.

    The covering is part of the function's one analysis: it is built on
    the first call, kept on the report, and read by every later consumer.
    """
    if report._covering is None:
        report._covering = _build(report)
    return report._covering


def _build(report: AdditivityReport) -> CoveringResult:
    piece_faces = report.complex.faces_x[1::2]  # [p_i, p_{i+1}]
    piece_spans = [(p.a, p.b) for p in piece_faces]
    los = [p.a for p in piece_faces]

    def piece_of(span: Span) -> int:
        a, b = span
        i = bisect.bisect_right(los, a) - 1
        if not (piece_spans[i][0] <= a and b <= piece_spans[i][1]):
            raise ValueError(f"span ({a}, {b}) crosses a breakpoint")
        return i

    covers = [_PieceCover(lo, hi) for lo, hi in piece_spans]
    for a, b in directly_covered(report):
        covers[piece_of((a, b))].add(a, b)
    moves = edge_connections(report)
    # each move both ways, with the pieces of its two ends found once
    arrows = []
    for mv in moves:
        i, j = piece_of(mv.src), piece_of(mv.dst)
        arrows += ((i, mv.src, j, mv.dst), (j, mv.dst, i, mv.src))

    # propagate full source intervals across moves until stable
    changed = True
    while changed:
        changed = False
        for i, src, j, dst in arrows:
            if covers[i].contains(*src) and not covers[j].contains(*dst):
                covers[j].add(*dst)
                changed = True

    full = [c.full for c in covers]
    uf = _UnionFind(len(piece_spans))

    def connect(i: int, j: int):
        if full[i] and full[j]:
            uf.union(i, j)

    for fc in report.faces.having(ADDITIVE):
        if fc.face.dim != 2:
            continue
        ids = [piece_of(_reduce_span(p.a, p.b))
               for p in (fc.face.p1, fc.face.p2, fc.face.p3)]
        connect(ids[0], ids[1])
        connect(ids[0], ids[2])
    for i, _, j, _ in arrows[::2]:
        connect(i, j)

    groups: dict[int, list[int]] = {}
    for i, ok in enumerate(full):
        if ok:
            groups.setdefault(uf.find(i), []).append(i)
    comps = [CoveredComponent([piece_spans[i] for i in groups[root]])
             for root in sorted(groups)]
    uncov = [piece_spans[i] for i, ok in enumerate(full) if not ok]
    return CoveringResult(comps, uncov, moves)
