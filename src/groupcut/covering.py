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
intervals across moves until a fixed point.  Each fully covered piece is
then labelled with the least piece that faces and moves connect it to, and
the pieces of one label form a slope component.  Pieces never fully covered
are reported uncovered.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import pairwise

from .additivity import ADDITIVE, AdditivityReport
from .exactnum import QNum

Span = tuple[QNum, QNum]  # an open interval


@dataclass(frozen=True)
class Move:
    kind: str  # "translation" | "reflection"
    param: QNum  # the shift amount, or the reflection center
    src: Span
    dst: Span


@dataclass
class CoveringResult:
    components: list[list[Span]]  # each a slope class of fully covered pieces
    uncovered: list[Span]
    moves: list[Move]


def _reduce_span(a: QNum, b: QNum) -> Span:
    """Shift a span from [1,2] back into the period; spans never straddle 1."""
    if a >= 1:
        return (a - 1, b - 1)
    return (a, b)


def _additive(report: AdditivityReport):
    """By position: the 2-D faces' reduced projection spans, in order, to
    their pieces; each 1-D face's move with its ends' pieces; the pieces of
    each 2-D face's projections.  No face is built."""
    P = report.complex.points_x
    intervals, _, proj, starts, _ = report.complex.faces.ids()
    placed = {}

    def place(i: int):  # -> (interval, reduced span, piece)
        out = placed.get(i)
        if out is None:
            iv = intervals[i]
            a, b = _reduce_span(iv.a, iv.b)
            k = bisect.bisect_right(P, a, 0, len(P) - 1) - 1
            if b > P[k + 1]:
                raise ValueError(f"span ({a}, {b}) crosses a breakpoint")
            out = placed[i] = (iv, (a, b), k)
        return out

    flat, edges = [], []  # the 2-D faces' projection ids; the 1-D faces
    for n in report.faces.positions(ADDITIVE):
        if starts[n + 1] - starts[n] == 2:
            edges.append(n)
        elif starts[n + 1] - starts[n] > 2:
            flat += proj[3 * n:3 * n + 3]
    direct = {}
    for i in dict.fromkeys(flat):
        _, span, k = place(i)
        direct.setdefault(span, k)
    links = {tuple(place(i)[2] for i in flat[t:t + 3])
             for t in range(0, len(flat), 3)}
    moves = []
    for n in edges:
        (v1, s1, i), (v2, s2, j), (v3, s3, k) = map(place,
                                                    proj[3 * n:3 * n + 3])
        # an edge of the complex is vertical, horizontal, or antidiagonal
        if v3.is_point:
            moves.append((Move("reflection", v3.a, s1, s2), i, j))
        elif v1.is_point:
            moves.append((Move("translation", v1.a, s2, s3), j, k))
        elif v2.is_point:
            moves.append((Move("translation", v2.a, s1, s3), i, k))
        else:
            raise ArithmeticError(f"face {n} is not an edge of a complex")
    return direct, moves, links


class _PieceCover:
    """Union of open sub-intervals of one piece, merged on strict overlap."""

    def __init__(self, lo: QNum, hi: QNum):
        self.lo = lo
        self.hi = hi
        self.parts: list[Span] = []

    def add(self, a: QNum, b: QNum):
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
        self.parts = sorted(keep + [(merged_a, merged_b)])

    def contains(self, a: QNum, b: QNum) -> bool:
        return any(pa <= a and b <= pb for pa, pb in self.parts)

    @property
    def full(self) -> bool:
        return self.parts == [(self.lo, self.hi)]


def components(report: AdditivityReport) -> CoveringResult:
    """Propagate covering to a fixed point and group pieces by slope.

    The covering is part of the function's one analysis: it is built on
    the first call, kept on the report, and read by every later consumer.
    """
    if report._covering is None:
        report._covering = _build(report)
    return report._covering


def _build(report: AdditivityReport) -> CoveringResult:
    piece_spans = list(pairwise(report.complex.points_x))  # [p_i, p_{i+1}]
    direct, moves, links = _additive(report)
    covers = [_PieceCover(lo, hi) for lo, hi in piece_spans]
    for (a, b), i in direct.items():
        covers[i].add(a, b)
    # each distinct move both ways
    arrows = []
    for i, src, j, dst in dict.fromkeys((i, mv.src, j, mv.dst)
                                        for mv, i, j in moves):
        arrows += ((i, src, j, dst), (j, dst, i, src))

    # propagate full source intervals across moves until stable
    changed = True
    while changed:
        changed = False
        for i, src, j, dst in arrows:
            if covers[i].contains(*src) and not covers[j].contains(*dst):
                covers[j].add(*dst)
                changed = True

    full = [c.full for c in covers]
    # the full pieces joined by a 2-D face's projections or by a move; a
    # partly covered piece does not carry one slope
    joined = [(i, j) for i, j, _ in links] + [(i, k) for i, _, k in links]
    joined += [(i, j) for i, _, j, _ in arrows[::2]]
    pairs = [(i, j) for i, j in dict.fromkeys(joined) if full[i] and full[j]]
    label = list(range(len(covers)))  # each piece's least connected piece
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            if label[i] != label[j]:
                label[i] = label[j] = min(label[i], label[j])
                changed = True

    groups: dict[int, list[int]] = {}
    for i, ok in enumerate(full):
        if ok:
            groups.setdefault(label[i], []).append(i)
    comps = [[piece_spans[i] for i in groups[k]] for k in sorted(groups)]
    uncov = [piece_spans[i] for i, ok in enumerate(full) if not ok]
    return CoveringResult(comps, uncov, [mv for mv, _, _ in moves])
