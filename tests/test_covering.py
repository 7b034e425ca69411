"""Directly covered intervals, connections, and component structure."""

import importlib.util
import os
from fractions import Fraction

import pytest

from groupcut.exactnum import QNum
from groupcut.pwl import BreakpointRow, PwlFunction
from groupcut.additivity import ADDITIVE, additive_face_report
from groupcut.covering import _PieceCover, _slope_classes, components
from groupcut.catalog import kzh_function, psi_function, psi_prime_function

from helpers import convex_minimal_family, reference_edge_connections

GRIDGEN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "gridgen.py")

Q = lambda *a: QNum(Fraction(*a))


def _spans(pairs):
    return [(QNum(Fraction(a)), QNum(Fraction(b))) for a, b in pairs]


def test_two_slope_fully_covered():
    fn = PwlFunction.continuous_from_values([(0, 0), (Fraction(1, 2), 1)],
                                            Fraction(1, 2))
    res = components(additive_face_report(fn))
    assert res.uncovered == []
    assert sorted(iv for c in res.components for iv in c) == _spans(
        [(0, Fraction(1, 2)), (Fraction(1, 2), 1)])


def test_directly_covered_comes_from_two_dim_faces():
    fn = PwlFunction.continuous_from_values([(0, 0), (Fraction(1, 2), 1)],
                                            Fraction(1, 2))
    rep = additive_face_report(fn)
    additive = rep.complex.faces.at(rep.faces.positions(ADDITIVE))
    direct = {(p.a, p.b) for F in additive if F.dim == 2 for p in (F.p1, F.p2)}
    assert _spans([(0, Fraction(1, 2))])[0] in direct
    # each of them lies in a piece that the covering marks covered
    covered = [iv for c in components(rep).components for iv in c]
    assert all(any(lo <= a and b <= hi for lo, hi in covered)
               for a, b in direct)


def test_moves_record_translation_and_reflection():
    rep = additive_face_report(psi_function())
    moves = components(rep).moves
    kinds = {m.kind for m in moves}
    assert kinds <= {"translation", "reflection"}
    assert len(moves) > 0
    for m in moves:
        # moves map whole pieces onto whole pieces, inside the period
        (a, b), (c, d) = m.src, m.dst
        assert QNum(0) <= a < b <= 1
        assert QNum(0) <= c < d <= 1
        assert (b - a) == (d - c)


def _move_guard_functions():
    """psi, psi_prime, kzh, the functions of random-grid passes 1-3 and
    two seeds of the discontinuous convex family."""
    yield from (psi_function(), psi_prime_function(), kzh_function())
    spec = importlib.util.spec_from_file_location("bench_gridgen", GRIDGEN)
    gridgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gridgen)
    for seed in (1, 2, 3):
        for g in gridgen.batch(seed)[0]:
            yield PwlFunction([BreakpointRow.of(*r) for r in g.rows], g.f)
    for seed in (1, 2):
        yield from (fn for fn, _, _ in convex_minimal_family(seed, 6))


def test_moves_are_distinct_relations():
    """Each move is listed once, no translation maps a span onto itself,
    and every reflection of an additive edge is kept, also one that maps
    a piece onto itself."""
    onto_itself = 0
    for fn in _move_guard_functions():
        report = additive_face_report(fn)
        moves = components(report).moves
        assert len(set(moves)) == len(moves)
        assert all(m.src != m.dst and 0 < m.param < 1 for m in moves
                   if m.kind == "translation")
        mirrors = {m for m in reference_edge_connections(report)
                   if m.kind == "reflection"}
        assert mirrors <= set(moves)
        onto_itself += sum(m.src == m.dst for m in mirrors)
    assert onto_itself


def test_a_face_over_a_partial_piece_joins_its_two_full_pieces():
    # piece 0 is partly covered; one additive face projects into 0, 1, 2
    assert _slope_classes([False, True, True], [(0, 1, 2)]) == [[1, 2]]


def test_moves_from_a_partial_piece_join_nothing():
    # two moves relate the partly covered piece 0 to the full pieces 1, 2
    assert _slope_classes([False, True, True], [(0, 1), (0, 2)]) == [[1], [2]]
    assert _slope_classes([True, False, True, True],
                          [(1, 0), (2, 1), (3, 2)]) == [[0], [2, 3]]


def test_covering_is_built_once_per_analysis():
    rep = additive_face_report(psi_function())
    assert components(rep) is components(rep)


def test_psi_covering_is_partial():
    res = components(additive_face_report(psi_function()))
    assert len(res.components) == 1
    assert sorted(res.components[0]) == _spans(
        [(0, Fraction(1, 8)), (Fraction(3, 8), Fraction(1, 2))])
    assert sorted(res.uncovered) == _spans(
        [(Fraction(1, 8), Fraction(3, 8)), (Fraction(1, 2), Fraction(5, 8)),
         (Fraction(5, 8), Fraction(7, 8)), (Fraction(7, 8), 1)])


def test_kzh_covering_two_components_and_special_gaps():
    fn = kzh_function()
    res = components(additive_face_report(fn))
    assert len(res.components) == 2
    assert {len(c) for c in res.components} == {19}
    assert sorted(res.uncovered) == sorted(fn.special_intervals)
    covered_len = sum((b - a) for c in res.components
                      for (a, b) in c)
    gap_len = sum((b - a) for (a, b) in res.uncovered)
    assert covered_len + gap_len == 1


def test_components_are_disjoint():
    res = components(additive_face_report(kzh_function()))
    seen = set()
    for comp in res.components:
        for iv in comp:
            assert iv not in seen
            seen.add(iv)


def test_a_piece_cover_refuses_an_empty_span():
    cover = _PieceCover(Q(0), Q(1))
    with pytest.raises(ValueError, match="not within"):
        cover.add(Q(1, 2), Q(1, 2))
    assert cover.parts == []
