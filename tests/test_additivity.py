"""Slacks, face classification, minimality, and E-set comparison."""

import gc
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupcut import additivity
from groupcut.exactnum import QNum
from groupcut.pwl import BreakpointRow, PwlFunction, parse_text, to_text
from groupcut.complex2d import Interval, _FaceStore, n_f
from groupcut.additivity import (ADDITIVE, LIMIT_ADDITIVE, NON_ADDITIVE,
                                 additive_face_report, e_containment,
                                 minimality_test, slack_at)
from groupcut.catalog import (kzh_function, kzh_params, psi_function,
                              psi_prime_function)
from groupcut.diagram import render_sidecar

from helpers import (classify_face, convex_minimal_family,
                     random_grid_functions, random_pwl, retained,
                     sampling_minimality_oracle)

H = Fraction(1, 2)
Q = lambda *a: QNum(Fraction(*a))


def gmic(f=H) -> PwlFunction:
    return PwlFunction.continuous_from_values([(0, 0), (f, 1)], f,
                                              name="two_slope")


def test_vertex_sides_follow_face_projections():
    fn = gmic()
    cx = additive_face_report(fn).complex

    def sides(face):
        return {r.vertex: r.sides for r in classify_face(fn, face).slacks}

    face = sides(cx.find_face(Interval(0, H), Interval(0, H), Interval(0, H)))
    # at the corner (0,0): x at its interval minimum, y too, sum too
    assert face[(QNum(0), QNum(0))] == (1, 1, 1)
    # y tops out and so does the sum: both approached from below
    assert face[(QNum(0), QNum(H))] == (1, -1, -1)
    pt = sides(cx.find_face(Interval(H, H), Interval(H, H), Interval(1, 1)))
    assert pt[(QNum(H), QNum(H))] == (0, 0, 0)
    edge = sides(cx.find_face(Interval(0, H), Interval(H, H), Interval(H, 1)))
    # y is pinned to a point: evaluated, not approached
    assert edge[(QNum(0), QNum(H))][1] == 0


def test_slack_additive_for_two_slope():
    fn = gmic()
    cx = additive_face_report(fn).complex
    face = cx.find_face(Interval(0, H), Interval(0, H), Interval(0, H))
    for v in face.vertices:
        assert slack_at(fn, face, v) == 0
    # the neighboring face is additive only in the limit: the corner
    # vertices still reach slack 0, the far vertex does not
    off = cx.find_face(Interval(0, H), Interval(0, H), Interval(H, 1))
    c = classify_face(fn, off)
    assert c.status == LIMIT_ADDITIVE
    by_vertex = {r.vertex: r.slack for r in c.slacks}
    assert by_vertex[(QNum(0), QNum(H))] == 0
    assert by_vertex[(QNum(H), QNum(0))] == 0
    assert by_vertex[(QNum(H), QNum(H))] == 2


def test_classification_statuses():
    # a function with a limit-additive but not additive vertex: psi works
    rep = additive_face_report(psi_function())
    statuses = {c.status for c in rep.faces}
    assert statuses == {ADDITIVE, LIMIT_ADDITIVE, NON_ADDITIVE}
    for c in rep.faces:
        zeros = sum(1 for r in c.slacks if r.slack == 0)
        if c.status == ADDITIVE:
            assert zeros == len(c.slacks)
        elif c.status == LIMIT_ADDITIVE:
            assert 0 < zeros < len(c.slacks)
        else:
            assert zeros == 0


def _status_count(rep, status) -> int:
    return sum(c.status == status for c in rep.faces)


def test_psi_face_statistics():
    rep = additive_face_report(psi_function())
    assert len(rep.faces) == 289
    assert _status_count(rep, ADDITIVE) == 75
    assert _status_count(rep, LIMIT_ADDITIVE) == 87


def test_psi_prime_face_statistics():
    rep = additive_face_report(psi_prime_function())
    assert len(rep.faces) == 289  # same breakpoints, same complex
    assert _status_count(rep, ADDITIVE) == 102
    assert _status_count(rep, LIMIT_ADDITIVE) == 39


def test_report_caching_and_determinism():
    fn = psi_function()
    a = additive_face_report(fn)
    b = additive_face_report(fn)
    assert a is b  # cached on the function object
    fresh = additive_face_report(PwlFunction(fn.rows, fn.f, name="psi2"))
    assert [c.status for c in fresh.faces] == [c.status for c in a.faces]


def test_report_json_is_exact():
    doc = render_sidecar(gmic())
    assert doc["function"]["f"] == "1/2"
    assert len(doc["faces"]) == 33
    some = doc["faces"][0]
    assert set(some) == {"cells", "status", "n_f", "vertices", "slacks"}
    assert {"numbers", "points", "cells"} <= set(doc)



def test_slack_records_are_read_from_the_flat_tuple():
    rep = additive_face_report(psi_function())
    for c in rep.faces:
        assert len(c.slack_sides) == 2 * len(c.face.vertices)
        assert [(r.vertex, r.slack, r.sides) for r in c.slacks] == [
            (v, c.slack_sides[2 * i], c.slack_sides[2 * i + 1])
            for i, v in enumerate(c.face.vertices)]
        assert c.zero_vertices == tuple(r.vertex for r in c.slacks
                                        if r.slack == 0)


def test_classification_of_reads_the_complex_index():
    rep = additive_face_report(psi_function())
    for c in rep.faces[::17]:
        assert rep.classification_of(c.face) == c
    # a triangle of the coarser 1/2 grid, cut by psi's 1/8 grid
    outside = additive_face_report(gmic()).complex.find_face(
        Interval(0, H), Interval(0, H), Interval(0, H))
    with pytest.raises(ValueError, match="not a face of the complex"):
        rep.classification_of(outside)


def _assert_sweep_is_the_reference(fn):
    """Every face of the key sweep equals classify_face's fn.limit path."""
    for c in additive_face_report(fn).faces:
        ref = classify_face(fn, c.face)
        assert (c.slack_sides, c.status) == (ref.slack_sides, ref.status), \
            c.face.label()


def test_key_sweep_matches_the_limit_path_on_random_tables():
    rng = random.Random(20261019)
    fns = [random_pwl(rng) for _ in range(40)]
    assert sum(not fn.is_continuous for fn in fns) >= 5
    for fn in fns:
        _assert_sweep_is_the_reference(fn)


def test_key_sweep_matches_the_limit_path_over_q_sqrt2():
    p = kzh_params()
    _assert_sweep_is_the_reference(PwlFunction.continuous_from_values(
        [(Q(0), Q(0)), (p.a1, Q(1, 2)), (Q(1, 2), Q(1))], Q(1, 2),
        name="irr"))
    _assert_sweep_is_the_reference(kzh_function())


def test_key_sweep_reads_an_end_on_a_breakpoint_as_that_breakpoint():
    # F([0, 1/4], [0, 1/4], {1/2}) is the point (1/4, 1/4): the lower end
    # of its x projection is 1/2 - 1/4, the breakpoint 1/4, so its sides
    # are (at, at, at), and the jumps make any other side visible
    q = Fraction(1, 4)
    fn = PwlFunction([BreakpointRow.of(0, 0, 0, 0),
                      BreakpointRow.of(q, Fraction(1, 8), q, Fraction(3, 8)),
                      BreakpointRow.of(H, Fraction(5, 8), 1, Fraction(7, 8)),
                      BreakpointRow.of(3 * q, H, H, H)], H)
    rep = additive_face_report(fn)
    face = rep.complex.find_face(Interval(0, q), Interval(0, q),
                                 Interval(H, H))
    assert face.vertices == ((Q(1, 4), Q(1, 4)),)
    c = rep.classification_of(face)
    assert c.slack_sides == (Q(-1, 2), (0, 0, 0))
    _assert_sweep_is_the_reference(fn)


# a kept kzh analysis after one classification_of, measured at 1,328,072
# bytes (sys.getsizeof of every object the report reaches, its function
# included; the face store's arrays, the rank space's arrays, and the
# sweep's kinds and codes in their narrowest types) and 11,344 reachable
# gc-tracked objects
KZH_ANALYSIS_BYTES = 1_328_072
KZH_ANALYSIS_OBJECTS = 11_344


def test_a_kept_kzh_analysis_stays_small():
    fn = parse_text(to_text(kzh_function()))
    report = additive_face_report(fn)
    report.classification_of(report.faces[0].face)
    gc.collect()
    size, tracked = retained(report)
    assert size < KZH_ANALYSIS_BYTES * 1.05
    assert tracked < KZH_ANALYSIS_OBJECTS * 1.02


def test_first_negative_is_the_face_a_scan_finds_first():
    fns = [fn for seed in (1, 2, 3)
           for family, fn in random_grid_functions(seed)
           if family == "near_miss" or family.startswith("random_")]
    rng = random.Random(20261022)
    fns += [random_pwl(rng) for _ in range(40)]
    fns += [fn for seed in (1, 2)
            for fn, _, parts in convex_minimal_family(seed, 6)
            if parts is None]
    found = 0
    for fn in fns:
        faces = additive_face_report(fn).faces
        scan = next((c for c in faces
                     if any(slack < 0 for slack in c.slack_sides[::2])), None)
        assert faces.first_negative() == scan
        found += scan is not None
    assert 10 <= found < len(fns)


def test_n_f_is_computed_once_per_face(monkeypatch):
    calls = []
    real = additivity.n_f
    monkeypatch.setattr(additivity, "n_f",
                        lambda face, sp: calls.append(face) or real(face, sp))
    psi = psi_function()
    fn = PwlFunction(psi.rows, psi.f, special_intervals=((Q(1, 8), Q(3, 8)),))
    rep = additive_face_report(fn)
    assert tuple(rep.n_f) == tuple(real(fc.face, fn.special_intervals)
                                   for fc in rep.faces)
    assert set(rep.n_f) == {0, 1, 2, 3}
    render_sidecar(fn)
    assert rep.n_f is additive_face_report(fn).n_f
    assert len(calls) == len(rep.faces)

@st.composite
def _grid_functions(draw):
    """A continuous function through random values on a few points of a
    random 1/N grid, N <= 40, with f one of its breakpoints."""
    n = draw(st.integers(2, 40))
    rest = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1,
                               max_size=min(n - 1, 7))))
    f = Fraction(draw(st.sampled_from(rest)), n)
    values = draw(st.lists(st.integers(0, n), min_size=len(rest),
                           max_size=len(rest)))
    return PwlFunction.continuous_from_values(
        [(0, 0)] + [(Fraction(i, n), 1 if Fraction(i, n) == f
                     else Fraction(v, n)) for i, v in zip(rest, values)], f)


def _no_face(self, positions):
    raise AssertionError("a face was built")


def _assert_n_f_without_specials_builds_no_face(fn, monkeypatch):
    report = additive_face_report(fn)
    by_face = bytes(n_f(face, ()) for face in report.complex.faces)
    assert fn.special_intervals == () and set(by_face) <= {0}
    with monkeypatch.context() as m:
        m.setattr(_FaceStore, "at", _no_face)
        assert report.n_f == by_face


@pytest.mark.parametrize("make", [psi_function, psi_prime_function, gmic,
                                  lambda: gmic(Fraction(4, 5))])
def test_n_f_of_a_catalog_function_without_specials(make, monkeypatch):
    fn = make()
    _assert_n_f_without_specials_builds_no_face(PwlFunction(fn.rows, fn.f),
                                                monkeypatch)
    # the guard sees a face built where one is: n_F against a special
    # interval reads every face
    special = PwlFunction(fn.rows, fn.f, special_intervals=(
        (fn.breakpoints[0], fn.breakpoints[1]),))
    report = additive_face_report(special)
    monkeypatch.setattr(_FaceStore, "at", _no_face)
    with pytest.raises(AssertionError, match="a face was built"):
        report.n_f


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_grid_functions())
def test_n_f_of_a_grid_function_without_specials(fn):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_n_f_without_specials_builds_no_face(fn, monkeypatch)


def test_minimality_of_known_functions():
    assert minimality_test(gmic())
    assert minimality_test(gmic(Fraction(4, 5)))
    assert minimality_test(psi_function())
    assert minimality_test(psi_prime_function())


def test_minimality_failures_are_witnessed():
    fn = gmic()
    bad0 = PwlFunction(
        [BreakpointRow.of(0, 0, Fraction(1, 10), Fraction(1, 10)),
         BreakpointRow.of(H, 1, 1, 1)], H)
    r = minimality_test(bad0)
    assert not r and r.failure == "value_at_zero"

    rows = list(fn.rows)
    rows[1] = BreakpointRow.of(H, Fraction(11, 10), Fraction(11, 10),
                               Fraction(11, 10))
    r = minimality_test(PwlFunction(rows, H))
    assert not r and r.failure == "bounds"

    # break symmetry but keep subadditivity: scale down
    r = minimality_test(fn.scale(Fraction(9, 10)))
    assert not r and r.failure in ("symmetry", "value_at_f")

    # break subadditivity: bump one interior value up
    rows = list(gmic(Fraction(4, 5)).rows)
    sub = PwlFunction(rows, Fraction(4, 5)) + PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(2, 5), Fraction(1, 5)), (Fraction(3, 5), 0)],
        Fraction(4, 5))
    r = minimality_test(sub)
    assert not r
    assert r.failure in ("subadditivity", "bounds", "symmetry")


def test_minimality_witness_of_a_symmetric_function():
    fn = PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 8), Fraction(1, 4)), (Fraction(1, 4), H),
         (Fraction(3, 8), Fraction(3, 4)), (H, 1), (Fraction(5, 8), 0),
         (Fraction(3, 4), H), (Fraction(7, 8), 1)], H)
    r = minimality_test(fn)
    assert not r and r.failure == "subadditivity"
    assert r.witness == {"face": "F([0, 1/8], [1/2, 5/8], [5/8, 3/4])",
                         "vertex": (Q(1, 8), Q(5, 8)), "slack": Q(-1, 4)}


def test_minimality_checks_symmetry_before_subadditivity():
    # neither symmetric nor subadditive: the cheap check answers first
    fn = PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 4), Fraction(3, 4)), (H, 1),
         (Fraction(3, 4), 0)], H)
    r = minimality_test(fn)
    assert not r and r.failure == "symmetry"


def test_minimality_test_leaves_its_analysis_on_the_function(monkeypatch):
    built = []
    real = additivity.AdditivityReport

    def spy(*args):
        built.append(real(*args))
        return built[-1]

    monkeypatch.setattr(additivity, "AdditivityReport", spy)
    psi = psi_function()
    fn = PwlFunction(psi.rows, psi.f, name="fresh")
    assert minimality_test(fn)
    assert len(built) == 1
    assert additive_face_report(fn) is built[0]


def test_minimality_handles_discontinuous_functions():
    # valid discontinuous example: value 1 at f, jumps at 0 and f
    rows = [BreakpointRow.of(0, H, 0, 0),
            BreakpointRow.of(H, 0, 1, H)]
    fn = PwlFunction(rows, H, name="step")
    rep = minimality_test(fn)
    assert isinstance(rep.minimal, bool)


def test_minimality_agrees_with_sampling_oracle():
    rng = random.Random(424242)
    for _ in range(60):
        fn = random_pwl(rng)
        assert bool(minimality_test(fn)) == sampling_minimality_oracle(fn)


def test_e_containment_reflexive_and_strict():
    psi, prime = psi_function(), psi_prime_function()
    assert e_containment(psi, psi).relation == "equal"
    res = e_containment(psi, prime)
    assert res.relation == "strict_subset"
    assert res.witness_only_in_second is not None
    w = res.witness_only_in_second
    assert classify_face(prime, w).status == ADDITIVE
    assert classify_face(psi, w).status != ADDITIVE
    # and flipped
    res2 = e_containment(prime, psi)
    assert res2.relation == "strict_superset"
    assert res2.witness_only_in_first is not None


def test_e_containment_incomparable():
    a = gmic(Fraction(1, 3))
    rows = [BreakpointRow.of(0, 0, 0, 0),
            BreakpointRow.of(Fraction(1, 6), H, H, H),
            BreakpointRow.of(Fraction(1, 3), 1, 1, 1),
            BreakpointRow.of(Fraction(2, 3), H, H, H)]
    b = PwlFunction(rows, Fraction(1, 3), name="kinked")
    res = e_containment(a, b)
    assert res.relation in ("incomparable", "strict_superset",
                            "strict_subset", "equal")
    # but comparing a function with itself through a refinement stays equal
    assert e_containment(a, a.canonical()).relation == "equal"


def test_e_containment_rejects_non_pwl():
    from groupcut.catalog import lifted_function
    with pytest.raises(TypeError):
        e_containment(psi_function(), lifted_function())


def test_slack_at_refuses_a_point_outside_the_face():
    fn = psi_function()
    face = additive_face_report(fn).complex.faces[0]
    with pytest.raises(ValueError, match=r"point \(1/2, 0\) not in "
                                         r"F\(\{0\}, \{0\}, \{0\}\)"):
        slack_at(fn, face, (QNum(Fraction(1, 2)), QNum(0)))


def test_minimality_on_discontinuous_minimal_combinations():
    # every discontinuous random_pwl draw is non-minimal; these are convex
    # combinations of minimal functions with jumps, and their near misses
    verdicts = []
    for fn, n, parts in convex_minimal_family(29, 12):
        assert not fn.is_continuous
        got = bool(minimality_test(fn))
        assert got == sampling_minimality_oracle(fn, n)
        assert got or parts is None
        if parts is not None:
            _assert_sweep_is_the_reference(fn)
        verdicts.append(got)
    assert verdicts.count(True) == verdicts.count(False) == 12
