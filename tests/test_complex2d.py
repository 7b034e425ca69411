"""The two-dimensional additivity complex over the unit square."""

import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupcut import complex2d
from groupcut.catalog import kzh_function, psi_function, psi_prime_function
from groupcut.exactnum import QNum
from groupcut.pwl import PwlFunction
from groupcut.complex2d import (Complex2D, Face2D, Interval, ccw_hull_order,
                                centroid, make_face, n_f, polygon_vertices)

from helpers import (_end_keys, _face_keys, composed, convex_minimal_family,
                     gmic, random_grid_functions, reference_faces)

H = Fraction(1, 2)


def half_complex() -> Complex2D:
    fn = PwlFunction.continuous_from_values([(0, 0), (H, 1)], H)
    return Complex2D(fn.breakpoints)


def test_interval_normalizes_and_validates():
    iv = Interval(0, H)
    assert iv.a == QNum(0) and iv.b == QNum(H)
    assert Interval(H, H).is_point
    with pytest.raises(ValueError):
        Interval(H, 0)


def test_face_counts_for_half_grid():
    cx = half_complex()
    counts = Counter(f.dim for f in cx.faces)
    assert len(cx.faces) == 33
    assert counts == {0: 9, 1: 16, 2: 8}


def test_vertices_are_exact_and_in_box():
    cx = half_complex()
    for face in cx.faces:
        assert len(face.vertices) == {0: 1, 1: 2}.get(face.dim, 3)
        for (u, v) in face.vertices:
            assert QNum(0) <= u <= 1
            assert QNum(0) <= v <= 1
            assert face.I.a <= u <= face.I.b
            assert face.J.a <= v <= face.J.b
            assert face.K.a <= u + v <= face.K.b


def test_polygon_vertices_triangle():
    verts = polygon_vertices(Interval(0, H), Interval(0, H), Interval(0, H))
    assert set(verts) == {(QNum(0), QNum(0)), (QNum(0), QNum(H)),
                          (QNum(H), QNum(0))}


def test_make_face_empty_cases():
    # x + y can never reach 3/2 inside [0,1/2]^2
    assert make_face(Interval(0, H), Interval(0, H),
                     Interval(Fraction(3, 2), 2)) is None
    point = make_face(Interval(H, H), Interval(H, H), Interval(1, 1))
    assert point is not None and point.dim == 0


def test_find_face():
    cx = half_complex()
    f = cx.find_face(Interval(0, H), Interval(0, H), Interval(0, H))
    assert f.dim == 2
    with pytest.raises(ValueError):
        cx.find_face(Interval(0, H), Interval(0, H), Interval(Fraction(3, 2),
                                                              2))
    with pytest.raises(ValueError):
        cx.find_face(Interval(0, Fraction(1, 4)), Interval(0, H),
                     Interval(0, H))  # not cells of this complex


def test_face_of_point():
    cx = half_complex()
    f = cx.face_of_point(Fraction(1, 8), Fraction(1, 8))
    assert f.dim == 2
    assert f.label() == "F([0, 1/2], [0, 1/2], [0, 1/2])"
    g = cx.face_of_point(Fraction(1, 4), Fraction(1, 4))
    assert g.dim == 1  # on the diagonal x + y = 1/2
    h = cx.face_of_point(H, H)
    assert h.dim == 0
    assert h.vertices == ((QNum(H), QNum(H)),)
    assert cx.face_of_point(1, 1).vertices == ((QNum(1), QNum(1)),)
    with pytest.raises(ValueError, match="outside"):
        cx.face_of_point(Fraction(3, 2), 0)


def test_faces_partition_vertices_consistently():
    cx = half_complex()
    # face lookup of each face's own centroid returns that face
    for face in cx.faces:
        cu, cv = centroid(face.vertices)
        again = cx.face_of_point(cu, cv)
        assert again.triple_key == face.triple_key


def _lookup_grids():
    """Seeded random 1/q grids, and the sqrt2 two-slope family for k = 1,
    2, 3: breakpoint sets whose complexes have unstored cell triples."""
    rng = random.Random(20261019)
    for q in (3, 4, 5, 6, 7, 8):
        ks = sorted(rng.sample(range(1, q), rng.randint(1, q - 1)))
        yield [Fraction(0)] + [Fraction(k, q) for k in ks]
    f0 = QNum(-1, 1)
    for k in (1, 2, 3):
        yield gmic(f0 / k, k, f0).breakpoints


def test_lookup_by_vertex_keys_matches_the_polygons_of_every_cell_triple():
    unstored = 0
    for breakpoints in _lookup_grids():
        cx = Complex2D(breakpoints)
        stored = {face.triple_key: face for face in cx.faces}
        for I in cx.faces_x:
            for J in cx.faces_x:
                for K in cx.faces_k:
                    ref = make_face(I, J, K)
                    if ref is None:
                        with pytest.raises(ValueError, match="empty"):
                            cx.find_face(I, J, K)
                        continue
                    face = cx.find_face(I, J, K)
                    assert stored.get(face.triple_key) == face
                    assert face.vertices == ref.vertices
                    unstored += ref.triple_key not in stored
        for face in cx.faces:
            assert cx.face_of_point(*centroid(face.vertices)) == face
    assert unstored > 0


def test_determinism():
    a, b = half_complex(), half_complex()
    assert [f.triple_key for f in a.faces] == [f.triple_key for f in b.faces]
    assert [f.vertices for f in a.faces] == [f.vertices for f in b.faces]


def test_n_f():
    specials = ((QNum(Fraction(1, 4)), QNum(Fraction(3, 8))),)
    face = make_face(Interval(0, H), Interval(0, H), Interval(0, H))
    assert n_f(face, ()) == 0
    assert n_f(face, specials) == 3  # all three projections overlap
    two = make_face(Interval(0, H), Interval(0, H), Interval(H, 1))
    assert n_f(two, specials) == 2  # the sum projection stays clear
    pt = make_face(Interval(H, H), Interval(H, H), Interval(1, 1))
    assert n_f(pt, specials) == 0
    # the sum projection is tested against the shifted interval too
    hi = make_face(Interval(Fraction(7, 8), 1), Interval(Fraction(3, 8), H),
                   Interval(Fraction(5, 4), Fraction(11, 8)))
    assert hi is not None
    assert n_f(hi, specials) >= 1


def test_ccw_hull_order():
    pts = [(QNum(0), QNum(0)), (QNum(1), QNum(1)), (QNum(1), QNum(0)),
           (QNum(0), QNum(1))]
    hull = ccw_hull_order(pts)
    assert len(hull) == 4
    # consecutive cross products all positive: counterclockwise convex walk
    for i in range(4):
        o, a, b = hull[i], hull[(i + 1) % 4], hull[(i + 2) % 4]
        cross = ((a[0] - o[0]) * (b[1] - o[1])
                 - (a[1] - o[1]) * (b[0] - o[0]))
        assert cross > 0


def test_kzh_complex_size():
    from groupcut.catalog import kzh_function
    from groupcut.additivity import additive_face_report
    cx = additive_face_report(kzh_function()).complex
    counts = Counter(f.dim for f in cx.faces)
    assert len(cx.faces) == 18155
    assert counts == {0: 4479, 1: 9077, 2: 4599}


# breakpoints on a random 1/N grid, and random Q(sqrt2) numbers in (0, 1)
grid_breakpoints = st.integers(2, 60).flatmap(
    lambda N: st.lists(st.integers(1, N - 1), max_size=4, unique=True).map(
        lambda ks: [QNum(0)] + [QNum(Fraction(k, N)) for k in sorted(ks)]))
fractions = st.fractions(min_value=-3, max_value=3, max_denominator=40)
in_unit = st.tuples(fractions, fractions).map(
    lambda ab: QNum(*ab).mod1()).filter(bool)
sqrt2_breakpoints = st.lists(in_unit, min_size=1, max_size=4,
                             unique=True).map(lambda xs: [QNum(0)] + sorted(xs))


@settings(max_examples=40, deadline=None)
@given(grid_breakpoints)
def test_complex_matches_reference_on_grids(bk):
    assert tuple(Complex2D(bk).faces) == reference_faces(bk)


@settings(max_examples=30, deadline=None)
@given(sqrt2_breakpoints)
def test_complex_matches_reference_over_q_sqrt2(bk):
    assert tuple(Complex2D(bk).faces) == reference_faces(bk)


def _larger_grids():
    """Up to 10 breakpoints on a 1/N grid, sets symmetric about a grid f
    (x -> f - x mod 1 maps each to the set), and the breakpoint sets of
    convex_minimal_family, up to 18 breakpoints on 1/n grids, n <= 48:
    inputs where sums land on breakpoints and cell triples with one point
    set pile up."""
    rng = random.Random(20261021)
    for size in (6, 8, 10):
        N = rng.randrange(size + 2, 40)
        ks = sorted(rng.sample(range(1, N), size - 1))
        yield [Fraction(0)] + [Fraction(k, N) for k in ks]
    for N, a in ((12, 5), (20, 7)):  # f = a/N
        ks = {0, a}
        while len(ks) < 9:
            k = rng.randrange(1, N)
            ks |= {k, (a - k) % N}
        yield [Fraction(k, N) for k in sorted(ks)]
    seen = set()
    for fn, _, _ in convex_minimal_family(1, 6):
        if len(fn.breakpoints) <= 18 and fn.breakpoints not in seen:
            seen.add(fn.breakpoints)
            yield list(fn.breakpoints)


LARGER_GRIDS = list(_larger_grids())


@pytest.mark.parametrize("bk", LARGER_GRIDS)
def test_complex_matches_reference_on_larger_grids(bk):
    assert tuple(Complex2D(bk).faces) == reference_faces(bk)


def _rank_space_breakpoints():
    """The distinct breakpoint sets of psi, psi_prime, kzh, the random-grid
    passes of seeds 1-3, convex_minimal_family seeds 1 and 2 and
    LARGER_GRIDS."""
    fns = [psi_function(), psi_prime_function(), kzh_function()]
    for seed in (1, 2, 3):
        fns += [fn for _, fn in random_grid_functions(seed)]
    for seed in (1, 2):
        fns += [fn for fn, _, _ in convex_minimal_family(seed, 6)]
    bks = [tuple(map(QNum.of, bk)) for bk in LARGER_GRIDS]
    return list(dict.fromkeys([fn.breakpoints for fn in fns] + bks))


def test_the_rank_space_is_the_coordinates_of_points_and_intervals():
    assert len(LARGER_GRIDS) == 9 and max(map(len, LARGER_GRIDS)) == 18
    bks = _rank_space_breakpoints()
    assert len(bks) > 20 and max(map(len, bks)) == 40
    for bk in bks:
        cx = Complex2D(bk)
        G, n, m = cx.points_k, len(cx.points_x), len(cx.points_k)
        values, rows = cx._values, cx._value_rows
        ranks, ends = cx._point_ranks, cx._interval_ranks
        intervals, points, proj, starts, verts = cx.faces.ids()
        # strictly increasing, G's points their own objects, and each row
        # a breakpoint's index mod 1, or n - 1 inside a piece
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(values[bisect_left(values, g)] is g for g in G)
        where = {g: k for k, g in enumerate(G)}
        assert list(rows) == [where[v] % (n - 1) if v in where else n - 1
                              for v in values]
        # every point coordinate and interval end is its value's object
        assert len(ranks) == 3 * len(points)
        for p, (x, y) in enumerate(points):
            rx, ry, rs = ranks[3 * p:3 * p + 3]
            assert values[rx] is x and values[ry] is y
            assert values[rs] == x + y
        assert len(ends) == 2 * len(intervals)
        for i, iv in enumerate(intervals):
            assert values[ends[2 * i]] is iv.a
            assert values[ends[2 * i + 1]] is iv.b
        # a face's projections span its vertices' ranks
        for f in range(len(cx.faces)):
            own = [ranks[3 * v:3 * v + 3]
                   for v in verts[starts[f]:starts[f + 1]]]
            for d in range(3):
                i = proj[3 * f + d]
                assert (ends[2 * i], ends[2 * i + 1]) == (
                    min(r[d] for r in own), max(r[d] for r in own))
        # the end keys _add_faces writes to find each face's projections
        nx, nk = len(cx.faces_x), len(cx.faces_k)
        triples = [(fi * nx + fj) * nk + fk for fi, fj, fk in cx.faces.cells()]
        assert complex2d._add_faces(cx._rank, n, m)[1] == [
            key for keys in _end_keys(cx._rank, n, m, triples, nx, nk)
            for key in keys]


def _vertex_sets_built(monkeypatch, breakpoints) -> tuple[int, int]:
    """How many cell triples get a vertex set while the complex of the
    breakpoints is built, and how many faces it has."""
    calls = []
    real = complex2d._vertex_keys
    monkeypatch.setattr(complex2d, "_vertex_keys",
                        lambda *args: calls.append(args) or real(*args))
    cx = Complex2D(breakpoints)
    return len(calls), len(cx.faces)


def test_few_cell_triples_get_a_vertex_set(monkeypatch):
    """A triple that rank compares prove to repeat an earlier one's points
    is skipped before its vertex set is built."""
    psi = psi_function()
    fns = [gmic(Fraction(2, 5) / k, k, Fraction(2, 5)) for k in (2, 3, 4, 5)]
    fns += [composed(psi, k, psi.f / k) for k in (1, 2, 3)]
    for fn in fns:
        built, faces = _vertex_sets_built(monkeypatch, fn.breakpoints)
        assert faces <= built <= 1.2 * faces
    built, faces = _vertex_sets_built(monkeypatch,
                                      kzh_function().breakpoints)
    assert faces == 18155 and built <= 18_500


def _assert_vertex_keys_are_the_reference(bk):
    """Each cell triple that ``_add_faces`` makes a vertex set for gets the
    keys of ``helpers._face_keys``, which derives them from the triple
    alone; with those keys in their place, the stored keys and triples and
    the end keys come out the same, in order."""
    cx = Complex2D(bk)
    rank, n, m = cx._rank, len(cx.points_x), len(cx.points_k)
    W = n + m * n
    real_box, real_keys = complex2d._box, complex2d._vertex_keys
    cells = []  # the fi, fj of the box last made

    def box(*args):
        cells[:] = args[-2:]
        return real_box(*args)

    def keys(box, fk):
        ref = _face_keys(rank, n, W, *cells, fk)
        assert real_keys(box, fk) == ref, (*cells, fk)
        return ref

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complex2d, "_box", box)
        mp.setattr(complex2d, "_vertex_keys", keys)
        found, ends = complex2d._add_faces(rank, n, m)
    real_found, real_ends = complex2d._add_faces(rank, n, m)
    assert list(real_found.items()) == list(found.items())
    assert real_ends == ends
    assert list(found.values()) == list(cx.faces._triples)


def _two_slope_sqrt2_breakpoints():
    """The breakpoints of two-slope functions with f0 = sqrt2 - 1 and
    f0 = 2 - sqrt2 composed with x -> kx, k = 1, 2, 3."""
    for f0 in (QNum(-1, 1), QNum(2, -1)):
        for k in (1, 2, 3):
            yield gmic(f0 / k, k, f0).breakpoints


def test_vertex_keys_are_the_reference_on_every_built_triple():
    bks = _rank_space_breakpoints() + list(_two_slope_sqrt2_breakpoints())
    for bk in bks:
        _assert_vertex_keys_are_the_reference(bk)


@settings(max_examples=40, deadline=None)
@given(grid_breakpoints)
def test_vertex_keys_are_the_reference_on_grids(bk):
    _assert_vertex_keys_are_the_reference(bk)


def test_a_point_cell_counts_each_shared_key_once():
    # P = 0, 1/4, 1/2, 1 and G = 0, 1/4, 1/2, 1, 5/4, 3/2, 2: for the
    # point I = {1/4} (cell 2) the corners at I.a and I.b are one point,
    # and so are the crossings of x = I.a and x = I.b with x + y = 1
    cx = Complex2D([0, Fraction(1, 4), H])
    rank, n, m = cx._rank, len(cx.points_x), len(cx.points_k)
    W = n + m * n
    for fj in range(2 * n - 1):
        box = complex2d._box(rank, n, W, 2, fj)
        for fk in range(2 * m - 1):
            keys = complex2d._vertex_keys(box, fk)
            assert keys == _face_keys(rank, n, W, 2, fj, fk)
            assert len(set(keys)) == len(keys)
    # J = [1/2, 1] (cell 5): the corners (I.a, J.a) and (I.b, J.a) are
    # both (1/4, 1/2), one key...
    box = complex2d._box(rank, n, W, 2, 5)
    assert box[4] == box[6] == 1 * W + 2
    # ... and K = {1}, G[3]: the point (1/4, 3/4) on x = 1/4, keyed by
    # G[3] - P[1]; K = [1, 5/4] adds the corner (1/4, 1)
    assert complex2d._vertex_keys(box, 6) == (1 * W + n + 3 * n + 1,)
    assert complex2d._vertex_keys(box, 7) == (1 * W + 3,
                                              1 * W + n + 3 * n + 1)
    assert cx.find_face(Interval(Fraction(1, 4), Fraction(1, 4)),
                        Interval(H, 1), Interval(1, 1)).vertices == (
        (QNum(Fraction(1, 4)), QNum(Fraction(3, 4))),)


def test_faces_share_one_object_per_point_and_projection():
    from groupcut.catalog import kzh_function, psi_function
    from groupcut.additivity import additive_face_report
    for fn in (psi_function(), kzh_function()):
        kept = {}
        for face in additive_face_report(fn).complex.faces:
            for obj in (face.p1, face.p2, face.p3) + face.vertices:
                assert kept.setdefault(obj, obj) is obj
            for u, v in face.vertices:
                assert kept.setdefault(u, u) is u
                assert kept.setdefault(v, v) is v


@pytest.mark.parametrize("breakpoints, message", [
    ([], "start at 0"),
    ([H], "start at 0"),
    ([0, H, Fraction(1, 4)], "strictly increasing"),
    ([0, H, 1], r"lie in \[0,1\)"),
])
def test_complex_refuses_a_bad_breakpoint_list(breakpoints, message):
    with pytest.raises(ValueError, match=message):
        Complex2D(breakpoints)


def test_faces_read_by_slice_print_and_repr():
    faces = half_complex().faces
    assert faces[1:3] == (faces[1], faces[2])
    assert str(faces[0]) == faces[0].label() == "F({0}, {0}, {0})"
    assert repr(faces[0]) == ("Face2D(F({0}, {0}, {0}), "
                              "vertices=((QNum('0'), QNum('0')),))")


def test_ccw_hull_order_of_a_segment_and_of_a_point_on_an_edge():
    def q(x, y):
        return QNum(x), QNum(y)

    assert ccw_hull_order([q(1, 0), q(0, 0)]) == [q(0, 0), q(1, 0)]
    # a point collinear with the pivot comes before the farther one
    square = [q(0, 2), q(2, 2), q(2, 0), q(1, 0), q(0, 0)]
    assert ccw_hull_order(square) == [q(0, 0), q(1, 0), q(2, 0), q(2, 2),
                                      q(0, 2)]
