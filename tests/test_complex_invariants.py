"""Invariants of a complex that tiles the unit square, read from the stored
faces' vertices only, so they know nothing of F(I, J, K).

A face with one stored vertex is a 0-face, with two a 1-face (a segment),
with more a 2-face (a convex polygon).  For a polyhedral complex of the
closed square:
  * V - E + F = 1, its Euler characteristic;
  * the 2-faces' areas sum to exactly 1;
  * each 1-face is an edge of exactly two 2-faces, or of one on the
    square's boundary;
  * every edge of a 2-face polygon is a stored 1-face.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupcut.additivity import additive_face_report
from groupcut.catalog import kzh_function, psi_function, psi_prime_function
from groupcut.complex2d import Complex2D, ccw_hull_order
from groupcut.exactnum import QNum
from helpers import convex_minimal_family


def stored_faces(cx) -> list[tuple]:
    """Each stored face's vertices, as values."""
    _, points, _, starts, verts = cx.faces.ids()
    return [tuple(points[v] for v in verts[starts[n]:starts[n + 1]])
            for n in range(len(cx.faces))]


def _by_dim(faces) -> tuple[list, list, list]:
    out = ([], [], [])
    for vs in faces:
        out[min(len(vs) - 1, 2)].append(vs)
    return out


def _on_boundary(p, q) -> bool:
    """Both ends on one side of the square."""
    return any(p[c] == q[c] and p[c] in (0, 1) for c in (0, 1))


def complex_errors(faces) -> list[str]:
    """The invariants that fail on the faces' vertex tuples, one line
    each."""
    zero, one, two = _by_dim(faces)
    errors = []
    if len(zero) - len(one) + len(two) != 1:
        errors.append(f"V - E + F = {len(zero) - len(one) + len(two)}")
    area2 = QNum(0)  # twice the area, by the shoelace formula
    edges = Counter()
    for vs in two:
        ring = ccw_hull_order(vs)
        for p, q in zip(ring, ring[1:] + ring[:1]):
            area2 += p[0] * q[1] - q[0] * p[1]
            edges[frozenset((p, q))] += 1
    if area2 != 2:
        errors.append(f"the 2-faces have area {area2 / 2}")
    segments = {frozenset(vs) for vs in one}
    wrong = [s for s in segments
             if edges[s] != (1 if _on_boundary(*s) else 2)]
    if wrong:
        errors.append(f"{len(wrong)} 1-faces are not edges of two 2-faces, "
                      f"or of one on the boundary")
    if edges.keys() - segments:
        errors.append(f"{len(edges.keys() - segments)} polygon edges are not "
                      f"stored 1-faces")
    return errors


@pytest.mark.parametrize("fn, dims", [
    (psi_function, (65, 144, 80)), (psi_prime_function, (65, 144, 80)),
    (kzh_function, (4479, 9077, 4599))], ids=["psi", "psi_prime", "kzh"])
def test_the_catalog_complexes_tile_the_square(fn, dims):
    faces = stored_faces(additive_face_report(fn()).complex)
    assert tuple(map(len, _by_dim(faces))) == dims
    assert complex_errors(faces) == []


@st.composite
def _grid_breakpoints(draw):
    """0 and a few other points of a random 1/N grid, N <= 60."""
    n = draw(st.integers(2, 60))
    rest = draw(st.sets(st.integers(1, n - 1), max_size=min(n - 1, 9)))
    return [Fraction(i, n) for i in [0, *sorted(rest)]]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_grid_breakpoints())
def test_a_drawn_grid_complex_tiles_the_square(breakpoints):
    assert complex_errors(stored_faces(Complex2D(breakpoints))) == []


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_the_sqrt2_two_slope_complexes_tile_the_square(k):
    # the breakpoints of the two-slope function of f0 = sqrt2 - 1
    # composed with x -> kx
    f0 = QNum(-1, 1)
    breakpoints = sorted((i + c) / k for i in range(k) for c in (QNum(0), f0))
    assert complex_errors(stored_faces(Complex2D(breakpoints))) == []


def test_the_invariants_see_a_missing_face():
    # a square of four 1/2-sided triangles with one triangle left out, and
    # with one interior segment left out
    a, b, c, d, m = ((QNum(x), QNum(y)) for x, y in (
        (0, 0), (1, 0), (1, 1), (0, 1), (Fraction(1, 2), Fraction(1, 2))))
    corners = [(a,), (b,), (c,), (d,), (m,)]
    sides = [(a, b), (b, c), (c, d), (d, a), (a, m), (b, m), (c, m), (d, m)]
    triangles = [(a, b, m), (b, c, m), (c, d, m), (d, a, m)]

    assert complex_errors(corners + sides + triangles) == []
    assert complex_errors(corners + sides + triangles[1:]) == [
        "V - E + F = 0", "the 2-faces have area 3/4",
        "3 1-faces are not edges of two 2-faces, or of one on the boundary"]
    assert complex_errors(corners + sides[:-1] + triangles) == [
        "V - E + F = 2", "1 polygon edges are not stored 1-faces"]


def test_the_complexes_of_discontinuous_minimal_combinations_tile_the_square():
    # a near miss has the breakpoints, so the complex, of the function before
    for fn, _, parts in convex_minimal_family(29, 12):
        if parts is not None:
            cx = additive_face_report(fn).complex
            assert complex_errors(stored_faces(cx)) == []
