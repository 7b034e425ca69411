"""Relations that hold by a line of theory, checked on exact families.

Midpoint: for minimal pi1, pi2 with one f and pi0 = (pi1 + pi2)/2, the slack
of pi0 is the mean of two nonnegative slacks, so on a common complex pi0 is
additive exactly where both are; and pi0 -/+ pert with pert = (pi1 - pi2)/2
are pi2 and pi1, both minimal, so the scaling constant is at least 1 and the
perturbation is effective at 1.  As every one-sided limit of pi0 is the
mean of those of pi1 and pi2, its zero slacks are the common ones, also
where the functions jump.  The Q(sqrt2) family is the two-slope function
of f0 = sqrt2 - 1 composed with x -> kx, minimal for every k.

Homomorphism: pi_k(x) = pi(kx mod 1) with f/k has the slack
pi_k(x) + pi_k(y) - pi_k(x + y) = pi(kx) + pi(ky) - pi(kx + ky), and so do
its one-sided limits.  So pi_k is minimal with pi, and a face of pi_k is
additive iff the face of pi that holds the image of its relative interior
is.
"""

from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from groupcut.additivity import ADDITIVE, additive_face_report, minimality_test
from groupcut.catalog import psi_function, psi_prime_function
from groupcut.complex2d import centroid
from groupcut.exactnum import QNum
from groupcut.perturbation import scaling_epsilon, verify_effective
from groupcut.pwl import BreakpointRow, PwlFunction

from helpers import gmic, grid_pairs


def test_a_midpoint_is_additive_where_both_ends_are():
    for pi0, pert, pi1 in grid_pairs(7, 30):
        fns = (pi0, pi1, pi0 - pert)
        points = sorted({x for g in fns for x in g.breakpoints})
        a0, a1, a2 = (set(additive_face_report(g.refine(points))
                          .faces.positions(ADDITIVE)) for g in fns)
        assert a0 == a1 & a2


@st.composite
def _grid_pair(draw):
    """(pi0, pi1, pi2) drawn as ``grid_pairs`` draws them, on 1/q0 grids
    up to q0 = 60 and with k in {2, 3, 5}."""
    q0 = draw(st.integers(3, 60))
    k = draw(st.sampled_from((2, 3, 5)))
    f0 = Fraction(draw(st.integers(1, q0 - 1)), q0)
    f = (f0 + draw(st.integers(0, k - 1))) / k
    pi1, pi2 = gmic(f), gmic(f, k, f0)
    return (pi1 + pi2).scale(Fraction(1, 2)), pi1, pi2


_SEEDED = settings(derandomize=True, deadline=None, max_examples=25)


@_SEEDED
@given(_grid_pair())
def test_a_drawn_midpoint_is_additive_where_both_ends_are(fns):
    points = sorted({x for g in fns for x in g.breakpoints})
    a0, a1, a2 = (set(additive_face_report(g.refine(points))
                      .faces.positions(ADDITIVE)) for g in fns)
    assert a0 == a1 & a2


def test_a_midpoint_can_be_moved_to_both_ends():
    for pi0, pert, _ in grid_pairs(7, 30):
        eps = scaling_epsilon(pi0, pert)
        assert eps >= 1
        assert minimality_test(pi0 - pert.scale(eps))
        assert verify_effective(pi0, pert, 1)


@pytest.mark.parametrize("k, faces, additive", [
    (1, 39, 20), (2, 137, 61), (3, 295, 124), (5, 791, 316)])
def test_the_sqrt2_two_slope_family(k, faces, additive):
    f0 = QNum(-1, 1)  # sqrt2 - 1
    fn = gmic(f0 / k, k, f0)
    assert minimality_test(fn)
    report = additive_face_report(fn)
    assert len(report.faces) == faces
    assert len(report.faces.positions(ADDITIVE)) == additive


def _zero_slacks(fn, points):
    """The (face position, vertex index) pairs where fn's slack is 0."""
    return {(n, i) for n, c in enumerate(additive_face_report(
                fn.refine(points)).faces)
            for i, slack in enumerate(c.slack_sides[::2]) if slack == 0}


def test_a_discontinuous_midpoint_has_the_common_zero_slacks():
    psi, prime = psi_function(), psi_prime_function()
    mid = (psi + prime).scale(Fraction(1, 2))
    points = sorted({x for g in (psi, prime) for x in g.breakpoints})
    z0, z1, z2 = (_zero_slacks(g, points) for g in (mid, psi, prime))
    assert z0 == z1 & z2
    assert (len(z0), len(z1), len(z2)) == (196, 229, 241)


def _compose(fn: PwlFunction, k: int) -> PwlFunction:
    """x -> fn(kx mod 1), with f/k: row r of fn at each (i + r.x)/k."""
    rows = [BreakpointRow((i + r.x) / k, r.left, r.value, r.right)
            for i in range(k) for r in fn.rows]
    return PwlFunction(rows, fn.f / k)


def _homomorphism_inputs():
    f0 = QNum(-1, 1)
    yield from (gmic(f0), psi_function(), psi_prime_function())
    for pi0, pert, _ in islice(grid_pairs(7, 30), 5):
        yield pi0 - pert


@pytest.mark.parametrize("k", (2, 3))
def test_a_homomorphic_image_is_additive_where_its_image_is(k):
    for fn in _homomorphism_inputs():
        fk = _compose(fn, k)
        assert minimality_test(fk)
        report = additive_face_report(fn)
        for c in additive_face_report(fk).faces:
            u, v = centroid(c.face.vertices)
            image = report.complex.face_of_point((k * u).mod1(),
                                                 (k * v).mod1())
            assert (c.status == ADDITIVE) == \
                (report.classification_of(image).status == ADDITIVE), \
                c.face.label()


@settings(_SEEDED, max_examples=10)  # an image has up to 36 breakpoints
@given(_grid_pair(), st.sampled_from((2, 3)))
def test_a_drawn_midpoint_has_homomorphic_images(fns, k):
    pi0 = fns[0]
    fk = _compose(pi0, k)
    assert minimality_test(fk)
    report = additive_face_report(pi0)
    for c in additive_face_report(fk).faces:
        u, v = centroid(c.face.vertices)
        image = report.complex.face_of_point((k * u).mod1(), (k * v).mod1())
        assert (c.status == ADDITIVE) == \
            (report.classification_of(image).status == ADDITIVE), \
            c.face.label()
