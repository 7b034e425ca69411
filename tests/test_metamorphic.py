"""Relations that hold by a line of theory, checked on exact families.

Midpoint: for minimal pi1, pi2 with one f and pi0 = (pi1 + pi2)/2, the slack
of pi0 is the mean of two nonnegative slacks, so on a common complex pi0 is
additive exactly where both are; and pi0 -/+ pert with pert = (pi1 - pi2)/2
are pi2 and pi1, both minimal, so the scaling constant is at least 1 and the
perturbation is effective at 1.  The Q(sqrt2) family is the two-slope
function of f0 = sqrt2 - 1 composed with x -> kx, minimal for every k.
"""

import pytest

from groupcut.additivity import ADDITIVE, additive_face_report, minimality_test
from groupcut.exactnum import QNum
from groupcut.perturbation import scaling_epsilon, verify_effective

from helpers import gmic, grid_pairs


def test_a_midpoint_is_additive_where_both_ends_are():
    for pi0, pert, pi1 in grid_pairs(7, 30):
        fns = (pi0, pi1, pi0 - pert)
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
