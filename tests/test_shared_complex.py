"""Functions compared over one breakpoint set share one complex.

``e_containment``, ``scaling_epsilon``, ``verify_effective`` and
``verify_psi_separation`` analyse all their functions on one ``Complex2D``.
Each shared analysis must classify the faces exactly as a fresh copy of its
function analysed alone, and every result must be the one that analysing
each function on its own complex gives.
"""

from fractions import Fraction

import pytest

from groupcut import additivity, perturbation, verify
from groupcut.additivity import (additive_face_report, e_containment,
                                 minimality_test)
from groupcut.catalog import psi_function, psi_prime_function
from groupcut.complex2d import Complex2D
from groupcut.diagram import classification_digest
from groupcut.perturbation import (lipschitz_epsilon, scaling_epsilon,
                                   verify_effective)
from groupcut.verify import verify_psi_separation
from helpers import fresh_copy, gmic, grid_pairs


@pytest.fixture
def builds(monkeypatch):
    """The breakpoint count of every ``Complex2D`` built from here on."""
    built = []
    real = Complex2D.__init__

    def counting(self, breakpoints):
        built.append(len(breakpoints))
        real(self, breakpoints)

    monkeypatch.setattr(Complex2D, "__init__", counting)
    return built


@pytest.fixture
def swept(monkeypatch):
    """(function, complex) of every sweep from here on."""
    seen = []
    real = additivity._sweep

    def recording(fn, cx):
        seen.append((fn, cx))
        return real(fn, cx)

    monkeypatch.setattr(additivity, "_sweep", recording)
    return seen


def _alone(monkeypatch):
    """From here on every function is analysed on its own complex."""
    def alone(fns, kin=()):
        return [additive_face_report(g) for g in fns]

    for mod in (additivity, perturbation, verify):
        monkeypatch.setattr(mod, "_analyses", alone)


def _chain(pi0, pert, pi1):
    rel = e_containment(pi0, pi1)
    lip = lipschitz_epsilon(pi0, pert)
    return (rel, lip, verify_effective(pi0, pert, lip.eps),
            scaling_epsilon(pi0, pert))


def _assert_digests_as_alone(swept):
    for fn, cx in list(swept):
        assert fn._analysis.complex is cx
        assert classification_digest(fn._analysis) == \
            classification_digest(additive_face_report(fresh_copy(fn)))


def test_an_epsilon_chain_builds_one_complex(builds, swept, monkeypatch):
    for pi0, pert, pi1 in grid_pairs(20261019, 6):
        del builds[:], swept[:]
        shared = _chain(pi0, pert, pi1)
        assert len(builds) == 1
        # pi0, pi1 refined, pi0 + eps*pert, pi0 - eps*pert and pert
        assert len(swept) == 5 and len({id(cx) for _, cx in swept}) == 1
        assert bool(shared[2])
        _assert_digests_as_alone(swept)
        with monkeypatch.context() as m:
            _alone(m)
            del builds[:]
            assert _chain(*map(fresh_copy, (pi0, pert, pi1))) == shared
            assert len(builds) == 5


def test_psi_separation_on_one_complex(builds, swept, monkeypatch):
    psi, prime = psi_function(), psi_prime_function()
    del builds[:], swept[:]  # the catalog's own checks
    shared = verify_psi_separation(fresh_copy(psi), fresh_copy(prime))
    assert shared and len(builds) == 1
    assert len(swept) == 2 and swept[0][1] is swept[1][1]
    _assert_digests_as_alone(swept)
    with monkeypatch.context() as m:
        _alone(m)
        alone = verify_psi_separation(fresh_copy(psi), fresh_copy(prime))
    assert alone.as_dict() == shared.as_dict()


def test_functions_analysed_in_separate_calls_build_separate_complexes(
        builds):
    one, two = gmic(Fraction(2, 3)), gmic(Fraction(2, 3))
    assert one.breakpoints == two.breakpoints
    assert additive_face_report(one).complex is not \
        additive_face_report(two).complex
    assert len(builds) == 2


def test_effective_check_builds_nothing_when_the_cheap_checks_fail(builds):
    pi0, pert, _ = next(grid_pairs(7, 1))
    result = verify_effective(pi0, pert, 10)
    assert (result.plus.failure, result.minus.failure) == ("bounds",
                                                           "bounds")
    assert builds == []
    assert not minimality_test(pi0 + pert.scale(10)) and builds == []


def test_functions_analysed_together_need_one_breakpoint_set():
    with pytest.raises(ValueError, match="different breakpoints"):
        additivity._analyses((gmic(Fraction(1, 2)), gmic(Fraction(2, 3))))
