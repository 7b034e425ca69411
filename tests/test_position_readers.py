"""The covering, E-containment and epsilon code read the analysis by position.

Each is checked against the same code reading it by value, face by face and
slack record by slack record (``helpers.reference_*``), on seeded 1/N grid
functions, on pairs shaped like the random-grid benchmark's epsilon pairs and
on the catalog functions.  Results, witnesses and error messages must be
equal.  ``format_qnum`` is checked against the Fraction-form text.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupcut.additivity import ADDITIVE, additive_face_report, e_containment
from groupcut.catalog import kzh_function, psi_function, psi_prime_function
from groupcut.complex2d import Complex2D
from groupcut.covering import components
from groupcut.exactnum import QNum, format_qnum
from groupcut.perturbation import lipschitz_epsilon, scaling_epsilon
from groupcut.pwl import BreakpointRow, PwlFunction
from helpers import (convex_minimal_family, fresh_copy, gmic, grid_pairs,
                     random_pwl,
                     reference_covering, reference_directly_covered,
                     reference_e_containment,
                     reference_format_qnum, reference_lipschitz_epsilon,
                     reference_scaling_epsilon)


def _grid_functions(seed: int, count: int):
    """Seeded functions on random 1/N grids: two-slope functions and their
    images under x -> kx, midpoints of two of them, random continuous and
    random discontinuous tables."""
    rng = random.Random(seed)
    for i in range(count):
        q = rng.randrange(3, 13)
        f = Fraction(rng.randrange(1, q), q)
        style = i % 4
        if style == 0:
            yield gmic(f)
        elif style == 1:
            k = rng.choice((2, 3))
            yield gmic((f + rng.randrange(k)) / k, k, f)
        elif style == 2:
            yield next(grid_pairs(rng.randrange(10**6), 1))[0]
        else:
            xs = sorted({Fraction(0), f} | {Fraction(rng.randrange(q), q)
                                            for _ in range(3)})
            rows = []
            for x in xs:
                v = Fraction(rng.randint(0, q), q)
                v = 0 if x == 0 else 1 if x == f else v
                jump = rng.random() < 0.5
                rows.append((x, Fraction(rng.randint(0, q), q) if jump else v,
                             v, v))
            yield PwlFunction([BreakpointRow.of(*r) for r in rows], f)


def _outcome(fn, *args):
    """The result of a call, or the type and message of its error."""
    try:
        return fn(*args)
    except (ValueError, TypeError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _assert_covering_as_reference(fn):
    report = additive_face_report(fn)
    ref = additive_face_report(fresh_copy(fn))
    # the additive 2-D faces by position project onto the directly covered
    # spans; the moves of the additive edges are compared below
    direct = dict.fromkeys(
        (p.a - 1, p.b - 1) if p.a >= 1 else (p.a, p.b)
        for F in report.complex.faces.at(report.faces.positions(ADDITIVE))
        if F.dim == 2 for p in (F.p1, F.p2, F.p3))
    assert list(direct) == reference_directly_covered(ref)
    new, old = components(report), reference_covering(ref)
    assert new.components == old.components
    assert new.uncovered == old.uncovered
    assert [(m.kind, m.param, m.src, m.dst) for m in new.moves] == \
        [(m.kind, m.param, m.src, m.dst) for m in old.moves]


@pytest.mark.parametrize("breakpoints", [
    psi_function().breakpoints,
    (0, Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)),
    tuple(Fraction(k, 7) for k in range(7)),
    kzh_function().breakpoints,
], ids=["psi", "fifths", "sevenths", "kzh"])
def test_face_positions_ascend_in_triple_key_order(breakpoints):
    keys = [face.triple_key for face in Complex2D(breakpoints).faces]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_covering_on_grid_functions_is_the_reference():
    for fn in _grid_functions(1511, 40):
        _assert_covering_as_reference(fn)
    for fn in (random_pwl(random.Random(s)) for s in range(20)):
        _assert_covering_as_reference(fn)


@pytest.mark.parametrize("fn", [psi_function, psi_prime_function,
                                kzh_function], ids=lambda f: f.__name__)
def test_covering_on_the_catalog_is_the_reference(fn):
    fn = fresh_copy(fn())
    _assert_covering_as_reference(fn)
    assert components(additive_face_report(fn)).moves


def test_e_containment_is_the_reference():
    pairs = []
    for pi0, pert, pi1 in grid_pairs(1512, 8):
        pairs += [(pi0, pi1), (pi1, pi0), (pi0, pi0), (pi0 + pert, pi1)]
    fns = list(_grid_functions(1513, 12))
    pairs += list(zip(fns, fns[1:]))
    pairs.append((psi_function(), psi_prime_function()))
    relations = set()
    for a, b in pairs:
        got = e_containment(fresh_copy(a), fresh_copy(b))
        want = reference_e_containment(fresh_copy(a), fresh_copy(b))
        assert (got.relation, got.witness_only_in_first,
                got.witness_only_in_second) == \
            (want.relation, want.witness_only_in_first,
             want.witness_only_in_second)
        relations.add(got.relation)
    assert relations == {"equal", "strict_subset", "strict_superset",
                         "incomparable"}


def _epsilon_cases():
    """(fn, pert) pairs that reach every outcome of both epsilons."""
    triples = list(grid_pairs(1514, 8))
    for pi0, pert, pi1 in triples:
        yield pi0, pert           # both constants
        yield pi0, pert.scale(-3)
        yield pi1, pert           # pi1 is extreme: additivity not shared
        yield pi0, pert.scale(0)  # M == 0; never strains subadditivity
        yield pi0 + pert.scale(10), pert  # not minimal, beyond the bounds
    for (pi0, _, _), (_, pert, _) in zip(triples, triples[1:]):
        yield pi0, pert           # f may differ: both compare it first


def test_epsilons_are_the_reference():
    seen = {"lipschitz_epsilon": set(), "scaling_epsilon": set()}
    for fn, pert in _epsilon_cases():
        if fn.f != pert.f:
            for eps in (lipschitz_epsilon, scaling_epsilon):
                assert _outcome(eps, fn, pert) == (
                    ValueError, "cannot combine functions with different f")
            continue
        for new, old in ((lipschitz_epsilon, reference_lipschitz_epsilon),
                         (scaling_epsilon, reference_scaling_epsilon)):
            got = _outcome(new, fresh_copy(fn), fresh_copy(pert))
            assert got == _outcome(old, fresh_copy(fn), fresh_copy(pert))
            seen[new.__name__].add(" ".join(got[1].split()[:3])
                                   if isinstance(got, tuple) else "ok")
    assert seen == {
        "lipschitz_epsilon": {"ok", "base function is",
                              "perturbation is additive",
                              "additivity of the"},
        "scaling_epsilon": {"ok", "additivity of the",
                            "perturbation never strains"}}


# -- the text form of a QNum ---------------------------------------------------


def _convergents(n: int):
    """The first n convergents p/q of sqrt2."""
    p, q = 1, 1
    for _ in range(n):
        yield p, q
        p, q = p + 2 * q, p + q


_parts = st.one_of(
    st.just(0),
    st.integers(-10**45, 10**45),
    st.sampled_from([s * p for p, _ in _convergents(60) for s in (1, -1)]),
)
_dens = st.one_of(st.integers(1, 10**45),
                  st.sampled_from([q for _, q in _convergents(60)]))


@settings(max_examples=400, deadline=None)
@given(_parts, _dens, _parts, _dens)
def test_format_qnum_is_the_fraction_text(p, d, q, e):
    x = QNum(Fraction(p, d), Fraction(q, e))
    assert format_qnum(x) == reference_format_qnum(x) == str(x)
    assert QNum(format_qnum(x)) == x


def test_format_qnum_near_sqrt2():
    for p, q in _convergents(40):
        for x in (QNum(p, -q), QNum(-p, q), QNum(Fraction(p, q), -1),
                  QNum(0, Fraction(-p, q)), QNum(Fraction(-p, 3 * q))):
            assert format_qnum(x) == reference_format_qnum(x)


def test_covering_and_e_containment_on_discontinuous_minimal_combinations():
    # E(lambda A + (1 - lambda) B) is what E(A) and E(B) have in common,
    # so it is within E(A) and within E(B)
    relations = set()
    minimal = [(fn, parts) for fn, _, parts in convex_minimal_family(29, 12)
               if parts is not None]
    for i, (fn, (a, b)) in enumerate(minimal):
        _assert_covering_as_reference(fn)
        first, second = (fn, a) if i % 2 else (b, fn)
        got = e_containment(fresh_copy(first), fresh_copy(second))
        want = reference_e_containment(fresh_copy(first), fresh_copy(second))
        assert (got.relation, got.witness_only_in_first,
                got.witness_only_in_second) == \
            (want.relation, want.witness_only_in_first,
             want.witness_only_in_second)
        assert got.relation in (("equal", "strict_subset") if i % 2
                                else ("equal", "strict_superset"))
        relations.add(got.relation)
    assert relations == {"equal", "strict_subset", "strict_superset"}
