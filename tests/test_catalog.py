"""Catalog functions: fixed tables, derived constants, cosets, lifting."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupcut.exactnum import QNum
import groupcut.catalog as cat
from groupcut.catalog import (
    kzh_function, kzh_params, psi_function, psi_prime_function,
    lifted_function, coset_classify, reduced_pair, catalog_names,
    get,
    FIXED_C, PLUS_CPLUS, MINUS,
)

Q = lambda *a: QNum(Fraction(*a))


# -- psi and psi_prime -----------------------------------------------------------

def test_psi_table():
    fn = psi_function()
    assert fn.f == Q(1, 2)
    xs = [r.x for r in fn.rows]
    assert xs == [Q(0), Q(1, 8), Q(3, 8), Q(1, 2), Q(5, 8), Q(7, 8)]
    r0 = fn.rows[0]
    # jump at the origin: the limit from below (at 1^-) is 1/2
    assert (r0.left, r0.value, r0.right) == (Q(1, 2), Q(0), Q(0))
    assert fn.eval(Q(1, 2)) == QNum(1)
    assert not fn.is_continuous


def test_psi_prime_differs_only_on_middle_plateau():
    a, b = psi_function(), psi_prime_function()
    assert a.f == b.f
    diff = [(ra.x, ra, rb) for ra, rb in zip(a.rows, b.rows) if ra != rb]
    xs = [x for x, _, _ in diff]
    assert xs == [Q(1, 8), Q(3, 8)]
    # both plateaus flatten: left limit joins the value
    assert b.rows[1].left == b.rows[1].value == Q(1, 4)
    assert b.rows[2].left == b.rows[2].value == Q(3, 4)


def test_psi_symmetry_values():
    fn = psi_function()
    for r in fn.rows:
        assert fn.eval(fn.f - r.x) + r.value == QNum(1)


# -- the 40-row table ------------------------------------------------------------

def test_kzh_table_shape_and_spot_values():
    fn = kzh_function()
    p = kzh_params()
    assert len(fn.rows) == 40
    assert fn.f == Q(4, 5)

    r = fn.rows[0]
    assert (r.x, r.left, r.value) == (Q(0), Q(101, 650), Q(0))
    r = fn.rows[17]
    assert r.x == p.l
    assert (r.left, r.value, r.right) == (Q(933, 2080), Q(933, 2080),
                                          Q(51443, 147680))
    r = fn.rows[18]
    assert r.x == p.u
    assert (r.left, r.value, r.right) == (Q(668809, 1919840), Q(683, 2080),
                                          Q(683, 2080))
    r = fn.rows[37]
    assert (r.x, r.left, r.value) == (Q(4, 5), Q(549, 650), QNum(1))
    r = fn.rows[39]
    assert (r.x, r.left, r.value) == (Q(4899, 5000), Q(101, 1000),
                                      Q(3333, 13000))


def test_kzh_is_discontinuous_piecewise_linear():
    fn = kzh_function()
    assert not fn.is_continuous
    jumps = [r for r in fn.rows if r.left != r.value or r.value != r.right]
    assert len(jumps) >= 20


def test_kzh_slopes_take_exactly_three_values():
    fn = kzh_function()
    p = kzh_params()
    assert set(fn.slopes) == {p.c1, p.c2, p.c3}
    assert fn.slopes.count(p.c2) == 2  # only the two shallow special pieces


def test_kzh_symmetry_pairing():
    fn = kzh_function()
    rows = fn.rows
    for i in range(38):
        assert rows[i].x + rows[37 - i].x == fn.f
        assert rows[i].value + rows[37 - i].value == QNum(1)
    assert rows[38].x + rows[39].x == fn.f + QNum(1)
    assert rows[38].value + rows[39].value == QNum(1)


def test_kzh_parameter_identities():
    p = kzh_params()
    assert p.a1 == p.a0 + p.t1
    assert p.a2 == p.a0 + p.t2
    assert p.a2 == Q(14199, 64600)
    assert p.t1 == QNum(0, Fraction(77, 7752))
    assert p.t2 == Q(77, 2584)
    assert p.u - p.l == Q(1, 16)
    assert p.l + p.u < p.f
    assert p.s == Q(19, 23998)


def test_kzh_derived_jump_constant():
    fn = kzh_function()
    p = kzh_params()
    x39 = fn.rows[39].x
    s = fn.rows[39].left + fn.eval(QNum(1) + p.l - x39) - fn.eval(p.l)
    assert s == p.s


def test_kzh_special_intervals():
    fn = kzh_function()
    p = kzh_params()
    assert fn.special_intervals == ((p.l, p.u), (p.f - p.u, p.f - p.l))


# -- cosets inside the special intervals -----------------------------------------

def test_group_membership():
    p = kzh_params()
    assert reduced_pair(p.t1) == (0, 0)
    assert reduced_pair(p.t2) == (0, 0)
    assert reduced_pair(p.t1 + p.t2) == (0, 0)
    assert reduced_pair(QNum(0) - p.t2) == (0, 0)
    assert reduced_pair(p.t2 / QNum(2)) != (0, 0)
    assert reduced_pair(QNum(0, Fraction(1, 3))) != (0, 0)


def test_coset_classification_is_shift_invariant():
    p = kzh_params()
    mid = (p.l + p.u) / QNum(2)
    assert coset_classify(mid) == FIXED_C
    for shift in (p.t1, QNum(0) - p.t1, p.t2, QNum(0) - p.t2, p.t1 - p.t2):
        assert coset_classify(mid + shift) == FIXED_C
        assert reduced_pair(mid + shift) == reduced_pair(mid)


def test_coset_classes_and_mirror():
    p = kzh_params()
    cases = [(p.l + p.t2, PLUS_CPLUS), (p.l + p.t1, PLUS_CPLUS),
             (p.u - p.t2, MINUS), ((p.l + p.u) / QNum(2), FIXED_C)]
    for x, want in cases:
        assert coset_classify(x) == want
        # the mirror point keeps its coset label on the reflected interval
        assert coset_classify(p.f - x) == want


def test_coset_classify_rejects_boundary_and_outside():
    p = kzh_params()
    with pytest.raises(ValueError):
        coset_classify(p.l)
    with pytest.raises(ValueError):
        coset_classify(p.u)
    with pytest.raises(ValueError):
        coset_classify(Q(1, 10))



# the coset key against its definition: y and c share a coset iff
# (y - c).a / t2 and (y - c).b / (t1/sqrt2) are integers

def _same_coset(y, c):
    p = kzh_params()
    d = y - c
    return ((d.a / p.t2.a).denominator == 1
            and (d.b / p.t1.b).denominator == 1)


def _reference_class(x):
    p = kzh_params()
    y = x if p.l < x < p.u else p.f - x
    half = (p.l + p.u) / 2
    reps = (half, half - p.t1 / 2, half - p.t2 / 2,
            half - (p.t1 + p.t2) / 2)
    if any(_same_coset(y, c) for c in reps):
        return FIXED_C
    key = lambda z: (z.a % p.t2.a, z.b % p.t1.b)
    return PLUS_CPLUS if key(y) < key(p.l + p.u - y) else MINUS


def _lattice_points():
    """c + i*t1 + j*t2 inside (l, u), |i| <= 60, |j| <= 8, with mirrors."""
    p = kzh_params()
    half = (p.l + p.u) / 2
    bases = [half, half - p.t1 / 2, half - p.t2 / 2,
             half - (p.t1 + p.t2) / 2,
             p.l + Q(1, 997), half + QNum(0, Fraction(1, 7919)),
             p.l + QNum(Fraction(1, 50), Fraction(-1, 100))]
    out = []
    for c in bases:
        for i in range(-60, 61):
            for j in range(-8, 9):
                x = c + p.t1 * i + p.t2 * j
                if p.l < x < p.u:
                    out += [x, p.f - x]
    return out


def test_coset_key_matches_its_definition_on_lattices():
    p = kzh_params()
    lf = lifted_function()
    sign = {FIXED_C: 0, PLUS_CPLUS: 1, MINUS: -1}
    points = _lattice_points()
    seen = set()
    for x in points:
        want = _reference_class(x)
        seen.add(want)
        assert coset_classify(x) == want, x
        assert lf.sigma(x) == (sign[want] if p.l < x < p.u
                               else -sign[want]), x
    assert seen == {FIXED_C, PLUS_CPLUS, MINUS}
    assert len(points) > 500


def _near_group(unit):
    """Rationals that are often in unit*Z, and often just off it."""
    return st.one_of(
        st.fractions(max_denominator=10**6),
        st.builds(lambda k, m: Fraction(k, m) * unit,
                  st.integers(-50, 50), st.integers(1, 4)))


@settings(max_examples=300)
@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4),
       _near_group(Fraction(77, 2584)), _near_group(Fraction(77, 7752)))
def test_in_group_t_matches_quotient_definition(i, j, da, db):
    p = kzh_params()
    q = p.t1 * i + p.t2 * j + QNum(da, db)
    assert (reduced_pair(q) == (0, 0)) == _same_coset(q, QNum(0))

# -- the lifted function ---------------------------------------------------------

def test_lifted_matches_base_off_the_special_intervals():
    lf = lifted_function()
    base = kzh_function()
    for x in (Q(0), Q(1, 10), Q(4, 5), Q(9, 10), Q(219, 800)):
        assert lf.sigma(x) == 0
        assert lf.eval(x) == base.eval(x)


def test_lifted_shifts_by_sigma_times_s():
    lf = lifted_function()
    base = kzh_function()
    p = kzh_params()
    x = p.l + p.t2
    assert lf.sigma(x) == 1
    assert lf.eval(x) == base.eval(x) + p.s
    y = p.u - p.t2
    assert lf.sigma(y) == -1
    assert lf.eval(y) == base.eval(y) - p.s
    mid = (p.l + p.u) / QNum(2)
    assert lf.sigma(mid) == 0
    assert lf.eval(mid) == base.eval(mid)


def test_lifted_symmetry_on_moved_points():
    lf = lifted_function()
    p = kzh_params()
    for x in (p.l + p.t2, p.l + p.t1, p.u - p.t2, (p.l + p.u) / QNum(2),
              p.l + p.t1 + p.t2):
        assert lf.sigma(p.f - x) == -lf.sigma(x)
        assert lf.eval(x) + lf.eval(p.f - x) == QNum(1)


def test_lifted_metadata():
    lf = lifted_function()
    assert lf.f == Q(4, 5)
    assert lf.base is kzh_function()
    assert lf.special_intervals == kzh_function().special_intervals
    assert "kzh_lifted" in repr(lf)


# -- registry --------------------------------------------------------------------

def test_catalog_registry():
    assert catalog_names() == ["kzh", "kzh_lifted", "psi", "psi_prime"]
    assert get("psi") is psi_function()
    assert get("kzh_lifted") is lifted_function()
    with pytest.raises(KeyError):
        get("nope")


def _catalog_under_O(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(cat.__file__))
    return subprocess.run(
        [sys.executable, "-O", "-c", "import groupcut.catalog as c; " + code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src})


def test_self_checks_survive_python_O():
    assert _catalog_under_O("c.kzh_function()").returncode == 0
    # one value off its symmetry partner: 2727/13000 + 10273/13000 != 1
    bad = _catalog_under_O(
        "c._KZH_ROWS[1] = c._KZH_ROWS[1][:2] + ('2728/13000',) "
        "+ c._KZH_ROWS[1][3:]; c.kzh_function()")
    assert bad.returncode != 0
    assert "ArithmeticError: rows 1,36" in bad.stderr
