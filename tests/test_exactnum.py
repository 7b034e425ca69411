"""Field arithmetic, ordering, and grammar round-trips for QNum."""

import math
import random
import sys
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupcut.complex2d import Interval
from groupcut.exactnum import QNum, parse_qnum, format_qnum
from groupcut.pwl import BreakpointRow, PwlFunction

rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)
qnums = st.builds(QNum, rationals, rationals)


@given(qnums, qnums, qnums)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + QNum(0) == x
    assert x * QNum(1) == x
    assert x - x == QNum(0)


@given(qnums)
def test_field_inverse(x):
    if x != 0:
        assert x * (QNum(1) / x) == QNum(1)
        assert (x / x) == 1
    assert -(-x) == x
    assert abs(x) >= 0
    assert abs(x) in (x, -x)


@given(qnums, qnums)
def test_order_total_and_compatible(x, y):
    assert (x < y) + (x == y) + (x > y) == 1
    if x < y:
        assert x + 1 < y + 1
        assert 2 * x < 2 * y
        assert -y < -x


def test_sqrt2_squares_to_two():
    r2 = QNum(0, 1)
    assert r2 * r2 == 2
    assert r2 > 0
    assert QNum(1) < r2 < QNum(2)
    assert r2 ** 2 == 2
    assert (1 / r2) == r2 / 2


def test_irrationality_detection():
    assert QNum(Fraction(3, 7)).is_rational()
    assert not QNum(0, Fraction(1, 10**9)).is_rational()
    # a + b*sqrt2 = 0 only for a = b = 0
    assert QNum(1, 1) != 0
    assert QNum(-1, 1) != 0


def test_comparison_against_high_precision_decimal():
    getcontext().prec = 100
    r2 = Decimal(2).sqrt()
    rng = random.Random(12345)
    for _ in range(10000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        c = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        d = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        x, y = QNum(a, b), QNum(c, d)
        dx = (Decimal(a.numerator) / a.denominator
              + Decimal(b.numerator) / b.denominator * r2)
        dy = (Decimal(c.numerator) / c.denominator
              + Decimal(d.numerator) / d.denominator * r2)
        if x == y:
            assert abs(dx - dy) < Decimal("1e-90")
        elif x < y:
            assert dx < dy
        else:
            assert dx > dy


@given(qnums)
def test_floor_and_mod1(x):
    n = x.floor()
    assert isinstance(n, int)
    assert QNum(n) <= x < QNum(n + 1)
    m = x.mod1()
    assert QNum(0) <= m < QNum(1)
    assert (x - m).is_rational()
    assert Fraction((x - m).a).denominator == 1


def test_floor_matches_float_on_safe_values():
    rng = random.Random(6)
    for _ in range(2000):
        a = Fraction(rng.randint(-400, 400), rng.randint(1, 12))
        b = Fraction(rng.randint(-400, 400), rng.randint(1, 12))
        x = QNum(a, b)
        f = float(a) + float(b) * math.sqrt(2)
        # keep clear of ties, where float rounding could legitimately differ
        if abs(f - round(f)) > 1e-6:
            assert x.floor() == math.floor(f)


@given(qnums)
def test_grammar_round_trip(x):
    assert parse_qnum(str(x)) == x
    assert parse_qnum(format_qnum(x)) == x


def test_grammar_fixed_forms():
    assert parse_qnum("19/100 + 77/7752*sqrt2") == QNum(
        Fraction(19, 100), Fraction(77, 7752))
    assert parse_qnum("77/7752*sqrt2 + 19/100") == QNum(
        Fraction(19, 100), Fraction(77, 7752))
    assert parse_qnum("-sqrt2") == QNum(0, -1)
    assert parse_qnum("1/2*sqrt2") == QNum(0, Fraction(1, 2))
    assert parse_qnum("3 - sqrt2") == QNum(3, -1)
    assert parse_qnum("0") == QNum(0)
    assert str(QNum(0)) == "0"
    assert str(QNum(Fraction(-1, 2))) == "-1/2"
    assert str(QNum(0, 1)) == "1*sqrt2"
    assert str(QNum(1, -1)) == "1 - 1*sqrt2"


@pytest.mark.parametrize("bad", ["", "1 +", "sqrt3", "1/0", "sqrt2/2",
                                 "1 + 2*sqrt2 + 3", "x", "--1"])
def test_grammar_rejects(bad):
    with pytest.raises(ValueError):
        parse_qnum(bad)


def test_hash_matches_fraction_for_rationals():
    for v in (0, 1, -1, Fraction(3, 7), Fraction(-22, 5)):
        assert hash(QNum(v)) == hash(Fraction(v))
        assert QNum(v) == Fraction(v)
    d = {QNum(Fraction(1, 2)): "half"}
    assert d[Fraction(1, 2)] == "half"
    # irrational keys must be stable and distinct from their rational part
    assert hash(QNum(1, 1)) == hash(QNum(1, 1))


def test_mixed_mode_arithmetic():
    x = QNum(1, 1)
    assert x + 1 == QNum(2, 1)
    assert 1 + x == QNum(2, 1)
    assert x - Fraction(1, 2) == QNum(Fraction(1, 2), 1)
    assert Fraction(1, 2) - x == QNum(Fraction(-1, 2), -1)
    assert 2 * x == QNum(2, 2)
    assert x / 2 == QNum(Fraction(1, 2), Fraction(1, 2))
    assert 2 / QNum(0, 1) == QNum(0, 1)
    with pytest.raises(ZeroDivisionError):
        x / QNum(0)


def test_a_float_is_refused_where_a_number_is_built():
    # QNum(0.1) would be the binary fraction 3602879701896397/2**55, not 1/10
    for args in ((0.1,), (float("inf"),), (1, 0.5), (0.5, 0)):
        with pytest.raises(TypeError, match="float"):
            QNum(*args)
    with pytest.raises(TypeError):
        QNum.of(0.25)
    with pytest.raises(TypeError):
        Interval(0, 0.5)
    with pytest.raises(TypeError):
        BreakpointRow.of(0, 0, 0.0, 0)
    with pytest.raises(TypeError):
        PwlFunction.continuous_from_values([(0, 0), (Fraction(1, 2), 1)], 0.5)
    with pytest.raises(TypeError):
        QNum(1) + 0.5
    with pytest.raises(TypeError):
        QNum(1) < 0.5
    assert QNum("1/10") == QNum(Fraction(1, 10)) == QNum.of(Decimal("0.1"))


def test_sign():
    assert QNum(0).sign() == 0
    assert QNum(1, -1).sign() == -1  # 1 < sqrt2
    assert QNum(3, -2).sign() == 1   # 3 > 2*sqrt2
    assert QNum(-3, 2).sign() == -1
    assert QNum(Fraction(17, 12), -1).sign() == 1  # 17/12 > sqrt2
    assert QNum(Fraction(-24, 17), 1).sign() == 1  # sqrt2 > 24/17


# -- the integer core against Fraction pairs and sympy ---------------------------

from helpers import pair_div, pair_floor, pair_mul, pair_of, pair_sign  # noqa: E402

huge_parts = st.builds(Fraction, st.integers(-10**45, 10**45),
                       st.integers(1, 10**35))
wide_qnums = st.builds(QNum, st.one_of(rationals, huge_parts),
                       st.one_of(rationals, huge_parts))


def sqrt2_convergent(k: int) -> tuple[int, int]:
    """p/q, the k-th convergent of sqrt2: |p - q*sqrt2| < 1/q."""
    p, q = 1, 1
    for _ in range(k):
        p, q = p + 2 * q, p + q
    return p, q


@st.composite
def nearly_cancelling(draw, max_k: int = 120):
    """shift + scale*(p - q*sqrt2): parts up to about 10^46, value within
    about 1/q of an integer."""
    p, q = sqrt2_convergent(draw(st.integers(0, max_k)))
    scale = draw(st.sampled_from((1, -1, Fraction(1, 3), Fraction(-7, 5))))
    shift = draw(st.integers(-3, 3))
    return QNum(shift + scale * p, -scale * q)


numbers = st.one_of(qnums, wide_qnums, nearly_cancelling())


@settings(max_examples=300)
@given(numbers, numbers)
def test_field_operations_match_fraction_pairs(x, y):
    (a, b), (c, d) = pair_of(x), pair_of(y)
    assert pair_of(x + y) == (a + c, b + d)
    assert pair_of(x - y) == (a - c, b - d)
    assert pair_of(x * y) == pair_mul((a, b), (c, d))
    if y != 0:
        assert pair_of(x / y) == pair_div((a, b), (c, d))
        assert (x * y) / y == x  # another route to the same canonical form
        assert hash((x * y) / y) == hash(x)


@settings(max_examples=300)
@given(numbers, numbers)
def test_order_matches_fraction_pairs(x, y):
    (a, b), (c, d) = pair_of(x), pair_of(y)
    s = pair_sign((a - c, b - d))
    assert ((x < y), (x <= y), (x == y), (x >= y), (x > y)) == (
        s < 0, s <= 0, s == 0, s >= 0, s > 0)
    assert x.sign() == pair_sign((a, b))
    n = pair_floor((a, b))
    assert (x < n, x >= n, x < n + 1) == (False, True, True)
    assert (x > Fraction(n), x == Fraction(n)) == (x != n, x == n)


@settings(max_examples=300)
@given(numbers)
def test_floor_and_mod1_match_fraction_pairs(x):
    n = x.floor()
    assert n == pair_floor(pair_of(x))
    m = x.mod1()
    assert pair_of(m) == (x.a - n, x.b)
    assert 0 <= m < 1
    if n == 0:
        assert m is x


@given(numbers, numbers)
def test_hash_agrees_with_equality_and_fraction(x, y):
    if x == y:
        assert hash(x) == hash(y)
    r = QNum(x.a)  # the rational part alone
    assert hash(r) == hash(x.a) and r == x.a
    assert {x.a: "r"}[r] == "r"


def test_hash_of_denominators_without_an_inverse():
    modulus = sys.hash_info.modulus  # Fraction hashes these as inf
    for v in (Fraction(1, modulus), Fraction(-3, 2 * modulus)):
        assert hash(QNum(v)) == hash(v)


MODULUS = sys.hash_info.modulus  # 2**61 - 1 on 64-bit builds

denominators = st.one_of(
    st.integers(2, 10**4), st.integers(10**18, 10**40),
    st.builds(lambda k: k * MODULUS, st.integers(1, 10**6)))


@settings(max_examples=300, derandomize=True)
@given(st.integers(-10**30, 10**30), denominators)
def test_rational_hash_is_the_fraction_hash(p, d):
    x = Fraction(p, d)
    for v in (x, -x, x + 1, 1 / x if p else x):
        assert hash(QNum(v)) == hash(v)
        assert hash(QNum(v)) == hash(QNum(v))  # a second, cached, hash
    # a dict with QNum, Fraction and int keys finds each entry by any of
    # the three types
    values = [x, Fraction(p + 1, d), Fraction(p)]
    mixed = {QNum(x): "qnum", Fraction(p + 1, d): "fraction", p: "int"}
    for v in values:
        assert mixed[QNum(v)] == mixed[v]
        if v.denominator == 1:
            assert mixed[int(v)] == mixed[v]


@settings(max_examples=60, deadline=None)
@given(st.one_of(qnums, wide_qnums, nearly_cancelling(max_k=30)), qnums)
def test_floor_and_order_match_sympy(x, y):
    sympy = pytest.importorskip("sympy")

    def sym(q):
        return (sympy.Rational(q.a.numerator, q.a.denominator)
                + sympy.Rational(q.b.numerator, q.b.denominator)
                * sympy.sqrt(2))

    # sympy.floor evaluates at a fixed precision and misjudges values such
    # as -5378788792/5 + 760675608*sqrt2 = 2.99999999909..., so it is
    # given the value to 120 digits
    assert x.floor() == int(sympy.floor(sym(x).evalf(120)))
    assert (x < y) == bool(sym(x) < sym(y))


def test_floor_of_powers_of_one_minus_sqrt2_is_exact_and_fast():
    # (1 - sqrt2)^n lies in (0, 1) for even n and in (-1, 0) for odd n,
    # with parts near 2.4^n; a float guess at the floor is useless here
    base = 1 - QNum(0, 1)
    t0 = time.perf_counter()
    for n in range(1, 1001):
        x = base ** n
        assert x.floor() == (0 if n % 2 == 0 else -1)
        assert x.mod1() == (x if n % 2 == 0 else x + 1)
    assert time.perf_counter() - t0 < 30


def test_a_text_or_qnum_first_part_takes_no_second():
    with pytest.raises(ValueError, match="already fixes both parts"):
        QNum("1/2", 1)
    with pytest.raises(ValueError, match="two sqrt2 terms"):
        parse_qnum("sqrt2 + 2*sqrt2")


def test_an_operand_that_does_not_mix_is_not_implemented():
    x, other = QNum(1, 1), object()
    for op in (lambda: x - other, lambda: x * other, lambda: x / other,
               lambda: x ** -1, lambda: x ** Fraction(1, 2)):
        with pytest.raises(TypeError):
            op()
    assert (x == other) is False
    assert +x is x
    assert repr(x) == "QNum('1 + 1*sqrt2')"
