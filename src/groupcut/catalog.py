"""Built-in exact functions and the coset machinery for the lifted variant.

Four entries:

  * ``psi``: a discontinuous minimal function with f = 1/2 whose
    additivity domain is a strict subset of ``psi_prime``'s;
  * ``psi_prime``: equal to 2x on [0, 1/2] and to psi beyond;
  * ``kzh``: a 40-breakpoint minimal function with f = 4/5, two special
    intervals carrying slope c2, and irrational breakpoints involving
    sqrt2.  Every row below lists (x, left limit, value, right limit);
    construction cross-validates the expected slope pattern, the symmetry
    pairing of rows, and the derived constant s;
  * ``kzh_lifted``: a non-piecewise-linear modification of ``kzh`` that
    moves values by +/-s on a dense family of cosets inside the special
    intervals, chosen so that all additivities of kzh survive exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .additivity import minimality_test
from .exactnum import QNum, Rat, parse_qnum
from .pwl import BreakpointRow, PwlFunction

# -- psi and psi_prime -------------------------------------------------------

_PSI_ROWS = [
    # x, left, value, right
    ("0",   "1/2", "0",   "0"),
    ("1/8", "3/4", "1/4", "1/4"),
    ("3/8", "3/4", "3/4", "1/4"),
    ("1/2", "1",   "1",   "1/2"),
    ("5/8", "3/4", "3/4", "3/4"),
    ("7/8", "1/4", "1/4", "1/4"),
]

_PSI_PRIME_ROWS = [
    ("0",   "1/2", "0",   "0"),
    ("1/8", "1/4", "1/4", "1/4"),
    ("3/8", "3/4", "3/4", "3/4"),
    ("1/2", "1",   "1",   "1/2"),
    ("5/8", "3/4", "3/4", "3/4"),
    ("7/8", "1/4", "1/4", "1/4"),
]


def _rows(data) -> list[BreakpointRow]:
    return [BreakpointRow(*(parse_qnum(c) for c in row)) for row in data]


def _check(ok: bool, what: str) -> None:
    """A self-check of the built-in data, kept under ``python -O``."""
    if not ok:
        raise ArithmeticError(what)


@lru_cache(maxsize=None)
def psi_function() -> PwlFunction:
    fn = PwlFunction(_rows(_PSI_ROWS), Fraction(1, 2), name="psi")
    # shape checks the construction is known by
    _check(fn.eval(Fraction(1, 8)) == Fraction(1, 4), "psi(1/8) is not 1/4")
    _check(fn.slopes[0] == 6, "psi does not start with slope 6")
    _check(bool(minimality_test(fn)), "psi data failed the minimality check")
    return fn


@lru_cache(maxsize=None)
def psi_prime_function() -> PwlFunction:
    fn = PwlFunction(_rows(_PSI_PRIME_ROWS), Fraction(1, 2),
                     name="psi_prime")
    _check(fn.eval(Fraction(1, 4)) == Fraction(1, 2), "not 2x on [0,1/2]")
    psi = psi_function()
    x = Fraction(3, 4)
    _check(fn.eval(x) == psi.eval(x), "psi_prime(3/4) is not psi(3/4)")
    _check(bool(minimality_test(fn)), "psi_prime failed the minimality check")
    return fn


# -- the 40-breakpoint function ----------------------------------------------

# rows: (x, left, value, right); all strings in the exact-number grammar
_KZH_ROWS = [
    ("0", "101/650", "0", "101/650"),
    ("101/5000", "707/13000", "2727/13000", "707/13000"),
    ("60153/369200", "421071/959920", "421071/959920", "421071/959920"),
    ("849/5000", "4851099/11999000",
     "4851099/11999000 - 1925/71994*sqrt2", "4851099/11999000"),
    ("849/5000 + 1925/298129*sqrt2",
     "4851099/11999000 + 67375/3875677*sqrt2",
     "4851099/11999000 + 67375/3875677*sqrt2",
     "4851099/11999000 + 67375/3875677*sqrt2"),
    ("849/5000 + 77/7752*sqrt2",
     "4851099/11999000 + 385/93016248*sqrt2",
     "4851099/11999000 + 2695/100776*sqrt2",
     "4851099/11999000 + 385/93016248*sqrt2"),
    # a0 = 19/100
    ("19/100", "275183/599950 - 1925/71994*sqrt2", "18196/59995",
     "275183/599950 - 1925/71994*sqrt2"),
    ("281986521/1490645000 + 77/22152*sqrt2",
     "10467633/22933000 - 385/22152*sqrt2",
     "10467633/22933000 - 385/22152*sqrt2",
     "10467633/22933000 - 385/22152*sqrt2"),
    ("40294/201875", "848837/2099500", "795836841/1937838500",
     "848837/2099500"),
    ("36999/184600", "975607/2399800", "975607/2399800", "975607/2399800"),
    # a1 = a0 + t1
    ("19/100 + 77/7752*sqrt2",
     "275183/599950 - 385/7752*sqrt2",
     "18196/59995 + 385/93016248*sqrt2",
     "275183/599950 - 385/7752*sqrt2"),
    ("1051/5000", "4291761/11999000",
     "4291761/11999000 - 1925/71994*sqrt2", "4291761/11999000"),
    ("1051/5000 + 1925/298129*sqrt2",
     "4291761/11999000 + 67375/3875677*sqrt2",
     "4291761/11999000 + 67375/3875677*sqrt2",
     "4291761/11999000 + 67375/3875677*sqrt2"),
    # a2 = a0 + t2
    ("14199/64600", "240046061/775135400 + 192500/3875677*sqrt2",
     "50943/167960", "240046061/775135400 + 192500/3875677*sqrt2"),
    ("1051/5000 + 77/7752*sqrt2",
     "4291761/11999000 + 385/93016248*sqrt2",
     "4291761/11999000 + 2695/100776*sqrt2",
     "4291761/11999000 + 385/93016248*sqrt2"),
    ("342208579/1490645000 + 77/22152*sqrt2",
     "122181831/298129000 - 385/22152*sqrt2",
     "122181831/298129000 - 385/22152*sqrt2",
     "122181831/298129000 - 385/22152*sqrt2"),
    ("193799/807500", "187742/524875", "187742/524875", "187742/524875"),
    # l = 219/800
    ("219/800", "933/2080", "933/2080", "51443/147680"),
    # u = 269/800
    ("269/800", "668809/1919840", "683/2080", "683/2080"),
    # f - u = 371/800
    ("371/800", "1397/2080", "1397/2080", "1251031/1919840"),
    # f - l = 421/800
    ("421/800", "96237/147680", "1147/2080", "1147/2080"),
    ("452201/807500", "337133/524875", "337133/524875", "337133/524875"),
    ("850307421/1490645000 - 77/22152*sqrt2",
     "175947169/298129000 + 385/22152*sqrt2",
     "175947169/298129000 + 385/22152*sqrt2",
     "175947169/298129000 + 385/22152*sqrt2"),
    ("2949/5000 - 77/7752*sqrt2",
     "7707239/11999000 - 385/93016248*sqrt2",
     "7707239/11999000 - 2695/100776*sqrt2",
     "7707239/11999000 - 385/93016248*sqrt2"),
    # f - a2
    ("37481/64600", "535089339/775135400 - 192500/3875677*sqrt2",
     "117017/167960", "535089339/775135400 - 192500/3875677*sqrt2"),
    ("2949/5000 - 1925/298129*sqrt2",
     "7707239/11999000 - 67375/3875677*sqrt2",
     "7707239/11999000 - 67375/3875677*sqrt2",
     "7707239/11999000 - 67375/3875677*sqrt2"),
    ("2949/5000", "7707239/11999000",
     "7707239/11999000 + 1925/71994*sqrt2", "7707239/11999000"),
    # f - a1
    ("61/100 - 77/7752*sqrt2",
     "324767/599950 + 385/7752*sqrt2",
     "41799/59995 - 385/93016248*sqrt2",
     "324767/599950 + 385/7752*sqrt2"),
    ("110681/184600", "1424193/2399800", "1424193/2399800",
     "1424193/2399800"),
    ("121206/201875", "1250663/2099500", "1142001659/1937838500",
     "1250663/2099500"),
    ("910529479/1490645000 - 77/22152*sqrt2",
     "12465367/22933000 + 385/22152*sqrt2",
     "12465367/22933000 + 385/22152*sqrt2",
     "12465367/22933000 + 385/22152*sqrt2"),
    # f - a0
    ("61/100", "324767/599950 + 1925/71994*sqrt2", "41799/59995",
     "324767/599950 + 1925/71994*sqrt2"),
    ("3151/5000 - 77/7752*sqrt2",
     "7147901/11999000 - 385/93016248*sqrt2",
     "7147901/11999000 - 2695/100776*sqrt2",
     "7147901/11999000 - 385/93016248*sqrt2"),
    ("3151/5000 - 1925/298129*sqrt2",
     "7147901/11999000 - 67375/3875677*sqrt2",
     "7147901/11999000 - 67375/3875677*sqrt2",
     "7147901/11999000 - 67375/3875677*sqrt2"),
    ("3151/5000", "7147901/11999000",
     "7147901/11999000 + 1925/71994*sqrt2", "7147901/11999000"),
    ("235207/369200", "538849/959920", "538849/959920", "538849/959920"),
    ("3899/5000", "12293/13000", "10273/13000", "12293/13000"),
    # f = 4/5
    ("4/5", "549/650", "1", "549/650"),
    ("4101/5000", "899/1000", "9667/13000", "899/1000"),
    ("4899/5000", "101/1000", "3333/13000", "101/1000"),
]

# expected slope of each piece (x_i, x_{i+1}), as a c1/c2/c3 pattern
_KZH_SLOPE_PATTERN = (
    "c3 c1 c3 c1 c3 c1 c1 c3 c1 c3 "
    "c3 c1 c3 c3 c1 c3 c1 c2 c1 c2 "
    "c1 c3 c1 c3 c3 c1 c3 c3 c1 c3 "
    "c1 c1 c3 c1 c3 c1 c3 c1 c3 c1").split()


@dataclass(frozen=True)
class KzhParams:
    f: QNum
    l: QNum
    u: QNum
    a0: QNum
    a1: QNum
    a2: QNum
    t1: QNum
    t2: QNum
    c1: QNum
    c2: QNum
    c3: QNum
    s: QNum


@lru_cache(maxsize=None)
def kzh_params() -> KzhParams:
    t1 = QNum(0, Fraction(77, 7752))
    t2 = QNum(Fraction(77, 2584))
    a0 = QNum(Fraction(19, 100))
    p = KzhParams(
        f=QNum(Fraction(4, 5)),
        l=QNum(Fraction(219, 800)),
        u=QNum(Fraction(269, 800)),
        a0=a0, a1=a0 + t1, a2=a0 + t2,
        t1=t1, t2=t2,
        c1=QNum(Fraction(35, 13)),
        c2=QNum(Fraction(5, 11999)),
        c3=QNum(-5),
        s=QNum(Fraction(19, 23998)),
    )
    _check(p.a2 == QNum(Fraction(14199, 64600)), "a2 is not 14199/64600")
    _check(p.t2 == QNum(Fraction(1925, 64600)), "t2 is not 1925/64600")
    return p


@lru_cache(maxsize=None)
def kzh_function() -> PwlFunction:
    p = kzh_params()
    rows = _rows(_KZH_ROWS)
    fn = PwlFunction(rows, p.f, name="kzh",
                     special_intervals=((p.l, p.u), (p.f - p.u, p.f - p.l)))

    # cross-validate the slope pattern
    cmap = {"c1": p.c1, "c2": p.c2, "c3": p.c3}
    for i, tag in enumerate(_KZH_SLOPE_PATTERN):
        _check(fn.slopes[i] == cmap[tag],
               f"piece {i}: slope {fn.slopes[i]} does not match {tag}")

    # cross-validate the symmetry pairing of rows (x_i + x_{37-i} = f)
    for i in range(38):
        j = 37 - i
        _check(rows[i].x + rows[j].x == p.f, f"rows {i},{j}")
        _check(rows[i].value + rows[j].value == 1, f"rows {i},{j}")
    _check(rows[38].x + rows[39].x == p.f + 1, "rows 38,39")
    _check(rows[38].value + rows[39].value == 1, "rows 38,39")

    # the derived constant: s = pi(x39^-) + pi(1 + l - x39) - pi(l)
    x39 = rows[39].x
    s = rows[39].left + fn.eval(QNum(1) + p.l - x39) - fn.eval(p.l)
    _check(s == p.s, f"derived s = {s}")
    return fn


# -- cosets of the group generated by t1 and t2 ---------------------------------

FIXED_C = "fixed_C"
PLUS_CPLUS = "plus_Cplus"
MINUS = "minus"


def reduced_pair(x: QNum) -> tuple[Rat, Rat]:
    """Canonical representative of x modulo the group generated by t1, t2.

    t2 is rational and t1 is a rational multiple of sqrt2, so reducing
    a + b*sqrt2 componentwise, a mod t2 and b mod t1/sqrt2, gives one pair
    per coset: two points share a coset iff their reduced pairs are equal,
    and x is in the group iff its pair is (0, 0).
    """
    p = kzh_params()
    return (x.a % p.t2.a, x.b % p.t1.b)


@lru_cache(maxsize=None)
def _c_representatives() -> tuple[QNum, ...]:
    p = kzh_params()
    half = (p.l + p.u) / 2
    return (half, half - p.t1 / 2, half - p.t2 / 2,
            half - (p.t1 + p.t2) / 2)


@lru_cache(maxsize=None)
def _c_keys() -> frozenset:
    """Reduced pairs of the four reflection-fixed cosets, the class C."""
    return frozenset(map(reduced_pair, _c_representatives()))


def coset_classify(x: QNum) -> str:
    """Coset class of a point interior to a special interval.

    A point of (l, u) is classified itself; a point of (f-u, f-l) by its
    mirror partner f-x.  The class is a coset invariant.  Points in one of
    the four reflection-fixed cosets form class C; every other coset is
    swapped with its mirror image by the reflection through (l+u)/2, and
    the one with the lexicographically smaller reduced pair is designated
    C-plus.
    """
    p = kzh_params()
    y = QNum.of(x)
    if p.f - p.u < y < p.f - p.l:
        y = p.f - y
    elif not (p.l < y < p.u):
        raise ValueError(f"{x} is not interior to a special interval")
    red = reduced_pair(y)
    if red in _c_keys():
        return FIXED_C
    red_m = reduced_pair(p.l + p.u - y)
    # distinct unless the coset is reflection-fixed
    _check(red != red_m, f"{x} has a reflection-fixed coset outside C")
    return PLUS_CPLUS if red < red_m else MINUS


_SIGN = {FIXED_C: 0, PLUS_CPLUS: 1, MINUS: -1}


class LiftedFunction:
    """The non-piecewise-linear lift: kzh plus a coset-driven +/-s offset.

    sigma(x) is +1 on the C-plus cosets of (l, u), -1 on their mirror
    images, 0 on C and everywhere outside the special intervals; on the
    mirrored special interval sigma(x) is -sigma(f-x), which makes the
    symmetry value(x) + value(f-x) = 1 hold identically.
    """

    name = "kzh_lifted"

    def __init__(self):
        self.base = kzh_function()
        self.params = kzh_params()

    @property
    def f(self) -> QNum:
        return self.base.f

    @property
    def special_intervals(self):
        return self.base.special_intervals

    def sigma_class(self, x) -> tuple[int, str | None]:
        """sigma(x) and the coset class of x, None outside the specials.

        On the mirrored interval x has the class of f - x (see
        ``coset_classify``), and sigma(x) = -sigma(f - x).
        """
        p = self.params
        x = QNum.of(x).mod1()
        if p.l < x < p.u:
            sign = 1
        elif p.f - p.u < x < p.f - p.l:
            sign = -1
        else:
            return 0, None
        cls = coset_classify(x)
        return sign * _SIGN[cls], cls

    def sigma(self, x) -> int:
        return self.sigma_class(x)[0]

    def eval(self, x) -> QNum:
        x = QNum.of(x).mod1()
        return self.base.eval(x) + self.params.s * self.sigma(x)

    __call__ = eval

    def __repr__(self):
        return "LiftedFunction(kzh_lifted)"


@lru_cache(maxsize=None)
def lifted_function() -> LiftedFunction:
    return LiftedFunction()


CATALOG = {
    "psi": psi_function,
    "psi_prime": psi_prime_function,
    "kzh": kzh_function,
    "kzh_lifted": lifted_function,
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def get(name: str):
    try:
        return CATALOG[name]()
    except KeyError:
        raise KeyError(f"unknown catalog function {name!r}; "
                       f"available: {', '.join(catalog_names())}") from None
