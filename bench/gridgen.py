"""Seeded inputs for the random-grid workload.

Every function has rational breakpoints and f on a 1/q grid, so the grid
oracle in ``checks`` is complete for it.  Tables are tuples of Fractions;
the worker builds a fresh ``PwlFunction`` from them on every pass, so no
cache of groupcut survives from one pass to the next.

The make-up of one batch is fixed; the seed picks the grids, f, the
breakpoints and the values inside each family:

  * minimal: ``gmic`` two-slope functions, their images under x -> kx
    (a homomorphism keeps minimality), ``psi``/``psi_prime`` and their
    images, and midpoints of two minimal continuous functions with one f;
  * near misses: a minimal function with one value lowered by 1/10^6;
  * random continuous and random discontinuous tables, almost never minimal;
  * epsilon pairs: pi0 = (pi1 + pi2)/2 and pert = (pi1 - pi2)/2 for two
    different minimal continuous functions pi1, pi2 with one f.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

# One batch, slot by slot.  The seed picks grids, f, breakpoints and values,
# never the sizes, so every seed attempts the same operations on inputs of
# the same sizes: ("gmic_k", 3) is gmic composed with x -> 3x, six
# breakpoints; ("random_table", 4) has the breakpoints 0, 1/4, 2/4, 3/4.
MAKEUP = (
    ("gmic", 1), ("gmic", 1),
    ("gmic_k", 2), ("gmic_k", 3), ("gmic_k", 2), ("gmic_k", 3),
    ("psi_k", 1), ("psi_k", 1),
    ("midpoint", 2), ("midpoint", 3), ("midpoint", 2),
    ("near_miss", 2), ("near_miss", 3), ("near_miss", 1), ("near_miss", 2),
    ("random_continuous", 4), ("random_continuous", 5),
    ("random_continuous", 6),
    ("random_table", 4), ("random_table", 5), ("random_table", 6),
)
# near misses nudge a minimal function of these families, in turn
NEAR_MISS_BASES = ("gmic_k", "midpoint", "psi_k", "gmic_k")
EPSILON_PAIRS = (2, 3, 2)  # k of the composed function in each pair

_PSI = ((F(0), F(1, 2), F(0), F(0)), (F(1, 8), F(3, 4), F(1, 4), F(1, 4)),
        (F(3, 8), F(3, 4), F(3, 4), F(1, 4)), (F(1, 2), F(1), F(1), F(1, 2)),
        (F(5, 8), F(3, 4), F(3, 4), F(3, 4)),
        (F(7, 8), F(1, 4), F(1, 4), F(1, 4)))
_PSI_PRIME = ((F(0), F(1, 2), F(0), F(0)),
              (F(1, 8), F(1, 4), F(1, 4), F(1, 4)),
              (F(3, 8), F(3, 4), F(3, 4), F(3, 4)),
              (F(1, 2), F(1), F(1), F(1, 2)),
              (F(5, 8), F(3, 4), F(3, 4), F(3, 4)),
              (F(7, 8), F(1, 4), F(1, 4), F(1, 4)))


class GridFunction:
    """One generated input: its table, f, grid and family."""

    def __init__(self, family: str, rows, f: F, q: int):
        self.family = family
        self.rows = tuple(rows)
        self.f = f
        self.q = q


def _gmic(f: F):
    return ((F(0), F(0), F(0), F(0)), (f, F(1), F(1), F(1)))


def _compose(rows, k: int):
    """Table of x -> pi(k x mod 1): each breakpoint b gives (b + i)/k."""
    out = []
    for i in range(k):
        for x, left, value, right in rows:
            out.append(((x + i) / k, left, value, right))
    return tuple(sorted(out))


def _value(rows, x: F, side: int) -> F:
    """One-sided limit of a rational table at x in [0, 1)."""
    n = len(rows)
    for i, (bx, left, value, right) in enumerate(rows):
        nx = rows[i + 1][0] if i + 1 < n else F(1)
        if x == bx:
            return (left, value, right)[side + 1]
        if bx < x < nx:
            nleft = rows[i + 1][1] if i + 1 < n else rows[0][1]
            return right + (nleft - right) / (nx - bx) * (x - bx)
    raise ValueError(f"{x} outside [0, 1)")


def _combine(a, b, wa: F, wb: F):
    xs = sorted({r[0] for r in a} | {r[0] for r in b})
    return tuple((x,) + tuple(wa * _value(a, x, s) + wb * _value(b, x, s)
                              for s in (-1, 0, 1)) for x in xs)


def _hom_gmic(rng: random.Random, k: int):
    """(pi1, pi2, f, q): gmic(f) and gmic(k f mod 1) o k, both minimal."""
    while True:
        q0 = rng.choice((3, 4, 5, 6))
        f0 = F(rng.randrange(1, q0), q0)
        f = (f0 + rng.randrange(k)) / k
        if (k * f) % 1 != 0:
            return _gmic(f), _compose(_gmic(f0), k), f, q0 * k


def _random_rows(rng: random.Random, n: int, continuous: bool):
    """A table with random values on the breakpoints 0, 1/n, ..., (n-1)/n.

    The breakpoints, and so the complex, are the same for every seed; f is
    one of them, with value 1.  Values are multiples of 1/12.
    """
    fk = rng.randrange(1, n)
    rows = []
    for k in range(n):
        v = F(0) if k == 0 else F(1) if k == fk else F(rng.randint(0, 12), 12)
        if continuous:
            rows.append((F(k, n), v, v, v))
        else:
            rows.append((F(k, n), F(rng.randint(0, 12), 12), v,
                         F(rng.randint(0, 12), 12)))
    return tuple(rows), F(fk, n), n


def _minimal(rng: random.Random, family: str, k: int):
    if family == "gmic":
        q = rng.choice((5, 7, 8, 9, 10, 12))
        f = F(rng.randrange(1, q), q)
        return GridFunction(family, _gmic(f), f, q)
    if family == "gmic_k":
        _, rows, f, q = _hom_gmic(rng, k)
        return GridFunction(family, rows, f, q)
    if family == "psi_k":
        base = rng.choice((_PSI, _PSI_PRIME))
        f = (F(1, 2) + rng.randrange(k)) / k
        return GridFunction(family, _compose(base, k), f, 8 * k)
    # midpoint of two different minimal continuous functions with one f
    pi1, pi2, f, q = _hom_gmic(rng, k)
    return GridFunction(family, _combine(pi1, pi2, F(1, 2), F(1, 2)), f, q)


def batch(seed: int):
    """The functions and epsilon pairs of one random-grid pass."""
    rng = random.Random(seed)
    fns = []
    near = iter(NEAR_MISS_BASES)
    for family, k in MAKEUP:
        if family == "near_miss":
            # lower the value at the first breakpoint after 0, so that
            # every near miss reaches the slack sweep
            base = _minimal(rng, next(near), k)
            rows = list(base.rows)
            x, left, value, right = rows[1]
            rows[1] = (x, left, value - F(1, 10**6), right)
            fns.append(GridFunction(family, rows, base.f, base.q))
        elif family.startswith("random_"):
            rows, f, q = _random_rows(rng, k, family == "random_continuous")
            fns.append(GridFunction(family, rows, f, q))
        else:
            fns.append(_minimal(rng, family, k))
    pairs = []
    for k in EPSILON_PAIRS:
        pi1, pi2, f, q = _hom_gmic(rng, k)
        pairs.append((GridFunction("pi0", _combine(pi1, pi2, F(1, 2), F(1, 2)),
                                   f, q),
                      GridFunction("pert", _combine(pi1, pi2, F(1, 2),
                                                    F(-1, 2)), f, q),
                      GridFunction("pi1", pi1, f, q)))
    return fns, pairs
