"""Shared generators and oracles used by several test modules."""

from __future__ import annotations

import gc
import importlib.util
import random
import sys
import types
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from pathlib import Path

from groupcut.additivity import (ADDITIVE, LIMIT_ADDITIVE, NON_ADDITIVE,
                                 FaceClassification, _sides, _slack)
from groupcut.complex2d import Interval, make_face
from groupcut.exactnum import QNum, parse_qnum
from groupcut.pwl import PwlFunction, BreakpointRow

# -- a midpoint pair for the step-size constants -------------------------------


def midpoint_pair():
    """(pi0, bar0) with pi0 = (pi1+pi2)/2 minimal and bar0 = (pi1-pi2)/2.

    pi1 is the classic two-slope function for f = 1/2, pi2 a minimal
    trapezoid with the same f; their midpoint is minimal but no longer
    extreme, which is exactly the situation the step-size bounds address.
    """
    h = Fraction(1, 2)
    pi1 = PwlFunction.continuous_from_values([(0, 0), (h, 1)], h,
                                             name="gmic_half")
    pi2 = PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 8), h), (Fraction(3, 8), h), (h, 1),
         (Fraction(5, 8), h), (Fraction(7, 8), h)], h, name="trapezoid")
    mid = (pi1 + pi2).scale(h)
    bar = (pi1 - pi2).scale(h)
    return mid, bar


# -- random periodic functions on a coarse grid --------------------------------

GRID = 12


def _grid_q(k: int, n: int = GRID) -> QNum:
    return QNum(Fraction(k % n, n))


def random_pwl(rng: random.Random, n: int = GRID) -> PwlFunction:
    """A random function with breakpoints on the 1/n grid, f a breakpoint.

    Mixes plainly random tables, continuous interpolations, minimal
    two-slope functions, and near-minimal functions with one value nudged
    by 1e-6, so the minimality oracle sees both outcomes and near-misses.
    """
    style = rng.randrange(4)
    ks = sorted(rng.sample(range(1, n), rng.randint(1, min(5, n - 1))))
    bks = [QNum(0)] + [_grid_q(k, n) for k in ks]
    fk = rng.choice(ks)
    f = _grid_q(fk, n)

    def rv() -> QNum:
        return QNum(Fraction(rng.randint(0, n), n))

    if style == 0:  # arbitrary table, usually far from minimal
        rows = []
        for x in bks:
            v = rv()
            left = rv() if rng.random() < 0.3 else v
            right = rv() if rng.random() < 0.3 else v
            rows.append(BreakpointRow(x, left, v, right))
        return PwlFunction(rows, f, name="random_table")

    if style == 1:  # continuous interpolation through random values
        pts = [(QNum(0), QNum(0))]
        for x in bks[1:]:
            pts.append((x, QNum(1) if x == f else rv()))
        return PwlFunction.continuous_from_values(pts, f,
                                                  name="random_continuous")

    two_slope = PwlFunction.continuous_from_values(
        [(QNum(0), QNum(0)), (f, QNum(1))], f, name="two_slope")
    if style == 2:
        return two_slope

    rows = list(two_slope.rows)  # style 3: nudge one value off-minimal
    i = rng.randrange(len(rows))
    r = rows[i]
    d = QNum(Fraction(rng.choice((-1, 1)), 10**6))
    rows[i] = BreakpointRow(r.x, r.left, r.value + d, r.right)
    return PwlFunction(rows, f, name="two_slope_nudged")


def fresh_copy(fn: PwlFunction) -> PwlFunction:
    """The same function as a new object, with no analysis."""
    return PwlFunction(fn.rows, fn.f, name=fn.name,
                       special_intervals=fn.special_intervals)


def gmic(f, k=1, f0=None) -> PwlFunction:
    """The two-slope function of f0 composed with x -> kx; its f is f."""
    f0 = f if f0 is None else f0
    points = sorted(((i + c) / k, v)
                    for i in range(k) for c, v in ((Fraction(0), 0), (f0, 1)))
    return PwlFunction.continuous_from_values(points, f)


def grid_pairs(seed: int, count: int):
    """(pi0, pert, pi1) on random 1/N grids: pi1 = gmic(f), pi2 = gmic(f0)
    composed with x -> kx, which has the same f, pi0 = (pi1 + pi2)/2 and
    pert = (pi1 - pi2)/2."""
    rng = random.Random(seed)
    for _ in range(count):
        q0, k = rng.randrange(3, 10), rng.choice((2, 3))
        f0 = Fraction(rng.randrange(1, q0), q0)
        f = (f0 + rng.randrange(k)) / k
        pi1, pi2 = gmic(f), gmic(f, k, f0)
        yield (pi1 + pi2).scale(Fraction(1, 2)), \
            (pi1 - pi2).scale(Fraction(1, 2)), pi1


def random_grid_functions(seed: int) -> list[tuple[str, PwlFunction]]:
    """(family, function) of each function of the benchmark's random-grid
    pass of this seed (``bench/gridgen.py``)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "gridgen.py"
    spec = importlib.util.spec_from_file_location("bench_gridgen", path)
    gridgen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gridgen)
    return [(g.family, PwlFunction([BreakpointRow.of(*r) for r in g.rows],
                                   g.f))
            for g in gridgen.batch(seed)[0]]


def composed(fn: PwlFunction, k: int, f) -> PwlFunction:
    """fn composed with x -> kx, with f as its f: the rows of fn repeated
    at (x + i)/k.  Minimal when fn is and k f = fn.f mod 1."""
    rows = sorted((BreakpointRow((r.x + i) / k, r.left, r.value, r.right)
                   for i in range(k) for r in fn.rows), key=lambda r: r.x)
    return PwlFunction(rows, f)


MISS = Fraction(1, 10**6)  # the nudge of a near miss


def convex_minimal_family(seed: int, count: int):
    """(fn, n, parts): count discontinuous minimal functions, each followed
    by a near miss, with every breakpoint and f on the 1/n grid.

    A minimal fn is lambda A + (1 - lambda) B with parts = (A, B) and
    lambda = j/m: A is psi or psi_prime composed with x -> kx, B a two-slope
    function of the same f, its image under x -> k2 x, or the other psi
    image.  A convex combination of minimal functions with one f is
    minimal.  Its near miss, with parts None, has one value or one-sided
    limit nudged by +/-1/10^6, which breaks symmetry there, or also the
    limit that symmetry pairs with it nudged back, which keeps symmetry
    and may break subadditivity on one side of a jump only.
    """
    from groupcut.catalog import psi_function, psi_prime_function
    rng = random.Random(seed)
    psis = (psi_function(), psi_prime_function())
    for _ in range(count):
        k = rng.choice((1, 2, 3))
        f = (Fraction(1, 2) + rng.randrange(k)) / k
        which = rng.randrange(2)
        a, style, n = composed(psis[which], k, f), rng.randrange(3), 8 * k
        k2s = [k2 for k2 in (2, 3, 4)  # f0 = k2 f mod 1 > 0, n <= 48
               if k2 * f % 1 and lcm(n, 2 * k * k2) <= 48]
        if style == 1 and k2s:
            k2 = rng.choice(k2s)
            b, n = gmic(f, k2, k2 * f % 1), lcm(n, 2 * k * k2)
        elif style == 2:
            b = composed(psis[1 - which], k, f)
        else:
            b = gmic(f)
        m = rng.choice((2, 3, 4))
        lam = Fraction(rng.randrange(1, m), m)
        fn = a.scale(lam) + b.scale(1 - lam)
        yield fn, n, (a, b)
        rows = list(fn.rows)
        j, side, d = (rng.randrange(len(rows)), rng.randrange(3),
                      rng.choice((MISS, -MISS)))
        nudges = [(j, side, d)]
        if rng.randrange(2):  # the symmetric partner moves back
            x = (f - rows[j].x).mod1()
            nudges.append((next(i for i, r in enumerate(rows) if r.x == x),
                           2 - side, -d))
        for i, side, d in nudges:
            lims = [rows[i].left, rows[i].value, rows[i].right]
            lims[side] += d
            rows[i] = BreakpointRow(rows[i].x, *lims)
        yield PwlFunction(rows, f), n, None


# the realizable one-sided approach profiles (x side, y side, sum side)
DIRECTIONS = (
    (0, 0, 0),
    (0, 1, 1), (0, -1, -1), (1, 0, 1), (-1, 0, -1),
    (1, 1, 1), (-1, -1, -1),
    (1, -1, 1), (1, -1, 0), (1, -1, -1),
    (-1, 1, 1), (-1, 1, 0), (-1, 1, -1),
)


def sampling_minimality_oracle(fn: PwlFunction, n: int = GRID) -> bool:
    """Grid-plus-limits minimality check, independent of the 2-D complex.

    Complete for functions whose breakpoints (and f) lie on the 1/n
    grid: every face of the additivity complex then has its vertices on
    the grid, and each vertex limit is one of the 13 approach profiles.
    """
    if fn.eval(0) != 0:
        return False
    for r in fn.rows:
        for v in (r.left, r.value, r.right):
            if not (0 <= v <= 1):
                return False

    grid = [_grid_q(k, n) for k in range(n)]
    for x in grid:
        # symmetry, pointwise and for matched one-sided limits
        y = (fn.f - x).mod1()
        if fn.eval(x) + fn.eval(y) != 1:
            return False
        if fn.limit(x, 1) + fn.limit(y, -1) != 1:
            return False
        if fn.limit(x, -1) + fn.limit(y, 1) != 1:
            return False

    for x in grid:
        for y in grid:
            z = (x + y).mod1()
            for sx, sy, sz in DIRECTIONS:
                if (fn.limit(x, sx) + fn.limit(y, sy)
                        - fn.limit(z, sz)) < 0:
                    return False
    return True


# -- random polygon instances for the affine gap bound --------------------------


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def dist2_point_segment(p, a, b) -> Fraction:
    """Exact squared Euclidean distance from p to segment [a, b]."""
    ab = _sub(b, a)
    denom = _dot(ab, ab)
    if denom == 0:
        d = _sub(p, a)
        return _dot(d, d)
    t = _dot(_sub(p, a), ab) / denom
    t = max(Fraction(0), min(Fraction(1), t))
    q = (a[0] + t * ab[0], a[1] + t * ab[1])
    d = _sub(p, q)
    return _dot(d, d)


def _hull(points):
    """Convex hull (counterclockwise, no collinear points kept)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                cross = ((a[0] - o[0]) * (q[1] - o[1])
                         - (a[1] - o[1]) * (q[0] - o[0]))
                if cross <= 0:
                    out.pop()
                else:
                    break
            out.append(q)
        return out

    lower = half(pts)
    upper = half(reversed(pts))
    return lower[:-1] + upper[:-1]


def random_gap_instance(rng: random.Random):
    """A convex polygon in [0,1]^2 with an affine g >= 0 whose nonzero
    vertex values lie in [m, 10m]; returns (vertices, g, m, zero_set).

    g vanishes on a vertex, on an edge, or identically; zero_set lists
    the vertices spanning the zero face.
    """
    while True:
        while True:
            n = rng.randint(3, 7)
            pts = [(Fraction(rng.randint(0, 24), 24),
                    Fraction(rng.randint(0, 24), 24)) for _ in range(n)]
            hull = _hull(pts)
            if len(hull) >= 3:
                break
        m = Fraction(rng.randint(1, 36), 12)
        kind = rng.randrange(8)

        if kind == 0:  # g identically zero: the bound is trivially tight
            def g0(p):
                return Fraction(0)
            return hull, g0, m, list(hull)

        k = len(hull)
        i = rng.randrange(k)
        if kind <= 4:  # zero set = one edge of the hull
            a, b = hull[i], hull[(i + 1) % k]
            nx, ny = a[1] - b[1], b[0] - a[0]  # inward for ccw order

            def graw(p, _n=(nx, ny), _a=a):
                return _n[0] * (p[0] - _a[0]) + _n[1] * (p[1] - _a[1])
            zero = [a, b]
        else:  # zero set = one vertex, normal from the adjacent edges
            a = hull[i]
            prv, nxt = hull[(i - 1) % k], hull[(i + 1) % k]
            n1 = (a[1] - prv[1], prv[0] - a[0])
            n2 = (nxt[1] - a[1], a[0] - nxt[0])
            nx, ny = -(n1[0] + n2[0]), -(n1[1] + n2[1])

            def graw(p, _n=(nx, ny), _a=a):
                return _n[0] * (p[0] - _a[0]) + _n[1] * (p[1] - _a[1])
            zero = [a]

        vals = [graw(v) for v in hull if graw(v) != 0]
        if not vals or min(vals) <= 0:
            continue  # degenerate normal; resample
        if max(vals) > 10 * min(vals):
            continue  # cannot fit in [m, 10m]; resample
        scale = m / min(vals)

        def g0(p, _s=scale, _g=graw):
            return _s * _g(p)
        return hull, g0, m, zero


def gap_instance_holds(hull, g, m, zero, rng: random.Random) -> bool:
    """Check 2 g(x) >= m d(x, S) at vertices, midpoints, and random
    convex combinations, comparing squares so everything stays rational."""
    samples = list(hull)
    k = len(hull)
    for i in range(k):
        a, b = hull[i], hull[(i + 1) % k]
        samples.append(((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
    cx = sum(p[0] for p in hull) / k
    cy = sum(p[1] for p in hull) / k
    samples.append((cx, cy))
    for _ in range(8):
        w = [Fraction(rng.randint(0, 6)) for _ in range(k)]
        tot = sum(w)
        if tot == 0:
            continue
        samples.append((sum(wi * p[0] for wi, p in zip(w, hull)) / tot,
                        sum(wi * p[1] for wi, p in zip(w, hull)) / tot))

    whole = len(zero) >= 3  # g vanished identically, so S is all of F
    segs = ([(zero[i], zero[i + 1]) for i in range(len(zero) - 1)]
            or [(zero[0], zero[0])])
    for x in samples:
        d2 = (Fraction(0) if whole else
              min(dist2_point_segment(x, a, b) for a, b in segs))
        gx = g(x)
        if gx < 0:
            return False
        if 4 * gx * gx < m * m * d2:
            return False
    return True


# -- Q(sqrt2) as plain pairs of Fractions, a reference for QNum ---------------
# A pair (a, b) stands for a + b*sqrt2.  Written without QNum's integer core.


def pair_of(x: QNum) -> tuple[Fraction, Fraction]:
    return (x.a, x.b)


def pair_mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c + 2 * b * d, a * d + b * c)


def pair_div(x, y):
    (c, d) = y
    norm = c * c - 2 * d * d  # nonzero unless y == 0, as sqrt2 is irrational
    return pair_mul(x, (c / norm, -d / norm))


def pair_sign(x) -> int:
    a, b = x
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:
        return (a + b > 0) - (a + b < 0)
    # opposite signs: |a| against |b|*sqrt2
    return (1 if a > 0 else -1) * (1 if a * a > 2 * b * b else -1)


def pair_floor(x) -> int:
    """floor(a + b*sqrt2): an integer guess from isqrt, then exact steps."""
    a, b = x
    root = isqrt(int(2 * b * b))  # floor(|b|*sqrt2)
    n = a.__floor__() + (root if b >= 0 else -root - 1)
    while pair_sign((a - n, b)) < 0:
        n -= 1
    while pair_sign((a - n - 1, b)) >= 0:
        n += 1
    return n


# -- what a kept object holds -------------------------------------------------


def retained(root) -> tuple[int, int]:
    """The bytes (``sys.getsizeof``) of the objects reachable from root,
    each counted once, and how many of them gc tracks; not through
    classes, modules or functions."""
    stop = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, types.MethodType)
    seen, stack, size, tracked = set(), [root], 0, 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, stop):
            continue
        seen.add(id(obj))
        size += sys.getsizeof(obj)
        tracked += gc.is_tracked(obj)
        stack.extend(gc.get_referents(obj))
    return size, tracked


# -- dense elimination, the reference of LinearSystem.rank --------------------


def reference_rank(matrix) -> int:
    """Rank of a list of QNum rows by dense Gaussian elimination, column by
    column, over every row."""
    mat = [list(row) for row in matrix]
    ncols = len(mat[0]) if mat else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        for i in range(r + 1, len(mat)):
            if mat[i][c]:
                factor = mat[i][c] / inv
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


# -- the mutation controls of the four claim suites ---------------------------


@lru_cache(maxsize=None)
def mutation_control_reports():
    """The four suites' reports under a 1/10^6 nudge of one table value:
    psi row 2 for the separation, kzh row 17 for the slacks, and one kzh
    row 6 copy shared by the rank and lifted suites."""
    from groupcut.catalog import kzh_function, psi_function
    from groupcut.verify import (
        mutate_value, verify_kzh_claim_slacks, verify_kzh_perturbation_rank,
        verify_lifted, verify_psi_separation)
    bad6 = mutate_value(kzh_function(), 6)
    return (verify_psi_separation(psi=mutate_value(psi_function(), 2)),
            verify_kzh_claim_slacks(mutate_value(kzh_function(), 17)),
            verify_kzh_perturbation_rank(bad6),
            verify_lifted(fn=bad6))


# -- the 2-D complex by its definition ----------------------------------------


def _cells(points) -> list[Interval]:
    out = []
    for p, q in zip(points, points[1:]):
        out += [Interval(p, p), Interval(p, q)]
    return out + [Interval(points[-1], points[-1])]


def reference_faces(breakpoints) -> tuple:
    """The faces F(I, J, K) over sorted breakpoints that start at 0.

    Calls ``make_face`` on every (I, J, K) with I, J over [0, 1] and K
    over [0, 2], I, J, K each in increasing order, and keeps the first
    triple of each point set.
    """
    bk = [QNum.of(b) for b in breakpoints]
    cells_x = _cells(bk + [QNum(1)])
    cells_k = _cells(bk + [QNum(1)] + [b + 1 for b in bk[1:]] + [QNum(2)])
    by_points = {}
    for I in cells_x:
        for J in cells_x:
            for K in cells_k:
                face = make_face(I, J, K)
                if face is not None:
                    by_points.setdefault(face.vertices, face)
    return tuple(by_points.values())


def _end_keys(rank, n, m, triples, nx, nk):
    """Per packed triple, the end keys x0, x1, y0, y1, s0, s1 of its face's
    projections p1 = I & (K - J), p2 = J & (K - I) and p3 = K & (I + J),
    decoded from the triple alone; an end on a breakpoint is keyed as that
    breakpoint.  The reference of the end keys that the enumeration keeps
    as it stores each face."""
    W = n + m * n
    for t in triples:
        ij, fk = divmod(t, nk)
        fi, fj = divmod(ij, nx)
        ia, ib, ja, jb = fi >> 1, (fi + 1) >> 1, fj >> 1, (fj + 1) >> 1
        ka, kb = fk >> 1, (fk + 1) >> 1
        ta, tb = 2 * ka + 1, 2 * kb + 1
        r0, r1 = rank[ia * n + ja], rank[ib * n + jb]
        rx, ry = rank[ib * n + ja], rank[ia * n + jb]
        yield (ia if ry >= ta else ib if r1 == ta else n + ka * n + jb,
               ib if rx <= tb else ia if r0 == tb else n + kb * n + ja,
               ja if rx >= ta else jb if r1 == ta else n + ka * n + ib,
               jb if ry <= tb else ja if r0 == tb else n + kb * n + ia,
               W + (ka if r0 <= ta else r0 >> 1 if r0 & 1
                    else m + ia * n + ja),
               W + (kb if r1 >= tb else r1 >> 1 if r1 & 1
                    else m + ib * n + jb))


def _face_keys(rank, n, W, fi, fj, fk) -> tuple[int, ...]:
    """The sorted vertex keys of F(I, J, K) for the cells fi, fj over P
    and fk over G, derived from the triple alone with a set; empty when
    the set is.  A vertex is a corner of the box I x J whose sum is in K,
    or the point where a line x + y = G[k] through an end of K crosses the
    inside of a side of the box.  The reference of the vertex keys that
    the enumeration makes from per-box data."""
    ia, ib, ja, jb = fi >> 1, (fi + 1) >> 1, fj >> 1, (fj + 1) >> 1
    ka, kb = fk >> 1, (fk + 1) >> 1
    ta, tb = 2 * ka + 1, 2 * kb + 1
    lo, rx = rank[ia * n + ja], rank[ib * n + ja]
    ry, hi = rank[ia * n + jb], rank[ib * n + jb]
    verts = {i * W + j for i, j, r in ((ia, ja, lo), (ib, ja, rx),
                                       (ia, jb, ry), (ib, jb, hi))
             if ta <= r <= tb}
    for t, k in ((ta, ka), (tb, kb)):
        g = n + k * n  # + j: the key of G[k] - P[j]
        if lo < t < ry:  # on x = P[ia]
            verts.add(ia * W + g + ia)
        if rx < t < hi:  # on x = P[ib]
            verts.add(ib * W + g + ib)
        if lo < t < rx:  # on y = P[ja]
            verts.add((g + ja) * W + ja)
        if ry < t < hi:  # on y = P[jb]
            verts.add((g + jb) * W + jb)
    return tuple(sorted(verts))


# -- the analysis's readers by value ------------------------------------------
# The covering, E-containment and epsilon code as it read the analysis by
# value, face by face and slack record by slack record: the reference of the
# position readers in groupcut.


def reference_format_qnum(x) -> str:
    """The text form through the Fraction parts a and b."""
    a, b = x.a, x.b
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*sqrt2"
    if b > 0:
        return f"{a} + {b}*sqrt2"
    return f"{a} - {-b}*sqrt2"


def classify_face(fn: PwlFunction, face):
    """Classify one face by ``fn.limit`` at each vertex: the reference
    that the key sweep of ``additive_face_report`` is tested against."""
    data = []
    for u, v in face.vertices:
        s = u + v
        sides = _sides(face, u, v, s)
        data += (_slack(fn.limit, u, v, s, sides), sides)
    zeros = sum(slack == 0 for slack in data[::2])
    return FaceClassification(face, tuple(data),
                              ADDITIVE if zeros == len(face.vertices) else
                              LIMIT_ADDITIVE if zeros else NON_ADDITIVE)


def _reference_reduce_span(a, b):
    return (a - 1, b - 1) if a >= 1 else (a, b)


def reference_directly_covered(report) -> list:
    from groupcut.additivity import ADDITIVE
    out, seen = [], set()
    for fc in report.faces:
        if fc.status != ADDITIVE or fc.face.dim != 2:
            continue
        for proj in (fc.face.p1, fc.face.p2, fc.face.p3):
            span = _reference_reduce_span(proj.a, proj.b)
            if span not in seen:
                seen.add(span)
                out.append(span)
    return out


def reference_edge_connections(report) -> list:
    from groupcut.additivity import ADDITIVE
    from groupcut.covering import Move
    moves = []
    for fc in report.faces:
        if fc.status != ADDITIVE or fc.face.dim != 1:
            continue
        F = fc.face
        singletons = [p.is_point for p in (F.p1, F.p2, F.p3)]
        if not any(singletons):
            raise ArithmeticError(f"{F.label()} is not an edge of a complex")
        if singletons[2]:
            moves.append(Move("reflection", F.p3.a, (F.p1.a, F.p1.b),
                              (F.p2.a, F.p2.b)))
        elif singletons[0]:
            moves.append(Move("translation", F.p1.a, (F.p2.a, F.p2.b),
                              _reference_reduce_span(F.p3.a, F.p3.b)))
        else:
            moves.append(Move("translation", F.p2.a, (F.p1.a, F.p1.b),
                              _reference_reduce_span(F.p3.a, F.p3.b)))
    return moves


def reference_covering(report):
    """``covering.components`` on Face2D values: the same _PieceCover, with
    every span placed in its piece by bisection and the full pieces joined
    by a union-find of their own."""
    import bisect
    from groupcut.additivity import ADDITIVE
    from groupcut.covering import CoveringResult, _PieceCover
    piece_faces = report.complex.faces_x[1::2]
    piece_spans = [(p.a, p.b) for p in piece_faces]
    los = [p.a for p in piece_faces]

    def piece_of(span) -> int:
        a, b = span
        i = bisect.bisect_right(los, a) - 1
        if not (piece_spans[i][0] <= a and b <= piece_spans[i][1]):
            raise ValueError(f"span ({a}, {b}) crosses a breakpoint")
        return i

    covers = [_PieceCover(lo, hi) for lo, hi in piece_spans]
    for a, b in reference_directly_covered(report):
        covers[piece_of((a, b))].add(a, b)
    moves = reference_edge_connections(report)
    arrows = []
    for mv in moves:
        i, j = piece_of(mv.src), piece_of(mv.dst)
        arrows += ((i, mv.src, j, mv.dst), (j, mv.dst, i, mv.src))
    changed = True
    while changed:
        changed = False
        for i, src, j, dst in arrows:
            if covers[i].contains(*src) and not covers[j].contains(*dst):
                covers[j].add(*dst)
                changed = True
    full = [c.full for c in covers]
    parent = list(range(len(piece_spans)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    def connect(i, j):
        if full[i] and full[j]:
            ri, rj = find(i), find(j)
            parent[max(ri, rj)] = min(ri, rj)

    for fc in report.faces:
        if fc.status != ADDITIVE or fc.face.dim != 2:
            continue
        ids = [piece_of(_reference_reduce_span(p.a, p.b))
               for p in (fc.face.p1, fc.face.p2, fc.face.p3)]
        connect(ids[0], ids[1])
        connect(ids[0], ids[2])
        connect(ids[1], ids[2])
    for i, _, j, _ in arrows[::2]:
        connect(i, j)
    groups = {}
    for i, ok in enumerate(full):
        if ok:
            groups.setdefault(find(i), []).append(i)
    comps = [[piece_spans[i] for i in groups[root]] for root in sorted(groups)]
    uncov = [piece_spans[i] for i, ok in enumerate(full) if not ok]
    return CoveringResult(comps, uncov, moves)


def reference_mirrors(fn, special_intervals) -> dict:
    """The parametrization's mirror tables found by value: breakpoint x's
    mirror is the breakpoint (f - x) mod 1, and the mirror of piece
    (lo, hi) is the piece (f - hi, f - lo) mod 1.  A value or midpoint that
    is forced to zero, or that is its own mirror, maps to None."""
    f, bks = fn.f, list(fn.breakpoints)
    pieces = [fn.piece_bounds(j) for j in range(len(bks))]
    special = {pieces.index((QNum.of(lo), QNum.of(hi)))
               for lo, hi in special_intervals}
    v = {}
    for i, x in enumerate(bks):
        k = bks.index((f - x).mod1())
        v[i] = None if x == 0 or x == f or k == i else k
    m = {}
    for j, (lo, hi) in enumerate(pieces):
        if j not in special:
            a = (f - hi).mod1()
            k = pieces.index((a, a + (hi - lo)))
            m[j] = None if k == j else k
    return {"v": v, "m": m}


def reference_e_containment(fn1, fn2):
    """E(fn1) against E(fn2) by the triple_key of each additive face, each
    function analysed alone on its own complex."""
    from groupcut.additivity import (ADDITIVE, EContainmentResult,
                                     additive_face_report)
    a1, a2 = ({fc.face.triple_key: fc.face
               for fc in additive_face_report(g).faces
               if fc.status == ADDITIVE}
              for g in (fn1.refine(fn2.breakpoints),
                        fn2.refine(fn1.breakpoints)))
    only1, only2 = a1.keys() - a2.keys(), a2.keys() - a1.keys()
    relation = ("incomparable" if only1 and only2 else "strict_superset"
                if only1 else "strict_subset" if only2 else "equal")
    return EContainmentResult(relation, a1[min(only1)] if only1 else None,
                              a2[min(only2)] if only2 else None)


def reference_lipschitz_epsilon(fn, pert):
    """``lipschitz_epsilon`` on slack records of the common refined
    complex, vertices visited in sorted order, each function analysed
    alone; f is not compared."""
    from groupcut.additivity import additive_face_report, minimality_test
    from groupcut.perturbation import EpsilonResult
    if not isinstance(pert, PwlFunction):
        raise TypeError("perturbation must be piecewise linear")
    if not pert.is_continuous:
        raise ValueError("perturbation has jumps; this bound needs a "
                         "continuous perturbation")
    if not minimality_test(fn):
        raise ValueError("base function is not minimal")
    if pert.eval(fn.f) != 0:
        raise ValueError("perturbation does not vanish at f")
    base, bar = (additive_face_report(g)
                 for g in (fn.refine(pert.breakpoints),
                           pert.refine(fn.breakpoints)))
    pairs = sorted((r1.vertex, r1.slack, r2.slack)
                   for c1, c2 in zip(base.faces, bar.faces)
                   for r1, r2 in zip(c1.slacks, c2.slacks))
    for (u, v), dpi, dbar in pairs:
        if dpi == 0 and dbar != 0:
            raise ValueError(
                f"additivity of the base at ({u},{v}) is not shared by the "
                f"perturbation; containment of additivities fails")
    records = [r for fc in base.faces for r in fc.slacks]
    m = min((r.slack for r in records if r.slack > 0), default=None)
    if m is None:
        raise ValueError("base function has no positive vertex slack")
    M = max(abs(pert.delta(u, v)) for u, v in {r.vertex for r in records})
    if M == 0:
        raise ValueError("perturbation is additive at every complex vertex; "
                         "the bound degenerates")
    C = max((abs(s) for s in pert.slopes), default=QNum(0))
    if C == 0:
        C = QNum(1)
    return EpsilonResult(m=m, M=M, C=C, eps=min(m / M, m / (8 * C)))


def reference_scaling_epsilon(fn, pert):
    """``scaling_epsilon`` on slack records, vertices visited in sorted
    order, each function analysed alone; f is not compared."""
    from groupcut.additivity import additive_face_report
    for g, what in ((fn, "base function"), (pert, "perturbation")):
        if not isinstance(g, PwlFunction):
            raise TypeError(f"{what} must be piecewise linear")
        if not g.is_continuous:
            raise ValueError(f"{what} has jumps; scaling needs continuity")
    base, bar = (additive_face_report(g)
                 for g in (fn.refine(pert.breakpoints),
                           pert.refine(fn.breakpoints)))
    slacks = {r1.vertex: (r1.slack, r2.slack)
              for c1, c2 in zip(base.faces, bar.faces)
              for r1, r2 in zip(c1.slacks, c2.slacks)}
    best = None
    for (u, v), (dpi, dbar) in sorted(slacks.items()):
        if dpi == 0 and dbar != 0:
            raise ValueError(
                f"additivity of the base at ({u},{v}) is not shared by the "
                f"perturbation; containment of additivities fails")
        if dbar > 0:
            ratio = dpi / dbar
            if best is None or ratio < best:
                best = ratio
    if best is None:
        raise ValueError("perturbation never strains subadditivity; "
                         "no finite scale is determined")
    return best


def function_from_sidecar(data: dict) -> PwlFunction:
    """The function a diagram sidecar describes, read back exactly."""
    from groupcut.diagram import SCHEMA
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {data.get('schema')!r}")
    f = data["function"]
    rows = [BreakpointRow(*(parse_qnum(c) for c in row)) for row in f["rows"]]
    specials = tuple((parse_qnum(a), parse_qnum(b))
                     for a, b in f["special_intervals"])
    return PwlFunction(rows, parse_qnum(f["f"]), name=f["name"],
                       special_intervals=specials)


# -- the schema-1 sidecar, the reference of the schema-2 writer ----------------


def reference_sidecar_v1(fn) -> dict:
    """The ``groupcut-diagram/1`` sidecar of fn, face by face from built
    faces and classifications: each face names its I, J and K and each
    vertex by value."""
    from groupcut.additivity import additive_face_report
    base = fn if isinstance(fn, PwlFunction) else fn.base
    report = additive_face_report(base)
    faces = []
    for cls, nf in zip(report.faces, report.n_f):
        face = cls.face
        verts = [[str(u), str(v)] for u, v in face.vertices]
        faces.append({
            "I": [str(face.I.a), str(face.I.b)],
            "J": [str(face.J.a), str(face.J.b)],
            "K": [str(face.K.a), str(face.K.b)],
            "dim": face.dim,
            "status": cls.status,
            "n_f": nf,
            "vertices": verts,
            "slacks": [{"vertex": vert, "sides": list(r.sides),
                        "slack": str(r.slack)}
                       for vert, r in zip(verts, cls.slacks)],
        })
    out = {"schema": "groupcut-diagram/1",
           "function": {
               "name": base.name,
               "f": str(base.f),
               "rows": [[str(r.x), str(r.left), str(r.value), str(r.right)]
                        for r in base.rows],
               "special_intervals": [[str(a), str(b)]
                                     for a, b in base.special_intervals]},
           "faces": faces}
    if base is not fn:
        out["note"] = (f"rendered as the piecewise linear base; the actual "
                       f"values move by +/-{fn.params.s} on dense coset "
                       f"families inside the special intervals")
    return out


def expand_sidecar_v2(data: dict) -> dict:
    """A ``groupcut-diagram/2`` sidecar written out as schema 1: every
    index replaced by the exact strings it points at, ``dim`` put back."""
    numbers = data["numbers"]
    cells = [[numbers[a], numbers[b]] for a, b in data["cells"]]
    points = [[numbers[a], numbers[b]] for a, b in data["points"]]
    faces = []
    for item in data["faces"]:
        fi, fj, fk = item["cells"]
        verts = [points[v] for v in item["vertices"]]
        faces.append({
            "I": cells[fi], "J": cells[fj], "K": cells[fk],
            "dim": min(len(verts) - 1, 2),
            "status": item["status"],
            "n_f": item["n_f"],
            "vertices": verts,
            "slacks": [{"vertex": vert, "sides": list(r["sides"]),
                        "slack": r["slack"]}
                       for vert, r in zip(verts, item["slacks"])],
        })
    out = {"schema": "groupcut-diagram/1", "function": data["function"],
           "faces": faces}
    if "note" in data:
        out["note"] = data["note"]
    return out
