"""Independent checks of groupcut's outputs.

Every check recomputes its answer with ``exact`` (pairs of Fractions) or
with integer arithmetic modulo a prime, never with groupcut, and returns a
list of failure messages; an empty list means the output passed.  None of
them compares with a stored copy of an earlier output.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import exact
from exact import AT, MINUS, PLUS, add, cmp, mul, sign, sub

# the realizable one-sided approach profiles (x side, y side, x+y side)
PROFILES = (
    (0, 0, 0),
    (0, 1, 1), (0, -1, -1), (1, 0, 1), (-1, 0, -1),
    (1, 1, 1), (-1, -1, -1),
    (1, -1, 1), (1, -1, 0), (1, -1, -1),
    (-1, 1, 1), (-1, 1, 0), (-1, 1, -1),
)


def pair(q):
    """A groupcut number as an ``exact`` pair, read from its text form."""
    return _parse(str(q))


_parse = lru_cache(maxsize=1 << 16)(exact.parse)


# -- minimality on a grid -----------------------------------------------------


def grid_minimal(table: exact.Table, q: int) -> bool:
    """Minimality by sampling every point of the 1/q grid.

    Complete when the breakpoints and f lie on the grid: every vertex of the
    additivity complex is then a grid point, and each vertex limit is one of
    the 13 approach profiles.
    """
    lim = table.limit
    if lim(exact.ZERO) != exact.ZERO:
        return False
    for row in table.rows:
        for v in row[1:]:
            if sign(v) < 0 or cmp(v, exact.ONE) > 0:
                return False
    grid = [exact.num(Fraction(k, q)) for k in range(q)]
    for x in grid:
        y = exact.mod1(sub(table.f, x))
        for sx, sy in ((AT, AT), (PLUS, MINUS), (MINUS, PLUS)):
            if add(lim(x, sx), lim(y, sy)) != exact.ONE:
                return False
    for x in grid:
        for y in grid:
            z = add(x, y)
            for sx, sy, sz in PROFILES:
                if sign(sub(add(lim(x, sx), lim(y, sy)), lim(z, sz))) < 0:
                    return False
    return True


def table_of(rows, f) -> exact.Table:
    """A table of rational rows, as pairs."""
    return exact.Table([tuple(exact.num(v) for v in r) for r in rows],
                       exact.num(f))


# -- the face classification of one function ----------------------------------


def _projection(vertices, k):
    vals = [exact.Key(v[k] if k < 2 else add(v[0], v[1])) for v in vertices]
    return min(vals).p, max(vals).p


def _side(t, lo, hi) -> int:
    if lo == hi:
        return AT
    if t == lo:
        return PLUS
    if t == hi:
        return MINUS
    return AT


def face_slacks(table: exact.Table, vertices):
    """(sides, slack) at each vertex of a face, limits taken from inside."""
    projs = [_projection(vertices, k) for k in range(3)]
    out = []
    for u, v in vertices:
        s = add(u, v)
        sides = tuple(_side(t, *projs[k]) for k, t in enumerate((u, v, s)))
        slack = sub(add(table.limit(u, sides[0]), table.limit(v, sides[1])),
                    table.limit(s, sides[2]))
        out.append((sides, slack))
    return out


def status_of(slacks) -> str:
    zeros = sum(1 for _, s in slacks if s == exact.ZERO)
    if zeros == len(slacks):
        return "additive"
    return "limit_additive" if zeros else "non_additive"


def classification(report):
    """A report's faces as (vertices, sides, slacks, status) in pairs."""
    out = []
    for fc in report.faces:
        verts = [(pair(u), pair(v)) for u, v in fc.face.vertices]
        out.append((verts, [tuple(r.sides) for r in fc.slacks],
                    [pair(r.slack) for r in fc.slacks], fc.status))
    return out


def check_classification(table: exact.Table, faces) -> list[str]:
    """Recompute every face-vertex slack and status from the table."""
    errors = []
    for verts, sides, slacks, status in faces:
        mine = face_slacks(table, verts)
        if [m[0] for m in mine] != sides or [m[1] for m in mine] != slacks:
            shown = [(exact.fmt(u), exact.fmt(v)) for u, v in verts]
            errors.append(f"slacks differ on the face with vertices {shown}")
        elif status_of(mine) != status:
            errors.append(f"status {status} should be {status_of(mine)}")
        if len(errors) > 5:
            break
    return errors


def _ccw(vertices):
    """Vertices of a convex polygon in counterclockwise order."""
    pts = sorted(vertices, key=lambda p: (exact.Key(p[0]), exact.Key(p[1])))
    o = pts[0]

    def before(p, q):  # p precedes q counterclockwise around o
        c = sub(mul(sub(p[0], o[0]), sub(q[1], o[1])),
                mul(sub(p[1], o[1]), sub(q[0], o[0])))
        return sign(c) > 0

    rest = pts[1:]
    ordered = []
    while rest:
        first = rest[0]
        for p in rest[1:]:
            if before(p, first):
                first = p
        ordered.append(first)
        rest.remove(first)
    return [o] + ordered


def check_complex(face_vertices) -> list[str]:
    """V - E + F = 1 for the square, and the 2-faces tile area exactly 1."""
    dims = [min(len(vs) - 1, 2) for vs in face_vertices]
    euler = dims.count(0) - dims.count(1) + dims.count(2)
    area2 = exact.ZERO  # twice the area
    for vs in face_vertices:
        if len(vs) < 3:
            continue
        ring = _ccw(vs)
        for p, q in zip(ring, ring[1:] + ring[:1]):
            area2 = add(area2, sub(mul(p[0], q[1]), mul(q[0], p[1])))
    errors = []
    if euler != 1:
        errors.append(f"V - E + F = {euler}, not 1")
    if area2 != exact.num(2):
        area = exact.fmt(exact.div(area2, exact.num(2)))
        errors.append(f"2-faces have area {area}, not 1")
    return errors


# -- linear algebra modulo a prime --------------------------------------------

# 2^61 - 1 is 7 mod 8, so 2 is a square modulo it; being 3 mod 4, that
# square root is 2^((p+1)/4)
PRIME = 2 ** 61 - 1
ROOT2 = pow(2, (PRIME + 1) // 4, PRIME)
if ROOT2 * ROOT2 % PRIME != 2:
    raise ArithmeticError("2 is not a square modulo PRIME")


def _mod(x: Fraction) -> int:
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def reduce_mod_p(p) -> int:
    """The image of a + b*sqrt2 under sqrt2 -> ROOT2 modulo PRIME."""
    return (_mod(p[0]) + _mod(p[1]) * ROOT2) % PRIME


def rank_mod_p(rows) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], -1, PRIME)
        for i in range(rank + 1, len(mat)):
            if mat[i][c]:
                k = mat[i][c] * inv % PRIME
                mat[i] = [(a - k * b) % PRIME
                          for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def check_ranks(matrix, rank: int, drop_one: list[int]) -> list[str]:
    """Check a claimed full row rank and the claimed set of drop-one ranks.

    The rank modulo PRIME is a lower bound on the rank over Q(sqrt2), so a
    rank equal to the row count is certified exact, for the system and for
    each system with one row dropped.
    """
    rows = [[reduce_mod_p(x) for x in row] for row in matrix]
    errors = []
    mine = rank_mod_p(rows)
    if mine != rank or rank != len(rows):
        errors.append(f"rank {rank} claimed; {mine} modulo p "
                      f"for {len(rows)} rows")
    mine_drop = sorted({rank_mod_p(rows[:i] + rows[i + 1:])
                        for i in range(len(rows))})
    if mine_drop != sorted(drop_one) or mine_drop != [len(rows) - 1]:
        errors.append(f"drop-one ranks {sorted(drop_one)} claimed; "
                      f"{mine_drop} modulo p")
    return errors


def check_column_rank(matrix, rank: int) -> list[str]:
    """Check a claimed full column rank (nullity 0) modulo PRIME."""
    ncols = len(matrix[0]) if matrix else 0
    mine = rank_mod_p([[reduce_mod_p(x) for x in row] for row in matrix])
    if mine != rank or rank != ncols:
        return [f"rank {rank} claimed; {mine} modulo p for {ncols} columns"]
    return []
