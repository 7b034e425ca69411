"""Deterministic SVG and JSON views of the two-dimensional complex.

The SVG is presentation only: coordinates are floats rendered with 15
significant digits, while every element carries the exact strings in
data- attributes.  The JSON sidecar is the lossless artifact;
``classification_digest`` reads the face classification back from it bit
for bit.  Identical inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from itertools import repeat

from .exactnum import QNum
from .pwl import PwlFunction
from .complex2d import centroid, ccw_hull_order
from .additivity import (ADDITIVE, LIMIT_ADDITIVE, AdditivityReport,
                         additive_face_report)

SCHEMA = "groupcut-diagram/2"

_SIZE = 560.0
_MARGIN = 44.0
_NF_FILL = {0: "#ffffff", 1: "#d7e3f4", 2: "#9dbbe3"}
_GREEN = "#1a9641"
_CONE_LEN = 13.0


def _fmt(v: float) -> str:
    return f"{v:.15g}"


def _px(x: float) -> float:
    return _MARGIN + x * _SIZE


def _py(y: float) -> float:
    return _MARGIN + (1.0 - y) * _SIZE


def _esc(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _polygon_points(vertices) -> str:
    pts = []
    for (u, v) in ccw_hull_order(vertices):
        pts.append(f"{_fmt(_px(float(u)))},{_fmt(_py(float(v)))}")
    return " ".join(pts)


def _cone_arrow(vertex, toward, exact_vertex: str) -> str:
    """Fixed-length arrow glyph entering `vertex` from the `toward` side."""
    vx, vy = float(vertex[0]), float(vertex[1])
    dx, dy = float(toward[0]) - vx, float(toward[1]) - vy
    norm = math.hypot(dx, dy)
    if norm == 0.0:
        return ""
    dx, dy = dx / norm, dy / norm
    x1, y1 = _px(vx), _py(vy)
    # pixel-space direction away from the vertex (y axis is flipped)
    ex, ey = dx, -dy
    x0, y0 = x1 + ex * _CONE_LEN, y1 + ey * _CONE_LEN
    # small arrowhead wings at the vertex end
    wing = 3.6
    wx, wy = -ey, ex
    h1 = (x1 + ex * wing + wx * wing * 0.7, y1 + ey * wing + wy * wing * 0.7)
    h2 = (x1 + ex * wing - wx * wing * 0.7, y1 + ey * wing - wy * wing * 0.7)
    return (
        f'<g class="cone" data-vertex="{_esc(exact_vertex)}">'
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" '
        f'y2="{_fmt(y1)}" stroke="{_GREEN}" stroke-width="1.6"/>'
        f'<polyline points="{_fmt(h1[0])},{_fmt(h1[1])} {_fmt(x1)},'
        f'{_fmt(y1)} {_fmt(h2[0])},{_fmt(h2[1])}" stroke="{_GREEN}" '
        f'stroke-width="1.6" fill="none"/></g>')


def _resolve(fn):
    """Accept a PwlFunction or a lifted object carrying a PWL base."""
    note = None
    base = fn
    if not isinstance(fn, PwlFunction):
        base = getattr(fn, "base", None)
        if not isinstance(base, PwlFunction):
            raise TypeError("diagram needs a piecewise linear function or "
                            "an object with a piecewise linear .base")
        s = getattr(getattr(fn, "params", None), "s", None)
        note = (f"rendered as the piecewise linear base; the actual values "
                f"move by +/-{s} on dense coset families inside the special "
                f"intervals")
    return base, note


def render_svg(fn, *, show_additive: bool = True,
               show_limit_cones: bool = True,
               color_by_nf: bool = False) -> str:
    base, note = _resolve(fn)
    report = additive_face_report(base)
    cx = report.complex
    total = _SIZE + 2 * _MARGIN
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(total)}" '
        f'height="{_fmt(total)}" viewBox="0 0 {_fmt(total)} {_fmt(total)}">',
        f'<rect x="0" y="0" width="{_fmt(total)}" height="{_fmt(total)}" '
        f'fill="#ffffff"/>',
        f'<title>{_esc(base.name or "function")} complex</title>',
    ]

    if color_by_nf:
        for cls, nf in zip(report.faces, report.n_f):
            face = cls.face
            if face.dim != 2:
                continue
            out.append(
                f'<polygon points="{_polygon_points(face.vertices)}" '
                f'fill="{_NF_FILL.get(nf, _NF_FILL[2])}" stroke="none" '
                f'data-nf="{nf}" data-face="{_esc(face.label())}"/>')

    # grid: breakpoint verticals/horizontals and the diagonals x + y = const
    grid = []
    for b in list(base.breakpoints) + [QNum(1)]:
        v = float(b)
        grid.append(((v, 0.0), (v, 1.0), str(b)))
        grid.append(((0.0, v), (1.0, v), str(b)))
    for c in cx.points_k:
        fc = float(c)
        if fc <= 1.0:
            seg = ((0.0, fc), (fc, 0.0))
        else:
            seg = ((fc - 1.0, 1.0), (1.0, fc - 1.0))
        grid.append((seg[0], seg[1], str(c)))
    for (a, b, exact) in grid:
        out.append(
            f'<line x1="{_fmt(_px(a[0]))}" y1="{_fmt(_py(a[1]))}" '
            f'x2="{_fmt(_px(b[0]))}" y2="{_fmt(_py(b[1]))}" '
            f'stroke="#b0b0b0" stroke-width="0.6" data-at="{_esc(exact)}"/>')

    if show_additive:
        for cls in report.faces:
            if cls.status != ADDITIVE:
                continue
            face = cls.face
            label = _esc(face.label())
            if face.dim == 2:
                out.append(
                    f'<polygon points="{_polygon_points(face.vertices)}" '
                    f'fill="{_GREEN}" fill-opacity="0.45" stroke="none" '
                    f'data-face="{label}" data-status="additive"/>')
            elif face.dim == 1:
                (u0, v0), (u1, v1) = face.vertices[0], face.vertices[-1]
                out.append(
                    f'<line x1="{_fmt(_px(float(u0)))}" '
                    f'y1="{_fmt(_py(float(v0)))}" '
                    f'x2="{_fmt(_px(float(u1)))}" '
                    f'y2="{_fmt(_py(float(v1)))}" stroke="{_GREEN}" '
                    f'stroke-width="2.4" data-face="{label}" '
                    f'data-status="additive"/>')
            else:
                (u, v) = face.vertices[0]
                out.append(
                    f'<circle cx="{_fmt(_px(float(u)))}" '
                    f'cy="{_fmt(_py(float(v)))}" r="3" fill="{_GREEN}" '
                    f'data-face="{label}" data-status="additive"/>')

    if show_limit_cones:
        for cls in report.faces:
            if cls.status != LIMIT_ADDITIVE:
                continue
            face = cls.face
            mid = centroid(face.vertices)
            for (u, v) in cls.zero_vertices:
                arrow = _cone_arrow((u, v), mid, f"({u}, {v})")
                if arrow:
                    out.append(arrow)

    if note:
        out.append(f'<text x="{_fmt(_MARGIN)}" y="{_fmt(total - 10.0)}" '
                   f'font-size="11" fill="#444444">{_esc(note)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _encode(report: AdditivityReport, n_f) -> dict:
    """The sidecar's tables and faces, written by position from the face
    store and the classification kinds, with n_f the n_F of each face.
    The complex keeps one object per exact value (``complex2d._enumerate``),
    so told apart by id each coordinate is in ``numbers`` once: the cells'
    ends first, then the points'.  Each distinct (slack, sides) record is one
    dict and each slack tuple one list, shared by all faces of that kind."""
    cx = report.complex
    _, points, _, starts, verts = cx.faces.ids()
    kind, slack_sides = report.faces.kinds()
    numbers: list[str] = []
    by_id: dict[int, int] = {}  # id of a coordinate object -> its number

    def number(q) -> int:
        i = by_id.get(id(q))
        if i is None:
            i = by_id[id(q)] = len(numbers)
            numbers.append(str(q))
        return i

    cells = [(number(iv.a), number(iv.b)) for iv in cx.faces_k]
    pts = [(number(x), number(y)) for x, y in points]
    records: dict[tuple[int, int], dict] = {}

    def record(slack, sides) -> dict:
        rec = records.get((id(slack), id(sides)))
        if rec is None:
            rec = records[id(slack), id(sides)] = {"sides": sides,
                                                  "slack": str(slack)}
        return rec

    slacks = [[record(data[i], data[i + 1]) for i in range(0, len(data), 2)]
              for data in slack_sides]
    status = report.faces.statuses()
    faces = [{"cells": c, "vertices": verts[a:b].tolist(), "n_f": nf,
              "status": status[k], "slacks": slacks[k]}
             for c, a, b, nf, k in zip(cx.faces.cells(), starts,
                                       starts[1:], n_f, kind)]
    return {"numbers": numbers, "points": pts, "cells": cells,
            "faces": faces}


def render_sidecar(fn, report: AdditivityReport | None = None) -> dict:
    """Exact JSON description of the function and its face classification.

    The faces refer by position to ``numbers`` (each exact coordinate
    string once), ``points`` (vertices as number pairs) and ``cells`` (the
    1-D faces over [0, 2] as number pairs; those over [0, 1] are their
    prefix).  Faces of one kind share their ``slacks`` list, so the
    returned dict is read-only: serialise it, or copy it before an edit.
    """
    base, note = _resolve(fn)
    if report is None:
        report = additive_face_report(base)
    specials = base.special_intervals
    data = {
        "schema": SCHEMA,
        "function": {
            "name": base.name,
            "f": str(base.f),
            "rows": [[str(r.x), str(r.left), str(r.value), str(r.right)]
                     for r in base.rows],
            "special_intervals": [[str(a), str(b)] for a, b in specials],
        },
        **_encode(report, report.n_f),
    }
    if note:
        data["note"] = note
    return data


def sidecar_to_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _at(table: list, i, what: str):
    """table[i] for an int index inside the table, else a ValueError."""
    if type(i) is not int or not 0 <= i < len(table):
        raise ValueError(f"{what} index {i!r} is outside {len(table)} "
                         f"entries")
    return table[i]


def _pair_reader(table: list, numbers: list, what: str):
    """Entry i of a table of number-index pairs, as a pair of strings,
    each entry read and checked once."""
    done: dict[int, tuple[str, str]] = {}

    def read(i) -> tuple[str, str]:
        got = done.get(i) if type(i) is int else None
        if got is None:
            entry = _at(table, i, what)
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError(f"{what} {i} is not a pair of indices")
            got = done[i] = tuple(_at(numbers, j, f"{what} {i}: number")
                                  for j in entry)
        return got
    return read


def classification_digest(source) -> dict:
    """Canonical face -> classification map, from a report or a sidecar.

    Equality of digests is the losslessness check for the JSON export.
    A report is read through the sidecar's own encoding.  A face is keyed
    by the exact ends of its I, J and K; its value is its status and, per
    vertex, the vertex, side triple and slack.  Malformed input raises a
    ValueError that names the face.
    """
    if isinstance(source, AdditivityReport):
        # n_F is not in the digest, so it is not worked out for it
        source = {"schema": SCHEMA,
                  **_encode(source, repeat(0, len(source.faces)))}
    if not isinstance(source, dict):
        raise ValueError(f"a sidecar is a dict, not {type(source).__name__}")
    if source.get("schema") != SCHEMA:
        raise ValueError(f"unknown schema {source.get('schema')!r}, "
                         f"expected {SCHEMA!r}")
    for k in ("numbers", "points", "cells", "faces"):
        if not isinstance(source.get(k), list):
            raise ValueError(f"the sidecar has no {k} list")
    numbers = source["numbers"]
    cell = _pair_reader(source["cells"], numbers, "cell")
    point = _pair_reader(source["points"], numbers, "point")
    out = {}
    for n, item in enumerate(source["faces"]):
        try:
            fi, fj, fk = item["cells"]
            verts, recs = item["vertices"], item["slacks"]
            if len(recs) != len(verts):
                raise ValueError(f"{len(recs)} slack records for "
                                 f"{len(verts)} vertices")
            out[(*cell(fi), *cell(fj), *cell(fk))] = (
                item["status"],
                tuple((*point(v), tuple(r["sides"]), r["slack"])
                      for v, r in zip(verts, recs)))
        except KeyError as err:
            raise ValueError(f"face {n}: no key {err}") from None
        except (TypeError, ValueError) as err:
            raise ValueError(f"face {n}: {err}") from None
    return out
