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
from functools import lru_cache

from .exactnum import QNum
from .pwl import PwlFunction
from .complex2d import centroid, ccw_hull_order
from .additivity import (ADDITIVE, LIMIT_ADDITIVE, AdditivityReport,
                         additive_face_report)

SCHEMA = "groupcut-diagram/1"

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


def _encode_faces(report: AdditivityReport) -> list[dict]:
    """The face classification as JSON values, numbers as exact strings.

    Each number, number pair (an interval or a vertex) and side triple is
    one shared immutable value; json writes a tuple as an array.
    """
    text = lru_cache(maxsize=None)(str)
    pairs: dict = {}

    def pair(key, a, b):
        got = pairs.get(key)
        if got is None:
            got = pairs[key] = (text(a), text(b))
        return got

    faces = []
    for cls, nf in zip(report.faces, report.n_f):
        face = cls.face
        I, J, K = face.I, face.J, face.K
        verts = [pair(v, *v) for v in face.vertices]
        data = cls.slack_sides
        faces.append({
            "I": pair(I, I.a, I.b),
            "J": pair(J, J.a, J.b),
            "K": pair(K, K.a, K.b),
            "dim": face.dim,
            "status": cls.status,
            "n_f": nf,
            "vertices": verts,
            "slacks": [{"vertex": v, "sides": data[2 * i + 1],
                        "slack": text(data[2 * i])}
                       for i, v in enumerate(verts)],
        })
    return faces


def render_sidecar(fn, report: AdditivityReport | None = None) -> dict:
    """Exact JSON description of the function and its face classification."""
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
        "faces": _encode_faces(report),
    }
    if note:
        data["note"] = note
    return data


def sidecar_to_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def classification_digest(source) -> dict:
    """Canonical face -> classification map, from a report or a sidecar.

    Equality of digests is the losslessness check for the JSON export.
    A report is read through the sidecar's own encoding.
    """
    if isinstance(source, AdditivityReport):
        source = {"faces": _encode_faces(source)}
    out = {}
    for item in source["faces"]:
        key = (item["I"][0], item["I"][1], item["J"][0], item["J"][1],
               item["K"][0], item["K"][1])
        out[key] = (item["status"],
                    tuple((r["vertex"][0], r["vertex"][1],
                           tuple(r["sides"]), r["slack"])
                          for r in item["slacks"]))
    return out
