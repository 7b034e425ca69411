"""SVG rendering and the JSON sidecar round trip."""

import json
from fractions import Fraction

import pytest

from groupcut.exactnum import QNum
from groupcut.pwl import BreakpointRow, PwlFunction
from groupcut.additivity import additive_face_report
from groupcut.catalog import (kzh_params, lifted_function, psi_function,
                              psi_prime_function)
from groupcut.diagram import (
    SCHEMA, classification_digest, render_sidecar, render_svg,
    sidecar_to_json,
)

from helpers import function_from_sidecar

Q = lambda *a: QNum(Fraction(*a))
GREEN = "#1a9641"


def _constant_half():
    row = BreakpointRow(Q(0), Q(1, 2), Q(1, 2), Q(1, 2))
    return PwlFunction([row], Q(1, 2), name="flat")


def test_svg_basic_structure():
    svg = render_svg(psi_function())
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert "<title>psi complex</title>" in svg


def test_render_is_deterministic():
    a = render_svg(psi_function())
    b = render_svg(psi_function())
    assert a == b
    ja = sidecar_to_json(render_sidecar(psi_function()))
    jb = sidecar_to_json(render_sidecar(psi_function()))
    assert ja == jb


def test_northeast_limit_cone_separates_the_pair():
    assert 'data-vertex="(3/8, 3/8)"' in render_svg(psi_function())
    assert 'data-vertex="(3/8, 3/8)"' not in render_svg(psi_prime_function())


def test_additive_shading_and_toggles():
    svg = render_svg(psi_function())
    assert GREEN in svg
    assert 'class="cone"' in svg
    no_shade = render_svg(psi_function(), show_additive=False)
    assert 'data-status="additive"' not in no_shade
    assert 'class="cone"' not in render_svg(psi_function(),
                                            show_limit_cones=False)
    bare = render_svg(psi_function(), show_additive=False,
                      show_limit_cones=False)
    assert GREEN not in bare


def test_no_additivity_means_no_shading():
    svg = render_svg(_constant_half())
    assert GREEN not in svg
    assert 'class="cone"' not in svg


def test_nf_coloring():
    psi = psi_function()
    fn = PwlFunction(psi.rows, psi.f, special_intervals=((Q(1, 8), Q(3, 8)),))
    svg = render_svg(fn, color_by_nf=True)
    assert 'data-nf="1"' in svg
    assert "#d7e3f4" in svg
    plain = render_svg(psi_function())
    assert "data-nf" not in plain


def test_sidecar_shape():
    data = render_sidecar(psi_function())
    assert data["schema"] == SCHEMA == "groupcut-diagram/1"
    f = data["function"]
    assert f["name"] == "psi"
    assert f["f"] == "1/2"
    assert all(len(row) == 4 and all(isinstance(c, str) for c in row)
               for row in f["rows"])
    assert {item["status"] for item in data["faces"]} <= {
        "additive", "limit_additive", "non_additive"}


def test_sidecar_round_trip_is_lossless():
    fn = psi_function()
    data = json.loads(sidecar_to_json(render_sidecar(fn)))
    back = function_from_sidecar(data)
    assert back.rows == fn.rows
    assert back.f == fn.f
    assert back.name == fn.name
    assert classification_digest(data) == classification_digest(
        additive_face_report(fn))


def test_sidecar_round_trip_with_irrational_function():
    p = kzh_params()
    fn = PwlFunction.continuous_from_values(
        [(Q(0), Q(0)), (p.a1, Q(1, 2)), (Q(1, 2), Q(1))],
        Q(1, 2), name="irr")
    data = json.loads(sidecar_to_json(render_sidecar(fn)))
    back = function_from_sidecar(data)
    assert back.rows == fn.rows


def test_unknown_schema_rejected():
    data = render_sidecar(psi_function())
    data["schema"] = "groupcut-diagram/2"
    with pytest.raises(ValueError, match="schema"):
        function_from_sidecar(data)


def test_lifted_renders_its_base_with_a_note():
    lf = lifted_function()
    svg = render_svg(lf)
    assert "19/23998" in svg
    data = render_sidecar(lf)
    assert "19/23998" in data["note"]
    assert function_from_sidecar(data).rows == lf.base.rows


def test_non_function_input_rejected():
    with pytest.raises(TypeError):
        render_svg(42)
