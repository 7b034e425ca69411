"""SVG rendering and the JSON sidecar round trip."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from groupcut.exactnum import QNum
from groupcut.pwl import BreakpointRow, PwlFunction
from groupcut.additivity import additive_face_report
from groupcut.catalog import (kzh_function, kzh_params, lifted_function,
                              psi_function, psi_prime_function)
from groupcut.diagram import (
    SCHEMA, _cone_arrow, classification_digest, render_sidecar, render_svg,
    sidecar_to_json,
)

from helpers import (expand_sidecar_v2, function_from_sidecar, gmic,
                     random_pwl, reference_sidecar_v1)

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


def test_kzh_sidecar_and_svg_bytes_are_pinned():
    """The bytes of kzh's sidecar and SVG, which read every face, vertex
    and slack of the complex."""
    fn = kzh_function()
    sidecar = sidecar_to_json(render_sidecar(fn)).encode()
    assert hashlib.sha256(sidecar).hexdigest() == (
        "c4a7e8a219e3a8fc5dde01377fba2e371fa9053e2135f8b7484bf2e3efd38646")
    assert hashlib.sha256(render_svg(fn).encode()).hexdigest() == (
        "88b6d418218d60994798e3a768afe37a53db0b4b562770de45be0bc9a51e4c4f")


def test_a_sidecar_that_contains_itself_is_a_value_error():
    data = render_sidecar(psi_function())
    data["function"]["self"] = data
    with pytest.raises(ValueError, match="contains itself"):
        sidecar_to_json(data)


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
    assert data["schema"] == SCHEMA == "groupcut-diagram/2"
    f = data["function"]
    assert f["name"] == "psi"
    assert f["f"] == "1/2"
    assert all(len(row) == 4 and all(isinstance(c, str) for c in row)
               for row in f["rows"])
    assert {item["status"] for item in data["faces"]} <= {
        "additive", "limit_additive", "non_additive"}
    numbers, points, cells = data["numbers"], data["points"], data["cells"]
    assert len(set(numbers)) == len(numbers)
    assert all(isinstance(s, str) for s in numbers)
    assert all(0 <= i < len(numbers) for pair in points + cells for i in pair)
    assert [numbers[c[0]] for c in cells[::2]] == [
        "0", "1/8", "3/8", "1/2", "5/8", "7/8", "1", "9/8", "11/8", "3/2",
        "13/8", "15/8", "2"]
    for item in data["faces"]:
        assert set(item) == {"cells", "vertices", "n_f", "status", "slacks"}
        fi, fj, fk = item["cells"]
        # I and J are cells over [0, 1], the first 13; K is any cell
        assert max(fi, fj) < 13 and fk < len(cells)
        assert len(item["slacks"]) == len(item["vertices"])
        assert all(0 <= v < len(points) for v in item["vertices"])


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
    data["schema"] = "groupcut-diagram/1"
    with pytest.raises(ValueError, match="schema"):
        function_from_sidecar(data)
    with pytest.raises(ValueError, match="schema"):
        classification_digest(data)


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


# -- schema 2 against the schema-1 reference ------------------------------------


def _seeded_grid_functions():
    rng = random.Random(28)
    return [random_pwl(rng, n) for n in (5, 7, 12) for _ in range(3)]


@pytest.mark.parametrize("make", [
    psi_function, psi_prime_function, kzh_function, lifted_function,
    lambda: gmic(Fraction(2, 3)), *(
        (lambda fn=fn: fn) for fn in _seeded_grid_functions())],
    ids=["psi", "psi_prime", "kzh", "lifted", "gmic",
         *(f"grid{i}" for i in range(9))])
def test_v2_expands_to_the_v1_reference(make):
    fn = make()
    data = json.loads(sidecar_to_json(render_sidecar(fn)))
    want = json.loads(json.dumps(reference_sidecar_v1(fn)))
    assert expand_sidecar_v2(data) == want
    if make is kzh_function:  # the special intervals give faces an n_F
        assert {item["n_f"] for item in data["faces"]} == {0, 1, 2}
        assert len(data["numbers"]) == 664
    if make is lifted_function:
        assert "19/23998" in data["note"]


def _psi_sidecar():
    return json.loads(sidecar_to_json(render_sidecar(psi_function())))


def _bad(edit):
    data = _psi_sidecar()
    edit(data)
    return data


def _set(seq, i, value):
    seq[i] = value


@pytest.mark.parametrize("edit, message", [
    (lambda d: d.update(schema="groupcut-diagram/1"), "unknown schema"),
    (lambda d: d.pop("numbers"), "no numbers"),
    (lambda d: _set(d["faces"][3]["cells"], 0, 10**6),
     "face 3: cell index 1000000"),
    (lambda d: _set(d["faces"][3]["cells"], 2, -1), "face 3: cell index -1"),
    (lambda d: _set(d["faces"][3]["vertices"], 0, 10**6),
     "face 3: point index 1000000"),
    (lambda d: _set(d["faces"][3]["vertices"], 0, "0"),
     "face 3: point index '0'"),
    (lambda d: _set(d["points"], d["faces"][3]["vertices"][0], [0, 999]),
     r"face \d+: point \d+: number index 999"),
    (lambda d: _set(d["cells"], d["faces"][3]["cells"][0], [-1, 0]),
     r"face \d+: cell \d+: number index -1"),
    (lambda d: _set(d["cells"], d["faces"][3]["cells"][0], [0]),
     r"face \d+: cell \d+ is not a pair"),
    (lambda d: d["faces"][3]["slacks"].pop(), "face 3: 1 slack records for "
     "2 vertices"),
    (lambda d: d["faces"][3]["slacks"].append({}), "face 3: 3 slack"),
    (lambda d: d["faces"][3].pop("status"), "face 3: no key 'status'"),
    (lambda d: d["faces"][3]["slacks"][0].pop("slack"),
     "face 3: no key 'slack'"),
    (lambda d: _set(d["faces"][3], "cells", [0, 1]), "face 3: not enough"),
])
def test_malformed_v2_is_a_value_error_naming_the_face(edit, message):
    data = _bad(edit)
    assert len(_psi_sidecar()["faces"][3]["vertices"]) == 2
    with pytest.raises(ValueError, match=message):
        classification_digest(data)


def test_digest_sees_a_nudged_number_or_slack():
    data = _psi_sidecar()
    digest = classification_digest(data)
    nudge = Fraction(1, 10**6)
    i = data["numbers"].index("3/8")
    data["numbers"][i] = str(Fraction(3, 8) + nudge)
    assert classification_digest(data) != digest
    data = _psi_sidecar()
    rec = next(r for item in data["faces"] for r in item["slacks"]
               if r["slack"] != "0")
    rec["slack"] = str(Fraction(rec["slack"]) + nudge)
    assert classification_digest(data) != digest


def test_digest_of_a_report_works_out_no_n_f():
    # the digest has no n_F, so reading a report leaves n_F unbuilt
    psi = psi_function()
    fn = PwlFunction(psi.rows, psi.f, special_intervals=((Q(1, 8), Q(3, 8)),))
    report = additive_face_report(fn)
    digest = classification_digest(report)
    assert "n_f" not in vars(report)
    assert digest == classification_digest(json.loads(sidecar_to_json(
        render_sidecar(fn))))
    assert any(report.n_f)


def test_faces_of_one_kind_share_their_slack_records():
    # so render_sidecar's dict is read-only, and small to keep until dumped
    faces = render_sidecar(kzh_function())["faces"]
    assert len({id(item["slacks"]) for item in faces}) == 6243
    assert len({id(r) for item in faces for r in item["slacks"]}) == 3453
    assert sum(len(item["slacks"]) for item in faces) == 40627


@pytest.mark.parametrize("source", [[1], "groupcut-diagram/2", None])
def test_digest_of_a_non_dict_is_a_value_error(source):
    with pytest.raises(ValueError, match="a sidecar is a dict, not "):
        classification_digest(source)


@pytest.mark.parametrize("key", ["numbers", "points", "cells", "faces"])
def test_digest_needs_each_table_as_a_list(key):
    data = _bad(lambda d: d.update({key: 5}))
    with pytest.raises(ValueError, match=f"the sidecar has no {key} list"):
        classification_digest(data)


@pytest.mark.parametrize("make", [
    psi_function, psi_prime_function, kzh_function, lifted_function,
    lambda: gmic(Fraction(2, 3)), *(
        (lambda fn=fn: fn) for fn in _seeded_grid_functions())],
    ids=["psi", "psi_prime", "kzh", "lifted", "gmic",
         *(f"grid{i}" for i in range(9))])
def test_numbers_hold_each_exact_value_once(make):
    # the writer tells values apart by object: the complex keeps one
    # object per value, so no string may repeat
    numbers = render_sidecar(make())["numbers"]
    assert len(set(numbers)) == len(numbers)


def test_a_cone_arrow_of_no_length_is_not_drawn():
    # a vertex and a centroid that meet in floats give no direction
    assert _cone_arrow((Q(1, 3), Q(0)), (Q(1, 3), Q(0)), "(1/3, 0)") == ""
