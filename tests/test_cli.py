"""Command line surface: grammar on the wire, exit codes, file output."""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import groupcut
from groupcut import diagram
from groupcut.cli import _build_parser, main
from groupcut.exactnum import QNum
from groupcut.pwl import PwlFunction, load, to_text
from groupcut.catalog import (kzh_function, kzh_params, lifted_function,
                              psi_function)
from helpers import gmic, midpoint_pair

Q = lambda *a: QNum(Fraction(*a))


@pytest.fixture
def pair_files(tmp_path):
    mid, bar = midpoint_pair()
    mp = tmp_path / "mid.txt"
    bp = tmp_path / "bar.txt"
    mp.write_text(to_text(mid))
    bp.write_text(to_text(bar))
    return str(mp), str(bp)


def test_eval_examples(capsys):
    assert main(["eval", "kzh", "4/5"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["eval", "psi", "0"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_eval_lifted_at_a_moved_point(capsys):
    p = kzh_params()
    x = p.l + p.t2
    assert main(["eval", "kzh_lifted", str(x)]) == 0
    assert capsys.readouterr().out.strip() == str(lifted_function().eval(x))


def test_limit_needs_piecewise_linear(capsys):
    assert main(["limit", "kzh_lifted", "1/2", "plus"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_function_lists_catalog(capsys):
    assert main(["eval", "nope", "0"]) == 2
    err = capsys.readouterr().err
    assert "unknown function 'nope'" in err
    assert "psi_prime" in err


def test_bad_number(capsys):
    assert main(["eval", "psi", "1/0"]) == 2
    assert "cannot parse number" in capsys.readouterr().err


def test_limit(capsys):
    assert main(["limit", "psi", "0", "minus"]) == 0
    assert capsys.readouterr().out == "1/2\n"
    assert main(["limit", "kzh", "219/800", "plus"]) == 0
    assert capsys.readouterr().out == "51443/147680\n"


def test_minimality_exit_codes(tmp_path, capsys):
    assert main(["minimality", "psi"]) == 0
    assert capsys.readouterr().out.strip() == "minimal"

    scaled = (tmp_path / "scaled.txt")
    mid, _ = midpoint_pair()
    scaled.write_text(to_text(mid.scale(Fraction(9, 10))))
    assert main(["minimality", str(scaled)]) == 1
    assert "not minimal" in capsys.readouterr().out


def test_additive_faces_text(capsys):
    assert main(["additive-faces", "psi"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == (
        "faces: 289  additive: 75  limit-additive: 87  non-additive: 127")
    assert "additive\tF({0}, {0}, {0})" in out.replace("        ", "\t") or \
        "F({0}, {0}, {0})" in out


def test_covering_output(capsys):
    assert main(["covering", "psi"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "component 0: (0, 1/8) (3/8, 1/2)"
    assert lines[1] == "uncovered: (1/8, 3/8) (1/2, 5/8) (5/8, 7/8) (7/8, 1)"
    assert lines[2] == "moves: 36"


def test_perturbation_rank_default(capsys):
    assert main(["perturbation-rank"]) == 0
    out = capsys.readouterr().out
    assert "rank: 39" in out
    assert "nullity: 0" in out


def test_perturbation_rank_rejects_other_functions(capsys):
    assert main(["perturbation-rank", "psi"]) == 2
    assert "kzh" in capsys.readouterr().err


def test_perturbation_rank_refutes_a_short_file_named_kzh(tmp_path, capsys):
    path = tmp_path / "kzh.txt"
    path.write_text("name: kzh\nf: 1/2\nx | left | value | right\n"
                    "0 | 0 | 0 | 0\n1/2 | 1 | 1 | 1\n")
    assert main(["perturbation-rank", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "claim kzh_perturbation_rank: refuted" in out
    assert "witness: 2 breakpoints, not kzh's 40" in out
    assert err == ""


def test_epsilon_lipschitz(pair_files, capsys):
    mp, bp = pair_files
    assert main(["epsilon", "lipschitz", mp, bp]) == 0
    assert capsys.readouterr().out == "m = 1/4\nM = 1/4\nC = 1\nepsilon = 1/32\n"
    assert main(["epsilon", "lipschitz", mp, bp, "--check"]) == 0
    out = capsys.readouterr().out
    assert "minimal at +epsilon: True" in out
    assert "minimal at -epsilon: True" in out


def test_epsilon_lipschitz_refuses_a_perturbation_that_moves_f(tmp_path,
                                                               capsys):
    path = tmp_path / "fn.txt"
    path.write_text(to_text(PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), 1),
         (Fraction(3, 4), Fraction(1, 2))], Fraction(1, 2))))
    assert main(["epsilon", "lipschitz", str(path), str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: perturbation does not vanish at f\n"


def test_epsilon_scaling(pair_files, capsys):
    mp, bp = pair_files
    assert main(["epsilon", "scaling", mp, bp]) == 0
    assert capsys.readouterr().out == "epsilon = 3\n"


def test_epsilon_scaling_rejects_check(pair_files, capsys):
    mp, bp = pair_files
    assert main(["epsilon", "scaling", mp, bp, "--check"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --check applies to epsilon lipschitz only\n"


@pytest.mark.parametrize("form", [["lipschitz", "--check"], ["scaling"]])
def test_epsilon_rejects_a_perturbation_with_another_f(form, tmp_path,
                                                       capsys):
    base, pert = tmp_path / "base.txt", tmp_path / "pert.txt"
    base.write_text(to_text(gmic(Fraction(1, 2))))
    pert.write_text(to_text(gmic(Fraction(1, 4))))
    assert main(["epsilon", *form, str(base), str(pert)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: cannot combine functions with different f\n"


def test_verify_text_and_json(capsys):
    assert main(["verify", "psi"]) == 0
    assert "claim psi_separation: verified" in capsys.readouterr().out

    assert main(["verify", "psi", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema"] == "groupcut-verify/1"
    assert len(data["reports"]) == 1
    assert data["reports"][0]["status"] == "verified"


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kzh", "kzh_lifted", "psi", "psi_prime"]


def test_catalog_export_round_trip(tmp_path, capsys):
    path = tmp_path / "kzh.txt"
    assert main(["catalog", "export", "kzh", "--out", str(path)]) == 0
    capsys.readouterr()
    back = load(str(path))
    assert back.rows == kzh_function().rows
    assert back.special_intervals == kzh_function().special_intervals


def test_catalog_export_errors(capsys):
    assert main(["catalog", "export"]) == 2
    capsys.readouterr()
    assert main(["catalog", "export", "kzh_lifted"]) == 2
    assert "not piecewise linear" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (lambda d: ["minimality", d], "cannot read function file"),
    (lambda d: ["catalog", "export", "kzh", "--out",
                os.path.join(d, "missing", "kzh.txt")], "cannot write"),
    (lambda d: ["diagram", "psi", "--out", d], "cannot write"),
], ids=("read-a-directory", "write-into-a-missing-directory",
        "write-over-a-directory"))
def test_file_errors_are_input_errors(argv, message, tmp_path, capsys):
    # exit 1 means refuted or not minimal, so a file that cannot be read or
    # written is an input error: exit 2 and one line on stderr
    assert main(argv(str(tmp_path))) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("line", ["f: 1/4", "special_intervals: (0, 1/4)"])
def test_a_repeated_header_field_is_an_input_error(line, tmp_path, capsys):
    path = tmp_path / "fn.txt"
    path.write_text(to_text(PwlFunction(
        gmic(Fraction(1, 2)).rows, Fraction(1, 2),
        special_intervals=((0, Fraction(1, 4)),))
    ).replace("x | left", f"{line}\nx | left"))
    assert main(["minimality", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    field = line.partition(":")[0]
    assert err.startswith("error: ") and f"'{field}' is given twice" in err


def test_diagram_files(tmp_path, capsys):
    sp = tmp_path / "psi.svg"
    assert main(["diagram", "psi", "--out", str(sp)]) == 0
    svg = sp.read_text()
    assert svg.startswith("<svg")
    assert 'data-vertex="(3/8, 3/8)"' in svg

    assert main(["diagram", "psi", "--no-cones", "--out", str(sp)]) == 0
    assert 'class="cone"' not in sp.read_text()

    jp = tmp_path / "psi.json"
    assert main(["diagram", "psi", "--format", "json", "--out", str(jp)]) == 0
    capsys.readouterr()
    assert json.loads(jp.read_text())["schema"] == "groupcut-diagram/2"


def test_diagram_builds_only_the_requested_format(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("not asked for")

    monkeypatch.setattr(diagram, "render_sidecar", refuse)
    assert main(["diagram", "psi"]) == 0
    assert capsys.readouterr().out.startswith("<svg")
    monkeypatch.undo()
    monkeypatch.setattr(diagram, "render_svg", refuse)
    assert main(["diagram", "psi", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == (
        "groupcut-diagram/2")


@pytest.mark.parametrize("flag", ["--no-additive", "--no-cones",
                                  "--color-by-nf"])
def test_diagram_json_rejects_svg_flags(flag, capsys):
    assert main(["diagram", "psi", "--format", "json", flag]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {flag} applies to --format svg only\n"


def test_cli_surface_is_pinned():
    """Each subcommand's options; a new flag needs an edit here."""
    subs = next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    surface = {name: sorted(s for a in p._actions for s in a.option_strings
                            if s not in ("-h", "--help"))
               for name, p in subs.choices.items()}
    assert surface == {
        "eval": [], "limit": [], "minimality": [], "additive-faces": [],
        "covering": [], "perturbation-rank": [], "epsilon": ["--check"],
        "verify": ["--json"], "catalog": ["--out"],
        "diagram": ["--color-by-nf", "--format", "--no-additive",
                    "--no-cones", "--out"],
    }


def test_file_based_function(tmp_path, capsys):
    mid, _ = midpoint_pair()
    path = tmp_path / "mid.txt"
    path.write_text(to_text(mid))
    assert main(["eval", str(path), "1/4"]) == 0
    assert capsys.readouterr().out.strip() == str(mid.eval(Q(1, 4)))
    assert main(["minimality", str(path)]) == 0


def test_no_arguments_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def _run_cli(*args: str) -> subprocess.CompletedProcess:
    """groupcut in a fresh interpreter, stopped if it runs past 60 s."""
    src = os.path.dirname(os.path.dirname(groupcut.__file__))
    code = "import sys; from groupcut.cli import main; sys.exit(main())"
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})


def test_eval_at_powers_of_one_minus_sqrt2_exits_promptly(tmp_path):
    path = tmp_path / "psi.txt"
    path.write_text(to_text(psi_function()))
    for n in (60, 61, 400):
        x = (1 - QNum(0, 1)) ** n  # parts near 2.4^n, value within 1 of 0
        done = _run_cli("eval", str(path), str(x))
        assert done.returncode == 0, done.stderr
        assert done.stdout == f"{psi_function().eval(x)}\n"


def test_diagram_json_is_the_same_under_two_hash_seeds():
    # the order of the sidecar's numbers is insertion order, never that of
    # a set or of a dict keyed by hashed numbers
    src = os.path.dirname(os.path.dirname(groupcut.__file__))
    code = "import sys; from groupcut.cli import main; sys.exit(main())"
    runs = [subprocess.run(
        [sys.executable, "-c", code, "diagram", "psi", "--format", "json"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed})
        for seed in ("0", "1")]
    assert [done.returncode for done in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert json.loads(runs[0].stdout)["schema"] == "groupcut-diagram/2"


def test_verify_all_json_output_is_pinned():
    done = _run_cli("verify", "all", "--json")
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == ("c7fb112ec65f59034123c759e65a0a2f"
                      "991737702fb9f5281addf624a5125eaf")


# -- malformed tables through every command that reads one --------------------

_BAD_NUMBERS = ("1/0", "abc", "0.5", "", "1e3", "2+", "sqrt2", "1/2/3")


@st.composite
def _tables(draw):
    """The text of a small function table, made malformed at random."""
    q = draw(st.integers(2, 6))
    xs = sorted(draw(st.sets(st.integers(1, q - 1), max_size=3)) | {0})
    rows = [[f"{x}/{q}"] + [f"{draw(st.integers(0, q))}/{q}"] * 3
            for x in xs]
    f = f"{draw(st.sampled_from(xs[1:] or [1]))}/{q}"
    header = [f"name: {draw(st.sampled_from(['fz', 'kzh']))}"]
    bad = draw(st.sets(st.sampled_from(
        ("number", "unsorted", "duplicate", "three_columns", "f_outside",
         "specials")), max_size=2))
    if "number" in bad:
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 3))] = draw(st.sampled_from(_BAD_NUMBERS))
    if "unsorted" in bad:
        rows.reverse()
    if "duplicate" in bad:
        rows.append(list(draw(st.sampled_from(rows))))
    if "three_columns" in bad:
        draw(st.sampled_from(rows)).pop()
    if "f_outside" in bad:
        f = draw(st.sampled_from(("0", "1", "-1/2", "3/2")))
    header.append(f"f: {f}")
    if "specials" in bad:
        header.append("special_intervals: " + draw(st.sampled_from(
            ("(1/4, 1/8)", "(0, 1/2", "(a, b)", "(1/8, 3/8) (5/8, 7/8)",
             f"(0, {xs[-1]}/{q})", "(1/3, 1/3)"))))
    lines = header + ["x | left | value | right"]
    lines += [" | ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


_FORMS = (["minimality"], ["covering"], ["additive-faces"],
          ["diagram", "--format", "svg"], ["diagram", "--format", "json"],
          ["eval", "{}", "1/3"], ["limit", "{}", "1/3", "plus"],
          ["epsilon", "scaling", "{}", "{}"],
          ["epsilon", "lipschitz", "--check", "{}", "{}"],
          ["perturbation-rank"])


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(_tables())
def test_malformed_tables_end_in_an_exit_code(text):
    _assert_exit_codes(text)


def _assert_exit_codes(text):
    """Every command form on the table exits 0, 1 or 2, and 2 with one
    ``error:`` line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fn.txt")
        with open(path, "w") as fh:
            fh.write(text)
        for form in _FORMS:
            argv = [path if a == "{}" else a for a in form]
            if "{}" not in form:
                argv.append(path)
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv, text)
            if code == 2:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), \
                    (argv, text, err.getvalue())


# -- huge parts and nearly cancelling Q(sqrt2) numbers ------------------------


def _sqrt2_convergent(n: int) -> tuple[int, int]:
    """p, q with p/q the n-th convergent of sqrt2, so p - q*sqrt2 is about
    1/(2.8 q) in size."""
    p, q = 1, 1
    for _ in range(n):
        p, q = p + 2 * q, p + q
    return p, q


@st.composite
def _hostile_number(draw) -> str:
    e = draw(st.integers(20, 300))
    k = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(("big", "tiny", "above_one", "below_one",
                                 "cancelling", "near_grid")))
    if kind == "big":
        return f"{draw(st.sampled_from(('', '-')))}{10 ** e + k}"
    if kind == "tiny":
        return f"{k}/{10 ** e}"
    if kind == "above_one":
        return f"{10 ** e + k}/{10 ** e}"
    if kind == "below_one":
        return f"{10 ** e - k}/{10 ** e}"
    # p + q*sqrt2 with p/q a convergent of -sqrt2: parts near 10^e, value
    # within 10^-e of 0, or of a grid point
    p, q = _sqrt2_convergent(draw(st.integers(1, int(e * 2.61))))
    shift = Fraction(k, 10) if kind == "near_grid" else 0
    return f"{-p + shift} + {q}*sqrt2"


@st.composite
def _hostile_tables(draw):
    """The text of a small function table with hostile numbers in it."""
    q = draw(st.integers(2, 6))
    xs = sorted(draw(st.sets(st.integers(1, q - 1), max_size=3)) | {0})
    rows = [[f"{x}/{q}"] + [f"{draw(st.integers(0, q))}/{q}"] * 3
            for x in xs]
    f = f"{draw(st.sampled_from(xs[1:] or [1]))}/{q}"
    for _ in range(draw(st.integers(1, 3))):
        spot = draw(st.integers(0, 4 * len(rows)))
        number = draw(_hostile_number())
        if spot == 4 * len(rows):
            f = number
        elif spot % 4 and draw(st.booleans()):  # a continuous row
            rows[spot // 4][1:] = [number] * 3
        else:
            rows[spot // 4][spot % 4] = number
    lines = [f"name: {draw(st.sampled_from(['fz', 'kzh']))}", f"f: {f}",
             "x | left | value | right"]
    lines += [" | ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(_hostile_tables())
def test_hostile_numbers_end_in_an_exit_code(text):
    _assert_exit_codes(text)
