"""Periodic piecewise linear functions: limits, arithmetic, file format."""

from fractions import Fraction
from pathlib import Path

import pytest

from groupcut.catalog import psi_function
from groupcut.exactnum import QNum
from groupcut.pwl import (AT, MINUS, PLUS, BreakpointRow, PwlFunction, load,
                          parse_text, save, to_text)

H = Fraction(1, 2)


def gmic(f=Fraction(4, 5)) -> PwlFunction:
    return PwlFunction.continuous_from_values([(0, 0), (f, 1)], f,
                                              name="two_slope")


def step() -> PwlFunction:
    """Discontinuous: 0 on [0,1/2), jumps, with distinct one-sided limits."""
    rows = [
        BreakpointRow.of(0, H, 0, 0),
        BreakpointRow.of(H, 0, 1, H),
    ]
    return PwlFunction(rows, H, name="step")


def test_construction_invariants():
    fn = gmic()
    assert fn.breakpoints == (QNum(0), QNum(Fraction(4, 5)))
    assert len(fn.slopes) == 2
    assert fn.f == Fraction(4, 5)
    assert fn.is_continuous
    with pytest.raises(ValueError):
        PwlFunction([BreakpointRow.of(0, 0, 0, 0)], 0)  # f not in (0,1)
    with pytest.raises(ValueError):
        PwlFunction([BreakpointRow.of(H, 0, 0, 0)], H)  # first x must be 0
    with pytest.raises(ValueError):
        PwlFunction([BreakpointRow.of(0, 0, 0, 0),
                     BreakpointRow.of(0, 0, 0, 0)], H)  # duplicate x


def test_eval_and_periodicity():
    fn = gmic()
    assert fn.eval(0) == 0
    assert fn.eval(Fraction(4, 5)) == 1
    assert fn.eval(Fraction(2, 5)) == H
    assert fn.eval(Fraction(9, 10)) == H
    # periodic in x
    assert fn.eval(Fraction(12, 5)) == H
    assert fn.eval(Fraction(-3, 5)) == H
    assert fn.eval(QNum(0, 1)) == fn.eval(QNum(0, 1).mod1())


def test_slopes():
    fn = gmic()
    assert fn.slopes == (QNum(Fraction(5, 4)), QNum(-5))
    assert fn.piece_bounds(0) == (QNum(0), QNum(Fraction(4, 5)))
    assert fn.piece_bounds(1) == (QNum(Fraction(4, 5)), QNum(1))


def test_locate():
    fn = gmic()
    assert fn.locate(QNum(0)) == ("breakpoint", 0)
    assert fn.locate(QNum(Fraction(4, 5))) == ("breakpoint", 1)
    assert fn.locate(QNum(Fraction(1, 5))) == ("piece", 0)
    assert fn.locate(QNum(Fraction(9, 10))) == ("piece", 1)


def test_one_sided_limits_continuous():
    fn = gmic()
    x = QNum(Fraction(4, 5))
    assert fn.limit(x, MINUS) == fn.limit(x, AT) == fn.limit(x, PLUS) == 1
    # interior points: all three sides agree with the value
    y = QNum(Fraction(1, 5))
    assert fn.limit(y, MINUS) == fn.limit(y, PLUS) == fn.eval(y)


def test_one_sided_limits_discontinuous():
    fn = step()
    assert not fn.is_continuous
    assert fn.eval(H) == 1
    assert fn.limit(H, MINUS) == 0
    assert fn.limit(H, PLUS) == H
    # at 0 the minus side wraps around to the limit at 1
    assert fn.eval(0) == 0
    assert fn.limit(0, MINUS) == H
    assert fn.limit(0, PLUS) == 0
    assert fn.limit(QNum(1), MINUS) == H  # same point, stated at 1


def test_limits_interpolate_between_breakpoints():
    fn = step()
    x = QNum(Fraction(3, 4))
    expect = H + (QNum(Fraction(3, 4)) - H) * fn.slopes[1]
    assert fn.eval(x) == expect
    assert fn.limit(x, MINUS) == expect
    assert fn.limit(x, PLUS) == expect


def test_delta():
    fn = gmic()
    a, b = Fraction(2, 5), Fraction(2, 5)
    assert fn.delta(a, b) == H + H - 1  # 2/5 + 2/5 = 4/5 = f
    assert fn.delta(Fraction(1, 5), Fraction(1, 5)) == 0
    assert fn.delta(Fraction(9, 10), Fraction(9, 10)) == H + H - fn.eval(
        Fraction(8, 10))


def test_arithmetic():
    fn, g = gmic(H), step()
    s = fn + g
    assert s.eval(Fraction(1, 4)) == fn.eval(Fraction(1, 4)) + g.eval(
        Fraction(1, 4))
    assert s.limit(H, MINUS) == fn.limit(H, MINUS) + g.limit(H, MINUS)
    d = fn - g
    assert d.limit(H, PLUS) == fn.limit(H, PLUS) - g.limit(H, PLUS)
    v = fn.eval(Fraction(2, 5))
    t = fn.scale(Fraction(3, 7))
    assert t.eval(Fraction(2, 5)) == v * Fraction(3, 7)
    assert (-fn).eval(Fraction(2, 5)) == -v
    assert (fn * 2).eval(Fraction(2, 5)) == 2 * v
    # breakpoints merge
    assert set(s.breakpoints) == set(fn.breakpoints) | set(g.breakpoints)


def test_canonical_drops_redundant_breakpoints():
    fn = gmic(H)
    extra = fn + PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 3), 0)], H, name="zero")
    assert len(extra.breakpoints) == 3
    canon = extra.canonical()
    assert canon.breakpoints == fn.breakpoints
    assert canon == fn


def test_equality_is_semantic():
    fn = gmic()
    again = parse_text(to_text(fn))
    assert again == fn
    assert fn != step()


def test_text_round_trip_bit_exact():
    for fn in (gmic(), step()):
        text = to_text(fn)
        back = parse_text(text)
        assert back.rows == fn.rows
        assert back.f == fn.f
        assert back.name == fn.name
        assert to_text(back) == text


def test_text_round_trip_irrational(tmp_path):
    rows = [
        BreakpointRow.of(0, 0, 0, 0),
        BreakpointRow.of(QNum(Fraction(1, 4), Fraction(1, 100)),
                         QNum(Fraction(1, 3)), QNum(H, Fraction(-1, 7)),
                         QNum(Fraction(2, 3))),
        BreakpointRow.of(H, 1, 1, 1),
    ]
    fn = PwlFunction(rows, H, name="mixed",
                     special_intervals=((QNum(Fraction(1, 8)),
                                         QNum(Fraction(1, 4))),))
    p = tmp_path / "fn.txt"
    save(fn, p)
    back = load(p)
    assert back.rows == fn.rows
    assert back.f == fn.f
    assert back.special_intervals == fn.special_intervals
    assert to_text(back) == to_text(fn)


def test_parse_text_rejects_garbage():
    with pytest.raises(ValueError):
        parse_text("not a function")
    with pytest.raises(ValueError):
        parse_text("name: x\nf: 1/2\nx | left | value | right\n")
    good = to_text(gmic())
    with pytest.raises(ValueError):
        parse_text(good.replace("| 0 | 0", "| 0", 1))


def test_special_intervals_must_align():
    fn = gmic()
    assert fn.special_intervals == ()
    tagged = PwlFunction(fn.rows, fn.f,
                         special_intervals=((0, Fraction(4, 5)),))
    assert tagged.special_intervals == ((QNum(0), QNum(Fraction(4, 5))),)


def test_special_intervals_lie_in_the_unit_interval():
    fn = gmic()
    for lo, hi in ((-1, 2), (-H, H), (H, 2)):
        with pytest.raises(ValueError, match="is not inside"):
            PwlFunction(fn.rows, fn.f, special_intervals=((lo, hi),))
    # from a file header too; n_F of the origin's point face against
    # (-1, 2) would be 3
    text = to_text(fn).replace("x | left", "special_intervals: (-1, 2)\n"
                                           "x | left")
    with pytest.raises(ValueError, match=r"special interval \(-1, 2\) is "
                                         r"not inside \[0, 1\]"):
        parse_text(text)


def test_special_intervals_do_not_overlap():
    fn = gmic()
    for si in (((Fraction(1, 8), Fraction(3, 8)), (Fraction(1, 4), H)),
               ((Fraction(1, 8), Fraction(3, 8)),) * 2,
               ((0, 1), (Fraction(1, 4), H))):
        with pytest.raises(ValueError, match="overlap"):
            PwlFunction(fn.rows, fn.f, special_intervals=si)
    # open intervals that share an endpoint are disjoint, in either order
    si = ((Fraction(1, 4), H), (Fraction(1, 8), Fraction(1, 4)))
    assert PwlFunction(fn.rows, fn.f, special_intervals=si
                       ).special_intervals == tuple(
                           (QNum(lo), QNum(hi)) for lo, hi in si)


@pytest.mark.parametrize("line", ["name: other", "f: 1/4",
                                  "special_intervals: (0, 1/4)"])
def test_a_header_field_is_given_once(line):
    text = to_text(PwlFunction(gmic().rows, H, name="g",
                               special_intervals=((0, Fraction(1, 4)),)))
    assert "special_intervals: (0, 1/4)" in text
    field = line.partition(":")[0]
    with pytest.raises(ValueError, match=f"header field '{field}' is given "
                                         f"twice"):
        parse_text(text.replace("x | left", f"{line}\nx | left"))


def test_table_entries_are_coerced_when_the_function_is_made():
    # a float fails here, not at the first evaluation
    with pytest.raises(TypeError, match="QNum takes no float"):
        PwlFunction([BreakpointRow(0, 0, 0, 0), BreakpointRow(0.5, 1, 1, 1)],
                    H)
    fn = PwlFunction([BreakpointRow(0, 0, 0, 0), BreakpointRow(H, 1, "1", 1)],
                     H)
    assert fn.rows == gmic(H).rows
    assert fn.eval(Fraction(1, 4)) == H
    # a row of QNums is kept as it is
    kept = gmic()
    assert PwlFunction(kept.rows, kept.f).rows[1] is kept.rows[1]


def test_wraparound_piece_uses_row_zero_left():
    fn = step()
    # the final piece is flat at 1/2 and ends at rows[0].left
    assert fn.limit(QNum(Fraction(999, 1000)), PLUS) == H
    assert fn.limit(QNum(1), MINUS) == fn.rows[0].left == H
    assert fn.slopes == (QNum(0), QNum(0))


def test_readme_function_file_example_parses():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Function files", 1)[1]
    example = section.split("```")[1]
    assert parse_text(example) == psi_function()
    assert to_text(parse_text(example)) == example.lstrip("\n")


def test_a_breakpoint_outside_the_period_is_refused():
    with pytest.raises(ValueError, match=r"breakpoint 1 outside \[0,1\)"):
        PwlFunction([BreakpointRow.of(0, 0, 0, 0),
                     BreakpointRow.of(1, 1, 1, 1)], H)


def test_parse_text_needs_f_and_the_column_header():
    text = to_text(gmic())
    assert "f: 4/5\n" in text
    with pytest.raises(ValueError, match="missing f header"):
        parse_text(text.replace("f: 4/5\n", ""))
    with pytest.raises(ValueError, match="missing column header line"):
        parse_text(text.split("x | left")[0])


def test_arithmetic_needs_a_function_with_the_same_f():
    with pytest.raises(TypeError, match="another PwlFunction"):
        gmic() + 1
    with pytest.raises(ValueError, match="different f"):
        gmic() - gmic(H)
    assert (gmic() == 1) is False
    assert repr(gmic()) == "PwlFunction(two_slope, f=4/5, 2 breakpoints)"
