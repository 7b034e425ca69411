"""Exact linear systems and the two step-size constants."""

import gc
import hashlib
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from groupcut.exactnum import QNum
from groupcut.pwl import BreakpointRow, PwlFunction
from groupcut.additivity import ADDITIVE, additive_face_report, minimality_test
from groupcut.covering import components as covering_components
from groupcut.perturbation import (
    EpsilonResult, LinearSystem, _Parametrization, build_system,
    drop_one_ranks, lipschitz_epsilon, scaling_epsilon, verify_effective,
)
from groupcut.catalog import (kzh_function, lifted_function, psi_function,
                              psi_prime_function)
from groupcut.verify import kzh_selected_faces

from helpers import (
    gmic, grid_pairs, midpoint_pair, random_gap_instance, gap_instance_holds,
    random_grid_functions, reference_mirrors, reference_rank, retained,
)

Q = lambda *a: QNum(Fraction(*a))
H = Fraction(1, 2)


# -- LinearSystem ----------------------------------------------------------------

def _toy_system():
    vs = ["s_a", "v3", "m2"]
    rows = [("r1", {"s_a": Q(1), "v3": Q(-1)}),
            ("r2", {"v3": Q(2)}),
            ("r3", {"s_a": Q(1), "v3": Q(1)})]
    return LinearSystem(vs, rows)


def test_var_names():
    sy = _toy_system()
    assert list(sy.variables) == ["s_a", "v3", "m2"]
    assert str(sy.variables[1]) == "v3"


def test_toy_rank_and_nullity():
    sy = _toy_system()
    assert (sy.n_vars, sy.n_rows) == (3, 3)
    assert sy.rank == 2        # r3 = r1 + r2, and m2 never appears
    assert sy.nullspace_dim == 1
    assert drop_one_ranks(sy) == [2, 2, 2]


def test_drop_one_ranks_with_a_redundant_row():
    vs = list("abc")
    rows = [("r0", {"a": Q(1)}), ("r1", {"b": Q(1)}), ("r2", {"a": Q(2)}),
            ("r3", {"c": Q(1)})]
    sy = LinearSystem(vs, rows)
    assert sy.rank == 3
    # r0 and r2 stand in for each other; r1 and r3 are essential
    assert drop_one_ranks(sy) == [3, 2, 3, 2]


def test_drop_one_ranks_of_independent_rows():
    vs = list("abc")
    rows = [("r0", {"a": Q(1), "b": Q(1)}), ("r1", {"b": Q(2)}),
            ("r2", {"c": Q(1), "a": Q(-1)})]
    sy = LinearSystem(vs, rows)
    assert sy.rank == sy.n_rows
    assert drop_one_ranks(sy) == [sy.drop_row(i).rank for i in range(3)]
    assert drop_one_ranks(sy) == [2, 2, 2]


def test_drop_row():
    sy = _toy_system()
    smaller = sy.drop_row(1)
    assert smaller.n_rows == 2 and smaller.rank == 2
    assert [label for label, _ in smaller.rows] == ["r1", "r3"]


def test_drop_row_refuses_an_index_outside_the_rows():
    sy = _toy_system()
    for i in (-1, -4, 3, 10):
        with pytest.raises(IndexError, match=f"no row {i} in a system of 3"):
            sy.drop_row(i)
    assert [label for label, _ in sy.drop_row(0).rows] == ["r2", "r3"]
    assert [label for label, _ in sy.drop_row(2).rows] == ["r1", "r2"]


def test_a_row_may_name_only_variables():
    # a row of its own, found when the system is made, before matrix()
    # or rank could read it
    with pytest.raises(ValueError,
                       match="row 'r2' names b, not among the variables"):
        LinearSystem(["a"], [("r1", {"a": Q(1)}),
                             ("r2", {"a": Q(1), "b": Q(2)})])
    # a mapping that rows share is checked once, and named by its first row
    shared = MappingProxyType({"c": Q(1), "d": Q(1)})
    with pytest.raises(ValueError,
                       match="row 'p' names c, d, not among the variables"):
        LinearSystem(["a", "b"], [("o", {"a": Q(1)}), ("p", shared),
                                  ("q", shared)])


def test_a_coefficient_is_an_int_a_fraction_or_a_qnum():
    # r2 = 3 * r1, but 3 * 0.1 != 0.3 in floats, so their rank would be 2
    with pytest.raises(TypeError, match="row 'r1' has the coefficient 0.1"):
        LinearSystem(["a", "b"], [("r1", {"a": 0.1, "b": 0.3}),
                                  ("r2", {"a": 0.3, "b": 0.9})])
    # a string is refused when the system is made, not inside rank
    shared = {"a": Q(1), "b": "1/2"}
    with pytest.raises(TypeError, match="row 'p' has the coefficient '1/2'"):
        LinearSystem(["a", "b"], [("o", {"a": Q(1)}), ("p", shared),
                                  ("q", shared)])
    # int and Fraction rows get their exact rank: r2 = 77 * r1 cancels
    # only with an exact pivot 1/93
    assert LinearSystem(["a", "b"], [("r1", {"a": 93, "b": 30}),
                                     ("r2", {"a": 7161, "b": 2310})]).rank == 1
    assert LinearSystem(["a", "b", "c"], [
        ("r1", {"a": Fraction(1, 3), "b": 1}), ("r2", {"a": 1, "b": 3}),
        ("r3", {"b": Fraction(2, 7), "c": Q(0, 1)})]).rank == 2


# entries of Q(sqrt2) with many zeros and small parts, so that rows cancel
_entries = st.builds(QNum, st.sampled_from([0, 0, 0, 1, -1, 2, H]),
                     st.sampled_from([0, 0, 1, -1, Fraction(1, 3)]))


@st.composite
def _systems(draw):
    """Tall, wide and square systems with rows that repeat one mapping,
    rows equal to another, zero rows and rows that combine two others."""
    n_vars = draw(st.integers(0, 6))
    names = [f"x{k}" for k in range(n_vars)]
    rows = [{n: c for n, c in zip(names, entries) if c}
            for entries in draw(st.lists(
                st.lists(_entries, min_size=n_vars, max_size=n_vars),
                max_size=8))]
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        k = draw(_entries)
        kind = draw(st.sampled_from(["shared", "equal", "zero", "sum"]))
        rows.append(a if kind == "shared" else dict(a) if kind == "equal"
                    else {} if kind == "zero" else
                    {n: c for n in names
                     if (c := a.get(n, QNum(0)) + k * b.get(n, QNum(0)))})
    rows = draw(st.permutations(rows))
    return LinearSystem(names, [(f"r{i}", row) for i, row in enumerate(rows)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_systems())
def test_sparse_rank_is_the_dense_rank(sy):
    matrix = sy.matrix()
    assert sy.rank == reference_rank(matrix)
    assert drop_one_ranks(sy) == [reference_rank(matrix[:i] + matrix[i + 1:])
                                  for i in range(sy.n_rows)]


def test_rank_with_irrational_coefficients():
    vs = ["a", "b"]
    r2 = QNum(0, 1)
    sy = LinearSystem(vs, [("p", {"a": r2, "b": Q(2)}),
                           ("q", {"a": Q(1), "b": r2})])
    # second row is sqrt2/2 times the first, exactly
    assert sy.rank == 1


def test_matrix_column_order_follows_variables():
    sy = _toy_system()
    mat = sy.matrix()
    assert mat[1] == [Q(0), Q(2), Q(0)]


# -- building systems from additive faces ----------------------------------------

def test_build_system_from_two_slope_function():
    fn = PwlFunction.continuous_from_values([(0, 0), (H, 1)], H)
    rep = additive_face_report(fn)
    selected = [(c.face, c.face.vertices[0]) for c in rep.faces
                if c.status == ADDITIVE and c.face.dim == 2]
    sy = build_system(fn, (), selected)
    assert sy.n_rows == len(selected)
    # with no special intervals the unknowns are just the slopes of the two
    # covering components, and the selected additive faces pin both
    assert list(sy.variables) == ["s0", "s1"]
    assert sy.rank == 2


def test_build_system_rejects_non_additive_face():
    fn = PwlFunction.continuous_from_values([(0, 0), (H, 1)], H)
    rep = additive_face_report(fn)
    bad = next(c.face for c in rep.faces if c.status != ADDITIVE)
    with pytest.raises(ValueError, match="not additive"):
        build_system(fn, (), [(bad, bad.vertices[0])])


def test_build_system_rejects_uncovered_piece():
    # the flat pieces (1/8, 3/8) and (5/8, 7/8) are left uncovered
    fn = PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 8), H), (Fraction(3, 8), H), (H, 1),
         (Fraction(5, 8), H), (Fraction(7, 8), H)], H)
    with pytest.raises(ValueError,
                       match=r"piece 1 \(1/8, 3/8\) is in no covering"):
        build_system(fn, (), [])


def test_build_system_with_a_covered_special_piece():
    fn = PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 4), 1), (H, 0), (Fraction(3, 4), 1)],
        Fraction(1, 4))
    assert len(covering_components(additive_face_report(fn)).components) == 2
    sy = build_system(fn, ((0, Fraction(1, 4)),), [])
    assert [v for v in sy.variables if v.startswith("s")] == ["s0", "s1"]


def test_build_system_takes_the_last_piece_as_a_special_interval():
    # (3/4, 1) ends at 1, not at a breakpoint; its mirror through f = 1/4
    # is (1/4, 1/2)
    fn = PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 4), 1), (H, 0), (Fraction(3, 4), 1)],
        Fraction(1, 4))
    specials = ((Fraction(1, 4), H), (Fraction(3, 4), 1))
    assert build_system(fn, specials, []).variables == ("s0", "s1", "v2")
    with pytest.raises(ValueError, match="not symmetric"):
        build_system(fn, specials[1:], [])
    with pytest.raises(ValueError, match="not a single piece"):
        build_system(fn, ((H, 1),), [])


def test_mirror_tables_match_a_by_value_reference():
    kzh = kzh_function()
    cases = [(kzh, kzh.special_intervals)]
    for fn in [psi_function(), psi_prime_function(),
               gmic(Fraction(3, 5), 2, Fraction(1, 5)),
               gmic(Fraction(4, 9), 3, Fraction(1, 3))] + [
                   pi0 for pi0, _, _ in grid_pairs(7, 8)]:
        cases.append(
            (fn, covering_components(additive_face_report(fn)).uncovered))
    for fn, specials in cases:
        assert (_Parametrization(fn, specials, True).mirror
                == reference_mirrors(fn, specials)), fn
    # the mirror of the breakpoint 1/3 through f = 1/2 is not a breakpoint
    asymmetric = gmic(H).refine([Fraction(1, 3)])
    with pytest.raises(ValueError, match="mirror point 1/6 is not a "
                                         "breakpoint"):
        _Parametrization(asymmetric, (), True)


def _gj_forward_3_slope():
    # gj_forward_3_slope(f=4/5, lambda1=4/9, lambda2=2/3)
    return PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 9), Fraction(5, 9)),
         (Fraction(8, 45), Fraction(2, 9)), (Fraction(28, 45), Fraction(7, 9)),
         (Fraction(31, 45), Fraction(4, 9)), (Fraction(4, 5), 1)],
        Fraction(4, 5))


def test_build_system_with_three_covering_components():
    fn = _gj_forward_3_slope()
    assert minimality_test(fn)
    rep = additive_face_report(fn)
    assert len(covering_components(rep).components) == 3
    selected = [(face, v) for face in rep.complex.faces.at(
                    rep.faces.positions(ADDITIVE)) for v in face.vertices]
    sy = build_system(fn, (), selected)
    assert sy.variables[:3] == ("s0", "s1", "s2")
    assert sy.n_vars == sy.rank == 7


def _system_text(sy) -> str:
    """The variables, then per row in order its label and coefficients."""
    return "\n".join([" ".join(sy.variables)] + [
        f"{label}: " + " ".join(f"{n}={c}" for n, c in sorted(coeffs.items()))
        for label, coeffs in sy.rows])


def _pinned_grid_function(name):
    f = Fraction(2, 5)
    if name == "self_mirror":  # f/2 and (1 + f)/2 are their own mirrors
        return PwlFunction.continuous_from_values(
            [(0, 0), (f / 2, H), (f, 1), ((1 + f) / 2, H)], f), ()
    if name == "three_slope":
        return _gj_forward_3_slope(), ()
    return PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 4), 1), (H, 0), (Fraction(3, 4), 1)],
        Fraction(1, 4)), ((Fraction(1, 4), H), (Fraction(3, 4), 1))


def _every_modelled_vertex(fn, specials):
    """Each vertex of each additive face whose equation avoids the special
    pieces, in face order."""
    rep = additive_face_report(fn)
    out = []
    for n in rep.faces.positions(ADDITIVE):
        face = rep.faces[n].face
        for v in face.vertices:
            try:
                build_system(fn, specials, [(face, v)])
            except ValueError:
                continue
            out.append((face, v))
    return out


# variables, row count and sha256 of _system_text, with and without the
# symmetry substituted away
_PINNED_SYSTEMS = {
    ("self_mirror", True): (
        "s0 s1 m0 m2", 94,
        "bc0fba94db2c837cfbbd92c3541e30e18bdd9099586ab5311913b499df642999"),
    ("self_mirror", False): (
        "s0 s1 v0 v1 v2 v3 m0 m1 m2 m3", 100,
        "433a5909d6685c5c8a501ddc79c802bd4489c7c6725ad6f661d83ff86ceafb6d"),
    ("three_slope", True): (
        "s0 s1 s2 v1 v2 m0 m1", 166,
        "b3a5eb4f094439789778b6ad726f98a1d35d41e3e8b2107e29c4d178090aff6e"),
    ("three_slope", False): (
        "s0 s1 s2 v0 v1 v2 v3 v4 v5 m0 m1 m2 m3 m4 m5", 174,
        "d4503a61a064e51076706bfb847c2672f1959e9f6404f503f05cd721344465b8"),
    ("special", True): (
        "s0 s1 v2", 65,
        "f0077ba3899955f6822088390e70fbafa25705a38b4f9c06113fe63391882481"),
    ("special", False): (
        "s0 s1 v0 v1 v2 v3 m0 m2", 70,
        "95d562487115dcc0ad5050fe248a6d47ec3158a3df20fd193ca51c441ddbcd54"),
    ("kzh", True): (
        " ".join(["s0", "s1"] + [f"v{i}" for i in [*range(1, 19), 38]]
                 + [f"m{j}" for j in [*range(17), 37]]), 39,
        "8f526a5d8cf738658d5c1dc16713df526d24c84f35e9a70977782eba2cee77f3"),
    ("kzh", False): (
        " ".join(["s0", "s1"] + [f"v{i}" for i in range(40)]
                 + [f"m{j}" for j in range(40) if j not in (17, 19)]), 80,
        "be78bcb916592af61877e6e1e865f7870b37625b8388fecd4e125313d16bb64d"),
}


@pytest.mark.parametrize("name", ["self_mirror", "three_slope", "special",
                                  "kzh"])
@pytest.mark.parametrize("eliminate", [True, False],
                         ids=["substituted", "explicit"])
def test_systems_are_pinned(name, eliminate):
    if name == "kzh":
        fn = kzh_function()
        specials, selected = fn.special_intervals, kzh_selected_faces(fn)
    else:
        fn, specials = _pinned_grid_function(name)
        selected = _every_modelled_vertex(fn, specials)
    sy = build_system(fn, specials, selected, eliminate_symmetry=eliminate)
    names, n_rows, digest = _PINNED_SYSTEMS[name, eliminate]
    assert " ".join(sy.variables) == names
    assert sy.n_rows == n_rows
    text = _system_text(sy)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _random_grid_two_slope_systems(seed: int) -> list:
    """(system, rank) of each two-slope function of a random-grid pass, as
    the benchmark builds and keeps them."""
    out = []
    for family, fn in random_grid_functions(seed):
        if family in ("gmic", "gmic_k"):
            report = additive_face_report(fn)
            selected = [(c.face, c.face.vertices[0]) for c in report.faces
                        if c.status == ADDITIVE]
            system = build_system(fn, (), selected)
            out.append((system, system.rank))
    return out


# the seed-1 systems that a random-grid pass keeps, measured at 79,720 bytes
# (sys.getsizeof of every object reachable from the list); one mapping per
# row took 115,976
RANDOM_GRID_SYSTEMS_BYTES = 79_720


def test_equal_rows_share_one_read_only_mapping():
    ranks = _random_grid_two_slope_systems(1)
    rows = [coeffs for system, _ in ranks for _, coeffs in system.rows]
    assert (len(rows), len({id(c) for c in rows})) == (410, 56)
    # within a system, rows are equal exactly when they share a mapping
    assert sum(len({tuple(sorted(c.items())) for _, c in system.rows})
               for system, _ in ranks) == 56
    assert all(rank == system.n_vars for system, rank in ranks)
    with pytest.raises(TypeError):
        rows[0]["s0"] = QNum(0)
    gc.collect()
    assert retained(ranks)[0] < RANDOM_GRID_SYSTEMS_BYTES * 1.05


def test_random_grid_systems_keep_no_label_text():
    # each row keeps eight two-byte indices into the distinct number texts,
    # and its label is formatted when read; the labels took 34,876 bytes
    ranks = _random_grid_two_slope_systems(1)
    gc.collect()
    assert retained(ranks)[0] < 36_000
    system = ranks[0][0]
    assert [label for label, _ in system.rows] == list(system._labels)
    assert all(isinstance(label, str) for label, _ in system.rows)


def test_build_system_rejects_a_point_that_is_not_a_vertex():
    fn = PwlFunction.continuous_from_values([(0, 0), (H, 1)], H)
    rep = additive_face_report(fn)
    face = next(c.face for c in rep.faces
                if c.status == ADDITIVE and c.face.dim == 2)
    (x0, y0), (x1, y1) = face.vertices[:2]
    inside = ((x0 + x1) / 2, (y0 + y1) / 2)
    with pytest.raises(ValueError, match="is not a vertex of F"):
        build_system(fn, (), [(face, inside)])


# -- step-size constants on the midpoint instance --------------------------------

def test_lipschitz_constant_on_midpoint():
    pi0, bar0 = midpoint_pair()
    assert minimality_test(pi0)
    res = lipschitz_epsilon(pi0, bar0)
    assert isinstance(res, EpsilonResult)
    assert (res.m, res.M, res.C) == (Q(1, 4), Q(1, 4), QNum(1))
    assert res.eps == Q(1, 32)
    assert res.eps > 0


def test_effective_at_the_computed_scale():
    pi0, bar0 = midpoint_pair()
    eps = lipschitz_epsilon(pi0, bar0).eps
    assert verify_effective(pi0, bar0, eps)
    # the pair was built as a midpoint, so eps = 1 recovers both endpoints
    assert verify_effective(pi0, bar0, 1)


def test_scaling_constant_on_midpoint():
    pi0, bar0 = midpoint_pair()
    eps = scaling_epsilon(pi0, bar0)
    assert eps == QNum(3)
    assert minimality_test(pi0 - bar0.scale(eps))
    assert not verify_effective(pi0, bar0, eps + 1).minus


def test_lipschitz_error_paths():
    pi0, bar0 = midpoint_pair()
    with pytest.raises(TypeError):
        lipschitz_epsilon(pi0, lifted_function())
    with pytest.raises(ValueError, match="not minimal"):
        lipschitz_epsilon(pi0.scale(Fraction(9, 10)), bar0)
    zero = PwlFunction.continuous_from_values([(0, 0), (H, 0)], H)
    with pytest.raises(ValueError, match="degenerates"):
        lipschitz_epsilon(pi0, zero)


def test_lipschitz_refuses_an_unshared_additivity():
    # pi1 = pi0 + bar0 is the two-slope function, which is extreme: bar0
    # breaks additivities of it, so no scale keeps pi1 +/- eps*bar0 minimal
    pi0, bar0 = midpoint_pair()
    pi1 = pi0 + bar0
    assert minimality_test(pi1)
    with pytest.raises(ValueError, match="not shared by the perturbation"):
        lipschitz_epsilon(pi1, bar0)


def test_lipschitz_refuses_a_perturbation_that_moves_f():
    fn = PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 4), H), (H, 1), (Fraction(3, 4), H)], H)
    assert minimality_test(fn)
    with pytest.raises(ValueError, match="does not vanish at f"):
        lipschitz_epsilon(fn, fn)


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_every_lipschitz_epsilon_is_effective(seed):
    """Whenever lipschitz_epsilon returns, fn +/- eps*pert are minimal;
    the extreme pi1 and every pert that breaks an additivity of pi0 are
    refused."""
    returned = 0
    for pi0, pert, pi1 in grid_pairs(seed, 8):
        for fn, p in ((pi0, pert), (pi1, pert), (pi0, pert.scale(-3)),
                      (pi0, pert.scale(Fraction(1, 7)))):
            try:
                eps = lipschitz_epsilon(fn, p).eps
            except ValueError:
                continue
            returned += 1
            assert verify_effective(fn, p, eps)
    assert returned > 0


def test_scaling_error_paths():
    pi0, bar0 = midpoint_pair()
    with pytest.raises(TypeError):
        scaling_epsilon(lifted_function(), bar0)
    with pytest.raises(ValueError, match="never strains"):
        scaling_epsilon(pi0, pi0.scale(-1))
    # base additive on the whole lower triangle, pert not linear there
    gmic = PwlFunction.continuous_from_values([(0, 0), (H, 1)], H)
    kink = PwlFunction.continuous_from_values(
        [(0, 0), (Fraction(1, 8), H), (H, 1)], H)
    with pytest.raises(ValueError, match="not shared"):
        scaling_epsilon(gmic, kink)


# -- polygon gap property (exact, randomized) -------------------------------------

def test_gap_lower_bound_sample():
    rng = random.Random(90125)
    for _ in range(150):
        hull, g, m, zero = random_gap_instance(rng)
        assert gap_instance_holds(hull, g, m, zero, rng)


def test_a_linear_system_names_each_variable_once():
    with pytest.raises(ValueError, match="duplicate variable names"):
        LinearSystem(["a", "b", "a"], [])


def test_verify_effective_needs_a_piecewise_linear_perturbation():
    with pytest.raises(TypeError, match="piecewise linear"):
        verify_effective(psi_function(), lifted_function(), 1)
