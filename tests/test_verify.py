"""The four claim suites, their statistics, and the mutation control."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from groupcut import catalog, covering, perturbation, verify
from groupcut.additivity import additive_face_report
from groupcut.exactnum import QNum
from groupcut.complex2d import Complex2D
from groupcut.pwl import PwlFunction, parse_text, to_text
from groupcut.catalog import kzh_function, psi_function, psi_prime_function
from groupcut.verify import (
    REFUTED, VERIFIED, ClaimReport, mutate_value,
    verify_kzh_claim_slacks, verify_kzh_perturbation_rank, verify_lifted,
    verify_psi_separation,
)

from helpers import mutation_control_reports

Q = lambda *a: QNum(Fraction(*a))


# -- report plumbing -------------------------------------------------------------

def test_claim_report_truthiness_and_str():
    good = ClaimReport("x", VERIFIED, statistics={"n": 3})
    bad = ClaimReport("x", REFUTED, witness="here")
    assert good and not bad
    assert "claim x: verified" in str(good)
    assert "n: 3" in str(good)
    assert "witness: here" in str(bad)


def test_claim_report_as_dict_is_json_ready():
    rep = ClaimReport("x", VERIFIED, statistics={"q": Q(19, 23998), "n": 2})
    text = json.dumps(rep.as_dict())
    assert "19/23998" in text


def test_mutate_value():
    fn = psi_function()
    bad = mutate_value(fn, 2)
    assert bad.name == "psi_mutated"
    assert bad.rows[2].value - fn.rows[2].value == Q(1, 10**6)
    assert bad.rows[2].left == fn.rows[2].left
    assert bad.rows[1] == fn.rows[1]
    assert fn.rows[2].value == Q(3, 4)  # original untouched


# -- suite 1: separation ----------------------------------------------------------

def test_psi_separation_verified():
    rep = verify_psi_separation()
    assert rep
    st = rep.statistics
    assert st["containment"] == "strict_subset"
    assert st["cone_slack_psi"] == "0"
    assert st["cone_slack_psi_prime"] == "1"
    assert st["minimal_psi"] and st["minimal_psi_prime"]
    assert "(1/8,3/8)" in st["ineffective_witness"]
    assert "slack(psi_prime-psi)=1/2" in st["ineffective_witness"]


def test_psi_separation_mutation_control():
    bad = mutate_value(psi_function(), 2)
    rep = verify_psi_separation(psi=bad)
    assert rep.status == REFUTED
    assert rep.witness


def test_psi_separation_swapped_arguments_refuted():
    rep = verify_psi_separation(psi=psi_prime_function(),
                                psi_prime=psi_function())
    assert rep.status == REFUTED
    assert "strict_superset" in rep.witness


# -- suite 2: slack dichotomy ------------------------------------------------------

def test_kzh_slack_dichotomy_verified():
    rep = verify_kzh_claim_slacks()
    assert rep
    st = rep.statistics
    assert st["faces_nf_1"] == 1272
    assert st["faces_nf_2"] == 160
    assert st["additive_nf_positive"] == 19
    assert st["tight_vertices"] == 24


# -- suite 3: perturbation rank ----------------------------------------------------

def test_kzh_rank_verified():
    rep = verify_kzh_perturbation_rank()
    assert rep
    st = rep.statistics
    assert st["n_vars"] == 39
    assert st["rank"] == 39
    assert st["nullity"] == 0
    assert st["n_rows"] == 39
    # every single equation is needed
    assert st["drop_one_ranks"] == [38]
    assert st["full_n_vars"] == 80
    assert st["full_nullity"] == 0
    assert st["components"] == 2
    assert st["uncovered"] == [("219/800", "269/800"),
                               ("371/800", "421/800")]


def test_kzh_rank_covers_kzh_once(monkeypatch):
    built = []
    real = covering._build

    def counting(report):
        built.append(report)
        return real(report)

    monkeypatch.setattr(covering, "_build", counting)
    assert verify_kzh_perturbation_rank(parse_text(to_text(kzh_function())))
    assert len(built) == 1


def test_kzh_rank_refutes_a_kzh_without_its_breakpoints():
    # two slope components and no special intervals, as the covering
    # checks want, but not the 40 breakpoints the selected faces index
    fn = PwlFunction.continuous_from_values([(0, 0), (Fraction(1, 2), 1)],
                                            Fraction(1, 2), name="kzh")
    rep = verify_kzh_perturbation_rank(fn)
    assert rep.status == REFUTED
    assert rep.witness == "2 breakpoints, not kzh's 40"
    assert rep.statistics["components"] == 2


# -- suite 4: lifting --------------------------------------------------------------

@pytest.fixture(scope="module")
def lifted_report():
    return verify_lifted()


def test_lifted_verified(lifted_report):
    rep = lifted_report
    assert rep
    st = rep.statistics
    assert st["preserved_faces"] == 19
    assert st["broken_checked"] == 2118
    assert st["nf0_faces"] == 16723
    assert st["max_deviation"] == "19/23998"
    assert st["min_face_class_coverage"] >= 100
    cov = st["coset_coverage"]
    assert set(cov) == {"fixed_C", "minus", "plus_Cplus"}
    assert all(v > 0 for v in cov.values())
    # one sample pair can put several of its coordinates in a special
    # interval, so class hits can outnumber the pairs
    assert sum(cov.values()) >= st["samples"]


def test_lifted_deviation_attained(lifted_report):
    rep = lifted_report
    x = QNum.of(Fraction(rep.statistics["deviation_witness"]))
    fn = kzh_function()
    lo, hi = fn.special_intervals[0]
    lo2, hi2 = fn.special_intervals[1]
    assert (lo < x < hi) or (lo2 < x < hi2)


def _install_lift(monkeypatch, base=None, s_factor=1):
    """Make the lifted suite check a lift of ``base`` (kzh by default)
    with s scaled by ``s_factor``."""
    lifted = catalog.LiftedFunction()
    if base is not None:
        lifted.base = base
    lifted.params = dataclasses.replace(lifted.params,
                                        s=s_factor * lifted.params.s)
    monkeypatch.setattr(catalog, "lifted_function", lambda: lifted)


def test_lifted_refutes_a_class_face_the_lift_breaks(monkeypatch):
    # the lift of a nudged base is no longer additive on a class 1 face,
    # while the analysis, of kzh itself, still finds every class face
    _install_lift(monkeypatch, base=mutate_value(kzh_function(), 6))
    rep = verify_lifted(kzh_function())
    assert rep.status == REFUTED
    assert rep.witness == (
        "class 1 face F([219/800, 269/800], {19/100}, [371/800, 421/800]) "
        "at (4303/64600 + 385/2584*sqrt2,19/100): lifted delta 1/1000000")
    assert rep.statistics["samples"] == 1


@pytest.mark.parametrize("s_factor", (3, 10, 100))
def test_lifted_checks_broken_faces_against_a_deeper_lift(monkeypatch,
                                                          s_factor):
    # a larger s leaves the class faces additive, but at 100s it pulls a
    # strictly subadditive face of kzh below zero
    _install_lift(monkeypatch, s_factor=s_factor)
    rep = verify_lifted(kzh_function())
    if s_factor < 100:
        assert rep, rep
        return
    assert rep.status == REFUTED
    assert rep.witness == (
        "non-additive face F([101/5000, 60153/369200], [219/800, 269/800], "
        "{371/800}) at (50343/369200,241747/738400): lifted delta "
        "-782555/22150154 <= 0")
    assert rep.statistics["broken_checked"] == 84


def test_lifted_evaluates_each_coordinate_once(monkeypatch):
    # sigma and the base are asked once per distinct coordinate, not once
    # per sample: about 9,800 coordinates against 39,395 sigma and 33,989
    # limit calls when every sample asked again
    report = additive_face_report(kzh_function())
    report.n_f
    calls = {"sigma_class": 0, "limit": 0}

    def counting(cls, name):
        real = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counting(catalog.LiftedFunction, "sigma_class")
    counting(PwlFunction, "limit")
    assert verify_lifted()
    assert calls["sigma_class"] <= 12_000
    assert calls["limit"] <= 12_000


def test_psi_separation_builds_one_complex_per_function(monkeypatch):
    built = []
    real = Complex2D.__init__

    def counting(self, breakpoints):
        built.append(len(breakpoints))
        real(self, breakpoints)

    monkeypatch.setattr(Complex2D, "__init__", counting)
    psi, prime = (parse_text(to_text(f()))
                  for f in (psi_function, psi_prime_function))
    assert verify_psi_separation(psi, prime)
    assert len(built) == 1


# -- the refutations ------------------------------------------------------------

def test_mutation_control_reports_pinned():
    # every witness and every statistic gathered before the refutation
    reports = mutation_control_reports()
    assert [r.status for r in reports] == [REFUTED] * 4
    text = json.dumps([r.as_dict() for r in reports], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1d53beac5525d1bdd1e2b99c59dc655c92a5e9bed46226ed2cc6ff668df21d8e")


# Each refutation branch below is reached by a crafted input or a patched
# collaborator; the witness and the statistics gathered up to it are pinned.


def test_psi_separation_refutes_a_cone_slack(monkeypatch):
    monkeypatch.setattr(verify, "slack_at", lambda fn, face, vertex: Q(1))
    rep = verify_psi_separation()
    assert rep.status == REFUTED
    assert rep.witness == ("F([3/8, 1/2], [3/8, 1/2], [5/8, 7/8]) at "
                           "(3/8,3/8): slack psi 1, psi_prime 1")
    assert rep.statistics == {
        "minimal_psi": True, "minimal_psi_prime": True,
        "containment": "strict_subset", "cone_slack_psi": "1",
        "cone_slack_psi_prime": "1"}


def test_psi_separation_refutes_a_difference_with_psi_zeros(monkeypatch):
    # psi_prime's analysis read twice: the difference vanishes everywhere
    real = verify._analyses
    monkeypatch.setattr(verify, "_analyses", lambda fns: [real(fns)[1]] * 2)
    rep = verify_psi_separation()
    assert rep.status == REFUTED
    assert rep.witness == ("psi_prime - psi vanishes on every vanishing "
                           "slack of psi")
    assert rep.statistics["cone_slack_psi_prime"] == "1"
    assert "ineffective_witness" not in rep.statistics


def _with_special(fn, *specials):
    return PwlFunction(fn.rows, fn.f, name=fn.name,
                       special_intervals=specials)


def _slacks_with_s(monkeypatch, fn, s):
    """The slack suite on fn with kzh's s replaced by s."""
    params = dataclasses.replace(catalog.kzh_params(), s=s)
    monkeypatch.setattr(catalog, "kzh_params", lambda: params)
    return verify_kzh_claim_slacks(fn)


def test_kzh_slacks_refute_a_face_meeting_three_specials():
    rep = verify_kzh_claim_slacks(_with_special(psi_function(),
                                                (0, Fraction(1, 8))))
    assert rep.status == REFUTED
    assert rep.witness == "F([0, 1/8], [0, 1/8], [0, 1/8]) has n_F = 3"
    assert rep.statistics == {"faces_nf_1": 0, "faces_nf_2": 2,
                              "additive_nf_positive": 2, "tight_vertices": 0}


def test_kzh_slacks_refute_a_face_tight_everywhere(monkeypatch):
    fn = _with_special(psi_prime_function(),
                       (Fraction(1, 8), Fraction(1, 4)))
    rep = _slacks_with_s(monkeypatch, fn, Q(1, 4))
    assert rep.status == REFUTED
    assert rep.witness == ("F([1/8, 3/8], [1/8, 3/8], [1/2, 5/8]) has every "
                           "slack equal to n_F*s")
    assert rep.statistics == {"faces_nf_1": 5, "faces_nf_2": 9,
                              "additive_nf_positive": 13,
                              "tight_vertices": 0}


def test_kzh_slacks_refute_a_tie_on_two_specials(monkeypatch):
    fn = _with_special(psi_function(), (Fraction(3, 8), Fraction(5, 8)))
    rep = _slacks_with_s(monkeypatch, fn, Q(1, 4))
    assert rep.status == REFUTED
    assert rep.witness == ("F([0, 1/8], [3/8, 1/2], [1/2, 5/8]) is tight "
                           "with n_F = 2")
    assert rep.statistics == {"faces_nf_1": 3, "faces_nf_2": 6,
                              "additive_nf_positive": 6, "tight_vertices": 2}


def test_kzh_slacks_refute_a_tie_beside_a_small_slack(monkeypatch):
    fn = _with_special(psi_function(), (Fraction(1, 8), Fraction(1, 4)))
    rep = _slacks_with_s(monkeypatch, fn, Q(1, 2))
    assert rep.status == REFUTED
    assert rep.witness == ("F([0, 1/8], [0, 1/8], [1/8, 3/8]) mixes a tight "
                           "vertex with slack 1 < 3s")
    assert rep.statistics == {"faces_nf_1": 1, "faces_nf_2": 1,
                              "additive_nf_positive": 1, "tight_vertices": 2}


def test_kzh_rank_refutes_uncovered_pieces_that_are_not_special():
    # the covering leaves nothing uncovered, yet a special interval is set
    fn = _with_special(
        PwlFunction.continuous_from_values([(0, 0), (Fraction(1, 2), 1)],
                                           Fraction(1, 2), name="kzh"),
        (Fraction(1, 8), Fraction(3, 8)))
    rep = verify_kzh_perturbation_rank(fn)
    assert rep.status == REFUTED
    assert rep.witness == "uncovered [] is not the special intervals"
    assert rep.statistics == {"components": 2, "uncovered": []}


_KZH_UNCOVERED = [("219/800", "269/800"), ("371/800", "421/800")]


def test_kzh_rank_refutes_a_selection_one_row_short(monkeypatch):
    monkeypatch.setattr(verify, "_KZH_SELECTED", verify._KZH_SELECTED[:-1])
    rep = verify_kzh_perturbation_rank()
    assert rep.status == REFUTED
    assert rep.witness == "rank 38 of 39 variables; expected full rank 39"
    assert rep.statistics == {"components": 2, "uncovered": _KZH_UNCOVERED,
                              "n_vars": 39, "n_rows": 38, "rank": 38,
                              "nullity": 1}


def test_kzh_rank_refutes_a_selection_with_a_row_twice(monkeypatch):
    monkeypatch.setattr(verify, "_KZH_SELECTED",
                        verify._KZH_SELECTED + verify._KZH_SELECTED[:1])
    rep = verify_kzh_perturbation_rank()
    assert rep.status == REFUTED
    assert rep.witness == (
        "dropping row 0 (F([0,101/5000],{19/100},{40294/201875})"
        "(7751/807500,19/100)) leaves rank 39, so it was redundant")
    assert rep.statistics["drop_one_ranks"] == [38, 39]
    assert rep.statistics["n_rows"] == 40
    assert "full_nullity" not in rep.statistics


def test_kzh_rank_refutes_a_full_system_without_symmetry_rows(monkeypatch):
    monkeypatch.setattr(perturbation._Parametrization, "symmetry_rows",
                        lambda self: [])
    rep = verify_kzh_perturbation_rank()
    assert rep.status == REFUTED
    assert rep.witness == "without symmetry elimination the nullity is 41"
    assert rep.statistics["full_n_vars"] == 80
    assert rep.statistics["full_nullity"] == 41
    assert rep.statistics["drop_one_ranks"] == [38]


def _install_sigma(monkeypatch, edit):
    """Make the lifted suite check a lift whose sigma_class(t) is
    edit(t, (sigma, class)) of the true lift."""
    lifted = catalog.LiftedFunction()
    true = lifted.sigma_class
    monkeypatch.setattr(lifted, "sigma_class", lambda t: edit(t, true(t)),
                        raising=False)
    monkeypatch.setattr(catalog, "lifted_function", lambda: lifted)


# what the lifted suite has gathered once it passed (a), (b) and (c)
_LIFTED_ABC = {"nf0_faces": 16723, "preserved_faces": 19,
               "broken_checked": 2118, "samples": 8965,
               "coset_coverage": {"fixed_C": 5165, "minus": 2800,
                                  "plus_Cplus": 2800},
               "min_face_class_coverage": 100}


def test_lifted_refutes_a_sigma_outside_the_specials(monkeypatch):
    _install_sigma(monkeypatch, lambda t, true: (1, true[1]))
    rep = verify_lifted()
    assert rep.status == REFUTED
    assert rep.witness == ("sigma(0) != 0 outside the special intervals "
                           "(face F({0}, {0}, {0}))")
    assert rep.statistics == {"nf0_faces": 1, "preserved_faces": 0,
                              "broken_checked": 0, "samples": 0}


def test_lifted_refutes_a_class_face_with_another_n_f(monkeypatch):
    report = additive_face_report(kzh_function())
    n = verify._lifted_face_classes(kzh_function())[0][1]
    n_f = bytearray(report.n_f)
    n_f[n] = 1
    monkeypatch.setattr(report, "n_f", bytes(n_f))
    rep = verify_lifted()
    assert rep.status == REFUTED
    assert rep.witness == ("class 1 face F([219/800, 269/800], {19/100}, "
                           "[371/800, 421/800]) has dim 1, n_F 1")
    assert rep.statistics == {"nf0_faces": 16723, "preserved_faces": 0,
                              "broken_checked": 0, "samples": 0}


def test_lifted_refutes_a_coset_class_sampled_too_thinly(monkeypatch):
    # the first class face has 311 points on the fixed cosets
    monkeypatch.setattr(verify, "MIN_PER_CLASS", 312)
    rep = verify_lifted()
    assert rep.status == REFUTED
    assert rep.witness == (
        "sampler covered some coset class fewer than 312 times on face "
        "F([219/800, 269/800], {19/100}, [371/800, 421/800]): "
        "{'fixed_C': 311, 'plus_Cplus': 624, 'minus': 624}")
    assert rep.statistics == {"nf0_faces": 16723, "preserved_faces": 0,
                              "broken_checked": 0, "samples": 935}


_X = Q(27, 97)  # a probe of (d) and (e) inside the first special interval


def test_lifted_refutes_a_sigma_breaking_symmetry(monkeypatch):
    _install_sigma(monkeypatch, lambda t, true: (true[0] + 1, true[1])
                   if t == _X else true)
    rep = verify_lifted()
    assert rep.status == REFUTED
    assert rep.witness == "symmetry fails at 27/97: sum 24017/23998"
    assert rep.statistics == _LIFTED_ABC


def test_lifted_refutes_a_sigma_beyond_s(monkeypatch):
    f = catalog.kzh_params().f
    _install_sigma(monkeypatch, lambda t, true: (2 * true[0], true[1])
                   if t in (_X, f - _X) else true)
    rep = verify_lifted()
    assert rep.status == REFUTED
    assert rep.witness == "|lift - base| = 19/11999 > s at 27/97"
    assert rep.statistics == _LIFTED_ABC


def test_lifted_refutes_a_zero_sigma(monkeypatch):
    _install_sigma(monkeypatch, lambda t, true: (0, true[1]))
    rep = verify_lifted()
    assert rep.status == REFUTED
    assert rep.witness == "maximal deviation 0 never reaches s = 19/23998"
    assert rep.statistics == {**_LIFTED_ABC, "max_deviation": "0"}
