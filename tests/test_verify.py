"""The four claim suites, their statistics, and the mutation control."""

import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from groupcut import catalog, covering
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
