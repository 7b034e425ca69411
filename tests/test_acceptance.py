"""Acceptance gate: ten exact criteria, one printed line each.

Every comparison below is exact (Fraction / quadratic-field arithmetic);
there are no tolerances anywhere.  Each criterion prints

    ACCEPTANCE <n> <PASS|FAIL>: <label>

run pytest with -rA (or -s) to see the lines for passing criteria too.
"""

import random
import time
from fractions import Fraction

from groupcut.exactnum import QNum, parse_qnum
from groupcut.pwl import BreakpointRow, PwlFunction, parse_text, to_text
from groupcut.additivity import (
    LIMIT_ADDITIVE, additive_face_report, e_containment, minimality_test,
)
from groupcut.covering import components
from groupcut.perturbation import (
    lipschitz_epsilon, scaling_epsilon, verify_effective,
)
from groupcut.catalog import (
    kzh_function, kzh_params, psi_function, psi_prime_function,
)
from groupcut.verify import (
    verify_kzh_claim_slacks, verify_kzh_perturbation_rank, verify_lifted,
)

from helpers import (
    gap_instance_holds, midpoint_pair, mutation_control_reports,
    random_gap_instance, random_pwl, sampling_minimality_oracle,
)


def _report(num: int, label: str, failures: list[str]):
    status = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {num} {status}: {label}", flush=True)
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


# the published 40-row table, pinned entry by entry: x, then the limit from
# the left, the value, and the limit from the right
_KZH_TABLE = [
    ("0", "101/650", "0", "101/650"),
    ("101/5000", "707/13000", "2727/13000", "707/13000"),
    ("60153/369200", "421071/959920", "421071/959920", "421071/959920"),
    ("849/5000", "4851099/11999000", "4851099/11999000 - 1925/71994*sqrt2",
     "4851099/11999000"),
    ("849/5000 + 1925/298129*sqrt2", "4851099/11999000 + 67375/3875677*sqrt2",
     "4851099/11999000 + 67375/3875677*sqrt2",
     "4851099/11999000 + 67375/3875677*sqrt2"),
    ("849/5000 + 77/7752*sqrt2", "4851099/11999000 + 385/93016248*sqrt2",
     "4851099/11999000 + 2695/100776*sqrt2",
     "4851099/11999000 + 385/93016248*sqrt2"),
    ("19/100", "275183/599950 - 1925/71994*sqrt2", "18196/59995",
     "275183/599950 - 1925/71994*sqrt2"),
    ("281986521/1490645000 + 77/22152*sqrt2",
     "10467633/22933000 - 385/22152*sqrt2",
     "10467633/22933000 - 385/22152*sqrt2",
     "10467633/22933000 - 385/22152*sqrt2"),
    ("40294/201875", "848837/2099500", "795836841/1937838500",
     "848837/2099500"),
    ("36999/184600", "975607/2399800", "975607/2399800", "975607/2399800"),
    ("19/100 + 77/7752*sqrt2", "275183/599950 - 385/7752*sqrt2",
     "18196/59995 + 385/93016248*sqrt2", "275183/599950 - 385/7752*sqrt2"),
    ("1051/5000", "4291761/11999000", "4291761/11999000 - 1925/71994*sqrt2",
     "4291761/11999000"),
    ("1051/5000 + 1925/298129*sqrt2",
     "4291761/11999000 + 67375/3875677*sqrt2",
     "4291761/11999000 + 67375/3875677*sqrt2",
     "4291761/11999000 + 67375/3875677*sqrt2"),
    ("14199/64600", "240046061/775135400 + 192500/3875677*sqrt2",
     "50943/167960", "240046061/775135400 + 192500/3875677*sqrt2"),
    ("1051/5000 + 77/7752*sqrt2", "4291761/11999000 + 385/93016248*sqrt2",
     "4291761/11999000 + 2695/100776*sqrt2",
     "4291761/11999000 + 385/93016248*sqrt2"),
    ("342208579/1490645000 + 77/22152*sqrt2",
     "122181831/298129000 - 385/22152*sqrt2",
     "122181831/298129000 - 385/22152*sqrt2",
     "122181831/298129000 - 385/22152*sqrt2"),
    ("193799/807500", "187742/524875", "187742/524875", "187742/524875"),
    ("219/800", "933/2080", "933/2080", "51443/147680"),
    ("269/800", "668809/1919840", "683/2080", "683/2080"),
    ("371/800", "1397/2080", "1397/2080", "1251031/1919840"),
    ("421/800", "96237/147680", "1147/2080", "1147/2080"),
    ("452201/807500", "337133/524875", "337133/524875", "337133/524875"),
    ("850307421/1490645000 - 77/22152*sqrt2",
     "175947169/298129000 + 385/22152*sqrt2",
     "175947169/298129000 + 385/22152*sqrt2",
     "175947169/298129000 + 385/22152*sqrt2"),
    ("2949/5000 - 77/7752*sqrt2", "7707239/11999000 - 385/93016248*sqrt2",
     "7707239/11999000 - 2695/100776*sqrt2",
     "7707239/11999000 - 385/93016248*sqrt2"),
    ("37481/64600", "535089339/775135400 - 192500/3875677*sqrt2",
     "117017/167960", "535089339/775135400 - 192500/3875677*sqrt2"),
    ("2949/5000 - 1925/298129*sqrt2",
     "7707239/11999000 - 67375/3875677*sqrt2",
     "7707239/11999000 - 67375/3875677*sqrt2",
     "7707239/11999000 - 67375/3875677*sqrt2"),
    ("2949/5000", "7707239/11999000", "7707239/11999000 + 1925/71994*sqrt2",
     "7707239/11999000"),
    ("61/100 - 77/7752*sqrt2", "324767/599950 + 385/7752*sqrt2",
     "41799/59995 - 385/93016248*sqrt2", "324767/599950 + 385/7752*sqrt2"),
    ("110681/184600", "1424193/2399800", "1424193/2399800",
     "1424193/2399800"),
    ("121206/201875", "1250663/2099500", "1142001659/1937838500",
     "1250663/2099500"),
    ("910529479/1490645000 - 77/22152*sqrt2",
     "12465367/22933000 + 385/22152*sqrt2",
     "12465367/22933000 + 385/22152*sqrt2",
     "12465367/22933000 + 385/22152*sqrt2"),
    ("61/100", "324767/599950 + 1925/71994*sqrt2", "41799/59995",
     "324767/599950 + 1925/71994*sqrt2"),
    ("3151/5000 - 77/7752*sqrt2", "7147901/11999000 - 385/93016248*sqrt2",
     "7147901/11999000 - 2695/100776*sqrt2",
     "7147901/11999000 - 385/93016248*sqrt2"),
    ("3151/5000 - 1925/298129*sqrt2",
     "7147901/11999000 - 67375/3875677*sqrt2",
     "7147901/11999000 - 67375/3875677*sqrt2",
     "7147901/11999000 - 67375/3875677*sqrt2"),
    ("3151/5000", "7147901/11999000", "7147901/11999000 + 1925/71994*sqrt2",
     "7147901/11999000"),
    ("235207/369200", "538849/959920", "538849/959920", "538849/959920"),
    ("3899/5000", "12293/13000", "10273/13000", "12293/13000"),
    ("4/5", "549/650", "1", "549/650"),
    ("4101/5000", "899/1000", "9667/13000", "899/1000"),
    ("4899/5000", "101/1000", "3333/13000", "101/1000"),
]


def test_criterion_01_table_fidelity():
    failures = []
    t0 = time.perf_counter()

    fn = kzh_function()
    pinned = [BreakpointRow(*(parse_qnum(c) for c in row))
              for row in _KZH_TABLE]
    if len(fn.rows) != 40:
        failures.append(f"{len(fn.rows)} rows, want 40")
    for i, (got, want) in enumerate(zip(fn.rows, pinned)):
        if got != want:
            failures.append(f"row {i}: {got} != {want}")

    # slopes, recomputed from the pinned table alone
    for i in range(39):
        dx = pinned[i + 1].x - pinned[i].x
        want = (pinned[i + 1].left - pinned[i].right) / dx
        if fn.slopes[i] != want:
            failures.append(f"slope {i}: {fn.slopes[i]} != {want}")

    # the derived constant, recomputed on an independently built function
    fresh = PwlFunction(pinned, QNum(Fraction(4, 5)))
    p = kzh_params()
    x39 = pinned[39].x
    s = pinned[39].left + fresh.eval(QNum(1) + p.l - x39) - fresh.eval(p.l)
    if s != QNum(Fraction(19, 23998)):
        failures.append(f"derived s = {s}, want 19/23998")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget 1s")
    _report(1, "40-row table, slopes, and the derived constant s", failures)


def test_criterion_02_minimality():
    failures = []
    for fn, tag in ((psi_function(), "psi"),
                    (psi_prime_function(), "psi_prime")):
        rep = minimality_test(fn)
        if not rep:
            failures.append(f"{tag} not minimal: {rep}")

    # fresh copy: nothing cached, the timed run does the full vertex sweep
    fresh = parse_text(to_text(kzh_function()))
    t0 = time.perf_counter()
    rep = minimality_test(fresh)
    elapsed = time.perf_counter() - t0
    if not rep:
        failures.append(f"kzh not minimal: {rep}")
    if elapsed >= 60.0:
        failures.append(f"kzh sweep took {elapsed:.1f}s, budget 60s")
    _report(2, "minimality of psi, psi_prime, and the 40-row function",
            failures)


def test_criterion_03_separation():
    failures = []
    psi, prime = psi_function(), psi_prime_function()

    rel = e_containment(psi, prime)
    if rel.relation != "strict_subset":
        failures.append(f"relation {rel.relation}, want strict_subset")
    if rel.witness_only_in_second is None:
        failures.append("no witness face for the strict part")

    # the northeast limit cone at (3/8, 3/8): the 2-cell just inside it
    q = lambda a, b: QNum(Fraction(a, b))
    corner = (q(3, 8), q(3, 8))
    inside = (q(25, 64), q(25, 64))
    for fn, want, tag in ((psi, QNum(0), "psi"), (prime, QNum(1),
                                                  "psi_prime")):
        cx = additive_face_report(fn).complex
        face = cx.face_of_point(*inside)
        if corner not in face.vertices:
            failures.append(f"{tag}: cone cell misses the corner")
            continue
        cls = additive_face_report(fn).classification_of(face)
        rec = next(r for r in cls.slacks if r.vertex == corner)
        if rec.sides != (1, 1, 1):
            failures.append(f"{tag}: cone sides {rec.sides}")
        if rec.slack != want:
            failures.append(f"{tag}: cone slack {rec.slack}, want {want}")
        if tag == "psi" and corner not in cls.zero_vertices:
            failures.append("psi: corner is not a zero vertex of the face")
        if tag == "psi_prime" and rec.slack <= 0:
            failures.append("psi_prime: cone slack not strictly positive")
    _report(3, "strict additivity containment and the separating cone",
            failures)


def test_criterion_04_slack_dichotomy():
    failures = []
    t0 = time.perf_counter()
    rep = verify_kzh_claim_slacks()
    elapsed = time.perf_counter() - t0
    if not rep:
        failures.append(f"suite refuted: {rep.witness}")
    st = rep.statistics
    for key, want in (("faces_nf_1", 1272), ("faces_nf_2", 160),
                      ("additive_nf_positive", 19), ("tight_vertices", 24)):
        if st.get(key) != want:
            failures.append(f"{key} = {st.get(key)}, want {want}")
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    _report(4, "slack dichotomy on faces meeting the special intervals",
            failures)


def test_criterion_05_perturbation_rank():
    failures = []
    rep = verify_kzh_perturbation_rank()
    if not rep:
        failures.append(f"suite refuted: {rep.witness}")
    st = rep.statistics
    for key, want in (("n_vars", 39), ("rank", 39), ("nullity", 0),
                      ("components", 2),
                      ("uncovered", [("219/800", "269/800"),
                                     ("371/800", "421/800")])):
        if st.get(key) != want:
            failures.append(f"{key} = {st.get(key)}, want {want}")
    _report(5, "39 equations of rank 39 and the two uncovered intervals",
            failures)


def test_criterion_06_lifting():
    failures = []
    rep = verify_lifted()
    if not rep:
        failures.append(f"suite refuted: {rep.witness}")
    st = rep.statistics
    if st.get("min_face_class_coverage", 0) < 100:
        failures.append(
            f"coverage {st.get('min_face_class_coverage')} < 100")
    if st.get("max_deviation") != "19/23998":
        failures.append(f"max deviation {st.get('max_deviation')}")
    if not st.get("deviation_witness"):
        failures.append("deviation never attained s")
    if st.get("preserved_faces") != 19:
        failures.append(f"preserved_faces = {st.get('preserved_faces')}")
    _report(6, "lifting keeps every face additivity and moves by at most s",
            failures)


def test_criterion_07_step_constants():
    failures = []
    pi0, bar0 = midpoint_pair()
    if not minimality_test(pi0):
        failures.append("midpoint is not minimal")

    res = lipschitz_epsilon(pi0, bar0)
    if not (res.eps > 0):
        failures.append(f"lipschitz epsilon {res.eps} not positive")
    eff = verify_effective(pi0, bar0, res.eps)
    if not eff:
        failures.append("pi0 +/- eps*bar0 not both minimal")

    eps2 = scaling_epsilon(pi0, bar0)
    if not (eps2 > 0):
        failures.append(f"scaling epsilon {eps2} not positive")
    if not minimality_test(pi0 - bar0.scale(eps2)):
        failures.append("pi0 - eps*bar0 not minimal at the scaling bound")
    _report(7, "both step-size constants positive and effective", failures)


def test_criterion_08_gap_lower_bound():
    failures = []
    rng = random.Random(20240817)
    violations = 0
    for i in range(1000):
        hull, g, m, zero = random_gap_instance(rng)
        if not gap_instance_holds(hull, g, m, zero, rng):
            violations += 1
            if violations <= 3:
                failures.append(f"instance {i}: bound violated")
    if violations:
        failures.append(f"{violations} violations out of 1000")
    _report(8, "polygon gap bound on 1000 random instances", failures)


def test_criterion_09_oracle_agreement():
    failures = []
    rng = random.Random(69420)
    disagreements = 0
    for i in range(200):
        fn = random_pwl(rng)
        got = bool(minimality_test(fn))
        want = sampling_minimality_oracle(fn)
        if got != want:
            disagreements += 1
            if disagreements <= 3:
                failures.append(
                    f"instance {i}: test={got} oracle={want} fn={to_text(fn)!r}")
    if disagreements:
        failures.append(f"{disagreements} disagreements out of 200")
    _report(9, "minimality agrees with the sampling oracle on 200 functions",
            failures)


def test_oracle_agreement_on_random_grids():
    """Criterion 9 on 1/N grids for random 5 <= N <= 24, not only 1/12;
    the oracle samples the same grid, where it is complete."""
    rng = random.Random(2026)
    verdicts = []
    for i in range(100):
        n = rng.randint(5, 24)
        fn = random_pwl(rng, n)
        got = bool(minimality_test(fn))
        assert got == sampling_minimality_oracle(fn, n), \
            f"instance {i}, N = {n}: test={got} fn={to_text(fn)!r}"
        verdicts.append(got)
    assert True in verdicts and False in verdicts


def test_criterion_10_negative_controls():
    failures = []
    psi_rep, slack_rep, rank_rep, lifted_rep = mutation_control_reports()
    if psi_rep:
        failures.append("separation suite survived a mutated psi")
    if slack_rep:
        failures.append("slack suite survived a mutated row 17")
    if rank_rep:
        failures.append("rank suite survived a mutated row 6")
    if lifted_rep:
        failures.append("lifting suite survived a mutated row 6")
    _report(10, "each suite flips to refuted under a 1/10^6 mutation",
            failures)
