"""Machine checks for the headline claims about the built-in functions.

Each suite returns a ClaimReport.  A report is *verified* when every
sub-check passed, and *refuted* with a witness string when an exact
computation contradicts the claim.  All checks are deterministic;
sampling uses fixed rational lattices, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps

from .exactnum import QNum
from .pwl import PwlFunction, BreakpointRow
from .complex2d import Interval, centroid
from .additivity import (ADDITIVE, _analyses, _minimality,
                         additive_face_report, e_containment, slack_at)
from .covering import components as covering_components
from .perturbation import build_system, drop_one_ranks
from . import catalog

VERIFIED = "verified"
REFUTED = "refuted"


@dataclass
class ClaimReport:
    claim: str
    status: str
    witness: str | None = None
    statistics: dict = field(default_factory=dict)

    def __bool__(self):
        return self.status == VERIFIED

    def __str__(self):
        lines = [f"claim {self.claim}: {self.status}"]
        if self.witness:
            lines.append(f"  witness: {self.witness}")
        for k in sorted(self.statistics):
            lines.append(f"  {k}: {self.statistics[k]}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {"claim": self.claim, "status": self.status,
                "witness": self.witness,
                "statistics": {k: (str(v) if isinstance(v, QNum) else v)
                               for k, v in self.statistics.items()}}


class Refuted(Exception):
    """Raised by a suite's check when an exact computation contradicts
    the claim; the message is the witness."""


def _suite(claim: str):
    """Turn check(stats, *args) into suite(*args) returning a ClaimReport.

    The check fills ``stats`` as it goes and raises Refuted(witness) on the
    first contradiction; the refuted report then carries the statistics
    gathered up to that point.
    """
    def decorate(check):
        @wraps(check)
        def suite(*args, **kwargs) -> ClaimReport:
            stats = {}
            try:
                check(stats, *args, **kwargs)
            except Refuted as exc:
                return ClaimReport(claim, REFUTED, str(exc), stats)
            return ClaimReport(claim, VERIFIED, statistics=stats)
        return suite
    return decorate


MUTATION = QNum(Fraction(1, 10**6))  # the nudge of a mutation control


def mutate_value(fn: PwlFunction, row: int) -> PwlFunction:
    """Copy of fn with one value raised by MUTATION; a negative control."""
    rows = list(fn.rows)
    r = rows[row]
    rows[row] = BreakpointRow(r.x, r.left, r.value + MUTATION, r.right)
    return PwlFunction(rows, fn.f, name=fn.name + "_mutated",
                       special_intervals=fn.special_intervals)


# -- suite 1: the separation example -----------------------------------------


@_suite("psi_separation")
def verify_psi_separation(stats, psi: PwlFunction | None = None,
                          psi_prime: PwlFunction | None = None):
    """psi and psi_prime are minimal, share all additivities of psi, and
    psi_prime has strictly more; the gap shows up in the northeast limit
    cone and makes their difference ineffective as a perturbation."""
    psi = psi if psi is not None else catalog.psi_function()
    psi_prime = (psi_prime if psi_prime is not None
                 else catalog.psi_prime_function())

    # one complex per breakpoint set (see additivity._analyses)
    for fn, tag in ((psi, "psi"), (psi_prime, "psi_prime")):
        rep = _minimality(fn, (psi,))
        stats[f"minimal_{tag}"] = bool(rep)
        if not rep:
            raise Refuted(f"{tag} not minimal: {rep}")
    both = (psi.refine(psi_prime.breakpoints),
            psi_prime.refine(psi.breakpoints))

    rel = e_containment(*both)
    stats["containment"] = rel.relation
    if rel.relation != "strict_subset":
        wit = f"e_containment(psi, psi_prime) = {rel.relation}"
        if rel.witness_only_in_first is not None:
            wit += f"; only in psi: {rel.witness_only_in_first.label()}"
        raise Refuted(wit)

    # the limit cone pointing northeast from (3/8, 3/8): additive in the
    # limit for psi, strictly positive for psi_prime
    cx = additive_face_report(psi).complex
    h = Fraction(1, 8)
    cone = cx.find_face(Interval(3 * h, 4 * h), Interval(3 * h, 4 * h),
                        Interval(5 * h, 7 * h))
    vertex = (QNum(3 * h), QNum(3 * h))
    s_psi = slack_at(psi, cone, vertex)
    s_prime = slack_at(psi_prime, cone, vertex)
    stats["cone_slack_psi"] = str(s_psi)
    stats["cone_slack_psi_prime"] = str(s_prime)
    if s_psi != 0 or s_prime <= 0:
        raise Refuted(f"{cone.label()} at ({vertex[0]},{vertex[1]}): slack "
                      f"psi {s_psi}, psi_prime {s_prime}")

    # psi_prime - psi is not an effective perturbation shape for psi: some
    # vanishing slack of psi does not vanish for it.  Slack is linear in
    # the function, so its slacks are those of psi_prime less those of psi
    # on the common complex.
    rep_psi, rep_prime = _analyses(both)
    found = next(((c1.face, r1, r2)
                  for c1, c2 in zip(rep_psi.faces, rep_prime.faces)
                  for r1, r2 in zip(c1.slacks, c2.slacks)
                  if r1.slack == 0 and r2.slack != 0), None)
    if found is None:
        raise Refuted(
            "psi_prime - psi vanishes on every vanishing slack of psi")
    face, r1, r2 = found
    u, v = r1.vertex
    stats["ineffective_witness"] = (
        f"{face.label()} at ({u},{v}): "
        f"slack(psi)=0, slack(psi_prime-psi)={r2.slack - r1.slack}")


# -- suite 2: slack dichotomy near the special intervals ----------------------


@_suite("kzh_slack_dichotomy")
def verify_kzh_claim_slacks(stats, fn: PwlFunction | None = None):
    """Faces touching the special intervals have all-zero vertex slacks or
    slacks at least n_F * s; ties happen only when one projection meets a
    special interval, and then every other slack is at least 3s."""
    fn = fn if fn is not None else catalog.kzh_function()
    s = catalog.kzh_params().s
    report = additive_face_report(fn)
    stats.update(faces_nf_1=0, faces_nf_2=0, additive_nf_positive=0,
                 tight_vertices=0)

    for n, nf in enumerate(report.n_f):
        if nf == 0:
            continue
        cls = report.faces[n]
        face = cls.face
        if nf >= 3:
            raise Refuted(f"{face.label()} has n_F = {nf}")
        stats[f"faces_nf_{nf}"] += 1
        if cls.status == ADDITIVE:
            stats["additive_nf_positive"] += 1
            continue
        bound = nf * s
        tight = 0
        for rec in cls.slacks:
            if rec.slack < bound:
                raise Refuted(f"{face.label()} vertex "
                              f"({rec.vertex[0]},{rec.vertex[1]}) slack "
                              f"{rec.slack} < n_F*s = {bound}")
            if rec.slack == bound:
                tight += 1
        if tight == len(cls.slacks):
            raise Refuted(f"{face.label()} has every slack equal to n_F*s")
        if tight:
            stats["tight_vertices"] += tight
            if nf != 1:
                raise Refuted(f"{face.label()} is tight with n_F = {nf}")
            for rec in cls.slacks:
                if rec.slack != bound and rec.slack < 3 * s:
                    raise Refuted(f"{face.label()} mixes a tight vertex "
                                  f"with slack {rec.slack} < 3s")


# -- suite 3: the finite-dimensional perturbation system ----------------------

# Selected additive faces, one vertex each.  An interval is given by indices
# into the complex's points_k: index 40 is the point 1 and 40 + i breakpoint
# i shifted by one period, so (k,) is the cell 2k and (k, k + 1) the cell
# 2k + 1.  The vertex builder receives points_k.
_KZH_SELECTED = [
    (((0, 1), (6,), (8,)), lambda x: (x[8] - x[6], x[6])),
    (((0, 1), (6,), (9, 10)), lambda x: (x[9] - x[6], x[6])),
    (((0, 1), (6,), (10, 11)), lambda x: (x[1], x[6])),
    (((0, 1), (10,), (12, 13)), lambda x: (x[12] - x[10], x[10])),
    (((0, 1), (10,), (13, 14)), lambda x: (x[1], x[10])),
    (((0, 1), (13,), (15,)), lambda x: (x[15] - x[13], x[13])),
    (((0, 1), (13,), (15, 16)), lambda x: (x[1], x[13])),
    (((0, 1), (36,), (36, 37)), lambda x: (x[0], x[36])),
    (((0, 1), (38,), (38, 39)), lambda x: (x[0], x[38])),
    (((1, 2), (1, 2), (1, 2)), lambda x: (x[1], x[1])),
    (((1, 2), (3,), (6, 7)), lambda x: (x[1], x[3])),
    (((1, 2), (6,), (11, 12)), lambda x: (x[1], x[6])),
    (((1, 2), (6,), (12,)), lambda x: (x[12] - x[6], x[6])),
    (((1, 2), (10,), (14, 15)), lambda x: (x[1], x[10])),
    (((1, 2), (11,), (14, 15)), lambda x: (x[1], x[11])),
    (((1, 2), (13,), (16, 17)), lambda x: (x[1], x[13])),
    (((1, 2), (16,), (16, 17)), lambda x: (x[1], x[16])),
    (((1, 2), (18,), (18, 19)), lambda x: (x[1], x[18])),
    (((1, 2), (20,), (20, 21)), lambda x: (x[1], x[20])),
    (((1, 2), (23,), (31,)), lambda x: (x[31] - x[23], x[23])),
    (((1, 2), (35,), (35, 36)), lambda x: (x[1], x[35])),
    (((1, 2), (36,), (37, 38)), lambda x: (x[1], x[36])),
    (((6,), (32,), (37, 38)), lambda x: (x[6], x[32])),
    (((6,), (33, 34), (37, 38)), lambda x: (x[6], x[33])),
    (((6,), (34, 35), (38, 39)), lambda x: (x[6], x[34])),
    (((10,), (30, 31), (37, 38)), lambda x: (x[10], x[30])),
    (((10,), (31, 32), (37, 38)), lambda x: (x[10], x[31])),
    (((10,), (32, 33), (38, 39)), lambda x: (x[10], x[32])),
    (((10,), (38, 39), (44,)), lambda x: (x[10], x[44] - x[10])),
    (((11,), (22,), (35, 36)), lambda x: (x[11], x[22])),
    (((13,), (16, 17), (18, 19)), lambda x: (x[13], x[16])),
    (((13,), (28,), (37, 38)), lambda x: (x[13], x[28])),
    (((13,), (28, 29), (37, 38)), lambda x: (x[13], x[28])),
    (((13,), (29, 30), (38, 39)), lambda x: (x[13], x[29])),
    (((30,), (39, 40), (67,)), lambda x: (x[30], x[67] - x[30])),
    (((33,), (39, 40), (71,)), lambda x: (x[33], x[71] - x[33])),
    (((35,), (38, 39), (71,)), lambda x: (x[35], x[71] - x[35])),
    (((38,), (39, 40), (77, 78)), lambda x: (x[38], x[39])),
    (((38, 39), (38, 39), (78, 79)), lambda x: (x[39], x[39])),
]


def kzh_selected_faces(fn: PwlFunction):
    """The tabulated (face, vertex) pairs driving the 39-variable system."""
    if len(fn.breakpoints) != 40:
        raise ValueError(f"{len(fn.breakpoints)} breakpoints, not kzh's 40")
    cx = additive_face_report(fn).complex
    out = []
    for specs, vertex in _KZH_SELECTED:
        cells = (2 * spec[0] + len(spec) - 1 for spec in specs)
        out.append((cx.faces[cx._position(*cells)], vertex(cx.points_k)))
    return out


@_suite("kzh_perturbation_rank")
def verify_kzh_perturbation_rank(stats, fn: PwlFunction | None = None):
    """Outside its special intervals the function is rigid: the covering has
    two slope components, and the selected additive faces force every
    perturbation variable to zero, each equation being essential."""
    fn = fn if fn is not None else catalog.kzh_function()

    report = additive_face_report(fn)
    result = covering_components(report)
    stats["components"] = len(result.components)
    stats["uncovered"] = [(str(a), str(b)) for a, b in result.uncovered]
    if len(result.components) != 2:
        raise Refuted(f"{len(result.components)} covering components "
                      f"instead of 2")
    if list(result.uncovered) != list(fn.special_intervals):
        raise Refuted(f"uncovered {stats['uncovered']} is not the special "
                      f"intervals")

    try:
        selected = kzh_selected_faces(fn)
        system = build_system(fn, fn.special_intervals, selected)
    except ValueError as exc:
        raise Refuted(str(exc)) from exc
    stats["n_vars"] = system.n_vars
    stats["n_rows"] = system.n_rows
    stats["rank"] = system.rank
    stats["nullity"] = system.nullspace_dim
    if system.n_vars != 39 or system.rank != 39:
        raise Refuted(f"rank {system.rank} of {system.n_vars} variables; "
                      f"expected full rank 39")

    ranks = drop_one_ranks(system)
    stats["drop_one_ranks"] = sorted(set(ranks))
    if any(r != 38 for r in ranks):
        bad = next(i for i, r in enumerate(ranks) if r != 38)
        raise Refuted(f"dropping row {bad} ({system.rows[bad][0]}) leaves "
                      f"rank {ranks[bad]}, so it was redundant")

    full = build_system(fn, fn.special_intervals, selected,
                        eliminate_symmetry=False)
    stats["full_n_vars"] = full.n_vars
    stats["full_nullity"] = full.nullspace_dim
    if full.nullspace_dim != 0:
        raise Refuted(f"without symmetry elimination the nullity is "
                      f"{full.nullspace_dim}")


# -- suite 4: the lifted function ----------------------------------------------


def _lifted_face_classes(fn: PwlFunction):
    """Positions of the additive faces meeting the specials, by design."""
    p = catalog.kzh_params()
    cx = additive_face_report(fn).complex
    lo = Interval(p.l, p.u)
    hi = Interval(p.f - p.u, p.f - p.l)
    zero = Interval(QNum(0), QNum(0))
    faces = []
    for a in (p.a0, p.a1, p.a2):
        pt = Interval(a, a)
        faces.append(("1", cx._find(lo, pt, hi)))
        faces.append(("1m", cx._find(pt, lo, hi)))
        fa = Interval(p.f - a, p.f - a)
        faces.append(("2", cx._find(lo, lo, fa)))
    fpt = Interval(p.f, p.f)
    faces.append(("3", cx._find(lo, hi, fpt)))
    faces.append(("3m", cx._find(hi, lo, fpt)))
    one = Interval(QNum(1), QNum(1))
    for intv in (lo, hi):
        faces.append(("4", cx._find(zero, intv, intv)))
        faces.append(("4m", cx._find(intv, zero, intv)))
        shifted = Interval(intv.a + 1, intv.b + 1)
        faces.append(("4", cx._find(one, intv, shifted)))
        faces.append(("4m", cx._find(intv, one, shifted)))
    return faces


# the least number of sampled points of each coset class on a lifted face
MIN_PER_CLASS = 100


def _fixed_coset_points(lo: QNum, hi: QNum, p, reps) -> list[QNum]:
    """All points of the reflection-fixed coset families in (lo, hi).

    Walks the generator lattice row by row, so density is guaranteed no
    matter how the window sits relative to the representatives.
    """
    out = []
    for c in reps:
        for j in range(-8, 9):
            base = c + p.t2 * j
            i_lo = ((lo - base) / p.t1).floor()
            i_hi = ((hi - base) / p.t1).floor() + 1
            for i in range(i_lo, i_hi + 1):
                tau = base + p.t1 * i
                if lo < tau < hi:
                    out.append(tau)
    return out


def _face_samples(face, p, lift):
    """Deterministic relint points of a 1-dim face, stratified by coset.

    Combines points aimed exactly at the reflection-fixed cosets of both
    special intervals (rational grids never land in those measure-zero
    families) with one uniform rational grid of 2 * MIN_PER_CLASS points
    for the two free classes.  Returns the distinct samples and the
    per-class hit counts, read from ``lift(t)[1]``.
    """
    (x0, y0), (x1, y1) = face.vertices[0], face.vertices[-1]
    lower_reps = catalog._c_representatives()
    # on the mirror interval the reflection-fixed points are f - C
    specials = (((p.l, p.u), lower_reps),
                ((p.f - p.u, p.f - p.l), [p.f - c for c in lower_reps]))

    seen = set()
    samples = []
    counts = {catalog.FIXED_C: 0, catalog.PLUS_CPLUS: 0, catalog.MINUS: 0}

    def add(t):
        pt = (x0 + (x1 - x0) * t, y0 + (y1 - y0) * t)
        if pt in seen:
            return
        seen.add(pt)
        samples.append(pt)
        for cls in {lift(c)[1] for c in (*pt, pt[0] + pt[1])} - {None}:
            counts[cls] += 1

    # aim each moving coordinate at the fixed cosets inside its own sweep
    for a, b in ((x0, x1), (y0, y1), (x0 + y0, x1 + y1)):
        if a == b:
            continue
        sweep_lo, sweep_hi = (a, b) if a < b else (b, a)
        for shift in (QNum(0), QNum(1)):
            for (s_lo, s_hi), reps in specials:
                w_lo = s_lo + shift if s_lo + shift > sweep_lo else sweep_lo
                w_hi = s_hi + shift if s_hi + shift < sweep_hi else sweep_hi
                if not (w_lo < w_hi):
                    continue
                for tau in _fixed_coset_points(w_lo - shift, w_hi - shift,
                                               p, reps):
                    t = (tau + shift - a) / (b - a)
                    if 0 < t < 1:
                        add(t)

    grid = 2 * MIN_PER_CLASS
    for k in range(1, grid + 1):
        add(QNum(Fraction(k, grid + 1)))
    return samples, counts


@_suite("lifted_preserves_additivity")
def verify_lifted(stats, fn: PwlFunction | None = None):
    """The lifted function changes values only on the special intervals,
    keeps every additivity of the base exactly, creates none, stays
    symmetric, and differs from the base by at most s with equality hit."""
    fn = fn if fn is not None else catalog.kzh_function()
    lifted = catalog.lifted_function()
    p = lifted.params
    s = p.s
    report = additive_face_report(fn)
    faces, nfs = report.complex.faces, report.n_f
    stats.update(nf0_faces=0, preserved_faces=0, broken_checked=0,
                 samples=0)

    table = {}  # each coordinate asked: sigma, coset class, lifted value

    def lift(t):
        row = table.get(t)
        if row is None:
            sigma, cls = lifted.sigma_class(t)
            row = table[t] = (sigma, cls, lifted.base.eval(t) + s * sigma)
        return row

    def delta(u, v):
        return lift(u)[2] + lift(v)[2] - lift(u + v)[2]

    # (a) faces clear of the special intervals: the lift agrees pointwise;
    # each vertex is checked once, named with the first face that has it
    _, points, _, starts, verts = faces.ids()
    checked = bytearray(len(points))
    for n, nf in enumerate(nfs):
        if nf:
            continue
        stats["nf0_faces"] += 1
        ids = verts[starts[n]:starts[n + 1]]
        pts = [points[i] for i in ids if not checked[i]]
        for i in ids:
            checked[i] = 1
        if len(ids) > 1:
            pts.append(centroid([points[i] for i in ids]))
        for (u, v) in pts:
            for t in (u, v, (u + v).mod1()):
                if lift(t)[0] != 0:
                    raise Refuted(f"sigma({t}) != 0 outside the special "
                                  f"intervals (face {faces[n].label()})")

    # (b) the tabulated additive face classes: lift stays exactly additive
    class_faces = _lifted_face_classes(fn)
    expected = {n for _, n in class_faces}
    additive_meeting = {n for n in report.faces.positions(ADDITIVE)
                        if nfs[n]}
    if additive_meeting != expected:
        extra = additive_meeting - expected
        missing = expected - additive_meeting
        raise Refuted(f"additive faces meeting the specials do not match "
                      f"the construction: extra {len(extra)}, missing "
                      f"{len(missing)}")

    coverage = {catalog.FIXED_C: 0, catalog.PLUS_CPLUS: 0, catalog.MINUS: 0}
    min_face_coverage = None
    for tag, n in class_faces:
        face, nf = faces[n], nfs[n]
        if face.dim != 1 or nf != 2:
            raise Refuted(f"class {tag} face {face.label()} has dim "
                          f"{face.dim}, n_F {nf}")
        samples, counts = _face_samples(face, p, lift)
        for (u, v) in samples:
            d = delta(u, v)
            stats["samples"] += 1
            if d != 0:
                raise Refuted(f"class {tag} face {face.label()} at "
                              f"({u},{v}): lifted delta {d}")
        low = min(counts.values())
        if min_face_coverage is None or low < min_face_coverage:
            min_face_coverage = low
        if low < MIN_PER_CLASS:
            raise Refuted(f"sampler covered some coset class fewer than "
                          f"{MIN_PER_CLASS} times on face {face.label()}: "
                          f"{counts}")
        for cls_, cnt in counts.items():
            coverage[cls_] += cnt
        stats["preserved_faces"] += 1
    stats["coset_coverage"] = dict(sorted(coverage.items()))
    stats["min_face_class_coverage"] = min_face_coverage

    # (c) faces meeting the specials that are not additive stay strictly
    # subadditive for the lift
    broken = [n for n, nf in enumerate(nfs)
              if nf and n not in additive_meeting]
    for face in faces.at(broken):
        if face.dim == 0:
            pts = [face.vertices[0]]
        else:
            pts = [centroid(face.vertices)]
            if face.dim == 1:
                a, b = face.vertices[0], face.vertices[-1]
                pts += [((3 * a[0] + b[0]) / 4, (3 * a[1] + b[1]) / 4)]
        for (u, v) in pts:
            d = delta(u, v)
            stats["broken_checked"] += 1
            if d <= 0:
                raise Refuted(f"non-additive face {face.label()} at "
                              f"({u},{v}): lifted delta {d} <= 0")

    # (d) symmetry and (e) the lift moves values, but never farther than s
    max_dev = QNum(0)
    witness_ne = None
    t1, t2 = p.t1, p.t2
    probes = [QNum(Fraction(k, 97)) for k in range(1, 97)]
    mid = (p.l + p.u) / 2
    probes += [mid + t1 * i + t2 * j
               for i in range(-3, 4) for j in range(-3, 4)]
    probes += [r.x for r in fn.rows]
    for x in probes:
        x = x.mod1()
        sym = lift(x)[2] + lift((p.f - x).mod1())[2]
        if sym != 1 and x != 0 and (p.f - x).mod1() != 0:
            raise Refuted(f"symmetry fails at {x}: sum {sym}")
        dev = abs(lift(x)[2] - fn.eval(x))
        if dev > s:
            raise Refuted(f"|lift - base| = {dev} > s at {x}")
        if dev > max_dev:
            max_dev = dev
            if dev == s and witness_ne is None:
                witness_ne = str(x)
    stats["max_deviation"] = str(max_dev)
    if max_dev != s:
        raise Refuted(f"maximal deviation {max_dev} never reaches s = {s}")
    stats["deviation_witness"] = witness_ne


def verify_all() -> list[ClaimReport]:
    return [
        verify_psi_separation(),
        verify_kzh_claim_slacks(),
        verify_kzh_perturbation_rank(),
        verify_lifted(),
    ]
