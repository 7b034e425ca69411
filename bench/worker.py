"""One workload in a fresh interpreter; ``run.py`` starts this file.

    python3 bench/worker.py --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

It imports groupcut from ``src/`` of the checkout and builds the catalog
functions (the set-up), then repeats whole passes of the workload until
``--seconds`` have gone by (at least one pass).  All times are reference
seconds (``speed.py``).  The outputs of the first pass are checked
with ``checks``; every later pass must give the same outputs.  The last line
on stdout is one JSON object.

With ``--trace 1`` it times the ``QNum`` operations on operands taken from
the inputs, runs one pass with the tracer installed, and reports the
per-layer metrics of that pass.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

STARTED = time.monotonic()
STARTED_PC = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402  (bench/ is on sys.path as the script's folder)
import exact  # noqa: E402
import gridgen  # noqa: E402
from speed import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()


def setup() -> dict:
    """Import groupcut and build the catalog, as every groupcut command does.

    Returns the set-up time from the start of this script in reference
    seconds, the ``time.monotonic`` reading at the start, and the time the
    catalog self-checks took.
    """
    import groupcut  # noqa: F401
    from groupcut import catalog
    t0 = time.perf_counter()
    catalog.psi_function()
    catalog.psi_prime_function()
    catalog.kzh_function()
    catalog.lifted_function()
    t1 = time.perf_counter()
    return {"started": STARTED,
            "setup_s": PROBE.reference_seconds(STARTED_PC, t1),
            "selfcheck_s": PROBE.reference_seconds(t0, t1)}


class Pass:
    """What one pass did: its timings, outputs and operation counts."""

    def __init__(self):
        self.start = self.end = 0.0  # perf_counter readings
        self.minimality: list[tuple[float, float]] = []
        self.functions = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.sidecar_bytes = 0
        self.out: dict = {}
        self.summary: list = []  # compared between passes

    def call(self, what: str, fn, *args):
        """One operation: a call into groupcut that must not raise."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{what} raised {type(exc).__name__}: {exc}")
            return None

    def minimal(self, fn):
        from groupcut import additivity
        t0 = time.perf_counter()
        rep = self.call("minimality_test", additivity.minimality_test, fn)
        self.minimality.append((t0, time.perf_counter()))
        self.functions += 1
        return rep

    @property
    def wall(self) -> float:
        return PROBE.reference_seconds(self.start, self.end)

    @property
    def minimality_s(self) -> float:
        return sum(PROBE.reference_seconds(a, b) for a, b in self.minimality)


def _pwl(rows, f):
    from groupcut import BreakpointRow, PwlFunction
    return PwlFunction([BreakpointRow.of(*r) for r in rows], f)


# -- kzh-session --------------------------------------------------------------


class KzhSession:
    """A cold session on kzh, as `groupcut minimality`, `covering`,
    `diagram --format json` and `perturbation-rank` give it."""

    name = "kzh-session"

    def __init__(self, seed: int):
        from groupcut import catalog, pwl
        self.text = pwl.to_text(catalog.kzh_function())
        self.psi_text = pwl.to_text(catalog.psi_function())
        self.psi_prime_text = pwl.to_text(catalog.psi_prime_function())
        self.table = exact.parse_table(self.text)
        p = catalog.kzh_params()
        rng = random.Random(seed)
        # points of both special intervals on the t1/t2 lattice through
        # their midpoints, rational points, and the breakpoints
        points = [r.x for r in catalog.kzh_function().rows]
        mid = (p.l + p.u) / 2
        for _ in range(120):
            i, j = rng.randint(-40, 40), rng.randint(-6, 6)
            for c in (mid, p.f - mid):
                x = c + p.t1 * i + p.t2 * j
                if p.l < x < p.u or p.f - p.u < x < p.f - p.l:
                    points.append(x)
        for _ in range(60):
            x = p.l + (p.u - p.l) * rng.randint(1, 9999) / 10000
            points += [x, x + p.t1 * rng.randint(-3, 3) / 7, p.f - x]
        self.lift_points = points
        self.operands = [v for r in catalog.kzh_function().rows
                         for v in (r.x, r.value) if not v.is_rational()]

    def run(self) -> Pass:
        from groupcut import additivity, catalog, covering, diagram, pwl
        from groupcut import verify
        ps = Pass()
        ps.start = time.perf_counter()
        fn = pwl.parse_text(self.text)
        verdict = ps.minimal(fn)
        report = ps.call("additive_face_report",
                         additivity.additive_face_report, fn)
        cover = ps.call("covering", covering.components, report)
        sidecar = ps.call("render_sidecar", diagram.render_sidecar, fn,
                          report)
        text = ps.call("sidecar_to_json", diagram.sidecar_to_json, sidecar)
        ps.sidecar_bytes = len(text or "")
        rank = ps.call("verify_kzh_perturbation_rank",
                       verify.verify_kzh_perturbation_rank, fn)
        sep = ps.call("verify_psi_separation", verify.verify_psi_separation,
                      pwl.parse_text(self.psi_text),
                      pwl.parse_text(self.psi_prime_text))
        lifted = catalog.LiftedFunction()
        lifted.base = fn  # the lift of the copy this pass parsed
        f = fn.f
        lift = ps.call("lifted evaluations", lambda: [
            (x, lifted(x), lifted((f - x).mod1())) for x in self.lift_points])
        ps.end = time.perf_counter()
        ps.out = dict(fn=fn, verdict=verdict, report=report, cover=cover,
                      sidecar=text, rank=rank, sep=sep, lift=lift)
        ps.summary = [bool(verdict), len(text or ""),
                      [r and r.status for r in (rank, sep)],
                      [str(v) for _, v, _ in lift or ()]]
        return ps

    def check(self, ps: Pass) -> list[str]:
        from groupcut import perturbation, verify
        o = ps.out
        if ps.failed:
            return []  # the failed calls are counted, nothing to check
        faces = checks.classification(o["report"])
        errors = check_verdict(o["verdict"], True)
        errors += checks.check_classification(self.table, faces)
        errors += checks.check_complex([v for v, _, _, _ in faces])
        errors += check_round_trip(o["report"], o["sidecar"])
        errors += check_uncovered(o["cover"], self.table.specials)
        errors += check_statuses([o["rank"], o["sep"]])
        st = o["rank"].statistics
        if not st.get("n_vars") == st.get("rank") == 39:
            errors.append(f"n_vars {st.get('n_vars')}, rank {st.get('rank')}"
                          f" instead of 39")
        fn = o["fn"]
        system = perturbation.build_system(fn, fn.special_intervals,
                                           verify.kzh_selected_faces(fn))
        matrix = [[checks.pair(c) for c in row] for row in system.matrix()]
        errors += checks.check_ranks(matrix, st.get("rank"),
                                     st.get("drop_one_ranks", []))
        errors += check_lift(self.table, o["lift"])
        return errors

    def inputs_for_timing(self):
        return self.operands


def check_verdict(verdict, minimal: bool) -> list[str]:
    if bool(verdict) != minimal:
        return [f"minimality_test says {verdict}"]
    return []


def check_round_trip(report, sidecar_text: str) -> list[str]:
    """The JSON sidecar reads back to the report's face classification."""
    from groupcut import diagram
    if (diagram.classification_digest(report)
            != diagram.classification_digest(json.loads(sidecar_text))):
        return ["the sidecar does not round-trip"]
    return []


def check_uncovered(cover, specials) -> list[str]:
    """The covering leaves exactly the given intervals uncovered."""
    got = [(checks.pair(a), checks.pair(b)) for a, b in cover.uncovered]
    if got != list(specials):
        return [f"uncovered {[tuple(map(exact.fmt, s)) for s in got]} is "
                f"not {[tuple(map(exact.fmt, s)) for s in specials]}"]
    return []


def check_statuses(reports) -> list[str]:
    return [f"{r.claim}: {r.status} ({r.witness})" for r in reports
            if r.status != "verified"]


def check_lift(table: exact.Table, lift) -> list[str]:
    """The lift moves values by 0 or +/-s, keeps symmetry, and moves some
    value up and some down by exactly s."""
    from groupcut import catalog
    s = checks.pair(catalog.kzh_params().s)
    offsets = set()
    errors = []
    for x, y, y_mirror in lift:
        xp, yp = checks.pair(x), checks.pair(y)
        if checks.pair(x) != exact.ZERO and exact.add(
                yp, checks.pair(y_mirror)) != exact.ONE:
            errors.append(f"lift not symmetric at {x}")
        d = exact.sub(yp, table.limit(xp))
        offsets.add(d)
        if d not in (exact.ZERO, s, exact.sub(exact.ZERO, s)):
            errors.append(f"lift moves {x} by {exact.fmt(d)}")
        if len(errors) > 5:
            break
    if not errors and len(offsets) != 3:
        errors.append(f"lift offsets {sorted(map(exact.fmt, offsets))} do "
                      f"not reach both +s and -s")
    return errors


# -- random-grid --------------------------------------------------------------


class RandomGrid:
    """Many small rational functions, each with a fresh complex."""

    name = "random-grid"

    def __init__(self, seed: int):
        self.fns, self.pairs = gridgen.batch(seed)
        self.operands = sorted({v for g in self.fns for r in g.rows
                                for v in r[1:]})

    def run(self) -> Pass:
        from groupcut import additivity, covering, diagram, perturbation, pwl
        from groupcut import catalog, verify
        ps = Pass()
        ps.start = time.perf_counter()
        verdicts, ranks, pair_out = [], [], []
        for g in self.fns:
            fn = _pwl(g.rows, g.f)
            verdicts.append(ps.minimal(fn))
            report = ps.call("additive_face_report",
                             additivity.additive_face_report, fn)
            ps.call("covering", covering.components, report)
            text = ps.call("sidecar", lambda: diagram.sidecar_to_json(
                diagram.render_sidecar(fn, report)))
            ps.sidecar_bytes += len(text or "")
            if g.family in ("gmic", "gmic_k"):
                # two-slope functions are rigid: no perturbation survives
                selected = [(fc.face, fc.face.vertices[0])
                            for fc in report.faces if fc.status == "additive"]
                system = ps.call("build_system", perturbation.build_system,
                                 fn, (), selected)
                ranks.append((system, ps.call("rank", lambda: system.rank)))
        for g0, gp, g1 in self.pairs:
            pi0, pert, pi1 = (_pwl(g.rows, g.f) for g in (g0, gp, g1))
            rel = ps.call("e_containment", additivity.e_containment, pi0, pi1)
            lip = ps.call("lipschitz_epsilon", perturbation.lipschitz_epsilon,
                          pi0, pert)
            eff = ps.call("verify_effective", perturbation.verify_effective,
                          pi0, pert, lip.eps if lip else 0)
            scale = ps.call("scaling_epsilon", perturbation.scaling_epsilon,
                            pi0, pert)
            ps.functions += 2  # pi0 + eps*pert and pi0 - eps*pert
            pair_out.append((rel, lip, eff, scale))
        psi, psi_prime = (pwl.parse_text(pwl.to_text(f())) for f in (
            catalog.psi_function, catalog.psi_prime_function))
        sep = ps.call("verify_psi_separation", verify.verify_psi_separation,
                      psi, psi_prime)
        ps.end = time.perf_counter()
        ps.out = dict(verdicts=verdicts, ranks=ranks, pairs=pair_out, sep=sep)
        ps.summary = [[bool(v) for v in verdicts], [r for _, r in ranks],
                      [(str(r), str(lp and lp.eps), bool(e), str(s))
                       for r, lp, e, s in pair_out], sep and sep.status]
        return ps

    def check(self, ps: Pass) -> list[str]:
        if ps.failed:
            return []
        o = ps.out
        errors = []
        for g, verdict in zip(self.fns, o["verdicts"]):
            want = checks.grid_minimal(checks.table_of(g.rows, g.f), g.q)
            if bool(verdict) != want:
                errors.append(f"{g.family} on 1/{g.q}: minimality_test says "
                              f"{bool(verdict)}, the grid oracle {want}")
        for system, rank in o["ranks"]:
            matrix = [[checks.pair(c) for c in row] for row in system.matrix()]
            if rank != system.n_vars:
                errors.append(f"two-slope system has rank {rank} of "
                              f"{system.n_vars}")
            errors += checks.check_column_rank(matrix, rank)
        for (g0, gp, _), (rel, lip, eff, scale) in zip(self.pairs,
                                                       o["pairs"]):
            errors += check_pair(g0, gp, rel, lip, eff, scale)
        return errors + check_statuses([o["sep"]])

    def inputs_for_timing(self):
        from groupcut import QNum
        return [QNum(v) for v in self.operands]


def check_pair(g0, gp, rel, lip, eff, scale) -> list[str]:
    """Both epsilons keep pi0 -/+ eps*pert minimal, by the grid oracle."""
    errors = []
    if rel.relation not in ("equal", "strict_subset"):
        errors.append(f"E(pi0) is not inside E(pi1): {rel.relation}")
    if not eff:
        errors.append(f"verify_effective fails at eps {lip.eps}")
    steps = [(checks.pair(lip.eps), (1, -1)), (checks.pair(scale), (-1,))]
    for eps, signs in steps:
        for sgn in signs:
            k = exact.mul(exact.num(sgn), eps)
            rows = [(exact.num(r0[0]),) + tuple(
                exact.add(exact.num(a), exact.mul(k, exact.num(b)))
                for a, b in zip(r0[1:], rp[1:]))
                for r0, rp in zip(g0.rows, gp.rows)]
            table = exact.Table(rows, exact.num(g0.f))
            if not checks.grid_minimal(table, g0.q):
                errors.append(f"pi0 {'+' if sgn > 0 else '-'} "
                              f"{exact.fmt(eps)}*pert is not minimal")
    return errors


# -- micro-timings ------------------------------------------------------------


def time_ops(operands) -> dict:
    """ns per QNum add, mul, < and floor on pairs drawn from the inputs."""
    xs = operands[:24]
    pairs = [(a, b) for a in xs for b in xs][:400]
    sums = [a + b for a, b in pairs]
    ops = {
        "exactnum.add_ns": lambda: [a + b for a, b in pairs],
        "exactnum.mul_ns": lambda: [a * b for a, b in pairs],
        "exactnum.lt_ns": lambda: [a < b for a, b in pairs],
        "exactnum.floor_ns": lambda: [s.floor() for s in sums],
    }
    out = {}
    for name, op in ops.items():
        samples = []
        for _ in range(7):
            t0 = time.perf_counter()
            for _ in range(5):
                op()
            t1 = time.perf_counter()
            samples.append(PROBE.reference_seconds(t0, t1) * 1e9
                           / (5 * len(pairs)))
        out[name] = statistics.median(samples)
    return out


# -- main ---------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (KzhSession, RandomGrid)}


def layer_metrics(tr, traced: Pass, selfcheck: float, ops: dict) -> dict:
    """Per-layer metrics of one traced pass.

    Span times are converted to reference seconds with the speed of the
    whole pass, ``k``; the speed within the pass is not resolved per span.
    """
    from groupcut import QNum
    c = tr.counts
    k = traced.wall / (traced.end - traced.start)
    perturbation_spans = ("perturbation.build_system",
                          "perturbation.drop_one_ranks",
                          "perturbation.epsilon", "perturbation.rank",
                          "perturbation.verify_effective")
    verify_spans = ("verify.psi_separation", "verify.kzh_perturbation_rank")
    m = dict(ops)
    m.update({
        "exactnum.qnum_created": c["exactnum.qnum_created"],
        "exactnum.sign_calls": c["exactnum.sign_calls"],
        "exactnum.floor_calls": c["exactnum.floor_calls"],
        "pwl.limit_calls": c["pwl.limit_calls"],
        "complex2d.build_s": k * tr.total["complex2d.build"],
        "complex2d.builds": c["complex2d.build.calls"],
        "complex2d.faces": c["complex2d.faces"],
        "complex2d.face_yield": (c["complex2d.faces"]
                                 / max(1, c["complex2d.make_face_calls"])),
        "complex2d.n_f_calls": c["complex2d.n_f_calls"],
        "additivity.minimality_self_s": k * tr.self_time(
            "additivity.minimality"),
        "additivity.report_self_s": k * tr.self_time("additivity.report"),
        "additivity.slack_evals": c["additivity.slack_evals"],
        "additivity.slack_evals_per_pair": (c["additivity.slack_evals"]
                                            / max(1, tr.distinct_pairs)),
        "covering.components_s": k * tr.total["covering.components"],
        "covering.calls": c["covering.components.calls"],
        "perturbation.build_system_s": k * tr.total[
            "perturbation.build_system"],
        "perturbation.rank_s": k * tr.total["perturbation.rank"],
        "perturbation.rank_calls": c["perturbation.rank.calls"],
        "perturbation.self_s": k * sum(tr.self_time(n)
                                       for n in perturbation_spans),
        "perturbation.epsilon_calls": c["perturbation.epsilon.calls"],
        "catalog.selfcheck_s": selfcheck,
        "catalog.coset_classify_calls": c["catalog.coset_classify.calls"],
        "catalog.lifted_evals": c["catalog.lifted_evals"],
        "verify.psi_separation_s": k * tr.total["verify.psi_separation"],
        "verify.self_s": k * sum(tr.self_time(n) for n in verify_spans),
        "diagram.sidecar_s": k * tr.total["diagram.sidecar"],
        "diagram.sidecar_bytes": traced.sidecar_bytes,
        "trace.overhead_s": k * tr.overhead((QNum(1, 2), QNum(3, 4))),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not args.setup_only and args.workload is None:
        ap.error("give --workload NAME or --setup-only")
    PROBE.start()
    info = setup()
    if args.setup_only:
        PROBE.stop()
        print(json.dumps(info))
        return 0

    work = WORKLOADS[args.workload](args.seed)
    if args.trace:
        from tracing import Tracer
        ops = time_ops(work.inputs_for_timing())
        tr = Tracer()
        tr.install()
        try:
            passes = [work.run()]
        finally:
            tr.uninstall()
        metrics = layer_metrics(tr, passes[0], info["selfcheck_s"], ops)
    else:
        passes = [work.run()]
        t_end = passes[0].start + args.seconds
        while time.perf_counter() < t_end:
            passes.append(work.run())
        walls = [p.wall for p in passes]
        metrics = {
            "wall_s": statistics.median(walls),
            "minimality_s": statistics.median(p.minimality_s
                                              for p in passes),
            "functions_per_s": (sum(p.functions for p in passes)
                                / sum(walls)),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024),
        }

    first = passes[0]
    errors = work.check(first)
    for p in passes[1:]:
        if p.summary != first.summary:
            errors.append("a later pass gave other outputs than the first")
            break
    for e in (first.errors + errors)[:10]:
        print(f"{args.workload}: {e}", file=sys.stderr)
    PROBE.stop()
    print(json.dumps({
        "started": info["started"],
        "setup_s": info["setup_s"],
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
