"""The benchmark's own test: each output check rejects a mutated input.

    python3 -m unittest discover -s bench -p "test_*.py"

Each case feeds a check the right answer and then an input with one value
moved by 1/10^6, and expects the first to pass and the second to be
rejected.  It uses psi and small grid functions so that it stays fast.
"""

from __future__ import annotations

import json
import os
import sys
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import exact  # noqa: E402
import gridgen  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)

from groupcut import (additivity, catalog, covering, diagram,  # noqa: E402
                      perturbation, pwl, verify)

NUDGE = Fraction(1, 10**6)


def nudged(rows, i: int, col: int = 2):
    rows = [list(r) for r in rows]
    rows[i][col] = exact.add(rows[i][col], exact.num(NUDGE))
    return [tuple(r) for r in rows]


class PsiCase(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.fn = pwl.parse_text(pwl.to_text(catalog.psi_function()))
        cls.text = pwl.to_text(cls.fn)
        cls.table = exact.parse_table(cls.text)
        cls.report = additivity.additive_face_report(cls.fn)
        cls.faces = checks.classification(cls.report)

    def test_grid_oracle(self):
        self.assertTrue(checks.grid_minimal(self.table, 8))
        bad = exact.Table(nudged(self.table.rows, 2), self.table.f)
        self.assertFalse(checks.grid_minimal(bad, 8))

    def test_minimality_verdict(self):
        self.assertEqual(worker.check_verdict(
            additivity.minimality_test(self.fn), True), [])
        bad = verify.mutate_value(self.fn, 2)
        self.assertTrue(worker.check_verdict(
            additivity.minimality_test(bad), True))

    def test_face_slacks(self):
        self.assertEqual(checks.check_classification(self.table, self.faces),
                         [])
        bad = exact.Table(nudged(self.table.rows, 1), self.table.f)
        self.assertTrue(checks.check_classification(bad, self.faces))

    def test_complex_tiles_the_square(self):
        verts = [v for v, _, _, _ in self.faces]
        self.assertEqual(checks.check_complex(verts), [])
        k = next(i for i, v in enumerate(verts) if len(v) >= 3)
        (u, v), rest = verts[k][0], verts[k][1:]
        verts[k] = [(exact.add(u, exact.num(NUDGE)), v)] + rest
        self.assertTrue(checks.check_complex(verts))

    def test_sidecar_round_trip(self):
        text = diagram.sidecar_to_json(diagram.render_sidecar(self.fn,
                                                              self.report))
        self.assertEqual(worker.check_round_trip(self.report, text), [])
        data = json.loads(text)
        rec = next(r for item in data["faces"] for r in item["slacks"]
                   if r["slack"] != "0")
        rec["slack"] = exact.fmt(exact.add(exact.parse(rec["slack"]),
                                           exact.num(NUDGE)))
        self.assertTrue(worker.check_round_trip(
            self.report, diagram.sidecar_to_json(data)))

    def test_uncovered_set(self):
        g = next(g for g in gridgen.batch(1)[0]
                 if g.family == "random_table")
        fn = worker._pwl(g.rows, g.f)
        cover = covering.components(additivity.additive_face_report(fn))
        spans = [(checks.pair(a), checks.pair(b)) for a, b in cover.uncovered]
        self.assertTrue(spans)
        self.assertEqual(worker.check_uncovered(cover, spans), [])
        moved = [(a, exact.add(b, exact.num(NUDGE))) for a, b in spans]
        self.assertTrue(worker.check_uncovered(cover, moved))

    def test_claim_statuses(self):
        psi_prime = pwl.parse_text(pwl.to_text(
            catalog.psi_prime_function()))
        good = verify.verify_psi_separation(self.fn, psi_prime)
        self.assertEqual(worker.check_statuses([good]), [])
        bad = verify.verify_psi_separation(verify.mutate_value(self.fn, 2),
                                           psi_prime)
        self.assertTrue(worker.check_statuses([bad]))


class RankCase(unittest.TestCase):
    def test_row_ranks(self):
        one = exact.ONE
        matrix = [[one, one], [one, exact.add(one, exact.num(NUDGE))]]
        self.assertEqual(checks.check_ranks(matrix, 2, [1]), [])
        self.assertTrue(checks.check_ranks([[one, one], [one, one]], 2, [1]))

    def test_column_rank(self):
        one, two = exact.ONE, exact.num(2)
        matrix = [[one, one], [one, exact.add(one, exact.num(NUDGE))],
                  [two, two]]
        self.assertEqual(checks.check_column_rank(matrix, 2), [])
        matrix[1][1] = one
        self.assertTrue(checks.check_column_rank(matrix, 2))


class EpsilonCase(unittest.TestCase):
    def test_epsilon_checks(self):
        _, pairs = gridgen.batch(5)
        g0, gp, g1 = pairs[0]
        pi0, pert, pi1 = (worker._pwl(g.rows, g.f) for g in (g0, gp, g1))
        rel = additivity.e_containment(pi0, pi1)
        lip = perturbation.lipschitz_epsilon(pi0, pert)
        eff = perturbation.verify_effective(pi0, pert, lip.eps)
        scale = perturbation.scaling_epsilon(pi0, pert)
        self.assertEqual(worker.check_pair(g0, gp, rel, lip, eff, scale), [])
        self.assertTrue(worker.check_pair(g0, gp, rel, lip, eff,
                                          scale + NUDGE))
        rows = [list(r) for r in g0.rows]
        rows[1][2] += NUDGE
        bad = gridgen.GridFunction("pi0", rows, g0.f, g0.q)
        self.assertTrue(worker.check_pair(bad, gp, rel, lip, eff, scale))


class LiftCase(unittest.TestCase):
    def test_lift_offsets(self):
        p = catalog.kzh_params()
        fn = catalog.kzh_function()
        table = exact.parse_table(pwl.to_text(fn))
        lifted = catalog.lifted_function()
        xs = [p.l + (p.u - p.l) * k / 41 for k in range(1, 41)]
        xs += [r.x for r in fn.rows]
        lift = [(x, lifted(x), lifted((p.f - x).mod1())) for x in xs]
        self.assertEqual(worker.check_lift(table, lift), [])
        i = next(i for i, r in enumerate(fn.rows) if r.x != 0)
        bad = exact.Table(nudged(table.rows, i), table.f, table.specials)
        self.assertTrue(worker.check_lift(bad, lift))


if __name__ == "__main__":
    unittest.main()
