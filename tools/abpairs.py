"""Alternate the benchmark between two checkouts and judge the result.

    python3 tools/abpairs.py PARENT CHANGE --workload random-grid \\
        --pairs 10 --seed 1 --seconds 10 --claim wall_s --json out.json

Each pair runs ``bench/run.py --workload W --seed S --seconds T`` once in
each checkout, with that checkout's own ``bench/`` and ``src/``; the
parent runs first in odd pairs and the change first in even ones.  Per
workload and end-to-end metric it prints each side's median and
quartiles, how many pairs the change won (ties count for neither side)
and a verdict:

* a claimed metric (``--claim``) is a ``gain`` when the change wins at
  least nine tenths of the pairs and the medians differ, in the better
  direction, by more than the parent's interquartile range;
* any other metric is ``ok`` when the change's median is no worse than the
  parent's by more than its ``BENCHMARK.json`` bound, ``regressed`` when
  it is, and ``unresolved`` when either side's interquartile range, over
  its own median, is wider than the bound, unless every run of the change
  reads better than every run of the parent.

For kzh-session the passes each run made (``attempted``) are printed with
``peak_rss_mib``, since its RSS follows how many passes are kept.  Uses the
stdlib only; the tests check its verdicts on fixed numbers and never run
the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(xs) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile of xs."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def wins(parent, change, better: str) -> int:
    """How many pairs (parent[i], change[i]) the change reads better in."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent, change, better: str, bound: float,
            claimed: bool = False) -> str:
    """``gain`` or ``no gain`` for a claimed metric, else ``ok``,
    ``regressed`` or ``unresolved``; parent[i] and change[i] are pair i."""
    sign = 1 if better == "lower" else -1
    pq1, pm, pq3 = quartiles(parent)
    cq1, cm, cq3 = quartiles(change)
    if claimed:
        enough = 10 * wins(parent, change, better) >= 9 * len(parent)
        return ("gain" if enough and sign * (pm - cm) > pq3 - pq1
                else "no gain")
    if max(sign * c for c in change) < min(sign * p for p in parent):
        return "ok"  # every change run reads better than every parent run
    spread = max((pq3 - pq1) / abs(pm) if pm else 0.0,
                 (cq3 - cq1) / abs(cm) if cm else 0.0)
    if spread > bound:
        return "unresolved"
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    return "regressed" if worse > bound else "ok"


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The JSON line that one untraced ``bench/run.py`` call prints last."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_pairs(parent: Path, change: Path, workload: str, pairs: int,
              seed: int, seconds: float):
    """The runs of each side, pair by pair, alternating which goes first."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = (("parent", parent), ("change", change))
        for side, path in order if i % 2 == 0 else order[::-1]:
            runs[side].append(run_once(path, workload, seed, seconds))
    return runs


def report(runs, metrics, claims=()) -> list[dict]:
    """Per end-to-end metric, each side's quartiles, the wins and the
    verdict, from runs as ``run_pairs`` returns them."""
    rows = []
    for m in metrics:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        rows.append({"metric": name, "parent": quartiles(parent),
                     "change": quartiles(change),
                     "wins": wins(parent, change, m["better"]),
                     "pairs": len(parent),
                     "verdict": verdict(parent, change, m["better"],
                                        m["bound"], name in claims)})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--claim", action="append", default=[],
                    help="a metric claimed to get better, on every workload")
    ap.add_argument("--json", type=Path, help="write every run here")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    saved = {}
    for workload in args.workload:
        runs = run_pairs(args.parent, args.change, workload, args.pairs,
                         args.seed, args.seconds)
        rows = report(runs, bench["end_to_end"], args.claim)
        saved[workload] = {"seed": args.seed, "seconds": args.seconds,
                           "runs": runs, "summary": rows}
        print(f"{workload}, seed {args.seed}, {args.pairs} pairs "
              f"(median [quartiles]):")
        for row in rows:
            (p1, pm, p3), (c1, cm, c3) = row["parent"], row["change"]
            print(f"  {row['metric']:16} parent {pm:.4g} [{p1:.4g}, "
                  f"{p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
                  f"wins {row['wins']}/{row['pairs']}  {row['verdict']}")
            if workload == "kzh-session" and row["metric"] == "peak_rss_mib":
                for side in ("parent", "change"):
                    print(f"    {side} attempted/peak_rss_mib: " + ", ".join(
                        f"{r['attempted']}/"
                        f"{r['metrics']['peak_rss_mib']['value']:.1f}"
                        for r in runs[side]))
        bad = [r for s in ("parent", "change") for r in runs[s]
               if not r["correct"] or r["failed"]]
        print(f"  runs not correct or with failures: {len(bad)}")
    if args.json:
        args.json.write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
