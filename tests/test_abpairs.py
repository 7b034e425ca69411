"""The verdicts of tools/abpairs.py, on fixed numbers."""

import importlib.util
from pathlib import Path

path = Path(__file__).resolve().parents[1] / "tools" / "abpairs.py"
spec = importlib.util.spec_from_file_location("abpairs", path)
abpairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(abpairs)

PARENT = [0.080, 0.081, 0.079, 0.082, 0.080, 0.078, 0.081, 0.080, 0.079,
          0.083]


def test_quartiles_and_wins():
    assert abpairs.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert abpairs.quartiles([7]) == (7, 7, 7)
    assert abpairs.wins([3, 3, 3], [2, 3, 4], "lower") == 1
    assert abpairs.wins([3, 3, 3], [2, 3, 4], "higher") == 1


def test_a_claim_needs_nine_of_ten_wins_and_a_gap_over_the_parent_iqr():
    faster = [p - 0.008 for p in PARENT]
    assert abpairs.verdict(PARENT, faster, "lower", 0.22, True) == "gain"
    # eight wins of ten are too few, however large the gap
    eight = faster[:8] + [p + 0.001 for p in PARENT[8:]]
    assert abpairs.verdict(PARENT, eight, "lower", 0.22, True) == "no gain"
    # ten wins, but the gap (0.0005) is inside the parent's IQR (0.00175)
    close = [p - 0.0005 for p in PARENT]
    assert abpairs.verdict(PARENT, close, "lower", 0.22, True) == "no gain"
    # for a higher-is-better metric the gap runs the other way
    rates = [1 / p for p in PARENT]
    more = [r * 1.1 for r in rates]
    assert abpairs.verdict(rates, more, "higher", 0.22, True) == "gain"
    assert abpairs.verdict(more, rates, "higher", 0.22, True) == "no gain"


def test_an_unclaimed_metric_stays_inside_its_bound():
    assert abpairs.verdict(PARENT, PARENT, "lower", 0.1) == "ok"
    worse = [p * 1.2 for p in PARENT]
    assert abpairs.verdict(PARENT, worse, "lower", 0.25) == "ok"
    assert abpairs.verdict(PARENT, worse, "lower", 0.1) == "regressed"
    # a spread wider than the bound leaves the metric unresolved...
    wide = [1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0, 1.5, 1.0, 1.5]
    assert abpairs.verdict(wide, wide, "lower", 0.1) == "unresolved"
    # ...unless every run of the change reads better than every parent run
    assert abpairs.verdict(wide, [0.9] * 10, "lower", 0.1) == "ok"
    assert abpairs.verdict([0.9] * 10, wide, "higher", 0.1) == "ok"


def test_report_reads_each_metric_of_the_runs():
    def run(wall, rss):
        return {"correct": True, "attempted": 1, "failed": 0,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "peak_rss_mib": {"value": rss, "unit": "MiB"}}}
    runs = {"parent": [run(p, 20.0) for p in PARENT],
            "change": [run(p - 0.008, 20.5) for p in PARENT]}
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.22},
               {"name": "peak_rss_mib", "better": "lower", "bound": 0.1}]
    rows = abpairs.report(runs, metrics, claims=("wall_s",))
    assert [(r["metric"], r["wins"], r["verdict"]) for r in rows] == [
        ("wall_s", 10, "gain"), ("peak_rss_mib", 0, "ok")]
