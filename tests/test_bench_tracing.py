"""The benchmark's tracer still finds, wraps and restores every name it patches.

``bench/tracing.py`` replaces groupcut functions and methods by name; a
renamed target would only show when the benchmark runs with ``--trace 1``.
The benchmark's own unit tests run here too, so that a change to a name or
an output shape that ``bench/`` reads fails this suite.
"""

import importlib.util
import inspect
import os
import subprocess
import sys

from groupcut import additivity, catalog, covering, perturbation, pwl
from helpers import grid_pairs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "bench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _namespaces(tracer) -> list:
    """Every module and class whose attributes the tracer may replace."""
    mods = [tracer.package] + list(tracer.mods.values())
    classes = {id(v): v for m in mods for v in vars(m).values()
               if inspect.isclass(v)}
    return mods + list(classes.values())


def test_tracer_installs_on_the_analysis_and_restores_everything():
    text = pwl.to_text(catalog.psi_function())
    tracer = _load_tracing().Tracer()
    before = [(ns, dict(vars(ns))) for ns in _namespaces(tracer)]
    tracer.install()
    try:
        fn = pwl.parse_text(text)
        assert additivity.minimality_test(fn)
        additivity.additive_face_report(fn)
    finally:
        tracer.uninstall()
    for ns, saved in before:
        now = vars(ns)
        assert set(now) == set(saved), ns
        assert [k for k, v in saved.items() if now[k] is not v] == [], ns
    assert tracer.counts["additivity.minimality.calls"] == 1
    assert tracer.counts["additivity.report.calls"] == 2
    assert tracer.counts["complex2d.build.calls"] == 1


def test_tracer_counts_an_epsilon_pair():
    """A random-grid epsilon pair, with the covering of its pi1."""
    pi0, pert, pi1 = next(grid_pairs(7, 1))
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        covering.components(additivity.additive_face_report(pi1))
        assert additivity.e_containment(pi0, pi1).relation == \
            "strict_subset"
        lip = perturbation.lipschitz_epsilon(pi0, pert)
        assert perturbation.verify_effective(pi0, pert, lip.eps)
        assert perturbation.scaling_epsilon(pi0, pert) > 0
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["perturbation.epsilon.calls"] == 2
    assert counts["covering.components.calls"] == 1
    assert counts["complex2d.build.calls"] == 2


def test_the_bench_unit_tests_pass():
    run = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                          "bench", "-p", "test_*.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
