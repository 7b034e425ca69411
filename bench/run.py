"""Benchmark command: one workload per call, end to end or traced.

    python3 bench/run.py --workload kzh-session --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload random-grid --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --all --seed 1 --seconds 10

Each workload runs in a fresh interpreter (``worker.py``), one after the
other, never two at once.  Set-up time is measured from just before an
interpreter is started to the moment it has imported groupcut and built the
catalog functions; it is taken in ``SETUP_RUNS`` interpreters (two that only
set up, then the workload's own) and reported as their median.  Times are
in reference seconds, corrected for the machine's changing speed
(``speed.py``); the interpreter's own start-up, before the worker's first
line, is counted as elapsed.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``--all``
prints one such line per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("kzh-session", "random-grid")
SETUP_RUNS = 3
TIMEOUT_S = 170  # a run that takes longer is reported as an error


def units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json at the root declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker; return its set-up time and its result object."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with "
                           f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # interpreter start-up itself, before the worker's probe runs, is raw
    return result.pop("started") - t0 + result.pop("setup_s"), result


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    setups = [_worker(["--setup-only"], deadline)[0]
              for _ in range(SETUP_RUNS - 1)]
    setup, result = _worker(["--workload", name, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace",
                             str(trace)], deadline)
    setups.append(setup)
    metrics = result["metrics"]
    if not trace:
        metrics["setup_s"] = statistics.median(setups)
    unit = units()
    result["metrics"] = {k: {"value": v, "unit": unit[k]}
                         for k, v in sorted(metrics.items())}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, one after the other")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "groupcut")):
        print("error: no src/groupcut beside bench/; run from a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.all else [args.workload]
    if names == [None]:
        ap.error("give --workload NAME or --all")
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError,
                KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        if args.all:
            shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}"
                              for k, m in result["metrics"].items())
            print(f"{name}: correct {result['correct']}, attempted "
                  f"{result['attempted']}, failed {result['failed']}; "
                  f"{shown}", file=sys.stderr)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
