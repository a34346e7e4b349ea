#!/usr/bin/env python3
"""End-to-end benchmark of the repository: served SpMM and the corpus sweep.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 20 --trace 0

``--workload`` is ``serve-warm``, ``serve-churn`` or ``sweep`` (see
``perfbench/README.md``).  Every input is generated from ``--seed``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when the checkout has no
``src/repro`` package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("serve-warm", "serve-churn", "sweep")


class Context:
    """Where a run lives: the checkout root and its scratch directory."""

    def __init__(self, root: str, run_dir: str) -> None:
        self.root = root
        self.run_dir = run_dir


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through every ``finally`` so the server is torn down.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, _terminate)
    import workloads

    run_dir = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        result = workloads.WORKLOADS[args.workload](
            Context(ROOT, run_dir), args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        parent = os.path.dirname(run_dir)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    if set(result.metrics) != set(units):
        print(f"perfbench: metric names {sorted(result.metrics)} do not match "
              f"{sorted(units)}", file=sys.stderr)
        return 3
    print(f"# workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    for line in result.lines:
        print(f"# {line}")
    for name, unit in units.items():
        print(f"# {name} = {result.metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": float(result.metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
