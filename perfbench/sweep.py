"""The ``sweep`` workload: the research user's corpus experiment.

One ``run_experiment`` call per corpus entry, sequentially, K = 512, no
plan cache, tracing off, cycling through the corpus in order until the
run's time is up (at least one full pass).  Checks: every call returns
one record per K for its entry, and every plan it builds (NR and RR)
carries row orders that are permutations.
"""

from __future__ import annotations

import contextlib
import itertools
import subprocess
import sys
import time

import numpy as np

import repro.experiments.runner as runner
from repro.experiments import ExperimentConfig, run_experiment
from repro.gpu.executor import GPUExecutor
from repro.observability import METRICS, Tracer, tracing

from common import Sample, child_env, counter_delta

CONFIG = ExperimentConfig(ks=(512,), scale="small", repeats=1)
#: Plans each ``run_experiment`` call builds per entry (ASpT-NR and ASpT-RR).
PLANS_PER_ENTRY = 2
#: Set-ups timed per run; ``setup_s`` is their median.
SETUPS = 3

_SETUP_PROGRAM = """
from repro.experiments import ExperimentConfig
from repro.gpu.executor import GPUExecutor
config = ExperimentConfig(ks=(512,), scale="small", repeats=1)
device, cost = config.effective_model()
GPUExecutor(device, cost, cache_mode=config.cache_mode)
"""


def setup_seconds(root: str) -> list:
    """Wall time of a fresh interpreter importing the experiment stack and
    building the device model and executor, ``SETUPS`` times."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_PROGRAM], cwd=root,
                       env=child_env(root), check=True, timeout=120,
                       stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def _is_permutation(order, n: int) -> bool:
    order = np.asarray(order)
    return order.shape == (n,) and np.array_equal(np.sort(order), np.arange(n))


@contextlib.contextmanager
def _captured_plans():
    """Collect every plan the runner builds, for the permutation check."""
    plans = []
    build = runner.build_plan

    def capture(*args, **kwargs):
        plan = build(*args, **kwargs)
        plans.append(plan)
        return plan

    runner.build_plan = capture
    try:
        yield plans
    finally:
        runner.build_plan = build


@contextlib.contextmanager
def _timed_costs(seconds: dict):
    """Add the time of every ``GPUExecutor.<name>`` call to ``seconds[name]``."""
    originals = {name: getattr(GPUExecutor, name) for name in seconds}

    def timed(name):
        method = originals[name]

        def wrapper(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return method(self, *args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0

        return wrapper

    for name in seconds:
        setattr(GPUExecutor, name, timed(name))
    try:
        yield
    finally:
        for name, method in originals.items():
            setattr(GPUExecutor, name, method)


def run_entries(corpus, *, seconds=None):
    """Run entries in corpus order; with ``seconds``, keep cycling until
    that much time has passed (finishing at least one pass), else one pass.
    """
    samples = []
    start = time.perf_counter()
    with _captured_plans() as plans:
        for i in itertools.count():
            if i >= len(corpus) and (
                seconds is None or time.perf_counter() - start >= seconds
            ):
                break
            entry = corpus[i % len(corpus)]
            plans.clear()
            t0 = time.perf_counter()
            try:
                records = run_experiment(CONFIG, [entry])
            except Exception:  # a failed entry is counted, never raised
                samples.append(Sample("matrix", time.perf_counter() - t0, False, False,
                                      label=entry.name))
                continue
            elapsed = time.perf_counter() - t0
            n = entry.matrix.n_rows
            correct = (
                len(records) == len(CONFIG.ks)
                and all(r.name == entry.name for r in records)
                and len(plans) == PLANS_PER_ENTRY
                and all(_is_permutation(p.row_order, n)
                        and _is_permutation(p.remainder_order, n) for p in plans)
            )
            samples.append(Sample("matrix", elapsed, True, correct, label=entry.name))
    return samples, time.perf_counter() - start


def paired_passes(corpus, counters) -> dict:
    """One pass in which every entry runs twice, untraced and with a tracer
    installed and the cost model timed, in alternating order (for
    ``tracing_overhead``).  ``counters`` name the metrics counters summed
    over the traced calls."""
    plain, traced = [], []
    tracer = Tracer()
    costs = {"spmm_cost": 0.0, "sddmm_cost": 0.0}
    counts = dict.fromkeys(counters, 0.0)
    for i, entry in enumerate(corpus):
        if i % 2:  # alternate which call runs first, so warm-up favours neither
            plain += run_entries([entry])[0]
        before = METRICS.snapshot()
        with tracing(tracer), _timed_costs(costs):
            traced += run_entries([entry])[0]
        after = METRICS.snapshot()
        for name in counts:
            counts[name] += counter_delta(before, after, name)
        if not i % 2:
            plain += run_entries([entry])[0]
    return {"plain": plain, "traced": traced, "tracer": tracer, "costs": costs,
            "counts": counts}
