"""Statistics, the correctness oracle and process probes of the benchmark."""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.special

#: Oracle tolerance.  Served results come from the reordered, tiled
#: kernels; scipy accumulates each row's products in another order, which
#: moves float64 results by a few ulp — far inside these bounds, while
#: any corrupted entry lands far outside them.
RTOL = 1e-9
ATOL = 1e-9
#: The tail percentile is the highest one that leaves this many samples
#: above it.
TAIL_BEYOND = 10


def reference(csr, x: np.ndarray) -> np.ndarray:
    """The oracle result ``csr @ x`` computed by scipy."""
    a = scipy.sparse.csr_matrix((csr.values, csr.colidx, csr.rowptr), shape=csr.shape)
    return np.asarray(a @ x)


def matches(result, expected: np.ndarray) -> bool:
    """True when ``result`` has the expected shape and values."""
    return (
        isinstance(result, np.ndarray)
        and result.shape == expected.shape
        and bool(np.allclose(result, expected, rtol=RTOL, atol=ATOL))
    )


@dataclass
class Sample:
    """One timed operation of a load loop."""

    kind: str  #: "setup", "spmm", "delta", "matrix" or "error"
    seconds: float
    ok: bool  #: completed with status ok
    correct: bool  #: passed the oracle (False also when not ok)
    rung: str | None = None  #: ladder rung of a served spmm
    label: str = ""  #: the matrix the operation ran on
    traced: bool = False  #: ran inside a benchmark-side tracer span


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def p50(values) -> float:
    """The Harrell-Davis estimate of the median: a Beta-weighted average of
    all order statistics.  Where the samples have a gap at the middle (the
    sweep's 33 matrices jump from ~220 to ~290 ms there), the plain sample
    median flips across the gap when one sample crosses; this estimate
    moves by that sample's weight only."""
    ordered = np.sort(np.asarray(list(values), dtype=float))
    n = ordered.size
    if n == 0:
        return float("nan")
    # betainc is the Beta(a, b) CDF; scipy.stats would add ~50 MB to the
    # sweep's measured peak RSS.
    weights = np.diff(scipy.special.betainc((n + 1) / 2, (n + 1) / 2, np.arange(n + 1) / n))
    return float(weights @ ordered)


def tail(values):
    """``(value, percentile, n)``: the highest percentile that leaves at
    least ``TAIL_BEYOND`` samples above it (the maximum when there are
    fewer samples than that)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return (ordered[-1] if ordered else float("nan")), 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size (``VmHWM``) of a process in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def _spans(tracer, names):
    """Every recorded span called one of ``names``, as a plain dict."""
    pending = tracer.to_dicts()
    while pending:
        node = pending.pop()
        if node["name"] in names:
            yield node
        pending.extend(node.get("children", []))


def span_seconds(tracer, names) -> float:
    """Summed duration of every span called one of ``names``."""
    return sum(node["duration_s"] for node in _spans(tracer, set(names)))


def span_self_seconds(tracer, names) -> float:
    """Summed self time of every span called one of ``names``: its duration
    minus the part its child spans cover."""
    return sum(
        node["duration_s"] - sum(c["duration_s"] for c in node.get("children", []))
        for node in _spans(tracer, set(names))
    )


def counter_delta(before: dict, after: dict, name: str) -> float:
    """Growth of a counter between two metrics snapshots."""
    return float(after.get(name, 0)) - float(before.get(name, 0))


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when nothing was counted."""
    return part / whole if whole else 0.0


def child_env(root) -> dict:
    """Environment for a child Python process importing the checkout's ``src``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
