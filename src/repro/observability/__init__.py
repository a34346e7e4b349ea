"""Zero-dependency observability layer: structured tracing + metrics.

Two complementary views of what the library is doing:

* **Tracing** (:mod:`repro.observability.tracing`) — *where time goes*.
  Nestable :func:`span` context managers record a tree of timed stages
  (minhash → LSH → clustering → tiling → kernels) exportable as Chrome
  ``trace_event`` JSON for ``chrome://tracing``/Perfetto, or as a text
  flamegraph (:func:`trace_summary`).  Off by default; the disabled path
  is one global check (bench-gated at ≤2% kernel overhead).
* **Metrics** (:mod:`repro.observability.metrics`) — *what happened, how
  often*.  A process-global :class:`MetricsRegistry` of named counters,
  gauges and histograms that the plan store, resilience layer, GPU cost
  model and clustering all report into, while keeping their historical
  per-object counters as compatibility views.

Entry points: ``repro trace <matrix>`` on the command line,
``run_experiment(trace=...)`` for sweeps, ``with tracing() as t:`` for
any code region.  See ``docs/OBSERVABILITY.md`` for the instrument
catalogue and export walkthrough.
"""

from repro.observability.metrics import (
    METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.report import format_metrics, trace_summary
from repro.observability.tracing import (
    Span,
    Stages,
    Tracer,
    active_tracer,
    install_tracer,
    span,
    tracing,
    uninstall_tracer,
)

__all__ = [
    "METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Stages",
    "Tracer",
    "active_tracer",
    "format_metrics",
    "install_tracer",
    "span",
    "trace_summary",
    "tracing",
    "uninstall_tracer",
]
