"""Structured tracing: nestable spans, span trees, Chrome trace export.

A :class:`Tracer` records *spans* — named, attributed intervals measured
with an injectable monotonic clock — into a per-thread tree.  The tree
exports as plain nested dicts (:meth:`Tracer.to_dicts`) or as Chrome
``trace_event`` JSON (:meth:`Tracer.chrome_trace`) loadable in
``chrome://tracing`` or `Perfetto <https://ui.perfetto.dev>`_.

Tracing is **off by default** and gated exactly like
:mod:`repro.contracts` and :mod:`repro.resilience.faults`: production
code calls the module-level :func:`span`, which is a single global
``None`` check when no tracer is installed (the bench gate asserts the
disabled overhead on a kernel call stays under 2%).  Install a tracer
for a region with::

    from repro.observability import Tracer, tracing

    with tracing() as tracer:
        plan = build_plan(csr)
    print(tracer.chrome_trace())

or process-wide by exporting ``REPRO_TRACE=1`` before import (mirrors
``REPRO_CONTRACTS``), or via ``repro trace <matrix>`` on the command
line.

Determinism contract: spans never influence the traced computation —
the differential tests assert traced runs are bitwise identical to
untraced runs on every degradation-ladder rung.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager

__all__ = [
    "ENV_VAR",
    "Span",
    "Stages",
    "Tracer",
    "span",
    "tracing",
    "install_tracer",
    "uninstall_tracer",
    "active_tracer",
]

#: Environment variable that installs a process-global tracer at import
#: time when set to anything but ``""``/``"0"`` (mirrors REPRO_CONTRACTS).
ENV_VAR = "REPRO_TRACE"


class Span:
    """One named, attributed interval in a :class:`Tracer`'s tree.

    Created by :meth:`Tracer.span` (or the module-level :func:`span`) and
    used as a context manager; entering starts the clock and attaches the
    span to the current thread's innermost open span, exiting stops it.
    If the block raises, the exception type name is recorded in
    ``error`` and the exception propagates unchanged.
    """

    __slots__ = ("name", "attrs", "t_start", "t_end", "children", "tid", "error", "_tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs
        self.t_start: float | None = None
        self.t_end: float | None = None
        self.children: list["Span"] = []
        self.tid = 0
        self.error: str | None = None
        self._tracer = tracer

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.error = exc_type.__name__
        self._tracer._exit(self)

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on an open span."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        """Elapsed clock seconds (0.0 while the span is still open)."""
        if self.t_start is None or self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def to_dict(self) -> dict:
        """Nested plain-dict view of this span and its children."""
        out = {
            "name": self.name,
            "start_s": self.t_start,
            "duration_s": self.duration,
            "tid": self.tid,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    def __repr__(self) -> str:
        return f"Span({self.name!r}, duration={self.duration:.6f}s, children={len(self.children)})"


class _NullSpan:
    """Shared do-nothing span returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs) -> None:
        """No-op attribute setter (matches :meth:`Span.set`)."""


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans into per-thread trees with an injectable clock.

    Parameters
    ----------
    clock:
        Zero-argument monotonic clock returning seconds.  Defaults to
        ``time.perf_counter``; tests inject a ``FakeClock`` so golden
        traces are deterministic.
    pid:
        Process id stamped on Chrome trace events.  Defaults to the real
        pid; fix it (e.g. ``pid=1``) for reproducible exports.

    Timestamps are recorded relative to the tracer's construction time,
    so exports start near zero regardless of the clock's epoch.  Use as a
    context manager to install/uninstall process-wide (mirrors
    :class:`~repro.resilience.faults.FaultInjector`).
    """

    def __init__(self, *, clock=time.perf_counter, pid: int | None = None) -> None:
        self.clock = clock
        self.pid = int(pid) if pid is not None else os.getpid()
        self.roots: list[Span] = []
        self._epoch = clock()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: dict[int, int] = {}

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        """A new span context manager; nest freely inside other spans."""
        return Span(self, name, attrs)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            tid = self._tids.get(ident)
            if tid is None:
                tid = self._tids[ident] = len(self._tids) + 1
            return tid

    def _enter(self, span_: Span) -> None:
        stack = self._stack()
        span_.tid = self._tid()
        span_.t_start = self.clock() - self._epoch
        if stack:
            stack[-1].children.append(span_)
        else:
            with self._lock:
                self.roots.append(span_)
        stack.append(span_)

    def _exit(self, span_: Span) -> None:
        span_.t_end = self.clock() - self._epoch
        stack = self._stack()
        if stack and stack[-1] is span_:
            stack.pop()
        elif span_ in stack:
            # Mis-nested exit (exceptions unwound out of order): pop
            # through to this span so the stack stays consistent.
            while stack and stack[-1] is not span_:
                stack.pop()
            if stack:
                stack.pop()

    # ------------------------------------------------------------------
    def to_dicts(self) -> list:
        """Every root span as a nested plain dict (JSON-ready)."""
        with self._lock:
            roots = list(self.roots)
        return [root.to_dict() for root in roots]

    def _walk(self):
        with self._lock:
            pending = list(self.roots)
        while pending:
            span_ = pending.pop(0)
            yield span_
            pending[0:0] = span_.children

    def chrome_trace(self) -> dict:
        """The span tree as a Chrome ``trace_event`` document.

        Returns ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` with
        one complete (``"ph": "X"``) event per closed span; timestamps
        and durations are microseconds relative to tracer construction.
        Load the JSON in ``chrome://tracing`` or Perfetto.
        """
        events = []
        for span_ in self._walk():
            if span_.t_start is None or span_.t_end is None:
                continue
            event = {
                "name": span_.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(span_.t_start * 1e6, 3),
                "dur": round(span_.duration * 1e6, 3),
                "pid": self.pid,
                "tid": span_.tid,
            }
            args = dict(span_.attrs)
            if span_.error is not None:
                args["error"] = span_.error
            if args:
                event["args"] = args
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        """Serialise :meth:`chrome_trace` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=1, default=str)

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Make this the process-wide active tracer."""
        global _ACTIVE
        with _ACTIVE_LOCK:
            if _ACTIVE is not None and _ACTIVE is not self:
                raise RuntimeError("another Tracer is already active")
            _ACTIVE = self
        return self

    def uninstall(self) -> None:
        """Deactivate tracing (idempotent)."""
        global _ACTIVE
        with _ACTIVE_LOCK:
            if _ACTIVE is self:
                _ACTIVE = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()


#: The active tracer (``None`` = tracing disabled, the production
#: default).  A single global keeps the disabled-path cost at one load
#: and one identity comparison, same as the fault-injection layer.
_ACTIVE: Tracer | None = None
_ACTIVE_LOCK = threading.Lock()


def active_tracer() -> Tracer | None:
    """The currently installed tracer, or ``None``."""
    return _ACTIVE


def install_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` process-wide (raises if another is active)."""
    return tracer.install()


def uninstall_tracer(tracer: Tracer | None = None) -> None:
    """Uninstall ``tracer`` (or whatever is active when ``None``)."""
    global _ACTIVE
    if tracer is not None:
        tracer.uninstall()
        return
    with _ACTIVE_LOCK:
        _ACTIVE = None


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Context manager installing ``tracer`` (a fresh one when ``None``).

    Yields the tracer so callers can export after the block::

        with tracing() as tracer:
            build_plan(csr)
        tracer.write_chrome_trace("plan.trace.json")
    """
    tracer = tracer if tracer is not None else Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def span(name: str, **attrs):
    """Open a span on the active tracer; a shared no-op when tracing is off.

    This is the instrumentation entry point used across the library.  The
    disabled path is one module-global check returning a singleton, so
    warm paths (kernel sessions, clustering loops) may call it freely.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


class Stages:
    """Per-stage seconds, measured by the stage spans themselves.

    ``with stages("lsh1"):`` opens ``span("lsh1")`` and adds the block's
    elapsed seconds to ``stages.seconds["lsh1"]`` (accumulating when a
    key repeats, also when the block raises).  With a tracer installed
    the seconds *are* the span's duration, so the stage timings and the
    trace come from the same two clock reads; with none, the stage reads
    ``clock`` twice.  Pass ``name`` when the span is called differently
    from the key (``stages("lsh", "streaming.lsh")``), or ``name=None``
    for a stage that opens no span — it still reads the tracer's clock
    when one is installed.  Keyword arguments become span attributes.

    The function that returns the seconds owns its ``Stages``, so an
    aborted computation never leaves partial timings in a caller's dict.
    """

    __slots__ = ("seconds", "clock")

    def __init__(self, *, clock=time.perf_counter) -> None:
        self.seconds: dict[str, float] = {}
        self.clock = clock

    @contextmanager
    def __call__(self, key: str, name: str | None = "", **attrs):
        tracer = _ACTIVE
        if tracer is not None and name is not None:
            span_ = tracer.span(name or key, **attrs)
            try:
                with span_:
                    yield
            finally:
                self.seconds[key] = self.seconds.get(key, 0.0) + span_.duration
            return
        clock = self.clock if tracer is None else tracer.clock
        t0 = clock()
        try:
            yield
        finally:
            self.seconds[key] = self.seconds.get(key, 0.0) + (clock() - t0)


if os.environ.get(ENV_VAR, "") not in ("", "0"):
    install_tracer(Tracer())
