"""Steady-state SpMM sessions: pin one matrix, multiply many times.

The serving scenario behind the paper (and the ROADMAP north star) is a
*fixed* sparse matrix multiplied against a stream of dense operands.  The
one-shot kernels re-derive everything per call — segment starts,
contiguous index arrays, the output array.  A :class:`KernelSession`
hoists all of it:

* one :class:`~repro.kernels.state.CsrState` (non-empty rows, segment
  starts) is pinned per non-empty CSR part at construction: the whole
  matrix for CSR targets; the dense-tile part and the sparse part (the
  round-2-ordered remainder for plans) for tiled and plan targets;
* every part is multiplied through a **compiled kernel backend**
  (:mod:`repro.kernels.backends`): at construction the session resolves
  the requested backend (its own ``backend=`` argument, or the plan's
  ``backend`` field for plan targets) and fetches the SpMM artifact for
  its K-chunk width.  This is the one place an SpMM artifact is compiled
  and run: a plan records only the backend *name*.  Compiled artifacts
  are cached process-wide, so a warm session skips compilation
  entirely;
* the reference strategy itself (the ``numpy`` backend) multiplies
  *transposed and K-chunked*: the dense operand is staged as ``X.T``
  (one contiguous ``K x N`` copy per ``run``, shared by every part) and
  processed in chunks of ``chunk_k`` columns, so the gather, scale and
  segment-sum all stream along the contiguous axis and the active chunk
  stays cache resident.  This is
  the CPU analogue of the GPU kernel's coalesced-access + shared-memory
  staging.  The one-shot :func:`~repro.kernels.spmm` runs the same
  kernel over a transient state, and the one-shot
  :func:`~repro.kernels.spmm_tiled` and
  :meth:`~repro.reorder.ExecutionPlan.spmm` run a transient session; a
  pinned session saves the per-call state build.  Scratch is allocated
  per call, like the one-shot kernels: on the served plan sessions that
  measured faster than leasing it from a pool (``docs/PERFORMANCE.md``
  §1).

Results are **bitwise identical** (``numpy`` backend) or within 1 ULP
(``numba``) to :func:`~repro.kernels.spmm_gather_reference` composed
over the target's parts — for tiles, the gather over the dense part plus
the gather over the sparse part; for plans, the remainder added at
``remainder_order`` and the sum scattered by ``row_order``: per output
element the same products are accumulated left-to-right in the same
order, and float32 operands are widened by an exact cast before the
same float64 multiply.  The equivalence is asserted in the oracle tests
and the cross-backend differential matrix.

Degradation is never fatal: if the requested backend is unavailable or
its compile fails (including the injected ``backend.compile`` chaos
fault), the session falls back to the uncompiled numpy reference
function (:func:`~repro.kernels.state.multiply_parts`) —
``kernels.backend_fallback`` counts it, one
:class:`~repro.errors.DegradedExecution` warning fires, and
:attr:`KernelSession.backend_provenance` records the step.

A session accepts three target types:

* :class:`~repro.sparse.CSRMatrix` — matches :func:`repro.kernels.spmm`;
* :class:`~repro.aspt.TiledMatrix` — what :func:`repro.kernels.spmm_tiled`
  runs;
* :class:`~repro.reorder.ExecutionPlan` — what
  :meth:`~repro.reorder.ExecutionPlan.spmm` runs (multiplies in original
  coordinates through the reordered execution plan).

Sessions are thread-safe: scratch is allocated per call and the default
output buffer is thread-local.  ``run`` returns that thread-local buffer
(valid until the same thread's next ``run``); pass ``out=`` or copy the
result to keep it.
"""

from __future__ import annotations

import functools
import threading
import warnings

import numpy as np

from repro.aspt.tiles import TiledMatrix
from repro.errors import BackendUnavailable, DegradedExecution
from repro.kernels.state import DEFAULT_CHUNK_K, CsrState, multiply_parts
from repro.observability.metrics import METRICS
from repro.observability.tracing import span
from repro.sparse.csr import CSRMatrix
from repro.util.log import get_logger
from repro.util.validation import check_dense, check_out

__all__ = ["KernelSession"]

_log = get_logger("kernels")


class KernelSession:
    """Amortised repeated SpMM against one pinned target.

    Parameters
    ----------
    target:
        A :class:`~repro.sparse.CSRMatrix`, an ASpT
        :class:`~repro.aspt.TiledMatrix` or a
        :class:`~repro.reorder.ExecutionPlan`.
    chunk_k:
        Width of the K-chunks the multiply streams through (default 64);
        baked into the compiled artifacts' specialization key.
    backend:
        Kernel backend name (``"numpy"`` or ``"numba"``).  ``None``
        means "no preference": plan targets use the plan's ``backend``
        field, everything else the ``numpy`` reference.  Unknown names
        raise :class:`~repro.errors.ConfigError`; known-but-unavailable
        backends (and compile failures) degrade to numpy with a
        :class:`~repro.errors.DegradedExecution` warning.

    Examples
    --------
    >>> from repro.datasets import hidden_clusters
    >>> from repro.kernels import KernelSession, spmm
    >>> import numpy as np
    >>> m = hidden_clusters(10, 4, 64, 6, seed=0)
    >>> session = KernelSession(m)
    >>> X = np.random.default_rng(0).normal(size=(m.n_cols, 8))
    >>> bool(np.array_equal(session.run(X), spmm(m, X)))
    True
    """

    def __init__(
        self,
        target,
        *,
        chunk_k: int = DEFAULT_CHUNK_K,
        backend: str | None = None,
    ) -> None:
        if chunk_k < 1:
            raise ValueError(f"chunk_k must be >= 1, got {chunk_k}")
        self.chunk_k = int(chunk_k)
        self._local = threading.local()
        self._requested_backend = backend
        self._bind(target)

    def _bind(self, target) -> None:
        """Pin ``target``: derive per-matrix state and compile artifacts.

        Shared by construction and :meth:`refresh`; every target-derived
        attribute is (re)assigned here so a refresh leaves no stale state
        behind.  ``_states`` holds one :class:`CsrState` per pinned CSR
        part: the whole matrix for CSR targets; for tiled and plan
        targets the dense part and the sparse part (the plan's
        round-2-ordered remainder), each only when it has non-zeros.
        """
        self._plan = None
        if isinstance(target, CSRMatrix):
            self._kind = "csr"
            shape, parts = target.shape, [target]
        else:
            if isinstance(target, TiledMatrix):
                self._kind = "tiled"
                tiled, remainder = target, target.sparse_part
            elif hasattr(target, "tiled") and hasattr(target, "row_order"):
                # ExecutionPlan (duck-typed: repro.reorder imports this
                # module's package, so a class check would be a circular
                # import).
                self._kind = "plan"
                self._plan = target
                tiled, remainder = target.tiled, target.remainder
            else:
                raise TypeError(
                    "KernelSession target must be a CSRMatrix, TiledMatrix or "
                    f"ExecutionPlan, got {type(target).__name__}"
                )
            shape = tiled.original.shape
            parts = [p for p in (tiled.dense_part, remainder) if p.nnz]
            self._has_dense = tiled.dense_part.nnz > 0
            self._has_remainder = remainder.nnz > 0
        self._n_rows, self._n_cols = shape
        self._states = [CsrState(p) for p in parts]
        self.target = target
        self._init_backend(self._requested_backend)

    def _init_backend(self, backend: str | None) -> None:
        """Resolve the backend and, if a CSR part is pinned, compile the
        SpMM artifact for the parts.

        Unavailable backends degrade inside ``resolve_backend``; compile
        *failures* (e.g. the injected ``backend.compile`` fault) degrade
        here, all the way down to the uncompiled numpy reference function
        — a session never fails to construct over its backend.
        """
        from repro.kernels.backends import (
            SpecializationSpec,
            get_backend,
            resolve_backend,
        )

        requested = backend
        if requested is None and self._kind == "plan":
            requested = getattr(self._plan, "backend", None)
        backend_obj, provenance = resolve_backend(requested)
        provenance = list(provenance)
        fn = functools.partial(multiply_parts, chunk_k=self.chunk_k)
        try:
            if self._states:
                spec = SpecializationSpec(kernel="spmm", chunk_k=self.chunk_k)
                fn = backend_obj.artifact(spec).fn
        except BackendUnavailable as exc:
            METRICS.counter(
                "kernels.backend_fallback",
                "backend requests degraded to the numpy reference",
            ).inc()
            provenance.append(
                f"backend:{backend_obj.name}->numpy: compile failed: {exc}"
            )
            _log.warning(
                "backend %s compile failed (%s); session using numpy",
                backend_obj.name,
                exc,
            )
            warnings.warn(
                f"kernel backend {backend_obj.name!r} failed to compile "
                f"({exc}); session falling back to the numpy reference "
                "(results unchanged)",
                DegradedExecution,
                stacklevel=3,
            )
            backend_obj = get_backend("numpy")
        self._backend_obj = backend_obj
        self._fn = fn
        self.backend_provenance = tuple(provenance)

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Rows of the pinned target (rows of every result)."""
        return self._n_rows

    @property
    def n_cols(self) -> int:
        """Columns of the pinned target (required rows of operands)."""
        return self._n_cols

    @property
    def backend(self) -> str:
        """Name of the backend actually executing (after any degradation)."""
        return self._backend_obj.name

    def refresh(self, target) -> "KernelSession":
        """Re-pin the session onto a successor ``target`` in place.

        The streaming path: after :func:`repro.streaming.apply_delta`
        produces a patched plan, ``refresh`` re-derives every
        target-bound attribute (pinned part states, compiled
        artifacts — warm compiles hit the process-wide artifact cache)
        while keeping the session identity.  Accepts the same target
        types as the constructor, plus a
        :class:`repro.streaming.PlanUpdate` (its ``plan`` is unwrapped).  The per-thread pinned output buffers are
        dropped because the matrix height may have changed.

        Not safe to interleave with concurrent :meth:`run` calls on the
        same session — callers that share a session across threads (the
        serving pool does) must serialise refresh against runs.
        """
        plan = getattr(target, "plan", None)
        if plan is not None and hasattr(plan, "row_order"):
            target = plan  # a PlanUpdate: pin the patched plan inside
        self._local = threading.local()
        self._bind(target)
        METRICS.counter(
            "streaming.sessions_refreshed",
            "kernel sessions re-pinned onto a streamed successor target",
        ).inc()
        return self

    # ------------------------------------------------------------------
    def _output(self, K: int, out: np.ndarray | None) -> np.ndarray:
        if out is not None:
            # Strict: an out= buffer the kernel cannot write in place
            # (wrong dtype, non-contiguous) is an error, never a silent
            # copy the caller would read zeros from.
            return check_out("out", out, rows=self._n_rows, cols=K)
        pinned = getattr(self._local, "out", None)
        if pinned is None or pinned.shape[1] != K:
            pinned = np.empty((self._n_rows, K), dtype=np.float64)
            self._local.out = pinned
        return pinned

    def run(self, X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``target @ X`` (for plans: in original coordinates).

        Without ``out=`` the result lands in a per-thread pinned buffer
        that the *next* ``run`` on the same thread overwrites.  Pass
        ``out=`` (or copy) to keep a result across calls.
        """
        if self._kind == "plan":
            # Plans cast operands to float64: ExecutionPlan.spmm's contract.
            X = check_dense("X", X, rows=self._n_cols)
        else:
            X = check_dense("X", X, rows=self._n_cols, dtype=None)
        K = X.shape[1]
        out = self._output(K, out)
        with span("kernel.run", kind=self._kind, k=K):
            if self._kind == "csr":
                self._fn(self._states, X, [out])
            else:
                self._run_tiled(X, out)
        return out

    def run_many(self, Xs) -> list[np.ndarray]:
        """Multiply a batch of operands; results are caller-owned arrays.

        Each operand is validated by :meth:`run` (a 1-D operand raises
        :class:`~repro.errors.ShapeError`).
        """
        return [self.run(X).copy() for X in Xs]

    # ------------------------------------------------------------------
    def _run_tiled(self, X: np.ndarray, out: np.ndarray) -> None:
        """Dense part into ``y``, remainder added (at ``remainder_order``
        for plans), then plans scatter ``y`` back by ``row_order``."""
        plan = self._plan
        shape = (self._n_rows, X.shape[1])
        # A plan accumulates in round-1 (reordered) row space.
        y = out if plan is None else np.empty(shape, dtype=np.float64)
        outs = [y] if self._has_dense else []
        if not self._has_dense:
            y[:] = 0.0
        if self._has_remainder:
            outs.append(np.empty(shape, dtype=np.float64))
        self._fn(self._states, X, outs)
        if self._has_remainder:
            if plan is None:
                np.add(y, outs[-1], out=y)
            else:
                # Remainder row r is reordered-space row remainder_order[r].
                y[plan.remainder_order] += outs[-1]
        if plan is not None:
            # Scatter back: reordered row r is original row row_order[r].
            out[plan.row_order] = y
