"""Pinned per-matrix CSR state and the one CSR SpMM kernel.

:class:`CsrState` hoists everything about a CSR matrix that a multiply
would otherwise recompute per call — the non-empty row set, the segment
starts, contiguous copies of the index and value arrays.
:class:`repro.kernels.KernelSession` pins one for the life of a session;
the one-shot :func:`repro.kernels.spmm` builds a transient one per call.
Backend artifacts (:mod:`repro.kernels.backends`) take a list of
``CsrState`` parts, so one artifact serves both paths and both phases of
a tiled or plan target.

:meth:`CsrState.multiply` is the repo's only CSR SpMM kernel: over the
dense operand staged transposed by :func:`stage` (once per call of
:func:`multiply_parts`, however many parts share it), gather / scale /
segment-sum one K-chunk at a time along the contiguous axis, so the
products scratch is bounded by ``chunk_k * nnz`` floats.  Despite the
different loop structure the result is **bitwise identical** to
:func:`repro.kernels.spmm_gather_reference` — per output element the
same products are accumulated left-to-right in the same order, and
float32 operands are widened by an exact cast before the same float64
multiply.  The numba backend is held to this bit pattern within 1 ULP by
the cross-backend differential tests.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = ["DEFAULT_CHUNK_K", "CsrState", "multiply_parts", "stage"]

#: Default K-chunk width.  64 float64 columns x a few tens of thousands of
#: non-zeros keeps the active gather chunk inside the last-level cache on
#: typical hardware while amortising the per-chunk Python overhead.
DEFAULT_CHUNK_K = 64


class CsrState:
    """Pinned per-matrix state for the transposed K-chunked CSR multiply."""

    __slots__ = (
        "csr",
        "colidx",
        "values",
        "values_row",
        "starts",
        "nonempty",
        "empty",
        "any_empty",
    )

    def __init__(self, csr: CSRMatrix) -> None:
        self.csr = csr
        self.colidx = np.ascontiguousarray(csr.colidx)
        #: 1-D contiguous values (what row-wise compiled kernels index).
        self.values = np.ascontiguousarray(csr.values)
        #: The same values broadcast-shaped for the chunked multiply.
        self.values_row = self.values[None, :]
        lengths = csr.row_lengths()
        self.empty = lengths == 0
        self.any_empty = bool(self.empty.any())
        self.nonempty = np.flatnonzero(lengths > 0)
        self.starts = np.ascontiguousarray(csr.rowptr[:-1][self.nonempty])

    def multiply(self, XT: np.ndarray, out: np.ndarray, chunk_k: int) -> None:
        """``out = csr @ X`` from ``XT = stage(X)``, bitwise identical to
        :func:`repro.kernels.spmm_gather_reference`."""
        csr = self.csr
        K = XT.shape[0]
        if csr.nnz == 0 or K == 0:
            out[:] = 0.0
            return
        chunk = max(1, min(chunk_k, K))
        gathered = np.empty((chunk, csr.nnz), dtype=np.float64)
        sums = np.empty((chunk, self.nonempty.size), dtype=np.float64)
        for k0 in range(0, K, chunk):
            k1 = min(k0 + chunk, K)
            g = gathered[: k1 - k0]
            s = sums[: k1 - k0]
            np.take(XT[k0:k1], self.colidx, axis=1, out=g)
            np.multiply(self.values_row, g, out=g)
            np.add.reduceat(g, self.starts, axis=1, out=s)
            out[self.nonempty, k0:k1] = s.T
        if self.any_empty:
            out[self.empty] = 0.0


def stage(X: np.ndarray) -> np.ndarray:
    """``X`` staged transposed: one exact-cast float64 ``K x N`` copy,
    after which every access of :meth:`CsrState.multiply` streams along
    contiguous memory."""
    XT = np.empty((X.shape[1], X.shape[0]), dtype=np.float64)
    np.copyto(XT, X.T)
    return XT


def multiply_parts(states, X: np.ndarray, outs, chunk_k: int) -> None:
    """``outs[i] = states[i].csr @ X`` for every part, over one staged ``X.T``.

    The numpy backend's SpMM artifact and the session's uncompiled
    fallback.
    """
    XT = stage(X)
    for state, out in zip(states, outs):
        state.multiply(XT, out, chunk_k)
