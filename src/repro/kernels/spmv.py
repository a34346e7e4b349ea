"""SpMV: sparse matrix–vector multiplication.

SpMV is not one of the paper's target kernels, but it anchors the paper's
central *argument*: vertex reordering improves SpMV — where the dense
operand is a vector and consecutive accesses to it enjoy spatial locality
within cache lines — yet does not help SpMM, where each "element" is a
whole K-wide row and only temporal locality matters.  This module provides
the functional kernel; :meth:`repro.gpu.executor.GPUExecutor.spmv_cost`
provides the matching performance model, and
``benchmarks/bench_spmv_vs_spmm_reordering.py`` reproduces the argument.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import checked, validates
from repro.sparse.csr import CSRMatrix
from repro.util.arrayops import segment_sum

__all__ = ["spmv", "spmv_rowwise_reference"]


@checked(validates("csr"))
def spmv_rowwise_reference(csr: CSRMatrix, x: np.ndarray) -> np.ndarray:
    """Scalar-loop SpMV (the K=1 specialisation of the paper's Alg. 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != csr.n_cols:
        raise ValueError(f"x must be 1-D of length {csr.n_cols}, got shape {x.shape}")
    y = np.zeros(csr.n_rows, dtype=np.float64)
    for i in range(csr.n_rows):
        acc = 0.0
        for j in range(csr.rowptr[i], csr.rowptr[i + 1]):
            acc += csr.values[j] * x[csr.colidx[j]]
        y[i] = acc
    return y


@checked(validates("csr"))
def spmv(csr: CSRMatrix, x: np.ndarray, *, backend: str | None = None) -> np.ndarray:
    """Vectorised SpMV: gather, multiply, segment-sum.

    ``backend`` optionally dispatches to a compiled backend
    (:mod:`repro.kernels.backends`), degrading back to this reference
    path when the backend is unavailable.
    """
    if backend is not None and backend != "numpy":
        from repro.kernels.backends import resolve_backend

        resolved, _ = resolve_backend(backend)
        if resolved.name != "numpy":
            return resolved.spmv(csr, x)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != csr.n_cols:
        raise ValueError(f"x must be 1-D of length {csr.n_cols}, got shape {x.shape}")
    if csr.nnz == 0:
        return np.zeros(csr.n_rows, dtype=np.float64)
    return segment_sum(csr.values * x[csr.colidx], csr.rowptr)
