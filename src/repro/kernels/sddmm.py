"""SDDMM: sampled dense–dense matrix multiplication (paper Alg. 2).

For each stored entry ``(i, c)`` of the sparse matrix ``S``,

``O.value[j] = (sum_k Y[i, k] * X[c, k]) * S.value[j]``

i.e. the output has ``S``'s sparsity pattern, each entry being the inner
product of a row of ``Y`` and a row of ``X`` scaled by the sampling value.
(With ``X`` stored row-major this is the ``Y @ X.T`` product sampled at
``S``'s non-zeros — the formulation used in ALS/collaborative filtering.)
"""

from __future__ import annotations

import numpy as np

from repro.contracts import checked, validates
from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_dense

__all__ = ["sddmm", "sddmm_rowwise_reference"]


@checked(validates("csr"))
def sddmm_rowwise_reference(csr: CSRMatrix, X: np.ndarray, Y: np.ndarray) -> CSRMatrix:
    """Paper Alg. 2, literal loops.  The oracle for :func:`sddmm`."""
    X = check_dense("X", X, rows=csr.n_cols)
    Y = check_dense("Y", Y, rows=csr.n_rows, cols=X.shape[1])
    K = X.shape[1]
    out = np.zeros(csr.nnz, dtype=np.float64)
    for i in range(csr.n_rows):
        for j in range(csr.rowptr[i], csr.rowptr[i + 1]):
            acc = 0.0
            c = csr.colidx[j]
            for k in range(K):
                acc += Y[i, k] * X[c, k]
            out[j] = acc * csr.values[j]
    return csr.with_values(out)


@checked(validates("csr"))
def sddmm(
    csr: CSRMatrix,
    X: np.ndarray,
    Y: np.ndarray,
    *,
    backend: str | None = None,
) -> CSRMatrix:
    """Vectorised SDDMM.

    Parameters
    ----------
    csr:
        Sampling matrix ``S`` of shape ``(M, N)``.
    X:
        Dense operand of shape ``(N, K)`` (indexed by ``S``'s columns).
        Floating dtypes are preserved (no up-cast copy).
    Y:
        Dense operand of shape ``(M, K)`` (indexed by ``S``'s rows).
    backend:
        Optional compiled-backend name (:mod:`repro.kernels.backends`);
        degrades back to this reference path when unavailable.

    Returns
    -------
    CSRMatrix
        Same pattern as ``csr`` with values
        ``(Y[i] . X[c]) * csr.value`` per stored entry.
    """
    if backend is not None and backend != "numpy":
        from repro.kernels.backends import resolve_backend

        resolved, _ = resolve_backend(backend)
        if resolved.name != "numpy":
            return resolved.sddmm(csr, X, Y)
    X = check_dense("X", X, rows=csr.n_cols, dtype=None)
    Y = check_dense("Y", Y, rows=csr.n_rows, cols=X.shape[1], dtype=None)
    if csr.nnz == 0:
        return csr.copy()
    # einsum's accumulation dtype stays the operands' common dtype — the
    # bitwise contract every backend's SDDMM is held to.
    dots = np.einsum("pk,pk->p", Y[csr.row_ids()], X[csr.colidx])
    return csr.with_values(dots * csr.values)
