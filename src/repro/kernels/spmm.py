"""SpMM: multiply a sparse matrix by a dense matrix (paper Alg. 1).

``Y[i, k] = sum_j S.value[j] * X[S.colidx[j], k]`` over the non-zeros ``j``
of row ``i``.

One production kernel and two reference oracles with one contract:

* :func:`spmm` — the production entry point.  It resolves a kernel
  backend (``numpy`` by default) and runs its compiled SpMM over a
  transient :class:`~repro.kernels.state.CsrState`: the transposed,
  K-chunked :meth:`~repro.kernels.state.CsrState.multiply`, whose
  products scratch is bounded by ``chunk_k * nnz`` floats.
* :func:`spmm_gather_reference` — the straightforward vectorised form:
  one gather of ``X`` rows, one broadcast multiply, one ``reduceat``
  segment sum (``nnz * K`` scratch).  A different algorithm with the same
  accumulation order, so the numpy backend is held to it **bitwise**.
* :func:`spmm_rowwise_reference` — the paper's Alg. 1 verbatim, Python
  loops; the oracle for everything else (use only on small matrices).

For the repeated-multiply serving case see
:class:`repro.kernels.KernelSession`, which pins the ``CsrState`` and the
compiled artifact across calls.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import checked, validates
from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_dense

__all__ = ["spmm", "spmm_gather_reference", "spmm_rowwise_reference"]


@checked(validates("csr"))
def spmm_rowwise_reference(csr: CSRMatrix, X: np.ndarray) -> np.ndarray:
    """Paper Alg. 1, literal loops.  O(nnz * K) scalar operations."""
    X = check_dense("X", X, rows=csr.n_cols)
    K = X.shape[1]
    Y = np.zeros((csr.n_rows, K), dtype=np.float64)
    for i in range(csr.n_rows):
        for j in range(csr.rowptr[i], csr.rowptr[i + 1]):
            c = csr.colidx[j]
            v = csr.values[j]
            for k in range(K):
                Y[i, k] += v * X[c, k]
    return Y


@checked(validates("csr"))
def spmm_gather_reference(csr: CSRMatrix, X: np.ndarray) -> np.ndarray:
    """Gather / scale / segment-sum SpMM; the bitwise oracle of :func:`spmm`.

    ``products[p] = value[p] * X[col[p]]``, then ``np.add.reduceat`` over
    each non-empty row's segment.  Allocates ``nnz * K`` floats of
    scratch, so it is meant for tests and plan validation, not serving.
    A ``float32`` operand is used as-is; the multiply widens it to
    ``float64`` through the values array (an exact cast).
    """
    X = check_dense("X", X, rows=csr.n_cols, dtype=None)
    out = np.zeros((csr.n_rows, X.shape[1]), dtype=np.float64)
    if csr.nnz == 0:
        return out
    products = csr.values[:, None] * X[csr.colidx]
    nonempty = np.flatnonzero(csr.row_lengths() > 0)
    out[nonempty] = np.add.reduceat(products, csr.rowptr[:-1][nonempty], axis=0)
    return out


@checked(validates("csr"))
def spmm(
    csr: CSRMatrix,
    X: np.ndarray,
    out: np.ndarray | None = None,
    *,
    backend: str | None = None,
) -> np.ndarray:
    """SpMM through a kernel backend's compiled CSR multiply.

    Parameters
    ----------
    csr:
        Sparse operand, shape ``(M, N)``.
    X:
        Dense operand, shape ``(N, K)``.  A ``float32`` operand is used
        as-is (dtype-preserving validation) — no up-cast copy; the
        accumulation still runs in ``float64`` via the values array.
    out:
        Optional preallocated ``(M, K)`` output (overwritten, not
        accumulated).  Must be writable in place: a float64 C-contiguous
        ndarray of exactly that shape
        (:func:`~repro.util.validation.check_out`).
    backend:
        Optional kernel-backend name (see :mod:`repro.kernels.backends`).
        ``None``/``"numpy"`` run the numpy reference artifact; other
        names dispatch to that backend's compiled SpMM, degrading to
        numpy when the backend is unavailable.

    Returns
    -------
    numpy.ndarray
        ``Y`` of shape ``(M, K)``, bitwise equal to
        :func:`spmm_gather_reference` on the numpy backend.
    """
    from repro.kernels.backends import resolve_backend

    resolved, _ = resolve_backend(backend)
    return resolved.spmm(csr, X, out)
