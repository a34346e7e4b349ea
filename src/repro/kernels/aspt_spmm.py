"""SpMM over an ASpT :class:`~repro.aspt.TiledMatrix`.

On the GPU the dense tiles pay off because their ``X`` rows are staged
in shared memory (modelled in :mod:`repro.gpu`).  On the host the dense
tiles are just a CSR sub-matrix (``tiled.dense_part``), so both phases
run through the one CSR kernel, :meth:`repro.kernels.CsrState.multiply`,
over one shared transposed staging of ``X``: the dense part into the
output, the sparse remainder added to it.  Because the tiler partitions
the non-zeros exactly, the sum of the two phases equals plain SpMM on
the original matrix — asserted in the test suite against the Alg. 1
oracle.

:class:`repro.kernels.KernelSession` is the executor: it pins one
``CsrState`` per non-empty part once.  :func:`spmm_tiled` is a one-shot
run of a transient session.
"""

from __future__ import annotations

import numpy as np

from repro.aspt.tiles import TiledMatrix
from repro.contracts import checked, invokes
from repro.kernels.session import KernelSession
from repro.util.validation import check_dense

__all__ = ["spmm_tiled"]


@checked(invokes("validate_structure", "tiled"))
def spmm_tiled(
    tiled: TiledMatrix,
    X: np.ndarray,
    out: np.ndarray | None = None,
    *,
    backend: str | None = None,
) -> np.ndarray:
    """Two-phase ASpT SpMM: the dense-tile part, then the sparse remainder
    added, both through the one CSR kernel.

    A one-shot run of a transient :class:`~repro.kernels.KernelSession`
    pinned on ``tiled``; pin a session yourself to amortise the per-part
    state across calls.

    Parameters
    ----------
    tiled:
        Output of :func:`repro.aspt.tile_matrix`.
    X:
        Dense operand of shape ``(n_cols, K)``.  Floating dtypes are
        preserved (no up-cast copy of a large ``K``-wide operand).
    out:
        Optional preallocated ``(n_rows, K)`` float64 output
        (overwritten, not accumulated).  Must be writable in place
        (float64, C-contiguous) — see
        :func:`~repro.util.validation.check_out`.
    backend:
        Optional kernel-backend name (:mod:`repro.kernels.backends`); its
        compiled SpMM runs both the dense part and the sparse remainder.

    Returns
    -------
    numpy.ndarray
        ``Y = tiled.original @ X`` of shape ``(n_rows, K)``.
    """
    X = check_dense("X", X, rows=tiled.original.n_cols, dtype=None)
    if out is None:
        out = np.empty((tiled.original.n_rows, X.shape[1]), dtype=np.float64)  # reprolint: disable=RD501 -- out= buffers are float64 by contract (check_out rejects anything else)
    return KernelSession(tiled, backend=backend).run(X, out=out)
