"""SpMM over an ASpT :class:`~repro.aspt.TiledMatrix`.

The dense tiles are computed the way the GPU kernel computes them: per
panel, the dense columns' rows of ``X`` are first gathered into a compact
*panel buffer* (the functional analogue of staging into shared memory) and
the panel's tile non-zeros index that buffer through remapped local column
ids.  The sparse remainder goes through the backend's compiled CSR SpMM.
Because the tiler partitions the non-zeros exactly, the sum of the two
phases equals plain SpMM on the original matrix — asserted in the test
suite against the Alg. 1 oracle.

:class:`repro.kernels.KernelSession` is the executor: it precomputes the
panel *metadata* (local column ids, segment starts) once via
:func:`panel_plan` and runs both phases.  :func:`spmm_tiled` is a
one-shot run of a transient session.
"""

from __future__ import annotations

import numpy as np

from repro.aspt.tiles import TiledMatrix
from repro.contracts import checked, invokes
from repro.sparse.csr import CSRMatrix
from repro.util.validation import check_dense

__all__ = ["spmm_tiled", "panel_plan"]


def panel_plan(
    dense_part: CSRMatrix,
    panel_dense_cols: list[np.ndarray],
    panel_height: int,
) -> list[tuple]:
    """Precompute the per-panel gather metadata of the dense phase.

    For every non-trivial panel: ``(cols, lo, p0, vals, local, starts,
    nonempty)`` where ``local`` remaps the panel's column ids into the
    gathered buffer and ``starts``/``nonempty`` drive the segment sum.
    Computing this per call costs a ``searchsorted`` per panel; a
    :class:`~repro.kernels.KernelSession` computes it once.
    """
    rowptr = dense_part.rowptr
    plan: list[tuple] = []
    for p, cols in enumerate(panel_dense_cols):
        if cols.size == 0:
            continue
        lo = p * panel_height
        hi = min(lo + panel_height, dense_part.n_rows)
        p0, p1 = rowptr[lo], rowptr[hi]
        if p0 == p1:
            continue
        local = np.searchsorted(cols, dense_part.colidx[p0:p1])
        vals = dense_part.values[p0:p1]
        lengths = np.diff(rowptr[lo : hi + 1])
        nonempty = np.flatnonzero(lengths > 0)
        starts = (rowptr[lo:hi][nonempty] - p0).astype(np.int64)
        plan.append((cols, int(lo), vals, local, starts, nonempty))
    return plan


def _panel_dense_spmm(panels: list[tuple], X: np.ndarray, out: np.ndarray) -> None:
    """Accumulate the dense-tile contribution into ``out``.

    Mirrors the shared-memory kernel: gather, remap, multiply per panel,
    over the metadata :func:`panel_plan` precomputed.
    """
    for cols, lo, vals, local, starts, nonempty in panels:
        buffer = X[cols]  # "shared memory" stage: one load per dense column
        products = vals[:, None] * buffer[local]
        out[lo + nonempty] += np.add.reduceat(products, starts, axis=0)


@checked(invokes("validate_structure", "tiled"))
def spmm_tiled(
    tiled: TiledMatrix,
    X: np.ndarray,
    out: np.ndarray | None = None,
    *,
    backend: str | None = None,
) -> np.ndarray:
    """Two-phase ASpT SpMM: dense tiles through panel buffers, remainder
    row-wise.

    A one-shot run of a transient :class:`~repro.kernels.KernelSession`
    pinned on ``tiled``; pin a session yourself to amortise the panel
    metadata across calls.

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
        Optional kernel-backend name (:mod:`repro.kernels.backends`) for
        the sparse remainder; the dense phase is the shared panel-gather
        path on every backend.

    Returns
    -------
    numpy.ndarray
        ``Y = tiled.original @ X`` of shape ``(n_rows, K)``.
    """
    # Imported here: the session module imports this one's panel helpers.
    from repro.kernels.session import KernelSession

    X = check_dense("X", X, rows=tiled.original.n_cols, dtype=None)
    if out is None:
        out = np.empty((tiled.original.n_rows, X.shape[1]), dtype=np.float64)  # reprolint: disable=RD501 -- out= buffers are float64 by contract (check_out rejects anything else)
    return KernelSession(tiled, backend=backend).run(X, out=out)
