"""SDDMM over an ASpT :class:`~repro.aspt.TiledMatrix`.

Every output entry ``(Y[i] . X[c]) * v`` is computed on its own, so the
split into dense tiles and sparse remainder changes no bit of the
result: the tiled SDDMM is the plain :func:`~repro.kernels.sddmm` of the
original matrix.  The tiling pays off only in the GPU model
(:mod:`repro.gpu`), where the dense tiles' ``X`` rows are staged in
shared memory.
"""

from __future__ import annotations

import numpy as np

from repro.aspt.tiles import TiledMatrix
from repro.contracts import checked, invokes
from repro.kernels.sddmm import sddmm
from repro.sparse.csr import CSRMatrix

__all__ = ["sddmm_tiled"]


@checked(invokes("validate_structure", "tiled"))
def sddmm_tiled(tiled: TiledMatrix, X: np.ndarray, Y: np.ndarray) -> CSRMatrix:
    """ASpT SDDMM: :func:`~repro.kernels.sddmm` over ``tiled.original``.

    Parameters
    ----------
    tiled:
        Output of :func:`repro.aspt.tile_matrix`.
    X:
        Dense operand of shape ``(n_cols, K)``.  Floating dtypes are
        preserved (no up-cast copy).
    Y:
        Dense operand of shape ``(n_rows, K)``.

    Returns
    -------
    CSRMatrix
        Same pattern as ``tiled.original`` with SDDMM values.
    """
    return sddmm(tiled.original, X, Y)
