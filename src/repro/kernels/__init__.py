"""Functionally correct SpMM and SDDMM kernels.

Two families:

* **Row-wise** kernels (:mod:`repro.kernels.spmm`, :mod:`repro.kernels.sddmm`)
  implementing the paper's Alg. 1 / Alg. 2 semantics, both as readable
  reference oracles and as a vectorised production path.  There is one
  CSR SpMM kernel, :meth:`repro.kernels.CsrState.multiply`; the one-shot
  :func:`spmm`, :class:`KernelSession` and both phases of the tiled and
  plan SpMM run it.
* **Tiled** kernels (:mod:`repro.kernels.aspt_spmm`,
  :mod:`repro.kernels.aspt_sddmm`) operating on a
  :class:`repro.aspt.TiledMatrix`.  On the host the dense tiles are a
  CSR sub-matrix like the remainder, so tiled SpMM multiplies both parts
  with the one CSR kernel over one staged operand, and tiled SDDMM is
  plain SDDMM of the original matrix.  The shared-memory staging that
  makes dense tiles pay on the GPU is modelled in :mod:`repro.gpu`.

Every kernel allocates its own scratch per call.
:class:`repro.kernels.KernelSession` pins a matrix (or tiled matrix, or
execution plan) for the repeated-multiply serving case: the per-matrix
state is built once, with bitwise-identical results.

Every vectorised kernel (and :class:`~repro.kernels.KernelSession`)
additionally accepts ``backend=``, selecting a compiled kernel backend
from :mod:`repro.kernels.backends` — ``numpy`` (the reference, always)
or ``numba`` (machine-code JIT when importable, graceful degradation
otherwise).  ``numpy`` is held to the gather reference's bit pattern and
``numba`` to 1 ULP by the cross-backend differential test matrix.

These kernels compute *results*; the corresponding *performance* estimates
come from :mod:`repro.gpu`, which models the same access patterns on a
P100-like memory hierarchy.
"""

from repro.kernels.spmm import spmm, spmm_gather_reference, spmm_rowwise_reference
from repro.kernels.spmv import spmv, spmv_rowwise_reference
from repro.kernels.sddmm import sddmm, sddmm_rowwise_reference
from repro.kernels.aspt_spmm import spmm_tiled
from repro.kernels.aspt_sddmm import sddmm_tiled
from repro.kernels.state import DEFAULT_CHUNK_K, CsrState
from repro.kernels.session import KernelSession
from repro.kernels.validate import assert_spmm_correct, assert_sddmm_correct
from repro.kernels.backends import (
    CompiledKernel,
    KernelBackend,
    SpecializationSpec,
    available_backends,
    backend_names,
    get_backend,
    resolve_backend,
)

__all__ = [
    "KernelSession",
    "CsrState",
    "DEFAULT_CHUNK_K",
    "spmm",
    "spmm_gather_reference",
    "spmm_rowwise_reference",
    "spmv",
    "spmv_rowwise_reference",
    "sddmm",
    "sddmm_rowwise_reference",
    "spmm_tiled",
    "sddmm_tiled",
    "assert_spmm_correct",
    "assert_sddmm_correct",
    "SpecializationSpec",
    "CompiledKernel",
    "KernelBackend",
    "backend_names",
    "available_backends",
    "get_backend",
    "resolve_backend",
]
