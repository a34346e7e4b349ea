"""The ``numpy`` reference backend — always available, defines "correct".

Its "compiled" artifacts are plain closures over the exact operation
sequences of the reference kernels: the K-chunked
:meth:`repro.kernels.state.CsrState.multiply` over one staged operand
(:func:`repro.kernels.state.multiply_parts`) for SpMM, the
gather/multiply/segment-sum for SpMV, the gather + ``einsum`` for SDDMM.
Every other backend's output is asserted against these artifacts by the
differential test matrix, and every degradation path (unavailable
backend, injected compile fault) lands here.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.kernels.backends.base import CompiledKernel, KernelBackend, SpecializationSpec
from repro.kernels.state import multiply_parts
from repro.util.arrayops import segment_sum

__all__ = ["NumpyBackend"]


def _spmv_kernel(csr, x):
    return segment_sum(csr.values * x[csr.colidx], csr.rowptr)


def _sddmm_kernel(csr, X, Y):
    # einsum's accumulation dtype stays the operands' common dtype —
    # the bitwise contract every backend's SDDMM is held to.
    dots = np.einsum("pk,pk->p", Y[csr.row_ids()], X[csr.colidx])
    return dots * csr.values


class NumpyBackend(KernelBackend):
    """Reference backend: the existing NumPy kernels behind the artifact API."""

    name = "numpy"

    def compile(self, spec: SpecializationSpec) -> CompiledKernel:
        """Wrap the reference kernel for ``spec`` — no real compilation."""
        if spec.kernel == "spmm":
            fn = functools.partial(multiply_parts, chunk_k=spec.chunk_k)
        elif spec.kernel == "spmv":
            fn = _spmv_kernel
        elif spec.kernel == "sddmm":
            fn = _sddmm_kernel
        else:
            raise ValueError(f"unknown kernel {spec.kernel!r}")
        return CompiledKernel(backend=self.name, spec=spec, fn=fn)
