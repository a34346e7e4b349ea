"""Backend abstraction: specialization specs, compiled artifacts, base class.

A *backend* turns a :class:`SpecializationSpec` — the kernel, the
operand dtype and the K-chunk width, the facts its generated code bakes
in — into a :class:`CompiledKernel` whose ``fn`` executes one kernel.
:class:`repro.kernels.KernelSession` is the one place that compiles
artifacts for SpMM and runs them; plans record only the backend *name*.

The contract every backend is held to (by the cross-backend differential
test matrix, ``tests/unit/test_backend_differential.py``) is the paper's
"same bits, faster" claim:

* the ``numpy`` backend must be **bitwise identical** to the gather
  reference (:func:`repro.kernels.spmm_gather_reference`) — per output
  element it adds the same products in the same order, so every
  intermediate rounds identically;
* a true machine-code backend (``numba``) must match within **1 ULP** per
  element: its sequential row-wise accumulation performs the same adds in
  the same order as ``np.add.reduceat`` (an accumulator initialised to
  ``0.0`` is exact: ``0.0 + x == x``), but the compiler may contract
  multiply-adds differently.

Compiled-fn calling conventions (what ``CompiledKernel.fn`` receives):

=========  ==================================================================
kernel      signature and contract
=========  ==================================================================
``spmm``    ``fn(states, X, outs)`` — *fully overwrites* each
            ``outs[i]`` with ``states[i].csr @ X`` (including zeroing
            empty rows); each state is a
            :class:`repro.kernels.state.CsrState`.
``spmv``    ``fn(csr, x) -> y`` — returns a fresh ``(n_rows,)`` float64.
``sddmm``   ``fn(csr, X, Y) -> values`` — returns the new ``(nnz,)``
            values array (``(Y[i] . X[c]) * csr.value`` per entry).
=========  ==================================================================

Compiled kernels allocate their own scratch.  Tiled and plan SpMM run
both ASpT phases through the backend's compiled SpMM: the dense-tile
part and the sparse remainder are two CSR parts of one ``fn`` call, so
a compiled backend accelerates both phases.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.kernels.state import DEFAULT_CHUNK_K, CsrState
from repro.sparse.csr import CSRMatrix
from repro.util.hashing import stable_digest
from repro.util.validation import check_dense, check_out

__all__ = [
    "SpecializationSpec",
    "CompiledKernel",
    "KernelBackend",
]


def _dtype_token(dtype) -> str:
    """Canonical dtype name for specialization keys (``float64``, ...)."""
    return np.dtype(dtype).name


@dataclass(frozen=True)
class SpecializationSpec:
    """The facts one compiled kernel is specialized to.

    Every field is read by some backend's ``compile`` and participates in
    :meth:`fingerprint`, which keys the process-global artifact cache.

    Parameters
    ----------
    kernel:
        ``"spmm"`` / ``"spmv"`` / ``"sddmm"``.
    dtype:
        Operand dtype token (``"float64"``, ``"float32"``) or ``"any"``
        when the generated code is dtype-generic.  SDDMM kernels are
        dtype-specific: the dot-product accumulator must stay in the
        operands' common dtype for bitwise identity with ``einsum``.
    chunk_k:
        K-chunk width baked into the SpMM inner loop.
    """

    kernel: str = "spmm"
    dtype: str = "any"
    chunk_k: int = DEFAULT_CHUNK_K

    def fingerprint(self) -> str:
        """Stable hex digest over every field (sorted ``name=repr``)."""
        fields = dataclasses.asdict(self)
        parts = [f"{k}={fields[k]!r}".encode("utf-8") for k in sorted(fields)]
        return stable_digest(*parts)


@dataclass(frozen=True)
class CompiledKernel:
    """One backend-compiled kernel.

    ``fn`` follows the calling convention for ``spec.kernel`` documented
    in the module docstring.
    """

    backend: str
    spec: SpecializationSpec
    fn: object


class KernelBackend:
    """Base class for compiled kernel backends.

    Subclasses set :attr:`name`, implement :meth:`compile` and (for
    optional dependencies) override :meth:`available` /
    :meth:`unavailable_reason`.  The one-shot kernel methods here are
    shared: they validate operands exactly like the reference kernels,
    fetch the matching compiled artifact through the process-global
    cache (:func:`repro.kernels.backends.compiled_artifact`) and invoke
    it, so every backend automatically supports the strict ``out=``
    contract.
    """

    #: Registry name; subclasses must override.
    name = "abstract"

    # -- availability ---------------------------------------------------
    @classmethod
    def available(cls) -> bool:
        """Whether this backend can compile in the current environment."""
        return True

    @classmethod
    def unavailable_reason(cls) -> str:
        """Human-readable reason when :meth:`available` is false."""
        return ""

    # -- compilation ----------------------------------------------------
    def compile(self, spec: SpecializationSpec) -> CompiledKernel:
        """Build the :class:`CompiledKernel` for ``spec``.

        Raises :class:`repro.errors.BackendUnavailable` when the backend
        cannot compile here (missing dependency, injected fault).  Called
        through :func:`repro.kernels.backends.compiled_artifact`, which
        adds caching, the ``backend.compile`` tracing span, the fault
        point and the ``kernels.backend_compile`` counter — never call it
        directly from kernel paths.
        """
        raise NotImplementedError

    def artifact(self, spec: SpecializationSpec) -> CompiledKernel:
        """The cached compiled artifact for ``spec`` (compiling on miss)."""
        from repro.kernels.backends.registry import compiled_artifact

        return compiled_artifact(self, spec)

    # -- one-shot kernel surface ----------------------------------------
    def spmm(
        self,
        csr: CSRMatrix,
        X: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``csr @ X`` through this backend's compiled SpMM.

        The body of :func:`repro.kernels.spmm`: a transient
        :class:`~repro.kernels.state.CsrState` plus the cached artifact.
        Matches :func:`repro.kernels.spmm_gather_reference` bitwise
        (``numpy``) or within 1 ULP (``numba``).
        """
        X = check_dense("X", X, rows=csr.n_cols, dtype=None)
        K = X.shape[1]
        if out is None:
            out = np.empty((csr.n_rows, K), dtype=np.float64)  # reprolint: disable=RD501 -- out= buffers are float64 by contract (check_out rejects anything else), so both branches agree
        else:
            out = check_out("out", out, rows=csr.n_rows, cols=K)
        spec = SpecializationSpec(kernel="spmm", dtype=_dtype_token(X.dtype))
        self.artifact(spec).fn([CsrState(csr)], X, [out])
        return out

    def spmv(self, csr: CSRMatrix, x: np.ndarray) -> np.ndarray:
        """``csr @ x`` through this backend (matches :func:`repro.kernels.spmv`)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size != csr.n_cols:
            raise ValueError(
                f"x must be 1-D of length {csr.n_cols}, got shape {x.shape}"
            )
        if csr.nnz == 0:
            return np.zeros(csr.n_rows, dtype=np.float64)
        spec = SpecializationSpec(kernel="spmv", dtype="float64")
        return self.artifact(spec).fn(csr, x)

    def sddmm(self, csr: CSRMatrix, X: np.ndarray, Y: np.ndarray) -> CSRMatrix:
        """Sampled dense–dense multiply (matches :func:`repro.kernels.sddmm`)."""
        X = check_dense("X", X, rows=csr.n_cols, dtype=None)
        Y = check_dense("Y", Y, rows=csr.n_rows, cols=X.shape[1], dtype=None)
        if csr.nnz == 0:
            return csr.copy()
        # The dot-product accumulator must live in the operands' common
        # dtype (einsum semantics), so the artifact is dtype-specific.
        common = _dtype_token(np.result_type(X.dtype, Y.dtype))
        spec = SpecializationSpec(kernel="sddmm", dtype=common)
        return csr.with_values(self.artifact(spec).fn(csr, X, Y))
