"""Backend abstraction: specialization specs, compiled artifacts, base class.

A *backend* turns a :class:`SpecializationSpec` — the structural facts
about one matrix that are worth baking into code (K-chunk width, whether
any row is empty, panel height, dense-ratio bucket) — into a
:class:`CompiledKernel` whose ``fn`` executes one kernel.  The contract
every backend is held to (by the cross-backend differential test matrix,
``tests/unit/test_backend_differential.py``) is the paper's "same bits,
faster" claim:

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
``spmm``    ``fn(state, X, out)`` — *fully overwrites* ``out`` with
            ``state.csr @ X`` (including zeroing empty rows);
            ``state`` is a :class:`repro.kernels.state.CsrState`.
``spmv``    ``fn(csr, x) -> y`` — returns a fresh ``(n_rows,)`` float64.
``sddmm``   ``fn(csr, X, Y) -> values`` — returns the new ``(nnz,)``
            values array (``(Y[i] . X[c]) * csr.value`` per entry).
=========  ==================================================================

Compiled kernels allocate their own scratch.
:func:`repro.kernels.spmm_tiled` is a *hybrid* on every backend: the
dense-tile phase is the shared panel-gather implementation and only the
sparse remainder goes through :func:`repro.kernels.spmm` and so through
the backend's compiled SpMM.
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
    "specialize",
]


def _dtype_token(dtype) -> str:
    """Canonical dtype name for specialization keys (``float64``, ...)."""
    return np.dtype(dtype).name


@dataclass(frozen=True)
class SpecializationSpec:
    """The structural facts one compiled kernel is specialized to.

    Every field participates in :meth:`fingerprint`, which keys the
    process-global artifact cache and — via the descriptor stored next to
    the plan in the plan store — the content-addressed plan key, so a
    warm session never recompiles an artifact it already holds.

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
    nonempty_rows:
        When true, the matrix has no empty rows and the generated SpMM
        elides the empty-row zeroing epilogue.
    k_hint:
        Expected operand width (``0`` = unknown).  Advisory — kernels
        must stay correct for any K — but part of the cache key so a
        plan built for a known serving width gets its own artifact.
    panel_height:
        ASpT panel height for tiled targets (``0`` for plain CSR).
    dense_bucket:
        Dense-phase nnz share in tenths (``0``–``10``) for tiled
        targets, ``-1`` for plain CSR.  Bucketed so near-identical
        splits share one artifact.
    """

    kernel: str = "spmm"
    dtype: str = "any"
    chunk_k: int = DEFAULT_CHUNK_K
    nonempty_rows: bool = False
    k_hint: int = 0
    panel_height: int = 0
    dense_bucket: int = -1

    def fingerprint(self) -> str:
        """Stable hex digest over every field (sorted ``name=repr``)."""
        fields = dataclasses.asdict(self)
        parts = [f"{k}={fields[k]!r}".encode("utf-8") for k in sorted(fields)]
        return stable_digest(*parts)

    def to_descriptor(self) -> tuple[str, ...]:
        """Serialise as ``("kernel=spmm", "dtype=any", ...)`` strings.

        The flat string form survives the plan store's ``.npz`` round
        trip and stays human-readable in ``repro doctor`` output.
        """
        fields = dataclasses.asdict(self)
        return tuple(f"{k}={fields[k]}" for k in sorted(fields))

    @classmethod
    def from_descriptor(cls, parts) -> "SpecializationSpec":
        """Parse :meth:`to_descriptor` output (unknown keys are ignored)."""
        known = {f.name: f.type for f in dataclasses.fields(cls)}
        kwargs: dict = {}
        for part in parts:
            key, sep, value = str(part).partition("=")
            if not sep or key not in known:
                continue
            if key in ("kernel", "dtype"):
                kwargs[key] = value
            elif key == "nonempty_rows":
                kwargs[key] = value == "True"
            else:
                kwargs[key] = int(value)
        return cls(**kwargs)


@dataclass(frozen=True)
class CompiledKernel:
    """One backend-compiled kernel plus its provenance.

    ``fn`` follows the calling convention for ``spec.kernel`` documented
    in the module docstring.  ``source`` is the generated source text for
    backends that generate code (``numba``) — kept for debuggability and
    asserted on in the test suite — and ``None`` for the ``numpy``
    reference.  ``compile_seconds`` is the measured wall
    clock of the ``backend.compile`` span that produced this artifact.
    """

    backend: str
    spec: SpecializationSpec
    fn: object
    source: str | None = None
    compile_seconds: float = 0.0

    def descriptor(self) -> tuple[str, ...]:
        """Flat string form: backend + spec fields + spec fingerprint."""
        return (
            f"backend={self.backend}",
            *self.spec.to_descriptor(),
            f"fingerprint={self.spec.fingerprint()}",
        )


def specialize(
    target,
    *,
    kernel: str = "spmm",
    dtype: str = "any",
    chunk_k: int = DEFAULT_CHUNK_K,
    k_hint: int = 0,
) -> SpecializationSpec:
    """Derive the :class:`SpecializationSpec` for a kernel on ``target``.

    ``target`` may be a :class:`~repro.sparse.CSRMatrix` or
    :class:`~repro.kernels.state.CsrState` (plain row-wise structure), an
    ASpT ``TiledMatrix`` (panel height and dense-ratio bucket enter the
    key) or an ``ExecutionPlan`` (specialized to its tiled form; the
    remainder is handled conservatively, so ``nonempty_rows`` stays
    false).  Detection is structural rather than by class to keep this
    module import-light.
    """
    if isinstance(target, CsrState):
        csr = target.csr
        nonempty = not target.any_empty and csr.nnz > 0
        return SpecializationSpec(
            kernel=kernel,
            dtype=dtype,
            chunk_k=int(chunk_k),
            nonempty_rows=nonempty,
            k_hint=int(k_hint),
        )
    if isinstance(target, CSRMatrix):
        nonempty = bool(target.nnz > 0 and (target.row_lengths() > 0).all())
        return SpecializationSpec(
            kernel=kernel,
            dtype=dtype,
            chunk_k=int(chunk_k),
            nonempty_rows=nonempty,
            k_hint=int(k_hint),
        )
    tiled = getattr(target, "tiled", target)
    spec_obj = getattr(tiled, "spec", None)
    original = getattr(tiled, "original", None)
    dense_part = getattr(tiled, "dense_part", None)
    if spec_obj is None or original is None or dense_part is None:
        raise TypeError(
            "specialize() target must be a CSRMatrix, CsrState, TiledMatrix "
            f"or ExecutionPlan, got {type(target).__name__}"
        )
    dense_bucket = int(10 * dense_part.nnz / original.nnz) if original.nnz else 0
    return SpecializationSpec(
        kernel=kernel,
        dtype=dtype,
        chunk_k=int(chunk_k),
        nonempty_rows=False,
        k_hint=int(k_hint),
        panel_height=int(spec_obj.panel_height),
        dense_bucket=dense_bucket,
    )


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
        state = CsrState(csr)
        spec = specialize(state, kernel="spmm", dtype=_dtype_token(X.dtype))
        self.artifact(spec).fn(state, X, out)
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
        spec = specialize(csr, kernel="spmv", dtype="float64")
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
        spec = specialize(csr, kernel="sddmm", dtype=common)
        return csr.with_values(self.artifact(spec).fn(csr, X, Y))
