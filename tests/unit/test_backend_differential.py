"""Cross-backend differential test matrix.

Every (kernel x backend x dtype x degenerate shape) cell is held to a
reference: SpMM to the gather oracle :func:`spmm_gather_reference`,
tiled and plan SpMM to that oracle composed over their parts
(``conftest.spmm_tiled_reference`` / ``spmm_plan_reference``), SpMV /
SDDMM to the numpy-backend kernels.  Bitwise equal
for ``numpy`` (and the test-only ``fake`` backend from ``conftest.py``,
which runs the numpy artifacts), within 1 ULP for ``numba`` (whose only licensed deviation from the
reference accumulation is FMA contraction — ``fastmath`` is off, so no
reassociation).  The matrix is the lockdown for the backend subsystem:
any backend that cannot hold its tolerance on any cell fails here, not
in a downstream experiment.
"""

import numpy as np
import pytest

from conftest import (
    one_phase_csr,
    random_csr,
    spmm_plan_reference,
    spmm_tiled_reference,
)
from repro.aspt import tile_matrix
from repro.kernels import (
    KernelSession,
    sddmm,
    spmm,
    spmm_gather_reference,
    spmm_tiled,
    spmv,
)
from repro.reorder import ReorderConfig, build_plan
from repro.sparse import COOMatrix, CSRMatrix

#: (n_rows, n_cols) corners: empty matrix, single cell, single row,
#: single column, zero-dim edges.
DEGENERATE_SHAPES = [(0, 5), (5, 0), (0, 0), (1, 1), (1, 8), (8, 1)]

#: Operand dtypes the backends must be polymorphic over.
DTYPES = [np.float32, np.float64]


def _shaped_csr(rng, m, n, density=0.5):
    """A random CSR at a possibly degenerate shape (nnz may be 0)."""
    if m == 0 or n == 0:
        return CSRMatrix.empty((m, n))
    nnz = max(1, int(m * n * density))
    rows = rng.integers(0, m, size=nnz)
    cols = rng.integers(0, n, size=nnz)
    vals = rng.normal(size=nnz)
    return COOMatrix.from_arrays((m, n), rows, cols, vals).to_csr()


def _assert_matches(backend_name, got, reference):
    """The per-backend tolerance contract (see module docstring)."""
    if backend_name == "numba":
        np.testing.assert_array_max_ulp(got, reference, maxulp=1)
    else:
        np.testing.assert_array_equal(got, reference)


class TestSpmmMatrix:
    @pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_degenerate_shapes(self, rng, backend_name, shape, dtype):
        m, n = shape
        csr = _shaped_csr(rng, m, n)
        X = rng.normal(size=(n, 4)).astype(dtype)
        reference = spmm_gather_reference(csr, X)
        _assert_matches(backend_name, spmm(csr, X, backend=backend_name), reference)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_degenerate_operand_widths(self, rng, backend_name, k):
        csr = random_csr(rng, 12, 10, density=0.3)
        X = rng.normal(size=(10, k))
        reference = spmm_gather_reference(csr, X)
        _assert_matches(backend_name, spmm(csr, X, backend=backend_name), reference)

    def test_all_dense_panel(self, rng, backend_name):
        # Every row full: no empty row for the kernel to zero.
        dense = rng.normal(size=(8, 6))
        csr = CSRMatrix.from_dense(dense)
        X = rng.normal(size=(6, 5))
        reference = spmm_gather_reference(csr, X)
        _assert_matches(backend_name, spmm(csr, X, backend=backend_name), reference)

    def test_empty_rows_are_zeroed(self, rng, backend_name):
        # Rows with no non-zeros must come back exactly 0.0, even when
        # the caller's out buffer arrives full of garbage.
        dense = np.zeros((6, 5))
        dense[1] = rng.normal(size=5)
        dense[4] = rng.normal(size=5)
        csr = CSRMatrix.from_dense(dense)
        X = rng.normal(size=(5, 3))
        out = np.full((6, 3), np.nan, dtype=np.float64)
        got = spmm(csr, X, out=out, backend=backend_name)
        _assert_matches(backend_name, got, spmm_gather_reference(csr, X))
        assert np.all(got[[0, 2, 3, 5]] == 0.0)


class TestSpmvMatrix:
    @pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
    def test_degenerate_shapes(self, rng, backend_name, shape):
        m, n = shape
        csr = _shaped_csr(rng, m, n)
        x = rng.normal(size=n)
        reference = spmv(csr, x)
        _assert_matches(backend_name, spmv(csr, x, backend=backend_name), reference)

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_dtypes(self, rng, backend_name, dtype):
        csr = random_csr(rng, 15, 12, density=0.25)
        x = rng.normal(size=12).astype(dtype)
        reference = spmv(csr, x)
        _assert_matches(backend_name, spmv(csr, x, backend=backend_name), reference)


class TestSddmmMatrix:
    @pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_degenerate_shapes(self, rng, backend_name, shape, dtype):
        m, n = shape
        csr = _shaped_csr(rng, m, n)
        X = rng.normal(size=(n, 4)).astype(dtype)
        Y = rng.normal(size=(m, 4)).astype(dtype)
        reference = sddmm(csr, X, Y)
        got = sddmm(csr, X, Y, backend=backend_name)
        assert got.values.dtype == reference.values.dtype
        _assert_matches(backend_name, got.values, reference.values)


def _tiled_inputs(rng):
    """A random matrix plus the two one-phase corners, so the backend runs
    both ASpT phases together, the dense-tile part alone and the sparse
    remainder alone."""
    return [
        random_csr(rng, 32, 24, density=0.2),
        one_phase_csr(rng, "no_tiles"),
        one_phase_csr(rng, "all_dense"),
    ]


class TestTiledMatrix:
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_tiled_spmm_matches_reference(self, rng, backend_name, dtype):
        for csr in _tiled_inputs(rng):
            tiled = tile_matrix(csr, 8, 2)
            X = rng.normal(size=(csr.n_cols, 6)).astype(dtype)
            reference = spmm_tiled_reference(tiled, X)
            got = spmm_tiled(tiled, X, backend=backend_name)
            _assert_matches(backend_name, got, reference)

    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_plan_spmm_runs_the_plan_backend(self, rng, backend_name, dtype):
        for csr in _tiled_inputs(rng):
            plan = build_plan(
                csr, ReorderConfig(siglen=16, panel_height=8, backend=backend_name)
            )
            assert plan.session().backend == backend_name
            X = rng.normal(size=(csr.n_cols, 6)).astype(dtype)
            _assert_matches(
                backend_name, plan.spmm(X), spmm_plan_reference(plan, X)
            )


class TestSessionMatrix:
    @pytest.mark.parametrize("shape", DEGENERATE_SHAPES)
    def test_session_degenerate_shapes(self, rng, backend_name, shape):
        m, n = shape
        csr = _shaped_csr(rng, m, n)
        X = rng.normal(size=(n, 4))
        reference = spmm_gather_reference(csr, X)
        session = KernelSession(csr, backend=backend_name)
        _assert_matches(backend_name, session.run(X), reference)

    def test_repeated_session_runs_are_bitwise_stable_per_backend(
        self, rng, backend_name
    ):
        # Within one backend, a session's repeated runs and the one-shot
        # kernel agree bitwise: pinning state never changes the numbers.
        csr = random_csr(rng, 30, 25, density=0.2)
        X = rng.normal(size=(25, 16))
        session = KernelSession(csr, backend=backend_name)
        first = session.run(X).copy()
        np.testing.assert_array_equal(first, session.run(X))
        np.testing.assert_array_equal(first, spmm(csr, X, backend=backend_name))
