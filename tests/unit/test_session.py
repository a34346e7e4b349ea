"""Unit tests for repro.kernels.KernelSession (steady-state SpMM)."""

import sys
import threading

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.datasets import hidden_clusters
from repro.errors import ShapeError
from repro.kernels import (
    DEFAULT_CHUNK_K,
    KernelSession,
    spmm_gather_reference,
    spmm_tiled,
)
from repro.kernels import state as kernel_state
from repro.reorder import ReorderConfig, build_plan

from conftest import (
    one_phase_csr,
    random_csr,
    spmm_plan_reference,
    spmm_tiled_reference,
)


@pytest.fixture(scope="module")
def matrix():
    return hidden_clusters(40, 4, 256, 10, noise=0.1, seed=3)


@pytest.fixture(scope="module")
def X(matrix):
    return np.random.default_rng(11).normal(size=(matrix.n_cols, 24))


class TestCsrSession:
    def test_bitwise_matches_oneshot(self, matrix, X):
        session = KernelSession(matrix)
        np.testing.assert_array_equal(session.run(X), spmm_gather_reference(matrix, X))

    def test_bitwise_on_random_matrices(self, rng):
        for _ in range(3):
            csr = random_csr(rng, 30, 17, density=0.2)
            X = rng.normal(size=(17, 9))
            np.testing.assert_array_equal(
                KernelSession(csr).run(X), spmm_gather_reference(csr, X)
            )

    def test_float32_operand(self, matrix):
        X32 = np.random.default_rng(5).normal(size=(matrix.n_cols, 8))
        X32 = X32.astype(np.float32)
        got = KernelSession(matrix).run(X32)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, spmm_gather_reference(matrix, X32))

    def test_chunk_smaller_than_k(self, matrix, X):
        session = KernelSession(matrix, chunk_k=5)  # forces several chunks
        np.testing.assert_array_equal(session.run(X), spmm_gather_reference(matrix, X))

    def test_empty_rows_zeroed(self, rng):
        csr = random_csr(rng, 20, 10, density=0.05)  # sparse enough for gaps
        X = rng.normal(size=(10, 4))
        np.testing.assert_array_equal(
            KernelSession(csr).run(X), spmm_gather_reference(csr, X)
        )

    def test_out_parameter_is_used_and_returned(self, matrix, X):
        session = KernelSession(matrix)
        out = np.empty((matrix.n_rows, X.shape[1]))
        got = session.run(X, out=out)
        assert got is out
        np.testing.assert_array_equal(out, spmm_gather_reference(matrix, X))

    def test_default_output_is_reused_per_thread(self, matrix, X):
        session = KernelSession(matrix)
        first = session.run(X)
        second = session.run(X)
        assert first is second  # pinned thread-local buffer

    def test_run_many_returns_owned_arrays(self, matrix, X):
        session = KernelSession(matrix)
        results = session.run_many([X, X * 2.0])
        assert results[0] is not results[1]
        np.testing.assert_array_equal(results[0], spmm_gather_reference(matrix, X))
        np.testing.assert_array_equal(
            results[1], spmm_gather_reference(matrix, X * 2.0)
        )

    def test_run_many_rejects_1d_operand_like_run(self, matrix):
        session = KernelSession(matrix)
        x = np.ones(matrix.n_cols)
        with pytest.raises(ShapeError, match="2-D"):
            session.run(x)
        with pytest.raises(ShapeError, match="2-D"):
            session.run_many([x])

    def test_dimensions(self, matrix):
        session = KernelSession(matrix)
        assert session.n_rows == matrix.n_rows
        assert session.n_cols == matrix.n_cols

    def test_shape_mismatch_rejected(self, matrix):
        session = KernelSession(matrix)
        bad = np.zeros((matrix.n_cols + 1, 4))
        with pytest.raises(Exception):
            session.run(bad)


class TestTiledSession:
    def test_bitwise_matches_spmm_tiled(self, matrix, X):
        tiled = tile_matrix(matrix, 8, 2)
        session = KernelSession(tiled)
        np.testing.assert_array_equal(session.run(X), spmm_tiled_reference(tiled, X))

    def test_all_sparse_panels(self, rng):
        csr = random_csr(rng, 24, 12, density=0.05)  # nothing promotes to dense
        tiled = tile_matrix(csr, 8, 4)
        X = rng.normal(size=(12, 6))
        np.testing.assert_array_equal(
            KernelSession(tiled).run(X), spmm_tiled_reference(tiled, X)
        )


class TestPlanSession:
    def test_bitwise_matches_plan_spmm(self, matrix, X):
        plan = build_plan(matrix, ReorderConfig())
        session = KernelSession(plan)
        np.testing.assert_array_equal(session.run(X), spmm_plan_reference(plan, X))

    def test_plan_session_accessor(self, matrix, X):
        plan = build_plan(matrix, ReorderConfig())
        session = plan.session()
        assert isinstance(session, KernelSession)
        np.testing.assert_array_equal(session.run(X), spmm_plan_reference(plan, X))

    def test_numpy_run_stages_the_operand_once(self, matrix, X, monkeypatch):
        plan = build_plan(matrix, ReorderConfig(panel_height=8))
        assert plan.tiled.nnz_dense and plan.remainder.nnz
        staged = []
        stage = kernel_state.stage

        def spy(operand):
            staged.append(operand.shape)
            return stage(operand)

        monkeypatch.setattr(kernel_state, "stage", spy)
        for target in (plan, plan.tiled):
            staged.clear()
            KernelSession(target).run(X)
            assert staged == [X.shape]


class TestComposedOracles:
    """Every executor path equals the composed gather oracle, bitwise."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("seed", range(6))
    def test_session_and_one_shots_match_bitwise(self, seed, dtype):
        m = hidden_clusters(12, 4, 96, 8, noise=0.15, seed=seed)
        X = np.random.default_rng(seed).normal(size=(m.n_cols, 10)).astype(dtype)
        self._assert_composed(m, X)

    # One-phase targets (only the dense part or only the remainder pinned)
    # at the widths around the K-chunk edges.
    @pytest.mark.parametrize(
        "k", [0, 1, DEFAULT_CHUNK_K - 1, DEFAULT_CHUNK_K + 1]
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("layout", ["no_tiles", "all_dense"])
    def test_one_phase_targets_match_bitwise(self, layout, dtype, k):
        rng = np.random.default_rng(k)
        m = one_phase_csr(rng, layout)
        X = rng.normal(size=(m.n_cols, k)).astype(dtype)
        plan = self._assert_composed(m, X)
        if layout == "no_tiles":
            assert plan.tiled.nnz_dense == 0
        else:
            assert plan.remainder.nnz == 0

    @staticmethod
    def _assert_composed(m, X):
        plan = build_plan(m, ReorderConfig(panel_height=8))
        want_plan = spmm_plan_reference(plan, X)
        np.testing.assert_array_equal(KernelSession(plan).run(X), want_plan)
        np.testing.assert_array_equal(plan.spmm(X), want_plan)
        tiled = plan.tiled
        want_tiled = spmm_tiled_reference(tiled, X)
        np.testing.assert_array_equal(KernelSession(tiled).run(X), want_tiled)
        np.testing.assert_array_equal(spmm_tiled(tiled, X), want_tiled)
        np.testing.assert_array_equal(
            KernelSession(m).run(X), spmm_gather_reference(m, X)
        )
        return plan


def _concurrency_target(kind, matrix):
    """A session target plus the one-shot oracle it must match bitwise."""
    if kind == "csr":
        return matrix, lambda X: spmm_gather_reference(matrix, X)
    if kind == "tiled":
        tiled = tile_matrix(matrix, 8, 2)
        return tiled, lambda X: spmm_tiled_reference(tiled, X)
    plan = build_plan(matrix, ReorderConfig())
    return plan, lambda X: spmm_plan_reference(plan, X)


class TestConcurrency:
    # The serve layer runs each pooled session from several executor
    # threads; the thread-local output buffer is the only state they share.
    @pytest.mark.parametrize("kind", ["csr", "tiled", "plan"])
    def test_concurrent_runs_are_bitwise_correct(self, matrix, kind):
        target, oracle = _concurrency_target(kind, matrix)
        session = KernelSession(target)
        rng = np.random.default_rng(17)
        operands = [rng.normal(size=(matrix.n_cols, 16)) for _ in range(6)]
        expected = [oracle(X) for X in operands]
        results = [None] * len(operands)
        errors = []

        def worker(idx):
            try:
                for _ in range(5):
                    results[idx] = session.run(operands[idx]).copy()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(len(operands))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleaving inside run()
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for got, want in zip(results, expected):
            np.testing.assert_array_equal(got, want)


class TestValidation:
    def test_bad_target_type(self):
        with pytest.raises(TypeError):
            KernelSession(np.zeros((3, 3)))

    def test_bad_chunk_k(self, matrix):
        with pytest.raises(ValueError):
            KernelSession(matrix, chunk_k=0)
