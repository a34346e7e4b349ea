"""Micro-benchmarks of the library's own hot paths (wall-clock, not model).

Not a paper table — this is the engineering-quality check that the
vectorised Python implementations stay fast enough to drive the corpus
experiments: kernels, MinHash, LSH, clustering, tiling, the row
permutation primitive and both cache simulators.
"""

import numpy as np
import pytest

from repro.aspt import tile_matrix
from repro.clustering import cluster_rows
from repro.datasets import hidden_clusters, uniform_random
from repro.gpu.cache import approx_lru_hits, lru_hits
from repro.kernels import (
    KernelSession,
    sddmm,
    spmm,
    spmm_gather_reference,
    spmm_tiled,
)
from repro.reorder import ReorderConfig, build_plan
from repro.similarity import LSHIndex, minhash_signatures
from repro.sparse import permute_csr_rows


@pytest.fixture(scope="module")
def matrix():
    return hidden_clusters(200, 8, 4096, 20, noise=0.1, seed=0)


@pytest.fixture(scope="module")
def dense_ops(matrix):
    rng = np.random.default_rng(0)
    return (
        rng.normal(size=(matrix.n_cols, 128)),
        rng.normal(size=(matrix.n_rows, 128)),
    )


class TestKernelThroughput:
    def test_spmm(self, benchmark, matrix, dense_ops):
        X, _ = dense_ops
        Y = benchmark(spmm, matrix, X)
        assert Y.shape == (matrix.n_rows, 128)

    def test_sddmm(self, benchmark, matrix, dense_ops):
        X, Y = dense_ops
        out = benchmark(sddmm, matrix, X, Y)
        assert out.nnz == matrix.nnz

    def test_spmm_tiled(self, benchmark, matrix, dense_ops):
        X, _ = dense_ops
        tiled = tile_matrix(matrix, 16, 2)
        Y = benchmark(spmm_tiled, tiled, X)
        assert Y.shape == (matrix.n_rows, 128)

    def test_spmm_session_steady_state(self, benchmark, matrix, dense_ops):
        X, _ = dense_ops
        session = KernelSession(matrix)
        session.run(X)  # allocate the pinned output buffer before timing
        Y = benchmark(session.run, X)
        np.testing.assert_array_equal(Y, spmm_gather_reference(matrix, X))

    def test_spmm_tiled_session_steady_state(self, benchmark, matrix, dense_ops):
        X, _ = dense_ops
        session = KernelSession(tile_matrix(matrix, 16, 2))
        session.run(X)
        Y = benchmark(session.run, X)
        assert Y.shape == (matrix.n_rows, 128)


class TestPreprocessingThroughput:
    def test_minhash(self, benchmark, matrix):
        sig = benchmark(minhash_signatures, matrix, 128, 0)
        assert sig.shape == (matrix.n_rows, 128)

    def test_lsh_candidates(self, benchmark, matrix):
        index = LSHIndex(siglen=128, bsize=2, seed=0)
        pairs, sims = benchmark(index.candidate_pairs, matrix)
        assert pairs.shape[0] == sims.size

    def test_clustering(self, benchmark, matrix):
        pairs, sims = LSHIndex(siglen=128, bsize=2, seed=0).candidate_pairs(matrix)
        result = benchmark(cluster_rows, matrix, pairs, sims)
        assert sorted(result.order.tolist()) == list(range(matrix.n_rows))

    def test_tiling(self, benchmark, matrix):
        tiled = benchmark(tile_matrix, matrix, 16, 2)
        assert tiled.nnz_dense + tiled.nnz_sparse == matrix.nnz

    def test_row_permutation(self, benchmark, matrix):
        order = np.random.default_rng(0).permutation(matrix.n_rows).astype(np.int64)
        out = benchmark(permute_csr_rows, matrix, order)
        assert out.nnz == matrix.nnz

    def test_full_pipeline(self, benchmark, matrix):
        plan = benchmark.pedantic(
            build_plan,
            args=(matrix, ReorderConfig(panel_height=16)),
            rounds=1,
            iterations=1,
        )
        assert plan.row_order.size == matrix.n_rows


class TestCacheSimulators:
    def test_approx_lru(self, benchmark):
        stream = uniform_random(4000, 4000, 10, seed=0).colidx
        stats = benchmark(approx_lru_hits, stream, 256)
        assert stats.accesses == stream.size

    def test_exact_lru(self, benchmark):
        stream = uniform_random(1000, 1000, 10, seed=0).colidx
        stats = benchmark.pedantic(
            lru_hits, args=(stream, 256), rounds=1, iterations=1
        )
        assert stats.accesses == stream.size
