"""Every input of the benchmark, generated from the ``--seed`` alone.

The program under test only ever sees matrices built by
``repro.datasets`` generators, dense operands drawn from a seeded NumPy
generator, and delta batches cut out of ``repro.datasets.edge_stream``.
The same seed gives byte-identical inputs; a different seed changes them
(``perfbench/tests/test_perfbench.py`` checks both).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.datasets import (
    banded,
    bipartite_ratings,
    build_corpus,
    edge_stream,
    hidden_clusters,
    rmat,
)
from repro.streaming import DeltaBatch

#: Rows and columns of every served matrix.
N = 2048
#: The two operand widths of served requests: a small request and a
#: large-payload one.
K_SMALL, K_LARGE = 16, 128
#: Distinct operands pre-generated per (matrix, K); requests draw from them.
OPERANDS_PER_SHAPE = 3
#: ``edge_stream`` batches per churn matrix, and how many of them are
#: folded into the uploaded matrix (the rest arrive as structural adds).
CHURN_BATCHES = 512
CHURN_PRELOADED = 384


def _rng(seed: int, tag: str) -> np.random.Generator:
    """An independent generator per (seed, purpose) pair."""
    return np.random.default_rng([int(seed), zlib.crc32(tag.encode())])


def _subseed(seed: int, tag: str) -> int:
    return int(_rng(seed, tag).integers(2**31))


def served_matrices(seed: int) -> dict:
    """The four structurally different matrices ``serve-warm`` uploads."""
    return {
        # 1024 two-row clusters in random order: the round-1 gate opens
        # (dense ratio ~0.07 at panel height 32) and reordering builds
        # dense tiles.
        "hidden_clusters": hidden_clusters(
            1024, 2, N, 4, noise=0.0, seed=_subseed(seed, "hidden")
        ),
        # Rating matrix: round 1 is gated off, round 2 reorders the remainder.
        "bipartite_ratings": bipartite_ratings(
            N, N, 20, seed=_subseed(seed, "ratings")
        ),
        # Power-law graph: skewed row lengths.
        "rmat": rmat(11, 8, seed=_subseed(seed, "rmat")),
        # Narrow band: already dense in every panel, round 1 is skipped.
        "banded": banded(N, 3, seed=_subseed(seed, "banded")),
    }


def operand_pool(seed: int, name: str, n_cols: int, k: int) -> list:
    """``OPERANDS_PER_SHAPE`` dense ``n_cols x k`` operands for one matrix."""
    rng = _rng(seed, f"operands/{name}/{k}")
    return [rng.standard_normal((n_cols, k)) for _ in range(OPERANDS_PER_SHAPE)]


def warm_requests(seed: int, conn: int, names):
    """Endless ``(matrix name, K, operand index)`` stream of one connection.

    Every block of four requests holds exactly one ``K_LARGE`` request at
    a seeded position, so the K mix is 3:1 at every prefix length.
    """
    names = list(names)
    rng = _rng(seed, f"requests/{conn}")
    while True:
        large = int(rng.integers(4))
        for slot in range(4):
            k = K_LARGE if slot == large else K_SMALL
            yield (
                names[int(rng.integers(len(names)))],
                k,
                int(rng.integers(OPERANDS_PER_SHAPE)),
            )


@dataclass(frozen=True)
class ChurnStream:
    """One ``serve-churn`` connection's matrix and the deltas it streams."""

    name: str
    initial: object  #: the uploaded CSRMatrix
    preloaded: tuple  #: DeltaBatches already folded into ``initial``
    adds: tuple  #: DeltaBatches still to arrive as structural adds
    seed: int

    def deltas(self):
        """Endless delta stream: value-only ``set`` and structural ``add``
        alternate; once the adds are used up only ``set`` deltas follow.

        A ``set`` delta rewrites the values of one preloaded batch, so
        every entry it targets exists and appears once.
        """
        rng = _rng(self.seed, f"deltas/{self.name}")
        i = 0
        while True:
            if i % 2 == 1 and i // 2 < len(self.adds):
                yield self.adds[i // 2]
            else:
                batch = self.preloaded[int(rng.integers(len(self.preloaded)))]
                yield DeltaBatch(
                    rows=batch.rows,
                    cols=batch.cols,
                    values=rng.uniform(0.5, 1.5, size=batch.n_entries),
                    mode="set",
                )
            i += 1


def delta_stream(seed: int, name: str, csr) -> ChurnStream:
    """Cut ``csr`` into ``CHURN_BATCHES`` with ``edge_stream``: the first
    ``CHURN_PRELOADED`` form the initial matrix, the rest arrive as adds."""
    stream = edge_stream(csr, CHURN_BATCHES, name=name,
                         seed=_subseed(seed, f"split/{name}"), grow_rows=False)
    preloaded = stream.deltas[:CHURN_PRELOADED]
    # edge_stream emits every entry exactly once, so one batch holding all
    # preloaded entries folds them without re-accumulation.
    initial = DeltaBatch(
        rows=np.concatenate([d.rows for d in preloaded]),
        cols=np.concatenate([d.cols for d in preloaded]),
        values=np.concatenate([d.values for d in preloaded]),
    ).apply_to(stream.base)
    return ChurnStream(name=name, initial=initial, preloaded=tuple(preloaded),
                       adds=tuple(stream.deltas[CHURN_PRELOADED:]), seed=int(seed))


def churn_streams(seed: int) -> list:
    """The two ``serve-churn`` matrices, one per connection."""
    return [
        delta_stream(seed, "bipartite_ratings", bipartite_ratings(
            N, N, 20, seed=_subseed(seed, "churn/ratings"))),
        delta_stream(seed, "hidden_clusters", hidden_clusters(
            1024, 2, N, 4, noise=0.0, seed=_subseed(seed, "churn/hidden"))),
    ]


def sweep_corpus(seed: int) -> list:
    """The ``small`` corpus, one replica per specification (33 matrices)."""
    return build_corpus("small", seed=_subseed(seed, "corpus"), repeats=1)
