#!/usr/bin/env python
"""Streaming row arrival with the online reorderer (extension).

A recommender ingests users in arrival order; users with similar taste
(similar rating columns) arrive interleaved, so the stored matrix has no
row locality.  Instead of re-running the full LSH + clustering pipeline
after every batch, :class:`repro.reorder.OnlineReorderer` places each new
row into the best matching cluster as it arrives (``O(siglen * nnz_row)``
per row) and can emit a grouped row order at any point.

The script streams a taste-clustered rating matrix row by row, then
compares three orderings on the modelled GPU: arrival order, the online
order, and the full batch pipeline.

Run:  python examples/streaming_updates.py
"""

import numpy as np

from repro.aspt import tile_matrix
from repro.datasets import bipartite_ratings
from repro.experiments.config import ExperimentConfig
from repro.gpu import GPUExecutor
from repro.observability import span, tracing
from repro.reorder import OnlineReorderer, ReorderConfig, build_plan
from repro.sparse import permute_csr_rows


def main() -> None:
    ratings = bipartite_ratings(
        n_users=2048, n_items=2048, mean_ratings=20,
        n_taste_groups=64, concentration=0.95, seed=7,
    )
    print(f"stream: {ratings.n_rows} users x {ratings.n_cols} items, "
          f"{ratings.nnz} ratings")

    # ---- ingest the stream ------------------------------------------------
    online = OnlineReorderer(ratings.n_cols, siglen=128, bsize=2, seed=0)
    with tracing(), span("online_ingest") as ingest:
        for i in range(ratings.n_rows):
            online.insert_row(ratings.row_cols(i))
    print(f"online ingest: {ingest.duration:.2f}s total "
          f"({ingest.duration / ratings.n_rows * 1e3:.2f} ms/row), "
          f"{online.n_clusters} clusters")

    # ---- batch pipeline for reference --------------------------------------
    with tracing(), span("batch_pipeline") as batch:
        plan = build_plan(
            ratings, ReorderConfig(panel_height=16, force_round1=True)
        )
    print(f"batch pipeline: {batch.duration:.2f}s "
          f"(one-shot; must re-run after every batch of arrivals)")

    # ---- modelled SpMM cost of the three orderings -------------------------
    cfg = ExperimentConfig(scale="small")
    device, cost = cfg.effective_model()
    executor = GPUExecutor(device, cost)

    arrival = executor.spmm_cost(tile_matrix(ratings, 16), 512, "aspt").time_s
    online_t = executor.spmm_cost(
        tile_matrix(permute_csr_rows(ratings, online.order()), 16), 512, "aspt"
    ).time_s
    batch_t = executor.spmm_cost(plan.cost_view(), 512, "aspt").time_s

    print(f"modelled SpMM (K=512):")
    print(f"  arrival order : {arrival * 1e6:8.1f} us")
    print(f"  online order  : {online_t * 1e6:8.1f} us  ({arrival / online_t:.2f}x)")
    print(f"  batch order   : {batch_t * 1e6:8.1f} us  ({arrival / batch_t:.2f}x)")


if __name__ == "__main__":
    main()
