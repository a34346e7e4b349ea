"""Layer replays of the traced runs.

Each function pushes a workload's generated inputs through one layer's
public calls and times each call from outside; nothing inside ``src/``
is instrumented beyond the program's own ``Tracer`` spans, which the
plan-build stages are read from.  Every function returns
``{metric name: value}`` with times in mean milliseconds per call.
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from repro.gpu.executor import GPUExecutor
from repro.kernels import KernelSession
from repro.observability import METRICS, Tracer, tracing
from repro.reorder import build_plan
from repro.serve.client import ServeClient
from repro.serve.protocol import decode_message, dense_from_wire, encode_message
from repro.streaming import StreamingPlan

from common import counter_delta, span_self_seconds
from sweep import CONFIG as EXPERIMENT

#: Plan-build stages, as the program's own ``Tracer`` spans name them.
STAGES = {
    "similarity.minhash_ms": ("minhash",),
    "similarity.lsh_ms": ("lsh1", "lsh2", "lsh", "score_pairs"),
    "clustering.cluster_ms": ("cluster1", "cluster2"),
    "aspt.tile_ms": ("tile",),
}
#: Deltas replayed per matrix through the streaming layers, on the
#: workloads that stream none themselves.
REPLAY_DELTAS = 2
CLUSTERING_COUNTERS = ("clustering.pairs_scored", "clustering.heap_requeues")
GPU_COUNTERS = ("gpu.global_txns", "gpu.l2_hits")


def _mean_ms(seconds) -> float:
    return 1e3 * float(np.mean(seconds))


def build_metrics(build_seconds: float, n: int, tracer) -> dict:
    """``reorder.build_plan_ms`` and the stage self times, per planned matrix."""
    metrics = {"reorder.build_plan_ms": 1e3 * build_seconds / n}
    for name, spans in STAGES.items():
        metrics[name] = 1e3 * span_self_seconds(tracer, spans) / n
    return metrics


def plan_builds(matrices, config):
    """``build_plan`` every matrix under a tracer: ``(plans, metrics)``."""
    plans = []
    total = 0.0
    before = METRICS.snapshot()
    with tracing(Tracer()) as tracer:
        for csr in matrices:
            t0 = time.perf_counter()
            plans.append(build_plan(csr, config))
            total += time.perf_counter() - t0
    after = METRICS.snapshot()
    metrics = build_metrics(total, len(plans), tracer)
    metrics.update({name: counter_delta(before, after, name)
                    for name in CLUSTERING_COUNTERS})
    return plans, metrics


def _request(x, session, csr_session, backend: str) -> dict:
    """One spmm request's protocol and kernel layers, in seconds."""
    clock = time.perf_counter
    t0 = clock()
    line = encode_message({"op": "spmm", "fingerprint": "0" * 64,
                           "tenant": "conn0", "x": x.tolist()})
    t1 = clock()
    message = decode_message(line)
    t2 = clock()
    operand = dense_from_wire(message["x"], rows=x.shape[0])
    t3 = clock()
    result = session.run(operand)
    t4 = clock()
    response = encode_message({"status": "ok", "result": result.tolist(),
                               "rung": "full", "degraded": False, "provenance": [],
                               "backend": backend, "coalesced": False})
    t5 = clock()
    ServeClient.result_array(decode_message(response))
    t6 = clock()
    csr_session.run(operand)
    t7 = clock()
    return {
        "serve.protocol.encode_request_ms": t1 - t0,
        "serve.protocol.decode_request_ms": t2 - t1,
        "serve.protocol.dense_from_wire_ms": t3 - t2,
        "kernels.session_run_ms": t4 - t3,
        "serve.protocol.encode_response_ms": t5 - t4,
        "serve.protocol.decode_response_ms": t6 - t5,
        "kernels.csr_session_run_ms": t7 - t6,
    }


def request_metrics(cases, *, chunk_k: int, backend: str) -> dict:
    """Replay ``(x, plan, csr)`` requests: the client's encode, the server's
    decode and ``dense_from_wire``, the plan session (``ExecutionPlan.session``)
    and the flat CSR ``KernelSession`` on the same operand, the response
    encode (``tolist`` + ``encode_message``) and the client's decode."""
    sessions = {}
    rows = []
    for x, plan, csr in cases:
        if id(plan) not in sessions:
            sessions[id(plan)] = (plan.session(chunk_k=chunk_k),
                                  KernelSession(csr, chunk_k=chunk_k))
        rows.append(_request(x, *sessions[id(plan)], backend))
    return {key: _mean_ms([row[key] for row in rows]) for key in rows[0]}


def streaming_metrics(streams, per_stream: int, config) -> dict:
    """The first ``per_stream`` deltas of each stream through
    ``DeltaBatch.apply_to`` and through ``StreamingPlan.apply`` (the
    incremental plan patch), on a plan built for the stream's matrix."""
    apply_to, patch = [], []
    for stream in streams:
        local = stream.initial
        streaming = StreamingPlan(stream.initial, config)
        for delta in itertools.islice(stream.deltas(), per_stream):
            t0 = time.perf_counter()
            local = delta.apply_to(local)
            t1 = time.perf_counter()
            streaming.apply(delta)
            t2 = time.perf_counter()
            apply_to.append(t1 - t0)
            patch.append(t2 - t1)
    return {"streaming.delta_apply_to_ms": _mean_ms(apply_to),
            "streaming.apply_delta_ms": _mean_ms(patch)}


def cost_metrics(plans, k: int) -> dict:
    """Time the sweep's cost model (corpus-scaled P100) on each plan's ASpT
    SpMM and SDDMM at ``k``."""
    executor = GPUExecutor(*EXPERIMENT.effective_model(),
                           cache_mode=EXPERIMENT.cache_mode)
    spmm, sddmm = [], []
    before = METRICS.snapshot()
    for plan in plans:
        view = plan.cost_view()
        t0 = time.perf_counter()
        executor.spmm_cost(view, k, "aspt")
        t1 = time.perf_counter()
        executor.sddmm_cost(view, k, "aspt")
        t2 = time.perf_counter()
        spmm.append(t1 - t0)
        sddmm.append(t2 - t1)
    after = METRICS.snapshot()
    metrics = {"gpu.spmm_cost_ms": _mean_ms(spmm), "gpu.sddmm_cost_ms": _mean_ms(sddmm)}
    metrics.update({name: counter_delta(before, after, name) for name in GPU_COUNTERS})
    return metrics
