"""The three workloads: each returns its samples, metrics and report lines.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it runs the same load with every
other operation inside a tracer span (for ``tracing_overhead``), diffs the
server's ``metrics`` op counters around it, and replays the workload's
generated inputs through each layer's public calls (``layers.py``).
Every layer is replayed on every workload's inputs; the README maps which
end-to-end metric each one can move on which workload.
"""

from __future__ import annotations

import contextlib
import statistics

from repro.observability import Tracer
from repro.reorder import build_plan

import common
import inputs
import layers
import served
import sweep
from common import counter_delta, median, p50, ratio, span_seconds, tail
from server import SERVE_CONFIG

#: Server set-ups per ``--trace 0`` run of a serve workload.
SETUPS = 3
#: Every ``SWEEP_REPLAY_STRIDE``-th corpus entry is replayed through the
#: serve and streaming layers.
SWEEP_REPLAY_STRIDE = 8

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "serve.protocol.encode_request_ms": "ms",
    "serve.protocol.decode_request_ms": "ms",
    "serve.protocol.dense_from_wire_ms": "ms",
    "serve.protocol.encode_response_ms": "ms",
    "serve.protocol.decode_response_ms": "ms",
    "kernels.session_run_ms": "ms",
    "kernels.csr_session_run_ms": "ms",
    "serve.latency_coverage": "ratio",
    "serve.unattributed_share": "ratio",
    "serve.pool_hit_ratio": "ratio",
    "serve.pool_invalidate": "count",
    "serve.coalesced": "count",
    "serve.non_full_rung_share": "ratio",
    "planstore.hit_ratio": "ratio",
    "streaming.delta_apply_to_ms": "ms",
    "streaming.apply_delta_ms": "ms",
    "reorder.build_plan_ms": "ms",
    "similarity.minhash_ms": "ms",
    "similarity.lsh_ms": "ms",
    "clustering.cluster_ms": "ms",
    "aspt.tile_ms": "ms",
    "gpu.spmm_cost_ms": "ms",
    "gpu.sddmm_cost_ms": "ms",
    "clustering.pairs_scored": "count",
    "clustering.heap_requeues": "count",
    "gpu.global_txns": "count",
    "gpu.l2_hits": "count",
    "tracing_overhead": "ratio",
}

#: Layers on the path of a served spmm request, summed for
#: ``serve.unattributed_share``.
REQUEST_LAYERS = (
    "serve.protocol.encode_request_ms",
    "serve.protocol.decode_request_ms",
    "serve.protocol.dense_from_wire_ms",
    "kernels.session_run_ms",
    "serve.protocol.encode_response_ms",
    "serve.protocol.decode_response_ms",
)


class Result:
    """What one run reports: samples, metrics and human-readable lines."""

    def __init__(self) -> None:
        self.samples = []
        self.metrics = {}
        self.lines = []

    def note(self, name, value, unit, detail="") -> None:
        self.lines.append(f"{name} = {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        """Refusals, non-ok statuses and wrong answers."""
        return sum(not s.correct for s in self.samples)

    @property
    def correct(self) -> bool:
        """No completed operation returned a wrong answer."""
        return all(s.correct or not s.ok for s in self.samples)


def _common_lines(result, setups, rss) -> None:
    result.metrics["setup_s"] = statistics.median(setups)
    result.note("setup_s", result.metrics["setup_s"], "s",
                "median of " + ", ".join(f"{s:.3f}" for s in setups))
    result.metrics["peak_rss_mb"] = rss
    result.note("error_rate", ratio(result.failed, result.attempted), "ratio",
                f"{result.failed} failed of {result.attempted}")


# ----------------------------------------------------------------------
# serve-warm and serve-churn
# ----------------------------------------------------------------------
def _latency(result, label, seconds) -> None:
    """``latency_p50_ms`` and ``latency_tail_ms`` of ``seconds``."""
    value, pct, n = tail(seconds)
    result.metrics["latency_p50_ms"] = 1e3 * p50(seconds)
    result.metrics["latency_tail_ms"] = 1e3 * value
    result.note(f"{label}_p50_ms", result.metrics["latency_p50_ms"], "ms", f"n={n}")
    result.note(f"{label}_tail_ms", 1e3 * value, "ms", f"p{pct:.1f} of n={n}")


def _serve_end_to_end(result, samples, elapsed, churn, setups, rss):
    reads = [s.seconds for s in samples if s.kind == "spmm"]
    _latency(result, "first_read" if churn else "request", reads)
    if churn:
        deltas = [s.seconds for s in samples if s.kind == "delta"]
        result.note("delta_p50_ms", 1e3 * median(deltas), "ms", f"n={len(deltas)}")
    done = sum(s.ok for s in samples)
    result.metrics["throughput_ops"] = done / elapsed
    result.note("throughput_rps", done / elapsed, "1/s", f"{done} ops in {elapsed:.2f} s")
    _common_lines(result, setups, rss)


def _serve(ctx, data, load, trace: bool, seconds: float, churn: bool) -> Result:
    result = Result()
    setups = []
    servers = contextlib.ExitStack()
    with servers:
        for _ in range(1 if trace else SETUPS):
            servers.close()  # the previous set-up's server
            server, fingerprints, secs = served.set_up(
                servers, ctx.root, ctx.run_dir, data, result.samples)
            setups.append(secs)
        result.note("connections", served.CONNECTIONS, "count",
                    "closed loop, one thread and one tenant per connection")
        if not trace:
            samples, elapsed = load(server, fingerprints, data, seconds)
            rss = server.peak_rss_mb()
        else:
            before = server.metrics()
            samples, _ = load(server, fingerprints, data, seconds, Tracer())
            after = server.metrics()
    result.samples += samples
    served_ok = [s for s in result.samples if s.kind in ("spmm", "setup") and s.ok]
    non_full = ratio(sum(s.rung != "full" for s in served_ok), len(served_ok))
    result.note("non_full_rung_share", non_full, "ratio", f"of {len(served_ok)} ok responses")
    if not trace:
        _serve_end_to_end(result, samples, elapsed, churn, setups, rss)
        return result

    m = result.metrics
    config = SERVE_CONFIG.reorder_config()
    matrices, cases, streams, per_stream = data.replay()
    plans, build = layers.plan_builds(matrices, config)
    m.update(build)
    m.update(layers.request_metrics([(x, plans[i], matrices[i]) for x, i in cases],
                                    chunk_k=SERVE_CONFIG.chunk_k,
                                    backend=SERVE_CONFIG.backend))
    m.update(layers.streaming_metrics(streams, per_stream, config))
    m.update(layers.cost_metrics(plans, inputs.K_SMALL))

    reads = [s for s in samples if s.kind == "spmm"]
    client_mean_ms = 1e3 * statistics.fmean(s.seconds for s in reads)
    hist_before = before.get("serve.latency_s", {})
    hist_after = after.get("serve.latency_s", {})
    server_mean_ms = 1e3 * ratio(
        hist_after.get("sum", 0.0) - hist_before.get("sum", 0.0),
        hist_after.get("count", 0) - hist_before.get("count", 0),
    )
    layers_ms = sum(m[name] for name in REQUEST_LAYERS)
    if churn:  # the first read after a delta builds its plan from scratch
        layers_ms += m["reorder.build_plan_ms"]
        deltas = [s.seconds for s in samples if s.kind == "delta"]
        result.note("serve.delta_op_ms", 1e3 * median(deltas), "ms",
                    f"client-observed delta op p50, n={len(deltas)}")
    m["serve.latency_coverage"] = server_mean_ms / client_mean_ms
    m["serve.unattributed_share"] = 1.0 - layers_ms / client_mean_ms
    hits = counter_delta(before, after, "serve.pool_hit")
    m["serve.pool_hit_ratio"] = ratio(hits, hits + counter_delta(before, after, "serve.pool_miss"))
    m["serve.pool_invalidate"] = counter_delta(before, after, "serve.pool_invalidate")
    m["serve.coalesced"] = counter_delta(before, after, "serve.coalesced")
    store_hits = counter_delta(before, after, "planstore.hit")
    m["planstore.hit_ratio"] = ratio(
        store_hits, store_hits + counter_delta(before, after, "planstore.miss"))
    m["serve.non_full_rung_share"] = non_full
    m["tracing_overhead"] = (median(s.seconds for s in reads if s.traced)
                             / median(s.seconds for s in reads if not s.traced))
    return result


def serve_warm(ctx, seed, seconds, trace) -> Result:
    return _serve(ctx, served.WarmInputs(seed), served.warm_load, trace, seconds, churn=False)


def serve_churn(ctx, seed, seconds, trace) -> Result:
    return _serve(ctx, served.ChurnInputs(seed), served.churn_load, trace, seconds, churn=True)


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def run_sweep(ctx, seed, seconds, trace) -> Result:
    result = Result()
    corpus = inputs.sweep_corpus(seed)
    result.note("connections", 1, "count", "one sequential run_experiment call per entry")
    if not trace:
        setups = sweep.setup_seconds(ctx.root)
        samples, elapsed = sweep.run_entries(corpus, seconds=seconds)
        result.samples += samples
        # Each matrix's median over the passes, so a slow phase of the host
        # during one pass does not move the figures.
        per_matrix = [median(s.seconds for s in samples if s.label == entry.name)
                      for entry in corpus]
        _latency(result, "matrix", per_matrix)
        sweep_s = sum(per_matrix)
        result.metrics["throughput_ops"] = len(corpus) / sweep_s
        result.note("sweep_s", sweep_s, "s", f"sum of per-matrix medians over "
                    f"{len(samples) / len(corpus):.2f} passes")
        result.note("throughput_matrices_per_s", len(corpus) / sweep_s, "1/s",
                    f"{len(samples)} run_experiment calls in {elapsed:.2f} s")
        _common_lines(result, setups, common.peak_rss_mb())
        return result

    passes = sweep.paired_passes(corpus, layers.CLUSTERING_COUNTERS + layers.GPU_COUNTERS)
    result.samples += passes["plain"] + passes["traced"]
    m = result.metrics
    tracer = passes["tracer"]
    n = len(corpus)
    m.update(layers.build_metrics(span_seconds(tracer, ("plan_nr", "plan_rr")), n, tracer))
    m.update(passes["counts"])
    m["gpu.spmm_cost_ms"] = 1e3 * passes["costs"]["spmm_cost"] / n
    m["gpu.sddmm_cost_ms"] = 1e3 * passes["costs"]["sddmm_cost"] / n
    m["tracing_overhead"] = (median(s.seconds for s in passes["traced"])
                             / median(s.seconds for s in passes["plain"]))
    # No sweep call serves a request or streams a delta: these layers are
    # replayed on every SWEEP_REPLAY_STRIDE-th corpus matrix for reference.
    subset = corpus[::SWEEP_REPLAY_STRIDE]
    config = sweep.CONFIG.reorder
    cases = [(inputs.operand_pool(seed, e.name, e.matrix.n_cols, inputs.K_SMALL)[0],
              build_plan(e.matrix, config), e.matrix) for e in subset]
    m.update(layers.request_metrics(cases, chunk_k=SERVE_CONFIG.chunk_k,
                                    backend=SERVE_CONFIG.backend))
    m.update(layers.streaming_metrics(
        [inputs.delta_stream(seed, e.name, e.matrix) for e in subset],
        layers.REPLAY_DELTAS, config))
    for name in ("serve.latency_coverage", "serve.unattributed_share",
                 "serve.pool_hit_ratio", "serve.pool_invalidate", "serve.coalesced",
                 "serve.non_full_rung_share", "planstore.hit_ratio"):
        m[name] = 0.0  # no server on this workload
    return result


WORKLOADS = {
    "serve-warm": serve_warm,
    "serve-churn": serve_churn,
    "sweep": run_sweep,
}
