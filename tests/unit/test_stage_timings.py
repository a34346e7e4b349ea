"""Which stage-timing keys each planning path records.

``ExecutionPlan.preprocess_seconds`` and ``UpdateReport.seconds`` feed the
records' ``stage_seconds``/``preprocess_s`` (the paper's preprocessing
breakdown), so their key sets are part of the contract.  These tests pin
them for every path that produces one: cold, cached (miss and hit),
laddered, with a compiled backend, patched and replanned.  A second group checks that
the timings and the trace come from one clock: with a tracer installed,
every stage's seconds equal its span's duration exactly.
"""

import numpy as np
import pytest

from conftest import FAKE_BACKEND, FakeClock
from repro.datasets import hidden_clusters
from repro.kernels.backends import registry
from repro.observability import Tracer, tracing
from repro.planstore import PlanStore
from repro.reorder import ReorderConfig, build_plan
from repro.resilience import ResiliencePolicy
from repro.streaming import DeltaBatch, LshState, apply_delta

COLD = {"lsh1", "cluster1", "permute1", "tile", "sim2", "lsh2", "cluster2", "total"}
WARM = {"cache_lookup", "cold_total", "materialise", "total"}
PATCHED = {"delta_apply", "lsh", "permute", "tile", "round2", "total"}
REPLANNED = {"delta_apply", "replan", "total"}


@pytest.fixture(scope="module")
def csr():
    return hidden_clusters(1024, 2, 2048, 4, seed=0)


@pytest.fixture(scope="module")
def config():
    return ReorderConfig(panel_height=32)


@pytest.fixture(scope="module")
def planned(csr, config):
    return build_plan(csr, config), LshState.build(csr, config)


def _set_delta(csr, n_rows=8):
    """Overwrite the first entry of ``n_rows`` rows: a value-only delta."""
    rows = np.arange(n_rows, dtype=np.int64) * 7
    cols = csr.colidx[csr.rowptr[rows]]
    return DeltaBatch(rows, cols, np.full(n_rows, 3.5), mode="set")


def _add_delta(csr, n_rows=8):
    """Add one entry to ``n_rows`` rows in columns they do not hold yet."""
    rows = np.arange(n_rows, dtype=np.int64) * 7
    cols = []
    for r in rows:
        held = set(csr.row_cols(int(r)).tolist())
        cols.append(next(c for c in range(csr.n_cols) if c not in held))
    return DeltaBatch(rows, np.asarray(cols), np.ones(n_rows), mode="add")


class TestKeySets:
    def test_cold_build(self, csr, config):
        assert set(build_plan(csr, config).preprocess_seconds) == COLD

    def test_plan_store_miss_then_hit(self, csr, config):
        store = PlanStore()
        miss = build_plan(csr, config, cache=store)
        assert set(miss.preprocess_seconds) == COLD | {"cache_lookup"}
        hit = build_plan(csr, config, cache=store)
        assert set(hit.preprocess_seconds) == WARM

    def test_laddered_build(self, csr, config):
        plan = build_plan(csr, config, resilience=ResiliencePolicy())
        assert set(plan.preprocess_seconds) == COLD

    def test_compiled_backend_adds_no_stage(self, csr):
        # Plans record the backend name only; sessions compile.
        plan = build_plan(csr, ReorderConfig(panel_height=32, backend=FAKE_BACKEND))
        assert set(plan.preprocess_seconds) == COLD

    def test_value_only_patch(self, csr, config, planned):
        plan, state = planned
        update = apply_delta(plan, _set_delta(csr), config, state=state)
        assert update.report.mode == "patched"
        assert set(update.plan.preprocess_seconds) == PATCHED
        assert set(update.report.seconds) == PATCHED

    def test_add_patch_reclusters(self, csr, config, planned):
        plan, state = planned
        update = apply_delta(plan, _add_delta(csr), config, state=state)
        assert update.report.mode == "patched"
        assert set(update.plan.preprocess_seconds) == PATCHED | {"cluster"}
        assert set(update.report.seconds) == PATCHED | {"cluster"}

    def test_replan(self, csr, config, planned):
        plan, _ = planned
        update = apply_delta(plan, _set_delta(csr), config, state=None)
        assert update.report.mode == "replanned"
        assert set(update.report.seconds) == REPLANNED
        assert set(update.plan.preprocess_seconds) == COLD


def _span_seconds(tracer) -> dict:
    """Summed duration of every span, by name."""
    totals: dict = {}
    pending = tracer.to_dicts()
    while pending:
        node = pending.pop()
        totals[node["name"]] = totals.get(node["name"], 0.0) + node["duration_s"]
        pending.extend(node.get("children", []))
    return totals


class TestOneClock:
    """Under a tracer the stage timings are the span durations: the same
    clock, the same two reads.  ``FakeClock`` makes any second clock show
    as a mismatch."""

    def test_cold_build(self, csr, config):
        with tracing(Tracer(clock=FakeClock(), pid=1)) as tracer:
            plan = build_plan(csr, config)
        spans = _span_seconds(tracer)
        seconds = plan.preprocess_seconds
        assert seconds["total"] == spans["build_plan"]
        for key in COLD - {"total"}:
            assert seconds[key] == spans[key], key

    @pytest.mark.parametrize("make_delta", [_set_delta, _add_delta])
    def test_patch(self, csr, config, planned, make_delta):
        plan, state = planned
        with tracing(Tracer(clock=FakeClock(), pid=1)) as tracer:
            update = apply_delta(plan, make_delta(csr), config, state=state)
        spans = _span_seconds(tracer)
        seconds = update.report.seconds
        assert seconds["total"] == spans["streaming.apply_delta"]
        for key in set(seconds) - {"total", "delta_apply", "permute"}:
            assert seconds[key] == spans[f"streaming.{key}"], key
        # Stages that open no span still read the tracer's clock: whole
        # FakeClock steps, never a perf_counter reading.
        for key in ("delta_apply", "permute"):
            assert seconds[key] >= 1.0 and seconds[key] == int(seconds[key]), key

    def test_backend_compile(self, csr, monkeypatch):
        # An empty artifact cache, so the first session compiles.
        monkeypatch.setattr(registry, "_ARTIFACTS", {})
        config = ReorderConfig(panel_height=32, backend=FAKE_BACKEND)
        with tracing(Tracer(clock=FakeClock(), pid=1)) as tracer:
            plan = build_plan(csr, config)
        assert "backend.compile" not in _span_seconds(tracer)
        with tracing(Tracer(clock=FakeClock(), pid=1)) as tracer:
            plan.session()
            plan.session()  # warm: the artifact cache answers
        (compile_span,) = [
            node for node in tracer.to_dicts() if node["name"] == "backend.compile"
        ]
        assert compile_span["duration_s"] > 0
        assert compile_span["attrs"]["backend"] == FAKE_BACKEND
