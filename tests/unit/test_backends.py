"""Unit tests for the pluggable compiled kernel backends.

Covers the registry (registration, resolution, graceful degradation),
the specialization spec (fingerprint stability, field set),
per-spec numba source generation, the process-global artifact cache,
session integration, and the plan pipeline/persistence integration
(``attach_backend``, npz save/load, plan-store round trip).  The
non-numpy backend here is the test-only ``fake`` backend registered in
``conftest.py``.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from conftest import FAKE_BACKEND, random_csr, spmm_plan_reference
from repro.errors import BackendUnavailable, ConfigError, DegradedExecution
from repro.kernels import KernelSession, spmm, spmm_gather_reference
from repro.kernels.backends import (
    CompiledKernel,
    KernelBackend,
    SpecializationSpec,
    available_backends,
    backend_names,
    compiled_artifact,
    get_backend,
    registry,
    resolve_backend,
)
from repro.kernels.backends.numba_backend import render_source as numba_source
from repro.kernels.state import CsrState, stage
from repro.observability.metrics import METRICS
from repro.reorder import ReorderConfig, attach_backend, build_plan
from repro.sparse import CSRMatrix


@pytest.fixture
def matrix(rng):
    return random_csr(rng, 40, 32, density=0.1)


class TestRegistry:
    def test_numpy_is_first_and_always_available(self):
        names = backend_names()
        assert names[0] == "numpy"
        assert "numba" in names and FAKE_BACKEND in names
        assert "numpy" in available_backends()
        assert FAKE_BACKEND in available_backends()

    def test_get_backend_unknown_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            get_backend("cuda")

    def test_resolve_none_and_numpy_are_the_reference(self):
        for request in (None, "numpy"):
            backend, provenance = resolve_backend(request)
            assert backend.name == "numpy"
            assert provenance == ()

    def test_resolve_unknown_raises_config_error(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            resolve_backend("cuda")

    def test_resolve_unavailable_degrades_with_provenance(self):
        class Ghost(KernelBackend):
            name = "ghost-unit"

            @classmethod
            def available(cls):
                return False

            @classmethod
            def unavailable_reason(cls):
                return "unit-test ghost"

            def compile(self, spec):  # pragma: no cover - never reached
                raise AssertionError

        from repro.kernels.backends.registry import _REGISTRY

        _REGISTRY["ghost-unit"] = Ghost()
        try:
            fallback = METRICS.counter("kernels.backend_fallback")
            before = fallback.value
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                backend, provenance = resolve_backend("ghost-unit")
            assert backend.name == "numpy"
            assert provenance == ("backend:ghost-unit->numpy: unit-test ghost",)
            assert fallback.value == before + 1
            assert any(w.category is DegradedExecution for w in caught)
        finally:
            del _REGISTRY["ghost-unit"]


class TestSpecializationSpec:
    def test_fingerprint_is_stable_and_field_sensitive(self):
        a = SpecializationSpec(kernel="spmm", chunk_k=64)
        b = SpecializationSpec(kernel="spmm", chunk_k=64)
        c = SpecializationSpec(kernel="spmm", chunk_k=32)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_fingerprint_covers_every_field(self):
        # Exactly the fields some backend's compile reads: numpy reads
        # kernel and chunk_k, numba's rendered source also reads dtype.
        fields = [f.name for f in dataclasses.fields(SpecializationSpec)]
        assert fields == ["kernel", "dtype", "chunk_k"]
        base = SpecializationSpec(kernel="spmm", dtype="float64", chunk_k=48)
        for changed in (
            dataclasses.replace(base, kernel="sddmm"),
            dataclasses.replace(base, dtype="float32"),
            dataclasses.replace(base, chunk_k=24),
        ):
            assert changed.fingerprint() != base.fingerprint()

    def test_session_compiles_for_its_chunk_k(self, matrix):
        KernelSession(matrix, chunk_k=37, backend=FAKE_BACKEND)
        spec = SpecializationSpec(kernel="spmm", chunk_k=37)
        assert (FAKE_BACKEND, spec.fingerprint()) in registry._ARTIFACTS

    def test_plan_and_csr_sessions_share_one_artifact(self, matrix):
        plan = build_plan(
            matrix, ReorderConfig(siglen=16, panel_height=8, backend=FAKE_BACKEND)
        )
        compile_counter = METRICS.counter("kernels.backend_compile")
        KernelSession(matrix, chunk_k=41, backend=FAKE_BACKEND)
        after_csr = compile_counter.value
        plan.session(chunk_k=41)
        KernelSession(plan.tiled, chunk_k=41, backend=FAKE_BACKEND)
        assert compile_counter.value == after_csr  # the CSR session's artifact


class TestCompiledArtifacts:
    def test_numba_sddmm_accumulator_follows_dtype(self):
        f32 = numba_source(SpecializationSpec(kernel="sddmm", dtype="float32"))
        f64 = numba_source(SpecializationSpec(kernel="sddmm", dtype="float64"))
        assert "np.float32(0.0)" in f32
        assert "np.float32(0.0)" not in f64

    def test_compiled_kernel_names_backend_and_spec(self):
        spec = SpecializationSpec(kernel="spmm", chunk_k=16)
        kernel = get_backend(FAKE_BACKEND).compile(spec)
        assert isinstance(kernel, CompiledKernel)
        assert kernel.backend == FAKE_BACKEND
        assert kernel.spec == spec


class TestArtifactCache:
    def test_warm_artifact_skips_recompilation(self):
        spec = SpecializationSpec(kernel="spmm", chunk_k=53)
        compile_counter = METRICS.counter("kernels.backend_compile")
        backend = get_backend(FAKE_BACKEND)
        cold = compiled_artifact(backend, spec)
        after_cold = compile_counter.value
        warm = compiled_artifact(backend, spec)
        assert warm is cold
        assert compile_counter.value == after_cold  # no second compile

    def test_unavailable_backend_compile_raises(self):
        numba = get_backend("numba")
        if numba.available():  # pragma: no cover - CI backends lane
            pytest.skip("numba importable here; unavailability not testable")
        with pytest.raises(BackendUnavailable):
            compiled_artifact(
                numba, SpecializationSpec(kernel="spmm", chunk_k=51)
            )


class TestSessionIntegration:
    def test_session_reports_backend_and_matches_reference(
        self, matrix, rng, backend_name
    ):
        X = rng.normal(size=(matrix.n_cols, 24))
        reference = spmm_gather_reference(matrix, X)
        session = KernelSession(matrix, backend=backend_name)
        assert session.backend == backend_name
        assert session.backend_provenance == ()
        got = session.run(X)
        if backend_name == "numba":
            np.testing.assert_array_max_ulp(got, reference, maxulp=1)
        else:
            np.testing.assert_array_equal(got, reference)

    def test_unavailable_backend_session_degrades_to_numpy(self, matrix, rng):
        numba = get_backend("numba")
        if numba.available():  # pragma: no cover - CI backends lane
            pytest.skip("numba importable here; degradation not testable")
        X = rng.normal(size=(matrix.n_cols, 8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = KernelSession(matrix, backend="numba")
        assert session.backend == "numpy"
        assert session.backend_provenance
        assert session.backend_provenance[0].startswith("backend:numba->numpy")
        assert any(w.category is DegradedExecution for w in caught)
        np.testing.assert_array_equal(
            session.run(X), spmm_gather_reference(matrix, X)
        )


class TestPlanIntegration:
    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            ReorderConfig(backend="cuda")

    def test_build_plan_records_backend_without_compiling(self, matrix):
        config = ReorderConfig(siglen=16, panel_height=8, backend=FAKE_BACKEND)
        compile_counter = METRICS.counter("kernels.backend_compile")
        before = compile_counter.value
        plan = build_plan(matrix, config)
        assert compile_counter.value == before  # sessions compile, plans don't
        assert plan.backend == FAKE_BACKEND
        assert not hasattr(plan, "artifact")
        assert not plan.backend_degraded
        assert not plan.degraded  # backend state never taints plan provenance

    def test_backend_degradation_stays_out_of_plan_provenance(self, matrix):
        numba = get_backend("numba")
        if numba.available():  # pragma: no cover - CI backends lane
            pytest.skip("numba importable here; degradation not testable")
        config = ReorderConfig(siglen=16, panel_height=8, backend="numba")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            plan = build_plan(matrix, config)
        assert plan.backend == "numpy"
        assert plan.backend_degraded
        assert not plan.degraded
        assert plan.provenance == ()

    def test_attach_backend_is_idempotent_on_numpy(self, matrix):
        plan = build_plan(matrix, ReorderConfig(siglen=16, panel_height=8))
        again = attach_backend(plan, ReorderConfig(siglen=16, panel_height=8))
        assert again.backend == "numpy"
        assert again.backend_provenance == ()

    def test_plan_save_load_round_trips_backend(self, matrix, tmp_path):
        config = ReorderConfig(siglen=16, panel_height=8, backend=FAKE_BACKEND)
        plan = build_plan(matrix, config)
        path = tmp_path / "plan.npz"
        plan.save(path)
        from repro.reorder.pipeline import ExecutionPlan

        loaded = ExecutionPlan.load(path, matrix)
        assert loaded.backend == FAKE_BACKEND
        with np.load(path) as data:
            assert "artifact" not in data.files

    def test_plan_file_with_artifact_field_still_loads(self, matrix, rng, tmp_path):
        # Files written before plans dropped their artifact descriptor
        # carry an extra ``artifact`` array; loading ignores it.
        plan = build_plan(
            matrix, ReorderConfig(siglen=16, panel_height=8, backend=FAKE_BACKEND)
        )
        path = tmp_path / "plan.npz"
        plan.save(path)
        with np.load(path) as data:
            fields = dict(data)
        fields["artifact"] = np.array(
            [f"backend={FAKE_BACKEND}", "chunk_k=64", "dense_bucket=3"],
            dtype=np.str_,
        )
        np.savez_compressed(path, **fields)
        from repro.reorder.pipeline import ExecutionPlan

        loaded = ExecutionPlan.load(path, matrix)
        assert loaded.backend == FAKE_BACKEND
        assert loaded.backend_provenance == ()
        X = rng.normal(size=(matrix.n_cols, 6))
        np.testing.assert_array_equal(
            loaded.session().run(X), spmm_plan_reference(loaded, X)
        )
        loaded.validate()

    def test_plan_naming_unregistered_backend_loads_as_numpy(
        self, matrix, rng, tmp_path
    ):
        # A plan file from a build that registered a since-removed
        # backend must load and run, not fail on every session().
        plan = build_plan(
            matrix, ReorderConfig(siglen=16, panel_height=8, backend=FAKE_BACKEND)
        )
        path = tmp_path / "plan.npz"
        plan.save(path)
        with np.load(path) as data:
            fields = dict(data)
        fields["backend"] = np.str_("retired")
        np.savez_compressed(path, **fields)
        from repro.reorder.pipeline import ExecutionPlan

        loaded = ExecutionPlan.load(path, matrix)
        assert loaded.backend == "numpy"
        assert loaded.backend_provenance == (
            "backend:retired->numpy: not registered",
        )
        X = rng.normal(size=(matrix.n_cols, 6))
        session = loaded.session()
        assert session.backend == "numpy"
        np.testing.assert_array_equal(session.run(X), spmm_plan_reference(plan, X))
        loaded.validate()


class TestPlanStoreIntegration:
    def test_backend_enters_the_cache_key(self, matrix):
        from repro.planstore import plan_key

        base = ReorderConfig(siglen=16, panel_height=8)
        other = ReorderConfig(siglen=16, panel_height=8, backend=FAKE_BACKEND)
        assert plan_key(matrix, base) != plan_key(matrix, other)

    def test_disk_round_trip_resolves_backend_from_config(
        self, matrix, tmp_path
    ):
        from repro.planstore import PlanStore

        config = ReorderConfig(siglen=16, panel_height=8, backend=FAKE_BACKEND)
        store = PlanStore(cache_dir=tmp_path)
        build_plan(matrix, config, cache=store)
        # A fresh store over the same directory must hit the disk tier;
        # the entry holds decisions only, and the backend comes from the
        # config.
        fresh = PlanStore(cache_dir=tmp_path)
        warm = build_plan(matrix, config, cache=fresh)
        assert fresh.stats()["disk"]["hits"] == 1
        assert warm.backend == FAKE_BACKEND
        (entry,) = tmp_path.glob("*.plan.npz")
        with np.load(entry) as data:
            assert not {"backend", "artifact"} & set(data.files)

    def test_warm_hit_resolves_backend_in_current_environment(
        self, matrix, tmp_path
    ):
        """A cached numba entry must not pin numba on a numba-less host."""
        from repro.planstore import PlanDecisions, PlanStore

        config = ReorderConfig(siglen=16, panel_height=8, backend="numba")
        store = PlanStore(cache_dir=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            plan = build_plan(matrix, config, cache=store)
        # Whatever environment wrote the entry, materialising re-resolves:
        # on this host the result is exactly what resolve_backend says now.
        expected = resolve_backend("numba", warn=False)[0].name
        assert plan.backend == expected
        decisions = PlanDecisions.from_plan(plan)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedExecution)
            rebuilt = decisions.materialise(matrix, config)
        assert rebuilt.backend == expected


class TestBackendOneShotDispatch:
    def test_spmm_backend_kwarg_dispatches(self, matrix, rng, backend_name):
        X = rng.normal(size=(matrix.n_cols, 12))
        reference = spmm_gather_reference(matrix, X)
        got = spmm(matrix, X, backend=backend_name)
        if backend_name == "numba":
            np.testing.assert_array_max_ulp(got, reference, maxulp=1)
        else:
            np.testing.assert_array_equal(got, reference)

    def test_spmm_backend_fills_caller_buffer(self, matrix, rng):
        X = rng.normal(size=(matrix.n_cols, 12))
        out = np.empty((matrix.n_rows, 12), dtype=np.float64)
        got = spmm(matrix, X, out=out, backend=FAKE_BACKEND)
        assert got is out
        np.testing.assert_array_equal(out, spmm_gather_reference(matrix, X))


class TestCsrState:
    def test_state_multiply_matches_spmm(self, matrix, rng):
        X = rng.normal(size=(matrix.n_cols, 16))
        state = CsrState(matrix)
        out = np.empty((matrix.n_rows, 16), dtype=np.float64)
        state.multiply(stage(X), out, 8)
        np.testing.assert_array_equal(out, spmm_gather_reference(matrix, X))
