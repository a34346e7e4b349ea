"""Unit tests for the serving layer (repro.serve).

Pure-logic pieces (protocol codec, token buckets, shed controller,
breaker, session pool, coalescer) are tested directly with injected
clocks; the server itself is exercised end-to-end over real sockets via
:class:`repro.serve.ServerThread` — the suite has no async runner, so
the event loop lives on a background thread and every test crosses the
genuine wire path.
"""

import asyncio
import gc
import hashlib
import socket
import threading
import warnings

import numpy as np
import pytest

from repro.errors import (
    ConfigError,
    FormatError,
    ReproIOError,
    ShapeError,
    ValidationError,
)
from repro.observability.metrics import METRICS
from repro.resilience import FaultInjector
from repro.serve import (
    STATUS_DEADLINE_EXCEEDED,
    STATUS_DRAINING,
    STATUS_ERROR,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_REJECTED_QUOTA,
    AdmissionController,
    CircuitBreaker,
    Coalescer,
    LoadShedController,
    ServeClient,
    ServeConfig,
    ServerThread,
    SessionPool,
    TokenBucket,
    decode_message,
    encode_message,
    matrix_fingerprint,
    matrix_from_wire,
    matrix_to_wire,
    parse_address,
)
from repro.serve.protocol import (
    DEFAULT_MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    check_frame,
    delta_from_wire,
    dense_frame,
    frame_array,
)

from conftest import FakeClock, random_csr


class ManualClock(FakeClock):
    """A FakeClock that only moves when told to (step 0)."""

    def __init__(self, start: float = 0.0):
        super().__init__(start=start, step=0.0)


def _frame(shape, nbytes=None, dtype="<f8"):
    n, k = shape
    return {"dtype": dtype, "shape": list(shape),
            "nbytes": 8 * n * k if nbytes is None else nbytes}


#: Frame descriptors the server must refuse before reading a payload
#: byte, with a word the error names.  Each would be a valid operand of
#: the 36-column test matrix but for the one field it breaks.
BAD_DESCRIPTORS = [
    pytest.param(_frame((36, 2), dtype="float64"), "dtype", id="dtype-name"),
    pytest.param(_frame((36, 2), dtype=">f8"), "dtype", id="dtype-big-endian"),
    pytest.param(_frame((36, 2), nbytes=288, dtype="<f4"), "dtype", id="dtype-f4"),
    pytest.param({"shape": [36, 2], "nbytes": 576}, "dtype", id="dtype-missing"),
    pytest.param(_frame((36, 2)) | {"shape": [36]}, "shape", id="shape-1d"),
    pytest.param(_frame((36, 2)) | {"shape": [36, 2, 1]}, "shape", id="shape-3d"),
    pytest.param(_frame((36, -2), nbytes=576), "shape", id="shape-negative"),
    pytest.param(_frame((True, 2), nbytes=16), "shape", id="shape-bool"),
    pytest.param(_frame((36.0, 2), nbytes=576), "shape", id="shape-float"),
    pytest.param(_frame((36, 2), nbytes=575), "nbytes", id="nbytes-short"),
    pytest.param(_frame((36, 2), nbytes="576"), "nbytes", id="nbytes-string"),
    pytest.param(_frame((36, 2), nbytes=2**40), "nbytes", id="nbytes-huge"),
    pytest.param(_frame((2**20, 2**20)), "bound", id="over-line-bound"),
]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_message_round_trip(self):
        msg = {"op": "ping", "id": 3, "nested": {"a": [1.5, None, "x"]}}
        assert decode_message(encode_message(msg)) == msg

    def test_encode_is_one_compact_line(self):
        data = encode_message({"b": 1, "a": 2})
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert data.index(b'"a"') < data.index(b'"b"')  # sorted keys

    @pytest.mark.parametrize(
        "line", [b"not json\n", b"[1,2]\n", b"42\n", b"\xff\xfe\n"]
    )
    def test_decode_rejects_non_object_lines(self, line):
        with pytest.raises(FormatError):
            decode_message(line)

    def test_matrix_wire_round_trip_is_bitwise(self, rng):
        csr = random_csr(rng, 30, 20, density=0.15)
        back = matrix_from_wire(decode_message(encode_message(matrix_to_wire(csr))))
        np.testing.assert_array_equal(back.rowptr, csr.rowptr)
        np.testing.assert_array_equal(back.colidx, csr.colidx)
        np.testing.assert_array_equal(back.values, csr.values)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("shape"),
            lambda d: d.update(shape=[2]),
            lambda d: d.update(rows="nope"),
            lambda d: d.update(values=d["values"][:-1]),
        ],
    )
    def test_matrix_from_wire_rejects_malformed_payloads(self, rng, mutate):
        payload = matrix_to_wire(random_csr(rng, 10, 10))
        mutate(payload)
        with pytest.raises(FormatError):
            matrix_from_wire(payload)

    @pytest.mark.parametrize("shape", [[2**40, 1], [1, 2**40], [2**23, 3]])
    def test_matrix_from_wire_rejects_shapes_over_the_line_bound(self, shape):
        # rowptr of 2**23 rows needs 64 MiB + 8 bytes: one over the default.
        payload = {"shape": shape, "rows": [], "cols": [], "values": []}
        with pytest.raises(FormatError, match="line bound"):
            matrix_from_wire(payload)

    def test_shape_bound_is_the_callers_line_bound(self):
        # 8 * (n + 1) bytes of rowptr must fit in max_bytes.
        ok = {"shape": [9, 3], "rows": [8], "cols": [2], "values": [1.0]}
        assert matrix_from_wire(ok, max_bytes=80).shape == (9, 3)
        with pytest.raises(FormatError, match="line bound"):
            matrix_from_wire(dict(ok, shape=[10, 3]), max_bytes=80)

    @pytest.mark.parametrize("shape", [[True, True], [True, 3], [3, False]])
    def test_matrix_from_wire_rejects_boolean_dimensions(self, shape):
        payload = {"shape": shape, "rows": [0], "cols": [0], "values": [1.0]}
        with pytest.raises(FormatError, match="non-negative ints"):
            matrix_from_wire(payload)

    def test_delta_from_wire_bounds_the_grown_height(self):
        payload = {"rows": [], "cols": [], "values": [], "new_rows": 2**40}
        with pytest.raises(FormatError, match="line bound"):
            delta_from_wire(payload, n_rows=10)
        grown = dict(payload, new_rows=3)
        with pytest.raises(FormatError, match="line bound"):
            delta_from_wire(grown, n_rows=7, max_bytes=80)
        assert delta_from_wire(grown, n_rows=6, max_bytes=80).new_rows == 3

    def test_delta_from_wire_rejects_boolean_new_rows(self):
        payload = {"rows": [], "cols": [], "values": [], "new_rows": True}
        with pytest.raises(FormatError, match="new_rows"):
            delta_from_wire(payload)

    def test_fingerprint_depends_on_values(self, rng):
        csr = random_csr(rng, 25, 25, density=0.1)
        doubled = csr.with_values(csr.values * 2.0)
        assert matrix_fingerprint(csr) == matrix_fingerprint(csr)
        assert matrix_fingerprint(csr) != matrix_fingerprint(doubled)

    def test_fingerprint_survives_the_wire(self, rng):
        csr = random_csr(rng, 25, 25, density=0.1)
        back = matrix_from_wire(
            decode_message(encode_message(matrix_to_wire(csr)))
        )
        assert matrix_fingerprint(back) == matrix_fingerprint(csr)

    def test_protocol_version_is_two(self):
        assert PROTOCOL_VERSION == 2


class TestDenseFrames:
    @pytest.mark.parametrize("shape", [(5, 3), (1, 1), (0, 4), (4, 0)])
    def test_round_trip_is_bitwise(self, rng, shape):
        x = rng.normal(size=shape)
        frame = dense_frame(x)
        assert frame.descriptor == _frame(shape)
        assert len(frame.payload) == x.nbytes
        assert check_frame(frame.descriptor, max_bytes=x.nbytes) == shape
        back = frame_array(shape, bytes(frame.payload))
        assert back.dtype == np.dtype("<f8")
        np.testing.assert_array_equal(back, x)

    def test_payload_is_little_endian_row_major(self):
        frame = dense_frame(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert bytes(frame.payload) == np.array([1.0, 2.0, 3.0, 4.0], "<f8").tobytes()

    def test_non_contiguous_and_non_float_inputs_are_converted(self):
        x = np.arange(12).reshape(3, 4)
        frame = dense_frame(x[:, ::2])
        np.testing.assert_array_equal(
            frame_array((3, 2), bytes(frame.payload)), x[:, ::2].astype(np.float64)
        )

    def test_one_dimensional_input_is_a_shape_error(self):
        with pytest.raises(ShapeError):
            dense_frame(np.ones(4))

    @pytest.mark.parametrize("descriptor, word", BAD_DESCRIPTORS)
    def test_check_frame_rejects(self, descriptor, word):
        with pytest.raises(FormatError, match=word):
            check_frame(descriptor, max_bytes=DEFAULT_MAX_LINE_BYTES)

    def test_json_list_operand_names_protocol_two(self):
        with pytest.raises(FormatError, match="protocol 2"):
            check_frame([[1.0, 2.0]], max_bytes=DEFAULT_MAX_LINE_BYTES)

    def test_bound_is_the_callers(self):
        descriptor = _frame((4, 2))  # 64 bytes
        assert check_frame(descriptor, max_bytes=64) == (4, 2)
        assert check_frame(descriptor, max_bytes=None) == (4, 2)
        with pytest.raises(FormatError, match="bound"):
            check_frame(descriptor, max_bytes=63)


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
        clock.advance(1.0)  # +2 tokens
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_tokens_capped_at_burst(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)


class TestAdmissionController:
    def _controller(self, clock, **kw):
        kw.setdefault("max_inflight", 2)
        kw.setdefault("quota_rate", 1.0)
        kw.setdefault("quota_burst", 2.0)
        return AdmissionController(clock=clock, **kw)

    def test_overload_checked_before_quota(self):
        clock = ManualClock()
        ctl = self._controller(clock)
        assert ctl.admit("a") is None
        assert ctl.admit("a") is None
        # Slots full: rejection is overload, and the tenant is NOT charged.
        tokens_before = ctl.snapshot()["tenants"]["a"]
        assert ctl.admit("a") == "rejected_overload"
        assert ctl.snapshot()["tenants"]["a"] == tokens_before
        ctl.release()
        ctl.release()

    def test_quota_rejection_and_refill(self):
        clock = ManualClock()
        ctl = self._controller(clock, max_inflight=100)
        assert ctl.admit("t") is None
        assert ctl.admit("t") is None
        assert ctl.admit("t") == STATUS_REJECTED_QUOTA
        clock.advance(1.0)
        assert ctl.admit("t") is None
        for _ in range(3):
            ctl.release()

    def test_tenants_are_isolated(self):
        clock = ManualClock()
        ctl = self._controller(clock, max_inflight=100)
        while ctl.admit("greedy") is None:
            pass
        assert ctl.admit("greedy") == STATUS_REJECTED_QUOTA
        assert ctl.admit("modest") is None  # unaffected by the other bucket

    def test_per_tenant_quota_override(self):
        clock = ManualClock()
        ctl = self._controller(
            clock, max_inflight=100, tenant_quotas={"vip": (10.0, 5.0)}
        )
        granted = 0
        while ctl.admit("vip") is None:
            granted += 1
        assert granted == 5  # vip burst, not the 2.0 default

    def test_release_without_admit_raises(self):
        ctl = self._controller(ManualClock())
        with pytest.raises(AssertionError):
            ctl.release()


# ----------------------------------------------------------------------
# Shedding + breaker
# ----------------------------------------------------------------------
class TestLoadShedController:
    def test_depth_thresholds_map_to_rungs(self):
        shed = LoadShedController(depths=(2, 4, 6))
        assert [shed.rung_for(d) for d in (0, 1, 2, 3, 4, 5, 6, 99)] == [
            0, 0, 1, 1, 2, 2, 3, 3,
        ]

    def test_p95_slo_sheds_one_extra_rung(self):
        shed = LoadShedController(depths=(2, 4, 6), slo_p95_s=0.1, window=8)
        for _ in range(8):
            shed.observe(0.5)  # p95 well above the SLO
        assert shed.rung_for(0) == 1
        assert shed.rung_for(6) == 3  # capped at the ladder floor

    def test_p95_none_until_observations(self):
        shed = LoadShedController(slo_p95_s=0.1)
        assert shed.p95() is None
        assert shed.rung_for(0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadShedController(depths=(4, 2))
        with pytest.raises(ValueError):
            LoadShedController(depths=(1, 2, 3, 4))


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = ManualClock()
        breaker = CircuitBreaker(threshold=3, reset_s=10.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, clock=ManualClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_single_trial_then_close_or_reopen(self):
        clock = ManualClock()
        breaker = CircuitBreaker(threshold=1, reset_s=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.allow()  # the half-open trial
        assert not breaker.allow()  # only one trial at a time
        breaker.record_failure()  # trial failed -> re-open
        assert breaker.state == "open"
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_snapshot_reports_open_interval(self):
        clock = ManualClock()
        breaker = CircuitBreaker(threshold=1, reset_s=30.0, clock=clock)
        breaker.record_failure()
        clock.advance(4.0)
        snap = breaker.snapshot()
        assert snap["state"] == "open"
        assert snap["open_for_s"] == pytest.approx(4.0)


# ----------------------------------------------------------------------
# Session pool
# ----------------------------------------------------------------------
class FakeSession:
    """Stand-in session: the pool never calls into it."""


def _put(pool, key, **kw):
    kw.setdefault("rung", "full")
    kw.setdefault("provenance", ("full: ok",))
    kw.setdefault("backend", "numpy")
    kw.setdefault("degraded", False)
    return pool.put(key, FakeSession(), **kw)


def _evicted():
    """Sessions dropped through the pool's evict path, process-wide."""
    return METRICS.counter("serve.pool_evict").value


class TestSessionPool:
    def test_miss_then_hit(self):
        pool = SessionPool(capacity=4)
        assert pool.pin("absent") is None
        entry = _put(pool, "k1")
        pool.unpin(entry)
        again = pool.pin("k1")
        assert again is entry
        pool.unpin(again)

    def test_lru_eviction_drops_the_victim(self):
        pool = SessionPool(capacity=2)
        a = _put(pool, "a"); pool.unpin(a)
        b = _put(pool, "b"); pool.unpin(b)
        pool.pin("a")  # refresh a; b is now LRU
        pool.unpin(a)
        before = _evicted()
        c = _put(pool, "c"); pool.unpin(c)
        assert _evicted() == before + 1
        assert pool.pin("b") is None
        assert pool.pin("a") is not None

    def test_pinned_entries_survive_eviction_pressure(self):
        pool = SessionPool(capacity=1)
        pinned = _put(pool, "hot")  # stays pinned
        before = _evicted()
        other = _put(pool, "cold")
        assert _evicted() == before
        assert len(pool) == 2  # transient overflow instead of a yank
        pool.unpin(pinned)
        pool.unpin(other)

    def test_racing_put_keeps_the_resident_entry(self):
        pool = SessionPool(capacity=4)
        first = _put(pool, "k")
        second = _put(pool, "k")
        assert second is first
        assert first.refs == 2
        pool.unpin(first)
        pool.unpin(first)

    def test_invalidate_prefix_evicts_all_rungs_of_a_matrix(self):
        pool = SessionPool(capacity=8)
        full = _put(pool, "fp1:full"); pool.unpin(full)
        ident = _put(pool, "fp1:identity"); pool.unpin(ident)
        other = _put(pool, "fp2:full"); pool.unpin(other)
        before = _evicted()
        assert pool.invalidate_prefix("fp1") == 2
        assert _evicted() == before + 2
        assert pool.pin("fp1:full") is None
        assert pool.pin("fp2:full") is other  # untouched
        pool.unpin(other)

    def test_invalidate_prefix_leaves_pinned_entries_running(self):
        pool = SessionPool(capacity=8)
        busy = _put(pool, "fp1:full")  # still pinned: a request is running
        before = _evicted()
        assert pool.invalidate_prefix("fp1") == 1
        assert _evicted() == before  # finishes on the detached session
        assert pool.pin("fp1:full") is None  # but no new pins find it
        pool.unpin(busy)

    def test_unpin_without_pin_raises(self):
        pool = SessionPool(capacity=4)
        entry = _put(pool, "k")
        pool.unpin(entry)
        with pytest.raises(AssertionError):
            pool.unpin(entry)

    def test_occupancy_snapshot(self):
        pool = SessionPool(capacity=4)
        entry = _put(pool, "k1", rung="identity", backend="numpy")
        occ = pool.occupancy()
        assert occ["capacity"] == 4 and occ["entries"] == 1 and occ["pinned"] == 1
        assert occ["keys"] == [
            {"key": "k1", "rung": "identity", "refs": 1, "backend": "numpy"}
        ]
        pool.unpin(entry)

    def test_eviction_fault_is_absorbed(self):
        pool = SessionPool(capacity=1)
        a = _put(pool, "a"); pool.unpin(a)
        faults = METRICS.counter("serve.pool_evict_fault")
        before = faults.value
        with FaultInjector(rate=1.0, seed=7, sites=["serve.pool_evict"]):
            b = _put(pool, "b")  # evicts a; injected fault must not escape
            pool.unpin(b)
        assert pool.pin("a") is None  # eviction still happened
        assert faults.value == before + 1  # the fault fired and was absorbed

    def test_clear_leaves_pinned_entries(self):
        pool = SessionPool(capacity=4)
        held = _put(pool, "held")
        loose = _put(pool, "loose"); pool.unpin(loose)
        before = _evicted()
        pool.clear()
        assert len(pool) == 1 and pool.pin("held") is held
        assert _evicted() == before + 1  # only the unpinned entry
        pool.unpin(held)
        pool.unpin(held)

    def test_capacity_holds_any_keys_without_eviction(self):
        # Four matrices at the default capacity of 8 must all stay warm,
        # including keys that an earlier hash-sharded layout (BLAKE2b
        # placement over 4 shards of 2) put on one shard, where each
        # insert evicted a sibling.
        def old_shard(key):
            digest = hashlib.blake2b(key.encode("utf-8"), digest_size=4).digest()
            return int.from_bytes(digest, "little") % 4

        candidates = [f"fp{i}:full" for i in range(64)]
        colliding = [k for k in candidates if old_shard(k) == 0][:4]
        assert len(colliding) == 4
        evicts = METRICS.counter("serve.pool_evict")
        for keys in (colliding, candidates[:4]):
            pool = SessionPool(capacity=8)
            before = evicts.value
            for _ in range(3):  # repeated rounds: every key stays a hit
                for key in keys:
                    entry = pool.pin(key) or _put(pool, key)
                    pool.unpin(entry)
            assert evicts.value == before
            assert len(pool) == 4


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------
class TestCoalescer:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_concurrent_submits_share_one_batch(self):
        async def scenario():
            coalescer = Coalescer()
            batches = []
            started = asyncio.Event()

            async def execute(key, members):
                batches.append(list(members))
                started.set()
                await asyncio.sleep(0.02)  # hold the key so others queue up
                return [m * 10 for m in members]

            first = asyncio.create_task(coalescer.submit("k", 1, execute))
            await started.wait()  # leader is mid-execute
            rest = [
                asyncio.create_task(coalescer.submit("k", n, execute))
                for n in (2, 3)
            ]
            results = await asyncio.gather(first, *rest)
            return batches, results

        batches, results = self._run(scenario())
        assert results == [10, 20, 30]
        assert [1] in batches
        assert [2, 3] in batches  # the queued pair rode one batch

    def test_exception_reaches_every_member(self):
        async def scenario():
            coalescer = Coalescer()

            async def execute(key, members):
                raise ReproIOError("batch blew up")

            tasks = [
                asyncio.create_task(coalescer.submit("k", n, execute))
                for n in (1, 2)
            ]
            out = []
            for task in tasks:
                with pytest.raises(ReproIOError):
                    await task
                out.append(True)
            return out

        assert self._run(scenario()) == [True, True]

    def test_distinct_keys_do_not_serialise(self):
        async def scenario():
            coalescer = Coalescer()
            order = []

            async def execute(key, members):
                order.append(("start", key))
                await asyncio.sleep(0.01)
                order.append(("end", key))
                return members

            await asyncio.gather(
                coalescer.submit("a", 1, execute),
                coalescer.submit("b", 2, execute),
            )
            return order

        order = self._run(scenario())
        assert order[0][0] == "start" and order[1][0] == "start"  # overlapped


# ----------------------------------------------------------------------
# Config + address parsing
# ----------------------------------------------------------------------
class TestServeConfig:
    def test_defaults_validate(self):
        ServeConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"pool_sessions": 0},
            {"workers": 0},
            {"quota_rate": 0.0},
            {"shed_depths": (5, 3)},
            {"shed_depths": (1, 2, 3, 4)},
            {"default_deadline_s": 0.0},
            {"backend": "no-such-backend"},
        ],
    )
    def test_invalid_values_raise_config_error(self, kw):
        with pytest.raises((ConfigError, Exception)):
            ServeConfig(**kw)

    def test_address_forms(self):
        assert ServeConfig(host="h", port=9).address() == ("h", 9)
        assert ServeConfig(unix_path="/tmp/x.sock").address() == "/tmp/x.sock"


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.1:7077") == ("10.0.0.1", 7077)
        assert parse_address(":7077") == ("127.0.0.1", 7077)

    def test_unix_path(self):
        assert parse_address("/run/repro.sock") == "/run/repro.sock"

    @pytest.mark.parametrize("bad", ["nocolon", "host:notaport"])
    def test_invalid(self, bad):
        with pytest.raises(ValidationError):
            parse_address(bad)


class TestServeClientConnect:
    def test_failed_connect_closes_its_socket(self, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ReproIOError):
                ServeClient(str(tmp_path / "missing.sock"))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# ----------------------------------------------------------------------
# End-to-end over real sockets
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served(request):
    """One shared server + reference plan for the end-to-end tests."""
    rng = np.random.default_rng(777)
    csr = random_csr(rng, 48, 36, density=0.12)
    config = ServeConfig(port=0, workers=2, panel_height=8, chunk_k=16)
    from repro.reorder import build_plan

    plan = build_plan(csr, config.reorder_config())
    thread = ServerThread(config).start()
    yield {"thread": thread, "csr": csr, "plan": plan, "rng": rng}
    thread.stop()


class TestServerEndToEnd:
    def test_ping(self, served):
        with ServeClient(served["thread"].address) as client:
            resp = client.ping()
            assert resp["status"] == STATUS_OK and resp["pong"] is True

    def test_upload_then_spmm_is_bitwise_vs_plan_session(self, served):
        csr, plan = served["csr"], served["plan"]
        X = np.asarray(served["rng"].random((csr.n_cols, 40)), dtype=np.float64)
        expected = plan.session(chunk_k=16).run(X).copy()
        with ServeClient(served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            resp = client.spmm(X, fingerprint=fingerprint, request_id=11)
            assert resp["status"] == STATUS_OK
            assert resp["id"] == 11
            assert resp["rung"] == "full" and resp["degraded"] is False
            np.testing.assert_array_equal(
                ServeClient.result_array(resp), expected
            )

    def test_inline_matrix_spmm(self, served):
        csr, plan = served["csr"], served["plan"]
        X = np.asarray(served["rng"].random((csr.n_cols, 3)), dtype=np.float64)
        expected = plan.session(chunk_k=16).run(X).copy()
        with ServeClient(served["thread"].address) as client:
            resp = client.spmm(X, matrix=csr)
            assert resp["status"] == STATUS_OK
            np.testing.assert_array_equal(
                ServeClient.result_array(resp), expected
            )

    def test_unknown_fingerprint_is_not_found(self, served):
        X = np.ones((served["csr"].n_cols, 2))
        with ServeClient(served["thread"].address) as client:
            resp = client.spmm(X, fingerprint="deadbeef")
            assert resp["status"] == STATUS_NOT_FOUND

    def test_missing_operand_is_an_error(self, served):
        with ServeClient(served["thread"].address) as client:
            resp = client.request({"op": "spmm", "fingerprint": "x"})
            assert resp["status"] in (STATUS_ERROR, STATUS_NOT_FOUND)
            resp = client.request({"op": "spmm"})
            assert resp["status"] == STATUS_ERROR

    def test_malformed_line_gets_error_response_not_disconnect(self, served):
        with ServeClient(served["thread"].address) as client:
            client._sock.sendall(b"this is not json\n")
            resp = decode_message(client._file.readline())
            assert resp["status"] == STATUS_ERROR
            assert client.ping()["status"] == STATUS_OK  # connection survives

    def test_oversized_declared_shape_is_rejected_before_allocating(self, served):
        with ServeClient(served["thread"].address) as client:
            resp = client.request(
                {"op": "upload", "matrix": {
                    "shape": [2**40, 1], "rows": [], "cols": [], "values": [],
                }}
            )
            assert resp["status"] == STATUS_ERROR
            assert "FormatError" in resp["error"]
            assert client.health()["ready"] is True  # the server still answers

    def test_boolean_deadline_is_an_error(self, served):
        csr = served["csr"]
        X = np.ones((csr.n_cols, 2))
        with ServeClient(served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            resp = client.spmm(X, fingerprint=fingerprint, deadline_s=True)
            assert resp["status"] == STATUS_ERROR
            assert "deadline_s" in resp["error"]

    def test_unknown_op_is_an_error(self, served):
        with ServeClient(served["thread"].address) as client:
            resp = client.request({"op": "explode"})
            assert resp["status"] == STATUS_ERROR and "unknown op" in resp["error"]

    def test_expired_deadline_is_reported_not_wrong(self, served):
        csr = served["csr"]
        X = np.ones((csr.n_cols, 4))
        with ServeClient(served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            resp = client.spmm(X, fingerprint=fingerprint, deadline_s=1e-9)
            assert resp["status"] == STATUS_DEADLINE_EXCEEDED
            assert "result" not in resp

    def test_health_and_metrics(self, served):
        with ServeClient(served["thread"].address) as client:
            health = client.health()
            assert health["ready"] is True and health["draining"] is False
            assert health["pool"]["capacity"] == 8
            assert "in_flight" in health["admission"]
            assert health["breaker"]["state"] == "closed"
            metrics = client.metrics()
            assert metrics["status"] == STATUS_OK
            assert "serve.requests" in metrics["metrics"]
            assert metrics["metrics"]["serve.requests"] >= 1


def _raw_connection(address):
    """A bare socket to the server plus a reader over it: for frames no
    well-behaved client would send."""
    sock = socket.create_connection(address, timeout=10.0)
    return sock, sock.makefile("rb")


def _spmm_header(fingerprint, descriptor, **fields):
    return encode_message({"op": "spmm", "fingerprint": fingerprint,
                           "x": descriptor, **fields})


class TestFramedWire:
    """Protocol 2 over real sockets: bad frames are refused before their
    payload is read, and every refusal leaves the server (and, where the
    stream is still in step, the connection) serving bitwise results."""

    def _oracle(self, served, X):
        return served["plan"].session(chunk_k=16).run(X).copy()

    @pytest.mark.parametrize("descriptor, word", BAD_DESCRIPTORS)
    def test_bad_descriptor_is_refused_then_the_connection_closes(
        self, served, descriptor, word
    ):
        address = served["thread"].address
        with ServeClient(address) as client:
            fingerprint = client.upload(served["csr"])["fingerprint"]
        sock, reader = _raw_connection(address)
        with sock, reader:
            # No payload follows: the answer must not wait for one.
            sock.sendall(_spmm_header(fingerprint, descriptor, id=5))
            response = decode_message(reader.readline())
            assert response["status"] == STATUS_ERROR
            assert response["id"] == 5
            assert "FormatError" in response["error"] and word in response["error"]
            assert reader.readline() == b""  # closed: the stream is out of step
        with ServeClient(address) as client:
            assert client.health()["ready"] is True

    def test_disconnect_mid_payload_leaves_the_server_serving(self, served):
        address = served["thread"].address
        csr = served["csr"]
        X = served["rng"].random((csr.n_cols, 4))
        with ServeClient(address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
        frame = dense_frame(X)
        sock, reader = _raw_connection(address)
        with sock, reader:
            sock.sendall(_spmm_header(fingerprint, frame.descriptor))
            sock.sendall(frame.payload[: len(frame.payload) // 2])
        with ServeClient(address) as client:
            assert client.health()["ready"] is True
            resp = client.spmm(X, fingerprint=fingerprint)
            assert resp["status"] == STATUS_OK
            np.testing.assert_array_equal(
                ServeClient.result_array(resp), self._oracle(served, X)
            )

    def test_json_list_operand_is_an_error_naming_protocol_2(self, served):
        csr = served["csr"]
        X = served["rng"].random((csr.n_cols, 2))
        with ServeClient(served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            resp = client.request(
                {"op": "spmm", "fingerprint": fingerprint, "x": X.tolist()}
            )
            assert resp["status"] == STATUS_ERROR
            assert "protocol 2" in resp["error"]
            # No payload followed the list, so the connection is in step.
            good = client.spmm(X, fingerprint=fingerprint)
            assert good["status"] == STATUS_OK
            np.testing.assert_array_equal(
                ServeClient.result_array(good), self._oracle(served, X)
            )

    def test_not_found_consumes_its_frame(self, served):
        csr = served["csr"]
        X = served["rng"].random((csr.n_cols, 5))
        with ServeClient(served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            assert client.spmm(X, fingerprint="deadbeef")["status"] == STATUS_NOT_FOUND
            resp = client.spmm(X, fingerprint=fingerprint)
            assert resp["status"] == STATUS_OK
            np.testing.assert_array_equal(
                ServeClient.result_array(resp), self._oracle(served, X)
            )

    def test_quota_refusal_consumes_its_frame(self, rng):
        csr = random_csr(rng, 30, 20, density=0.2)
        config = ServeConfig(port=0, workers=1, panel_height=8, chunk_k=16,
                             tenant_quotas={"limited": (0.001, 1.0)})
        from repro.reorder import build_plan

        oracle = build_plan(csr, config.reorder_config()).session(chunk_k=16)
        X = rng.random((csr.n_cols, 7))
        with ServerThread(config) as srv, ServeClient(srv.address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            statuses = [
                client.spmm(X, fingerprint=fingerprint, tenant="limited")["status"]
                for _ in range(2)
            ]
            assert statuses == [STATUS_OK, STATUS_REJECTED_QUOTA]
            resp = client.spmm(X, fingerprint=fingerprint, tenant="other")
            assert resp["status"] == STATUS_OK
            np.testing.assert_array_equal(ServeClient.result_array(resp), oracle.run(X))

    def test_tcp_client_sends_frames_without_nagle_delay(self, served):
        # Header and payload are two writes: with Nagle on, the payload
        # waits for the header's delayed ACK, ~40 ms a request on Linux.
        with ServeClient(served["thread"].address) as client:
            assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_result_arrives_as_a_writable_float64_array(self, served):
        csr = served["csr"]
        X = served["rng"].random((csr.n_cols, 3))
        with ServeClient(served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            result = client.spmm(X, fingerprint=fingerprint)["result"]
        assert isinstance(result, np.ndarray) and result.dtype == np.float64
        assert result.shape == (csr.n_rows, 3) and result.flags.writeable


class TestClientShortRead:
    def test_server_closing_mid_payload_is_an_io_error(self):
        """A stub server answers with a full header and half its payload."""
        listener = socket.create_server(("127.0.0.1", 0))
        X = np.ones((3, 4))
        frame = dense_frame(X)
        header = encode_message({"status": STATUS_OK, "result": frame.descriptor})

        def stub():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as reader:
                reader.readline()
                reader.read(len(frame.payload))  # the whole request
                conn.sendall(header + bytes(frame.payload[:40]))

        thread = threading.Thread(target=stub)
        thread.start()
        try:
            with ServeClient(listener.getsockname()) as client:
                with pytest.raises(ReproIOError, match="40 of 96 result bytes"):
                    client.spmm(X, fingerprint="f")
        finally:
            thread.join(10.0)
            listener.close()
        assert not thread.is_alive()


@pytest.fixture()
def delta_served(rng):
    """A dedicated server per test: delta requests mutate the registry."""
    csr = random_csr(rng, 32, 24, density=0.15)
    config = ServeConfig(port=0, workers=2, panel_height=8, chunk_k=16)
    thread = ServerThread(config).start()
    yield {"thread": thread, "csr": csr, "rng": rng}
    thread.stop()


class TestServerDelta:
    def _delta(self, csr, rng, k=5):
        from repro.streaming import DeltaBatch

        return DeltaBatch(
            rows=rng.integers(0, csr.n_rows, size=k),
            cols=rng.integers(0, csr.n_cols, size=k),
            values=rng.normal(size=k),
        )

    def test_delta_rotates_fingerprint_and_serves_mutated(self, delta_served):
        csr, rng = delta_served["csr"], delta_served["rng"]
        delta = self._delta(csr, rng)
        mutated = delta.apply_to(csr)
        X = np.asarray(rng.random((csr.n_cols, 6)), dtype=np.float64)
        with ServeClient(delta_served["thread"].address) as client:
            old = client.upload(csr)["fingerprint"]
            resp = client.delta(old, delta)
            assert resp["status"] == STATUS_OK
            assert resp["previous_fingerprint"] == old
            assert resp["nnz"] == mutated.nnz
            assert resp["sessions_invalidated"] >= 0
            new = resp["fingerprint"]
            assert new != old
            got = client.spmm(X, fingerprint=new)
            assert got["status"] == STATUS_OK
            np.testing.assert_allclose(
                ServeClient.result_array(got), mutated.to_dense() @ X,
                rtol=1e-12, atol=1e-12,
            )
            # The pre-delta fingerprint no longer serves stale results.
            assert client.spmm(X, fingerprint=old)["status"] == STATUS_NOT_FOUND

    def test_delta_invalidates_warm_sessions(self, delta_served):
        csr, rng = delta_served["csr"], delta_served["rng"]
        delta = self._delta(csr, rng)
        X = np.asarray(rng.random((csr.n_cols, 4)), dtype=np.float64)
        with ServeClient(delta_served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            client.spmm(X, fingerprint=fingerprint)  # warms a pooled session
            resp = client.delta(fingerprint, delta)
            assert resp["status"] == STATUS_OK
            assert resp["sessions_invalidated"] >= 1

    def test_set_delta_updates_served_values(self, delta_served):
        from repro.streaming import DeltaBatch

        csr, rng = delta_served["csr"], delta_served["rng"]
        idx = np.sort(rng.choice(csr.nnz, size=3, replace=False))
        delta = DeltaBatch(
            rows=csr.row_ids()[idx], cols=csr.colidx[idx],
            values=rng.normal(size=3), mode="set",
        )
        mutated = delta.apply_to(csr)
        X = np.eye(csr.n_cols)
        with ServeClient(delta_served["thread"].address) as client:
            old = client.upload(csr)["fingerprint"]
            new = client.delta(old, delta)["fingerprint"]
            got = ServeClient.result_array(client.spmm(X, fingerprint=new))
            np.testing.assert_allclose(
                got, mutated.to_dense(), rtol=1e-12, atol=1e-12
            )

    def test_delta_unknown_fingerprint_is_not_found(self, delta_served):
        csr, rng = delta_served["csr"], delta_served["rng"]
        with ServeClient(delta_served["thread"].address) as client:
            resp = client.delta("deadbeef", self._delta(csr, rng))
            assert resp["status"] == STATUS_NOT_FOUND

    def test_delta_growing_past_the_line_bound_is_an_error(self, delta_served):
        csr = delta_served["csr"]
        with ServeClient(delta_served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            resp = client.request(
                {"op": "delta", "fingerprint": fingerprint, "delta": {
                    "rows": [], "cols": [], "values": [], "new_rows": 2**40,
                }}
            )
            assert resp["status"] == STATUS_ERROR
            assert "line bound" in resp["error"]
            assert client.health()["ready"] is True

    def test_malformed_delta_is_an_error(self, delta_served):
        csr = delta_served["csr"]
        with ServeClient(delta_served["thread"].address) as client:
            fingerprint = client.upload(csr)["fingerprint"]
            resp = client.request(
                {"op": "delta", "fingerprint": fingerprint,
                 "delta": {"rows": "nope"}}
            )
            assert resp["status"] == STATUS_ERROR
            assert client.ping()["status"] == STATUS_OK  # connection survives


class TestServeLatencyClock:
    def test_latency_covers_the_response_encode(self, rng, monkeypatch):
        """``serve.latency_s`` and the shed controller's p95 time an
        admitted spmm from its line being read to its response being
        encoded, so a slow encode shows in both."""
        import repro.serve.server as server_module

        clock = ManualClock()
        real_encode = server_module.encode_message

        def slow_encode(message):
            clock.advance(1.0)
            return real_encode(message)

        monkeypatch.setattr(server_module, "encode_message", slow_encode)
        csr = random_csr(rng, 24, 16, density=0.2)
        config = ServeConfig(port=0, workers=1, panel_height=8)
        before = METRICS.snapshot().get("serve.latency_s", {})
        with ServerThread(config, clock=clock) as srv:
            with ServeClient(srv.address) as client:
                fingerprint = client.upload(csr)["fingerprint"]
                resp = client.spmm(np.ones((csr.n_cols, 2)), fingerprint=fingerprint)
                assert resp["status"] == STATUS_OK
            p95 = srv.server.shedder.p95()
        after = METRICS.snapshot()["serve.latency_s"]
        assert after["count"] - before.get("count", 0) == 1
        assert after["sum"] - before.get("sum", 0.0) == pytest.approx(1.0)
        assert p95 == pytest.approx(1.0)


class TestServerDrain:
    def test_drain_rejects_new_work_then_closes(self, rng):
        csr = random_csr(rng, 20, 16, density=0.2)
        config = ServeConfig(port=0, workers=1, panel_height=8)
        thread = ServerThread(config).start()
        try:
            with ServeClient(thread.address) as client:
                fingerprint = client.upload(csr)["fingerprint"]
                assert client.drain()["draining"] is True
            # The server refuses new spmm work while draining/closed:
            # either an explicit `draining` status or a closed socket.
            try:
                with ServeClient(thread.address, timeout=2.0) as late:
                    resp = late.spmm(
                        np.ones((csr.n_cols, 1)), fingerprint=fingerprint
                    )
                    assert resp["status"] == STATUS_DRAINING
            except ReproIOError:
                pass  # listener already closed: equally correct
            thread._thread.join(10.0)
            assert not thread._thread.is_alive()
        finally:
            thread.stop()


class TestDoctorServeProbe:
    def test_probe_running_server(self, served):
        from repro.resilience.doctor import doctor_report, serve_health

        host, port = served["thread"].address
        health = serve_health(f"{host}:{port}")
        assert health["reachable"] and health["ready"]
        text, problems = doctor_report(serve_address=f"{host}:{port}")
        assert not problems
        assert "pool:" in text and "admission:" in text and "breaker" in text

    def test_probe_unreachable_server(self):
        from repro.resilience.doctor import doctor_report, serve_health

        health = serve_health("127.0.0.1:1")  # nothing listens on port 1
        assert health["reachable"] is False
        text, problems = doctor_report(serve_address="127.0.0.1:1")
        assert problems and "UNREACHABLE" in text
