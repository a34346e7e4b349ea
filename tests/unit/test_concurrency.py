"""Concurrency properties of the primitives the serve layer leans on.

Two invariants the server's correctness story depends on, exercised with
real thread contention:

* a :class:`~repro.resilience.Deadline` never *un-expires* — once any
  observer has seen ``expired() == True`` every later observation agrees,
  even when the injected clock moves backwards (NTP step, test clock
  reuse) and many threads race on the same instance;
* :class:`~repro.serve.SessionPool` pin refcounts return to zero — every
  pin is matched by an unpin under concurrent pin/put/unpin from many
  threads, so no entry is left un-evictable.
"""

import threading

import numpy as np
import pytest

from repro.errors import TimeoutExceeded
from repro.resilience import Deadline
from repro.serve import SessionPool

from conftest import FakeClock


class TestDeadlineNeverUnexpires:
    def test_backwards_clock_cannot_resurrect_a_deadline(self):
        clock = FakeClock(start=0.0, step=0.0)
        deadline = Deadline.after(5.0, clock=clock)
        assert not deadline.expired()
        clock.advance(10.0)  # past the budget
        assert deadline.expired()
        clock.advance(-10.0)  # clock steps backwards below the budget
        assert deadline.expired()  # latched: still expired
        with pytest.raises(TimeoutExceeded):
            deadline.check("stage")

    def test_remaining_may_disagree_but_expired_is_latched(self):
        clock = FakeClock(start=0.0, step=0.0)
        deadline = Deadline.after(1.0, clock=clock)
        clock.advance(2.0)
        assert deadline.expired()
        clock.advance(-2.0)
        assert deadline.remaining() > 0  # raw arithmetic view
        assert deadline.expired()  # the decision is latched anyway

    def test_unexpired_deadline_stays_unexpired_while_budget_remains(self):
        clock = FakeClock(start=0.0, step=0.0)
        deadline = Deadline.after(100.0, clock=clock)
        for _ in range(10):
            clock.advance(1.0)
            assert not deadline.expired()

    def test_many_threads_agree_once_anyone_saw_expiry(self):
        # A shared clock that wobbles: each read jitters +/- around a
        # slowly advancing base, crossing the deadline repeatedly from
        # both sides.  The property: after the first True observation,
        # no thread ever observes False again.
        lock = threading.Lock()
        state = {"base": 0.0, "n": 0}

        def wobbly_clock():
            with lock:
                state["n"] += 1
                state["base"] += 0.001
                jitter = ((state["n"] * 2654435761) % 1000) / 1000.0 - 0.5
                return state["base"] + jitter

        deadline = Deadline.after(1.0, clock=wobbly_clock)
        saw_expired = threading.Event()
        violations = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(2000):
                value = deadline.expired()
                if value:
                    saw_expired.set()
                elif saw_expired.is_set():
                    violations.append("un-expired after expiry was observed")
                    return

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert saw_expired.is_set()  # the wobble did cross the deadline
        assert violations == []


class TestSessionPoolPinBalance:
    class _Session:
        """Stand-in session: the pool never calls into it."""

    def test_refcounts_return_to_zero_under_concurrent_pin_unpin(self):
        pool = SessionPool(capacity=4)
        keys = [f"matrix-{i}:full" for i in range(6)]  # > capacity: evicts
        threads_n, iterations = 8, 250
        errors = []
        barrier = threading.Barrier(threads_n)

        def worker(seed):
            rng = np.random.default_rng(seed)
            barrier.wait()
            try:
                for _ in range(iterations):
                    key = keys[int(rng.integers(len(keys)))]
                    entry = pool.pin(key)
                    if entry is None:
                        entry = pool.put(
                            key,
                            self._Session(),
                            rung="full",
                            provenance=("full: ok",),
                            backend="numpy",
                            degraded=False,
                        )
                    if entry.refs < 1:
                        errors.append(f"pinned entry {key} with refs < 1")
                    pool.unpin(entry)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        occupancy = pool.occupancy()
        # Every pin was matched by an unpin: nothing is left pinned.
        assert occupancy["pinned"] == 0
        assert all(entry["refs"] == 0 for entry in occupancy["keys"])
        # clear() only evicts refs == 0 entries, so an empty pool after
        # clear proves no pin leaked anywhere.
        pool.clear()
        assert len(pool) == 0
