"""Request coalescing: batch concurrent same-matrix multiplies.

SpMM is column-independent — output column ``j`` of ``A @ X`` depends
only on input column ``j``, with an accumulation order that does not
change when unrelated columns sit beside it (the kernels chunk over K
already).  So when several requests for the *same* session key arrive
concurrently, the server can stack their operands side by side, run one
multiply, and slice each requester's columns back out — bitwise-identical
to serving them one at a time, but paying the per-call overhead (session
pin, span, fault bookkeeping) once.

The :class:`Coalescer` implements single-flight batching per key: the
first arrival for a key becomes the *leader* and executes the batch; any
request landing while the leader holds the key's lock becomes a
*passenger* whose future the leader resolves.  Passengers never execute;
leaders drain the whole pending list atomically before running.
"""

from __future__ import annotations

import asyncio

from repro.observability.metrics import METRICS

__all__ = ["Coalescer"]


class Coalescer:
    """Single-flight batcher keyed by session key (see module docstring).

    Usage (from event-loop coroutines only)::

        result = await coalescer.submit(key, member, execute)

    ``member`` is an opaque per-request payload; ``execute`` is an async
    callable receiving ``(key, [member, ...])`` and returning a list of
    per-member results in the same order.  All members of one batch get
    their result (or the batch's exception) through their own future.
    """

    def __init__(self) -> None:
        self._pending: dict = {}  # key -> list[(member, future)]
        self._locks: dict = {}  # key -> asyncio.Lock
        self._coalesced = METRICS.counter(
            "serve.coalesced", "requests served as passengers of a coalesced batch"
        )
        self._batches = METRICS.counter(
            "serve.batches", "coalesced multiply batches executed"
        )

    def _lock_for(self, key: str) -> asyncio.Lock:
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = asyncio.Lock()
        return lock

    async def submit(self, key: str, member, execute):
        """Enqueue ``member`` under ``key``; return its result.

        Exactly one submitter per key executes at a time; the executing
        leader takes every member queued up to that moment in one batch.
        """
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._pending.setdefault(key, []).append((member, fut))
        lock = self._lock_for(key)
        while not fut.done():
            async with lock:
                if fut.done():
                    break
                batch = self._pending.pop(key, [])
                if not batch:
                    continue
                if len(batch) > 1:
                    self._coalesced.inc(len(batch) - 1)
                self._batches.inc()
                members = [m for m, _ in batch]
                try:
                    results = await execute(key, members)
                    if len(results) != len(members):
                        raise AssertionError(
                            f"execute returned {len(results)} results for "
                            f"{len(members)} members"
                        )
                except BaseException as exc:
                    for _, member_fut in batch:
                        if not member_fut.done():
                            member_fut.set_exception(exc)
                else:
                    for (_, member_fut), result in zip(batch, results):
                        if not member_fut.done():
                            member_fut.set_result(result)
        # Benign-race pruning: the lock object is recreated on demand, so
        # dropping it while another waiter holds a reference is safe.
        if not self._pending.get(key) and key in self._locks:
            if not self._locks[key].locked():
                self._locks.pop(key, None)
        return fut.result()
