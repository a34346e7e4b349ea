"""Bounded pool of warm :class:`~repro.kernels.KernelSession`.

The serving economics of the paper live here: a plan build costs orders
of magnitude more than a multiply, so the server keeps sessions (pinned
plan + compiled artifact + output buffers) warm across requests, keyed by the
matrix fingerprint *and* the degradation-ladder rung the plan was built
at (a shed request must never be served a weaker plan later without its
provenance saying so, nor a degraded session outlive the pressure that
created it under a full-rung key).

Robustness properties:

* **bounded** — at most ``capacity`` sessions in one LRU under one lock,
  so a pool of N holds any N keys; inserting past the bound evicts
  least-recently-used entries;
* **in-flight pinning** — an entry serving a request carries a non-zero
  refcount and is never evicted, however stale; the pool may
  transiently exceed its bound rather than yank a session mid-multiply;
* **instrumented** — ``serve.pool_hit`` / ``serve.pool_miss`` /
  ``serve.pool_evict`` counters plus ``serve.pool_size`` /
  ``serve.pool_pinned`` gauges feed the health endpoint;
* **chaos-covered** — eviction crosses the ``serve.pool_evict`` fault
  site; an injected eviction fault is absorbed (counted as
  ``serve.pool_evict_fault``), never propagated into a request.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ReproError
from repro.observability.metrics import METRICS
from repro.resilience.faults import fault_point

__all__ = ["PooledSession", "SessionPool"]


class PooledSession:
    """One warm pool entry: a session plus its serving metadata."""

    __slots__ = ("key", "session", "rung", "provenance", "backend", "degraded", "refs")

    def __init__(self, key, session, *, rung, provenance, backend, degraded):
        self.key = key
        self.session = session
        self.rung = rung
        self.provenance = tuple(provenance)
        self.backend = backend
        self.degraded = bool(degraded)
        self.refs = 0  # guarded by the pool lock


class SessionPool:
    """LRU session cache with in-flight pinning (see module docstring).

    The pool is written to from executor threads and read by the event
    loop's health endpoint; one lock guards the table.  Critical sections
    are short table operations, so contention stays negligible next to
    the multiply they bracket.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = METRICS.counter(
            "serve.pool_hit", "warm-session pool hits"
        )
        self._misses = METRICS.counter(
            "serve.pool_miss", "warm-session pool misses"
        )
        self._evicts = METRICS.counter(
            "serve.pool_evict", "warm sessions evicted (LRU, unpinned only)"
        )
        self._evict_faults = METRICS.counter(
            "serve.pool_evict_fault", "absorbed faults during session eviction"
        )
        self._size = METRICS.gauge("serve.pool_size", "warm sessions resident")
        self._pinned = METRICS.gauge(
            "serve.pool_pinned", "warm sessions currently serving requests"
        )

    # ------------------------------------------------------------------
    def pin(self, key: str) -> PooledSession | None:
        """Look up and pin a warm entry (``None`` on miss).

        A pinned entry cannot be evicted until :meth:`unpin` releases it;
        callers pair the two in try/finally around the multiply.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
            entry.refs += 1
        self._hits.inc()
        self._pinned.add(1)
        return entry

    def unpin(self, entry: PooledSession) -> None:
        """Release one pin taken by :meth:`pin` or :meth:`put`."""
        with self._lock:
            if entry.refs < 1:
                raise AssertionError(f"unpin without pin on {entry.key!r}")
            entry.refs -= 1
        self._pinned.add(-1)

    def put(self, key: str, session, *, rung, provenance, backend, degraded) -> PooledSession:
        """Insert a freshly built session, returned already pinned.

        When two builders race on the same key the first insert wins and
        the loser's session is discarded (the returned entry is always
        the resident one).  Inserting past ``capacity`` evicts LRU
        entries with zero refs; pinned entries survive, so the pool can
        transiently overflow under pressure rather than break an
        in-flight multiply.
        """
        made = PooledSession(
            key, session, rung=rung, provenance=provenance,
            backend=backend, degraded=degraded,
        )
        evicted = []
        with self._lock:
            resident = self._entries.get(key)
            if resident is not None:
                self._entries.move_to_end(key)
                resident.refs += 1
                entry = resident
            else:
                made.refs = 1
                self._entries[key] = made
                entry = made
                # LRU scan from the cold end; skip pinned entries.
                while len(self._entries) > self.capacity:
                    victim_key = next(
                        (k for k, e in self._entries.items() if e.refs == 0),
                        None,
                    )
                    if victim_key is None:
                        break  # everything pinned: transient overflow
                    evicted.append(self._entries.pop(victim_key))
        for victim in evicted:
            self._evict(victim)
        self._pinned.add(1)
        self._size.set(len(self))
        return entry

    def _evict(self, victim: PooledSession) -> None:
        """Drop one evicted session; an injected fault here is absorbed."""
        self._evicts.inc()
        try:
            fault_point("serve.pool_evict")
        except ReproError:
            # Eviction is best-effort cleanup: the entry is already out
            # of the table, a failure must never surface into a request.
            self._evict_faults.inc()

    def invalidate_prefix(self, fingerprint: str) -> int:
        """Drop every warm entry for ``fingerprint`` (any rung).

        The streaming path: a ``delta`` request replaces a registered
        matrix, so sessions pinned to its old fingerprint must never
        serve another multiply.  Entries are removed from the table
        immediately; unpinned ones are dropped through the normal evict
        path, in-flight ones finish their current multiply on the
        detached object and are garbage-collected on unpin.  Returns the
        number of entries invalidated.
        """
        prefix = f"{fingerprint}:"
        with self._lock:
            doomed = [k for k in self._entries if k.startswith(prefix)]
            dropped = [self._entries.pop(k) for k in doomed]
        for entry in dropped:
            if entry.refs == 0:
                self._evict(entry)
        if dropped:
            METRICS.counter(
                "serve.pool_invalidate",
                "warm sessions invalidated by streaming deltas",
            ).inc(len(dropped))
        self._size.set(len(self))
        return len(dropped)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def occupancy(self) -> dict:
        """Health-endpoint snapshot: entries, pin counts and keys (LRU first)."""
        with self._lock:
            keys = [
                {"key": k, "rung": e.rung, "refs": e.refs, "backend": e.backend}
                for k, e in self._entries.items()
            ]
        return {
            "capacity": self.capacity,
            "entries": len(keys),
            "pinned": sum(1 for k in keys if k["refs"]),
            "keys": keys,
        }

    def clear(self) -> None:
        """Evict every unpinned entry (tests and drain shutdown)."""
        with self._lock:
            idle = [k for k, e in self._entries.items() if e.refs == 0]
            evicted = [self._entries.pop(k) for k in idle]
        for victim in evicted:
            self._evict(victim)
        self._size.set(len(self))
