"""In-process LRU tier of the plan store.

A bounded mapping ``key -> PlanDecisions`` with two independent capacity
limits (entry count and estimated bytes) and hit/miss/eviction counters.
Bounded because a long-lived serving process sees an unbounded stream of
matrices; counted because cache behaviour is a first-class experimental
quantity in this repo (cf. :mod:`repro.gpu.cache`).

Thread-safe: a single lock guards the ordered map, so a multi-threaded
server can share one cache (CPython's pipeline work releases the GIL in
NumPy anyway; the critical sections here are dict moves).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.observability.metrics import METRICS
from repro.planstore.decisions import PlanDecisions

__all__ = ["CacheStats", "LRUPlanCache"]


class CacheStats:
    """Counters of one cache tier (all monotonically non-decreasing).

    ``hit``/``miss``/``evict``/``put`` are per-tier children of the
    process-global ``planstore.*`` instruments of the same names (see
    :mod:`repro.observability.metrics`): a tier records an event with
    ``stats.hit.inc()``, which also rolls up into the registry.  The
    plural properties read this tier's totals.
    """

    __slots__ = ("hit", "miss", "evict", "put")

    def __init__(self) -> None:
        self.hit = METRICS.counter("planstore.hit", "plan-cache lookups served").child()
        self.miss = METRICS.counter("planstore.miss", "plan-cache lookups that missed").child()
        self.evict = METRICS.counter("planstore.evict", "plan-cache entries evicted").child()
        self.put = METRICS.counter("planstore.put", "plan-cache inserts").child()

    @property
    def hits(self) -> int:
        """Lookups served by this tier."""
        return self.hit.value

    @property
    def misses(self) -> int:
        """Lookups this tier could not serve."""
        return self.miss.value

    @property
    def evictions(self) -> int:
        """Entries dropped to stay within capacity."""
        return self.evict.value

    @property
    def puts(self) -> int:
        """Inserts accepted by this tier."""
        return self.put.value

    def as_dict(self) -> dict:
        """Plain-dict view (for logging / CLI reporting)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "puts": self.puts,
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, puts={self.puts})"
        )


@dataclass
class LRUPlanCache:
    """Bounded in-memory ``key -> PlanDecisions`` map with LRU eviction.

    ``max_entries`` and ``max_bytes`` are both enforced after every
    insert; whichever is tighter wins.  A single entry larger than
    ``max_bytes`` is still admitted alone (the bound then holds again as
    soon as anything else arrives), matching the usual clamp-not-reject
    cache semantics.
    """

    max_entries: int = 256
    max_bytes: int = 64 * 1024 * 1024
    stats: CacheStats = field(default_factory=CacheStats)
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _bytes: int = field(default=0, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self):
        if self.max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {self.max_entries}")
        if self.max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {self.max_bytes}")

    # ------------------------------------------------------------------
    def get(self, key: str) -> PlanDecisions | None:
        """Return the cached decisions for ``key`` (None on miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.miss.inc()
                return None
            self._entries.move_to_end(key)
            self.stats.hit.inc()
            return entry

    def put(self, key: str, decisions: PlanDecisions) -> None:
        """Insert (or refresh) ``key``; evicts LRU entries over capacity."""
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = decisions
            self._bytes += decisions.nbytes
            self.stats.put.inc()
            while len(self._entries) > self.max_entries or (
                self._bytes > self.max_bytes and len(self._entries) > 1
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.stats.evict.inc()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Membership test that does not touch LRU order or counters."""
        with self._lock:
            return key in self._entries

    @property
    def current_bytes(self) -> int:
        """Estimated bytes currently held."""
        return self._bytes

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
