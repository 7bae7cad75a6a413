"""The service result cache: whole-job deduplication.

Snapshot sharing (the spill store) deduplicates the *inputs* of
reenactment; this cache deduplicates the *outputs*.  The serving
workload the paper's demo implies — many analysts probing the same
recent suspect transactions — is heavy with exact repeats, and a
reenactment is a pure function of ``(transaction, options, history
version)``: the audit log is append-only and reenactment never writes,
so a cached result is valid until new commits change the history the
job's fingerprint was minted against.  That history version (the
database's logical clock at submission) is **part of the key**, which
is how staleness is handled: results are never invalidated, they are
simply keyed under a version no future lookup asks for once the
database moves on.

In-flight deduplication (two identical jobs submitted concurrently run
once and share one handle) lives in the scheduler; this module is the
completed-results tier under it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Optional, Tuple

from repro.errors import ServiceError
from repro.obs.metrics import StatsView


@dataclass
class ResultCacheStats(StatsView):
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class ResultCache:
    """Thread-safe LRU of finished job results, keyed by job
    fingerprint (``(kind, xid, options-fingerprint, db-version)`` for
    reenact jobs — see :meth:`repro.service.jobs.Job.cache_key`).

    Jobs that cannot be fingerprinted (what-if fleets carry arbitrary
    scenario-editing callables) return ``None`` from ``cache_key`` and
    bypass the cache entirely.
    """

    def __init__(self, capacity: Optional[int] = 256):
        if capacity is not None and capacity < 1:
            raise ServiceError(
                f"result cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = ResultCacheStats()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """``(hit, value)`` — a two-tuple rather than a sentinel, since
        ``None`` is never a job result but defensiveness is cheap."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return True, self._entries[key]
            self.stats.misses += 1
            return False, None

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if self.capacity is not None:
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
