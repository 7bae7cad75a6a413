"""Retry + circuit-breaker armor for the spill tier.

The spill store is an *optimization*: every snapshot it holds can be
rebuilt from version storage, so no store failure ever has to fail a
job.  :class:`ResilientStore` encodes that exactly — it wraps a
:class:`~repro.service.store.SnapshotStore` and turns the failure
modes into degradation:

* transient errors (injected :class:`TransientInjectedFault`,
  ``OSError``, ``sqlite3.OperationalError``) are retried with backoff
  (:class:`~repro.faults.retry.RetryPolicy`);
* a put that still fails is *dropped* — the snapshot simply isn't
  demoted, the next request rebuilds it;
* a get/fetch that still fails reports a *miss* — the session rebuilds
  from storage;
* repeated failures trip the :class:`~repro.faults.breaker.CircuitBreaker`
  open, after which calls short-circuit (cache-only operation) until a
  half-open probe succeeds.

Everything is counted (:meth:`resilience_stats`) and surfaced through
``ReenactmentService.stats()`` / ``.metrics()``.  The other lifecycle
and inventory methods (``close``/``inventory``/``realms``/...)
delegate unprotected: their failures are operator-facing, not
degradable.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Dict, List, Optional, Tuple

from repro.faults.breaker import CircuitBreaker
from repro.faults.retry import RetryPolicy
from repro.faults.inject import TransientInjectedFault

__all__ = ["ResilientStore"]

#: what the spill tier treats as transient (retry before degrading).
SPILL_RETRYABLE = (TransientInjectedFault, OSError,
                   sqlite3.OperationalError)


class ResilientStore:
    """Degrading wrapper around a snapshot store (see module doc).

    Duck-type compatible with :class:`SnapshotStore` everywhere
    sessions touch it (``put``/``get``/``fetch_many``/``in``) and
    everywhere the service does (``inventory``, ``close``,
    ``stats``, ...); unknown attributes delegate to the inner store.
    """

    def __init__(self, store,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None):
        self.inner = store
        self.retry = retry if retry is not None \
            else RetryPolicy(retryable=SPILL_RETRYABLE)
        self.breaker = breaker if breaker is not None \
            else CircuitBreaker()
        self._lock = threading.Lock()
        #: puts dropped (breaker open, or retries exhausted).
        self.spills_dropped = 0
        #: lookups degraded to a miss (breaker open or failure).
        self.reads_degraded = 0
        #: operations that failed after the full retry budget.
        self.store_errors = 0
        self.last_error: Optional[BaseException] = None

    # -- protected spill/rehydrate surface ---------------------------------

    def put(self, realm, table: str, ts: int,
            rows: List[Tuple]) -> None:
        if not self.breaker.allow():
            with self._lock:
                self.spills_dropped += 1
            return
        try:
            self.retry.call(self.inner.put, realm, table, ts, rows,
                            site="store.spill")
        except Exception as exc:
            self._note_failure(exc)
            with self._lock:
                self.spills_dropped += 1
        else:
            self.breaker.record_success()

    def get(self, realm, table: str,
            ts: int) -> Optional[List[Tuple]]:
        if not self.breaker.allow():
            with self._lock:
                self.reads_degraded += 1
            return None
        try:
            rows = self.retry.call(self.inner.get, realm, table, ts,
                                   site="store.rehydrate")
        except Exception as exc:
            self._note_failure(exc)
            with self._lock:
                self.reads_degraded += 1
            return None
        self.breaker.record_success()
        return rows

    def fetch_many(self, realm, pairs
                   ) -> Dict[Tuple[str, int], List[Tuple]]:
        pairs = list(pairs)
        if not self.breaker.allow():
            with self._lock:
                self.reads_degraded += 1
            return {}
        try:
            out = self.retry.call(self.inner.fetch_many, realm, pairs,
                                  site="store.rehydrate")
        except Exception as exc:
            self._note_failure(exc)
            with self._lock:
                self.reads_degraded += 1
            return {}
        self.breaker.record_success()
        return out

    def __contains__(self, key: Tuple) -> bool:
        # a false negative only costs a redundant (and then dropped or
        # deduplicated) spill, so degrade to "not stored"
        if not self.breaker.allow():
            with self._lock:
                self.reads_degraded += 1
            return False
        try:
            held = self.retry.call(self.inner.__contains__, key,
                                   site="store.contains")
        except Exception as exc:
            self._note_failure(exc)
            with self._lock:
                self.reads_degraded += 1
            return False
        self.breaker.record_success()
        return held

    def _note_failure(self, exc: BaseException) -> None:
        with self._lock:
            self.store_errors += 1
            self.last_error = exc
        self.breaker.record_failure()

    # -- observability ------------------------------------------------------

    def resilience_stats(self) -> Dict[str, int]:
        """Numeric counters for ``ServiceStats.resilience`` (and the
        metrics projection): retry budget, degradation and breaker
        activity."""
        retry = self.retry.stats()
        breaker = self.breaker.stats()
        with self._lock:
            return {
                "retries": retry["retries"],
                "retries_exhausted": retry["exhausted"],
                "spills_dropped": self.spills_dropped,
                "reads_degraded": self.reads_degraded,
                "store_errors": self.store_errors,
                "breaker_trips": breaker["trips"],
                "breaker_short_circuits": breaker["short_circuits"],
                "breaker_open": breaker["open"],
            }

    # -- delegation ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, name):
        # lifecycle, inventory and stats surface of the wrapped store
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ResilientStore {self.breaker.state} "
                f"over {self.inner!r}>")
