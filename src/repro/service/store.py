"""The shared snapshot store: a disk-spill tier behind session caches.

Per-session :class:`~repro.backends.cache.SnapshotCache` instances are
hot tiers: temp tables on one connection, LRU-bounded, gone when the
session closes.  Before this store existed, eviction *destroyed* the
snapshot — the next request for the same ``(table, ts)`` state paid a
full rebuild (or a delta patch if a neighbor survived).  The
:class:`SnapshotStore` turns eviction into demotion: the evicted
snapshot's rows are saved into an on-disk SQLite database keyed by the
same ``(realm, table, ts)`` identity the session cache uses, and any
session attached to the store — including a *different* worker's
session in the reenactment service — rehydrates from it instead of
rebuilding from storage.

Only plain committed ``(table, ts)`` snapshots are stored (see
:func:`repro.backends.cache.spillable_key`): their contents are a pure
function of the version history, which MVCC storage never rewrites, so
a stored copy can never go stale while the database object lives.
Trigger-history provider snapshots embed Python object identities and
never enter the store.

The store is **thread-safe** (one connection guarded by a lock — spill
and rehydrate payloads are single executemany-scale operations, so the
lock is held for microseconds) and **bounded**: ``capacity`` caps the
number of stored snapshots, with least-recently-used entries deleted
first.  Rows are serialized with :mod:`pickle` (the values are the
engine's own ints/floats/strings/bools/None — fidelity matters more
than interchange here; the file is private scratch space).

Spilling is synchronous: :meth:`SnapshotStore.put` writes and
commits before it returns, so a spill is durable in the file — and
readable by any other connection to it — as soon as ``put`` is done.
:meth:`SnapshotStore.fetch_many` serves a whole planned snapshot set
in one lock acquisition and one SELECT.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import tempfile
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.faults.inject import fault_point
from repro.obs.metrics import StatsView
from repro.obs.trace import span


@dataclass
class StoreStats(StatsView):
    """Observable work the store performed (aggregate across every
    session attached to it)."""

    #: snapshots written (evictions demoted into the store).
    spills: int = 0
    #: lookups answered (a session rebuilt a temp table from us).
    rehydrations: int = 0
    #: lookups that found nothing.
    misses: int = 0
    #: stored snapshots deleted to honor the capacity bound.
    evictions: int = 0
    #: total rows written across all spills.
    rows_spilled: int = 0
    #: total rows served across all rehydrations.
    rows_rehydrated: int = 0
    #: multi-snapshot reads (:meth:`SnapshotStore.fetch_many` calls) —
    #: each is one lock acquisition + one SELECT however many
    #: snapshots it returns.
    batch_fetches: int = 0


class SnapshotStore:
    """On-disk spill tier for evicted snapshot temp tables.

    ``path`` is the SQLite file to use; ``None`` creates a private
    temporary file that is deleted on :meth:`close`.  ``capacity``
    bounds the number of stored snapshots (``None`` = unbounded).

    The ``realm`` half of every key is the **durable history id** of
    the `Database` a snapshot was taken from
    (:attr:`repro.db.engine.Database.history_id` — the same namespace
    the session caches use), so one store safely serves several
    databases, survives any one database *object*, and a recycled
    ``id()`` can never alias two histories.
    """

    def __init__(self, path: Optional[str] = None,
                 capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ServiceError(
                f"snapshot store capacity must be >= 1, got {capacity}")
        self._owns_file = path is None
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro_spill_",
                                        suffix=".sqlite")
            os.close(fd)
        self.path = path
        self.capacity = capacity
        self.stats = StoreStats()
        self._lock = threading.RLock()
        self._closed = False
        #: monotone recency counter — LRU without wall-clock time.
        self._tick = 0
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS snapshots ("
            "  skey TEXT PRIMARY KEY,"
            "  n_rows INTEGER NOT NULL,"
            "  payload BLOB NOT NULL,"
            "  last_used INTEGER NOT NULL)")
        self._conn.commit()

    # -- keying ------------------------------------------------------------

    @staticmethod
    def _skey(realm: int, table: str, ts: int) -> str:
        return f"{realm}:{table}:{ts}"

    # -- spill / rehydrate -------------------------------------------------

    def put(self, realm, table: str, ts: int,
            rows: List[Tuple]) -> None:
        """Save a snapshot's rows (idempotent: re-spilling a key
        replaces its payload — both copies describe the same immutable
        committed state, so either is correct).  Serialization happens
        outside the lock; concurrent writers of the same key are both
        correct, last one wins.  The write is committed before this
        returns."""
        with span("store.spill", table=table, ts=ts) as sp:
            sp.set("rows", len(rows))
            self._put(realm, table, ts, rows)

    def _put(self, realm, table: str, ts: int,
             rows: List[Tuple]) -> None:
        fault_point("store.spill", table=table)
        payload = pickle.dumps([tuple(row) for row in rows],
                               protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._check_open()
            fault_point("store.write")
            self._tick += 1
            self._conn.execute(
                "INSERT OR REPLACE INTO snapshots VALUES (?, ?, ?, ?)",
                (self._skey(realm, table, ts), len(rows), payload,
                 self._tick))
            self._enforce_capacity()
            self._conn.commit()
            self.stats.spills += 1
            self.stats.rows_spilled += len(rows)

    def get(self, realm, table: str,
            ts: int) -> Optional[List[Tuple]]:
        """The stored rows for a snapshot, refreshing its LRU recency —
        or ``None`` when the snapshot was never spilled (or has been
        evicted from the store).  Deserialization happens outside the
        lock, like :meth:`put`'s serialization, so concurrent
        rehydrations of large snapshots don't convoy behind it."""
        with span("store.rehydrate", table=table, ts=ts) as sp:
            rows = self._get(realm, table, ts)
            sp.set("outcome", "miss" if rows is None else "hit")
            if rows is not None:
                sp.set("rows", len(rows))
            return rows

    def _get(self, realm, table: str,
             ts: int) -> Optional[List[Tuple]]:
        fault_point("store.rehydrate", table=table)
        skey = self._skey(realm, table, ts)
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT payload FROM snapshots WHERE skey = ?",
                (skey,)).fetchone()
            if row is None:
                self.stats.misses += 1
                return None
            self._tick += 1
            self._conn.execute(
                "UPDATE snapshots SET last_used = ? WHERE skey = ?",
                (self._tick, skey))
            self._conn.commit()
        rows = pickle.loads(row[0])
        with self._lock:
            self.stats.rehydrations += 1
            self.stats.rows_rehydrated += len(rows)
        return rows

    def fetch_many(self, realm, pairs
                   ) -> Dict[Tuple[str, int], List[Tuple]]:
        """Every stored snapshot among ``pairs`` (an iterable of
        ``(table, ts)``), as one read: a single lock acquisition and a
        single SELECT serve the whole batch, and every found entry's
        LRU recency is refreshed in the same transaction — the
        store-aware half of pipelined priming, vs one :meth:`get`
        round-trip per snapshot.  Absent pairs are simply missing from
        the result."""
        with span("store.rehydrate_batch") as sp:
            out = self._fetch_many(realm, pairs)
            sp.set("found", len(out))
            return out

    def _fetch_many(self, realm, pairs
                    ) -> Dict[Tuple[str, int], List[Tuple]]:
        fault_point("store.rehydrate")
        wanted = {self._skey(realm, table, ts): (table, int(ts))
                  for table, ts in pairs}
        with self._lock:
            self._check_open()
            self.stats.batch_fetches += 1
            found = []
            if wanted:
                marks = ", ".join("?" * len(wanted))
                found = self._conn.execute(
                    f"SELECT skey, payload FROM snapshots "
                    f"WHERE skey IN ({marks})", list(wanted)).fetchall()
            if found:
                self._tick += 1
                self._conn.execute(
                    f"UPDATE snapshots SET last_used = ? WHERE "
                    f"skey IN ({', '.join('?' * len(found))})",
                    [self._tick] + [skey for skey, _ in found])
                self._conn.commit()
            self.stats.misses += len(wanted) - len(found)
        out = {wanted[skey]: pickle.loads(payload)
               for skey, payload in found}
        with self._lock:
            self.stats.rehydrations += len(out)
            self.stats.rows_rehydrated += sum(len(rows)
                                              for rows in out.values())
        return out

    def __contains__(self, key: Tuple) -> bool:
        realm, table, ts = key
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT 1 FROM snapshots WHERE skey = ?",
                (self._skey(realm, table, ts),)).fetchone()
            return row is not None

    def __len__(self) -> int:
        with self._lock:
            self._check_open()
            return self._conn.execute(
                "SELECT COUNT(*) FROM snapshots").fetchone()[0]

    # -- warm-restart inventory --------------------------------------------

    def realms(self) -> List[str]:
        """Distinct realms (history ids) with at least one stored
        snapshot."""
        with self._lock:
            self._check_open()
            keys = [row[0] for row in self._conn.execute(
                "SELECT skey FROM snapshots")]
        seen: Dict[str, None] = {}
        for skey in keys:
            seen.setdefault(skey.rsplit(":", 2)[0], None)
        return list(seen)

    def inventory(self, realm) -> List[Tuple[str, int]]:
        """Every ``(table, ts)`` snapshot held for ``realm``, sorted —
        what a restarted service can rehydrate without touching version
        storage (the substrate of
        :meth:`repro.service.ReenactmentService.rewarm`)."""
        prefix = f"{realm}:"
        with self._lock:
            self._check_open()
            keys = [row[0] for row in self._conn.execute(
                "SELECT skey FROM snapshots")]
        out: List[Tuple[str, int]] = []
        for skey in keys:
            if not skey.startswith(prefix):
                continue
            skey_realm, table, ts = skey.rsplit(":", 2)
            if skey_realm != str(realm):
                continue
            out.append((table, int(ts)))
        return sorted(out)

    def _enforce_capacity(self) -> None:
        if self.capacity is None:
            return
        count = self._conn.execute(
            "SELECT COUNT(*) FROM snapshots").fetchone()[0]
        excess = count - self.capacity
        if excess > 0:
            self._conn.execute(
                "DELETE FROM snapshots WHERE skey IN ("
                "  SELECT skey FROM snapshots"
                "  ORDER BY last_used ASC LIMIT ?)", (excess,))
            self.stats.evictions += excess

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError("snapshot store is closed")

    def close(self) -> None:
        """Close the connection (and delete a private file).
        Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._conn.close()
            if self._owns_file:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass

    def __enter__(self) -> "SnapshotStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else f"{len(self)} snapshot(s)"
        return f"<SnapshotStore {self.path!r} {state}>"
