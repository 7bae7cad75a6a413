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

Two access shapes beyond plain ``put``/``get`` (PR 5):
:meth:`SnapshotStore.fetch_many` serves a whole planned snapshot set
in one lock acquisition and one SELECT, and ``async_publish=True``
turns spilling into **write-behind**: payloads are accepted onto a
bounded queue and written by a background publisher thread, while
every lookup checks the queue first — a spill is readable from the
instant ``put`` returns and durable in the file no later than
``flush()``/``close()``.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import tempfile
import threading
import time
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
    #: spills accepted onto the write-behind queue instead of written
    #: inline (async publishing only).
    async_queued: int = 0
    #: write-behind queue drains (publisher batches + forced flushes).
    queue_flushes: int = 0
    #: lookups served from the write-behind queue — a spill that was
    #: readable before its store write landed.
    pending_hits: int = 0
    #: write-behind drains that failed: a publisher pass (the batch
    #: stays queued and is retried on the next one) or the final
    #: drain of :meth:`SnapshotStore.close` (the batch is dropped).
    publisher_errors: int = 0


class SnapshotStore:
    """On-disk spill tier for evicted snapshot temp tables.

    ``path`` is the SQLite file to use; ``None`` creates a private
    temporary file that is deleted on :meth:`close`.  ``capacity``
    bounds the number of stored snapshots (``None`` = unbounded).
    ``async_publish`` enables the write-behind queue (see the module
    docstring); ``queue_capacity`` bounds it — an overfull queue is
    drained inline by the overflowing caller.

    The ``realm`` half of every key is the **durable history id** of
    the `Database` a snapshot was taken from
    (:attr:`repro.db.engine.Database.history_id` — the same namespace
    the session caches use), so one store safely serves several
    databases, survives any one database *object*, and a recycled
    ``id()`` can never alias two histories.
    """

    def __init__(self, path: Optional[str] = None,
                 capacity: Optional[int] = None,
                 async_publish: bool = False,
                 queue_capacity: int = 64):
        if capacity is not None and capacity < 1:
            raise ServiceError(
                f"snapshot store capacity must be >= 1, got {capacity}")
        if queue_capacity < 1:
            raise ServiceError(
                f"spill queue capacity must be >= 1, "
                f"got {queue_capacity}")
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
        self._torn_down = False
        #: how long close() waits for the publisher thread to exit
        #: before refusing to tear down the connection under it.
        self._join_timeout = 5.0
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
        #: write-behind publishing (see :meth:`put`): spills are
        #: accepted onto a bounded in-memory queue and written to
        #: SQLite by a background publisher thread, so eviction on a
        #: worker costs a dict insert instead of pickle + disk I/O.
        #: Queued payloads stay readable the whole time — every lookup
        #: checks the queue before the SQLite tier.
        self.async_publish = async_publish
        self.queue_capacity = queue_capacity
        self._pending: Dict[str, List[Tuple]] = {}
        self._drain = threading.Condition(self._lock)
        self._paused = False
        self._publisher: Optional[threading.Thread] = None
        if async_publish:
            self._publisher = threading.Thread(
                target=self._publish_loop,
                name="snapshot-store-publisher", daemon=True)
            self._publisher.start()

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
        correct, last one wins.

        With ``async_publish`` the rows are accepted onto the
        write-behind queue instead — immediately readable via any
        lookup, durably written by the publisher thread (at the latest
        when :meth:`flush` or :meth:`close` runs).  A caller that
        lands on a full queue drains it inline, so the queue stays
        bounded under bursts."""
        with span("store.spill", table=table, ts=ts,
                  mode="async" if self.async_publish else "sync") as sp:
            sp.set("rows", len(rows))
            self._put(realm, table, ts, rows)

    def _put(self, realm, table: str, ts: int,
             rows: List[Tuple]) -> None:
        fault_point("store.spill", table=table)
        if self.async_publish:
            overflow = False
            with self._drain:
                self._check_open()
                self._pending[self._skey(realm, table, ts)] = \
                    [tuple(row) for row in rows]
                self.stats.spills += 1
                self.stats.rows_spilled += len(rows)
                self.stats.async_queued += 1
                overflow = len(self._pending) > self.queue_capacity
                self._drain.notify_all()
            if overflow:
                self.flush()
            return
        payload = pickle.dumps([tuple(row) for row in rows],
                               protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._check_open()
            self._write_payloads(
                [(self._skey(realm, table, ts), len(rows), payload)])
            self.stats.spills += 1
            self.stats.rows_spilled += len(rows)

    def _write_payloads(self, payloads) -> None:
        """Write serialized snapshots ``(skey, n_rows, payload)`` in
        one transaction; the caller holds the lock."""
        fault_point("store.write")
        for skey, n_rows, payload in payloads:
            self._tick += 1
            self._conn.execute(
                "INSERT OR REPLACE INTO snapshots VALUES (?, ?, ?, ?)",
                (skey, n_rows, payload, self._tick))
        self._enforce_capacity()
        self._conn.commit()

    def get(self, realm, table: str,
            ts: int) -> Optional[List[Tuple]]:
        """The stored rows for a snapshot, refreshing its LRU recency —
        or ``None`` when the snapshot was never spilled (or has been
        evicted from the store).  An in-flight write-behind spill is
        served straight from the queue.  Deserialization happens
        outside the lock, like :meth:`put`'s serialization, so
        concurrent rehydrations of large snapshots don't convoy behind
        it."""
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
            pending = self._pending.get(skey)
            if pending is not None:
                self.stats.pending_hits += 1
                self.stats.rehydrations += 1
                self.stats.rows_rehydrated += len(pending)
                return list(pending)
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
        the result.  In-flight write-behind spills are included."""
        with span("store.rehydrate_batch") as sp:
            out = self._fetch_many(realm, pairs)
            sp.set("found", len(out))
            return out

    def _fetch_many(self, realm, pairs
                    ) -> Dict[Tuple[str, int], List[Tuple]]:
        fault_point("store.rehydrate")
        wanted = {self._skey(realm, table, ts): (table, int(ts))
                  for table, ts in pairs}
        out: Dict[Tuple[str, int], List[Tuple]] = {}
        payloads: List[Tuple[Tuple[str, int], bytes]] = []
        with self._lock:
            self._check_open()
            self.stats.batch_fetches += 1
            remaining = []
            for skey, pair in wanted.items():
                pending = self._pending.get(skey)
                if pending is not None:
                    out[pair] = list(pending)
                    self.stats.pending_hits += 1
                else:
                    remaining.append(skey)
            if remaining:
                marks = ", ".join("?" * len(remaining))
                found = self._conn.execute(
                    f"SELECT skey, payload FROM snapshots "
                    f"WHERE skey IN ({marks})", remaining).fetchall()
                found_keys = [skey for skey, _ in found]
                if found_keys:
                    self._tick += 1
                    self._conn.execute(
                        f"UPDATE snapshots SET last_used = ? WHERE "
                        f"skey IN ({', '.join('?' * len(found_keys))})",
                        [self._tick] + found_keys,)
                    self._conn.commit()
                payloads = [(wanted[skey], payload)
                            for skey, payload in found]
                self.stats.misses += len(remaining) - len(found)
        for pair, payload in payloads:
            out[pair] = pickle.loads(payload)
        with self._lock:
            self.stats.rehydrations += len(out)
            self.stats.rows_rehydrated += sum(len(rows)
                                              for rows in out.values())
        return out

    def __contains__(self, key: Tuple) -> bool:
        realm, table, ts = key
        with self._lock:
            self._check_open()
            if self._skey(realm, table, ts) in self._pending:
                return True
            row = self._conn.execute(
                "SELECT 1 FROM snapshots WHERE skey = ?",
                (self._skey(realm, table, ts),)).fetchone()
            return row is not None

    def __len__(self) -> int:
        with self._lock:
            self._check_open()
            stored = self._conn.execute(
                "SELECT COUNT(*) FROM snapshots").fetchone()[0]
            unwritten = sum(
                1 for skey in self._pending
                if self._conn.execute(
                    "SELECT 1 FROM snapshots WHERE skey = ?",
                    (skey,)).fetchone() is None)
        return stored + unwritten

    def pending_count(self) -> int:
        """Write-behind spills not yet flushed to the SQLite tier."""
        with self._lock:
            return len(self._pending)

    # -- warm-restart inventory --------------------------------------------

    def realms(self) -> List[str]:
        """Distinct realms (history ids) with at least one stored or
        in-flight snapshot."""
        with self._lock:
            self._check_open()
            keys = [row[0] for row in self._conn.execute(
                "SELECT skey FROM snapshots")]
            keys.extend(self._pending)
        seen: Dict[str, None] = {}
        for skey in keys:
            seen.setdefault(skey.rsplit(":", 2)[0], None)
        return list(seen)

    def inventory(self, realm) -> List[Tuple[str, int]]:
        """Every ``(table, ts)`` snapshot held for ``realm``, sorted —
        what a restarted service can rehydrate without touching version
        storage (the substrate of
        :meth:`repro.service.ReenactmentService.rewarm`).  In-flight
        write-behind spills are included."""
        prefix = f"{realm}:"
        with self._lock:
            self._check_open()
            keys = {row[0] for row in self._conn.execute(
                "SELECT skey FROM snapshots")}
            keys.update(self._pending)
        out: List[Tuple[str, int]] = []
        for skey in keys:
            if not skey.startswith(prefix):
                continue
            skey_realm, table, ts = skey.rsplit(":", 2)
            if skey_realm != str(realm):
                continue
            out.append((table, int(ts)))
        return sorted(out)

    # -- write-behind publishing -------------------------------------------

    def _publish_loop(self) -> None:
        """Background publisher: drain the pending queue in batches.
        Serialization happens outside the lock (the expensive part of
        a spill), the SQLite write inside it.

        Self-healing: a failed drain (injected fault, transient I/O
        error) leaves the batch queued — still readable by every
        lookup — and is retried on the next pass, so one bad write
        never silently kills write-behind publishing."""
        while True:
            with self._drain:
                while not self._closed \
                        and (not self._pending or self._paused):
                    self._drain.wait()
                if self._closed:
                    return  # close() drains what remains itself
                batch = dict(self._pending)
            try:
                fault_point("store.publisher")
                payloads = [(skey, len(rows),
                             pickle.dumps(
                                 rows,
                                 protocol=pickle.HIGHEST_PROTOCOL))
                            for skey, rows in batch.items()]
            except Exception:
                with self._drain:
                    self.stats.publisher_errors += 1
                    self._drain.notify_all()
                time.sleep(0.01)  # don't spin on a persistent fault
                continue
            failed = False
            with self._drain:
                if self._closed:
                    return
                try:
                    self._write_payloads(payloads)
                except Exception:
                    self.stats.publisher_errors += 1
                    failed = True
                else:
                    for skey, rows in batch.items():
                        if self._pending.get(skey) is rows:
                            del self._pending[skey]
                    self.stats.queue_flushes += 1
                self._drain.notify_all()
            if failed:
                time.sleep(0.01)  # don't spin on a persistent fault

    def _drain_locked(self) -> int:
        """Write every pending spill inline (caller holds the lock)."""
        batch = dict(self._pending)
        if not batch:
            return 0
        payloads = [(skey, len(rows),
                     pickle.dumps(rows,
                                  protocol=pickle.HIGHEST_PROTOCOL))
                    for skey, rows in batch.items()]
        self._write_payloads(payloads)
        for skey, rows in batch.items():
            if self._pending.get(skey) is rows:
                del self._pending[skey]
        self.stats.queue_flushes += 1
        self._drain.notify_all()
        return len(batch)

    def flush(self) -> int:
        """Force every queued write-behind spill into the SQLite tier
        before returning — the durability hand-off sessions invoke on
        close.  Returns the number of entries this call wrote inline
        (0 when the publisher thread did the writing, or there was
        nothing to flush).  No-op on a synchronous store.

        Never an unbounded wait: the publisher is waited on only until
        one of its drains fails, then the caller drains inline itself —
        and an inline drain that fails raises :class:`ServiceError`
        (the batch stays queued and readable)."""
        if not self.async_publish:
            return 0
        with self._drain:
            self._check_open()
            errors_before = self.stats.publisher_errors
            while self._pending:
                if self._paused or self._publisher is None \
                        or not self._publisher.is_alive() \
                        or self.stats.publisher_errors > errors_before:
                    try:
                        return self._drain_locked()
                    except Exception as exc:
                        raise ServiceError(
                            f"snapshot store flush gave up with "
                            f"{len(self._pending)} spill(s) still "
                            f"queued: {exc!r}") from exc
                self._drain.notify_all()
                self._drain.wait(timeout=0.5)
            return 0

    def pause_publisher(self) -> None:
        """Failpoint (tests/operations): hold background writes so
        queued spills stay in flight — lookups must still see them."""
        with self._drain:
            self._paused = True

    def resume_publisher(self) -> None:
        with self._drain:
            self._paused = False
            self._drain.notify_all()

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
        with self._drain:
            if self._torn_down:
                return
            if not self._closed:
                try:
                    # write-behind durability: whatever is still queued
                    # lands in the store before the connection closes
                    self._drain_locked()
                except Exception:
                    # nobody is left to retry, and refusing to tear
                    # down would leak the connection: every queued
                    # state is rebuildable, so count the loss and go on
                    self.stats.publisher_errors += 1
                self._closed = True
            publisher = self._publisher
            self._drain.notify_all()
        if publisher is not None and publisher.is_alive():
            # deterministic shutdown: the publisher must have exited
            # via the close signal before the connection is torn down —
            # closing under a live writer turns a slow thread into a
            # use-after-close on the SQLite handle
            publisher.join(timeout=self._join_timeout)
            if publisher.is_alive():
                # the publisher is wedged (e.g. an injected-latency
                # fault mid-pickle).  Drain whatever it left queued
                # inline — no unpublished snapshot may leak — then
                # refuse to tear down the connection under it.
                with self._lock:
                    drained = self._drain_locked()
                raise ServiceError(
                    f"snapshot store publisher did not exit within "
                    f"{self._join_timeout}s; {drained} queued "
                    f"spill(s) were drained inline and the connection "
                    f"was left open (close() may be retried)")
        with self._lock:
            if self._torn_down:
                return
            self._torn_down = True
            self._publisher = None
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
