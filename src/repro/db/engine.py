"""The database engine: catalog, storage, MVCC, audit log, time travel.

:class:`Database` wires the substrate together and exposes the two
capabilities the paper's approach builds on (§3):

* **time travel** — :meth:`Database.table_snapshot` reconstructs the
  committed state of any table at any past timestamp;
* **audit logging** — every transaction's DML statements are recorded
  with timestamps in :attr:`Database.audit_log`.

Both can be toggled off (``DatabaseConfig``) to measure their overhead —
experiment E4 reproduces the paper's ~20% write-only / ~5% mixed
overhead claim.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.algebra.evaluator import EvalContext
from repro.db.auditlog import AuditLog
from repro.db.clock import LogicalClock
from repro.db.mvcc import MVCCManager
from repro.db.schema import Catalog, Column, TableSchema
from repro.db.table import VersionedTable
from repro.db.transaction import IsolationLevel, Transaction
from repro.db.types import lookup_type
from repro.errors import (CatalogError, ReadOnlyHistoryError,
                          TimeTravelError, WALError)


@dataclass
class DatabaseConfig:
    """Feature toggles (experiment E4 flips these)."""

    audit_enabled: bool = True
    timetravel_enabled: bool = True
    default_isolation: IsolationLevel = IsolationLevel.SERIALIZABLE


class Database:
    """An in-memory multi-version database instance."""

    def __init__(self, config: Optional[DatabaseConfig] = None):
        self.config = config or DatabaseConfig()
        self.clock = LogicalClock()
        #: durable identity of this transaction history.  Snapshot
        #: caches and spill stores namespace their entries by *realm*;
        #: keying realms on ``id(db)`` would let a recycled object
        #: address serve one history's snapshots to another after GC
        #: reuse, and ties a store's useful lifetime to one Python
        #: object.  A fresh UUID (suffixed with the clock's epoch
        #: reading, so even a hypothetical UUID collision cannot pair
        #: with an identical clock state) survives both.
        self.history_id = f"{uuid.uuid4().hex}@{self.clock.now()}"
        self.catalog = Catalog()
        self.tables: Dict[str, VersionedTable] = {}
        self.mvcc = MVCCManager(self.tables, self.clock)
        self.audit_log = AuditLog()
        self._next_session_id = 1
        #: row-level triggers: (table, event) → [fn(db, txn, ts, table,
        #: rowid, old_values, new_values)]; events: insert/update/delete.
        #: The substrate for §3 footnote 3 (trigger-based audit/history).
        self.triggers: Dict[Tuple[str, str], List] = {}
        #: lifecycle hooks: fn(txn, ts) / fn(txn, stmt_index, ts, sql)
        self.on_statement: List = []
        self.on_commit: List = []
        self.on_abort: List = []
        self._firing_triggers = False
        #: attached write-ahead log (see :meth:`attach_wal`); ``None``
        #: keeps the history in-memory only.
        self.wal = None
        #: :class:`~repro.db.wal.RecoveryReport` of the last
        #: :meth:`attach_wal`, if any.
        self.last_recovery = None
        #: explicit read-only degradation (see :meth:`quarantine`):
        #: set when the WAL can no longer promise durability.  The
        #: recorded history stays queryable and reenactable; new
        #: writes are refused with :class:`ReadOnlyHistoryError`.
        self.read_only = False
        self.read_only_reason: Optional[str] = None

    # -- durability ---------------------------------------------------------

    def attach_wal(self, wal, fsync: str = "batch",
                   batch_bytes: int = 64 * 1024,
                   checkpoint_every: Optional[int] = None):
        """Make this history durable via a write-ahead log.

        ``wal`` is a directory path or a prepared
        :class:`~repro.db.wal.WriteAheadLog`.  If the log already holds
        a history, this database must be pristine and the history is
        replayed into it (same ``history_id``, catalog, version chains,
        audit log and clock — so snapshot stores keyed by the history id
        serve the recovered database warm).  A fresh log over an
        already-populated database bootstraps itself with an initial
        checkpoint.  Returns the attached log.
        """
        from repro.db.wal import WriteAheadLog
        if self.wal is not None:
            raise WALError(
                "a write-ahead log is already attached to this database")
        if not self.config.timetravel_enabled:
            raise WALError(
                "the WAL logs per-table commit deltas; it requires "
                "DatabaseConfig.timetravel_enabled")
        if not isinstance(wal, WriteAheadLog):
            wal = WriteAheadLog(wal, fsync=fsync,
                                batch_bytes=batch_bytes,
                                checkpoint_every=checkpoint_every)
        self.last_recovery = wal.attach(self)
        # only set after replay: replayed operations must not re-log
        self.wal = wal
        return wal

    def quarantine(self, reason: str) -> None:
        """Flip the database to explicit read-only degradation.

        Called by the WAL when an append failure exhausts its retry
        budget: accepting further writes would let in-memory state
        silently diverge from the durable log, so writes are refused
        loudly instead.  Reads, time travel and reenactment keep
        working — degraded, never wrong."""
        self.read_only = True
        self.read_only_reason = reason

    def _check_writable(self) -> None:
        if self.read_only:
            raise ReadOnlyHistoryError(
                f"database is read-only ({self.read_only_reason})")

    @classmethod
    def open(cls, path: str, config: Optional[DatabaseConfig] = None,
             **wal_options) -> "Database":
        """Recover (or start) a durable database at ``path``: a fresh
        instance with the WAL's recorded history replayed in and the
        log attached for further writes."""
        db = cls(config)
        db.attach_wal(path, **wal_options)
        return db

    # -- sessions -----------------------------------------------------------

    def connect(self, user: str = "app") -> "Session":
        from repro.db.session import Session
        session_id = self._next_session_id
        self._next_session_id += 1
        return Session(self, user=user, session_id=session_id)

    def execute(self, sql: str,
                params: Optional[Dict[str, Any]] = None) -> "Result":
        """One-shot convenience: run ``sql`` on a fresh session."""
        return self.connect().execute(sql, params)

    # -- DDL ------------------------------------------------------------------

    def create_table(self, name: str, columns: List[Column]) -> None:
        self._check_writable()
        schema = TableSchema(name, columns)
        self.catalog.create(schema)
        self.tables[name] = VersionedTable(schema)
        if self.wal is not None:
            self.wal.log_create_table(schema)

    def create_table_from_defs(self, name: str, column_defs) -> None:
        columns = []
        for cd in column_defs:
            columns.append(Column(
                name=cd.name, dtype=lookup_type(cd.type_name),
                nullable=not (cd.not_null or cd.primary_key),
                primary_key=cd.primary_key))
        self.create_table(name, columns)

    def drop_table(self, name: str) -> None:
        self._check_writable()
        self.catalog.drop(name)
        del self.tables[name]
        if self.wal is not None:
            self.wal.log_drop_table(name)

    def table(self, name: str) -> VersionedTable:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    # -- time travel ------------------------------------------------------------

    def _history_table(self, name: str) -> VersionedTable:
        if not self.config.timetravel_enabled:
            raise TimeTravelError(
                "time travel is disabled on this database "
                "(DatabaseConfig.timetravel_enabled)")
        return self.table(name)

    def table_snapshot(self, name: str,
                       ts: int) -> List[Tuple[int, tuple, int]]:
        """Committed state of table ``name`` at time ``ts`` as
        (rowid, values, creator_xid) triples — the ``AS OF`` API."""
        return self._history_table(name).scan(ts)

    def table_delta(self, name: str, ts_from: int,
                    ts_to: int) -> List[Tuple[int, Optional[tuple],
                                              Optional[int]]]:
        """Rows whose committed state differs between ``ts_from`` and
        ``ts_to``, as ``(rowid, values, xid)`` triples describing the
        state *at* ``ts_to`` (``values is None`` = the row is absent
        there).  Cost scales with the commits inside the interval, not
        with table size — the incremental counterpart of
        :meth:`table_snapshot`, and what delta-materializing execution
        backends patch cached snapshots with."""
        return _delta_triples(
            self._history_table(name).scan_delta(ts_from, ts_to))

    def table_delta_chain(self, name: str, timestamps: List[int]
                          ) -> List[List[Tuple[int, Optional[tuple],
                                               Optional[int]]]]:
        """Consecutive deltas along a timestamp chain — one
        :meth:`table_delta`-shaped list per hop
        ``timestamps[i] -> timestamps[i+1]``, in one commit-log pass.
        Snapshot pipelines that walk a table through a planned series
        of versions (timeline scans, timestamp-ordered equivalence
        sweeps) fetch every patch they will apply with this single
        call."""
        return [_delta_triples(hop) for hop in
                self._history_table(name).scan_delta_chain(timestamps)]

    def rows_written_by(self, xid: int, commit_ts: int
                        ) -> Dict[str, Set[int]]:
        """Per table, the rows committed transaction ``xid`` wrote, read
        off the commit log at its ``commit_ts``
        (:meth:`VersionedTable.rows_published_by`): the stored rows it
        updated or deleted — what reenacting it reports as its
        physical writes — without reenacting it.  Raises
        :class:`TimeTravelError` when history is off or the log cannot
        answer for ``commit_ts``."""
        out = {}
        for name in self.tables:
            rowids = self._history_table(name).rows_published_by(
                xid, commit_ts)
            if rowids:
                out[name] = rowids
        return out

    def table_delta_estimate(self, name: str, ts_from: int,
                             ts_to: int) -> int:
        """Cheap upper bound on ``len(table_delta(...))`` (commit-log
        bisection; no chain walks)."""
        return self.table(name).delta_size_estimate(ts_from, ts_to)

    def table_cardinality(self, name: str) -> int:
        """Number of version chains of ``name`` — the cost model's
        estimate of what a full snapshot materialization costs."""
        return self.table(name).cardinality()

    # -- evaluation contexts ------------------------------------------------------

    def context(self, txn: Optional[Transaction] = None,
                stmt_ts: Optional[int] = None,
                params: Optional[Dict[str, Any]] = None,
                snapshot_provider=None) -> "DatabaseContext":
        return DatabaseContext(self, txn=txn, stmt_ts=stmt_ts,
                               params=params,
                               snapshot_provider=snapshot_provider)

    # -- transaction plumbing (used by Session / simulator) -------------------------

    def begin_transaction(self, isolation: Optional[IsolationLevel] = None,
                          user: str = "app",
                          session_id: int = 0) -> Transaction:
        self._check_writable()
        level = isolation or self.config.default_isolation
        return self.mvcc.begin(level, user=user, session_id=session_id)

    def commit_transaction(self, txn: Transaction) -> int:
        # refuse before MVCC publishes anything: a quarantine that
        # landed mid-transaction must not let memory get ahead of the
        # durable log by yet another commit
        self._check_writable()
        commit_ts = self.mvcc.commit(
            txn, keep_history=self.config.timetravel_enabled)
        audited = self.config.audit_enabled and getattr(
            txn, "_audit_begun", False)
        if audited:
            self.audit_log.record_commit(txn, commit_ts)
        if self.wal is not None:
            writes = {}
            for table_name, rowids in txn.write_set.items():
                table = self.tables.get(table_name)
                if table is None:
                    continue
                rows = table.commit_writes(txn.xid, commit_ts, rowids)
                if rows:
                    writes[table_name] = rows
            if writes or audited:
                self.wal.log_commit(txn, commit_ts, writes, audited)
                self.wal.maybe_checkpoint(self)
        for hook in self.on_commit:
            hook(txn, commit_ts)
        return commit_ts

    def abort_transaction(self, txn: Transaction) -> None:
        self.mvcc.abort(txn)
        audited = self.config.audit_enabled and getattr(
            txn, "_audit_begun", False)
        if audited:
            self.audit_log.record_abort(txn, txn.end_ts)
            if self.wal is not None:
                # aborted writes never reached the log (physical
                # effects ride the commit record), so the abort only
                # matters to the replayed audit stream — and must
                # never block the abort itself (rolling back after a
                # quarantine is exactly the degradation path)
                try:
                    self.wal.log_abort(txn, txn.end_ts, audited)
                except WALError:
                    pass
        for hook in self.on_abort:
            hook(txn, txn.end_ts)

    def log_statement(self, txn: Transaction, stmt_index: int, ts: int,
                      sql: str) -> None:
        """Record a DML statement; lazily emits the BEGIN entry so that
        read-only transactions leave no audit trace."""
        for hook in self.on_statement:
            hook(txn, stmt_index, ts, sql)
        if not self.config.audit_enabled:
            return
        if not getattr(txn, "_audit_begun", False):
            self.audit_log.record_begin(txn)
            if self.wal is not None:
                self.wal.log_begin(txn)
            txn._audit_begun = True
        self.audit_log.record_statement(txn, stmt_index, ts, sql)
        if self.wal is not None:
            self.wal.log_statement(txn, stmt_index, ts, sql)

    # -- triggers (§3 footnote 3 substrate) -----------------------------------

    def create_trigger(self, table: str, event: str, fn) -> None:
        """Register a row-level AFTER trigger.

        ``fn(db, txn, ts, table, rowid, old_values, new_values)`` runs
        after each affected row of a matching DML statement.  Triggers
        may write other tables through the same transaction (their
        writes commit/abort atomically with it).  Triggers do not fire
        for writes made *by* triggers (no cascading).
        """
        if event not in ("insert", "update", "delete"):
            raise CatalogError(f"unknown trigger event {event!r}")
        self.catalog.get(table)  # must exist
        self.triggers.setdefault((table, event), []).append(fn)

    def fire_triggers(self, event: str, txn: Transaction, ts: int,
                      table: str, rowid: int, old_values, new_values
                      ) -> None:
        if self._firing_triggers:
            return  # no cascading
        fns = self.triggers.get((table, event))
        if not fns:
            return
        self._firing_triggers = True
        try:
            for fn in fns:
                fn(self, txn, ts, table, rowid, old_values, new_values)
        finally:
            self._firing_triggers = False


def _delta_triples(hop) -> List[Tuple[int, Optional[tuple], Optional[int]]]:
    return [(d.rowid, None, None) if d.new is None
            else (d.rowid, d.new.values, d.new.xid) for d in hop]


class DatabaseContext(EvalContext):
    """Scan resolution against a :class:`Database`.

    Resolution order for a scan of table ``R``:

    1. ``AS OF ts`` — committed snapshot via time travel;
    2. the executing transaction's MVCC view at the statement timestamp;
    3. latest committed state (no transaction).
    """

    def __init__(self, db: Database, txn: Optional[Transaction] = None,
                 stmt_ts: Optional[int] = None,
                 params: Optional[Dict[str, Any]] = None,
                 snapshot_provider=None):
        super().__init__(params=params)
        self.db = db
        self.txn = txn
        self.stmt_ts = stmt_ts
        #: optional replacement for the engine's native time travel —
        #: callable (table, ts) -> [(rowid, values, xid)].  Used by the
        #: trigger-based history fallback (§3 footnote 3).
        self.snapshot_provider = snapshot_provider
        #: per table, the last AS-OF read ``(ts, rows)``.  A backend
        #: materializes a state and the reenactor then completes its
        #: result from the same state; the second read is answered
        #: here.  Derived, private to this context, and one entry per
        #: table — a context that walks many states retains only the
        #: newest.
        self._as_of_rows: Dict[str, Tuple[int, list]] = {}

    def table_columns(self, table: str):
        return list(self.db.catalog.get(table).column_names)

    def scan_table(self, table: str, as_of_ts: Optional[int]):
        if as_of_ts is not None:
            held = self._as_of_rows.get(table)
            if held is not None and held[0] == as_of_ts:
                return held[1]
            if self.snapshot_provider is not None:
                rows = self.snapshot_provider(table, as_of_ts)
            else:
                rows = self.db.table_snapshot(table, as_of_ts)
            self._as_of_rows[table] = (as_of_ts, rows)
            return rows
        vtable = self.db.table(table)
        if self.txn is not None:
            ts = self.stmt_ts if self.stmt_ts is not None \
                else self.db.clock.now()
            return self.db.mvcc.read(self.txn, vtable, ts)
        return vtable.scan()
