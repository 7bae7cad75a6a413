"""Trigger-based audit logging and time travel (§3, footnote 3).

"For systems that do not support these features, it is possible to use
triggers to implement them."  This module is that fallback, built only
on ordinary tables, row-level triggers and lifecycle hooks:

* per tracked table ``T``, a shadow table ``__hist_T`` receives one row
  per write (op, xid, statement timestamp, the new values) via AFTER
  triggers — uncommitted writes roll back with their transaction, so
  the history is exactly the committed history;
* ``__commits`` maps xids to commit timestamps (commit hook);
* ``__audit`` records BEGIN/STATEMENT/COMMIT/ABORT events with SQL text
  (statement + lifecycle hooks).

From these tables the module reconstructs both capabilities reenactment
needs: :meth:`TriggerHistory.snapshot` (committed table state at any
timestamp since installation) and :meth:`TriggerHistory.audit_log` (an
:class:`~repro.db.auditlog.AuditLog`-compatible view).  A
:class:`~repro.core.reenactor.Reenactor` wired with these providers
works on a database whose native audit log and time travel are
*disabled* — demonstrated in the tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.db.auditlog import AuditLog
from repro.db.engine import Database
from repro.db.schema import Column
from repro.db.transaction import IsolationLevel, Transaction
from repro.db.types import DataType
from repro.errors import CatalogError, ReproError

HIST_PREFIX = "__hist_"
COMMITS_TABLE = "__commits"
AUDIT_TABLE = "__audit"


class TriggerHistory:
    """Installs and queries trigger-maintained history."""

    def __init__(self, db: Database):
        self.db = db
        self._tracked: List[str] = []
        self._installed = False

    # -- installation --------------------------------------------------------

    def install(self, tables: Optional[List[str]] = None) -> None:
        """Create the shadow tables and register triggers/hooks.

        Current rows of each tracked table are seeded into its history
        (op ``'seed'``) so snapshots work from the installation point.
        """
        if self._installed:
            raise ReproError("trigger history is already installed")
        db = self.db
        if not db.catalog.has(COMMITS_TABLE):
            db.create_table(COMMITS_TABLE, [
                Column("xid", DataType.INT),
                Column("ts", DataType.INT),
                Column("kind", DataType.STRING),  # 'commit' | 'abort'
            ])
        if not db.catalog.has(AUDIT_TABLE):
            db.create_table(AUDIT_TABLE, [
                Column("xid", DataType.INT),
                Column("kind", DataType.STRING),
                Column("ts", DataType.INT),
                Column("stmt_index", DataType.INT),
                Column("sql", DataType.STRING),
                Column("isolation", DataType.STRING),
                Column("usr", DataType.STRING),
                Column("session_id", DataType.INT),
            ])

        names = tables if tables is not None else [
            t for t in db.catalog.table_names()
            if not t.startswith("__")]
        for table in names:
            self._track(table)

        db.on_statement.append(self._on_statement)
        db.on_commit.append(self._on_commit)
        db.on_abort.append(self._on_abort)
        self._installed = True

    def _track(self, table: str) -> None:
        schema = self.db.catalog.get(table)
        hist_name = HIST_PREFIX + table
        if self.db.catalog.has(hist_name):
            raise CatalogError(f"{hist_name!r} already exists")
        hist_columns = [
            Column("rowid", DataType.INT),
            Column("op", DataType.STRING),
            Column("xid", DataType.INT),
            Column("stmt_ts", DataType.INT),
        ] + [Column("v_" + c.name, c.dtype) for c in schema.columns]
        self.db.create_table(hist_name, hist_columns)
        self._tracked.append(table)

        # seed the current committed state
        seed_ts = self.db.clock.now()
        hist = self.db.table(hist_name)
        for rowid, values, _xid in self.db.table(table).scan():
            seed_txn = self.db.begin_transaction(user="__history__")
            self.db.mvcc.insert(
                seed_txn, hist,
                (rowid, "seed", 0, seed_ts) + tuple(values),
                seed_ts)
            self.db.mvcc.commit(seed_txn)

        for event in ("insert", "update", "delete"):
            self.db.create_trigger(table, event, self._record_write)

    # -- trigger / hook bodies --------------------------------------------------

    def _record_write(self, db: Database, txn: Transaction, ts: int,
                      table: str, rowid: int, old_values,
                      new_values) -> None:
        hist = db.table(HIST_PREFIX + table)
        if new_values is None:
            op = "delete"
            payload = (None,) * (len(hist.schema.columns) - 4)
        else:
            op = "insert" if old_values is None else "update"
            payload = tuple(new_values)
        # written through the SAME transaction: rolls back with it
        db.mvcc.insert(txn, hist, (rowid, op, txn.xid, ts) + payload, ts)

    def _internal_insert(self, table: str, values: tuple) -> None:
        txn = self.db.begin_transaction(user="__history__")
        self.db.mvcc.insert(txn, self.db.table(table), values,
                            self.db.clock.now())
        self.db.mvcc.commit(txn)

    def _on_statement(self, txn: Transaction, stmt_index: int, ts: int,
                      sql: str) -> None:
        if txn.user == "__history__":
            return
        if not getattr(txn, "_trigger_audit_begun", False):
            self._internal_insert(AUDIT_TABLE, (
                txn.xid, "BEGIN", txn.begin_ts, None, None,
                txn.isolation.value, txn.user, txn.session_id))
            txn._trigger_audit_begun = True
        self._internal_insert(AUDIT_TABLE, (
            txn.xid, "STATEMENT", ts, stmt_index, sql,
            txn.isolation.value, txn.user, txn.session_id))

    def _on_commit(self, txn: Transaction, commit_ts: int) -> None:
        if txn.user == "__history__":
            return
        if getattr(txn, "_trigger_audit_begun", False):
            self._internal_insert(AUDIT_TABLE, (
                txn.xid, "COMMIT", commit_ts, None, None,
                txn.isolation.value, txn.user, txn.session_id))
        self._internal_insert(COMMITS_TABLE,
                              (txn.xid, commit_ts, "commit"))

    def _on_abort(self, txn: Transaction, ts: int) -> None:
        if txn.user == "__history__":
            return
        if getattr(txn, "_trigger_audit_begun", False):
            self._internal_insert(AUDIT_TABLE, (
                txn.xid, "ABORT", ts, None, None,
                txn.isolation.value, txn.user, txn.session_id))
        self._internal_insert(COMMITS_TABLE, (txn.xid, ts, "abort"))

    # -- reconstruction ------------------------------------------------------------

    def _commit_times(self) -> Dict[int, int]:
        out: Dict[int, int] = {}
        for _rowid, values, _v in self.db.table(COMMITS_TABLE).scan():
            xid, ts, kind = values
            if kind == "commit":
                out[xid] = ts
        return out

    def snapshot(self, table: str,
                 ts: int) -> List[Tuple[int, tuple, int]]:
        """Committed state of ``table`` at time ``ts``, reconstructed
        purely from the trigger-maintained history tables.  Matches the
        contract of :meth:`repro.db.engine.Database.table_snapshot`."""
        hist_name = HIST_PREFIX + table
        if not self.db.catalog.has(hist_name):
            raise ReproError(f"table {table!r} is not tracked by "
                             f"trigger history")
        commits = self._commit_times()
        ncols = len(self.db.catalog.get(table).columns)
        # rowid → (commit_ts, stmt_ts, op, xid, values)
        best: Dict[int, tuple] = {}
        for _hrowid, values, _v in self.db.table(hist_name).scan():
            rowid, op, xid, stmt_ts = values[:4]
            payload = values[4:4 + ncols]
            commit_ts = stmt_ts if op == "seed" else commits.get(xid)
            if commit_ts is None or commit_ts > ts:
                continue
            key = (commit_ts, stmt_ts)
            current = best.get(rowid)
            if current is None or key >= current[:2]:
                best[rowid] = (commit_ts, stmt_ts, op, xid, payload)
        out = []
        for rowid in sorted(best):
            commit_ts, _stmt_ts, op, xid, payload = best[rowid]
            if op == "delete":
                continue
            out.append((rowid, tuple(payload), xid))
        return out

    def audit_log(self) -> AuditLog:
        """Rebuild an :class:`AuditLog` view from the ``__audit``
        table (entries ordered by timestamp)."""
        from repro.db.auditlog import AuditEventKind, AuditLogEntry
        log = AuditLog()
        rows = [values for _r, values, _v in
                self.db.table(AUDIT_TABLE).scan()]
        rows.sort(key=lambda r: (r[2], 0 if r[1] == "BEGIN" else 1))
        for xid, kind, ts, stmt_index, sql, isolation, user, \
                session_id in rows:
            log.append(AuditLogEntry(
                kind=AuditEventKind(kind), xid=xid, ts=ts,
                isolation=IsolationLevel(isolation), user=user,
                session_id=session_id, stmt_index=stmt_index, sql=sql))
        return log
