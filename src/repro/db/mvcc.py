"""Multi-version concurrency control.

:class:`MVCCManager` implements the policy layer on top of
:class:`~repro.db.table.VersionedTable`:

* **snapshot reads** — SI transactions read as of their begin timestamp,
  READ COMMITTED transactions as of each statement's timestamp, both
  overlaid with their own uncommitted writes;
* **write locking (nowait)** — writing a row locked by another active
  transaction raises :class:`~repro.errors.WriteConflictError`.  A real
  SI system would block; in the deterministic single-threaded simulation
  blocking would deadlock the schedule, so nowait semantics stand in for
  first-updater-wins (the blocked transaction would abort anyway once the
  holder commits);
* **first-updater/first-committer wins** — an SI transaction writing a
  row whose latest committed version postdates its snapshot raises
  :class:`~repro.errors.SerializationError`.

These are exactly the properties the reenactment construction of [1]
relies on: rows written by a transaction T cannot receive concurrent
committed updates between T's first write and T's commit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.db.clock import LogicalClock
from repro.db.table import ScanRow, VersionedTable
from repro.db.transaction import (IsolationLevel, Transaction,
                                  TransactionStatus)
from repro.errors import (SerializationError, TransactionStateError,
                          WriteConflictError)


class MVCCManager:
    """Transaction lifecycle and version visibility policy."""

    def __init__(self, tables: Dict[str, VersionedTable],
                 clock: LogicalClock):
        self._tables = tables
        self._clock = clock
        self._next_xid = 1
        self._active: Dict[int, Transaction] = {}
        #: all transactions ever started, for introspection/debugging.
        self.transactions: Dict[int, Transaction] = {}

    # -- lifecycle ---------------------------------------------------------

    def begin(self, isolation: IsolationLevel, user: str = "unknown",
              session_id: int = 0) -> Transaction:
        xid = self._next_xid
        self._next_xid += 1
        txn = Transaction(xid=xid, isolation=isolation,
                          begin_ts=self._clock.tick(), user=user,
                          session_id=session_id)
        self._active[xid] = txn
        self.transactions[xid] = txn
        return txn

    def commit(self, txn: Transaction, keep_history: bool = True) -> int:
        self._require_active(txn)
        commit_ts = self._clock.tick()
        for table_name, rowids in txn.write_set.items():
            table = self._tables.get(table_name)
            if table is not None:
                table.commit_rows(txn.xid, rowids, commit_ts,
                                  keep_history=keep_history)
        txn.status = TransactionStatus.COMMITTED
        txn.commit_ts = commit_ts
        txn.end_ts = commit_ts
        del self._active[txn.xid]
        return commit_ts

    def abort(self, txn: Transaction) -> None:
        self._require_active(txn)
        for table_name, rowids in txn.write_set.items():
            table = self._tables.get(table_name)
            if table is not None:
                table.abort_rows(txn.xid, rowids)
        txn.status = TransactionStatus.ABORTED
        txn.end_ts = self._clock.tick()
        del self._active[txn.xid]

    def active_transactions(self) -> List[Transaction]:
        return list(self._active.values())

    # -- reads -------------------------------------------------------------

    def read(self, txn: Transaction, table: VersionedTable,
             stmt_ts: int) -> List[ScanRow]:
        """Rows visible to ``txn`` for a statement at ``stmt_ts``: its
        committed snapshot overlaid with its own write set."""
        self._require_active(txn)
        return table.scan(txn.snapshot_ts(stmt_ts), txn.xid,
                          txn.write_set.get(table.schema.name, ()))

    # -- writes ------------------------------------------------------------

    def insert(self, txn: Transaction, table: VersionedTable,
               values: tuple, stmt_ts: int) -> int:
        self._require_active(txn)
        rowid = table.insert_row(txn.xid, values, stmt_ts)
        txn.record_write(table.schema.name, rowid)
        return rowid

    def update(self, txn: Transaction, table: VersionedTable, rowid: int,
               values: tuple, stmt_ts: int) -> None:
        self._write(txn, table, rowid, values, stmt_ts)

    def delete(self, txn: Transaction, table: VersionedTable, rowid: int,
               stmt_ts: int) -> None:
        self._write(txn, table, rowid, None, stmt_ts)

    def _write(self, txn: Transaction, table: VersionedTable, rowid: int,
               values: Optional[tuple], stmt_ts: int) -> None:
        self._require_active(txn)
        chain = table.chain(rowid)
        holder = chain.lock_xid
        if holder is not None and holder != txn.xid:
            raise WriteConflictError(
                f"transaction {txn.xid} cannot write row {rowid} of "
                f"{table.schema.name!r}: locked by active transaction "
                f"{holder}")
        if txn.isolation is IsolationLevel.SERIALIZABLE:
            latest = chain.latest_committed()
            if latest is not None and latest.begin_ts > txn.begin_ts:
                raise SerializationError(
                    f"transaction {txn.xid} cannot write row {rowid} of "
                    f"{table.schema.name!r}: concurrently updated and "
                    f"committed at {latest.begin_ts} after snapshot "
                    f"{txn.begin_ts} (first-updater-wins)")
        table.write_row(txn.xid, rowid, values, stmt_ts)
        txn.record_write(table.schema.name, rowid)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _require_active(txn: Transaction) -> None:
        if not txn.is_active:
            raise TransactionStateError(
                f"transaction {txn.xid} is {txn.status.value}")
