"""Query-able audit log.

The audit log is the engine's stand-in for Oracle's fine-grained
auditing: one entry per transaction-lifecycle event (BEGIN / COMMIT /
ABORT) and per DML statement, carrying the SQL text, timestamps and
session metadata.  It is the *only* information source (together with
time travel) that reenactment and the debugger consume — mirroring the
paper's non-invasiveness claim (§3: "a query-able audit log of executed
SQL statements ... provides sufficient information to enable
reenactment").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.db.transaction import IsolationLevel, Transaction
from repro.errors import AuditLogError


class AuditEventKind(enum.Enum):
    BEGIN = "BEGIN"
    STATEMENT = "STATEMENT"
    COMMIT = "COMMIT"
    ABORT = "ABORT"


@dataclass(frozen=True)
class AuditLogEntry:
    """One event in the audit log."""

    kind: AuditEventKind
    xid: int
    ts: int
    isolation: IsolationLevel
    user: str
    session_id: int
    stmt_index: Optional[int] = None  #: 0-based, STATEMENT entries only
    sql: Optional[str] = None         #: SQL text, STATEMENT entries only


@dataclass(frozen=True)
class StatementRecord:
    """One DML statement of a transaction, as reenactment needs it."""

    index: int
    ts: int
    sql: str


@dataclass
class TransactionRecord:
    """Everything the audit log knows about one transaction."""

    xid: int
    isolation: IsolationLevel
    begin_ts: int
    user: str
    session_id: int
    statements: List[StatementRecord] = field(default_factory=list)
    commit_ts: Optional[int] = None
    abort_ts: Optional[int] = None

    @property
    def committed(self) -> bool:
        return self.commit_ts is not None

    @property
    def aborted(self) -> bool:
        return self.abort_ts is not None

    @property
    def end_ts(self) -> Optional[int]:
        """Commit or abort timestamp; ``None`` while still active."""
        if self.commit_ts is not None:
            return self.commit_ts
        return self.abort_ts

    def statement_interval(self, index: int) -> tuple:
        """(start, end) of a statement for the timeline view: start is
        the statement's timestamp, end is the next statement's
        timestamp or the transaction's end (Fig. 3 of the paper).  The
        last statement of a still-active transaction has no end yet —
        its interval is *open*, represented as ``end is None`` (a
        fabricated ``ts + 1`` could collide with a real later
        timestamp)."""
        stmt = self.statements[index]
        if index + 1 < len(self.statements):
            return (stmt.ts, self.statements[index + 1].ts)
        return (stmt.ts, self.end_ts)


class AuditLog:
    """Append-only audit log with per-transaction reconstruction.

    Reconstruction is served by a per-xid entry index so that
    :meth:`transaction_record` costs O(entries-of-xid), not a scan of
    the whole log — :meth:`transactions` (timeline panels) and WAL
    recovery replay rebuild *every* transaction and would otherwise be
    quadratic in history length.  The index is maintained lazily
    (callers such as the trigger-history rebuild append to
    :attr:`entries` directly); every query first folds the unindexed
    tail in.
    """

    def __init__(self):
        self.entries: List[AuditLogEntry] = []
        self._by_xid: Dict[int, List[AuditLogEntry]] = {}
        self._indexed = 0

    def append(self, entry: AuditLogEntry) -> None:
        """Append a pre-built entry (WAL replay, history rebuilds)."""
        self.entries.append(entry)

    def _sync_index(self) -> None:
        while self._indexed < len(self.entries):
            entry = self.entries[self._indexed]
            self._by_xid.setdefault(entry.xid, []).append(entry)
            self._indexed += 1

    # -- recording (called by the engine) ---------------------------------

    def record_begin(self, txn: Transaction) -> None:
        self.entries.append(AuditLogEntry(
            kind=AuditEventKind.BEGIN, xid=txn.xid, ts=txn.begin_ts,
            isolation=txn.isolation, user=txn.user,
            session_id=txn.session_id))

    def record_statement(self, txn: Transaction, stmt_index: int, ts: int,
                         sql: str) -> None:
        self.entries.append(AuditLogEntry(
            kind=AuditEventKind.STATEMENT, xid=txn.xid, ts=ts,
            isolation=txn.isolation, user=txn.user,
            session_id=txn.session_id, stmt_index=stmt_index, sql=sql))

    def record_commit(self, txn: Transaction, commit_ts: int) -> None:
        self.entries.append(AuditLogEntry(
            kind=AuditEventKind.COMMIT, xid=txn.xid, ts=commit_ts,
            isolation=txn.isolation, user=txn.user,
            session_id=txn.session_id))

    def record_abort(self, txn: Transaction, ts: int) -> None:
        self.entries.append(AuditLogEntry(
            kind=AuditEventKind.ABORT, xid=txn.xid, ts=ts,
            isolation=txn.isolation, user=txn.user,
            session_id=txn.session_id))

    # -- querying (consumed by reenactor / debugger) -----------------------

    def transaction_record(self, xid: int) -> TransactionRecord:
        self._sync_index()
        entries = self._by_xid.get(xid)
        if not entries:
            raise AuditLogError(
                f"transaction {xid} not found in the audit log (is audit "
                f"logging enabled?)")
        record: Optional[TransactionRecord] = None
        for entry in entries:
            if entry.kind is AuditEventKind.BEGIN:
                record = TransactionRecord(
                    xid=xid, isolation=entry.isolation,
                    begin_ts=entry.ts, user=entry.user,
                    session_id=entry.session_id)
            elif record is None:
                raise AuditLogError(
                    f"audit log entry for transaction {xid} precedes its "
                    f"BEGIN entry")
            elif entry.kind is AuditEventKind.STATEMENT:
                record.statements.append(StatementRecord(
                    index=entry.stmt_index, ts=entry.ts, sql=entry.sql))
            elif entry.kind is AuditEventKind.COMMIT:
                record.commit_ts = entry.ts
            elif entry.kind is AuditEventKind.ABORT:
                record.abort_ts = entry.ts
        return record

    def transaction_ids(self) -> List[int]:
        self._sync_index()
        return list(self._by_xid)

    def committed_xids(self) -> List[int]:
        """Committed, non-empty transactions in xid order — the ones
        with effects to check (what an equivalence sweep covers by
        default)."""
        out = []
        for xid in self.transaction_ids():
            record = self.transaction_record(xid)
            if record.committed and record.statements:
                out.append(xid)
        return out

    def transactions(self, start_ts: Optional[int] = None,
                     end_ts: Optional[int] = None,
                     committed_only: bool = False
                     ) -> List[TransactionRecord]:
        """All transactions overlapping [start_ts, end_ts] — the data
        behind the timeline panel (Fig. 3)."""
        records = [self.transaction_record(xid)
                   for xid in self.transaction_ids()]
        result = []
        for record in records:
            if committed_only and not record.committed:
                continue
            rec_end = record.end_ts
            if start_ts is not None and rec_end is not None \
                    and rec_end < start_ts:
                continue
            if end_ts is not None and record.begin_ts > end_ts:
                continue
            result.append(record)
        return result

    def __len__(self) -> int:
        return len(self.entries)
