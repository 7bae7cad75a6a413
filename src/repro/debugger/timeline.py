"""The timeline model behind the debugger's main panel (Fig. 3).

"The main panel of the debugger's GUI shows a horizontal time line of
transactions executed in the past ... instantiated based on the
transactional history of a database by querying the audit log."  Each
row is a transaction; statements are intervals whose start is the
statement's execution time and whose end is the next statement's start
(the commit time for the last statement, or open — ``None`` — while the
transaction is still active).

Supported interactions, mirroring §2: zoom / restriction to a time
window, scrolling, selection of a transaction (detail panel data), and
simple text search over statement SQL.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.algebra.evaluator import Relation
from repro.db.auditlog import TransactionRecord
from repro.db.engine import Database
from repro.errors import AuditLogError


@dataclass
class StatementInterval:
    """One statement bar on the timeline (marker 2 in Fig. 3).

    ``end is None`` marks an *open* interval: the last statement of a
    transaction that is still active has no successor and no end
    timestamp yet — renderers extend the bar to the view's right edge
    rather than inventing a timestamp."""

    index: int
    sql: str
    start: int
    end: Optional[int]


@dataclass
class TimelineRow:
    """One transaction row (marker 1 in Fig. 3) plus the data the
    detail panel (marker 3) shows on selection."""

    xid: int
    isolation: str
    user: str
    session_id: int
    begin_ts: int
    end_ts: Optional[int]
    status: str  # 'committed' | 'aborted' | 'active'
    statements: List[StatementInterval] = field(default_factory=list)

    @property
    def commit_ts(self) -> Optional[int]:
        return self.end_ts if self.status == "committed" else None

    def detail(self) -> str:
        """Detail-panel text: isolation level, commit time, user,
        session id, and per-statement SQL with start times (§2)."""
        lines = [
            f"Transaction T{self.xid} [{self.status}]",
            f"  isolation: {self.isolation}",
            f"  user: {self.user}   session: {self.session_id}",
            f"  begin: {self.begin_ts}   end: {self.end_ts}",
            "  statements:",
        ]
        for stmt in self.statements:
            lines.append(f"    [{stmt.index}] @{stmt.start}: {stmt.sql}")
        if not self.statements:
            lines.append("    (none recorded)")
        return "\n".join(lines)


#: table-name word patterns, compiled once per distinct name — filter()
#: calls _mentions_table per statement of every row.
_MENTION_PATTERNS: Dict[str, "re.Pattern"] = {}


def _mentions_table(sql: str, table_lower: str) -> bool:
    """Whether a statement's SQL references a table name as a whole
    word — ``account`` must not match ``accounts`` (or
    ``accounts_bak``), which a naive substring test gets wrong.
    Lookarounds rather than ``\\b`` so names that start or end with a
    non-word character (quoted/dotted forms) still anchor on the
    name's own edges."""
    pattern = _MENTION_PATTERNS.get(table_lower)
    if pattern is None:
        pattern = re.compile(
            rf"(?<![\w]){re.escape(table_lower)}(?![\w])")
        _MENTION_PATTERNS[table_lower] = pattern
    return pattern.search(sql.lower()) is not None


#: what :func:`timeline_states` returns per timestamp.
TIMELINE_MODES = ("full", "sparkline")


def timeline_states(db: Database, table: str,
                    timestamps: Sequence[int], session=None,
                    mode: str = "full") -> Dict[int, Relation]:
    """The timeline panel's *data* fetch: the committed state of
    ``table`` at each timestamp, read from storage alone — the AS-OF
    snapshot at the earliest tick, then the commit log's delta chain
    applied forward, one hop per later tick.  No engine runs: a state
    at a tick is a committed read, and the timeline is "instantiated
    ... by querying the audit log".

    ``mode="full"`` returns per timestamp the stored rows in rowid
    order, as a relation with the ``table.column`` attributes an AS-OF
    scan has; ``mode="sparkline"`` returns a one-row ``n_rows`` count —
    the cardinality strip.  Ticks may arrive unsorted and repeated; the
    result is keyed by the caller's own.  A tick that is not an ``int``
    raises :class:`AuditLogError`.

    ``session`` is accepted and unused: ``perf/drivers.py`` passes one.
    """
    if mode not in TIMELINE_MODES:
        raise AuditLogError(
            f"timeline mode must be one of {TIMELINE_MODES}, "
            f"got {mode!r}")
    attrs = [f"{table}.{column}"
             for column in db.catalog.get(table).column_names]
    for ts in timestamps:
        if not isinstance(ts, int):
            raise AuditLogError(
                f"timeline tick {ts!r} of table {table!r} is not a "
                f"commit timestamp")
    if not timestamps:
        return {}
    ordered = sorted(set(timestamps))
    live = {rowid: values for rowid, values, _xid
            in db.table_snapshot(table, ordered[0])}
    hops = db.table_delta_chain(table, ordered) if len(ordered) > 1 \
        else []
    states: Dict[int, Relation] = {}
    for ts, hop in zip(ordered, [()] + hops):
        for rowid, values, _xid in hop:
            if values is None:
                live.pop(rowid, None)
            else:
                live[rowid] = values
        if mode == "sparkline":
            states[ts] = Relation(["n_rows"], [(len(live),)])
        else:
            states[ts] = Relation(attrs, [live[rowid]
                                          for rowid in sorted(live)])
    return {ts: states[ts] for ts in timestamps}


class TransactionTimeline:
    """Query-able timeline over the audit log."""

    def __init__(self, rows: List[TimelineRow],
                 start_ts: Optional[int] = None,
                 end_ts: Optional[int] = None):
        self.rows = sorted(rows, key=lambda r: (r.begin_ts, r.xid))
        if self.rows:
            self.start_ts = start_ts if start_ts is not None \
                else min(r.begin_ts for r in self.rows)
            ends = [r.end_ts for r in self.rows if r.end_ts is not None]
            fallback = max(ends) if ends \
                else max(r.begin_ts for r in self.rows) + 1
            self.end_ts = end_ts if end_ts is not None else fallback
        else:
            self.start_ts = start_ts or 0
            self.end_ts = end_ts or 1

    # -- construction -------------------------------------------------------

    @classmethod
    def from_database(cls, db: Database,
                      start_ts: Optional[int] = None,
                      end_ts: Optional[int] = None,
                      committed_only: bool = False
                      ) -> "TransactionTimeline":
        records = db.audit_log.transactions(start_ts=start_ts,
                                            end_ts=end_ts,
                                            committed_only=committed_only)
        rows = [cls._row_from_record(record) for record in records]
        return cls(rows, start_ts=start_ts, end_ts=end_ts)

    @staticmethod
    def _row_from_record(record: TransactionRecord) -> TimelineRow:
        if record.committed:
            status = "committed"
        elif record.aborted:
            status = "aborted"
        else:
            status = "active"
        row = TimelineRow(
            xid=record.xid, isolation=record.isolation.value,
            user=record.user, session_id=record.session_id,
            begin_ts=record.begin_ts, end_ts=record.end_ts,
            status=status)
        for stmt in record.statements:
            start, end = record.statement_interval(stmt.index)
            row.statements.append(StatementInterval(
                index=stmt.index, sql=stmt.sql, start=start, end=end))
        return row

    # -- interactions ------------------------------------------------------------

    def window(self, start_ts: int, end_ts: int) -> "TransactionTimeline":
        """Zoom / restrict the view to [start_ts, end_ts]."""
        rows = [r for r in self.rows
                if r.begin_ts <= end_ts
                and (r.end_ts is None or r.end_ts >= start_ts)]
        return TransactionTimeline(rows, start_ts=start_ts,
                                   end_ts=end_ts)

    def search(self, text: str) -> List[TimelineRow]:
        """Full-text search over statement SQL (the extension §2 calls
        straightforward)."""
        needle = text.lower()
        return [r for r in self.rows
                if any(needle in s.sql.lower() for s in r.statements)]

    def filter(self, user: Optional[str] = None,
               isolation: Optional[str] = None,
               status: Optional[str] = None,
               table: Optional[str] = None,
               min_statements: int = 0) -> "TransactionTimeline":
        """Structured search — the "more powerful search functionality"
        §2 leaves to future work: restrict by user, isolation level,
        outcome, touched table, or transaction length."""
        rows = self.rows
        if user is not None:
            rows = [r for r in rows if r.user == user]
        if isolation is not None:
            normalized = " ".join(isolation.upper().split())
            rows = [r for r in rows if r.isolation == normalized]
        if status is not None:
            rows = [r for r in rows if r.status == status]
        if table is not None:
            needle = table.lower()
            rows = [r for r in rows
                    if any(_mentions_table(s.sql, needle)
                           for s in r.statements)]
        if min_statements:
            rows = [r for r in rows
                    if len(r.statements) >= min_statements]
        return TransactionTimeline(list(rows), start_ts=self.start_ts,
                                   end_ts=self.end_ts)

    def row(self, xid: int) -> TimelineRow:
        for row in self.rows:
            if row.xid == xid:
                return row
        raise AuditLogError(f"transaction {xid} is not on the timeline")

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)
