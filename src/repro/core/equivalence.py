"""Equivalence checking: reenactment vs the original execution.

The central theorem behind the paper (§3, proven in [1]) says a
reenactment query produces *the same result* (updated tables) and the
same provenance as the original transaction.  This module is the test
oracle for that claim (experiment E3): it compares

1. the rows the reenacted transaction *wrote* against the committed
   versions the real execution created, and
2. the rows it *deleted* against the real tombstones,

both read off the storage commit log at the transaction's commit time,
so a check costs the transaction's write set, not the table.  Rows the
transaction never wrote are not the transaction's doing: how the
reenactor completes a whole table from the snapshot is held to the full
Example-3 plan by the differential harness instead.

The oracle inspects storage version chains directly — that is ground
truth the reenactor itself never touches (it only sees the audit log and
time travel), so the comparison is meaningful.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.core.reenactor import DEL, UPD, WRITES, Reenactor
from repro.db.engine import Database
from repro.errors import ReenactmentError


@dataclass
class TableCheck:
    """Comparison outcome for one table."""

    table: str
    ok: bool
    written_expected: Counter = field(default_factory=Counter)
    written_actual: Counter = field(default_factory=Counter)
    deleted_expected: int = 0
    deleted_actual: int = 0
    detail: str = ""


@dataclass
class EquivalenceReport:
    xid: int
    checks: List[TableCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> List[TableCheck]:
        return [c for c in self.checks if not c.ok]


def check_transaction_equivalence(db: Database, xid: int,
                                  optimize: bool = True,
                                  backend=None,
                                  session=None) -> EquivalenceReport:
    """Reenact transaction ``xid`` (on the given execution backend) and
    compare against ground truth.  The ground-truth side always reads
    storage directly, so the check is equally meaningful for every
    backend — the same history must be judged equivalent regardless of
    which engine executed the reenactment query.  ``session`` shares
    backend resources with other checks in a sweep (see
    :func:`check_history_equivalence`).  Raises
    :class:`ReenactmentError` when ``xid`` did not commit."""
    return _sweep(db, [xid], optimize, backend, session)[xid]


def check_history_equivalence(db: Database,
                              xids: Optional[List[int]] = None,
                              optimize: bool = True,
                              backend=None
                              ) -> Dict[int, EquivalenceReport]:
    """Check every committed transaction of a history (default: all
    transactions in the audit log) on the given execution backend.

    The whole sweep runs on one backend session: transactions of a
    history overlap in the snapshots they read, so on SQLite each
    ``(table, ts)`` state is materialized once for the sweep rather
    than once per transaction.  Every transaction is *compiled first*
    and the series runs through :meth:`Reenactor.execute_all` — shared
    pairs materialize once for the whole sweep and deltas chain across
    transaction boundaries.  That is purely a
    materialization strategy: a loop of
    :func:`check_transaction_equivalence` on one session reports the
    same."""
    if xids is None:
        xids = db.audit_log.committed_xids()
    return _sweep(db, xids, optimize, backend, None)


def _sweep(db: Database, xids: List[int], optimize: bool, backend,
           session) -> Dict[int, EquivalenceReport]:
    """Compile every transaction's write-set request, run the series on
    one session and judge each result against storage."""
    reenactor = Reenactor(db, backend=backend)
    options = replace(WRITES, optimize=optimize)
    compiles = []
    for xid in xids:
        record = reenactor.transaction_record(xid)
        if not record.committed:
            raise ReenactmentError(
                f"transaction {xid} did not commit; only committed "
                f"transactions have effects to check")
        compiles.append(reenactor.compile(record, options))
    reports = {}
    for result, compiled in zip(reenactor.execute_all(compiles, session),
                                compiles):
        record = compiled.record
        reports[compiled.xid] = EquivalenceReport(xid=compiled.xid, checks=[
            _check_table(db, record.xid, record.commit_ts, name, relation)
            for name, relation in result.tables.items()])
    return reports


def _check_table(db: Database, xid: int, commit_ts: int, table_name: str,
                 relation) -> TableCheck:
    """The rows ``relation`` (the transaction's reenacted write set)
    wrote and deleted, against the versions transaction ``xid``
    published in ``table_name`` at ``commit_ts``: a tombstone is a
    deleted row, any other version a written one."""
    table = db.table(table_name)
    ncols = len(table.schema.columns)
    upd_idx = relation.column_index(UPD)
    del_idx = relation.column_index(DEL)

    written_actual: Counter = Counter()
    deleted_actual = 0
    for row in relation.rows:
        if row[del_idx]:
            deleted_actual += 1
        elif row[upd_idx]:
            written_actual[row[:ncols]] += 1

    written_expected: Counter = Counter()
    deleted_expected = 0
    for version in table.versions_published_by(xid, commit_ts).values():
        if version.is_tombstone:
            deleted_expected += 1
        else:
            written_expected[version.values] += 1

    pieces = []
    if written_actual != written_expected:
        pieces.append(
            f"written mismatch: +{written_actual - written_expected} "
            f"-{written_expected - written_actual}")
    if deleted_actual != deleted_expected:
        pieces.append(f"deleted {deleted_actual} != {deleted_expected}")
    return TableCheck(table=table_name, ok=not pieces,
                      written_expected=written_expected,
                      written_actual=written_actual,
                      deleted_expected=deleted_expected,
                      deleted_actual=deleted_actual,
                      detail="; ".join(pieces))
