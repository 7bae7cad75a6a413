"""Equivalence checking: reenactment vs the original execution.

The central theorem behind the paper (§3, proven in [1]) says a
reenactment query produces *the same result* (updated tables) and the
same provenance as the original transaction.  This module is the test
oracle for that claim (experiment E3): it compares

1. the rows the reenacted transaction *wrote* against the committed
   versions the real execution created (from the storage version
   chains),
2. the rows it *deleted* against the real tombstones, and
3. the full reenacted final table against an independently reconstructed
   expectation (the transaction's committed writes overlaid on the
   snapshot it read).

The oracle inspects storage version chains directly — that is ground
truth the reenactor itself never touches (it only sees the audit log and
time travel), so the comparison is meaningful.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.reenactor import (DEL, UPD, ReenactmentOptions,
                                  Reenactor)
from repro.db.engine import Database


@dataclass
class TableCheck:
    """Comparison outcome for one table."""

    table: str
    ok: bool
    written_expected: Counter = field(default_factory=Counter)
    written_actual: Counter = field(default_factory=Counter)
    deleted_expected: int = 0
    deleted_actual: int = 0
    final_expected: Counter = field(default_factory=Counter)
    final_actual: Counter = field(default_factory=Counter)
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
    :func:`check_history_equivalence`)."""
    reenactor = Reenactor(db, backend=backend)
    record = reenactor.transaction_record(xid)
    if not record.committed:
        raise ValueError(f"transaction {xid} did not commit; only "
                         f"committed transactions have effects to check")
    options = ReenactmentOptions(annotations=True, include_deleted=True,
                                 optimize=optimize)
    compiled = reenactor.compile(record, options)
    result = reenactor.execute(compiled, session=session)
    return _report_for_result(db, compiled, result)


def _report_for_result(db: Database, compiled, result
                       ) -> EquivalenceReport:
    """Judge one reenactment result against storage ground truth —
    shared by the per-transaction entry point and the pipelined
    history sweep.  Each table is judged at the time the compile says
    its unwritten rows were read (``compiled.state_ts``): under READ
    COMMITTED that is the table's own last statement, not the
    transaction's."""
    report = EquivalenceReport(xid=compiled.xid)
    for table_name, relation in result.tables.items():
        check = _check_table(db, compiled.xid, table_name, relation,
                             compiled.state_ts[table_name])
        report.checks.append(check)
    return report


def _check_table(db: Database, xid: int, table_name: str, relation,
                 snapshot_ts: int) -> TableCheck:
    table = db.table(table_name)
    ncols = len(table.schema.columns)
    upd_idx = relation.column_index(UPD)
    del_idx = relation.column_index(DEL)

    written_actual: Counter = Counter()
    deleted_actual = 0
    final_actual: Counter = Counter()
    for row in relation.rows:
        data = row[:ncols]
        if row[del_idx]:
            deleted_actual += 1
            continue
        final_actual[data] += 1
        if row[upd_idx]:
            written_actual[data] += 1

    written_expected: Counter = Counter()
    deleted_expected = 0
    final_expected: Counter = Counter()
    for rowid, chain in table.rows.items():
        own = [v for v in chain.versions
               if v.committed and v.xid == xid]
        if own:
            last = own[-1]
            if last.is_tombstone:
                deleted_expected += 1
            else:
                written_expected[last.values] += 1
                final_expected[last.values] += 1
            continue
        visible = chain.committed_at(snapshot_ts)
        if visible is not None:
            final_expected[visible.values] += 1

    ok = (written_actual == written_expected
          and deleted_actual == deleted_expected
          and final_actual == final_expected)
    detail = ""
    if not ok:
        pieces = []
        if written_actual != written_expected:
            pieces.append(
                f"written mismatch: +{written_actual - written_expected} "
                f"-{written_expected - written_actual}")
        if deleted_actual != deleted_expected:
            pieces.append(f"deleted {deleted_actual} != "
                          f"{deleted_expected}")
        if final_actual != final_expected:
            pieces.append(
                f"final mismatch: +{final_actual - final_expected} "
                f"-{final_expected - final_actual}")
        detail = "; ".join(pieces)
    return TableCheck(table=table_name, ok=ok,
                      written_expected=written_expected,
                      written_actual=written_actual,
                      deleted_expected=deleted_expected,
                      deleted_actual=deleted_actual,
                      final_expected=final_expected,
                      final_actual=final_actual, detail=detail)


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
    reenactor = Reenactor(db, backend=backend)
    options = ReenactmentOptions(annotations=True, include_deleted=True,
                                 optimize=optimize)
    compiles = []
    for xid in xids:
        record = reenactor.transaction_record(xid)
        if not record.committed:
            raise ValueError(
                f"transaction {xid} did not commit; only committed "
                f"transactions have effects to check")
        compiles.append(reenactor.compile(record, options))
    return {compiled.xid: _report_for_result(db, compiled, result)
            for result, compiled in zip(reenactor.execute_all(compiles),
                                        compiles)}
