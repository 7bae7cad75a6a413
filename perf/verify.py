"""The ground-truth oracle: is what an op returned what was recorded?

Ground truth is the recorded history through the public time-travel
API only.  For a committed transaction, ``Database.table_delta`` across
its commit timestamp gives exactly the rows it wrote and deleted
(commit timestamps are unique); a table state at a tick is
``Database.table_snapshot``.  Nothing here asks another backend or the
program's own equivalence checker.  Comparison is type-strict, as
multisets.

For ``record_write`` the direction flips: the recorded history is the
*output*, and the expectation is :class:`TableModel`, a few lines that
replay the generated statements on a dict.

:func:`corruptions` is the negative self-check: a result with one
``bal`` changed, or one written row dropped, must be rejected —
otherwise the failure count could never rise.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from perf.workloads import COLUMNS, TABLE, Stmt, Txn

BAL = COLUMNS.index("bal")


def typed(values: Iterable) -> Tuple:
    """A row as a hashable that tells ``1`` from ``1.0`` from ``True``."""
    return tuple((type(v).__name__, v) for v in values)


@dataclass(frozen=True)
class Effects:
    """What one transaction did to one table."""

    written: Counter                 #: typed rows it left behind
    deleted: Optional[FrozenSet]     #: row keys it removed (None: unknown)

    @classmethod
    def of(cls, rows: Iterable[Tuple], deleted) -> "Effects":
        return cls(Counter(typed(row) for row in rows),
                   None if deleted is None else frozenset(deleted))


NO_EFFECTS = Effects(Counter(), frozenset())


def recorded_effects(db, xid: int, by_id: bool = False
                     ) -> Dict[str, Effects]:
    """What transaction ``xid`` wrote, from the recorded history.
    Deleted rows are keyed by rowid, or with ``by_id`` by the ``id``
    they had just before the commit."""
    record = db.audit_log.transaction_record(xid)
    if not record.committed:
        raise ValueError(f"transaction {xid} did not commit")
    ts = record.commit_ts
    out: Dict[str, Effects] = {}
    for table in db.tables:
        delta = db.table_delta(table, ts - 1, ts)
        if not delta:
            continue
        gone = [rowid for rowid, values, _ in delta if values is None]
        if by_id and gone:
            before = {rowid: values for rowid, values, _
                      in db.table_delta(table, ts, ts - 1)}
            gone = [before[rowid][0] for rowid in gone]
        out[table] = Effects.of(
            (values for _, values, _ in delta if values is not None), gone)
    return out


def compare_effects(expected: Dict[str, Effects],
                    actual: Dict[str, Effects]) -> Optional[str]:
    """``None`` when equal, else what differs."""
    for table in sorted(set(expected) | set(actual)):
        want = expected.get(table, NO_EFFECTS)
        got = actual.get(table, NO_EFFECTS)
        if want.written != got.written:
            return (f"{table}: written rows differ: "
                    f"missing {sum((want.written - got.written).values())}"
                    f", extra {sum((got.written - want.written).values())}")
        if want.deleted is not None and got.deleted is not None \
                and want.deleted != got.deleted:
            return (f"{table}: deleted rows differ: "
                    f"{sorted(want.deleted ^ got.deleted)[:5]}")
    return None


def check_ticks(db, table: str, states: Dict[int, object],
                counts: Dict[int, int]) -> Optional[str]:
    """``states`` maps a timestamp to a row count (sparkline) or to the
    rows of the full state.  ``counts`` remembers the recorded row
    count per timestamp (a recorded state does not change), so a round
    of sparklines over the same few ticks reads each snapshot once."""
    for ts, state in states.items():
        if isinstance(state, int):
            if ts not in counts:
                counts[ts] = len(db.table_snapshot(table, ts))
            if state != counts[ts]:
                return f"{table}@{ts}: {state} rows, recorded {counts[ts]}"
        elif Counter(typed(row) for row in state) != \
                Counter(typed(values) for _, values, _
                        in db.table_snapshot(table, ts)):
            return f"{table}@{ts}: state differs from the recorded one"
    return None


# -- negative self-check -----------------------------------------------------

def corruptions(actual: Dict[str, Effects]) -> List[Dict[str, Effects]]:
    """Two damaged copies of a result that wrote at least one row: one
    ``bal`` changed, one written row dropped.  Empty when the result
    wrote nothing (try the next op)."""
    for table, effects in actual.items():
        if not effects.written:
            continue
        row = next(iter(effects.written))
        changed = row[:BAL] + ((row[BAL][0], row[BAL][1] + 1),) \
            + row[BAL + 1:]
        bumped = effects.written - Counter([row]) + Counter([changed])
        dropped = effects.written - Counter([row])
        return [{**actual, table: Effects(bumped, effects.deleted)},
                {**actual, table: Effects(dropped, effects.deleted)}]
    return []


def corrupt_ticks(states: Dict[int, object]) -> List[Dict[int, object]]:
    ts, state = next(iter(states.items()))
    if isinstance(state, int):
        return [{**states, ts: state + 1}]
    if not state:
        return []
    first = state[0]
    changed = first[:BAL] + (first[BAL] + 1,) + first[BAL + 1:]
    return [{**states, ts: [changed] + list(state[1:])},
            {**states, ts: list(state[1:])}]


# -- the write path's model ---------------------------------------------------

class TableModel:
    """``bench_account`` as a dict, replaying generated statements."""

    def __init__(self, rows: Iterable[Tuple[int, str, int, int]]):
        self.rows: Dict[int, List] = {row[0]: list(row) for row in rows}

    def _apply(self, stmt: Stmt, touched: set, deleted: set) -> None:
        rows = self.rows
        if stmt.kind == "ins":
            rows[stmt.a] = [stmt.a, f"acct-{stmt.a}", stmt.branch, stmt.b]
            touched.add(stmt.a)
        elif stmt.kind == "upd":
            if stmt.a in rows:
                rows[stmt.a][BAL] += stmt.b
                touched.add(stmt.a)
        elif stmt.kind == "updb":
            for key, row in rows.items():
                if row[2] == stmt.a:
                    row[BAL] += stmt.b
                    touched.add(key)
        elif stmt.a in rows and rows[stmt.a][BAL] < stmt.b:
            del rows[stmt.a]
            touched.discard(stmt.a)
            deleted.add(stmt.a)

    def commit(self, txn: Txn) -> Dict[str, Effects]:
        """Apply ``txn``; returns what it must have written."""
        touched: set = set()
        deleted: set = set()
        for stmt in txn.statements:
            self._apply(stmt, touched, deleted)
        if not touched and not deleted:
            return {}
        return {TABLE: Effects.of((tuple(self.rows[key])
                                   for key in touched), deleted)}

    def state(self) -> Counter:
        return Counter(typed(row) for row in self.rows.values())


def table_state(db, table: str = TABLE) -> Counter:
    return Counter(typed(values) for _, values, _
                   in db.table_snapshot(table, db.clock.now()))


def check_recovery(live, recovered, commits: List[Tuple[int, int]],
                   reenact, seed: int, samples: int = 20
                   ) -> List[str]:
    """Every acknowledged commit must have survived the simulated
    kill: same effects per commit, same final table state, same
    audit-log length, and ``samples`` reenactments equal to the ones
    the live database gives.  ``reenact(db, xid)`` returns effects."""
    problems: List[str] = []
    for xid, _ts in commits:
        try:
            diff = compare_effects(recorded_effects(live, xid),
                                   recorded_effects(recovered, xid))
        except Exception as exc:  # a lost commit has no record at all
            diff = repr(exc)
        if diff is not None:
            problems.append(f"commit of transaction {xid} lost or "
                            f"changed by recovery: {diff}")
    if table_state(live) != table_state(recovered):
        problems.append("recovered table state differs")
    if len(live.audit_log) != len(recovered.audit_log):
        problems.append(
            f"audit log has {len(recovered.audit_log)} entries after "
            f"recovery, {len(live.audit_log)} before")
    rng = random.Random(f"{seed}/recovery")
    for xid, _ts in rng.sample(commits, min(samples, len(commits))):
        diff = compare_effects(reenact(live, xid), reenact(recovered, xid))
        if diff is not None:
            problems.append(f"reenactment of {xid} differs after "
                            f"recovery: {diff}")
    return problems
