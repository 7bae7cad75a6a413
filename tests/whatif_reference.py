"""Reference conflict analysis: every write set reenacted.

:meth:`WhatIfScenario.run` reads write sets where they are already
held — the modified transaction's off its own reenactment, a committed
concurrent transaction's off storage's commit log — and reenacts only
aborted transactions.  This module is what it replaced, kept as the
slow oracle: the modified transaction reenacted a second time for its
write set, and *every* concurrent transaction, committed or not,
reenacted for its.  The differential harness holds the two to equal
diffs, conflicts and degraded transactions.

(A unique module name, importable from every test directory — see
``tests/service/service_helpers.py`` for why not ``conftest``.)
"""

from repro.core.reenactor import ReenactmentOptions, physical_writes
from repro.core.whatif import EXPECTED_REENACTMENT_ERRORS, WhatIfScenario

#: the only-affected request whose result is a write set
WRITES = ReenactmentOptions(annotations=True, include_deleted=True,
                            only_affected=True)


def reenacted_writes(reenactor, xid, session=None):
    """Per table, the stored rows transaction ``xid`` wrote, by
    reenacting it."""
    return physical_writes(
        reenactor.reenact(xid, WRITES, session=session).tables)


def _plain(diffs):
    return {table: (sorted(diff.added), sorted(diff.removed))
            for table, diff in diffs.items()}


def signature(result):
    """A :class:`WhatIfResult` as plain data: diffs, conflicts in
    report order, degraded xids."""
    conflicts = [(c.table, c.rowid, c.other_xid) for c in result.conflicts]
    return _plain(result.diffs), conflicts, dict(result.degraded_xids)


def reference_run(scenario, options=None, session=None, memo=None):
    """:func:`signature` of what ``scenario.run(options)`` reported
    when conflict analysis reenacted every write set.  ``memo`` keeps
    each concurrent transaction's reenacted write set (or error) by
    xid across calls on one database and backend: a scenario never
    changes what *other* transactions wrote."""
    memo = {} if memo is None else memo
    db, reenactor, record = scenario.db, scenario.reenactor, scenario.record
    options = options or ReenactmentOptions()
    edits = scenario._edits
    original = reenactor.reenact_record(
        record, options, statements=scenario._statements, session=session)
    modified = reenactor.reenact_record(
        record, options, statements=scenario.statements, edits=edits,
        session=session)
    diffs = _plain(WhatIfScenario.diff_results(original, modified))
    # a row of an edited table is a row of R' or an inserted one, never
    # a stored row another transaction could have written
    written = {table: rowids for table, rowids in physical_writes(
        reenactor.reenact_record(record, WRITES,
                                 statements=scenario.statements,
                                 edits=edits, session=session).tables
    ).items() if table not in edits}
    conflicts, degraded = [], {}
    if not written:
        return diffs, conflicts, degraded
    my_end = record.end_ts or db.clock.now()
    for other in db.audit_log.transactions(committed_only=False):
        other_end = other.end_ts or db.clock.now()
        if other.xid == record.xid or other.begin_ts > my_end \
                or other_end < record.begin_ts:
            continue
        if other.xid not in memo:
            memo[other.xid] = {}, None
            if other.statements:
                try:
                    memo[other.xid] = reenacted_writes(
                        reenactor, other.xid, session), None
                except EXPECTED_REENACTMENT_ERRORS as exc:
                    memo[other.xid] = {}, f"{type(exc).__name__}: {exc}"
        other_written, error = memo[other.xid]
        if error is not None:
            degraded[other.xid] = error
        for table, rowids in written.items():
            for rowid in sorted(rowids & other_written.get(table, set())):
                conflicts.append((table, rowid, other.xid))
    return diffs, conflicts, degraded
