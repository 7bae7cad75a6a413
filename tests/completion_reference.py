"""Reference completion: one pass over the stored state per result.

:meth:`Reenactor.execute_all` completes a split result from a stored
state the batch formats once and every result of the batch shares
(:class:`repro.core.reenactor.StoredStates`): a list copy, the written
rows put in place by bisecting the rowid-ordered state.  This is the
loop it replaced, kept as the oracle: read the state, walk it, emit
each row storage holds unless the transaction wrote it, then the rows
the transaction inserted.

(A unique module name, importable from every test directory — see
``tests/service/service_helpers.py`` for why not ``conftest``.)
"""

from repro.algebra.evaluator import Relation


def reference_complete(db, table, affected, ts, options, edited=None):
    """The whole table state ``options`` ask for, from the rows the
    transaction wrote (``affected``: annotated, tombstones kept) and
    the snapshot of ``table`` at ``ts`` read off storage (R' if
    ``edited``)."""
    ncols = len(db.catalog.get(table).columns)
    rowid_at = affected.column_index("__rowid__")
    del_at = affected.column_index("__del__")
    annotated = options.annotations
    width = None if annotated else ncols
    keep_deleted = options.include_deleted
    pending = {row[rowid_at]: row for row in affected.rows}
    rows = []
    stored = db.table_snapshot(table, ts) if edited is None else \
        [(i + 1, tuple(row), 0) for i, row in enumerate(edited.rows)]
    for rowid, values, xid in stored:
        row = pending.pop(rowid, None)
        if row is None:
            row = tuple(values)
            rows.append(row + (rowid, xid, False, False)
                        if annotated else row)
        elif keep_deleted or not row[del_at]:
            rows.append(row[:width])
    rows.extend(row[:width] for row in pending.values()
                if keep_deleted or not row[del_at])
    return Relation(affected.attrs[:width], rows)
