"""Reference provenance graph: every prefix reenacted on its own.

:meth:`TransactionInspector.transaction_graph` reads the graph off the
panel's one batch of prefix states.  This module is the path it
replaced, kept as the slow oracle: for each touched table, one
unoptimized plan per prefix evaluated by a fresh in-memory
:class:`Evaluator`, and a table the transaction only read found by a
whole-table AS-OF scan.  The differential harness holds the two to
equal nodes and edges.

The graph comes back as plain data — ``nodes``: ``(table, rowid,
column)`` → ``(values, creator_xid, deleted)``; ``edges``:
``(source, target)`` → ``(kind, statement)`` — and :func:`plain` puts
an inspector's graph in the same shape.

(A unique module name, importable from every test directory — see
``tests/service/service_helpers.py`` for why not ``conftest``.)
"""

from repro.algebra.evaluator import Evaluator
from repro.core.reenactor import (DEL, ROWID, UPD, XID,
                                  ReenactmentOptions, Reenactor)
from repro.db.transaction import IsolationLevel
from repro.errors import ReenactmentError
from repro.sql import ast


def plain(graph):
    """A :class:`ProvenanceGraph` as ``(nodes, edges)`` plain data."""
    return ({key: (tuple(view.values), view.creator_xid, view.deleted)
             for key, view in graph.nodes.items()}, dict(graph.edges))


def reference_graph(db, xid):
    """The derivation graph of transaction ``xid`` as ``(nodes,
    edges)``."""
    reenactor = Reenactor(db)
    record = reenactor.transaction_record(xid)
    statements = reenactor.parsed_statements(record)
    touched = []
    for parsed in statements:
        if parsed.target not in touched:
            touched.append(parsed.target)
    nodes, edges = {}, {}

    def state(table, k):
        """rowid → (values, creator, updated, deleted) after the first
        ``k + 1`` statements."""
        plans = reenactor.build_plans(
            record, ReenactmentOptions(upto=k + 1, table=table,
                                       annotations=True,
                                       include_deleted=True),
            statements=statements)
        relation = Evaluator(db.context()).evaluate(plans[table])
        ncols = len(db.catalog.get(table).columns)
        flags = [relation.column_index(name)
                 for name in (ROWID, XID, UPD, DEL)]
        return {row[flags[0]]: (tuple(row[:ncols]), row[flags[1]],
                                bool(row[flags[2]]), bool(row[flags[3]]))
                for row in relation.rows}

    def last_node(table, rowid, before):
        for column in range(before - 1, -2, -1):
            if (table, rowid, column) in nodes:
                return (table, rowid, column)
        return None

    for table in touched:
        previous = state(table, -1)
        for rowid, (values, creator, _, deleted) in previous.items():
            nodes[(table, rowid, -1)] = (values, creator, deleted)
        for k in range(len(statements)):
            current = state(table, k)
            if statements[k].target == table:
                for rowid, (values, creator, updated, deleted) \
                        in current.items():
                    prior = previous.get(rowid)
                    if prior is not None and prior[0] == values \
                            and prior[3] == deleted:
                        continue
                    key = (table, rowid, k)
                    nodes[key] = (values, creator, deleted)
                    # only the debugged transaction's writes derive
                    source = last_node(table, rowid, k) \
                        if prior is not None and updated else None
                    if source is not None:
                        edges[(source, key)] = (
                            "delete" if deleted else "update", k)
            previous = current

    rebased = record.isolation is IsolationLevel.READ_COMMITTED
    for k, parsed in enumerate(statements):
        if not isinstance(parsed.stmt, ast.Insert) \
                or isinstance(parsed.stmt.source, ast.ValuesClause):
            continue
        try:
            mapping = reenactor.insert_sources(record, statements, k)
        except ReenactmentError:
            continue
        for synthetic, sources in mapping:
            target = (parsed.target, synthetic, k)
            if target not in nodes:
                continue
            for table, rowid in sources:
                source = last_node(table, rowid, k) \
                    if table in touched else None
                if source is None:
                    # the version the statement read, in the column
                    # before it
                    source = (table, rowid, k - 1 if rebased else -1)
                    ts = parsed.ts if rebased else record.begin_ts
                    for rid, values, creator in db.table_snapshot(table,
                                                                  ts):
                        if rid == rowid:
                            nodes.setdefault(source,
                                             (values, creator, False))
                    if source not in nodes:
                        continue
                edges[(source, target)] = ("insert-source", k)
    return nodes, edges
