"""The debug-panel model (Fig. 4).

"The debug panel shows one column for each operation of the transaction
plus a column for the initial states of the relations accessed by the
transaction.  Each such column shows the SQL code of the statement and
the table modified by the statement (the version created by the
statement).  For each tuple version, we show which transaction created
that version."

The model computes every column by *prefix reenactment* — evaluating the
reenactment query for the first k statements — so inspecting a
transaction never touches the database state (challenge C1).  The
default filters to rows affected by at least one statement
("Show/Hide Unaffected Rows", marker 7); the set of displayed tables is
selectable (marker 8); clicking a tuple version yields its provenance
graph (marker 6).

The panel is one compile: every prefix of every table the transaction
touched is a tap on one reenactment chain
(:meth:`~repro.core.reenactor.Reenactor.compile_all`), optimized in
one run, and the states are computed in one batch on one backend
session — on the in-memory backend each statement of the chain is
evaluated once for the whole panel, on SQLite each ``(table, ts)``
state is materialized once instead of once per column.  The table
selection only filters those states, and the provenance graph
(:mod:`repro.debugger.graph`) is read off them.

Column *k* of a table is column *k - 1* plus what statement *k*
changed: a row equal to its predecessor keeps the predecessor's
:class:`TupleVersionView` object, and only changed, inserted and
deleted rows get a new one, so the views of one row are shared between
adjacent columns — they are read-only by contract.  The column's order
is its predecessor's, extended by newly inserted rows, unless the rows
changed otherwise (a READ COMMITTED re-base can bring in or drop stored
rows), which re-sorts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends import BackendSpec, resolve_backend
from repro.core.reenactor import (DEL, ROWID, UPD, XID,
                                  ReenactmentOptions, Reenactor)
from repro.core.whatif import WhatIfScenario
from repro.db.engine import Database
from repro.db.transaction import IsolationLevel
from repro.debugger.graph import NodeKey, ProvenanceGraph
from repro.errors import ReenactmentError
from repro.obs.explain import ExplainCollector
from repro.sql import ast


@dataclass
class TupleVersionView:
    """One row of one table state in one column of the panel.

    A row no statement changed between two columns is the same view
    object in both, so a view is read-only by contract: change one and
    every column that shows it changes.  (It is not frozen: a frozen
    dataclass costs about twice as much to build.)"""

    rowid: int
    values: tuple
    creator_xid: int
    affected: bool        #: written by the debugged transaction so far
    deleted: bool = False


@dataclass
class TableState:
    """One table in one column."""

    table: str
    columns: List[str]
    rows: List[TupleVersionView] = field(default_factory=list)

    def visible_rows(self, show_unaffected: bool
                     ) -> List[TupleVersionView]:
        if show_unaffected:
            return list(self.rows)
        return [r for r in self.rows if r.affected]


@dataclass
class DebugColumn:
    """One column of the debug panel: the initial state (index -1) or
    the state after statement ``index``."""

    index: int                    #: -1 for the initial column
    sql: Optional[str]            #: statement SQL (None for initial)
    target: Optional[str]         #: table the statement modified
    states: Dict[str, TableState] = field(default_factory=dict)


class TransactionInspector:
    """Programmatic debug panel for one past transaction."""

    def __init__(self, db: Database, xid: int,
                 tables: Optional[Sequence[str]] = None,
                 show_unaffected: bool = False,
                 backend: BackendSpec = None):
        self.db = db
        self.xid = xid
        self.show_unaffected = show_unaffected
        self.backend = resolve_backend(backend)
        self.reenactor = Reenactor(db, backend=self.backend)
        self.record = self.reenactor.transaction_record(xid)
        self.statements = self.reenactor.parsed_statements(self.record)
        touched = []
        for parsed in self.statements:
            if parsed.target not in touched:
                touched.append(parsed.target)
        self.touched_tables = touched
        #: tables currently displayed (marker 8 in Fig. 4), in the order
        #: the transaction first touched them
        self.selected_tables: List[str] = \
            self._touched(tables) if tables is not None else list(touched)
        self._states: Optional[Dict[Tuple[int, str], TableState]] = None
        self._columns: Optional[List[DebugColumn]] = None
        self._graph: Optional[ProvenanceGraph] = None
        #: the session counters of the batch that computed the prefix
        #: states — `primes_shared` records how many prefix probes were
        #: served by a snapshot an earlier probe in the pipeline paid
        #: for.
        self.last_stats = None
        #: plan-explain events (see :mod:`repro.obs.explain`) recorded
        #: while that batch materialized its snapshots — why each
        #: snapshot-plan action was chosen.
        self.last_explain: List[dict] = []

    # -- panel content --------------------------------------------------------

    def columns(self) -> List[DebugColumn]:
        """All panel columns, each showing the selected tables' states
        (:meth:`_prefix_states`)."""
        if self._columns is None:
            states = self._prefix_states()
            self._columns = [
                self._column(k, {table: states[(k, table)]
                                 for table in self.selected_tables})
                for k in range(-1, len(self.statements))]
        return self._columns

    def _prefix_states(self) -> Dict[Tuple[int, str], TableState]:
        """``(k, table)`` → the state of every touched table after the
        first ``k + 1`` statements, computed once — every prefix
        reenactment compiled in one :meth:`Reenactor.compile_all` and
        the whole series run by one :meth:`Reenactor.execute_all` on one
        backend session: the chain the prefixes share is optimized and
        evaluated once, and the begin-time snapshots are materialized
        once for the panel (``primes_shared`` counts the N-1
        hand-offs), not once per column."""
        if self._states is None:
            keys = [(k, table)
                    for k in range(-1, len(self.statements))
                    for table in self.touched_tables]
            compiles = self.reenactor.compile_all(
                self.record,
                [ReenactmentOptions(upto=k + 1, table=table,
                                    annotations=True, include_deleted=True)
                 for k, table in keys],
                statements=self.statements)
            states: Dict[Tuple[int, str], TableState] = {}
            # table → its previous column's rows, rowid → (row, view),
            # in display order
            previous: Dict[str, Dict[int, Tuple[tuple, TupleVersionView]]] \
                = {}
            collector = ExplainCollector()
            with collector, self.backend.open_session() as session:
                for result, (k, table) in zip(
                        self.reenactor.execute_all(compiles,
                                                   session=session),
                        keys):
                    states[(k, table)], previous[table] = \
                        self._state_from_relation(
                            table, result.table(table),
                            previous.get(table, {}))
                self.last_stats = session.stats
            self.last_explain = collector.events
            self._states = states
        return self._states

    def column(self, index: int) -> DebugColumn:
        """Column ``index``: -1 is the initial states, ``k`` the state
        after statement ``k``."""
        last = len(self.statements) - 1
        if not -1 <= index <= last:
            raise ReenactmentError(
                f"transaction {self.xid} has no panel column {index}; "
                f"columns run from -1 (initial states) to {last}")
        return self.columns()[index + 1]

    def timeline_strip(self, table: Optional[str] = None
                       ) -> Dict[str, Dict[int, int]]:
        """The cardinality strip drawn above the panel's prefix
        columns: each displayed table's committed row count at the
        transaction's begin time and every statement boundary, as
        ``{table: {ts: n_rows}}``.

        Read from storage by
        :func:`repro.debugger.timeline.timeline_states` in sparkline
        mode — one AS-OF read and one commit-log delta chain per
        table, whatever the panel's backend.  Boundary timestamps
        arrive unsorted and with duplicates (an open interval shares
        its start with the next statement)."""
        from repro.debugger.timeline import timeline_states
        tables = self._touched([table]) if table is not None \
            else self.selected_tables
        ticks: List[int] = [self.record.begin_ts]
        for stmt in self.record.statements:
            start, end = self.record.statement_interval(stmt.index)
            ticks.append(start)
            if end is not None:
                ticks.append(end)
        out: Dict[str, Dict[int, int]] = {}
        for name in tables:
            states = timeline_states(self.db, name, ticks,
                                     mode="sparkline")
            out[name] = {ts: states[ts].rows[0][0]
                         for ts in sorted(set(ticks))}
        return out

    def toggle_unaffected(self) -> bool:
        """The "Show/Hide Unaffected Rows" button (marker 7)."""
        self.show_unaffected = not self.show_unaffected
        return self.show_unaffected

    def select_tables(self, tables: Sequence[str]) -> None:
        self.selected_tables = self._touched(tables)
        self._columns = None  # re-filtered from the held states

    def _touched(self, tables: Sequence[str]) -> List[str]:
        """``tables`` in the order the transaction first touched them;
        a table it never touched is an error."""
        unknown = [t for t in tables if t not in self.touched_tables]
        if unknown:
            raise ReenactmentError(
                f"table(s) {unknown} were not touched by transaction "
                f"{self.xid}; touched: {self.touched_tables}")
        return [t for t in self.touched_tables if t in tables]

    # -- provenance (click action, marker 6) ---------------------------------------

    def transaction_graph(self) -> ProvenanceGraph:
        """The derivation graph of the whole transaction, built once
        from :meth:`_prefix_states` plus the insert-source edges of
        every ``INSERT ... SELECT``; a click reads it and computes
        nothing.

        A version the debugged transaction wrote at statement ``k`` has
        an ``update``/``delete`` edge from the row's previous version.
        A changed version it did not write — under READ COMMITTED, one a
        concurrent commit brought into the statement's snapshot — is a
        node at column ``k`` with no incoming edge."""
        if self._graph is None:
            states = self._prefix_states()
            nodes: Dict[NodeKey, TupleVersionView] = {}
            edges: Dict[Tuple[NodeKey, NodeKey], Tuple[str, int]] = {}
            for table in self.touched_tables:
                previous: Dict[int, TupleVersionView] = {}
                for k in range(-1, len(self.statements)):
                    current = {view.rowid: view
                               for view in states[(k, table)].rows}
                    if k < 0 or self.statements[k].target == table:
                        self._add_versions(nodes, edges, table, k,
                                           previous, current)
                    previous = current
            for k, parsed in enumerate(self.statements):
                if isinstance(parsed.stmt, ast.Insert) \
                        and not isinstance(parsed.stmt.source,
                                           ast.ValuesClause):
                    self._add_insert_sources(nodes, edges, k)
            self._graph = ProvenanceGraph(nodes, edges)
        return self._graph

    def provenance_graph(self, table: str, rowid: int,
                         column: Optional[int] = None) -> ProvenanceGraph:
        """The click action: everything tuple version ``table[rowid]``
        at ``column`` (default: its latest) was derived from."""
        return self.transaction_graph().provenance_of(table, rowid,
                                                      column)

    # -- what-if entry points (Fig. 4: editing SQL or table contents) ----------------

    def whatif(self) -> WhatIfScenario:
        """Start a what-if scenario from this transaction, on the
        panel's backend and statements (the record is not parsed
        again)."""
        return WhatIfScenario.parsed(self.reenactor, self.record,
                                     self.statements)

    # -- internals ---------------------------------------------------------------------

    def _column(self, k: int,
                states: Dict[str, TableState]) -> DebugColumn:
        if k < 0:
            column = DebugColumn(index=-1, sql=None, target=None)
        else:
            parsed = self.statements[k]
            column = DebugColumn(index=k, sql=str(parsed.stmt),
                                 target=parsed.target)
        column.states.update(states)
        return column

    def _state_from_relation(
            self, table: str, relation,
            previous: Dict[int, Tuple[tuple, TupleVersionView]]
    ) -> Tuple[TableState, Dict[int, Tuple[tuple, TupleVersionView]]]:
        """One table state, in the order the rows were stored — rowid
        order, then the rows the transaction inserted, in insertion
        (descending synthetic rowid) order — and its rows keyed by rowid
        in that order, the ``previous`` of the next column.  A whole
        chain does not keep the order: a READ COMMITTED re-base puts
        the transaction's own rows first, and a SQL engine owes no
        order at all.

        Rowids are unique within a state.  A row equal, type for type,
        to its entry in ``previous`` keeps that entry's view.  The order
        is ``previous``'s, extended by the new rows, unless a row of
        ``previous`` is gone or a new row would sort before its last;
        then the rows are sorted."""
        ncols = len(self.db.catalog.get(table).columns)
        rowid_idx = relation.column_index(ROWID)
        xid_idx = relation.column_index(XID)
        upd_idx = relation.column_index(UPD)
        del_idx = relation.column_index(DEL)
        state = TableState(
            table=table,
            columns=list(self.db.catalog.get(table).column_names))
        entries: Dict[int, Tuple[tuple, TupleVersionView]] = {}
        fresh: List[int] = []
        for row in relation.rows:
            rowid = row[rowid_idx]
            entry = previous.get(rowid)
            if entry is None:
                fresh.append(rowid)
            elif entry[0] is row or _same_row(entry[0], row):
                entries[rowid] = entry
                continue
            entries[rowid] = (row, TupleVersionView(
                rowid=rowid, values=row[:ncols], creator_xid=row[xid_idx],
                affected=bool(row[upd_idx]), deleted=bool(row[del_idx])))
        fresh.sort(key=_display_order)
        if len(entries) - len(fresh) == len(previous) and not (
                fresh and previous and _display_order(fresh[0])
                < _display_order(next(reversed(previous)))):
            order = [*previous, *fresh]
        else:
            order = sorted(entries, key=_display_order)
        carried = {rowid: entries[rowid] for rowid in order}
        state.rows = [view for _, view in carried.values()]
        return state, carried

    def _add_versions(self, nodes, edges, table: str, k: int,
                      previous: Dict[int, TupleVersionView],
                      current: Dict[int, TupleVersionView]) -> None:
        """The versions column ``k`` of ``table`` adds: every row of the
        initial column, and every new or changed row of a column whose
        statement targets ``table``."""
        for rowid, view in current.items():
            prior = previous.get(rowid)
            if prior is not None and prior.values == view.values \
                    and prior.deleted == view.deleted:
                continue
            key = (table, rowid, k)
            nodes[key] = view
            if prior is not None and view.affected:
                source = _last_node(nodes, table, rowid, k)
                if source is not None:
                    edges[(source, key)] = (
                        "delete" if view.deleted else "update", k)

    def _add_insert_sources(self, nodes, edges, k: int) -> None:
        try:
            mapping = self.reenactor.insert_sources(
                self.record, self.statements, k)
        except ReenactmentError:
            return
        target = self.statements[k].target
        for synthetic, sources in mapping:
            key = (target, synthetic, k)
            if key not in nodes:
                continue
            for table, rowid in sources:
                source = self._source_node(nodes, table, rowid, k)
                if source is not None:
                    edges[(source, key)] = ("insert-source", k)

    def _source_node(self, nodes, table: str, rowid: int,
                     k: int) -> Optional[NodeKey]:
        """The version of ``table[rowid]`` statement ``k`` read.  Of a
        touched table, the row's last version before column ``k``.
        Otherwise the stored version at the time the statement read
        (the begin time under SI, its own time under READ COMMITTED,
        as :meth:`Reenactor.state_timestamps` has it), added as a node
        of the column before the statement: the initial column under
        SI, column ``k - 1`` under READ COMMITTED."""
        if table in self.touched_tables:
            key = _last_node(nodes, table, rowid, k)
            if key is not None:
                return key
        rebased = self.record.isolation is IsolationLevel.READ_COMMITTED
        key = (table, rowid, k - 1 if rebased else -1)
        if key not in nodes:
            chain = self.db.table(table).rows.get(rowid)
            version = chain and chain.committed_at(
                self.statements[k].ts if rebased else self.record.begin_ts)
            if version is None or version.values is None:
                return None
            nodes[key] = TupleVersionView(
                rowid=rowid, values=version.values,
                creator_xid=version.xid, affected=False)
        return key


def _display_order(rowid: int) -> Tuple[bool, int]:
    """Stored rows by rowid, then inserted rows (negative synthetic
    rowids) in insertion order."""
    return rowid < 0, abs(rowid)


def _same_row(old: tuple, new: tuple) -> bool:
    """``old`` and ``new`` hold the same values of the same types
    (``1 == 1.0 == True``, but a view shows the type)."""
    return old == new and all(type(a) is type(b) for a, b in zip(old, new))


def _last_node(nodes, table: str, rowid: int,
               before: int) -> Optional[NodeKey]:
    """Most recent node of ``table[rowid]`` strictly before column
    ``before``."""
    for column in range(before - 1, -2, -1):
        if (table, rowid, column) in nodes:
            return (table, rowid, column)
    return None
