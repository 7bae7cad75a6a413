"""SQLite execution backend: reenactment as SQL on a stock engine.

The paper's deployment story, realized on SQLite:

1. every time-traveled table access in the plan is materialized into a
   temp table — the committed ``AS OF`` snapshot (or trigger-history
   snapshot) with the table's columns plus the ``__rowid__`` /
   ``__xid__`` annotation columns the reenactor threads through every
   step;
2. the plan is printed as one SQL query through
   :data:`SQLITE_DIALECT` — the CASE-based UPDATE/DELETE translation,
   the tombstone bookkeeping and the READ COMMITTED rowid anti-join
   all become ordinary SQL;
3. SQLite executes the query; rows come back without booleans, so flag
   columns are coerced back before the relation is returned.

The snapshot cache (:mod:`repro.backends.cache`), the materialization
planner (:mod:`repro.backends.planner`) and the binder that executes
its steps (:mod:`repro.backends.binder`) live in their own modules;
the session and the priming pipeline live here.

Dialect deltas from the native printer, each load-bearing:

* ``AS OF`` scans become scans of the materialized snapshot tables
  (SQLite has no time travel — challenge C2 is met by materializing);
* compound-SELECT operands are *not* parenthesized — SQLite rejects
  ``(SELECT ...) UNION ALL (SELECT ...)`` — each side is wrapped as a
  plain ``SELECT * FROM (...)`` instead;
* identifiers are double-quoted (snapshot table names and annotation
  columns like ``__rowid__`` are not words we want the SQLite parser
  interpreting);
* :class:`~repro.algebra.operators.AnnotateRowId` (reenacted
  ``INSERT ... SELECT``) is expressible here via ``ROW_NUMBER() OVER
  ()`` — the native dialect has to refuse it;
* ``WITH ... AS MATERIALIZED`` barriers are only emitted on SQLite
  >= 3.35 (older parsers reject the keyword).

Known semantic deltas (documented, asserted on by the differential
harness only where the backends agree by design): SQLite integer
division truncates where the evaluator promotes to float on inexact
division, and SQLite compares values of mismatched types by storage
class instead of raising.  ``PRAGMA case_sensitive_like`` aligns LIKE
with the evaluator's case-sensitive semantics.
"""

from __future__ import annotations

import sqlite3
from typing import Dict, List, Optional, Set, Tuple

from repro.algebra import operators as op
from repro.algebra.evaluator import EvalContext, Relation
from repro.algebra.expressions import contains_subquery
from repro.algebra.operators import DEL_FLAG, ROWID_SUFFIX, UPD_FLAG
from repro.algebra.sqlgen import Dialect, DialectConfig, generate_sql
from repro.backends.base import (BackendSession, ExecutionBackend,
                                 SnapshotPipeline)
from repro.backends.binder import (SnapshotBinder, complete_partial,
                                   context_realm)
from repro.backends.cache import (DEFAULT_CACHE_CAPACITY, SnapshotCache,
                                  check_capacity, quote_ident,
                                  spillable_key)
from repro.backends.planner import batch_row_keys
from repro.db.types import DataType
from repro.errors import ExecutionError
from repro.faults.inject import fault_point
from repro.obs.trace import span

#: SQLite: bounded parser stack (flat CTEs), bare compound operands,
#: and a MATERIALIZED barrier against the query flattener where the
#: linked library can parse the keyword (>= 3.35).
SQLITE_DIALECT = DialectConfig(
    name="sqlite", quote_style="double", use_ctes=True,
    parenthesized_compounds=False,
    cte_materialization="MATERIALIZED"
    if sqlite3.sqlite_version_info >= (3, 35, 0) else "",
    window_functions=True)


class BoundDialect(Dialect):
    """A dialect wired to a :class:`SnapshotBinder`: time-traveled
    scans render as scans of the binder's materialized snapshot temp
    tables.  A node several parents share is computed ahead of the
    query into a temp table of its own (:attr:`ahead`): SQLite expands
    a CTE once per reference when it prepares a query, so a chain of
    shared CTEs — a READ COMMITTED re-base per statement — would cost
    it exponential time.  Everything else follows the config."""

    def __init__(self, binder: SnapshotBinder,
                 config: Optional[DialectConfig] = None):
        super().__init__(config)
        self.binder = binder
        #: (temp table name, SELECT) of every shared node, in
        #: dependency order
        self.ahead: List[Tuple[str, str]] = []

    def scan_source(self, scan: op.TableScan) -> str:
        return self.quote(self.binder.bind(scan))

    def cte_item(self, name: str, body: str,
                 shared: bool = False) -> Optional[str]:
        if shared:
            self.ahead.append((name, body))
            return None
        return super().cte_item(name, body)


class SQLPipeline(SnapshotPipeline):
    """The planned cross-compile priming pipeline over one
    :class:`SQLiteSession`.

    Construction indexes the whole series: for every plain committed
    ``(table, ts)`` pair it records the first set that reads it, and
    the row keys the series lets a partial build of it use (a set may
    map each pair to its keys; see
    :func:`~repro.backends.planner.batch_row_keys`).  Priming set
    ``i`` then counts pairs an earlier set already materialized as
    *shared primes* instead of re-requesting them, and hands the rest
    to the planner, which hops each from a cached neighbor without
    consuming it.  The batch is this pipeline's context: a partial
    entry it built is read as it is by binders of that context alone,
    and by none once the pipeline closes."""

    def __init__(self, session: "SQLiteSession", snapshot_sets,
                 ctx: EvalContext):
        snapshot_sets = list(snapshot_sets)
        super().__init__(session, snapshot_sets, ctx)
        #: the states this series may build partially
        self._row_keys = batch_row_keys(snapshot_sets)
        self._first_reader: Dict[Tuple[str, int], int] = {}
        for index, snapshots in enumerate(self.snapshot_sets):
            for table, ts in snapshots:
                if ts is not None:
                    self._first_reader.setdefault((table, int(ts)),
                                                  index)

    def prime(self, index: int) -> None:
        super().prime(index)
        session: "SQLiteSession" = self.session
        session._check_open()
        binder = session._binder(self.ctx, priming=True)
        requested = sorted({(table, int(ts))
                            for table, ts in self.snapshot_sets[index]
                            if ts is not None})
        # requests an earlier compile in this pipeline already paid
        # for — the cross-compile sharing the union hand-off exists for
        # (at the first set nothing is shared with an earlier one yet)
        if index:
            cached = {(table, ts) for table, ts, _name
                      in session.cache.plain_entries(binder.realm)}
            session.stats.primes_shared += sum(
                1 for pair in requested
                if pair in cached and self._first_reader[pair] < index)
        binder.row_keys = self._row_keys
        for table, ts in requested:
            binder.bind_key(table, ts)
        binder.materialize(session.conn)

    def close(self) -> None:
        super().close()
        self.session.cache.release(self.ctx)


class SQLiteSession(BackendSession):
    """One SQLite connection plus a snapshot cache, shared by every
    plan executed in the session.

    Temp tables live per connection, so a snapshot materialized for one
    plan is directly scannable by the next — the cache turns a fleet of
    reenactments over the same transaction (N what-if variants, the
    debugger's prefix columns, a whole-history equivalence sweep) into
    one materialization per ``(table, ts)`` plus N cheap queries.
    Follow-up snapshots at nearby timestamps are built incrementally
    (clone + delta patch, see :class:`SnapshotBinder`), and the cache
    is LRU-bounded by the backend's ``cache_capacity`` — evicted
    snapshots drop their temp table and are rebuilt on demand.
    """

    def __init__(self, backend: "SQLiteBackend"):
        super().__init__(backend)
        fault_point("session.open", backend=backend.name)
        with span("session.open", engine="sqlite",
                  database=backend.database):
            self.conn = sqlite3.connect(backend.database)
        # LIKE is case-insensitive for ASCII by default; the paper's
        # semantics (and the in-memory evaluator) are case-sensitive
        self.conn.execute("PRAGMA case_sensitive_like = ON")
        self.cache = SnapshotCache(self.stats,
                                   capacity=backend.cache_capacity,
                                   on_evict=self._drop_snapshot)
        if backend.spill_store is not None:
            self.attach_spill_store(backend.spill_store)
        #: snapshot temp tables that already carry their __rowid__
        #: index — built lazily before the first query that scans them,
        #: so snapshots that only ever serve as delta-clone sources
        #: (pipeline priming) never pay for one.
        self._indexed: Set[str] = set()

    def _binder(self, ctx: EvalContext,
                priming: bool = False) -> SnapshotBinder:
        return SnapshotBinder(ctx, cache=self.cache, priming=priming,
                              store=self.spill_store,
                              config=self.backend.dialect_config)

    def attach_spill_store(self, store) -> None:
        """Share a snapshot spill store with this session: evicted
        plain committed snapshots are saved to it instead of destroyed,
        and cache misses consult it before rebuilding (see
        :class:`repro.service.store.SnapshotStore`)."""
        self._check_open()
        self.spill_store = store

    def _spill(self, name: str, realm, key) -> None:
        """Save a resident plain committed snapshot to the spill store
        — unless the store already holds this immutable state
        (write-through published it, or another session spilled it
        first).  A partial entry is completed first: the store only
        ever holds whole states."""
        if self.spill_store is None or not spillable_key(key) \
                or (realm, key[0], key[1]) in self.spill_store:
            return
        complete_partial(self.conn, self.cache, name, None)
        rows = self.conn.execute(
            f"SELECT * FROM {quote_ident(name)}").fetchall()
        self.spill_store.put(realm, key[0], key[1], rows)
        self.stats.snapshots_spilled += 1

    def _drop_snapshot(self, name: str, entry) -> None:
        # eviction demotes instead of destroying
        self._spill(name, *entry)
        self.conn.execute(f"DROP TABLE IF EXISTS {quote_ident(name)}")
        self._indexed.discard(name)

    def _ensure_indexes(self, names: Set[str]) -> None:
        """Index the row-identity column of every snapshot the next
        query scans — called for plans that probe (:func:`_probes`).
        ``__rowid__`` is the join key of every reenactment plan that
        joins at all — the READ COMMITTED rowid anti-join and the
        provenance left join — and without an index each such access
        is a full scan of the temp table."""
        for name in names - self._indexed:
            self.conn.execute(
                f"CREATE INDEX {quote_ident('__ix_' + name)} "
                f"ON {quote_ident(name)} ({quote_ident(ROWID_SUFFIX)})")
            self._indexed.add(name)

    def publish_snapshots(self, snapshots, ctx: EvalContext) -> None:
        self._check_open()
        realm = context_realm(ctx)
        for table, ts in snapshots:
            name = self.cache.lookup(realm, (table, ts))
            if name is not None:
                self._spill(name, realm, (table, ts))
        # priming never evicts its own set, so a set larger than the
        # cache leaves it over its bound: trim now that all is stored
        self.cache.enforce_capacity()

    def snapshot_pipeline(self, snapshot_sets,
                          ctx: EvalContext) -> SnapshotPipeline:
        """Planned cross-compile priming (see :class:`SQLPipeline`)."""
        self._check_open()
        return SQLPipeline(self, snapshot_sets, ctx)

    def execute_plan(self, plan: op.Operator,
                     ctx: EvalContext) -> Relation:
        self._check_open()
        with span("backend.execute_plan", engine="SQLite"):
            binder = self._binder(ctx)
            dialect = BoundDialect(binder, self.backend.dialect_config)
            sql = generate_sql(plan, dialect=dialect)
            binder.materialize(self.conn)
            if _probes(plan):
                self._ensure_indexes(binder.used_names)
            params = ctx.params or {}
            statement = sql
            try:
                fault_point("session.execute")
                for name, body in dialect.ahead:
                    statement = \
                        f"CREATE TEMP TABLE {quote_ident(name)} AS {body}"
                    self.conn.execute(statement, params)
                statement = sql
                rows = self.conn.execute(sql, params).fetchall()
            except sqlite3.Error as exc:
                raise ExecutionError(
                    f"SQLite rejected generated reenactment SQL: "
                    f"{exc}\n{statement}") from exc
            finally:
                for name, _body in dialect.ahead:
                    self.conn.execute(
                        f"DROP TABLE IF EXISTS {quote_ident(name)}")
            self.stats.plans_executed += 1
        # an edited table is a ``table.column``-named constant leaf
        tables = binder.tables_used | {
            name.split(".", 1)[0] for node in op.walk_plan(plan)
            if isinstance(node, op.ConstRel)
            for name in node.names if "." in name}
        return _coerce_result(plan.attrs, rows,
                              _bool_positions(plan.attrs, ctx, tables))

    def _teardown(self) -> None:
        self.conn.close()


def _probes(plan: op.Operator) -> bool:
    """Whether a plan looks rows up instead of streaming them: it holds
    a join (the READ COMMITTED rowid anti-join, the provenance left
    join) or a subquery expression (redirected ``INSERT ... SELECT``
    and ``WHERE ... IN (SELECT ...)`` reads).  A snapshot-isolation
    update/delete chain filters and projects; an index on its snapshot
    is built and never read."""
    nodes = list(op.walk_plan(plan))
    return any(isinstance(node, op.Join) for node in nodes) \
        or any(contains_subquery(expr) for node in nodes
               for expr in node.expressions())


def _bool_positions(attrs: List[str], ctx: EvalContext,
                    tables: Set[str]) -> List[int]:
    """Output positions that must be coerced back to bool (SQLite
    stores booleans as 0/1): the reenactment flag columns plus
    BOOL-typed data columns of the tables the plan touched.

    Data columns are matched by short name, which is a heuristic: a
    name is only coerced when *every* touched table typing it agrees
    on BOOL (a collision with a non-BOOL column of another table
    disables coercion for that name rather than corrupting its
    values), and computed columns under fresh aliases are not
    recognized at all — the type-strict differential harness is what
    keeps this honest for the plans the system generates."""
    bool_names = {UPD_FLAG, DEL_FLAG}
    catalog = getattr(getattr(ctx, "db", None), "catalog", None)
    if catalog is not None:
        vetoed: Set[str] = set()
        for table in tables:
            if not catalog.has(table):
                continue
            for column in catalog.get(table).columns:
                if column.dtype is DataType.BOOL:
                    bool_names.add(column.name)
                    bool_names.add(f"prov_{table}_{column.name}")
                else:
                    vetoed.add(column.name)
        bool_names -= vetoed
    return [i for i, attr in enumerate(attrs)
            if attr.rsplit(".", 1)[-1] in bool_names]


def _coerce_result(attrs: List[str], rows: List[tuple],
                   bool_positions: List[int]) -> Relation:
    """Coerce SQLite's 0/1 back to booleans at the given positions
    (idempotent: genuine bools pass through unchanged)."""
    out: List[tuple] = []
    for row in rows:
        if bool_positions:
            values = list(row)
            for index in bool_positions:
                value = values[index]
                # only genuine flag values; anything else means the
                # name heuristic misfired and the value is data
                if value == 0 or value == 1:
                    values[index] = bool(value)
            out.append(tuple(values))
        else:
            out.append(tuple(row))
    return Relation(attrs, out)


class SQLiteBackend(ExecutionBackend):
    """Materialize snapshots into SQLite and run plans as SQL.

    One-shot ``execute_plan`` (inherited) runs each plan on a throwaway
    session; batch callers hold a session open so the connection and
    every materialized snapshot are shared.

    ``cache_capacity`` bounds the session snapshot cache (``None`` =
    unbounded; anything else must be >= 1).  ``spill_store`` (a
    :class:`repro.service.store.SnapshotStore`, or anything with its
    ``put``/``get`` surface) is attached to every session this backend
    opens: evicted plain committed snapshots spill there instead of
    being destroyed, and cache misses rehydrate from it — how the
    reenactment service shares snapshot work across its worker pool.

    *How* a snapshot is materialized is not configurable: the planner
    (:mod:`repro.backends.planner`) decides from the cache inventory,
    the version history and the cutover on :attr:`dialect_config`."""

    name = "sqlite"
    capabilities = {"sessions": True, "spill": True}
    #: quoting, compound form, CTE barriers, window capability,
    #: planner cutover.
    dialect_config: DialectConfig = SQLITE_DIALECT

    def __init__(self, database: str = ":memory:",
                 cache_capacity: Optional[int] = DEFAULT_CACHE_CAPACITY,
                 spill_store=None):
        self.database = database
        self.cache_capacity = check_capacity(cache_capacity)
        self.spill_store = spill_store

    def open_session(self) -> SQLiteSession:
        return SQLiteSession(self)
