"""Binding time-traveled scans to snapshot temp tables, and executing
the planner's steps on an engine connection.

:class:`SnapshotBinder` is the per-plan half of snapshot
materialization: it registers every scan the SQL generator renders,
asks :func:`repro.backends.planner.plan_snapshots` how each missing
state should be produced, and runs those steps — it decides nothing
itself.
"""

from __future__ import annotations

import sqlite3
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.algebra import operators as op
from repro.algebra.evaluator import EvalContext
from repro.algebra.expressions import EvalState, eval_expr
from repro.algebra.operators import ROWID_SUFFIX, XID_SUFFIX
from repro.algebra.sqlgen import NATIVE, DialectConfig
from repro.backends.base import SnapshotPlan, SnapshotPlanStep
from repro.backends.cache import (PartialMark, SnapshotCache,
                                  SnapshotKey, quote_ident, spillable_key)
from repro.backends.planner import (RowKeys, SnapshotRequest,
                                    plan_snapshots)
from repro.errors import ExecutionError, TimeTravelError
from repro.faults.inject import InjectedFault, fault_point
from repro.obs.explain import explain_active, record_explain
from repro.obs.trace import NOOP_SPAN, span


def context_realm(ctx: EvalContext):
    """The cache/store namespace of an evaluation context: the
    *durable history id* of the database it reads from (falling back
    to object identity for histories predating it), so a spill store
    outlives any one database object and a recycled ``id()`` can
    never alias two histories.  A context without a database
    (StaticContext) is its own realm, so snapshots never leak between
    unrelated contexts."""
    db = getattr(ctx, "db", None)
    if db is None:
        return id(ctx)
    return getattr(db, "history_id", None) or id(db)


def complete_partial(conn, cache: SnapshotCache, name: str,
                     scan) -> None:
    """Make the cached partial entry ``name`` whole, in place: insert
    the stored rows its build left out — read by ``scan(table, ts)``,
    or through the entry's database when ``scan`` is ``None`` — then
    clear its mark.  A complete entry is left alone.  No counter and
    no LRU recency moves: completing is the rest of the one build.

    A failure (a SQLite error, or the ``snapshot.complete`` fault
    site) forgets the entry and drops its table, so no half-complete
    table is ever served, and raises
    :class:`~repro.errors.ExecutionError`."""
    mark = cache.partial(name)
    if mark is None:
        return
    realm, key = mark.entry
    table, ts = key
    try:
        fault_point("snapshot.complete", table=table)
        stored = (scan or mark.db.table_snapshot)(table, ts)
        built = mark.rowids(stored)
        rest = [tuple(values) + (rowid, xid)
                for rowid, values, xid in stored if rowid not in built]
        if rest:
            SnapshotBinder._insert(conn, name, len(rest[0]), rest)
    except (sqlite3.Error, OverflowError, InjectedFault) as exc:
        cache.forget(realm, key)
        try:
            conn.execute(f"DROP TABLE IF EXISTS {quote_ident(name)}")
        except sqlite3.Error:
            pass  # the completion's own error is the one to report
        raise ExecutionError(
            f"completing partial snapshot ({table!r}, {ts}) failed: "
            f"{type(exc).__name__}: {exc}") from exc
    cache.completed(name)


class SnapshotBinder:
    """Maps time-traveled scans to materialized snapshot tables.

    Registration happens lazily while the SQL is generated (every scan
    the generator renders passes through :meth:`bind`, including scans
    inside subquery plans); :meth:`materialize` then creates and fills
    the temp tables on the target connection before the query runs.
    Snapshot resolution defers to the evaluation context, so
    trigger-history snapshot providers and plain time travel compose
    exactly as they do for the in-memory evaluator.

    Binds are first served from the session :class:`SnapshotCache`;
    only cache misses become fresh temp tables, produced by the
    planner's steps (see :data:`repro.backends.base.PLAN_OPS`) and
    published to the cache after they exist — a plan that fails before
    or during :meth:`materialize` never leaves the cache pointing at
    an absent or half-built table.

    ``priming`` marks a binder that materializes *ahead* of the plans
    that will scan its snapshots: its binds are bookkeeping, not
    reuses, and its fresh tables carry the cache's primed mark until a
    plan first scans them.

    ``config`` is the target engine's
    :class:`~repro.algebra.sqlgen.DialectConfig` (the planner's
    ``delta_max_ratio``).  A SQLite error during materialization is
    rethrown as :class:`~repro.errors.ExecutionError`.
    """

    def __init__(self, ctx: EvalContext,
                 cache: Optional[SnapshotCache] = None,
                 priming: bool = False, store=None,
                 config: DialectConfig = NATIVE):
        self.ctx = ctx
        self._state = EvalState(params=ctx.params)
        #: a binder without a session (SQL rendering only) gets a
        #: throwaway cache, so naming and accounting have one path.
        self.cache = cache if cache is not None else SnapshotCache()
        self._stats = self.cache.stats
        self._priming = priming
        self._config = config
        #: shared spill tier: cache misses on plain committed snapshots
        #: are rehydrated from here before falling back to a rebuild,
        #: and full builds are written through to it.
        self._store = store
        #: the priming pipeline's row keys per plain ``(table, ts)``
        #: (:func:`~repro.backends.planner.batch_row_keys`), set before
        #: :meth:`materialize`: the states it may build partially.
        self.row_keys: Dict[Tuple[str, int], RowKeys] = {}
        #: cached partial entries this binder's plan reads from outside
        #: the batch that built them — completed before it runs.
        self._incomplete: Dict[str, None] = {}
        #: the most recent :class:`SnapshotPlan` built by
        #: :meth:`materialize` (observability / test pinning).
        self.plan: Optional[SnapshotPlan] = None
        #: plain committed pairs this binder's scans found already
        #: resident — surfaced as ``reuse-cached`` plan steps.
        self._reused_pairs: "OrderedDict[Tuple[str, int], None]" = \
            OrderedDict()
        #: the database this context reads from, if any.
        self._source = getattr(ctx, "db", None)
        self.realm = context_realm(ctx)
        #: snapshot key -> temp table name, fresh for *this* plan.
        self._entries: Dict[SnapshotKey, str] = {}
        #: snapshot key -> (table, ts, pinned source object).
        self._meta: Dict[SnapshotKey, Tuple[str, Optional[int],
                                            Optional[object]]] = {}
        #: every temp-table name this plan references (cache hits and
        #: fresh entries alike) — protected from eviction until the
        #: plan has executed, and counted as a reuse at most once.
        self._used: Set[str] = set()
        #: base tables touched (for result-type coercion).
        self.tables_used: Set[str] = set()

    def snapshot_key(self, table: str, ts: Optional[int]
                     ) -> Tuple[SnapshotKey, Optional[object]]:
        """The cache key for a scan of ``table`` at ``ts``, plus the
        object (if any) whose identity the key depends on."""
        provider = getattr(self.ctx, "snapshot_provider", None)
        if provider is not None and ts is not None:
            return (table, ts, ("provider", id(provider))), provider
        return (table, ts), None

    def bind(self, scan: op.TableScan) -> str:
        ts: Optional[int] = None
        if scan.as_of is not None:
            value = eval_expr(scan.as_of, None, self._state)
            if value is None:
                raise TimeTravelError(
                    f"AS OF timestamp for {scan.table!r} is NULL")
            ts = int(value)
        return self.bind_key(scan.table, ts)

    def bind_key(self, table: str, ts: Optional[int]) -> str:
        """Register a scan of ``table`` at ``ts`` and return the temp
        table it will read — also the entry point for priming a
        session with a compiled reenactment's snapshot set."""
        key, pin = self.snapshot_key(table, ts)
        self.tables_used.add(table)
        name = self.cache.lookup(self.realm, key)
        if name is not None:
            if self.cache.partial(name, self.ctx) is not None:
                self._incomplete[name] = None
            if pin is None and ts is not None:
                self._reused_pairs.setdefault((table, ts))
            # ``snapshots_reused`` means "served from a snapshot an
            # earlier plan materialized": not a priming bind, not the
            # first scan of what this plan's own priming built
            if not self._priming and name not in self._used \
                    and not self.cache.first_scan(name):
                self._stats.snapshots_reused += 1
            self._used.add(name)
            return name
        name = self._entries.get(key)
        if name is None:
            clash = {ROWID_SUFFIX, XID_SUFFIX}.intersection(
                self.ctx.table_columns(table))
            if clash:
                raise ExecutionError(
                    f"table {table!r} has column(s) "
                    f"{sorted(clash)} — the names of the annotation "
                    f"columns every snapshot temp table carries; it "
                    f"cannot be materialized on a SQL backend")
            name = self.cache.allocate()
            self._entries[key] = name
            self._meta[key] = (table, ts, pin)
        self._used.add(name)
        return name

    @property
    def used_names(self) -> Set[str]:
        """Temp tables the generated SQL references (for deferred
        indexing and eviction protection)."""
        return self._used

    # .. snapshot temp tables .............................................

    def _snapshot_columns(self, table: str) -> List[str]:
        return list(self.ctx.table_columns(table)) \
            + [ROWID_SUFFIX, XID_SUFFIX]

    def _create_filled(self, conn, name: str, table: str,
                       rows: Sequence[tuple]) -> None:
        """CREATE a snapshot temp table and fill it with ``rows``
        (``(*data, __rowid__, __xid__)`` tuples)."""
        columns = self._snapshot_columns(table)
        conn.execute(
            f"CREATE TEMP TABLE {quote_ident(name)} "
            f"({', '.join(quote_ident(c) for c in columns)})")
        self._insert(conn, name, len(columns), rows)

    @staticmethod
    def _insert(conn, name: str, width: int,
                rows: Sequence[tuple]) -> None:
        if rows:
            placeholders = ", ".join("?" * width)
            conn.executemany(
                f"INSERT INTO {quote_ident(name)} "
                f"VALUES ({placeholders})", rows)

    @contextmanager
    def _delta_rowids(self, conn, owner: str, delta):
        """A scratch temp table holding the row ids a delta touches.
        They go through a table (not inline literals) so a large patch
        cannot overflow the engine's SQL-length limit."""
        scratch = f"__delta_ids_{owner}"
        conn.execute(f"CREATE TEMP TABLE {quote_ident(scratch)} "
                     f"({quote_ident(ROWID_SUFFIX)})")
        try:
            conn.executemany(
                f"INSERT INTO {quote_ident(scratch)} VALUES (?)",
                [(int(rowid),) for rowid, _, _ in delta])
            yield (f"(SELECT {quote_ident(ROWID_SUFFIX)} "
                   f"FROM {quote_ident(scratch)})")
        finally:
            conn.execute(f"DROP TABLE {quote_ident(scratch)}")

    # .. plan, then execute ...............................................

    def materialize(self, conn) -> None:
        for name in self._incomplete:
            self._complete(conn, name)
        steps = self._plan()
        self.plan = SnapshotPlan(
            steps=[SnapshotPlanStep(op="reuse-cached", table=table,
                                    ts=ts,
                                    reason="already resident in the "
                                           "session snapshot cache")
                   for table, ts in self._reused_pairs]
            + [step for _key, step in steps])
        if self.plan.steps and explain_active():
            record_explain(
                "snapshot-plan", counts=self.plan.counts(),
                steps=[step.as_dict() for step in self.plan.steps])
        with span("snapshot.plan", steps=len(self.plan)) as plan_span:
            if plan_span is not NOOP_SPAN:
                for op_name, count in self.plan.counts().items():
                    plan_span.set(op_name, count)
            self._execute(conn, steps)
        if self._priming:
            self.cache.mark_primed(self._entries.values())
        self.cache.enforce_capacity(protected=self._used)

    def _plan(self) -> List[Tuple[SnapshotKey, SnapshotPlanStep]]:
        if not self._meta:
            return []  # every bind was a cache hit: the common case
        db = self._source
        history = db if db is not None \
            and getattr(db, "config", None) is not None \
            and db.config.timetravel_enabled else None
        cached: Dict[str, List[int]] = {}
        if history is not None:
            for table, ts, _name in self.cache.plain_entries(self.realm):
                cached.setdefault(table, []).append(ts)
        requests = [SnapshotRequest(key, table, ts,
                                    pin is None and ts is not None,
                                    self.row_keys.get((table, ts)))
                    for key, (table, ts, pin) in self._meta.items()]
        return plan_snapshots(requests, cached, history,
                              self._config.delta_max_ratio,
                              self._store is not None)

    def _delta_chains(self, steps) -> Dict[Tuple[str, int, int], list]:
        """Fetch every delta a plan's per-table hop chains will apply
        in one commit-log pass per chain (see
        :meth:`repro.db.engine.Database.table_delta_chain`) instead of
        one bisection pair per hop."""
        chains: Dict[str, List[int]] = {}
        for _key, step in steps:
            if step.source_ts is None:
                continue
            chain = chains.get(step.table)
            if chain is not None and chain[-1] == step.source_ts:
                chain.append(step.ts)
            elif chain is None:
                chains[step.table] = [step.source_ts, step.ts]
        fetched: Dict[Tuple[str, int, int], list] = {}
        for table, chain in chains.items():
            if len(chain) < 3:
                continue  # a single hop gains nothing from chaining
            hops = self._source.table_delta_chain(table, chain)
            for hop, delta in zip(zip(chain, chain[1:]), hops):
                fetched[(table, *hop)] = delta
        return fetched

    def _execute(self, conn, steps) -> None:
        if not steps:
            return
        wanted = [(step.table, step.ts) for _key, step in steps
                  if step.op == "rehydrate-batch"]
        stored = self._store.fetch_many(self.realm, wanted) \
            if wanted else {}
        deltas = self._delta_chains(steps)
        #: live temp-table name per committed version, extended as
        #: steps run.
        live = {(table, ts): name for table, ts, name
                in self.cache.plain_entries(self.realm)}
        for key, step in steps:
            table, ts, pin = self._meta[key]
            name = self._entries[key]
            source, scanned, mark = None, False, None
            if step.source_ts is not None:
                source = live[(table, step.source_ts)]
                self._complete(conn, source)
                payload = deltas.get((table, step.source_ts, ts))
                if payload is None:
                    payload = self._source.table_delta(
                        table, step.source_ts, ts)
            else:
                payload = self._usable(table, stored.get((table, ts)))
                scanned = payload is None
                if scanned:
                    rows = self.ctx.scan_table(table, ts)
                    if step.op == "partial-build":
                        mark = self._partial_mark(key, table, ts)
                        kept = mark.rowids(rows)
                        rows = [row for row in rows if row[0] in kept]
                    payload = [tuple(values) + (rowid, xid)
                               for rowid, values, xid in rows]
            try:
                if source is not None:
                    self._clone(conn, name, source, table, payload)
                else:
                    self._create_filled(conn, name, table, payload)
            except (sqlite3.Error, OverflowError) as exc:
                self._abandon(conn, name)
                raise ExecutionError(
                    f"{step.op} of snapshot ({table!r}, {ts}) failed: "
                    f"{type(exc).__name__}: {exc}") from exc
            if source is not None:
                self._stats.delta_materializations += 1
                self._stats.delta_rows_applied += len(payload)
            elif scanned:
                # a partial build is the one storage-scan build too
                # (and never has a store to publish to)
                self._stats.full_materializations += 1
                self._publish(key, payload)
            else:
                self._stats.snapshots_rehydrated += 1
            self.cache.commit(self.realm, key, name,
                              pins=(self._source, pin))
            if mark is not None:
                self.cache.mark_partial(name, mark)
            if pin is None and ts is not None:
                live[(table, ts)] = name

    def _partial_mark(self, key: SnapshotKey, table: str,
                      ts: int) -> PartialMark:
        """What a partial build of ``(table, ts)`` keeps: the rows the
        batch's keys match, by column position."""
        columns = list(self.ctx.table_columns(table))
        return PartialMark(
            self.ctx, (self.realm, key),
            tuple((columns.index(column), values)
                  for column, values in self.row_keys[(table, ts)]),
            self._source)

    def _complete(self, conn, name: str) -> None:
        complete_partial(conn, self.cache, name, self.ctx.scan_table)

    def _abandon(self, conn, name: str) -> None:
        """A step failed on the engine: no cache entry may point at a
        half-built table.  A failed clone or build leaves only its own
        never-committed table, dropped here; its source is untouched."""
        self._used.discard(name)
        try:
            conn.execute(f"DROP TABLE IF EXISTS {quote_ident(name)}")
        except sqlite3.Error:
            pass  # the step's own error is the one to report

    def _usable(self, table: str, rows):
        """Store-fetched rows, or ``None`` on a store miss or when
        their width no longer matches the schema (distrust the stored
        copy; rebuild)."""
        if rows and len(rows[0]) != len(self._snapshot_columns(table)):
            return None
        return rows

    def _publish(self, key: SnapshotKey, rows: List[tuple]) -> None:
        """Write-through: a full build already paid the expensive
        storage scan, so a plain committed state goes to the spill
        store at once — other sessions' first touch of it rehydrates
        instead of rescanning, without waiting for an eviction.
        Skipped when another session already published the same
        immutable state."""
        if self._store is not None and spillable_key(key) \
                and (self.realm, *key) not in self._store:
            self._store.put(self.realm, *key, rows)
            self._stats.snapshots_spilled += 1

    def _clone(self, conn, name: str, source: str, table: str,
               delta) -> None:
        """One-pass clone of ``source`` without the rows the delta
        changed, then the delta's new row states."""
        create = (f"CREATE TEMP TABLE {quote_ident(name)} AS "
                  f"SELECT * FROM {quote_ident(source)}")
        if not delta:
            conn.execute(create)
        else:
            with self._delta_rowids(conn, name, delta) as rowids:
                conn.execute(
                    f"{create} WHERE {quote_ident(ROWID_SUFFIX)} "
                    f"NOT IN {rowids}")
            self._insert(conn, name, len(self._snapshot_columns(table)),
                         [tuple(values) + (rowid, xid)
                          for rowid, values, xid in delta
                          if values is not None])
