"""Differential-testing harness: every backend must agree.

This is the permanent cross-validation oracle for the execution
backends (and, transitively, for every future optimization of either
path): seeded random concurrent histories from the workload generator
are reenacted on the in-memory interpreter *and* on every SQL engine
(``conftest.SQL_ENGINES``), and the results must be
multiset-identical — including annotation columns and tombstones — and
what-if scenarios must produce identical ``TableDiff``s, with diffs,
conflicts and degraded transactions equal to the reenact-every-write-set
reference (``tests/whatif_reference.py``).  Every committed
transaction's write set read off the commit log must equal its
reenacted one, and every split result's completion from its batch's
shared stored states the one-pass loop of
``tests/completion_reference.py``.

Comparison is type-strict (see ``conftest.typed_rows``): ``True == 1``
in Python, so a sloppy comparison would hide boolean-coercion bugs.

Three execution granularities are swept: ``oneshot`` reenacts each
transaction in isolation (throwaway session per call, so a state the
plans read only through key selections is built partially — and each
history's sweep must take that path at least once), ``session``
reenacts the whole history through one long-lived session per backend
— so the SQLite snapshot cache is validated against exactly the
histories that stress it (many transactions sharing AS-OF states) —
and ``delta`` runs the same long-lived sweep with *forced* incremental
materialization (the planner's ``delta_max_ratio`` raised until every
hop is affordable — ``planner_policy.FORCE_DELTA``): every snapshot
after a table's first is built by patching a cached neighbor with the
version-history delta, and the results must still be identical to the
interpreter's.  A fourth mode is the snapshot *pipeline's*
adversarial sweep: every transaction is compiled first, the whole
ordered series of snapshot sets is primed through
``session.snapshot_pipeline`` on a **capacity-1** cache under the
same admit-everything policy — so every hop clones a neighbor that is
evicted right after, and the answers still must not change.  Its test
id is ``inplace`` (the name of the in-place moves it once forced),
kept so the sweep's test ids stay stable.  A fifth mode,
``windowscan``, is the *timeline's* storage oracle: every commit
timestamp of the history is scanned through ``timeline_states`` and
each state must equal ``table_snapshot`` at that tick.

The forced paths are test-only policy overrides on a backend
subclass (``tests/planner_policy.py``); the shipped backends have no
mode to set.

CI runs the whole file as one step; the ``smoke`` subset (first few
seeds, ``-k smoke``) is the quick local slice, the full sweep covers
50+ histories across both isolation levels and every mode.
"""

import contextlib
import copy
import dataclasses
import itertools

import pytest

from repro import Database
from repro.algebra.evaluator import Evaluator, Relation
from repro.algebra.sqlgen import Dialect, generate_sql
from repro.backends import available_backends, resolve_backend
from repro.backends.sqlite import SQLITE_DIALECT
from repro.core.optimizer import ProvenanceOptimizer
from repro.core.reenactor import (ParsedStatement, ReenactmentOptions,
                                  Reenactor, snapshot_analysis)
from repro.core.whatif import WhatIfFleet, WhatIfScenario
from repro.errors import ReenactmentError
from repro.obs.explain import ExplainCollector
from repro.sql.parser import parse_statement

from completion_reference import reference_complete
from conftest import (SQL_ENGINES, assert_relations_match,
                      build_history, committed_xids)
from planner_policy import FORCE_DELTA, NO_DELTA, policy_backend
from provenance_reference import plain, reference_graph
from whatif_reference import reenacted_writes, reference_run
from whatif_reference import signature as whatif_signature

SMOKE_SEEDS = list(range(3))
FULL_SEEDS = list(range(25))
ISOLATION_LEVELS = ["SERIALIZABLE", "READ COMMITTED"]
#: ``inplace`` is the pipelined sweep (:func:`check_pipelined_differential`)
MODES = ["oneshot", "session", "delta", "inplace", "windowscan"]
CRASH_SMOKE_SEEDS = list(range(2))
CRASH_FULL_SEEDS = list(range(5))

STRICT_OPTIONS = ReenactmentOptions(annotations=True,
                                    include_deleted=True)


def _hops_expected(snapshot_sets):
    """Whether the pipelined sweep over these compiled snapshot sets
    must clone at least one neighbor (and so evict on a capacity-1
    cache): two consecutive compiles read the same table, and no pair
    is read twice.  A shared pair makes what is still cached depend
    on interleaving — then the check is vacuous rather than flaky."""
    readers = {}
    for index, snapshots in enumerate(snapshot_sets):
        for pair in {(t, ts) for t, ts in snapshots if ts is not None}:
            readers.setdefault(pair, []).append(index)
    if any(len(r) > 1 for r in readers.values()):
        return False
    tables_by_set = [{t for t, ts in snapshots if ts is not None}
                     for snapshots in snapshot_sets]
    return any(tables_by_set[i] & tables_by_set[i + 1]
               for i in range(len(tables_by_set) - 1))


def check_pipelined_differential(db, reenactor, seed, isolation,
                                 engine="sqlite"):
    """The pipelined (``inplace``) mode body: compile every committed
    transaction first, run the whole series through ``execute_all`` on
    a capacity-1 cache with every hop affordable (``FORCE_DELTA``), and
    require every result to match the in-memory interpreter's."""
    compiles = [reenactor.compile(reenactor.transaction_record(xid),
                                  STRICT_OPTIONS)
                for xid in committed_xids(db)]
    sets = [compiled.snapshots for compiled in compiles]
    backend = policy_backend(FORCE_DELTA, engine, cache_capacity=1)
    checked = 0
    with resolve_backend("memory").open_session() as mem_session, \
            backend.open_session() as sq_session:
        for sq in reenactor.execute_all(compiles, session=sq_session):
            mem = reenactor.reenact(sq.xid, STRICT_OPTIONS,
                                    session=mem_session)
            assert set(mem.tables) == set(sq.tables)
            for table in mem.tables:
                assert_relations_match(
                    mem.tables[table], sq.tables[table],
                    context=f"seed={seed} isolation={isolation} "
                            f"engine={engine} mode=pipelined "
                            f"xid={sq.xid} table={table}")
            checked += 1
        stats = sq_session.stats
    if checked and _hops_expected(sets):
        assert stats.delta_materializations > 0 \
            and stats.snapshots_evicted > 0, \
            f"pipelined sweep never hopped: seed={seed} " \
            f"isolation={isolation} stats={stats.as_dict()}"
    return checked


def check_timeline_storage_oracle(db, seed, isolation,
                                  engine="sqlite"):
    """The ``windowscan`` mode body: every commit timestamp of the
    history becomes a timeline tick, and for each table of the catalog
    the ``full`` state ``timeline_states`` returns at a tick must be
    ``table_snapshot`` at that tick — the attributes of an AS-OF scan,
    the rows in rowid order, type-strict — and the ``sparkline`` cell
    its row count.  The full scans submitted to a service on
    ``engine`` answer identically, and its worker's session runs no
    plan and builds no snapshot for them."""
    from repro import ReenactmentService
    from repro.db.auditlog import AuditEventKind
    from repro.debugger.timeline import timeline_states

    ticks = sorted({e.ts for e in db.audit_log.entries
                    if e.kind is AuditEventKind.COMMIT})
    if not ticks:
        return 0
    tables = sorted(db.catalog.table_names())
    checked = 0
    full = {}
    for table in tables:
        attrs = [f"{table}.{c}"
                 for c in db.catalog.get(table).column_names]
        full[table] = timeline_states(db, table, ticks)
        cells = timeline_states(db, table, ticks, mode="sparkline")
        for ts in ticks:
            context = (f"seed={seed} isolation={isolation} "
                       f"mode=windowscan table={table} ts={ts}")
            rows = [values for _rowid, values, _xid
                    in db.table_snapshot(table, ts)]
            state = full[table][ts]
            assert state.attrs == attrs, context
            assert _typed_sequence(state.rows) == _typed_sequence(rows), \
                context
            assert (cells[ts].attrs, cells[ts].rows) \
                == (["n_rows"], [(len(rows),)]), context
            checked += 1
    with ReenactmentService(db, backend=engine, workers=1,
                            store=None) as service:
        handles = {table: service.timeline_scan(table, ticks)
                   for table in tables}
        for table, handle in handles.items():
            served = handle.result(timeout=60)
            for ts in ticks:
                context = (f"seed={seed} isolation={isolation} "
                           f"engine={engine} service table={table} "
                           f"ts={ts}")
                assert served[ts].attrs == full[table][ts].attrs, context
                assert _typed_sequence(served[ts].rows) \
                    == _typed_sequence(full[table][ts].rows), context
        sessions = service.stats().sessions
    assert sessions["plans_executed"] \
        == sessions["snapshots_materialized"] == 0, sessions
    return checked


def check_history_differential(seed, isolation, mode="oneshot",
                               engine="sqlite"):
    """Reenact every committed transaction of one seeded history on
    the in-memory interpreter and on ``engine``, and compare; returns
    the number of transactions checked (the harness is vacuous on a
    history that commits nothing, so callers assert on the count).

    ``mode="session"`` runs each backend's whole sweep through one
    open session, so snapshots memoized for earlier transactions are
    reused (and must not leak into) later ones; ``mode="delta"`` is the
    same sweep with incremental materialization forced on the SQL
    side — every snapshot that *can* be a delta patch must be one, and
    nothing may change; ``mode="inplace"`` runs the snapshot pipeline
    on a capacity-1 cache (see :func:`check_pipelined_differential`);
    ``mode="windowscan"`` sweeps the timeline's storage oracle (see
    :func:`check_timeline_storage_oracle`)."""
    db = build_history(seed, isolation)
    reenactor = Reenactor(db)
    sql_reenactor = Reenactor(db, backend=engine)
    if mode == "inplace":
        return db, check_pipelined_differential(db, reenactor, seed,
                                                isolation, engine)
    if mode == "windowscan":
        return db, check_timeline_storage_oracle(db, seed, isolation,
                                                 engine)
    with contextlib.ExitStack() as stack:
        explained = stack.enter_context(ExplainCollector())
        sessions = {"memory": None, "sql": None}
        if mode in ("session", "delta"):
            # unbounded cache: these sweeps assert materialization
            # *identity* invariants (each key exactly once; every
            # possible delta taken), which eviction would legitimately
            # break — the eviction policy has its own tests
            backends = {
                "memory": resolve_backend("memory"),
                "sql": policy_backend(
                    FORCE_DELTA if mode == "delta" else {}, engine,
                    cache_capacity=None),
            }
            sessions = {
                name: stack.enter_context(backend.open_session())
                for name, backend in backends.items()}
        checked = 0
        for xid in committed_xids(db):
            mem = reenactor.reenact(xid, STRICT_OPTIONS,
                                    session=sessions["memory"])
            sq = sql_reenactor.reenact(xid, STRICT_OPTIONS,
                                       session=sessions["sql"])
            assert set(mem.tables) == set(sq.tables)
            for table in mem.tables:
                assert_relations_match(
                    mem.tables[table], sq.tables[table],
                    context=f"seed={seed} isolation={isolation} "
                            f"engine={engine} mode={mode} xid={xid} "
                            f"table={table}")
            checked += 1
        if mode == "oneshot" and checked:
            # every oneshot reenactment is a cold session: the batch's
            # keyed states must be built partially somewhere, or the
            # sweep above never ran that path
            built = [step["op"] for event in explained.events
                     for step in event.get("steps", ())]
            assert "partial-build" in built, \
                f"no partial build in a cold sweep: seed={seed} " \
                f"isolation={isolation} engine={engine} ops={built}"
        if mode in ("session", "delta") and checked:
            stats = sessions["sql"].stats
            assert all(count == 1
                       for count in stats.materializations.values()), \
                f"snapshot re-materialized: seed={seed} " \
                f"isolation={isolation} engine={engine}"
        if mode == "delta" and checked:
            # forced-delta accounting: for every table, the first plain
            # (table, ts) snapshot is a full build and every later one
            # a delta patch — the sweep must actually exercise the
            # incremental path, not silently fall back
            plain_ts = {}
            for key in stats.materializations:
                if len(key) == 2 and isinstance(key[1], int):
                    plain_ts.setdefault(key[0], set()).add(key[1])
            expected_deltas = sum(len(ts_set) - 1
                                  for ts_set in plain_ts.values())
            assert stats.delta_materializations == expected_deltas, \
                f"delta sweep fell back to full rebuilds: seed={seed} " \
                f"isolation={isolation} engine={engine}"
    return db, checked


def check_history_service_differential(seed, isolation):
    """Satellite of the service PR: every committed transaction of a
    seeded history is submitted *concurrently* to a
    :class:`ReenactmentService` (SQLite worker pool, capacity-1 session
    caches, shared spill store, no delta hop affordable so every
    refill is a store rehydrate or a full rebuild) and each result must be
    multiset-identical to the in-memory interpreter's direct
    ``Reenactor.execute``.  Two rounds are driven — the logical clock
    moves between them, so round two bypasses the result cache and
    lands on workers whose tiny caches have long evicted the needed
    snapshots — forcing spill/rehydrate cycles through the store while
    the answers must not move."""
    from repro import ReenactmentService
    db = build_history(seed, isolation)
    reenactor = Reenactor(db)
    xids = committed_xids(db)
    reference = {xid: reenactor.reenact(xid, STRICT_OPTIONS)
                 for xid in xids}
    workers = 3
    with ReenactmentService(
            db, backend=policy_backend(NO_DELTA, cache_capacity=1),
            workers=workers) as service:
        for round_no in range(2):
            handles = {xid: service.reenact(xid, STRICT_OPTIONS)
                       for xid in xids}
            for xid, handle in handles.items():
                result = handle.result(timeout=120)
                assert set(result.tables) == set(reference[xid].tables)
                for table in result.tables:
                    assert_relations_match(
                        result.tables[table],
                        reference[xid].tables[table],
                        context=f"seed={seed} isolation={isolation} "
                                f"mode=service round={round_no} "
                                f"xid={xid} table={table}")
            db.clock.tick()
        stats = service.stats()
    assert stats.jobs_failed == 0
    sessions = stats.sessions
    # pigeonhole: more distinct snapshot keys than workers means some
    # capacity-1 cache materialized at least two — eviction then spills
    # rather than destroys
    if sessions["distinct_snapshot_keys"] > workers:
        assert sessions["snapshots_spilled"] > 0, \
            f"no spills despite churn: seed={seed} " \
            f"isolation={isolation} stats={sessions}"
        assert sessions["snapshots_rehydrated"] > 0, \
            f"no rehydrates despite spills: seed={seed} " \
            f"isolation={isolation} stats={sessions}"
    return len(xids)


def check_crash_recover_differential(seed, isolation, tmp_path):
    """Satellite of the durability PR: one seeded history is executed
    on a WAL-attached database, then the log is truncated at *every*
    record boundary — each cut simulating a crash at that exact point —
    and recovered into a fresh database.  Every transaction whose
    commit made it into the prefix must reenact byte-identically to the
    reference reenactment computed on the live (never-crashed)
    database: a commit in the prefix reads only AS-OF states produced
    by strictly earlier commits, which are all in the prefix too, so
    later history (present in the reference, absent after the crash)
    must be invisible.  Returns the number of (cut, xid) comparisons
    made."""
    from repro.db.wal import record_offsets

    wal_dir = tmp_path / "wal"
    db = Database()
    db.attach_wal(str(wal_dir), fsync="never")
    build_history(seed, isolation, db=db)
    db.wal.flush(sync=True)
    db.wal.close()

    segments = sorted(wal_dir.glob("segment-*.log"))
    assert len(segments) == 1, "no checkpoint requested: one segment"
    raw = segments[0].read_bytes()
    offsets = record_offsets(segments[0])
    assert offsets and offsets[-1] == len(raw)

    reference_xids = committed_xids(db)
    reenactor = Reenactor(db)
    reference = {xid: reenactor.reenact(xid, STRICT_OPTIONS)
                 for xid in reference_xids}

    checked = 0
    trunc_dir = tmp_path / "crash"
    trunc_seg = trunc_dir / segments[0].name
    for cut in offsets:
        trunc_dir.mkdir(exist_ok=True)
        trunc_seg.write_bytes(raw[:cut])
        recovered = Database.open(str(trunc_dir))
        try:
            report = recovered.last_recovery
            assert report.torn_bytes_dropped == 0, \
                f"boundary cut at {cut} read as torn: seed={seed} " \
                f"isolation={isolation}"
            prefix_xids = committed_xids(recovered)
            assert set(prefix_xids) <= set(reference_xids), \
                f"recovery invented commits: seed={seed} " \
                f"isolation={isolation} cut={cut}"
            prefix_reenactor = Reenactor(recovered)
            for xid in prefix_xids:
                result = prefix_reenactor.reenact(xid, STRICT_OPTIONS)
                assert set(result.tables) == set(reference[xid].tables)
                for table in result.tables:
                    assert_relations_match(
                        result.tables[table],
                        reference[xid].tables[table],
                        context=f"seed={seed} isolation={isolation} "
                                f"mode=crash cut={cut} xid={xid} "
                                f"table={table}")
                checked += 1
        finally:
            recovered.wal.close()
        # the wal.attach append-path may have re-synced the file; reset
        # for the next cut by rewriting from the pristine copy
        trunc_seg.unlink()
    # the final cut is the whole log: recovery must be total
    full_dir = tmp_path / "full"
    full_dir.mkdir()
    (full_dir / segments[0].name).write_bytes(raw)
    full = Database.open(str(full_dir))
    try:
        assert committed_xids(full) == reference_xids
        assert full.clock.now() == db.clock.now()
        assert full.history_id == db.history_id
    finally:
        full.wal.close()
    return checked


def _edited_state(db, scenario):
    """R' for an ``edit_table`` variant: the begin-time state of the
    table the scenario's first statement writes, reversed, with one
    row dropped and one value changed."""
    table = scenario.statements[0].target
    rows = [values for _, values, _ in
            db.table_snapshot(table, scenario.record.begin_ts)][::-1][1:]
    if rows:
        rows[0] = rows[0][:-1] + ((rows[0][-1] or 0) + 1,)
    return table, rows


def check_whatif_differential(db, seed, isolation, engine="sqlite"):
    """The same modifications applied on both backends must yield
    identical diffs, and on each backend the diffs, conflicts and
    degraded transactions of ``run()`` — write sets read off the
    modified result and the commit log — must equal the reference that
    reenacts every write set (``tests/whatif_reference.py``).  Picks
    the first committed multi-statement transaction and builds three
    variants: drop its first statement (append an update when every
    transaction is single-statement), append a write of every row —
    so that conflicts with concurrent transactions, aborted ones
    included, are found and compared too — and edit a table it writes.
    They run as one fleet on one session, and each fleet result must
    also equal the variant's standalone ``run()``.  On the interpreter
    the appended write is swept over every other committed transaction
    too."""
    xids = committed_xids(db)
    target = next((xid for xid in xids
                   if len(db.audit_log.transaction_record(xid).statements)
                   >= 2), xids[0])
    signatures = {}
    for backend in ("memory", engine):
        fleet = WhatIfFleet(db, target, backend=backend)
        drop, append, edit = variants = [
            fleet.scenario(name) for name in ("drop", "append", "edit")]
        if len(drop.statements) >= 2:
            drop.delete_statement(0)
        else:
            drop.insert_statement(
                len(drop.statements),
                "UPDATE bench_account SET bal = bal + 17 WHERE id <= 3")
        append.insert_statement(len(append.statements),
                                "UPDATE bench_account SET bal = bal")
        edit.edit_table(*_edited_state(db, edit))
        context = f"seed={seed} isolation={isolation} backend={backend}"
        with resolve_backend(backend).open_session() as session:
            results = fleet.run(session=session)
        signatures[backend] = [whatif_signature(result)
                               for result in results.values()]
        # standalone runs and references share a session of their own
        memo = {}
        with resolve_backend(backend).open_session() as session:
            for scenario, signature in zip(variants, signatures[backend]):
                assert signature \
                    == whatif_signature(scenario.run(session=session)) \
                    == reference_run(scenario, session=session,
                                     memo=memo), \
                    f"{context} variant={scenario.statements}"
            if backend == "memory":
                for xid in sorted(set(xids) - {target}):
                    scenario = WhatIfScenario(db, xid, backend=backend)
                    scenario.insert_statement(
                        len(scenario.statements),
                        "UPDATE bench_account SET bal = bal")
                    assert whatif_signature(
                        scenario.run(session=session)) \
                        == reference_run(scenario, session=session,
                                         memo=memo), \
                        f"{context} xid={xid}"
    assert signatures["memory"] == signatures[engine], \
        f"what-if diff mismatch seed={seed} isolation={isolation} " \
        f"engine={engine}"


def check_storage_write_sets(seed, isolation):
    """A committed transaction's write set read off the commit log
    (``Database.rows_written_by``) equals the one reenacting it
    reports, for every committed transaction of the history; returns
    how many were compared."""
    db = build_history(seed, isolation)
    reenactor = Reenactor(db)
    xids = committed_xids(db)
    for xid in xids:
        commit_ts = db.audit_log.transaction_record(xid).commit_ts
        assert db.rows_written_by(xid, commit_ts) \
            == reenacted_writes(reenactor, xid), \
            f"seed={seed} isolation={isolation} xid={xid}"
    return len(xids)


def check_split_against_full_plan(seed, isolation):
    """What ``reenact()`` runs — the affected-rows query on a backend,
    completed from the AS-OF snapshot — against what it replaced: the
    full Example-3 plan of ``build_plans`` under the *request's*
    options, evaluated by the in-memory ``Evaluator``.  Swept over
    every committed transaction, the prefixes ``upto`` ∈ {0, mid, all},
    a written and a never-written table, and every legal combination of
    ``annotations`` × ``include_deleted`` (the illegal one must raise at
    compile), on the interpreter and on every SQL engine; type-strict
    multisets everywhere, and on the interpreter the row order too:
    snapshot rows in rowid order, each written row in its snapshot
    row's place, inserted rows last in statement order — under
    snapshot isolation exactly the full plan's order."""
    db = Database()
    db.execute("CREATE TABLE side (id INT, note TEXT)")
    db.execute("INSERT INTO side VALUES (1, 'a'), (2, 'b')")
    build_history(seed, isolation, db=db)
    reenactor = Reenactor(db)
    checked = 0
    with contextlib.ExitStack() as stack:
        sessions = {name: stack.enter_context(
                        resolve_backend(name).open_session())
                    for name in ["memory"] + SQL_ENGINES}
        for xid in committed_xids(db):
            record = reenactor.transaction_record(xid)
            n = len(record.statements)
            for upto, table in itertools.product(
                    sorted({0, n // 2, n}), ("bench_account", "side")):
                with pytest.raises(ReenactmentError,
                                   match="requires annotations"):
                    reenactor.compile(record, ReenactmentOptions(
                        upto=upto, table=table, include_deleted=True))
                ordered = {}
                for annotations, include_deleted in (
                        (True, True), (True, False), (False, False)):
                    options = ReenactmentOptions(
                        upto=upto, table=table, annotations=annotations,
                        include_deleted=include_deleted)
                    context = (f"seed={seed} isolation={isolation} "
                               f"xid={xid} {options}")
                    oracle = Evaluator(db.context(params={})).evaluate(
                        reenactor.build_plans(record, options)[table])
                    for name, session in sessions.items():
                        got = reenactor.reenact(
                            xid, options, session=session).table(table)
                        assert_relations_match(
                            oracle, got, context=f"{context} on {name}")
                        if name == "memory":
                            ordered[annotations, include_deleted] = got
                            if isolation == "SERIALIZABLE":
                                assert got.rows == oracle.rows, context
                    checked += 1
                # order, read off the annotated result
                full = ordered[True, True]
                rowid = full.column_index("__rowid__")
                deleted = full.column_index("__del__")
                ids = [row[rowid] for row in full.rows]
                stored = [i for i in ids if i > 0]
                assert stored == sorted(stored), context
                assert ids == stored + sorted(
                    (i for i in ids if i < 0), reverse=True), context
                live = [row for row in full.rows if not row[deleted]]
                assert ordered[True, False].rows == live, context
                width = len(ordered[False, False].attrs)
                assert ordered[False, False].rows == \
                    [row[:width] for row in live], context
    return checked


def check_completion_against_reference(seed, isolation):
    """Completion from a batch's shared stored states against the
    one-pass loop it replaced (``tests/completion_reference.py``),
    type-strict and in order.  Per backend, one ``execute_all`` batch
    runs every committed transaction under every legal
    ``annotations`` × ``include_deleted`` setting, each compile twice,
    then with a delete appended (the harness's own deletes rarely match
    a row, and a tombstone must be dropped or kept as asked), and once
    more with its table edited — so several results complete from one
    state, R' is completed too, and states of one table at several
    timestamps meet in one batch."""
    db = Database()
    db.execute("CREATE TABLE side (id INT, note TEXT)")
    db.execute("INSERT INTO side VALUES (1, 'a'), (2, 'b')")
    build_history(seed, isolation, db=db)
    reenactor = Reenactor(db)
    columns = list(db.catalog.get("bench_account").column_names)
    compiles = []
    for xid in committed_xids(db):
        record = reenactor.transaction_record(xid)
        statements = reenactor.parsed_statements(record)
        deleting = statements + [ParsedStatement(
            index=len(statements), ts=statements[-1].ts,
            stmt=parse_statement(
                "DELETE FROM bench_account WHERE id <= 3 OR bal > 900"))]
        for annotations, include_deleted in (
                (True, True), (True, False), (False, False)):
            options = ReenactmentOptions(annotations=annotations,
                                         include_deleted=include_deleted)
            compiled = reenactor.compile(record, options)
            compiles += [compiled, compiled, reenactor.compile(
                record, options, statements=deleting)]
        edited = [values for _, values, _ in
                  db.table_snapshot("bench_account", record.begin_ts)]
        compiles.append(reenactor.compile(
            record, STRICT_OPTIONS,
            edits={"bench_account": Relation(columns, edited[::-1][1:])}))
    checked = 0
    for name in ["memory"] + SQL_ENGINES:
        with resolve_backend(name).open_session() as session:
            for index, (compiled, result) in enumerate(zip(
                    compiles, reenactor.execute_all(compiles,
                                                    session=session))):
                assert compiled.split
                for table, got in result.tables.items():
                    want = reference_complete(
                        db, table, result.affected[table],
                        compiled.state_ts[table], compiled.options,
                        compiled.edits.get(table))
                    context = (f"seed={seed} isolation={isolation} "
                               f"backend={name} compile={index} "
                               f"table={table} {compiled.options}")
                    assert got.attrs == want.attrs, context
                    assert _typed_list(got) == _typed_list(want), context
                    checked += 1
    return checked


def _typed_list(relation):
    return [tuple((type(value).__name__, value) for value in row)
            for row in relation.rows]


def check_optimizer_metamorphic(seed, isolation):
    """The optimizer is a rewrite, never a semantics change:
    ``optimize=False`` and ``optimize=True`` must agree on every
    committed transaction of the history — whole tables and the
    affected-rows request, on the interpreter and on every SQL
    engine."""
    db = build_history(seed, isolation)
    checked = 0
    for xid in committed_xids(db):
        for backend, only_affected in itertools.product(
                ["memory"] + SQL_ENGINES, (False, True)):
            reenactor = Reenactor(db, backend=backend)
            options = dataclasses.replace(
                STRICT_OPTIONS, only_affected=only_affected)
            naive = reenactor.reenact(
                xid, dataclasses.replace(options, optimize=False))
            optimized = reenactor.reenact(xid, options)
            assert set(naive.tables) == set(optimized.tables)
            for table in naive.tables:
                assert_relations_match(
                    naive.tables[table], optimized.tables[table],
                    context=f"seed={seed} isolation={isolation} "
                            f"backend={backend} xid={xid} "
                            f"only_affected={only_affected}")
        checked += 1
    return checked


SUBQUERY_STATEMENTS = [
    "INSERT INTO bench_account (SELECT id + 5000, owner, branch, bal "
    "FROM bench_account WHERE branch = 0)",
    "UPDATE bench_account SET bal = bal + 1 WHERE id IN "
    "(SELECT id FROM bench_account WHERE bal > 500)",
    "DELETE FROM bench_account WHERE bal < 0 AND EXISTS "
    "(SELECT 1 FROM bench_account b WHERE b.branch = "
    "bench_account.branch AND b.bal > bench_account.bal + 900)",
]


def check_no_consumer_mutates_a_plan(seed, isolation):
    """Plans are values, and every consumer treats them so: whatever
    is done with a compiled plan set — optimized again, printed in two
    dialects, executed on two backends, scanned for its snapshots —
    it still equals the copy taken right after the compile.  Operators
    are frozen; this is what holds the ``Expr`` classes and the
    list-typed operator fields, immutable by contract only, to it.
    Three transactions — an ``INSERT ... SELECT``, an ``IN`` and a
    correlated ``EXISTS`` subquery — join each history, so the paths
    that rebuild subquery plans (redirecting reads, remapping
    correlated columns in ``sqlgen``) are swept too."""
    db = build_history(seed, isolation)
    session = db.connect()
    for statement in SUBQUERY_STATEMENTS:
        session.begin(isolation)
        session.execute(statement)
        session.commit()
    reenactor = Reenactor(db)
    sqlite_dialect = Dialect(SQLITE_DIALECT)
    checked = 0
    with contextlib.ExitStack() as stack:
        sessions = [stack.enter_context(
                        resolve_backend(name).open_session())
                    for name in ["memory"] + SQL_ENGINES]
        for xid, optimize, request in itertools.product(
                committed_xids(db), (True, False),
                ({}, {"only_affected": True},
                 {"annotations": True, "with_provenance": True})):
            compiled = reenactor.compile(
                reenactor.transaction_record(xid),
                ReenactmentOptions(optimize=optimize, **request))
            snapshot = copy.deepcopy(compiled.plans)
            for plan in compiled.plans.values():
                ProvenanceOptimizer().optimize(plan)
                for dialect in (None, sqlite_dialect):
                    with contextlib.suppress(ReenactmentError):
                        generate_sql(plan, dialect=dialect)
            for backend_session in sessions:
                reenactor.execute(compiled, session=backend_session)
            snapshot_analysis([compiled.plans])
            context = (f"seed={seed} isolation={isolation} xid={xid} "
                       f"optimize={optimize} {request}")
            # repr is structural everywhere; == is too, except that a
            # SubqueryExpr equals only itself (eq=False), never its copy
            text = repr(compiled.plans)
            assert text == repr(snapshot), context
            if "SubqueryExpr(" not in text:
                assert compiled.plans == snapshot, context
            checked += 1
        # a compile_all batch — every prefix of every table the
        # transaction wrote, plus the whole-transaction requests — is
        # one DAG of roots sharing their chains; running it changes none
        for xid in committed_xids(db):
            record = reenactor.transaction_record(xid)
            tables = sorted({parsed.target for parsed
                             in reenactor.parsed_statements(record)})
            requests = [ReenactmentOptions(upto=k, table=table,
                                           annotations=True,
                                           include_deleted=True)
                        for k in range(len(record.statements) + 1)
                        for table in tables]
            requests += [ReenactmentOptions(),
                         ReenactmentOptions(only_affected=True)]
            batch = reenactor.compile_all(record, requests)
            roots = [compiled.plans for compiled in batch]
            snapshot = copy.deepcopy(roots)
            for backend_session in sessions:
                for _result in reenactor.execute_all(
                        batch, session=backend_session):
                    pass
            assert repr(roots) == repr(snapshot), \
                f"seed={seed} isolation={isolation} xid={xid} batch"
            checked += 1
    return checked


def _typed_sequence(rows):
    """Rows in order, each value paired with its type name."""
    return [tuple((type(value).__name__, value) for value in row)
            for row in rows]


def check_panel_against_prefix_reenactments(seed, isolation):
    """The debug panel is one compile over one chain
    (``compile_all``, one ``execute_all``); what it replaced is one
    reenactment per column.  Every state of every column must equal,
    row for row and type-strict, ``reenact(upto=k, table=t,
    annotations=True, include_deleted=True)`` on the same backend —
    which pins the panel's row order to the per-column path's: stored
    rows by rowid, then inserted rows in insertion order, also where a
    READ COMMITTED re-base puts the transaction's own rows first.  The
    provenance graph read off the panel must equal the one built from
    per-prefix reenactments (``tests/provenance_reference.py``)."""
    from repro.debugger import TransactionInspector
    db = build_history(seed, isolation)
    references = {xid: reference_graph(db, xid)
                  for xid in committed_xids(db)}
    checked = 0
    for backend in ["memory"] + SQL_ENGINES:
        reenactor = Reenactor(db, backend=backend)
        for xid in committed_xids(db):
            inspector = TransactionInspector(db, xid, backend=backend)
            assert plain(inspector.transaction_graph()) \
                == references[xid], \
                f"seed={seed} isolation={isolation} backend={backend} " \
                f"xid={xid} provenance graph"
            for column in inspector.columns():
                for table, state in column.states.items():
                    relation = reenactor.reenact(xid, ReenactmentOptions(
                        upto=column.index + 1, table=table,
                        annotations=True, include_deleted=True)
                    ).table(table)
                    ncols = len(state.columns)
                    flags = [relation.column_index(name) for name in
                             ("__rowid__", "__xid__", "__upd__", "__del__")]
                    expected = [(row[flags[0]],) + row[:ncols]
                                + tuple(row[i] for i in flags[1:])
                                for row in relation.rows]
                    got = [(r.rowid,) + r.values
                           + (r.creator_xid, r.affected, r.deleted)
                           for r in state.rows]
                    assert _typed_sequence(got) \
                        == _typed_sequence(expected), \
                        f"seed={seed} isolation={isolation} " \
                        f"backend={backend} xid={xid} " \
                        f"column={column.index} table={table}"
                    checked += 1
    return checked


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_no_consumer_mutates_a_plan(seed, isolation):
    assert check_no_consumer_mutates_a_plan(seed, isolation) > 0


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_panel_columns_equal_prefix_reenactments(seed, isolation):
    assert check_panel_against_prefix_reenactments(seed, isolation) > 0


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_split_execution_equals_full_plan(seed, isolation):
    assert check_split_against_full_plan(seed, isolation) > 0


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_shared_state_completion_equals_reference(seed, isolation):
    assert check_completion_against_reference(seed, isolation) > 0


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_optimizer_on_off_metamorphic(seed, isolation):
    assert check_optimizer_metamorphic(seed, isolation) > 0


@pytest.mark.parametrize("engine", SQL_ENGINES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_differential_smoke(seed, isolation, mode, engine):
    """Quick slice: a few seeds, full checks, every mode.  The what-if
    check does not depend on the mode (every mode builds the same
    history), so it runs once per history, with ``oneshot``."""
    db, checked = check_history_differential(seed, isolation, mode,
                                             engine)
    assert checked > 0
    if mode == "oneshot":
        check_whatif_differential(db, seed, isolation, engine)


@pytest.mark.parametrize("engine", SQL_ENGINES)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed",
                         [s for s in FULL_SEEDS if s not in SMOKE_SEEDS])
def test_differential_full(seed, isolation, mode, engine):
    """Full sweep: together with the smoke slice this covers
    len(FULL_SEEDS) × 2 isolation levels = 50 seeded histories, each
    reenacted one-shot *and* through long-lived sessions — on every
    registered SQL engine."""
    db, checked = check_history_differential(seed, isolation, mode,
                                             engine)
    assert checked > 0
    if mode == "oneshot":
        check_whatif_differential(db, seed, isolation, engine)


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_storage_write_sets_equal_reenacted(seed, isolation):
    assert check_storage_write_sets(seed, isolation) > 0


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_service_differential_smoke(seed, isolation):
    """Quick service-scheduler slice (see
    ``check_history_service_differential``)."""
    assert check_history_service_differential(seed, isolation) > 0


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed",
                         [s for s in FULL_SEEDS if s not in SMOKE_SEEDS])
def test_service_differential_full(seed, isolation):
    """Full service sweep: together with the smoke slice, all 50
    seeded histories run through the concurrent scheduler with forced
    spill/rehydrate cycles."""
    assert check_history_service_differential(seed, isolation) > 0


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed", CRASH_SMOKE_SEEDS)
def test_crash_recover_differential_smoke(seed, isolation, tmp_path):
    """Quick crash-recovery slice (see
    ``check_crash_recover_differential``)."""
    assert check_crash_recover_differential(seed, isolation,
                                            tmp_path) > 0


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed",
                         [s for s in CRASH_FULL_SEEDS
                          if s not in CRASH_SMOKE_SEEDS])
def test_crash_recover_differential_full(seed, isolation, tmp_path):
    """Full crash sweep: together with the smoke slice, 10 seeded
    histories are truncated at every WAL record boundary, recovered,
    and reenacted against the never-crashed reference."""
    assert check_crash_recover_differential(seed, isolation,
                                            tmp_path) > 0


def _equivalence_fingerprint(report):
    """Every observable field of an equivalence report, as plain data
    — the byte-identical comparison for the union-priming ablation."""
    return [(c.table, c.ok, sorted(c.written_expected.items()),
             sorted(c.written_actual.items()), c.deleted_expected,
             c.deleted_actual, c.detail)
            for c in report.checks]


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_equivalence_union_priming_identical(seed, isolation):
    """Union priming is a materialization strategy, not a semantics
    change: the whole-history equivalence sweep (every transaction
    compiled first, the snapshot-set series pipelined) must produce
    reports byte-identical to a loop of per-transaction checks on one
    session (compile, prime and execute interleaved), and agree with
    the in-memory interpreter."""
    from repro.core.equivalence import (check_history_equivalence,
                                        check_transaction_equivalence)
    db = build_history(seed, isolation)
    backend = policy_backend(FORCE_DELTA, cache_capacity=1)
    on = check_history_equivalence(db, backend=backend)
    with resolve_backend("sqlite").open_session() as session:
        off = {xid: check_transaction_equivalence(
                   db, xid, backend="sqlite", session=session)
               for xid in committed_xids(db)}
    mem = check_history_equivalence(db, backend="memory")
    assert set(on) == set(off) == set(mem) and on
    for xid in on:
        fp = _equivalence_fingerprint(on[xid])
        assert fp == _equivalence_fingerprint(off[xid])
        assert fp == _equivalence_fingerprint(mem[xid])
        assert on[xid].ok


def test_sweep_covers_fifty_histories():
    """Acceptance guard: the parametrized sweep must span ≥ 50
    distinct seeded histories, each in every execution mode —
    including the forced-delta materialization mode, the capacity-1
    pipelined mode, the timeline storage oracle and the concurrent
    service-scheduler mode."""
    assert len(FULL_SEEDS) * len(ISOLATION_LEVELS) >= 50
    assert set(MODES) == {"oneshot", "session", "delta", "inplace",
                          "windowscan"}
    # every listed SQL engine rides the whole sweep: a plain
    # backend name, never a skip-marked parameter
    assert "sqlite" in SQL_ENGINES
    assert set(SQL_ENGINES) <= set(available_backends())
    assert check_history_service_differential.__doc__ is not None
    assert check_pipelined_differential.__doc__ is not None
    assert check_timeline_storage_oracle.__doc__ is not None
    # the crash sweep spans >= 10 histories, each cut at every boundary
    assert len(CRASH_FULL_SEEDS) * len(ISOLATION_LEVELS) >= 10
    assert check_crash_recover_differential.__doc__ is not None
