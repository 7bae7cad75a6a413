"""Incremental snapshot materialization and the bounded snapshot cache.

The contract under test: a SQLite session asked for a ``(table, ts)``
snapshot near an already-cached one *patches* (clone + version-history
delta) instead of rebuilding from a full storage scan — without ever
changing an answer — while the cost model routes pathological histories
back to full rebuilds and the LRU capacity bound keeps the number of
live temp tables finite no matter how many distinct timestamps a
history has.  `SessionStats` (``full_materializations`` /
``delta_materializations`` / ``snapshots_evicted``) is the observable
evidence everything here asserts on.
"""

import pytest

from repro import Database, SQLiteBackend
from repro.backends import SnapshotCache
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.errors import ExecutionError
from repro.workloads import populate_accounts, uN_transaction

from conftest import assert_relations_match
from planner_policy import FORCE_DELTA, NO_DELTA, policy_backend

N_ROWS = 300
N_PROBES = 5

STRICT = ReenactmentOptions(annotations=True, include_deleted=True)


@pytest.fixture
def history_db():
    """A populated table plus a run of small committed transactions —
    the multi-timestamp probe workload deltas are for."""
    db = Database()
    db.execute("CREATE TABLE bench_account "
               "(id INT, owner TEXT, branch INT, bal INT)")
    populate_accounts(db, N_ROWS, seed=11)
    xids = [uN_transaction(db, 2, spread=7) for _ in range(N_PROBES)]
    return db, xids


def sweep(db, xids, backend, options=STRICT):
    reenactor = Reenactor(db, backend=backend)
    with backend.open_session() as session:
        results = [reenactor.reenact(xid, options, session=session)
                   for xid in xids]
    return results, session


# -- correctness: delta must never change an answer ------------------------

def test_delta_sweep_matches_full_sweep_and_interpreter(history_db):
    db, xids = history_db
    delta_results, _ = sweep(db, xids, policy_backend(FORCE_DELTA))
    full_results, _ = sweep(db, xids, policy_backend(NO_DELTA))
    memory = Reenactor(db)
    for xid, via_delta, via_full in zip(xids, delta_results,
                                        full_results):
        reference = memory.reenact(xid, STRICT)
        for table in reference.tables:
            assert_relations_match(via_delta.table(table),
                                   reference.table(table),
                                   context=f"delta xid={xid}")
            assert_relations_match(via_full.table(table),
                                   reference.table(table),
                                   context=f"full xid={xid}")


def test_first_snapshot_full_then_delta_hops(history_db):
    db, xids = history_db
    _, session = sweep(db, xids, policy_backend(FORCE_DELTA))
    stats = session.stats
    assert stats.full_materializations == 1
    assert stats.delta_materializations == len(xids) - 1
    assert stats.snapshots_materialized == len(xids)
    assert stats.delta_rows_applied > 0
    # patches were small: far fewer delta rows than full rebuilds
    # would have shipped
    assert stats.delta_rows_applied \
        < N_ROWS * stats.delta_materializations
    assert all(count == 1 for count in stats.materializations.values())


def test_default_policy_uses_deltas_for_small_write_sets(history_db):
    db, xids = history_db
    _, session = sweep(db, xids, SQLiteBackend())
    assert session.stats.delta_materializations == len(xids) - 1


# -- cost model fallback ---------------------------------------------------

def test_cost_model_falls_back_on_pathological_history():
    """A history whose every step rewrites the whole table: the delta
    between adjacent snapshots is the table itself, so the default
    policy must prefer full rebuilds while the admit-everything policy
    still patches."""
    db = Database()
    db.execute("CREATE TABLE bench_account "
               "(id INT, owner TEXT, branch INT, bal INT)")
    populate_accounts(db, 50, seed=3)
    xids = []
    for k in range(3):
        session = db.connect()
        session.begin()
        session.execute(f"UPDATE bench_account SET bal = bal + {k + 1}")
        xids.append(session.txn.xid)
        session.commit()

    _, auto_session = sweep(db, xids, SQLiteBackend())
    assert auto_session.stats.delta_materializations == 0
    assert auto_session.stats.full_materializations == len(xids)

    always_results, always_session = sweep(
        db, xids, policy_backend(FORCE_DELTA))
    assert always_session.stats.delta_materializations == len(xids) - 1
    # and the forced-delta answers still match the interpreter
    reference = Reenactor(db).reenact(xids[-1], STRICT)
    assert_relations_match(always_results[-1].table("bench_account"),
                           reference.table("bench_account"))


def test_history_off_commit_is_never_patched_over():
    """A commit published with history off is in no commit-log delta:
    the hop from a state before it to one after must not be a cheap
    clone that drops it.  Reenacting *b* after *a* on one session
    answers what the interpreter answers."""
    db = Database()
    db.execute("CREATE TABLE t (k INT, x INT)")
    db.execute("INSERT INTO t VALUES (1, 1)")

    def run(sql):
        session = db.connect()
        session.begin()
        session.execute(sql)
        xid = session.txn.xid
        session.commit()
        return xid

    a = run("UPDATE t SET x = x + 10 WHERE k = 1")
    db.config.timetravel_enabled = False
    run("INSERT INTO t VALUES (2, 2)")
    db.config.timetravel_enabled = True
    b = run("UPDATE t SET x = x + 100 WHERE k = 2")
    results, _ = sweep(db, [a, b], SQLiteBackend())
    memory = Reenactor(db)
    for xid, got in zip([a, b], results):
        assert_relations_match(got.table("t"),
                               memory.reenact(xid, STRICT).table("t"),
                               context=f"xid={xid}")
    assert (2, 102) in results[1].table("t").project(["k", "x"]).rows


def test_delta_ratio_tightens_the_budget(history_db):
    """delta_max_ratio=0 starves the cost model: every estimate > 0
    exceeds the budget, so every miss is a full rebuild — including
    for the smallest possible hop (a single-commit interval)."""
    db, xids = history_db
    xids = xids + [uN_transaction(db, 1, spread=7)]  # 1-commit hop
    _, session = sweep(db, xids,
                       policy_backend({"delta_max_ratio": 0.0}))
    assert session.stats.delta_materializations == 0
    assert session.stats.full_materializations == len(xids)


# -- bounded cache / eviction ----------------------------------------------

def test_capacity_bound_evicts_and_rematerializes(history_db):
    db, xids = history_db
    backend = policy_backend(FORCE_DELTA, cache_capacity=2)
    reenactor = Reenactor(db, backend=backend)
    with backend.open_session() as session:
        for xid in xids:
            reenactor.reenact(xid, STRICT, session=session)
        stats = session.stats
        assert stats.snapshots_evicted >= len(xids) - 2
        assert len(session.cache) <= 2
        # the evicted temp tables are actually gone from SQLite
        live = {row[0] for row in session.conn.execute(
            "SELECT name FROM sqlite_temp_master WHERE type = 'table' "
            "AND name LIKE '__snap%'")}
        assert len(live) <= 2
        # an evicted snapshot is re-materialized on demand, correctly
        again = reenactor.reenact(xids[0], STRICT, session=session)
        assert any(count > 1
                   for count in stats.materializations.values())
    reference = Reenactor(db).reenact(xids[0], STRICT)
    assert_relations_match(again.table("bench_account"),
                           reference.table("bench_account"))


def test_eviction_releases_provider_pins():
    """The capacity bound must free memory, not just temp tables: a
    trigger-history snapshot provider pinned only by evicted cache
    entries is released from the pin registry (its id() may only be
    reused once no live key embeds it — and conversely must not be
    held forever)."""
    from repro.core.trigger_history import TriggerHistory

    db = Database()
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.execute("INSERT INTO t VALUES (1, 10)")
    history = TriggerHistory(db)
    history.install(["t"])
    session = db.connect()
    session.begin()
    session.execute("UPDATE t SET v = 11")
    xid = session.txn.xid
    session.commit()

    backend = SQLiteBackend(cache_capacity=1)
    provider = history.snapshot
    tracked = Reenactor(db, audit_log=history.audit_log(),
                        snapshot_provider=provider, backend=backend)
    with backend.open_session() as backend_session:
        tracked.reenact(xid, session=backend_session)
        cache = backend_session.cache
        assert id(provider) in cache._pin_refs
        # displace the provider entry from the capacity-1 cache
        Reenactor(db, backend=backend).reenact(xid,
                                               session=backend_session)
        assert backend_session.stats.snapshots_evicted >= 1
        assert id(provider) not in cache._pin_refs, \
            "evicted provider is still pinned"
        # the surviving entry keeps its own pins live
        assert len(cache._pin_refs) >= 1


def test_default_session_capacity_is_bounded(history_db):
    db, _ = history_db
    backend = SQLiteBackend()
    with backend.open_session() as session:
        assert session.cache.capacity is not None


def test_in_flight_plan_snapshots_survive_eviction(history_db):
    """A single plan needing more snapshots than the whole cache
    capacity must still execute — its own temp tables are protected
    from eviction until the plan ran."""
    db, xids = history_db
    backend = policy_backend(FORCE_DELTA, cache_capacity=1)
    reenactor = Reenactor(db, backend=backend)
    with backend.open_session() as session:
        results = [reenactor.reenact(xid, STRICT, session=session)
                   for xid in xids]
    reference = Reenactor(db).reenact(xids[-1], STRICT)
    assert_relations_match(results[-1].table("bench_account"),
                           reference.table("bench_account"))


# -- temp-table indexes ----------------------------------------------------

def _snapshots_and_indexed(session):
    tables = {row[0] for row in session.conn.execute(
        "SELECT name FROM sqlite_temp_master WHERE type = 'table' "
        "AND name LIKE '__snap%'")}
    indexed = {row[0] for row in session.conn.execute(
        "SELECT tbl_name FROM sqlite_temp_master "
        "WHERE type = 'index'")}
    return tables, indexed


def test_materialized_snapshots_are_rowid_indexed(history_db):
    """A snapshot gets its ``__rowid__`` index when a plan probes it —
    the READ COMMITTED rowid anti-join, the provenance left join — and
    not for a snapshot-isolation chain, which only filters and
    projects."""
    db, xids = history_db
    writer = db.connect(user="rc")
    writer.begin("READ COMMITTED")
    writer.execute("UPDATE bench_account SET bal = bal + 1 WHERE id = 1")
    writer.execute("UPDATE bench_account SET bal = bal + 1 WHERE id = 2")
    rc_xid = writer.txn.xid
    writer.commit()
    backend = SQLiteBackend()
    reenactor = Reenactor(db, backend=backend)

    with backend.open_session() as session:
        reenactor.reenact(xids[0], STRICT, session=session)
        tables, indexed = _snapshots_and_indexed(session)
        assert tables and not indexed
    with backend.open_session() as session:
        reenactor.reenact(rc_xid, STRICT, session=session)
        tables, indexed = _snapshots_and_indexed(session)
        assert tables and tables <= indexed
    with backend.open_session() as session:
        reenactor.reenact(
            xids[0], ReenactmentOptions(annotations=True,
                                        with_provenance=True),
            session=session)
        tables, indexed = _snapshots_and_indexed(session)
        assert tables and tables <= indexed


# -- snapshot-set ordering / priming ---------------------------------------

def test_compiled_snapshot_set_is_sorted(history_db):
    db, xids = history_db
    reenactor = Reenactor(db)
    compiled = reenactor.compile(reenactor.transaction_record(xids[-1]),
                                 STRICT)
    assert compiled.snapshots == sorted(compiled.snapshots)


def test_priming_does_not_inflate_reuse_accounting(history_db):
    """``snapshots_reused`` keeps its pre-priming meaning: a plan bind
    served by a snapshot an *earlier* plan materialized.  The
    prime-then-execute handshake of a single reenactment contributes
    zero; only genuinely shared snapshots count."""
    db, xids = history_db
    backend = SQLiteBackend()
    reenactor = Reenactor(db, backend=backend)
    with backend.open_session() as session:
        reenactor.reenact(xids[0], STRICT, session=session)
        assert session.stats.snapshots_reused == 0
        reenactor.reenact(xids[0], STRICT, session=session)
        assert session.stats.snapshots_reused == 1


def test_priming_then_executing_adds_no_materializations(history_db):
    db, xids = history_db
    backend = SQLiteBackend()
    reenactor = Reenactor(db, backend=backend)
    record = reenactor.transaction_record(xids[0])
    compiled = reenactor.compile(record, STRICT)
    ctx = db.context(params={})
    with backend.open_session() as session:
        session.prime_snapshots(compiled.snapshots, ctx)
        primed = session.stats.snapshots_materialized
        assert primed == len(compiled.snapshots)
        reenactor.execute(compiled, session=session)
        assert session.stats.snapshots_materialized == primed


# -- configuration validation ----------------------------------------------

def test_backend_takes_no_materialization_mode():
    """How a snapshot is materialized is the planner's decision: the
    constructor has no argument to steer it."""
    import inspect
    assert list(inspect.signature(SQLiteBackend.__init__).parameters) \
        == ["self", "database", "cache_capacity", "spill_store"]


def test_invalid_cache_capacity_rejected():
    with pytest.raises(ExecutionError, match="capacity"):
        SnapshotCache(capacity=0)
