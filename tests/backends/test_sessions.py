"""Backend sessions: lifecycle, snapshot memoization, cache keying.

The contract under test: a :class:`BackendSession` shares backend
resources across a batch of plan executions, and the SQLite session
materializes each ``(table, ts)`` snapshot exactly once no matter how
many plans scan it — observable through ``SessionStats``, which is the
same evidence the what-if fleet's acceptance test relies on.
"""

import pytest

import repro
from repro import Database, available_backends, resolve_backend
from repro.backends import InMemoryBackend, SQLiteBackend
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.errors import ExecutionError, ReproError

from conftest import assert_relations_match


def run_txn(db, statements):
    session = db.connect()
    session.begin()
    for sql in statements:
        session.execute(sql)
    xid = session.txn.xid
    session.commit()
    return xid


@pytest.fixture
def account_db(db):
    db.execute("CREATE TABLE account (cust TEXT, typ TEXT, bal INT)")
    db.execute("INSERT INTO account VALUES "
               "('Alice', 'checking', 100), ('Bob', 'savings', 50), "
               "('Eve', 'savings', 9)")
    return db


# -- registry / exports (satellite: discoverable backends) ----------------

def test_available_backends_exported_at_top_level():
    names = available_backends()
    assert "memory" in names and "sqlite" in names
    assert repro.available_backends is available_backends
    assert isinstance(resolve_backend("sqlite"), SQLiteBackend)


def test_unknown_backend_error_lists_registered_names():
    with pytest.raises(ReproError) as excinfo:
        resolve_backend("postgresql")
    message = str(excinfo.value)
    assert "postgresql" in message
    for name in available_backends():
        assert name in message


# -- session lifecycle ----------------------------------------------------

@pytest.mark.parametrize("backend_name", ["memory", "sqlite"])
def test_session_context_manager_and_close(backend_name):
    backend = resolve_backend(backend_name)
    with backend.open_session() as session:
        assert not session.closed
    assert session.closed
    session.close()  # idempotent


def test_closed_session_rejects_execution(account_db):
    xid = run_txn(account_db, ["UPDATE account SET bal = 0"])
    reenactor = Reenactor(account_db)
    record = reenactor.transaction_record(xid)
    compiled = reenactor.compile(record)
    backend = SQLiteBackend()
    session = backend.open_session()
    session.close()
    with pytest.raises(ExecutionError, match="closed"):
        reenactor.execute(compiled, session=session)


def test_memory_session_delegates_and_counts(account_db):
    xid = run_txn(account_db, ["UPDATE account SET bal = bal + 1"])
    reenactor = Reenactor(account_db)
    backend = InMemoryBackend()
    with backend.open_session() as session:
        first = reenactor.reenact(xid, session=session)
        second = reenactor.reenact(xid, session=session)
    assert session.stats.plans_executed == 2
    assert_relations_match(first.table("account"),
                           second.table("account"))


# -- snapshot memoization (satellite: no re-materialization) --------------

def test_two_reenactments_share_snapshot_materialization(account_db):
    """Two plans in one session must not re-materialize the same
    ``(table, ts)`` snapshot."""
    xid = run_txn(account_db, [
        "UPDATE account SET bal = bal + 10 WHERE bal > 20",
        "DELETE FROM account WHERE cust = 'Eve'",
    ])
    reenactor = Reenactor(account_db, backend="sqlite")
    backend = resolve_backend("sqlite")
    with backend.open_session() as session:
        first = reenactor.reenact(xid, session=session)
        second = reenactor.reenact(xid, session=session)
    stats = session.stats
    assert stats.plans_executed == 2
    assert stats.snapshots_materialized == 1
    assert stats.snapshots_reused >= 1
    assert all(count == 1
               for count in stats.materializations.values())
    # cached snapshots must not change the answer
    one_shot = reenactor.reenact(xid)
    assert_relations_match(first.table("account"),
                           one_shot.table("account"))
    assert_relations_match(second.table("account"),
                           one_shot.table("account"))


def test_prefix_probes_share_one_snapshot(account_db):
    """Debugger-style prefix probes (upto=k) all scan the begin-time
    snapshot: one materialization for the whole probe series."""
    xid = run_txn(account_db, [
        "UPDATE account SET bal = bal + 1",
        "UPDATE account SET bal = bal * 2 WHERE cust = 'Alice'",
        "DELETE FROM account WHERE bal < 15",
    ])
    reenactor = Reenactor(account_db, backend="sqlite")
    backend = resolve_backend("sqlite")
    with backend.open_session() as session:
        for upto in range(4):
            options = ReenactmentOptions(upto=upto, table="account")
            reenactor.reenact(xid, options, session=session)
    assert session.stats.plans_executed == 4
    assert session.stats.snapshots_materialized == 1
    assert all(count == 1
               for count in session.stats.materializations.values())


def test_distinct_timestamps_get_distinct_snapshots(account_db):
    """READ COMMITTED statements scan statement-time snapshots —
    distinct ``ts`` values must stay distinct cache entries."""
    from repro.workloads.simulator import HistorySimulator, TxnScript
    t1 = TxnScript("T1", [
        "UPDATE account SET bal = bal + 1 WHERE bal > 20",
        "UPDATE account SET bal = bal * 2 WHERE cust = 'Alice'",
    ], isolation="READ COMMITTED")
    t2 = TxnScript("T2",
                   ["UPDATE account SET bal = bal - 5 WHERE cust = 'Eve'"])
    outcomes = HistorySimulator(account_db).run(
        [t1, t2], ["T1", "T2", "T1", "T2", "T1", "T1"])
    assert outcomes["T1"].committed
    reenactor = Reenactor(account_db, backend="sqlite")
    backend = resolve_backend("sqlite")
    with backend.open_session() as session:
        result = reenactor.reenact(outcomes["T1"].xid, session=session)
    timestamps = {key[1] for key in session.stats.materializations}
    assert len(timestamps) > 1  # statement-time snapshots differ
    assert all(count == 1
               for count in session.stats.materializations.values())
    one_shot = reenactor.reenact(outcomes["T1"].xid)
    assert_relations_match(result.table("account"),
                           one_shot.table("account"))


def test_an_edit_is_a_plan_leaf_not_a_snapshot(account_db):
    """A what-if table edit is a constant leaf of the compiled plans:
    the edited compile scans no snapshot, running it through a session
    materializes nothing for the edited table, and the committed
    snapshot other plans read is untouched."""
    from repro.algebra.evaluator import Relation
    xid = run_txn(account_db,
                  ["UPDATE account SET bal = bal * 2 WHERE bal >= 50"])
    reenactor = Reenactor(account_db, backend="sqlite")
    record = reenactor.transaction_record(xid)
    edit = Relation(["cust", "typ", "bal"], [("Zed", "checking", 1000)])
    edited = reenactor.compile(record, edits={"account": edit})
    assert edited.snapshots == []
    backend = resolve_backend("sqlite")
    with backend.open_session() as session:
        plain_before = reenactor.reenact(xid, session=session)
        result = reenactor.execute(edited, session=session)
        plain_after = reenactor.reenact(xid, session=session)
    assert_relations_match(plain_before.table("account"),
                           plain_after.table("account"))
    assert result.table("account").rows == [("Zed", "checking", 2000)]
    # the committed state is the one snapshot the session ever built
    assert dict(session.stats.materializations) \
        == {("account", record.begin_ts): 1}


def test_cold_reenactment_reads_each_state_from_storage_once(
        account_db, monkeypatch):
    """The backend materializes the begin-time state and the reenactor
    completes its result from the same state: the execution context
    answers the second AS-OF read from the first — one storage read per
    ``execute``, and nothing kept between executes.  An edited table is
    read from its edit, never from storage."""
    from repro.algebra.evaluator import Relation
    xid = run_txn(account_db,
                  ["UPDATE account SET bal = bal * 2 WHERE bal >= 50"])
    reads = []
    real = Database.table_snapshot
    monkeypatch.setattr(
        Database, "table_snapshot",
        lambda self, name, ts: reads.append((name, ts))
        or real(self, name, ts))
    reenactor = Reenactor(account_db, backend="sqlite")
    record = reenactor.transaction_record(xid)
    expected = reenactor.reenact(xid).table("account")
    assert reads == [("account", record.begin_ts)]
    assert sorted(expected.rows) == [("Alice", "checking", 200),
                                     ("Bob", "savings", 100),
                                     ("Eve", "savings", 9)]
    reenactor.reenact(xid)
    assert reads == [("account", record.begin_ts)] * 2

    ctx = account_db.context(params={})
    first = ctx.scan_table("account", record.begin_ts)
    assert ctx.scan_table("account", record.begin_ts) is first
    later = ctx.scan_table("account", account_db.clock.now())
    assert later is not first and later != first
    assert ctx.scan_table("account", None) is not later  # live read

    reads.clear()
    edit = Relation(["cust", "typ", "bal"], [("Zed", "checking", 1)])
    result = reenactor.reenact_record(record, edits={"account": edit})
    assert reads == []
    assert result.table("account").rows == [("Zed", "checking", 1)]


def test_compiled_snapshot_set_matches_materializations(account_db):
    """`CompiledReenactment.snapshots` names exactly the ``(table,
    ts)`` states the executor materializes — the contract the snapshot
    cache (and future incremental-delta backends) keys on."""
    xid = run_txn(account_db, [
        "UPDATE account SET bal = bal + 1",
        "INSERT INTO account (SELECT cust, 'backup', bal FROM account "
        "WHERE bal >= 50)",
    ])
    reenactor = Reenactor(account_db)
    record = reenactor.transaction_record(xid)
    compiled = reenactor.compile(record)
    assert compiled.snapshots
    assert compiled.optimizer_stats  # optimizer ran and was observed
    backend = resolve_backend("sqlite")
    with backend.open_session() as session:
        reenactor.execute(compiled, session=session)
    assert set(session.stats.materializations) \
        == set(compiled.snapshots)


def test_session_shared_across_databases_keeps_snapshots_apart():
    """Two `Database` instances share table names and logical
    timestamps — a session reused across both must not serve one
    database's cached snapshot to the other."""
    def make(bal):
        db = Database()
        db.execute("CREATE TABLE account (cust TEXT, typ TEXT, bal INT)")
        db.execute(f"INSERT INTO account VALUES ('Alice', 'c', {bal})")
        xid = run_txn(db, ["UPDATE account SET bal = bal + 1"])
        return db, xid

    db1, xid1 = make(100)
    db2, xid2 = make(500)
    backend = SQLiteBackend()
    with backend.open_session() as session:
        first = Reenactor(db1).reenact(xid1, session=session)
        second = Reenactor(db2).reenact(xid2, session=session)
    assert first.table("account").rows == [("Alice", "c", 101)]
    assert second.table("account").rows == [("Alice", "c", 501)]
    # same (table, ts) key, two realms -> two materializations
    assert session.stats.snapshots_materialized == 2


def test_one_shot_execute_plan_is_throwaway_session(account_db):
    """`execute_plan` without a session still works and leaves no
    state behind (fresh backend instance each call)."""
    xid = run_txn(account_db, ["DELETE FROM account WHERE bal < 60"])
    backend = SQLiteBackend()
    first = Reenactor(account_db, backend=backend).reenact(xid)
    second = Reenactor(account_db, backend=backend).reenact(xid)
    assert_relations_match(first.table("account"),
                           second.table("account"))


# -- session-routed subsystems -------------------------------------------

def test_history_equivalence_runs_on_one_session(account_db):
    from repro.core.equivalence import check_history_equivalence
    for k in range(3):
        run_txn(account_db,
                [f"UPDATE account SET bal = bal + {k + 1}"])
    reports = check_history_equivalence(account_db, backend="sqlite")
    assert reports and all(r.ok for r in reports.values())


def test_inspector_backend_parity(account_db):
    from repro.debugger import TransactionInspector
    xid = run_txn(account_db, [
        "UPDATE account SET bal = 0 WHERE cust = 'Alice'",
        "DELETE FROM account WHERE cust = 'Bob'",
        "INSERT INTO account VALUES ('Carol', 'checking', 7)",
    ])
    memory = TransactionInspector(account_db, xid)
    sqlite = TransactionInspector(account_db, xid, backend="sqlite")
    mem_columns = memory.columns()
    sq_columns = sqlite.columns()
    assert len(mem_columns) == len(sq_columns) == 4
    for mem_col, sq_col in zip(mem_columns, sq_columns):
        for table in mem_col.states:
            mem_rows = sorted(
                (r.rowid, r.values, r.creator_xid, r.affected,
                 r.deleted)
                for r in mem_col.states[table].rows)
            sq_rows = sorted(
                (r.rowid, r.values, r.creator_xid, r.affected,
                 r.deleted)
                for r in sq_col.states[table].rows)
            assert mem_rows == sq_rows
