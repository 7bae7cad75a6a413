"""Typed errors from snapshot materialization.

Creating, filling and patching snapshot temp tables runs before the
generated query does, so the driver errors it can hit must come back
as :class:`~repro.errors.ExecutionError` naming the snapshot and the
plan step — never raw ``sqlite3``/``OverflowError`` — and must leave
neither a cache entry nor a temp table for the failed snapshot.
"""

import pytest

from repro import Database, SQLiteBackend
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.errors import ExecutionError

from conftest import assert_relations_match

TOO_BIG = 2 ** 63  # one past SQLite's INTEGER range


def run_txn(db, sql):
    conn = db.connect()
    conn.begin()
    conn.execute(sql)
    xid = conn.txn.xid
    conn.commit()
    return xid, db.clock.now()


def temp_tables(session):
    return {row[0] for row in session.conn.execute(
        "SELECT name FROM sqlite_temp_master WHERE type = 'table'")}


@pytest.fixture
def overflowing_history():
    """Ten rows; commit 1 is an ordinary update, commit 2 writes an
    integer SQLite cannot store, commit 3 reads the state after it."""
    db = Database()
    db.execute("CREATE TABLE t (k INT, v INT)")
    conn = db.connect()
    conn.begin()
    for k in range(10):
        conn.execute(f"INSERT INTO t VALUES ({k}, {k})")
    conn.commit()
    first = run_txn(db, "UPDATE t SET v = v + 1 WHERE k = 1")
    run_txn(db, f"UPDATE t SET v = {TOO_BIG - 1} + 1 WHERE k = 2")
    third = run_txn(db, "UPDATE t SET v = v + 1 WHERE k = 3")
    return db, first, third


def test_annotation_column_clash_is_rejected_up_front():
    db = Database()
    db.execute("CREATE TABLE t (__rowid__ INT, v INT)")
    db.execute("INSERT INTO t VALUES (1, 10)")
    xid, _ = run_txn(db, "UPDATE t SET v = v + 1")
    # the interpreter has no temp tables and answers it
    assert Reenactor(db).reenact(xid).table("t").rows == [(1, 11)]
    backend = SQLiteBackend()
    with backend.open_session() as session:
        with pytest.raises(ExecutionError, match="__rowid__"):
            Reenactor(db, backend=backend).reenact(xid, session=session)
        assert len(session.cache) == 0
        assert temp_tables(session) == set()


def test_overflow_during_full_build_is_typed(overflowing_history):
    db, _, (third_xid, _) = overflowing_history
    backend = SQLiteBackend()
    # the provenance join reads every row of the state through the
    # engine: no row keys, so the build is a full one
    whole = ReenactmentOptions(annotations=True, with_provenance=True)
    with backend.open_session() as session:
        with pytest.raises(ExecutionError,
                           match=r"full-build of snapshot \('t', \d+\)"
                                 r".*OverflowError"):
            Reenactor(db, backend=backend).reenact(third_xid, whole,
                                                   session=session)
        assert len(session.cache) == 0
        assert temp_tables(session) == set()


def test_overflow_during_partial_build_is_typed(overflowing_history):
    """The twin: a statement whose key matches the row SQLite cannot
    store builds that row too."""
    db, _, _ = overflowing_history
    xid, _ = run_txn(db, "UPDATE t SET v = 0 WHERE k = 2")
    backend = SQLiteBackend()
    with backend.open_session() as session:
        with pytest.raises(ExecutionError,
                           match=r"partial-build of snapshot "
                                 r"\('t', \d+\).*OverflowError"):
            Reenactor(db, backend=backend).reenact(xid, session=session)
        assert len(session.cache) == 0
        assert temp_tables(session) == set()


def test_overflow_during_completion_is_typed(overflowing_history):
    """A partial build left the unstorable row out; completing the
    entry for a request that reads every row fails, typed, and leaves
    neither entry nor table."""
    db, _, (third_xid, _) = overflowing_history
    backend = SQLiteBackend()
    reenactor = Reenactor(db, backend=backend)
    whole = ReenactmentOptions(annotations=True, with_provenance=True)
    with backend.open_session() as session:
        reenactor.reenact(third_xid, session=session)
        with pytest.raises(ExecutionError,
                           match=r"completing partial snapshot "
                                 r"\('t', \d+\).*OverflowError"):
            reenactor.reenact(third_xid, whole, session=session)
        assert len(session.cache) == 0
        assert temp_tables(session) == set()


def test_a_partial_build_skips_the_row_it_cannot_match(
        overflowing_history):
    db, _, (third_xid, _) = overflowing_history
    backend = SQLiteBackend()
    with backend.open_session() as session:
        result = Reenactor(db, backend=backend).reenact(third_xid,
                                                        session=session)
        assert session.stats.full_materializations == 1
    assert_relations_match(Reenactor(db).reenact(third_xid).table("t"),
                           result.table("t"))


def test_overflow_during_clone_delta_is_typed(overflowing_history):
    db, (first_xid, _), (third_xid, _) = overflowing_history
    backend = SQLiteBackend()
    reenactor = Reenactor(db, backend=backend)
    with backend.open_session() as session:
        reenactor.reenact(first_xid, session=session)
        healthy = temp_tables(session)
        assert len(session.cache) == 1
        with pytest.raises(ExecutionError,
                           match="clone-delta of snapshot"):
            reenactor.reenact(third_xid, session=session)
        # the cached neighbor is untouched, the failed clone is gone
        assert len(session.cache) == 1
        assert temp_tables(session) == healthy
        assert reenactor.reenact(first_xid, session=session) \
            .table("t").rows

