"""``Reenactor.execute_all``: the one way a compiled reenactment runs.

* a batch equals a loop of ``execute`` on a second session, type-strict,
  on every backend — and on SQLite the batch session's counters equal
  those of the priming protocol written out by hand (declare every
  snapshot set, prime set *i* immediately before compile *i*);
* the generator owns what it opened: closing it early closes the
  pipeline and a throwaway session, never a caller's;
* a table edit rides in its compile's plans, so edited and unedited
  compiles share one batch.
"""

import sqlite3

import pytest

from repro.algebra.evaluator import Relation
from repro.backends import SQLiteBackend, resolve_backend
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.errors import ExecutionError

from conftest import (SQL_ENGINES, assert_relations_match,
                      build_history, committed_xids)

SEEDS = list(range(10))
ISOLATION_LEVELS = ["SERIALIZABLE", "READ COMMITTED"]
STRICT = ReenactmentOptions(annotations=True, include_deleted=True)


def compile_history(db, reenactor, options=STRICT):
    return [reenactor.compile(reenactor.transaction_record(xid), options)
            for xid in committed_xids(db)]


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_equals_loop_of_execute(seed, isolation):
    db = build_history(seed, isolation)
    for name in ["memory"] + SQL_ENGINES:
        reenactor = Reenactor(db, backend=name)
        compiles = compile_history(db, reenactor)
        assert compiles
        with resolve_backend(name).open_session() as batch_session, \
                resolve_backend(name).open_session() as loop_session, \
                resolve_backend(name).open_session() as hand_session:
            batch = list(reenactor.execute_all(compiles,
                                               session=batch_session))
            loop = [reenactor.execute(compiled, session=loop_session)
                    for compiled in compiles]
            ctx = db.context(params={})
            sets = [compiled.snapshots for compiled in compiles]
            with hand_session.snapshot_pipeline(sets, ctx) as pipe:
                for index, compiled in enumerate(compiles):
                    pipe.prime(index)
                    for plan in compiled.plans.values():
                        hand_session.execute_plan(plan, ctx)
            assert batch_session.stats.as_dict() \
                == hand_session.stats.as_dict()
        assert [r.xid for r in batch] == [c.xid for c in compiles]
        for compiled, got, expected in zip(compiles, batch, loop):
            assert list(got.tables) == list(expected.tables)
            for table in expected.tables:
                assert_relations_match(
                    expected.tables[table], got.tables[table],
                    context=f"seed={seed} isolation={isolation} "
                            f"backend={name} xid={compiled.xid} "
                            f"table={table}")


def test_closing_the_generator_releases_what_it_opened(monkeypatch):
    db = build_history(0)
    opened, pipelines = [], []
    open_session = SQLiteBackend.open_session

    def recording_open(self):
        session = open_session(self)
        opened.append(session)
        snapshot_pipeline = session.snapshot_pipeline

        def recording_pipeline(snapshot_sets, ctx):
            pipelines.append(snapshot_pipeline(snapshot_sets, ctx))
            return pipelines[-1]

        session.snapshot_pipeline = recording_pipeline
        return session

    monkeypatch.setattr(SQLiteBackend, "open_session", recording_open)
    reenactor = Reenactor(db, backend="sqlite")
    compiles = compile_history(db, reenactor)
    assert len(compiles) > 1

    results = reenactor.execute_all(compiles)
    first = next(results)
    (session,), (pipe,) = opened, pipelines
    assert first.xid == compiles[0].xid
    assert not session.closed
    results.close()
    assert session.closed
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        session.conn.execute("SELECT 1")
    with pytest.raises(ExecutionError, match="pipeline is closed"):
        pipe.prime(1)

    # a caller's session is the caller's to close
    with resolve_backend("sqlite").open_session() as held:
        results = reenactor.execute_all(compiles, session=held)
        next(results)
        results.close()
        assert not held.closed
        with pytest.raises(ExecutionError, match="pipeline is closed"):
            pipelines[-1].prime(1)
        assert reenactor.execute(compiles[0], session=held).tables \
            .keys() == first.tables.keys()


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
def test_a_result_is_the_callers_to_change(isolation):
    """On the in-memory backend a batch runs on one evaluator, which
    computes a node its plans share once and keeps the rows: every
    result is still the caller's own.  Each prefix of a transaction is
    compiled into one batch, run twice over (the second time every root
    is answered from the kept rows), and each result is emptied and
    padded as it arrives — no later result may notice."""
    db = build_history(3, isolation)
    reenactor = Reenactor(db)
    record = max((reenactor.transaction_record(xid)
                  for xid in committed_xids(db)),
                 key=lambda record: len(record.statements))
    batch = reenactor.compile_all(record, [
        ReenactmentOptions(upto=k, annotations=True, include_deleted=True)
        for k in range(len(record.statements) + 1)])
    # prefixes of one chain share it, so none is split
    assert not any(compiled.split for compiled in batch if compiled.plans)
    expected = [reenactor.execute(compiled) for compiled in batch * 2]
    results = reenactor.execute_all(batch * 2)
    for got, want in zip(results, expected):
        assert list(got.tables) == list(want.tables)
        for table, relation in got.tables.items():
            assert relation.rows == want.tables[table].rows
            relation.rows.clear()
            relation.rows.append(("junk",))


@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
def test_a_batch_mixes_edited_and_unedited_compiles(isolation):
    """A table edit is a leaf of the compile's plans, not a property of
    the context they run under: a plain compile, an edited one and a
    second edit of the same table run as one batch, and each result is
    its own one-element ``execute`` — on every backend."""
    db = build_history(0, isolation)
    for name in ["memory"] + SQL_ENGINES:
        reenactor = Reenactor(db, backend=name)
        record = reenactor.transaction_record(committed_xids(db)[-1])
        table = next(iter(reenactor.compile(record).plans))
        schema = db.catalog.get(table)
        state = db.table_snapshot(table, record.begin_ts)
        columns = list(schema.column_names)
        compiles = [
            reenactor.compile(record, STRICT),
            reenactor.compile(record, STRICT, edits={table: Relation(
                columns, [values for _, values, _ in state[::-1]])}),
            reenactor.compile(record, STRICT, edits={table: Relation(
                columns, [values for _, values, _ in state[:2]])})]
        with resolve_backend(name).open_session() as session:
            batch = list(reenactor.execute_all(compiles, session=session))
        alone = [reenactor.execute(compiled) for compiled in compiles]
        assert alone[1].tables[table].rows != alone[0].tables[table].rows
        for index, (got, expected) in enumerate(zip(batch, alone)):
            assert list(got.tables) == list(expected.tables)
            for key in expected.tables:
                assert_relations_match(
                    expected.tables[key], got.tables[key],
                    context=f"isolation={isolation} backend={name} "
                            f"compile={index} table={key}")
    assert list(reenactor.execute_all([])) == []
