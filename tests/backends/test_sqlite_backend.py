"""SQLiteBackend specifics: snapshot materialization, dialect output,
annotation columns, type coercion, what-if table edits."""

import dataclasses

import pytest

from repro import Database
from repro.backends import BoundDialect, SnapshotBinder, SQLiteBackend
from repro.backends.cache import quote_ident
from repro.core.reenactor import (ANNOTATION_NAMES, ReenactmentOptions,
                                  Reenactor)
from repro.core.whatif import WhatIfScenario
from repro.errors import ExecutionError

from conftest import assert_relations_match
from planner_policy import policy_backend


def run_txn(db, statements, isolation=None):
    session = db.connect()
    session.begin(isolation)
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


def both(db, xid, **options):
    mem = Reenactor(db).reenact(
        xid, ReenactmentOptions(**options)).table("account")
    sq = Reenactor(db, backend="sqlite").reenact(
        xid, ReenactmentOptions(**options)).table("account")
    return mem, sq


def test_update_delete_insert_chain(account_db):
    xid = run_txn(account_db, [
        "UPDATE account SET bal = bal + 10 WHERE bal > 20",
        "DELETE FROM account WHERE cust = 'Eve'",
        "INSERT INTO account VALUES ('Carol', 'checking', 7)",
    ])
    mem, sq = both(account_db, xid)
    assert_relations_match(mem, sq)


def test_an_insert_of_600_rows_reenacts_on_sqlite(db):
    """A reenacted ``INSERT ... VALUES`` prints its rows as one VALUES
    list: SQLite caps a compound SELECT at 500 terms, a VALUES list it
    does not."""
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.execute("INSERT INTO t VALUES (0, 0)")
    rows = ", ".join(f"({k}, {2 * k})" for k in range(1, 601))
    xid = run_txn(db, [f"INSERT INTO t VALUES {rows}"])
    for options in (ReenactmentOptions(),
                     ReenactmentOptions(annotations=True)):
        mem = Reenactor(db).reenact(xid, options).table("t")
        sq = Reenactor(db, backend="sqlite").reenact(xid, options)
        assert len(mem.rows) == 601
        assert_relations_match(mem, sq.table("t"))


def test_an_edited_bool_column_comes_back_as_bool(db):
    """R' is a constant leaf, not a scan: its BOOL columns are still
    coerced back from SQLite's 0/1, type-strict."""
    db.execute("CREATE TABLE f (k INT, live BOOL)")
    db.execute("INSERT INTO f VALUES (1, TRUE)")
    xid = run_txn(db, ["UPDATE f SET k = k + 1 WHERE live"])
    results = []
    for backend in ("memory", "sqlite"):
        scenario = WhatIfScenario(db, xid, backend=backend)
        scenario.edit_table("f", [(5, True), (6, False)])
        results.append(scenario.run().modified.table("f"))
    assert sorted(results[0].rows) == [(6, False), (6, True)]
    assert_relations_match(*results)


def test_annotation_columns_and_tombstones(account_db):
    xid = run_txn(account_db, [
        "UPDATE account SET bal = 0 WHERE cust = 'Alice'",
        "DELETE FROM account WHERE cust = 'Bob'",
    ])
    mem, sq = both(account_db, xid, annotations=True,
                   include_deleted=True)
    assert_relations_match(mem, sq)
    for annotation in ANNOTATION_NAMES:
        assert annotation in sq.attrs
    # flags must come back as real booleans, not SQLite's 0/1
    upd = sq.column("__upd__")
    dels = sq.column("__del__")
    assert all(isinstance(v, bool) for v in upd + dels)
    assert any(dels), "tombstone row missing"


def test_only_affected_filter(account_db):
    xid = run_txn(account_db, [
        "UPDATE account SET bal = bal * 2 WHERE typ = 'savings'",
    ])
    mem, sq = both(account_db, xid, annotations=True,
                   only_affected=True)
    assert_relations_match(mem, sq)
    assert len(sq.rows) == 2


def test_with_provenance_left_join(account_db):
    xid = run_txn(account_db, [
        "UPDATE account SET bal = bal + 1 WHERE cust = 'Alice'",
        "INSERT INTO account VALUES ('New', 'checking', 1)",
    ])
    mem, sq = both(account_db, xid, annotations=True,
                   with_provenance=True)
    assert_relations_match(mem, sq)
    # the inserted row has no pre-state: provenance columns are NULL
    rows = sq.as_dicts()
    inserted = [r for r in rows if r["cust"] == "New"]
    assert inserted and inserted[0]["prov_account_cust"] is None


def test_prefix_reenactment(account_db):
    xid = run_txn(account_db, [
        "UPDATE account SET bal = bal + 1",
        "DELETE FROM account WHERE bal < 20",
    ])
    mem, sq = both(account_db, xid, upto=1)
    assert_relations_match(mem, sq)
    assert len(sq.rows) == 3  # delete not applied yet


def test_insert_select_row_number(account_db):
    xid = run_txn(account_db, [
        "INSERT INTO account (SELECT cust, 'backup', bal FROM account "
        "WHERE bal >= 50)",
    ])
    # data columns must agree; synthetic rowid assignment order is
    # compared separately below
    mem, sq = both(account_db, xid)
    assert_relations_match(mem, sq)
    mem_a, sq_a = both(account_db, xid, annotations=True)
    rowids = [r for r in sq_a.column("__rowid__") if r < 0]
    assert sorted(rowids) == [-2, -1]  # statement 0: -(0*1M + i + 1)
    assert sorted(rowids) == sorted(
        r for r in mem_a.column("__rowid__") if r < 0)


def test_bool_coercion_name_collision_vetoed(db):
    """A BOOL column in one table must not force coercion of a
    same-named non-BOOL column of another touched table."""
    db.execute("CREATE TABLE users (id INT, active BOOL)")
    db.execute("CREATE TABLE meters (id INT, active INT)")
    positions = SQLiteBackend._bool_positions(
        ["users.active", "meters.active", "__upd__"],
        db.context(params={}), {"users", "meters"})
    # 'active' is ambiguous across the touched tables -> only the
    # flag column may be coerced
    assert positions == [2]
    # unambiguous case still coerces
    assert SQLiteBackend._bool_positions(
        ["users.active"], db.context(params={}), {"users"}) == [0]


def test_bool_column_coercion(db):
    db.execute("CREATE TABLE flags (id INT, active BOOL)")
    db.execute("INSERT INTO flags VALUES (1, true), (2, false)")
    xid = run_txn(db, ["UPDATE flags SET active = false WHERE id = 1"])
    mem = Reenactor(db).reenact(xid).table("flags")
    sq = Reenactor(db, backend="sqlite").reenact(xid).table("flags")
    assert_relations_match(mem, sq)
    assert all(isinstance(v, bool) for v in sq.column("active"))


def test_untouched_rows_never_pass_through_the_engine(db):
    """Rows the transaction did not write are completed from the AS-OF
    snapshot: they come back as storage holds them — the very objects,
    so no engine type system (0/1 booleans, REAL affinity, TEXT
    re-decoding) can have touched them — while written rows are
    computed on SQLite and coerced back as before."""
    db.execute("CREATE TABLE m (id INT, ok BOOL, ratio REAL, note TEXT)")
    db.execute("INSERT INTO m VALUES (1, true, 1.5, 'one'), "
               "(2, false, 2.0, NULL), (3, NULL, 3.25, 'three')")
    xid = run_txn(db, [
        "UPDATE m SET ok = false, ratio = ratio * 2 WHERE id = 1"])
    begin_ts = db.audit_log.transaction_record(xid).begin_ts
    stored = {rowid: values
              for rowid, values, _ in db.table_snapshot("m", begin_ts)}
    options = ReenactmentOptions(annotations=True)
    mem = Reenactor(db).reenact(xid, options).table("m")
    sq = Reenactor(db, backend="sqlite").reenact(xid, options).table("m")
    assert_relations_match(mem, sq)
    rowid, upd = sq.column_index("__rowid__"), sq.column_index("__upd__")
    untouched = [row for row in sq.rows if not row[upd]]
    assert [row[0] for row in untouched] == [2, 3]
    for row in untouched:
        assert all(got is kept
                   for got, kept in zip(row, stored[row[rowid]]))
    (written,) = [row for row in sq.rows if row[upd]]
    assert written[:4] == (1, False, 3.0, "one")
    assert [type(v) for v in written[:4]] == [int, bool, float, str]


def test_read_committed_rebasing(account_db):
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
    mem, sq = both(account_db, outcomes["T1"].xid, annotations=True,
                   include_deleted=True)
    assert_relations_match(mem, sq)


def test_read_committed_subquery_over_an_earlier_statements_table(db):
    """A later READ COMMITTED statement's subquery reads the chain an
    earlier statement left.  Printed inline once per CASE, with the
    chain inlined inside each copy, the query overflowed SQLite's
    parser stack; the uncorrelated subquery plan is now one shared
    node, printed once."""
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.execute("CREATE TABLE u (k INT, w INT)")
    for table in ("t", "u"):
        db.execute(f"INSERT INTO {table} VALUES "
                   + ", ".join(f"({k}, {k})" for k in range(1, 20)))
    xid = run_txn(db, [
        "UPDATE t SET v = v + 1 WHERE k = 1",
        "UPDATE t SET v = v + 1 WHERE k IN (SELECT k FROM t WHERE v > 5)",
    ], isolation="READ COMMITTED")
    options = ReenactmentOptions(annotations=True, include_deleted=True)
    mem = Reenactor(db).reenact(xid, options).table("t")
    sq = Reenactor(db, backend="sqlite").reenact(xid, options).table("t")
    assert_relations_match(mem, sq)
    values = {row[0]: row[1] for row in sq.rows}
    assert values[1] == 2 and values[5] == 5 and values[6] == 7


def test_whatif_override_and_diff(account_db):
    xid = run_txn(account_db, [
        "UPDATE account SET bal = bal + 100 WHERE typ = 'checking'",
    ])
    diffs = {}
    for backend in ("memory", "sqlite"):
        scenario = WhatIfScenario(account_db, xid, backend=backend)
        scenario.edit_table("account", [
            ("Alice", "checking", 100), ("Zed", "checking", 1)])
        result = scenario.run()
        diff = result.diffs["account"]
        diffs[backend] = (sorted(diff.added), sorted(diff.removed))
    assert diffs["memory"] == diffs["sqlite"]


def test_snapshot_reuse_one_temp_table_per_version(account_db):
    xid = run_txn(account_db, [
        "UPDATE account SET bal = bal + 1",
        "UPDATE account SET bal = bal + 2",
        "UPDATE account SET bal = bal + 3",
    ])
    reenactor = Reenactor(account_db)
    record = reenactor.transaction_record(xid)
    plans = reenactor.build_plans(record, ReenactmentOptions())
    ctx = account_db.context(params={})
    binder = SnapshotBinder(ctx)
    from repro.algebra.sqlgen import generate_sql
    generate_sql(plans["account"], dialect=BoundDialect(
        binder, SQLiteBackend.dialect_config))
    # serializable chain: every statement reads the same begin-time
    # snapshot — exactly one materialized table
    assert len(binder._entries) == 1


def test_quote_ident_escapes_quotes():
    assert quote_ident('we"ird') == '"we""ird"'
    assert quote_ident("plain") == '"plain"'


def test_sqlite_error_carries_sql(account_db, monkeypatch):
    xid = run_txn(account_db, ["UPDATE account SET bal = 1"])
    backend = SQLiteBackend()
    import repro.backends.sqlbase as sqlbase_mod
    real = sqlbase_mod.generate_sql

    def broken(plan, dialect=None):
        real(plan, dialect=dialect)  # still registers snapshots
        return "SELECT FROM nonsense"

    monkeypatch.setattr(sqlbase_mod, "generate_sql", broken)
    reenactor = Reenactor(account_db, backend=backend)
    with pytest.raises(ExecutionError) as excinfo:
        reenactor.reenact(xid)
    assert "SELECT FROM nonsense" in str(excinfo.value)


def test_subclass_dialect_config_drives_rendering(account_db):
    """A backend subclass that replaces ``dialect_config`` — how a new
    engine declares its policy — must *render* under that config, not
    only plan under it: with the barrier keyword stripped, no query
    SQLite is sent carries it."""
    xid = run_txn(account_db, [
        "UPDATE account SET bal = bal + 1 WHERE bal > 20",
        "DELETE FROM account WHERE cust = 'Eve'",
    ])
    assert SQLiteBackend.dialect_config.cte_materialization
    backend = policy_backend({"name": "sqlite-nobarrier",
                              "cte_materialization": ""})
    sent = []
    with backend.open_session() as session:
        session.conn.set_trace_callback(sent.append)
        sq = Reenactor(account_db).reenact(
            xid, session=session).table("account")
    queries = [sql for sql in sent if sql.startswith("WITH ")]
    assert queries, sent
    assert not any("MATERIALIZED" in sql for sql in queries)
    assert_relations_match(
        Reenactor(account_db).reenact(xid).table("account"), sq)


def test_barrier_wraps_case_stacks_never_a_bare_scan(account_db):
    """The ``MATERIALIZED`` barrier stops SQLite's flattener from
    compounding CASE stacks; around a leaf scan it would only copy the
    whole snapshot once per query.  Read from what SQLite is sent: the
    snapshot is scanned inline, the CASE projections still sit behind
    the barrier, and once optimized the affected-rows filter is applied
    directly to the scan."""
    import re
    xid = run_txn(account_db, [
        "UPDATE account SET bal = bal + 1 WHERE bal > 20",
        "DELETE FROM account WHERE cust = 'Eve'",
        "INSERT INTO account VALUES ('Carol', 'checking', 7)",
    ])
    inline_scan = r'FROM \(SELECT [^()]* FROM "__snap_\d+__" t\d+\) AS t\d+'
    queries = {}
    for optimize in (True, False):
        sent = []
        backend = SQLiteBackend()
        with backend.open_session() as session:
            session.conn.set_trace_callback(sent.append)
            Reenactor(account_db).reenact(
                xid, ReenactmentOptions(optimize=optimize),
                session=session)
        (query,) = [sql for sql in sent if sql.startswith("WITH ")]
        assert not re.search(
            r'AS MATERIALIZED \(SELECT [^()]* FROM "__snap_', query)
        assert re.search(inline_scan, query)
        assert re.search(r"AS MATERIALIZED \(SELECT [^()]*CASE WHEN",
                         query)
        queries[optimize] = query
    assert re.search(inline_scan + " WHERE ", queries[True])
    assert not re.search(inline_scan + " WHERE ", queries[False])


def test_deleted_rows_not_nulls(account_db):
    """NULL-vs-tombstone: a deleted row is dropped from the default
    output entirely — it must not surface as an all-NULL row (SQLite
    left-join padding and tombstone filtering interact here)."""
    xid = run_txn(account_db, ["DELETE FROM account WHERE bal < 60"])
    mem, sq = both(account_db, xid)
    assert_relations_match(mem, sq)
    assert all(row[0] is not None for row in sq.rows)
    assert len(sq.rows) == 1  # only Alice survives
