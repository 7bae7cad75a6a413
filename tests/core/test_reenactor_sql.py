"""Reenactment SQL generation — Example 3 of the paper.

The paper shows the reenactment of T1's update as::

    SELECT cust, typ,
      CASE WHEN cust = 'Alice' AND typ = 'Checking'
           THEN bal - 70 ELSE bal END AS bal
    FROM account AS OF '2016-03-01'

We assert the generated SQL has exactly that structure (CASE projection
over a time-traveled scan) and that executing it reproduces the
reenacted relation.
"""

import pytest

from repro import Database
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.errors import ReenactmentError
from repro.workloads import setup_bank, run_write_skew_history


@pytest.fixture
def skewed():
    db = Database()
    setup_bank(db)
    t1, t2 = run_write_skew_history(db)
    return db, t1, t2


class TestExample3:
    def test_update_reenactment_sql_shape(self, skewed):
        db, t1, _ = skewed
        sql = Reenactor(db).reenactment_sql(
            t1, "account", ReenactmentOptions(upto=1))
        # CASE projection over a time-traveled scan, exactly Example 3
        # (column names are flattened by the code generator)
        assert "CASE WHEN" in sql
        assert "= 'Alice'" in sql and "= 'Checking'" in sql
        assert "- 70" in sql
        assert "ELSE" in sql
        assert "AS OF" in sql
        assert "FROM account" in sql

    def test_generated_sql_executes_to_reenacted_state(self, skewed):
        db, t1, _ = skewed
        reenactor = Reenactor(db)
        sql = reenactor.reenactment_sql(t1, "account")
        via_sql = sorted(db.execute(sql).rows)
        direct = sorted(reenactor.reenact(t1).tables["account"].rows)
        assert via_sql == direct == \
            [("Alice", "Checking", -20), ("Alice", "Savings", 30)]

    def test_as_of_uses_begin_timestamp(self, skewed):
        db, t1, _ = skewed
        record = db.audit_log.transaction_record(t1)
        sql = Reenactor(db).reenactment_sql(t1, "account")
        assert f"AS OF {record.begin_ts}" in sql

    def test_prints_the_full_query_and_leaves_options_alone(self, skewed):
        """``reenactment_sql`` is the paper's query over the whole
        table — what backends run is the affected-rows query, and this
        text is its oracle — and a caller's options object is not
        pinned to the first table it was used for."""
        db, t1, _ = skewed
        reenactor = Reenactor(db)
        sql = reenactor.reenactment_sql(
            t1, "account", ReenactmentOptions(annotations=True))
        assert " WHERE " not in sql  # no __upd__ filter: every row
        rows = db.execute(sql).rows
        assert sorted(row[:3] for row in rows) == \
            [("Alice", "Checking", -20), ("Alice", "Savings", 30)]
        assert sorted(row[-2] for row in rows) == [False, True]

        options = ReenactmentOptions()
        reenactor.reenactment_sql(t1, "account", options)
        assert options.table is None
        other = reenactor.reenactment_sql(t1, "overdraft", options)
        assert "FROM overdraft" in other

    def test_multi_table_requires_choice(self, skewed):
        db, _, t2 = skewed
        # T2 wrote only account (the overdraft insert produced no rows)
        # but the reenactor builds plans for both touched tables
        with pytest.raises(ReenactmentError, match="pass table="):
            Reenactor(db).reenactment_sql(t2)

    def test_unknown_table_rejected(self, skewed):
        from repro.errors import CatalogError
        db, t1, _ = skewed
        with pytest.raises(CatalogError, match="does not exist"):
            Reenactor(db).reenactment_sql(t1, "nonexistent")

    def test_untouched_table_yields_base_state(self, skewed):
        # asking for a table the transaction never wrote returns its
        # begin-snapshot (useful for the debugger's table selector)
        db, t1, _ = skewed
        sql = Reenactor(db).reenactment_sql(t1, "overdraft")
        assert db.execute(sql).rows == []


class TestSqlForComplexTransactions:
    def test_delete_sql(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2), (3)")
        s = db.connect()
        s.begin()
        s.execute("DELETE FROM t WHERE a > 1")
        xid = s.txn.xid
        s.commit()
        sql = Reenactor(db).reenactment_sql(xid, "t")
        assert sorted(db.execute(sql).rows) == [(1,)]

    def test_insert_values_sql(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        s = db.connect()
        s.begin()
        s.execute("INSERT INTO t VALUES (2), (3)")
        xid = s.txn.xid
        s.commit()
        sql = Reenactor(db).reenactment_sql(xid, "t")
        assert "UNION ALL" in sql
        assert sorted(db.execute(sql).rows) == [(1,), (2,), (3,)]

    def test_insert_select_sql_expressibility(self):
        # reenacted INSERT ... SELECT needs synthetic rowids.  With the
        # optimizer on, dead-column pruning removes the row-id
        # annotation (it is not in the output), so SQL generation
        # succeeds; the un-optimized plan keeps it and must fail loudly.
        db = Database()
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        s = db.connect()
        s.begin()
        s.execute("INSERT INTO t (SELECT a + 1 FROM t)")
        xid = s.txn.xid
        s.commit()
        reenactor = Reenactor(db)
        optimized_sql = reenactor.reenactment_sql(xid, "t")
        assert sorted(db.execute(optimized_sql).rows) == [(1,), (2,)]
        with pytest.raises(ReenactmentError, match="cannot be printed"):
            reenactor.reenactment_sql(
                xid, "t", ReenactmentOptions(optimize=False))
        rows = sorted(reenactor.reenact(xid).tables["t"].rows)
        assert rows == [(1,), (2,)]

    def test_optimized_and_naive_sql_agree(self):
        db = Database()
        db.execute("CREATE TABLE t (a INT, b INT)")
        db.execute("INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)")
        s = db.connect()
        s.begin()
        for i in range(4):
            s.execute(f"UPDATE t SET b = b + {i + 1} WHERE a <= {i + 1}")
        xid = s.txn.xid
        s.commit()
        reenactor = Reenactor(db)
        optimized = reenactor.reenactment_sql(
            xid, "t", ReenactmentOptions(optimize=True))
        naive = reenactor.reenactment_sql(
            xid, "t", ReenactmentOptions(optimize=False))
        assert sorted(db.execute(optimized).rows) == \
            sorted(db.execute(naive).rows)
        # the optimizer collapses the CASE stack: fewer nested SELECTs
        assert optimized.count("SELECT") < naive.count("SELECT")
