"""GProM middleware pipeline tests (Fig. 5)."""

import pytest

from repro import Database
from repro.core.middleware import GProM
from repro.errors import ReproError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE r (a INT, b TEXT)")
    database.execute("INSERT INTO r VALUES (1,'x'), (2,'y'), (3,'x')")
    return database


@pytest.fixture
def db_with_txn(db):
    s = db.connect()
    s.begin()
    s.execute("UPDATE r SET a = a + 10 WHERE b = 'x'")
    s.execute("DELETE FROM r WHERE a = 2")
    xid = s.txn.xid
    s.commit()
    return db, xid


class TestProvenanceOfQuery:
    def test_basic(self, db):
        relation = GProM(db).process(
            "PROVENANCE OF (SELECT a FROM r WHERE b = 'x')")
        assert "prov_r_rowid" in relation.attrs
        assert len(relation.rows) == 2

    def test_trace_has_all_stages(self, db):
        trace = GProM(db).trace(
            "PROVENANCE OF (SELECT b, COUNT(*) AS n FROM r GROUP BY b)")
        assert trace.plan is not None
        assert trace.rewritten is not None
        assert trace.optimized is not None
        assert trace.sql_out is not None
        assert trace.executed_via == "sql"
        for stage in ("translate", "rewrite", "optimize", "sqlgen",
                      "execute"):
            assert stage in trace.timings
        assert "algebra" in trace.explain()

    def test_plain_query_passes_through(self, db):
        relation = GProM(db).process("SELECT a FROM r ORDER BY a")
        assert relation.rows == [(1,), (2,), (3,)]

    def test_params(self, db):
        relation = GProM(db).process(
            "PROVENANCE OF (SELECT a FROM r WHERE b = :tag)",
            params={"tag": "y"})
        assert len(relation.rows) == 1

    def test_multiple_statements_rejected(self, db):
        with pytest.raises(ReproError, match="single statement"):
            GProM(db).process("SELECT 1; SELECT 2")

    def test_dml_rejected(self, db):
        with pytest.raises(ReproError, match="provenance requests"):
            GProM(db).process("DELETE FROM r")


class TestTransactionRequests:
    def test_reenact_statement(self, db_with_txn):
        db, xid = db_with_txn
        relation = db.execute(f"REENACT TRANSACTION {xid}").relation
        assert sorted(relation.rows) == [(11, "x"), (13, "x")]

    def test_reenact_upto(self, db_with_txn):
        db, xid = db_with_txn
        relation = db.execute(
            f"REENACT TRANSACTION {xid} UPTO 1").relation
        assert sorted(relation.rows) == [(2, "y"), (11, "x"), (13, "x")]

    def test_provenance_of_transaction(self, db_with_txn):
        db, xid = db_with_txn
        relation = db.execute(
            f"PROVENANCE OF TRANSACTION {xid}").relation
        as_dicts = relation.as_dicts()
        updated = [d for d in as_dicts if d["__upd__"]]
        assert all(d["prov_r_a"] == d["a"] - 10 for d in updated)
        untouched = [d for d in as_dicts if not d["__upd__"]]
        assert all(d["prov_r_a"] == d["a"] for d in untouched)

    def test_on_table_selector(self, db_with_txn):
        db, xid = db_with_txn
        relation = db.execute(
            f"REENACT TRANSACTION {xid} ON TABLE r").relation
        assert len(relation.rows) == 2

    def test_ambiguous_multi_table_requires_selector(self, db):
        db.execute("CREATE TABLE other (x INT)")
        s = db.connect()
        s.begin()
        s.execute("UPDATE r SET a = 0 WHERE a = 1")
        s.execute("INSERT INTO other VALUES (1)")
        xid = s.txn.xid
        s.commit()
        from repro.errors import ReenactmentError
        with pytest.raises(ReenactmentError, match="ON TABLE"):
            db.execute(f"REENACT TRANSACTION {xid}")

    def test_trace_direct_fallback_for_dynamic_inserts(self, db):
        s = db.connect()
        s.begin()
        s.execute("INSERT INTO r (SELECT a + 100, b FROM r)")
        xid = s.txn.xid
        s.commit()
        gprom = GProM(db, optimize=False)
        trace = gprom.trace(f"REENACT TRANSACTION {xid} ON TABLE r")
        assert trace.executed_via == "direct"
        assert len(trace.relation.rows) == 6

    def test_sql_route_and_direct_route_agree(self, db_with_txn):
        db, xid = db_with_txn
        via_sql = GProM(db).trace(f"REENACT TRANSACTION {xid}")
        direct = GProM(db, optimize=False).trace(
            f"REENACT TRANSACTION {xid}")
        assert sorted(via_sql.relation.rows) == \
            sorted(direct.relation.rows)


def test_trace_stages_are_what_each_stage_produced():
    """Each stage of a trace is the plan that stage produced: the
    optimizer builds a new plan, it does not rewrite the one the trace
    holds under "-- rewritten"."""
    from repro.algebra.sqlgen import explain
    from repro.algebra.translator import Translator
    from repro.core.provenance.rewriter import ProvenanceRewriter
    from repro.sql.parser import parse_statement
    database = Database()
    database.execute("CREATE TABLE account (cust TEXT, typ TEXT, bal INT)")
    database.execute("INSERT INTO account VALUES ('Alice','c',100), "
                     "('Bob','s',10)")
    sql = "PROVENANCE OF (SELECT cust FROM account WHERE bal > 20)"
    trace = GProM(database).trace(sql)

    plan = Translator(database.catalog).translate_query(
        parse_statement(sql).query)
    rewritten = ProvenanceRewriter().rewrite(plan).plan
    assert explain(trace.plan) == explain(plan)
    assert explain(trace.rewritten) == explain(rewritten)
    assert trace.plan == plan and trace.rewritten == rewritten
    assert trace.optimized != trace.rewritten
    assert explain(trace.optimized) != explain(trace.rewritten)
    assert f"-- rewritten:\n{explain(rewritten)}\n" in trace.explain()
    assert trace.relation.rows == [("Alice", "Alice", "c", 100, 1)]
