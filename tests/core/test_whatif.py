"""What-if scenario tests (§2), including the promotion example."""

import pytest

from repro import Database
from repro.algebra.evaluator import Relation
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.core.whatif import WhatIfScenario
from repro.errors import ReenactmentError, WhatIfError
from repro.workloads import setup_bank, run_write_skew_history

BACKENDS = ["memory", "sqlite"]


@pytest.fixture
def skewed():
    db = Database()
    setup_bank(db)
    t1, t2 = run_write_skew_history(db)
    return db, t1, t2


@pytest.fixture
def simple_db():
    db = Database()
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    s = db.connect()
    s.begin()
    s.execute("UPDATE t SET v = v + 1 WHERE k = 1")
    s.execute("INSERT INTO t VALUES (3, 30)")
    xid = s.txn.xid
    s.commit()
    return db, xid


class TestStatementEdits:
    def test_replace_statement(self, simple_db):
        db, xid = simple_db
        scenario = WhatIfScenario(db, xid)
        scenario.replace_statement(
            0, "UPDATE t SET v = v + 100 WHERE k = 1")
        result = scenario.run()
        diff = result.diffs["t"]
        assert (1, 110) in diff.added
        assert (1, 11) in diff.removed

    def test_delete_statement(self, simple_db):
        db, xid = simple_db
        result = WhatIfScenario(db, xid).delete_statement(1).run()
        diff = result.diffs["t"]
        assert (3, 30) in diff.removed and not diff.added

    def test_insert_statement(self, simple_db):
        db, xid = simple_db
        scenario = WhatIfScenario(db, xid)
        scenario.insert_statement(2, "DELETE FROM t WHERE k = 2")
        result = scenario.run()
        assert (2, 20) in result.diffs["t"].removed

    def test_append_statement(self, simple_db):
        db, xid = simple_db
        scenario = WhatIfScenario(db, xid)
        scenario.insert_statement(
            2, "UPDATE t SET v = 0 WHERE k = 3")
        result = scenario.run()
        assert (3, 0) in result.diffs["t"].added

    def test_params_supported(self, simple_db):
        db, xid = simple_db
        scenario = WhatIfScenario(db, xid)
        scenario.replace_statement(
            0, "UPDATE t SET v = v + :delta WHERE k = 1",
            {"delta": 5})
        result = scenario.run()
        assert (1, 15) in result.diffs["t"].added

    def test_unchanged_scenario_has_no_diff(self, simple_db):
        db, xid = simple_db
        result = WhatIfScenario(db, xid).run()
        assert not result.changed_tables

    def test_bad_index(self, simple_db):
        db, xid = simple_db
        with pytest.raises(WhatIfError, match="out of range"):
            WhatIfScenario(db, xid).replace_statement(9, "DELETE FROM t")

    def test_non_dml_rejected(self, simple_db):
        db, xid = simple_db
        with pytest.raises(WhatIfError, match="must be DML"):
            WhatIfScenario(db, xid).replace_statement(0, "SELECT 1")

    def test_original_execution_not_modified(self, simple_db):
        db, xid = simple_db
        before = sorted(db.execute("SELECT * FROM t").rows)
        scenario = WhatIfScenario(db, xid)
        scenario.replace_statement(0, "DELETE FROM t")
        scenario.run()
        assert sorted(db.execute("SELECT * FROM t").rows) == before


class TestTableEdits:
    def test_edit_table_changes_outcome(self, simple_db):
        db, xid = simple_db
        scenario = WhatIfScenario(db, xid)
        scenario.edit_table("t", [(1, 1000), (2, 2000)])
        result = scenario.run()
        assert (1, 1001) in result.diffs["t"].added

    def test_edit_table_validates_schema(self, simple_db):
        db, xid = simple_db
        from repro.errors import CatalogError
        with pytest.raises(CatalogError):
            WhatIfScenario(db, xid).edit_table("t", [(1,)])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_empty_edit_empties_the_table(self, simple_db, backend):
        """An empty R' is still R': the table reads as empty, so only
        the transaction's own insert is left."""
        db, xid = simple_db
        reenactor = Reenactor(db, backend=backend)
        record = reenactor.transaction_record(xid)
        empty = {"t": Relation(["k", "v"], [])}
        plain = reenactor.reenact_record(record, edits=empty)
        assert plain.table("t").rows == [(3, 30)]
        annotated = reenactor.reenact_record(
            record, ReenactmentOptions(annotations=True), edits=empty)
        assert annotated.table("t").rows == [(3, 30, -1000001, xid,
                                              True, False)]

    def test_every_read_of_an_edited_table_reads_the_edit(self):
        """READ COMMITTED re-bases, a redirected subquery read, an
        explicit ``AS OF`` scan inside a statement and the provenance
        join all read R' — alike on every backend."""
        db = Database()
        db.execute("CREATE TABLE t (k INT, v INT)")
        db.execute("CREATE TABLE u (k INT, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        past = db.clock.now()
        db.execute("UPDATE t SET v = 0")
        session = db.connect()
        session.begin("READ COMMITTED")
        session.execute("UPDATE t SET v = v * 2 WHERE k IN "
                        "(SELECT k FROM t WHERE v > 50)")
        session.execute("UPDATE t SET v = v + 1 WHERE k = 1")
        session.execute(f"INSERT INTO u (SELECT k, v FROM t AS OF {past})")
        xid = session.txn.xid
        session.commit()
        edit = [(1, 100), (7, 70)]
        provenance = ReenactmentOptions(annotations=True,
                                        with_provenance=True, table="t")
        for backend in BACKENDS:
            scenario = WhatIfScenario(db, xid, backend=backend)
            modified = scenario.edit_table("t", edit).run().modified
            assert sorted(modified.table("t").rows) \
                == [(1, 201), (7, 140)], backend
            assert sorted(modified.table("u").rows) \
                == [(1, 100), (7, 70)], backend
            joined = scenario.reenactor.reenact_record(
                scenario.record, provenance, statements=scenario.statements,
                edits=scenario._edits).table("t")
            prov = joined.column_index("prov_t_v")
            assert sorted(row[prov] for row in joined.rows) == [70, 100]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_edited_rows_never_conflict_with_stored_rows(self, backend):
        """An R' row is not a stored row: editing ``t`` must not make
        the scenario collide with a concurrent writer of stored row 3,
        which the unedited transaction never touched."""
        db = Database()
        db.execute("CREATE TABLE t (k INT, v INT)")
        db.execute("INSERT INTO t VALUES (1, 0), (2, 0), (3, 0)")
        a, b = db.connect(), db.connect()
        a.begin()
        b.begin()
        a.execute("UPDATE t SET v = 1 WHERE k = 1")
        b.execute("UPDATE t SET v = 3 WHERE k = 3")
        xid = a.txn.xid
        b.commit()
        a.commit()
        assert WhatIfScenario(db, xid, backend=backend).run().conflicts \
            == []
        edited = WhatIfScenario(db, xid, backend=backend).edit_table(
            "t", [(5, 0), (6, 0), (1, 0)])
        assert edited.run().conflicts == []
        assert edited.conflict_analysis() == []


class TestPromotion:
    """The paper's §2 closing example: adding the redundant update
    (promotion) makes T1 write both accounts, which forces T2 to abort
    under first-updater-wins."""

    def test_promotion_detects_conflict_with_t2(self, skewed):
        db, t1, t2 = skewed
        scenario = WhatIfScenario(db, t1)
        scenario.insert_statement(
            0, "UPDATE account SET bal = bal WHERE cust = 'Alice'")
        result = scenario.run()
        assert any(c.other_xid == t2 for c in result.conflicts)
        assert all(c.table == "account" for c in result.conflicts)

    def test_original_history_has_no_conflicts(self, skewed):
        db, t1, _ = skewed
        result = WhatIfScenario(db, t1).run()
        assert result.conflicts == []

    def test_overdraft_whatif_threshold(self, skewed):
        db, _, t2 = skewed
        scenario = WhatIfScenario(db, t2)
        scenario.replace_statement(
            1,
            "INSERT INTO overdraft (SELECT a1.cust, a1.bal + a2.bal "
            "FROM account a1, account a2 WHERE a1.cust = 'Alice' AND "
            "a1.cust = a2.cust AND a1.typ != a2.typ "
            "AND a1.bal + a2.bal < 50)")
        result = scenario.run()
        assert len(result.diffs["overdraft"].added) == 2

    def test_edit_table_what_if_from_paper(self, skewed):
        # "the user can edit the data in a table": lower the checking
        # balance so that T2 *does* detect the overdraft
        db, _, t2 = skewed
        scenario = WhatIfScenario(db, t2)
        scenario.edit_table("account", [
            ("Alice", "Checking", 10), ("Alice", "Savings", 30)])
        result = scenario.run()
        added = result.diffs["overdraft"].added
        assert ("Alice", 0) in added or len(added) >= 1 or \
            result.diffs["account"].changed

    def test_summary_is_readable(self, skewed):
        db, t1, _ = skewed
        scenario = WhatIfScenario(db, t1)
        scenario.insert_statement(
            0, "UPDATE account SET bal = bal WHERE cust = 'Alice'")
        text = scenario.run().summary()
        assert "conflict" in text
        assert "unchanged" in text


@pytest.fixture
def aborted_rival():
    """T1 commits; a concurrent rival wrote row k = 2 and rolled back.
    Its attempted write is in no storage — only reenactment knows it."""
    db = Database()
    db.execute("CREATE TABLE t (k INT, v INT)")
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
    t1 = db.connect()
    t1.begin()
    t1.execute("UPDATE t SET v = v + 1 WHERE k = 1")
    rival = db.connect()
    rival.begin()
    rival.execute("UPDATE t SET v = 0 WHERE k = 2")
    rival_xid = rival.txn.xid
    rival.rollback()
    xid = t1.txn.xid
    t1.commit()
    scenario = WhatIfScenario(db, xid)
    scenario.insert_statement(0, "UPDATE t SET v = v WHERE k = 2")
    return scenario, rival_xid


class TestDegradedConflictAnalysis:
    """Conflict analysis must not silently report "no conflict" when a
    concurrent transaction's writes cannot be reconstructed: expected
    failures degrade *visibly*, anything else is an engine bug and
    propagates.  An aborted transaction is reenacted; a committed one
    is read off the commit log."""

    def test_aborted_rival_is_reenacted(self, aborted_rival):
        scenario, rival = aborted_rival
        result = scenario.run()
        assert not result.degraded
        assert [(c.table, c.other_xid) for c in result.conflicts] \
            == [("t", rival)]

    def test_expected_failure_degrades_visibly(self, aborted_rival):
        scenario, rival = aborted_rival
        real_reenact = scenario.reenactor.reenact

        def flaky(xid, options, session=None):
            if xid == rival:
                raise ReenactmentError("synthetic reenactment failure")
            return real_reenact(xid, options, session=session)

        scenario.reenactor.reenact = flaky
        result = scenario.run()
        assert result.degraded
        assert rival in result.degraded_xids
        assert "ReenactmentError" in result.degraded_xids[rival]
        assert any("degraded" in line
                   for line in result.summary().splitlines())
        # the rival's writes could not be reconstructed, so no conflict
        # may name it — absence of evidence, flagged, not evidence of
        # absence
        assert all(c.other_xid != rival for c in result.conflicts)

    def test_unexpected_failure_propagates(self, aborted_rival):
        scenario, _ = aborted_rival

        def broken(xid, options, session=None):
            raise RuntimeError("engine bug")

        scenario.reenactor.reenact = broken
        with pytest.raises(RuntimeError, match="engine bug"):
            scenario.run()

    def test_committed_rivals_are_never_reenacted(self, skewed):
        db, t1, t2 = skewed
        scenario = WhatIfScenario(db, t1)
        scenario.insert_statement(
            0, "UPDATE account SET bal = bal WHERE cust = 'Alice'")

        def broken(xid, options, session=None):
            raise RuntimeError("a committed write set was reenacted")

        scenario.reenactor.reenact = broken
        result = scenario.run()
        assert any(c.other_xid == t2 for c in result.conflicts)
        assert not result.degraded

    def test_unanswerable_commit_degrades_visibly(self):
        """A committed rival published without history: the commit log
        cannot say what it wrote, and the storage read's
        ``TimeTravelError`` is reported, never read as "no conflict"."""
        db = Database()
        db.execute("CREATE TABLE t (k INT, v INT)")
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
        t1 = db.connect()
        t1.begin()
        t1.execute("UPDATE t SET v = v + 1 WHERE k = 1")
        rival = db.connect()
        rival.begin()
        rival.execute("UPDATE t SET v = 0 WHERE k = 2")
        rival_xid = rival.txn.xid
        db.config.timetravel_enabled = False
        rival.commit()
        db.config.timetravel_enabled = True
        xid = t1.txn.xid
        t1.commit()
        scenario = WhatIfScenario(db, xid)
        scenario.insert_statement(0, "UPDATE t SET v = v WHERE k = 2")
        result = scenario.run()
        assert "TimeTravelError" in result.degraded_xids[rival_xid]
        assert all(c.other_xid != rival_xid for c in result.conflicts)
        assert "degraded" in result.summary()

    def test_clean_run_is_not_degraded(self, skewed):
        db, t1, _ = skewed
        result = WhatIfScenario(db, t1).run()
        assert not result.degraded
        assert result.degraded_xids == {}
        assert "degraded" not in result.summary()
