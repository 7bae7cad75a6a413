"""Equivalence-oracle unit tests: the oracle must accept correct
reenactments and notice injected discrepancies."""

import pytest

from repro import Database
from repro.core.equivalence import (check_history_equivalence,
                                    check_transaction_equivalence)
from repro.core.reenactor import Reenactor
from repro.errors import ReenactmentError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (k INT, v INT)")
    database.execute("INSERT INTO t VALUES (1,10), (2,20), (3,30)")
    return database


def run_txn(db, *stmts, isolation=None):
    s = db.connect()
    s.begin(isolation)
    for stmt in stmts:
        s.execute(stmt)
    xid = s.txn.xid
    s.commit()
    return xid


class TestAccepts:
    def test_update_insert_delete(self, db):
        xid = run_txn(db,
                      "UPDATE t SET v = v * 2 WHERE k <= 2",
                      "INSERT INTO t VALUES (4, 40)",
                      "DELETE FROM t WHERE k = 3")
        report = check_transaction_equivalence(db, xid)
        assert report.ok
        check = report.checks[0]
        assert sum(check.written_actual.values()) == 3
        assert check.deleted_actual == 1

    def test_rc_transaction(self, db):
        s = db.connect()
        s.begin("READ COMMITTED")
        s.execute("UPDATE t SET v = 0 WHERE k = 1")
        db.execute("INSERT INTO t VALUES (9, 90)")
        s.execute("UPDATE t SET v = v + 1 WHERE k = 9")
        xid = s.txn.xid
        s.commit()
        assert check_transaction_equivalence(db, xid).ok

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_rc_transaction_over_two_tables(self, backend):
        """A READ COMMITTED reenactment ends each table at the last
        statement *on that table*: a commit to ``a`` between T1's
        statement on ``a`` and its later statement on ``b`` is not part
        of ``a``'s reenacted state, and the oracle must judge ``a``
        there — in the single check and in the pipelined sweep."""
        db = Database()
        db.execute("CREATE TABLE a (id INT, v INT)")
        db.execute("CREATE TABLE b (id INT, v INT)")
        db.execute("INSERT INTO a VALUES (1,10), (2,20)")
        db.execute("INSERT INTO b VALUES (1,100)")
        t1 = db.connect()
        t1.begin("READ COMMITTED")
        t1.execute("UPDATE a SET v = v + 1 WHERE id = 1")
        db.execute("UPDATE a SET v = v + 5 WHERE id = 2")
        t1.execute("UPDATE b SET v = v + 1 WHERE id = 1")
        xid = t1.txn.xid
        t1.commit()
        report = check_transaction_equivalence(db, xid, backend=backend)
        assert report.ok, [c.detail for c in report.failures()]
        tables = Reenactor(db, backend=backend).reenact(xid).tables
        assert sorted(tables["a"].rows) == [(1, 11), (2, 20)]
        assert sorted(tables["b"].rows) == [(1, 101)]
        sweep = check_history_equivalence(db, backend=backend)
        assert sweep[xid].ok, [c.detail for c in sweep[xid].failures()]

    def test_history_checker_covers_all_committed(self, db):
        run_txn(db, "UPDATE t SET v = 1 WHERE k = 1")
        run_txn(db, "DELETE FROM t WHERE k = 2")
        reports = check_history_equivalence(db)
        assert len(reports) >= 3  # setup insert + two transactions
        assert all(r.ok for r in reports.values())

    def test_unoptimized_reenactment_also_passes(self, db):
        xid = run_txn(db, "UPDATE t SET v = -v")
        assert check_transaction_equivalence(db, xid,
                                             optimize=False).ok

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_row_inserted_then_deleted(self, db, backend):
        """A row the transaction inserted and then deleted is absent
        before and after it, yet the transaction deleted it: both sides
        count it as deleted."""
        xid = run_txn(db, "INSERT INTO t VALUES (4, 40)",
                      "DELETE FROM t WHERE k = 4")
        report = check_transaction_equivalence(db, xid, backend=backend)
        assert report.ok, [c.detail for c in report.failures()]
        (check,) = report.checks
        assert check.deleted_expected == check.deleted_actual == 1
        assert not check.written_expected and not check.written_actual

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_judged_without_completing_tables(self, db, backend,
                                              monkeypatch):
        """The oracle reads the write set only: it never completes a
        table from the snapshot."""
        run_txn(db, "UPDATE t SET v = v * 2 WHERE k <= 2",
                "INSERT INTO t VALUES (4, 40)",
                "DELETE FROM t WHERE k = 3")
        xid = run_txn(db, "DELETE FROM t WHERE k = 4")

        def no_completion(*args, **kwargs):
            raise AssertionError("completed a table")
        monkeypatch.setattr(Reenactor, "_complete", no_completion)
        assert check_transaction_equivalence(db, xid, backend=backend).ok
        reports = check_history_equivalence(db, backend=backend)
        assert len(reports) >= 3 and all(r.ok for r in reports.values())


class TestRejects:
    def test_uncommitted_transaction_rejected(self, db):
        s = db.connect()
        s.begin()
        s.execute("UPDATE t SET v = 0 WHERE k = 1")
        xid = s.txn.xid
        s.rollback()
        with pytest.raises(ReenactmentError, match="did not commit"):
            check_transaction_equivalence(db, xid)

    def test_detects_tampered_audit_log(self, db):
        """If the audit log lies about what a transaction did, the
        oracle must notice: this guards against a reenactor that merely
        echoes storage."""
        xid = run_txn(db, "UPDATE t SET v = v + 1 WHERE k = 1")
        # tamper: rewrite the logged statement to a different update
        from repro.db.auditlog import AuditEventKind, AuditLogEntry
        entries = db.audit_log.entries
        for i, entry in enumerate(entries):
            if entry.xid == xid and \
                    entry.kind is AuditEventKind.STATEMENT:
                entries[i] = AuditLogEntry(
                    kind=entry.kind, xid=entry.xid, ts=entry.ts,
                    isolation=entry.isolation, user=entry.user,
                    session_id=entry.session_id,
                    stmt_index=entry.stmt_index,
                    sql="UPDATE t SET v = v + 999 WHERE k = 1")
        report = check_transaction_equivalence(db, xid)
        assert not report.ok
        assert "written mismatch" in report.failures()[0].detail
