"""The ExecutionBackend protocol: resolution, defaults, and custom
backends passed as instances."""

import pytest

from repro import Database
from repro.algebra.evaluator import Relation
from repro.backends import (ExecutionBackend, InMemoryBackend,
                            SQLiteBackend, available_backends,
                            resolve_backend)
from repro.core.equivalence import check_history_equivalence
from repro.core.reenactor import Reenactor
from repro.core.whatif import WhatIfFleet
from repro.errors import ReproError
from repro.service import ReenactmentService
from repro.workloads import run_write_skew_history, setup_bank


def test_resolve_none_is_memory():
    backend = resolve_backend(None)
    assert isinstance(backend, InMemoryBackend)
    assert backend.name == "memory"


def test_resolve_by_name_case_insensitive():
    assert isinstance(resolve_backend("sqlite"), SQLiteBackend)
    assert isinstance(resolve_backend("SQLite"), SQLiteBackend)
    assert isinstance(resolve_backend("MEMORY"), InMemoryBackend)


def test_resolve_instance_passthrough():
    backend = SQLiteBackend()
    assert resolve_backend(backend) is backend


def test_resolve_unknown_name_lists_alternatives():
    for name in ("oracle", "in-memory"):
        with pytest.raises(ReproError) as excinfo:
            resolve_backend(name)
        assert "available: memory, sqlite" in str(excinfo.value)


def test_resolve_bad_spec_type():
    with pytest.raises(ReproError):
        resolve_backend(42)


def test_available_backends_registered():
    assert available_backends() == ["memory", "sqlite"]


class Recording(ExecutionBackend):
    """A stateless custom backend: only ``execute_plan``, delegating to
    the interpreter and keeping every plan it was sent."""

    name = "recording"

    def __init__(self):
        self.plans = []

    def execute_plan(self, plan, ctx):
        self.plans.append(plan)
        return InMemoryBackend().execute_plan(plan, ctx)


@pytest.fixture
def history():
    """A write-skew history plus one multi-statement transaction."""
    db = Database()
    setup_bank(db)
    t1, _t2 = run_write_skew_history(db)
    session = db.connect()
    session.begin()
    session.execute("UPDATE account SET bal = bal + 1 WHERE typ = 'c'")
    session.execute("DELETE FROM account WHERE bal < 0")
    session.commit()
    return db, t1


def _tables(result):
    return {name: sorted(relation.rows, key=repr)
            for name, relation in result.tables.items()}


def _fleet(db, xid, backend):
    fleet = WhatIfFleet(db, xid, backend=backend)
    fleet.scenario("skip").delete_statement(0)
    fleet.scenario("noop").insert_statement(
        0, "UPDATE account SET bal = bal WHERE cust = 'Alice'")
    return {name: (sorted((table, sorted(diff.added, key=repr),
                           sorted(diff.removed, key=repr))
                          for table, diff in result.diffs.items()),
                   sorted((c.table, c.rowid, c.other_xid)
                          for c in result.conflicts))
            for name, result in fleet.run().items()}


def test_instance_backend_runs_reenactor(history):
    db, xid = history
    backend = Recording()
    result = Reenactor(db, backend=backend).reenact(xid)
    assert backend.plans, "custom backend was not used"
    assert _tables(result) == _tables(Reenactor(db).reenact(xid))


def test_instance_backend_runs_whatif_fleet(history):
    db, xid = history
    backend = Recording()
    assert _fleet(db, xid, backend) == _fleet(db, xid, None)
    assert backend.plans, "custom backend was not used"


def test_instance_backend_runs_history_equivalence(history):
    db, _xid = history
    backend = Recording()
    reports = check_history_equivalence(db, backend=backend)
    assert backend.plans, "custom backend was not used"
    reference = check_history_equivalence(db)
    assert sorted(reports) == sorted(reference)
    assert all(report.ok for report in reports.values())
    assert {xid: [(c.table, c.ok, c.detail) for c in report.checks]
            for xid, report in reports.items()} == \
        {xid: [(c.table, c.ok, c.detail) for c in report.checks]
         for xid, report in reference.items()}


def test_instance_backend_runs_service(history):
    db, _xid = history
    backend = Recording()
    xids = db.audit_log.committed_xids()
    with ReenactmentService(db, backend=backend, workers=2) as svc:
        assert svc.backend is backend
        results = {xid: svc.reenact(xid).result(timeout=20)
                   for xid in xids}
    assert backend.plans, "custom backend was not used"
    reference = Reenactor(db)
    for xid in xids:
        assert _tables(results[xid]) == _tables(reference.reenact(xid))


def test_backend_execution_does_not_mutate_state(db):
    db.execute("CREATE TABLE t (a INT)")
    db.execute("INSERT INTO t VALUES (1)")
    session = db.connect()
    session.begin()
    session.execute("UPDATE t SET a = 2")
    xid = session.txn.xid
    session.commit()
    before = db.execute("SELECT a FROM t").rows
    for backend in ("memory", "sqlite"):
        Reenactor(db, backend=backend).reenact(xid)
    assert db.execute("SELECT a FROM t").rows == before


def test_relation_type_returned(db):
    db.execute("CREATE TABLE t (a INT)")
    db.execute("INSERT INTO t VALUES (1)")
    session = db.connect()
    session.begin()
    session.execute("DELETE FROM t WHERE a = 1")
    xid = session.txn.xid
    session.commit()
    for backend in ("memory", "sqlite"):
        result = Reenactor(db, backend=backend).reenact(xid)
        assert isinstance(result.table("t"), Relation)
        assert result.table("t").rows == []
