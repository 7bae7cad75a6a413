"""The ExecutionBackend protocol: registry, resolution, defaults."""

import pytest

from repro import Database
from repro.algebra.evaluator import Relation
from repro.backends import (ExecutionBackend, InMemoryBackend,
                            SQLiteBackend, available_backends,
                            register_backend, resolve_backend)
from repro.backends.base import _REGISTRY
from repro.core.reenactor import Reenactor
from repro.errors import ReproError


def test_resolve_none_is_memory():
    backend = resolve_backend(None)
    assert isinstance(backend, InMemoryBackend)
    assert backend.name == "memory"


def test_resolve_by_name_case_insensitive():
    assert isinstance(resolve_backend("sqlite"), SQLiteBackend)
    assert isinstance(resolve_backend("SQLite"), SQLiteBackend)
    assert isinstance(resolve_backend("in-memory"), InMemoryBackend)


def test_resolve_instance_passthrough():
    backend = SQLiteBackend()
    assert resolve_backend(backend) is backend


def test_resolve_unknown_name_lists_alternatives():
    with pytest.raises(ReproError) as excinfo:
        resolve_backend("oracle")
    assert "sqlite" in str(excinfo.value)
    assert "memory" in str(excinfo.value)


def test_resolve_bad_spec_type():
    with pytest.raises(ReproError):
        resolve_backend(42)


def test_available_backends_registered():
    names = available_backends()
    assert "memory" in names and "sqlite" in names


def test_register_backend_custom(db):
    class Recording(ExecutionBackend):
        name = "recording"

        def __init__(self):
            self.plans = []

        def execute_plan(self, plan, ctx):
            self.plans.append(plan)
            return InMemoryBackend().execute_plan(plan, ctx)

    instance = Recording()
    register_backend("recording", lambda: instance)
    try:
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        session = db.connect()
        session.begin()
        session.execute("UPDATE t SET a = a + 1")
        xid = session.txn.xid
        session.commit()
        result = Reenactor(db, backend="recording").reenact(xid)
        assert sorted(result.table("t").rows) == [(2,), (3,)]
        assert instance.plans, "custom backend was not used"
    finally:
        _REGISTRY.pop("recording", None)


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
