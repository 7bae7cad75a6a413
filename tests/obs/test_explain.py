"""Plan-explain: collector scoping, recording from the snapshot
binder, the JobHandle surface, and rendering."""

import threading

import pytest

from repro import Database
from repro.debugger.inspector import TransactionInspector
from repro.debugger.render import render_debug_panel
from repro.obs.explain import (ExplainCollector, explain_active,
                               record_explain, render_explain)
from repro.service import ReenactmentService


def run_txn(db, statements):
    session = db.connect(user="app")
    session.begin()
    for sql in statements:
        session.execute(sql)
    xid = session.txn.xid
    session.commit()
    return xid


@pytest.fixture
def history_db():
    db = Database()
    db.execute("CREATE TABLE account (cust TEXT, bal INT)")
    db.execute("INSERT INTO account VALUES ('Alice', 100)")
    xids, ticks = [], []
    for k in range(5):
        xids.append(run_txn(db, [
            "UPDATE account SET bal = bal + %d "
            "WHERE cust = 'Alice'" % (k + 1)]))
        ticks.append(db.clock.now())
    return db, xids, ticks


# -- collector mechanics ---------------------------------------------------

def test_record_without_collector_is_a_noop():
    assert not explain_active()
    record_explain("snapshot-plan", steps=[])    # must not raise


def test_collector_scoping_and_nesting():
    outer = ExplainCollector()
    inner = ExplainCollector()
    with outer:
        record_explain("a")
        with inner:
            assert explain_active()
            record_explain("b", detail=1)
        record_explain("c")
    assert not explain_active()
    assert [e["kind"] for e in outer.events] == ["a", "c"]
    assert inner.events == [{"kind": "b", "detail": 1}]


def test_collector_is_thread_local():
    collector = ExplainCollector()
    seen_active = []

    def worker():
        seen_active.append(explain_active())
        record_explain("from-other-thread")

    with collector:
        t = threading.Thread(target=worker)
        t.start()
        t.join(5)
    assert seen_active == [False]
    assert collector.events == []


# -- recording from the engine ---------------------------------------------

def test_timeline_scan_plans_no_snapshots(history_db):
    """A timeline scan is a storage read: its job records no planner
    decision in either mode."""
    db, _, ticks = history_db
    with ReenactmentService(db, backend="sqlite", workers=1) as svc:
        for mode in ("full", "sparkline"):
            handle = svc.timeline_scan("account", ticks, mode=mode)
            handle.result(timeout=30)
            assert handle.explain(timeout=5) == []


def test_reenact_job_explains_its_snapshot_plan(history_db):
    db, xids, _ = history_db
    with ReenactmentService(db, backend="sqlite", workers=1) as svc:
        handle = svc.reenact(xids[0])
        handle.result(timeout=30)
        events = handle.explain(timeout=5)
    plans = [e for e in events if e["kind"] == "snapshot-plan"]
    assert plans
    assert all(step["reason"] for plan in plans
               for step in plan["steps"])


def test_explain_blocks_until_done_and_times_out(history_db):
    db, xids, _ = history_db
    from repro.errors import ServiceError
    from repro.service.jobs import ReenactJob
    from repro.service.scheduler import JobHandle
    with ReenactmentService(db, backend="sqlite", workers=1) as svc:
        handle = svc.reenact(xids[0])
        events = handle.explain(timeout=30)   # waits for completion
        assert isinstance(events, list)
        handle2 = svc.reenact(xids[0])        # cache hit: done, empty
        assert handle2.explain(timeout=5) == []
    unresolved = JobHandle(ReenactJob(xids[0]), priority=10)
    with pytest.raises(ServiceError):
        unresolved.explain(timeout=0.01)


# -- rendering -------------------------------------------------------------

def test_render_explain_formats_each_kind():
    events = [
        {"kind": "snapshot-plan",
         "counts": {"full-build": 1},
         "steps": [{"op": "full-build", "table": "account", "ts": 7,
                    "source_ts": None, "reason": "no cached neighbor"},
                   {"op": "clone-delta", "table": "account", "ts": 9,
                    "source_ts": 7, "reason": "cheap delta"}]},
        {"kind": "custom-event", "note": "hello"},
    ]
    text = render_explain(events)
    assert "snapshot plan (2 step(s)):" in text
    assert "full-build" in text and "account@7" in text
    assert "because no cached neighbor" in text
    assert "account@9 from @7" in text
    assert "custom-event: note=hello" in text
    assert render_explain([]) == "(no explain events)"


# -- debug panel surface ---------------------------------------------------

def test_inspector_collects_explain_and_panel_renders_it(history_db):
    db, xids, _ = history_db
    inspector = TransactionInspector(db, xids[-1], backend="sqlite")
    inspector.columns()
    assert inspector.last_explain, \
        "panel materialization must record plan explains"
    assert any(e["kind"] == "snapshot-plan"
               for e in inspector.last_explain)
    panel = render_debug_panel(inspector)
    assert "snapshot planning" in panel
    assert "because" in panel
