"""End-to-end tracing through the reenactment service: the acceptance
span tree for a traced timeline scan, and trace isolation across a
concurrent job fleet."""

import json

import pytest

from repro import Database
from repro.obs.trace import (JsonlFileSink, disable_tracing,
                             enable_tracing, render_trace)
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
    for k in range(6):
        xids.append(run_txn(db, [
            "UPDATE account SET bal = bal + %d "
            "WHERE cust = 'Alice'" % (k + 1)]))
        ticks.append(db.clock.now())
    return db, xids, ticks


def _tree(records, trace_id):
    """{span_id: record} and {parent_id: [records]} for one trace."""
    mine = [r for r in records if r["trace_id"] == trace_id]
    by_id = {r["span_id"]: r for r in mine}
    children = {}
    for r in mine:
        children.setdefault(r["parent_id"], []).append(r)
    return by_id, children


def _child_names(children, record):
    return {c["name"] for c in children.get(record["span_id"], ())}


def test_traced_timeline_scans_yield_the_full_span_tree(history_db):
    """Acceptance: submit -> schedule -> job -> result, each in one
    trace.  A timeline scan reads storage, so its job span has no
    backend child in either mode; a reenact job's tree holds the
    engine work — execute and snapshot planning, whose decisions
    arrive with their reasons."""
    db, xids, ticks = history_db
    sink = enable_tracing()
    try:
        with ReenactmentService(db, backend="sqlite",
                                workers=2) as svc:
            scans = [svc.timeline_scan("account", ticks, mode=mode)
                     for mode in ("sparkline", "full")]
            for scan in scans:
                scan.result(timeout=30)
            reenact = svc.reenact(xids[-1])
            reenact.result(timeout=30)
            reenact_explain = reenact.explain(timeout=5)
    finally:
        disable_tracing()

    records = sink.spans()
    for handle in scans:
        assert handle.trace_id
        by_id, children = _tree(records, handle.trace_id)
        (submit,) = children[None]
        assert submit["name"] == "service.submit"
        assert _child_names(children, submit) == {"service.schedule"}
        (schedule,) = children[submit["span_id"]]
        assert {"job.timeline_scan",
                "service.result"} <= _child_names(children, schedule)
        job = next(c for c in children[schedule["span_id"]]
                   if c["name"] == "job.timeline_scan")
        assert job["attrs"]["ticks"] == len(ticks)
        assert not any(name.startswith("backend.")
                       for name in _child_names(children, job))

    reenact_names = {r["name"]
                     for r in _tree(records, reenact.trace_id)[0].values()}
    assert {"service.submit", "service.schedule", "job.reenact",
            "backend.execute_plan", "snapshot.plan",
            "service.result"} <= reenact_names
    plan = next(e for e in reenact_explain
                if e["kind"] == "snapshot-plan")
    assert all(step["reason"] for step in plan["steps"])

    # and the whole tree renders from the handle's trace id
    text = render_trace(records, trace_id=reenact.trace_id)
    assert text.splitlines()[0].startswith("service.submit")
    assert "backend.execute_plan" in text


def test_traced_reenact_job_covers_compile_and_execute(history_db):
    db, xids, _ = history_db
    sink = enable_tracing()
    try:
        with ReenactmentService(db, backend="sqlite",
                                workers=1) as svc:
            handle = svc.reenact(xids[0])
            handle.result(timeout=30)
    finally:
        disable_tracing()
    by_id, children = _tree(sink.spans(), handle.trace_id)
    names = {r["name"] for r in by_id.values()}
    assert {"service.submit", "service.schedule", "job.reenact",
            "reenactor.compile", "reenactor.execute",
            "service.result"} <= names
    job = next(r for r in by_id.values() if r["name"] == "job.reenact")
    assert {"reenactor.compile",
            "reenactor.execute"} <= _child_names(children, job)


def test_execute_span_counts_engine_and_passthrough_rows():
    """``reenactor.execute`` says how the result was put together: rows
    the backend computed (written, deleted, inserted) and rows taken
    unchanged from the AS-OF snapshot."""
    from repro.core.reenactor import ReenactmentOptions, Reenactor
    db = Database()
    db.execute("CREATE TABLE account (cust TEXT, bal INT)")
    db.execute("INSERT INTO account VALUES ('Alice', 100), ('Bob', 50), "
               "('Eve', 9)")
    xid = run_txn(db, ["UPDATE account SET bal = 0 WHERE cust = 'Alice'",
                       "DELETE FROM account WHERE cust = 'Bob'",
                       "INSERT INTO account VALUES ('Carol', 7)"])
    for backend in ("memory", "sqlite"):
        for options, counts in (
                (ReenactmentOptions(), (3, 1)),
                (ReenactmentOptions(annotations=True,
                                    only_affected=True), (2, 0))):
            sink = enable_tracing()
            try:
                Reenactor(db, backend=backend).reenact(xid, options)
            finally:
                disable_tracing()
            (execute,) = [r for r in sink.spans()
                          if r["name"] == "reenactor.execute"]
            assert (execute["attrs"]["affected_rows"],
                    execute["attrs"]["passthrough_rows"]) == counts


def test_sixteen_concurrent_jobs_nest_without_leakage(history_db):
    """16 jobs racing across 4 workers: every trace holds exactly its
    own submit/schedule pair and no span adopts a foreign parent."""
    db, xids, ticks = history_db
    sink = enable_tracing()
    try:
        with ReenactmentService(db, backend="sqlite", workers=4,
                                cache_capacity=2,
                                result_cache_capacity=None) as svc:
            handles = []
            for i in range(16):
                if i % 2:
                    handles.append(svc.timeline_scan(
                        "account", ticks, mode="sparkline",
                        priority=i))
                else:
                    handles.append(svc.reenact(xids[i % len(xids)]))
            for h in handles:
                h.result(timeout=60)
    finally:
        disable_tracing()

    records = sink.spans()
    # dedup can hand the same handle object to several submitters
    unique = list({id(h): h for h in handles}.values())
    executed = [h for h in unique if h.source == "executed"]
    assert executed, "at least the first submissions must execute"
    for handle in executed:
        by_id, children = _tree(records, handle.trace_id)
        roots = children.get(None, ())
        assert len(roots) == 1, \
            "one trace must have exactly one root (the submit)"
        assert roots[0]["name"] == "service.submit"
        assert len([r for r in by_id.values()
                    if r["name"] == "service.schedule"]) == 1
        # every span in the trace reaches the root through parents
        # that are also in the trace — no foreign parent ids
        for record in by_id.values():
            seen = set()
            node = record
            while node["parent_id"] is not None:
                assert node["parent_id"] in by_id, \
                    f"{node['name']} leaked a foreign parent"
                assert node["span_id"] not in seen
                seen.add(node["span_id"])
                node = by_id[node["parent_id"]]
            assert node["name"] == "service.submit"
    # distinct executed jobs got distinct traces
    ids = [h.trace_id for h in executed]
    assert len(set(ids)) == len(ids)


def test_service_work_is_untraced_noop_when_disabled(history_db):
    db, xids, _ = history_db
    with ReenactmentService(db, backend="sqlite", workers=1) as svc:
        handle = svc.reenact(xids[0])
        handle.result(timeout=30)
    assert handle.trace_id is None


def test_service_emits_valid_jsonl_trace_file(tmp_path, history_db):
    db, _, ticks = history_db
    path = tmp_path / "service_trace.jsonl"
    enable_tracing(JsonlFileSink(str(path)))
    try:
        with ReenactmentService(db, backend="sqlite",
                                workers=3) as svc:
            handles = [svc.timeline_scan("account", ticks,
                                         mode="sparkline", priority=i)
                       for i in range(6)]
            for h in handles:
                h.result(timeout=30)
    finally:
        disable_tracing()
    lines = path.read_text().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert {"name", "trace_id", "span_id", "parent_id",
                "duration_s"} <= set(record)
