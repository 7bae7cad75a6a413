"""Service hardening: deadlines, handle timeouts, worker supervision,
spill-tier degradation and close edge cases.

The chaos differential sweep (randomized fault plans over seeded
histories, correct-or-explicit-error oracle) lives in
``tests/faults/test_chaos.py``; this file pins each robustness
mechanism down in isolation.
"""

import sqlite3
import threading
import time

import pytest

from repro import ReenactmentService, SnapshotStore, SQLiteBackend
from repro.backends import SQLiteSession
from repro.errors import (HandleTimeout, JobTimeout, ReproError,
                          ServiceError, WorkerCrashed)
from repro.faults import (CircuitBreaker, FaultPlan, RetryPolicy,
                          TransientInjectedFault, WorkerCrash, armed,
                          disarm)
from repro.service import Job, ResilientStore

from service_helpers import assert_relations_match, run_txn


def teardown_function(_fn):
    disarm()


class SleepJob(Job):
    """Occupies a worker for ``duration`` seconds."""

    kind = "sleep"

    def __init__(self, duration=0.2):
        self.duration = duration

    def run(self, worker):
        time.sleep(self.duration)
        return "slept"


class GateJob(Job):
    """Blocks its worker until the test releases ``gate``."""

    kind = "gate"

    def __init__(self, gate):
        self.gate = gate

    def run(self, worker):
        self.gate.wait(timeout=10)
        return "released"


class RaisingJob(Job):
    """Raises whatever the test hands it — including BaseExceptions."""

    kind = "raising"
    idempotent = False

    def __init__(self, error):
        self.error = error

    def run(self, worker):
        raise self.error


# -- handle timeouts (satellite: HandleTimeout) ----------------------------

def test_result_timeout_raises_handle_timeout(account_db):
    gate = threading.Event()
    with ReenactmentService(account_db, workers=1) as svc:
        handle = svc.submit(GateJob(gate))
        with pytest.raises(HandleTimeout) as exc:
            handle.result(timeout=0.05)
        assert exc.value.kind == "gate"
        assert isinstance(exc.value, ServiceError)
        with pytest.raises(HandleTimeout):
            handle.exception(timeout=0.05)
        with pytest.raises(HandleTimeout):
            handle.explain(timeout=0.05)
        gate.set()
        assert handle.result(timeout=5) == "released"


def test_handle_timeout_carries_trace_id(account_db):
    from repro.obs.trace import disable_tracing, enable_tracing
    gate = threading.Event()
    with ReenactmentService(account_db, workers=1) as svc:
        try:
            enable_tracing()
            handle = svc.submit(GateJob(gate))
            with pytest.raises(HandleTimeout) as exc:
                handle.result(timeout=0.05)
            assert exc.value.trace_id == handle.trace_id
            assert handle.trace_id is not None
        finally:
            disable_tracing()
            gate.set()


# -- per-job deadlines (tentpole: queue-time enforcement) ------------------

def test_expired_deadline_rejects_with_job_timeout(account_db):
    gate = threading.Event()
    with ReenactmentService(account_db, workers=1) as svc:
        blocker = svc.submit(GateJob(gate))
        stale = svc.submit(SleepJob(0), deadline=0.05)
        time.sleep(0.15)  # deadline passes while queued
        gate.set()
        with pytest.raises(JobTimeout) as exc:
            stale.result(timeout=5)
        assert exc.value.kind == "sleep"
        assert blocker.result(timeout=5) == "released"
        stats = svc.stats()
        assert stats.jobs_deadline_expired == 1
        assert stats.jobs_failed == 1


def test_deadline_met_runs_normally(account_db):
    with ReenactmentService(account_db, workers=1) as svc:
        handle = svc.submit(SleepJob(0), deadline=30)
        assert handle.result(timeout=5) == "slept"
        assert svc.stats().jobs_deadline_expired == 0


def test_nonpositive_deadline_rejected(account_db):
    with ReenactmentService(account_db, workers=1) as svc:
        with pytest.raises(ServiceError, match="deadline"):
            svc.submit(SleepJob(0), deadline=0)


# -- worker supervision (tentpole) -----------------------------------------

def test_crashed_worker_restarts_and_requeues_idempotent_job(history_db):
    db, xids = history_db
    plan = FaultPlan(seed=1).on("worker.dispatch", count=1,
                                error=WorkerCrash)
    with armed(plan):
        with ReenactmentService(db, workers=1) as svc:
            handle = svc.reenact(xids[0])
            result = handle.result(timeout=10)
    assert result.table("account").rows
    stats = svc.stats()
    assert stats.workers_restarted == 1
    assert stats.jobs_requeued == 1
    assert stats.jobs_executed == 1
    assert handle.source == "executed"


def test_non_idempotent_job_fails_with_worker_crashed(account_db):
    class NonIdempotent(SleepJob):
        kind = "one-shot"
        idempotent = False

    plan = FaultPlan(seed=1).on("worker.dispatch", count=1,
                                error=WorkerCrash)
    with armed(plan):
        with ReenactmentService(account_db, workers=1) as svc:
            handle = svc.submit(NonIdempotent(0))
            with pytest.raises(WorkerCrashed) as exc:
                handle.result(timeout=10)
            assert exc.value.kind == "one-shot"
            assert exc.value.worker == 0
            assert isinstance(exc.value, ServiceError)
            stats = svc.stats()
            assert stats.workers_restarted == 1
            assert stats.jobs_requeued == 0
            assert stats.jobs_failed == 1
            # the restarted worker still serves traffic
            assert svc.submit(SleepJob(0)).result(timeout=10) == "slept"


def test_second_crash_fails_requeued_job(account_db):
    plan = FaultPlan(seed=1).on("worker.dispatch", count=2,
                                error=WorkerCrash)
    with armed(plan):
        with ReenactmentService(account_db, workers=1) as svc:
            handle = svc.submit(SleepJob(0))  # idempotent
            with pytest.raises(WorkerCrashed):
                handle.result(timeout=10)
            stats = svc.stats()
            assert stats.workers_restarted == 2
            assert stats.jobs_requeued == 1


def test_pool_survives_a_crash_storm(history_db):
    db, xids = history_db
    plan = FaultPlan(seed=5).on("worker.dispatch", probability=0.5,
                                error=WorkerCrash)
    with armed(plan):
        with ReenactmentService(db, workers=2) as svc:
            handles = [svc.reenact(xid) for xid in xids]
            for handle in handles:
                try:
                    handle.result(timeout=20)
                except ReproError:
                    pass  # explicit, typed — never a hang
            assert all(handle.done() for handle in handles)


# -- BaseException escape paths (satellite: scheduler coverage) ------------

@pytest.mark.parametrize("error", [KeyboardInterrupt("^C in job"),
                                   SystemExit(3)])
def test_base_exception_in_job_rejects_handle_not_pool(account_db,
                                                       error):
    with ReenactmentService(account_db, workers=1) as svc:
        handle = svc.submit(RaisingJob(error))
        assert type(handle.exception(timeout=10)) is type(error)
        assert svc.stats().jobs_failed == 1
        # the worker caught it at the per-job wall: no restart, and
        # the pool keeps serving
        assert svc.stats().workers_restarted == 0
        assert svc.submit(SleepJob(0)).result(timeout=10) == "slept"


def test_base_exception_job_releases_dedup_entry(account_db):
    class KeyedRaising(RaisingJob):
        def cache_key(self, db):
            return ("keyed-raising",)

    with ReenactmentService(account_db, workers=1) as svc:
        first = svc.submit(KeyedRaising(KeyboardInterrupt()))
        assert first.exception(timeout=10) is not None
        # the in-flight entry is gone: a resubmission runs fresh
        second = svc.submit(KeyedRaising(KeyboardInterrupt()))
        assert second is not first
        assert second.exception(timeout=10) is not None


# -- spill-tier degradation (tentpole: retry + breaker) --------------------

class FailingStore:
    """Duck-typed snapshot store whose data plane always fails."""

    def __init__(self, error=None):
        self.error = error or TransientInjectedFault("store")
        self.calls = 0
        self.closed = False

    def _boom(self):
        self.calls += 1
        raise self.error

    def put(self, realm, table, ts, rows):
        self._boom()

    def get(self, realm, table, ts):
        self._boom()

    def fetch_many(self, realm, pairs):
        self._boom()

    def __contains__(self, key):
        self._boom()

    def __len__(self):
        return 0

    def close(self):
        self.closed = True


def _resilient(store, threshold=3):
    return ResilientStore(
        store,
        retry=RetryPolicy(attempts=2, base_delay=0.0, max_delay=0.0),
        breaker=CircuitBreaker(failure_threshold=threshold,
                               cooldown=60.0))


def test_put_failure_drops_spill_and_counts():
    inner = FailingStore()
    store = _resilient(inner)
    store.put(1, "account", 5, [(1,)])
    assert inner.calls == 2  # one retry then dropped
    stats = store.resilience_stats()
    assert stats["spills_dropped"] == 1
    assert stats["retries"] == 1
    assert stats["retries_exhausted"] == 1
    assert stats["store_errors"] == 1


def test_read_failure_degrades_to_miss():
    store = _resilient(FailingStore())
    assert store.get(1, "account", 5) is None
    assert store.fetch_many(1, [("account", 5)]) == {}
    assert ("1", "account", 5) not in store
    assert store.resilience_stats()["reads_degraded"] == 3


def test_breaker_opens_and_short_circuits():
    inner = FailingStore()
    store = _resilient(inner, threshold=2)
    store.put(1, "a", 1, [])
    store.put(1, "a", 2, [])  # second failure trips the breaker
    calls_before = inner.calls
    store.put(1, "a", 3, [])  # short-circuited: inner never touched
    assert store.get(1, "a", 1) is None
    assert inner.calls == calls_before
    stats = store.resilience_stats()
    assert stats["breaker_open"] == 1
    assert stats["breaker_trips"] == 1
    assert stats["spills_dropped"] == 3
    assert stats["reads_degraded"] == 1


def test_half_open_probe_recovers_the_store():
    clock_value = [0.0]
    store = ResilientStore(
        SnapshotStore(),
        retry=RetryPolicy(attempts=1, base_delay=0.0, max_delay=0.0),
        breaker=CircuitBreaker(failure_threshold=1, cooldown=5.0,
                               clock=lambda: clock_value[0]))
    # trip the breaker via an injected persistent fault
    with armed(FaultPlan(seed=1).on("store.spill")):
        store.put(1, "account", 5, [("Alice", 1)])
    assert store.resilience_stats()["breaker_open"] == 1
    clock_value[0] = 5.0  # cooldown elapses; faults now disarmed
    store.put(1, "account", 5, [("Alice", 1)])
    assert store.resilience_stats()["breaker_open"] == 0
    assert store.get(1, "account", 5) == [("Alice", 1)]
    store.close()


def test_unprotected_surface_delegates():
    inner = SnapshotStore()
    store = ResilientStore(inner)
    assert store.path == inner.path
    assert len(store) == 0
    assert store.inventory(1) == []
    store.close()
    assert inner.closed


def test_service_degrades_to_cache_only_under_spill_faults(history_db):
    db, xids = history_db
    reference = {}
    with ReenactmentService(db, workers=2) as svc:
        for xid in xids:
            reference[xid] = svc.reenact(xid).result(timeout=20)
    plan = FaultPlan(seed=2).on("store.spill", probability=1.0) \
                            .on("store.rehydrate", probability=1.0)
    with armed(plan):
        with ReenactmentService(db, workers=2) as svc:
            assert isinstance(svc.store, ResilientStore)
            handles = {xid: svc.reenact(xid) for xid in xids}
            for xid, handle in handles.items():
                got = handle.result(timeout=30)
                for table in reference[xid].tables:
                    assert_relations_match(
                        got.table(table),
                        reference[xid].table(table),
                        context=f"xid={xid} table={table}")
            stats = svc.stats()
    assert stats.resilience is not None
    assert stats.jobs_failed == 0
    assert "resilience" in stats.as_dict()


def test_service_without_store_reports_no_resilience(account_db):
    with ReenactmentService(account_db, workers=1,
                            store=None) as svc:
        assert svc.stats().resilience is None


def test_retries_total_metric_counts_spill_retries(account_db):
    plan = FaultPlan(seed=3).on("store.spill", count=1)
    with armed(plan):
        with ReenactmentService(account_db, workers=1) as svc:
            run_txn(account_db,
                    ["UPDATE account SET bal = bal + 1"])
            # force a spill through the resilient wrapper directly:
            # the injected transient is absorbed by one retry
            svc.store.put(account_db.history_id, "account", 1,
                          [("Alice", "checking", 1)])
            registry = svc.metrics()
    rendered = registry.render()
    assert "reenact_retries_total" in rendered
    assert svc.store.resilience_stats()["retries"] == 1


# -- session-open resilience -----------------------------------------------

def test_transient_session_open_fault_is_retried(history_db):
    db, xids = history_db
    plan = FaultPlan(seed=4).on("session.open", count=1)
    with armed(plan):
        with ReenactmentService(db, workers=1) as svc:
            assert svc.reenact(xids[0]).result(timeout=10) is not None
            assert svc.stats().jobs_failed == 0


def test_persistent_session_open_fails_jobs_fast(history_db):
    db, xids = history_db
    plan = FaultPlan(seed=4).on("session.open")
    with armed(plan):
        with ReenactmentService(db, workers=1) as svc:
            handle = svc.reenact(xids[0])
            with pytest.raises(ServiceError, match="session"):
                handle.result(timeout=10)


# -- close() never hangs over a broken spill tier --------------------------

def _close_within(svc, seconds=10):
    closer = threading.Thread(target=svc.close, daemon=True)
    closer.start()
    closer.join(timeout=seconds)
    assert not closer.is_alive(), \
        f"ReenactmentService.close() still blocked after {seconds}s"


def _assert_connection_closed(conn):
    # ``total_changes`` checks only that the connection is open, not
    # which thread asks: the worker that owned it may be gone
    with pytest.raises(sqlite3.ProgrammingError, match="closed"):
        conn.total_changes


@pytest.mark.parametrize("site", ["store.spill", "store.write"])
def test_close_returns_while_spill_tier_stays_broken(history_db, site):
    """A spill tier that fails for good — every ``put`` refused before
    it serializes (``store.spill``) or every SQLite write
    (``store.write``) — costs the spills, never an answer, an open
    connection or a hang."""
    db, xids = history_db
    assert len(xids) >= 5
    with ReenactmentService(db, workers=1, store=None) as svc:
        reference = {xid: svc.reenact(xid).result(timeout=20)
                     for xid in xids}
    with armed(FaultPlan(seed=1).on(site)):
        svc = ReenactmentService(
            db, backend=SQLiteBackend(cache_capacity=1))
        results = {xid: svc.reenact(xid).result(timeout=20)
                   for xid in xids}
        sessions = list(svc._live_sessions)
        assert sessions
        _close_within(svc)
    for xid in xids:
        for table in reference[xid].tables:
            assert_relations_match(results[xid].table(table),
                                   reference[xid].table(table),
                                   context=f"site={site} xid={xid}")
    stats = svc.stats()
    assert stats.jobs_failed == 0
    assert stats.workers_restarted == 0
    assert stats.store["spills"] == 0
    assert stats.resilience["spills_dropped"] >= 1
    assert stats.resilience["store_errors"] >= 1
    for session in sessions:
        _assert_connection_closed(session.conn)
    _assert_connection_closed(svc.store.inner._conn)


def test_stopped_worker_exits_whatever_its_teardown_raises(account_db):
    class BrokenTeardownSession(SQLiteSession):
        def _teardown(self):
            super()._teardown()
            raise RuntimeError("teardown failed after the sentinel")

    class BrokenTeardownBackend(SQLiteBackend):
        def open_session(self):
            return BrokenTeardownSession(self)

    svc = ReenactmentService(account_db,
                             backend=BrokenTeardownBackend(), workers=2)
    assert svc.submit(SleepJob(0)).result(timeout=10) == "slept"
    _close_within(svc)
    assert svc.stats().workers_restarted == 0
