"""The reenactment service: scheduling, dedup, caching, admission.

The contract: jobs submitted concurrently produce exactly the results
direct execution produces; identical jobs are answered once (result
cache for repeats, in-flight coalescing for races); priorities order
the queue; capability flags gate configuration up front.
"""

import dataclasses
import threading

import pytest

from repro import ReenactmentService, SnapshotStore
from repro.backends import SQLiteBackend
from repro.backends.base import SessionStats
from repro.core.equivalence import check_history_equivalence
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.core.whatif import WhatIfFleet
from repro.errors import ReproError, ServiceError
from repro.service import (PRIORITY_HIGH, PRIORITY_LOW, Job, ReenactJob,
                           ResilientStore, options_fingerprint)

from service_helpers import (assert_relations_match, committed_xids,
                             run_txn)


class BlockingJob(Job):
    """Test double: occupies a worker until released."""

    kind = "blocking"

    def __init__(self):
        self.release = threading.Event()
        self.started = threading.Event()

    def run(self, worker):
        self.started.set()
        self.release.wait(timeout=10)
        return "unblocked"


class MarkerJob(Job):
    """Test double: appends its tag to a shared list when run."""

    kind = "marker"

    def __init__(self, tag, log):
        self.tag = tag
        self.log = log

    def run(self, worker):
        self.log.append(self.tag)
        return self.tag


def test_session_stats_as_dict_has_all_counters():
    stats = SessionStats()
    payload = stats.as_dict()
    for key in ("plans_executed", "snapshots_materialized",
                "snapshots_reused", "full_materializations",
                "delta_materializations", "delta_rows_applied",
                "snapshots_evicted", "snapshots_spilled",
                "snapshots_rehydrated", "distinct_snapshot_keys"):
        assert payload[key] == 0
    assert all(isinstance(v, int) for v in payload.values())


# -- admission checks ------------------------------------------------------

def test_memory_backend_admitted_without_store(history_db):
    db, xids = history_db
    with ReenactmentService(db, backend="memory", workers=2) as svc:
        assert svc.store is None  # "auto" store skipped: cannot spill
        result = svc.reenact(xids[0]).result()
        assert_relations_match(result.table("account"),
                               Reenactor(db).reenact(xids[0])
                               .table("account"))


def test_memory_backend_refused_explicit_store(db):
    with pytest.raises(ServiceError, match="spill"):
        ReenactmentService(db, backend="memory", store=True)


def test_memory_backend_refused_cache_capacity(db):
    with pytest.raises(ServiceError, match="session"):
        ReenactmentService(db, backend="memory", cache_capacity=4)


@pytest.mark.parametrize("capacity", [0, -1])
def test_invalid_cache_capacity_refused_before_workers_start(db,
                                                             capacity):
    before = threading.active_count()
    with pytest.raises(ServiceError,
                       match=f"capacity must be >= 1, got {capacity}"):
        ReenactmentService(db, workers=1, cache_capacity=capacity,
                           store=None)
    assert threading.active_count() == before


def test_sqlite_service_attaches_store_and_cache_bound(db):
    svc = ReenactmentService(db, backend="sqlite", workers=1,
                             cache_capacity=3)
    try:
        # the service wraps its store in the resilience layer by
        # default; the spill tier underneath is a SnapshotStore
        assert isinstance(svc.store, ResilientStore)
        assert isinstance(svc.store.inner, SnapshotStore)
        assert svc.backend.cache_capacity == 3
    finally:
        svc.close()


def test_shared_store_not_closed_with_service(db):
    store = SnapshotStore()
    with ReenactmentService(db, backend="sqlite", workers=1,
                            store=store):
        pass
    assert not store.closed
    store.close()


def test_zero_workers_rejected(db):
    with pytest.raises(ServiceError, match="worker"):
        ReenactmentService(db, workers=0)


# -- job execution correctness --------------------------------------------

def test_concurrent_jobs_match_direct_execution(history_db):
    db, xids = history_db
    options = ReenactmentOptions(annotations=True, include_deleted=True)
    reference = {xid: Reenactor(db).reenact(xid, options)
                 for xid in xids}
    with ReenactmentService(db, workers=4, cache_capacity=2) as svc:
        handles = {xid: svc.reenact(xid, options) for xid in xids}
        for xid, handle in handles.items():
            result = handle.result(timeout=30)
            assert_relations_match(result.table("account"),
                                   reference[xid].table("account"),
                                   context=f"xid={xid}")
        stats = svc.stats()
    assert stats.jobs_executed == len(xids)
    assert stats.jobs_failed == 0


def test_timeline_scan_matches_storage_snapshots(history_db):
    db, _ = history_db
    record_ts = [db.clock.now()]
    run_txn(db, ["UPDATE account SET bal = bal * 2 "
                 "WHERE cust = 'Bob'"])
    record_ts.append(db.clock.now())
    with ReenactmentService(db, workers=2) as svc:
        states = svc.timeline_scan("account", record_ts).result(30)
    for ts in record_ts:
        expected = sorted(values for _, values, _ in
                          db.table_snapshot("account", ts))
        assert sorted(tuple(r) for r in states[ts].rows) \
            == [tuple(v) for v in expected]


def test_equivalence_sweep_and_core_routing(history_db):
    db, xids = history_db
    with ReenactmentService(db, workers=3) as svc:
        via_service = {xid: handle.result(30) for xid, handle
                       in svc.equivalence_sweep().items()}
    direct = check_history_equivalence(db, backend="sqlite")
    assert set(via_service) == set(direct) == set(committed_xids(db))
    assert all(report.ok for report in via_service.values())


def test_equivalence_of_an_aborted_transaction_is_a_typed_error(account_db):
    s = account_db.connect()
    s.begin()
    s.execute("UPDATE account SET bal = 0 WHERE cust = 'Bob'")
    xid = s.txn.xid
    s.rollback()
    with ReenactmentService(account_db, workers=1) as svc:
        error = svc.equivalence(xid).exception(30)
    assert isinstance(error, ReproError), error
    assert "did not commit" in str(error)


def test_whatif_fleet_via_service(history_db):
    db, xids = history_db
    target = xids[-1]

    boost = "UPDATE account SET bal = bal + 500 WHERE cust = 'Alice'"
    noop = "UPDATE account SET bal = bal WHERE cust = 'Bob'"
    fleet = WhatIfFleet(db, target, backend="sqlite")
    fleet.scenario("boost").replace_statement(0, boost)
    fleet.scenario("noop").insert_statement(0, noop)
    direct = fleet.run()
    with ReenactmentService(db, workers=2) as svc:
        routed = svc.whatif_fleet(
            target, variants=[("boost", ("replace", 0, boost)),
                              ("noop", ("insert", 0, noop))]).result(30)
    assert list(routed) == list(direct) == ["boost", "noop"]
    for name in routed:
        assert {t: (sorted(d.added), sorted(d.removed))
                for t, d in routed[name].diffs.items()} \
            == {t: (sorted(d.added), sorted(d.removed))
                for t, d in direct[name].diffs.items()}


def test_whatif_variants_submitted_as_specs(history_db):
    db, xids = history_db
    with ReenactmentService(db, workers=2) as svc:
        handle = svc.whatif_fleet(
            xids[0],
            variants=[("bump", lambda s: s.replace_statement(
                0, "UPDATE account SET bal = bal + 9 "
                   "WHERE cust = 'Alice'"))])
        results = handle.result(30)
    assert list(results) == ["bump"]
    assert results["bump"].diffs["account"].changed


# -- deduplication and the result cache -----------------------------------

def test_inflight_duplicates_coalesce_onto_one_handle(history_db):
    db, xids = history_db
    with ReenactmentService(db, workers=1) as svc:
        blocker = BlockingJob()
        svc.submit(blocker)
        blocker.started.wait(timeout=10)
        first = svc.reenact(xids[0])       # queued behind the blocker
        second = svc.reenact(xids[0])      # identical: coalesced
        assert second is first
        assert first.dedup_count == 1
        blocker.release.set()
        first.result(timeout=30)
        stats = svc.stats()
    assert stats.jobs_deduplicated == 1
    # the coalesced pair executed exactly once
    assert stats.jobs_executed == 2  # blocker + one reenactment


def test_repeat_jobs_answered_from_result_cache(history_db):
    db, xids = history_db
    with ReenactmentService(db, workers=1) as svc:
        first = svc.reenact(xids[0])
        first.result(timeout=30)
        repeat = svc.reenact(xids[0])
        assert repeat.done()
        assert repeat.source == "result-cache"
        assert_relations_match(repeat.result().table("account"),
                               first.result().table("account"))
        stats = svc.stats()
    assert stats.jobs_from_cache == 1
    assert stats.jobs_executed == 1


def test_new_commits_invalidate_cached_results(history_db):
    """The history version is part of the fingerprint: once the
    database moves on, old cache entries stop matching."""
    db, xids = history_db
    with ReenactmentService(db, workers=1) as svc:
        svc.reenact(xids[0]).result(timeout=30)
        run_txn(db, ["UPDATE account SET bal = bal + 1 "
                     "WHERE cust = 'Eve'"])
        repeat = svc.reenact(xids[0])
        repeat.result(timeout=30)
        assert repeat.source == "executed"
        stats = svc.stats()
    assert stats.jobs_executed == 2
    assert stats.jobs_from_cache == 0


def test_different_options_are_different_jobs(history_db):
    db, xids = history_db
    plain = ReenactmentOptions()
    annotated = ReenactmentOptions(annotations=True)
    assert options_fingerprint(plain) != options_fingerprint(annotated)
    with ReenactmentService(db, workers=1) as svc:
        svc.reenact(xids[0], plain).result(timeout=30)
        second = svc.reenact(xids[0], annotated)
        second.result(timeout=30)
        assert second.source == "executed"


def test_fingerprint_covers_every_options_field():
    """The result-cache key is derived from the option fields, so a
    field added later cannot be forgotten: flipping any one field
    changes the key."""
    base = ReenactmentOptions()
    flipped = {"upto": 1, "table": "account"}
    for spec in dataclasses.fields(ReenactmentOptions):
        value = flipped.get(spec.name, not getattr(base, spec.name))
        assert options_fingerprint(
            dataclasses.replace(base, **{spec.name: value})) \
            != options_fingerprint(base), spec.name


# -- priorities ------------------------------------------------------------

def test_priority_orders_queued_jobs(history_db):
    db, _ = history_db
    log = []
    with ReenactmentService(db, workers=1) as svc:
        blocker = BlockingJob()
        svc.submit(blocker)
        blocker.started.wait(timeout=10)
        low = svc.submit(MarkerJob("low", log), priority=PRIORITY_LOW)
        high = svc.submit(MarkerJob("high", log),
                          priority=PRIORITY_HIGH)
        blocker.release.set()
        low.result(timeout=30)
        high.result(timeout=30)
    assert log == ["high", "low"]


def test_dedup_escalates_priority_of_queued_duplicate(history_db):
    """A high-priority duplicate of a queued low-priority job must not
    wait at the back of the queue — the shared handle is re-enqueued
    at the higher band and still runs exactly once."""
    db, _ = history_db
    log = []
    with ReenactmentService(db, workers=1) as svc:
        blocker = BlockingJob()
        svc.submit(blocker)
        blocker.started.wait(timeout=10)
        svc.submit(MarkerJob("filler", log))

        class KeyedMarker(MarkerJob):
            def cache_key(self, db):
                return ("keyed-marker", self.tag)

        low = svc.submit(KeyedMarker("target", log),
                         priority=PRIORITY_LOW)
        high = svc.submit(KeyedMarker("target", log),
                          priority=PRIORITY_HIGH)
        assert high is low
        assert low.priority == PRIORITY_HIGH
        blocker.release.set()
        low.result(timeout=30)
        svc.close()
    # escalated past the filler, and executed exactly once
    assert log == ["target", "filler"]


def test_caller_owned_backend_refused_cache_capacity(db):
    backend = SQLiteBackend(cache_capacity=7)
    with pytest.raises(ServiceError, match="configure"):
        ReenactmentService(db, backend=backend, cache_capacity=1)
    assert backend.cache_capacity == 7  # untouched
    # without the knob a caller-owned instance is fine
    with ReenactmentService(db, backend=backend, workers=1):
        pass
    assert backend.cache_capacity == 7


def test_dead_worker_rejects_jobs_instead_of_hanging(history_db):
    """A worker whose session cannot open must fail jobs fast — a
    submitted handle must never hang forever."""
    db, xids = history_db
    backend = SQLiteBackend(database="/nonexistent_dir/spill.db")
    svc = ReenactmentService(db, backend=backend, workers=2)
    try:
        handle = svc.reenact(xids[0])
        with pytest.raises(ServiceError, match="failed to open"):
            handle.result(timeout=30)
        assert svc.stats().jobs_failed == 1
    finally:
        svc.close()


# -- failures and lifecycle ------------------------------------------------

def test_failed_job_raises_on_result_and_service_survives(history_db):
    db, xids = history_db
    with ReenactmentService(db, workers=1) as svc:
        bad = svc.reenact(999999)
        with pytest.raises(Exception):
            bad.result(timeout=30)
        assert bad.exception() is not None
        good = svc.reenact(xids[0])
        good.result(timeout=30)
        stats = svc.stats()
    assert stats.jobs_failed == 1
    assert stats.jobs_executed == 1


def test_failed_job_is_not_cached(history_db):
    db, _ = history_db
    with ReenactmentService(db, workers=1) as svc:
        first = svc.reenact(999999)
        with pytest.raises(Exception):
            first.result(timeout=30)
        second = svc.reenact(999999)
        assert second is not first
        with pytest.raises(Exception):
            second.result(timeout=30)
        assert svc.stats().jobs_failed == 2


def test_close_drains_queued_jobs_then_rejects(history_db):
    db, xids = history_db
    svc = ReenactmentService(db, workers=1)
    handles = [svc.reenact(xid) for xid in xids]
    svc.close()
    assert all(handle.done() for handle in handles)
    with pytest.raises(ServiceError, match="closed"):
        svc.reenact(xids[0])
    svc.close()  # idempotent


def test_service_stats_snapshot_shape(history_db):
    db, xids = history_db
    with ReenactmentService(db, workers=2, cache_capacity=1) as svc:
        for xid in xids:
            svc.reenact(xid).result(timeout=30)
        payload = svc.stats().as_dict()
    assert payload["workers"] == 2
    assert payload["jobs_submitted"] == len(xids)
    assert payload["store"] is not None
    assert payload["sessions"]["plans_executed"] >= len(xids)
    import json
    json.dumps(payload)  # the whole snapshot is JSON-serializable
