"""Write-behind spill publishing: nothing is ever lost in flight.

The async publisher moves spill serialization and disk writes off the
worker thread onto a background thread with a bounded queue.  The
durability contract under test: a queued spill is **readable through
every lookup surface** (``get``, ``fetch_many``, ``__contains__``) from
the instant ``put`` returns, lands in the SQLite tier at the latest
when ``flush``/``close`` runs, and an overfull queue drains inline
instead of growing without bound.  The concurrent half pins the
integration: a session evicting under a *paused* publisher must leave
the snapshot rehydratable by another session before the store flush
lands.
"""

import threading

import pytest

from repro import Database, SnapshotStore
from repro.debugger.timeline import timeline_states
from repro.errors import ServiceError

from service_helpers import assert_relations_match, run_txn
from planner_policy import NO_DELTA, pipeline_states, policy_backend


def test_queued_spill_readable_before_flush():
    store = SnapshotStore(async_publish=True)
    store.pause_publisher()
    rows = [(1, "a", 7), (2, "b", 8)]
    store.put("h1", "acct", 5, rows)
    assert store.pending_count() == 1
    assert ("h1", "acct", 5) in store
    assert store.get("h1", "acct", 5) == rows
    assert store.fetch_many("h1", [("acct", 5)]) == {("acct", 5): rows}
    assert store.stats.pending_hits >= 2
    assert store.stats.queue_flushes == 0
    store.resume_publisher()
    store.flush()
    assert store.pending_count() == 0
    assert store.stats.queue_flushes >= 1
    # now served from the SQLite tier, same payload
    assert store.get("h1", "acct", 5) == rows
    store.close()


def test_len_counts_queued_and_stored_once():
    store = SnapshotStore(async_publish=True)
    store.pause_publisher()
    store.put("h1", "t", 1, [(1,)])
    store.put("h1", "t", 2, [(2,)])
    assert len(store) == 2
    store.resume_publisher()
    store.flush()
    store.put("h1", "t", 1, [(1,)])  # re-queued over a stored copy
    assert len(store) == 2
    store.close()


def test_close_drains_the_queue(tmp_path):
    path = str(tmp_path / "spill.sqlite")
    store = SnapshotStore(path=path, async_publish=True)
    store.pause_publisher()
    store.put("h1", "t", 3, [(3,)])
    store.close()  # must not lose the paused, unflushed entry
    with SnapshotStore(path=path) as reopened:
        assert reopened.get("h1", "t", 3) == [(3,)]


def test_overfull_queue_drains_inline():
    store = SnapshotStore(async_publish=True, queue_capacity=2)
    store.pause_publisher()
    for ts in range(4):
        store.put("h1", "t", ts, [(ts,)])
    # the overflowing puts flushed inline despite the paused publisher
    assert store.pending_count() <= 2
    assert store.stats.queue_flushes >= 1
    store.close()


def test_invalid_queue_capacity_rejected():
    with pytest.raises(ServiceError, match="queue capacity"):
        SnapshotStore(async_publish=True, queue_capacity=0)


def test_sync_store_flush_is_noop():
    with SnapshotStore() as store:
        store.put("h1", "t", 1, [(1,)])
        assert store.flush() == 0
        assert store.stats.async_queued == 0


def test_session_close_flushes_write_behind_queue():
    db = Database()
    db.execute("CREATE TABLE acct (id INT, bal INT)")
    run_txn(db, ["INSERT INTO acct VALUES (1, 10)"])
    ts = db.clock.now()
    store = SnapshotStore(async_publish=True)
    store.pause_publisher()
    backend = policy_backend(NO_DELTA, spill_store=store)
    session = backend.open_session()
    session.prime_snapshots([("acct", ts)], db.context(params={}))
    assert store.pending_count() == 1  # write-through queued, unflushed
    session.close()
    assert session.stats.spill_queue_flushes == 1
    assert store.pending_count() == 0  # close forced the flush inline
    assert (db.history_id, "acct", ts) in store
    store.close()


def test_inflight_spill_rehydrates_across_sessions_before_flush():
    """The concurrent durability pin: worker A evicts under cache
    pressure while the publisher is paused — the snapshot exists only
    on the write-behind queue — and worker B, on another thread, must
    rehydrate it from there with the same rows it would get after the
    flush lands."""
    db = Database()
    db.execute("CREATE TABLE acct (id INT, bal INT)")
    run_txn(db, [f"INSERT INTO acct VALUES ({i}, {i * 10})"
                 for i in range(20)])
    timestamps = [db.clock.now()]
    for k in range(3):
        run_txn(db, [f"UPDATE acct SET bal = bal + 1 WHERE id = {k}"])
        timestamps.append(db.clock.now())

    store = SnapshotStore(async_publish=True)
    store.pause_publisher()
    # worker A: capacity-1 cache, no delta hop affordable — every
    # state is a full build, published write-through; all spills sit
    # on the paused queue
    churn = policy_backend(NO_DELTA, cache_capacity=1,
                           spill_store=store)
    ctx = db.context(params={})
    with churn.open_session() as session_a:
        for ts in timestamps:
            session_a.prime_snapshots([("acct", ts)], ctx)
        assert session_a.stats.snapshots_spilled > 0
        assert store.pending_count() > 0
        assert store.stats.queue_flushes == 0

        # worker B on its own thread rehydrates from the in-flight
        # queue — before any store flush has landed
        results = {}
        errors = []

        def rehydrate():
            try:
                cold = policy_backend(NO_DELTA, spill_store=store)
                with cold.open_session() as session_b:
                    results["states"] = pipeline_states(
                        session_b, db, "acct", timestamps[:-1])
                    results["stats"] = session_b.stats
                    # before session close (which flushes): every read
                    # so far was served without a single disk write
                    results["flushes"] = store.stats.queue_flushes
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        thread = threading.Thread(target=rehydrate)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and not errors, errors
        assert results["stats"].snapshots_rehydrated > 0
        assert store.stats.pending_hits > 0
        assert results["flushes"] == 0  # reads never waited on a flush

    expected = timeline_states(db, "acct", timestamps[:-1])
    for ts in timestamps[:-1]:
        assert_relations_match(expected[ts], results["states"][ts],
                               context=f"in-flight rehydrate ts={ts}")
    store.resume_publisher()
    store.flush()
    assert store.pending_count() == 0
    store.close()
