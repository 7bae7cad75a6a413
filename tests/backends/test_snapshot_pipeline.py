"""The planned snapshot pipeline: hops, batching, union priming.

Pins the materialization pipeline's observable contract:

* a pipelined walk of one table's states is **one** full build plus
  N-1 clone-deltas, each from its predecessor, which stays intact;
* rehydration of a planned snapshot set is **one** store read
  (``SnapshotStore.fetch_many``) for every store-resident key;
* cache/store realms are durable history ids, so two databases can
  share one store without aliasing;
* the new :class:`SessionStats` counters are carried by ``as_dict`` and
  ``merge``.
"""

import pytest

from repro import Database, SnapshotStore
from repro.backends import (SQLiteBackend, SQLPipeline,
                            resolve_backend)
from repro.backends.base import (SessionStats, SnapshotPlan,
                                 SnapshotPlanStep)
from repro.debugger.timeline import timeline_states
from repro.errors import ExecutionError

from conftest import assert_relations_match
from planner_policy import NO_DELTA, pipeline_states, policy_backend


def history(n_rows=30, n_commits=6):
    """One table, a seed commit, then a run of single-row updates —
    distinct committed states at each returned timestamp."""
    db = Database()
    db.execute("CREATE TABLE acct (id INT, bal INT)")
    conn = db.connect()
    conn.begin()
    for i in range(n_rows):
        conn.execute(f"INSERT INTO acct VALUES ({i}, 100)")
    conn.commit()
    timestamps = [db.clock.now()]
    for k in range(n_commits - 1):
        conn.begin()
        conn.execute(f"UPDATE acct SET bal = bal + 1 "
                     f"WHERE id = {k % n_rows}")
        conn.commit()
        timestamps.append(db.clock.now())
    return db, timestamps


def test_timeline_walk_is_one_build_plus_clone_deltas():
    """A pipelined walk over a table's states materializes the first
    state once and clones each later one from its predecessor with the
    delta applied; on a capacity-1 cache every predecessor is evicted
    once its successor exists, and one temp table is left."""
    db, timestamps = history()
    with SQLiteBackend(cache_capacity=1).open_session() as session:
        states = pipeline_states(session, db, "acct", timestamps)
        stats = session.stats
        assert stats.full_materializations == 1
        assert stats.delta_materializations == len(timestamps) - 1
        assert stats.snapshots_evicted == len(timestamps) - 1
        assert len(session.cache) == 1
    assert [len(states[ts].rows) for ts in timestamps] \
        == [30] * len(timestamps)


def test_timeline_full_mode_matches_memory_backend():
    """The pipelined SQLite states equal the interpreter's AS-OF scans and
    the storage timeline, state for state."""
    db, timestamps = history()
    with SQLiteBackend().open_session() as session:
        sqlite_states = pipeline_states(session, db, "acct", timestamps)
    with resolve_backend("memory").open_session() as session:
        memory_states = pipeline_states(session, db, "acct", timestamps)
    stored = timeline_states(db, "acct", timestamps)
    for ts in timestamps:
        assert_relations_match(memory_states[ts], sqlite_states[ts],
                               context=f"ts={ts}")
        assert_relations_match(stored[ts], sqlite_states[ts],
                               context=f"storage ts={ts}")


def test_timeline_rejects_unknown_mode():
    db, timestamps = history(n_commits=2)
    with pytest.raises(Exception, match="mode"):
        timeline_states(db, "acct", timestamps, mode="everything")


def test_pipeline_prime_order_is_enforced():
    db, timestamps = history(n_commits=3)
    ctx = db.context(params={})
    with SQLiteBackend().open_session() as session:
        sets = [[("acct", ts)] for ts in timestamps]
        pipe = session.snapshot_pipeline(sets, ctx)
        assert isinstance(pipe, SQLPipeline)
        pipe.prime(1)
        with pytest.raises(ExecutionError, match="out of order"):
            pipe.prime(0)
        with pytest.raises(ExecutionError, match="cannot prime"):
            pipe.prime(len(sets))
        pipe.close()
        with pytest.raises(ExecutionError, match="closed"):
            pipe.prime(2)


def test_planned_set_rehydrates_in_one_store_read():
    """Every store-resident snapshot a plan needs comes back in one
    ``fetch_many`` — one lock acquisition, one SELECT — instead of a
    get() per key."""
    db, timestamps = history(n_commits=4)
    probe = timestamps[:3]
    store = SnapshotStore()
    warm = policy_backend(NO_DELTA, spill_store=store)
    ctx = db.context(params={})
    with warm.open_session() as session:
        # write-through publishes each full materialization
        session.prime_snapshots([("acct", ts) for ts in probe], ctx)
        assert session.stats.snapshots_spilled == len(probe)
    cold = policy_backend(NO_DELTA, spill_store=store)
    with cold.open_session() as session:
        before = store.stats.batch_fetches
        session.prime_snapshots([("acct", ts) for ts in probe], ctx)
        assert session.stats.snapshots_rehydrated == len(probe)
        assert session.stats.full_materializations == 0
        assert store.stats.batch_fetches == before + 1
    store.close()


def test_realms_are_durable_history_ids():
    """Two databases with byte-identical histories share a store
    without aliasing: realms are per-history UUIDs, not recyclable
    object addresses."""
    db_a, ts_a = history(n_commits=2)
    db_b, ts_b = history(n_commits=2)
    assert db_a.history_id != db_b.history_id
    store = SnapshotStore()
    backend_a = policy_backend(NO_DELTA, spill_store=store)
    ctx_a = db_a.context(params={})
    with backend_a.open_session() as session:
        session.prime_snapshots([("acct", ts_a[0])], ctx_a)
        assert session.stats.snapshots_spilled == 1
    assert (db_a.history_id, "acct", ts_a[0]) in store
    backend_b = policy_backend(NO_DELTA, spill_store=store)
    ctx_b = db_b.context(params={})
    with backend_b.open_session() as session:
        # same (table, ts) pair, different history: must NOT rehydrate
        session.prime_snapshots([("acct", ts_b[0])], ctx_b)
        assert session.stats.snapshots_rehydrated == 0
        assert session.stats.full_materializations == 1
    store.close()


def test_primes_shared_counts_cross_compile_hand_offs():
    db, timestamps = history(n_commits=2)
    ctx = db.context(params={})
    pair = ("acct", timestamps[0])
    with SQLiteBackend().open_session() as session:
        with session.snapshot_pipeline([[pair], [pair], [pair]],
                                       ctx) as pipe:
            for index in range(3):
                pipe.prime(index)
        assert session.stats.primes_shared == 2
        assert session.stats.snapshots_materialized == 1


def test_plan_emits_reuse_cached_for_resident_pairs():
    """The plan vocabulary matches reality: a bound pair that is
    already resident appears as a ``reuse-cached`` step, a fresh
    neighbor as ``clone-delta``."""
    db, timestamps = history(n_commits=2)
    ctx = db.context(params={})
    with SQLiteBackend().open_session() as session:
        session.prime_snapshots([("acct", timestamps[0])], ctx)
        binder = session._binder(ctx, priming=True)
        binder.bind_key("acct", timestamps[0])  # resident
        binder.bind_key("acct", timestamps[1])  # fresh
        binder.materialize(session.conn)
        assert binder.plan.counts() == {"reuse-cached": 1,
                                        "clone-delta": 1}


def test_snapshot_plan_counts():
    plan = SnapshotPlan(steps=[
        SnapshotPlanStep(op="full-build", table="t", ts=1),
        SnapshotPlanStep(op="clone-delta", table="t", ts=2,
                         source_ts=1),
        SnapshotPlanStep(op="clone-delta", table="t", ts=3,
                         source_ts=2),
    ])
    assert plan.counts() == {"clone-delta": 2, "full-build": 1}
    assert len(plan) == 3


def test_session_stats_carry_pipeline_counters():
    stats = SessionStats(snapshots_rehydrated=3, primes_shared=4,
                         delta_rows_applied=5)
    payload = stats.as_dict()
    assert payload["snapshots_rehydrated"] == 3
    assert payload["primes_shared"] == 4
    assert payload["delta_rows_applied"] == 5
    other = SessionStats(snapshots_rehydrated=1, primes_shared=1,
                         delta_rows_applied=1)
    other.merge(stats)
    assert other.snapshots_rehydrated == 4
    assert other.primes_shared == 5
    assert other.delta_rows_applied == 6

