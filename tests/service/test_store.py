"""The snapshot spill store: disk tier semantics + session integration.

Unit half: :class:`SnapshotStore` is a thread-safe bounded KV of
snapshot row payloads.  Integration half: an SQLite session with a
store attached must *demote* evicted snapshots instead of destroying
them, rehydrate them on the next miss, and produce identical results
either way — the spill tier is purely an optimization.
"""

import os
import threading

import pytest

from repro import Database, SnapshotStore
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.debugger.timeline import timeline_states
from repro.errors import ExecutionError, ServiceError

from service_helpers import assert_relations_match, run_txn
from planner_policy import NO_DELTA, pipeline_states, policy_backend


# -- unit: the store itself ----------------------------------------------

def test_put_get_roundtrip(tmp_path):
    store = SnapshotStore(path=str(tmp_path / "spill.sqlite"))
    rows = [(1, "a", True, None), (2, "b", False, 3.5)]
    store.put(7, "account", 12, rows)
    assert store.get(7, "account", 12) == rows
    assert (7, "account", 12) in store
    assert len(store) == 1
    # values round-trip with full type fidelity (bool stays bool)
    fetched = store.get(7, "account", 12)
    assert [type(v) for v in fetched[0]] == [int, str, bool, type(None)]
    store.close()


def test_miss_returns_none_and_counts():
    with SnapshotStore() as store:
        assert store.get(1, "account", 5) is None
        assert store.stats.misses == 1
        assert store.stats.rehydrations == 0


def test_keys_namespaced_by_realm_and_table_and_ts():
    with SnapshotStore() as store:
        store.put(1, "account", 5, [(1,)])
        assert store.get(2, "account", 5) is None
        assert store.get(1, "other", 5) is None
        assert store.get(1, "account", 6) is None
        assert store.get(1, "account", 5) == [(1,)]


def test_put_is_idempotent_replace():
    with SnapshotStore() as store:
        store.put(1, "account", 5, [(1,)])
        store.put(1, "account", 5, [(1,)])
        assert len(store) == 1
        assert store.stats.spills == 2


def test_capacity_evicts_least_recently_used():
    with SnapshotStore(capacity=2) as store:
        store.put(1, "t", 1, [(1,)])
        store.put(1, "t", 2, [(2,)])
        assert store.get(1, "t", 1) == [(1,)]  # refresh ts=1
        store.put(1, "t", 3, [(3,)])           # evicts ts=2 (LRU)
        assert len(store) == 2
        assert store.get(1, "t", 2) is None
        assert store.get(1, "t", 1) == [(1,)]
        assert store.get(1, "t", 3) == [(3,)]
        assert store.stats.evictions == 1


def test_invalid_capacity_rejected():
    with pytest.raises(ServiceError, match="capacity"):
        SnapshotStore(capacity=0)


def test_close_is_idempotent_and_removes_owned_file():
    store = SnapshotStore()
    path = store.path
    assert os.path.exists(path)
    store.close()
    store.close()
    assert not os.path.exists(path)
    with pytest.raises(ServiceError, match="closed"):
        store.put(1, "t", 1, [])


def test_explicit_path_is_kept_on_close(tmp_path):
    path = str(tmp_path / "keep.sqlite")
    store = SnapshotStore(path=path)
    store.put(1, "t", 1, [(1,)])
    store.close()
    assert os.path.exists(path)
    # a fresh store over the same file still sees the snapshot
    with SnapshotStore(path=path) as reopened:
        assert reopened.get(1, "t", 1) == [(1,)]


def test_store_is_thread_safe():
    with SnapshotStore() as store:
        errors = []

        def hammer(base):
            try:
                for i in range(50):
                    store.put(1, "t", base * 100 + i, [(i,)] * 3)
                    assert store.get(1, "t", base * 100 + i) \
                        == [(i,)] * 3
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(store) == 200


# -- integration: sessions spill on eviction, rehydrate on miss ----------

def make_history(db):
    db.execute("CREATE TABLE account (cust TEXT, typ TEXT, bal INT)")
    db.execute("INSERT INTO account VALUES "
               "('Alice', 'checking', 100), ('Bob', 'savings', 50)")
    xids = [run_txn(db, [f"UPDATE account SET bal = bal + {k + 1} "
                         f"WHERE cust = 'Alice'"])
            for k in range(3)]
    return xids


def test_eviction_spills_and_miss_rehydrates():
    """capacity=1, no delta hop affordable: reenacting A, B, A again must spill A's
    snapshot on B's materialization and rehydrate it for the repeat —
    one spill/rehydrate cycle, observable in both stat surfaces."""
    db = Database()
    a, b, _ = make_history(db)
    store = SnapshotStore()
    backend = policy_backend(NO_DELTA, cache_capacity=1,
                             spill_store=store)
    reenactor = Reenactor(db, backend=backend)
    reference = {xid: Reenactor(db).reenact(xid) for xid in (a, b)}
    with backend.open_session() as session:
        first = reenactor.reenact(a, session=session)
        second = reenactor.reenact(b, session=session)   # evicts A's
        again = reenactor.reenact(a, session=session)    # rehydrates
        stats = session.stats
    assert stats.snapshots_spilled >= 1
    assert stats.snapshots_rehydrated >= 1
    assert store.stats.spills >= 1
    assert store.stats.rehydrations >= 1
    for result in (first, again):
        assert_relations_match(result.table("account"),
                               reference[a].table("account"))
    assert_relations_match(second.table("account"),
                           reference[b].table("account"))
    store.close()


def test_spill_rehydrates_across_sessions_once_put_returns():
    """Worker A evicts under cache pressure and is still open; worker
    B, on another thread, rehydrates those spills with the same rows a
    storage scan gives — nothing waits for a flush or a close."""
    db = Database()
    db.execute("CREATE TABLE acct (id INT, bal INT)")
    run_txn(db, [f"INSERT INTO acct VALUES ({i}, {i * 10})"
                 for i in range(20)])
    timestamps = [db.clock.now()]
    for k in range(3):
        run_txn(db, [f"UPDATE acct SET bal = bal + 1 WHERE id = {k}"])
        timestamps.append(db.clock.now())

    store = SnapshotStore()
    # worker A: capacity-1 cache, no delta hop affordable — every
    # state is a full build, written through to the store
    churn = policy_backend(NO_DELTA, cache_capacity=1,
                           spill_store=store)
    ctx = db.context(params={})
    results, errors = {}, []

    def rehydrate():
        try:
            cold = policy_backend(NO_DELTA, spill_store=store)
            with cold.open_session() as session_b:
                results["states"] = pipeline_states(
                    session_b, db, "acct", timestamps[:-1])
                results["stats"] = session_b.stats
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)

    with churn.open_session() as session_a:
        for ts in timestamps:
            session_a.prime_snapshots([("acct", ts)], ctx)
        assert session_a.stats.snapshots_spilled > 0
        thread = threading.Thread(target=rehydrate)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive() and not errors, errors
    assert results["stats"].snapshots_rehydrated > 0
    assert results["stats"].full_materializations == 0
    expected = timeline_states(db, "acct", timestamps[:-1])
    for ts in timestamps[:-1]:
        assert_relations_match(expected[ts], results["states"][ts],
                               context=f"cross-session rehydrate ts={ts}")
    store.close()


def test_rehydrated_snapshots_keep_type_fidelity():
    """The spill round-trip must preserve the type-strict contract:
    annotation flags come back as the same values a fresh
    materialization produces."""
    db = Database()
    a, b, _ = make_history(db)
    store = SnapshotStore()
    backend = policy_backend(NO_DELTA, cache_capacity=1,
                             spill_store=store)
    reenactor = Reenactor(db, backend=backend)
    options = ReenactmentOptions(annotations=True, include_deleted=True)
    fresh = Reenactor(db).reenact(a, options)
    with backend.open_session() as session:
        reenactor.reenact(a, options, session=session)
        reenactor.reenact(b, options, session=session)
        again = reenactor.reenact(a, options, session=session)
        assert session.stats.snapshots_rehydrated >= 1
    assert_relations_match(again.table("account"),
                           fresh.table("account"))
    store.close()


def test_override_snapshots_never_enter_the_store():
    """A what-if table edit is a leaf of its plan, never a snapshot:
    only plain committed ``(table, ts)`` states reach the store."""
    from repro.core.whatif import WhatIfScenario
    db = Database()
    make_history(db)
    store = SnapshotStore()
    backend = policy_backend(NO_DELTA, cache_capacity=1,
                             spill_store=store)
    xid = run_txn(db, ["UPDATE account SET bal = 0 "
                       "WHERE cust = 'Bob'"])
    scenario = WhatIfScenario(db, xid, backend=backend)
    scenario.edit_table("account", [("Alice", "checking", 1),
                                    ("Bob", "savings", 2)])
    scenario.run()
    # every spilled key is a plain (table, ts): probe the store file
    # directly for anything else
    import sqlite3
    conn = sqlite3.connect(store.path)
    keys = [row[0] for row in
            conn.execute("SELECT skey FROM snapshots")]
    conn.close()
    assert keys
    assert all(key.rsplit(":", 1)[1].isdigit() for key in keys)
    store.close()


def test_memory_backend_refuses_spill_store():
    from repro.backends import resolve_backend
    backend = resolve_backend("memory")
    with backend.open_session() as session:
        with pytest.raises(ExecutionError, match="spill"):
            session.attach_spill_store(SnapshotStore())


# -- unit: lifecycle and durability ------------------------------------

def test_close_tears_down_once():
    store = SnapshotStore()
    store.put(1, "t", 5, [(1,)])
    store.close()
    assert store.closed and not os.path.exists(store.path)
    with pytest.raises(Exception):
        store._conn.execute("SELECT 1")  # really closed
    with pytest.raises(ServiceError, match="closed"):
        store.get(1, "t", 5)
    store.close()  # idempotent


def test_put_is_durable_when_it_returns(tmp_path):
    """No flush, no close: a second connection to the file reads the
    spill the moment ``put`` is done."""
    path = str(tmp_path / "spill.sqlite")
    with SnapshotStore(path=path) as store:
        store.put("h1", "t", 3, [(3,)])
        with SnapshotStore(path=path) as reader:
            assert reader.get("h1", "t", 3) == [(3,)]
            assert reader.inventory("h1") == [("t", 3)]


def test_inventory_lists_realm_holdings(tmp_path):
    """The warm-restart inventory: (table, ts) pairs of one realm,
    nobody else's."""
    store = SnapshotStore(path=str(tmp_path / "spill.sqlite"))
    store.put("h1", "acc", 3, [(1,)])
    store.put("h1", "acc", 7, [(2,)])
    store.put("h1", "other", 3, [(3,)])
    store.put("h2", "acc", 9, [(4,)])
    store.put("h1", "acc", 11, [(5,)])
    assert store.inventory("h1") == [("acc", 3), ("acc", 7),
                                     ("acc", 11), ("other", 3)]
    assert store.inventory("h2") == [("acc", 9)]
    assert sorted(store.realms()) == ["h1", "h2"]
    store.close()
