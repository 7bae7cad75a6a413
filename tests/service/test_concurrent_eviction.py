"""Concurrent eviction safety (satellite of the service PR).

Worker sessions share one spill store but own their snapshot caches and
temp tables outright.  Two hazards are pinned down here:

1. **pinning** — a plan whose generated SQL references several snapshot
   temp tables runs with a cache capacity smaller than that set;
   `enforce_capacity` must never drop a table the in-flight plan still
   reads, even while evictions (and spills) are happening around it;
2. **cross-worker churn** — many threads forcing eviction, spill and
   rehydration of the *same* ``(table, ts)`` keys through their own
   tiny caches and one shared store must never corrupt anyone's
   results: every reenactment stays multiset-identical to the
   single-threaded reference, and re-spilling a key another thread is
   rehydrating is benign (both copies describe the same immutable
   committed state).
"""

import threading

from repro import Database, SnapshotStore
from repro.core.reenactor import ReenactmentOptions, Reenactor

from service_helpers import assert_relations_match, run_txn
from planner_policy import NO_DELTA, policy_backend

STRICT = ReenactmentOptions(annotations=True, include_deleted=True)


def multi_ts_history(db, n_txns=6):
    """Committed single-statement transactions at distinct timestamps
    — n distinct ``(account, ts)`` snapshot keys once reenacted."""
    db.execute("CREATE TABLE account (cust TEXT, typ TEXT, bal INT)")
    db.execute("INSERT INTO account VALUES "
               "('Alice', 'checking', 100), ('Bob', 'savings', 50), "
               "('Eve', 'savings', 9)")
    return [run_txn(db, [f"UPDATE account SET bal = bal + {k + 1} "
                         f"WHERE cust = 'Alice'"])
            for k in range(n_txns)]


def test_inflight_plan_tables_survive_capacity_pressure():
    """A READ COMMITTED multi-statement plan references more snapshots
    than the cache may hold; the plan must still execute correctly
    (its tables are pinned) and the overflow must spill, not vanish."""
    db = Database()
    db.execute("CREATE TABLE account (cust TEXT, typ TEXT, bal INT)")
    db.execute("INSERT INTO account VALUES "
               "('Alice', 'checking', 100), ('Bob', 'savings', 50)")
    conn = db.connect()
    conn.begin(isolation="READ COMMITTED")
    conn.execute("UPDATE account SET bal = bal - 10 "
                 "WHERE cust = 'Alice'")
    conn.execute("UPDATE account SET bal = bal + 10 "
                 "WHERE cust = 'Bob'")
    conn.execute("DELETE FROM account WHERE bal > 1000")
    xid = conn.txn.xid
    conn.commit()

    other = run_txn(db, ["UPDATE account SET bal = bal + 7 "
                         "WHERE cust = 'Bob'"])
    reenactor = Reenactor(db)
    reference = {x: reenactor.reenact(x, STRICT)
                 for x in (xid, other)}
    store = SnapshotStore()
    backend = policy_backend(NO_DELTA, cache_capacity=1,
                             spill_store=store)
    with backend.open_session() as session:
        shared = Reenactor(db, backend=backend)
        result = shared.reenact(xid, STRICT, session=session)
        # several (account, ts) states were bound by one plan; all of
        # them survived to execution (pinned over capacity) — eviction
        # is deferred until a later plan's capacity enforcement
        assert session.stats.snapshots_materialized >= 2
        assert session.stats.snapshots_evicted == 0
        assert_relations_match(result.table("account"),
                               reference[xid].table("account"))
        # a plan over a *different* snapshot set releases the pins:
        # the overflow spills now instead of being destroyed
        unrelated = shared.reenact(other, STRICT, session=session)
        assert session.stats.snapshots_spilled >= 2
        assert_relations_match(unrelated.table("account"),
                               reference[other].table("account"))
        # ... and the original plan still answers correctly, served
        # back out of the store
        again = shared.reenact(xid, STRICT, session=session)
        assert session.stats.snapshots_rehydrated >= 1
        assert_relations_match(again.table("account"),
                               reference[xid].table("account"))
    store.close()


def test_workers_churning_same_keys_stay_correct():
    """Four threads, private capacity-1 caches, one shared store, the
    same six ``(account, ts)`` keys — every reenactment under forced
    evict/spill/rehydrate cycles must match the single-threaded
    reference, and the cycles must actually happen."""
    db = Database()
    xids = multi_ts_history(db)
    reference = {xid: Reenactor(db).reenact(xid, STRICT)
                 for xid in xids}
    store = SnapshotStore()
    errors = []
    spilled = []
    rehydrated = []

    def churn(worker_index):
        # each thread owns its session; rotation offsets make threads
        # request the same keys in different orders, maximizing
        # interleaved spill/rehydrate traffic on the shared store
        backend = policy_backend(NO_DELTA, cache_capacity=1,
                                 spill_store=store)
        reenactor = Reenactor(db, backend=backend)
        try:
            with backend.open_session() as session:
                for round_no in range(3):
                    for k in range(len(xids)):
                        xid = xids[(k + worker_index) % len(xids)]
                        result = reenactor.reenact(xid, STRICT,
                                                   session=session)
                        assert_relations_match(
                            result.table("account"),
                            reference[xid].table("account"),
                            context=f"worker={worker_index} xid={xid}")
                spilled.append(session.stats.snapshots_spilled)
                rehydrated.append(session.stats.snapshots_rehydrated)
        except Exception as exc:  # pragma: no cover - diagnostics
            errors.append((worker_index, exc))

    threads = [threading.Thread(target=churn, args=(i,))
               for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors, errors
    # the workload genuinely cycled snapshots through the store
    assert sum(spilled) > 0
    assert sum(rehydrated) > 0
    assert store.stats.spills > 0
    assert store.stats.rehydrations > 0
    store.close()


def test_service_workers_share_spilled_snapshots():
    """End-to-end through the scheduler: a worker pool with tiny
    caches serves a job mix; snapshots one worker spilled are
    rehydrated by others, and every result matches direct execution."""
    from repro import ReenactmentService
    db = Database()
    xids = multi_ts_history(db, n_txns=8)
    reference = {xid: Reenactor(db).reenact(xid, STRICT)
                 for xid in xids}
    with ReenactmentService(
            db, workers=3, result_cache_capacity=None,
            backend=policy_backend(NO_DELTA, cache_capacity=1)) as svc:
        # two rounds over every transaction; the clock moves between
        # rounds so round two re-executes instead of hitting the
        # result cache — landing on workers whose caches no longer
        # hold the needed snapshots
        for round_no in range(2):
            handles = {xid: svc.reenact(xid, STRICT) for xid in xids}
            for xid, handle in handles.items():
                assert_relations_match(
                    handle.result(timeout=60).table("account"),
                    reference[xid].table("account"),
                    context=f"round={round_no} xid={xid}")
            db.clock.tick()
        stats = svc.stats()
    assert stats.sessions["snapshots_spilled"] > 0
    assert stats.sessions["snapshots_rehydrated"] > 0
    assert stats.jobs_failed == 0
