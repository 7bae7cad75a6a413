"""Warm service restart over a recovered (WAL-replayed) database.

The durable ``history_id`` is the hinge: a ``SnapshotStore`` keys its
realms by it, a recovered ``Database.open`` gets the *same* id back
from the log, so every state a previous service incarnation spilled to
a persistent store file is still addressed to the recovered history —
a restarted service comes back warm instead of rebuilding.
"""

import threading

import pytest

from repro import Database, ReenactmentService, SnapshotStore
from repro.db.auditlog import AuditEventKind
from repro.errors import ServiceError

from service_helpers import assert_relations_match, run_txn


def build_durable_history(tmp_path, n_updates=8):
    db = Database()
    db.attach_wal(str(tmp_path / "wal"))
    db.execute("CREATE TABLE acc (id INT, bal INT)")
    db.execute("INSERT INTO acc VALUES (1, 100), (2, 200), (3, 300)")
    for i in range(n_updates):
        run_txn(db, [f"UPDATE acc SET bal = bal + {i + 1} "
                     f"WHERE id = {i % 3 + 1}"], user="mutator")
    ticks = sorted({e.ts for e in db.audit_log.entries
                    if e.kind is AuditEventKind.COMMIT})
    return db, ticks


def test_service_starts_only_its_workers(tmp_path):
    db, _ticks = build_durable_history(tmp_path)
    before = set(threading.enumerate())
    with ReenactmentService(db, workers=2,
                            store=str(tmp_path / "spill.sqlite")):
        started = set(threading.enumerate()) - before
        assert sorted(thread.name for thread in started) == \
            ["reenact-worker-0", "reenact-worker-1"]


def test_spill_is_in_the_file_while_the_service_runs(tmp_path):
    """Warm restart needs no clean shutdown: a second store on the
    same file reads what the live service spilled."""
    store_path = str(tmp_path / "spill.sqlite")
    db, ticks = build_durable_history(tmp_path)
    with ReenactmentService(db, workers=2, store=store_path) as svc:
        svc.warm("acc", ticks).result(timeout=60)
        assert svc.stats().store["spills"] >= len(ticks)
        with SnapshotStore(path=store_path) as reader:
            assert reader.inventory(db.history_id) == \
                svc.store.inventory(db.history_id)
            table, ts = reader.inventory(db.history_id)[-1]
            assert sorted(reader.get(db.history_id, table, ts)) == \
                sorted(svc.store.get(db.history_id, table, ts))


def test_restarted_service_comes_back_warm(tmp_path):
    store_path = str(tmp_path / "spill.sqlite")
    db, ticks = build_durable_history(tmp_path)
    xids = [record.xid for record in db.audit_log.transactions(
        committed_only=True) if record.user == "mutator"]
    assert len(xids) == 8

    # first incarnation: publish every state to the store
    with ReenactmentService(db, store=store_path, workers=2) as svc:
        svc.warm("acc", ticks).result(timeout=60)
        reference = {xid: svc.reenact(xid).result(timeout=60)
                     for xid in xids}
        assert len(svc.store.inventory(db.history_id)) >= len(ticks)
    db.wal.close()

    # crash: recover the history from the log, reattach the same store
    rec = Database.open(str(tmp_path / "wal"))
    assert rec.history_id == db.history_id
    with ReenactmentService(rec, store=store_path, workers=2) as svc2:
        handles = svc2.rewarm()
        assert set(handles) == {"acc"}
        handles["acc"].result(timeout=60)
        sessions = svc2.stats().sessions
        # warm restart: every state came out of the store (the first
        # rehydrates, the rest are delta hops off it) — nothing was
        # rebuilt from a storage scan
        assert sessions["snapshots_rehydrated"] > 0
        assert sessions["full_materializations"] == 0
        # and real traffic answers identically to the first incarnation
        for xid in xids:
            result = svc2.reenact(xid).result(timeout=60)
            assert_relations_match(result.table("acc"),
                                   reference[xid].table("acc"),
                                   context=f"warm restart xid={xid}")
    rec.wal.close()


def test_warm_publishes_every_state(tmp_path):
    """``warm`` keeps its promise under default settings, with a
    session cache smaller than the tick list: every requested state is
    in the store afterwards, one full build paid for all of them, and
    the worker's cache is back within its bound."""
    db, ticks = build_durable_history(tmp_path)
    assert len(ticks) > 2
    with ReenactmentService(db, workers=1, cache_capacity=2) as svc:
        assert svc.warm("acc", reversed(ticks)).result(timeout=60) \
            == ticks
        stored = {ts for table, ts
                  in svc.store.inventory(db.history_id)
                  if table == "acc"}
        assert stored >= set(ticks)
        sessions = svc.stats().sessions
        assert sessions["full_materializations"] == 1
        assert sessions["snapshots_spilled"] == len(ticks)
        assert sessions["snapshots_evicted"] == len(ticks) - 2
        # a second warm finds everything published: nothing to spill
        svc.warm("acc", ticks).result(timeout=60)
        assert svc.stats().sessions["snapshots_spilled"] == len(ticks)
    db.wal.close()


def test_rewarm_requires_a_store(tmp_path):
    db, _ = build_durable_history(tmp_path, n_updates=1)
    with ReenactmentService(db, workers=1, store=None) as svc:
        with pytest.raises(ServiceError, match="spill store"):
            svc.rewarm()
    db.wal.close()


def test_rewarm_skips_tables_the_catalog_lost(tmp_path):
    """Store inventory can mention a table the recovered history no
    longer has (dropped after the spill): rewarm must skip it."""
    store_path = str(tmp_path / "spill.sqlite")
    db, ticks = build_durable_history(tmp_path)
    with ReenactmentService(db, store=store_path, workers=1) as svc:
        svc.warm("acc", ticks).result(timeout=60)
    db.execute("DROP TABLE acc")
    db.wal.close()

    rec = Database.open(str(tmp_path / "wal"))
    with ReenactmentService(rec, store=store_path, workers=1) as svc2:
        assert svc2.rewarm() == {}
    rec.wal.close()


def test_rewarm_table_filter(tmp_path):
    store_path = str(tmp_path / "spill.sqlite")
    db, ticks = build_durable_history(tmp_path)
    db.execute("CREATE TABLE other (a INT)")
    db.execute("INSERT INTO other VALUES (1)")
    other_tick = db.clock.now()
    with ReenactmentService(db, store=store_path, workers=1) as svc:
        svc.warm("acc", ticks).result(timeout=60)
        svc.warm("other", [other_tick]).result(timeout=60)
    db.wal.close()

    rec = Database.open(str(tmp_path / "wal"))
    with ReenactmentService(rec, store=store_path, workers=1) as svc2:
        handles = svc2.rewarm(tables=["other"])
        assert set(handles) == {"other"}
        handles["other"].result(timeout=60)
    rec.wal.close()
