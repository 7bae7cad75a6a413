"""Durability: warm restart vs cold restart, and WAL append overhead.

Two claims under measurement:

* **Warm restart.** A service restarted over a recovered database
  (``Database.open``) keeps its durable ``history_id``, so a persistent
  :class:`SnapshotStore` primed by the previous incarnation still
  addresses the recovered history.  Both restarts run the same
  protocol — recover, then serve the burst — differing only in the
  store they reattach: the primed one or an empty one.  The burst asks
  for the rows each of the history's writer transactions changed; the
  engine computes them from the table's state at the writer's begin
  time alone, so what differs is how a worker acquires that state:
  warm workers rehydrate it out of the store, cold workers full-build
  it from storage.  The table is heavily churned (20 version chains
  per live row) and every state is far from the present, so a full
  build walks every chain, dead ones included — a pure-Python walk —
  while a rehydrate only pays for the live rows.  Warm must be ≥2x
  faster and do **zero** full materializations.

* **WAL overhead.** Making the history durable is an append-path tax on
  the write side: length-prefixed frames, buffered appends, batched
  fsyncs.  On the bank-style workload (bulk load + a run of small
  update transactions) the logged run must stay within 15% of the
  unlogged one.

The JSON this emits is re-checked by CI (warm ≥2x with zero full
rebuilds; overhead ≤15%).
"""

import os
import shutil
import tempfile
import time

from conftest import bench_rounds, record_result, report

from repro import Database, ReenactmentService
from repro.core.reenactor import ReenactmentOptions
from repro.workloads import populate_accounts

BENCH_DDL = ("CREATE TABLE bench_account "
             "(id INT, owner TEXT, branch INT, bal INT)")

N_ROWS = 10000        #: live rows in every state
N_CHURNED = 190000    #: rows deleted before the writers run: their
                      #: dead chains stay in the table, a rehydrate
                      #: only pays for live rows
N_JOBS = 8            #: writer transactions; each one reenact job
                      #: reading a distinct state
N_LATER = 11          #: whole-table updates after the writers: their
                      #: 110k commit-log events put every writer's
                      #: state too far from the present to roll the
                      #: live map back to (docs/storage.md)
N_WORKERS = 4         #: the service's default concurrency
CACHE_CAPACITY = 32   #: > N_JOBS: isolate restart cost from eviction
N_RESTARTS = 3        #: interleaved restarts per side; each side's
                      #: best serve time is compared
MIN_WARM_SPEEDUP_X = 2.0
#: the burst's request: the rows each writer changed, which the engine
#: computes from the AS-OF state alone (a whole-table request would
#: also read that state from storage to add the untouched rows)
AFFECTED = ReenactmentOptions(only_affected=True)

OVERHEAD_ROWS = 2000
OVERHEAD_TXNS = 200
MAX_WAL_OVERHEAD_PCT = 15.0


def make_durable_history(wal_dir):
    """The workload, recorded through a WAL: a churned account table
    (200k rows loaded, 190k deleted), N_JOBS single-row update commits
    over the 10k survivors, then N_LATER updates of every survivor.
    Returns the database, the writer xids and the states their
    reenactments read (each one's begin time)."""
    db = Database()
    db.attach_wal(wal_dir, fsync="batch")
    db.execute(BENCH_DDL)
    populate_accounts(db, N_ROWS + N_CHURNED, seed=31)
    conn = db.connect(user="churn")
    conn.begin()
    conn.execute(f"DELETE FROM bench_account WHERE id > {N_ROWS}")
    conn.commit()
    xids, ticks = [], []
    for k in range(N_JOBS):
        conn = db.connect(user=f"writer{k}")
        conn.begin()
        conn.execute("UPDATE bench_account SET bal = bal + 1 "
                     f"WHERE id = {k + 1}")
        xids.append(conn.txn.xid)
        ticks.append(conn.txn.begin_ts)
        conn.commit()
    for _ in range(N_LATER):
        conn = db.connect(user="interest")
        conn.begin()
        conn.execute("UPDATE bench_account SET bal = bal + 1")
        conn.commit()
    return db, xids, ticks


def prime_store(db, ticks, store_path):
    """The previous incarnation: publish every state the writers'
    reenactments read to the persistent store."""
    with ReenactmentService(db, store=store_path, workers=2,
                            cache_capacity=CACHE_CAPACITY) as service:
        service.warm("bench_account", ticks).result(timeout=600)
        assert len(service.store.inventory(db.history_id)) >= N_JOBS


def restart_and_serve(wal_dir, store_path, xids):
    """One restart, same protocol either way: recover the history from
    the log, start a service on ``store_path``, reenact every writer.
    Returns (recovery_s, serve_s, ServiceStats)."""
    t0 = time.perf_counter()
    db = Database.open(wal_dir)
    recovery_s = time.perf_counter() - t0
    with ReenactmentService(db, store=store_path, workers=N_WORKERS,
                            cache_capacity=CACHE_CAPACITY) as service:
        t1 = time.perf_counter()
        handles = [service.reenact(xid, AFFECTED) for xid in xids]
        for handle in handles:
            handle.result(timeout=600)
        serve_s = time.perf_counter() - t1
        stats = service.stats()
    db.wal.close()
    return recovery_s, serve_s, stats


def test_warm_restart_vs_cold(benchmark, request):
    """The acceptance claim: a restart over the primed store serves
    the reenact burst ≥2x faster than the same restart over an empty
    one, with zero full materializations — every state comes out of
    the spill store."""
    rounds = bench_rounds(request, 1)

    def sweep():
        workdir = tempfile.mkdtemp(prefix="repro_durability_")
        try:
            wal_dir = os.path.join(workdir, "wal")
            store_path = os.path.join(workdir, "spill.sqlite")
            db, xids, ticks = make_durable_history(wal_dir)
            prime_store(db, ticks, store_path)
            db.wal.close()
            del db
            # interleave and keep each side's best restart: the claim
            # is about acquiring states, not about scheduler noise
            cold = warm = (0.0, float("inf"), None)
            for k in range(N_RESTARTS):
                # cold: same recovered history, an *empty* spill store
                run = restart_and_serve(
                    wal_dir, os.path.join(workdir, f"cold{k}.sqlite"),
                    xids)
                cold = min(cold, run, key=lambda r: r[1])
                # warm: the previous incarnation's store, reattached
                run = restart_and_serve(wal_dir, store_path, xids)
                warm = min(warm, run, key=lambda r: r[1])
            return cold + warm
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    out = benchmark.pedantic(sweep, rounds=rounds, iterations=1)
    cold_rec, cold_s, cold_stats, warm_rec, warm_s, warm_stats = out
    speedup = cold_s / max(warm_s, 1e-9)
    cold_sessions = cold_stats.sessions
    warm_sessions = warm_stats.sessions
    report(
        f"durable restart: {N_JOBS} reenact jobs x {N_WORKERS} "
        f"workers at {N_ROWS} live of {N_ROWS + N_CHURNED} rows "
        f"(best of {N_RESTARTS} restarts each)",
        [f"recovery {cold_rec * 1000:8.1f} ms (cold run) / "
         f"{warm_rec * 1000:8.1f} ms (warm run)",
         f"cold serve {cold_s * 1000:8.1f} ms  "
         f"(full builds {cold_sessions['full_materializations']})",
         f"warm serve {warm_s * 1000:8.1f} ms  "
         f"(rehydrated {warm_sessions['snapshots_rehydrated']}, "
         f"full builds {warm_sessions['full_materializations']})",
         f"speedup {speedup:4.1f}x (bar {MIN_WARM_SPEEDUP_X}x)"])
    record_result(
        "durability", "warm_restart",
        n_rows=N_ROWS, n_churned=N_CHURNED, jobs=N_JOBS,
        workers=N_WORKERS, restarts=N_RESTARTS,
        cold_ms=round(cold_s * 1000, 1),
        warm_ms=round(warm_s * 1000, 1),
        recovery_ms=round(warm_rec * 1000, 1),
        speedup=round(speedup, 2),
        min_required_x=MIN_WARM_SPEEDUP_X,
        cold_full_materializations=(
            cold_sessions["full_materializations"]),
        warm_full_materializations=(
            warm_sessions["full_materializations"]),
        warm_rehydrated=warm_sessions["snapshots_rehydrated"],
        cold_sessions=cold_sessions, warm_sessions=warm_sessions)

    assert speedup >= MIN_WARM_SPEEDUP_X, \
        f"warm restart speedup {speedup:.2f}x < {MIN_WARM_SPEEDUP_X}x"
    assert warm_sessions["full_materializations"] == 0, \
        "warm restart rebuilt a state from storage"
    assert warm_sessions["snapshots_rehydrated"] > 0, \
        "warm restart never touched the store"
    assert cold_sessions["full_materializations"] > 0, \
        "cold restart measured nothing (no full builds?)"
    benchmark.extra_info["speedup_x"] = round(speedup, 2)
    benchmark.extra_info["warm_rehydrated"] = \
        warm_sessions["snapshots_rehydrated"]


def bank_run(wal_dir):
    """The bank-style write workload: bulk load plus a run of small
    update transactions.  Returns (elapsed_s, WALStats-or-None)."""
    db = Database()
    if wal_dir is not None:
        db.attach_wal(wal_dir, fsync="batch")
    started = time.perf_counter()
    db.execute(BENCH_DDL)
    populate_accounts(db, OVERHEAD_ROWS, seed=7)
    for i in range(OVERHEAD_TXNS):
        conn = db.connect(user="teller")
        conn.begin()
        conn.execute("UPDATE bench_account SET bal = bal + 1 "
                     f"WHERE id = {i % OVERHEAD_ROWS + 1}")
        conn.commit()
    elapsed = time.perf_counter() - started
    if db.wal is not None:
        db.wal.close()
        return elapsed, db.wal.stats
    return elapsed, None


def test_wal_append_overhead(benchmark, request):
    """The write-side tax: the logged bank workload must stay within
    15% of the unlogged one (buffered appends, batched fsyncs)."""
    rounds = bench_rounds(request, 3)

    def sweep():
        workdir = tempfile.mkdtemp(prefix="repro_wal_overhead_")
        try:
            # interleave and keep each side's best round: the claim is
            # about the append path, not about scheduler noise
            plain_best, wal_best, wal_stats = float("inf"), \
                float("inf"), None
            for _ in range(3):
                plain_s, _ = bank_run(None)
                plain_best = min(plain_best, plain_s)
                wal_dir = tempfile.mkdtemp(dir=workdir)
                wal_s, stats = bank_run(os.path.join(wal_dir, "wal"))
                if wal_s < wal_best:
                    wal_best, wal_stats = wal_s, stats
            return plain_best, wal_best, wal_stats
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    plain_s, wal_s, wal_stats = benchmark.pedantic(
        sweep, rounds=rounds, iterations=1)
    overhead_pct = (wal_s - plain_s) / plain_s * 100.0
    report(
        f"WAL append overhead: {OVERHEAD_ROWS} rows + "
        f"{OVERHEAD_TXNS} update txns",
        [f"plain {plain_s * 1000:8.1f} ms",
         f"wal   {wal_s * 1000:8.1f} ms  ({overhead_pct:+5.1f}%; "
         f"{wal_stats.records_appended} records, "
         f"{wal_stats.bytes_appended} bytes, "
         f"{wal_stats.fsyncs} fsyncs)"])
    record_result(
        "durability", "wal_overhead",
        n_rows=OVERHEAD_ROWS, n_txns=OVERHEAD_TXNS,
        plain_ms=round(plain_s * 1000, 1),
        wal_ms=round(wal_s * 1000, 1),
        overhead_pct=round(overhead_pct, 1),
        max_allowed_pct=MAX_WAL_OVERHEAD_PCT,
        wal_stats=wal_stats.as_dict())
    assert overhead_pct <= MAX_WAL_OVERHEAD_PCT, \
        f"WAL overhead {overhead_pct:.1f}% > {MAX_WAL_OVERHEAD_PCT}%"
    benchmark.extra_info["overhead_pct"] = round(overhead_pct, 1)
