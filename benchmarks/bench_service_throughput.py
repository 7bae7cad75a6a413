"""Service throughput: shared scheduling vs per-client naive sessions.

The serving claim of the concurrent-reenactment PR: at a realistic
mixed workload — many analysts concurrently probing the *same* recent
history with reenactment, what-if, equivalence and timeline queries,
repeats included — a :class:`ReenactmentService` (bounded worker pool,
shared spill store, result cache, in-flight dedup) must deliver **≥2x
the aggregate throughput** of the same jobs run the naive way: one
private session per client, nothing shared, all clients concurrent.

The job mix is 16 jobs over ~10 distinct requests (analysts cluster on
the suspect transaction), at table sizes up to 40k rows.  Alongside the
timing, the JSON records the service's spill/rehydrate counters — the
disk tier must actually cycle (nonzero both ways) under the small
per-worker snapshot caches this benchmark configures, because that is
the mechanism that lets a 4-worker pool behave like one big cache.
"""

import threading
import time

from conftest import bench_rounds, record_result, report

from repro import Database, ReenactmentService
from repro.core.equivalence import check_transaction_equivalence
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.core.whatif import WhatIfFleet
from repro.debugger.timeline import timeline_states
from repro.workloads import populate_accounts

TABLE_SIZES = [10000, 40000]
N_JOBS = 16
N_WORKERS = 4
N_PAIRS = 3           #: interleaved naive/service runs per size; each
                      #: side's best time is compared
MIN_SPEEDUP_X = 2.0

STRICT = ReenactmentOptions(annotations=True, include_deleted=True)


def make_history(n_rows):
    """A populated table, one 10-statement suspect transaction inside
    a concurrent history, and a handful of later probe transactions
    (distinct commit timestamps for the timeline scans)."""
    db = Database()
    db.execute("CREATE TABLE bench_account "
               "(id INT, owner TEXT, branch INT, bal INT)")
    populate_accounts(db, n_rows, seed=23)
    target = db.connect(user="suspect")
    target.begin()
    for k in range(10):
        target.execute("UPDATE bench_account SET bal = bal + 1 "
                       f"WHERE id = {k + 1}")
    for i, row in enumerate((2000, 3000, 4000)):
        other = db.connect(user=f"other{i}")
        other.begin()
        other.execute("UPDATE bench_account SET bal = bal + 5 "
                      f"WHERE id = {row}")
        other.commit()
    suspect = target.txn.xid
    target.commit()
    probes, probe_ts = [], []
    for k in range(4):
        conn = db.connect(user=f"probe{k}")
        conn.begin()
        conn.execute("UPDATE bench_account SET bal = bal - 2 "
                     f"WHERE id = {5000 + k}")
        probes.append(conn.txn.xid)
        conn.commit()
        probe_ts.append(db.clock.now())
    return db, suspect, probes, probe_ts


def fleet_variants():
    """The scenario edits every what-if job probes — declarative specs
    (the serializable job-description form), so identical fleet jobs
    fingerprint equal and the service deduplicates them."""
    return [
        ("boost", ("replace", 0,
                   "UPDATE bench_account SET bal = bal + 100 "
                   "WHERE id = 1")),
        ("extra", ("insert", 0,
                   "UPDATE bench_account SET bal = bal - 1 "
                   "WHERE id = 7")),
    ]


def job_mix(suspect, probes, probe_ts):
    """16 mixed jobs over 7 distinct requests — the zipf-shaped load
    of an incident: many analysts clustering on one suspect
    transaction, a couple of probes and dashboards on the side."""
    return [
        ("reenact", suspect),            # five analysts, same question
        ("reenact", suspect),
        ("reenact", suspect),
        ("reenact", suspect),
        ("reenact", suspect),
        ("reenact", probes[0]),
        ("reenact", probes[0]),
        ("reenact", probes[1]),
        ("reenact", probes[1]),
        ("whatif", suspect),             # identical declarative fleets:
        ("whatif", suspect),             # deduplicated by fingerprint
        ("equiv", suspect),              # repeated certification
        ("equiv", suspect),
        ("equiv", probes[0]),
        ("timeline", tuple(probe_ts)),   # two identical dashboards
        ("timeline", tuple(probe_ts)),
    ]


def run_job_naive(db, spec):
    """One client, one private session, nothing shared — the
    per-client baseline."""
    from repro.service.jobs import apply_variant_spec
    kind = spec[0]
    if kind == "reenact":
        Reenactor(db, backend="sqlite").reenact(spec[1], STRICT)
    elif kind == "whatif":
        fleet = WhatIfFleet(db, spec[1], backend="sqlite")
        for name, edit in fleet_variants():
            apply_variant_spec(fleet.scenario(name), edit)
        fleet.run()
    elif kind == "equiv":
        check_transaction_equivalence(db, spec[1], backend="sqlite")
    elif kind == "timeline":
        timeline_states(db, "bench_account", list(spec[1]))


def submit_job(service, spec):
    kind = spec[0]
    if kind == "reenact":
        return service.reenact(spec[1], STRICT)
    if kind == "whatif":
        return service.whatif_fleet(spec[1],
                                    variants=fleet_variants())
    if kind == "equiv":
        return service.equivalence(spec[1])
    return service.timeline_scan("bench_account", list(spec[1]))


def measure_naive(db, jobs):
    """All 16 clients concurrent, each with private sessions."""
    threads = [threading.Thread(target=run_job_naive, args=(db, spec))
               for spec in jobs]
    started = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - started


def measure_service(db, jobs):
    """The timed service phase, leader-first: the first analyst's
    request runs to completion — its full materialization is
    write-through-published to the store — and then the burst is
    released.  Followers landing on other workers rehydrate the hot
    snapshot from the store on first touch instead of rescanning 40k
    rows of storage; identical requests coalesce in flight or hit the
    result cache."""
    with ReenactmentService(db, backend="sqlite", workers=N_WORKERS,
                            cache_capacity=8) as service:
        started = time.perf_counter()
        leader = submit_job(service, jobs[0])
        leader.result(timeout=600)
        handles = [submit_job(service, spec) for spec in jobs[1:]]
        for handle in handles:
            handle.result(timeout=600)
        elapsed = time.perf_counter() - started
        stats = service.stats()
    return elapsed, stats


def test_service_vs_naive_clients(benchmark, request):
    """The acceptance claim: ≥2x aggregate throughput at the largest
    size, with the spill tier demonstrably cycling."""
    rounds = bench_rounds(request, 1)

    def sweep():
        out = {}
        for n_rows in TABLE_SIZES:
            db, suspect, probes, probe_ts = make_history(n_rows)
            jobs = job_mix(suspect, probes, probe_ts)
            # interleave and keep each side's best run: the claim is
            # about shared serving, not about scheduler noise
            naive_s, (service_s, stats) = float("inf"), \
                (float("inf"), None)
            for _ in range(N_PAIRS):
                naive_s = min(naive_s, measure_naive(db, jobs))
                service_s, stats = min((service_s, stats),
                                       measure_service(db, jobs),
                                       key=lambda run: run[0])
            out[n_rows] = (naive_s, service_s, stats)
        return out

    out = benchmark.pedantic(sweep, rounds=rounds, iterations=1)
    lines = []
    for n_rows, (naive_s, service_s, stats) in out.items():
        speedup = naive_s / max(service_s, 1e-9)
        sessions = stats.sessions
        lines.append(
            f"{n_rows:>6} rows, {N_JOBS} jobs: "
            f"naive {naive_s * 1000:8.1f} ms  "
            f"service {service_s * 1000:8.1f} ms  "
            f"({speedup:4.1f}x; dedup {stats.jobs_deduplicated}, "
            f"cached {stats.jobs_from_cache}, "
            f"spilled {sessions['snapshots_spilled']}, "
            f"rehydrated {sessions['snapshots_rehydrated']})")
        record_result(
            "service_throughput", f"mixed_{n_rows}",
            n_rows=n_rows, jobs=N_JOBS, workers=N_WORKERS,
            pairs=N_PAIRS, naive_ms=round(naive_s * 1000, 1),
            service_ms=round(service_s * 1000, 1),
            speedup=round(speedup, 2),
            min_required_x=MIN_SPEEDUP_X,
            jobs_deduplicated=stats.jobs_deduplicated,
            jobs_from_cache=stats.jobs_from_cache,
            snapshots_spilled=sessions["snapshots_spilled"],
            snapshots_rehydrated=sessions["snapshots_rehydrated"],
            store=stats.store)
    report(f"service throughput: {N_JOBS} concurrent mixed jobs, "
           f"{N_WORKERS} workers vs per-client naive sessions "
           f"(best of {N_PAIRS} runs each)", lines)

    largest = TABLE_SIZES[-1]
    naive_s, service_s, stats = out[largest]
    assert naive_s / max(service_s, 1e-9) >= MIN_SPEEDUP_X, \
        f"service speedup below {MIN_SPEEDUP_X}x at {largest} rows"
    sessions = stats.sessions
    assert sessions["snapshots_spilled"] > 0, \
        "spill tier never engaged — cache pressure mis-configured"
    assert sessions["snapshots_rehydrated"] > 0, \
        "no snapshot was ever rehydrated from the store"
    assert stats.jobs_deduplicated + stats.jobs_from_cache > 0, \
        "the repeated jobs were never deduplicated"
