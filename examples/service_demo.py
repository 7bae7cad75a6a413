"""Reenactment-as-a-service, end to end.

A small bank history is recorded, then a `ReenactmentService` serves a
burst of concurrent requests against it — the same four job kinds a
population of analysts would issue (reenact, what-if fleet,
equivalence certification, timeline scan), with repeats on purpose so
deduplication and the result cache have something to do.  At the end
the service's stats snapshot shows where the answers came from —
followed by the observability surfaces over the same burst: the
Prometheus text exposition of the service's metrics registry, one
rendered trace (a reenactment's span tree), and the plan-explain
events saying why each snapshot decision was made.

Run with::

    PYTHONPATH=src python examples/service_demo.py
"""

from repro import Database, ReenactmentService
from repro.core.reenactor import ReenactmentOptions
from repro.obs import (disable_tracing, enable_tracing, render_explain,
                       render_trace)
from repro.workloads import run_write_skew_history, setup_bank


def main() -> None:
    db = Database()
    setup_bank(db)
    t1, t2 = run_write_skew_history(db)
    now = db.clock.now()

    sink = enable_tracing()     # ring-buffer sink; rendered at the end
    with ReenactmentService(db, backend="sqlite", workers=3,
                            cache_capacity=4) as service:
        # -- a burst of concurrent requests, repeats included ---------
        options = ReenactmentOptions(with_provenance=True,
                                     annotations=True)
        handles = [service.reenact(t1, options) for _ in range(3)]
        handles.append(service.reenact(t2))
        whatif = service.whatif_fleet(t1, variants=[
            ("promo", ("insert", 0,
                       "UPDATE account SET bal = bal "
                       "WHERE cust = 'Alice'")),
            ("no-withdrawal", ("delete", 0)),
        ])
        timeline = service.timeline_scan("account",
                                         [now - 2, now - 1, now])

        first = handles[0].result()
        print("T1 reenacted; tables:", sorted(first.tables))
        for handle in handles[1:-1]:
            # identical in-flight submissions coalesce onto one handle
            print("  repeat:",
                  "coalesced onto the first request's handle"
                  if handle is handles[0] else handle.source)

        for name, result in whatif.result().items():
            print(f"what-if {name!r}:",
                  result.summary().splitlines()[0],
                  f"(+{len(result.conflicts)} conflict(s))")

        states = timeline.result()
        print("timeline row counts:",
              {ts: len(rel.rows) for ts, rel in sorted(states.items())})

        # -- the snapshot planner at work ----------------------------
        # A timeline scan reads storage and touches no session.  `warm`
        # primes a run of committed states on one worker — the first
        # built from storage, each later one a delta hop from its
        # predecessor — and publishes each to the spill store, for
        # every worker to rehydrate from.
        ticks = [now - 2, now - 1, now]
        with ReenactmentService(db, backend="sqlite",
                                workers=1) as probe:
            probe.warm("account", ticks).result()
            walked = probe.stats().sessions
            stored = len(probe.store.inventory(db.history_id))
        print(f"\nwarm: full={walked['full_materializations']} "
              f"clone+delta={walked['delta_materializations']}; "
              f"{stored} state(s) in the store")

        # the debug panel rides the same pipeline: its prefix columns
        # all read the begin-time snapshots, which materialize once
        # and are handed across compiles (primes_shared)
        from repro.debugger.inspector import TransactionInspector
        panel = TransactionInspector(db, t1, backend="sqlite")
        panel.columns()
        print(f"debug panel: primes_shared="
              f"{panel.last_stats.primes_shared} across "
              f"{len(panel.columns())} prefix columns")

        # -- sweeps and repeats are calls on the same service ---------
        reports = {xid: handle.result() for xid, handle
                   in service.equivalence_sweep().items()}
        print("equivalence sweep:",
              {xid: report.ok for xid, report in sorted(reports.items())})
        again = service.reenact(t1, options).result()
        assert sorted(again.tables) == sorted(first.tables)

        stats = service.stats()
        exposition = service.prometheus()
        reenact_explain = handles[0].explain()
    disable_tracing()

    print("\nservice stats:")
    print(f"  submitted={stats.jobs_submitted} "
          f"executed={stats.jobs_executed} "
          f"deduplicated={stats.jobs_deduplicated} "
          f"from_cache={stats.jobs_from_cache}")
    print(f"  sessions: {stats.sessions}")
    if stats.store:
        print(f"  store: {stats.store}")

    # -- observability: the same burst, three ways ---------------------
    print("\nmetrics registry (Prometheus exposition, excerpt):")
    for line in exposition.splitlines():
        if "reenact_service_jobs" in line \
                or "reenact_job_duration_seconds_count" in line:
            print("  " + line)

    print("\ntrace of T1's reenactment (span tree from the ring "
          "sink):")
    print(render_trace(sink.spans(), trace_id=handles[0].trace_id))

    print("\nwhy its snapshots were materialized the way they were "
          "(JobHandle.explain()):")
    print(render_explain(reenact_explain))


if __name__ == "__main__":
    main()
