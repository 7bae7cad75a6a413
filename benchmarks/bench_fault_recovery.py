"""Fault-injection overhead and recovery throughput.

Two acceptance bars over the 40k-row mixed service workload (the same
16-job burst ``bench_service_throughput`` measures):

* **disarmed ≤ 5%** — with no fault plan armed, every fault point
  costs one module-global read and a branch.  Asserted on an honest
  worst-case estimate: the measured per-call cost of the disarmed
  ``fault_point()`` path times the number of fault-point hits the
  workload performs (counted by arming a zero-probability plan), as a
  fraction of the fault-free runtime — same methodology as the
  tracing bar in ``bench_observability``.
* **degraded ≥ 70%** — under a 5%-transient-spill-failure plan
  (``store.spill`` / ``store.rehydrate`` each failing 5% of hits with
  a retryable fault), the service must still deliver at least 70% of
  its fault-free throughput: retries and cache-only degradation cost
  speed, never availability.
"""

import time

from conftest import bench_rounds, record_result, report

from bench_service_throughput import (N_JOBS, N_WORKERS, job_mix,
                                      make_history, measure_service)

from repro.faults import (FAULT_SITES, FaultPlan, armed, fault_point,
                          faults_enabled)

N_ROWS = 40000
MAX_DISARMED_OVERHEAD_PCT = 5.0
MIN_DEGRADED_THROUGHPUT_PCT = 70.0
SPILL_FAILURE_PROBABILITY = 0.05
NOOP_CALIBRATION_CALLS = 200_000


def measure_noop_fault_point_cost(calls=NOOP_CALIBRATION_CALLS):
    """Per-call cost of the disarmed fault-point path, including the
    keyword-attrs build the call sites pay."""
    assert not faults_enabled()
    started = time.perf_counter()
    for _ in range(calls):
        fault_point("calibration", table="bench_account")
    return (time.perf_counter() - started) / calls


def counting_plan(seed=0):
    """Arms every site at probability 0: never fires, but counts every
    fault-point hit the workload performs."""
    plan = FaultPlan(seed=seed)
    for site in FAULT_SITES:
        plan.on(site, probability=0.0)
    return plan


def spill_failure_plan(seed=0):
    """The degradation scenario: 5% of spill-tier operations fail with
    a retryable transient."""
    return FaultPlan(seed=seed) \
        .on("store.spill", probability=SPILL_FAILURE_PROBABILITY) \
        .on("store.rehydrate", probability=SPILL_FAILURE_PROBABILITY)


def test_fault_recovery_bars(benchmark, request):
    reps = max(2, bench_rounds(request, 3))
    db, suspect, probes, probe_ts = make_history(N_ROWS)
    jobs = job_mix(suspect, probes, probe_ts)

    def sweep():
        clean_runs, faulted_runs, faulted_stats = [], [], []
        for rep in range(reps):
            elapsed, _ = measure_service(db, jobs)
            clean_runs.append(elapsed)
            with armed(spill_failure_plan(seed=rep)):
                elapsed, stats = measure_service(db, jobs)
            faulted_runs.append(elapsed)
            faulted_stats.append(stats)
        plan = counting_plan()
        with armed(plan):
            measure_service(db, jobs)
        hits = sum(site["hits"] for site in plan.stats().values())
        noop_cost_s = measure_noop_fault_point_cost()
        return (clean_runs, faulted_runs, faulted_stats, hits,
                noop_cost_s)

    clean_runs, faulted_runs, faulted_stats, hits, noop_cost_s = \
        benchmark.pedantic(sweep, rounds=1, iterations=1)

    clean_s = min(clean_runs)
    faulted_s = min(faulted_runs)
    disarmed_overhead_pct = hits * noop_cost_s / clean_s * 100.0
    degraded_throughput_pct = clean_s / faulted_s * 100.0
    best = faulted_stats[faulted_runs.index(faulted_s)]
    resilience = best.resilience or {}

    record_result(
        "fault_recovery", f"overhead_{N_ROWS}",
        n_rows=N_ROWS, jobs=N_JOBS, workers=N_WORKERS, reps=reps,
        clean_ms=round(clean_s * 1000, 1),
        faulted_ms=round(faulted_s * 1000, 1),
        fault_point_hits=hits,
        noop_fault_point_cost_ns=round(noop_cost_s * 1e9, 1),
        disarmed_overhead_pct=round(disarmed_overhead_pct, 3),
        degraded_throughput_pct=round(degraded_throughput_pct, 1),
        spill_failure_probability=SPILL_FAILURE_PROBABILITY,
        retries=resilience.get("retries", 0),
        spills_dropped=resilience.get("spills_dropped", 0),
        reads_degraded=resilience.get("reads_degraded", 0),
        max_disarmed_overhead_pct=MAX_DISARMED_OVERHEAD_PCT,
        min_degraded_throughput_pct=MIN_DEGRADED_THROUGHPUT_PCT)
    report(
        f"fault recovery: {N_JOBS} mixed jobs at {N_ROWS} rows, "
        f"{N_WORKERS} workers",
        [f"fault-free    {clean_s * 1000:8.1f} ms (min of {reps})",
         f"5% spill faults {faulted_s * 1000:6.1f} ms "
         f"({resilience.get('retries', 0)} retries, "
         f"{resilience.get('spills_dropped', 0)} spills dropped, "
         f"{resilience.get('reads_degraded', 0)} reads degraded)",
         f"degraded throughput {degraded_throughput_pct:6.1f}% "
         f"(bar >= {MIN_DEGRADED_THROUGHPUT_PCT}%)",
         f"disarmed path  {noop_cost_s * 1e9:6.1f} ns/call x "
         f"{hits} hits -> {disarmed_overhead_pct:5.3f}% of "
         f"fault-free runtime (bar <= {MAX_DISARMED_OVERHEAD_PCT}%)"])

    assert disarmed_overhead_pct <= MAX_DISARMED_OVERHEAD_PCT, \
        (f"disarmed fault-point overhead {disarmed_overhead_pct:.3f}% "
         f"exceeds {MAX_DISARMED_OVERHEAD_PCT}%")
    assert degraded_throughput_pct >= MIN_DEGRADED_THROUGHPUT_PCT, \
        (f"throughput under 5% spill faults "
         f"{degraded_throughput_pct:.1f}% is below "
         f"{MIN_DEGRADED_THROUGHPUT_PCT}%")
    assert hits > 0, "the workload hit no fault points"
