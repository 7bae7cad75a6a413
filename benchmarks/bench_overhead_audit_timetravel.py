"""E4 — §3 overhead claim.

"Based on our experience with commercial DBMS X, activating these
features [audit logging + time travel] results in moderate overhead
(20% for write-only workloads and about 5% for mixed workloads)."

We run the same seeded workload with both features enabled and
disabled, for a write-only and a mixed statement mix, and report the
relative overhead.  The expected *shape*: overhead(write-only) >
overhead(mixed) > ~0, because history retention and statement logging
cost nothing for reads.

Every cell (mix x features) is timed for fifteen rounds (at least
five), on and off interleaved so a slow minute on the host lands on
both sides, and reported as min and median.  The overhead is taken
from the medians: a 60 ms run on this host now and then lands in a
fast stretch (48 ms where its neighbours take 60), so which side owns
the fastest round is a lottery the median does not play; the overhead
from the minima is recorded beside it.
"""

import statistics
import time

import pytest
from conftest import bench_rounds, report

from repro import Database, DatabaseConfig
from repro.workloads import WorkloadConfig, WorkloadGenerator

N_ROWS = 400
N_TXNS = 60


def run_workload(mix: str, features_on: bool) -> float:
    config = DatabaseConfig(audit_enabled=features_on,
                            timetravel_enabled=features_on)
    db = Database(config)
    if mix == "write-only":
        wl = WorkloadConfig.write_only(
            n_rows=N_ROWS, n_transactions=N_TXNS, seed=123,
            stmts_per_txn=(2, 5))
    else:
        wl = WorkloadConfig.mixed(
            n_rows=N_ROWS, n_transactions=N_TXNS, seed=123,
            stmts_per_txn=(2, 5))
    generator = WorkloadGenerator(wl)
    generator.setup(db)
    started = time.perf_counter()
    generator.run(db, concurrency=3)
    return time.perf_counter() - started


def measure_cells(mix: str, rounds: int) -> dict:
    """``{"on" | "off": [seconds per round]}``, rounds interleaved."""
    times = {"on": [], "off": []}
    for _ in range(rounds):
        times["on"].append(run_workload(mix, True))
        times["off"].append(run_workload(mix, False))
    return times


def overhead_pct(on: float, off: float) -> float:
    return (on - off) / off * 100.0


@pytest.mark.parametrize("mix,features_on", [
    ("write-only", True), ("write-only", False),
    ("mixed", True), ("mixed", False),
])
def test_workload_runtime(benchmark, mix, features_on):
    benchmark.pedantic(lambda: run_workload(mix, features_on),
                       rounds=5, iterations=1)
    benchmark.extra_info["mix"] = mix
    benchmark.extra_info["features"] = "on" if features_on else "off"


def test_overhead_shape(benchmark, request):
    """The headline comparison (one interleaved pass of >=5 rounds per
    cell, reported)."""
    rounds = max(5, bench_rounds(request, 15))

    def measure_both():
        return {mix: measure_cells(mix, rounds)
                for mix in ("write-only", "mixed")}

    cells = benchmark.pedantic(measure_both, rounds=1, iterations=1)
    overhead = {}
    for mix, times in cells.items():
        key = mix.replace("-", "_")
        for features, seconds in times.items():
            benchmark.extra_info[f"{key}_{features}_min_s"] = \
                round(min(seconds), 4)
            benchmark.extra_info[f"{key}_{features}_median_s"] = \
                round(statistics.median(seconds), 4)
        overhead[mix] = overhead_pct(statistics.median(times["on"]),
                                     statistics.median(times["off"]))
        benchmark.extra_info[f"overhead_{key}_pct"] = \
            round(overhead[mix], 1)
        benchmark.extra_info[f"overhead_{key}_min_pct"] = round(
            overhead_pct(min(times["on"]), min(times["off"])), 1)
    benchmark.extra_info["rounds_per_cell"] = rounds
    write_only, mixed = overhead["write-only"], overhead["mixed"]
    report("E4: audit + time-travel overhead (paper: ~20% / ~5%)", [
        f"write-only workload: {write_only:6.1f}%   (paper: ~20%)",
        f"mixed workload     : {mixed:6.1f}%   (paper: ~5%)",
        f"(medians of {rounds} interleaved rounds per cell)",
    ])
    # the qualitative claim: writes pay more than mixed workloads, and
    # the overhead is "moderate" (well under 2x)
    assert write_only > mixed - 2.0
    assert write_only < 100.0
