"""Shared benchmark fixtures and reporting helpers.

Run with::

    pytest benchmarks/bench_*.py

(the ``bench_`` prefix keeps these out of default test collection, so
the files must be named explicitly; ``--benchmark-only`` skips the
assertions and keeps just the timing loops)

Each benchmark module regenerates one figure or evaluation claim of the
paper (see DESIGN.md §3 and EXPERIMENTS.md).  Measured facts that matter
for the paper-vs-measured comparison are attached to
``benchmark.extra_info`` and printed (visible with ``-s``).

Every ``bench_<name>.py`` module additionally emits its measurements as
machine-readable JSON to ``BENCH_<name>.json`` at the repository root,
so the performance trajectory is trackable across commits: an autouse
fixture records each benchmark's timing stats and ``extra_info`` after
the test runs, and modules call :func:`record_result` directly for
curated numbers (speedups, sweep tables) that don't fit one test's
stats.  Files are rewritten per process run — stale results never mix
with fresh ones.
"""

import json
import os

import pytest

from repro import Database
from repro.workloads import run_write_skew_history, setup_bank

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pytest_addoption(parser):
    # CI's benchmark-smoke step runs with `--rounds 1` to stay inside
    # its budget; locally the per-module defaults apply.  (Registered
    # here, so the option exists whenever benchmarks/ is on the
    # command line; BENCH_ROUNDS is the env-var equivalent.)
    parser.addoption(
        "--rounds", action="store", type=int, default=None,
        help="override measurement rounds for benchmark sweeps")


def bench_rounds(request, default):
    """Measurement rounds for a sweep: --rounds, else $BENCH_ROUNDS,
    else the module's default."""
    rounds = request.config.getoption("--rounds", default=None)
    if rounds is None:
        rounds = os.environ.get("BENCH_ROUNDS")
    return int(rounds) if rounds else default

#: bench name -> {result key -> payload}, accumulated per process so
#: each test rewrites its module's JSON file with everything so far.
_ACCUMULATED = {}


def record_result(bench, key, **payload):
    """Record one measured datum under ``BENCH_<bench>.json``.

    ``payload`` must be JSON-serializable (non-serializable values are
    stringified).  Calling repeatedly within one run accumulates;
    recording a key twice overwrites it.  Every write is validated
    against the shared schema (``bench_schema.py``) so a malformed
    payload fails the benchmark that produced it, not a later reader.
    """
    from bench_schema import validate_bench_dict
    results = _ACCUMULATED.setdefault(bench, {})
    results[key] = payload
    path = os.path.join(REPO_ROOT, f"BENCH_{bench}.json")
    document = json.loads(json.dumps(
        {"bench": bench, "results": results},
        sort_keys=True, default=str))
    validate_bench_dict(document, f"BENCH_{bench}.json")
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _bench_name(request) -> str:
    module = request.node.module.__name__
    return module[len("bench_"):] if module.startswith("bench_") \
        else module


@pytest.fixture
def _session_stats_tracker(monkeypatch):
    """Collect the :class:`SessionStats` of every backend session a
    test opens (any backend — all sessions pass through
    ``BackendSession.__init__``), so per-run session counters can be
    embedded in the benchmark JSON without each module plumbing them."""
    from repro.backends.base import BackendSession
    created = []
    original = BackendSession.__init__

    def wrapped(self, backend):
        original(self, backend)
        created.append(self.stats)

    monkeypatch.setattr(BackendSession, "__init__", wrapped)
    return created


def aggregate_session_stats(stats_list):
    """Every session's counters folded into one JSON-ready dict (see
    ``SessionStats.as_dict``), plus how many sessions were opened."""
    from repro.backends.base import SessionStats
    total = SessionStats()
    for stats in stats_list:
        total.merge(stats)
    payload = total.as_dict()
    payload["sessions_opened"] = len(stats_list)
    return payload


@pytest.fixture(autouse=True)
def bench_json(request, _session_stats_tracker):
    """After every test that used the ``benchmark`` fixture, persist
    its timing stats, ``extra_info`` and the aggregated per-run
    session statistics (full/delta/spilled/rehydrated/evicted
    counters) to the module's JSON file."""
    # grab the fixture object up front — at teardown time it is no
    # longer retrievable, but its stats remain readable
    bench = request.getfixturevalue("benchmark") \
        if "benchmark" in request.fixturenames else None
    yield
    if bench is None:
        return
    payload = dict(getattr(bench, "extra_info", {}) or {})
    stats = getattr(bench, "stats", None)
    if stats is not None:
        timing = stats.stats
        payload.update(
            mean_s=timing.mean, min_s=timing.min, max_s=timing.max,
            rounds=timing.rounds)
    payload["session_stats"] = \
        aggregate_session_stats(_session_stats_tracker)
    payload["metrics_registry"] = _metrics_snapshot(payload)
    record_result(_bench_name(request), request.node.name, **payload)


def _metrics_snapshot(payload):
    """The run's counters as a flat metrics-registry snapshot: the
    session stats (and timing, when present) published through
    :func:`repro.obs.metrics.publish_stats`, exactly the projection
    ``ReenactmentService.metrics()`` serves live."""
    from repro.obs.metrics import MetricsRegistry, publish_stats
    registry = MetricsRegistry()
    publish_stats(registry, "bench_sessions", payload["session_stats"])
    timing = {k: payload[k] for k in ("mean_s", "min_s", "max_s",
                                      "rounds") if k in payload}
    if timing:
        publish_stats(registry, "bench_timing", timing)
    return registry.snapshot()


@pytest.fixture(scope="module")
def skew_db():
    """The running example history, shared per module."""
    db = Database()
    setup_bank(db)
    t1, t2 = run_write_skew_history(db)
    return db, t1, t2


def report(title, lines):
    """Uniform textual report block (shown with -s)."""
    print()
    print(f"== {title} ==")
    for line in lines:
        print("  " + line)
