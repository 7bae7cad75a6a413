"""core.equivalence across backends: the same history must be judged
equivalent to its original execution no matter which engine ran the
reenactment query (the ground-truth side always reads storage
directly, so this closes the loop: reenactment-on-SQLite == original
execution, not just reenactment-on-SQLite == reenactment-in-memory)."""

import pytest

from repro.core.equivalence import (check_history_equivalence,
                                    check_transaction_equivalence)

from conftest import build_history, committed_xids

BACKENDS = ["memory", "sqlite"]


@pytest.mark.parametrize("isolation",
                         ["SERIALIZABLE", "READ COMMITTED"])
def test_history_equivalence_all_backends(isolation):
    db = build_history(seed=11, isolation=isolation)
    for backend in BACKENDS:
        reports = check_history_equivalence(db, backend=backend)
        assert reports, "history committed no transactions"
        failures = {xid: report.failures()
                    for xid, report in reports.items() if not report.ok}
        assert not failures, (backend, isolation, failures)


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_transaction_reports_agree(backend):
    db = build_history(seed=23)
    xid = committed_xids(db)[0]
    report = check_transaction_equivalence(db, xid, backend=backend)
    assert report.ok, report.failures()


def test_unoptimized_plans_also_equivalent_on_sqlite():
    """optimize=False exercises the raw (deepest) chains — the shape
    most likely to stress the CTE flattening."""
    db = build_history(seed=5, n_transactions=4)
    reports = check_history_equivalence(db, optimize=False,
                                        backend="sqlite")
    assert reports and all(r.ok for r in reports.values())


def test_reports_identical_across_backends():
    db = build_history(seed=31)
    per_backend = {
        backend: check_history_equivalence(db, backend=backend)
        for backend in BACKENDS}
    memory_reports, sqlite_reports = (per_backend["memory"],
                                      per_backend["sqlite"])
    assert set(memory_reports) == set(sqlite_reports)
    for xid in memory_reports:
        left = memory_reports[xid]
        right = sqlite_reports[xid]
        assert left.ok == right.ok
        for lcheck, rcheck in zip(left.checks, right.checks):
            assert lcheck.table == rcheck.table
            assert lcheck.written_actual == rcheck.written_actual
            assert lcheck.deleted_actual == rcheck.deleted_actual
