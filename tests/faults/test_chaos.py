"""Chaos mode for the differential harness (the capstone oracle).

Seeded concurrent histories run through the reenactment service under
*randomized* fault plans over the spill, session and worker dispatch
sites.  The contract under any fault plan is
**correct-or-explicit-error**:

* a handle that resolves must match the fault-free reenactment
  (type-strict multiset comparison, same oracle as the backend
  differential sweep);
* a handle that fails must raise a *typed* :class:`ReproError`
  (injected fault, worker crash, service error) — never a wrong
  answer, never an untyped crash;
* every handle resolves within a bounded wait — no hangs.

WAL fault sites are exercised separately in
``tests/db/test_wal_faults.py`` (they quarantine the database, which
is a different contract from per-job degradation).
"""

import random
from collections import Counter

import pytest

from repro import Database, ReenactmentService
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.errors import ReproError
from repro.faults import FaultPlan, WorkerCrash, armed, disarm
from repro.workloads import WorkloadConfig, WorkloadGenerator

N_SEEDS = 20
#: bounded wait asserted on every handle — the "zero hung handles" bar.
RESULT_TIMEOUT = 60.0


def teardown_function(_fn):
    disarm()


def build_history(seed):
    """One seeded random concurrent history on a fresh database (same
    generator settings as the backend differential sweep)."""
    db = Database()
    generator = WorkloadGenerator(WorkloadConfig(
        n_rows=30, n_transactions=6, stmts_per_txn=(1, 4), seed=seed,
        isolation="SERIALIZABLE",
        mix={"update": 0.45, "insert": 0.3, "delete": 0.25}))
    generator.setup(db)
    generator.run(db, concurrency=3)
    return db


def committed_xids(db):
    out = []
    for xid in db.audit_log.transaction_ids():
        record = db.audit_log.transaction_record(xid)
        if record.committed and record.statements:
            out.append(xid)
    return out


def typed_rows(relation):
    return Counter(
        tuple((type(value).__name__, value) for value in row)
        for row in relation.rows)


def assert_relations_match(left, right, context=""):
    assert left.attrs == right.attrs, \
        f"attribute mismatch {context}"
    assert typed_rows(left) == typed_rows(right), \
        f"relation mismatch {context}"


def random_fault_plan(seed):
    """A randomized-but-seeded plan over the service-layer sites.

    Site selection and schedules come from a ``random.Random(seed)``,
    so each chaos seed exercises a *different* fault mix while any
    failure reproduces exactly from its seed."""
    rng = random.Random(f"chaos-plan:{seed}")
    plan = FaultPlan(seed=seed)
    if rng.random() < 0.7:
        plan.on("store.spill", probability=rng.uniform(0.05, 0.6))
    if rng.random() < 0.7:
        plan.on("store.rehydrate", probability=rng.uniform(0.05, 0.6))
    if rng.random() < 0.5:
        plan.on("session.execute", probability=rng.uniform(0.01, 0.1),
                count=rng.randint(1, 4))
    if rng.random() < 0.6:
        plan.on("worker.dispatch", probability=rng.uniform(0.1, 0.5),
                count=rng.randint(1, 3), error=WorkerCrash)
    if rng.random() < 0.3:
        plan.on("session.open", count=1)
    if rng.random() < 0.4:
        # uncapped on purpose: the spill tier may stay broken through
        # shutdown, and the service's close() must still return
        plan.on("store.write", probability=rng.uniform(0.3, 1.0))
    return plan


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_chaos_correct_or_explicit_error(seed):
    db = build_history(seed)
    xids = committed_xids(db)
    assert xids, "history generator produced no committed work"
    options = ReenactmentOptions(annotations=True,
                                 include_deleted=True)
    # the fault-free oracle, computed before any plan is armed
    reenactor = Reenactor(db)
    expected = {xid: reenactor.reenact(xid, options) for xid in xids}

    plan = random_fault_plan(seed)
    wrong_answers = []
    with armed(plan):
        with ReenactmentService(db, backend="sqlite",
                                workers=2) as svc:
            handles = {xid: svc.reenact(xid, options) for xid in xids}
            for xid, handle in handles.items():
                try:
                    result = handle.result(timeout=RESULT_TIMEOUT)
                except ReproError:
                    continue  # explicit, typed — allowed under faults
                for table, relation in expected[xid].tables.items():
                    try:
                        assert_relations_match(
                            result.table(table), relation,
                            context=f"seed={seed} xid={xid} "
                                    f"table={table}")
                    except AssertionError as exc:
                        wrong_answers.append(str(exc))
            # zero hung handles: every handle is resolved by now
            assert all(handle.done() for handle in handles.values()), \
                f"seed={seed}: unresolved handles after bounded wait"
            stats = svc.stats()
    assert not wrong_answers, \
        f"seed={seed} plan={sorted(plan.sites())}: " + \
        "; ".join(wrong_answers)
    # accounting: every submission ended as executed, failed, deduped,
    # cached or deadline-expired — nothing vanished
    assert stats.jobs_executed + stats.jobs_failed \
        + stats.jobs_deduplicated + stats.jobs_from_cache \
        >= len(xids)


def test_chaos_plans_are_diverse():
    # the randomized plans must actually vary across seeds, or the
    # sweep silently degenerates into one scenario
    site_sets = {frozenset(random_fault_plan(seed).sites())
                 for seed in range(N_SEEDS)}
    assert len(site_sets) >= 5
    assert any("worker.dispatch" in sites for sites in site_sets)
    assert any("store.spill" in sites for sites in site_sets)
