"""Shared machinery for the backend test suite.

``assert_relations_match`` is deliberately *type-strict*: Python treats
``True == 1`` (and ``2.0 == 2``), so a plain multiset comparison would
hide a backend returning SQLite's 0/1 integers where the evaluator
returns booleans.  Rows are compared as (type-name, value) pairs so a
coercion bug fails loudly.
"""

from collections import Counter

import pytest

from repro import Database
from repro.core.reenactor import ReenactmentOptions, Reenactor
from repro.workloads import WorkloadConfig, WorkloadGenerator

#: the registered SQL engines the differential sweeps cross-validate
#: against the in-memory interpreter — the list a new engine joins,
#: and only once its driver imports wherever tier-1 runs: an engine
#: here is never skipped.
SQL_ENGINES = ["sqlite"]


def typed_rows(relation):
    return Counter(
        tuple((type(value).__name__, value) for value in row)
        for row in relation.rows)


def assert_relations_match(left, right, context=""):
    assert left.attrs == right.attrs, \
        f"attribute mismatch {context}: {left.attrs} != {right.attrs}"
    left_counts = typed_rows(left)
    right_counts = typed_rows(right)
    if left_counts != right_counts:
        extra = +(left_counts - right_counts)
        missing = +(right_counts - left_counts)
        raise AssertionError(
            f"relation mismatch {context}: only-left={dict(extra)} "
            f"only-right={dict(missing)}")


def committed_xids(db):
    """Committed, non-empty transactions of a history in xid order."""
    out = []
    for xid in db.audit_log.transaction_ids():
        record = db.audit_log.transaction_record(xid)
        if record.committed and record.statements:
            out.append(xid)
    return out


def build_history(seed, isolation="SERIALIZABLE", n_rows=40,
                  n_transactions=6, concurrency=3, db=None):
    """One seeded random concurrent history on a fresh database (or on
    a caller-supplied one — e.g. a database with a WAL attached, so the
    crash/recover sweep can log the history as it happens)."""
    if db is None:
        db = Database()
    generator = WorkloadGenerator(WorkloadConfig(
        n_rows=n_rows, n_transactions=n_transactions,
        stmts_per_txn=(1, 4), seed=seed, isolation=isolation,
        mix={"update": 0.45, "insert": 0.3, "delete": 0.25}))
    generator.setup(db)
    generator.run(db, concurrency=concurrency)
    return db


def reenact_on(db, xid, backend, **option_kw):
    return Reenactor(db, backend=backend).reenact(
        xid, ReenactmentOptions(**option_kw))


@pytest.fixture
def db():
    return Database()
