"""What-if diffs over write sets.

``WhatIfScenario.diff_results`` compares the rows either side wrote
where that is exact and whole tables elsewhere; both must list exactly
what the whole-table multiset diff of ``tests/whatif_reference.py``
lists, order included.  Also here: the regression for a table only one
side wrote, which used to be diffed against nothing and so listed the
whole table.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro import Database
from repro.algebra.evaluator import Relation
from repro.core.reenactor import ReenactmentOptions
from repro.core.whatif import WhatIfFleet, WhatIfScenario
from repro.workloads import WorkloadConfig, WorkloadGenerator

from whatif_reference import reference_diffs

BACKENDS = ["memory", "sqlite"]
ISOLATION_LEVELS = ["SERIALIZABLE", "READ COMMITTED"]
ANNOTATED = ReenactmentOptions(annotations=True, include_deleted=True)


def _two_tables(isolation):
    """Tables ``a`` and ``b`` of five rows each, and a transaction that
    updates one row of ``a``."""
    db = Database()
    for table in ("a", "b"):
        db.execute(f"CREATE TABLE {table} (id INT, v INT)")
        db.execute(f"INSERT INTO {table} VALUES "
                   f"(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)")
    session = db.connect()
    session.begin(isolation)
    session.execute("UPDATE a SET v = v + 1 WHERE id = 1")
    xid = session.txn.xid
    session.commit()
    return db, xid


def _values(rows):
    return sorted(row[:2] for row in rows)


@pytest.mark.parametrize("annotations", [False, True])
@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_table_only_the_variant_writes_lists_its_write(backend, isolation,
                                                        annotations):
    db, xid = _two_tables(isolation)
    scenario = WhatIfScenario(db, xid, backend=backend)
    scenario.insert_statement(1, "UPDATE b SET v = v + 1 WHERE id = 2")
    options = ReenactmentOptions(annotations=annotations)
    result = scenario.run(options)
    diff = result.diffs["b"]
    assert _values(diff.added) == [(2, 21)]
    assert _values(diff.removed) == [(2, 20)]
    assert not result.diffs["a"].changed
    assert result.summary().splitlines()[1] == "b: +1 row(s), -1 row(s)"


@pytest.mark.parametrize("annotations", [False, True])
@pytest.mark.parametrize("isolation", ISOLATION_LEVELS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_table_only_the_original_writes_lists_its_write(backend, isolation,
                                                         annotations):
    db, xid = _two_tables(isolation)
    scenario = WhatIfScenario(db, xid, backend=backend)
    scenario.delete_statement(0)
    result = scenario.run(ReenactmentOptions(annotations=annotations))
    diff = result.diffs["a"]
    assert _values(diff.added) == [(1, 10)]
    assert _values(diff.removed) == [(1, 11)]
    assert result.summary().splitlines()[0] == "a: +1 row(s), -1 row(s)"


@pytest.mark.parametrize("backend", BACKENDS)
def test_only_affected_request_still_compares_against_nothing(backend):
    """A request for the affected rows has no whole state to fall back
    on: a table only one side wrote lists that side's written rows."""
    db, xid = _two_tables("SERIALIZABLE")
    scenario = WhatIfScenario(db, xid, backend=backend)
    scenario.insert_statement(1, "UPDATE b SET v = v + 1 WHERE id = 2")
    result = scenario.run(ReenactmentOptions(only_affected=True))
    assert _values(result.diffs["b"].added) == [(2, 21)]
    assert result.diffs["b"].removed == []


def test_write_set_path_compares_no_whole_tables(monkeypatch):
    """An SI fleet without edits, annotated, never counts a table."""
    db, xid = _two_tables("SERIALIZABLE")

    def refuse(self):
        raise AssertionError("whole-table multiset diff")

    monkeypatch.setattr(Relation, "as_multiset", refuse)
    fleet = WhatIfFleet(db, xid, backend="sqlite")
    fleet.scenario("b").insert_statement(
        1, "UPDATE b SET v = v + 1 WHERE id = 2")
    fleet.scenario("drop").delete_statement(0)
    fleet.scenario("more").replace_statement(
        0, "UPDATE a SET v = v + 2 WHERE id <= 2")
    results = fleet.run(ANNOTATED)
    assert [table for table, diff in results["b"].diffs.items()
            if diff.changed] == ["b"]
    assert len(results["more"].diffs["a"].added) == 2


# -- property: the write-set diff equals the whole-table one ---------------

SECOND_TABLE_WRITES = [
    "UPDATE side SET note = 'z' WHERE id = 1",
    "INSERT INTO side VALUES (9, 'n')",
    "DELETE FROM side WHERE id = 2",
]
ACCOUNT_WRITES = [
    "UPDATE bench_account SET bal = bal + 5 WHERE id = 2",
    "UPDATE bench_account SET bal = bal - 1 WHERE branch = 1",
    "DELETE FROM bench_account WHERE id = 3",
    "INSERT INTO bench_account VALUES (900, 'x', 1, 7)",
]


def _history(seed, isolation):
    db = Database()
    db.execute("CREATE TABLE side (id INT, note TEXT)")
    db.execute("INSERT INTO side VALUES (1, 'a'), (2, 'b')")
    generator = WorkloadGenerator(WorkloadConfig(
        n_rows=12, n_transactions=4, stmts_per_txn=(1, 3), seed=seed,
        isolation=isolation, n_branches=3,
        mix={"update": 0.45, "insert": 0.3, "delete": 0.25}))
    generator.setup(db)
    generator.run(db, concurrency=2)
    xids = [xid for xid in db.audit_log.transaction_ids()
            if db.audit_log.transaction_record(xid).committed
            and db.audit_log.transaction_record(xid).statements]
    return db, xids


def _apply(db, scenario, edit, draw):
    n = len(scenario.statements)
    kind = edit if n or edit not in ("replace", "delete") else "insert"
    if kind == "insert":
        scenario.insert_statement(draw(st.integers(0, n)),
                                  draw(st.sampled_from(ACCOUNT_WRITES)))
    elif kind == "replace":
        scenario.replace_statement(draw(st.integers(0, n - 1)),
                                   draw(st.sampled_from(ACCOUNT_WRITES)))
    elif kind == "delete":
        scenario.delete_statement(draw(st.integers(0, n - 1)))
    elif kind == "second":
        scenario.insert_statement(draw(st.integers(0, n)),
                                  draw(st.sampled_from(SECOND_TABLE_WRITES)))
    else:
        table = draw(st.sampled_from(["bench_account", "side"]))
        rows = [values for _, values, _ in
                db.table_snapshot(table, scenario.record.begin_ts)][1:]
        scenario.edit_table(table, rows[::-1])


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10**6),
       isolation=st.sampled_from(ISOLATION_LEVELS),
       backend=st.sampled_from(BACKENDS),
       flags=st.sampled_from([(False, False), (True, False),
                              (True, True)]),
       data=st.data())
def test_write_set_diff_equals_whole_table_diff(seed, isolation, backend,
                                                flags, data):
    db, xids = _history(seed, isolation)
    xid = data.draw(st.sampled_from(xids))
    annotations, include_deleted = flags
    options = ReenactmentOptions(annotations=annotations,
                                 include_deleted=include_deleted)
    fleet = WhatIfFleet(db, xid, backend=backend)
    edits = data.draw(st.lists(
        st.lists(st.sampled_from(["insert", "replace", "delete",
                                  "second", "edit"]),
                 min_size=1, max_size=3),
        min_size=1, max_size=3))
    for edit_list in edits:
        scenario = fleet.scenario()
        for edit in edit_list:
            _apply(db, scenario, edit, data.draw)
    for scenario, result in zip(fleet.scenarios, fleet.run(options).values()):
        want = reference_diffs(scenario, result.original, result.modified,
                               options)
        got = result.diffs
        assert list(got) == list(want)
        for table in want:
            assert got[table].added == want[table].added, table
            assert got[table].removed == want[table].removed, table
